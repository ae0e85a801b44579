import pytest

from dle.aggregate import (UNPARSED, majority_vote, parse_extractor, regex_extractor,
                           suffix_extractor)
from dle.errors import ConfigError


def test_uniform_vote_counts_sequences():
    result = majority_vote([("A", 0.2), ("A", 0.1), ("B", 0.5)])
    assert result.winner == "A"
    assert result.weights["A"] == 2.0
    assert result.weights["B"] == 1.0


def test_probability_vote_uses_mass():
    result = majority_vote([("A", 0.1), ("B", 0.5)], weighting="prob")
    assert result.winner == "B"


def test_count_tie_breaks_by_total_mass():
    result = majority_vote([("A", 0.6), ("B", 0.4)])
    assert result.winner == "A"


def test_full_tie_breaks_lexicographically():
    result = majority_vote([("B", 0.5), ("A", 0.5)])
    assert result.winner == "A"


def test_unparsed_never_wins():
    result = majority_vote([(UNPARSED, 0.9), (UNPARSED, 0.8), ("Z", 0.1)])
    assert result.winner == "Z"
    all_unparsed = majority_vote([(UNPARSED, 0.9)])
    assert all_unparsed.winner is None


def test_vote_requires_input():
    with pytest.raises(ConfigError):
        majority_vote([])


def test_uniform_winner_ignores_mass_rescaling():
    labeled = [("A", 0.3), ("A", 0.1), ("B", 0.5)]
    base = majority_vote(labeled).winner
    scaled = majority_vote([(lb, q * 7.5) for lb, q in labeled]).winner
    assert base == scaled == "A"


def test_probability_winner_is_scale_invariant():
    labeled = [("A", 0.1), ("B", 0.5), ("A", 0.3)]
    base = majority_vote(labeled, weighting="prob").winner
    scaled = majority_vote([(lb, q * 0.01) for lb, q in labeled], weighting="prob").winner
    assert base == scaled == "B"


def test_adding_a_dominating_label_leaf_keeps_the_winner():
    labeled = [("A", 0.3), ("A", 0.2), ("B", 0.1)]
    assert majority_vote(labeled).winner == "A"
    assert majority_vote(labeled + [("A", 0.05)]).winner == "A"


def test_extractors():
    identity = parse_extractor("identity")
    assert identity("hello") == "hello"

    suffix = parse_extractor("suffix:=")
    assert suffix("x + y = 12") == "12"
    assert suffix("no delimiter here") == UNPARSED

    regex = parse_extractor(r"regex:answer is (\d+)")
    assert regex("the answer is 42.") == "42"
    assert regex("nothing") == UNPARSED

    groupless = regex_extractor(r"\d+")
    assert groupless("abc 7 def") == "7"


def test_extractor_errors():
    with pytest.raises(ConfigError):
        parse_extractor("suffix:")
    with pytest.raises(ConfigError):
        parse_extractor("regex:([unclosed")
    with pytest.raises(ConfigError):
        parse_extractor("mystery")
    with pytest.raises(ConfigError):
        suffix_extractor("")


def test_vote_rejects_unknown_weighting():
    with pytest.raises(ConfigError):
        majority_vote([("A", 0.5)], weighting="borda")
