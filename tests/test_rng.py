from dle.rng import mix, substream, substream_family
from reference import np_substream


def test_mix_is_stable_and_sensitive():
    assert mix(0, "a") == mix(0, "a")
    assert mix(0, "a") != mix(0, "b")
    assert mix(0, "a") != mix(1, "a")
    assert mix(0, "ab") != mix(0, "a", "b")


def test_mix_known_value_pins_cross_platform_behavior():
    # Frozen so a platform or refactor regression shows up as a seed change.
    assert mix(42, "baseline-draw", 0) == 3842680837387638053


def test_substreams_are_independent_and_reproducible():
    a = substream(7, "x").random()
    b = substream(7, "x").random()
    c = substream(7, "y").random()
    assert a == b
    assert a != c


def test_substream_family_matches_direct_derivation():
    family = substream_family(13, "baseline-draw")
    for draw in (0, 1, 2, 100):
        assert family(draw).random() == substream(13, "baseline-draw", draw).random()


def test_np_substream_reproducible():
    x = np_substream(3, "mc").random(4)
    y = np_substream(3, "mc").random(4)
    assert (x == y).all()
