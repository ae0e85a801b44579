import random

from hypothesis import given
from hypothesis import strategies as st

from dle.rng import substream_family
from reference import mix, np_substream


def test_mix_is_stable_and_sensitive():
    assert mix(0, "a") == mix(0, "a")
    assert mix(0, "a") != mix(0, "b")
    assert mix(0, "a") != mix(1, "a")
    assert mix(0, "ab") != mix(0, "a", "b")


def test_mix_known_value_pins_cross_platform_behavior():
    # Frozen so a platform or refactor regression shows up as a seed change.
    assert mix(42, "baseline-draw", 0) == 3842680837387638053


def test_substreams_are_independent_and_reproducible():
    a = substream_family(7, "x")().random()
    b = substream_family(7, "x")().random()
    c = substream_family(7, "y")().random()
    assert a == b
    assert a != c


_SEEDS = st.one_of(st.integers(-2 ** 70, 2 ** 70), st.integers(2 ** 64, 2 ** 80))
_PARTS = st.lists(st.one_of(_SEEDS, st.text(max_size=4), st.binary(max_size=4)), max_size=3)


@given(seed=_SEEDS, prefix=_PARTS, tail=_PARTS)
def test_substream_family_matches_direct_derivation(seed, prefix, tail):
    # Negative ints and ints >= 2**64 are reduced modulo 2**64.
    stream = substream_family(seed, *prefix)(*tail)
    assert stream.getstate() == random.Random(mix(seed, *prefix, *tail)).getstate()


def test_np_substream_reproducible():
    x = np_substream(3, "mc").random(4)
    y = np_substream(3, "mc").random(4)
    assert (x == y).all()
