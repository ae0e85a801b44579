import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dle.errors import ConfigError
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


_SEEDS = st.integers(-2 ** 63, 2 ** 63 - 1)
_PARTS = st.lists(st.one_of(_SEEDS, st.text(max_size=4), st.binary(max_size=4)), max_size=3)


@given(seed=_SEEDS, prefix=_PARTS, tail=_PARTS)
@example(seed=-2 ** 63, prefix=[-5, -1, 0], tail=[5, 2 ** 63 - 1])
def test_substream_family_matches_direct_derivation(seed, prefix, tail):
    # An int's two's-complement bytes are those of its value modulo 2**64.
    stream = substream_family(seed, *prefix)(*tail)
    assert stream.getstate() == random.Random(mix(seed, *prefix, *tail)).getstate()


@pytest.mark.parametrize("seed", [2 ** 63, 2 ** 64, -2 ** 64, -2 ** 63 - 1])
def test_seeds_outside_64_bits_raise_instead_of_aliasing(seed):
    # Masked, 2**64 and -2**64 would give seed 0's stream.
    for derive in (lambda: substream_family(seed), lambda: substream_family(0, "x", seed),
                   lambda: substream_family(0)(seed)):
        with pytest.raises(ConfigError, match=rf"^seed {seed} is outside -2\*\*63\.\.2\*\*63-1$"):
            derive()


def test_np_substream_reproducible():
    x = np_substream(3, "mc").random(4)
    y = np_substream(3, "mc").random(4)
    assert (x == y).all()
