import numpy as np
import pytest
from scipy import ndimage

from ilt_admm.targets import GENERATORS, mixed, strips, ten_rectangles


def test_ten_rectangles_shape_and_content():
    t = ten_rectangles()
    assert t.shape == (144, 144)
    assert set(np.unique(t)) == {0.0, 1.0}
    # two columns of width 20 spanning rows [2, 142)
    assert t.sum() == 2 * 20 * 140


def test_ten_rectangles_two_columns():
    t = ten_rectangles()
    col_mass = t.sum(axis=0)
    occupied = np.flatnonzero(col_mass)
    # two disjoint 20-wide runs
    assert len(occupied) == 40
    gaps = np.diff(occupied)
    assert np.count_nonzero(gaps > 1) == 1


def test_strips_geometry():
    t = strips(144)
    assert t.sum() == 3 * 16 * (144 - 32)


def test_mixed_has_three_features():
    t = mixed()
    assert t.shape == (144, 144)
    assert t.sum() == 2 * 32 * 32 + 20 * 128


# each generator's 4-connected feature count and smallest intact field
LAYOUTS = {"ten_rectangles": (2, 42), "strips": (3, 51), "mixed": (3, 66)}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generator_rejects_fields_that_break_its_layout(name):
    # every field size either raises or keeps the layout intact: a 0/1
    # pattern with as many features as at n = 144. The sizes that raise
    # are exactly those below the smallest intact field.
    features, smallest = LAYOUTS[name]
    gen = GENERATORS[name]
    assert ndimage.label(gen(144))[1] == features
    for n in range(1, 200):
        if n < smallest:
            with pytest.raises(ValueError):
                gen(n)
            continue
        out = gen(n)
        assert out.shape == (n, n), n
        assert set(np.unique(out)) == {0.0, 1.0}, n
        assert ndimage.label(out)[1] == features, n


def test_generator_registry():
    assert set(GENERATORS) == {"ten_rectangles", "strips", "mixed"}
    for gen in GENERATORS.values():
        out = gen()
        assert out.shape == (144, 144)
        assert set(np.unique(out)) <= {0.0, 1.0}
