import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ilt_admm.grids import (GridError, as_binary, as_grid, as_precision, inner,
                            l1_norm, l2_norm, sum_squares, working_precision)

finite_grids = arrays(np.float64, (5, 5),
                      elements=st.floats(-10, 10, allow_nan=False))


def test_norms_trivial():
    x = np.zeros((4, 4))
    x[2, 1] = 3.0
    assert l2_norm(x) == 3.0


@given(finite_grids, finite_grids)
def test_l2_squared_is_self_inner(x, y):
    # sum_squares is the one ||x||^2: on real grids the self inner product
    # bit for bit, on complex ones the sum over the interleaved real view,
    # whatever the memory layout
    assert sum_squares(x) == inner(x, x)
    c = x + 1j * y
    assert sum_squares(c) == sum_squares(c.view(float))
    for view in (c.T, c[:, ::2]):
        assert sum_squares(view) == sum_squares(view.copy())
    for z in (x, c):
        assert l2_norm(z) ** 2 == pytest.approx(inner(z, z), rel=1e-12, abs=1e-12)
        # numpy's pairwise sums agree with the BLAS reductions they replace
        assert l2_norm(z) == pytest.approx(np.linalg.norm(z), rel=1e-12, abs=1e-12)
        assert inner(z, y) == pytest.approx(np.vdot(z, y).real, rel=1e-12, abs=1e-9)


def test_working_precision_is_single_only_for_float32_data():
    # float32 when the grids promote to float32 or complex64, float64 for
    # any other mix; the cast keeps complex data complex and returns a
    # grid already in the precision itself
    single = [(np.float32,), (np.complex64,), (np.float32, np.float16),
              (np.float32, np.int8), (np.float32, np.complex64)]
    double = [(bool,), (np.uint8,), (np.int8,), (np.int16,), (np.int64,),
              (np.float16,), (np.float64,), (np.complex128,),
              (np.float32, np.float64), (np.float32, np.int32)]
    for dtypes in single + double:
        grids = [np.zeros((2, 2), d) for d in dtypes]
        want = np.float32 if dtypes in single else np.float64
        assert working_precision(*grids) == want, dtypes
    for dtype in (np.float32, np.float64, np.complex64, np.complex128):
        a = np.zeros((2, 2), dtype)
        assert as_precision(a, working_precision(a)) is a
    casts = [(np.float32, np.float64, np.float64), (np.int16, np.float32, np.float32),
             (np.complex64, np.float64, np.complex128),
             (np.complex128, np.float32, np.complex64)]
    for dtype, precision, want in casts:
        assert as_precision(np.zeros((2, 2), dtype), precision).dtype == want


def test_sum_squares_single_precision():
    # squared in the input's precision, summed in float64: a complex64
    # grid is viewed as float32 pairs, not reinterpreted as float64
    c = np.array([[3 + 4j, 1], [0, 2j]], np.complex64)
    assert sum_squares(c) == 30.0
    rng = np.random.default_rng(5)
    x = rng.normal(size=(144, 144))
    z = x + 1j * rng.normal(size=x.shape)
    for a, single in ((x, np.float32), (z, np.complex64)):
        low = a.astype(single)
        assert sum_squares(low) == pytest.approx(sum_squares(a), rel=1e-6)


def test_sum_squares_sums_in_c_order_whatever_the_layout():
    # real input is summed in C order, as complex input is: a transpose
    # and its C-order copy give the same bits, for sum_squares and for
    # inner. Summed in memory order, a transpose's sum differs from its
    # copy's in the last bit on some grids (here, the first uniform grid
    # in both precisions, and for inner the first uniform float64 one)
    rng = np.random.default_rng(11)
    for _ in range(4):
        for x in (rng.normal(size=(144, 144)), rng.random((144, 144))):
            for a in (x, x.astype(np.float32)):
                assert sum_squares(a.T) == sum_squares(a.T.copy()), a.dtype
            assert inner(x.T, x.T) == inner(x.T.copy(), x.T.copy())
            assert inner(x.T, x.T) == sum_squares(x.T)


def test_l1_norm_sums_in_float64_in_c_order_whatever_the_layout():
    # |x| in x's precision, summed in float64: a float32 grid's norm is
    # its float64 copy's (a float32 sum is off by about 1e-8 here), and a
    # transpose gives its C-order copy's bits. Summed in memory order, a
    # transpose's sum differs from its copy's in the last bit on some grids
    # (here, the fourth normal float64 one)
    assert l1_norm(np.array([[-1.5, 2.0], [0.25, -3.0]], np.float32)) == 6.75
    rng = np.random.default_rng(11)
    for _ in range(4):
        for x in (rng.normal(size=(144, 144)), rng.random((144, 144))):
            low = x.astype(np.float32)
            assert l1_norm(low) == pytest.approx(l1_norm(low.astype(np.float64)),
                                                 rel=1e-12)
            for a in (x, low):
                assert l1_norm(a.T) == l1_norm(a.T.copy()), a.dtype
            assert l1_norm(x) == pytest.approx(np.abs(x).sum(), rel=1e-12)


def test_inner_requires_matching_shapes():
    with pytest.raises(GridError):
        inner(np.zeros((3, 3)), np.zeros((4, 4)))


def test_as_grid_rejects_bad_input():
    with pytest.raises(GridError):
        as_grid(np.zeros((2, 3)))
    with pytest.raises(GridError):
        as_grid(np.array([[1.0, np.inf], [0.0, 0.0]]))


def test_as_grid_returns_float64_grid_itself():
    a = np.arange(9.0).reshape(3, 3)
    assert as_grid(a) is a
    b = as_grid(np.eye(3, dtype=int))
    assert b.dtype == np.float64 and np.array_equal(b, np.eye(3))


def test_as_binary_rejects_non_binary():
    as_binary(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(GridError):
        as_binary(np.array([[0.0, 0.5], [1.0, 0.0]]))
