import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ilt_admm.grids import (GridError, as_binary, as_grid, inner, l2_norm,
                            project_box, sum_squares)

finite_grids = arrays(np.float64, (5, 5),
                      elements=st.floats(-10, 10, allow_nan=False))


def test_project_box_clamps():
    u = np.array([[1.2, -0.3], [0.5, 0.0]])
    assert np.array_equal(project_box(u), [[1.0, 0.0], [0.5, 0.0]])


@given(finite_grids)
def test_project_box_idempotent(u):
    once = project_box(u)
    assert np.array_equal(project_box(once), once)
    assert once.min() >= 0.0 and once.max() <= 1.0


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
