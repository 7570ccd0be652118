import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ilt_admm.grids import GridError, inner, l1_norm
from ilt_admm.regularization import diff_adjoint, phi, shrink

RNG = np.random.default_rng(11)

grids_6x6 = arrays(np.float64, (6, 6),
                   elements=st.floats(-5, 5, allow_nan=False))


def differences(u):
    """(Dx u, Dy u): Phi's first two fields at beta1 = 1."""
    return phi(u, 1.0, 0.0)[:2]


def tv(u):
    """Anisotropic total variation, ||Phi(u)||_1 at beta1 = 1, beta2 = 0."""
    return l1_norm(phi(u, 1.0, 0.0))


def binarity(u):
    """sum |u(1 - u)|, ||Phi(u)||_1 at beta1 = 0, beta2 = 1."""
    return l1_norm(phi(u, 0.0, 1.0))


def test_diff_forward_constant_grid_is_zero():
    dx, dy = differences(np.full((5, 5), 3.7))
    assert np.all(dx == 0.0) and np.all(dy == 0.0)


def test_diff_forward_ramp():
    u = np.tile(np.arange(4.0), (4, 1))  # rises left to right
    dx, dy = differences(u)
    assert np.array_equal(dx[:, :-1], np.ones((4, 3)))
    assert np.all(dx[:, -1] == 0.0)
    assert np.all(dy == 0.0)


def test_diff_rejects_degenerate_grids():
    with pytest.raises(GridError):
        phi(np.zeros((1, 4)), 1.0, 0.0)
    with pytest.raises(GridError):
        phi(np.zeros((1, 1)), 0.01, 0.015)


@given(grids_6x6, grids_6x6, grids_6x6)
def test_diff_adjoint_identity(u, yx, yy):
    """<D u, y> == <u, D^T y> with the trailing closure entries zeroed."""
    dx, dy = differences(u)
    yx = yx.copy()
    yy = yy.copy()
    yx[:, -1] = 0.0
    yy[-1, :] = 0.0
    lhs = inner(dx, yx) + inner(dy, yy)
    rhs = inner(u, diff_adjoint(yx, yy))
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_tv_norm_single_square():
    u = np.zeros((8, 8))
    u[3:5, 3:5] = 1.0
    # a 2x2 block contributes 2 rising and 2 falling edges per direction
    assert tv(u) == 8.0


def test_binarity_penalty_zero_on_binary():
    b = (RNG.random((10, 10)) < 0.4).astype(float)
    assert binarity(b) == 0.0
    assert binarity(np.full((2, 2), 0.5)) == pytest.approx(1.0)


def test_phi_components():
    # phi writes into one array; its values must be those of the
    # component-wise formula bit for bit, with beta2 * u applied before (1 - u)
    for n, b1, b2 in ((6, 0.01, 0.015), (11, 0.3, 7.0), (2, 1.0, 0.0)):
        u = RNG.random((n, n))
        u[0, 0], u[-1, -1] = 0.0, 1.0
        t = phi(u, beta1=b1, beta2=b2)
        dx, dy = differences(u)
        assert t.shape == (3, n, n)
        assert np.array_equal(t, np.stack((b1 * dx, b1 * dy, b2 * u * (1.0 - u))))


def test_phi_l1_matches_weighted_norms():
    u = RNG.random((6, 6))
    got = l1_norm(phi(u, 0.01, 0.015))
    want = 0.01 * tv(u) + 0.015 * binarity(u)
    assert got == pytest.approx(want, rel=1e-12)


def test_shrink_scalar_cases():
    assert shrink(np.array([0.5]), 0.2)[0] == pytest.approx(0.3)
    assert shrink(np.array([-0.5]), 0.2)[0] == pytest.approx(-0.3)
    assert shrink(np.array([0.1]), 0.2)[0] == 0.0
    with pytest.raises(ValueError):
        shrink(np.array([1.0]), -0.1)


@given(grids_6x6, st.floats(0.0, 2.0, allow_nan=False))
def test_shrink_is_proximal_contraction(x, kappa):
    out = shrink(x, kappa)
    assert np.all(np.abs(out) <= np.abs(x) + 1e-12)
    assert np.all(np.abs(x) - np.abs(out) <= kappa + 1e-12)



def differences_formula(u):
    """(Dx u, Dy u) formed whole: np.diff, closed by a zero column/row."""
    n = u.shape[0]
    return (np.concatenate((np.diff(u, axis=1), np.zeros((n, 1))), axis=1),
            np.concatenate((np.diff(u, axis=0), np.zeros((1, n))), axis=0))


def adjoint_formula(yx, yy):
    """D^T (yx, yy) formed whole: the negative backward differences along
    columns plus those along rows, the closure entries ignored."""
    cols = np.concatenate((-yx[:, :1], -np.diff(yx[:, :-1], axis=1),
                           yx[:, -2:-1]), axis=1)
    rows = np.concatenate((-yy[:1], -np.diff(yy[:-1], axis=0), yy[-2:-1]), axis=0)
    return cols + rows


@pytest.mark.parametrize("n", (2, 3, 9))
def test_maps_follow_their_input_precision(n):
    # float64 input gives the formulas' bytes, so criterion 2 and the solver
    # records cannot drift; float32 input, the U-step's, stays float32 and
    # within 1e-6 of the float64 result on the same values; float16 and
    # integer input map as their float64 copy, bit for bit
    u, yx, yy = RNG.random((n, n)), RNG.normal(size=(n, n)), RNG.normal(size=(n, n))
    x = RNG.normal(size=(3, n, n))
    b1, b2, kappa = 0.01, 0.015, 1.0 / 30.0
    maps = {
        "differences": (differences, (u,), np.stack(differences_formula(u))),
        "diff_adjoint": (diff_adjoint, (yx, yy), adjoint_formula(yx, yy)),
        "phi": (lambda u: phi(u, b1, b2), (u,),
                np.stack([b1 * d for d in differences_formula(u)]
                         + [b2 * u * (1.0 - u)])),
        "shrink": (lambda x: shrink(x, kappa), (x,),
                   np.sign(x) * np.maximum(np.abs(x) - kappa, 0.0)),
    }
    for name, (f, args, formula) in maps.items():
        got = f(*args)
        assert got.dtype == np.float64 and np.array_equal(got, formula), name
        single = [a.astype(np.float32) for a in args]
        got = f(*single)
        want = f(*(a.astype(np.float64) for a in single))
        assert got.dtype == np.float32, name
        assert np.abs(got - want).max() <= 1e-6 * max(np.abs(want).max(), 1.0), name
        for other in ([a.astype(np.float16) for a in args],
                      [np.round(50 * a).astype(np.int16) for a in args]):
            got = f(*other)
            want = f(*(a.astype(np.float64) for a in other))
            assert got.dtype == np.float64, (name, other[0].dtype)
            assert got.tobytes() == want.tobytes(), (name, other[0].dtype)
    # a numpy-scalar threshold (a SolverConfig may hold one) keeps float32
    assert shrink(x.astype(np.float32), np.float64(kappa)).dtype == np.float32
    # the norms sum in float64 whatever the input's precision
    for norm in (tv, binarity):
        assert norm(u.astype(np.float32)) == pytest.approx(
            norm(u.astype(np.float32).astype(np.float64)), rel=1e-6)
