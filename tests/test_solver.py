import numpy as np
import pytest

from ilt_admm import solver
from ilt_admm.grids import inner
from ilt_admm.metrics import evaluate
from ilt_admm.optics import OpticsConfig, PsfKernel, build_psf, convolve
from oracles import fd_gradient, v_oracle
from ilt_admm.regularization import binarity_penalty, phi, tv_norm
from ilt_admm.solver import (ConvergenceRecord, SolverConfig, _bregman_objective,
                             admm_optimize,
                             augmented_lagrangian, check_rho_condition,
                             dual_update,
                             estimate_lipschitz, grad_F, grad_h,
                             lagrangian_trace_check, sigmoid_misfit,
                             u_subproblem, v_subproblem)

RNG = np.random.default_rng(31)

SMALL_OPTICS = OpticsConfig(kernel_size=20)


def small_kernel():
    return build_psf(SMALL_OPTICS)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(rho=0.0)
    with pytest.raises(ValueError):
        SolverConfig(beta1=-0.1)
    with pytest.raises(ValueError, match="outer_max_iters"):
        SolverConfig(outer_max_iters=0)
    with pytest.raises(ValueError, match="bregman_max_iters"):
        SolverConfig(bregman_max_iters=-1)
    with pytest.raises(ValueError, match="descent_max_iters"):
        SolverConfig(descent_max_iters=-1)
    # nan passes a "<= 0" test, so every float setting is checked finite
    for name in ("rho", "gamma", "beta1", "beta2", "outer_tol", "bregman_tol"):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=name):
                SolverConfig(**{name: bad})
    assert SolverConfig(bregman_tol=None).bregman_tol is None


def test_bregman_tolerance_default_scales_with_size():
    cfg = SolverConfig()
    assert cfg.bregman_tolerance(144) == pytest.approx(144e-4)
    assert SolverConfig(bregman_tol=0.5).bregman_tolerance(144) == 0.5


def test_sigmoid_misfit_perfect_image():
    target = np.array([[1.0, 0.0]])
    # strongly exposed / strongly dark pixels: sigmoid saturates
    v = np.array([[10.0 + 0j, 0.0 + 0j]])
    assert sigmoid_misfit(v, target, 20.0, 0.3) < 1e-3


def test_grad_h_matches_finite_differences():
    target = (RNG.random((4, 4)) < 0.5).astype(float)
    v = 0.4 * (RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))) + 0.55

    def f(vv):
        return sigmoid_misfit(vv, target, 20.0, 0.3)

    want = fd_gradient(f, v)
    got = grad_h(v, target, 20.0, 0.3)
    denom = max(np.abs(want).max(), 1e-12)
    assert np.abs(got - want).max() / denom < 1e-5


def test_grad_F_matches_finite_differences_with_nonzero_bregman_state():
    cfg = SolverConfig()
    kernel = PsfKernel(RNG.normal(size=(5, 5)) + 1j * RNG.normal(size=(5, 5)))
    for _ in range(5):
        u = RNG.random((6, 6))
        w = RNG.normal(size=(6, 6)) + 1j * RNG.normal(size=(6, 6))
        d = RNG.normal(size=(3, 6, 6))
        b = RNG.normal(size=(3, 6, 6))

        def f(uu):
            gap = d - phi(uu, cfg.beta1, cfg.beta2) - b
            hu = convolve(kernel, uu)
            return (float(np.sum(np.abs(hu - w) ** 2))
                    + 0.5 * cfg.gamma * float(np.sum(gap ** 2)))

        want = fd_gradient(f, u)
        got = grad_F(u, w, d, b, cfg, kernel)
        assert np.abs(got - want).max() / np.abs(want).max() < 1e-5


def test_grad_F_reusing_residual_and_gap_is_bit_identical():
    # the U-step hands grad_F the residual HU - W and the gap of its last
    # objective evaluation; the gradient must equal one built from scratch
    cfg = SolverConfig()
    n = 12
    for kernel in (small_kernel(),
                   build_psf(OpticsConfig(kernel_size=20, defocus_nm=50.0))):
        u = RNG.random((n, n))
        w = RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))
        d = RNG.normal(size=(3, n, n))
        b = RNG.normal(size=(3, n, n))
        hu = convolve(kernel, u)
        f, resid, gap = _bregman_objective(u, hu, w, d, b, cfg)
        assert np.array_equal(resid, hu - w)
        assert np.array_equal(gap, d - phi(u, cfg.beta1, cfg.beta2) - b)
        assert f == (float(np.sum(np.abs(hu - w) ** 2))
                     + 0.5 * cfg.gamma * float(np.sum(gap ** 2)))
        got = grad_F(u, w, d, b, cfg, kernel, resid=resid, gap=gap)
        assert np.array_equal(got, grad_F(u, w, d, b, cfg, kernel))


def test_estimate_lipschitz_stable_and_positive():
    a = estimate_lipschitz(20.0, 0.3, samples=200_000)
    b = estimate_lipschitz(20.0, 0.3, samples=400_000)
    assert a > 0
    assert abs(a - b) / b < 0.02
    with pytest.raises(ValueError):
        estimate_lipschitz(0.0, 0.3)


def test_check_rho_condition_signs():
    assert check_rho_condition(10.0, 1.0) is True   # 5 - 0.1 - 1 > 0
    assert check_rho_condition(1.0, 1.0) is False   # 0.5 - 1 - 1 < 0
    # boundary: rho/2 - L/rho - L == 0 must be classified False (strict)
    l_h = 1.0
    rho = l_h + np.sqrt(l_h ** 2 + 2.0 * l_h)
    assert abs(rho / 2.0 - l_h / rho - l_h) < 1e-12
    assert check_rho_condition(rho, l_h) is False
    with pytest.raises(ValueError):
        check_rho_condition(-1.0, 1.0)


def test_augmented_lagrangian_splitting_consistency():
    # with V = HU and P = 0 the dual and quadratic terms vanish and the
    # Lagrangian reduces to the plain objective
    kernel = small_kernel()
    cfg = SolverConfig()
    u = (RNG.random((24, 24)) < 0.5).astype(float)
    target = (RNG.random((24, 24)) < 0.5).astype(float)
    v = convolve(kernel, u)
    p = np.zeros_like(v)
    want = (sigmoid_misfit(v, target, SMALL_OPTICS.sigmoid_steepness,
                           SMALL_OPTICS.threshold)
            + cfg.beta1 * tv_norm(u) + cfg.beta2 * binarity_penalty(u))
    got = augmented_lagrangian(u, v, v, p, target, SMALL_OPTICS.sigmoid_steepness,
                               SMALL_OPTICS.threshold, cfg)
    assert got == pytest.approx(want, rel=1e-12)


def test_augmented_lagrangian_recomposition():
    kernel = PsfKernel(RNG.normal(size=(5, 5)) + 1j * RNG.normal(size=(5, 5)))
    cfg = SolverConfig()
    u = RNG.random((8, 8))
    v = RNG.normal(size=(8, 8)) + 1j * RNG.normal(size=(8, 8))
    p = RNG.normal(size=(8, 8)) + 1j * RNG.normal(size=(8, 8))
    target = (RNG.random((8, 8)) < 0.5).astype(float)
    hu = convolve(kernel, u)
    resid = v - hu
    want = (sigmoid_misfit(v, target, SMALL_OPTICS.sigmoid_steepness,
                           SMALL_OPTICS.threshold)
            + cfg.beta1 * tv_norm(u) + cfg.beta2 * binarity_penalty(u)
            + inner(p, resid) + 0.5 * cfg.rho * float(np.sum(np.abs(resid) ** 2)))
    got = augmented_lagrangian(u, hu, v, p, target, SMALL_OPTICS.sigmoid_steepness,
                               SMALL_OPTICS.threshold, cfg)
    assert got == pytest.approx(want, rel=1e-10)


def test_u_subproblem_stationary_start():
    kernel = small_kernel()
    cfg = SolverConfig(beta1=0.0, beta2=0.0)
    u_true = (RNG.random((32, 32)) < 0.5).astype(float)
    w = convolve(kernel, u_true)
    out, hu = u_subproblem(w, u_true, w, cfg, kernel)
    assert np.abs(out - u_true).max() < 1e-10
    assert np.array_equal(hu, convolve(kernel, out))


def test_u_subproblem_descends_and_stays_feasible():
    cfg = SolverConfig()
    target = np.zeros((32, 32))
    target[8:24, 8:24] = 1.0
    u0 = target.astype(float)
    # a real PSF at focus, a complex one at 50 nm defocus
    for optics_cfg in (SMALL_OPTICS, OpticsConfig(kernel_size=20, defocus_nm=50.0)):
        kernel = build_psf(optics_cfg)
        w = convolve(kernel, target) + 0.1

        def objective(u):
            return (float(np.sum(np.abs(convolve(kernel, u) - w) ** 2))
                    + cfg.beta1 * tv_norm(u) + cfg.beta2 * binarity_penalty(u))

        out, hu = u_subproblem(w, u0, convolve(kernel, u0), cfg, kernel)
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert objective(out) <= objective(u0) + 1e-12
        assert np.array_equal(hu, convolve(kernel, out))


def test_v_subproblem_validation():
    with pytest.raises(ValueError):
        v_subproblem(np.zeros((2, 2), complex), np.zeros((2, 2)), -1.0, 0.3)
    with pytest.raises(ValueError):
        v_subproblem(np.zeros((2, 2), complex), np.zeros((2, 2)), 10.0, 1.5)


def v_cost(v, w, target, rho, tr):
    t = (np.abs(v) ** 2 >= tr).astype(float)
    return (t - target) ** 2 + 0.5 * rho * np.abs(v - w) ** 2


def test_v_subproblem_never_worse_than_keeping_w():
    w = RNG.normal(size=(12, 12)) + 1j * RNG.normal(size=(12, 12))
    target = (RNG.random((12, 12)) < 0.5).astype(float)
    v = v_subproblem(w, target, 10.0, 0.3)
    assert np.all(v_cost(v, w, target, 10.0, 0.3)
                  <= v_cost(w, w, target, 10.0, 0.3) + 1e-12)


def test_v_subproblem_matches_oracle_costs():
    w = 0.8 * (RNG.normal(size=30) + 1j * RNG.normal(size=30))
    target = (RNG.random(30) < 0.5).astype(float)
    v = v_subproblem(w.reshape(5, 6), target.reshape(5, 6), 10.0, 0.3).ravel()
    for i in range(30):
        got = v_cost(v[i], w[i], target[i], 10.0, 0.3)
        want = v_oracle(w[i], target[i], 10.0, 0.3, points=50_000).min_value
        assert got <= want + 1e-8


def test_v_subproblem_is_elementwise():
    w = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
    target = (RNG.random((4, 4)) < 0.5).astype(float)
    perm = RNG.permutation(16)
    v = v_subproblem(w, target, 10.0, 0.3)
    v_perm = v_subproblem(w.ravel()[perm].reshape(4, 4),
                          target.ravel()[perm].reshape(4, 4), 10.0, 0.3)
    assert np.allclose(v.ravel()[perm], v_perm.ravel())


def test_dual_update():
    p = np.zeros((2, 2), complex)
    v = np.ones((2, 2), complex)
    hu = np.full((2, 2), 0.5 + 0j)
    out = dual_update(p, v, hu, 10.0)
    assert np.allclose(out, 5.0)


def test_admm_zero_target_converges_immediately():
    cfg = SolverConfig(beta1=0.0, beta2=0.0, outer_max_iters=5)
    u, records = admm_optimize(np.zeros((32, 32)), SMALL_OPTICS, cfg)
    assert len(records) == 1
    assert records[0].epe_error == 0.0
    assert u.min() >= 0.0 and u.max() <= 1.0


def test_admm_records_and_feasibility():
    target = np.zeros((32, 32))
    target[8:24, 8:24] = 1.0
    cfg = SolverConfig(outer_max_iters=3)
    u, records = admm_optimize(target, SMALL_OPTICS, cfg)
    assert u.min() >= 0.0 and u.max() <= 1.0
    assert [r.iteration for r in records] == [1, 2, 3]
    assert all(np.isfinite(r.lagrangian) for r in records)


def test_admm_returns_lowest_epe_outer_iterate():
    # this run's EPE passes its minimum mid-run and ends higher; the mask
    # returned must be the one at the minimum, not the last one
    target = np.zeros((32, 32))
    target[8:24, 8:24] = 1.0
    cfg = SolverConfig(outer_max_iters=20, bregman_max_iters=5,
                       descent_max_iters=10)
    u, records = admm_optimize(target, SMALL_OPTICS, cfg)
    best = min(r.epe_error for r in records)
    assert best < records[-1].epe_error
    assert evaluate(u, target, SMALL_OPTICS).error == best


def test_admm_images_each_iterate_once(monkeypatch):
    # with no Bregman sweeps the mask never moves, so the start-up image
    # HU of U = target is the only convolution the whole run needs
    calls = []
    forward = solver.convolve

    def counting(kernel, u):
        calls.append(u.shape)
        return forward(kernel, u)

    monkeypatch.setattr(solver, "convolve", counting)
    target = np.zeros((32, 32))
    target[8:24, 8:24] = 1.0
    cfg = SolverConfig(outer_max_iters=3, bregman_max_iters=0)
    _, records = admm_optimize(target, SMALL_OPTICS, cfg)
    assert len(records) == 3
    assert len(calls) == 1


def test_admm_is_deterministic():
    target = np.zeros((32, 32))
    target[10:22, 10:22] = 1.0
    cfg = SolverConfig(outer_max_iters=2)
    u1, r1 = admm_optimize(target, SMALL_OPTICS, cfg)
    u2, r2 = admm_optimize(target, SMALL_OPTICS, cfg)
    assert np.array_equal(u1, u2)
    assert [r.lagrangian for r in r1] == [r.lagrangian for r in r2]


def test_admm_reads_resist_parameters_from_optics_config_only():
    # a kernel built from bare samples carries no optics config; the solver
    # must take a and tr from its optics argument alone
    target = np.zeros((48, 48))
    target[12:36, 16:32] = 1.0
    cfg = SolverConfig(outer_max_iters=2)
    kernel = build_psf(SMALL_OPTICS)
    u1, r1 = admm_optimize(target, SMALL_OPTICS, cfg, kernel=kernel)
    u2, r2 = admm_optimize(target, SMALL_OPTICS, cfg,
                           kernel=PsfKernel(kernel.samples))
    assert u1.tobytes() == u2.tobytes()
    assert repr(r1) == repr(r2)


def test_trace_check_synthetic():
    rising = [ConvergenceRecord(i, float(i), 1.0, 1.0, True, v_change=1.0)
              for i in range(1, 5)]
    assert lagrangian_trace_check(rising).nonincreasing_fraction == 0.0
    single = [ConvergenceRecord(1, 1.0, 0.0, 0.0, True, v_change=0.0)]
    assert lagrangian_trace_check(single).nonincreasing_fraction == 1.0
    with pytest.raises(ValueError):
        lagrangian_trace_check([])
