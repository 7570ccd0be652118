import numpy as np
import pytest

from ilt_admm import optics, solver
from ilt_admm.grids import inner
from ilt_admm.metrics import evaluate
from ilt_admm.optics import OpticsConfig, PsfKernel, build_psf, convolve
from oracles import fd_gradient, v_oracle_min_batch
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
    for name in ("rho", "gamma", "beta1", "beta2"):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=name):
                SolverConfig(**{name: bad})


@pytest.mark.parametrize("name", ["outer_max_iters", "bregman_max_iters",
                                  "descent_max_iters"])
def test_solver_config_iteration_budget_must_be_an_integer(name):
    # a float budget would fail later, in range()
    for bad in (2.5, 3.0, True, float("nan")):
        with pytest.raises(ValueError, match=name):
            SolverConfig(**{name: bad})
    assert getattr(SolverConfig(**{name: np.int64(3)}), name) == 3


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
        phi_given = phi(u, cfg.beta1, cfg.beta2)
        f, resid, gap = _bregman_objective(hu, w, d, b, cfg, phi_given)
        # the gap is formed in the given Phi(U)'s buffer
        assert np.shares_memory(gap, phi_given)
        assert np.array_equal(resid, hu - w)
        assert np.array_equal(gap, d - phi(u, cfg.beta1, cfg.beta2) - b)
        # each sum of squares is x * x over the real view: re and im of the
        # complex residual interleaved, no complex abs
        r = (hu - w).view(float)
        assert f == (float(np.sum(r * r))
                     + 0.5 * cfg.gamma * float(np.sum(gap * gap)))
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
    # a complex W (defocused PSF) and a real one (in-focus PSF), whose V
    # stays real
    for w in (0.8 * (RNG.normal(size=30) + 1j * RNG.normal(size=30)),
              0.8 * RNG.normal(size=30)):
        target = (RNG.random(30) < 0.5).astype(float)
        v = v_subproblem(w.reshape(5, 6), target.reshape(5, 6), 10.0, 0.3).ravel()
        assert v.dtype == w.dtype
        # the scalar v_oracle's ray search, vectorized over the 30 cases
        wants = v_oracle_min_batch(w, target, np.full(30, 10.0), 0.3,
                                   points=50_000)
        for i in range(30):
            got = v_cost(v[i], w[i], target[i], 10.0, 0.3)
            assert got <= wants[i] + 1e-8


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


def test_admm_state_takes_the_image_dtype(monkeypatch):
    # W, V and P are real for a real (in-focus) PSF, complex for a defocused one
    seen = []
    u_step, dual_step = solver.u_subproblem, solver.dual_update

    def recording_u_step(w, *args):
        seen.append(w.dtype)
        return u_step(w, *args)

    def recording_dual_step(p, v, hu, rho):
        p_new = dual_step(p, v, hu, rho)
        seen.extend((p.dtype, v.dtype, p_new.dtype))
        return p_new

    monkeypatch.setattr(solver, "u_subproblem", recording_u_step)
    monkeypatch.setattr(solver, "dual_update", recording_dual_step)
    target = np.zeros((32, 32))
    target[8:24, 8:24] = 1.0
    cfg = SolverConfig(outer_max_iters=2, bregman_max_iters=2)
    for defocus, dtype in ((0.0, np.float64), (50.0, np.complex128)):
        seen.clear()
        admm_optimize(target, OpticsConfig(kernel_size=20, defocus_nm=defocus), cfg)
        assert len(seen) == 8
        assert set(seen) == {np.dtype(dtype)}, defocus


def test_solve_makes_no_blas_call(monkeypatch):
    # after a threaded BLAS call OpenBLAS's idle workers spin on the cores
    # the FFTs need, so nothing from the kernel to the returned mask and its
    # evaluation may call one
    def blas(*args, **kwargs):
        raise AssertionError("BLAS call during the solve")

    monkeypatch.setattr(np, "dot", blas)
    monkeypatch.setattr(np, "vdot", blas)
    monkeypatch.setattr(np.linalg, "norm", blas)
    target = np.zeros((32, 32))
    target[8:24, 8:24] = 1.0
    cfg = SolverConfig(outer_max_iters=2, bregman_max_iters=2)
    for defocus in (0.0, 10.0):
        optics_cfg = OpticsConfig(kernel_size=20, defocus_nm=defocus)
        kernel = build_psf(optics_cfg)
        u, records = admm_optimize(target, optics_cfg, cfg, kernel=kernel)
        assert len(records) == 2
        assert np.isfinite(evaluate(u, target, optics_cfg, kernel=kernel).error)


def test_u_step_reuses_phi_at_each_sweep_start(monkeypatch):
    # a sweep starts at the U the last one ended on (or at u_init), whose
    # Phi(U) the U-step already has: one Phi per sweep saved
    cfg = SolverConfig(bregman_max_iters=4, descent_max_iters=3)
    for defocus in (0.0, 50.0):
        kernel = build_psf(OpticsConfig(kernel_size=20, defocus_nm=defocus))
        # from gray toward a pattern's image: every sweep moves U
        u_true = np.zeros((32, 32))
        u_true[8:24, 10:22] = 1.0
        u0 = np.full((32, 32), 0.5)
        hu0 = convolve(kernel, u0)
        w = convolve(kernel, u_true)
        calls = {"phi": 0, "trial": 0, "float64": 0}

        def counted_phi(*args):
            calls["phi"] += 1
            return phi(*args)

        def counted_convolve(k, u):
            # the Armijo trials image through the kernel's single-precision
            # stand-in; a float64 image is the returned iterate's
            calls["float64" if k is kernel else "trial"] += 1
            return convolve(k, u)

        with monkeypatch.context() as m:
            m.setattr(solver, "phi", counted_phi)
            m.setattr(solver, "convolve", counted_convolve)
            u_subproblem(w, u0, hu0, cfg, kernel)
        # one at u_init, one per Armijo trial (each images its trial
        # point), one per sweep end
        assert calls["trial"] > 0
        assert calls["phi"] == 1 + calls["trial"] + cfg.bregman_max_iters
        assert calls["float64"] <= 1


def test_u_step_trials_run_in_single_precision(monkeypatch):
    # every Armijo trial image and gradient adjoint goes through the
    # single-precision operator; the image returned is float64, formed
    # once, and equals the public convolve of the returned mask
    cfg = SolverConfig(bregman_max_iters=3, descent_max_iters=3)
    u0 = np.full((32, 32), 0.5)
    u_true = np.zeros((32, 32))
    u_true[8:24, 10:22] = 1.0
    for defocus, dtype in ((0.0, np.float64), (50.0, np.complex128)):
        kernel = build_psf(OpticsConfig(kernel_size=20, defocus_nm=defocus))
        hu0, w = convolve(kernel, u0), convolve(kernel, u_true)
        assert kernel.op(32, single=True).kernel_hat.dtype == np.complex64
        calls = []
        for name in ("forward", "adjoint"):
            def counted(self, x, _name=name,
                        _method=getattr(optics._ConvOperator, name)):
                calls.append((_name, self.kernel_hat.dtype))
                return _method(self, x)
            monkeypatch.setattr(optics._ConvOperator, name, counted)
        out, hu = u_subproblem(w, u0, hu0, cfg, kernel)
        monkeypatch.undo()
        assert not np.array_equal(out, u0)
        single = [c for c in calls if c[1] == np.complex64]
        double = [c for c in calls if c[1] != np.complex64]
        assert {c[0] for c in single} == {"forward", "adjoint"}
        assert double == [("forward", np.complex128)]
        assert calls[-1] == double[0]  # the returned iterate's image
        assert hu.dtype == dtype
        assert np.array_equal(hu, convolve(kernel, out))


def test_u_step_takes_no_complex_abs(monkeypatch):
    # the U-step's sums of squares square the real view of a complex
    # residual; a complex abs takes a square root per pixel. (Its sums
    # round to the same doubles on most grids, so the == pins above
    # cannot tell the two apart.)
    real_abs = np.abs

    def abs_of_real(x, *args, **kwargs):
        if np.iscomplexobj(x):
            raise AssertionError("complex abs in the U-step")
        return real_abs(x, *args, **kwargs)

    cfg = SolverConfig(bregman_max_iters=2, descent_max_iters=3)
    kernel = build_psf(OpticsConfig(kernel_size=20, defocus_nm=50.0))
    u0 = np.zeros((32, 32))
    u0[8:24, 8:24] = 1.0
    hu0 = convolve(kernel, u0)  # builds the operator before the patch
    w = hu0 + 0.1 * (1.0 + 1.0j)
    monkeypatch.setattr(np, "abs", abs_of_real)
    out, hu = u_subproblem(w, u0, hu0, cfg, kernel)
    assert np.iscomplexobj(hu) and not np.array_equal(out, u0)


def test_solver_never_looks_up_the_spectrum_cache():
    # the cache serves metrics.evaluate alone; a defocused solve must leave
    # its counts as they were
    before = optics._mask_spectrum.cache_info()
    target = np.zeros((32, 32))
    target[8:24, 10:22] = 1.0
    oc = OpticsConfig(kernel_size=20, defocus_nm=10.0)
    assert not build_psf(oc).op(32).real
    cfg = SolverConfig(outer_max_iters=2, bregman_max_iters=2, descent_max_iters=3)
    mask, records = admm_optimize(target, oc, cfg)
    assert len(records) == 2 and mask.shape == target.shape
    assert optics._mask_spectrum.cache_info() == before


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
