import numpy as np
import pytest

from ilt_admm import optics, solver
from ilt_admm.grids import as_precision, inner, l1_norm
from ilt_admm.metrics import evaluate
from ilt_admm.optics import OpticsConfig, PsfKernel, build_psf, convolve
from oracles import fd_gradient, polish_oracle, v_oracle_min_batch
from ilt_admm.regularization import phi, shrink
from ilt_admm.solver import (SIGMOID_STEEPNESS, ConvergenceRecord,
                             SolverConfig, admm_optimize,
                             augmented_lagrangian, bregman_objective,
                             check_rho_condition, dual_update,
                             estimate_lipschitz, grad_F, grad_h,
                             lagrangian_trace_check, polish_binary,
                             sigmoid_misfit, u_subproblem, v_subproblem)
from ilt_admm.targets import ten_rectangles

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
        _, resid, gap = bregman_objective(convolve(kernel, u), w, d, b, cfg,
                                          phi(u, cfg.beta1, cfg.beta2))
        got = grad_F(u, resid, gap, cfg, kernel)
        assert np.abs(got - want).max() / np.abs(want).max() < 1e-5


def test_bregman_objective_returns_residual_and_gap_for_grad_F():
    # the U-step hands grad_F the residual HU - W and the gap of its last
    # objective evaluation: both exact, the gap in a new array, so the
    # given Phi stays the Phi of its U
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
        phi_bytes = phi_given.tobytes()
        f, resid, gap = bregman_objective(hu, w, d, b, cfg, phi_given)
        assert not np.shares_memory(gap, phi_given)
        assert phi_given.tobytes() == phi_bytes
        assert np.array_equal(resid, hu - w)
        assert np.array_equal(gap, d - phi(u, cfg.beta1, cfg.beta2) - b)
        # each sum of squares is x * x over the real view: re and im of the
        # complex residual interleaved, no complex abs
        r = (hu - w).view(float)
        assert f == (float(np.sum(r * r))
                     + 0.5 * cfg.gamma * float(np.sum(gap * gap)))


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
    want = (sigmoid_misfit(v, target, SIGMOID_STEEPNESS, SMALL_OPTICS.threshold)
            + l1_norm(phi(u, cfg.beta1, cfg.beta2)))
    got = augmented_lagrangian(u, v, v, p, target, SMALL_OPTICS.threshold, cfg)
    assert got == pytest.approx(want, rel=1e-12)


def test_regularizer_is_l1_norm_of_phi():
    # the Lagrangian's regularizer is ||Phi(U)||_1 by the package's one l1
    # rule: with V = HU and P = 0 it is the misfit plus l1_norm(phi(u)) to
    # the last bit, on gray masks in focus and out. (beta1 TV(U) and
    # beta2 ||U(1-U)||_1 summed apart round differently on some of them.)
    cfg = SolverConfig()
    a, tr = SIGMOID_STEEPNESS, SMALL_OPTICS.threshold
    rng = np.random.default_rng(1)
    for defocus in (0.0, 50.0):
        kernel = build_psf(OpticsConfig(kernel_size=20, defocus_nm=defocus))
        for _ in range(4):
            u = rng.random((24, 24))
            target = (rng.random((24, 24)) < 0.5).astype(float)
            v = convolve(kernel, u)
            want = (sigmoid_misfit(v, target, a, tr)
                    + l1_norm(phi(u, cfg.beta1, cfg.beta2)))
            got = augmented_lagrangian(u, v, v, np.zeros_like(v), target, tr, cfg)
            assert got == want, defocus


def test_augmented_lagrangian_recomposition():
    kernel = PsfKernel(RNG.normal(size=(5, 5)) + 1j * RNG.normal(size=(5, 5)))
    cfg = SolverConfig()
    u = RNG.random((8, 8))
    v = RNG.normal(size=(8, 8)) + 1j * RNG.normal(size=(8, 8))
    p = RNG.normal(size=(8, 8)) + 1j * RNG.normal(size=(8, 8))
    target = (RNG.random((8, 8)) < 0.5).astype(float)
    hu = convolve(kernel, u)
    resid = v - hu
    want = (sigmoid_misfit(v, target, SIGMOID_STEEPNESS, SMALL_OPTICS.threshold)
            + l1_norm(phi(u, cfg.beta1, cfg.beta2))
            + inner(p, resid) + 0.5 * cfg.rho * float(np.sum(np.abs(resid) ** 2)))
    got = augmented_lagrangian(u, hu, v, p, target, SMALL_OPTICS.threshold, cfg)
    assert got == pytest.approx(want, rel=1e-10)


def test_u_subproblem_stationary_start():
    # W is the single-precision image of a binary start, so with no
    # regularizer the start is stationary: the first sweep end keeps its
    # values, and the U-step hands that sweep end back, not u_init
    kernel = small_kernel()
    cfg = SolverConfig(beta1=0.0, beta2=0.0)
    u_true = (RNG.random((32, 32)) < 0.5).astype(float)
    w = convolve(kernel, u_true.astype(np.float32)).astype(np.float64)
    out, hu = u_subproblem(w, u_true, w, cfg, kernel)
    assert out is not u_true and hu is not w
    assert out.dtype == np.float64 and np.array_equal(out, u_true)
    assert np.array_equal(
        hu, convolve(kernel, out.astype(np.float32)).astype(np.float64))


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
                    + l1_norm(phi(u, cfg.beta1, cfg.beta2)))

        out, hu = u_subproblem(w, u0, convolve(kernel, u0), cfg, kernel)
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert objective(out) <= objective(u0) + 1e-12
        # HU is the single-precision image the U-step holds, widened
        image_dtype = convolve(kernel, u0).dtype
        assert hu.dtype == image_dtype
        assert np.array_equal(
            hu, convolve(kernel, out.astype(np.float32)).astype(image_dtype))


def test_u_subproblem_leaves_its_inputs_unchanged():
    # the U-step works on its own single-precision copies: W, u_init and
    # hu_init keep their bytes, whether they come in float64 or already in
    # the U-step's precision, under a real and a complex kernel
    cfg = SolverConfig(bregman_max_iters=3, descent_max_iters=3)
    u_true = np.zeros((32, 32))
    u_true[8:24, 10:22] = 1.0
    for defocus in (0.0, 50.0):
        kernel = build_psf(OpticsConfig(kernel_size=20, defocus_nm=defocus))
        for dtype in (np.float64, np.float32):
            u0 = np.full((32, 32), 0.5, dtype=dtype)
            hu0, w = convolve(kernel, u0), convolve(kernel, u_true) + 0.1
            given = [a.tobytes() for a in (w, u0, hu0)]
            out, _ = u_subproblem(w, u0, hu0, cfg, kernel)
            assert not np.array_equal(out, u0)
            assert [a.tobytes() for a in (w, u0, hu0)] == given, (defocus, dtype)


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


def polish_inputs(monkeypatch) -> list:
    """The gray masks admm_optimize hands to polish_binary, in order."""
    seen = []

    def recording(u, *args):
        seen.append(u)
        return polish_binary(u, *args)

    monkeypatch.setattr(solver, "polish_binary", recording)
    return seen


def test_admm_returns_lowest_epe_outer_iterate(monkeypatch):
    # this run's EPE passes its minimum mid-run and ends higher; the mask
    # polished must be the one at the minimum, not the last one
    seen = polish_inputs(monkeypatch)
    target = np.zeros((32, 32))
    target[8:24, 8:24] = 1.0
    cfg = SolverConfig(outer_max_iters=12, bregman_max_iters=5,
                       descent_max_iters=10)
    u, records = admm_optimize(target, SMALL_OPTICS, cfg)
    best = min(r.epe_error for r in records)
    assert best < records[-1].epe_error
    assert len(seen) == 1
    assert evaluate(seen[0], target, SMALL_OPTICS).error == best


def gray_mask(target: np.ndarray, seed: int) -> np.ndarray:
    """The target with noise, clipped to [0, 1]: many boundary pixels to
    try, and flips that pay."""
    noise = np.random.default_rng(seed).normal(size=target.shape)
    return np.clip(target + 0.4 * noise, 0.0, 1.0)


@pytest.mark.parametrize("defocus", [0.0, 50.0])
def test_polish_equals_the_plain_window_loop(defocus):
    # the band-scored polish takes the flips of the plain loop over whole
    # windows, bit for bit, under a real kernel and a complex one
    oc = OpticsConfig(kernel_size=20, defocus_nm=defocus)
    kernel = build_psf(oc)
    assert kernel.op(48).real == (defocus == 0.0)
    target = ten_rectangles(48)
    for seed in (1, 2):
        u = gray_mask(target, seed)
        b0 = (u >= 0.5).astype(float)
        want, _, flips = polish_oracle(b0, convolve(kernel, b0), kernel.samples,
                                       target, oc.threshold)
        got = polish_binary(u, target, kernel, oc.threshold)
        assert len(flips) > 10
        assert got.tobytes() == want.tobytes(), (defocus, seed)


@pytest.mark.parametrize("defocus", [0.0, 50.0])
def test_each_polish_flip_changes_the_print_as_a_fresh_image_does(defocus):
    # the polish's flips are the oracle's (the test above): replayed one by
    # one, each flip changes a fresh print's missed count by the change the
    # running image showed in its window
    oc = OpticsConfig(kernel_size=20, defocus_nm=defocus)
    kernel = build_psf(oc)
    target = ten_rectangles(48)
    b = (gray_mask(target, 3) >= 0.5).astype(float)
    _, _, flips = polish_oracle(b, convolve(kernel, b), kernel.samples,
                                target, oc.threshold)
    assert flips
    missed = evaluate(b, target, oc, kernel=kernel).nonzero_epe_pixels
    for i, j, change in flips:
        b[i, j] = 1.0 - b[i, j]
        now = evaluate(b, target, oc, kernel=kernel).nonzero_epe_pixels
        assert now - missed == change < 0, (i, j)
        missed = now


def test_polish_never_misses_more_than_its_binarized_input():
    target = ten_rectangles(48)
    for defocus in (0.0, 50.0):
        oc = OpticsConfig(kernel_size=20, defocus_nm=defocus)
        kernel = build_psf(oc)
        for u in [target] + [gray_mask(target, seed) for seed in range(4)]:
            b = polish_binary(u, target, kernel, oc.threshold)
            binarized = evaluate(u >= 0.5, target, oc, kernel=kernel)
            assert set(np.unique(b)) <= {0.0, 1.0}
            assert (evaluate(b, target, oc, kernel=kernel).nonzero_epe_pixels
                    <= binarized.nonzero_epe_pixels)


def test_admm_returns_the_polish_of_its_lowest_epe_iterate(monkeypatch):
    # the returned mask is the polish of the recorded input, binary, and
    # misses no more pixels than that input binarized at 0.5: 166 against
    # 187 on the square, where it prints above the lowest EPE on record
    # (83 pixels), and 262 against 279 on ten_rectangles, where it prints
    # below it (293)
    seen = polish_inputs(monkeypatch)
    square = np.zeros((32, 32))
    square[8:24, 8:24] = 1.0
    cfg = SolverConfig(outer_max_iters=3, bregman_max_iters=2, descent_max_iters=3)
    for target, missed in ((square, (166, 187)), (ten_rectangles(48), (262, 279))):
        seen.clear()
        u, records = admm_optimize(target, SMALL_OPTICS, cfg)
        (gray,) = seen
        b = polish_binary(gray, target, small_kernel(), SMALL_OPTICS.threshold)
        assert u.tobytes() == b.tobytes()
        assert set(np.unique(u)) <= {0.0, 1.0}
        counts = (evaluate(u, target, SMALL_OPTICS).nonzero_epe_pixels,
                  evaluate(gray >= 0.5, target, SMALL_OPTICS).nonzero_epe_pixels)
        assert counts == missed


def test_u_step_never_hands_back_u_init(monkeypatch):
    # a U-step with a sweep keeps its work: it returns its best sweep end
    # even where no sweep end lies below the original objective at u_init,
    # as in the later outer iterations of this run
    returned = []

    def recording(w, u_init, hu_init, cfg, kernel):
        out = u_subproblem(w, u_init, hu_init, cfg, kernel)
        returned.append((out[0] is u_init, out[1] is hu_init))
        return out

    monkeypatch.setattr(solver, "u_subproblem", recording)
    target = np.zeros((32, 32))
    target[8:24, 8:24] = 1.0
    cfg = SolverConfig(outer_max_iters=12, bregman_max_iters=5,
                       descent_max_iters=10)
    admm_optimize(target, SMALL_OPTICS, cfg)
    assert len(returned) == cfg.outer_max_iters
    assert not any(u_kept or hu_kept for u_kept, hu_kept in returned)


def test_admm_images_each_iterate_once(monkeypatch):
    # with no Bregman sweeps the mask never moves, so the start-up image
    # HU of U = target is the only convolution the ADMM loop needs; the
    # polish then images its binary mask once
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
    assert len(calls) == 1 + 1


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


def test_u_step_forms_phi_once_per_iterate(monkeypatch):
    # Phi is formed at u_init and at each Armijo trial; an accepted trial
    # carries its Phi with its U, so neither a sweep end nor a sweep start
    # forms it again
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
            # the Armijo trials image float32 masks; the U-step images
            # nothing in float64
            calls["float64" if u.dtype == np.float64 else "trial"] += 1
            return convolve(k, u)

        with monkeypatch.context() as m:
            m.setattr(solver, "phi", counted_phi)
            m.setattr(solver, "convolve", counted_convolve)
            u_subproblem(w, u0, hu0, cfg, kernel)
        # one at u_init, one per Armijo trial (each images its trial point)
        assert calls["trial"] > 0
        assert calls["phi"] == 1 + calls["trial"]
        assert calls["float64"] == 0


SINGLES = {np.dtype(np.float32), np.dtype(np.complex64)}


def _recorded_u_step(monkeypatch, defocus):
    # one gray-start U-step toward a pattern's image; records the dtype of
    # every Phi, shrink and gradient input and output, and the input dtype
    # of every operator call with the dtypes of the kernel spectra it took
    cfg = SolverConfig(bregman_max_iters=3, descent_max_iters=3)
    u0 = np.full((32, 32), 0.5)
    u_true = np.zeros((32, 32))
    u_true[8:24, 10:22] = 1.0
    kernel = build_psf(OpticsConfig(kernel_size=20, defocus_nm=defocus))
    hu0, w = convolve(kernel, u0), convolve(kernel, u_true)
    seen, calls, taken = [], [], []

    def recording_phi(u, *args):
        seen.append(("phi", u.dtype))
        return phi(u, *args)

    def recording_shrink(x, kappa):
        seen.append(("shrink", x.dtype))
        return shrink(x, kappa)

    def recording_grad(u, resid, gap, *args):
        g = grad_F(u, resid, gap, *args)
        seen.extend(("grad_F", a.dtype) for a in (u, resid, gap, g))
        return g

    def recording(name):
        method = getattr(optics._ConvOperator, name)

        def recorded(self, x):
            start = len(taken)
            out = method(self, x)
            calls.append((name, frozenset(taken[start:]), x.dtype))
            return out
        return recorded

    hat = optics._ConvOperator._hat

    def recording_hat(self, dtype, conj=False):
        taken.append(np.dtype(dtype))
        return hat(self, dtype, conj)

    with monkeypatch.context() as m:
        m.setattr(solver, "phi", recording_phi)
        m.setattr(solver, "shrink", recording_shrink)
        m.setattr(solver, "grad_F", recording_grad)
        for name in ("forward", "adjoint"):
            m.setattr(optics._ConvOperator, name, recording(name))
        m.setattr(optics._ConvOperator, "_hat", recording_hat)
        out, hu = u_subproblem(w, u0, hu0, cfg, kernel)
    assert not np.array_equal(out, u0)
    return kernel, seen, calls, out, hu


def test_u_step_state_stays_single_precision(monkeypatch):
    # U, every trial, Phi(U), d, b, the residual and the gradient are
    # float32 (complex64 for a complex image) inside the U-step; U comes
    # back float64 in [0, 1]
    for defocus in (0.0, 50.0):
        _, seen, _, out, _ = _recorded_u_step(monkeypatch, defocus)
        assert {name for name, _ in seen} == {"phi", "shrink", "grad_F"}
        assert {dtype for _, dtype in seen} <= SINGLES, defocus
        assert out.dtype == np.float64 and 0.0 <= out.min() <= out.max() <= 1.0


def test_u_step_trials_run_in_single_precision(monkeypatch):
    # every Armijo trial image and gradient adjoint multiplies by the
    # kernel's complex64 spectrum, and no call takes the complex128 one; the
    # returned HU is the single-precision image of the returned mask,
    # widened to the image dtype
    for defocus, image_dtype in ((0.0, np.float64), (50.0, np.complex128)):
        kernel, _, calls, out, hu = _recorded_u_step(monkeypatch, defocus)
        assert {name for name, _, _ in calls} == {"forward", "adjoint"}
        assert {spectra for _, spectra, _ in calls} == {frozenset({np.dtype(np.complex64)})}
        assert {dtype for name, _, dtype in calls
                if name == "forward"} == {np.dtype(np.float32)}
        assert {dtype for name, _, dtype in calls
                if name == "adjoint"} <= SINGLES
        assert hu.dtype == image_dtype
        assert np.array_equal(
            hu, convolve(kernel, out.astype(np.float32)).astype(image_dtype))


def test_first_armijo_trial_is_the_clamped_gradient_step(monkeypatch):
    # the first trial mask imaged is P(U - g) bit for bit, with U the
    # float32 gray start and g = grad_F at U for the sweep's first state
    # d = Phi(U), b = 0; from the 0.9 start the clamp binds at some pixels
    cfg = SolverConfig(bregman_max_iters=1, descent_max_iters=1)
    u_true = np.zeros((32, 32))
    u_true[8:24, 10:22] = 1.0
    for defocus in (0.0, 50.0):
        kernel = build_psf(OpticsConfig(kernel_size=20, defocus_nm=defocus))
        w = convolve(kernel, u_true)
        for gray in (0.5, 0.9):
            u0 = np.full((32, 32), gray)
            hu0 = convolve(kernel, u0)
            masks = []

            def recording(k, x):
                if x.dtype == np.float32:
                    masks.append(x.copy())
                return convolve(k, x)

            with monkeypatch.context() as m:
                m.setattr(solver, "convolve", recording)
                u_subproblem(w, u0, hu0, cfg, kernel)
            u, hu, w_single = (as_precision(a, np.float32) for a in (u0, hu0, w))
            d = phi(u, cfg.beta1, cfg.beta2)
            _, resid, gap = bregman_objective(hu, w_single, d, np.zeros_like(d),
                                              cfg, phi(u, cfg.beta1, cfg.beta2))
            step = u - grad_F(u, resid, gap, cfg, kernel)
            assert masks[0].tobytes() == np.clip(step, 0, 1).tobytes(), (defocus, gray)
            assert np.any(step < 0) == (gray == 0.9)


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


def test_solver_looks_up_the_spectrum_cache_per_float64_image(spectra):
    # the U-step images float32 masks, which never touch the cache: a
    # defocused solve's two float64 images, the start-up H U and the
    # polish's one of its binary mask, make two lookups whatever the
    # budget, and a solve at focus makes none
    target = np.zeros((32, 32))
    target[8:24, 10:22] = 1.0
    for defocus, lookups in ((10.0, 2), (0.0, 0)):
        oc = OpticsConfig(kernel_size=20, defocus_nm=defocus)
        assert build_psf(oc).op(32).real == (defocus == 0.0)
        for outer in (1, 3):
            cfg = SolverConfig(outer_max_iters=outer, bregman_max_iters=2,
                               descent_max_iters=3)
            before = spectra.cache_info()
            mask, records = admm_optimize(target, oc, cfg)
            after = spectra.cache_info()
            assert len(records) == outer and mask.shape == target.shape
            assert (after.hits + after.misses
                    - before.hits - before.misses) == lookups, (defocus, outer)


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
