import dataclasses
import hashlib
import weakref

import numpy as np
import pytest
from scipy import fft as sfft

from ilt_admm import optics
from ilt_admm.grids import GridError
from ilt_admm.metrics import evaluate
from ilt_admm.optics import (OPERATOR_LIMIT, OpticsConfig, PsfKernel, _MaskKey,
                             _quadrature, _spectrum, aerial_image, build_psf,
                             convolve, convolve_adjoint, image_sigmoid,
                             image_threshold)
from ilt_admm.solver import SolverConfig, admm_optimize
from ilt_admm.targets import ten_rectangles
from oracles import (bessel_j1, convolve_naive, psf_focus_einsum,
                     psf_full_quadrature)

RNG = np.random.default_rng(7)

PRODUCTION = OpticsConfig()  # 193nm, NA 0.85, 5nm pixels, 100px kernel


def test_config_validation():
    with pytest.raises(ValueError):
        OpticsConfig(numerical_aperture=1.5)
    with pytest.raises(ValueError):
        OpticsConfig(threshold=0.0)
    with pytest.raises(ValueError):
        OpticsConfig(wavelength_nm=-1.0)
    for name in ("wavelength_nm", "numerical_aperture", "defocus_nm",
                 "pixel_size_nm", "sigmoid_steepness", "threshold"):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=name):
                OpticsConfig(**{name: bad})


def test_config_kernel_size_must_be_an_integer():
    # a float or bool kernel size would fail later, inside build_psf
    for bad in (20.0, 20.5, True, float("nan"), "20"):
        with pytest.raises(ValueError, match="kernel_size"):
            OpticsConfig(kernel_size=bad)
    assert build_psf(OpticsConfig(kernel_size=np.int64(7))).samples.shape == (7, 7)


def test_psf_zero_defocus_real_and_symmetric():
    kernel = build_psf(PRODUCTION)
    h = kernel.samples
    assert np.array_equal(h.imag, np.zeros(h.shape))
    assert np.array_equal(h, h[::-1, ::-1])
    assert abs(h.sum() - 1.0) < 1e-12
    assert kernel.dc_gain == pytest.approx(1.0, abs=1e-12)


def test_psf_matches_jinc_profile():
    kernel = build_psf(PRODUCTION)
    h = kernel.samples.real
    cfg = kernel.config
    k = cfg.kernel_size
    x = (np.arange(k) - (k - 1) / 2.0) * cfg.pixel_size_nm
    xx, yy = np.meshgrid(x, x, indexing="ij")
    r = np.hypot(xx, yy)
    scale = 2 * np.pi * cfg.numerical_aperture / cfg.wavelength_nm
    main_lobe = 3.8317 / scale  # first zero of J1
    jinc = np.vectorize(
        lambda rr: 0.5 if rr == 0 else bessel_j1(scale * rr) / (scale * rr))(r)
    peak = np.unravel_index(np.argmax(h), h.shape)
    mask = r < 0.9 * main_lobe
    got = h[mask] / h[peak]
    want = jinc[mask] / jinc[peak]
    assert np.max(np.abs(got - want) / np.abs(want)) < 0.02


def test_psf_defocus_is_complex():
    kernel = build_psf(OpticsConfig(defocus_nm=50.0, kernel_size=40))
    assert np.abs(kernel.samples.imag).max() > 1e-6
    assert abs(kernel.samples.sum() - 1.0) < 1e-12


def sha256(a: np.ndarray) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()


# build_psf's cases: the production kernel across the focus sweep, odd and
# even kernel sizes down to one pixel, and a small NA on odd pixels
PSF_CASES = [OpticsConfig(defocus_nm=float(d)) for d in range(-100, 101, 10)]
PSF_CASES += [OpticsConfig(kernel_size=k, defocus_nm=d)
              for k in (1, 2, 7, 16) for d in (0.0, 37.0)]
PSF_CASES.append(OpticsConfig(numerical_aperture=0.3, pixel_size_nm=7.3,
                              kernel_size=31, defocus_nm=37.0))


def test_build_psf_equals_full_lattice_quadrature():
    # build_psf folds the pupil onto one quadrant and sums it by a cosine
    # quadrature; the kernel must be the whole-lattice complex quadrature's
    # up to rounding, and built cold (cache empty) and warm, the same bytes.
    # The oracle is a BLAS matrix product whose own rounding moves with the
    # thread count, by up to 8.6e-16 * max|h| between 1 and 2 threads.
    wants = [psf_full_quadrature(cfg.wavelength_nm, cfg.numerical_aperture,
                                 cfg.defocus_nm, cfg.pixel_size_nm,
                                 cfg.kernel_size)
             for cfg in PSF_CASES]
    cold = []
    for cfg, want in zip(PSF_CASES, wants):
        _quadrature.cache_clear()
        h = build_psf(cfg).samples
        assert np.abs(h - want).max() <= 2e-15 * np.abs(h).max(), cfg
        cold.append(sha256(h))
    for cfg, want in zip(PSF_CASES, cold):
        assert sha256(build_psf(cfg).samples) == want, cfg


def test_build_psf_at_focus_equals_einsum_contraction():
    # At best focus build_psf sums the cosine table by running sums; the
    # kernel must be the plain two-einsum contraction's bit for bit. The
    # reference runs on this platform, not against a stored digest, since
    # np.cos may round differently elsewhere. The cases: every focus case
    # of PSF_CASES (odd and even kernels), and wide and narrow pupils on
    # odd pixel sizes.
    cases = [cfg for cfg in PSF_CASES if cfg.defocus_nm == 0.0]
    cases += [OpticsConfig(numerical_aperture=na, pixel_size_nm=px, kernel_size=k)
              for na, px in ((0.3, 7.3), (0.93, 2.0)) for k in (31, 64, 128)]
    empty_columns = 0
    for cfg in cases:
        disc, _, cosines = _quadrature(cfg.kernel_size, cfg.pixel_size_nm,
                                       cfg.wavelength_nm, cfg.numerical_aperture)
        # a quadrant column past the cutoff holds no disc point
        empty_columns += int((np.count_nonzero(disc, axis=0) == 0).sum())
        want = psf_focus_einsum(cosines, disc, cfg.kernel_size)
        got = build_psf(cfg).samples
        assert got.tobytes() == want.tobytes(), cfg
    assert empty_columns > 0
    assert {cfg.kernel_size % 2 for cfg in cases} == {0, 1}


def test_build_psf_symmetries_are_exact():
    # mirror-even in x and in y, real at best focus, and h(-D) = conj h(D),
    # each exactly, not up to rounding
    for cfg in PSF_CASES:
        h = build_psf(cfg).samples
        assert np.array_equal(h, h[::-1]) and np.array_equal(h, h[:, ::-1]), cfg
        if cfg.defocus_nm == 0.0:
            assert np.array_equal(h.imag, np.zeros(h.shape)), cfg
        mirror = dataclasses.replace(cfg, defocus_nm=-cfg.defocus_nm)
        assert np.array_equal(build_psf(mirror).samples, np.conj(h)), cfg


def test_quadrature_is_shared_across_focus_and_resist_settings():
    _quadrature.cache_clear()
    base = OpticsConfig(kernel_size=16)
    build_psf(base)
    info = _quadrature.cache_info()
    assert (info.hits, info.misses) == (0, 1)
    # defocus, threshold and steepness leave the quadrature alone: one entry
    for cfg in (OpticsConfig(kernel_size=16, defocus_nm=50.0),
                OpticsConfig(kernel_size=16, threshold=0.4),
                OpticsConfig(kernel_size=16, sigmoid_steepness=5.0)):
        build_psf(cfg)
    info = _quadrature.cache_info()
    assert (info.hits, info.misses, info.currsize) == (3, 1, 1)
    # kernel size, pixel size, wavelength and NA each miss
    for cfg in (OpticsConfig(kernel_size=17),
                OpticsConfig(kernel_size=16, pixel_size_nm=7.3),
                OpticsConfig(kernel_size=16, wavelength_nm=248.0),
                OpticsConfig(kernel_size=16, numerical_aperture=0.3)):
        build_psf(cfg)
    info = _quadrature.cache_info()
    assert (info.hits, info.misses) == (3, 5)


def test_quadrature_arrays_are_read_only():
    # kernel 16 at 5 nm: df = 1/5120 per nm, so m = ceil(5120 * 0.85 / 193) = 23
    disc, root, cosines = _quadrature(16, 5.0, 193.0, 0.85)
    assert disc.shape == root.shape == (24, 24) and cosines.shape == (8, 24)
    for a in (disc, root, cosines):
        with pytest.raises(ValueError):
            a[0, 0] = 0.0


def test_convolve_impulse_is_identity():
    impulse = np.zeros((5, 5))
    impulse[2, 2] = 1.0
    kernel = PsfKernel(impulse)
    u = RNG.random((8, 8))
    assert np.abs(convolve(kernel, u) - u).max() < 1e-12


def test_convolve_linearity():
    kernel = PsfKernel(RNG.normal(size=(5, 5)))
    u1, u2 = RNG.random((8, 8)), RNG.random((8, 8))
    lhs = convolve(kernel, 2.0 * u1 + 3.0 * u2)
    rhs = 2.0 * convolve(kernel, u1) + 3.0 * convolve(kernel, u2)
    assert np.abs(lhs - rhs).max() < 1e-10


# (kernel size, field size): odd and even kernels, kernels smaller and
# larger than the field. In the last two pairs the kernel is wider than
# n + k - 1 - (k - 1) // 2, so the kernel sets the lattice size.
LATTICE_CASES = [(5, 8), (6, 8), (9, 5), (12, 7), (20, 6), (15, 3)]


def complex_normal(shape):
    return RNG.normal(size=shape) + 1j * RNG.normal(size=shape)


def test_convolve_matches_naive():
    # complex kernels take the fft2 path, real ones the rfft2 path
    for k, n in LATTICE_CASES:
        for _ in range(3):
            for samples in (complex_normal((k, k)), RNG.normal(size=(k, k))):
                kernel = PsfKernel(samples)
                u = RNG.random((n, n))
                want = convolve_naive(kernel.samples, u)
                assert np.abs(convolve(kernel, u) - want).max() < 1e-10, (k, n)


def test_convolve_adjoint_identity():
    # Re<H u, x> = <u, H^* x> for a real mask u and a complex x
    for k, n in LATTICE_CASES:
        for samples in (complex_normal((k, k)), RNG.normal(size=(k, k))):
            kernel = PsfKernel(samples)
            u, x = RNG.normal(size=(n, n)), complex_normal((n, n))
            lhs = np.vdot(convolve(kernel, u), x).real
            rhs = np.vdot(u, convolve_adjoint(kernel, x))
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs)), (k, n)


def test_real_psf_takes_real_fft_path():
    n = 30
    u = RNG.random((n, n))
    focus = build_psf(OpticsConfig(kernel_size=20))
    assert focus.op(n).real
    assert convolve(focus, u).dtype == np.float64
    # the adjoint takes the same real transforms and drops Im x exactly,
    # as Re{H^* x} = H^T Re x asks of a real kernel
    x = RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))
    got = convolve_adjoint(focus, x)
    assert got.dtype == np.float64
    op = focus.op(n)
    s = op.crop
    y = np.zeros(op.shape, dtype=complex)
    y[s:s + n, s:s + n] = x
    want = np.fft.ifft2(np.fft.fft2(y)
                        * np.conj(np.fft.fft2(focus.samples, op.shape)))
    assert np.abs(got - want[:n, :n].real).max() < 1e-12
    defocus = build_psf(OpticsConfig(kernel_size=20, defocus_nm=10.0))
    assert not defocus.op(n).real
    assert np.iscomplexobj(convolve(defocus, u))
    # an imaginary part of ~1e-14 of the l1 norm is still imaged, not dropped
    n = 16
    u = RNG.random((n, n))
    samples = RNG.normal(size=(9, 9))
    faint = PsfKernel(samples + 1e-14j * RNG.normal(size=samples.shape))
    share = np.abs(faint.samples.imag).sum() / np.abs(faint.samples).sum()
    assert 1e-15 < share < 1e-13
    assert not faint.op(n).real
    got = convolve(faint, u)
    want = convolve_naive(faint.samples, u)
    assert np.abs(got.imag - want.imag).max() < 0.1 * np.abs(want.imag).max()


def test_convolve_rejects_complex_mask():
    with pytest.raises(GridError):
        convolve(PsfKernel(np.ones((3, 3))), np.ones((4, 4), dtype=complex))


def test_convolve_and_adjoint_reject_non_square_input():
    # a 1-D input would broadcast across the adjoint's window; the adjoint
    # takes complex input, but only on a square grid, as convolve does
    for defocus in (0.0, 50.0):
        kernel = build_psf(OpticsConfig(kernel_size=20, defocus_nm=defocus))
        for bad in (np.ones(16), np.ones((16, 12)), np.ones((2, 16, 16))):
            for f in (convolve, convolve_adjoint):
                with pytest.raises(GridError, match="square"):
                    f(kernel, bad)
                with pytest.raises(GridError, match="square"):
                    f(kernel, bad.astype(complex))
        square = np.ones((16, 16), complex)
        assert convolve_adjoint(kernel, square).shape == (16, 16)


def test_production_lattices():
    # smallest fast length >= 144 + 100 - 1 - 49 = 194: 5-smooth 200 = 2^3 5^2
    # for the real transforms of a best-focus PSF, 196 = 2^2 7^2 for the
    # complex transforms of a defocused one
    assert build_psf(PRODUCTION).op(144).shape == (200, 200)
    assert build_psf(OpticsConfig(defocus_nm=50.0)).op(144).shape == (196, 196)


def test_adjoint_carries_no_state_between_calls():
    # the adjoint places each input on a fresh zeroed lattice, so nothing
    # of one call reaches the next: a second call must equal a fresh
    # operator's first call
    n = 9
    for samples in (RNG.normal(size=(6, 6)), complex_normal((6, 6))):
        kernel = PsfKernel(samples)
        x1, x2 = complex_normal((n, n)), complex_normal((n, n))
        convolve_adjoint(kernel, x1)
        got = convolve_adjoint(kernel, x2)
        assert np.array_equal(got, convolve_adjoint(PsfKernel(samples), x2))


def test_single_precision_operator_tracks_float64():
    # the U-step's operator, which float32/complex64 data selects:
    # float32/complex64 inside and out, within 1e-6 relative of the float64
    # operator and an exact adjoint pair to 1e-6; using it leaves the
    # kernel's float64 operator unchanged
    cases = [(RNG.normal(size=(6, 6)), 9), (complex_normal((6, 6)), 9)]
    cases += [(build_psf(OpticsConfig(defocus_nm=d)).samples, 144)
              for d in (0.0, 50.0)]
    for samples, n in cases:
        kernel = PsfKernel(samples)
        single = kernel.op(n, single=True)
        assert single is not kernel.op(n)
        assert np.array_equal(single.kernel_hat,
                              kernel.op(n).kernel_hat.astype(np.complex64))
        u, x = RNG.random((n, n)), complex_normal((n, n))
        u_single, x_single = u.astype(np.float32), x.astype(np.complex64)
        for _ in range(2):  # a second call as the first
            hu = convolve(kernel, u_single)
            hx = convolve_adjoint(kernel, x_single)
            want_hu, want_hx = convolve(kernel, u), convolve_adjoint(kernel, x)
            assert hu.dtype == (np.float32 if single.real else np.complex64)
            assert hx.dtype == np.float32
            assert np.abs(hu - want_hu).max() <= 1e-6 * np.abs(want_hu).max()
            assert np.abs(hx - want_hx).max() <= 1e-6 * np.abs(want_hx).max()
            lhs, rhs = np.vdot(hu, x).real, np.vdot(u, hx)
            assert abs(lhs - rhs) <= 1e-6 * abs(lhs), n
        fresh = PsfKernel(samples)
        assert np.array_equal(convolve(kernel, u), convolve(fresh, u))
        assert np.array_equal(convolve_adjoint(kernel, x),
                              convolve_adjoint(fresh, x))


def test_precision_follows_the_data():
    # float32 or complex64 data takes the kernel's single-precision
    # operator, bit for bit, and returns single precision; float64 or
    # complex128 data takes the float64 operator, whose bytes stay its own
    n = 32
    for defocus in (0.0, 50.0):
        kernel = build_psf(OpticsConfig(kernel_size=20, defocus_nm=defocus))
        single, double = kernel.op(n, single=True), kernel.op(n)
        u = RNG.random((n, n))
        x = complex_normal((n, n))
        u32 = u.astype(np.float32)
        hu = convolve(kernel, u32)
        assert np.array_equal(hu, single.forward(u32))
        assert hu.dtype == (np.float32 if single.real else np.complex64)
        assert np.array_equal(convolve(kernel, u), double.forward(u))
        for data, dtype in ((u32, np.float32), (x.astype(np.complex64), np.float32),
                            (u, np.float64), (x, np.float64)):
            got = convolve_adjoint(kernel, data)
            assert got.dtype == dtype, (defocus, data.dtype)
            op = single if dtype == np.float32 else double
            assert np.array_equal(got, op.adjoint(data)), (defocus, data.dtype)


def test_other_dtypes_image_as_their_float64_copy(spectra):
    # bool, integer and float16 grids take the float64 operator with the
    # grid cast to float64: convolve and convolve_adjoint return their
    # float64 copy's results by bytes, as float64 (complex128 for a complex
    # kernel's image), under a real and a complex kernel
    n = 32
    values = RNG.integers(-100, 101, (n, n))
    grids = [RNG.random((n, n)) < 0.5, np.abs(values).astype(np.uint8),
             RNG.random((n, n)).astype(np.float16)]
    grids += [values.astype(t) for t in (np.int8, np.int16, np.int32, np.int64)]
    for defocus in (0.0, 50.0):
        kernel = build_psf(OpticsConfig(kernel_size=20, defocus_nm=defocus))
        for grid in grids:
            copy = grid.astype(np.float64)
            for f in (convolve, convolve_adjoint):
                got, want = f(kernel, grid), f(kernel, copy)
                assert got.dtype in (np.float64, np.complex128), (defocus, grid.dtype)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), (defocus, grid.dtype, f)


def full_lattice_spectrum(op, samples):
    """The spectrum of the operator's kernel samples by one whole 2-D
    transform: rfft2 for a real kernel, fft2 for a complex one."""
    if op.real:
        return sfft.rfft2(samples.real, op.shape)
    return sfft.fft2(samples, op.shape)


def full_lattice_convolution(op, samples, y, start, adjoint):
    """The n x n window at start of the cyclic convolution of the lattice y
    with the kernel (conjugate spectrum if adjoint), by whole 2-D transforms:
    rfft2/irfft2 for a real kernel, fft2/ifft2 for a complex one."""
    fft, ifft = (sfft.rfft2, sfft.irfft2) if op.real else (sfft.fft2, sfft.ifft2)
    kernel_hat = full_lattice_spectrum(op, samples)
    y_hat = fft(y, op.shape)
    y_hat *= np.conj(kernel_hat) if adjoint else kernel_hat
    full = ifft(y_hat, op.shape)
    return full[start:start + op.n, start:start + op.n]


def test_pruned_passes_equal_full_lattice_transforms():
    # the operator skips the FFT rows that hold no input or are cropped
    # away; its results must still be the whole 2-D transforms' bit for bit,
    # on a second call as on the first, and for a real adjoint input as
    # for a complex one: a complex kernel transforms a real residual at the
    # crop offset, not as a mask at the origin
    cases = [(PsfKernel(samples), n) for k, n in LATTICE_CASES
             for samples in (RNG.normal(size=(k, k)), complex_normal((k, k)))]
    cases += [(build_psf(OpticsConfig(defocus_nm=d)), 144) for d in (0.0, 50.0)]
    for kernel, n in cases:
        op = kernel.op(n)
        s = op.crop
        for _ in range(2):
            u, x = RNG.random((n, n)), complex_normal((n, n))
            want = full_lattice_convolution(op, kernel.samples, u, s, adjoint=False)
            assert np.array_equal(convolve(kernel, u), want), (op.shape, n)
            for data in (x, x.real):
                y = np.zeros(op.shape, dtype=float if op.real else complex)
                y[s:s + n, s:s + n] = data.real if op.real else data
                want = full_lattice_convolution(op, kernel.samples, y, 0,
                                                adjoint=True).real
                got = convolve_adjoint(kernel, data)
                assert np.array_equal(got, want), (op.shape, n, data.dtype)


def test_kernel_spectrum_equals_full_lattice_transform():
    # the operator builds its kernel spectrum by pruned 1-D passes; it must
    # be the whole-lattice rfft2 (real kernel) or fft2 (complex) bit for bit
    cases = [(samples, n) for k, n in LATTICE_CASES
             for samples in (RNG.normal(size=(k, k)), complex_normal((k, k)))]
    cases += [(RNG.normal(size=(1, 1)), 1), (complex_normal((1, 1)), 1)]
    cases += [(build_psf(OpticsConfig(defocus_nm=d)).samples, 144)
              for d in (0.0, 50.0)]
    for samples, n in cases:
        op = PsfKernel(samples).op(n)
        want = full_lattice_spectrum(op, samples)
        assert op.kernel_hat.shape == want.shape, (op.shape, n)
        assert sha256(op.kernel_hat) == sha256(want), (op.shape, n)


def test_convolve_through_the_spectrum_cache_is_forward_bit_for_bit(spectra):
    # cold and warm, in and out of focus, at two kernel sizes: convolve's
    # image of a float64 mask is the operator's fresh forward to the last
    # bit, and the complex kernels on one lattice share one transform of
    # each mask while the real one looks up nothing
    target = ten_rectangles(144)
    gray = np.clip(target + 0.3 * RNG.normal(size=target.shape), 0.0, 1.0)
    for k in (100, 80):
        kernels = [build_psf(OpticsConfig(kernel_size=k, defocus_nm=d))
                   for d in (0.0, 10.0, 50.0)]
        for mask in (target, gray):
            wants = [kernel.op(144).forward(mask) for kernel in kernels]
            before = spectra.cache_info()
            for _ in range(2):
                for kernel, want in zip(kernels, wants):
                    got = convolve(kernel, mask)
                    assert got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes(), (k, kernel.config)
            # two complex kernels, two passes: one transform, three reuses
            after = spectra.cache_info()
            assert after.misses - before.misses == 1
            assert after.hits - before.hits == 3
    assert spectra.cache_info().currsize == 4  # 2 sizes x 2 masks


def test_spectrum_cache_keeps_the_half_spectrum(spectra):
    # an entry is columns 0..L//2 of the mask's complex-kernel spectrum,
    # read-only, and image rebuilds the rest by conjugation: on the odd and
    # even lattices of LATTICE_CASES, the 1 x 1 to 5 x 5 ones of a 1-pixel
    # kernel and the production 196² one, the image is forward's bit for bit
    cases = [(complex_normal((k, k)), n) for k, n in LATTICE_CASES]
    cases += [(complex_normal((1, 1)), n) for n in range(1, 6)]
    cases += [(build_psf(OpticsConfig(defocus_nm=50.0)).samples, 144)]
    for samples, n in cases:
        kernel = PsfKernel(samples)
        shape = kernel.op(n).shape
        for mask in (RNG.random((n, n)), (RNG.random((n, n)) < 0.5) * 1.0):
            want = kernel.op(n).forward(mask)
            got = convolve(kernel, mask)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), (shape, n)
            entry = spectra(shape, _MaskKey(mask))
            half = _spectrum(mask, shape, False)[:, :shape[1] // 2 + 1]
            assert entry.shape == half.shape, (shape, n)
            assert entry.tobytes() == half.tobytes(), (shape, n)
            assert not entry.flags.writeable


def test_convolve_caches_every_mask_imaged_in_float64_under_a_complex_kernel(spectra):
    # an int64 or bool mask images as its float64 copy, so under a complex
    # kernel it takes the cache like that copy: the first lookup inserts
    # the 0/1 mask's half spectrum, the second hits it, and each image is
    # the copy's forward by bytes. A float32 mask under a complex kernel,
    # and every mask under a real one, takes the operator's forward and
    # leaves the cache as it was. A complex or non-square mask fails loudly.
    mask = ten_rectangles(64)
    for d in (0.0, 50.0):
        kernel = build_psf(OpticsConfig(kernel_size=20, defocus_nm=d))
        others = [mask.astype(np.float32)] + ([mask] if d == 0.0 else [])
        for other in others + [mask.astype(np.int64), mask.astype(bool)]:
            single = other.dtype == np.float32
            want = kernel.op(64, single).forward(other if single else mask)
            before = spectra.cache_info()
            got = convolve(kernel, other)
            after = spectra.cache_info()
            if d == 0.0 or single:
                assert after == before, (d, other.dtype)
            else:
                assert after.hits + after.misses == before.hits + before.misses + 1
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), (d, other.dtype)
        for bad in (mask.astype(complex), mask[:, :32], mask[0]):
            with pytest.raises(GridError):
                convolve(kernel, bad)
    assert spectra.cache_info()[:2] == (1, 1)  # (hits, misses)


def test_spectrum_cache_tells_negative_zero_from_zero(spectra):
    # -0.0 == 0.0, so two masks that differ only in the sign of their zeros
    # compare equal and sum alike; the cache must still tell them apart
    kernel = build_psf(OpticsConfig(kernel_size=20, defocus_nm=50.0))
    mask = ten_rectangles(64)
    negative = mask.copy()
    negative[mask == 0.0] = -0.0
    convolve(kernel, mask)
    got = convolve(kernel, negative)
    assert spectra.cache_info()[:2] == (0, 2)  # (hits, misses)
    assert got.tobytes() == kernel.op(64).forward(negative).tobytes()
    got = convolve(kernel, mask)
    assert spectra.cache_info()[:2] == (1, 2)
    assert got.tobytes() == kernel.op(64).forward(mask).tobytes()


def test_spectrum_cache_takes_any_memory_layout(spectra):
    # the key is the mask's C-order bytes: a Fortran-order copy of a cached
    # mask hits its entry. This mask's sum in Fortran order differs from
    # its C-order sum in the last bit, so a key summed in the order the
    # array is given would miss.
    kernel = build_psf(OpticsConfig(kernel_size=20, defocus_nm=50.0))
    rng = np.random.default_rng(0)
    base = np.clip(ten_rectangles(64) + 0.3 * rng.normal(size=(64, 64)), 0.0, 1.0)
    wide = rng.random((128, 128))
    convolve(kernel, base)
    assert spectra.cache_info().misses == 1
    for mask, misses in ((np.asfortranarray(base), 1), (base[:, ::-1], 2),
                         (wide[::2, 1::2], 3)):
        assert not mask.flags.c_contiguous
        want = kernel.op(64).forward(np.ascontiguousarray(mask))
        for _ in range(2):
            assert convolve(kernel, mask).tobytes() == want.tobytes()
        assert spectra.cache_info().misses == misses


def test_spectrum_cache_sees_a_mask_changed_in_place(spectra):
    # swapping a 1 and a 0 keeps the sum, so the hash, the same
    kernel = build_psf(OpticsConfig(kernel_size=20, defocus_nm=50.0))
    mask = ten_rectangles(64)
    total = float(mask.sum())
    first = convolve(kernel, mask)
    one, zero = tuple(np.argwhere(mask == 1.0)[0]), tuple(np.argwhere(mask == 0.0)[0])
    mask[one], mask[zero] = 0.0, 1.0
    assert float(mask.sum()) == total
    got = convolve(kernel, mask)
    assert spectra.cache_info()[:2] == (0, 2)  # (hits, misses)
    assert got.tobytes() == kernel.op(64).forward(mask).tobytes()
    assert not np.array_equal(got, first)


def test_spectrum_budget_holds_a_process_window_cycle(spectra):
    # a process window images its 12 masks in turn at each focus setting;
    # at the production setting the second cycle must hit on every mask
    kernel = build_psf(OpticsConfig(defocus_nm=50.0))
    masks = [RNG.random((144, 144)) for _ in range(12)]
    for mask in masks:
        convolve(kernel, mask)
    assert spectra.cache_info()[:2] == (0, 12)  # (hits, misses)
    for mask in masks:
        convolve(kernel, mask)
    assert spectra.cache_info()[:2] == (12, 12)
    # each entry owns columns 0..98 of its 196² spectrum, 196 x 99 complex128
    # values, half the full spectrum's 614,656 bytes; the spectra the
    # kernels share are read-only
    for mask in masks:
        half = spectra(kernel.op(144).shape, _MaskKey(mask))
        assert half.base is None
        assert half.nbytes == 196 * 99 * 16 == 310_464
        with pytest.raises(ValueError):
            half[0, 0] = 0.0


@pytest.fixture
def builds(monkeypatch):
    """The keys (n, single) of the operators built during the test, in
    build order."""
    keys = []
    init = optics._ConvOperator.__init__

    def counting(self, kernel, n, single=False):
        keys.append((n, single))
        init(self, kernel, n, single)

    monkeypatch.setattr(optics._ConvOperator, "__init__", counting)
    return keys


def test_operator_limit_drops_the_oldest_build():
    # OPERATOR_LIMIT builds across five live kernels: the fifth build takes
    # the first kernel's operator out of its cache, so nothing holds it any
    # more, and the four newest stay cached as the same objects
    assert OPERATOR_LIMIT == 4
    kernels = [PsfKernel(RNG.normal(size=(5, 5))) for _ in range(5)]
    first = weakref.ref(kernels[0].op(8))
    newest = [kernel.op(8) for kernel in kernels[1:4]]
    assert first() is not None
    newest.append(kernels[4].op(8))
    assert first() is None
    assert kernels[0]._ops == {}
    for kernel, op in reversed(list(zip(kernels[1:], newest))):
        assert kernel.op(8) is op
    # hits leave the build order alone, so a rebuild drops kernels[1]'s
    kernels[0].op(8)
    assert kernels[1]._ops == {}
    assert [kernel.op(8) for kernel in kernels[2:]] == newest[1:]
    # an eviction drops one operator, not its kernel's others
    single = kernels[4].op(8, single=True)
    for kernel in kernels[1:3]:
        kernel.op(8)
    assert kernels[4]._ops == {(8, True): single}


def test_evicted_operator_rebuilds_bit_for_bit():
    # an operator that left its kernel's cache rebuilds to the same
    # spectrum, and convolves and correlates as the first build did, in
    # both precisions, under a real and a complex kernel
    n = 9
    u, x = RNG.random((n, n)), complex_normal((n, n))
    for samples in (RNG.normal(size=(6, 6)), complex_normal((6, 6))):
        kernel = PsfKernel(samples)
        for dtype in (np.float64, np.float32):
            op = kernel.op(n, single=dtype == np.float32)
            spectrum = op.kernel_hat.tobytes()
            image = convolve(kernel, u.astype(dtype)).tobytes()
            adjoint = convolve_adjoint(kernel, x.astype(np.result_type(dtype, 1j))).tobytes()
            del op
            others = [PsfKernel(RNG.normal(size=(3, 3))) for _ in range(OPERATOR_LIMIT)]
            for other in others:
                other.op(n)
            assert kernel._ops == {}
            rebuilt = kernel.op(n, single=dtype == np.float32)
            assert rebuilt.kernel_hat.tobytes() == spectrum
            assert convolve(kernel, u.astype(dtype)).tobytes() == image
            got = convolve_adjoint(kernel, x.astype(np.result_type(dtype, 1j)))
            assert got.tobytes() == adjoint


def test_dropped_kernel_frees_its_operators_at_once():
    # the limit's record holds kernels weakly: a kernel dropped while its
    # operators are among the newest builds frees them without a gc pass
    kernel = build_psf(OpticsConfig(kernel_size=20, defocus_nm=50.0))
    ops = [weakref.ref(kernel.op(32)), weakref.ref(kernel.op(32, single=True))]
    convolve_adjoint(kernel, complex_normal((32, 32)))  # the conjugate too
    assert all(ref() is not None for ref in ops)
    del kernel
    assert all(ref() is None for ref in ops)


def test_a_solve_builds_two_operators(builds):
    # admm_optimize images in float64 (start-up image, EPE monitor) and
    # runs its U-step in single precision: one operator of each, in focus
    # and out, and none is evicted and rebuilt within the solve
    target = ten_rectangles(64)
    cfg = SolverConfig(outer_max_iters=3, bregman_max_iters=2, descent_max_iters=3)
    for d in (0.0, 50.0):
        oc = OpticsConfig(kernel_size=20, defocus_nm=d)
        kernel = build_psf(oc)
        builds.clear()
        admm_optimize(target, oc, cfg, kernel=kernel)
        assert sorted(builds) == [(64, False), (64, True)], d


def test_focus_sweep_builds_one_operator_per_kernel(builds, spectra):
    # a process window images each of its masks at one focus setting after
    # another; every kernel is kept, as a caller keeps the kernels of the
    # images it checks, and still each builds its operator once
    target = ten_rectangles(64)
    masks = [target] + [np.clip(target + 0.3 * RNG.normal(size=target.shape), 0.0, 1.0)
                        for _ in range(11)]
    kept = []
    for d in np.linspace(-100.0, 100.0, 21):
        oc = OpticsConfig(kernel_size=20, defocus_nm=float(d))
        kernel = build_psf(oc)
        for mask in masks:
            evaluate(mask, target, oc, kernel=kernel)
        kept.append(kernel)
    assert builds == [(64, False)] * 21
    assert sum(len(kernel._ops) for kernel in kept) <= OPERATOR_LIMIT


def test_convolving_unit_impulse_mask_returns_kernel():
    kernel = PsfKernel(RNG.normal(size=(7, 7)))
    n = 7
    u = np.zeros((n, n))
    u[n // 2, n // 2] = 1.0
    got = convolve(kernel, u)
    assert np.abs(got - kernel.samples).max() < 1e-10


def test_aerial_image():
    assert np.all(aerial_image(np.zeros((3, 3), complex)) == 0.0)
    v = np.array([[3.0 + 4.0j]])
    assert aerial_image(v)[0, 0] == pytest.approx(25.0)
    # squared in place, it is |v| ** 2 bit for bit in v's real precision,
    # and v is left alone
    z = RNG.normal(size=(16, 16)) + 1j * RNG.normal(size=(16, 16))
    for v in (z, z.real, z.astype(np.complex64), z.real.astype(np.float32)):
        before = v.copy()
        got = aerial_image(v)
        want = np.abs(v) ** 2
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert v.tobytes() == before.tobytes()


def test_open_area_images_to_unit_intensity():
    kernel = build_psf(OpticsConfig(kernel_size=30))
    n = 90
    u = np.ones((n, n))
    ia = aerial_image(convolve(kernel, u))
    interior = ia[15:-15, 15:-15]
    assert np.abs(interior - 1.0).max() < 1e-6


def test_aerial_rotation_invariance_zero_defocus():
    # odd kernel: the sample lattice is integer-centered, so imaging a
    # 180-degree symmetric mask gives a 180-degree symmetric intensity
    kernel = build_psf(OpticsConfig(kernel_size=31))
    u = RNG.random((21, 21))
    u = 0.5 * (u + u[::-1, ::-1])  # 180-degree symmetric mask
    ia = aerial_image(convolve(kernel, u))
    assert np.abs(ia - ia[::-1, ::-1]).max() < 1e-8


def test_sigmoid_midpoint_and_limits():
    assert image_sigmoid(np.array([[0.3]]), 20.0, 0.3)[0, 0] == pytest.approx(0.5)
    assert image_sigmoid(np.array([[100.0]]), 20.0, 0.3)[0, 0] == pytest.approx(1.0)
    # derivative peaks at the threshold
    xs = np.linspace(0.0, 1.0, 2001)
    s = image_sigmoid(xs, 20.0, 0.3)
    deriv = np.gradient(s, xs)
    assert abs(xs[np.argmax(deriv)] - 0.3) < 2e-3


def test_sigmoid_converges_to_threshold():
    x = RNG.random((30, 30))
    x = np.where(np.abs(x - 0.3) < 0.05, x + 0.11, x)  # keep away from tr
    soft = image_sigmoid(x, 1e3, 0.3)
    hard = image_threshold(x, 0.3)
    assert np.mean(np.abs(soft - hard)) < 1e-6


def test_threshold_equality_convention():
    # the print is a bool map: True where the intensity reaches tr
    assert image_threshold(np.array([[0.3]]), 0.3)[0, 0]
    assert not image_threshold(np.array([[0.29]]), 0.3)[0, 0]
    binary = (RNG.random((6, 6)) < 0.5).astype(float)
    printed = image_threshold(binary, 0.5)
    assert printed.dtype == bool
    assert np.array_equal(printed, binary)
    # compared in float64: float32(0.7) is 0.69999999 and does not print
    # at tr 0.7, though it would against tr rounded to float32
    assert not image_threshold(np.array([[0.7]], dtype=np.float32), 0.7)[0, 0]
