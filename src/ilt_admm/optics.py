"""Coherent imaging model: circular-aperture PSF (with optional defocus),
linear convolution, aerial image, and the threshold/sigmoid resist model.

The forward chain is

    mask -> convolve with PSF -> |.|^2 aerial image -> resist threshold

The PSF comes from the pupil of a projection lens with cutoff NA/lambda;
defocus enters as a phase aberration inside the pupil.
"""

from __future__ import annotations

import functools
import math
import numbers
import weakref
from dataclasses import dataclass, fields

import numpy as np
from scipy import fft as sfft
from scipy.special import expit

from .grids import GridError, as_grid, as_precision, working_precision

# Frequency oversampling for the pupil quadrature in build_psf.  The pupil
# disc at production parameters (NA=0.85, lambda=193nm, pixel 5nm, kernel
# 100px) spans only ~2.2 samples of the coarse 1/(kernel*pixel) lattice,
# which distorts the kernel far beyond the 2% radial-profile budget; 64x
# oversampling brings the discrete transform within ~0.3% of the analytic
# jinc profile over the main lobe.
PUPIL_OVERSAMPLE = 64


def check_settings(config) -> None:
    """Check a settings dataclass's fields: those annotated int must be
    integers (numpy's too, but not bool), and every field finite. Raises
    ValueError naming the field. nan passes every comparison, so callers
    run this before their range checks."""
    for f in fields(config):
        value = getattr(config, f.name)
        integral = (isinstance(value, numbers.Integral)
                    and not isinstance(value, bool))
        if f.type == "int" and not integral:
            raise ValueError(f"{f.name} must be an integer, got {value!r}")
        if not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class OpticsConfig:
    """Projection-system parameters. Defaults are the production setting:
    ArF 193nm, NA 0.85, 5nm pixels, 100x100 kernel, resist threshold 0.3.
    The resist threshold comes from optics_cfg, an OpticsConfig, in every
    solve and evaluation. The sigmoid steepness is no setting: it changes
    no mask, image or EPE, only the solver's logged Lagrangian, which
    reads solver.SIGMOID_STEEPNESS."""

    wavelength_nm: float = 193.0
    numerical_aperture: float = 0.85
    defocus_nm: float = 0.0
    pixel_size_nm: float = 5.0
    kernel_size: int = 100
    threshold: float = 0.3

    def __post_init__(self):
        check_settings(self)
        if self.wavelength_nm <= 0:
            raise ValueError("wavelength must be positive")
        if not 0.0 < self.numerical_aperture < 1.0:
            raise ValueError("numerical aperture must lie in (0, 1)")
        if self.pixel_size_nm <= 0:
            raise ValueError("pixel size must be positive")
        if self.kernel_size <= 0:
            raise ValueError("kernel size must be positive")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("resist threshold must lie in (0, 1)")


# The one cached operator (see PsfKernel.op), as kernel -> (n, operator).
# It holds a 614 KB complex128 spectrum at the production setting.
_operators = weakref.WeakKeyDictionary()


@dataclass(eq=False, frozen=True)
class PsfKernel:
    """Spatial convolution kernel with its optics metadata.

    samples is a read-only kernel_size x kernel_size complex128 array, a
    view of the kernel's own copy of the array it was given, so no one can
    make it writable again. A kernel's fields cannot be reassigned.
    Kernels compare and hash by identity, the key of the operator cache
    (see op).
    """

    samples: np.ndarray
    config: OpticsConfig | None = None

    def __post_init__(self):
        # a cached operator holds the samples' spectrum, so a kernel keeps
        # its own read-only complex128 copy and shows a view of it: numpy
        # refuses to make a view writable while its base is read-only
        samples = as_grid(self.samples, complex_ok=True).astype(complex, order="C")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples[...])

    @property
    def dc_gain(self) -> float:
        """The magnitude of the samples' sum: 1.0 after build_psf's
        normalization."""
        return float(abs(self.samples.sum()))

    def op(self, n: int) -> "_ConvOperator":
        """FFT convolution operator for n x n inputs, in both precisions.

        The package images through one kernel at a time (a solve uses one
        operator, a focus sweep one per kernel), so the module caches one
        operator, the last one built: an op call for another kernel or size
        first empties the cache, so two spectra are never alive together,
        and the next call for this kernel rebuilds the operator bit for
        bit. The cache is a weak map: it holds the kernel weakly, keyed by
        identity, and drops the operator when the kernel dies."""
        if _operators.get(self, (None,))[0] != n:
            _operators.clear()
            _operators[self] = (n, _ConvOperator(self.samples, n))
        return _operators[self][1]


# a focus sweep needs one entry; each holds ~0.38 MB at the production setting
@functools.lru_cache(maxsize=4)
def _quadrature(kernel_size: int, pixel_size_nm: float, wavelength_nm: float,
                numerical_aperture: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """build_psf's focus-independent arrays on the pupil quadrant
    fx, fy = j * df, l * df (0 <= j, l <= m), read-only:

    - disc[j, l], 1.0 inside the cutoff disc and 0.0 outside, the pupil at
      best focus;
    - root[j, l] = sqrt(1 - lambda^2 (fx^2 + fy^2)) inside the disc, 0.0
      outside, which scales the defocus phase;
    - cosines[a, j] = 2 cos(2 pi x_a f_j), with cosines[a, 0] = 1, over the
      first ceil(k / 2) kernel pixels x_a.

    The defocus and threshold leave them alone, so every kernel
    of a focus sweep shares one entry, built once per process.
    """
    k, lam = kernel_size, wavelength_nm
    df = 1.0 / (PUPIL_OVERSAMPLE * k * pixel_size_nm)
    cutoff = numerical_aperture / lam
    m = int(np.ceil(cutoff / df))
    f = np.arange(m + 1) * df
    f2 = f[:, None] * f[:, None] + f[None, :] * f[None, :]
    inside = np.sqrt(f2) <= cutoff
    disc = inside.astype(float)
    # inside the cutoff, (f^2+g^2) lambda^2 <= NA^2 < 1
    root = np.sqrt(1.0 - f2 * lam * lam, where=inside, out=np.zeros(f2.shape))
    x = (np.arange((k + 1) // 2) - (k - 1) / 2.0) * pixel_size_nm
    cosines = 2.0 * np.cos(2.0 * np.pi * np.outer(x, f))
    cosines[:, 0] = 1.0
    for a in (disc, root, cosines):
        a.flags.writeable = False
    return disc, root, cosines


def build_psf(cfg: OpticsConfig) -> PsfKernel:
    """Inverse-transform the sampled pupil into a normalized spatial kernel.

    The pupil is exp(-i 2pi/lambda * D * sqrt(1 - lambda^2 (f^2 + g^2)))
    inside the cutoff disc sqrt(f^2 + g^2) <= NA/lambda, with D the defocus,
    and 0 outside it; at best focus it is the plain 0/1 circular low-pass.
    It is sampled on a symmetric lattice with step
    df = 1/(PUPIL_OVERSAMPLE * kernel_size * pixel_size) and inverse-
    transformed by a direct quadrature sum onto the kernel pixels, centered
    so the peak sits at the kernel center; the result is scaled to unit DC
    gain (sum = 1).

    The pupil is even in fx and in fy, so the sum over the whole lattice
    folds onto the quadrant Q (fx, fy >= 0): h = C Q C^T with
    C[a, 0] = 1 and C[a, j] = 2 cos(2 pi x_a f_j), from _quadrature's cache.
    At best focus Q is the real 0/1 disc; under defocus it is the stacked
    real pair cos(t), -sin(t) of the phase t = 2 pi / lambda * D * root.
    Under defocus two einsum passes contract it. At best focus the first
    pass, C Q, is a lookup: disc column l is 1.0 on its first counts[l]
    rows and 0.0 below, so column l of C Q is the running sum of C's first
    counts[l] columns, which np.cumsum adds in j order from +0.0 as einsum
    does, bit for bit (0.0 * c never moves a partial sum). The lookup is
    made C-contiguous, since the second einsum's rounding follows its
    operands' layout. No BLAS routine runs, so the kernel's bytes do not
    depend on the BLAS thread count. Several identities hold exactly, not
    just up to rounding:

    - Mirror symmetry. The pixel grid x is exactly odd (x_{k-1-a} is the
      negation of x_a), so only the first ceil(k/2) rows and columns are
      summed, and the rest are mirror copies: h == h[::-1] == h[:, ::-1].
    - A real kernel at best focus: its imaginary part is 0.0.
    - Conjugacy in the defocus: the phase is taken at |D| and only the
      sine's sign follows D, and negation is exact through the sums and
      the normalization, so build_psf at -D is the conjugate of that at D.
    """
    k = cfg.kernel_size
    disc, root, cosines = _quadrature(k, cfg.pixel_size_nm, cfg.wavelength_nm,
                                      cfg.numerical_aperture)
    d = cfg.defocus_nm
    if d == 0.0:
        # f_j^2 + f_l^2 grows with j, so disc column l is 1.0 on rows
        # j < counts[l]: C Q is a prefix sum of C, read at counts
        counts = np.count_nonzero(disc, axis=0)
        prefix = np.zeros((cosines.shape[0], cosines.shape[1] + 1))
        np.cumsum(cosines, axis=1, out=prefix[:, 1:])
        rows = np.ascontiguousarray(prefix[:, counts])
    else:
        t = (2.0 * np.pi / cfg.wavelength_nm) * (abs(d) * root)
        q = np.empty((2,) + t.shape)
        np.cos(t, out=q[0])
        q[0] *= disc  # cos(0) = 1 outside the disc, where root is 0
        np.sin(t, out=q[1])
        if d > 0.0:  # exp(-i t) for D > 0, exp(+i t) for D < 0
            np.negative(q[1], out=q[1])
        # optimize=False keeps einsum's own loops: no tensordot, so no BLAS
        rows = np.einsum("aj,...jl->...al", cosines, q, optimize=False)
    corner = np.einsum("...al,bl->...ab", rows, cosines, optimize=False)
    half = cosines.shape[0]  # ceil(k / 2)
    rest = k - half
    h = np.empty((k, k), dtype=complex)
    top = h[:half]
    top[:, :half] = corner if d == 0.0 else corner[0] + 1j * corner[1]
    top[:, half:] = top[:, :rest][:, ::-1]
    h[half:] = h[:rest][::-1]
    h /= h.sum()
    return PsfKernel(samples=h, config=cfg)


def _spectrum(u: np.ndarray, shape: tuple[int, int], real: bool,
              at: int = 0) -> np.ndarray:
    """The transform of a grid placed at row and column at of a fresh zero
    lattice of the square shape, by the passes _ConvOperator states for a
    real kernel (real) or a complex one: half of it (rfft layout) or all
    of it. Every spectrum the package takes, the operators' and the one
    convolve caches half of in _mask_spectrum, is this routine's. The grid
    arrives in its working precision (float32, float64, complex64 or
    complex128; _operator casts it), and the lattice is that precision's
    complex type."""
    size, (rows, cols) = shape[0], u.shape
    hat = np.result_type(u, np.complex64)
    if real:
        window = np.zeros((rows, size), u.real.dtype)
        window[:, at:at + cols] = u.real
        lattice = np.zeros((size, size // 2 + 1), hat)
        lattice[at:at + rows] = sfft.rfft(window, axis=1)
        return sfft.fft(lattice, axis=0, overwrite_x=True)
    if at == 0 and not np.iscomplexobj(u):
        return sfft.fft2(u, shape)
    window = np.zeros((size, cols), hat)
    window[at:at + rows] = u
    lattice = np.zeros(shape, hat)
    lattice[:, at:at + cols] = sfft.fft(window, axis=0)
    return sfft.fft(lattice, axis=1, overwrite_x=True)


class _ConvOperator:
    """Zero-padded linear convolution with a fixed kernel and input size,
    plus its exact adjoint (correlation with the conjugate kernel).

    Both directions work on the smallest fast FFT lattice on which cyclic
    convolution equals linear convolution over the central n x n window:
    5-smooth for a real kernel, which convolves by real-input transforms and
    returns a real image, 11-smooth for any other kernel, which takes
    complex transforms.

    Every transform the operator takes, of its kernel, of a mask and of an
    adjoint's input, is _spectrum's: the grid placed at row and column `at`
    of the zero L x L lattice (0 for the kernel and a mask, the crop offset
    for an adjoint's input) and transformed by two 1-D passes, the first
    over only the rows (real kernel) or columns (complex kernel) that hold
    the grid. A real grid at 0 under a complex kernel takes the whole fft2,
    which fills the Hermitian half of its spectrum its own way and is the
    fast path: two complex passes took about 2.1x its time in float32 and
    2.7x in float64 (196², 2-core x86_64). The inverse's last pass computes
    only the n rows the crop keeps. The passes keep pocketfft's order and
    scaling point (rfft2 takes the last axis first; irfft2, fft2 and ifft2
    take axis 0 first; irfft2 applies 1/L^2 in its last pass, ifft2 in its
    first), so the results are the whole 2-D transforms' bit for bit.

    A kernel is real when its imaginary part is exactly 0.0, as build_psf's
    is at best focus; an imaginary part, however small, takes the complex
    path and stays in the image.

    forward is _spectrum (the mask's transform) followed by the kernel
    product and the pruned inverse, fused in place. A complex kernel's
    image, convolve's path for a float64 mask, runs the same product and
    inverse from columns 0..L//2 of the mask's spectrum, the half
    _mask_spectrum keeps: it rebuilds the other columns by conjugation
    into a fresh lattice and leaves the half untouched, so one half can
    serve every kernel on the same lattice. fft2 of a real grid fills
    those columns as the exact conjugates of their reflections, so the
    image is forward's bit for bit.

    An operator serves both precisions: every grid arrives already in its
    working precision, float32/float64 or the complex type of that
    precision, as _operator casts it by grids.working_precision, and each
    product takes the kernel spectrum in its data's precision. kernel_hat
    is built in float64; its complex64 rounding and each conjugate are made
    from it on first use and kept. Single-precision data, the U-step's
    state, returns float32 (complex64 for a complex kernel's forward),
    within ~3e-7 relative of its float64 copy's result.

    An operator holds those spectra and no scratch buffers, so no call
    depends on an earlier one. It holds no PsfKernel, so the cache keeps
    no kernel alive.
    """

    def __init__(self, kernel: np.ndarray, n: int):
        k = kernel.shape[0]
        self.n = n
        self.crop = (k - 1) // 2  # central-window offset into the full conv
        self.real = not kernel.imag.any()
        # wrap-around lands outside the central window; the kernel must fit.
        # Real transforms get a 5-smooth length: pocketfft's real FFTs take
        # any factor 7 through their slow generic radix.
        size = sfft.next_fast_len(max(n + k - 1 - self.crop, k), real=self.real)
        self.shape = (size, size)
        self.scale = 1.0 / (size * size)  # the inverse's 1/L^2
        self.kernel_hat = _spectrum(kernel.real if self.real else kernel,
                                    self.shape, self.real)
        self._hats = {}

    def _hat(self, dtype: np.dtype, conj: bool = False) -> np.ndarray:
        """The kernel spectrum as the complex dtype, conjugated if conj:
        kernel_hat itself, or made from it on first use and kept."""
        key = (dtype, conj)
        if key not in self._hats:
            self._hats[key] = (np.conj(self._hat(dtype)) if conj
                               else self.kernel_hat.astype(dtype, copy=False))
        return self._hats[key]

    def image(self, half: np.ndarray) -> np.ndarray:
        """forward of a real grid under a complex kernel, from columns
        0..L//2 of the grid's spectrum, which stay unchanged. Entry (r, c)
        of the rest is the conjugate of entry (-r, -c) mod L."""
        size, h = self.shape[0], half.shape[1]
        y = np.empty(self.shape, half.dtype)
        y[:, :h] = half
        np.conjugate(half[0, size - h:0:-1], out=y[0, h:])
        np.conjugate(half[:0:-1, size - h:0:-1], out=y[1:, h:])
        y *= self._hat(y.dtype)
        return self._inverse(y, self.crop)

    def forward(self, u: np.ndarray) -> np.ndarray:
        """Linear convolution of an n x n grid, cropped to the central window."""
        u_hat = _spectrum(u, self.shape, self.real)
        u_hat *= self._hat(u_hat.dtype)
        return self._inverse(u_hat, self.crop)

    def adjoint(self, x: np.ndarray) -> np.ndarray:
        """Re{H^* x}, the exact adjoint of forward on real grids: the
        spectrum of x at the crop offset times the conjugate kernel
        spectrum, inverted and cropped at the origin. A real kernel
        correlates Re x only, since Re{H^* x} = H^T Re x."""
        y_hat = _spectrum(x, self.shape, self.real, self.crop)
        y_hat *= self._hat(y_hat.dtype, conj=True)
        return self._inverse(y_hat, 0).real

    def _inverse(self, y_hat: np.ndarray, start: int) -> np.ndarray:
        """Rows and columns start:start + n of the inverse transform of the
        spectrum y_hat, which it overwrites."""
        n, size = self.n, self.shape[0]
        keep = slice(start, start + n)
        rows = sfft.ifft(y_hat, axis=0, norm="forward", overwrite_x=True)[keep]
        if self.real:  # irfft2 scales in its last pass
            out = sfft.irfft(rows, size, axis=1, norm="forward")[:, keep]
            out *= self.scale
            return out
        rows *= self.scale  # ifft2 scales in its first pass
        return sfft.ifft(rows, axis=1, norm="forward", overwrite_x=True)[:, keep]


def _operator(kernel: PsfKernel, name: str,
              a) -> tuple[_ConvOperator, np.ndarray]:
    """kernel's operator for a, which must be a 2-D square grid (GridError
    else), and a cast to its working precision: the imaging calls' one
    application of grids.working_precision, so a bool, integer or float16
    grid images as its float64 copy does."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise GridError(f"{name} must be square, got shape {a.shape}")
    return kernel.op(a.shape[0]), as_precision(a, working_precision(a))


class _MaskKey:
    """A mask as _mask_spectrum's key: its shape and its C-order bytes,
    whatever its memory layout. Keys are equal only bit for bit, so -0.0
    and 0.0 differ and a mask changed in place misses. They hash by the
    sum of those bytes as float64, a fraction of the cost of hashing the
    bytes, and equal keys sum alike."""

    __slots__ = ("shape", "bits")

    def __init__(self, u: np.ndarray):
        self.shape = u.shape
        self.bits = u.tobytes()

    def __eq__(self, other) -> bool:
        return self.bits == other.bits and self.shape == other.shape

    def __hash__(self) -> int:
        return hash(float(np.frombuffer(self.bits).sum()))


# A process-window sweep cycles through its masks once per focus setting,
# and an LRU smaller than that cycle (12 masks) never hits. At the
# production setting (144² field, 196² complex lattice) an entry holds
# ~0.48 MB: the 310 KB half spectrum and the 166 KB key.
@functools.lru_cache(maxsize=16)
def _mask_spectrum(shape: tuple[int, int], key: _MaskKey) -> np.ndarray:
    """Columns 0..L//2 of the complex-kernel _spectrum of the float64 mask
    in key on the L x L lattice shape, read-only: a complex kernel's
    operator takes the same transform of the mask, and its image rebuilds
    the other columns, which the mask's realness makes redundant."""
    u = np.frombuffer(key.bits).reshape(key.shape)
    half = _spectrum(u, shape, False)[:, :shape[1] // 2 + 1].copy()
    half.flags.writeable = False
    return half


def convolve(kernel: PsfKernel, u: np.ndarray) -> np.ndarray:
    """H * U: zero-padded linear 2-D convolution, central n x n window, the
    operator's forward bit for bit. The mask must be real. It arrives at
    the operator in its working precision (_operator): a float32 mask
    convolves in single precision, and any other mask as its float64 copy.

    A mask that arrives as float64 under a complex kernel is imaged from
    its half spectrum in _mask_spectrum's LRU, shared by every kernel on
    the same lattice, so a focus sweep transforms each mask once. Every
    other mask takes forward; a real kernel's rfft2 spectra would evict a
    sweep's complex ones. At production (196², 2-core x86_64) a hit took
    ~0.6x forward's time and a miss 1.5-1.8x; no package path images
    one-off float64 masks under a complex kernel in volume."""
    op, u = _operator(kernel, "mask", u)
    if np.iscomplexobj(u):
        raise GridError("mask must be real, got complex data")
    if op.real or u.dtype != np.float64:
        return op.forward(u)
    return op.image(_mask_spectrum(op.shape, _MaskKey(u)))


def convolve_adjoint(kernel: PsfKernel, x: np.ndarray) -> np.ndarray:
    """Re{H^* X}: the adjoint of convolve on real masks (the real part of
    the correlation with the conjugate kernel). X may be complex but must
    be a square grid; float32 or complex64 X correlates in single
    precision and returns float32, and any other X correlates as its
    float64 (complex128) copy and returns float64."""
    op, x = _operator(kernel, "image", x)
    return op.adjoint(x)


def aerial_image(v: np.ndarray) -> np.ndarray:
    """|H*U|^2: elementwise squared modulus of the convolved field."""
    a = np.abs(np.asarray(v))
    np.square(a, out=a)  # in place: |v| ** 2 bit for bit, one array fewer
    return a


def image_sigmoid(ia: np.ndarray, a: float, tr: float) -> np.ndarray:
    """Smooth resist model Sig_a(x) = 1 / (1 + exp(-a (x - tr)))."""
    if a <= 0:
        raise ValueError("sigmoid steepness must be positive")
    return expit(a * (np.asarray(ia, dtype=float) - tr))


def image_threshold(ia: np.ndarray, tr: float) -> np.ndarray:
    """Hard resist model, the package's one print rule: the bool map
    intensity >= tr, compared in float64 (a float64 ia is not copied)."""
    return np.asarray(ia, dtype=float) >= tr
