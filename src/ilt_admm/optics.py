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
from dataclasses import dataclass, field, fields

import numpy as np
from scipy import fft as sfft
from scipy.special import expit

from .grids import GridError, as_grid

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
    ArF 193nm, NA 0.85, 5nm pixels, 100x100 kernel, resist threshold 0.3."""

    wavelength_nm: float = 193.0
    numerical_aperture: float = 0.85
    defocus_nm: float = 0.0
    pixel_size_nm: float = 5.0
    kernel_size: int = 100
    sigmoid_steepness: float = 20.0
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
        if self.sigmoid_steepness <= 0:
            raise ValueError("sigmoid steepness must be positive")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("resist threshold must lie in (0, 1)")


@dataclass
class PsfKernel:
    """Spatial convolution kernel with its optics metadata.

    samples is a kernel_size x kernel_size complex array; dc_gain is the
    magnitude of its sum (1.0 after build_psf normalization).
    """

    samples: np.ndarray
    config: OpticsConfig | None = None
    dc_gain: float = field(init=False)
    _ops: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.samples = as_grid(self.samples, complex_ok=True)
        self.dc_gain = float(abs(self.samples.sum()))

    @property
    def single(self) -> "_SinglePrecision":
        """This kernel as the U-step hands it to convolve, convolve_adjoint
        and grad_F for its Armijo trial images and gradient adjoints, which
        then run in single precision. A new handle each time: kept on the
        kernel, it would make a reference cycle that holds every dropped
        kernel and its operators until the garbage collector runs."""
        return _SinglePrecision(self)

    def op(self, n: int, single: bool = False) -> "_ConvOperator":
        """FFT convolution operator for n x n inputs, cached per size and
        precision: float64 unless single."""
        if (n, single) not in self._ops:
            self._ops[n, single] = _ConvOperator(self.samples, n, single)
        return self._ops[n, single]


class _SinglePrecision:
    """A PsfKernel's single-precision stand-in: convolve and
    convolve_adjoint given it reach the kernel's single-precision operator."""

    __slots__ = ("kernel",)

    def __init__(self, kernel: PsfKernel):
        self.kernel = kernel

    def op(self, n: int) -> "_ConvOperator":
        return self.kernel.op(n, single=True)


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

    The defocus, threshold and steepness leave them alone, so every kernel
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


class _ConvOperator:
    """Zero-padded linear convolution with a fixed kernel and input size,
    plus its exact adjoint (correlation with the conjugate kernel).

    Both directions work on the smallest fast FFT lattice on which cyclic
    convolution equals linear convolution over the central n x n window:
    5-smooth for a real kernel, which convolves by real-input transforms and
    returns a real image, 11-smooth for any other kernel, which takes
    complex transforms. Each 2-D transform runs as two 1-D passes that skip
    rows whose result is known or discarded: the first pass covers only the
    n rows (or, in the complex adjoint, columns) that hold input, and the
    last inverse pass only the n rows the crop keeps. The passes keep
    pocketfft's order and scaling point (rfft2 takes the last axis first;
    irfft2, fft2 and ifft2 take axis 0 first; irfft2 applies 1/L^2 in its
    last pass, ifft2 in its first), so the results are those of the whole
    2-D transforms bit for bit. A complex kernel's forward keeps fft2 whole:
    it fills the Hermitian half of a real mask's spectrum its own way. The
    adjoint builds its conjugate spectrum and input buffers on first call.

    A kernel is real when its imaginary part is exactly 0.0, as build_psf's
    is at best focus; an imaginary part, however small, takes the complex
    path and stays in the image.

    forward is spectrum (the mask's transform) followed by image (the
    kernel product and the pruned inverse), fused in place. image leaves
    the spectrum it is given untouched, so one spectrum can serve every
    kernel on the same lattice: convolve_cached takes a complex kernel's
    from _mask_spectrum, which transforms as spectrum does.

    A single-precision operator (single=True) runs the same passes on
    float32/complex64 arrays: the kernel spectrum is built in float64 and
    then rounded to complex64, the input is rounded to float32 at the first
    pass, and forward and adjoint return float64 (complex128 for a complex
    kernel's forward). It agrees with the float64 operator to ~3e-7
    relative; only the U-step's trial images and gradient adjoints use it.
    """

    def __init__(self, kernel: np.ndarray, n: int, single: bool = False):
        k = kernel.shape[0]
        self.n = n
        self.crop = (k - 1) // 2  # central-window offset into the full conv
        self.real = not kernel.imag.any()
        self.single = single
        # wrap-around lands outside the central window; the kernel must fit.
        # Real transforms get a 5-smooth length: pocketfft's real FFTs take
        # any factor 7 through their slow generic radix.
        size = sfft.next_fast_len(max(n + k - 1 - self.crop, k), real=self.real)
        self.shape = (size, size)
        self.scale = 1.0 / (size * size)  # the inverse's 1/L^2
        # the kernel's spectrum by the pruned passes: the first covers only
        # the k rows (columns, for fft2's axis-0 pass) that hold the kernel
        if self.real:
            kernel_hat = self.spectrum(kernel.real)
        else:
            cols = sfft.fft(kernel, size, axis=0)
            kernel_hat = sfft.fft(cols, size, axis=1)
        self.kernel_hat = kernel_hat.astype(np.complex64) if single else kernel_hat
        self._adjoint_hat = None
        self._window = None  # the adjoint's input rows (real) or columns
        self._lattice = None  # their first pass, zero off the window

    def spectrum(self, u: np.ndarray) -> np.ndarray:
        """The transform of a grid of at most L rows and columns (an n x n
        mask, or a real kernel) on the L x L lattice: half of it (rfft
        layout) for a real kernel, all of it for a complex one."""
        size = self.shape[0]
        if self.real:
            rows = sfft.rfft(u, size, axis=1)  # only the rows that hold input
            return sfft.fft(rows, size, axis=0, overwrite_x=True)
        return sfft.fft2(u, self.shape)

    def image(self, u_hat: np.ndarray) -> np.ndarray:
        """forward from the grid's spectrum, which stays unchanged."""
        return _double(self._inverse(u_hat * self.kernel_hat, self.crop))

    def forward(self, u: np.ndarray) -> np.ndarray:
        """Linear convolution of an n x n grid, cropped to the central window."""
        u_hat = self.spectrum(u.astype(np.float32) if self.single else u)
        u_hat *= self.kernel_hat
        return _double(self._inverse(u_hat, self.crop))

    def adjoint(self, x: np.ndarray) -> np.ndarray:
        """Re{H^* x}, the exact adjoint of forward on real grids: embed at
        the crop offset, multiply by the conjugate spectrum, crop at the
        origin. A real kernel correlates Re x only, since
        Re{H^* x} = H^T Re x."""
        s, n, size = self.crop, self.n, self.shape[0]
        if self._adjoint_hat is None:
            self._adjoint_hat = np.conj(self.kernel_hat)
            self._lattice = np.zeros(self.kernel_hat.shape, self.kernel_hat.dtype)
            self._window = np.zeros((n, size) if self.real else (size, n),
                                    self.kernel_hat.real.dtype if self.real
                                    else self.kernel_hat.dtype)
        if self.real:
            self._window[:, s:s + n] = x.real
            self._lattice[s:s + n] = sfft.rfft(self._window, axis=1)
            y_hat = sfft.fft(self._lattice, axis=0)
        else:
            self._window[s:s + n] = x
            self._lattice[:, s:s + n] = sfft.fft(self._window, axis=0)
            y_hat = sfft.fft(self._lattice, axis=1)
        y_hat *= self._adjoint_hat
        return _double(self._inverse(y_hat, 0).real)

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


def _double(a: np.ndarray) -> np.ndarray:
    """a as float64 or complex128; a itself when it already is."""
    return a.astype(np.promote_types(a.dtype, np.float64), copy=False)


def convolve(kernel: PsfKernel, u: np.ndarray) -> np.ndarray:
    """H * U: zero-padded linear 2-D convolution, central n x n window.
    The mask must be real."""
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise GridError(f"mask must be square, got shape {u.shape}")
    if np.iscomplexobj(u):
        raise GridError("mask must be real, got complex data")
    return kernel.op(u.shape[0]).forward(u)


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
# ~0.78 MB: the 614 KB spectrum and the 166 KB key.
@functools.lru_cache(maxsize=16)
def _mask_spectrum(shape: tuple[int, int], key: _MaskKey) -> np.ndarray:
    """The read-only fft2 of the float64 mask in key on the lattice shape,
    as a complex-kernel _ConvOperator.spectrum takes it."""
    u_hat = sfft.fft2(np.frombuffer(key.bits).reshape(key.shape), shape)
    u_hat.flags.writeable = False
    return u_hat


def convolve_cached(kernel: PsfKernel, u: np.ndarray) -> np.ndarray:
    """convolve(kernel, u) bit for bit, for a mask the caller has checked:
    a real float64 n x n grid. A complex kernel takes the mask's spectrum
    from _mask_spectrum's LRU, shared by every kernel on the same lattice,
    so a mask imaged at many focus settings is transformed once. A real
    kernel convolves as convolve does: its half spectrum would evict the
    complex ones of a focus sweep at every pass.
    """
    op = kernel.op(u.shape[0])
    if op.real:
        return op.forward(u)
    return op.image(_mask_spectrum(op.shape, _MaskKey(u)))


def convolve_adjoint(kernel: PsfKernel, x: np.ndarray) -> np.ndarray:
    """Re{H^* X}: the adjoint of convolve on real masks (the real part of
    the correlation with the conjugate kernel)."""
    x = np.asarray(x)
    return kernel.op(x.shape[0]).adjoint(x)


def aerial_image(v: np.ndarray) -> np.ndarray:
    """|H*U|^2: elementwise squared modulus of the convolved field."""
    return np.abs(np.asarray(v)) ** 2


def image_sigmoid(ia: np.ndarray, a: float, tr: float) -> np.ndarray:
    """Smooth resist model Sig_a(x) = 1 / (1 + exp(-a (x - tr)))."""
    if a <= 0:
        raise ValueError("sigmoid steepness must be positive")
    return expit(a * (np.asarray(ia, dtype=float) - tr))


def image_threshold(ia: np.ndarray, tr: float) -> np.ndarray:
    """Hard resist model: 1 where intensity >= tr, else 0."""
    return (np.asarray(ia, dtype=float) >= tr).astype(float)
