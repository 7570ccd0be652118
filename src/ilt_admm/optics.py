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
from collections import OrderedDict
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
        # nan passes every comparison below, so finiteness comes first
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
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


def cutoff_frequency(cfg: OpticsConfig) -> float:
    """Lens cutoff frequency NA/lambda in 1/nm; defocus plays no role."""
    return cfg.numerical_aperture / cfg.wavelength_nm


def build_pupil(cfg: OpticsConfig, fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
    """Sample the pupil transfer function on a frequency lattice.

    Inside the cutoff disc the pupil is exp(-i 2pi/lambda * W(f,g)) with the
    defocus aberration W = D*sqrt(1 - (f^2+g^2) lambda^2); outside it is 0.
    With zero defocus this is the plain 0/1 circular low-pass.
    """
    fx = np.asarray(fx, dtype=float)
    fy = np.asarray(fy, dtype=float)
    f2 = fx * fx + fy * fy
    inside = np.sqrt(f2) <= cutoff_frequency(cfg)
    # inside the cutoff, (f^2+g^2) lambda^2 <= NA^2 < 1
    lam = cfg.wavelength_nm
    w = cfg.defocus_nm * np.sqrt(np.clip(1.0 - f2 * lam * lam, 0.0, None))
    # the complex exp only inside the disc; the zeros stand outside it
    return np.exp(-1j * (2.0 * np.pi / lam) * w, where=inside,
                  out=np.zeros(inside.shape, dtype=complex))


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

    def op(self, n: int) -> "_ConvOperator":
        """FFT convolution operator for n x n inputs, cached per size."""
        if n not in self._ops:
            self._ops[n] = _ConvOperator(self.samples, n)
        return self._ops[n]


# a focus sweep needs one entry; each holds ~0.45 MB at the production setting
@functools.lru_cache(maxsize=4)
def _quadrature(kernel_size: int, pixel_size_nm: float,
                m: int) -> tuple[np.ndarray, np.ndarray]:
    """build_psf's frequency lattice f = arange(-m, m + 1) * df and its
    phase matrix ex = exp(2 pi i x f) over the kernel pixels x, read-only.

    Neither depends on focus, NA or wavelength except through m, so every
    kernel of a focus sweep shares one pair, built once per process.
    """
    df = 1.0 / (PUPIL_OVERSAMPLE * kernel_size * pixel_size_nm)
    f = np.arange(-m, m + 1) * df
    x = (np.arange(kernel_size) - (kernel_size - 1) / 2.0) * pixel_size_nm
    ex = np.exp(2j * np.pi * np.outer(x, f))
    f.flags.writeable = False
    ex.flags.writeable = False
    return f, ex


def build_psf(cfg: OpticsConfig) -> PsfKernel:
    """Inverse-transform the sampled pupil into a normalized spatial kernel.

    The pupil is sampled on a symmetric lattice with step
    1/(PUPIL_OVERSAMPLE * kernel_size * pixel_size) and inverse-transformed
    by a direct quadrature sum onto the kernel pixels, centered so the peak
    sits at the kernel center; the result is scaled to unit DC gain (sum = 1).

    Only the quadrant fx, fy >= 0 is evaluated; the other three are mirror
    copies of it. That is exact, not just up to rounding: the lattice
    f = arange(-m, m + 1) * df is exactly odd (each -j * df is the negation
    of j * df), so fx * fx is exactly even, and a mirrored point adds the
    same two squares in the same order. Every pupil sample, and so the
    kernel, is bit for bit that of the whole-lattice evaluation. The
    lattice and the phase matrix come from _quadrature's cache.
    """
    k = cfg.kernel_size
    df = 1.0 / (PUPIL_OVERSAMPLE * k * cfg.pixel_size_nm)
    m = int(np.ceil(cutoff_frequency(cfg) / df))
    f, ex = _quadrature(k, cfg.pixel_size_nm, m)
    q = build_pupil(cfg, f[m:, None], f[None, m:])  # fx, fy >= 0
    pupil = np.empty((2 * m + 1, 2 * m + 1), dtype=complex)
    pupil[m:, m:] = q
    pupil[m:, :m] = q[:, :0:-1]  # fy < 0
    pupil[:m] = pupil[:m:-1]  # fx < 0

    # separable inverse-DFT quadrature: H[m,n] = sum P[j,l] e^{i2pi f_j x_m} e^{i2pi f_l x_n}
    h = ex @ pupil @ ex.T
    h = h / h.sum()
    return PsfKernel(samples=h, config=cfg)


# A kernel whose imaginary part has at most this share of its l1 norm is
# real up to rounding (2.5e-16 at best focus, 0.11 at 10 nm defocus) and
# convolves by real-input FFTs.
REAL_KERNEL_RTOL = 1e-12


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

    forward is spectrum (the mask's transform) followed by image (the
    kernel product and the pruned inverse), fused in place. image leaves
    the spectrum it is given untouched, so one spectrum can serve every
    kernel on the same lattice (see convolve_cached).
    """

    def __init__(self, kernel: np.ndarray, n: int):
        k = kernel.shape[0]
        self.n = n
        self.k = k
        self.crop = (k - 1) // 2  # central-window offset into the full conv
        self.kernel = kernel
        self.real = bool(np.abs(kernel.imag).sum()
                         <= REAL_KERNEL_RTOL * np.abs(kernel).sum())
        # wrap-around lands outside the central window; the kernel must fit.
        # Real transforms get a 5-smooth length: pocketfft's real FFTs take
        # any factor 7 through their slow generic radix.
        size = sfft.next_fast_len(max(n + k - 1 - self.crop, k), real=self.real)
        self.shape = (size, size)
        self.scale = 1.0 / (size * size)  # the inverse's 1/L^2
        # the kernel's spectrum by the same pruned passes: the first covers
        # only the k rows (columns, for fft2's axis-0 pass) that hold the kernel
        if self.real:
            rows = sfft.rfft(kernel.real, size, axis=1)
            self.kernel_hat = sfft.fft(rows, size, axis=0)
        else:
            cols = sfft.fft(kernel, size, axis=0)
            self.kernel_hat = sfft.fft(cols, size, axis=1)
        self._adjoint_hat = None
        self._window = None  # the adjoint's input rows (real) or columns
        self._lattice = None  # their first pass, zero off the window

    def spectrum(self, u: np.ndarray) -> np.ndarray:
        """The transform of an n x n grid on the lattice: half of it (rfft
        layout) for a real kernel, all of it for a complex one."""
        size = self.shape[0]
        if self.real:
            rows = sfft.rfft(u, size, axis=1)  # the n rows that hold input
            return sfft.fft(rows, size, axis=0, overwrite_x=True)
        return sfft.fft2(u, self.shape)

    def image(self, u_hat: np.ndarray) -> np.ndarray:
        """forward from the grid's spectrum, which stays unchanged."""
        return self._inverse(u_hat * self.kernel_hat, self.crop)

    def forward(self, u: np.ndarray) -> np.ndarray:
        """Linear convolution of an n x n grid, cropped to the central window."""
        u_hat = self.spectrum(u)
        u_hat *= self.kernel_hat
        return self._inverse(u_hat, self.crop)

    def adjoint(self, x: np.ndarray) -> np.ndarray:
        """Re{H^* x}, the exact adjoint of forward on real grids: embed at
        the crop offset, multiply by the conjugate spectrum, crop at the
        origin. A real kernel correlates Re x only, since
        Re{H^* x} = H^T Re x."""
        s, n, size = self.crop, self.n, self.shape[0]
        if self._adjoint_hat is None:
            self._adjoint_hat = np.conj(self.kernel_hat)
            self._lattice = np.zeros(self.kernel_hat.shape, dtype=complex)
            self._window = np.zeros((n, size) if self.real else (size, n),
                                    dtype=float if self.real else complex)
        if self.real:
            self._window[:, s:s + n] = x.real
            self._lattice[s:s + n] = sfft.rfft(self._window, axis=1)
            y_hat = sfft.fft(self._lattice, axis=0)
        else:
            self._window[s:s + n] = x
            self._lattice[:, s:s + n] = sfft.fft(self._window, axis=0)
            y_hat = sfft.fft(self._lattice, axis=1)
        y_hat *= self._adjoint_hat
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


def convolve(kernel: PsfKernel, u: np.ndarray) -> np.ndarray:
    """H * U: zero-padded linear 2-D convolution, central n x n window.
    The mask must be real."""
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise GridError(f"mask must be square, got shape {u.shape}")
    if np.iscomplexobj(u):
        raise GridError("mask must be real, got complex data")
    return kernel.op(u.shape[0]).forward(u)


# The bytes convolve_cached may hold. At the production setting (144² field,
# 196² complex lattice) one entry costs ~0.78 MB: the 614 KB spectrum plus
# the 166 KB mask copy, so this holds 21. A process-window sweep cycles
# through its masks once per focus setting, and an LRU smaller than that
# cycle (12 masks) never hits.
SPECTRUM_CACHE_BYTES = 16 * 2**20


class _SpectrumCache:
    """Least recently used mask spectra of complex-kernel operators, keyed
    by lattice, field size and the mask's sum, within a byte budget.

    A hit needs the mask bit for bit: the uint64 views are compared, since
    -0.0 == 0.0 under ==. Each entry holds a C-contiguous copy of its mask
    and the read-only spectrum transformed from that copy.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.nbytes = 0
        self._entries: OrderedDict = OrderedDict()  # key -> (mask, spectrum)

    def spectrum(self, op: _ConvOperator, u: np.ndarray) -> np.ndarray:
        """op.spectrum(u) for a float64 n x n mask, from the cache when it
        holds this mask."""
        key = (op.shape, op.n, float(u.sum()))
        entry = self._entries.get(key)
        if entry is not None:
            if np.array_equal(entry[0].view(np.uint64), u.view(np.uint64)):
                self._entries.move_to_end(key)
                return entry[1]
            self._evict(key)  # a different mask with the same sum
        mask = np.array(u, dtype=float, order="C")
        u_hat = op.spectrum(mask)
        u_hat.flags.writeable = False
        size = mask.nbytes + u_hat.nbytes
        if size <= self.budget:
            while self.nbytes + size > self.budget:
                self._evict(next(iter(self._entries)))
            self._entries[key] = (mask, u_hat)
            self.nbytes += size
        return u_hat

    def _evict(self, key) -> None:
        mask, u_hat = self._entries.pop(key)
        self.nbytes -= mask.nbytes + u_hat.nbytes


_SPECTRA = _SpectrumCache(SPECTRUM_CACHE_BYTES)


def convolve_cached(kernel: PsfKernel, u: np.ndarray) -> np.ndarray:
    """convolve(kernel, u) bit for bit, for a mask the caller has checked:
    a real float64 n x n grid. A complex kernel takes the mask's spectrum
    from a byte-bounded cache shared by every kernel on the same lattice,
    so a mask imaged at many focus settings is transformed once. A real
    kernel convolves as convolve does: its half spectrum would evict the
    complex ones of a focus sweep at every pass.
    """
    op = kernel.op(u.shape[0])
    if op.real:
        return op.forward(u)
    return op.image(_SPECTRA.spectrum(op, u))


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
