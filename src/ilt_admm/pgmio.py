"""File formats: 0/1 text grids and PGM (P2/P5) images in, PGM / text
grids out, CSV convergence history, and flat key=value config files."""

from __future__ import annotations

import csv
import math
import re
from pathlib import Path
from typing import Callable

import numpy as np

HISTORY_HEADER = ["iter", "lagrangian", "epe_error", "primal_residual",
                  "step_accepted"]


class PatternFormatError(ValueError):
    """Raised for unreadable or malformed pattern/mask files."""


# magic, then width, height and maxval, each after whitespace or '#'
# comments that run to the end of their line, then the single whitespace
# before the pixels
_PGM_HEADER = re.compile(rb"P([25])" + rb"(?:\s|#[^\n]*\n)+(\d+)" * 3 + rb"\s")


def _parse_pgm(data: bytes, path: Path) -> np.ndarray:
    """Parse the bytes of a P2 (ASCII) or P5 (binary) PGM into a float
    array of raw pixel values scaled by maxval into [0, 1]."""
    header = _PGM_HEADER.match(data)
    if header is None:
        raise PatternFormatError(f"{path}: malformed PGM header")
    width, height, maxval = (int(t) for t in header.groups()[1:])
    pos = header.end()
    if width <= 0 or height <= 0:
        raise PatternFormatError(f"{path}: invalid PGM dimensions")
    if not 1 <= maxval <= 65535:
        raise PatternFormatError(f"{path}: PGM maxval {maxval} outside 1..65535")
    if header[1] == b"5":
        nbytes = width * height * (2 if maxval > 255 else 1)
        raw = data[pos:pos + nbytes]
        if len(raw) != nbytes:
            raise PatternFormatError(f"{path}: truncated PGM pixel data")
        dtype = ">u2" if maxval > 255 else "u1"
        pixels = np.frombuffer(raw, dtype=dtype).astype(float)
    else:
        # samples are decimal integers, as the header's tokens are
        tokens = data[pos:].split()
        for i, t in enumerate(tokens):
            if not t.isdigit():
                raise PatternFormatError(
                    f"{path}: pixel {i + 1}: expected 0..{maxval}, "
                    f"got {t.decode('latin-1')!r}")
        pixels = np.array([float(t) for t in tokens])
        if pixels.size != width * height:
            raise PatternFormatError(
                f"{path}: expected {width * height} pixels, got {pixels.size}")
    bad = pixels > maxval
    if bad.any():
        i = int(np.argmax(bad))
        raise PatternFormatError(f"{path}: pixel {i + 1}: expected 0..{maxval}, "
                                 f"got {float(pixels[i]):g}")
    return pixels.reshape(height, width) / maxval


def number(text: str, kind: type = float):
    """Every number the program reads from text, bar the PGM format's
    digit-only ones: ASCII only and no digit-group underscores, then
    Python's `float` or `int`, so `nan` and `inf` still parse."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"expected an ASCII number without '_', got {text!r}")
    return kind(text)


def integer(text: str) -> int:
    """An integer written as `number` reads it."""
    return number(text, int)


def _binary_token(tok: str) -> float:
    """A target pixel: a token whose `number` value is exactly 0 or 1."""
    try:
        value = number(tok)
    except ValueError:
        value = None
    if value not in (0.0, 1.0):
        raise ValueError(f"expected 0 or 1, got {tok!r}")
    return value


def _finite_token(tok: str) -> float:
    """A mask pixel: any finite `number`."""
    value = number(tok)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {tok!r}")
    return value


def _read(path, missing: str) -> tuple[Path, bytes]:
    """Path(path) and its bytes; a missing file is malformed: "<path>: <missing>"."""
    path = Path(path)
    if not path.exists():
        raise PatternFormatError(f"{path}: {missing}")
    return path, path.read_bytes()


def _lines(data: bytes, path: Path):
    """(number from 1, body) of each line of UTF-8 text whose body, the
    line cut at its first '#' and stripped, is not blank."""
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        raise PatternFormatError(f"{path}: not UTF-8 text: {exc.reason} "
                                 f"at byte {exc.start}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if body:
            yield lineno, body


def _parse_text(data: bytes, path: Path,
                token: Callable[[str], float]) -> np.ndarray:
    """Parse a whitespace-separated text grid, each token parsed by
    `token`, into a float array of equal-length rows."""
    rows = []
    for lineno, body in _lines(data, path):
        row = []
        for col, tok in enumerate(body.split(), start=1):
            try:
                row.append(token(tok))
            except ValueError as exc:
                raise PatternFormatError(
                    f"{path}: line {lineno}, token {col}: {exc}") from None
        if rows and len(row) != len(rows[0]):
            raise PatternFormatError(f"{path}: line {lineno} has {len(row)} "
                                     f"columns, expected {len(rows[0])}")
        rows.append(row)
    if not rows:
        raise PatternFormatError(f"{path}: empty grid")
    return np.asarray(rows, dtype=float)


def _read_grid(path, token: Callable[[str], float]) -> tuple[np.ndarray, bool]:
    """Read a square grid from a PGM file or a text grid whose tokens are
    parsed by `token`. Returns the grid and whether it came from a PGM."""
    path, data = _read(path, "no such file")
    pgm = data[:2] in (b"P2", b"P5")
    grid = _parse_pgm(data, path) if pgm else _parse_text(data, path, token)
    if grid.shape[0] != grid.shape[1]:
        raise PatternFormatError(
            f"{path}: non-square grid {grid.shape[0]}x{grid.shape[1]}")
    return grid, pgm


def load_pattern(path) -> np.ndarray:
    """Load a binary target pattern from a 0/1 text grid or a PGM file.

    A text token is accepted when its `number` value is exactly 0 or 1, so
    the "0.0"/"1.0" grids that save_grid writes in text mode read back.
    PGM pixels at or above half of maxval map to 1, the rest to 0.
    """
    grid, pgm = _read_grid(path, _binary_token)
    return (grid >= 0.5).astype(float) if pgm else grid


def load_mask(path) -> np.ndarray:
    """Load a continuous mask: PGM values rescale by maxval, text grid
    tokens are read by `number` and must be finite."""
    return _read_grid(path, _finite_token)[0]


def save_grid(grid: np.ndarray, path, mode: str = "binary",
              comment: str | None = None) -> None:
    """Write a grid to disk.

    mode "binary": PGM of {0, maxval} (values thresholded at 0.5);
    mode "continuous": PGM linearly rescaled from [min, max], scale noted
    in a PGM comment; mode "text": raw numbers, full precision.
    """
    grid = np.asarray(grid, dtype=float)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if mode == "text":
        with path.open("w") as fh:
            for row in grid:
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")
        return
    maxval = 255
    if mode == "binary":
        pixels = np.where(grid >= 0.5, maxval, 0).astype(np.uint8)
        note = comment or "binary grid, threshold 0.5"
    elif mode == "continuous":
        lo, hi = float(grid.min()), float(grid.max())
        span = hi - lo
        if span == 0.0:
            pixels = np.zeros_like(grid, dtype=np.uint8)
        else:
            pixels = np.round((grid - lo) / span * maxval).astype(np.uint8)
        note = f"linear scale: min={lo!r} max={hi!r}"
        if comment:
            note = comment + "; " + note
    else:
        raise ValueError(f"unknown save mode {mode!r}")
    h, w = grid.shape
    header = f"P2\n# {note}\n{w} {h}\n{maxval}\n"
    body = "\n".join(" ".join(str(int(v)) for v in row) for row in pixels)
    path.write_text(header + body + "\n")


def write_history(records: list, path) -> None:
    """CSV convergence log of solver.ConvergenceRecord objects, one row per
    outer iteration, full precision."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HISTORY_HEADER)
        for r in records:
            writer.writerow([r.iteration, repr(float(r.lagrangian)),
                             repr(float(r.epe_error)),
                             repr(float(r.primal_residual)),
                             int(r.step_accepted)])


def load_config(path) -> dict[str, str]:
    """Flat key=value config file; '#' starts a comment, blank lines skipped.
    A key set twice is malformed."""
    out: dict[str, str] = {}
    lines: dict[str, int] = {}
    path, data = _read(path, "no such config file")
    for lineno, body in _lines(data, path):
        if "=" not in body:
            raise PatternFormatError(
                f"{path}: line {lineno}: expected key=value, got {body!r}")
        key, value = (part.strip() for part in body.split("=", 1))
        if key in lines:
            raise PatternFormatError(f"{path}: line {lineno}: key {key!r} "
                                     f"already set on line {lines[key]}")
        lines[key] = lineno
        out[key] = value
    return out
