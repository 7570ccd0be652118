"""File formats: 0/1 text grids and PGM (P2/P5) images in, PGM / text
grids out, CSV convergence history, and flat key=value config files."""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Callable

import numpy as np

from .solver import ConvergenceRecord

HISTORY_HEADER = ["iter", "lagrangian", "epe_error", "primal_residual",
                  "step_accepted"]


class PatternFormatError(ValueError):
    """Raised for unreadable or malformed pattern/mask files."""


def _require_square(rows: list[list[float]], path) -> np.ndarray:
    if not rows:
        raise PatternFormatError(f"{path}: empty grid")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise PatternFormatError(
                f"{path}: line {i + 1} has {len(row)} columns, expected {width}")
    a = np.asarray(rows, dtype=float)
    if a.shape[0] != a.shape[1]:
        raise PatternFormatError(
            f"{path}: non-square grid {a.shape[0]}x{a.shape[1]}")
    return a


def _parse_pgm(data: bytes, path: Path) -> np.ndarray:
    """Parse the bytes of a P2 (ASCII) or P5 (binary) PGM into a float
    array of raw pixel values scaled by maxval into [0, 1]."""
    magic = data[:2]
    # tokenize the header, skipping '#' comments
    tokens: list[bytes] = []
    pos = 2
    while len(tokens) < 3 and pos < len(data):
        ch = data[pos:pos + 1]
        if ch == b"#":
            pos = data.find(b"\n", pos)
            if pos < 0:
                raise PatternFormatError(f"{path}: unterminated comment")
            continue
        if ch.isspace():
            pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        tokens.append(data[start:pos])
    if len(tokens) < 3:
        raise PatternFormatError(f"{path}: truncated PGM header")
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise PatternFormatError(f"{path}: bad PGM header: {exc}") from exc
    if maxval <= 0 or width <= 0 or height <= 0:
        raise PatternFormatError(f"{path}: invalid PGM dimensions")
    if magic == b"P5":
        pos += 1  # single whitespace after maxval
        nbytes = width * height * (2 if maxval > 255 else 1)
        raw = data[pos:pos + nbytes]
        if len(raw) != nbytes:
            raise PatternFormatError(f"{path}: truncated PGM pixel data")
        dtype = ">u2" if maxval > 255 else "u1"
        pixels = np.frombuffer(raw, dtype=dtype).astype(float)
    else:
        try:
            pixels = np.array(
                [float(t) for t in data[pos:].split()], dtype=float)
        except ValueError as exc:
            raise PatternFormatError(f"{path}: bad P2 pixel token: {exc}") from exc
        if pixels.size != width * height:
            raise PatternFormatError(
                f"{path}: expected {width * height} pixels, got {pixels.size}")
    grid = pixels.reshape(height, width) / maxval
    if width != height:
        raise PatternFormatError(f"{path}: non-square grid {height}x{width}")
    return grid


def _binary_token(tok: str) -> float:
    """A target pixel: a token whose float value is exactly 0 or 1."""
    try:
        value = float(tok)
    except ValueError:
        value = None
    if value not in (0.0, 1.0):
        raise ValueError(f"expected 0 or 1, got {tok!r}")
    return value


def _read_grid(path, token: Callable[[str], float]) -> tuple[np.ndarray, bool]:
    """Read a square grid from a PGM file or a whitespace-separated text
    grid ('#' starts a comment), each text token parsed by `token`.
    Returns the grid and whether it came from a PGM."""
    path = Path(path)
    if not path.exists():
        raise PatternFormatError(f"{path}: no such file")
    data = path.read_bytes()
    if data[:2] in (b"P2", b"P5"):
        return _parse_pgm(data, path), True
    rows = []
    for lineno, line in enumerate(data.decode().splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        row = []
        for col, tok in enumerate(body.split(), start=1):
            try:
                row.append(token(tok))
            except ValueError as exc:
                raise PatternFormatError(
                    f"{path}: line {lineno}, token {col}: {exc}") from None
        rows.append(row)
    return _require_square(rows, path), False


def load_pattern(path) -> np.ndarray:
    """Load a binary target pattern from a 0/1 text grid or a PGM file.

    A text token is accepted when its float value is exactly 0 or 1, so
    the "0.0"/"1.0" grids that save_grid writes in text mode read back.
    PGM pixels at or above half of maxval map to 1, the rest to 0.
    """
    grid, pgm = _read_grid(path, _binary_token)
    return (grid >= 0.5).astype(float) if pgm else grid


def load_mask(path) -> np.ndarray:
    """Load a continuous mask: PGM values rescale by maxval, text grids
    are parsed as raw floats."""
    return _read_grid(path, float)[0]


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


def write_history(records: list[ConvergenceRecord], path) -> None:
    """CSV convergence log, one row per outer iteration, full precision."""
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
    path = Path(path)
    if not path.exists():
        raise PatternFormatError(f"{path}: no such config file")
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
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
