"""File formats: 0/1 text grids and PGM (P2/P5) images in, PGM / text
grids out, CSV convergence history, and flat key=value config files."""

from __future__ import annotations

import csv
from pathlib import Path

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


def _read_pgm(path: Path) -> np.ndarray:
    """Read a P2 (ASCII) or P5 (binary) PGM into a float array of raw
    pixel values scaled by maxval into [0, 1]."""
    data = path.read_bytes()
    if data[:2] not in (b"P2", b"P5"):
        raise PatternFormatError(f"{path}: not a P2/P5 PGM file")
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


def load_pattern(path) -> np.ndarray:
    """Load a binary target pattern from a 0/1 text grid or a PGM file.

    A text token is accepted when its float value is exactly 0 or 1, so
    the "0.0"/"1.0" grids that save_grid writes in text mode read back.
    PGM pixels at or above half of maxval map to 1, the rest to 0.
    """
    path = Path(path)
    if not path.exists():
        raise PatternFormatError(f"{path}: no such file")
    head = path.read_bytes()[:2]
    if head in (b"P2", b"P5"):
        return (_read_pgm(path) >= 0.5).astype(float)
    rows = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        row = []
        for col, tok in enumerate(body.split(), start=1):
            try:
                value = float(tok)
            except ValueError:
                value = None
            if value not in (0.0, 1.0):
                raise PatternFormatError(
                    f"{path}: line {lineno}, token {col}: "
                    f"expected 0 or 1, got {tok!r}")
            row.append(value)
        rows.append(row)
    return _require_square(rows, path)


def load_mask(path) -> np.ndarray:
    """Load a continuous mask: PGM values rescale by maxval, text grids
    are parsed as raw floats."""
    path = Path(path)
    if not path.exists():
        raise PatternFormatError(f"{path}: no such file")
    head = path.read_bytes()[:2]
    if head in (b"P2", b"P5"):
        return _read_pgm(path)
    rows = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            rows.append([float(t) for t in body.split()])
        except ValueError as exc:
            raise PatternFormatError(
                f"{path}: line {lineno}: {exc}") from exc
    return _require_square(rows, path)


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


def read_history(path) -> list[dict]:
    """Parse a history CSV back into dicts (used by the tests)."""
    with Path(path).open() as fh:
        reader = csv.DictReader(fh)
        return [
            {
                "iter": int(row["iter"]),
                "lagrangian": float(row["lagrangian"]),
                "epe_error": float(row["epe_error"]),
                "primal_residual": float(row["primal_residual"]),
                "step_accepted": bool(int(row["step_accepted"])),
            }
            for row in reader
        ]


def load_config(path) -> dict[str, str]:
    """Flat key=value config file; '#' starts a comment, blank lines skipped."""
    out: dict[str, str] = {}
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
        key, value = body.split("=", 1)
        out[key.strip()] = value.strip()
    return out
