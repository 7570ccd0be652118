"""Bundled target-pattern generators: two bars, strips, and a mixed
layout. These reproduce the experiment families as code: each feature's
size in pixels is fixed, and only its place moves with the field size n.
They are approximations of the published figures, not pixel-exact copies.

At n = 144, feature pitches are kept above the coherent resolution limit
of the production optics (lambda/NA = 227nm, about 45 pixels at 5nm), so
every bundled pattern is printable: separations below that pitch cannot be
resolved by any mask, since the corresponding spatial frequencies fall
outside the pupil.
"""

from __future__ import annotations

import numpy as np


def _paint(n: int, boxes: list[tuple[int, int, int, int]]) -> np.ndarray:
    """An n x n field, 1.0 on each box (i0, i1, j0, j1) = rows i0:i1,
    columns j0:j1, and 0.0 elsewhere.

    Raises ValueError unless every box is non-empty and inside the field,
    and every two boxes have a free row or column between them, so the
    pattern has one feature per box at any n it accepts.
    """
    for i0, i1, j0, j1 in boxes:
        if not (0 <= i0 < i1 <= n and 0 <= j0 < j1 <= n):
            raise ValueError(f"the pattern does not fit a {n} x {n} field")
    for a, (i0, i1, j0, j1) in enumerate(boxes):
        for k0, k1, l0, l1 in boxes[a + 1:]:
            if not (i1 < k0 or k1 < i0 or j1 < l0 or l1 < j0):
                raise ValueError(f"the pattern's features touch in a {n} x {n} field")
    out = np.zeros((n, n))
    for i0, i1, j0, j1 in boxes:
        out[i0:i1, j0:j1] = 1.0
    return out


def ten_rectangles(n: int = 144) -> np.ndarray:
    """The ten-rectangle target: two columns of five vertically abutting
    20-pixel-wide rectangles, which form two bars 2 pixels short of the
    field's top and bottom edges. The smallest field is n = 42.

    The columns sit half a field apart (resolvable); the rectangles within
    a column share edges, so the union prints as a continuous bar whose
    width bias and line-end rounding are what optimization corrects.
    """
    width, margin = 20, 2
    return _paint(n, [(margin, n - margin, cj - width // 2, cj + width // 2)
                      for cj in (int(0.25 * n), int(0.75 * n))])


def strips(n: int = 144) -> np.ndarray:
    """Three long vertical strips, 16 pixels wide, centered in thirds of
    the field and 16 pixels short of its top and bottom edges. The
    smallest field is n = 51."""
    width, margin = 16, 16
    return _paint(n, [(margin, n - margin, cj - width // 2, cj + width // 2)
                      for cj in (int((c + 0.5) * n / 3) for c in range(3))])


def mixed(n: int = 144) -> np.ndarray:
    """Two 32-pixel squares on the left half, one 20-pixel-wide strip,
    8 pixels short of the field's top and bottom edges, on the right half.
    The smallest field is n = 66."""
    s, cj, j0 = 32, n // 4, 3 * n // 4 - 10
    squares = [(ci - s // 2, ci + s // 2, cj - s // 2, cj + s // 2)
               for ci in (int(0.25 * n), int(0.75 * n))]
    return _paint(n, squares + [(8, n - 8, j0, j0 + 20)])


GENERATORS = {
    "ten_rectangles": ten_rectangles,
    "strips": strips,
    "mixed": mixed,
}
