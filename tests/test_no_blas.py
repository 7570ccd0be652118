"""No output of the package depends on the BLAS thread count, and no BLAS
routine is called from its source.

A threaded BLAS product sums in an order that follows the thread count, and
after each call OpenBLAS's idle worker busy-spins on another core. The
package therefore sums with numpy's own loops. The first test checks the
outputs under 1 and 2 BLAS threads; it runs them in subprocesses, since the
thread count is fixed when numpy is first imported and patching np.dot
cannot see the @ operator. The second reads the source for BLAS calls, and
the third feeds that reader each form it must refuse.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# build_psf at 0 and +-50 nm (production kernel), then a short solve on a
# 32^2 field at 0 and 50 nm: one sha256 per line
DIGESTS = """
import hashlib
import numpy as np
from ilt_admm.optics import OpticsConfig, build_psf
from ilt_admm.solver import SolverConfig, admm_optimize

for d in (0.0, 50.0, -50.0):
    h = build_psf(OpticsConfig(defocus_nm=d)).samples
    print(hashlib.sha256(h.tobytes()).hexdigest())
target = np.zeros((32, 32))
target[8:24, 10:22] = 1.0
cfg = SolverConfig(outer_max_iters=2, bregman_max_iters=2, descent_max_iters=3)
for d in (0.0, 50.0):
    mask, records = admm_optimize(target, OpticsConfig(defocus_nm=d), cfg)
    print(hashlib.sha256(mask.tobytes() + repr(records).encode()).hexdigest())
"""


def digests(threads: int) -> list[str]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    out = subprocess.run([sys.executable, "-c", DIGESTS], env=env, check=True,
                         capture_output=True, text=True, timeout=300).stdout
    return out.split()


def test_outputs_do_not_depend_on_blas_threads():
    one = digests(1)
    assert len(one) == 5
    assert one == digests(2)


# numpy calls that run a BLAS routine (or may: einsum hands contractions to
# tensordot unless optimize=False)
BLAS_ATTRS = {"dot", "vdot", "matmul", "tensordot"}
NUMPY = {"np", "numpy"}


def blas_uses(tree: ast.AST) -> list[str]:
    """Each BLAS use in a module's syntax tree, as 'line: what'."""
    found = []
    for node in ast.walk(tree):
        line = getattr(node, "lineno", 0)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{line}: @")
        elif isinstance(node, ast.Attribute) and node.attr == "linalg":
            found.append(f"{line}: linalg")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
            module = getattr(node, "module", None) or ""
            if "linalg" in module or any("linalg" in n for n in names):
                found.append(f"{line}: linalg import")
            if module in NUMPY and (BLAS_ATTRS | {"inner"}) & set(names):
                found.append(f"{line}: numpy import of {names}")
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            on_numpy = isinstance(func, ast.Attribute) and getattr(func.value, "id", "") in NUMPY
            if name in BLAS_ATTRS or (name == "inner" and on_numpy):
                found.append(f"{line}: {name}")
            elif name == "einsum" and not any(
                    kw.arg == "optimize" and isinstance(kw.value, ast.Constant)
                    and kw.value.value is False for kw in node.keywords):
                found.append(f"{line}: einsum without optimize=False")
    return found


def test_source_calls_no_blas():
    modules = sorted((SRC / "ilt_admm").glob("*.py"))
    assert modules
    found = {path.name: blas_uses(ast.parse(path.read_text(), str(path)))
             for path in modules}
    assert not {name: uses for name, uses in found.items() if uses}


def test_blas_guard_sees_each_form():
    bad = {
        "x = a @ b": "@",
        "a @= b": "@",
        "np.dot(a, b)": "dot",
        "a.dot(b)": "dot",
        "np.vdot(a, b)": "vdot",
        "np.matmul(a, b)": "matmul",
        "np.inner(a, b)": "inner",
        "np.tensordot(a, b, 1)": "tensordot",
        "np.linalg.norm(a)": "linalg",
        "from scipy import linalg": "linalg import",
        "from numpy import dot": "numpy import",
        "np.einsum('ij,jk', a, b)": "einsum",
        "np.einsum('ij,jk', a, b, optimize=True)": "einsum",
    }
    for code, what in bad.items():
        uses = blas_uses(ast.parse(code))
        assert uses and what in uses[0], code
    good = ("inner(a, b)", "grids.inner(a, b)", "np.einsum('ij,jk', a, b, optimize=False)",
            "a * b", "np.sum(a * b)")
    for code in good:
        assert not blas_uses(ast.parse(code)), code
