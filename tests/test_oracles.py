import ast
from pathlib import Path

import numpy as np
import pytest

from oracles import (bessel_j1, convolve_naive, fd_gradient, v_oracle,
                     v_oracle_min_batch)

RNG = np.random.default_rng(23)


def test_convolve_naive_impulse():
    kernel = RNG.normal(size=(3, 3))
    u = np.zeros((5, 5))
    u[2, 2] = 1.0
    got = convolve_naive(kernel, u)
    assert np.allclose(got[1:4, 1:4], kernel)
    got[1:4, 1:4] = 0.0
    assert np.allclose(got, 0.0)


def test_convolve_naive_rejects_large_inputs():
    with pytest.raises(ValueError):
        convolve_naive(np.ones((3, 3)), np.ones((64, 64)))


def test_v_oracle_trivial_match_keeps_w():
    # |w|^2 = 0.64 >= 0.3 prints 1, matching the target: cost 0 at v = w
    res = v_oracle(0.8 + 0.0j, 1.0, rho=10.0, tr=0.3)
    assert res.min_value == pytest.approx(0.0, abs=1e-12)
    assert abs(res.argmin - 0.8) < 1e-3


def test_v_oracle_ray_matches_full_2d_scan():
    for w, target in [(0.5 + 0.2j, 0.0), (0.2 - 0.1j, 1.0), (0.9, 0.0)]:
        ray = v_oracle(w, target, rho=10.0, tr=0.3)
        grid = v_oracle(w, target, rho=10.0, tr=0.3, full_2d=True)
        # the 2d lattice is coarse; costs agree to its resolution
        assert ray.min_value <= grid.min_value + 1e-8


def test_v_oracle_rejects_bad_rho():
    with pytest.raises(ValueError):
        v_oracle(1.0, 0.0, rho=0.0, tr=0.3)


def test_v_oracle_min_batch_agrees_with_scalar():
    w = RNG.normal(size=8) + 1j * RNG.normal(size=8)
    target = (RNG.random(8) < 0.5).astype(float)
    rho = np.full(8, 10.0)
    batch = v_oracle_min_batch(w, target, rho, tr=0.3)
    for i in range(8):
        single = v_oracle(w[i], target[i], 10.0, 0.3, points=20_000)
        assert batch[i] == pytest.approx(single.min_value, abs=1e-6)


def test_fd_gradient_quadratic():
    def f(u):
        return float(np.sum(u ** 2))

    u = RNG.random((3, 3))
    g = fd_gradient(f, u)
    assert np.allclose(g, 2.0 * u, atol=1e-6)


def test_fd_gradient_complex_modulus_squared():
    def f(v):
        return float(np.sum(np.abs(v) ** 2))

    v = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
    g = fd_gradient(f, v)
    assert np.allclose(g, 2.0 * v, atol=1e-6)


def test_fd_gradient_rejects_bad_step():
    with pytest.raises(ValueError):
        fd_gradient(lambda u: 0.0, np.zeros((2, 2)), h=0.0)


def test_bessel_j1_known_values():
    # J1(0) = 0; first zero near 3.8317; J1(1) from tables
    assert bessel_j1(0.0) == 0.0
    assert bessel_j1(1.0) == pytest.approx(0.4400505857, abs=1e-9)
    assert abs(bessel_j1(3.8317059702)) < 1e-9
    assert bessel_j1(-1.0) == pytest.approx(-0.4400505857, abs=1e-9)


def test_bessel_j1_rejects_large_argument():
    with pytest.raises(ValueError):
        bessel_j1(80.0)


def test_oracles_import_nothing_they_check():
    # the references stay independent of the package they check
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import"
            modules.add(node.module)
    assert modules <= {"__future__", "dataclasses", "typing", "numpy"}, modules
