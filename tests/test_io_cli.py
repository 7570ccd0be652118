import ast
import csv
import gc
import importlib
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ilt_admm import cli, optics
from ilt_admm.cli import _UsageError, build_parser, run_cli
from ilt_admm.metrics import evaluate
from ilt_admm.optics import OpticsConfig
from ilt_admm.pgmio import (PatternFormatError, load_config, load_mask,
                            load_pattern, save_grid, write_history)
from ilt_admm.solver import ConvergenceRecord

RNG = np.random.default_rng(41)
SRC = Path(__file__).resolve().parent.parent / "src"


def read_history(path) -> list[dict]:
    """The rows of a history CSV as strings, checking its five columns."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert reader.fieldnames == ["iter", "lagrangian", "epe_error",
                                 "primal_residual", "step_accepted"]
    return rows


# ---------------------------------------------------------------- file formats

def test_text_pattern_roundtrip(tmp_path):
    p = tmp_path / "t.txt"
    pattern = (RNG.random((6, 6)) < 0.5).astype(float)
    p.write_text("\n".join(" ".join(str(int(v)) for v in row)
                           for row in pattern))
    assert np.array_equal(load_pattern(p), pattern)


def test_text_pattern_diagnostics(tmp_path):
    p = tmp_path / "bad.txt"
    for bad in ("2", "0.5", "x"):
        p.write_text(f"0 1\n1 {bad}\n")
        with pytest.raises(PatternFormatError,
                           match=f"line 2, token 2: expected 0 or 1, got '{bad}'"):
            load_pattern(p)
    # a mask takes any finite value, also outside [0, 1]
    for bad in ("nan", "inf", "-inf"):
        p.write_text(f"0.5 0.25\n{bad} 1\n")
        with pytest.raises(PatternFormatError,
                           match=f"line 2, token 1: expected a finite number, "
                                 f"got '{bad}'"):
            load_mask(p)
    p.write_text("-0.5 1.5\n0 1\n")
    assert np.array_equal(load_mask(p), [[-0.5, 1.5], [0.0, 1.0]])
    p.write_text("0 1 0\n1 0 1\n")
    with pytest.raises(PatternFormatError, match="non-square"):
        load_pattern(p)
    # a ragged row is named by its line in the file
    p.write_text("# two rows\n0 1\n\n1\n")
    with pytest.raises(PatternFormatError, match="line 4 has 1 columns, expected 2"):
        load_pattern(p)
    with pytest.raises(PatternFormatError, match="no such file"):
        load_pattern(tmp_path / "missing.txt")
    # a UTF-16 byte-order mark is neither a PGM nor a UTF-8 text grid
    p.write_bytes(b"\xff\xfe0\x00")
    for load in (load_pattern, load_mask):
        with pytest.raises(PatternFormatError, match="bad.txt: not UTF-8 text"):
            load(p)


def test_text_pattern_reads_save_grid_text_output(tmp_path):
    p = tmp_path / "t.txt"
    pattern = np.zeros((16, 16))
    pattern[1:15, 2:6] = pattern[1:15, 10:14] = 1.0
    save_grid(pattern, p, mode="text")
    assert np.array_equal(load_pattern(p), pattern)


def test_pgm_binary_roundtrip(tmp_path):
    p = tmp_path / "g.pgm"
    pattern = (RNG.random((8, 8)) < 0.5).astype(float)
    save_grid(pattern, p, mode="binary")
    assert np.array_equal(load_pattern(p), pattern)


def test_p5_pgm_parsing(tmp_path):
    p = tmp_path / "b.pgm"
    pixels = np.array([[0, 255], [255, 0]], dtype=np.uint8)
    p.write_bytes(b"P5\n# comment\n2 2\n255\n" + pixels.tobytes())
    got = load_pattern(p)
    assert np.array_equal(got, [[0.0, 1.0], [1.0, 0.0]])


def test_pgm_half_maxval_convention(tmp_path):
    p = tmp_path / "h.pgm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes([127, 128, 0, 255]))
    got = load_pattern(p)
    # 128/255 passes the half-maxval cut, 127/255 does not
    assert np.array_equal(got, [[0.0, 1.0], [0.0, 1.0]])


def test_pgm_rejects_malformed(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P5\n2 2\n255\n\x00")
    with pytest.raises(PatternFormatError, match="truncated"):
        load_pattern(p)
    # a non-P2/P5 magic falls through to the text parser and fails there
    p.write_bytes(b"P7\n2 2\n255\n\x00\x00\x00\x00")
    with pytest.raises(PatternFormatError):
        load_pattern(p)
    p.write_bytes(b"P5\n2 3\n255\n" + bytes(6))
    with pytest.raises(PatternFormatError, match="non-square"):
        load_pattern(p)
    # P2 pixels outside [0, maxval] or non-finite
    for bad in (b"-300", b"999", b"nan", b"inf"):
        p.write_bytes(b"P2\n2 2\n255\n0 255\n" + bad + b" 0\n")
        for load in (load_pattern, load_mask):
            with pytest.raises(PatternFormatError,
                               match="bad.pgm: pixel 3: expected 0..255"):
                load(p)
    # a 16-bit sample above its maxval
    p.write_bytes(b"P5\n1 1\n1000\n\xff\xff")
    with pytest.raises(PatternFormatError, match="pixel 1: expected 0..1000"):
        load_mask(p)
    for maxval in (b"0", b"70000"):
        p.write_bytes(b"P5\n1 1\n" + maxval + b"\n" + bytes(4))
        with pytest.raises(PatternFormatError, match="maxval .* outside 1..65535"):
            load_mask(p)


def test_pgm_header_grammar(tmp_path):
    p = tmp_path / "h.pgm"
    pixels = bytes([0, 255, 255, 0])
    # a comment may follow the magic or any header token, and tab and CR
    # separate tokens as a space does
    for header in (b"P5# c\n2 2\n255\n", b"P5\n2#w\n2\n255\n",
                   b"P5\t2\r2\r\n255\r"):
        p.write_bytes(header + pixels)
        assert np.array_equal(load_pattern(p), [[0.0, 1.0], [1.0, 0.0]]), header
    for bad in (b"P5\n2 2 # open",          # unterminated comment
                b"P5\n2 2\n255",           # maxval at the end of the file
                b"P5\n2 2\n" + pixels,     # no maxval
                b"P5\n2 x\n255\n" + pixels,
                b"P52 2\n255\n" + pixels,  # width glued to the magic
                b"P5\n+2 2\n255\n" + pixels):
        p.write_bytes(bad)
        with pytest.raises(PatternFormatError, match="h.pgm: malformed PGM header"):
            load_pattern(p)


def test_pgm_p2_samples_are_decimal_integers(tmp_path, capsys):
    # Netpbm's plain samples are decimal integers, as its header tokens
    # are; any other number form is malformed, not scaled
    p = tmp_path / "s.pgm"
    target = str(small_target(tmp_path))
    for tok in (b"127.5", b"1e2", b"1_0", b"+5", b"-0", b"0x1", b"1.",
                b"\xd9\xa3"):  # the Arabic-Indic digit three
        p.write_bytes(b"P2\n1 1\n255\n" + tok + b"\n")
        for load in (load_pattern, load_mask):
            with pytest.raises(PatternFormatError,
                               match="s.pgm: pixel 1: expected 0..255"):
                load(p)
        assert run_cli(["evaluate", "--mask", str(p), "--target", target,
                        "--kernel-size", "20"]) == 2, tok
        assert str(p) in capsys.readouterr().err
    # leading zeros are still decimal
    p.write_bytes(b"P2\n1 1\n255\n0255\n")
    assert np.array_equal(load_mask(p), [[1.0]])


# a number the program reads itself is ASCII without digit-group
# underscores: float() alone reads 1_0 as 10 and the Arabic-Indic digits
# one, three and five as 1, 3 and 5
@pytest.mark.parametrize("load, bad", [
    (load_mask, "1_0"), (load_mask, "\u0663"),
    (load_pattern, "0_1"), (load_pattern, "\u0661")],
    ids=["mask-underscore", "mask-arabic3", "pattern-underscore",
         "pattern-arabic1"])
def test_text_grid_numbers_are_plain_ascii(tmp_path, load, bad):
    p = tmp_path / "g.txt"
    p.write_text(f"0 1\n{bad} 0\n", encoding="utf-8")
    with pytest.raises(PatternFormatError,
                       match=f"g.txt: line 2, token 1: .*'{bad}'"):
        load(p)


@pytest.mark.parametrize("bad", ["1_0", "\u0663"], ids=["underscore", "arabic3"])
def test_cli_evaluate_mask_numbers_are_plain_ascii(tmp_path, capsys, bad):
    mask = tmp_path / "m.txt"
    grid = [["0"] * 48 for _ in range(48)]
    grid[3][7] = bad
    mask.write_text("\n".join(" ".join(row) for row in grid) + "\n",
                    encoding="utf-8")
    assert run_cli(["evaluate", "--mask", str(mask), "--target",
                    str(small_target(tmp_path)), "--kernel-size", "20"]) == 2
    captured = capsys.readouterr()
    assert f"{mask}: line 4, token 8" in captured.err
    assert captured.out == ""


def test_text_grid_reads_every_form_save_grid_writes(tmp_path):
    p = tmp_path / "g.txt"
    grid = np.array([[1e-300, -0.0, 1e22], [2.5e-07, -1.0, 123456.789],
                     [0.0, 1.0, -3.4e+38]])
    save_grid(grid, p, mode="text")
    loaded = load_mask(p)
    assert np.array_equal(loaded, grid)
    assert np.array_equal(np.signbit(loaded), np.signbit(grid))
    save_grid((grid > 0).astype(float), p, mode="text")
    assert np.array_equal(load_pattern(p), grid > 0)


def test_mask_text_full_precision_roundtrip(tmp_path):
    p = tmp_path / "m.txt"
    mask = RNG.random((5, 5))
    save_grid(mask, p, mode="text")
    assert np.array_equal(load_mask(p), mask)


def test_continuous_pgm_writes_scale_comment(tmp_path):
    p = tmp_path / "c.pgm"
    save_grid(np.linspace(0, 1, 16).reshape(4, 4), p, mode="continuous")
    text = p.read_text()
    assert text.startswith("P2\n")
    assert "linear scale" in text
    with pytest.raises(ValueError):
        save_grid(np.zeros((2, 2)), p, mode="nope")


def test_history_roundtrip(tmp_path):
    p = tmp_path / "h.csv"
    records = [ConvergenceRecord(1, 10.5, 3.25, 0.125, True),
               ConvergenceRecord(2, 9.0, 2.0, 0.0625, False)]
    write_history(records, p)
    rows = read_history(p)
    assert rows[0]["iter"] == "1"
    assert float(rows[0]["lagrangian"]) == 10.5
    assert rows[1]["step_accepted"] == "0"
    header = p.read_text().splitlines()[0]
    assert header == "iter,lagrangian,epe_error,primal_residual,step_accepted"


def test_load_config(tmp_path):
    p = tmp_path / "cfg"
    p.write_text("rho = 5\n# full line comment\ngamma=30 # trailing\n\n")
    cfg = load_config(p)
    assert cfg == {"rho": "5", "gamma": "30"}
    p.write_text("no equals sign\n")
    with pytest.raises(PatternFormatError, match="key=value"):
        load_config(p)
    # a repeated key is malformed, not silently the last value
    p.write_text("rho = 5\ngamma=30\n\nrho=50\n")
    with pytest.raises(PatternFormatError,
                       match="line 4: key 'rho' already set on line 1"):
        load_config(p)
    assert run_cli(["psf", "--config", str(p),
                    "--output-dir", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    p.write_bytes(b"\xff\xferho=5\n")
    with pytest.raises(PatternFormatError, match="cfg: not UTF-8 text"):
        load_config(p)
    missing = tmp_path / "missing.cfg"
    with pytest.raises(PatternFormatError, match="no such config file"):
        load_config(missing)
    assert run_cli(["psf", "--config", str(missing),
                    "--output-dir", str(tmp_path / "m")]) == 2
    assert not (tmp_path / "m").exists()


# ------------------------------------------------------------------------- cli

def small_target(tmp_path):
    p = tmp_path / "target.pgm"
    # two 10-pixel-wide bars, a scaled-down ten_rectangles
    pattern = np.zeros((48, 48))
    pattern[2:46, 7:17] = pattern[2:46, 31:41] = 1.0
    save_grid(pattern, p, mode="binary")
    return p


def test_cli_usage_error_exit_code(tmp_path):
    assert run_cli(["optimize"]) == 1
    assert run_cli(["sweep", "--target", "x"]) == 1  # no sweep lists
    # options a subcommand does not read are not declared on it
    target = str(small_target(tmp_path))
    for argv in (["evaluate", "--mask", target, "--target", target, "--rho", "5"],
                 ["psf", "--seed", "1"],
                 ["simulate", "--mask", target, "--seed", "1"],
                 ["evaluate", "--mask", target, "--target", target, "--seed", "1"],
                 # the Bregman and outer stop tolerances are not settings
                 ["optimize", "--target", target, "--outer-tol", "0"],
                 ["optimize", "--target", target, "--bregman-tol", "1e-3"],
                 ["sweep", "--target", target, "--rho", "5", "--outer-tol", "0"],
                 ["sweep", "--target", target, "--rho", "5",
                  "--bregman-tol", "1e-3"]):
        assert run_cli(argv + ["--output-dir", str(tmp_path / "o")]) == 1, argv
    assert not (tmp_path / "o").exists()
    assert run_cli(["derive"]) == 1  # no such subcommand


def test_cli_missing_file_exit_code(tmp_path):
    assert run_cli(["evaluate", "--mask", str(tmp_path / "nope"),
                    "--target", "ten_rectangles"]) == 2


def test_cli_simulate_bad_target_writes_nothing(tmp_path):
    mask = str(small_target(tmp_path))
    small = tmp_path / "small.txt"
    save_grid(np.zeros((40, 40)), small, mode="text")
    for target in (tmp_path / "missing.txt", small):
        out = tmp_path / "sim"
        assert run_cli(["simulate", "--mask", mask, "--target", str(target),
                        "--kernel-size", "20", "--output-dir", str(out)]) == 2
        assert not out.exists()


def test_cli_non_finite_mask_exit_code(tmp_path, capsys):
    mask = tmp_path / "m.txt"
    grid = [["0"] * 48 for _ in range(48)]
    grid[5] = ["nan"] * 48
    mask.write_text("\n".join(" ".join(row) for row in grid) + "\n")
    assert run_cli(["evaluate", "--mask", str(mask), "--target",
                    str(small_target(tmp_path)), "--kernel-size", "20"]) == 2
    assert str(mask) in capsys.readouterr().err


def test_cli_allocation_failure_is_runtime_error(tmp_path, monkeypatch, capsys):
    # a setting whose arrays do not fit in memory (psf --pixel-size 1e5 asks
    # numpy for tens of TiB) is a runtime error, not a usage error or a
    # traceback; the stand-in raises before anything is allocated
    def no_memory(cfg):
        raise MemoryError("Unable to allocate 57.8 TiB")

    monkeypatch.setattr(cli, "build_psf", no_memory)
    assert run_cli(["psf", "--output-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not (tmp_path / "o").exists()


def test_cli_psf(tmp_path, capsys):
    assert run_cli(["psf", "--kernel-size", "20",
                    "--output-dir", str(tmp_path)]) == 0
    assert (tmp_path / "psf_real.txt").exists()
    assert (tmp_path / "psf_magnitude.pgm").exists()
    assert "dc_gain=1.0" in capsys.readouterr().out


def test_cli_optimize_outputs_and_determinism(tmp_path):
    # optimize writes one binary mask, as the 0/1 values of mask.txt and as
    # mask.pgm, and one print of it; two runs write the same bytes
    target = small_target(tmp_path)
    args = ["optimize", "--target", str(target), "--kernel-size", "30",
            "--outer-iters", "2", "--quiet"]
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert run_cli(args + ["--output-dir", str(out1)]) == 0
    assert run_cli(args + ["--output-dir", str(out2)]) == 0
    names = ["epe.pgm", "history.csv", "mask.pgm", "mask.txt", "wafer.pgm"]
    assert sorted(p.name for p in out1.iterdir()) == names
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert np.array_equal(load_mask(out1 / "mask.txt"),
                          load_pattern(out1 / "mask.pgm"))


def test_cli_optimize_prints_the_epe_of_each_mask_file(tmp_path, capsys):
    # the one printed optimized epe_error is the print of mask.txt and of
    # mask.pgm alike
    target = small_target(tmp_path)
    out = tmp_path / "opt"
    assert run_cli(["optimize", "--target", str(target), "--kernel-size", "30",
                    "--outer-iters", "2", "--quiet",
                    "--output-dir", str(out)]) == 0
    summary = capsys.readouterr().out.splitlines()[0]
    printed = dict(item.split(" epe_error=") for item in summary.split(", "))
    assert printed.keys() == {"baseline", "optimized"}
    oc, pattern = OpticsConfig(kernel_size=30), load_pattern(target)
    for mask in (load_mask(out / "mask.txt"), load_pattern(out / "mask.pgm")):
        assert float(printed["optimized"]) == evaluate(mask, pattern, oc).error


def test_cli_optimize_writes_the_print_of_each_mask_file(tmp_path, capsys):
    # wafer.pgm and epe.pgm are the print of mask.txt and of mask.pgm, whose
    # mismatch count is the printed optimized epe_error squared
    target = small_target(tmp_path)
    out = tmp_path / "opt"
    assert run_cli(["optimize", "--target", str(target), "--kernel-size", "30",
                    "--outer-iters", "2", "--quiet",
                    "--output-dir", str(out)]) == 0
    summary = capsys.readouterr().out.splitlines()[0]
    printed = dict(item.split(" epe_error=") for item in summary.split(", "))
    oc, pattern = OpticsConfig(kernel_size=30), load_pattern(target)
    wafer = load_pattern(out / "wafer.pgm")
    epe = load_pattern(out / "epe.pgm")
    for mask in (load_mask(out / "mask.txt"), load_pattern(out / "mask.pgm")):
        report = evaluate(mask, pattern, oc)
        assert np.array_equal(epe, report.epe)
        assert np.array_equal(wafer, np.abs(pattern - report.epe))
    count = int(np.count_nonzero(epe))
    assert count == report.nonzero_epe_pixels
    # the printed error is sqrt(count) exactly, so its square is the count
    assert float(printed["optimized"]) == math.sqrt(count)


def test_cli_evaluate_matches_simulate(tmp_path, capsys):
    target = small_target(tmp_path)
    assert run_cli(["evaluate", "--mask", str(target), "--target", str(target),
                    "--kernel-size", "30"]) == 0
    eval_out = capsys.readouterr().out
    assert run_cli(["simulate", "--mask", str(target), "--target", str(target),
                    "--kernel-size", "30",
                    "--output-dir", str(tmp_path / "sim")]) == 0
    sim_out = capsys.readouterr().out
    line = eval_out.splitlines()[0]
    assert line in sim_out
    assert (tmp_path / "sim" / "aerial.pgm").exists()


def test_cli_config_file_and_flag_precedence(tmp_path, capsys):
    target = small_target(tmp_path)
    cfg = tmp_path / "cfg"
    cfg.write_text("kernel_size=30\nouter_max_iters=1\nrho=5\n")
    # flag overrides the config file's outer_max_iters
    assert run_cli(["optimize", "--target", str(target), "--config", str(cfg),
                    "--outer-iters", "2", "--quiet",
                    "--output-dir", str(tmp_path / "o")]) == 0
    rows = read_history(tmp_path / "o" / "history.csv")
    assert len(rows) == 2


def test_cli_config_rejects_unknown_key(tmp_path, capsys):
    target = small_target(tmp_path)
    cfg = tmp_path / "cfg"
    # a typo, a solver constant that is not a setting, and the Bregman and
    # outer stop tolerances, which are not settings either
    for key in ("rh0=50", "armijo_alpha=0.2", "outer_tol=0", "bregman_tol=1e-3"):
        cfg.write_text(f"kernel_size=30\n{key}\n")
        assert run_cli(["optimize", "--target", str(target), "--config", str(cfg),
                        "--outer-iters", "1", "--quiet",
                        "--output-dir", str(tmp_path / "o")]) == 1
        assert key.split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def test_cli_config_rejects_malformed_value(tmp_path, capsys):
    target = small_target(tmp_path)
    cfg = tmp_path / "cfg"
    for line in ("rho=abc", "kernel_size=2.5"):
        cfg.write_text(line + "\n")
        assert run_cli(["optimize", "--target", str(target), "--config", str(cfg),
                        "--quiet", "--output-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert str(cfg) in err and line.split("=")[0] in err
        assert not (tmp_path / "o").exists()


def test_cli_out_of_range_setting_is_usage_error(tmp_path, capsys):
    target = str(small_target(tmp_path))
    out = str(tmp_path / "o")
    cfg = tmp_path / "cfg"
    cfg.write_text("threshold=1.5\n")
    # the sigmoid steepness is no setting: as a flag or a config key it is
    # rejected by name, like any other unknown setting
    steep = tmp_path / "steep"
    steep.write_text("sigmoid_steepness = 20\n")
    for argv, named in (
            (["optimize", "--target", target, "--kernel-size", "20",
              "--steepness", "20", "--quiet"], "--steepness"),
            (["optimize", "--target", target, "--kernel-size", "20",
              "--config", str(steep), "--quiet"], "sigmoid_steepness"),
            (["optimize", "--target", target, "--kernel-size", "20",
              "--outer-iters", "0", "--quiet"], "outer_max_iters"),
            (["sweep", "--target", target, "--kernel-size", "20", "--rho", "5",
              "--outer-iters", "0"], "outer_max_iters"),
            (["optimize", "--target", target, "--kernel-size", "20",
              "--bregman-iters", "-1", "--quiet"], "bregman_max_iters"),
            (["optimize", "--target", target, "--kernel-size", "20",
              "--descent-iters", "-3", "--quiet"], "descent_max_iters"),
            (["psf", "--na", "1.5"], "numerical aperture"),
            (["simulate", "--mask", target, "--config", str(cfg)], "threshold"),
            *((["optimize", "--target", target, "--kernel-size", "20",
                "--outer-iters", "1", flag, value, "--quiet"], named)
              for flag, value, named in (
                  ("--beta1", "nan", "beta1"), ("--beta2", "inf", "beta2"),
                  ("--gamma", "inf", "gamma"),
                  ("--rho", "nan", "rho"),
                  ("--pixel-size", "nan", "pixel_size_nm"),
                  ("--wavelength", "inf", "wavelength_nm"),
                  ("--defocus", "nan", "defocus_nm"))),
            (["sweep", "--target", target, "--kernel-size", "20",
              "--rho", "5,nan", "--outer-iters", "1"], "rho")):
        assert run_cli(argv + ["--output-dir", out]) == 1, argv
        captured = capsys.readouterr()
        assert named in captured.err
        assert captured.out == ""
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("line", ["kernel_size=2_0", "rho=\u0661"],
                         ids=["kernel_size-underscore", "rho-arabic1"])
def test_cli_config_numbers_are_plain_ascii(tmp_path, capsys, line):
    cfg = tmp_path / "cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    out = tmp_path / "o"
    assert run_cli(["optimize", "--target", str(small_target(tmp_path)),
                    "--config", str(cfg), "--outer-iters", "1", "--quiet",
                    "--output-dir", str(out)]) == 1
    captured = capsys.readouterr()
    assert f"{cfg}: {line.split('=')[0]}:" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["psf", "--kernel-size", "2_0"],
    ["optimize", "--rho", "\u0665", "--quiet"],
    ["sweep", "--rho", "1_0,5"],
    ["sweep", "--kernel-noise", "1_0e-3"],
    ["sweep", "--rho", "5", "--seed", "1_0"]],
    ids=["psf-kernel-size", "optimize-rho", "sweep-rho", "sweep-kernel-noise",
         "sweep-seed"])
def test_cli_flag_numbers_are_plain_ascii(tmp_path, capsys, argv):
    # a small budget, so a run that wrongly parses stays short
    if argv[0] != "psf":
        argv = argv + ["--target", str(small_target(tmp_path)),
                       "--kernel-size", "20", "--outer-iters", "1",
                       "--bregman-iters", "1", "--descent-iters", "1"]
    out = tmp_path / "o"
    assert run_cli(argv + ["--output-dir", str(out)]) == 1
    captured = capsys.readouterr()
    assert "usage error" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_readme_commands_parse():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = readme.split("```")[1::2]
    commands = [line for block in blocks for line in block.splitlines()
                if line.startswith("ilt-admm ")]
    assert len(commands) >= 6
    parser = build_parser()
    for line in commands:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except _UsageError as exc:
            pytest.fail(f"{line!r}: {exc}")


def test_console_script_names_the_cli_entry_point():
    # pyproject.toml's [project.scripts] installs the ilt-admm command; it
    # must name cli.main, read here from the file, so no install is needed
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(SRC.parent / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["ilt-admm"] == "ilt_admm.cli:main"
    module, _, name = scripts["ilt-admm"].partition(":")
    entry = importlib.import_module(module)
    for part in name.split("."):
        entry = getattr(entry, part)
    assert callable(entry) and entry is cli.main


def test_readme_states_no_timings():
    # measurements live in CHANGES.md and the BENCH_*.json files
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    assert re.search(r"\d ?(µs|ms)\b", readme) is None


def test_docs_name_real_package_attributes():
    # README.md and the package's docstrings point at rules by name, such as
    # grids.working_precision; each such name must exist in its module
    modules = ("grids", "optics", "solver", "metrics", "regularization",
               "pgmio", "targets", "cli")
    ref = re.compile(r"\b(%s)((?:\.[A-Za-z_]\w*)+)" % "|".join(modules))
    texts = [(SRC.parent / "README.md").read_text()]
    for path in sorted((SRC / "ilt_admm").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                texts.append(ast.get_docstring(node) or "")
    refs = [(m[1], m[2][1:]) for text in texts for m in ref.finditer(text)
            if m[2] != ".py"]  # a file name such as cli.py
    assert len(refs) >= 20
    for module, name in refs:
        obj = importlib.import_module(f"ilt_admm.{module}")
        for part in name.split("."):
            assert hasattr(obj, part), f"{module}.{name}"
            obj = getattr(obj, part)


def test_cli_sweep(tmp_path):
    target = small_target(tmp_path)
    out = tmp_path / "sw"
    assert run_cli(["sweep", "--target", str(target), "--kernel-size", "30",
                    "--outer-iters", "1", "--bregman-iters", "2",
                    "--descent-iters", "3", "--rho", "5,10",
                    "--kernel-noise", "1e-3",
                    "--output-dir", str(out)]) == 0
    files = sorted(f.name for f in out.iterdir())
    assert files == ["history_kernel_noise_0p001.csv", "history_rho_10.csv",
                     "history_rho_5.csv"]
    assert len(read_history(out / "history_rho_5.csv")) == 1


def test_cli_sweep_keeps_one_kernels_operators(tmp_path, monkeypatch):
    # sweep keeps every noisy kernel until it ends, and each solve builds
    # one operator of its kernel: after every cell only that one is alive
    target = small_target(tmp_path)
    live = []
    solve = cli.admm_optimize

    def counting(*args, **kwargs):
        result = solve(*args, **kwargs)
        gc.collect()
        live.append(sum(isinstance(o, optics._ConvOperator) for o in gc.get_objects()))
        return result

    monkeypatch.setattr(cli, "admm_optimize", counting)
    levels = ["0", "1e-4", "2e-4", "5e-4", "1e-3", "2e-3"]
    assert run_cli(["sweep", "--target", str(target), "--kernel-size", "20",
                    "--outer-iters", "1", "--bregman-iters", "1",
                    "--descent-iters", "2", "--kernel-noise", ",".join(levels),
                    "--output-dir", str(tmp_path / "sw")]) == 0
    assert len(live) == len(levels)
    assert max(live) <= 1, live


def test_cli_simulate_images_mask_once(tmp_path, monkeypatch):
    target = small_target(tmp_path)
    calls = []
    forward = optics._ConvOperator.forward

    def counting(self, u):
        calls.append(u.shape)
        return forward(self, u)

    monkeypatch.setattr(optics._ConvOperator, "forward", counting)
    assert run_cli(["simulate", "--mask", str(target), "--target", str(target),
                    "--kernel-size", "20",
                    "--output-dir", str(tmp_path / "sim")]) == 0
    assert len(calls) == 1


def check_sweep_cell_matches_optimize(tmp_path, lists, files, cell, cell_file):
    # sweep writes one history per cell of its lists' product grid, and the
    # cell_file of the cell whose flags are cell equals, byte for byte, the
    # history.csv of optimize with those flags
    target = small_target(tmp_path)
    budget = ["--kernel-size", "30", "--outer-iters", "1",
              "--bregman-iters", "1", "--descent-iters", "2"]
    out = tmp_path / "sw"
    assert run_cli(["sweep", "--target", str(target), *lists,
                    "--output-dir", str(out)] + budget) == 0
    assert sorted(f.name for f in out.iterdir()) == files
    opt = tmp_path / "opt"
    assert run_cli(["optimize", "--target", str(target), *cell, "--quiet",
                    "--output-dir", str(opt)] + budget) == 0
    assert (out / cell_file).read_bytes() == (opt / "history.csv").read_bytes()


def test_cli_sweep_product_grid_matches_optimize(tmp_path):
    check_sweep_cell_matches_optimize(
        tmp_path, ["--rho", "5,10", "--gamma", "20,40"],
        ["history_rho_10_gamma_20.csv", "history_rho_10_gamma_40.csv",
         "history_rho_5_gamma_20.csv", "history_rho_5_gamma_40.csv"],
        ["--rho", "5", "--gamma", "20"], "history_rho_5_gamma_20.csv")


def test_cli_sweep_beta_lists_match_optimize(tmp_path):
    check_sweep_cell_matches_optimize(
        tmp_path, ["--beta1", "0.01,0.02", "--beta2", "0.015,0.03"],
        ["history_beta1_0p01_beta2_0p015.csv", "history_beta1_0p01_beta2_0p03.csv",
         "history_beta1_0p02_beta2_0p015.csv", "history_beta1_0p02_beta2_0p03.csv"],
        ["--beta1", "0.02", "--beta2", "0.03"], "history_beta1_0p02_beta2_0p03.csv")


def test_cli_sweep_malformed_list_is_usage_error(tmp_path, capsys):
    # "0,5" parses, but its rho=0 cell is out of range: every cell is
    # checked before the baseline is imaged or the directory made; an
    # empty item is a missing value, not one to skip; a repeated value,
    # also one repeated only in its :g form, would write the same history
    # file twice; a noise level must be finite and >= 0; the noise seed
    # must be one numpy accepts
    for flags, named in (
            (["--rho=,"], "--rho"), (["--rho=a,b"], "--rho"),
            (["--rho=5,,10"], "--rho"), (["--rho=5,"], "--rho"),
            (["--rho=0,5"], "rho"), (["--rho=5,5"], "--rho"),
            (["--rho=5,5.0000001"], "--rho"),
            (["--kernel-noise=,1e-3"], "--kernel-noise"),
            (["--kernel-noise=nan"], "--kernel-noise"),
            (["--kernel-noise=inf"], "--kernel-noise"),
            (["--kernel-noise=-1e-3"], "--kernel-noise"),
            (["--kernel-noise=0.1", "--seed=-1"], "--seed")):
        assert run_cli(["sweep", "--target", "ten_rectangles", *flags,
                        "--output-dir", str(tmp_path / "sw")]) == 1
        captured = capsys.readouterr()
        assert named in captured.err
        assert captured.out == ""
    assert not (tmp_path / "sw").exists()


# ------------------------------------------------------------ fresh interpreter

def run_python(args: list[str], cwd) -> subprocess.CompletedProcess:
    """`python <args>` in a fresh interpreter that imports the package
    from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_module_entry_point_exit_codes(tmp_path):
    def cli(*argv):
        return run_python(["-m", "ilt_admm.cli", *argv], tmp_path)

    out = tmp_path / "psf"
    done = cli("psf", "--kernel-size", "8", "--output-dir", str(out))
    assert (done.returncode, done.stderr) == (0, "")
    assert (out / "psf_real.txt").exists()
    done = cli("optimize")  # no --target
    assert done.returncode == 1
    assert done.stderr.startswith("usage error: ")
    done = cli("evaluate", "--mask", str(tmp_path / "missing.pgm"),
               "--target", "ten_rectangles")
    assert done.returncode == 2
    assert done.stderr == f"error: {tmp_path / 'missing.pgm'}: no such file\n"


def test_pgmio_imports_nothing_from_the_package(tmp_path):
    code = ("import sys, ilt_admm.pgmio; print(sorted("
            "m for m in sys.modules if m.split('.')[0] == 'ilt_admm'))")
    done = run_python(["-c", code], tmp_path)
    assert done.returncode == 0, done.stderr
    assert ast.literal_eval(done.stdout) == ["ilt_admm", "ilt_admm.pgmio"]
