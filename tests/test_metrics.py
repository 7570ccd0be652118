import numpy as np
import pytest

from ilt_admm.grids import GridError, l2_norm
from ilt_admm.metrics import (epe_error, epe_map, epe_report, evaluate,
                              mismatch_report)
from ilt_admm.optics import (OpticsConfig, aerial_image, build_psf, convolve,
                             image_threshold)
from ilt_admm.targets import ten_rectangles

RNG = np.random.default_rng(5)


def test_epe_map_counts_differing_pixels():
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    b = np.array([[1.0, 1.0], [0.0, 0.0]])
    m = epe_map(a, b)
    assert np.array_equal(m, [[0.0, 1.0], [0.0, 1.0]])
    assert epe_error(a, b) == pytest.approx(np.sqrt(2.0))
    # every EPE comes from the one report of the bool map a != b
    for report in (epe_report(a, b), mismatch_report(a != b)):
        assert report.epe.tobytes() == m.tobytes()
        assert report.nonzero_epe_pixels == 2
        assert report.error == epe_error(a, b) == l2_norm(m)


def test_epe_identical_patterns_is_zero():
    a = np.eye(5)
    assert epe_error(a, a) == 0.0


def test_epe_rejects_non_binary_input():
    with pytest.raises(GridError):
        epe_map(np.full((2, 2), 0.5), np.zeros((2, 2)))
    with pytest.raises(GridError):
        epe_map(np.zeros((2, 2)), np.zeros((3, 3)))
    with pytest.raises(GridError):
        epe_report(np.zeros((2, 2)), np.full((2, 2), 2.0))


def test_evaluate_reports_consistent_fields():
    cfg = OpticsConfig(kernel_size=40)
    target = np.pad(np.ones((30, 30)), 17)
    report = evaluate(target, target, cfg)
    assert report.error == pytest.approx(np.sqrt(report.nonzero_epe_pixels))
    assert report.epe.shape == target.shape
    assert set(np.unique(report.epe)) <= {0.0, 1.0}


def test_evaluate_accepts_prebuilt_kernel():
    cfg = OpticsConfig(kernel_size=40)
    kernel = build_psf(cfg)
    target = np.pad(np.ones((30, 30)), 17)
    a = evaluate(target, target, cfg)
    b = evaluate(target, target, cfg, kernel=kernel)
    assert a.error == b.error


def test_evaluate_empty_mask_prints_nothing():
    cfg = OpticsConfig(kernel_size=40)
    target = np.pad(np.ones((20, 20)), 22)
    report = evaluate(np.zeros_like(target), target, cfg)
    assert report.nonzero_epe_pixels == int(target.sum())


def test_evaluate_equals_the_validated_epe_chain():
    # evaluate checks only the target for binarity and counts the EPE map
    # directly; error, pixel count and map must be those of the validated
    # chain epe_map / l2_norm, bit for bit, on gray masks in and out of focus
    target = ten_rectangles(64)
    for defocus in (0.0, 50.0):
        cfg = OpticsConfig(kernel_size=20, defocus_nm=defocus)
        kernel = build_psf(cfg)
        for mask in (target, np.clip(target + 0.4 * RNG.normal(size=target.shape),
                                     0.0, 1.0)):
            printed = image_threshold(aerial_image(convolve(kernel, mask)),
                                      cfg.threshold)
            want = epe_map(printed, target)
            report = evaluate(mask, target, cfg, kernel=kernel)
            assert report.error == l2_norm(want)
            assert report.nonzero_epe_pixels == int(np.count_nonzero(want))
            assert np.array_equal(report.epe, want)
            assert report.epe.dtype == want.dtype


def test_evaluate_rejects_bad_grids():
    cfg = OpticsConfig(kernel_size=20)
    target = ten_rectangles(64)
    with pytest.raises(GridError, match="binary"):
        evaluate(target, np.full(target.shape, 0.5), cfg)
    with pytest.raises(GridError, match="dimension"):
        evaluate(target[:32, :32], target, cfg)
    # the imaginary part must not be dropped
    with pytest.raises(GridError, match="real"):
        evaluate(target + 0.5j, target, cfg)
    # one non-finite pixel must not read as a mask that prints nothing
    for bad in (np.nan, np.inf, -np.inf):
        mask = target.copy()
        mask[10, 10] = bad
        with pytest.raises(GridError, match="non-finite"):
            evaluate(mask, target, cfg)


def test_evaluate_reuses_mask_spectra_bit_for_bit(spectra):
    # a focus sweep's evaluate calls share one transform of each mask; cold
    # and warm, every report is the convolve chain's bit for bit
    target = ten_rectangles(144)
    gray = np.clip(target + 0.3 * RNG.normal(size=target.shape), 0.0, 1.0)
    for k in (100, 80):
        cfgs = [OpticsConfig(kernel_size=k, defocus_nm=d) for d in (0.0, 10.0, 50.0)]
        kernels = [build_psf(cfg) for cfg in cfgs]
        for mask in (target, gray):
            wants = [image_threshold(aerial_image(convolve(kernel, mask)),
                                     cfg.threshold) != target
                     for cfg, kernel in zip(cfgs, kernels)]
            before = spectra.cache_info()
            for _ in range(2):
                for cfg, kernel, want in zip(cfgs, kernels, wants):
                    report = evaluate(mask, target, cfg, kernel=kernel)
                    count = int(np.count_nonzero(want))
                    assert report.epe.tobytes() == want.astype(float).tobytes()
                    assert report.nonzero_epe_pixels == count
                    assert report.error == np.sqrt(count)
            # two complex kernels, two passes: one transform, three reuses
            after = spectra.cache_info()
            assert after.misses - before.misses == 1
            assert after.hits - before.hits == 3
