"""Shared pytest plumbing: collects the acceptance-criterion result lines
and prints them in a dedicated terminal section, where pytest's output
capture cannot swallow them; and the spectra fixture of the mask-spectrum
cache tests."""

import pytest

from ilt_admm import optics

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def spectra(monkeypatch):
    """An empty mask-spectrum cache in place of the process's one, and the
    list of the mask transforms _ConvOperator takes while it is in place
    (one shape per transform)."""
    cache = optics._SpectrumCache(optics.SPECTRUM_CACHE_BYTES)
    monkeypatch.setattr(optics, "_SPECTRA", cache)
    transforms = []
    spectrum = optics._ConvOperator.spectrum

    def counted(op, u):
        transforms.append(u.shape)
        return spectrum(op, u)

    monkeypatch.setattr(optics._ConvOperator, "spectrum", counted)
    return cache, transforms
