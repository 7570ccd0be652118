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
def spectra():
    """The mask-spectrum LRU, empty at the start of the test and emptied
    again at its end; tests read its cache_info()."""
    optics._mask_spectrum.cache_clear()
    yield optics._mask_spectrum
    optics._mask_spectrum.cache_clear()
