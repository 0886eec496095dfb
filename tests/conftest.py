"""Shared test plumbing: the acceptance-criteria summary printer, a JSON
reader and a counting stand-in for scipy.fft.

Acceptance tests register one PASS/FAIL line each; the lines are printed in
the terminal summary so they survive pytest's output capture.
"""

import json

import numpy as np
import scipy.fft

ACCEPTANCE_LINES = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


def load_json(path):
    """The JSON document at path, read through a closed file."""
    with open(path) as fh:
        return json.load(fh)


class _CountedFFT:
    """scipy.fft with each complex transform of a full grid counted, and
    every complex transform logged as (name, shape, axes)."""

    def __init__(self, size):
        self.size, self.calls, self.log = size, 0, []

    def __getattr__(self, name):
        fn = getattr(scipy.fft, name)
        if name not in ("fft", "ifft", "fftn", "ifftn", "fft2", "ifft2"):
            return fn

        def counted(x, *args, **kwargs):
            self.calls += np.size(x) == self.size
            self.log.append((name, np.shape(x), kwargs.get("axes")))
            return fn(x, *args, **kwargs)
        return counted
