"""Shared test plumbing: the acceptance-criteria summary printer, a JSON
reader, a counting stand-in for scipy.fft and the coefficient-path
x-derivative that the record's own transform pair is checked against.

Acceptance tests register one PASS/FAIL line each; the lines are printed in
the terminal summary so they survive pytest's output capture.
"""

import importlib.util
import json
import os
import sys

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
    every complex transform logged as (name, shape, axes), the axis of a
    1-D transform in place of the axes."""

    def __init__(self, size):
        self.size, self.calls, self.log = size, 0, []

    def __getattr__(self, name):
        fn = getattr(scipy.fft, name)
        if name not in ("fft", "ifft", "fftn", "ifftn", "fft2", "ifft2"):
            return fn

        def counted(x, *args, **kwargs):
            self.calls += np.size(x) == self.size
            self.log.append((name, np.shape(x), kwargs.get("axes", kwargs.get("axis"))))
            return fn(x, *args, **kwargs)
        return counted


def coefficient_path_derivative(a, grid, i):
    """Oracle: -i d_i a as the density pass took it when it read the
    coefficients.  a holds samples on the grid, on a y column or on the x
    grid alone (rho); its coefficients are fftn over its long axes, divided
    by their size and times the (-1)^k phases, and the inverse transform of
    the coefficients times xi_i (-1)^k over the same axes, unnormalized,
    gives the derivative."""
    from nlslab.field import fft_workers
    x_only = a.ndim == grid.d
    phase, xi = grid.x_phase(), grid.xi_grids()[i]
    if x_only:
        phase, xi = phase[..., 0], xi[..., 0]
    axes = [k for k, m in enumerate(a.shape) if m > 1]
    c = scipy.fft.fftn(a, axes=axes, norm="forward", workers=fft_workers())
    c *= phase
    return scipy.fft.ifftn(c * (xi * phase), axes=axes, overwrite_x=True,
                           norm="forward", workers=fft_workers())


def perfbench_workloads():
    """perfbench/workloads.py, loaded as a module."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads_datum", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclass looks the module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return workloads
