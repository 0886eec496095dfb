"""The three workloads: their configs, the seeded datum, and one timed round.

Each workload fixes a grid, physics and sampling cadence in its config.  The
seed only draws a small, smooth, low-mode perturbation of the workload's
Gaussian datum; the benchmark samples it, writes it in the snapshot file
format, and the program receives it as a ``"file"`` datum.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    gaussian: tuple          # (amplitude, width, y_modulation) of the datum
    via_run_preset: bool     # True: one round is one run_preset call

    @property
    def grid(self) -> dict:
        return self.config["grid"]

    def steps(self) -> int:
        c = self.config["control"]
        return int(round(c["t_end"] / c["dt"]))

    def emit_steps(self) -> list:
        """Steps at which evolve samples: every sample_every, and the last."""
        n, every = self.steps(), self.config["control"]["sample_every"]
        return sorted(set(range(0, n + 1, every)) | {n})


WORKLOADS = {w.name: w for w in (
    # decay preset grid and physics, sampled every 100 steps: the integrator
    # does most of the work
    Workload("decay-1d", {
        "preset": "decay",
        "grid": {"d": 1, "L": 200.0, "Nx": 4096, "Ny": 32},
        "physics": {"alpha": "5", "lam": 1},
        "control": {"dt": 1e-3, "t_end": 0.2, "sample_every": 100},
    }, (1.0, 0.65, 0.0), False),
    # d=2 with a y-varying Gaussian, sampled every other step: Morawetz
    # diagnostics dominate
    Workload("morawetz-2d", {
        "preset": "morawetz",
        "grid": {"d": 2, "L": 64.0, "Nx": 256, "Ny": 16},
        "physics": {"alpha": "3", "lam": 1},
        "control": {"dt": 1e-3, "t_end": 0.004, "sample_every": 2},
    }, (1.0, 1.0, 0.3), False),
    # scattering preset grid, physics and datum, shortened to 41 samples;
    # run_preset keeps every snapshot and writes CSV, JSON and manifest
    Workload("scattering-1d", {
        "preset": "scattering",
        "grid": {"d": 1, "L": 1024.0, "Nx": 16384, "Ny": 16},
        "physics": {"alpha": "5", "lam": 1},
        "control": {"dt": 2e-3, "t_end": 0.32, "sample_every": 4},
    }, (0.6, 0.8, 0.3), True),
)}


# ---------------------------------------------------------------------------
# seeded datum
# ---------------------------------------------------------------------------

def axes(grid: dict):
    """x axis starting at -L/2 and y axis starting at 0, as the program samples."""
    x = -grid["L"] / 2 + grid["L"] / grid["Nx"] * np.arange(grid["Nx"])
    y = 2 * np.pi / grid["Ny"] * np.arange(grid["Ny"])
    return x, y


def datum_samples(wl: Workload, seed: int) -> np.ndarray:
    """Preset Gaussian times (1 + eps * p(x)), p a random sum of 3 low modes.

    p depends on x only, so a y-independent datum stays y-independent.  The
    modes have wavelengths of a few Gaussian widths and complex weights, so
    the datum carries a little momentum.
    """
    rng = np.random.default_rng(seed)
    A, w, mod = wl.gaussian
    d = wl.grid["d"]
    x, y = axes(wl.grid)
    mesh = np.meshgrid(*([x] * d + [y]), indexing="ij")
    xs, ym = mesh[:-1], mesh[-1]
    r2 = sum(c ** 2 for c in xs)
    p = np.zeros(r2.shape, dtype=complex)
    for _ in range(3):
        k = rng.integers(1, 3, size=d) * rng.choice((-1, 1), size=d)
        phase = sum(kk * c for kk, c in zip(k, xs)) / w + rng.uniform(0, 2 * np.pi)
        weight = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
        p += weight * np.cos(phase)
    return A * np.exp(-r2 / w ** 2) * (1 + mod * np.cos(ym)) * (1 + 0.05 * p)


def write_field(path: str, grid: dict, samples: np.ndarray) -> None:
    """Snapshot file: header (d, L, Nx, Ny, t) then plane-wave amplitudes.

    u(x_j) = sum_k c_k exp(i xi_k x_j) with x_j = -L/2 + j dx gives
    c_k = (-1)^k fft(u)_k / N per x axis.
    """
    d, Nx = grid["d"], grid["Nx"]
    c = np.fft.fftn(samples) / samples.size
    sign = np.where(np.arange(Nx) % 2 == 0, 1.0, -1.0)
    for ax in range(d):
        shape = [1] * samples.ndim
        shape[ax] = Nx
        c = c * sign.reshape(shape)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<idqqd", d, grid["L"], Nx, grid["Ny"], 0.0))
        fh.write(np.ascontiguousarray(c).astype("<c16").tobytes())


def prepare(wl: Workload, seed: int, out_dir: str):
    """Write the seeded datum; return (config text, datum samples)."""
    os.makedirs(out_dir, exist_ok=True)
    u0 = datum_samples(wl, seed)
    path = os.path.join(out_dir, "datum.bin")
    write_field(path, wl.grid, u0)
    cfg = dict(wl.config, datum={"kind": "file", "path": path},
               output_dir=os.path.join(out_dir, "artifacts"))
    return json.dumps(cfg), u0


# ---------------------------------------------------------------------------
# one round
# ---------------------------------------------------------------------------

def setup_once(cfg_text: str) -> None:
    """Config parse, datum build and RecordBuilder construction."""
    from nlslab import cli
    cfg = cli.parse_config(cfg_text)
    cli.build_datum(cfg)
    cli.RecordBuilder(cfg)


def run_round(wl: Workload, cfg_text: str, tracer) -> None:
    """Config to last artifact through the program's public path.

    ``cli.evolve`` is the benchmark's hook while this runs, so both paths
    (the benchmark's own calls and run_preset's) reach evolve through it.
    """
    from nlslab import cli
    with tracer.span("round"):
        cfg = cli.parse_config(cfg_text)
        if wl.via_run_preset:
            tracer.wrap(cli.run_preset, "nlslab.cli.run_preset")(cfg)
            return
        datum = cli.build_datum(cfg)
        builder = cli.RecordBuilder(cfg)
        cli.evolve(datum, cfg.physics(), cfg.control(), sinks=[builder],
                   guard_tol=cfg.guard_tol)
        with tracer.span("artifacts"):
            os.makedirs(cfg.output_dir, exist_ok=True)
            with open(os.path.join(cfg.output_dir, "records.csv"), "w") as fh:
                cli.emit_records(builder.records, fh, cfg.q_list)
