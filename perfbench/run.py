#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for nlslab.

Run from the repository root:

    python3 perfbench/run.py                      # every workload, one process each
    python3 perfbench/run.py --workload decay-1d --seed 3 --seconds 30 --trace 0

One run sets up ``SETUPS`` times, runs one untimed warm-up round (config to
last artifact), runs whole timed rounds while another fits in ``--seconds``,
and then checks the warm-up round's outputs.  The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` (the
checks) and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer ones with ``--trace 1``.  See README.md for what each figure means.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from statistics import median, quantiles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUPS = 15    # set-ups timed before the warm-up and before each timed round


def declared_units(trace: bool) -> dict:
    """Metric names and units as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


class EvolveHook:
    """Stands in for ``cli.evolve``: spans for evolve and each sink call.

    With ``layers`` it also records how many snapshots the sinks retain and
    the bytes those hold (coefficients plus cached samples).
    """

    def __init__(self, tracer, evolve, layers: bool = False):
        self.tracer, self.evolve, self.layers = tracer, evolve, layers
        self.capture = None
        self.retained = []

    def __call__(self, initial, physics, control, sinks=(), **kwargs):
        sinks = list(sinks)
        timed = [self.tracer.wrap(s, "sink") for s in sinks]
        final = self.tracer.wrap(self.evolve, "evolve")(
            initial, physics, control, timed, **kwargs)
        if self.capture is not None:
            self.capture.update(final=final, sinks=sinks)
        if self.layers:
            for s in sinks:
                snaps = getattr(s, "snapshots", [])
                held = sum(f.coefficients.nbytes + (f._samples.nbytes if
                           f._samples is not None else 0) for f in snaps)
                self.retained.append((len(snaps), held / 2 ** 20))
        return final


def environment() -> dict:
    import numpy
    import scipy
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                caches[f"L{level}{kind[0].lower()}"] = fh.read().strip()
        except OSError:
            continue
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "caches": caches,
            "NLSLAB_THREADS": os.environ.get("NLSLAB_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}


def flatten(rec) -> dict:
    """One DiagnosticsRecord as the flat row records.csv holds."""
    row = {"t": rec.t, "mass": rec.mass, "energy": rec.energy,
           "h1_norm": rec.h1_norm, "J": rec.J,
           "morawetz_lhs": rec.morawetz_lhs, "morawetz_rhs": rec.morawetz_rhs,
           "positivity_S": rec.positivity_S, "cube_sup": rec.cube_sup,
           "cube_sup_integral": rec.cube_sup_integral,
           "mixed_norm_theta": rec.mixed_norm_theta,
           "boundary_guard_flag": rec.boundary_guard_flag}
    row.update({f"lq_{q:g}": v for q, v in rec.lq_norms.items()})
    row.update({f"acc_{k}": v for k, v in rec.accumulators.items()})
    return row


def extract(wl, cap: dict, cfg_text: str) -> dict:
    """Keep from the warm-up round only what the checks need."""
    import checks
    sink = cap["sinks"][0]
    out = {"records": [flatten(r) for r in sink.records],
           "final": cap["final"].samples()}
    if wl.via_run_preset:
        art = json.loads(cfg_text)["output_dir"]
        with open(os.path.join(art, "scatter_report.json")) as fh:
            report = json.load(fh)
        times = report["times"]
        m = len(times)
        out["cauchy"] = [report["cauchy_matrix"][i * m:(i + 1) * m]
                         for i in range(m)]
        out["h1"] = [checks.h1_of(s.samples(), wl.grid)
                     for s in sink.snapshots
                     if any(abs(s.time_tag - t) < 1e-9 for t in times)]
        with open(os.path.join(art, "manifest.json")) as fh:
            out["preset_checks"] = json.load(fh)["checks"]
    return out


def run_checks(wl, cfg_text: str, u0, kept: dict) -> list:
    import numpy as np
    import checks
    from nlslab import cli, integrator
    cfg = cli.parse_config(cfg_text)
    alpha, lam = float(cfg.alpha_fraction()), cfg.lam
    grid, rows = wl.grid, kept["records"]
    out = checks.conservation_checks(u0, kept["final"], rows[0], rows[-1],
                                     grid, alpha, lam)
    out.append(checks.energy_drift_check(u0, kept["final"], grid, alpha, lam,
                                         cfg.dt, wl.steps()))
    steps = 3
    program = integrator.evolve(
        cli.build_datum(cfg), cfg.physics(),
        integrator.StepControl(cfg.dt, steps * cfg.dt, steps)).samples()
    out.append(checks.strang_check(program, u0, grid, alpha, lam, cfg.dt, steps))
    if wl.name == "decay-1d":
        direct = checks.morawetz_direct_1d(kept["final"], grid, alpha, lam)
        out.append(checks.double_sum_check(rows[-1], direct))
        dy = max(abs(r["acc_dy_lp"]) for r in rows)
        out.append(("dy_lp_zero", dy == 0.0,
                    f"max acc_dy_lp {dy:.2e} (the flow keeps u independent of y)"))
    elif wl.name == "morawetz-2d":
        out += checks.morawetz_record_checks(rows)
    else:
        out += checks.cauchy_checks(np.array(kept["cauchy"]), kept["h1"])
        path = os.path.join(cfg.output_dir, "records.csv")
        with open(path) as fh:
            csv_rows = cli.read_records(fh)
        out.append(checks.accumulator_check(csv_rows))
        same = len(csv_rows) == len(rows) and all(
            a[k] == b[k] for a, b in zip(csv_rows, rows) for k in b)
        out.append(("records_roundtrip", same,
                    f"{len(csv_rows)} rows of records.csv vs the in-memory records"))
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            code = cli.main(["verify", path])
        out.append(("verify_exit_0", code == 0, buf.getvalue().strip()))
    return out


class Mode:
    """One way of running: a tracer, its evolve hook and the patches it needs."""

    def __init__(self, layers: bool):
        import tracing
        from nlslab import integrator
        self.tracer = tracing.Tracer()
        self.hook = EvolveHook(self.tracer, integrator.evolve, layers)
        self.targets = tracing.timing_targets(self.tracer, self.hook)
        if layers:
            self.targets += tracing.layer_targets(self.tracer)
        self.setups, self.rounds = [], []

    def setup(self, cfg_text: str) -> None:
        import tracing
        import workloads
        with tracing.patched(self.targets):
            for _ in range(SETUPS):
                t0 = time.perf_counter()
                workloads.setup_once(cfg_text)
                self.setups.append(time.perf_counter() - t0)

    def round(self, wl, cfg_text: str, warmup: bool = False) -> dict | None:
        """One timed round, or the warm-up round that feeds the checks.

        The warm-up takes the one-off costs of a fresh process (lazy set-up
        inside scipy, FFT plans, the allocator growing its heap), returns
        what the checks need, and is left out of the timings.
        """
        import tracing
        import workloads
        self.hook.capture = {} if warmup else None
        with tracing.patched(self.targets):
            if not warmup:
                self.rounds.append(len(self.tracer.spans))
            workloads.run_round(wl, cfg_text, self.tracer)
        cap, self.hook.capture = self.hook.capture, None
        return extract(wl, cap, cfg_text) if warmup else None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import tracing
    import workloads
    from nlslab import morawetz

    wl = workloads.WORKLOADS[name]
    out_dir = os.path.join(OUT, name)
    shutil.rmtree(out_dir, ignore_errors=True)
    cfg_text, u0 = workloads.prepare(wl, seed, out_dir)
    env = environment()
    print(f"# {name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print(f"# env {json.dumps(env)}")

    plain = Mode(layers=False)
    modes = [plain, Mode(layers=True)] if trace else [plain]
    for mode in modes:
        mode.setup(cfg_text)
    # a user's run is a fresh process that builds the Morawetz kernels once
    morawetz.make_kernels.cache_clear()
    kept = plain.round(wl, cfg_text, warmup=True)
    # whole rounds while another still fits in the time; a traced run
    # alternates untraced and traced rounds so both see the same machine.
    # Set-ups are spread over the run too: a few milliseconds each, they
    # follow the machine's moment-to-moment speed closely.
    start, previous = time.perf_counter(), 0.0
    while not plain.rounds or time.perf_counter() - start + previous <= seconds:
        t0 = time.perf_counter()
        for mode in modes:
            mode.setup(cfg_text)
            morawetz.make_kernels.cache_clear()
            mode.round(wl, cfg_text)
        previous = time.perf_counter() - t0
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    figs = [tracing.round_figures(plain.tracer.spans, i, wl.emit_steps())
            for i in plain.rounds]
    sink_ms = [x * 1e3 for f in figs for x in f["sink_s"]]
    print(f"# rounds={len(figs)} samples={len(sink_ms)} "
          f"wall_s={[round(f['wall_s'], 4) for f in figs]}")
    for p, n_min in ((99, 1000), (90, 100), (75, 40)):
        if len(sink_ms) >= n_min:
            q = quantiles(sink_ms, n=100)[p - 1]
            print(f"# sample_ms p{p} = {q:.4f} ms over {len(sink_ms)} samples")
            break

    results = run_checks(wl, cfg_text, u0, kept)
    for check, ok, detail in results:
        print(f"# check {check:28s} {'ok  ' if ok else 'FAIL'} {detail}")
    if wl.via_run_preset:
        print("# preset checks (reported, not failures on a shortened run): "
              + json.dumps(kept["preset_checks"]))
    failed = sum(1 for _, ok, _ in results if not ok)

    if trace:
        traced = modes[1]
        metrics = layer_metrics(wl, cfg_text, traced,
                                median(f["wall_s"] for f in figs))
        traced.tracer.dump(os.path.join(out_dir, "trace.json"))
        print(f"# fft workers {tracing.fft_workers(traced.tracer.spans)}")
    else:
        metrics = {
            "wall_s": median(f["wall_s"] for f in figs),
            "setup_s": median(plain.setups),
            "steps_per_s": median(r for f in figs for r in f["rates"]),
            "sample_ms": median(sink_ms),
            "peak_rss_mib": peak_rss,
        }
    units = declared_units(trace)
    if set(units) != set(metrics):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(metrics))}")
    for key, value in metrics.items():
        print(f"# {key:36s} {value:14.6g} {units[key]}")
    return {"correct": failed == 0, "attempted": len(results), "failed": failed,
            "metrics": {k: {"value": float(v), "unit": units[k]}
                        for k, v in metrics.items()}}


def layer_metrics(wl, cfg_text, traced: Mode, untraced_wall: float) -> dict:
    import tracing
    spans, rounds = traced.tracer.spans, traced.rounds
    metrics = tracing.layer_figures(spans, wl.steps() * len(rounds),
                                    len(rounds))
    retained, held_mib = traced.hook.retained[-1]
    metrics["scattering.snapshots_retained"] = retained
    metrics["scattering.snapshot_mib"] = held_mib
    art = json.loads(cfg_text)["output_dir"]
    metrics["cli.artifact_bytes"] = sum(
        os.path.getsize(os.path.join(art, f)) for f in os.listdir(art))
    traced_wall = median(spans[i][2] - spans[i][1] for i in rounds)
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_pct"] = 100 * (traced_wall / untraced_wall - 1)
    return metrics


def run_all(args) -> int:
    """Each workload in a fresh process, so peak memory is its own."""
    import workloads
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"{name}: exit status {proc.returncode}", file=sys.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = val
    print("# workload        metric                                        value unit")
    for key, val in merged["metrics"].items():
        wname, metric = key.split(".", 1)
        print(f"# {wname:15s} {metric:36s} {val['value']:14.6g} {val['unit']}")
    print(json.dumps(merged))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(SRC, "nlslab")):
        print(f"no nlslab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of "
              f"{sorted(workloads.WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
