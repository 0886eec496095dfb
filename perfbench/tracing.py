"""Spans recorded from outside the program, and the per-layer figures derived from them.

A span is a list ``[name, start, end, parent, extra]``: ``parent`` is the
index of the enclosing span (-1 at top level) and ``extra`` is a dict for the
FFT wrappers (calling module, transform size, worker count).  Spans are kept
in memory and written out when the run ends.

Two sets of boundaries exist.  The *timing* set, active in every run, marks
only what the end-to-end metrics need: each round, each set-up, the call to
``evolve``, each sink call and each boundary-guard call -- a few spans per
sample.  The *layer* set, active only in the traced run, wraps the public
functions each module calls on the next, under the names the calling module
uses, plus the ``scipy.fft`` and ``fftconvolve`` entry points they reach.
"""

from __future__ import annotations

import json
import math
import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from statistics import median
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

Span = list

# calls the exact exponent bookkeeping makes during RecordBuilder construction
EXPONENT_SPANS = (
    "nlslab.cli.ProblemParams", "nlslab.cli.critical_tuple",
    "nlslab.cli.max_feasible_theta", "nlslab.cli.theta_tuple",
    "nlslab.cli.auxiliary_pair", "nlslab.scattering.verify_tuple",
)
FFT_FUNCS = ("fft", "fftn", "ifftn")
FROM_SAMPLES = "nlslab.field.SpectralField.from_samples"
GUARD = "nlslab.integrator.edge_cube_fraction"


class Tracer:
    """In-memory span recorder; ``wrap`` turns a callable into a recorded one."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def _open(self, name: str, extra=None) -> Span:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, extra]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec: Span) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, fn: Callable, name: str) -> Callable:
        def wrapped(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
        return wrapped

    def wrap_fft(self, fn: Callable, name: str) -> Callable:
        """Record a scipy.fft call with its calling module, size and workers."""
        def wrapped(x, *args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "?")
            workers = kwargs.get("workers") or 1
            if workers < 0:
                workers = os.cpu_count() + 1 + workers
            size = getattr(x, "size", 0)
            rec = self._open(name, {"caller": caller, "size": size,
                                    "workers": workers})
            try:
                return fn(x, *args, **kwargs)
            finally:
                self._close(rec)
        return wrapped

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump([{"name": n, "start": s, "end": e, "parent": p,
                        **(x or {})} for n, s, e, p, x in self.spans], fh)


@contextmanager
def patched(targets: Sequence[Tuple[object, str, object]]) -> Iterator[None]:
    """Set ``owner.attr = new`` for each target; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, new in targets:
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


def _method(tracer: Tracer, cls: type, attr: str, name: str):
    raw = vars(cls)[attr]
    if isinstance(raw, classmethod):
        return cls, attr, staticmethod(tracer.wrap(getattr(cls, attr), name))
    return cls, attr, tracer.wrap(raw, name)


def timing_targets(tracer: Tracer, evolve_wrapper: Callable) -> list:
    """Boundaries every run needs: the guard inside evolve, and cli's evolve."""
    from nlslab import cli, integrator
    return [
        (integrator, "edge_cube_fraction",
         tracer.wrap(integrator.edge_cube_fraction, GUARD)),
        (cli, "evolve", evolve_wrapper),
    ]


def layer_targets(tracer: Tracer) -> list:
    """Cross-module calls, named as the calling module names them."""
    import scipy.fft
    from nlslab import cli, field, integrator, morawetz, scattering

    def mod(module, *attrs):
        return [(module, a, tracer.wrap(getattr(module, a),
                                        f"{module.__name__}.{a}"))
                for a in attrs]

    out = []
    out += mod(cli, "ProblemParams", "critical_tuple", "max_feasible_theta",
               "theta_tuple", "auxiliary_pair", "build_datum", "emit_records",
               "mass", "energy", "sobolev_h1", "lebesgue_norm", "mixed_norm",
               "make_scatter_report", "geometric_sample_times")
    out += mod(integrator, "lebesgue_norm")
    out += mod(morawetz, "densities", "cube_sup_mass", "fftconvolve",
               "make_kernels", "morawetz_terms", "positivity_certificate",
               "morawetz_J")
    out += mod(scattering, "verify_tuple", "mixed_norm", "sobolev_h1",
               "lebesgue_norm", "free_evolve", "cauchy_table")
    out += [
        _method(tracer, cli.RecordBuilder, "__init__",
                "nlslab.cli.RecordBuilder.__init__"),
        _method(tracer, morawetz.MorawetzRecorder, "__call__",
                "nlslab.cli.MorawetzRecorder"),
        _method(tracer, scattering.SpacetimeAccumulators, "update",
                "nlslab.cli.SpacetimeAccumulators.update"),
        _method(tracer, field.SpectralField, "from_samples", FROM_SAMPLES),
    ]
    out += [(scipy.fft, f, tracer.wrap_fft(getattr(scipy.fft, f),
                                           f"scipy.fft.{f}"))
            for f in FFT_FUNCS]
    return out


# ---------------------------------------------------------------------------
# end-to-end figures (every run)
# ---------------------------------------------------------------------------

def _index(spans: List[Span]):
    by_name: Dict[str, List[int]] = defaultdict(list)
    children: Dict[int, List[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)
        if s[3] >= 0:
            children[s[3]].append(i)
    return by_name, children


def _dur(spans: List[Span], i: int) -> float:
    return spans[i][2] - spans[i][1]


def round_figures(spans: List[Span], round_idx: int, emit_steps: List[int]
                  ) -> dict:
    """Wall time, sink times and the stepping rate between samples of one round.

    ``emit_steps`` lists the steps at which evolve samples.  A chunk runs from
    one sink call's end to the next's; its stepping time is its length minus
    the sink and guard calls inside it.  The time before the first sample and
    after the last goes to the first and last chunk, so the chunks add up to
    the time in evolve outside sampling.
    """
    _, children = _index(spans)
    (e,) = [i for i in _descendants(children, round_idx)
            if spans[i][0] == "evolve"]
    sinks = [c for c in children[e] if spans[c][0] == "sink"]
    busy = [c for c in children[e] if spans[c][0] in ("sink", GUARD)]
    bounds = ([spans[e][1]] + [spans[c][2] for c in sinks[1:-1]]
              + [spans[e][2]])
    rates = []
    for j, (a, b) in enumerate(zip(bounds, bounds[1:])):
        inside = sum(_dur(spans, c) for c in busy if a <= spans[c][1] < b)
        rates.append((emit_steps[j + 1] - emit_steps[j]) / (b - a - inside))
    return {"wall_s": _dur(spans, round_idx),
            "sink_s": [_dur(spans, c) for c in sinks], "rates": rates}


def _descendants(children, root: int) -> List[int]:
    out, todo = [], [root]
    while todo:
        i = todo.pop()
        out.append(i)
        todo.extend(children[i])
    return out


# ---------------------------------------------------------------------------
# per-layer figures (traced run)
# ---------------------------------------------------------------------------

def fft_workers(spans: List[Span]) -> int:
    """Largest worker count any recorded scipy.fft call ran with."""
    return max((s[4]["workers"] for s in spans if s[4]), default=0)


def layer_figures(spans: List[Span], steps: int, rounds: int) -> Dict[str, float]:
    """Per-layer metrics over the traced rounds; 0 where a layer is not reached."""
    by_name, children = _index(spans)
    dur = lambda i: _dur(spans, i)  # noqa: E731
    total = lambda name: sum(dur(i) for i in by_name[name])  # noqa: E731
    samples = len(by_name["sink"])
    per_sample = lambda x: x / samples  # noqa: E731

    in_sink = [False] * len(spans)
    for i, s in enumerate(spans):
        in_sink[i] = s[0] == "sink" or (s[3] >= 0 and in_sink[s[3]])
    evolves = set(by_name["evolve"])
    ffts = [i for f in FFT_FUNCS for i in by_name[f"scipy.fft.{f}"]]
    step_ffts = [i for i in ffts if spans[i][3] in evolves
                 and spans[i][4]["caller"] == "nlslab.integrator"]
    snaps = [i for i in by_name[FROM_SAMPLES] if spans[i][3] in evolves]
    guard_s = total(GUARD)
    step_s = (sum(dur(i) for i in evolves) - total("sink") - guard_s
              - sum(dur(i) for i in snaps))
    fft_s = sum(dur(i) for i in step_ffts)
    flops = sum(5.0 * x["size"] * math.log2(x["size"])
                for x in (spans[i][4] for i in step_ffts))
    field_ffts = [i for i in ffts if in_sink[i]
                  and spans[i][4]["caller"] == "nlslab.field"]
    sink_self = sum(dur(i) - sum(dur(c) for c in children[i])
                    for i in by_name["sink"])
    builders = len(by_name["nlslab.cli.RecordBuilder.__init__"])

    # artifact time: the benchmark's own write block, or run_preset minus
    # the parts of it that are not artifact production
    artifacts = total("artifacts")
    for i in by_name["nlslab.cli.run_preset"]:
        artifacts += dur(i) - sum(
            dur(c) for c in children[i] if spans[c][0] in (
                "nlslab.cli.RecordBuilder.__init__", "nlslab.cli.build_datum",
                "evolve", "nlslab.cli.make_scatter_report",
                "nlslab.cli.geometric_sample_times"))

    ms = 1e3
    return {
        "integrator.step_ms": step_s / steps * ms,
        "integrator.kick_ms_per_step": (step_s - fft_s) / steps * ms,
        "integrator.fft_ms_per_step": fft_s / steps * ms,
        "integrator.fft_calls_per_step": len(step_ffts) / steps,
        "integrator.fft_gflops": flops / fft_s / 1e9,
        "integrator.guard_ms": per_sample(guard_s) * ms,
        "field.snapshot_ms": median(dur(i) for i in snaps) * ms,
        "field.densities_ms": per_sample(total("nlslab.morawetz.densities")) * ms,
        "field.densities_calls_per_sample":
            per_sample(len(by_name["nlslab.morawetz.densities"])),
        "field.cube_sup_ms": per_sample(total("nlslab.morawetz.cube_sup_mass")) * ms,
        "field.cube_sup_calls_per_sample":
            per_sample(len(by_name["nlslab.morawetz.cube_sup_mass"])),
        "field.transforms_per_sample": per_sample(len(field_ffts)),
        "field.mixed_norm_ms": per_sample(
            total("nlslab.cli.mixed_norm")
            + total("nlslab.scattering.mixed_norm")) * ms,
        "field.mixed_norm_calls_per_sample": per_sample(
            len(by_name["nlslab.cli.mixed_norm"])
            + len(by_name["nlslab.scattering.mixed_norm"])),
        "morawetz.terms_ms": per_sample(total("nlslab.morawetz.morawetz_terms")) * ms,
        "morawetz.certificate_ms":
            per_sample(total("nlslab.morawetz.positivity_certificate")) * ms,
        "morawetz.J_ms": per_sample(total("nlslab.morawetz.morawetz_J")) * ms,
        "morawetz.convolutions_per_sample":
            per_sample(len(by_name["nlslab.morawetz.fftconvolve"])),
        "morawetz.kernels_ms": total("nlslab.morawetz.make_kernels") / rounds * ms,
        "scattering.accumulator_ms":
            per_sample(total("nlslab.cli.SpacetimeAccumulators.update")) * ms,
        "scattering.cauchy_table_ms":
            total("nlslab.scattering.cauchy_table") / rounds * ms,
        "scattering.report_ms":
            total("nlslab.cli.make_scatter_report") / rounds * ms,
        "cli.record_ms": per_sample(total("sink")) * ms,
        "cli.record_self_ms": per_sample(sink_self) * ms,
        "cli.emit_records_ms": total("nlslab.cli.emit_records") / rounds * ms,
        "cli.artifacts_ms": artifacts / rounds * ms,
        "exponents.setup_ms":
            sum(total(n) for n in EXPONENT_SPANS) / builders * ms,
    }
