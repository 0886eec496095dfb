"""The benchmark in perfbench/ wraps program functions by name and replaces
integrator._nonlinear_kick in its self-test; these tests fail when a refactor
removes a name it relies on."""

import importlib.util
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(PERFBENCH, "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_exists():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    targets = (tracing.timing_targets(tracer, lambda *a, **k: None)
               + tracing.layer_targets(tracer))
    with tracing.patched(targets):
        pass


def test_selftest_passes():
    proc = subprocess.run([sys.executable, os.path.join(PERFBENCH, "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert " 0 not as expected" in proc.stdout
