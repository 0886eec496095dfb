"""The benchmark in perfbench/ wraps program functions by name and replaces
integrator._nonlinear_kick in its self-test; these tests fail when a refactor
removes a name it relies on, or leaves a public name that nothing but the
tests reads."""

import ast
import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
SRC = os.path.join(ROOT, "src", "nlslab")


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


def test_unused_imports_are_wrapped_names():
    """A module-level import that its module never reads is kept only for
    the tracer, so it must be a name the tracer patches."""
    tracing = load_tracing()
    tracer = tracing.Tracer()
    targets = {(module.__name__, attr) for module, attr, _ in
               tracing.timing_targets(tracer, lambda *a, **k: None)
               + tracing.layer_targets(tracer)}
    unused = []
    for fname in sorted(os.listdir(SRC)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(SRC, fname)) as fh:
            tree = ast.parse(fh.read())
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        module = "nlslab" if fname == "__init__.py" else f"nlslab.{fname[:-3]}"
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.asname or a.name.split(".")[0] for a in node.names]
                unused += [(module, n) for n in names if n not in read]
    assert [u for u in unused if u not in targets] == []


# public library names that no run or benchmark file reads, each kept for
# the reason given
UNREAD_BY_DESIGN = {
    "nlslab.field.save_field": "writes the snapshot files that load_field "
                               "reads, as a file datum",
}


def _names_read(tree, strings=False):
    """The names a syntax tree reads, each as ("name", n) for a loaded name
    or ("attr", n) for an attribute name, and with strings ("attr", n) for
    the last dotted part n of each string constant."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(("name", n.id))
        elif isinstance(n, ast.Attribute):
            out.add(("attr", n.attr))
        elif strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.add(("attr", n.value.rsplit(".", 1)[-1]))
    return out


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read())


def _scan(node, prefix, member=False):
    """The public definitions at a syntax tree node, as (qualified name,
    name, whether a class member), and the names the node reads outside
    each one's own definition.  A public class adds its public methods."""
    if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [], _names_read(node)
    own = {("name", node.name), ("attr", node.name)}
    if node.name.startswith("_"):
        return [], _names_read(node) - own
    full = f"{prefix}.{node.name}"
    public, read = [(full, node.name, member)], set()
    if isinstance(node, ast.ClassDef):
        for part in node.bases + node.keywords + node.decorator_list:
            read |= _names_read(part)
        for child in node.body:
            defs, names = _scan(child, full, member=True)
            public += defs
            read |= names
    else:
        read = _names_read(node)
    return public, read - own


def test_every_public_name_is_read():
    """Each public top-level def or class of the library, and each public
    method of a public class, is read by name in the library outside its own
    definition or in perfbench/ (the string names the tracer patches
    included).  A method counts as read only through an attribute access or
    a tracer string, not through a bare local name of the same spelling.  A
    name that only the tests call, the acceptance criteria included, belongs
    in those tests."""
    public, read = [], set()
    for fname in sorted(os.listdir(SRC)):
        if not fname.endswith(".py"):
            continue
        for node in _parse(os.path.join(SRC, fname)).body:
            defs, names = _scan(node, f"nlslab.{fname[:-3]}")
            public += defs
            read |= names
    for fname in os.listdir(PERFBENCH):
        if fname.endswith(".py"):
            read |= _names_read(_parse(os.path.join(PERFBENCH, fname)), strings=True)
    unread = [full for full, name, member in public
              if not ({("attr", name)} if member else {("attr", name), ("name", name)})
              & read and full not in UNREAD_BY_DESIGN]
    assert not unread, f"public names no run or benchmark reads: {unread}"


def test_selftest_passes():
    proc = subprocess.run([sys.executable, os.path.join(PERFBENCH, "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert " 0 not as expected" in proc.stdout


def test_benchmark_smoke_run(tmp_path):
    """One traced decay-1d run: every tracer patch applied, the outputs
    checked, and the metric set matched against BENCHMARK.json.

    run.py writes to .perfbench_out/ next to its own directory, so it runs
    from a root in tmp_path that links to this checkout's perfbench/, src/
    and BENCHMARK.json; the checkout's .perfbench_out/ is left as it was."""
    for name in ("perfbench", "src", "BENCHMARK.json"):
        os.symlink(os.path.join(ROOT, name), tmp_path / name)
    proc = subprocess.run([sys.executable, str(tmp_path / "perfbench" / "run.py"),
                           "--workload", "decay-1d", "--seconds", "0", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert (last["correct"], last["failed"]) == (True, 0), proc.stdout
    assert os.listdir(tmp_path / ".perfbench_out") == ["decay-1d"]
    # the tracer still finds the step's FFT pair and the snapshot transform
    value = {k: m["value"] for k, m in last["metrics"].items()}
    assert value["integrator.fft_calls_per_step"] == 2
    assert value["integrator.fft_ms_per_step"] > 0
    assert value["field.snapshot_ms"] > 0


def test_every_workload_config_parses(monkeypatch):
    """Each benchmark workload's grid passes the parse, its memory check
    included, with the preset's own datum in place of the benchmark's file."""
    from nlslab.cli import parse_config
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(PERFBENCH, "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    # its dataclass looks the module up by name while it is built
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    assert len(workloads.WORKLOADS) == 3
    for wl in workloads.WORKLOADS.values():
        cfg = parse_config(json.dumps(wl.config))
        assert (cfg.d, cfg.Nx, cfg.Ny) == tuple(wl.grid[k] for k in ("d", "Nx", "Ny"))
