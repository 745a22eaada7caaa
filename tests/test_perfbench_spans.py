"""Every entry point the benchmark tracer wraps and every program name the
benchmark imports must exist in the program, and every counter hook must
run on real calls.

``perfbench/spans.py`` patches each name in its ``ENTRY_POINTS`` when a run
is traced (``perfbench/run.py --trace 1``), and one missing name makes that
run fail at install.  The module is read from disk and executed without
writing bytecode next to it; each name is then resolved the way
``Tracer.install`` resolves it, and the tracer is installed around a few
tiny CLI calls.  ``perfbench/run.py`` imports program names inside the
functions that check a run's output, so it is parsed, not executed, and
each ``riskcast`` import in it is resolved against the package.
"""

import ast
import importlib
import types
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
RUN = PERFBENCH / "run.py"


def _load_spans() -> types.ModuleType:
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), vars(module))
    return module


def test_every_traced_entry_point_resolves():
    spans = _load_spans()
    missing = []
    for layer, entries in spans.ENTRY_POINTS.items():
        module = importlib.import_module(f"riskcast.{layer}")
        for entry in entries:
            if "." in entry:
                # Methods are patched on their class, from the class __dict__.
                cls_name, method = entry.split(".")
                found = method in vars(getattr(module, cls_name, object))
            else:
                found = hasattr(module, entry)
            if not found:
                missing.append(f"{layer}.{entry}")
    assert missing == [], f"perfbench/spans.py wraps names the program lacks: {missing}"
    assert len(spans.span_names()) > 40


def test_every_riskcast_import_of_the_benchmark_resolves():
    """Each ``import riskcast.<module>`` in the benchmark script must import,
    and each name of a ``from riskcast.<module> import`` must be found there."""
    tree = ast.parse(RUN.read_text(encoding="utf-8"), str(RUN))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("riskcast"):
            imported += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [(alias.name, None) for alias in node.names
                         if alias.name.startswith("riskcast")]
    modules = {module: importlib.import_module(module) for module, _ in imported}
    missing = [f"{module}.{name}" for module, name in imported
               if name is not None and not hasattr(modules[module], name)]
    assert missing == [], f"perfbench/run.py imports names the program lacks: {missing}"
    assert len(imported) > 10


def test_every_counter_hook_runs_on_real_calls(tmp_path):
    """Each counter hook in ``spans.HOOKS`` reads the arguments or the result
    of the call it wraps, so a change to what the program passes there can
    break a traced run.  Tiny real CLI calls under the tracer must all
    succeed, and between them call every hooked entry point."""
    spans = _load_spans()
    cli = importlib.import_module("riskcast.cli")
    data, hybrid, linear = tmp_path / "data", tmp_path / "hybrid.rcm", tmp_path / "linear.rcm"
    calls = [
        ["gen-data", "--days", "200", "--seed", "3", "--out", str(data)],
        ["train", "--data", str(data), "--out", str(hybrid), "--epochs", "1", "--hidden", "4"],
        ["train", "--data", str(data), "--out", str(linear), "--baseline", "linreg"],
        ["predict", "--data", str(data), "--model", str(hybrid),
         "--out", str(tmp_path / "pred.csv")],
        ["evaluate", "--data", str(data), "--model", str(linear)],
        ["gradcheck", "--seed", "3"],
    ]
    tracer = spans.Tracer()
    tracer.install()
    try:
        codes = [cli.main(argv) for argv in calls]
    finally:
        tracer.uninstall()
    assert codes == [0] * len(calls)
    assert sorted(name for name in spans.HOOKS if not tracer.calls[name]) == []
