"""Every entry point the benchmark tracer wraps must exist in the program.

``perfbench/spans.py`` patches each name in its ``ENTRY_POINTS`` when a run
is traced (``perfbench/run.py --trace 1``), and one missing name makes that
run fail at install.  The module is read from disk and executed without
installing anything (and without writing bytecode next to it); each name is
then resolved the way ``Tracer.install`` resolves it.
"""

import importlib
import types
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
