import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import hsifusion


def test_every_exported_name_resolves():
    assert len(set(hsifusion.__all__)) == len(hsifusion.__all__)
    assert [n for n in hsifusion.__all__ if not hasattr(hsifusion, n)] == []


def test_every_public_name_is_exported():
    tree = ast.parse(inspect.getsource(hsifusion))
    bound = {alias.asname or alias.name for node in tree.body
             if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    bound |= {target.id for node in tree.body if isinstance(node, ast.Assign)
              for target in node.targets if isinstance(target, ast.Name)}
    assert set(hsifusion.__all__) == {n for n in bound if not n.startswith("_")}


def test_every_benchmark_traced_name_resolves():
    # perfbench/spans.py wraps these by name, so a deleted or renamed one
    # would otherwise break only the traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{m}.{f}" for m, f in spans.TRACED
               if not callable(getattr(importlib.import_module(f"hsifusion.{m}"), f, None))]
    assert missing == []
    assert spans.REPORT_ADD == "metrics.FusionReport.add"
    assert callable(hsifusion.metrics.FusionReport.__dict__.get("add"))
    assert callable(hsifusion.autodiff.from_op)  # counted for the tape metrics
