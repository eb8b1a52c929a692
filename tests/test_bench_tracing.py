"""The benchmark tracer (perfbench/tracing.py) still finds every name it wraps.

Its ``Tracer.install`` looks up each entry of ``TARGETS`` by module and
attribute and fails on a missing one, so a renamed or deleted traced
function breaks the traced benchmark passes; this test catches that in the
ordinary test run.  The benchmark files are imported, not changed.
"""

import pathlib
import sys

import hmfx.cli  # noqa: F401  the tracer wraps an already imported package
from hmfx.solutions import SelfSimilarSolution

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("tracing", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import tracing

    modules = {n: m for n, m in sys.modules.items()
               if n == "hmfx" or n.startswith("hmfx.")}
    before = {n: dict(vars(m)) for n, m in modules.items()}
    evaluate = SelfSimilarSolution.evaluate
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert SelfSimilarSolution.evaluate is not evaluate
    finally:
        tracer.uninstall()
    assert SelfSimilarSolution.evaluate is evaluate
    for n, m in modules.items():
        assert all(vars(m)[k] is v for k, v in before[n].items()), n
