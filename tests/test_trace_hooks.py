"""The benchmark's traced replay still finds the names it wraps.

perfbench/tracer.py wraps functions where their callers look them up.  A
renamed or bypassed hook would otherwise show only in a traced benchmark
run; here small moment jobs run under the tracer in-process.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

import treemoments.cli as cli
import treemoments.gaussref as gaussref
from treemoments.render import SqrtExpr

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

JOBS = [
    "moments -S 0,1,2,3 -n 40 --s1 1 --s2 3 --max-p 3,3",
    "normal-compare -S 0,1,2,3 -n 40 --s1 1 --s2 3 --max-p 3,3",
    "scaled -S 0,1,2 -n 20..24 --s1 0 --p 3 --format csv",
]


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # tracer imports checks and workloads
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_moment_hooks_record_spans_and_are_restored(tracer):
    hooks = [
        (cli, "main"),
        (cli, "moment_report"),
        (cli, "scaled_moment"),
        (cli, "normality_gap_report"),
        (gaussref, "_grid"),
        (gaussref, "_central_from_grid"),
        (gaussref, "_scaled_from_grid"),
        (SqrtExpr, "render"),
        (SqrtExpr, "__add__"),
        (SqrtExpr, "__sub__"),
        (SqrtExpr, "from_sqrt"),
        (SqrtExpr, "from_rational"),
    ]
    before = {(owner, attr): owner.__dict__[attr] for owner, attr in hooks}
    recorder = tracer.Tracer()
    originals = tracer.install(recorder)
    try:
        assert all(owner.__dict__[attr] is not before[(owner, attr)] for owner, attr in hooks)
        for job in JOBS:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(job.split()) == 0
    finally:
        tracer.uninstall(originals)
    assert all(owner.__dict__[attr] is before[(owner, attr)] for owner, attr in hooks)

    names = {span[2] for span in recorder.spans}
    for name in [
        "treemoments.cli.moment_report",
        "treemoments.cli.scaled_moment",
        "treemoments.cli.normality_gap_report",
        "treemoments.gaussref._grid",
        "treemoments.gaussref._central_from_grid",
        "treemoments.gaussref._scaled_from_grid",
        "treemoments.moments.numerator_grid",
        # the tracer's gap count builds each lazy GapRow.gap; the cells
        # themselves render inside MomentGrid, so SqrtExpr.render is only
        # checked above as installed and restored
        "SqrtExpr.__sub__",
        "SqrtExpr.from_sqrt",
    ]:
        assert name in names, name
    metrics = tracer.layer_metrics(recorder)
    # 16 report cells; 2 variances, rho and 16 cells for the gaps; 5 scaled rows
    assert metrics["moments.cells"] == 16 + (2 + 1 + 16) + 5
    assert metrics["gaussref.calls"] == 1
    assert metrics["gaussref.multi_root_gaps"] == 0
