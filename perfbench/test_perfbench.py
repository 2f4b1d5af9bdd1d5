"""Self-tests of the benchmark: span arithmetic, the tail percentile rule,
seeded workload generation, the pinned verdicts and the trace wrappers."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qfsplit import ring  # noqa: E402
from qfsplit.criteria import quasi2_test  # noqa: E402
from qfsplit.localcoh import analyze  # noqa: E402


def _nested_recorder():
    # outer [0, 10] holds child [1, 5] (which holds leaf [2, 3]) and child [6, 7]
    ticks = iter([0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 7.0, 10.0])
    rec = tracing.SpanRecorder(clock=lambda: next(ticks))
    outer = rec.enter("outer")
    child = rec.enter("child")
    leaf = rec.enter("leaf")
    rec.exit(leaf)
    rec.exit(child)
    second = rec.enter("child")
    rec.exit(second)
    rec.exit(outer)
    return rec


def test_self_time_of_nested_spans():
    rec = _nested_recorder()
    spans = tracing.summarize(rec.names, rec.parents, rec.starts, rec.ends)
    assert spans["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 5.0}
    assert spans["child"] == {"calls": 2, "total_s": 5.0, "self_s": 4.0}
    assert spans["leaf"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    assert list(rec.parents) == [-1, 0, 1, 0]


def test_self_time_of_recursive_span_is_not_double_counted():
    ticks = iter([0.0, 1.0, 3.0, 4.0])
    rec = tracing.SpanRecorder(clock=lambda: next(ticks))
    outer = rec.enter("mul")
    inner = rec.enter("mul")
    rec.exit(inner)
    rec.exit(outer)
    spans = tracing.summarize(rec.names, rec.parents, rec.starts, rec.ends)
    assert spans["mul"]["self_s"] == 4.0
    assert spans["mul"]["total_s"] == 6.0


def test_tail_keeps_ten_values_beyond_it():
    value, percentile = run.tail(list(range(100, 0, -1)))
    assert value == 90 and percentile == 90.0
    value, percentile = run.tail(list(range(11)))
    assert value == 0 and percentile == pytest.approx(100.0 / 11)
    assert run.tail(list(range(34)))[0] == 23
    with pytest.raises(ValueError):
        run.tail(list(range(10)))


def _support(job):
    """Everything about a job except its coefficients."""
    if job.kind == "entry":
        entry = workloads.prepare(job)
        if entry.kind == "doublecover":
            variables = ("x", "y")
        else:
            variables = tuple(sorted(set(entry.poly) & set("wxyz")))
        poly = ring.PolyRing(entry.p, variables).parse(entry.poly)
        return entry.p, entry.kind, sorted(exps for exps, _ in poly.terms())
    if job.kind == "witt":
        spec = job.spec
        return spec["p"], [[sorted(c) for c in v] for v in spec["vectors"]], sorted(spec["identity"])
    p, g = job.spec
    return p, sorted(exps for exps, _ in ring.PolyRing(p, ("x", "y")).parse(g).terms())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generation_is_seeded_and_keeps_shapes(workload):
    first = workloads.generate(workload, 1)
    assert first == workloads.generate(workload, 1)
    other = workloads.generate(workload, 2)
    assert [j.name for j in first] == [j.name for j in other]
    assert [j.expect for j in first] == [j.expect for j in other]
    assert [_support(j) for j in first] == [_support(j) for j in other]
    assert [j.spec for j in first] != [j.spec for j in other]
    assert len({j.name for j in first}) == len(first) > run.TAIL_BEYOND


def test_hesse_point_count_matches_known_curves():
    # lambda = 0 is the Fermat cubic: supersingular iff p = 2 mod 3
    for p in (5, 7, 11, 13):
        assert (workloads.hesse_points(p, 0) % p == 1) == (p % 3 == 2)
    assert workloads.hesse_singular(7, 3)


@pytest.mark.parametrize("family,p", sorted(workloads.PINNED))
def test_pinned_verdict_is_where_engine_and_hypersurface_clause_agree(family, p):
    g = workloads._render(workloads.COVERS[family], ("x", "y"))
    cover = workloads.prepare(workloads.Job("pin", "cech", (p, g), None))
    engine = analyze(cover).verdict
    clause = quasi2_test(ring.PolyRing(p, ("x", "y", "z")).parse(f"z^2 + {g}"))
    for verdict in (engine, clause):
        assert (verdict.f_split, verdict.quasi2, verdict.height_le) == workloads.PINNED[(family, p)]


def test_trace_wrappers_reach_every_layer_and_restore_originals():
    originals = (ring.Poly.__mul__, tracing.criteria.delta_carry, tracing.report.analyze)
    jobs = [
        workloads.Job("hs", "entry", workloads._line("hs", 5, "hypersurface", "x^3 + y^3 + z^3"), None),
        workloads.Job("dc", "entry", workloads._line("dc", 3, "doublecover", "x^3 + y^4"), None),
        workloads.Job("cech", "cech", (3, "x^3 + y^4"), None),
    ]
    rec = tracing.SpanRecorder()
    with tracing.install(rec):
        outputs = [workloads.execute(job, workloads.prepare(job)) for job in jobs]
    assert outputs == [workloads.execute(job, workloads.prepare(job)) for job in jobs]
    assert (ring.Poly.__mul__, tracing.criteria.delta_carry, tracing.report.analyze) == originals
    assert all(tracing.layer_calls(rec).values())
    metrics = tracing.layer_metrics(rec)
    assert metrics["criteria.clause2.entries"][0] == 0.5
    assert metrics["ring.mul.pairs"][0] >= metrics["ring.mul.calls"][0] > 0
    assert metrics["localcoh.membership.columns"][0] > 0
