"""Span recording around the public functions of each qfsplit module.

Nothing in the package is edited: ``install`` replaces module and class
attributes with wrappers for the duration of a ``with`` block and puts the
originals back afterwards.  Names that a module imported by value (for
example ``criteria.delta_carry``) are wrapped where they are looked up, so
every call path is seen.

Each wrapped call records a span (name, parent, start, end) in memory and
may add to named counters.  ``summarize`` turns the spans into per-name call
counts, inclusive time and self time, where self time is a span's duration
minus the time its child spans cover.  Wrapper overhead lands in the
caller's self time; ``trace.overhead_ratio`` reports its size.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from collections import Counter

import qfsplit.criteria as criteria
import qfsplit.linalg as linalg
import qfsplit.localcoh as localcoh
import qfsplit.report as report
import qfsplit.ring as ring
import qfsplit.splitting_oracle as splitting_oracle
import qfsplit.witt as witt

LAYERS = ("ring", "witt", "criteria", "localcoh", "linalg", "splitting_oracle", "report")


class SpanRecorder:
    """In-memory span log plus named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.counters: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self._stack: list[int] = []

    def enter(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def exit(self, index: int) -> None:
        self.ends[index] = self.clock()
        self._stack.pop()

    def current(self) -> str | None:
        return self.names[self._stack[-1]] if self._stack else None

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount

    def high_water(self, name: str, value: int) -> None:
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value


def summarize(names, parents, starts, ends) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds, and self seconds.

    A name that nests inside itself counts its inclusive time once per
    level; self time never double counts.
    """
    child_time = [0.0] * len(names)
    for i, parent in enumerate(parents):
        if parent >= 0:
            child_time[parent] += ends[i] - starts[i]
    out: dict[str, dict] = {}
    for i, name in enumerate(names):
        stats = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        duration = ends[i] - starts[i]
        stats["calls"] += 1
        stats["total_s"] += duration
        stats["self_s"] += duration - child_time[i]
    return out


def _wrap(recorder: SpanRecorder, name: str, fn, after=None):
    enter, exit_ = recorder.enter, recorder.exit

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            exit_(index)
        if after is not None:
            after(recorder, args, result)
        return result

    return wrapper


def _after_mul(rec, args, result):
    left, right = args
    rec.count("ring.mul.pairs", len(left) * (len(right) if isinstance(right, ring.Poly) else 1))
    rec.count("ring.mul.terms_out", len(result))
    rec.high_water("ring.max_terms", len(result))


def _after_pow(rec, args, result):
    rec.high_water("ring.max_terms", len(result))


def _after_delta(rec, args, result):
    rec.count("witt.delta_carry.terms_out", len(result))


def _after_clause2(rec, args, result):
    rec.count("criteria.clause2")
    _after_delta(rec, args, result)


def _after_solve(rec, args, result):
    columns, rhs = args[0], args[1]
    rows = set(rhs)
    for column in columns:
        rows.update(column)
    rec.count("linalg.solve.rows", len(rows))
    rec.count("linalg.solve.cols", len(columns))
    rec.count("linalg.solve.nnz", sum(len(column) for column in columns))
    if rec.current() == "localcoh.membership":
        rec.count("localcoh.membership.columns", len(columns))


def _after_basis_add(rec, args, result):
    if result:
        rec.count("linalg.basis.rank")


def _after_membership(rec, args, result):
    rec.count("localcoh.membership.escalations", result.escalations)


def _after_run_entry(rec, args, result):
    rec.count("report.entries")


def _targets():
    """(owner, attribute, span name, after-hook) for every wrapped callable."""
    return [
        (ring.Poly, "__mul__", "ring.mul", _after_mul),
        (ring.Poly, "__rmul__", "ring.mul", _after_mul),
        (ring.Poly, "__pow__", "ring.pow", _after_pow),
        (ring.Poly, "in_frobenius_power_ideal", "ring.membership", None),
        (witt, "delta_carry", "witt.delta_carry", _after_delta),
        (criteria, "delta_carry", "witt.delta_carry", _after_clause2),
        (splitting_oracle, "delta_carry", "witt.delta_carry", _after_delta),
        (witt.WittVector, "__add__", "witt.vector_op", None),
        (witt.WittVector, "__sub__", "witt.vector_op", None),
        (witt.WittVector, "__mul__", "witt.vector_op", None),
        (witt.WittVector, "__neg__", "witt.vector_op", None),
        (witt.WittVector, "ghost", "witt.ghost", None),
        (witt.WittVector, "from_ghost", "witt.from_ghost", None),
        (criteria, "fedder_test", "criteria.fedder_test", None),
        (criteria, "quasi2_test", "criteria.quasi2_test", None),
        (criteria, "height_search", "criteria.height_search", None),
        (report, "height_search", "criteria.height_search", None),
        (localcoh, "has_isolated_singularity", "localcoh.isolated_check", None),
        (localcoh, "normal_form", "localcoh.normal_form", None),
        (localcoh, "frobenius_h2", "localcoh.frobenius_h2", None),
        (localcoh, "witt_carry_class", "localcoh.carry", None),
        (localcoh, "frobenius_image_membership", "localcoh.membership", _after_membership),
        (localcoh, "reduce_modulo_cover", "localcoh.reduce_modulo_cover", None),
        (splitting_oracle, "reduce_modulo_cover", "localcoh.reduce_modulo_cover", None),
        (localcoh, "analyze", "localcoh.analyze", None),
        (report, "analyze", "localcoh.analyze", None),
        (linalg, "solve", "linalg.solve", _after_solve),
        (splitting_oracle, "solve", "linalg.solve", _after_solve),
        (linalg.GaussianBasis, "add", "linalg.basis.add", _after_basis_add),
        (linalg.GaussianBasis, "reduce", "linalg.basis.reduce", None),
        (splitting_oracle, "quasi2_cech_oracle", "splitting_oracle.cech", None),
        (splitting_oracle, "splitting_search", "splitting_oracle.search", None),
        (report, "run_entry", "report.run_entry", _after_run_entry),
        (report, "parse_hypersurface", "report.parse", None),
        (report, "parse_doublecover", "report.parse", None),
        (report.Report, "to_json", "report.serialize", None),
    ]


@contextlib.contextmanager
def install(recorder: SpanRecorder):
    """Wrap every target for the duration of the block, then restore it."""
    saved = []
    try:
        for owner, attr, name, after in _targets():
            raw = owner.__dict__[attr]
            saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(_wrap(recorder, name, raw.__func__, after))
            else:
                wrapped = _wrap(recorder, name, raw, after)
            setattr(owner, attr, wrapped)
        yield recorder
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def _sum(spans: dict, prefix: str, field: str) -> float:
    return sum(s[field] for name, s in spans.items() if name.startswith(prefix))


def layer_calls(recorder: SpanRecorder) -> dict[str, int]:
    """Calls recorded under each layer's span-name prefix."""
    counts = Counter(name.split(".", 1)[0] for name in recorder.names)
    return {layer: counts.get(layer, 0) for layer in LAYERS}


def layer_metrics(recorder: SpanRecorder) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, as name -> (value, unit)."""
    spans = summarize(recorder.names, recorder.parents, recorder.starts, recorder.ends)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def total_s(name):
        return spans.get(name, {}).get("total_s", 0.0)

    c = recorder.counters
    entries = c["report.entries"]
    return {
        "ring.mul.calls": (calls("ring.mul"), "count"),
        "ring.mul.pairs": (c["ring.mul.pairs"], "count"),
        "ring.mul.terms_out": (c["ring.mul.terms_out"], "count"),
        "ring.mul.self_s": (self_s("ring.mul"), "s"),
        "ring.pow.calls": (calls("ring.pow"), "count"),
        "ring.pow.self_s": (self_s("ring.pow"), "s"),
        "ring.membership.self_s": (self_s("ring.membership"), "s"),
        "ring.max_terms": (recorder.maxima.get("ring.max_terms", 0), "count"),
        "witt.delta_carry.calls": (calls("witt.delta_carry"), "count"),
        "witt.delta_carry.self_s": (self_s("witt.delta_carry"), "s"),
        "witt.delta_carry.terms_out": (c["witt.delta_carry.terms_out"], "count"),
        "witt.vector_op.calls": (calls("witt.vector_op"), "count"),
        "witt.vector_op.self_s": (self_s("witt.vector_op"), "s"),
        "witt.ghost.calls": (calls("witt.ghost"), "count"),
        "criteria.self_s": (_sum(spans, "criteria.", "self_s"), "s"),
        "criteria.clause2.entries": (c["criteria.clause2"] / entries if entries else 0.0, "ratio"),
        "localcoh.isolated_check.s": (total_s("localcoh.isolated_check"), "s"),
        "localcoh.normal_form.calls": (calls("localcoh.normal_form"), "count"),
        "localcoh.normal_form.self_s": (self_s("localcoh.normal_form"), "s"),
        "localcoh.frobenius_h2.calls": (calls("localcoh.frobenius_h2"), "count"),
        "localcoh.frobenius_h2.self_s": (self_s("localcoh.frobenius_h2"), "s"),
        "localcoh.carry.s": (total_s("localcoh.carry"), "s"),
        "localcoh.membership.s": (total_s("localcoh.membership"), "s"),
        "localcoh.membership.columns": (c["localcoh.membership.columns"], "count"),
        "localcoh.membership.escalations": (c["localcoh.membership.escalations"], "count"),
        "linalg.solve.calls": (calls("linalg.solve"), "count"),
        "linalg.solve.rows": (c["linalg.solve.rows"], "count"),
        "linalg.solve.cols": (c["linalg.solve.cols"], "count"),
        "linalg.solve.nnz": (c["linalg.solve.nnz"], "count"),
        "linalg.solve.self_s": (self_s("linalg.solve"), "s"),
        "linalg.basis.add.calls": (calls("linalg.basis.add"), "count"),
        "linalg.basis.reduce.calls": (calls("linalg.basis.reduce"), "count"),
        "linalg.basis.rank": (c["linalg.basis.rank"], "count"),
        "linalg.basis.self_s": (self_s("linalg.basis.add") + self_s("linalg.basis.reduce"), "s"),
        "splitting_oracle.cech.self_s": (self_s("splitting_oracle.cech"), "s"),
        "splitting_oracle.search.self_s": (self_s("splitting_oracle.search"), "s"),
        "report.parse.self_s": (self_s("report.parse"), "s"),
        "report.serialize.self_s": (self_s("report.serialize"), "s"),
    }
