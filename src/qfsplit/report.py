"""Catalog entries, per-entry analysis, and deterministic JSON reports.

Reports serialize with sorted keys and fixed separators so that identical
input and tool version produce byte-identical output.  Timing is measured
but emitted only when explicitly requested, keeping default reports
reproducible.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field
from typing import Any

from . import __version__
from .criteria import Verdict, ZeroInputError, height_search
from .localcoh import DoubleCover, LocalCohAnalysis, analyze
from .ring import Poly, PolyRing

SCHEMA_VERSION = 1

KIND_HYPERSURFACE = "hypersurface"
KIND_DOUBLECOVER = "doublecover"
_KINDS = (KIND_HYPERSURFACE, KIND_DOUBLECOVER)

_WITNESS_RENDER_CAP = 30


class CatalogError(ValueError):
    pass


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    p: int
    kind: str
    poly: str
    tags: tuple[str, ...] = field(default_factory=tuple)

    @classmethod
    def from_dict(cls, data: dict) -> "CatalogEntry":
        if not isinstance(data, dict):
            raise CatalogError("catalog line must be a JSON object")
        try:
            name = data["name"]
            p = data["p"]
            kind = data["kind"]
            poly = data["poly"]
        except KeyError as exc:
            raise CatalogError(f"catalog entry missing field {exc.args[0]!r}") from None
        tags = data.get("tags", [])
        if not isinstance(name, str) or not isinstance(poly, str):
            raise CatalogError("name and poly must be strings")
        if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
            raise CatalogError("tags must be a list of strings")
        if not isinstance(p, int) or p < 2:
            raise CatalogError(f"invalid characteristic {p!r}")
        if kind not in _KINDS:
            raise CatalogError(f"kind must be one of {_KINDS}, got {kind!r}")
        return cls(name=name, p=p, kind=kind, poly=poly, tags=tuple(tags))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "p": self.p,
            "kind": self.kind,
            "poly": self.poly,
            "tags": list(self.tags),
        }


def infer_variables(text: str) -> tuple[str, ...]:
    return tuple(sorted(set(re.findall(r"[A-Za-z_][A-Za-z_0-9]*", text))))


def _prime_ring(p: int, variables: tuple[str, ...]) -> PolyRing:
    """GF(p)[variables]; PolyRing also takes characteristic 0 for integer
    lifts, which neither decision route is defined over."""
    if p == 0:
        raise ValueError("characteristic 0 is not prime")
    return PolyRing(p, variables)


def parse_hypersurface(p: int, text: str, variables: tuple[str, ...] | None = None):
    """f parsed over its variables (a ring with none parses constants),
    checked to lie in the maximal ideal m = (x_1, ..., x_n)."""
    f = _prime_ring(p, variables or infer_variables(text)).parse(text)
    if f.is_zero():
        raise ZeroInputError("zero polynomial")
    if f.constant_term():
        raise ValueError("f must have zero constant term (f in m)")
    return f


def parse_doublecover(p: int, text: str) -> DoubleCover:
    return DoubleCover(p, _prime_ring(p, ("x", "y")).parse(text))


@dataclass
class Report:
    entry: CatalogEntry
    verdict: Verdict | None
    intermediates: dict[str, Any] | None = None
    timing_ms: float | None = None
    error: str | None = None

    def to_dict(self, include_timing: bool = False) -> dict:
        verdict, flags = None, ["error"]
        if self.verdict is not None:
            verdict = {
                "f_split": self.verdict.f_split,
                "quasi2": self.verdict.quasi2,
                "height_le": self.verdict.height_le,
            }
            flags = sorted(self.verdict.flags)
        data = {
            "schema_version": SCHEMA_VERSION,
            "version": __version__,
            "entry": self.entry.to_dict(),
            "verdict": verdict,
            "flags": flags,
            "intermediates": self.intermediates,
            "error": self.error,
        }
        if include_timing:
            data["timing_ms"] = self.timing_ms
        return data

    def to_json(self, include_timing: bool = False) -> str:
        return json.dumps(
            self.to_dict(include_timing=include_timing),
            sort_keys=True,
            separators=(",", ":"),
        )

    def summary(self) -> str:
        if self.error is not None:
            return f"error: {self.error}"
        return self.verdict.summary()


def _membership_intermediates(analysis: LocalCohAnalysis) -> dict[str, Any]:
    out: dict[str, Any] = {
        "socle_image": analysis.socle_image.render(),
        "carry": analysis.carry.render() if analysis.carry is not None else None,
    }
    membership = analysis.membership
    if membership is not None:
        cert: dict[str, Any] = {
            "feasible": membership.feasible,
            "bound": membership.bound,
        }
        for name, labelled in (
            ("coefficients", membership.coefficients),
            ("witness_row", membership.witness),
        ):
            if labelled is not None:
                cert[name] = {
                    f"z^{eps}/(x^{i}*y^{j})": c for (eps, i, j), c in sorted(labelled.items())
                }
        out["membership"] = cert
    return out


def _witness_intermediates(verdict: Verdict) -> dict[str, Any]:
    out: dict[str, Any] = {}
    if verdict.witnesses:
        out["witnesses"] = {
            key: poly.render(max_terms=_WITNESS_RENDER_CAP)
            for key, poly in sorted(verdict.witnesses.items())
        }
    return out


def run_entry(
    entry: CatalogEntry,
    explain: bool = False,
    parsed: Poly | DoubleCover | None = None,
) -> Report:
    """Analyze one entry; ``parsed`` is entry.poly already parsed by the
    caller (a Poly for a hypersurface, a DoubleCover for a double cover)."""
    start = time.perf_counter()
    try:
        if entry.kind == KIND_HYPERSURFACE:
            f = parsed if parsed is not None else parse_hypersurface(entry.p, entry.poly)
            verdict = height_search(f)
            intermediates = _witness_intermediates(verdict) if explain else None
        else:
            cover = parsed if parsed is not None else parse_doublecover(entry.p, entry.poly)
            analysis = analyze(cover)
            verdict = analysis.verdict
            intermediates = _membership_intermediates(analysis) if explain else None
        elapsed = (time.perf_counter() - start) * 1000.0
        return Report(
            entry=entry,
            verdict=verdict,
            intermediates=intermediates,
            timing_ms=round(elapsed, 3),
        )
    except Exception as exc:  # per-entry failures never abort a batch
        elapsed = (time.perf_counter() - start) * 1000.0
        return Report(
            entry=entry,
            verdict=None,
            timing_ms=round(elapsed, 3),
            error=f"{type(exc).__name__}: {exc}",
        )


def load_catalog(path: str) -> list[CatalogEntry]:
    entries = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CatalogError(f"{path}:{lineno}: malformed JSON ({exc.msg})") from None
            try:
                entries.append(CatalogEntry.from_dict(data))
            except CatalogError as exc:
                raise CatalogError(f"{path}:{lineno}: {exc}") from None
    return entries


def summarize(reports: list[Report]) -> str:
    total = len(reports)
    buckets = {"F-split": 0, "height 2": 0, "not 2-quasi-F-split": 0, "error": 0}
    for report in reports:
        if report.error is not None:
            buckets["error"] += 1
        elif report.verdict.f_split:
            buckets["F-split"] += 1
        elif report.verdict.quasi2:
            buckets["height 2"] += 1
        else:
            buckets["not 2-quasi-F-split"] += 1
    parts = [f"{total} entries"]
    parts.extend(f"{count} {label}" for label, count in buckets.items() if count)
    return ": ".join([parts[0], ", ".join(parts[1:])]) if len(parts) > 1 else parts[0]
