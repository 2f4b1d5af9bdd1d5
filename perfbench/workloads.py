"""Seeded benchmark workloads and the independent expectation for every job.

A workload is a fixed list of job *shapes* (families, primes, term
supports); the seed only picks coefficients, so the work done is comparable
across seeds.  Every job carries an expectation that does not come from the
code path it measures:

* diagonal sums a_1 x_1^d + ... + a_d x_d^d: the Shioda-Katsura residue
  rule (p = 1 mod d is ordinary, otherwise supersingular);
* Hesse cubics x^3 + y^3 + z^3 + l*xyz: a projective point count done here
  (F-split iff #E(F_p) != 1 mod p; singular members are never generated);
* simple-elliptic covers z^2 + a x^4 + b y^4 and z^2 + a x^3 + b y^6: the
  same rule with p mod 4 and p mod 3;
* bundled-catalog lines: byte equality with the golden report lines;
* the remaining covers: the verdict on which the double-cover engine and
  the hypersurface criterion on z^2 + g agree, pinned in ``PINNED`` below
  (``test_perfbench.py`` re-derives the agreement).  Their coefficients come
  from a seeded change of coordinates x -> a x, y -> b y, z -> c z, which
  keeps the isomorphism class and hence the verdict.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Any

from qfsplit import localcoh, report, ring, splitting_oracle, witt

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CATALOG = os.path.join(SRC, "qfsplit", "data", "catalog.jsonl")
GOLDEN = os.path.join(ROOT, "tests", "golden", "bundled_catalog.jsonl")

WORKLOADS = ("hypersurface", "doublecover", "cross-check")

# (f_split, quasi2, height_le) triples
SPLIT = (True, True, 1)
HEIGHT2 = (False, True, 2)
BEYOND2 = (False, False, None)

# Terms (coefficient, x-exponent, y-exponent) of the non-diagonal covers.
COVERS = {
    "A1": ((1, 1, 1),),
    "D5": ((1, 2, 1), (1, 0, 4)),
    "E6": ((1, 3, 0), (1, 0, 4)),
    "E7": ((1, 3, 0), (1, 1, 3)),
    "E8": ((1, 3, 0), (1, 0, 5)),
    "x3+xy4": ((1, 3, 0), (1, 1, 4)),
    "E12": ((1, 3, 0), (1, 0, 7)),
    "x3+y6+x2y3": ((1, 3, 0), (1, 0, 6), (1, 2, 3)),
}

# Verdicts of z^2 + g on which localcoh.analyze and criteria.quasi2_test
# agree.  D5 here is the corpus entry x^2 y + y^4, which is not an isolated
# singularity at p = 2; the pin records what both routes say about it.
PINNED = {
    ("A1", 2): SPLIT,
    ("D5", 2): BEYOND2,
    ("E6", 3): HEIGHT2,
    ("E7", 2): BEYOND2,
    ("E8", 5): HEIGHT2,
    ("x3+xy4", 2): BEYOND2,
    ("x3+xy4", 3): HEIGHT2,
    ("x3+xy4", 5): SPLIT,
    ("x3+xy4", 7): HEIGHT2,
    ("x3+xy4", 11): HEIGHT2,
    ("E12", 2): BEYOND2,
    ("E12", 3): BEYOND2,
    ("E12", 5): BEYOND2,
    ("E12", 7): BEYOND2,
    ("E12", 11): BEYOND2,
    ("x3+y6+x2y3", 2): BEYOND2,
    ("x3+y6+x2y3", 3): BEYOND2,
    ("x3+y6+x2y3", 5): HEIGHT2,
    ("x3+y6+x2y3", 7): SPLIT,
}

# quasi2_cech_oracle answers True (2-quasi-F-split) on z^2 + x^3 + y^7 at
# p = 3 and 5, where the engine's feasible membership certificate and the
# hypersurface clause both say it is not.  These jobs stay in the workload
# and count as failed; they do not make the run incorrect.
KNOWN_DEFECTS = frozenset({"cech-E12-p3", "cech-E12-p5"})

WITT_LAWS = 8  # checks per Witt job, see _witt_laws
# Fixed supports for the Witt checks: (x, y) exponents per term.
WITT_COMPONENT_SHAPES = (((2, 0), (0, 1)), ((1, 1), (0, 2)), ((1, 0), (1, 2)))
TEICH_SHAPES = (((1, 0), (0, 2)), ((2, 1), (0, 1)))
IDENTITY_SHAPE = ((3, 0), (1, 2), (0, 3), (2, 1))
# Jobs per (p, length) case.  The p = 5, length 3 group is the largest so
# that entry_tail_ms falls in its middle, not at the edge of a group.
WITT_CASES = {(2, 2): 8, (2, 3): 8, (3, 2): 8, (3, 3): 8, (5, 2): 8, (5, 3): 12}


@dataclass(frozen=True)
class Job:
    """One unit of work and the answer it must produce.

    ``kind`` is "entry" (a catalog line through ``report.run_entry``),
    "witt" (ring laws and the Teichmuller identity), "cech" or "search"
    (the two double-cover oracles).  ``spec`` holds the plain inputs and
    ``expect`` the expected verdict triple, golden line, or oracle answer.
    """

    name: str
    kind: str
    spec: Any
    expect: Any


def _coefficient(rng: random.Random, p: int) -> int:
    return rng.randint(1, p - 1)


def _render(terms, names) -> str:
    parts = []
    for coeff, *exps in terms:
        factors = [
            name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e
        ]
        parts.append("*".join([str(coeff)] + factors))
    return " + ".join(parts)


def diagonal(rng: random.Random, p: int, degree: int) -> str:
    names = ("x", "y", "z", "w")[:degree]
    terms = []
    for i in range(degree):
        exps = [0] * degree
        exps[i] = degree
        terms.append((_coefficient(rng, p), *exps))
    return _render(terms, names)


def diagonal_expectation(p: int, degree: int) -> tuple:
    """Shioda-Katsura: degree-d Fermat in d variables is ordinary iff
    p = 1 mod d; otherwise (for d = 3, 4) p = -1 mod d and it is
    supersingular, of height 2 for the elliptic curve and beyond 2 for the
    quartic K3 surface."""
    if p % degree == 1:
        return SPLIT
    return HEIGHT2 if degree == 3 else BEYOND2


def hesse_points(p: int, lam: int) -> int:
    """Number of F_p-points of the projective curve x^3 + y^3 + z^3 + lam*xyz."""
    affine = 0
    for x in range(p):
        for y in range(p):
            for z in range(p):
                if (x * x * x + y * y * y + z * z * z + lam * x * y * z) % p == 0:
                    affine += 1
    return (affine - 1) // (p - 1)


def hesse_singular(p: int, lam: int) -> bool:
    return (lam * lam * lam - 27) % p == 0


def scaled_cover(rng: random.Random, p: int, family: str) -> str:
    """g(a x, b y) / c^2 for seeded units a, b, c: z^2 + g is isomorphic."""
    a, b, c = (_coefficient(rng, p) for _ in range(3))
    inv_c2 = pow(c * c, -1, p)
    terms = [
        (coeff * pow(a, i, p) * pow(b, j, p) * inv_c2 % p, i, j)
        for coeff, i, j in COVERS[family]
    ]
    return _render(terms, ("x", "y"))


def _line(name: str, p: int, kind: str, poly: str) -> str:
    return json.dumps({"name": name, "p": p, "kind": kind, "poly": poly, "tags": []})


def _catalog_jobs(kind: str) -> list[Job]:
    with open(CATALOG, encoding="utf-8") as handle:
        lines = [line.strip() for line in handle if line.strip()]
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = [line.rstrip("\n") for line in handle if line.strip()]
    if len(lines) != len(golden):
        raise ValueError("bundled catalog and golden file differ in length")
    jobs = []
    for line, expected in zip(lines, golden):
        data = json.loads(line)
        if data["kind"] == kind:
            jobs.append(Job(f"catalog-{data['name']}", "entry", line, expected))
    return jobs


def hypersurface(rng: random.Random) -> list[Job]:
    jobs = []
    for p, count in ((2, 1), (5, 3), (7, 3), (11, 3), (13, 3)):
        for k in range(count):
            name = f"diag3-p{p}-{k}"
            line = _line(name, p, "hypersurface", diagonal(rng, p, 3))
            jobs.append(Job(name, "entry", line, diagonal_expectation(p, 3)))
    # Per prime: how many ordinary and supersingular members to draw.  The
    # supersingular members at p = 11 are left out: each alone costs more
    # than the rest of the workload, by an amount that depends on lambda.
    for p, ordinary, supersingular in ((5, 2, 1), (7, 3, 0), (11, 3, 0)):
        classes = {True: [], False: []}
        for lam in range(1, p):
            if not hesse_singular(p, lam):
                classes[hesse_points(p, lam) % p != 1].append(lam)
        picks = [(lam, True) for lam in rng.sample(classes[True], ordinary)]
        picks += [(lam, False) for lam in rng.sample(classes[False], supersingular)]
        for k, (lam, split) in enumerate(picks):
            name = f"hesse-p{p}-{k}"
            poly = f"x^3 + y^3 + z^3 + {lam}*x*y*z"
            line = _line(name, p, "hypersurface", poly)
            jobs.append(Job(name, "entry", line, SPLIT if split else HEIGHT2))
    for p in (3, 5, 7):
        for k in range(2):
            name = f"diag4-p{p}-{k}"
            line = _line(name, p, "hypersurface", diagonal(rng, p, 4))
            jobs.append(Job(name, "entry", line, diagonal_expectation(p, 4)))
    return jobs + _catalog_jobs("hypersurface")


def doublecover(rng: random.Random) -> list[Job]:
    jobs = []
    for degrees, modulus, primes in (
        ((4, 4), 4, (3, 5, 7, 11, 13, 17, 19, 23)),
        ((3, 6), 3, (5, 7, 11, 13, 17, 19, 23)),
    ):
        for p in primes:
            name = f"se{degrees[0]}{degrees[1]}-p{p}"
            terms = ((_coefficient(rng, p), degrees[0], 0), (_coefficient(rng, p), 0, degrees[1]))
            line = _line(name, p, "doublecover", _render(terms, ("x", "y")))
            jobs.append(Job(name, "entry", line, SPLIT if p % modulus == 1 else HEIGHT2))
    for family, primes in (
        ("x3+xy4", (2, 3, 5, 7, 11)),
        ("E12", (2, 3, 5, 7, 11)),
        ("x3+y6+x2y3", (2, 3, 5, 7)),
    ):
        for p in primes:
            name = f"{family}-p{p}"
            line = _line(name, p, "doublecover", scaled_cover(rng, p, family))
            jobs.append(Job(name, "entry", line, PINNED[(family, p)]))
    return jobs + _catalog_jobs("doublecover")


def _shaped(rng: random.Random, p: int, shape) -> dict:
    return {exps: _coefficient(rng, p) for exps in shape}


def cross_check(rng: random.Random) -> list[Job]:
    jobs = []
    for (p, n), count in WITT_CASES.items():
        for k in range(count):
            spec = {
                "p": p,
                "vectors": [
                    [_shaped(rng, p, WITT_COMPONENT_SHAPES[i]) for i in range(n)]
                    for _ in range(3)
                ],
                "teich": [_shaped(rng, p, shape) for shape in TEICH_SHAPES],
                "identity": _shaped(rng, p, IDENTITY_SHAPE),
            }
            jobs.append(Job(f"witt-p{p}-n{n}-{k}", "witt", spec, "1" * WITT_LAWS))
    for family, p in (("D5", 2), ("E6", 3), ("E7", 2), ("E8", 5), ("E12", 2), ("E12", 3), ("E12", 5)):
        spec = (p, scaled_cover(rng, p, family))
        jobs.append(Job(f"cech-{family}-p{p}", "cech", spec, PINNED[(family, p)][1]))
    for family, p in (("A1", 2), ("D5", 2), ("E7", 2), ("E6", 3)):
        spec = (p, scaled_cover(rng, p, family))
        jobs.append(Job(f"search-{family}-p{p}", "search", spec, PINNED[(family, p)][1]))
    return jobs


_GENERATORS = {"hypersurface": hypersurface, "doublecover": doublecover, "cross-check": cross_check}


def generate(workload: str, seed: int) -> list[Job]:
    """The workload's jobs for ``seed``: same names and shapes for every seed."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def prepare(job: Job):
    """Build the job's input objects (part of set-up, never timed per job)."""
    if job.kind == "entry":
        return report.CatalogEntry.from_dict(json.loads(job.spec))
    if job.kind == "witt":
        xy = ring.PolyRing(job.spec["p"], ("x", "y"))
        vectors = [
            witt.WittVector(xy, [xy.from_terms(c) for c in comps])
            for comps in job.spec["vectors"]
        ]
        teich = [xy.from_terms(t) for t in job.spec["teich"]]
        return vectors, teich, xy.from_terms(job.spec["identity"])
    p, g = job.spec
    return localcoh.DoubleCover(p, ring.PolyRing(p, ("x", "y")).parse(g))


def _witt_laws(vectors, teich, identity) -> str:
    u, v, w = vectors
    n = u.n
    vector = witt.WittVector
    a, b = teich
    checks = (
        (u + v) + w == u + (v + w),
        u + v == v + u,
        (u * v) * w == u * (v * w),
        u * v == v * u,
        u * (v + w) == u * v + u * w,
        u.frobenius().verschiebung() == vector.p_element(u.ring, n + 1) * u.extend(1),
        vector.teichmuller(a, n) * vector.teichmuller(b, n) == vector.teichmuller(a * b, n),
        witt.teichmuller_identity_holds(identity),
    )
    return "".join("1" if ok else "0" for ok in checks)


def execute(job: Job, prepared):
    """Run the job through the package's public API; returns its output.

    Functions are looked up on their modules at call time, so the wrappers
    of ``tracing.install`` see every call.
    """
    if job.kind == "entry":
        return report.run_entry(prepared).to_json()
    if job.kind == "witt":
        return _witt_laws(*prepared)
    if job.kind == "cech":
        return splitting_oracle.quasi2_cech_oracle(prepared)
    return splitting_oracle.splitting_search(prepared)


def check(job: Job, output) -> bool:
    """Does the output match the job's independent expectation?"""
    if job.kind != "entry" or isinstance(job.expect, str):
        return output == job.expect
    data = json.loads(output)
    verdict = data["verdict"]
    if data["error"] is not None or verdict is None:
        return False
    return (verdict["f_split"], verdict["quasi2"], verdict["height_le"]) == job.expect
