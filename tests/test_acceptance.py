"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every expected value is exact and every runtime bound is asserted.
"""

import json
import random
import subprocess
import sys
import time

from qfsplit.criteria import fedder_test, quasi2_test, supersingular_oracle
from qfsplit.forms import (
    DiffForm,
    bn_membership,
    cartier,
    cartier_exactness,
    serre_map,
    serre_preimage,
    zn_membership,
)
from qfsplit.localcoh import (
    DoubleCover,
    H2Class,
    analyze,
    frobenius_h2,
    frobenius_image_membership,
    normal_form,
    reduce_modulo_cover,
    socle,
    witt_carry_class,
)
from qfsplit.ring import PolyRing
from qfsplit.splitting_oracle import quasi2_cech_oracle, splitting_search
from qfsplit.witt import WittVector, delta_carry, teichmuller_identity_holds

from conftest import random_poly, random_witt

CORPUS = [
    ("A1", 2, "x*y"),
    ("A2", 3, "x^2 + y^3"),
    ("A3", 5, "x^2 + y^4"),
    ("D4", 3, "x^2*y + y^3"),
    ("D5", 2, "x^2*y + y^4"),
    ("E6", 3, "x^3 + y^4"),
    ("E7", 2, "x^3 + x*y^3"),
    ("E8", 5, "x^3 + y^5"),
]


def _cover(p, text):
    return DoubleCover(p, PolyRing(p, ("x", "y")).parse(text))


def test_criterion_01_e6_double_cover_end_to_end():
    start = time.perf_counter()
    ring = PolyRing(3, ("x", "y", "z"))
    assert fedder_test(ring.parse("z^2 + x^3 + y^4")) is False

    cover = _cover(3, "x^3 + y^4")
    assert frobenius_h2(socle(cover), cover).is_zero()

    carry = witt_carry_class(cover)
    assert carry == H2Class(3, {(1, 3, 1): 2})  # 2 = -1 mod 3: -V{z/(x^3 y)}

    membership = frobenius_image_membership(carry, cover)
    assert membership.feasible is False

    verdict = analyze(cover).verdict
    assert verdict.f_split is False
    assert verdict.quasi2 is True
    assert verdict.height_le == 2
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: E6 double cover z^2+x^3+y^4 at p=3 end-to-end ({elapsed:.3f}s)")


def test_criterion_02_carry_polynomial_value():
    ring = PolyRing(3, ("x", "y"))
    assert delta_carry(ring.parse("x^3 + y^4")) == ring.parse("x^6*y^4 + x^3*y^8")
    print("\nACCEPTANCE 2 PASS: carry polynomial of x^3 + y^4 at p=3 is exact")


def test_criterion_03_witt_ring_laws_vs_ghost():
    start = time.perf_counter()
    rng = random.Random(3001)
    combos = [(p, n) for p in (2, 3, 5) for n in (2, 3)]
    counts = [34, 34, 33, 33, 33, 33]  # 200 triples total
    checked = 0
    for (p, n), count in zip(combos, counts):
        ring = PolyRing(p, ("x", "y"))
        for _ in range(count):
            u = random_witt(rng, ring, n)
            v = random_witt(rng, ring, n)
            w = random_witt(rng, ring, n)
            assert (u + v) + w == u + (v + w)
            assert u + v == v + u
            assert (u * v) * w == u * (v * w)
            assert u * v == v * u
            assert u * (v + w) == u * v + u * w
            gu, gv = u.ghost(), v.ghost()
            assert u + v == WittVector.from_ghost(ring, [a + b for a, b in zip(gu, gv)])
            assert u * v == WittVector.from_ghost(ring, [a * b for a, b in zip(gu, gv)])
            vf = u.frobenius().verschiebung()
            assert vf == WittVector.p_element(ring, n + 1) * u.extend(1)
            a = random_poly(rng, ring, max_terms=2, max_exp=2)
            b = random_poly(rng, ring, max_terms=2, max_exp=2)
            lhs = WittVector.teichmuller(a, n) * WittVector.teichmuller(b, n)
            assert lhs == WittVector.teichmuller(a * b, n)
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 200
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 3 PASS: 200 random Witt triples, exact ring laws ({elapsed:.1f}s)")


def test_criterion_04_teichmuller_identity():
    rng = random.Random(3002)
    for p in (2, 3, 5):
        ring = PolyRing(p, ("x", "y"))
        for _ in range(50):
            f = random_poly(rng, ring, max_terms=4, max_exp=3)
            assert teichmuller_identity_holds(f)
    print("\nACCEPTANCE 4 PASS: [f] = f([x]) + V(delta(f)) for 50 random f per p in {2,3,5}")


def test_criterion_05_fermat_cubic_sweep():
    start = time.perf_counter()
    for p in (5, 7, 11, 13):
        ring = PolyRing(p, ("x", "y", "z"))
        f = ring.parse("x^3 + y^3 + z^3")
        split = fedder_test(f)
        assert split == (p % 3 == 1)
        supersingular = supersingular_oracle(p, 0, 1)
        assert supersingular == (p % 3 == 2)
        assert split == (not supersingular)
        assert quasi2_test(f).quasi2 is True
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 5 PASS: Fermat cubic sweep matches point counts ({elapsed:.1f}s)")


def test_criterion_06_cartier_tower_suite():
    rng = random.Random(3003)
    for p in (2, 3, 5):
        ring = PolyRing(p, ("x", "y"))
        for _ in range(20):
            f = DiffForm.from_poly(random_poly(rng, ring, max_terms=4))
            df = f.exterior_derivative()
            assert df.exterior_derivative().is_zero()
            assert cartier(df).is_zero()
        x = ring.gen("x")
        conf = DiffForm.one_form({"x": x ** (p - 1)}, ring)
        assert cartier(conf) == DiffForm.one_form({"x": ring.one()}, ring)
    for p in (2, 3):
        ring = PolyRing(p, ("x", "y"))
        report = cartier_exactness(ring, form_degree=1)  # cap = 4p^2
        assert report["kernel_is_image"] and report["surjective"]
    ring = PolyRing(3, ("x", "y"))
    outcomes = {True: 0, False: 0}
    for _ in range(100):
        omega = DiffForm.from_poly(random_poly(rng, ring, max_terms=3)).exterior_derivative()
        for _ in range(rng.randint(0, 2)):
            idx = rng.randrange(2)
            exps = [3 * rng.randint(0, 1) for _ in range(2)]
            exps[idx] += 2
            omega = omega + DiffForm(
                ring, 1, {(idx,): ring.from_terms({tuple(exps): rng.randint(1, 2)})}
            )
        boundary = cartier(omega).exterior_derivative()
        assert bn_membership(boundary, 1)
        assert zn_membership(omega, 2)[0] == boundary.is_zero()
        outcomes[boundary.is_zero()] += 1
    assert outcomes[True] and outcomes[False]
    print("\nACCEPTANCE 6 PASS: Cartier tower, truncated exactness, and Z_2 kernel lemma")


def test_criterion_07_serre_map_suite():
    rng = random.Random(3004)
    ring = PolyRing(3, ("x", "y"))
    for _ in range(20):
        f = random_poly(rng, ring)
        assert serre_map(WittVector(ring, [f])) == DiffForm.from_poly(f).exterior_derivative()
    for n in (2, 3):
        for _ in range(50):
            w = random_witt(rng, ring, n)
            assert serre_map(w.frobenius()).is_zero()
            assert bn_membership(serre_map(w), n)
    for _ in range(20):
        w = random_witt(rng, ring, 2, max_terms=3, max_exp=3)
        omega = serre_map(w)
        assert serre_map(serre_preimage(omega, 2)) == omega
    print("\nACCEPTANCE 7 PASS: Serre map suite (s = d, s compose F = 0, B_n image, preimages)")


def test_criterion_08_cross_oracle_equivalence():
    # brute-force verdict in Q on all eight covers, plus the direct graded
    # splitting search where its p^4-sized window is tractable
    primal_subset = {"A1", "D5", "E7", "E6"}
    results = []
    for name, p, text in CORPUS:
        cover = _cover(p, text)
        engine = analyze(cover).verdict.quasi2
        assert quasi2_cech_oracle(cover) == engine, f"{name} p={p} (Cech)"
        if name in primal_subset:
            assert splitting_search(cover) == engine, f"{name} p={p} (splitting search)"
        results.append((name, engine))
    assert len(results) == 8
    print(
        "\nACCEPTANCE 8 PASS: engine agrees with the Cech oracle on all 8 covers"
        " and with the direct splitting search on the small-prime subset"
    )


def test_criterion_09_splitting_independence():
    # wherever the socle dies, split the reduced z^p numerator N = P + (N - P)
    # with P the terms divisible by x^p, or by y^p: the Witt addition defect
    # delta(N) - delta(P) - delta(N - P) has the class witt_carry_class gives
    checked = []
    for name, p, text in CORPUS:
        cover = _cover(p, text)
        if not frobenius_h2(socle(cover), cover).is_zero():
            continue  # F-split: no carry is defined
        ring = cover.ring_xyz
        numerator = reduce_modulo_cover(ring.gen("z") ** p, cover)
        carry = witt_carry_class(cover)
        for axis in (0, 1):
            part = ring.from_terms(
                {exps: c for exps, c in numerator.term_map().items() if exps[axis] >= p}
            )
            defect = delta_carry(numerator) - delta_carry(part) - delta_carry(numerator - part)
            assert normal_form(defect, (p * p, p * p), cover) == carry, f"{name} p={p}"
        checked.append(name)
    assert checked == ["D5", "E6", "E7", "E8"]
    print("\nACCEPTANCE 9 PASS: the carry class is the addition defect of both x/y splits")


def test_criterion_10_cli_determinism_and_golden(tmp_path):
    catalog = "src/qfsplit/data/catalog.jsonl"
    runs = []
    for which in ("a", "b"):
        out = tmp_path / f"{which}.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "qfsplit.cli", "batch", catalog, "-o", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        runs.append(out.read_bytes())
    assert runs[0] == runs[1]
    with open("tests/golden/bundled_catalog.jsonl", "rb") as handle:
        golden = handle.read()
    assert runs[0] == golden
    e6_line = next(
        json.loads(line)
        for line in golden.decode().splitlines()
        if json.loads(line)["entry"]["name"] == "rdp-e6-p3"
    )
    assert e6_line["verdict"] == {"f_split": False, "quasi2": True, "height_le": 2}
    print("\nACCEPTANCE 10 PASS: byte-identical batch runs matching the golden file")


def test_criterion_10_explain_certificates_golden(tmp_path):
    # pins socle_image, carry and the membership certificate (bound,
    # escalations, coefficients, witness_row) of every catalog entry
    out = tmp_path / "explain.jsonl"
    proc = subprocess.run(
        [
            sys.executable, "-m", "qfsplit.cli", "batch", "--explain",
            "src/qfsplit/data/catalog.jsonl", "-o", str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    with open("tests/golden/bundled_catalog_explain.jsonl", "rb") as handle:
        assert out.read_bytes() == handle.read()
    print("\nACCEPTANCE 10 PASS: --explain certificates match the golden file")
