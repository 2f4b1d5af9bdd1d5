import json
import os
import sys
from collections import Counter

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

import workloads  # noqa: E402
from qfsplit.linalg import GaussianBasis, _rhs_block, solve  # noqa: E402
from qfsplit.localcoh import DoubleCover, analyze, reduce_modulo_cover  # noqa: E402
from qfsplit.ring import PolyRing  # noqa: E402
from qfsplit.splitting_oracle import (  # noqa: E402
    NotQuasiHomogeneousError,
    ShallowWindowError,
    _CechLevels,
    _k2_reducer,
    _k2_row,
    _k2_rows_holding,
    _module_moves,
    _monomials_of_weight_at_most,
    _shift,
    _splitting_system,
    _times_generator,
    _weighted_degree,
    _z_power_normal_form,
    quasi2_cech_oracle,
    quasi_homogeneous_weights,
    splitting_search,
)
from qfsplit.witt import delta_carry  # noqa: E402

# Quasi-homogeneous rational-double-point shaped covers with a spread of
# verdicts: F-split, height exactly 2, and beyond height 2.
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


def make_cover(p, text):
    return DoubleCover(p, PolyRing(p, ("x", "y")).parse(text))


@pytest.mark.parametrize("name,p,text", CORPUS)
def test_engine_agrees_with_cech_oracle(name, p, text):
    cover = make_cover(p, text)
    engine = analyze(cover).verdict.quasi2
    oracle = quasi2_cech_oracle(cover)
    assert engine == oracle, f"{name} at p={p}: engine {engine} vs oracle {oracle}"


def test_corpus_exercises_all_verdict_classes():
    heights = set()
    for _name, p, text in CORPUS:
        verdict = analyze(make_cover(p, text)).verdict
        heights.add(verdict.height_le)
    assert heights == {1, 2, None}


def test_fedder_agrees_with_socle_route():
    # z^2 + g run through the hypersurface power criterion must match the
    # socle-survival answer of the local-cohomology engine
    from qfsplit.criteria import fedder_test

    for _name, p, text in CORPUS:
        cover = make_cover(p, text)
        f = PolyRing(p, ("x", "y", "z")).parse(f"z^2 + {text}")
        assert fedder_test(f) == analyze(cover).verdict.f_split


def test_oracle_on_e6_cover_is_positive():
    assert quasi2_cech_oracle(make_cover(3, "x^3 + y^4")) is True


def test_oracle_detects_vanishing():
    assert quasi2_cech_oracle(make_cover(2, "x^3 + y^5")) is False


class TestWeights:
    def test_known_weight_systems(self):
        assert quasi_homogeneous_weights(make_cover(2, "x*y")) == (1, 1, 1)
        assert quasi_homogeneous_weights(make_cover(3, "x^3 + y^4")) == (4, 3, 6)
        assert quasi_homogeneous_weights(make_cover(2, "x^3 + x*y^3")) == (6, 4, 9)
        assert quasi_homogeneous_weights(make_cover(3, "x^2*y + y^3")) == (2, 2, 3)

    def test_inhomogeneous_rejected(self):
        with pytest.raises(NotQuasiHomogeneousError):
            quasi_homogeneous_weights(make_cover(3, "x^2 + x^3 + y^4"))


class TestPrimalSplittingSearch:
    """Solve for the graded splitting homomorphism directly.

    Window sizes grow like p^4, so this route runs on the small-prime
    corpus entries; the Cech oracle covers the rest.
    """

    @pytest.mark.parametrize(
        "name,p,text",
        [
            ("A1", 2, "x*y"),
            ("D5", 2, "x^2*y + y^4"),
            ("E7", 2, "x^3 + x*y^3"),
            ("E6", 3, "x^3 + y^4"),
            ("A2", 3, "x^2 + y^3"),
            ("D4", 3, "x^2*y + y^3"),
        ],
    )
    def test_agrees_with_engine(self, name, p, text):
        cover = make_cover(p, text)
        assert splitting_search(cover) == analyze(cover).verdict.quasi2

    def test_window_below_w_z_is_refused(self):
        # z^2 + x^3 + y^7 at p = 2 has weights (14, 6, 21): the window
        # 4p^2 = 16 holds no z, so the search's block would be phi's column
        # alone and answer True, while the cover is not 2-quasi-F-split
        cover = make_cover(2, "x^3 + y^7")
        assert quasi_homogeneous_weights(cover)[2] > 4 * 2 * 2
        assert analyze(cover).verdict.quasi2 is False
        with pytest.raises(ShallowWindowError):
            splitting_search(cover)
        assert issubclass(ShallowWindowError, ValueError)


SEARCH_CASES = [
    ("A1", 2, "x*y"),
    ("D5", 2, "x^2*y + y^4"),
    ("E7", 2, "x^3 + x*y^3"),
    ("E6", 3, "x^3 + y^4"),
]


def full_window_system(cover):
    """Every equation of the search's window, with rows named (equation
    counter, R-monomial): the whole system whose phi block
    ``_splitting_system`` builds.  Returns the unknowns in repr order, their
    columns and the right-hand side."""
    p = cover.p
    weights = quasi_homogeneous_weights(cover)
    degree_cap = 4 * p * p
    q_cap = p * p * degree_cap
    zp = _z_power_normal_form(cover)
    slot0_window = _monomials_of_weight_at_most(weights, q_cap // p)
    k2 = _k2_reducer(p, zp, slot0_window)
    move = _module_moves(cover, k2, zp)

    def q_degree(slot, exps):
        return (p if slot == "0" else 1) * _weighted_degree(exps, weights)

    slot0 = [m for m in slot0_window if q_degree("0", m) % (p * p) == 0]
    slot1 = [
        m
        for m in _monomials_of_weight_at_most(weights, q_cap)
        if q_degree("1", m) % (p * p) == 0 and m not in k2.rows
    ]

    def r_basis(degree):
        return [
            m
            for m in _monomials_of_weight_at_most(weights, degree)
            if _weighted_degree(m, weights) == degree
        ]

    columns = {
        ((slot, b), r): {}
        for slot, basis in (("0", slot0), ("1", slot1))
        for b in basis
        for r in r_basis(q_degree(slot, b) // (p * p))
    }

    def add_term(row_key, unknown_key, coeff):
        if unknown_key not in columns:
            return
        column = columns[unknown_key]
        value = (column.get(row_key, 0) + coeff) % p
        if value:
            column[row_key] = value
        elif row_key in column:
            del column[row_key]

    neg_g = cover.neg_g.term_map()
    cid = 0
    for slot, basis in (("0", slot0), ("1", slot1)):
        for b in basis:
            source_degree = q_degree(slot, b) // (p * p)
            for index in range(3):
                if source_degree + weights[index] > degree_cap:
                    continue
                for (mslot, mb), coeff in move(slot, b, index).items():
                    for r in r_basis(q_degree(mslot, mb) // (p * p)):
                        add_term((cid, r), ((mslot, mb), r), coeff)
                for r in r_basis(source_degree):
                    for exps, c in _times_generator(r, index, neg_g).items():
                        add_term((cid, exps), ((slot, b), r), -c)
                cid += 1
    add_term(("phi", (0, 0, 0)), (("0", (0, 0, 0)), (0, 0, 0)), 1)
    unknowns = sorted(columns, key=repr)
    return unknowns, [columns[key] for key in unknowns], {("phi", (0, 0, 0)): 1}


def row_entries(unknowns, columns):
    """Row name -> the row's entries, a frozenset of (unknown, coefficient)."""
    rows = {}
    for unknown, column in zip(unknowns, columns):
        for key, c in column.items():
            rows.setdefault(key, set()).add((unknown, c))
    return {key: frozenset(row) for key, row in rows.items()}


def row_contents(unknowns, columns, rhs):
    """The system's rows with their names forgotten: a multiset of rows,
    each its entries with its right-hand side."""
    return Counter((row, rhs.get(key, 0)) for key, row in row_entries(unknowns, columns).items())


@pytest.mark.parametrize("name,p,text", SEARCH_CASES)
def test_walked_block_is_the_rhs_block(name, p, text):
    cover = make_cover(p, text)
    unknowns, columns, rhs = full_window_system(cover)
    block = _rhs_block(columns, rhs)
    assert len(block) < len(columns)
    walked = _splitting_system(cover)
    assert set(walked) == {unknowns[j] for j in block}
    # the walked system's right-hand side is phi's row, row 0
    assert row_contents(walked, walked.values(), {0: 1}) == row_contents(
        [unknowns[j] for j in block], [columns[j] for j in block], rhs
    )


@pytest.mark.parametrize("name,p,text", SEARCH_CASES)
def test_search_system_is_in_degree_order(name, p, text):
    # a walked row's degree is that of its R-monomial, read off the row with
    # the same entries in the full window, where rows are named by it
    cover = make_cover(p, text)
    weights = quasi_homogeneous_weights(cover)
    unknowns, columns, _rhs = full_window_system(cover)
    degrees_of = {}
    for (_equation, out), row in row_entries(unknowns, columns).items():
        degrees_of.setdefault(row, set()).add(_weighted_degree(out, weights))
    walked = _splitting_system(cover)
    rows = row_entries(walked, walked.values())
    assert sorted(rows) == list(range(len(rows)))
    row_degrees = []
    for number in sorted(rows):
        (degree,) = degrees_of[rows[number]]
        row_degrees.append(degree)
    assert row_degrees == sorted(row_degrees)
    unit = (("0", (0, 0, 0)), (0, 0, 0))
    assert rows[0] == {(unit, 1)}  # phi's row: alpha(1) = 1
    column_degrees = [_weighted_degree(r, weights) for _source, r in walked]
    assert column_degrees == sorted(column_degrees)
    for degree, column in zip(column_degrees, walked.values()):
        assert all(row_degrees[number] >= degree for number in column)


@pytest.mark.parametrize("name,p,text", SEARCH_CASES + [("E8", 3, "x^3 + y^5")])
def test_search_is_the_span_test_of_its_columns(name, p, text):
    # the reference is the full solver on the same columns, with phi's row
    # as the right-hand side; E8 at p = 3 is infeasible
    cover = make_cover(p, text)
    columns = _splitting_system(cover)
    assert splitting_search(cover) == (solve(list(columns.values()), {0: 1}, p)[0] is not None)


@pytest.mark.parametrize("p", [3, 5])
def test_oracle_on_e12_cover_is_negative(p):
    # z^2 + x^3 + y^7 is not 2-quasi-F-split at p = 3, 5: the engine finds
    # the carry in the Frobenius image, and the oracle must agree
    cover = make_cover(p, "x^3 + y^7")
    assert analyze(cover).verdict.quasi2 is False
    assert quasi2_cech_oracle(cover) is False


# The oracles build their rows and equation terms by re-keying term maps;
# the tests below keep the Poly-product form as the reference.
TABLE_CASES = [("A1", 2, "x*y"), ("E6", 3, "x^3 + y^4"), ("E8", 5, "x^3 + y^5")]


@pytest.mark.parametrize("name,p,text", TABLE_CASES)
def test_k2_rows_are_rekeyed_poly_products(name, p, text):
    cover = make_cover(p, text)
    ring = cover.ring_xyz
    zp = reduce_modulo_cover(ring.gen("z") ** p, cover)
    assert _z_power_normal_form(cover) == zp.term_map()
    monomials = [(u, v, eps) for eps in (0, 1) for u in range(5) for v in range(5)]
    reference = GaussianBasis(p)
    for u, v, eps in monomials:
        body = ring.monomial({"x": p * u, "y": p * v})
        reference.add((body * zp if eps else body).term_map())
    assert _k2_reducer(p, zp.term_map(), monomials).rows == reference.rows


@pytest.mark.parametrize("name,p,text", TABLE_CASES)
def test_generator_table_matches_poly_products(name, p, text):
    cover = make_cover(p, text)
    ring = cover.ring_xyz
    neg_g = cover.neg_g.term_map()
    window = _monomials_of_weight_at_most(quasi_homogeneous_weights(cover), 4 * p * p)
    assert any(eps for _u, _v, eps in window)
    for index, t in enumerate(("x", "y", "z")):
        for r in window:
            product = reduce_modulo_cover(ring.gen(t) * ring.from_terms({r: 1}), cover)
            assert _times_generator(r, index, neg_g) == product.term_map()


def poly_product_coords(cover, k2, a0, a1):
    """Q-coordinates of the class of (a0, a1): slot 0 is nf(a0), slot 1 is
    nf(a1 + delta(nf(a0))) reduced modulo p-th powers."""
    red0 = reduce_modulo_cover(a0, cover)
    out = {("0", exps): c for exps, c in red0.term_map().items()}
    twist = reduce_modulo_cover(a1 + delta_carry(red0), cover)
    for exps, c in k2.reduce(twist.term_map()).items():
        out[("1", exps)] = c
    return out


@pytest.mark.parametrize("name,p,text", TABLE_CASES)
def test_move_table_matches_poly_products(name, p, text):
    cover = make_cover(p, text)
    ring = cover.ring_xyz
    weights = quasi_homogeneous_weights(cover)
    zp = _z_power_normal_form(cover)
    k2 = _k2_reducer(p, zp, _monomials_of_weight_at_most(weights, 4 * p**3))
    move = _module_moves(cover, k2, zp)
    window = _monomials_of_weight_at_most(weights, p * p * max(weights))
    assert any(eps for _u, _v, eps in window)
    zero = ring.zero()
    for index, t in enumerate(("x", "y", "z")):
        for b in window:
            body = ring.from_terms({b: 1})
            slot0 = poly_product_coords(cover, k2, ring.gen(t) ** p * body, zero)
            assert move("0", b, index) == slot0
            slot1 = poly_product_coords(cover, k2, zero, ring.gen(t) ** (p * p) * body)
            assert move("1", b, index) == slot1


# covers that pass the slot-0 test at both levels with a nonzero delta twist;
# at p = 3 two terms of x^3 + y^6 + x^2 y^3 are congruent mod p, so chains of
# K_2 rows reach past the rows that hold the twist's own keys
CECH_CASES = [
    ("E6", 3, "x^3 + y^4"),
    ("E8", 5, "x^3 + y^5"),
    ("E12", 5, "x^3 + y^7"),
    ("x3+y6+x2y3", 3, "x^3 + y^6 + x^2*y^3"),
]


def slot_range_keys(p, shift, box_x, box_y):
    """Every key of the two slot ranges of the level at ``shift``."""
    slot_shift = p * p * (1 + shift)
    return {
        (sx + a, sy + b, w)
        for sx, sy in ((slot_shift, 0), (0, slot_shift))
        for w in (0, 1)
        for a in range(max(0, box_x - sx) + 1)
        for b in range(max(0, box_y - sy) + 1)
    }


def full_box_monomials(na, nb):
    return [(a, b, w) for w in (0, 1) for a in range(na) for b in range(nb)]


def full_box_reducer(levels, na, nb):
    return _k2_reducer(levels.cover.p, levels.zp, full_box_monomials(na, nb))


def scanned_component(levels, support, na, nb):
    """The raw-row component of the support's keys by repeated scans of
    every K_2 row of the box."""
    p = levels.cover.p
    rows = {m: _k2_row(p, levels.zp, *m) for m in full_box_monomials(na, nb)}
    keys, labels = set(support), set()
    while True:
        touching = {m for m, row in rows.items() if not keys.isdisjoint(row)}
        if touching == labels:
            return keys, labels
        labels = touching
        keys |= {key for m in labels for key in rows[m]}


@pytest.mark.parametrize("name,p,text", CECH_CASES)
def test_component_basis_reduces_like_the_full_box(name, p, text):
    levels = _CechLevels(make_cover(p, text))
    base = p * p - p
    for shift in (base, base + p):
        support, box_x, box_y, (na, nb) = levels.box(shift)
        component, labels = levels.component(support, na, nb)
        assert (component, labels) == scanned_component(levels, support, na, nb)
        local = _k2_reducer(p, levels.zp, sorted(labels))
        fresh = full_box_reducer(levels, na, nb)
        assert local.reduce(support) == fresh.reduce(support)
        assert local.reduce(support)
        keys = component & slot_range_keys(p, shift, box_x, box_y)
        assert keys
        for key in keys:
            assert local.reduce({key: 1}) == fresh.reduce({key: 1})


@pytest.mark.parametrize(
    "p,text", [(2, "x*y"), (2, "x^3 + x*y^3"), (3, "x^3 + y^4"), (3, "x^2*y + y^3"), (5, "x^3 + y^5")]
)
def test_rows_holding_a_key_match_a_box_scan(p, text):
    zp = _z_power_normal_form(make_cover(p, text))
    na, nb = 4, 3
    rows = {
        (a, b, eps): _k2_row(p, zp, a, b, eps)
        for eps in (0, 1)
        for a in range(na)
        for b in range(nb)
    }
    keys = {key for row in rows.values() for key in row}
    keys |= {(x, y, w) for x in range(p * na + 4) for y in range(p * nb + 4) for w in (0, 1)}
    for key in keys:
        scanned = {label for label, row in rows.items() if key in row}
        assert set(_k2_rows_holding(p, zp, key, na, nb)) == scanned


def full_box_vanishes(levels, shift):
    """``_CechLevels.vanishes`` against the K_2 rows of the whole box, with
    every slot-range key as a column and no component filter."""
    p = levels.cover.p
    for u, v, _w in _shift(levels.zp, p * shift, p * shift):
        if u < p * (1 + shift) and v < p * (1 + shift):
            return False
    support, box_x, box_y, (na, nb) = levels.box(shift)
    k2 = full_box_reducer(levels, na, nb)
    target = k2.reduce(support)
    columns = [k2.reduce({key: 1}) for key in sorted(slot_range_keys(p, shift, box_x, box_y))]
    coeffs, _ = solve([col for col in columns if col], target, p)
    return coeffs is not None


@pytest.mark.parametrize("text,answers", [("x^3 + y^4", (False, False)), ("x^3 + y^7", (True, True))])
def test_component_levels_answer_like_the_full_box(text, answers):
    levels = _CechLevels(make_cover(3, text))
    shifts = (6, 9)
    assert tuple(full_box_vanishes(levels, shift) for shift in shifts) == answers
    assert tuple(levels.vanishes(shift) for shift in shifts) == answers


# the doublecover benchmark families at their primes; x^3 + y^6 + x^2 y^3 is
# not quasi-homogeneous, so the engine answers it by bounded membership
DOUBLECOVER_FAMILIES = [
    ("x^4 + y^4", (3, 5, 7, 11, 13, 17, 19, 23)),
    ("x^3 + y^6", (5, 7, 11, 13, 17, 19, 23)),
    ("x^3 + x*y^4", (2, 3, 5, 7, 11)),
    ("x^3 + y^7", (2, 3, 5, 7, 11)),
    ("x^3 + y^6 + x^2*y^3", (2, 3, 5, 7)),
]


@pytest.mark.parametrize(
    "text,p", [(text, p) for text, primes in DOUBLECOVER_FAMILIES for p in primes]
)
def test_cech_oracle_agrees_with_engine_on_doublecover_families(text, p):
    cover = make_cover(p, text)
    assert quasi2_cech_oracle(cover) == analyze(cover).verdict.quasi2


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cech_oracle_agrees_with_engine_on_the_doublecover_workload(seed):
    # every non-F-split cover of the benchmark's doublecover workload, with
    # the seed's coefficients; the count pins the test to that workload
    checked, disagreements = 0, []
    for job in workloads.generate("doublecover", seed):
        entry = json.loads(job.spec)
        cover = make_cover(entry["p"], entry["poly"])
        verdict = analyze(cover).verdict
        if verdict.f_split:
            continue
        checked += 1
        if quasi2_cech_oracle(cover) != verdict.quasi2:
            disagreements.append(job.name)
    assert checked == 24
    assert disagreements == []
