import json
import os
import subprocess
import sys
from collections import Counter

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

import workloads  # noqa: E402
from qfsplit import splitting_oracle  # noqa: E402
from qfsplit.linalg import GaussianBasis, _rhs_block, block, solve  # noqa: E402
from qfsplit.localcoh import DoubleCover, analyze, reduce_modulo_cover  # noqa: E402
from qfsplit.ring import PolyRing  # noqa: E402
from qfsplit.splitting_oracle import (  # noqa: E402
    NotQuasiHomogeneousError,
    ShallowWindowError,
    _delta_normal_form,
    _k2_reducer,
    _k2_row,
    _k2_rows_holding,
    _module_moves,
    _monomials_of_weight_at_most,
    _pack,
    _preimages,
    _shift,
    _splitting_system,
    _times_generator,
    _unpack,
    _weighted_degree,
    _width,
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
            # g's exponent 32 (64) is past the window bound 4p^2
            ("A31", 2, "x^2 + y^32"),
            ("A63", 3, "x^2 + y^64"),
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


def times_generator(cover, r, index):
    """``_times_generator`` on the tuple monomial r, read back as a term map
    on tuple keys."""
    width = _width(cover)
    neg_g = {_pack(m, width): c for m, c in cover.neg_g.term_map().items()}
    image = _times_generator(_pack(r, width), index, neg_g, width)
    return {_unpack(key, width): c for key, c in image.items()}


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
                    for exps, c in times_generator(cover, r, index).items():
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
    # after phi's row, fewest entries first within each degree
    counts = [(row_degrees[number], len(rows[number])) for number in sorted(rows)[1:]]
    assert counts == sorted(counts)
    unit = (("0", (0, 0, 0)), (0, 0, 0))
    assert rows[0] == {(unit, 1)}  # phi's row: alpha(1) = 1
    column_degrees = [_weighted_degree(r, weights) for _source, r in walked]
    assert column_degrees == sorted(column_degrees)
    for degree, column in zip(column_degrees, walked.values()):
        assert all(row_degrees[number] >= degree for number in column)


def test_search_system_does_not_depend_on_the_hash_seed():
    # the columns, their order and their row numbers are the same under two
    # hash seeds, so the elimination meets the same pivots
    script = (
        "from qfsplit.localcoh import DoubleCover\n"
        "from qfsplit.ring import PolyRing\n"
        "from qfsplit.splitting_oracle import _splitting_system\n"
        "for p, g in ((3, 'x^3 + y^4'), (2, 'x*y')):\n"
        "    cover = DoubleCover(p, PolyRing(p, ('x', 'y')).parse(g))\n"
        "    print(repr(list(_splitting_system(cover).items())))\n"
    )
    package = os.path.dirname(os.path.abspath(splitting_oracle.__file__))
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.path.dirname(package))
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        outputs.append(run.stdout)
    assert outputs[0].count("\n") == 2
    # a set, not ==: pytest's diff of two unequal outputs this long runs
    # for minutes
    assert len(set(outputs)) == 1


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
TABLE_CASES = [
    ("A1", 2, "x*y"),
    ("E6", 3, "x^3 + y^4"),
    ("E8", 5, "x^3 + y^5"),
    # an exponent of g past the window bound 4p^2
    ("A31", 2, "x^2 + y^32"),
    ("A63", 3, "x^2 + y^64"),
]


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
    window = _monomials_of_weight_at_most(quasi_homogeneous_weights(cover), 4 * p * p)
    assert any(eps for _u, _v, eps in window)
    for index, t in enumerate(("x", "y", "z")):
        for r in window:
            product = reduce_modulo_cover(ring.gen(t) * ring.from_terms({r: 1}), cover)
            assert times_generator(cover, r, index) == product.term_map()


@pytest.mark.parametrize("name,p,text", TABLE_CASES)
def test_preimages_invert_the_generator_table(name, p, text):
    # _preimages(out) lists exactly the r with out in nf(t * r), each with
    # the coefficient of out there
    cover = make_cover(p, text)
    width = _width(cover)
    neg_g = {_pack(m, width): c for m, c in cover.neg_g.term_map().items()}
    window = [_pack(m, width) for m in _monomials_of_weight_at_most(quasi_homogeneous_weights(cover), 4 * p * p)]
    for index in range(3):
        holders = {}
        for r in window:
            for out, c in _times_generator(r, index, neg_g, width).items():
                holders.setdefault(out, {})[r] = c
        for out in window:
            assert dict(_preimages(out, index, neg_g, width)) == holders.get(out, {})


@pytest.mark.parametrize("name,p,text", TABLE_CASES)
def test_packed_monomials_round_trip(name, p, text):
    # weights (1, 1, 1) reach the window's largest exponent, 4p^2; an
    # exponent of nf(t * r) for r in the window reaches 4p^2 plus the largest
    # exponent of g, and those round-trip too and stay below 2^s
    cover = make_cover(p, text)
    width = _width(cover)
    top = 4 * p * p
    past = top + max(max(a, b) for a, b, _w in cover.neg_g.term_map())
    largest = [m for m in _monomials_of_weight_at_most((1, 1, 1), top) if sum(m) == top]
    for m in largest + [(past, 0, 0), (0, past, 1), (past, past, 1)]:
        key = _pack(m, width)
        assert _unpack(key, width) == m
        assert key < 1 << 2 * width + 1


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


# covers that pass the slot-0 test with a nonzero delta twist; the twists of
# E12 and x^3 + y^6 + x^2 y^3 lie in the slot ideal at both levels, that of
# x^3 + y^3 vanishes at both only with the K_2 rows
CECH_CASES = [
    ("E6", 3, "x^3 + y^4"),
    ("E8", 5, "x^3 + y^5"),
    ("E12", 5, "x^3 + y^7"),
    ("x3+y6+x2y3", 3, "x^3 + y^6 + x^2*y^3"),
    ("x3+y3", 3, "x^3 + y^3"),
]


def quotient_system(cover, shift):
    """The Cech system at ``shift`` (the oracle's level is shift p^2) in the
    quotient by its slot ideal (x^T, y^T), T = p^2 (1 + shift): nf(z^p), the
    delta twist shifted by (xy)^{p^2 shift}, every K_2 row with u, v < T/p,
    each with its terms in the ideal dropped, and the projection."""
    p = cover.p
    bound = p * p * (1 + shift)

    def below(terms):
        return {key: c for key, c in terms.items() if key[0] < bound and key[1] < bound}

    zp = _z_power_normal_form(cover)
    s = p * p * shift
    twist = below(_shift(_delta_normal_form(cover, zp), s, s))
    rows = {
        (u, v, eps): below(_k2_row(p, zp, u, v, eps))
        for eps in (0, 1)
        for u in range(bound // p)
        for v in range(bound // p)
    }
    return zp, twist, rows, below


def span_of(p, rows):
    span = GaussianBasis(p)
    for label in sorted(rows):
        span.add(rows[label])
    return span


def scanned_component(keys, rows):
    """The raw-row component of keys, and its labels, by repeated scans of
    every row."""
    keys, labels = set(keys), set()
    while True:
        touching = {m for m, row in rows.items() if not keys.isdisjoint(row)}
        if touching == labels:
            return keys, labels
        labels = touching
        keys |= {key for m in labels for key in rows[m]}


@pytest.mark.parametrize("name,p,text", CECH_CASES)
def test_component_basis_reduces_like_the_full_box(name, p, text):
    # the oracle's block, walked by the boundless _k2_rows_holding, is the
    # twist's component among all the rows of the quotient, and reduces as
    # all of them do
    cover = make_cover(p, text)
    zp, twist, all_rows, below = quotient_system(cover, p * p)
    rows, component = block(
        twist,
        lambda key: _k2_rows_holding(p, zp, key),
        lambda label: below(_k2_row(p, zp, *label)),
    )
    assert (component, set(rows)) == scanned_component(twist, all_rows)
    local, whole = span_of(p, rows), span_of(p, all_rows)
    assert local.reduce(twist) == whole.reduce(twist)
    assert bool(local.reduce(twist)) is quasi2_cech_oracle(cover)
    for key in component:
        assert local.reduce({key: 1}) == whole.reduce({key: 1})


@pytest.mark.parametrize(
    "p,text", [(2, "x*y"), (2, "x^3 + x*y^3"), (3, "x^3 + y^4"), (3, "x^2*y + y^3"), (5, "x^3 + y^5")]
)
def test_rows_holding_a_key_match_a_box_scan(p, text):
    # a key (x, y, w) is held only by rows with u <= x/p and v <= y/p, so the
    # rows with u < na and v < nb hold every key with x < p na and y < p nb
    zp = _z_power_normal_form(make_cover(p, text))
    na, nb = 4, 3
    rows = {
        (a, b, eps): _k2_row(p, zp, a, b, eps)
        for eps in (0, 1)
        for a in range(na)
        for b in range(nb)
    }
    keys = {(x, y, w) for x in range(p * na) for y in range(p * nb) for w in (0, 1)}
    assert keys & {key for row in rows.values() for key in row}
    for key in keys:
        scanned = {label for label, row in rows.items() if key in row}
        assert set(_k2_rows_holding(p, zp, key)) == scanned


def quotient_vanishes(cover, shift):
    """Does the socle class vanish at the level of ``shift``?  Tested against
    every K_2 row of the quotient by the slot ideal, with no block walk."""
    p = cover.p
    for u, v, _w in _shift(_z_power_normal_form(cover), p * shift, p * shift):
        if u < p * (1 + shift) and v < p * (1 + shift):
            return False
    _zp, twist, rows, _below = quotient_system(cover, shift)
    return span_of(p, rows).contains(twist)


@pytest.mark.parametrize("text,answers", [("x^3 + y^4", (False, False)), ("x^3 + y^7", (True, True))])
def test_component_levels_answer_like_the_full_box(text, answers):
    # answers: does the class vanish at the shallow shift p^2 - p = 6, kept
    # here as a reference, and at the oracle's shift p^2 = 9
    cover = make_cover(3, text)
    assert tuple(quotient_vanishes(cover, shift) for shift in (6, 9)) == answers
    assert quasi2_cech_oracle(cover) is not answers[1]


def test_shallow_level_is_subsumed():
    # the oracle tests shift p^2 alone; wherever the class vanishes one step
    # shallower, at p^2 - p, it vanishes at p^2 too and the oracle says False
    spanned = 0  # shallow vanishings whose twist is not 0 in the quotient
    for _name, p, text in CECH_CASES:
        cover = make_cover(p, text)
        if quotient_vanishes(cover, p * p - p):
            spanned += bool(quotient_system(cover, p * p - p)[1])
            assert quotient_vanishes(cover, p * p)
            assert quasi2_cech_oracle(cover) is False
    assert spanned


@pytest.mark.parametrize(
    "p,text", [(5, "x^4 + y^4"), (7, "x^3 + y^6"), (17, "16*x^2 + y^2 + 2*x^3 + 16*x^4")]
)
def test_f_split_covers_answer_from_slot_0(monkeypatch, p, text):
    cover = make_cover(p, text)
    assert analyze(cover).verdict.f_split

    def no_delta(_f):
        raise AssertionError("the Cech oracle computed a delta on an F-split cover")

    monkeypatch.setattr(splitting_oracle, "delta_carry", no_delta)
    assert quasi2_cech_oracle(cover) is True


@pytest.mark.parametrize("p,text", [(3, "x^3 + y^4"), (3, "x^3 + y^3"), (5, "x^3 + y^7")])
def test_cech_oracle_never_reads_the_engine_numerator(monkeypatch, p, text):
    # the oracle reduces z^p itself: the engine's cached nf(z^p) stays unread
    expected = analyze(make_cover(p, text)).verdict.quasi2

    def no_numerator(_cover):
        raise AssertionError("the Cech oracle read the engine's frobenius_numerator")

    monkeypatch.setattr(DoubleCover, "frobenius_numerator", no_numerator)
    assert quasi2_cech_oracle(make_cover(p, text)) is expected


# covers whose answer turns on the K_2 rows: the twist lies in the span only
# with them, so a span started without them would answer True
@pytest.mark.parametrize(
    "p,text", [(3, "x^3 + y^3"), (3, "2*x^3 + y^3"), (2, "x^2 + y^2"), (2, "x^2 + x*y^3")]
)
def test_k2_rows_decide_the_cech_answer(p, text):
    cover = make_cover(p, text)
    assert analyze(cover).verdict.quasi2 is False
    assert quasi2_cech_oracle(cover) is False


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cross_check_cech_jobs_give_their_pinned_answers(seed):
    jobs = [job for job in workloads.generate("cross-check", seed) if job.kind == "cech"]
    assert len(jobs) == 7
    failed = [
        job.name for job in jobs if not workloads.check(job, workloads.execute(job, workloads.prepare(job)))
    ]
    assert failed == []


# the doublecover benchmark families at their primes, the two simple-elliptic
# shapes also at 29 and x^3 + y^6 + x^2 y^3 also at 11 and 17; the last is
# not quasi-homogeneous, so the engine answers it by bounded membership
DOUBLECOVER_FAMILIES = [
    ("x^4 + y^4", (3, 5, 7, 11, 13, 17, 19, 23, 29)),
    ("x^3 + y^6", (5, 7, 11, 13, 17, 19, 23, 29)),
    ("x^3 + x*y^4", (2, 3, 5, 7, 11)),
    ("x^3 + y^7", (2, 3, 5, 7, 11)),
    ("x^3 + y^6 + x^2*y^3", (2, 3, 5, 7, 11, 17)),
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
