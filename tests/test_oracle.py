import pytest

from qfsplit.linalg import GaussianBasis
from qfsplit.localcoh import DoubleCover, analyze, reduce_modulo_cover
from qfsplit.ring import PolyRing
from qfsplit.splitting_oracle import (
    NotQuasiHomogeneousError,
    _CechLevels,
    _k2_reducer,
    _module_moves,
    _monomials_of_weight_at_most,
    _times_generator,
    _z_power_normal_form,
    quasi2_cech_oracle,
    quasi_homogeneous_weights,
    splitting_search,
)
from qfsplit.witt import delta_carry

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
        ],
    )
    def test_agrees_with_engine(self, name, p, text):
        cover = make_cover(p, text)
        assert splitting_search(cover) == analyze(cover).verdict.quasi2


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
    window = _monomials_of_weight_at_most(cover, quasi_homogeneous_weights(cover), 4 * p * p)
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
    k2 = _k2_reducer(p, zp, _monomials_of_weight_at_most(cover, weights, 4 * p**3))
    move = _module_moves(cover, k2, zp)
    window = _monomials_of_weight_at_most(cover, weights, p * p * max(weights))
    assert any(eps for _u, _v, eps in window)
    zero = ring.zero()
    for index, t in enumerate(("x", "y", "z")):
        for b in window:
            body = ring.from_terms({b: 1})
            slot0 = poly_product_coords(cover, k2, ring.gen(t) ** p * body, zero)
            assert move("0", b, index) == slot0
            slot1 = poly_product_coords(cover, k2, zero, ring.gen(t) ** (p * p) * body)
            assert move("1", b, index) == slot1


# covers that pass the slot-0 test at both levels with a nonzero delta twist
CECH_CASES = [("E6", 3, "x^3 + y^4"), ("E8", 5, "x^3 + y^5"), ("E12", 5, "x^3 + y^7")]


@pytest.mark.parametrize("name,p,text", CECH_CASES)
def test_grown_cech_basis_reduces_like_a_fresh_one(name, p, text):
    cover = make_cover(p, text)
    base = p * p - p
    levels = _CechLevels(cover)
    for shift in (base, base + p):
        levels.vanishes(shift)
    support, box_x, box_y, (na, nb) = levels.box(base + p)
    assert levels.extent == (na, nb)
    monomials = [(a, b, w) for w in (0, 1) for a in range(na) for b in range(nb)]
    fresh = _k2_reducer(p, levels.zp, monomials)
    assert levels.k2.rank == fresh.rank
    slot_shift = p * p * (1 + base + p)
    keys = list(support) + [
        (sx + a, sy + b, w)
        for sx, sy in ((slot_shift, 0), (0, slot_shift))
        for w in (0, 1)
        for a in range(max(0, box_x - sx) + 1)
        for b in range(max(0, box_y - sy) + 1)
    ]
    for key in keys:
        assert levels.k2.reduce({key: 1}) == fresh.reduce({key: 1})
    assert levels.k2.reduce(support) == fresh.reduce(support)
