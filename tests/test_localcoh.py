import time

import pytest

from qfsplit import linalg
from qfsplit.localcoh import (
    FLAG_SOCLE_CRITERION,
    DoubleCover,
    H2Class,
    SocleSurvivesError,
    analyze,
    frobenius_h2,
    frobenius_image_membership,
    has_isolated_singularity,
    normal_form,
    quasi2_doublecover,
    reduce_modulo_cover,
    socle,
    witt_carry_class,
)
from qfsplit.ring import PolyRing
from qfsplit.witt import WittVector, delta_carry

from conftest import expected_frobenius_numerator
from test_oracle import CORPUS


@pytest.fixture
def e6_p3():
    ring = PolyRing(3, ("x", "y"))
    return DoubleCover(3, ring.parse("x^3 + y^4"))


@pytest.fixture
def a1_p2():
    ring = PolyRing(2, ("x", "y"))
    return DoubleCover(2, ring.parse("x*y"))


def h2(p, *terms):
    return H2Class(p, {key: c for key, c in terms})


class TestDoubleCoverValidation:
    def test_constant_term_rejected(self):
        ring = PolyRing(3, ("x", "y"))
        with pytest.raises(ValueError):
            DoubleCover(3, ring.parse("x + 1"))

    def test_zero_rejected(self):
        ring = PolyRing(3, ("x", "y"))
        with pytest.raises(ValueError):
            DoubleCover(3, ring.zero())


class TestNormalForm:
    def test_cancellation(self, e6_p3):
        got = normal_form(e6_p3.ring_xyz.gen("x"), (2, 1), e6_p3)
        assert got == h2(3, ((0, 1, 1), 1))

    def test_overflow_dies(self, e6_p3):
        got = normal_form(e6_p3.ring_xyz.parse("x^2"), (2, 1), e6_p3)
        assert got.is_zero()

    def test_z_square_reduces_to_zero_class(self, e6_p3):
        got = normal_form(e6_p3.ring_xyz.parse("z^2"), (1, 1), e6_p3)
        assert got.is_zero()

    def test_z_reduction(self, e6_p3):
        reduced = reduce_modulo_cover(e6_p3.ring_xyz.parse("z^3"), e6_p3)
        assert reduced == e6_p3.ring_xyz.parse("2*x^3*z + 2*y^4*z")


class TestFrobenius:
    def test_socle_dies_on_e6_cover(self, e6_p3):
        assert frobenius_h2(socle(e6_p3), e6_p3).is_zero()

    def test_eps0_class(self, e6_p3):
        got = frobenius_h2(h2(3, ((0, 1, 1), 1)), e6_p3)
        assert got == h2(3, ((0, 3, 3), 1))

    def test_a1_socle_survives(self, a1_p2):
        got = frobenius_h2(socle(a1_p2), a1_p2)
        assert got == h2(2, ((0, 1, 1), 1))

    def test_socle_survives_g_x_squared(self):
        ring = PolyRing(3, ("x", "y"))
        cover = DoubleCover(3, ring.parse("x^2"))
        got = frobenius_h2(socle(cover), cover)
        assert got == h2(3, ((1, 1, 3), 2))

    def test_linear(self, rng, e6_p3):
        keys = [(eps, i, j) for eps in (0, 1) for i in (1, 2, 3) for j in (1, 2, 3)]
        for _ in range(10):
            a = H2Class(3, {k: rng.randint(0, 2) for k in rng.sample(keys, 4)})
            b = H2Class(3, {k: rng.randint(0, 2) for k in rng.sample(keys, 4)})
            c = rng.randint(0, 2)
            assert frobenius_h2(a + b, e6_p3) == frobenius_h2(a, e6_p3) + frobenius_h2(b, e6_p3)
            assert frobenius_h2(a.scale(c), e6_p3) == frobenius_h2(a, e6_p3).scale(c)


COVERS = [(3, "x^3 + y^4"), (2, "x*y"), (7, "x^4 + y^4"), (5, "x^3 + y^6 + x^2*y^3")]


@pytest.mark.parametrize("p,g", COVERS)
def test_cached_frobenius_images_match_definition(p, g):
    # F(z^eps/(x^i y^j)) = {z^(p eps)/(x^(pi) y^(pj))}, normalized from scratch
    cover = DoubleCover(p, PolyRing(p, ("x", "y")).parse(g))
    z = cover.ring_xyz.gen("z")
    for eps in (0, 1):
        for i in range(1, 7):
            for j in range(1, 7):
                image = frobenius_h2(h2(p, ((eps, i, j), 1)), cover)
                assert image == normal_form(z ** (p * eps), (p * i, p * j), cover)


@pytest.mark.parametrize("p,g", dict.fromkeys(COVERS + [(p, g) for _, p, g in CORPUS]))
def test_frobenius_numerator_is_reduced_z_p_computed_once(p, g):
    cover = DoubleCover(p, PolyRing(p, ("x", "y")).parse(g))
    numerator = cover.frobenius_numerator()
    assert numerator == reduce_modulo_cover(cover.ring_xyz.gen("z") ** p, cover)
    assert cover.frobenius_numerator() is numerator
    # witt_carry_class reads nf(z^p) as z^eps * h with a single eps
    assert {w for _, _, w in numerator.term_map()} == {0 if p == 2 else 1}
    assert numerator == expected_frobenius_numerator(cover)


class TestSocle:
    def test_value(self, e6_p3):
        assert socle(e6_p3) == h2(3, ((1, 1, 1), 1))
        assert not socle(e6_p3).is_zero()

    def test_divides_every_nonzero_class(self, rng, e6_p3):
        # for random xi there is a ring element r with r * xi = socle; the
        # multiplier is found as an F_p-combination of monomial multiples,
        # each m * xi taken as the normal form of m times xi's numerators
        ring = e6_p3.ring_xyz
        z = ring.gen("z")
        keys = [(eps, i, j) for eps in (0, 1) for i in (1, 2, 3) for j in (1, 2, 3)]
        for _ in range(8):
            terms = {k: rng.randint(0, 2) for k in rng.sample(keys, 3)}
            xi = H2Class(3, terms)
            if xi.is_zero():
                continue
            columns = []
            for u in range(0, 5):
                for v in range(0, 5):
                    for w in (0, 1):
                        m = ring.monomial({"x": u, "y": v}) * z**w
                        column = H2Class.zero(3)
                        for (eps, i, j), c in xi.terms():
                            column = column + normal_form(m * z**eps, (i, j), e6_p3).scale(c)
                        columns.append(column.term_map())
            coeffs, _ = linalg.solve(columns, socle(e6_p3).term_map(), 3)
            assert coeffs is not None


class TestWittCarry:
    def test_e6_carry_value(self, e6_p3):
        assert witt_carry_class(e6_p3) == h2(3, ((1, 3, 1), 2))

    def test_intermediate_carry_polynomial(self, e6_p3):
        # before distributing over (x^9, y^9) the z-part of the reduced
        # carry contains 2 x^6 y^8 z, the term that survives mod (x^9, y^9)
        ring = e6_p3.ring_xyz
        lift = ring.lift_ring()
        x_part = lift.parse("2*x^3*z")
        y_part = lift.parse("2*y^4*z")
        carry_lift = ((x_part + y_part) ** 3 - x_part**3 - y_part**3).divide_exact(3)
        reduced = reduce_modulo_cover(carry_lift.reduce_mod(ring), e6_p3)
        assert reduced.coefficient((6, 8, 1)) == 2

    def test_socle_survivor_errors(self):
        ring = PolyRing(3, ("x", "y"))
        cover = DoubleCover(3, ring.parse("x^2"))
        with pytest.raises(SocleSurvivesError):
            witt_carry_class(cover)

    def test_splitting_independence_of_verdict(self, e6_p3):
        # for either split N = P + (N - P) of the reduced z^p numerator, the
        # addition defect delta(N) - delta(P) - delta(N - P) has the class
        # witt_carry_class computes
        p = 3
        ring = e6_p3.ring_xyz
        n_poly = reduce_modulo_cover(ring.gen("z") ** p, e6_p3)
        carry = witt_carry_class(e6_p3)
        for axis in (0, 1):
            part = ring.from_terms({k: c for k, c in n_poly.term_map().items() if k[axis] >= p})
            assert 0 < len(part) < len(n_poly)
            defect = delta_carry(n_poly) - delta_carry(part) - delta_carry(n_poly - part)
            assert normal_form(defect, (p * p, p * p), e6_p3) == carry

    def test_w2_reconstruction(self, e6_p3):
        # [N] = [x^p A] + [y^p B] + V(E): rebuilding the Teichmuller lift of
        # the reduced z^p numerator from the split and the carry reproduces
        # the W_2 element exactly.
        ring = e6_p3.ring_xyz
        p = 3
        n_poly = reduce_modulo_cover(ring.gen("z") ** p, e6_p3)
        a_terms, b_terms = {}, {}
        for exps, c in n_poly.term_map().items():
            u, v, w = exps
            if u >= p:
                a_terms[(u - p, v, w)] = c
            else:
                b_terms[(u, v - p, w)] = c
        x_part = ring.monomial({"x": p}) * ring.from_terms(a_terms)
        y_part = ring.monomial({"y": p}) * ring.from_terms(b_terms)
        x_lift, y_lift = x_part.lift_integers(), y_part.lift_integers()
        carry = ((x_lift + y_lift) ** p - x_lift**p - y_lift**p).divide_exact(p).reduce_mod(ring)
        rebuilt = (
            WittVector.teichmuller(x_part, 2)
            + WittVector.teichmuller(y_part, 2)
            + WittVector(ring, [ring.zero(), carry])
        )
        assert rebuilt == WittVector.teichmuller(n_poly, 2)
        assert rebuilt.components[0] == n_poly


class TestFrobeniusImage:
    def test_carry_escapes_image(self, e6_p3):
        carry = witt_carry_class(e6_p3)
        result = frobenius_image_membership(carry, e6_p3)
        assert result.feasible is False
        assert result.witness is not None

    def test_zero_in_image(self, e6_p3):
        assert frobenius_image_membership(H2Class.zero(3), e6_p3).feasible is True

    def test_direct_image(self, e6_p3):
        result = frobenius_image_membership(h2(3, ((0, 3, 3), 1)), e6_p3)
        assert result.feasible is True
        assert result.coefficients == {(0, 1, 1): 1}

    def test_multidegree_claim(self, e6_p3):
        # every term of every Frobenius image has denominator multidegree
        # (0,0) or (0,2) mod 3; the carry lives at (0,1) and escapes
        for eps in (0, 1):
            for i in range(1, 7):
                for j in range(1, 7):
                    image = frobenius_h2(h2(3, ((eps, i, j), 1)), e6_p3)
                    for (_e, a, b), _c in image.terms():
                        assert (a % 3, b % 3) in {(0, 0), (0, 2)}
        carry = witt_carry_class(e6_p3)
        ((_, a, b),) = [key for key, _ in carry.terms()]
        assert (a % 3, b % 3) == (0, 1)


class TestIsolatedHeuristic:
    def test_rdp_isolated(self, e6_p3, a1_p2):
        assert has_isolated_singularity(e6_p3)
        assert has_isolated_singularity(a1_p2)

    def test_cylinder_not_isolated(self):
        ring = PolyRing(3, ("x", "y"))
        assert not has_isolated_singularity(DoubleCover(3, ring.parse("x^2")))

    def test_d5_char2_not_isolated(self):
        ring = PolyRing(2, ("x", "y"))
        assert not has_isolated_singularity(DoubleCover(2, ring.parse("x^2*y + y^4")))


class TestVerdicts:
    def test_e6_height_two(self, e6_p3):
        verdict = quasi2_doublecover(e6_p3)
        assert verdict.f_split is False
        assert verdict.quasi2 is True
        assert verdict.height_le == 2

    def test_a1_height_one(self, a1_p2):
        verdict = quasi2_doublecover(a1_p2)
        assert verdict.f_split is True and verdict.height_le == 1

    def test_non_isolated_flagged(self):
        ring = PolyRing(3, ("x", "y"))
        result = analyze(DoubleCover(3, ring.parse("x^2")))
        assert result.verdict.height_le == 1
        assert FLAG_SOCLE_CRITERION in result.verdict.flags

    def test_e8_char2_beyond_height_two(self):
        ring = PolyRing(2, ("x", "y"))
        result = analyze(DoubleCover(2, ring.parse("x^3 + y^5")))
        assert result.verdict.quasi2 is False
        assert result.verdict.height_le is None
        assert result.carry is not None and result.carry.is_zero()


PRIMES_BELOW_100 = tuple(p for p in range(2, 100) if all(p % d for d in range(2, p)))

# z^2 + a x^4 + b y^4 and z^2 + a x^3 + b y^6 with units a, b, as
# (x-exponent, y-exponent, modulus, least prime): the elliptic curve behind
# each has CM by Z[i], resp. Z[w], so it is ordinary iff p = 1 mod 4, resp.
# p = 1 mod 3.  The cover is then F-split, and of height 2 otherwise.  Below
# the least prime, g is a p-th power and the singularity is not isolated.
SIMPLE_ELLIPTIC = ((4, 4, 4, 3), (3, 6, 3, 5))


def test_simple_elliptic_covers_follow_the_residue_rule_below_100(rng):
    # the carry takes delta of -g, not of (-g)^{(p-1)/2}: 1.9 and 1.5 s for
    # the two shapes while delta was taken of the power
    start = time.perf_counter()
    for a, b, modulus, least in SIMPLE_ELLIPTIC:
        for p in PRIMES_BELOW_100:
            if p >= least:
                ring = PolyRing(p, ("x", "y"))
                g = ring.from_terms({(a, 0): rng.randint(1, p - 1), (0, b): rng.randint(1, p - 1)})
                verdict = analyze(DoubleCover(p, g)).verdict
                expected = (True, 1) if p % modulus == 1 else (False, 2)
                assert (verdict.f_split, verdict.height_le) == expected, (g, p)
    assert time.perf_counter() - start < 1.0
