import itertools

import pytest

from qfsplit.criteria import (
    FLAG_CERTIFIED,
    FLAG_NON_HOMOGENEOUS,
    SingularCurveError,
    Verdict,
    ZeroInputError,
    fedder_test,
    height_search,
    quasi2_test,
    supersingular_oracle,
)
from qfsplit.ring import Poly, PolyRing
from qfsplit.witt import delta_carry

from conftest import random_nonzero_poly


def fermat_cubic(p):
    ring = PolyRing(p, ("x", "y", "z"))
    return ring.parse("x^3 + y^3 + z^3")


def permute_variables(f, perm):
    """f with its variables renamed by the index permutation perm."""
    return f.ring.from_terms({tuple(exps[i] for i in perm): c for exps, c in f.term_map().items()})


class TestFedder:
    def test_rdp_not_split(self):
        ring = PolyRing(3, ("x", "y", "z"))
        assert fedder_test(ring.parse("z^2 + x^3 + y^4")) is False

    def test_a1_char2_split(self):
        ring = PolyRing(2, ("x", "y", "z"))
        assert fedder_test(ring.parse("x*y + z^2")) is True

    def test_fermat_p7_split(self):
        # the coefficient of (xyz)^6 in f^6 is 6!/(2!2!2!) = 90 = 6 mod 7
        assert fedder_test(fermat_cubic(7)) is True

    def test_zero_rejected(self):
        ring = PolyRing(3, ("x",))
        with pytest.raises(ZeroInputError):
            fedder_test(ring.zero())

    def test_scaling_invariance(self, rng):
        ring = PolyRing(5, ("x", "y", "z"))
        for _ in range(10):
            f = random_nonzero_poly(rng, ring)
            c = rng.randint(1, 4)
            assert fedder_test(f) == fedder_test(f * c)

    def test_permutation_invariance(self, rng):
        ring = PolyRing(3, ("x", "y", "z"))
        for _ in range(10):
            f = random_nonzero_poly(rng, ring, max_terms=4)
            for perm in itertools.permutations(range(3)):
                image = permute_variables(f, perm)
                assert fedder_test(f) == fedder_test(image)


class TestQuasi2:
    def test_fermat_p5(self):
        verdict = quasi2_test(fermat_cubic(5))
        assert verdict.f_split is False
        assert verdict.quasi2 is True
        assert verdict.height_le == 2
        assert FLAG_CERTIFIED in verdict.flags

    def test_fermat_p7_short_circuits(self):
        verdict = quasi2_test(fermat_cubic(7))
        assert verdict.f_split is True and verdict.height_le == 1
        assert "clause2" not in (verdict.witnesses or {})

    def test_witnesses_are_hasse_witt_coefficients(self):
        # certified case: only the coefficient of (xyz)^{q-1} survives
        # modulo m^[q]; 6!/(2!2!2!) = 90 = 6 mod 7
        assert quasi2_test(fermat_cubic(7)).witnesses["clause1"].render() == "6*x^6*y^6*z^6"
        witnesses = quasi2_test(fermat_cubic(5)).witnesses
        assert witnesses["clause1"].is_zero()
        assert witnesses["clause2"].render() == "x^24*y^24*z^24"

    def test_snc_split(self):
        for p in (2, 3, 5):
            ring = PolyRing(p, ("x", "y", "z"))
            verdict = quasi2_test(ring.parse("x*y*z"))
            assert verdict.f_split is True

    def test_non_homogeneous_flagged(self):
        ring = PolyRing(3, ("x", "y", "z"))
        verdict = quasi2_test(ring.parse("z^2 + x^3 + y^4"))
        assert FLAG_NON_HOMOGENEOUS in verdict.flags

    def test_fermat_cubic_p2_uses_second_clause(self):
        # p = 2: the cubic is supersingular (2 = 2 mod 3), so clause 1
        # fails; clause 2 survives on the x^3 y^3 z^3 term of f * delta(f)
        verdict = quasi2_test(fermat_cubic(2))
        assert verdict.f_split is False
        assert verdict.quasi2 is True
        assert verdict.height_le == 2

    def test_monotone_with_fedder(self, rng):
        ring = PolyRing(3, ("x", "y", "z"))
        for _ in range(10):
            f = random_nonzero_poly(rng, ring, max_terms=4)
            if fedder_test(f):
                assert quasi2_test(f).quasi2 is True

    def test_scaling_invariance(self, rng):
        ring = PolyRing(5, ("x", "y", "z"))
        for _ in range(5):
            f = random_nonzero_poly(rng, ring, max_terms=3)
            for c in range(2, 5):
                assert quasi2_test(f).quasi2 == quasi2_test(f * c).quasi2

    def test_permutation_invariance(self):
        ring = PolyRing(5, ("x", "y", "z"))
        f = ring.parse("x^3 + y^3 + z^3 + x*y*z")
        base = quasi2_test(f).quasi2
        for perm in itertools.permutations(range(3)):
            image = permute_variables(f, perm)
            assert quasi2_test(image).quasi2 == base


class TestVerdictInvariants:
    def test_f_split_forces_heights(self):
        with pytest.raises(ValueError):
            Verdict(f_split=True, quasi2=False)
        with pytest.raises(ValueError):
            Verdict(f_split=True, quasi2=None)

    @pytest.mark.parametrize(
        "f_split,quasi2,height_le",
        [(True, True, 1), (False, True, 2), (False, False, None)],
    )
    def test_height_is_derived(self, f_split, quasi2, height_le):
        assert Verdict(f_split, quasi2).height_le == height_le

    def test_summaries(self):
        assert Verdict(True, True).summary() == "F-split (height 1)"
        assert (
            Verdict(False, True).summary()
            == "not F-split; 2-quasi-F-split (height 2)"
        )
        assert "height > 2" in Verdict(False, False).summary()


class TestHeightSearch:
    def test_rdp_as_hypersurface(self):
        ring = PolyRing(3, ("x", "y", "z"))
        verdict = height_search(ring.parse("z^2 + x^3 + y^4"))
        assert verdict.height_le == 2

    def test_split_short_circuit(self):
        # height_search is quasi2_test under the name the report route calls
        assert height_search is quasi2_test
        verdict = height_search(fermat_cubic(7))
        assert verdict.height_le == 1
        assert verdict.witnesses.keys() == {"clause1"}


class TestSupersingularOracle:
    def test_j0_p5_supersingular(self):
        assert supersingular_oracle(5, 0, 1) is True

    def test_j0_p7_ordinary(self):
        assert supersingular_oracle(7, 0, 1) is False

    def test_j1728_p5_ordinary(self):
        # y^2 = x^3 + x over F_5 has 4 points: 2-torsion plus infinity only;
        # trace 2, so ordinary (p = 1 mod 4).
        assert supersingular_oracle(5, 1, 0) is False

    def test_j1728_p7_supersingular(self):
        assert supersingular_oracle(7, 1, 0) is True

    def test_singular_rejected(self):
        with pytest.raises(SingularCurveError):
            supersingular_oracle(5, 0, 0)

    def test_small_characteristic_rejected(self):
        with pytest.raises(ValueError):
            supersingular_oracle(3, 1, 1)


class TestEllipticConsistency:
    @pytest.mark.parametrize("p", (5, 7, 11, 13))
    def test_fermat_cubic_tracks_ordinarity(self, p):
        # The Fermat cubic has j = 0; F-splitness is ordinarity, and the
        # j = 0 curve is supersingular exactly when p = 2 mod 3.
        split = fedder_test(fermat_cubic(p))
        assert split == (p % 3 == 1)
        assert split == (not supersingular_oracle(p, 0, 1))
        assert quasi2_test(fermat_cubic(p)).quasi2 is True


class TestFermatQuarticSurface:
    # Classical arithmetic of the Fermat quartic: ordinary for p = 1 mod 4,
    # supersingular for p = 3 mod 4 (hence quasi-F-split height beyond 2).
    def test_p5_ordinary(self):
        ring = PolyRing(5, ("x", "y", "z", "w"))
        verdict = quasi2_test(ring.parse("x^4 + y^4 + z^4 + w^4"))
        assert verdict.f_split is True and verdict.height_le == 1

    def test_p7_supersingular(self):
        ring = PolyRing(7, ("x", "y", "z", "w"))
        verdict = quasi2_test(ring.parse("x^4 + y^4 + z^4 + w^4"))
        assert verdict.f_split is False
        assert verdict.quasi2 is False
        assert verdict.height_le is None


class TestTruncatedClauses:
    """quasi2_test against the untruncated clause products, truncated only
    at the end (the reference is kept here, not in the package)."""

    @staticmethod
    def reference(f):
        p = f.ring.char
        clause1 = (f ** (p - 1)).truncate(p)
        if not clause1.is_zero():
            return {"clause1": clause1}
        clause2 = (f ** (p * p - p - 1) * delta_carry(f)).truncate(p * p)
        return {"clause1": clause1, "clause2": clause2}

    @pytest.mark.parametrize("p", (2, 3, 5, 7))
    def test_random_polynomials_match_full_products(self, rng, p):
        ring = PolyRing(p, ("x", "y", "z"))
        for _ in range(12):
            f = random_nonzero_poly(rng, ring, max_terms=3)
            expected = self.reference(f)
            verdict = quasi2_test(f)
            assert verdict.witnesses == expected
            assert verdict.f_split == ("clause2" not in expected)
            assert verdict.quasi2 == any(not w.is_zero() for w in expected.values())

    @pytest.mark.parametrize(
        "p,text",
        [(2, "x^3 + y^3 + z^3"), (5, "x^3 + y^3 + z^3"), (3, "z^2 + x^3 + y^4"),
         (5, "x^3 + y^3 + z^3 + x*y*z"), (7, "x^4 + y^4 + z^4")],
    )
    def test_clause2_cases_match_full_products(self, p, text):
        f = PolyRing(p, ("x", "y", "z")).parse(text)
        assert quasi2_test(f).witnesses == self.reference(f)


class TestPackOnce:
    """quasi2_test packs f once and unpacks only what it hands out, so its
    count of Poly.packed and PolyRing.from_packed calls is fixed by the
    clause it stops at, not by the number of binary-powering steps behind
    f^{p-2}, f^{p-1} and delta, which grows with p."""

    @staticmethod
    def conversions(monkeypatch, f):
        """(packs, unpacks) made by quasi2_test(f)."""
        counts = {"pack": 0, "unpack": 0}
        packed, from_packed = Poly.packed, PolyRing.from_packed

        def counted_packed(self):
            counts["pack"] += 1
            return packed(self)

        def counted_from_packed(self, terms):
            counts["unpack"] += 1
            return from_packed(self, terms)

        with monkeypatch.context() as patch:
            patch.setattr(Poly, "packed", counted_packed)
            patch.setattr(PolyRing, "from_packed", counted_from_packed)
            quasi2_test(f)
        return counts["pack"], counts["unpack"]

    @pytest.mark.parametrize(
        "primes, expected",
        [
            # clause 2 (supersingular): f packed for the clauses, again for
            # delta's Z lift, and delta's result for the last product;
            # delta and both witnesses unpacked
            ((5, 11, 17), (3, 3)),
            # clause 1 (ordinary): f packed, the clause-1 witness unpacked
            ((7, 13), (1, 1)),
        ],
    )
    def test_fermat_cubic_conversions_do_not_grow_with_p(self, monkeypatch, primes, expected):
        for p in primes:
            assert self.conversions(monkeypatch, fermat_cubic(p)) == expected, p


def diagonal(p, degree):
    names = ("x", "y", "z", "w", "v")[:degree]
    return PolyRing(p, names).parse(" + ".join(f"{v}^{degree}" for v in names))


PRIMES_TO_29 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


class TestShiodaKatsuraSweep:
    # Sum x_i^d in d variables (Shioda-Katsura, Tohoku 1979): for p not
    # dividing d it is ordinary iff p = 1 mod d, and supersingular otherwise
    # (every p here has p^k = -1 mod d): height 2 for the cubic curve,
    # beyond 2 for the quartic K3 surface and the quintic threefold.  For p
    # dividing d the form is (x_1 + ... + x_d)^d, which is not reduced and so
    # not quasi-F-split at all.
    @staticmethod
    def expected(p, degree):
        if p % degree == 1:
            return (True, True, 1)
        if degree == 3 and p != 3:
            return (False, True, 2)
        return (False, False, None)

    @pytest.mark.parametrize(
        "degree,p",
        [(3, p) for p in PRIMES_TO_29]
        + [(4, p) for p in PRIMES_TO_29]
        + [(5, p) for p in (2, 3, 7, 11)],
    )
    def test_diagonal_verdict(self, degree, p):
        verdict = quasi2_test(diagonal(p, degree))
        assert (verdict.f_split, verdict.quasi2, verdict.height_le) == self.expected(p, degree)


def hesse_point_count(p, lam):
    """Number of F_p-points of the projective curve x^3 + y^3 + z^3 + lam*xyz."""
    affine = sum(
        1
        for x in range(p)
        for y in range(p)
        for z in range(p)
        if (x**3 + y**3 + z**3 + lam * x * y * z) % p == 0
    )
    return (affine - 1) // (p - 1)


class TestHesseCubicSweep:
    # x^3 + y^3 + z^3 + lam*xyz is singular exactly when lam^3 = -27 (the
    # singular point is (1, 1, 1) up to cube roots of unity).  An elliptic
    # curve is ordinary (F-split) iff #E(F_p) != 1 mod p, and every elliptic
    # curve is 2-quasi-F-split.
    @pytest.mark.parametrize("p", (5, 7, 11, 13))
    def test_every_nonsingular_member(self, p):
        ring = PolyRing(p, ("x", "y", "z"))
        members = [lam for lam in range(p) if (lam**3 + 27) % p]
        assert len(members) >= p - 3
        for lam in members:
            verdict = quasi2_test(ring.parse(f"x^3 + y^3 + z^3 + {lam}*x*y*z"))
            ordinary = hesse_point_count(p, lam) % p != 1
            assert verdict.f_split is ordinary, lam
            assert verdict.quasi2 is True, lam
