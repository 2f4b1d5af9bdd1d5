import re
import time

import pytest

from qfsplit.ring import PolyRing
from qfsplit.witt import (
    WittLengthError,
    WittVector,
    delta_carry,
    eval_at_teichmuller,
    teichmuller_identity_holds,
)

from conftest import random_poly, random_witt


@pytest.fixture
def r2():
    return PolyRing(2, ("x", "y"))


@pytest.fixture
def r3():
    return PolyRing(3, ("x", "y"))


class TestClosedFormsLengthTwo:
    def test_one_plus_one_is_p(self, r2):
        one = WittVector.teichmuller(r2.one(), 2)
        assert (one + one) == WittVector.p_element(r2, 2)

    def test_additive_identity(self, rng, r3):
        for n in (2, 3):
            w = random_witt(rng, r3, n)
            assert w + WittVector.zero(r3, n) == w

    def test_teichmuller_sum_carry(self, r3):
        x, y = r3.gen("x"), r3.gen("y")
        total = WittVector.teichmuller(x, 2) + WittVector.teichmuller(y, 2)
        assert total == WittVector(r3, [x + y, r3.parse("2*x^2*y + 2*x*y^2")])

    def test_closed_form_addition(self, rng, r3):
        # (a0,a1)+(b0,b1) = (a0+b0, a1+b1 - ((a0~+b0~)^p - a0~^p - b0~^p)/p)
        p = 3
        for _ in range(20):
            u = random_witt(rng, r3, 2)
            v = random_witt(rng, r3, 2)
            a0l = u.components[0].lift_integers()
            b0l = v.components[0].lift_integers()
            carry = (((a0l + b0l) ** p) - a0l**p - b0l**p).divide_exact(p)
            expected = WittVector(
                r3,
                [
                    u.components[0] + v.components[0],
                    u.components[1] + v.components[1] - carry.reduce_mod(r3),
                ],
            )
            assert u + v == expected

    def test_closed_form_multiplication(self, rng, r3):
        # (a0,a1)(b0,b1) = (a0 b0, a0^p b1 + b0^p a1)
        p = 3
        for _ in range(20):
            u = random_witt(rng, r3, 2)
            v = random_witt(rng, r3, 2)
            a0, a1 = u.components
            b0, b1 = v.components
            expected = WittVector(r3, [a0 * b0, a0**p * b1 + b0**p * a1])
            assert u * v == expected

    def test_product_example_char2(self, r2):
        u = WittVector(r2, [r2.gen("x"), r2.one()])
        v = WittVector(r2, [r2.gen("y"), r2.one()])
        assert u * v == WittVector(r2, [r2.parse("x*y"), r2.parse("x^2 + y^2")])

    def test_teichmuller_times_verschiebung(self, r3):
        # (x, 0) * (0, y) = (0, x^p y)
        u = WittVector(r3, [r3.gen("x"), r3.zero()])
        v = WittVector(r3, [r3.zero(), r3.gen("y")])
        assert u * v == WittVector(r3, [r3.zero(), r3.parse("x^3*y")])

    def test_multiplicative_identity(self, rng, r3):
        one = WittVector.one(r3, 3)
        for _ in range(10):
            w = random_witt(rng, r3, 3)
            assert w * one == w


class TestGhostOracle:
    def test_ghost_formula_length2(self, r3):
        w = WittVector(r3, [r3.gen("x"), r3.gen("y")])
        g0, g1 = w.ghost()
        lift = r3.lift_ring()
        assert g0 == lift.gen("x")
        assert g1 == lift.gen("x") ** 3 + 3 * lift.gen("y")

    def test_ghost_of_teichmuller(self, r3):
        g = WittVector.teichmuller(r3.gen("x"), 2).ghost()
        lift = r3.lift_ring()
        assert g == (lift.gen("x"), lift.gen("x") ** 3)

    def test_ghost_of_v_one(self, r2):
        g = WittVector.one(r2, 1).verschiebung().ghost()
        lift = r2.lift_ring()
        assert g == (lift.zero(), lift.constant(2))

    def test_ghost_round_trip(self, rng, r3):
        for n in (1, 2, 3):
            for _ in range(10):
                w = random_witt(rng, r3, n)
                assert WittVector.from_ghost(r3, w.ghost()) == w

    def test_ghost_congruences_for_operations(self, rng, r3):
        # ghost_k(u op v) = ghost_k(u) op ghost_k(v) mod p^{k+1}: the lifts
        # of the solved coordinates differ from exact integer solutions by
        # multiples of p, which ghost_k sees only modulo p^{k+1}.
        import operator

        p = 3
        for _ in range(10):
            u = random_witt(rng, r3, 3)
            v = random_witt(rng, r3, 3)
            for op in (operator.add, operator.mul):
                got = op(u, v).ghost()
                componentwise = [op(a, b) for a, b in zip(u.ghost(), v.ghost())]
                for k, (a, b) in enumerate(zip(got, componentwise)):
                    diff = a - b
                    if not diff.is_zero():
                        diff.divide_exact(p ** (k + 1))  # raises if not congruent

    def test_ring_axioms_vs_ghost(self, rng):
        for p in (2, 3, 5):
            ring = PolyRing(p, ("x", "y"))
            for n in (2, 3):
                for _ in range(6):
                    u = random_witt(rng, ring, n)
                    v = random_witt(rng, ring, n)
                    w = random_witt(rng, ring, n)
                    assert (u + v) + w == u + (v + w)
                    assert u + v == v + u
                    assert (u * v) * w == u * (v * w)
                    assert u * v == v * u
                    assert u * (v + w) == u * v + u * w


class TestAgainstGhostRoute:
    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("n", [2, 3])
    def test_results_equal_the_ghost_route(self, rng, p, n):
        # results are built over F_p without ghosts; each, including chained
        # ones, must equal from_ghost of the same operations done ghost-wise
        ring = PolyRing(p, ("x", "y"))
        for _ in range(4):
            u = random_witt(rng, ring, n)
            v = random_witt(rng, ring, n)
            s = u + v
            cases = (
                (s, lambda a, b: a + b),
                (u - v, lambda a, b: a - b),
                (u * v, lambda a, b: a * b),
                (-u, lambda a, b: -a),
                (s * v, lambda a, b: (a + b) * b),
                (s - u * v, lambda a, b: (a + b) - a * b),
                (-(u * v), lambda a, b: -(a * b)),
            )
            for r, op in cases:
                ghost = [op(a, b) for a, b in zip(u.ghost(), v.ghost())]
                assert r == WittVector.from_ghost(ring, ghost)


class TestStructuralMaps:
    def test_frobenius_componentwise(self, r3):
        w = WittVector(r3, [r3.gen("x"), r3.gen("y")])
        assert w.frobenius() == WittVector(r3, [r3.parse("x^3"), r3.parse("y^3")])

    def test_frobenius_fixes_p(self, r3):
        p_el = WittVector.p_element(r3, 3)
        assert p_el.frobenius() == p_el

    def test_frobenius_is_ring_hom(self, rng, r3):
        for _ in range(10):
            u = random_witt(rng, r3, 3)
            v = random_witt(rng, r3, 3)
            assert (u + v).frobenius() == u.frobenius() + v.frobenius()
            assert (u * v).frobenius() == u.frobenius() * v.frobenius()

    def test_verschiebung_shift(self, r3):
        w = WittVector(r3, [r3.gen("x"), r3.gen("y")])
        assert w.verschiebung().components == (
            r3.zero(),
            r3.gen("x"),
            r3.gen("y"),
        )

    def test_verschiebung_additive(self, rng, r3):
        for _ in range(10):
            u = random_witt(rng, r3, 2)
            v = random_witt(rng, r3, 2)
            assert (u + v).verschiebung() == u.verschiebung() + v.verschiebung()

    def test_verschiebung_not_multiplicative(self, r2):
        v1 = WittVector.one(r2, 1).verschiebung()  # (0, 1) in W2
        lhs = v1.extend(1) * v1.extend(1)
        rhs = v1.extend(1)
        assert lhs != rhs
        assert lhs == WittVector(r2, [r2.zero(), r2.zero(), r2.one()])

    def test_fv_vf_p(self, rng):
        for p in (2, 3, 5):
            ring = PolyRing(p, ("x", "y"))
            for n in (2, 3):
                for _ in range(5):
                    w = random_witt(rng, ring, n)
                    vf = w.frobenius().verschiebung()
                    expected = WittVector(
                        ring,
                        [ring.zero()] + [a.frobenius_power() for a in w.components],
                    )
                    assert vf == expected
                    # p * (w extended by 0) agrees in W_{n+1}
                    assert WittVector.p_element(ring, n + 1) * w.extend(1) == vf
                    # and p * w = V(F(R(w))) inside W_n
                    inside = WittVector.p_element(ring, n) * w
                    assert inside == w.restrict().frobenius().verschiebung()

    def test_restrict(self, r3):
        w = WittVector(r3, [r3.gen("x"), r3.gen("y"), r3.one()])
        assert w.restrict().components == (r3.gen("x"), r3.gen("y"))
        with pytest.raises(WittLengthError):
            WittVector.one(r3, 1).restrict()

    def test_length_cap(self, r3):
        with pytest.raises(WittLengthError):
            WittVector.zero(r3, 9)

    def test_extend_obeys_the_length_cap(self, r3):
        assert WittVector.zero(r3, 7).extend(1) == WittVector.zero(r3, 8)
        with pytest.raises(WittLengthError):
            WittVector.zero(r3, 8).extend(1)

    def test_verschiebung_obeys_the_length_cap(self, r3):
        assert WittVector.one(r3, 7).verschiebung() == WittVector.p_element(r3, 8)
        with pytest.raises(WittLengthError, match=r"^length 9 outside \[1, 8\]$"):
            WittVector.one(r3, 8).verschiebung()

    def test_extend_checks_the_length_before_building(self, r3):
        # 10^12 zero coordinates would exhaust memory if built first
        start = time.perf_counter()
        with pytest.raises(WittLengthError, match=f"^{re.escape('length 1000000000001 outside [1, 8]')}$"):
            WittVector.zero(r3, 1).extend(10**12)
        assert time.perf_counter() - start < 1.0

    def test_extend_rejects_a_negative_count(self, r3):
        with pytest.raises(WittLengthError, match="^cannot extend by -1 coordinates$"):
            WittVector.zero(r3, 2).extend(-1)

    @pytest.mark.parametrize("n", [-1, 0, 9, 10**12])
    def test_length_is_checked_before_any_component_is_built(self, r3, n):
        # a length of 10^12 must fail at once, not after building the list
        message = re.escape(f"length {n} outside [1, 8]")
        start = time.perf_counter()
        for build in (
            lambda: WittVector.teichmuller(r3.gen("x"), n),
            lambda: WittVector.zero(r3, n),
            lambda: WittVector.one(r3, n),
            lambda: WittVector.p_element(r3, n),
        ):
            with pytest.raises(WittLengthError, match=f"^{message}$"):
                build()
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("n", [0, -1])
    def test_constructors_reject_lengths_below_one(self, r3, n):
        with pytest.raises(WittLengthError):
            WittVector.teichmuller(r3.gen("x"), n)
        with pytest.raises(WittLengthError):
            WittVector.one(r3, n)


class TestTeichmuller:
    def test_multiplicative(self, rng, r3):
        for _ in range(15):
            a = random_poly(rng, r3)
            b = random_poly(rng, r3)
            lhs = WittVector.teichmuller(a, 2) * WittVector.teichmuller(b, 2)
            assert lhs == WittVector.teichmuller(a * b, 2)

    def test_zero_one(self, r3):
        assert WittVector.teichmuller(r3.zero(), 2) == WittVector.zero(r3, 2)
        assert WittVector.teichmuller(r3.one(), 2) == WittVector.one(r3, 2)

    def test_not_additive(self, r3):
        x, y = r3.gen("x"), r3.gen("y")
        lhs = WittVector.teichmuller(x, 2) + WittVector.teichmuller(y, 2)
        assert lhs != WittVector.teichmuller(x + y, 2)
        diff = WittVector.teichmuller(x + y, 2) - lhs
        assert diff == WittVector(r3, [r3.zero(), r3.parse("x^2*y + x*y^2")])


class TestDeltaCarry:
    def test_char2_sum(self, r2):
        assert delta_carry(r2.parse("x + y")) == r2.parse("x*y")

    def test_rdp_carry(self, r3):
        assert delta_carry(r3.parse("x^3 + y^4")) == r3.parse("x^6*y^4 + x^3*y^8")

    def test_single_term_zero(self, rng):
        for p in (2, 3, 5):
            ring = PolyRing(p, ("x", "y"))
            exps = (rng.randint(0, 4), rng.randint(0, 4))
            c = rng.randint(1, p - 1)
            assert delta_carry(ring.from_terms({exps: c})).is_zero()

    def test_identity_many_random(self, rng):
        for p in (2, 3, 5):
            ring = PolyRing(p, ("x", "y"))
            for _ in range(50):
                f = random_poly(rng, ring, max_terms=4, max_exp=3)
                assert teichmuller_identity_holds(f)

    def test_eval_at_teichmuller_definition(self, r3):
        f = r3.parse("x^3 + y^4")
        value = eval_at_teichmuller(f, 2)
        direct = WittVector.teichmuller(r3.parse("x^3"), 2) + WittVector.teichmuller(
            r3.parse("y^4"), 2
        )
        assert value == direct

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_eval_at_teichmuller_is_the_sum_of_term_lifts(self, rng, p, n):
        ring = PolyRing(p, ("x", "y"))
        for _ in range(8):
            f = random_poly(rng, ring, max_terms=4, max_exp=3)
            expected = WittVector.zero(ring, n)
            for exps, c in f.terms():
                expected = expected + WittVector.teichmuller(ring.from_terms({exps: c}), n)
            assert eval_at_teichmuller(f, n) == expected
