import pytest

from qfsplit.ring import (
    ExponentOverflowError,
    Poly,
    PolyParseError,
    PolyRing,
    RingMismatchError,
)

from conftest import random_poly


@pytest.fixture
def r3xyz():
    return PolyRing(3, ("x", "y", "z"))


@pytest.fixture
def r5xy():
    return PolyRing(5, ("x", "y"))


class TestParse:
    def test_rdp_equation(self, r3xyz):
        f = r3xyz.parse("z^2 + x^3 + y^4")
        assert f.term_map() == {(0, 0, 2): 1, (3, 0, 0): 1, (0, 4, 0): 1}

    def test_zero(self, r3xyz):
        assert r3xyz.parse("0").is_zero()

    def test_coefficient_reduction(self):
        ring = PolyRing(3, ("x",))
        assert ring.parse("3*x + x") == ring.gen("x")

    def test_parentheses_and_minus(self, r5xy):
        f = r5xy.parse("(x + y) * (x - y)")
        assert f == r5xy.parse("x^2 + 4*y^2")

    def test_syntax_error_position(self, r5xy):
        with pytest.raises(PolyParseError) as err:
            r5xy.parse("x + + y")
        assert err.value.position == 4

    @pytest.mark.parametrize(
        "text,position",
        [("x^\u00b2", 2), ("x^\u0663", 2), ("\u0663*x", 0)],
        ids=["superscript-exponent", "arabic-indic-exponent", "arabic-indic-coefficient"],
    )
    def test_only_ascii_digits(self, r5xy, text, position):
        with pytest.raises(PolyParseError) as err:
            r5xy.parse(text)
        assert err.value.position == position

    def test_unknown_variable(self, r5xy):
        with pytest.raises(PolyParseError):
            r5xy.parse("x + w")

    def test_exponent_bound(self, r5xy):
        assert r5xy.parse("x^2147483647") == r5xy.monomial({"x": 2**31 - 1})
        with pytest.raises(PolyParseError):
            r5xy.parse("x^2147483648")

    def test_rendering_round_trip(self, rng, r3xyz):
        for _ in range(25):
            f = random_poly(rng, r3xyz, max_terms=5)
            assert r3xyz.parse(f.render()) == f

    def test_graded_lex_rendering(self):
        ring = PolyRing(3, ("x", "y"))
        f = ring.parse("x^3*y^8 + x^6*y^4")
        assert f.render() == "x^6*y^4 + x^3*y^8"

    @pytest.mark.parametrize(
        "text",
        ["x^", "2*", "", "(", ")", "(x", "x + + y", "x y", "^2", "*x", "x^-2",
         "x**2", "1 2", "x+", "((x)", "x^2^3"],
    )
    def test_malformed_inputs_raise_parse_errors(self, text):
        ring = PolyRing(5, ("x", "y"))
        with pytest.raises(PolyParseError):
            ring.parse(text)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("", "unexpected end of input (position 0)"),
            ("   ", "unexpected end of input (position 3)"),
            ("x^", "exponent expected (position 2)"),
            ("x^ ", "exponent expected (position 3)"),
            ("x^-1", "exponent expected (position 2)"),
            ("x^\u00b2", "exponent expected (position 2)"),
            ("2x", "unexpected character 'x' (position 1)"),
            ("x**2", "unexpected character '*' (position 2)"),
            ("(x", "missing ')' (position 2)"),
            ("((x) ", "missing ')' (position 5)"),
            ("x)", "unexpected character ')' (position 1)"),
            ("x + ", "unexpected end of input (position 4)"),
            ("-", "unexpected end of input (position 1)"),
            ("x+-y", "unexpected character '-' (position 2)"),
            ("x^2^3", "unexpected character '^' (position 3)"),
            ("1 2", "unexpected character '2' (position 2)"),
            ("x^2147483648", "exponent 2147483648 exceeds bound 2147483647 (position 12)"),
            ("x + y^ 2147483647999", "exponent 2147483647999 exceeds bound 2147483647 (position 20)"),
            ("w", "unknown variable 'w' (position 0)"),
            ("x + xy", "unknown variable 'xy' (position 4)"),
            ("\u00b2", "unexpected character '\u00b2' (position 0)"),
            ("\u00b2x", "unexpected character '\u00b2' (position 0)"),
            ("x + \u0663y", "unexpected character '\u0663' (position 4)"),
            ("x\u0663 + y", "unknown variable 'x\u0663' (position 0)"),
            ("x\u00b2", "unknown variable 'x\u00b2' (position 0)"),
            ("\u2118", "unexpected character '\u2118' (position 0)"),
        ],
    )
    def test_malformed_input_message_and_position(self, text, message):
        # each message and position as the character-by-character parser
        # gave them; "\u2118" is a Python identifier but not a name here
        ring = PolyRing(5, ("x", "y", "\u2118"))
        with pytest.raises(PolyParseError) as err:
            ring.parse(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("text", ["x\x1c+ y", "\u3000x +\ty\n", "x\u2028+\u00a0y"])
    def test_unicode_whitespace_separates_tokens(self, r5xy, text):
        # every character str.isspace() accepts, "\x1c" (a file separator)
        # and the ideographic space included
        assert r5xy.parse(text) == r5xy.parse("x + y")

    def test_unicode_names(self):
        ring = PolyRing(3, ("\u03b1", "x\u00e9", "_1"))
        f = ring.parse("\u03b1^2 + 2*x\u00e9*_1")
        assert f.term_map() == {(2, 0, 0): 1, (0, 1, 1): 2}


class TestArithmetic:
    def test_freshman_dream_char2(self):
        ring = PolyRing(2, ("x", "y"))
        s = ring.parse("x + y")
        assert s * s == ring.parse("x^2 + y^2")

    def test_mul_identity(self, rng, r5xy):
        for _ in range(10):
            f = random_poly(rng, r5xy)
            assert f * r5xy.one() == f

    def test_product_mod5(self, r5xy):
        assert r5xy.parse("(x+y)*(x-y)") == r5xy.parse("x^2 + 4*y^2")

    def test_ring_mismatch(self, r5xy, r3xyz):
        with pytest.raises(RingMismatchError):
            r5xy.gen("x") * r3xyz.gen("x")

    def test_ring_axioms_random(self, rng, r5xy):
        for _ in range(40):
            a = random_poly(rng, r5xy)
            b = random_poly(rng, r5xy)
            c = random_poly(rng, r5xy)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c

    def test_frobenius_additive(self, rng, r5xy):
        p = r5xy.char
        for _ in range(20):
            a = random_poly(rng, r5xy)
            b = random_poly(rng, r5xy)
            assert (a + b) ** p == a**p + b**p

    def test_integer_lift_consistency(self, rng, r5xy):
        lift_ring = r5xy.lift_ring()
        for _ in range(20):
            a = random_poly(rng, r5xy)
            b = random_poly(rng, r5xy)
            assert (a.lift_integers() * b.lift_integers()).reduce_mod(r5xy) == a * b
            assert (a.lift_integers() + b.lift_integers()).reduce_mod(r5xy) == a + b
        assert lift_ring.char == 0


class TestPow:
    def test_frobenius_cube(self):
        ring = PolyRing(3, ("x", "y"))
        assert ring.parse("(x+y)^3") == ring.parse("x^3 + y^3")

    def test_pow_zero(self, rng, r5xy):
        f = random_poly(rng, r5xy)
        assert f**0 == r5xy.one()

    def test_square_of_rdp_equation(self, r3xyz):
        f = r3xyz.parse("z^2 + x^3 + y^4")
        expected = r3xyz.parse(
            "z^4 + 2*x^3*z^2 + 2*y^4*z^2 + x^6 + 2*x^3*y^4 + y^8"
        )
        assert f * f == expected

    def test_exponent_scaling_shortcut(self, rng, r5xy):
        p = r5xy.char
        for k in (1, 2):
            for _ in range(10):
                f = random_poly(rng, r5xy)
                assert f ** (p**k) == f.frobenius_power(k)

    def test_binary_vs_base_p_agree(self, rng, r5xy):
        for _ in range(5):
            f = random_poly(rng, r5xy, max_terms=2, max_exp=2)
            assert f**7 == f.pow_trunc(7, 2**64)
            assert f**19 == f.pow_trunc(19, 2**64)


class TestFrobeniusPowerIdeal:
    def test_rdp_square_in_ideal(self, r3xyz):
        f = r3xyz.parse("z^2 + x^3 + y^4")
        assert (f * f).in_frobenius_power_ideal(1)

    def test_zero_in_every_ideal(self, r3xyz):
        assert r3xyz.zero().in_frobenius_power_ideal(1)
        assert r3xyz.zero().in_frobenius_power_ideal(2)

    def test_a1_outside(self):
        ring = PolyRing(2, ("x", "y", "z"))
        f = ring.parse("x*y + z^2")
        assert not f.in_frobenius_power_ideal(1)

    def test_monotone_under_monomial_multiples(self, rng, r3xyz):
        for _ in range(20):
            f = random_poly(rng, r3xyz, max_terms=4, max_exp=4)
            if not f.in_frobenius_power_ideal(1):
                continue
            exps = tuple(rng.randint(0, 3) for _ in r3xyz.variables)
            m = r3xyz.from_terms({exps: 1 + rng.randint(0, 1)})
            assert (m * f).in_frobenius_power_ideal(1)


class TestRingContext:
    def test_composite_char_rejected(self):
        with pytest.raises(ValueError):
            PolyRing(6, ("x",))

    def test_large_prime_rejected(self):
        with pytest.raises(ValueError):
            PolyRing(65537, ("x",))

    def test_exact_division(self):
        lift = PolyRing(0, ("x",))
        f = lift.from_terms({(1,): 6})
        assert f.divide_exact(3) == lift.from_terms({(1,): 2})
        with pytest.raises(ArithmeticError):
            f.divide_exact(4)

    def test_overflow_guard(self):
        ring = PolyRing(2, ("x",))
        f = ring.monomial({"x": 2**40})
        with pytest.raises(ExponentOverflowError):
            f.frobenius_power(40)

    def test_kept_truncated_pair_overflows_as_in_the_product(self):
        # x^(2^63) is below q = 2^64 but past 2^63 - 1; at q = 2^63 it is cut
        f = PolyRing(2, ("x",)).monomial({"x": 2**62})
        with pytest.raises(ExponentOverflowError):
            f * f
        with pytest.raises(ExponentOverflowError):
            f.mul_trunc(f, 2**64)
        assert f.mul_trunc(f, 2**63).is_zero()
        with pytest.raises(ExponentOverflowError):
            f.pow_trunc(2, 2**64)
        assert f.pow_trunc(2, 2**63).is_zero()

    def test_frobenius_power_zero_is_identity_and_needs_prime_char(self, r5xy):
        f = r5xy.parse("x^2 + 3*x*y + 1")
        assert f.frobenius_power(0) is f
        lifted = f.lift_integers()
        for k in (0, 1):
            with pytest.raises(ValueError):
                lifted.frobenius_power(k)
