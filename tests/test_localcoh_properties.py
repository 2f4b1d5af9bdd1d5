"""Property tests: the incremental isolated-singularity check against a
fresh solve for every degree, the Witt carry class against the direct
integer formula and against nf(delta(nf(z^p))), and the single z-degree of
nf(z^p) that the carry class reads."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qfsplit import linalg  # noqa: E402
from qfsplit.localcoh import (  # noqa: E402
    DoubleCover,
    frobenius_h2,
    has_isolated_singularity,
    normal_form,
    reduce_modulo_cover,
    socle,
    witt_carry_class,
)
from qfsplit.ring import PolyRing  # noqa: E402
from qfsplit.witt import delta_carry  # noqa: E402

from conftest import expected_frobenius_numerator  # noqa: E402


def _pure_power_in_ideal(target, gens, degree_cap):
    """Bounded-degree ideal membership target = sum A_i * gen_i via linear algebra."""
    ring = target.ring
    columns = []
    for gen in gens:
        if gen.is_zero():
            continue
        for u in range(degree_cap + 1):
            for v in range(degree_cap + 1 - u):
                columns.append((ring.monomial({"x": u, "y": v}) * gen).term_map())
    if not columns:
        return False
    coeffs, _ = linalg.solve(columns, target.term_map(), ring.char)
    return coeffs is not None


def reference_isolated(cover):
    """The check as one independent solve per n, x first, then y."""
    g = cover.g
    gens = [g.derivative("x"), g.derivative("y")]
    if cover.p != 2:
        gens.append(g)
    d = max(2, g.total_degree())
    cap = (d - 1) * (d - 1) + d
    ring = cover.ring_xy
    for n in range(1, cap + 1):
        if _pure_power_in_ideal(ring.monomial({"x": n}), gens, n + d):
            break
    else:
        return False
    for n in range(1, cap + 1):
        if _pure_power_in_ideal(ring.monomial({"y": n}), gens, n + d):
            return True
    return False


MONOMIALS = [(u, v) for u in range(5) for v in range(5) if 1 <= u + v <= 4]


@st.composite
def covers(draw):
    """z^2 + g with g of 1-4 terms, total degree <= 4, no constant term."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    terms = draw(
        st.dictionaries(st.sampled_from(MONOMIALS), st.integers(1, p - 1), min_size=1, max_size=4)
    )
    return DoubleCover(p, PolyRing(p, ("x", "y")).from_terms(terms))


def cover(p, g):
    return DoubleCover(p, PolyRing(p, ("x", "y")).parse(g))


@settings(deadline=None, max_examples=40)
@given(covers())
@example(cover(3, "x*y"))  # x^1 needs the degree-0 multiples
@example(cover(2, "x^2*y + y^4"))  # y^n found, x^n never
@example(cover(3, "x^2"))  # neither found
def test_incremental_isolated_check_matches_per_degree_solves(cover):
    assert has_isolated_singularity(cover) == reference_isolated(cover)


def reference_carry(cover, splitting):
    """(1/p)((X+Y)^p - X^p - Y^p) over the integer lifts of the split
    N = X + Y of the reduced z^p numerator, over (x^{p^2}, y^{p^2})."""
    p = cover.p
    ring = cover.ring_xyz
    numerator = reduce_modulo_cover(ring.gen("z") ** p, cover)
    x_terms, y_terms = {}, {}
    for (u, v, w), c in numerator.term_map().items():
        to_x = u >= p if splitting == "x-first" else v < p
        (x_terms if to_x else y_terms)[(u, v, w)] = c
    x_part = ring.from_terms(x_terms).lift_integers()
    y_part = ring.from_terms(y_terms).lift_integers()
    carry = ((x_part + y_part) ** p - x_part**p - y_part**p).divide_exact(p)
    return normal_form(carry.reduce_mod(ring), (p * p, p * p), cover)


@settings(deadline=None, max_examples=60)
@given(covers())
@example(cover(3, "x^3 + y^4"))  # E6
@example(cover(5, "x^3 + y^5"))  # E8
@example(cover(7, "x^4 + y^4"))
@example(cover(2, "x^2*y + y^4"))
def test_carry_class_matches_direct_formula(cover):
    # the one carry class equals the addition defect of either split, and
    # the normal form of the full delta of the reduced z^p numerator
    assume(frobenius_h2(socle(cover), cover).is_zero())
    carry = witt_carry_class(cover)
    for splitting in ("x-first", "y-first"):
        assert carry == reference_carry(cover, splitting)
    assert carry == normal_form_of_full_delta(cover)


def normal_form_of_full_delta(cover):
    """nf(delta(N)) over (x^{p^2}, y^{p^2}) for N = nf(z^p), with delta
    taken in full and N reduced from scratch."""
    p = cover.p
    numerator = reduce_modulo_cover(cover.ring_xyz.gen("z") ** p, cover)
    return normal_form(delta_carry(numerator), (p * p, p * p), cover)


@settings(deadline=None, max_examples=60)
@given(covers())
def test_frobenius_numerator_has_one_z_degree(cover):
    numerator = cover.frobenius_numerator()
    assert {w for _, _, w in numerator.term_map()} == {0 if cover.p == 2 else 1}
    assert numerator == expected_frobenius_numerator(cover)
