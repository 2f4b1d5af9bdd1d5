"""Property test: the incremental isolated-singularity check against a
fresh solve for every degree."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qfsplit import linalg  # noqa: E402
from qfsplit.localcoh import DoubleCover, has_isolated_singularity  # noqa: E402
from qfsplit.ring import PolyRing  # noqa: E402


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
