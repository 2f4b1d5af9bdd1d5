"""Property tests: the double-cover engine and both oracles agree on random
quasi-homogeneous covers z^2 + g, and the engine and the Cech oracle agree
on random covers off that line."""

import time

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qfsplit.localcoh import DoubleCover, analyze, quasi_homogeneous_grading  # noqa: E402
from qfsplit.ring import PolyRing  # noqa: E402
from qfsplit.splitting_oracle import quasi2_cech_oracle, splitting_search  # noqa: E402

# The exponents (u, v) of the terms x^u y^v of g, all of one weighted
# degree, so z^2 + g is quasi-homogeneous whatever the nonzero coefficients.
SHAPES = {
    "A1": [(1, 1)],
    "A2": [(2, 0), (0, 3)],
    "A3": [(2, 0), (0, 4)],
    "A4": [(2, 0), (0, 5)],
    "D4": [(2, 1), (0, 3)],
    "D5": [(2, 1), (0, 4)],
    "D6": [(2, 1), (0, 5)],
    "E6": [(3, 0), (0, 4)],
    "E7": [(3, 0), (1, 3)],
    "E8": [(3, 0), (0, 5)],
    "E12": [(3, 0), (0, 7)],
    "x4+y4": [(4, 0), (0, 4)],
    "x4+x2y2+y4": [(4, 0), (2, 2), (0, 4)],
    "x4+y5": [(4, 0), (0, 5)],
    "x3+y6": [(3, 0), (0, 6)],
    "x3+xy4": [(3, 0), (1, 4)],
    "x3+xy4+y6": [(3, 0), (1, 4), (0, 6)],
    "x2y+xy3": [(2, 1), (1, 3)],
    "x3+x2y+y3": [(3, 0), (2, 1), (0, 3)],
    "x3y+y4": [(3, 1), (0, 4)],
}

# The search's declared domain: p = 2, and at p = 3 the shapes below.  Its
# window grows like p^4, and only these shapes stay under about 0.15 s at
# p = 3 (D4 takes about 0.7 s, x^4 + y^4 about 2 s, x^4 + x^2 y^2 + y^4
# about 4.5 s, on a shared 2-vCPU VM).  At p = 2, E12 has
# w_z = 21 above the window 4p^2 = 16, and the search refuses it.
SEARCHED_AT_3 = ("E6", "E7", "E8", "E12", "x4+y5")


def make_cover(p, name, coefficients):
    g = " + ".join(f"{c}*x^{u}*y^{v}" for c, (u, v) in zip(coefficients, SHAPES[name]))
    return DoubleCover(p, PolyRing(p, ("x", "y")).parse(g))


# over F_2 every coefficient is 1, so each shape is one cover: take them all
@pytest.mark.parametrize("name", sorted(SHAPES))
def test_engine_agrees_with_both_oracles_at_p2(name):
    cover = make_cover(2, name, [1, 1, 1])
    engine = analyze(cover).verdict.quasi2
    assert quasi2_cech_oracle(cover) == engine
    if name != "E12":
        assert splitting_search(cover) == engine


@st.composite
def covers(draw):
    """(shape name, cover) at p = 3 ... 11 with random nonzero coefficients."""
    name = draw(st.sampled_from(sorted(SHAPES)))
    p = draw(st.sampled_from([3, 5, 7, 11]))
    return name, make_cover(p, name, draw(st.lists(st.integers(1, p - 1), min_size=3, max_size=3)))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(covers())
def test_engine_agrees_with_both_oracles(drawn):
    name, cover = drawn
    engine = analyze(cover).verdict.quasi2
    assert quasi2_cech_oracle(cover) == engine
    if cover.p == 3 and name in SEARCHED_AT_3:
        assert splitting_search(cover) == engine


@st.composite
def supports(draw):
    """(p, {(u, v): c}) at p = 2 ... 7: 2 to 4 terms x^u y^v of total
    degree 2 ... 6 with random nonzero coefficients."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    exponents = st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda e: 2 <= sum(e) <= 6)
    terms = draw(st.lists(exponents, min_size=2, max_size=4, unique=True))
    return p, {e: draw(st.integers(1, p - 1)) for e in terms}


# The examples are the two covers of ROADMAP item 14 at p = 7.  The oracle
# and analyze must each answer in under a second: analyze took 0.33 s and
# 2.3 s on them while its isolated-singularity check was a capped sweep,
# and takes milliseconds with the gcd test (ROADMAP item 11).
@settings(derandomize=True, deadline=None, max_examples=30)
@example((7, {(0, 4): 4, (1, 3): 2, (5, 6): 5}))
@example((7, {(0, 4): 1, (2, 3): 3, (3, 5): 6, (5, 2): 5}))
@given(supports())
def test_cech_oracle_agrees_with_engine_off_the_quasi_homogeneous_line(drawn):
    p, terms = drawn
    g = PolyRing(p, ("x", "y")).from_terms(terms)
    assume(quasi_homogeneous_grading(g) is None)
    cover = DoubleCover(p, g)
    start = time.perf_counter()
    oracle = quasi2_cech_oracle(cover)
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    engine = analyze(cover).verdict.quasi2
    assert time.perf_counter() - start < 1.0
    assert oracle == engine
