import random

import pytest

from qfsplit.ring import Poly, PolyRing
from qfsplit.witt import WittVector


@pytest.fixture
def rng():
    return random.Random(20240811)


def random_poly(rng, ring: PolyRing, max_terms: int = 3, max_exp: int = 3) -> Poly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in ring.variables)
        terms[exps] = rng.randint(0, ring.char - 1 if ring.char else 9)
    return ring.from_terms(terms)


def random_nonzero_poly(rng, ring: PolyRing, max_terms: int = 3, max_exp: int = 3) -> Poly:
    while True:
        f = random_poly(rng, ring, max_terms, max_exp)
        if not f.is_zero():
            return f


def random_witt(rng, ring: PolyRing, n: int, max_terms: int = 2, max_exp: int = 2) -> WittVector:
    return WittVector(
        ring, [random_poly(rng, ring, max_terms, max_exp) for _ in range(n)]
    )


def expected_frobenius_numerator(cover) -> Poly:
    """nf(z^p) of a double cover z^2 + g by the closed formula: z^p =
    z * (z^2)^{(p-1)/2} = z * (-g)^{(p-1)/2} for odd p, and z^2 = -g = g
    for p = 2."""
    ring = cover.ring_xyz
    g = ring.from_terms({(u, v, 0): c for (u, v), c in cover.g.term_map().items()})
    if cover.p == 2:
        return g
    return ring.gen("z") * (-g) ** ((cover.p - 1) // 2)
