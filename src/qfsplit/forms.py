"""Differential forms over polynomial rings and the Cartier operator tower.

A degree-i form is a map from strictly increasing index sets {k_1 < ... < k_i}
(the wedge dx_{k_1} ^ ... ^ dx_{k_i}) to polynomial coefficients.  The
Cartier operator acts on closed forms by the congruence rule on monomials:
a term c*x^a dx_S survives exactly when a_k = p-1 (mod p) on S and
a_m = 0 (mod p) off S, contributing c*x^{(a - (p-1)1_S)/p} dx_S.  The
non-conforming remainder of a closed form is exact; we certify that by
integrating it explicitly through the contraction homotopy on each
multidegree with a unit total degree mod p.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations
from typing import Iterator, Mapping

from .linalg import GaussianBasis, nullspace
from .ring import Poly, PolyRing, RingMismatchError
from .witt import WittVector


class NotClosedError(ValueError):
    """The Cartier operator was applied to a non-closed form."""


class NotExactError(ValueError):
    """Integration was requested for a form that is not exact."""


class DiffForm:
    """Immutable differential form; degree-0 forms wrap a single Poly."""

    __slots__ = ("ring", "degree", "_coeffs")

    def __init__(self, ring: PolyRing, degree: int, coeffs: Mapping[tuple[int, ...], Poly]):
        if degree < 0:
            raise ValueError("negative form degree")
        clean: dict[tuple[int, ...], Poly] = {}
        for key, poly in coeffs.items():
            key = tuple(key)
            if len(key) != degree:
                raise ValueError(f"index set {key} has size != degree {degree}")
            if list(key) != sorted(set(key)):
                raise ValueError(f"index set {key} not strictly increasing")
            if key and key[-1] >= ring.nvars:
                raise ValueError(f"index {key[-1]} outside ring variables")
            if poly.ring != ring:
                raise RingMismatchError("coefficient ring differs from form ring")
            if not poly.is_zero():
                clean[key] = poly
        self.ring = ring
        self.degree = degree
        self._coeffs = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring: PolyRing, degree: int) -> "DiffForm":
        return cls(ring, degree, {})

    @classmethod
    def from_poly(cls, poly: Poly) -> "DiffForm":
        return cls(poly.ring, 0, {(): poly})

    @classmethod
    def one_form(cls, parts: Mapping[str, Poly], ring: PolyRing) -> "DiffForm":
        return cls(ring, 1, {(ring.var_index(name),): poly for name, poly in parts.items()})

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._coeffs

    def coefficient(self, key: tuple[int, ...]) -> Poly:
        return self._coeffs.get(tuple(key), self.ring.zero())

    def items(self) -> Iterator[tuple[tuple[int, ...], Poly]]:
        for key in sorted(self._coeffs):
            yield key, self._coeffs[key]

    def monomial_terms(self) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], int]]:
        """Expanded (index set, exponent vector, coefficient) triples."""
        for key, poly in self.items():
            for exps, c in poly.terms():
                yield key, exps, c

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DiffForm)
            and self.ring == other.ring
            and self.degree == other.degree
            and self._coeffs == other._coeffs
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.degree, frozenset(self._coeffs.items())))

    def __add__(self, other: "DiffForm") -> "DiffForm":
        if self.ring != other.ring or self.degree != other.degree:
            raise RingMismatchError("form mismatch in addition")
        out = dict(self._coeffs)
        for key, poly in other._coeffs.items():
            out[key] = out.get(key, self.ring.zero()) + poly
        return DiffForm(self.ring, self.degree, out)

    def __neg__(self) -> "DiffForm":
        return DiffForm(self.ring, self.degree, {k: -v for k, v in self._coeffs.items()})

    def __sub__(self, other: "DiffForm") -> "DiffForm":
        return self + (-other)

    def __mul__(self, factor) -> "DiffForm":
        if isinstance(factor, Poly):
            if factor.ring != self.ring:
                raise RingMismatchError("scalar polynomial in different ring")
        elif isinstance(factor, int):
            factor = self.ring.constant(factor)
        else:
            return NotImplemented
        return DiffForm(
            self.ring, self.degree, {k: v * factor for k, v in self._coeffs.items()}
        )

    __rmul__ = __mul__

    def render(self) -> str:
        if not self._coeffs:
            return "0"
        names = self.ring.variables
        parts = []
        for key, poly in self.items():
            wedge = "∧".join(f"d{names[i]}" for i in key)
            body = poly.render()
            if len(poly) > 1:
                body = f"({body})"
            elif body == "1" and wedge:
                body = ""
            parts.append(f"{body} {wedge}".strip())
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"DiffForm({self.render()})"

    # -- calculus -------------------------------------------------------------

    def exterior_derivative(self) -> "DiffForm":
        out: dict[tuple[int, ...], Poly] = {}
        ring = self.ring
        for key, poly in self._coeffs.items():
            for m, name in enumerate(ring.variables):
                if m in key:
                    continue
                dp = poly.derivative(name)
                if dp.is_zero():
                    continue
                pos = bisect_left(key, m)
                sign = -1 if pos % 2 else 1
                new_key = key[:pos] + (m,) + key[pos:]
                term = dp if sign == 1 else -dp
                out[new_key] = out.get(new_key, ring.zero()) + term
        return DiffForm(ring, self.degree + 1, out)


def _contract_potential(omega: DiffForm) -> DiffForm:
    """Potential of an exact form via the contraction homotopy.

    d preserves the total multidegree t = exponents + indicator(index set).
    On a multidegree with t_m != 0 mod p the operator (1/t_m) * i_{d/dx_m}
    is a homotopy inverse of d, so each such component of a closed form is
    d of the returned potential.  Components with t = 0 mod p everywhere
    are not exact; their presence raises NotExactError.
    """
    ring = omega.ring
    p = ring.char
    if not p:
        raise ValueError("contraction homotopy needs prime characteristic")
    if omega.degree == 0:
        raise NotExactError("degree-0 forms are never exact")
    pot: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    for key, exps, c in omega.monomial_terms():
        total = list(exps)
        for i in key:
            total[i] += 1
        m = next((i for i, t in enumerate(total) if t % p), None)
        if m is None:
            raise NotExactError("component with multidegree 0 mod p")
        if m not in key:
            # i_m kills this wedge; the paired term of the same multidegree
            # carries the contribution instead.
            continue
        pos = key.index(m)
        sign = -1 if pos % 2 else 1
        new_key = key[:pos] + key[pos + 1 :]
        inv = pow(total[m], -1, p)
        new_exps = exps[:m] + (exps[m] + 1,) + exps[m + 1 :]
        bucket = pot.setdefault(new_key, {})
        bucket[new_exps] = (bucket.get(new_exps, 0) + sign * inv * c) % p
    coeffs = {key: ring.from_terms(terms) for key, terms in pot.items()}
    return DiffForm(ring, omega.degree - 1, coeffs)


def integrate_exact(omega: DiffForm) -> DiffForm:
    """Return eta with d(eta) = omega, or raise NotExactError."""
    if not omega.exterior_derivative().is_zero():
        raise NotExactError("form is not closed")
    pot = _contract_potential(omega)
    if pot.exterior_derivative() != omega:
        raise NotExactError("closed but not exact")
    return pot


def cartier(omega: DiffForm) -> DiffForm:
    """The Cartier operator on a closed form.

    Conforming monomial terms map by the exponent rule; the remainder is
    exact (certified by explicit integration) and is annihilated.
    """
    ring = omega.ring
    p = ring.char
    if not p:
        raise ValueError("Cartier operator needs prime characteristic")
    if not omega.exterior_derivative().is_zero():
        raise NotClosedError(f"d(omega) != 0 for {omega!r}")
    image: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    residual: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    for key, exps, c in omega.monomial_terms():
        conforming = all(
            (e % p == p - 1 if i in key else e % p == 0) for i, e in enumerate(exps)
        )
        if conforming:
            scaled = tuple(
                (e - (p - 1)) // p if i in key else e // p for i, e in enumerate(exps)
            )
            bucket = image.setdefault(key, {})
            bucket[scaled] = (bucket.get(scaled, 0) + c) % p
        else:
            bucket = residual.setdefault(key, {})
            bucket[exps] = (bucket.get(exps, 0) + c) % p
    resid_form = DiffForm(
        ring, omega.degree, {k: ring.from_terms(t) for k, t in residual.items()}
    )
    if not resid_form.is_zero():
        integrate_exact(resid_form)
    return DiffForm(ring, omega.degree, {k: ring.from_terms(t) for k, t in image.items()})


def zn_membership(omega: DiffForm, n: int) -> tuple[bool, DiffForm | None]:
    """Membership in Z_n = domain of the n-fold Cartier operator.

    Returns (True, C^n(omega)) when every intermediate form is closed,
    (False, None) otherwise.  Z_0 is everything with C^0 the identity.
    """
    if n < 0:
        raise ValueError("negative tower level")
    current = omega
    for _ in range(n):
        try:
            current = cartier(current)
        except NotClosedError:
            return False, None
    return True, current


def bn_membership(omega: DiffForm, n: int) -> bool:
    """Membership in B_n = kernel of C^n (B_0 = 0)."""
    ok, image = zn_membership(omega, n)
    return ok and image.is_zero()


def serre_map(w: WittVector) -> DiffForm:
    """s(f_0, ..., f_{n-1}) = f_0^{p^{n-1}-1} df_0 + f_1^{p^{n-2}-1} df_1 + ... + df_{n-1}.

    An additive surjection onto B_n of 1-forms whose kernel is the image of
    Frobenius on length-n Witt vectors.
    """
    ring = w.ring
    p = ring.char
    n = w.n
    total = DiffForm.zero(ring, 1)
    for i, f in enumerate(w.components):
        e = p ** (n - 1 - i) - 1
        power = f**e
        df = DiffForm.from_poly(f).exterior_derivative()
        total = total + (df * power)
    return total


def _monomial_exponents(nvars: int, max_degree: int):
    if nvars == 0:
        yield ()
        return
    for head in range(max_degree + 1):
        for tail in _monomial_exponents(nvars - 1, max_degree - head):
            yield (head,) + tail


def _form_basis(ring: PolyRing, degree: int, max_coeff_degree: int):
    for key in combinations(range(ring.nvars), degree):
        for exps in _monomial_exponents(ring.nvars, max_coeff_degree):
            yield key, exps


def _form_vector(omega: DiffForm) -> dict:
    return {
        (key, exps): c for key, exps, c in omega.monomial_terms()
    }


def cartier_exactness(
    ring: PolyRing, form_degree: int = 1, degree_cap: int | None = None
) -> dict:
    """Verify exactness of 0 -> B_1 -> Z_1 -> forms -> 0 on a graded window.

    The window holds degree-i forms with coefficient degree <= cap (default
    4p^2).  d never raises coefficient degree, so the closed forms of the
    window are the true Z_1 there, and the exact ones are d of the one-step
    larger window.  Returns the dimension bookkeeping together with the
    verdicts: kernel-of-C equals image-of-d, and every monomial form in the
    contracted window has an explicit Cartier preimage.
    """
    p = ring.char
    if not p:
        raise ValueError("Cartier exactness needs prime characteristic")
    cap = degree_cap if degree_cap is not None else 4 * p * p
    i = form_degree

    window = list(_form_basis(ring, i, cap))

    def basis_form(key, exps) -> DiffForm:
        return DiffForm(ring, len(key), {key: ring.from_terms({exps: 1})})

    # d-columns out of the window determine the closed subspace.
    d_out_columns = []
    for key, exps in window:
        d_out_columns.append(_form_vector(basis_form(key, exps).exterior_derivative()))
    kernel_vectors = nullspace(d_out_columns, p)

    # Exact forms inside the window come from the one-step larger window.
    exact = GaussianBasis(p)
    cd_zero = True
    if i >= 1:
        for key, exps in _form_basis(ring, i - 1, cap + 1):
            eta = basis_form(key, exps)
            deta = eta.exterior_derivative()
            if deta.is_zero():
                continue
            exact.add(_form_vector(deta))
            if not cartier(deta).is_zero():
                cd_zero = False

    cartier_rank = GaussianBasis(p)
    for coeffs in kernel_vectors:
        omega = DiffForm.zero(ring, i)
        for j, c in enumerate(coeffs):
            if c:
                key, exps = window[j]
                omega = omega + basis_form(key, exps) * c
        cartier_rank.add(_form_vector(cartier(omega)))

    dim_closed = len(kernel_vectors)
    kernel_is_image = cd_zero and (cartier_rank.rank + exact.rank == dim_closed)

    # Surjectivity below the contraction bound, by explicit scaled preimages.
    target_cap = (cap - (p - 1)) // p
    surjective = True
    for key, exps in _form_basis(ring, i, max(target_cap, 0)):
        target = basis_form(key, exps)
        scaled = tuple(
            p * e + (p - 1 if m in key else 0) for m, e in enumerate(exps)
        )
        preimage = DiffForm(ring, i, {key: ring.from_terms({scaled: 1})})
        if cartier(preimage) != target:
            surjective = False
    return {
        "window_dimension": len(window),
        "closed_dimension": dim_closed,
        "exact_dimension": exact.rank,
        "cartier_rank": cartier_rank.rank,
        "kernel_is_image": kernel_is_image,
        "surjective": surjective,
    }


def serre_preimage(omega: DiffForm, n: int) -> WittVector:
    """A Witt vector w with serre_map(w) = omega, for omega in B_n.

    Peels the tower: C(omega) lies in B_{n-1} and is hit by the truncated
    vector; the difference is exact and integrates to the last coordinate.
    """
    ring = omega.ring
    if omega.degree != 1:
        raise ValueError("Serre preimages are defined for 1-forms")
    if n == 1:
        return WittVector(ring, [integrate_exact(omega).coefficient(())])
    head = serre_preimage(cartier(omega), n - 1)
    partial = serre_map(
        WittVector(ring, list(head.components) + [ring.zero()])
    )
    tail = integrate_exact(omega - partial).coefficient(())
    return WittVector(ring, list(head.components) + [tail])
