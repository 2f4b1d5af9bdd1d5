"""Sparse multivariate polynomials over F_p and over Z.

A polynomial is a map from exponent vectors to nonzero coefficients.  In
the prime-characteristic variant every coefficient is a plain int kept in
[0, p); the char-0 variant (``PolyRing(0, ...)``) stores arbitrary-precision
integers exactly and serves as the lift ring for ghost components and
carry polynomials.  Canonical term order is graded lexicographic
(ascending total degree, x-heavy terms first within a degree), fixed so
that rendering and serialization are deterministic.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterable, Iterator, Mapping

MAX_EXPONENT = 2**31 - 1  # largest exponent the parser accepts
_EXPONENT_LIMIT = 2**63 - 1
_PRIME_LIMIT = 2**16


class RingMismatchError(ValueError):
    """Operands live in different polynomial rings."""


class ExponentOverflowError(ValueError):
    """An exponent exceeded 2^63 - 1."""


class PolyParseError(ValueError):
    """Syntax or validation error while parsing a polynomial expression."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def term_sort_key(exponents: tuple[int, ...]) -> tuple:
    """Graded-lex key: total degree first, then x-heavy terms first."""
    return (sum(exponents), tuple(-e for e in exponents))


class PolyRing:
    """Ring context: characteristic (0 or a prime < 2^16) and ordered variables."""

    __slots__ = ("char", "variables", "_index")

    def __init__(self, char: int, variables: Iterable[str]):
        variables = tuple(variables)
        if char != 0:
            if not _is_prime(char):
                raise ValueError(f"characteristic {char} is not prime")
            if char >= _PRIME_LIMIT:
                raise ValueError(f"characteristic {char} exceeds the supported bound {_PRIME_LIMIT}")
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        for name in variables:
            if not name.isidentifier():
                raise ValueError(f"invalid variable name {name!r}")
        self.char = char
        self.variables = variables
        self._index = {name: i for i, name in enumerate(variables)}

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyRing)
            and self.char == other.char
            and self.variables == other.variables
        )

    def __hash__(self) -> int:
        return hash((self.char, self.variables))

    def __repr__(self) -> str:
        base = "Z" if self.char == 0 else f"GF({self.char})"
        return f"{base}[{', '.join(self.variables)}]"

    def var_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r} in {self!r}") from None

    def _normalize(self, coeff: int) -> int:
        return coeff % self.char if self.char else coeff

    def from_terms(self, terms: Mapping[tuple[int, ...], int]) -> "Poly":
        """Canonicalize a raw exponent->coefficient mapping into a Poly."""
        out: dict[tuple[int, ...], int] = {}
        for exps, c in terms.items():
            exps = tuple(exps)
            if len(exps) != self.nvars:
                raise ValueError(f"exponent vector {exps} has wrong length for {self!r}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if any(e > _EXPONENT_LIMIT for e in exps):
                raise ExponentOverflowError(f"exponent in {exps} exceeds 2^63-1")
            c = self._normalize(c)
            if c:
                prev = out.get(exps, 0)
                s = self._normalize(prev + c)
                if s:
                    out[exps] = s
                elif exps in out:
                    del out[exps]
        return Poly(self, out, _internal=True)

    def zero(self) -> "Poly":
        return Poly(self, {}, _internal=True)

    def one(self) -> "Poly":
        return self.constant(1)

    def constant(self, c: int) -> "Poly":
        c = self._normalize(c)
        if not c:
            return self.zero()
        return Poly(self, {(0,) * self.nvars: c}, _internal=True)

    def gen(self, name: str) -> "Poly":
        return self.monomial({name: 1})

    def monomial(self, powers: Mapping[str, int], coeff: int = 1) -> "Poly":
        exps = [0] * self.nvars
        for name, e in powers.items():
            exps[self.var_index(name)] = e
        return self.from_terms({tuple(exps): coeff})

    def lift_ring(self) -> "PolyRing":
        """The char-0 ring with the same variables (for exact integer lifts)."""
        return PolyRing(0, self.variables)

    def parse(self, text: str) -> "Poly":
        return _Parser(self, text).parse()


class Poly:
    """Immutable sparse polynomial attached to a PolyRing.

    Construct through PolyRing factory methods; arithmetic never mutates.
    """

    __slots__ = ("ring", "_terms", "_hash")

    def __init__(self, ring: PolyRing, terms: dict, _internal: bool = False):
        if not _internal:
            raise TypeError("use PolyRing.from_terms / parse to build polynomials")
        self.ring = ring
        self._terms = terms
        self._hash = None

    # -- inspection ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def terms(self) -> Iterator[tuple[tuple[int, ...], int]]:
        """Terms in canonical graded-lex order."""
        for exps in sorted(self._terms, key=term_sort_key):
            yield exps, self._terms[exps]

    def term_map(self) -> dict[tuple[int, ...], int]:
        return dict(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def coefficient(self, exps: tuple[int, ...]) -> int:
        return self._terms.get(tuple(exps), 0)

    def constant_term(self) -> int:
        return self._terms.get((0,) * self.ring.nvars, 0)

    def total_degree(self) -> int:
        """Max total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(e) for e in self._terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self._terms}
        return len(degs) <= 1

    # -- arithmetic ----------------------------------------------------

    def _check_ring(self, other: "Poly") -> None:
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring!r} vs {other.ring!r}")

    def __add__(self, other) -> "Poly":
        if isinstance(other, int):
            other = self.ring.constant(other)
        self._check_ring(other)
        out = dict(self._terms)
        norm = self.ring._normalize
        for exps, c in other._terms.items():
            s = norm(out.get(exps, 0) + c)
            if s:
                out[exps] = s
            elif exps in out:
                del out[exps]
        return Poly(self.ring, out, _internal=True)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        norm = self.ring._normalize
        return Poly(self.ring, {e: norm(-c) for e, c in self._terms.items()}, _internal=True)

    def __sub__(self, other) -> "Poly":
        if isinstance(other, int):
            other = self.ring.constant(other)
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, int):
            c = self.ring._normalize(other)
            if not c:
                return self.ring.zero()
            norm = self.ring._normalize
            out = {}
            for exps, a in self._terms.items():
                v = norm(a * c)
                if v:
                    out[exps] = v
            return Poly(self.ring, out, _internal=True)
        self._check_ring(other)
        out = self._accumulate(zip(self._terms.items(), itertools.repeat(other._terms.items())))
        for exps in out:
            if any(e > _EXPONENT_LIMIT for e in exps):
                raise ExponentOverflowError("exponent overflow in product")
        return Poly(self.ring, out, _internal=True)

    __rmul__ = __mul__

    def _accumulate(self, rows) -> dict[tuple[int, ...], int]:
        """The pair loop of a product: sum c1*c2 at e1+e2 over every
        ((e1, c1), partners) row and every (e2, c2) of its partners.  The
        raw integer sums are reduced mod p once per output term, and the
        terms that cancel are dropped then."""
        out: dict[tuple[int, ...], int] = {}
        get = out.get
        add = operator.add
        for (e1, c1), partners in rows:
            for e2, c2 in partners:
                exps = tuple(map(add, e1, e2))
                out[exps] = get(exps, 0) + c1 * c2
        p = self.ring.char
        if p:
            return {exps: r for exps, c in out.items() if (r := c % p)}
        return {exps: c for exps, c in out.items() if c}

    def truncate(self, q: int) -> "Poly":
        """The terms with every exponent below q: the normal form of self
        modulo the monomial ideal (x_1^q, ..., x_n^q)."""
        kept = {exps: c for exps, c in self._terms.items() if max(exps, default=0) < q}
        return Poly(self.ring, kept, _internal=True)

    def mul_trunc(self, other: "Poly", q: int) -> "Poly":
        """(self * other).truncate(q), skipping every pair of terms whose
        exponent sum reaches q in some variable."""
        self._check_ring(other)
        right = other.truncate(q)._terms.items()
        top = max((max(e2, default=0) for e2, _ in right), default=0)

        def partners(e1):
            if max(e1, default=0) + top < q:
                return right
            return [(e2, c2) for e2, c2 in right if max(map(operator.add, e1, e2)) < q]

        left = self.truncate(q)._terms
        return Poly(self.ring, self._accumulate(zip(left.items(), map(partners, left))), _internal=True)

    def frobenius_power(self, k: int = 1) -> "Poly":
        """The p^k-th power, by multiplying every exponent by p^k: over F_p
        each coefficient c has c^p = c.  k = 0 returns self; prime
        characteristic only."""
        p = self.ring.char
        if not p:
            raise ValueError("frobenius_power needs prime characteristic")
        if k == 0:
            return self
        factor = p**k
        out = {}
        for exps, c in self._terms.items():
            new = tuple(e * factor for e in exps)
            if any(e > _EXPONENT_LIMIT for e in new):
                raise ExponentOverflowError("exponent overflow in Frobenius power")
            out[new] = c
        return Poly(self.ring, out, _internal=True)

    def _pow_binary(self, e: int, mul=operator.mul) -> "Poly":
        result = self.ring.one()
        base = self
        while e > 0:
            if e & 1:
                result = mul(result, base)
            base = mul(base, base) if e > 1 else base
            e >>= 1
        return result

    def __pow__(self, e: int) -> "Poly":
        """f^e; over F_p, f^e = prod_k (f^{d_k})^{p^k} over the base-p digits
        d_k of e, each outer power a Frobenius power: exact and far cheaper
        than binary powering for Frobenius-sized exponents."""
        if e < 0:
            raise ValueError("negative exponent")
        if e == 0:
            return self.ring.one()
        if e == 1:
            return self
        p = self.ring.char
        if not p or e < p:
            return self._pow_binary(e)
        result = self.ring.one()
        k = 0
        while e:
            e, d = divmod(e, p)
            if d:
                result = result * self._pow_binary(d).frobenius_power(k)
            k += 1
        return result

    def pow_trunc(self, e: int, q: int) -> "Poly":
        """(self ** e).truncate(q) for q >= 1, by binary powering with every
        product taken by mul_trunc(., q)."""
        if e < 0:
            raise ValueError("negative exponent")
        return self._pow_binary(e, lambda a, b: a.mul_trunc(b, q))

    def derivative(self, name: str) -> "Poly":
        i = self.ring.var_index(name)
        norm = self.ring._normalize
        out = {}
        for exps, c in self._terms.items():
            if exps[i] == 0:
                continue
            v = norm(c * exps[i])
            if not v:
                continue
            new = exps[:i] + (exps[i] - 1,) + exps[i + 1 :]
            out[new] = v
        return Poly(self.ring, out, _internal=True)

    def in_frobenius_power_ideal(self, level: int) -> bool:
        """Membership in the monomial ideal (x_1^{p^level}, ..., x_n^{p^level}).

        True iff every monomial is divisible by some x_i^{p^level}; the zero
        polynomial belongs to every ideal.
        """
        p = self.ring.char
        if not p:
            raise ValueError("Frobenius-power ideals need prime characteristic")
        if level < 1:
            raise ValueError("level must be >= 1")
        return self.truncate(p**level).is_zero()

    # -- ring changes ---------------------------------------------------

    def lift_integers(self) -> "Poly":
        """Exact integer lift using the representative of each coefficient in [0, p)."""
        if self.ring.char == 0:
            return self
        return Poly(self.ring.lift_ring(), dict(self._terms), _internal=True)

    def reduce_mod(self, ring: PolyRing) -> "Poly":
        """Reduce a char-0 polynomial into the given prime-characteristic ring."""
        if ring.variables != self.ring.variables:
            raise RingMismatchError("reduction target has different variables")
        return ring.from_terms(self._terms)

    def divide_exact(self, n: int) -> "Poly":
        """Divide every coefficient by n, requiring exactness (char 0 only)."""
        if self.ring.char != 0:
            raise ValueError("exact division is for integer polynomials")
        out = {}
        for exps, c in self._terms.items():
            q, r = divmod(c, n)
            if r:
                raise ArithmeticError(f"coefficient {c} not divisible by {n}")
            out[exps] = q
        return Poly(self.ring, out, _internal=True)

    # -- comparison / rendering -----------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.ring == other.ring
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self._terms.items())))
        return self._hash

    def _term_str(self, exps: tuple[int, ...], coeff: int) -> str:
        factors = []
        for name, e in zip(self.ring.variables, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors:
            return str(coeff)
        mono = "*".join(factors)
        if coeff == 1:
            return mono
        if coeff == -1 and self.ring.char == 0:
            return f"-{mono}"
        return f"{coeff}*{mono}"

    def render(self, max_terms: int | None = None) -> str:
        if not self._terms:
            return "0"
        parts = []
        items = list(self.terms())
        shown = items if max_terms is None else items[:max_terms]
        for exps, c in shown:
            parts.append(self._term_str(exps, c))
        text = parts[0]
        for part in parts[1:]:
            if part.startswith("-"):
                text += " - " + part[1:]
            else:
                text += " + " + part
        if max_terms is not None and len(items) > max_terms:
            text += f" + ... ({len(items) - max_terms} more terms)"
        return text

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Poly({self.ring!r}, {self.render()})"


_DIGITS = frozenset("0123456789")


class _Parser:
    """Recursive-descent parser for the polynomial grammar.

    expr   := ['-'] term (('+'|'-') term)*
    term   := power ('*' power)*
    power  := atom ['^' INT]
    atom   := INT | VAR | '(' expr ')'

    INT is ASCII 0-9 only; str.isdigit() would also take superscripts,
    which int() rejects, and other scripts' digits, which it reads.
    """

    def __init__(self, ring: PolyRing, text: str):
        self.ring = ring
        self.text = text
        self.pos = 0

    def parse(self) -> Poly:
        value = self._expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise PolyParseError(f"unexpected character {self.text[self.pos]!r}", self.pos)
        return value

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expr(self) -> Poly:
        negate = False
        if self._peek() == "-":
            self.pos += 1
            negate = True
        value = self._term()
        if negate:
            value = -value
        while True:
            ch = self._peek()
            if ch == "+":
                self.pos += 1
                value = value + self._term()
            elif ch == "-":
                self.pos += 1
                value = value - self._term()
            else:
                return value

    def _term(self) -> Poly:
        value = self._power()
        while self._peek() == "*":
            self.pos += 1
            value = value * self._power()
        return value

    def _power(self) -> Poly:
        base = self._atom()
        if self._peek() == "^":
            self.pos += 1
            e = self._integer("exponent expected")
            if e > MAX_EXPONENT:
                raise PolyParseError(f"exponent {e} exceeds bound {MAX_EXPONENT}", self.pos)
            return base**e
        return base

    def _atom(self) -> Poly:
        ch = self._peek()
        if ch == "(":
            self.pos += 1
            value = self._expr()
            if self._peek() != ")":
                raise PolyParseError("missing ')'", self.pos)
            self.pos += 1
            return value
        if ch in _DIGITS:
            return self.ring.constant(self._integer("integer expected"))
        if ch.isalpha() or ch == "_":
            start = self.pos
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self.pos += 1
            name = self.text[start : self.pos]
            if name not in self.ring._index:
                raise PolyParseError(f"unknown variable {name!r}", start)
            return self.ring.gen(name)
        if ch == "":
            raise PolyParseError("unexpected end of input", self.pos)
        raise PolyParseError(f"unexpected character {ch!r}", self.pos)

    def _integer(self, message: str) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _DIGITS:
            self.pos += 1
        if start == self.pos:
            raise PolyParseError(message, self.pos)
        return int(self.text[start : self.pos])
