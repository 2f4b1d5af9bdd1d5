"""Sparse multivariate polynomials over F_p and over Z.

A polynomial is a map from exponent vectors to nonzero coefficients.  In
the prime-characteristic variant every coefficient is a plain int kept in
[0, p); the char-0 variant (``PolyRing(0, ...)``) stores arbitrary-precision
integers exactly and serves as the lift ring for ghost components and
carry polynomials.  Canonical term order is graded lexicographic
(ascending total degree, x-heavy terms first within a degree), fixed so
that rendering and serialization are deterministic.

Terms are stored under exponent tuples, but products run on packed keys:
each ring has a fixed layout of one unsigned 64-bit field per variable,
followed by one zero pad byte, and the key of (e_1, ..., e_n) is the int
sum e_i * 2^(72(i-1)).  Every stored exponent is at most 2^63 - 1
(``from_terms``, ``*``, ``mul_trunc`` and ``frobenius_power`` reject larger
ones), so the sum of two keys adds field by field with no carry, and a
field of the sum has its top bit set exactly when the exponent sum passed
2^63 - 1.  The pad keeps keys apart in dicts: Python hashes an int modulo
2^61 - 1, and 2^72 is 2^11 there, so field i hashes with multiplier
2^(11(i-1)) and keys with every exponent below 2^11 in up to 5 variables
hash to distinct values (with 64-bit fields, e_1 + e_2 * 2^64 would hash
to e_1 + 8 e_2, and a dense bivariate grid would share few hash values).

Truncated products and powers run on packed-key term maps {key: coeff}
end to end (``PolyRing.mul_terms``, ``pow_terms``, ``cut_terms``): a
caller packs its operands once, keeps every intermediate packed and
unpacks each result once.  One cut rule serves every bound q, with no
second path past 2^63: the bias 2^64 - min(q, 2^64) in every field
(``PolyRing._cut``) carries an exponent, or a sum of two exponents below
q, into the pad's low bit exactly when it reaches q.  A term or a pair
that sets that bit is cut; a kept sum whose top bit is set, once the bias
is taken off, passed 2^63 - 1 and raises ExponentOverflowError.  ``*`` is
the product at the no-cut bound ``NO_CUT`` = 2^64, whose bias is 0.

The pair loop of every product (``multiply_terms``) and the add loop of
every sum (``add_terms``) are module functions that ``Poly`` and the Witt
kernel share; the Witt kernel keeps its coordinates as packed-key term maps
through a whole sum or product and unpacks once.
"""

from __future__ import annotations

import struct
from itertools import chain
from typing import Collection, Iterable, Iterator, Mapping

MAX_EXPONENT = 2**31 - 1  # largest exponent the parser accepts
_EXPONENT_LIMIT = 2**63 - 1
_TOP_BIT = 2**63
NO_CUT = 2**64  # the bound q of ``*``: above every sum of two stored exponents
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


def multiply_terms(
    left: Iterable[tuple[int, int]],
    right: Collection[tuple[int, int]],
    mask: int,
    p: int,
    bias: int = 0,
) -> dict[int, int]:
    """The product of two packed-key term maps, each given as its
    (key, coeff) pairs, with coefficients reduced mod p (p = 0: over Z) and
    the terms that cancel dropped.  mask is the ring's top-bit mask, and
    every right key carries bias (``PolyRing._cut``), which the output keys
    no longer carry.  A pair whose key sum has a bit of mask << 1, the low
    bit of a field's pad, set has reached the bound and is skipped; if a
    kept sum, less bias, has a bit of mask set, some exponent passed
    2^63 - 1, and ExponentOverflowError is raised, also when its term
    cancels.  bias 0 cuts no pair: that is the product ``*`` takes."""
    out: dict[int, int] = {}
    get = out.get
    cut = mask << 1
    for k1, c1 in left:
        for k2, c2 in right:
            k = k1 + k2
            if not k & cut:
                out[k] = get(k, 0) + c1 * c2
    reduced: dict[int, int] = {}
    for k, c in out.items():
        k -= bias
        if k & mask:
            raise ExponentOverflowError("exponent overflow in product")
        if r := c % p if p else c:
            reduced[k] = r
    return reduced


def add_terms(total: dict, other: Mapping, p: int) -> None:
    """Add the term map other into total in place, coefficients mod p
    (p = 0: over Z), dropping the terms that cancel."""
    get = total.get
    for key, c in other.items():
        s = (get(key, 0) + c) % p if p else get(key, 0) + c
        if s:
            total[key] = s
        elif key in total:
            del total[key]


def scale_terms(terms: Mapping, c: int, p: int) -> dict:
    """c times the term map terms, coefficients mod p (p = 0: over Z)."""
    if not p:
        return {key: a * c for key, a in terms.items()} if c else {}
    return {key: v for key, a in terms.items() if (v := a * c % p)}


def term_sort_key(exponents: tuple[int, ...]) -> tuple:
    """Graded-lex key: total degree first, then x-heavy terms first."""
    return (sum(exponents), tuple(-e for e in exponents))


class PolyRing:
    """Ring context: characteristic (0 or a prime < 2^16) and ordered variables."""

    __slots__ = ("char", "variables", "_index", "_fields", "_ones", "_mask")

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
        # the packed-key layout (module docstring); _ones has 1 in every
        # field and _mask the top bit of every field
        self._fields = struct.Struct("<" + "Qx" * len(variables))
        self._ones = int.from_bytes(self._fields.pack(*(1,) * len(variables)), "little")
        self._mask = _TOP_BIT * self._ones

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
            if min(exps, default=0) < 0:
                raise ValueError(f"negative exponent in {exps}")
            if max(exps, default=0) > _EXPONENT_LIMIT:
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

    def from_packed(self, terms: Mapping[int, int]) -> "Poly":
        """The Poly of a packed-key term map of this ring (``Poly.packed``)
        whose coefficients are already reduced and nonzero."""
        unpack, size = self._fields.unpack, self._fields.size
        out = {unpack(k.to_bytes(size, "little")): c for k, c in terms.items()}
        return Poly(self, out, _internal=True)

    def frobenius_terms(self, terms: Mapping[int, int], factor: int) -> dict[int, int]:
        """The packed term map with every exponent multiplied by factor >= 1:
        each key times factor.  Each key is first biased by 2^63 - 1 - L in
        every field, L = (2^63 - 1) // factor, so a field's top bit is set
        exactly when its exponent times factor would pass 2^63 - 1; that
        raises ExponentOverflowError before any field can spill into the
        next."""
        bias = (_EXPONENT_LIMIT - _EXPONENT_LIMIT // factor) * self._ones
        mask = self._mask
        for k in terms:
            if (k + bias) & mask:
                raise ExponentOverflowError("exponent overflow in Frobenius power")
        return {k * factor: c for k, c in terms.items()}

    def _cut(self, q: int) -> int:
        """The bias of the cut to m^[q] = (x_1^q, ..., x_n^q), one rule for
        every q >= 0: 2^64 - min(q, 2^64) in every field.  A stored exponent
        e, or a sum e of two exponents each below q, plus that bias is
        below 2^65, and its field carries into the pad's low bit exactly
        when e >= q; at q = ``NO_CUT`` the bias is 0 and nothing is cut."""
        return (NO_CUT - min(q, NO_CUT)) * self._ones

    def cut_terms(self, terms: Mapping[int, int], q: int) -> dict[int, int]:
        """The terms of a packed-key term map with every exponent below q:
        its normal form modulo m^[q]."""
        bias, cut = self._cut(q), self._mask << 1
        return {k: c for k, c in terms.items() if not (k + bias) & cut}

    def mul_terms(self, a: Mapping[int, int], b: Mapping[int, int], q: int = NO_CUT) -> dict[int, int]:
        """a * b modulo m^[q] on packed-key term maps, coefficients reduced
        (mod p, or over Z) and nonzero.  The terms of a and b with some
        exponent at or above q are cut first, the pairs whose sum reaches q
        in some variable are skipped in the pair loop, and a kept pair
        whose sum passes 2^63 - 1 raises ExponentOverflowError, as in
        ``*``.  Output terms come in the order of their first pair, a's
        terms outermost."""
        bias, mask = self._cut(q), self._mask
        cut = mask << 1
        left = [(k, c) for k, c in a.items() if not (k + bias) & cut]
        right = [(kb, c) for k, c in b.items() if not (kb := k + bias) & cut]
        return multiply_terms(left, right, mask, self.char, bias)

    def pow_terms(self, terms: Mapping[int, int], e: int, q: int = NO_CUT) -> dict[int, int]:
        """terms^e modulo m^[q] for e >= 0, by binary powering with every
        product taken by ``mul_terms`` at q; e = 0 gives the constant 1."""
        if e < 0:
            raise ValueError("negative exponent")
        result, base = {0: 1}, terms
        while e > 0:
            if e & 1:
                result = self.mul_terms(result, base, q)
            if e > 1:
                base = self.mul_terms(base, base, q)
            e >>= 1
        return result

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

    def packed(self) -> dict[int, int]:
        """The terms under packed keys (module docstring)."""
        pack = self.ring._fields.pack
        return {int.from_bytes(pack(*e), "little"): c for e, c in self._terms.items()}

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
        add_terms(out, other._terms, self.ring.char)
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
            out = scale_terms(self._terms, other, self.ring.char)
            return Poly(self.ring, out, _internal=True)
        self._check_ring(other)
        return self._accumulate(other, NO_CUT)

    __rmul__ = __mul__

    def _accumulate(self, other: "Poly", q: int) -> "Poly":
        """self * other modulo m^[q] (``PolyRing.mul_terms``): both operands
        packed once, the product unpacked once."""
        ring = self.ring
        return ring.from_packed(ring.mul_terms(self.packed(), other.packed(), q))

    def truncate(self, q: int) -> "Poly":
        """The terms with every exponent below q: the normal form of self
        modulo the monomial ideal (x_1^q, ..., x_n^q)."""
        kept = {exps: c for exps, c in self._terms.items() if max(exps, default=0) < q}
        return Poly(self.ring, kept, _internal=True)

    def mul_trunc(self, other: "Poly", q: int) -> "Poly":
        """(self * other).truncate(q), skipping every pair of terms whose
        exponent sum reaches q in some variable.  A kept pair whose sum
        passes 2^63 - 1 raises ExponentOverflowError, as in ``*``."""
        self._check_ring(other)
        return self._accumulate(other, q)

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
        if max(chain.from_iterable(self._terms), default=0) * factor > _EXPONENT_LIMIT:
            raise ExponentOverflowError("exponent overflow in Frobenius power")
        out = {tuple(map(factor.__mul__, exps)): c for exps, c in self._terms.items()}
        return Poly(self.ring, out, _internal=True)

    def __pow__(self, e: int) -> "Poly":
        """f^e; over F_p, f^e = prod_k (f^{d_k})^{p^k} over the base-p digits
        d_k of e, each outer power a Frobenius power: exact and far cheaper
        than binary powering for Frobenius-sized exponents.  f is packed
        once and the power unpacked once."""
        if e < 0:
            raise ValueError("negative exponent")
        ring = self.ring
        p = ring.char
        terms = self.packed()
        if not p or e < p:
            return ring.from_packed(ring.pow_terms(terms, e))
        result: dict[int, int] = {0: 1}
        factor = 1
        while e:
            e, d = divmod(e, p)
            if d:
                power = ring.frobenius_terms(ring.pow_terms(terms, d), factor)
                result = ring.mul_terms(result, power)
            factor *= p
        return ring.from_packed(result)

    def pow_trunc(self, e: int, q: int) -> "Poly":
        """(self ** e).truncate(q) for q >= 1, by binary powering on packed
        keys with every product cut to m^[q] (``PolyRing.pow_terms``)."""
        ring = self.ring
        return ring.from_packed(ring.pow_terms(self.packed(), e, q))

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
