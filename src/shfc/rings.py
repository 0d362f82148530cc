"""Exact multivariate polynomial arithmetic over prime fields and the rationals.

Coefficients are Python integers reduced mod p (p prime, p < 2**31) or exact
`fractions.Fraction` values; no floating point anywhere in the engine.
Monomials are exponent tuples compared in graded reverse lexicographic order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache


class AlgebraError(Exception):
    """Invalid algebraic operation or malformed input."""


class InternalError(Exception):
    """A result failed an internal consistency check: a bug, not bad input.

    Deliberately not an AlgebraError, which reports invalid input, and raised
    explicitly rather than by assert so that the check survives python -O."""


class RingMismatchError(AlgebraError):
    """Operands live in different rings."""


class ParseError(AlgebraError):
    """Polynomial text does not conform to the grammar."""

    def __init__(self, message, column=None):
        if column is not None:
            message = f"{message} (column {column})"
        super().__init__(message)
        self.column = column


_MAX_CHAR = 2**31


def is_prime(p):
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def grevlex_key(mono):
    """Sort key for graded reverse lexicographic order (larger key = larger monomial)."""
    return (sum(mono), tuple(-e for e in reversed(mono)))


def monomials_of_degree(num_vars, d):
    """All exponent tuples of total degree d, in descending lexicographic order."""
    return list(_monomials_of_degree(num_vars, d))


@cache
def _monomials_of_degree(num_vars, d):
    """monomials_of_degree as a tuple, built once per (num_vars, d) and
    shared: strand bases ask for the same lists again and again."""
    if d < 0:
        return ()
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), d, num_vars)
    return tuple(out)


@dataclass(frozen=True)
class Ring:
    """The graded polynomial ring k[x0..x(num_vars-1)], k = F_p or Q.

    characteristic 0 means Q; otherwise a prime below 2**31 and coefficient
    arithmetic is machine-word ints with explicit reduction.
    """

    characteristic: int
    num_vars: int

    def __post_init__(self):
        if self.num_vars < 2:
            raise AlgebraError(f"num_vars must be >= 2, got {self.num_vars}")
        p = self.characteristic
        if p < 0 or p >= _MAX_CHAR or (p != 0 and not is_prime(p)):
            raise AlgebraError(f"characteristic must be 0 or a prime < 2**31, got {p}")

    @property
    def dim(self):
        """Dimension n of the projective space P^n = Proj of this ring."""
        return self.num_vars - 1

    # coefficient field --------------------------------------------------
    def coeff(self, value):
        if self.characteristic:
            return int(value) % self.characteristic
        return Fraction(value)

    def czero(self):
        return 0 if self.characteristic else Fraction(0)

    def cadd(self, a, b):
        p = self.characteristic
        return (a + b) % p if p else a + b

    def csub(self, a, b):
        p = self.characteristic
        return (a - b) % p if p else a - b

    def cmul(self, a, b):
        p = self.characteristic
        return (a * b) % p if p else a * b

    def cneg(self, a):
        p = self.characteristic
        return (-a) % p if p else -a

    def cinv(self, a):
        if not a:
            raise AlgebraError("division by zero coefficient")
        p = self.characteristic
        return pow(a, -1, p) if p else Fraction(1) / Fraction(a)


class Polynomial:
    """A homogeneous-degree-aware sparse polynomial: dict monomial -> coefficient."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms=None, _normalized=False):
        self.ring = ring
        if not terms:
            self.terms = {}
        elif _normalized:
            self.terms = terms
        else:
            clean = {}
            for mono, c in terms.items():
                mono = tuple(mono)
                if len(mono) != ring.num_vars or any(e < 0 for e in mono):
                    raise AlgebraError(f"bad exponent tuple {mono}")
                c = ring.coeff(c)
                if c:
                    clean[mono] = c
            self.terms = clean

    # constructors --------------------------------------------------------
    @classmethod
    def zero(cls, ring):
        return cls(ring, {}, _normalized=True)

    @classmethod
    def constant(cls, ring, c):
        c = ring.coeff(c)
        zero_mono = (0,) * ring.num_vars
        return cls(ring, {zero_mono: c} if c else {}, _normalized=True)

    @classmethod
    def variable(cls, ring, k):
        if not 0 <= k < ring.num_vars:
            raise AlgebraError(f"variable index {k} out of range")
        mono = tuple(1 if i == k else 0 for i in range(ring.num_vars))
        return cls(ring, {mono: ring.coeff(1)}, _normalized=True)

    # predicates ----------------------------------------------------------
    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not self.terms or set(self.terms) == {(0,) * self.ring.num_vars}

    def constant_value(self):
        return self.terms.get((0,) * self.ring.num_vars, self.ring.czero())

    def homogeneous_degree(self):
        """Degree if homogeneous (None for zero); raises otherwise."""
        if not self.terms:
            return None
        degs = {sum(m) for m in self.terms}
        if len(degs) > 1:
            raise AlgebraError(f"polynomial is not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    # arithmetic ----------------------------------------------------------
    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring} vs {other.ring}")

    def __add__(self, other):
        self._check(other)
        ring = self.ring
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = ring.cadd(out.get(m, ring.czero()), c)
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return Polynomial(ring, out, _normalized=True)

    def __sub__(self, other):
        self._check(other)
        ring = self.ring
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = ring.csub(out.get(m, ring.czero()), c)
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return Polynomial(ring, out, _normalized=True)

    def __neg__(self):
        ring = self.ring
        return Polynomial(ring, {m: ring.cneg(c) for m, c in self.terms.items()}, _normalized=True)

    def __mul__(self, other):
        self._check(other)
        ring = self.ring
        out = {}
        zero = ring.czero()
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                v = ring.cadd(out.get(m, zero), ring.cmul(c1, c2))
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        return Polynomial(ring, out, _normalized=True)

    def scale(self, c):
        ring = self.ring
        c = ring.coeff(c)
        if not c:
            return Polynomial.zero(ring)
        return Polynomial(ring, {m: ring.cmul(v, c) for m, v in self.terms.items()}, _normalized=True)

    def substitute_powers(self, q):
        """The ring endomorphism x_i -> x_i^q applied to self."""
        if q < 1:
            raise AlgebraError(f"power substitution needs q >= 1, got {q}")
        return Polynomial(self.ring, {tuple(e * q for e in m): c for m, c in self.terms.items()}, _normalized=True)

    def evaluate(self, point):
        """Value at a point of the coefficient field, given as a coordinate list."""
        ring = self.ring
        if len(point) != ring.num_vars:
            raise AlgebraError("point has the wrong number of coordinates")
        point = [ring.coeff(c) for c in point]
        p = ring.characteristic
        total = ring.czero()
        for mono, coeff in self.terms.items():
            value = coeff
            for c, e in zip(point, mono):
                if e:
                    value = ring.cmul(value, pow(c, e, p) if p else c**e)
            total = ring.cadd(total, value)
        return total

    # comparison / display --------------------------------------------------
    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Polynomial({self.to_string()!r})"

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True)

    def to_string(self):
        """Render in the interchange grammar: terms joined by +/-, factors by '*'."""
        if not self.terms:
            return "0"
        pieces = []
        for mono, c in self.sorted_terms():
            if self.ring.characteristic == 0 and c < 0:
                sign, c = "-", -c
            else:
                sign = "+"
            factors = []
            for k, e in enumerate(mono):
                if e == 1:
                    factors.append(f"x{k}")
                elif e > 1:
                    factors.append(f"x{k}^{e}")
            if not factors:
                body = str(c)
            elif c == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(c)] + factors)
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    __str__ = to_string


def parse_polynomial(ring, text):
    """Parse the grammar: terms joined by +/-, each an optional integer
    coefficient and '*'-joined powers x<k>^<e>; whitespace insignificant."""
    n = len(text)
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def fail(msg):
        raise ParseError(msg, column=pos + 1)

    def read_int():
        nonlocal pos
        start = pos
        while pos < n and text[pos].isdigit():
            pos += 1
        if pos == start:
            fail("expected an integer")
        return int(text[start:pos])

    terms = {}
    skip_ws()
    if pos == n:
        fail("empty polynomial")
    while True:
        sign = 1
        if text[pos] in "+-":
            if text[pos] == "-":
                sign = -1
            pos += 1
            skip_ws()
        coeff = None
        expo = [0] * ring.num_vars
        while True:
            skip_ws()
            if pos >= n:
                fail("unexpected end of input in term")
            ch = text[pos]
            if ch.isdigit():
                value = read_int()
                coeff = value if coeff is None else coeff * value
            elif ch == "x":
                pos += 1
                if pos >= n or not text[pos].isdigit():
                    fail("expected a variable index after 'x'")
                k = read_int()
                if k >= ring.num_vars:
                    fail(f"variable x{k} out of range for {ring.num_vars} variables")
                e = 1
                if pos < n and text[pos] == "^":
                    pos += 1
                    if pos >= n or not text[pos].isdigit():
                        fail("expected an exponent after '^'")
                    e = read_int()
                expo[k] += e
            else:
                fail(f"unexpected character {ch!r}")
            skip_ws()
            if pos < n and text[pos] == "*":
                pos += 1
                continue
            break
        c = sign * (1 if coeff is None else coeff)
        mono = tuple(expo)
        current = terms.get(mono, 0)
        terms[mono] = current + c
        skip_ws()
        if pos >= n:
            break
        if text[pos] not in "+-":
            fail(f"expected '+' or '-' between terms, found {text[pos]!r}")
    return Polynomial(ring, terms)
