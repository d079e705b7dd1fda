"""Exact Laurent polynomials in a single variable A over arbitrary-precision integers.

``LaurentPoly`` is a sparse exponent -> coefficient map with no zero
coefficients (canonical form).  Values are immutable after construction, so
they can be shared freely between threads and used as building blocks of
larger immutable states.  The fold packs its coefficients into integers
with the Kronecker helpers below (see ``skein``) and reads them back out.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from typing import Iterator, Mapping, Sequence


class EmptyPolynomial(ValueError):
    """Raised when an operation needs a nonzero polynomial."""


class NotDivisible(ArithmeticError):
    """Raised when no exact quotient exists in Z[A, A^-1]."""


class LaurentPoly:
    """An element of Z[A, A^-1].  The zero polynomial is the empty term map."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        t = {}
        if terms:
            for e, c in terms.items():
                if c:
                    t[int(e)] = int(c)
        self._terms = t

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, coeff: int, exp: int = 0) -> "LaurentPoly":
        return cls({exp: coeff})

    # -- inspection --------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self._terms.items())

    def min_exp(self) -> int:
        if not self._terms:
            raise EmptyPolynomial("zero polynomial has no exponents")
        return min(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == ({} if other == 0 else {0: other})
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        t = dict(self._terms)
        for e, c in other._terms.items():
            s = t.get(e, 0) + c
            if s:
                t[e] = s
            else:
                t.pop(e, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = t
        return out

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        t: dict[int, int] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                s = t.get(e, 0) + c1 * c2
                if s:
                    t[e] = s
                else:
                    t.pop(e, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = t
        return out

    def shifted(self, k: int) -> "LaurentPoly":
        """Multiply by A^k."""
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = {e + k: c for e, c in self._terms.items()}
        return out

    def scaled(self, c: int) -> "LaurentPoly":
        if c == 0:
            return LaurentPoly.zero()
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = {e: c * v for e, v in self._terms.items()}
        return out

    def exact_div(self, d: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient q with q * d == self, else NotDivisible.

        Works by shifting both operands to ordinary polynomials and running
        long division over Z; any inexact coefficient step or nonzero
        remainder aborts.
        """
        if d.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero()
        shift = self.min_exp() - d.min_exp()
        rem = {e - self.min_exp(): c for e, c in self._terms.items()}
        div = {e - d.min_exp(): c for e, c in d._terms.items()}
        dtop = max(div)
        dlead = div[dtop]
        quot: dict[int, int] = {}
        while rem:
            rtop = max(rem)
            if rtop < dtop:
                raise NotDivisible(f"{self} is not divisible by {d}")
            c, r = divmod(rem[rtop], dlead)
            if r:
                raise NotDivisible(f"{self} is not divisible by {d}")
            e = rtop - dtop
            quot[e] = c
            for de, dc in div.items():
                k = de + e
                s = rem.get(k, 0) - c * dc
                if s:
                    rem[k] = s
                else:
                    rem.pop(k, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = {e + shift: c for e, c in quot.items()}
        return out

    def mirror(self) -> "LaurentPoly":
        """Substitute A -> A^-1 (the effect of reflecting a diagram)."""
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = {-e: c for e, c in self._terms.items()}
        return out

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for e in sorted(self._terms, reverse=True):
            c = self._terms[e]
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "A" if e == 1 else f"A^{e}"
                body = var if mag == 1 else f"{mag}*{var}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"LaurentPoly({self._terms!r})"

    def to_json(self) -> dict[str, str]:
        """Exponent -> decimal-string coefficient map, decreasing exponents."""
        return {str(e): str(self._terms[e]) for e in sorted(self._terms, reverse=True)}

    @classmethod
    def from_json(cls, data: Mapping[str, str]) -> "LaurentPoly":
        return cls({int(e): int(c) for e, c in data.items()})


# Ring constants used throughout the skein machinery.
ONE = LaurentPoly.one()
# Loop value of the bracket: closing a circle multiplies by -A^2 - A^-2.
DELTA = LaurentPoly({2: -1, -2: -1})
# Loop value of the positive variant: A^2 + A^-2 (no cancellation possible).
DELTA_PLUS = LaurentPoly({2: 1, -2: 1})


def slot_width(bound: int) -> int:
    """The slot width, in bits, for a mass up to `bound`: a multiple of 64,
    at least 64, with room for the sign bit, the margin bit and a quarter
    more bits of growth.  The wide minimum spares a bracket fold, whose true
    mass cancellation keeps far below its bound, a widening every few
    events, at little cost: the bigint operations are C-level either way."""
    bits = bound.bit_length()
    return max(64, (bits + bits // 4 + 4) // 64 * 64 + 64)


def _bias(b: int, n: int) -> int:
    """2^(b-1) in each of n slots of b bits, built from bytes."""
    return int.from_bytes((bytes(b // 8 - 1) + b"\x80") * n, "little")


# the slot sign bits, ``_bias(b, n)`` kept; asked for n a power of two, so few per width
sign_bits = lru_cache(maxsize=16)(_bias)


def widest(Ps: Sequence[int]) -> int:
    """The largest |P|.bit_length() of a nonempty sequence: of its max or min."""
    return max(max(Ps).bit_length(), min(Ps).bit_length())


def slot_mass(Ps: list[int], b: int) -> int:
    """The sum of |c_i| over every slot of every P, if below 2^(b-2), in a
    few C-level passes per P.  D = P + H, H the sign bits, holds c_i +
    2^(b-1) per slot; flipping the negative ones and subtracting H leaves
    |c_i| - (c_i < 0) per slot, whose sum is its remainder mod 2^b - 1."""
    if not Ps:
        return 0
    H, ones = sign_bits(b, 1 << (widest(Ps) // b).bit_length()), (1 << b) - 1
    mass = 0
    for P in Ps:
        D = P + H
        neg = ~D & H
        mass += ((D ^ (neg >> (b - 1)) * ones) - H) % ones + neg.bit_count()
    return mass


def encode_slots(vals, b: int) -> int:
    """Sum of vals[i] * 2^(b*i), for signed values with |v| < 2^(b-1)."""
    w = b // 8
    raw = b"".join(v.to_bytes(w, "little", signed=True) for v in vals)
    # raw holds each value in two's complement, which is the value plus the
    # slot bias with the bias bit flipped
    bias = _bias(b, len(vals))
    return (int.from_bytes(raw, "little") ^ bias) - bias


def widened_slots(P: int, b: int, wide: int) -> int:
    """P in slots of `wide` bits instead of b, without decoding: each slot of
    P + H, H the sign bits, holds c_i + 2^(b-1) >= 0 and is zero-extended."""
    n, w = 1 << (abs(P).bit_length() // b).bit_length(), b // 8
    raw = (P + sign_bits(b, n)).to_bytes(n * w, "little")
    spread = int.from_bytes(bytes((wide - b) // 8).join([raw[i:i + w] for i in range(0, n * w, w)]), "little")
    return spread - (sign_bits(wide, n) >> (wide - b))  # minus H, spread the same way


def reslotted(P: int, b: int, wide: int) -> int:
    """P's slot values c_i in slots of `wide` bits, sum_i c_i 2^(wide*i); one
    too wide carries into the next slot (``encode_slots`` would raise)."""
    if wide > b:
        return widened_slots(P, b, wide)
    return P if wide == b else reduce(lambda acc, c: (acc << wide) + c, reversed(slot_values(P, b)), 0)


def slot_values(P: int, b: int) -> list[int]:
    """Signed slot values c_0 .. c_top of P (zeros included); empty for 0."""
    if not P:
        return []
    n = abs(P).bit_length() // b + 1
    bias = _bias(b, n)
    raw = ((P + bias) ^ bias).to_bytes(n * b // 8, "little")
    w = b // 8
    return [int.from_bytes(raw[i:i + w], "little", signed=True) for i in range(0, len(raw), w)]


def pack(poly: LaurentPoly, b: int) -> tuple[int, int]:
    """(r, P) for a nonzero poly = A^r * sum_i c_i A^(4i)."""
    terms = dict(poly)
    r = min(terms)
    vals = [0] * ((max(terms) - r) // 4 + 1)
    for e, c in terms.items():
        if (e - r) % 4:
            raise ValueError(f"coefficient {poly} mixes exponent residues mod 4")
        vals[(e - r) // 4] = c
    return r, encode_slots(vals, b)
