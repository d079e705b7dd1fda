"""Exact Laurent polynomials in a single variable A over arbitrary-precision integers.

``LaurentPoly`` is the public type: a sparse exponent -> coefficient map
with no zero coefficients (canonical form).  ``PackedPoly`` is the fold's
coefficient type: a polynomial A^r * p(A^step), packed into one integer by
Kronecker substitution (see its docstring).  Values of both are immutable
after construction, so they can be shared freely between threads and used as
building blocks of larger immutable states.
"""

from __future__ import annotations

from math import gcd
from typing import Iterator, Mapping, NamedTuple

MIXED = "mixed"


class EmptyPolynomial(ValueError):
    """Raised when an operation needs a nonzero polynomial."""


class NotDivisible(ArithmeticError):
    """Raised when no exact quotient exists in Z[A, A^-1]."""


class SpanGrade(NamedTuple):
    span: int
    grade: int | str  # residue 0..3, or MIXED


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

    def span_and_grade(self) -> SpanGrade:
        """Span = max exponent - min exponent; grade = the common residue of
        all exponents mod 4, or MIXED when they disagree."""
        if not self._terms:
            raise EmptyPolynomial("span_and_grade of the zero polynomial")
        exps = self._terms.keys()
        lo, hi = min(exps), max(exps)
        residues = {e % 4 for e in exps}
        grade = residues.pop() if len(residues) == 1 else MIXED
        return SpanGrade(hi - lo, grade)

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

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        t = dict(self._terms)
        for e, c in other._terms.items():
            s = t.get(e, 0) - c
            if s:
                t[e] = s
            else:
                t.pop(e, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = t
        return out

    def __neg__(self) -> "LaurentPoly":
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = {e: -c for e, c in self._terms.items()}
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


def _slot_width(bound: int) -> int:
    """The slot width, in bits, for values up to `bound` in magnitude: at
    least 64, with room for the sign bit and a quarter more bits of growth.
    Cancellation keeps many values far below their bounds, and the wide
    minimum spares those a refit every few events; it costs little, since
    the bigint operations are C-level either way."""
    bits = bound.bit_length()
    return max(64, (bits + bits // 4 + 4) // 64 * 64 + 64)


def _bias(b: int, n: int) -> int:
    """2^(b-1) in each of n slots of b bits, built from bytes."""
    return int.from_bytes((bytes(b // 8 - 1) + b"\x80") * n, "little")


def _encode(vals, b: int) -> int:
    """Sum of vals[i] * 2^(b*i), for signed values with |v| < 2^(b-1)."""
    w = b // 8
    raw = b"".join(v.to_bytes(w, "little", signed=True) for v in vals)
    # raw holds each value in two's complement, which is the value plus the
    # slot bias with the bias bit flipped
    bias = _bias(b, len(vals))
    return (int.from_bytes(raw, "little") ^ bias) - bias


class PackedPoly:
    """A^r * sum_i c_i A^(step*i), stored as the one integer
    P = sum_i c_i 2^(b*i) (Kronecker substitution, Harvey, arXiv:0712.4046).

    Slots are signed and b bits wide, a multiple of 64.  ``bound`` is a
    proven bound, |c_i| <= bound < 2^(b-1): then the digits of P in base 2^b
    with bias 2^(b-1) are exactly c_i + 2^(b-1), so every slot can be read
    back, and the top slot of a nonzero P is |P|.bit_length() // b.  A sum
    adds the bounds and a factor 1 + A^4 doubles it.  A factor that would
    take the bound to 2^(b-1), or a sum that would take it to 2^(b-3),
    first decodes the true maximum (``_refit``) and keeps b with the tighter
    bound, or repacks into wider slots.  Slot widths come only from decoded
    maxima.

    ``step`` is 4 in every fold that obeys the mod-4 theorem.  Adding two
    values whose offsets differ by a non-multiple of 4 repacks both with the
    gcd of the offsets as step (1 or 2), so such a sum stays exact and the
    fold's mod-4 check sees it as mixed residues.

    Zero low slots are not stripped; readers skip them.  Equality is by
    value, across slot widths and offsets.
    """

    __slots__ = ("r", "step", "b", "bound", "P")

    def __init__(self, r: int, step: int, b: int, bound: int, P: int):
        self.r = r
        self.step = step
        self.b = b
        self.bound = bound
        self.P = P

    @classmethod
    def from_laurent(cls, poly: LaurentPoly) -> "PackedPoly":
        terms = dict(poly)
        if not terms:
            return cls(0, 4, 64, 0, 0)
        r = min(terms)
        step = gcd(4, *(e - r for e in terms))
        vals = [0] * ((max(terms) - r) // step + 1)
        for e, c in terms.items():
            vals[(e - r) // step] = c
        bound = max(abs(c) for c in vals)
        b = _slot_width(bound)
        return cls(r, step, b, bound, _encode(vals, b))

    # -- reading -----------------------------------------------------------

    def _slots(self):
        """Signed slot values c_0 .. c_top (zeros included); empty for zero."""
        P, b = self.P, self.b
        if not P:
            return []
        n = abs(P).bit_length() // b + 1
        bias = _bias(b, n)
        raw = ((P + bias) ^ bias).to_bytes(n * b // 8, "little")
        w = b // 8
        return [int.from_bytes(raw[i:i + w], "little", signed=True) for i in range(0, len(raw), w)]

    def to_laurent(self) -> LaurentPoly:
        r, step = self.r, self.step
        return LaurentPoly({r + step * i: c for i, c in enumerate(self._slots()) if c})

    def exp_range(self) -> tuple[int, int]:
        """Lowest and highest exponent with a nonzero coefficient, from the
        trailing zeros and the bit length of P."""
        P, b = self.P, self.b
        if not P:
            raise EmptyPolynomial("zero polynomial has no exponents")
        low = ((P & -P).bit_length() - 1) // b
        top = abs(P).bit_length() // b
        return self.r + self.step * low, self.r + self.step * top

    def grade(self) -> int | str:
        """The common residue of the exponents mod 4, or MIXED."""
        if self.step == 4:
            return self.r % 4
        return self.to_laurent().span_and_grade().grade

    def is_positive(self) -> bool:
        """Every nonzero coefficient is > 0: P >= 0 and no slot's sign bit
        is set, since a negative slot would borrow from a higher one."""
        P, b = self.P, self.b
        return P >= 0 and not P & _bias(b, P.bit_length() // b + 1)

    def __bool__(self) -> bool:
        return self.P != 0

    def __len__(self) -> int:
        """The number of nonzero terms (decodes every slot)."""
        return sum(1 for c in self._slots() if c)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.to_laurent())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PackedPoly):
            other = other.to_laurent()
        return self.to_laurent() == other

    def __str__(self) -> str:
        return str(self.to_laurent())

    def __repr__(self) -> str:
        return f"PackedPoly({self.to_laurent()._terms!r})"

    # -- arithmetic --------------------------------------------------------

    def _refit(self, grow: int) -> "PackedPoly":
        """The same value with its true maximum as the bound, in slots that
        hold `grow` times that maximum."""
        vals = self._slots()
        bound = max(max(vals), -min(vals)) if len(vals) else 0
        wide = _slot_width(bound * grow)
        if wide <= self.b:
            return PackedPoly(self.r, self.step, self.b, bound, self.P)
        return PackedPoly(self.r, self.step, wide, bound, _encode(vals, wide))

    def _widened(self, b: int) -> "PackedPoly":
        """The same value in slots of b >= self.b bits."""
        return PackedPoly(self.r, self.step, b, self.bound, _encode(self._slots(), b))

    def _restride(self, step: int) -> "PackedPoly":
        """The same value with exponents spaced by a divisor of self.step."""
        k, old = self.step // step, self._slots()
        vals = [0] * ((len(old) - 1) * k + 1)
        vals[::k] = old
        return PackedPoly(self.r, step, self.b, self.bound, _encode(vals, self.b))

    def shifted(self, k: int) -> "PackedPoly":
        """Multiply by A^k."""
        return PackedPoly(self.r + k, self.step, self.b, self.bound, self.P)

    def times_loops(self, shift: int, loops: int, sign: int) -> "PackedPoly":
        """Multiply by A^shift * sign * (A^2 + A^-2)^loops.  Each factor
        A^-2 (1 + A^4) is one shift-add of a slot (step 4)."""
        x = self if not self.bound >> (self.b - 1 - loops) else self._refit(1 << loops)
        P, s = x.P, x.b * (4 // x.step)
        for _ in range(loops):
            P += P << s
        return PackedPoly(x.r + shift - 2 * loops, x.step, x.b, x.bound << loops, P if sign > 0 else -P)

    def __add__(self, other: "PackedPoly") -> "PackedPoly":
        x, y = (self, other) if self.r <= other.r else (other, self)
        d = y.r - x.r
        if d % x.step or x.step != y.step:
            step = gcd(x.step, y.step, d)
            x, y = x._restride(step), y._restride(step)
        b = max(x.b, y.b)
        # refit while the sum still has room for the two factors 1 + A^4
        # the next fold step can apply: a refit in times_loops tightens only
        # the copy that closes a loop, not its twin from the other smoothing
        if (x.bound + y.bound) >> (b - 3):
            x, y = x._refit(8), y._refit(8)
            b = max(x.b, y.b)
        # the bounds now sum to less than 2^(b-3): without a refit by the
        # test above, and after one because _refit(8) leaves each bound below
        # 2^(w-4) in its width w <= b; so the narrower value fits b as it is
        if x.b != b:
            x = x._widened(b)
        if y.b != b:
            y = y._widened(b)
        return PackedPoly(x.r, x.step, b, x.bound + y.bound, x.P + (y.P << b * (d // x.step)))


# Ring constants used throughout the skein machinery.
ONE = LaurentPoly.one()
A = LaurentPoly.monomial(1, 1)
A_INV = LaurentPoly.monomial(1, -1)
# Loop value of the bracket: closing a circle multiplies by -A^2 - A^-2.
DELTA = LaurentPoly({2: -1, -2: -1})
# Loop value of the positive variant: A^2 + A^-2 (no cancellation possible).
DELTA_PLUS = LaurentPoly({2: 1, -2: 1})
