"""Span and mod-4 grade of a Laurent polynomial, for the tests' checks of
the span bounds and the grading."""

from skeinscan.laurent import LaurentPoly


def span_and_grade(p: LaurentPoly) -> tuple[int, int | None]:
    """(span, grade) of a nonzero polynomial: its highest exponent minus its
    lowest, and the common residue of its exponents mod 4, or None when
    they disagree.  Raises EmptyPolynomial for zero."""
    lo = p.min_exp()
    exps = [e for e, _ in p]
    residues = {e % 4 for e in exps}
    return max(exps) - lo, residues.pop() if len(residues) == 1 else None
