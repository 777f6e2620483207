"""Integer polynomials, so that no oracle needs a computer algebra system:
:class:`IntPoly` holds and prints a chart determinant in ZZ[u, v_j], read back from its
balanced digits, and :func:`rational_roots` finds the rational roots of a Wronskian, with their
multiplicities, by p-adic Newton lifting and rational reconstruction (von zur Gathen and Gerhard,
*Modern Computer Algebra*, section 5.10) after a gcd that reads the same digits."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, isqrt
from typing import List, Optional, Tuple

from .chow import _signed_sum, _term


@dataclass(frozen=True)
class IntPoly:
    """A polynomial over ZZ in ``names``, printed like ``u**2*v2 - 3*u + 1``.

    ``terms`` maps (or pairs) exponent tuples to int coefficients; they are
    stored nonzero, by descending exponents, so equal polynomials are equal.
    """

    names: Tuple[str, ...]
    terms: Tuple[Tuple[Tuple[int, ...], int], ...]

    def __post_init__(self) -> None:
        terms = sorted(((tuple(m), c) for m, c in dict(self.terms).items() if c), reverse=True)
        object.__setattr__(self, "terms", tuple(terms))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def monoms(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(m for m, _ in self.terms)

    def degree(self) -> int:
        """The degree in the first variable of a nonzero polynomial."""
        return self.terms[0][0][0]

    def __str__(self) -> str:
        parts = [
            _term(c, "*".join(x if e == 1 else f"{x}**{e}" for x, e in zip(self.names, m) if e))
            for m, c in self.terms
        ]
        return _signed_sum(parts) if parts else "0"


def _primitive(f: List[int]) -> List[int]:
    """f over its content, with a positive leading coefficient."""
    content = gcd(*f) if f[-1] > 0 else -gcd(*f)
    return [a // content for a in f]


def _divide(f: List[int], g: List[int]) -> Optional[List[int]]:
    """The quotient f / g in ZZ[u], or None when g does not divide f exactly."""
    f, quotient = list(f), [0] * max(len(f) - len(g) + 1, 0)
    for i in reversed(range(len(quotient))):
        quotient[i], rest = divmod(f[i + len(g) - 1], g[-1])
        if rest:
            return None
        for j, b in enumerate(g):
            f[i + j] -= quotient[i] * b
    return None if any(f) else quotient


def _balanced_digits(value: int, radix: int, count: int) -> List[int]:
    """The ``count`` lowest balanced base-``radix`` digits of ``value``, least significant first,
    each in -(radix // 2)..(radix - 1) // 2: a polynomial read back from its value at radix."""
    digits = []
    for _ in range(count):
        value, digit = divmod(value + radix // 2, radix)
        digits.append(digit - radix // 2)
    return digits


def _gcd(f: List[int], g: List[int]) -> Tuple[List[int], List[int]]:
    """The primitive gcd h of f and g (deg f >= deg g >= 0) by GCDHEU (Char, Geddes and Gonnet,
    1989), with the cofactor primitive(f) / h that proves h | f.
    For primitive f, g and X > 1 + 2 min(|f|, |g|) in max norm, gcd(f(X), g(X)) <= |p(X)| for the p
    of smaller norm has at most len(f) balanced base-X digits, and their primitive part is the gcd
    if it divides both (Geddes, Czapor and Labahn, *Algorithms for Computer Algebra*, Thm. 7.7).
    Else X grows: the gcd of the cofactors' values divides their resultant, so a large X reads a
    multiple of the gcd digit by digit."""
    f, g = _primitive(f), _primitive(g)
    x = 2 * min(max(map(abs, f)), max(map(abs, g))) + 2
    while True:
        values = [reduce(lambda value, a: value * x + a, reversed(p), 0) for p in (f, g)]
        h = _balanced_digits(gcd(*values), x, len(f))
        h = _primitive(h[:max(i + 1 for i, a in enumerate(h) if a)])
        cofactor = _divide(f, h)
        if cofactor is not None and _divide(g, h) is not None:
            return h, cofactor
        x = 2 * x + 1


def _value(f: List[int], x: int, modulus: int) -> int:
    value = 0
    for a in reversed(f):
        value = (value * x + a) % modulus
    return value


def rational_roots(coeffs) -> Tuple[Tuple[Fraction, int], ...]:
    """The rational roots, sorted, of an integer polynomial with their multiplicities.

    ``coeffs`` run from the constant term to a nonzero leading one; u^z gives
    the root 0, z times.  A root a/b of the rest f is a simple root of the
    squarefree g = f / gcd(f, f'), up to content, mod the first odd prime p
    with lc(g) != 0 and no root of g and g' in common mod p.  Newton lifts it
    above 2 max(|g(0)|, |lc(g)|)^2 >= 2 max(|a|, |b|)^2, where the half-extended
    Euclid finds a/b; it counts if b u - a divides g, as often as it divides f."""
    zeros = next(i for i, a in enumerate(coeffs) if a)
    f = list(coeffs)[zeros:]
    found = [(Fraction(0), zeros)] if zeros else []
    if len(f) > 1:
        _, g = _gcd(f, [i * a for i, a in enumerate(f)][1:])
        dg = [i * a for i, a in enumerate(g)][1:]
        p = 3
        while True:
            if g[-1] % p and all(p % q for q in range(3, isqrt(p) + 1, 2)):
                residues = [r for r in range(p) if not _value(g, r, p)]
                if all(_value(dg, r, p) for r in residues):
                    break
            p += 2
        bound = 2 * max(abs(g[0]), abs(g[-1])) ** 2
        for r in residues:
            m = p
            while m <= bound:
                m *= m
                r = (r - _value(g, r, m) * pow(_value(dg, r, m), -1, m)) % m
            # the a/b = r mod m with |a|, |b| <= sqrt(m / 2), unique if it exists
            r0, a, t0, b, limit = m, r, 0, 1, isqrt(m // 2)
            while a > limit:
                q = r0 // a
                r0, a, t0, b = a, r0 - q * a, b, t0 - q * b
            if _divide(g, [-a, b]) is None:
                continue
            multiplicity, rest = 0, _divide(f, [-a, b])
            while rest is not None:
                multiplicity, rest = multiplicity + 1, _divide(rest, [-a, b])
            found.append((Fraction(a, b), multiplicity))
    return tuple(sorted(found))
