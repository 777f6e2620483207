"""Exact intersection algebra of scrolls over a smooth curve.

A class on an n-dimensional scroll X -> C is stored in the basis
{L^j, L^(j-1)*F} per codimension j, where L is the hyperplane class and F
the class of a fiber of the projection to the base curve.  The only
relations needed are F*F = 0 and truncation of everything in codimension
greater than n; intersection numbers are read off from L^n = d and
L^(n-1)*F = 1.

Coefficients are sparse polynomials in the two formal parameters d (the
degree of the scroll) and g (the genus of the base curve), with exact
integer or rational coefficients.  Keeping d and g formal lets identities
between classes be established as polynomial identities instead of by
sampling numeric values.  No floating point is used anywhere.

A CoeffPoly stores no zero coefficient and every integral Fraction as an
int, so equal objects have equal terms and hashes.  Public constructors
validate their input; arithmetic builds results through the trusted
``_make`` constructors, which only normalise the coefficients they produce.
As F*F = 0, codimension pieces multiply by the pair rule
(a, b)*(a', b') = (aa', ab' + ba') on the (L^j, L^(j-1)F) coefficients, and
a class 1 + x_1 + ... + x_n is inverted by the power-series recurrence
y_0 = 1, y_m = -sum_{i=1..m} x_i*y_(m-i).  Both accumulate each output
coefficient's pair products in one plain term dict (``_addmul``, which also
multiplies CoeffPolys) and tidy it once, skipping zero coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Optional, Tuple, Union

from .scrollmodel import _text, exact_int, exact_rational, scroll_dimension

Scalar = Union[int, Fraction]
CoeffLike = Union["CoeffPoly", int, Fraction]


def _tidy(terms: dict) -> dict:
    """Drop zero coefficients and store integral Fractions as ints, in place."""
    for key, c in list(terms.items()):
        if not c:
            del terms[key]
        elif type(c) is Fraction and c.denominator == 1:
            terms[key] = c.numerator
    return terms


def _addmul(acc: dict, x: dict, y: dict) -> None:
    """acc += x*y on term dicts, left untidied; a constant factor scales the other's terms."""
    if len(y) == 1 and (0, 0) in y:
        x, y = y, x
    if len(x) == 1 and (0, 0) in x:
        c = x[0, 0]
        for key, v in y.items():
            acc[key] = acc.get(key, 0) + c * v
        return
    for (ed1, eg1), c1 in x.items():
        for (ed2, eg2), c2 in y.items():
            key = (ed1 + ed2, eg1 + eg2)
            acc[key] = acc.get(key, 0) + c1 * c2


def _monomial(*powers: Tuple[str, int]) -> str:
    """The name of a product of (symbol, exponent) powers, like "d^2*g" or "L*F"; "" for 1."""
    return "*".join(symbol if e == 1 else f"{symbol}^{e}" for symbol, e in powers if e)


def _term(c: Scalar, name: str) -> Tuple[str, str]:
    """The (sign, body) pair of the constant c times the monomial ``name`` ("" for 1)."""
    mag = abs(c)
    if not name:
        body = _text(mag)
    elif mag == 1:
        body = name
    else:
        body = f"{_text(mag)}*{name}"
    return ("-" if c < 0 else "+"), body


def _signed_sum(parts: list) -> str:
    """Join (sign, body) pairs as "a - b + c", dropping a leading "+"."""
    text = " ".join(f"{sign} {body}" for sign, body in parts)
    return text[2:] if text[0] == "+" else "-" + text[2:]


def _exact(value, what: str) -> Scalar:
    """An exact rational as an int when integral, else as a Fraction; bools and floats fail."""
    if type(value) is not int and type(value) is not Fraction:
        value = exact_rational(value, what)
    return value.numerator if value.denominator == 1 else value


def _substituted(terms: dict, d: Optional[Scalar], g: Optional[Scalar]) -> "CoeffPoly":
    """The polynomial of ``terms`` with checked values put in for d and/or g (None stays formal)."""
    out: dict = {}
    for (ed, eg), c in terms.items():
        if d is not None:
            c, ed = c * d**ed, 0
        if g is not None:
            c, eg = c * g**eg, 0
        out[ed, eg] = out.get((ed, eg), 0) + c
    return CoeffPoly._make(_tidy(out))


class CoeffPoly:
    """Polynomial in the formal parameters d and g.

    Terms are a map from exponent pairs (e_d, e_g) to nonzero exact
    coefficients.  Instances are immutable; every operator returns a new
    object.  The module constants ``D`` and ``G`` are the two generators,
    so e.g. ``2 * D + 4 * (G - 1)`` builds 2d + 4g - 4.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[Mapping[Tuple[int, int], Scalar]] = None):
        clean: dict[Tuple[int, int], Scalar] = {}
        for (ed, eg), c in (terms or {}).items():
            ed, eg = exact_int(ed, "an exponent of d", 0), exact_int(eg, "an exponent of g", 0)
            if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
                raise TypeError(f"coefficient {c!r} is not an exact number")
            clean[(ed, eg)] = c
        self._terms = _tidy(clean)

    @classmethod
    def _make(cls, terms: dict) -> "CoeffPoly":
        """Trusted constructor: ``terms`` is already in canonical form and is not copied."""
        poly = object.__new__(cls)
        poly._terms = terms
        return poly

    @classmethod
    def const(cls, c: Scalar) -> "CoeffPoly":
        return cls({(0, 0): c})

    @staticmethod
    def coerce(value: CoeffLike) -> "CoeffPoly":
        if isinstance(value, CoeffPoly):
            return value
        if isinstance(value, bool):
            raise TypeError("booleans are not coefficients")
        if isinstance(value, (int, Fraction)):
            return CoeffPoly._make(_tidy({(0, 0): value}))
        raise TypeError(f"cannot interpret {value!r} as a d/g polynomial")

    def terms(self) -> dict[Tuple[int, int], Scalar]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not self._terms or set(self._terms) == {(0, 0)}

    def constant_value(self) -> Scalar:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self._terms.get((0, 0), 0)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __add__(self, other: CoeffLike) -> "CoeffPoly":
        other = CoeffPoly.coerce(other)
        merged = dict(self._terms)
        for key, c in other._terms.items():
            merged[key] = merged.get(key, 0) + c
        return CoeffPoly._make(_tidy(merged))

    __radd__ = __add__

    def __neg__(self) -> "CoeffPoly":
        return CoeffPoly._make({key: -c for key, c in self._terms.items()})

    def __sub__(self, other: CoeffLike) -> "CoeffPoly":
        return self + (-CoeffPoly.coerce(other))

    def __rsub__(self, other: CoeffLike) -> "CoeffPoly":
        return CoeffPoly.coerce(other) + (-self)

    def __mul__(self, other: CoeffLike) -> "CoeffPoly":
        if isinstance(other, ChowClass):
            return NotImplemented  # ChowClass.__rmul__ scales the class
        other = CoeffPoly.coerce(other)
        prod: dict[Tuple[int, int], Scalar] = {}
        _addmul(prod, self._terms, other._terms)
        return CoeffPoly._make(_tidy(prod))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "CoeffPoly":
        result = CoeffPoly.const(1)
        for _ in range(exact_int(exponent, "an exponent", 0)):
            result = result * self
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            other = CoeffPoly.const(other)
        if not isinstance(other, CoeffPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # canonical terms: an integral Fraction is stored as an int, which hashes alike;
        # a constant equals its number, so it hashes as that number
        if self.is_constant():
            return hash(self.constant_value())
        return hash(frozenset(self._terms.items()))

    def substitute(
        self,
        d: Optional[Scalar] = None,
        g: Optional[Scalar] = None,
    ) -> "CoeffPoly":
        """Plug exact values into d and/or g; omitted parameters stay formal.

        Each value is checked once, and an integral one is substituted as an
        int, so integer data builds no Fraction.
        """
        d = None if d is None else _exact(d, "d")
        g = None if g is None else _exact(g, "g")
        return _substituted(self._terms, d, g)

    def evaluate(self, d: Scalar, g: Scalar) -> Fraction:
        """Evaluate at exact rational values; this is a ring homomorphism."""
        return Fraction(_substituted(self._terms, _exact(d, "d"), _exact(g, "g")).constant_value())

    def _sorted_terms(self) -> list[Tuple[Tuple[int, int], Scalar]]:
        # canonical printing order: degree-lexicographic, d before g
        return sorted(
            self._terms.items(),
            key=lambda item: (-(item[0][0] + item[0][1]), -item[0][0]),
        )

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for (ed, eg), c in self._sorted_terms():
            parts.append(_term(c, _monomial(("d", ed), ("g", eg))))
        return _signed_sum(parts)

    def __repr__(self) -> str:
        return f"CoeffPoly({self})"


#: The formal degree and genus parameters, and the shared zero and one.
D = CoeffPoly({(1, 0): 1})
G = CoeffPoly({(0, 1): 1})
_ZERO = CoeffPoly()
_ONE = CoeffPoly.const(1)


class ChowClass:
    """Graded class on an n-dimensional scroll, in the {L^j, L^(j-1)F} basis.

    The data is, for each codimension j in 0..n, the pair of coefficients
    (alpha_j, beta_j) of L^j and L^(j-1)*F.  There is no fiber part in
    codimension 0, products involving F*F vanish, and anything of
    codimension beyond n is dropped eagerly.
    """

    __slots__ = ("_n", "_alpha", "_beta")

    def __init__(self, n: int, terms: Iterable[Tuple[int, CoeffLike, CoeffLike]] = ()):
        n = scroll_dimension(n)
        alpha = [_ZERO] * (n + 1)
        beta = [_ZERO] * (n + 1)
        for j, a, b in terms:
            j = exact_int(j, "a codimension", 0, n)
            a, b = CoeffPoly.coerce(a), CoeffPoly.coerce(b)
            if j == 0 and not b.is_zero():
                raise ValueError("codimension 0 admits no fiber term")
            alpha[j] = a if alpha[j] is _ZERO else alpha[j] + a  # no copy onto the shared zero
            beta[j] = b if beta[j] is _ZERO else beta[j] + b
        self._n, self._alpha, self._beta = n, tuple(alpha), tuple(beta)

    @classmethod
    def _make(cls, n: int, alpha: tuple, beta: tuple) -> "ChowClass":
        """Trusted constructor from the (alpha_j) and (beta_j) tuples, j = 0..n."""
        chow = object.__new__(cls)
        chow._n, chow._alpha, chow._beta = n, alpha, beta
        return chow

    @property
    def n(self) -> int:
        return self._n

    @classmethod
    def unit(cls, n: int) -> "ChowClass":
        return cls(n, [(0, 1, 0)])

    @classmethod
    def hyperplane(cls, n: int) -> "ChowClass":
        """The hyperplane class L."""
        return cls(n, [(1, 1, 0)])

    @classmethod
    def fiber(cls, n: int) -> "ChowClass":
        """The fiber class F."""
        return cls(n, [(1, 0, 1)])

    def term(self, j: int) -> Tuple[CoeffPoly, CoeffPoly]:
        """The coefficient pair (alpha_j, beta_j) in codimension j."""
        j = exact_int(j, "a codimension", 0, self._n)
        return self._alpha[j], self._beta[j]

    def pieces(self) -> list[Tuple[int, CoeffPoly, CoeffPoly]]:
        """Nonzero graded pieces as (codim, alpha, beta), ascending codim."""
        pairs = enumerate(zip(self._alpha, self._beta))
        return [(j, a, b) for j, (a, b) in pairs if a._terms or b._terms]

    def is_zero(self) -> bool:
        return not self.pieces()

    def homogeneous_codim(self) -> Optional[int]:
        """Codimension of the single nonzero piece; None for the zero class.

        Raises ValueError when several graded pieces are nonzero.
        """
        pieces = self.pieces()
        if not pieces:
            return None
        if len(pieces) > 1:
            raise ValueError(f"{self} is not homogeneous")
        return pieces[0][0]

    def _require_same_ring(self, other: "ChowClass") -> None:
        if self._n != other._n:
            raise ValueError(
                f"classes live on scrolls of different dimension ({self._n} vs {other._n})"
            )

    def __add__(self, other: "ChowClass") -> "ChowClass":
        if not isinstance(other, ChowClass):
            return NotImplemented
        self._require_same_ring(other)
        return ChowClass._make(
            self._n,
            tuple(a + a2 for a, a2 in zip(self._alpha, other._alpha)),
            tuple(b + b2 for b, b2 in zip(self._beta, other._beta)),
        )

    def __neg__(self) -> "ChowClass":
        return ChowClass._make(
            self._n, tuple(-a for a in self._alpha), tuple(-b for b in self._beta)
        )

    def __sub__(self, other: "ChowClass") -> "ChowClass":
        if not isinstance(other, ChowClass):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Union["ChowClass", CoeffLike]) -> "ChowClass":
        if not isinstance(other, ChowClass):
            scalar = CoeffPoly.coerce(other)
            return ChowClass._make(
                self._n,
                tuple(a * scalar for a in self._alpha),
                tuple(b * scalar for b in self._beta),
            )
        self._require_same_ring(other)
        n = self._n
        left, right = self.pieces(), [(q, aq._terms, bq._terms) for q, aq, bq in other.pieces()]
        # no product reaches past codimension top, so only dicts up to it are made
        top = min(n, left[-1][0] + right[-1][0]) if left and right else 0
        alpha, beta = [{} for _ in range(top + 1)], [{} for _ in range(top + 1)]
        for p, ap, bp in left:
            ap, bp = ap._terms, bp._terms
            for q, aq, bq in right:
                j = p + q
                if j > n:
                    break
                # pair rule: L^p * L^q and the two mixed terms; the beta*beta
                # product carries F*F and dies.
                if ap:
                    _addmul(alpha[j], ap, aq)
                    _addmul(beta[j], ap, bq)
                if bp:
                    _addmul(beta[j], bp, aq)
        pad = (_ZERO,) * (n - top)
        return ChowClass._make(
            n,
            tuple(map(CoeffPoly._make, map(_tidy, alpha))) + pad,
            tuple(map(CoeffPoly._make, map(_tidy, beta))) + pad,
        )

    def __rmul__(self, other: CoeffLike) -> "ChowClass":
        return self * other

    def __pow__(self, exponent: int) -> "ChowClass":
        result = ChowClass.unit(self._n)
        for _ in range(exact_int(exponent, "an exponent", 0)):
            result = result * self
        return result

    def inverse(self) -> "ChowClass":
        """Multiplicative inverse, as a power series truncated beyond codim n.

        Requires constant term exactly 1, so self = 1 + x_1 + ... + x_n with
        x_i of codimension i.  The inverse y is the recurrence y_0 = 1,
        y_m = -sum_{i=1..m} x_i * y_(m-i), each product by the pair rule
        (a_i, b_i) * (a_r, b_r) = (a_i a_r, a_i b_r + b_i a_r) as F*F = 0:
        O(n^2) coefficient pair products.  The x_i are negated once, and each
        y_m is summed in term dicts tidied once.  The result satisfies
        self * y == 1 on the nose (truncation included).
        """
        if self._alpha[0]._terms != {(0, 0): 1} or self._beta[0]._terms:
            raise ValueError("inverse requires constant term 1")
        n = self._n
        alpha, beta = [{(0, 0): 1}], [{}]  # term dicts of y_0, y_1, ...
        xs = [(i, (-a_i)._terms, (-b_i)._terms) for i, a_i, b_i in self.pieces()[1:]]
        for m in range(1, n + 1):
            a, b = {}, {}
            for i, a_i, b_i in xs:
                if i > m:
                    break
                if a_i:
                    _addmul(a, a_i, alpha[m - i])
                    _addmul(b, a_i, beta[m - i])
                if b_i:
                    _addmul(b, b_i, alpha[m - i])
            alpha.append(_tidy(a))
            beta.append(_tidy(b))
        return ChowClass._make(
            n, tuple(map(CoeffPoly._make, alpha)), tuple(map(CoeffPoly._make, beta))
        )

    def evaluate(
        self,
        d: Optional[Scalar] = None,
        g: Optional[Scalar] = None,
    ) -> "ChowClass":
        """Substitute exact values for d and/or g in every coefficient.

        The values are checked once for the whole class, integral ones go in
        as ints, and zero coefficients are passed over.
        """
        d = None if d is None else _exact(d, "d")
        g = None if g is None else _exact(g, "g")
        return ChowClass._make(
            self._n,
            tuple(_substituted(a._terms, d, g) if a._terms else a for a in self._alpha),
            tuple(_substituted(b._terms, d, g) if b._terms else b for b in self._beta),
        )

    def degree_poly(self) -> CoeffPoly:
        """Degree of a homogeneous class, as a polynomial in d and g.

        For a class of codimension j this is the intersection number with
        L^(n-j), i.e. alpha_j * d + beta_j.  The zero class has degree 0.
        """
        j = self.homogeneous_codim()
        if j is None:
            return CoeffPoly()
        a, b = self.term(j)
        return a * D + b

    def degree(self, d: Scalar, g: Scalar) -> Fraction:
        """Degree of a homogeneous class at exact numeric (d, g)."""
        return self.degree_poly().evaluate(d, g)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChowClass):
            return NotImplemented
        return (
            self._n == other._n
            and self._alpha == other._alpha
            and self._beta == other._beta
        )

    def __hash__(self) -> int:
        return hash((self._n, self._alpha, self._beta))

    def __str__(self) -> str:
        chunks: list[Tuple[str, str]] = []  # (sign, body)
        for j, a, b in self.pieces():
            # codimension 0 has no fiber term, so L^(-1)*F is never printed
            for coeff, name in ((a, _monomial(("L", j))), (b, _monomial(("L", j - 1), ("F", 1)))):
                if coeff.is_zero():
                    continue
                if coeff.is_constant():
                    chunks.append(_term(coeff.constant_value(), name))
                else:
                    chunks.append(("+", f"({coeff})*{name}" if name else f"({coeff})"))
        if not chunks:
            return "0"
        return _signed_sum(chunks)

    def __repr__(self) -> str:
        return f"ChowClass(n={self._n}, {self})"
