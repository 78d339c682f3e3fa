"""Exact symbolic expressions for the derived right-hand sides.

A :class:`SymbolicExpr` is a finite sum of terms

    coeff * a_{j1}^{e1} ... * u_{i1}^{f1} ... * exp(c_1 u_{l1} + c_2 u_{l2} + ...)

with exact rational-complex coefficients, integer powers, and integer-linear
exponential forms (the l's are Cartan directions, the c's integers).  The
representation is canonical: terms are merged by (exponential form,
monomial), zero coefficients pruned, and the term list kept sorted by a
deterministic total order — so structural equality is plain ``==`` and
rendering is byte-stable.

Only exact operations are provided (ring arithmetic, scaling by rationals,
multiplication by exponential forms); floats never enter.  Numerical
evaluation happens in one place, :meth:`SymbolicExpr.evaluate`.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter

import numpy as np

__all__ = ["RationalComplex", "SymbolicExpr"]

Symbol = tuple[str, int]                      # ("a", j) or ("u", i), 1-based
Monomial = tuple[tuple[Symbol, int], ...]     # sorted, powers >= 1
ExpForm = tuple[tuple[int, int], ...]         # sorted (u-index, integer coeff != 0)
TermKey = tuple[ExpForm, Monomial]


def _rational(x: "int | Fraction") -> "int | Fraction":
    """x as an ``int`` when it is integral, else the ``Fraction`` itself."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


class RationalComplex:
    """Exact complex number with rational real and imaginary parts.

    Each part is an ``int`` when it is integral and a ``Fraction`` otherwise,
    so the integer arithmetic that makes up almost all of a derivation runs
    on Python ints.  Instances are immutable.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: "int | Fraction" = 0, im: "int | Fraction" = 0):
        for x in (re, im):
            if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
                raise TypeError(f"parts must be int or Fraction, not {type(x).__name__}")
        _set_re(self, _rational(re))
        _set_im(self, _rational(im))

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"RationalComplex is immutable; cannot set {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return RationalComplex, (self.re, self.im)

    @staticmethod
    def coerce(x: "RationalComplex | Fraction | int") -> "RationalComplex":
        if isinstance(x, RationalComplex):
            return x
        if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
            return RationalComplex(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to RationalComplex")

    def __eq__(self, other) -> bool:
        if other.__class__ is not RationalComplex:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"RationalComplex(re={self.re!r}, im={self.im!r})"

    def __add__(self, other: "RationalComplex") -> "RationalComplex":
        return _make(_rational(self.re + other.re), _rational(self.im + other.im))

    def __neg__(self) -> "RationalComplex":
        return _make(-self.re, -self.im)

    def __mul__(self, other: "RationalComplex") -> "RationalComplex":
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b and not d:
            return _make(_rational(a * c), 0)
        return _make(_rational(a * c - b * d), _rational(a * d + b * c))

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    def to_complex(self) -> complex:
        return complex(self.re, self.im)


_new = object.__new__
_set_re = RationalComplex.re.__set__
_set_im = RationalComplex.im.__set__
_term_key = itemgetter(0)


def _make(re: "int | Fraction", im: "int | Fraction") -> RationalComplex:
    """A value from parts that are already normalised (no checks)."""
    out = _new(RationalComplex)
    _set_re(out, re)
    _set_im(out, im)
    return out


_ZERO = RationalComplex()
_ONE = RationalComplex(1)


def _is_scalar(x) -> bool:
    return isinstance(x, (int, Fraction, RationalComplex)) and not isinstance(x, bool)


def _rat_plain(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _rat_latex(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    sign = "-" if x < 0 else ""
    return rf"{sign}\frac{{{abs(x.numerator)}}}{{{x.denominator}}}"


class SymbolicExpr:
    """Canonical exact expression; see the module docstring.

    Construct via :meth:`a`, :meth:`u`, :meth:`number` and combine with
    ``+ - *`` and :meth:`times_exp`.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[TermKey, RationalComplex] | None = None):
        items = [(key, c) for key, c in terms.items() if c.re or c.im] if terms else []
        items.sort(key=_term_key)
        self._terms: tuple[tuple[TermKey, RationalComplex], ...] = tuple(items)

    @staticmethod
    def _canonical(terms: tuple[tuple[TermKey, RationalComplex], ...]) -> "SymbolicExpr":
        """An expression from terms that are already sorted and nonzero."""
        out = _new(SymbolicExpr)
        out._terms = terms
        return out

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "SymbolicExpr":
        return SymbolicExpr()

    @staticmethod
    def number(x: "RationalComplex | Fraction | int") -> "SymbolicExpr":
        return SymbolicExpr({((), ()): RationalComplex.coerce(x)})

    @staticmethod
    def a(j: int) -> "SymbolicExpr":
        """The coefficient symbol a_j (1-based)."""
        if j < 1:
            raise ValueError(f"symbol index must be >= 1, got {j}")
        return SymbolicExpr({((), ((("a", j), 1),)): _ONE})

    @staticmethod
    def u(i: int) -> "SymbolicExpr":
        """The unknown symbol u_i (1-based)."""
        if i < 1:
            raise ValueError(f"symbol index must be >= 1, got {i}")
        return SymbolicExpr({((), ((("u", i), 1),)): _ONE})

    @staticmethod
    def exp_u(form: dict[int, int]) -> "SymbolicExpr":
        """exp(sum_i form[i] * u_i) as an expression."""
        key = (tuple(sorted((i, c) for i, c in form.items() if c != 0)), ())
        return SymbolicExpr({key: _ONE})

    # -- ring arithmetic ----------------------------------------------------

    @staticmethod
    def sum_of(exprs: "Iterable[SymbolicExpr]") -> "SymbolicExpr":
        """The sum of ``exprs``, with like terms merged once for all of them."""
        acc: dict[TermKey, RationalComplex] = {}
        get = acc.get
        for expr in exprs:
            for key, coeff in expr._terms:
                old = get(key)
                acc[key] = coeff if old is None else old + coeff
        return SymbolicExpr(acc)

    def _coerce_operand(self, other) -> "SymbolicExpr | None":
        if isinstance(other, SymbolicExpr):
            return other
        if _is_scalar(other):
            return SymbolicExpr.number(other)
        return None

    def __add__(self, other) -> "SymbolicExpr":
        rhs = self._coerce_operand(other)
        if rhs is None:
            return NotImplemented
        return SymbolicExpr.sum_of((self, rhs))

    __radd__ = __add__

    def __neg__(self) -> "SymbolicExpr":
        return SymbolicExpr._canonical(tuple((key, -c) for key, c in self._terms))

    def __sub__(self, other) -> "SymbolicExpr":
        rhs = self._coerce_operand(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> "SymbolicExpr":
        rhs = self._coerce_operand(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other) -> "SymbolicExpr":
        if not isinstance(other, SymbolicExpr):
            if not _is_scalar(other):
                return NotImplemented
            # a nonzero scalar keeps every key, so the order and the
            # nonzero coefficients stand
            x = RationalComplex.coerce(other)
            if x.is_zero:
                return SymbolicExpr()
            return SymbolicExpr._canonical(tuple((key, c * x) for key, c in self._terms))
        acc: dict[TermKey, RationalComplex] = {}
        get = acc.get
        for (form1, mono1), c1 in self._terms:
            for (form2, mono2), c2 in other._terms:
                key = (_merge_forms(form1, form2), _merge_monomials(mono1, mono2))
                c = c1 * c2
                old = get(key)
                acc[key] = c if old is None else old + c
        return SymbolicExpr(acc)

    __rmul__ = __mul__

    def times_exp(self, form: dict[int, int]) -> "SymbolicExpr":
        """Multiply every term by exp(sum_i form[i] * u_i)."""
        extra = tuple(sorted((i, c) for i, c in form.items() if c != 0))
        if not extra:
            return self
        return SymbolicExpr(
            {
                (_merge_forms(f, extra), mono): coeff
                for (f, mono), coeff in self._terms
            }
        )

    # -- structure queries --------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> tuple[tuple[TermKey, RationalComplex], ...]:
        """Canonically ordered (key, coefficient) pairs."""
        return self._terms

    def u_indices(self) -> set[int]:
        """Indices of u symbols appearing polynomially."""
        out: set[int] = set()
        for (_, mono), _c in self._terms:
            out.update(idx for (kind, idx), _p in mono if kind == "u")
        return out

    def exp_indices(self) -> set[int]:
        """Indices of u symbols appearing inside exponential forms."""
        out: set[int] = set()
        for (form, _), _c in self._terms:
            out.update(i for i, _ in form)
        return out

    def degree_in(self, u_subset: set[int]) -> int:
        """Max total polynomial degree over the given u indices."""
        deg = 0
        for (_, mono), _c in self._terms:
            deg = max(
                deg,
                sum(p for (kind, idx), p in mono if kind == "u" and idx in u_subset),
            )
        return deg

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, a: np.ndarray, u: np.ndarray) -> complex:
        """Numeric value with a_j -> a[j-1], u_i -> u[i-1]."""
        total = 0j
        for (form, mono), coeff in self._terms:
            val = coeff.to_complex()
            for (kind, idx), power in mono:
                base = a[idx - 1] if kind == "a" else u[idx - 1]
                val *= base**power
            if form:
                val *= np.exp(sum(c * u[i - 1] for i, c in form))
            total += val
        return complex(total)

    # -- equality / hashing -------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymbolicExpr):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def __repr__(self) -> str:
        return f"SymbolicExpr({self.render_plain()})"

    # -- rendering ----------------------------------------------------------

    def render_plain(self) -> str:
        if not self._terms:
            return "0"
        out: list[str] = []
        for (form, mono), coeff in self._terms:
            sign, body = _term_plain(form, mono, coeff)
            if not out:
                out.append(body if sign > 0 else f"-{body}")
            else:
                out.append(f"{'+' if sign > 0 else '-'} {body}")
        return " ".join(out)

    def render_latex(self) -> str:
        if not self._terms:
            return "0"
        out: list[str] = []
        for (form, mono), coeff in self._terms:
            sign, body = _term_latex(form, mono, coeff)
            if not out:
                out.append(body if sign > 0 else f"-{body}")
            else:
                out.append(f"{'+' if sign > 0 else '-'} {body}")
        return " ".join(out)

    # -- JSON ---------------------------------------------------------------

    def to_json_obj(self) -> list:
        terms = []
        for (form, mono), coeff in self._terms:
            terms.append(
                {
                    "coeff": {
                        "re": [coeff.re.numerator, coeff.re.denominator],
                        "im": [coeff.im.numerator, coeff.im.denominator],
                    },
                    "monomial": [[kind, idx, power] for (kind, idx), power in mono],
                    "exponent": [[i, c] for i, c in form],
                }
            )
        return terms

    def to_json_text(self, depth: int = 0) -> str:
        """``json.dumps(self.to_json_obj(), indent=2)``, written directly.

        ``depth`` is the nesting level of the list in an enclosing document:
        each line after the first is indented by 2 * ``depth`` more spaces.
        """
        if not self._terms:
            return "[]"
        n0 = "\n" + "  " * depth
        n1, n2, n3, n4 = (n0 + "  " * k for k in range(1, 5))
        pair = "[" + n4 + "%d," + n4 + "%d" + n3 + "]"
        head = (
            "{" + n2 + '"coeff": {' + n3 + '"re": ' + pair + "," + n3 + '"im": '
            + pair + n2 + "}," + n2 + '"monomial": '
        )
        symbol = "[" + n4 + "%s," + n4 + "%d," + n4 + "%d" + n3 + "]"
        middle, tail, sep = "," + n2 + '"exponent": ', n1 + "}", "," + n3
        terms = []
        for (form, mono), c in self._terms:
            re, im = c.re, c.im
            symbols = [symbol % (_quote(kind), idx, p) for (kind, idx), p in mono]
            pairs = [pair % ic for ic in form]
            terms.append(
                head % (re.numerator, re.denominator, im.numerator, im.denominator)
                + ("[" + n3 + sep.join(symbols) + n2 + "]" if symbols else "[]")
                + middle
                + ("[" + n3 + sep.join(pairs) + n2 + "]" if pairs else "[]")
                + tail
            )
        return "[" + n1 + ("," + n1).join(terms) + n0 + "]"

    @staticmethod
    def from_json_obj(obj: list) -> "SymbolicExpr":
        acc: dict[TermKey, RationalComplex] = {}
        for term in obj:
            coeff = RationalComplex(
                Fraction(term["coeff"]["re"][0], term["coeff"]["re"][1]),
                Fraction(term["coeff"]["im"][0], term["coeff"]["im"][1]),
            )
            mono = tuple(
                ((kind, int(idx)), int(power))
                for kind, idx, power in term["monomial"]
            )
            form = tuple((int(i), int(c)) for i, c in term["exponent"])
            key = (form, mono)
            acc[key] = acc.get(key, _ZERO) + coeff
        return SymbolicExpr(acc)


# ---------------------------------------------------------------------------
# term internals
# ---------------------------------------------------------------------------


def _merge_monomials(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1 or not m2:
        return m1 or m2
    acc: dict[Symbol, int] = dict(m1)
    for sym, p in m2:
        acc[sym] = acc.get(sym, 0) + p
    return tuple(sorted(acc.items()))


def _merge_forms(f1: ExpForm, f2: ExpForm) -> ExpForm:
    if not f1 or not f2:
        return f1 or f2
    acc: dict[int, int] = dict(f1)
    for i, c in f2:
        acc[i] = acc.get(i, 0) + c
    return tuple(sorted((i, c) for i, c in acc.items() if c != 0))


def _coeff_sign_and_body(coeff: RationalComplex, latex: bool) -> tuple[int, str, bool]:
    """(sign, rendered magnitude, is_trivial_one) for a coefficient."""
    rat = _rat_latex if latex else _rat_plain
    if coeff.im == 0:
        sign = -1 if coeff.re < 0 else 1
        mag = abs(coeff.re)
        return sign, rat(mag), mag == 1
    if coeff.re == 0:
        sign = -1 if coeff.im < 0 else 1
        mag = abs(coeff.im)
        body = ("i" if mag == 1 else f"{rat(mag)}i") if not latex else (
            "i" if mag == 1 else f"{rat(mag)} i"
        )
        return sign, body, False
    inner = f"{rat(coeff.re)}{'+' if coeff.im > 0 else '-'}{rat(abs(coeff.im))}i"
    body = rf"\left({inner}\right)" if latex else f"({inner})"
    return 1, body, False


def _form_inner(form: ExpForm, latex: bool) -> str:
    parts: list[str] = []
    for i, c in form:
        sym = f"u_{{{i}}}" if latex else f"u{i}"
        if c == 1:
            piece = sym
        elif c == -1:
            piece = f"-{sym}"
        else:
            piece = f"{c} {sym}" if latex else f"{c}*{sym}"
        if parts:
            parts.append(f"+ {piece}" if not piece.startswith("-") else f"- {piece[1:]}")
        else:
            parts.append(piece)
    return " ".join(parts)


def _term_plain(form: ExpForm, mono: Monomial, coeff: RationalComplex) -> tuple[int, str]:
    sign, coeff_body, trivial = _coeff_sign_and_body(coeff, latex=False)
    pieces: list[str] = []
    for (kind, idx), power in mono:
        sym = f"{kind}{idx}"
        pieces.append(sym if power == 1 else f"{sym}^{power}")
    if form:
        pieces.append(f"exp({_form_inner(form, latex=False)})")
    if not pieces:
        return sign, coeff_body
    if not trivial:
        pieces.insert(0, coeff_body)
    return sign, "*".join(pieces)


def _term_latex(form: ExpForm, mono: Monomial, coeff: RationalComplex) -> tuple[int, str]:
    sign, coeff_body, trivial = _coeff_sign_and_body(coeff, latex=True)
    pieces: list[str] = []
    for (kind, idx), power in mono:
        sym = f"{kind}_{{{idx}}}"
        pieces.append(sym if power == 1 else f"{sym}^{{{power}}}")
    if form:
        pieces.append(f"e^{{{_form_inner(form, latex=True)}}}")
    if not pieces:
        return sign, coeff_body
    if not trivial:
        pieces.insert(0, coeff_body)
    return sign, " ".join(pieces)
