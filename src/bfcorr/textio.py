"""Textual round-trip serialization for polynomials, rational functions
and Laurent series.

Format: numerators and series are fully expanded monomial sums with
explicit ``*`` and ``^`` (coefficients as exact ``p/q``); denominators
are printed as factored atoms, e.g.::

    (z1^2 - 2*z1*w1 + w1^2) / ((z1-w1)^1 (z1+w1)^2)

It is read from one token stream, by one function per rule::

    sum      := ['-'] term (('+'|'-') term)*
    term     := num ['/' num] ['*' factors] | factors
    factors  := name ['^' ['-'] num] ('*' name ['^' ['-'] num])*
    rational := '(' sum ')' ['/' '(' atom* ')'] | sum
    atom     := '(' name [('+'|'-') name] ')' ['^' ['-'] num]

with a nonzero coefficient denominator and a positive atom exponent.
``parse_rational`` reads a rational and ``parse_series`` a sum.

A sum is written in one pass by one formatter, on packed keys
(``poly.Codec``): a series's own, and a polynomial's packed first, in a
frame as wide as its largest exponent.  A key splits into its first n//2
entries and the rest, and each half has a table from its digits to its
factors, each after a ``*`` (``"*z1^2*z2"``, ``""`` for all zeros); the
sum has one from coefficient to sign and magnitude prefix (``"+ "``,
``"- 3/2*"``).  The tables are filled on first use, so a term costs two
half lookups and a join; the constant term, key 0, and the first term's
sign are fixed once, after it.  A series's width, (nD).bit_length() + 1,
holds every box entry, in [-D, nD], and entry 0 is the most significant
digit, so descending keys are descending exponent tuples and the text is
the one a formatter on tuples writes, byte for byte.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import partial
from itertools import chain
from operator import itemgetter
from typing import Dict, Tuple

from .poly import MultiPoly, Rat, Table, frame_codec
from .ratfun import PoleFactor, RationalFn, diff_factor, sum_factor, var_factor
from .series import LaurentSeries

_TOKEN = re.compile(r"\s*(?:(?P<integer>\d+)|(?P<variable>[A-Za-z_][A-Za-z0-9_]*)|(?P<symbol>[-+*/^()]))")


def _prefix(c) -> str:
    mag = abs(c)
    return ("+ " if c > 0 else "- ") + ("" if mag == 1 else f"{mag}*")


def _factor(names, text: str, k: int, x: int) -> str:
    """``text`` followed by the factor of variable k at exponent x, after a "*"."""
    return text + (f"*{names[k]}" if x == 1 else f"*{names[k]}^{x}" if x else "")


def _sum_text(names, codec, terms: dict) -> str:
    """{key: coefficient} over ``names``, packed by ``codec``, as a sum,
    highest key first."""
    if not terms:
        return "0"
    first, second = codec.tables(partial(_factor, names), "")
    bias, shift, mask = codec.bias, codec.shift, codec.mask
    prefix = Table(_prefix)
    chunks = [prefix[c] + (first[(u := k + bias) >> shift] + second[u & mask])[1:]
              for k, c in sorted(terms.items(), key=itemgetter(0), reverse=True)]
    const = terms.get(0)  # the key of the zero tuple
    if const is not None:
        # the one chunk that is a bare prefix: every other chunk ends in its monomial
        chunks[chunks.index(prefix[const])] = prefix[const][:2] + str(abs(const))
    chunks[0] = chunks[0][2:] if chunks[0][0] == "+" else "-" + chunks[0][2:]
    return " ".join(chunks)


def format_poly(p: MultiPoly) -> str:
    codec = frame_codec(len(p.alphabet), max(chain.from_iterable(p.terms), default=0))
    return _sum_text(p.alphabet, codec, codec.pack_terms(p.terms.items()))


def _atom_text(alphabet, atom: PoleFactor) -> str:
    if atom[0] == "var":
        return f"({alphabet[atom[1]]})"
    op = "-" if atom[0] == "diff" else "+"
    return f"({alphabet[atom[1]]}{op}{alphabet[atom[2]]})"


def format_rational(f: RationalFn) -> str:
    num = format_poly(f.num)
    if not f.den:
        return num
    atoms = sorted(f.den.items(), key=lambda kv: (kv[0][0], kv[0][1:]))
    den = " ".join(f"{_atom_text(f.alphabet, a)}^{e}" for a, e in atoms)
    return f"({num}) / ({den})"


def format_series(s: LaurentSeries) -> str:
    return _sum_text(s.ordering, s.codec, s.terms)


class _Tokens:
    """A text's (kind, value) tokens, read front to back, then ("end", "end
    of input"), and the alphabet its variables are read in: ``alphabet``,
    or the text's variables in order of first appearance."""

    def __init__(self, text: str, alphabet=None):
        self.toks, self.i, pos = [], 0, 0
        while m := _TOKEN.match(text, pos):
            value = m[m.lastgroup]
            self.toks.append((m.lastgroup, int(value) if m.lastgroup == "integer" else value))
            pos = m.end()
        if text[pos:].strip():
            raise ValueError(f"expected a number, a variable or one of -+*/^() at: {text[pos:pos + 20]!r}")
        self.toks.append(("end", "end of input"))
        names = (v for k, v in self.toks if k == "variable")
        self.alphabet = tuple(dict.fromkeys(names) if alphabet is None else alphabet)
        self.index = {name: k for k, name in enumerate(self.alphabet)}

    def take(self, kind, value=None):
        """Consume the next token and return its value if it matches; else None."""
        k, v = self.toks[self.i]
        if k == kind and value in (None, v):
            self.i += 1
            return v
        return None

    def expect(self, kind, value=None):
        got = self.take(kind, value)
        if got is None:
            raise ValueError(f"expected {value or kind}, got {self.toks[self.i][1]!r}")
        return got

    def end(self, what: str) -> None:
        if self.toks[self.i][0] != "end":
            raise ValueError(f"expected the end of the {what}, got {self.toks[self.i][1]!r}")


def _variable(tk: _Tokens) -> int:
    """The next token, a variable, as its place in the alphabet."""
    name = tk.expect("variable")
    if name not in tk.index:
        raise ValueError(f"unknown variable {name}")
    return tk.index[name]


def _exponent(tk: _Tokens) -> int:
    return -tk.expect("integer") if tk.take("symbol", "-") else tk.expect("integer")


def _factors(tk: _Tokens) -> Tuple[int, ...]:
    e = [0] * len(tk.alphabet)
    while True:
        i = _variable(tk)
        e[i] += _exponent(tk) if tk.take("symbol", "^") else 1
        if not tk.take("symbol", "*"):
            return tuple(e)


def _term(tk: _Tokens):
    coeff = tk.take("integer")
    if coeff is None:
        return _factors(tk), 1
    if tk.take("symbol", "/"):
        den = tk.expect("integer")
        if not den:
            raise ValueError("expected a nonzero integer denominator")
        coeff = Fraction(coeff, den)
    return (_factors(tk) if tk.take("symbol", "*") else (0,) * len(tk.alphabet)), coeff


def _sum(tk: _Tokens) -> Dict[Tuple[int, ...], Rat]:
    """A sum as {exponent tuple: coefficient}, zero sums kept."""
    out: Dict = {}
    op = tk.take("symbol", "-") or "+"
    while op:
        e, coeff = _term(tk)
        out[e] = out.get(e, 0) + (coeff if op == "+" else -coeff)
        op = tk.take("symbol", "+") or tk.take("symbol", "-")
    return out


def _atom(tk: _Tokens) -> Tuple[PoleFactor, int, int]:
    """A pole atom as (factor, sign of the written atom to the factor, exponent)."""
    tk.expect("symbol", "(")
    i = _variable(tk)
    op = tk.take("symbol", "+") or tk.take("symbol", "-")
    j = op and _variable(tk)
    tk.expect("symbol", ")")
    e = _exponent(tk) if tk.take("symbol", "^") else 1
    if e <= 0:
        raise ValueError("pole exponent must be positive")
    if op == "-":
        atom, sign = diff_factor(i, j)
        return atom, sign ** e, e
    return (sum_factor(i, j) if op else var_factor(i)), 1, e


def _poly(alphabet, terms) -> MultiPoly:
    if any(x < 0 for e in terms for x in e):
        raise ValueError("negative exponent in a polynomial")
    return MultiPoly(alphabet, terms)


def parse_rational(text: str, alphabet=None) -> RationalFn:
    """Parse ``(num) / ((a-b)^e ...)`` or a bare polynomial."""
    tk = _Tokens(text, alphabet or None)
    den: Dict[PoleFactor, int] = {}
    sign = 1
    if tk.take("symbol", "("):
        terms = _sum(tk)
        tk.expect("symbol", ")")
        if tk.take("symbol", "/"):
            tk.expect("symbol", "(")
            while not tk.take("symbol", ")"):
                atom, s, e = _atom(tk)
                den[atom] = den.get(atom, 0) + e
                sign *= s
    else:
        terms = _sum(tk)
    tk.end("rational function")
    return RationalFn(_poly(tk.alphabet, terms).scale(sign), den)


def parse_series(text: str, ordering, cutoff: int) -> LaurentSeries:
    tk = _Tokens(text, tuple(ordering))
    terms = _sum(tk)
    tk.end("series")
    return LaurentSeries.from_exponents(tk.alphabet, cutoff, terms)
