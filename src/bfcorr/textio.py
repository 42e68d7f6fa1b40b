"""Textual round-trip serialization for polynomials, rational functions
and Laurent series.

Format: numerators and series are fully expanded monomial sums with
explicit ``*`` and ``^`` (coefficients as exact ``p/q``); denominators
are printed as factored atoms, e.g.::

    (z1^2 - 2*z1*w1 + w1^2) / ((z1-w1)^1 (z1+w1)^2)

A sum is written in one pass: each variable has a table from exponent to
text (``""`` for 0, the name for 1, ``name^e`` otherwise) and the sum one
from coefficient to sign and magnitude prefix (``"+ "``, ``"- 3/2*"``),
filled on first use, so a term costs a lookup per variable and a join;
the constant term and the first term's sign are fixed once, after it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import partial
from operator import getitem
from typing import Dict, Tuple

from .poly import MultiPoly, Rat, Terms
from .ratfun import PoleFactor, RationalFn, diff_factor, sum_factor, var_factor
from .series import LaurentSeries

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|(\^|\*|/|\+|-|\(|\)))")


class _Texts(dict):
    """A table of texts, each made by ``make`` from its key on first use."""

    def __init__(self, make, known=()):
        super().__init__(known)
        self.make = make

    def __missing__(self, key):
        text = self[key] = self.make(key)
        return text


def _prefix(c) -> str:
    mag = abs(c)
    return ("+ " if c > 0 else "- ") + ("" if mag == 1 else f"{mag}*")


def _terms_text(names, t: Terms) -> str:
    if not t:
        return "0"
    powers = [_Texts(partial("{}^{}".format, name), {0: "", 1: name}) for name in names]
    prefix = _Texts(_prefix)
    chunks = [prefix[c] + "*".join(filter(None, map(getitem, powers, e))) for e, c in t.sorted_terms()]
    const = t.terms.get((0,) * len(names))
    if const is not None:
        # the one chunk that is a bare prefix: every other chunk ends in its monomial
        chunks[chunks.index(prefix[const])] = prefix[const][:2] + str(abs(const))
    chunks[0] = chunks[0][2:] if chunks[0][0] == "+" else "-" + chunks[0][2:]
    return " ".join(chunks)


def format_poly(p: MultiPoly) -> str:
    return _terms_text(p.alphabet, p)


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
    return _terms_text(s.ordering, s)


class _Tokens:
    def __init__(self, text: str):
        self.toks = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m or m.end() == pos:
                if text[pos:].strip():
                    raise ValueError(f"bad token at: {text[pos:pos + 20]!r}")
                break
            num, name, sym = m.groups()
            if num is not None:
                self.toks.append(("num", int(num)))
            elif name is not None:
                self.toks.append(("name", name))
            else:
                self.toks.append(("sym", sym))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None)

    def next(self):
        t = self.peek()
        self.i += 1
        return t

    def expect(self, kind, value=None):
        k, v = self.next()
        if k != kind or (value is not None and v != value):
            raise ValueError(f"expected {value or kind}, got {v!r}")
        return v

    def accept(self, kind, value=None) -> bool:
        k, v = self.peek()
        if k == kind and (value is None or v == value):
            self.i += 1
            return True
        return False

    def done(self) -> bool:
        return self.i >= len(self.toks)


def _parse_exponent(tk: _Tokens) -> int:
    neg = tk.accept("sym", "-")
    k, v = tk.next()
    if k != "num":
        raise ValueError("expected integer exponent after ^")
    return -v if neg else v


def _parse_terms(tk: _Tokens, names_seen: list) -> Dict[Tuple[str, int], Rat]:
    """Sum of monomial terms -> dict from ((name, exp), ...) to coefficient."""
    out: Dict = {}
    first = True
    while True:
        kind, val = tk.peek()
        if kind is None or (kind == "sym" and val == ")"):
            if first:
                raise ValueError("empty expression")
            return out
        sign = 1
        if tk.accept("sym", "-"):
            sign = -1
        elif tk.accept("sym", "+"):
            if first:
                raise ValueError("leading +")
        elif not first:
            raise ValueError("expected + or - between terms")
        coeff = sign
        have_coeff = False
        kind, val = tk.peek()
        if kind == "num":
            tk.next()
            coeff *= val
            have_coeff = True
            if tk.accept("sym", "/"):
                k2, v2 = tk.next()
                if k2 != "num" or v2 == 0:
                    raise ValueError("expected a nonzero integer denominator")
                coeff = Fraction(coeff, v2)
        factors: Dict[str, int] = {}
        need_name = False
        while True:
            if (have_coeff or factors) and not need_name:
                if not tk.accept("sym", "*"):
                    break
                need_name = True
            kind, val = tk.peek()
            if kind != "name":
                if need_name:
                    raise ValueError("expected variable after *")
                break
            tk.next()
            e = _parse_exponent(tk) if tk.accept("sym", "^") else 1
            factors[val] = factors.get(val, 0) + e
            if val not in names_seen:
                names_seen.append(val)
            need_name = False
            have_coeff = True
        if not have_coeff:
            raise ValueError("empty term")
        key = tuple(sorted(factors.items()))
        out[key] = out.get(key, 0) + coeff
        first = False


def _position(idx: Dict[str, int], name: str) -> int:
    """The index of ``name`` in the alphabet ``idx``; a name outside it
    raises ValueError."""
    if name not in idx:
        raise ValueError(f"unknown variable {name}")
    return idx[name]


def _exponents(terms, alphabet) -> Dict[Tuple[int, ...], Rat]:
    """Parsed terms as {exponent tuple over ``alphabet``: coefficient}; a
    name outside the alphabet raises ValueError."""
    idx = {name: k for k, name in enumerate(alphabet)}
    tmap: Dict = {}
    for key, coeff in terms.items():
        e = [0] * len(alphabet)
        for name, k in key:
            e[_position(idx, name)] += k
        e = tuple(e)
        tmap[e] = tmap.get(e, 0) + coeff
    return tmap


def _terms_to_poly(terms, alphabet) -> MultiPoly:
    tmap = _exponents(terms, alphabet)
    if any(x < 0 for e in tmap for x in e):
        raise ValueError("negative exponent in a polynomial")
    return MultiPoly(alphabet, tmap)


def parse_poly(text: str, alphabet=None) -> MultiPoly:
    tk = _Tokens(text)
    names: list = []
    terms = _parse_terms(tk, names)
    if not tk.done():
        raise ValueError("trailing input after polynomial")
    return _terms_to_poly(terms, tuple(alphabet) if alphabet else tuple(names))


def parse_rational(text: str, alphabet=None) -> RationalFn:
    """Parse ``(num) / ((a-b)^e ...)`` or a bare polynomial."""
    top = _split_top_level(text)
    if len(top) == 1:
        num_text, den_text = top[0], None
    elif len(top) == 2:
        num_text, den_text = top
    else:
        raise ValueError("more than one top-level '/'")

    tk = _Tokens(num_text)
    names: list = []
    wrapped = tk.accept("sym", "(")
    terms = _parse_terms(tk, names)
    if wrapped:
        tk.expect("sym", ")")
    if not tk.done():
        raise ValueError("trailing input in numerator")

    den_atoms = []
    if den_text is not None:
        dtk = _Tokens(den_text)
        dtk.expect("sym", "(")
        while not dtk.accept("sym", ")"):
            dtk.expect("sym", "(")
            name1 = dtk.expect("name")
            if name1 not in names:
                names.append(name1)
            if dtk.accept("sym", ")"):
                pair = (name1, None, None)
            else:
                k, op = dtk.next()
                if k != "sym" or op not in "+-":
                    raise ValueError("expected + or - inside pole factor")
                name2 = dtk.expect("name")
                if name2 not in names:
                    names.append(name2)
                dtk.expect("sym", ")")
                pair = (name1, op, name2)
            e = 1
            if dtk.accept("sym", "^"):
                e = _parse_exponent(dtk)
                if e <= 0:
                    raise ValueError("pole exponent must be positive")
            den_atoms.append((pair, e))
        if not dtk.done():
            raise ValueError("trailing input in denominator")

    alphabet = tuple(alphabet) if alphabet else tuple(names)
    num = _terms_to_poly(terms, alphabet)
    idx = {name: k for k, name in enumerate(alphabet)}
    den: Dict[PoleFactor, int] = {}
    sign = 1
    for (name1, op, name2), e in den_atoms:
        i = _position(idx, name1)
        if op is None:
            atom = var_factor(i)
        elif op == "+":
            atom = sum_factor(i, _position(idx, name2))
        else:
            atom, s = diff_factor(i, _position(idx, name2))
            sign *= s ** e
        den[atom] = den.get(atom, 0) + e
    return RationalFn(num.scale(sign), den)


def parse_series(text: str, ordering, cutoff: int) -> LaurentSeries:
    tk = _Tokens(text)
    names: list = []
    terms = _parse_terms(tk, names)
    if not tk.done():
        raise ValueError("trailing input after series")
    ordering = tuple(ordering)
    return LaurentSeries(ordering, cutoff, _exponents(terms, ordering))


def _split_top_level(text: str):
    """Split on the fraction bar: a depth-zero '/' right after a ')'.

    Coefficient slashes (e.g. ``3/2*z``) never follow a closing paren,
    so only the numerator/denominator bar matches.
    """
    depth = 0
    last = ""
    for k, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0 and last == ")":
            return [text[:k], text[k + 1:]]
        if not ch.isspace():
            last = ch
    return [text]
