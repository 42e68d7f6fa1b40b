"""Lossless round trips for the textual serialization."""

import hashlib
import random
from contextlib import suppress
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfcorr.poly import MultiPoly
from bfcorr.ratfun import RationalFn, sum_factor, var_factor
from bfcorr.series import LaurentSeries, expand
from bfcorr.textio import (
    format_poly,
    format_rational,
    format_series,
    parse_rational,
    parse_series,
)
from conftest import random_ratfun, rf

AL = ("z1", "w1")


def test_poly_round_trip_examples():
    p = MultiPoly(AL, {(2, 0): 1, (1, 1): -2, (0, 2): 1})
    text = format_poly(p)
    assert text == "z1^2 - 2*z1*w1 + w1^2"
    assert parse_rational(text, AL).num == p


def test_rational_format_matches_documented_shape():
    f = RationalFn(
        MultiPoly(AL, {(2, 0): 1, (1, 1): -2, (0, 2): 1}),
        {sum_factor(0, 1): 2},
    )
    assert format_rational(f) == "(z1^2 - 2*z1*w1 + w1^2) / ((z1+w1)^2)"
    assert parse_rational(format_rational(f), AL) == f


def test_fractional_coefficients_round_trip():
    f = RationalFn(MultiPoly(AL, {(1, 0): Fraction(3, 2), (0, 0): Fraction(-1, 4)}),
                   {var_factor(1): 1})
    text = format_rational(f)
    assert "3/2" in text and "1/4" in text
    assert parse_rational(text, AL) == f


def test_bare_polynomial_with_coefficient_slash():
    # a top-level coefficient slash must not be read as the fraction bar
    f = rf("1/2*z1 + w1", AL)
    assert parse_rational(format_rational(f), AL) == f


def test_rational_round_trip_random(rng):
    for _ in range(60):
        f = random_ratfun(rng, alphabet=AL)
        assert parse_rational(format_rational(f), AL) == f


def test_series_round_trip(rng):
    for _ in range(30):
        f = random_ratfun(rng, alphabet=AL)
        s = expand(f, AL, 5)
        assert parse_series(format_series(s), AL, 5) == s


def test_series_format_mixes_integer_and_fraction_coefficients():
    s = LaurentSeries.from_exponents(("z", "w"), 4, {
        (2, 0): Fraction(-1), (1, 1): Fraction(1), (1, 0): Fraction(2),
        (0, 2): Fraction(-1, 2), (0, 1): Fraction(3, 4), (0, 0): Fraction(-3),
        (-1, 1): Fraction(5, 2), (0, -1): Fraction(-1),
    })
    assert format_series(s) == (
        "-z^2 + z*w + 2*z - 1/2*w^2 + 3/4*w - 3 - w^-1 + 5/2*z^-1*w")


def test_zero_prints_as_zero():
    assert format_poly(MultiPoly.zero(AL)) == "0"
    assert format_rational(RationalFn.zero(AL)) == "0"


def test_diff_atom_sign_normalization():
    # (w1 - z1) in a denominator is stored as -(z1 - w1)
    f = parse_rational("(1) / ((w1-z1)^1)", AL)
    assert f == rf("(-1) / ((z1-w1)^1)", AL)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_rational("(z1 +* w1)", AL)
    with pytest.raises(ValueError):
        parse_rational("(z1) / ((z1*w1)^1)", AL)
    with pytest.raises(ValueError):
        parse_rational("z1 w1", AL)
    with pytest.raises(ValueError):
        parse_rational("q5", AL)


def test_parse_rejects_a_zero_coefficient_denominator():
    with pytest.raises(ValueError):
        parse_series("1/0*z1", AL, 3)
    with pytest.raises(ValueError):
        parse_rational("(1/0) / ((z1-w1)^1)", AL)


def test_integer_text_parses_to_int_coefficients():
    rational = parse_rational("(z1^2 - 2*z1*w1 + w1^2) / ((z1-w1)^1 (z1+w1)^2)", AL)
    unreduced = parse_rational("(z1 - 3*w1) / ((w1-z1)^1 (z1)^2)", AL)
    poly = parse_rational("3*z1^2 - w1 + 7", AL).num
    series = parse_series("z1^-1 - 2*w1 + 5", AL, 3)
    for terms in (rational.num, unreduced.num, poly, series):
        assert terms.terms and all(type(c) is int for c in terms.terms.values())
    assert parse_rational("3/2*z1", AL).num.exponents() == {(1, 0): Fraction(3, 2)}
    with pytest.raises(ValueError):
        parse_rational("1/0*z1", AL)


# arbitrary text, and text over the grammar's own characters so that most
# examples get past the tokenizer
_TEXT = st.text(max_size=30) | st.text(alphabet=" ()+-*/^0123456789z1wq_", max_size=30)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=_TEXT, alphabet=st.sampled_from([None, AL]))
def test_parsers_return_or_raise_value_error(text, alphabet):
    with suppress(ValueError):
        parse_rational(text, alphabet)
    with suppress(ValueError):
        parse_series(text, AL, 3)


def _reference_text(names, terms) -> str:
    """The term-by-term formatter, on {exponent tuple: coefficient}, that the
    table-driven one must match byte for byte."""
    items = sorted(terms.items(), key=lambda item: item[0], reverse=True)
    if not items:
        return "0"
    chunks = []
    for expo, coeff in items:
        parts = []
        for name, e in zip(names, expo):
            if e == 0:
                continue
            parts.append(name if e == 1 else f"{name}^{e}")
        mon = "*".join(parts)
        mag = abs(coeff)
        if mon and mag == 1:
            body = mon
        elif mon:
            body = f"{mag}*{mon}"
        else:
            body = str(mag)
        if not chunks:
            chunks.append(body if coeff > 0 else f"-{body}")
        else:
            chunks.append(f"{'+' if coeff > 0 else '-'} {body}")
    return " ".join(chunks)


_COEFFS = [1, -1, 2, -3, 7, Fraction(1), Fraction(-1), Fraction(3, 2), Fraction(-1, 4), Fraction(5)]


def _random_terms(rng, nvars, low, size):
    return {tuple(rng.randint(low, 3) for _ in range(nvars)): rng.choice(_COEFFS)
            for _ in range(rng.randint(0, size))}


# a monomial is written as its first n//2 factors and the rest: 1 variable
# leaves the first half empty, 3 and 5 split unevenly, 8 is the size of the
# largest benchmark series
_ALPHABETS = [("z1", "z2", "w1"), ("z1",), ("z1", "w1"), ("z1", "z2", "z3", "w1", "w2"),
              tuple(f"z{i}" for i in range(1, 9))]


def test_formatting_matches_the_reference_formatter():
    rng = random.Random(18)
    for names in _ALPHABETS:
        n = len(names)
        for k in range(300):
            terms = _random_terms(rng, n, -3, 12)
            if k % 3 == 0:
                terms[(0,) * n] = rng.choice(_COEFFS)
            if k % 5 == 0 and terms:
                # a negative leading term
                terms[max(terms)] = -abs(terms[max(terms)])
            s = LaurentSeries.from_exponents(names, 9, terms)
            assert format_series(s) == _reference_text(names, s.exponents())
            p = MultiPoly(names, {e: c for e, c in _random_terms(rng, n, 0, 12).items()})
            assert format_poly(p) == _reference_text(names, p.exponents())
            if n > 1:
                f = random_ratfun(rng, alphabet=names[:2])
                num = _reference_text(names[:2], f.num.exponents())
                text = format_rational(f)
                assert text.startswith(f"({num}) / (") if f.den else text == num
    names = _ALPHABETS[0]
    assert format_series(LaurentSeries(names, 3, {})) == _reference_text(names, {}) == "0"
    assert format_series(LaurentSeries.from_exponents(names, 3, {(0, 0, 0): -1})) == "-1"
    s = LaurentSeries.from_exponents(names, 3, {(0, 0, 0): Fraction(-3, 2), (0, 0, 1): 1})
    assert format_series(s) == "w1 - 3/2"


# The language the parsers accept, pinned: a fixed corpus of grammar-built
# sums, rational functions and pole lists (about 30% with one character
# replaced) and random strings over the grammar's characters, each through
# every parser; a line per call holds the formatted result with its
# alphabet or ordering, or "ValueError".
_PIN_CHARS = " ()+-*/^0123456789zwq_1"
_PIN_NAMES = ("z1", "w1") * 6 + ("q",)


def _pin_term(rng):
    coeff = rng.choice(["", "", "", "", "2", "2", "3/2", "7/4", "0", "007"] * 3 + ["1/0"])
    names = rng.sample(_PIN_NAMES, rng.randint(0 if coeff else 1, 2))
    powers = [name + rng.choice(["", "", "", "^2", "^0", "^3"] * 4 + ["^-1"]) for name in names]
    return "*".join(filter(None, [coeff] + powers))


def _pin_sum(rng):
    terms = [rng.choice(["", "", "-"]) + _pin_term(rng)]
    terms += [rng.choice("+-") + " " + _pin_term(rng) for _ in range(rng.randint(0, 2))]
    return rng.choice([" ", ""]).join(terms)


def _pin_poles(rng):
    atoms = []
    for _ in range(rng.randint(0, 3)):
        a, b = rng.sample(_PIN_NAMES, 2)
        body = rng.choice([a, f"{a}-{b}", f"{a}+{b}", f"{a}-{b}"])
        atoms.append(f"({body})" + rng.choice(["", "^1", "^2", "^3"] * 3 + ["^0", "^-1"]))
    return "(" + " ".join(atoms) + ")"


_PIN_SHAPES = ("{sum}", "{sum}", "({sum})", "({sum}) / {poles}", "({sum}) / {poles}", "{poles}")


def _pin_corpus():
    rng = random.Random(19)
    made = []
    for shape in (rng.choice(_PIN_SHAPES) for _ in range(6000)):
        # the sum is drawn before the poles
        made.append(shape.format(sum=_pin_sum(rng) if "{sum}" in shape else None,
                                 poles=_pin_poles(rng) if "{poles}" in shape else None))
    for k, text in enumerate(made):
        if text and rng.random() < 0.3:
            at = rng.randrange(len(text))
            made[k] = text[:at] + rng.choice(_PIN_CHARS) + text[at + 1:]
    return made + ["".join(rng.choices(_PIN_CHARS, k=rng.randint(0, 16))) for _ in range(1000)]


def _rational_record(text):
    f = parse_rational(text)
    return f"{format_rational(f)} | {f.alphabet}"


def _series_record(text):
    s = parse_series(text, AL, 3)
    return f"{format_series(s)} | {s.ordering}"


_PIN_CALLS = {
    "rational": _rational_record,
    "rational_AL": lambda t: format_rational(parse_rational(t, AL)),
    "series": _series_record,
}


def test_parsers_accept_the_parent_language():
    lines, accepted = [], dict.fromkeys(_PIN_CALLS, 0)
    for text in _pin_corpus():
        for name, call in _PIN_CALLS.items():
            try:
                out = call(text)
                accepted[name] += 1
            except ValueError:
                out = "ValueError"
            lines.append(f"{name} {text!r}: {out}")
    assert min(accepted.values()) >= 1000  # the pin covers acceptance as well as rejection
    assert accepted == {"rational": 3073, "rational_AL": 2274, "series": 1277}
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "a24bb981e58fbac0c00d5e17f864b0242e013b68eeefd9ecb9e12ad1b60f6085")
