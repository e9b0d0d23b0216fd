"""Fuzz of the two state readers: ket text and state JSON.

Every call must return a ``QubitState`` or raise a ``QhyperError``;
any other exception, or a NumPy warning (pytest turns warnings into
errors), fails.  Needs the optional ``hypothesis`` package; the module
is skipped without it.
"""

import json

import pytest

import oracles

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qhyper import QhyperError, QubitState, ValidationError, parse_ket, state_from_json  # noqa: E402
from qhyper.cli import _load_state  # noqa: E402

# Decimals with exponents up to +-400, so squared norms (and the
# amplitudes themselves) overflow to inf or underflow to 0.
decimals = st.builds(
    "{}e{}".format, st.sampled_from(["0", "1", "2.5", ".5", "7.", "0.6"]), st.integers(-400, 400)
) | st.sampled_from(["0", "1", "0.6", "0.8", "3"])
# Digits, and digit runs past the float range (400) and past int's string limit (5000).
integers = st.integers(0, 9) | st.sampled_from([400, 5000]).map("9".__mul__)
coefficients = st.one_of(
    st.just(""),
    decimals,
    st.builds("{}/{}".format, integers, integers),
    st.builds("1/sqrt({})".format, integers),
    st.builds("({}{}{}i)".format, decimals, st.sampled_from("+-"), decimals),
)


@st.composite
def kets(draw):
    width = draw(st.integers(1, 4))
    bits = st.text("01", min_size=width, max_size=width)
    terms = draw(st.lists(st.tuples(coefficients, st.sampled_from(["", "*"]), bits), min_size=1, max_size=5))
    signs = draw(st.lists(st.sampled_from([" + ", " - ", "-"]), min_size=len(terms), max_size=len(terms)))
    text = "".join(f"{s}{c}{star}|{b}>" for s, (c, star, b) in zip(signs, terms))
    return text[3:] if text.startswith(" + ") else text


@st.composite
def state_objects(draw):
    n = draw(st.integers(0, 3))
    parts = st.floats() | st.builds(float, decimals)
    length = draw(st.sampled_from([2**n, 2**n, 2**n + 1]))
    amps = draw(st.lists(st.fixed_dictionaries({"re": parts, "im": parts}), min_size=length, max_size=length))
    return {"num_qubits": n, "amplitudes": amps}


norms = st.sampled_from(["check", "renormalize", "skip"])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=kets() | st.text("01|<>+-*/.()eisqrt 5", max_size=30), norm=norms)
def test_parse_ket_returns_state_or_qhyper_error(text, norm):
    try:
        state = parse_ket(text, norm=norm)
    except QhyperError:
        return
    assert isinstance(state, QubitState)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(obj=state_objects(), norm=norms)
def test_state_json_returns_state_or_qhyper_error(tmp_path_factory, obj, norm):
    # The CLI reads state JSON through _load_state.
    path = tmp_path_factory.getbasetemp() / "fuzz_state.json"
    path.write_text(json.dumps(obj))
    for read in (
        lambda: state_from_json(obj, norm=norm),
        lambda: _load_state(str(path), norm=norm),
    ):
        try:
            state = read()
        except QhyperError:
            continue
        assert isinstance(state, QubitState)


# Finite decimals only, so that every well-formed ket below has finite amplitudes.
finite_decimals = st.builds(
    "{}e{}".format, st.sampled_from(["0", "1", "2.5", ".5", "7.", "0.6"]), st.integers(-330, 300)
) | st.floats(0.0, 1e300).map(repr)


@st.composite
def well_formed_kets(draw):
    """Kets in every coefficient form, with whitespace (tabs and newlines
    too) between tokens, an optional leading sign and '*', and labels
    that repeat."""
    def ws():
        return draw(st.text(" \t\n", max_size=2))

    def decimal():
        return draw(finite_decimals)

    width = draw(st.integers(1, 3))
    labels = st.text("01", min_size=width, max_size=width)
    text = ws() + draw(st.sampled_from(["", "+", "-"]))
    for k in range(draw(st.integers(1, 6))):
        if k:
            text += ws() + draw(st.sampled_from("+-"))
        form = draw(st.integers(0, 4))
        if form == 0:
            coef = ""
        elif form == 1:
            coef = decimal()
        elif form == 2:
            coef = f"{draw(st.integers(0, 10**6))}{ws()}/{ws()}{draw(st.integers(1, 10**6))}"
        elif form == 3:
            coef = f"1{ws()}/{ws()}sqrt({ws()}{draw(st.integers(1, 10**6))}{ws()})"
        else:
            real = draw(st.sampled_from(["", "+", "-"])) + decimal()
            op = draw(st.sampled_from("+-"))
            coef = f"({ws()}{real}{ws()}{op}{ws()}{decimal()}{ws()}i{ws()})"
        star = ws() + "*" if coef and draw(st.booleans()) else ""
        text += ws() + coef + star + ws() + "|" + draw(labels) + ">"
    return text + ws()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=well_formed_kets())
def test_parse_ket_matches_the_character_loop_oracle(text):
    expect = oracles.ket_amplitudes(text)
    if not expect.any():
        with pytest.raises(ValidationError):
            parse_ket(text, norm="skip")
        return
    assert parse_ket(text, norm="skip").amplitudes.tobytes() == expect.tobytes()
