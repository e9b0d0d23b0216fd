"""Pure n-qubit states, ket expression parsing, and the n-tangle.

A state on n qubits is a vector of 2^n complex amplitudes in
lexicographic basis order, qubit 1 being the most significant bit of
the basis label.  Reshaping the amplitudes row-major into an n-fold
2 x ... x 2 array is a linear isomorphism onto qubit hypermatrices
under which acting with one 2x2 matrix per qubit coincides with
multilinear matrix multiplication.

Ket expressions follow the grammar

    state := term (('+' | '-') term)*
    term  := [coef ['*']] '|' bit+ '>'
    coef  := decimal | int '/' int | '1/sqrt(' int ')'
           | '(' decimal ('+' | '-') decimal 'i' ')'

with optional whitespace between tokens.  Repeated basis labels are
summed.  Decimals may carry an exponent so that amplitudes printed at
17 significant digits parse back exactly.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import KetSyntaxError, SizeCapError, ValidationError
from .hyperdet import MAX_SIGN_N, hdet_fast, sign_string_sigma
from .tensor import MAX_ORDER, Hypermatrix, _complex_from_json, _complex_to_json, _json_int

__all__ = [
    "MAX_QUBITS",
    "NORM_TOL",
    "PARSE_NORM_SLACK",
    "QubitState",
    "parse_ket",
    "state_to_hypermatrix",
    "hypermatrix_to_state",
    "state_to_json",
    "state_from_json",
    "apply_local_unitaries",
    "validate_unitary",
    "spin_flip",
    "n_tangle",
    "random_state",
    "random_su2",
]

NORM_TOL = 1e-10  # |sum of squared magnitudes - 1| allowed on a valid state
PARSE_NORM_SLACK = 1e-6  # coefficient sloppiness the parser will clean up
MAX_QUBITS = 2 * MAX_SIGN_N  # widest state hdet_fast and n_tangle accept
_UNITARY_TOL = 1e-10  # largest |U^H U - I| entry allowed on a unitary


def _check_qubit_cap(n):
    """Raise SizeCapError before a 2^n amplitude vector is allocated."""
    if n > MAX_QUBITS:
        raise SizeCapError(f"states are capped at {MAX_QUBITS} qubits, got {n}")


class QubitState:
    """Immutable pure state of ``num_qubits`` qubits.

    Amplitudes are stored lexicographically: index j holds the amplitude
    of the basis label given by j written with ``num_qubits`` bits,
    qubit 1 leftmost.

    Raises
    ------
    ValidationError
        If the length is not a power of two at least 2, any amplitude is
        non-finite, or (unless ``check_norm=False``) the squared norm
        deviates from 1 by more than ``NORM_TOL``.
    """

    __slots__ = ("_amp",)

    def __init__(self, amplitudes, *, check_norm: bool = True):
        amp = np.array(amplitudes, dtype=np.complex128).reshape(-1)
        n = int(amp.size).bit_length() - 1
        if amp.size < 2 or amp.size != 2**n:
            raise ValidationError(
                f"amplitude count must be a power of two >= 2, got {amp.size}"
            )
        if not np.isfinite(amp).all():
            raise ValidationError("amplitudes must be finite")
        if check_norm:
            sq = float(np.vdot(amp, amp).real)
            if abs(sq - 1.0) > NORM_TOL:
                raise ValidationError(
                    f"state is not normalized: sum |amp|^2 = {sq!r}"
                )
        amp.setflags(write=False)
        self._amp = amp

    @property
    def amplitudes(self) -> np.ndarray:
        """Read-only complex128 amplitude vector."""
        return self._amp

    @property
    def num_qubits(self) -> int:
        return int(self._amp.size).bit_length() - 1

    def norm(self) -> float:
        return float(np.linalg.norm(self._amp))

    def __repr__(self):
        return f"QubitState(num_qubits={self.num_qubits})"


_SQRT_RE = re.compile(r"1\s*/\s*sqrt\(\s*(\d+)\s*\)")
_FRAC_RE = re.compile(r"(\d+)\s*/\s*(\d+)")
_NUM = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re.compile(
    r"\(\s*([+-]?" + _NUM + r")\s*([+-])\s*(" + _NUM + r")\s*i\s*\)"
)
_DECIMAL_RE = re.compile(_NUM)
_KET_RE = re.compile(r"\|([01]+)>")


def _skip_ws(text, pos):
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _parse_coefficient(text, pos):
    """Return (value, new_pos); value is 1 when no coefficient is present."""
    if pos < len(text) and text[pos] == "|":
        return 1.0 + 0.0j, pos
    m = _SQRT_RE.match(text, pos)
    if m:
        radicand = int(m.group(1))
        if radicand == 0:
            raise KetSyntaxError("zero radicand in 1/sqrt(...)", pos)
        return complex(1.0 / math.sqrt(radicand)), m.end()
    m = _FRAC_RE.match(text, pos)
    if m:
        num, den = int(m.group(1)), int(m.group(2))
        if den == 0:
            raise KetSyntaxError("zero denominator in fraction", pos)
        return complex(num / den), m.end()
    m = _COMPLEX_RE.match(text, pos)
    if m:
        re_part = float(m.group(1))
        im_part = float(m.group(3))
        if m.group(2) == "-":
            im_part = -im_part
        return complex(re_part, im_part), m.end()
    m = _DECIMAL_RE.match(text, pos)
    if m:
        return complex(float(m.group(0))), m.end()
    raise KetSyntaxError("expected a coefficient or '|'", pos)


def parse_ket(text: str, *, renormalize: bool = False, check_norm: bool = True) -> QubitState:
    """Parse a ket expression into a :class:`QubitState`.

    All kets must have the same number of bits; amplitudes of repeated
    labels are summed.  Unless ``renormalize`` is set, the squared norm
    of the parsed vector must be within ``PARSE_NORM_SLACK`` of 1; the
    residual is then divided out exactly (no-op when already within
    ``NORM_TOL``, so printing and reparsing a valid state is exact).
    With ``renormalize`` any nonzero finite vector is rescaled to unit
    norm, also when its squared norm overflows or underflows.
    ``check_norm=False`` skips both the check and the cleanup and can
    return a state object violating the norm invariant; it exists for
    diagnostics only.

    Raises
    ------
    KetSyntaxError
        On malformed text, with the offending position.
    SizeCapError
        When the kets have more than ``MAX_QUBITS`` bits.
    ValidationError
        On a zero vector, a non-finite amplitude, or a norm outside
        the slack without ``renormalize``.
    """
    amps: dict[str, complex] = {}
    width = None
    pos = _skip_ws(text, 0)
    if pos == len(text):
        raise KetSyntaxError("empty expression", pos)
    sign = 1.0
    if text[pos] in "+-":
        sign = -1.0 if text[pos] == "-" else 1.0
        pos = _skip_ws(text, pos + 1)
    while True:
        coef, pos = _parse_coefficient(text, pos)
        pos = _skip_ws(text, pos)
        if pos < len(text) and text[pos] == "*":
            pos = _skip_ws(text, pos + 1)
        m = _KET_RE.match(text, pos)
        if not m:
            raise KetSyntaxError("expected '|bits>'", pos)
        bits = m.group(1)
        if width is None:
            width = len(bits)
            _check_qubit_cap(width)
        elif len(bits) != width:
            raise KetSyntaxError(
                f"ket has {len(bits)} bits, earlier kets have {width}", pos
            )
        amps[bits] = amps.get(bits, 0.0 + 0.0j) + sign * coef
        pos = _skip_ws(text, m.end())
        if pos == len(text):
            break
        if text[pos] not in "+-":
            raise KetSyntaxError("expected '+', '-' or end of input", pos)
        sign = -1.0 if text[pos] == "-" else 1.0
        pos = _skip_ws(text, pos + 1)

    vec = np.zeros(2**width, dtype=np.complex128)
    for bits, value in amps.items():
        vec[int(bits, 2)] += value
    if not vec.any():
        raise ValidationError("expression sums to the zero vector")
    if not check_norm:
        return QubitState(vec, check_norm=False)
    if renormalize:
        return QubitState(_unit_vector(vec))
    sq = float(np.vdot(vec, vec).real)
    if abs(sq - 1.0) > PARSE_NORM_SLACK:
        raise ValidationError(
            f"expression is not normalized: sum |amp|^2 = {sq!r} "
            "(pass renormalize to rescale)"
        )
    elif abs(sq - 1.0) > NORM_TOL:
        vec = vec / math.sqrt(sq)
    return QubitState(vec)


def _unit_vector(vec):
    """``vec / sqrt(sum |amp|^2)`` for a nonzero finite vector.

    When the squared norm underflows to 0 or overflows, the vector is
    first divided by its largest component magnitude.
    """
    if not np.isfinite(vec).all():
        raise ValidationError("amplitudes must be finite")
    sq = float(np.vdot(vec, vec).real)
    if not 0.0 < sq < math.inf:
        peak = max(np.max(np.abs(vec.real)), np.max(np.abs(vec.imag)))
        if peak == 0.0:
            raise ValidationError("cannot renormalize the zero vector")
        vec = vec / peak
        sq = float(np.vdot(vec, vec).real)
    return vec / math.sqrt(sq)


def state_to_hypermatrix(state: QubitState) -> Hypermatrix:
    """Row-major reshape of the amplitudes into an order-n qubit cube.

    Raises
    ------
    SizeCapError
        When the state has more than ``tensor.MAX_ORDER`` qubits.
    """
    n = state.num_qubits
    if n > MAX_ORDER:
        raise SizeCapError(
            f"hypermatrices are capped at order {MAX_ORDER}, got {n} qubits"
        )
    return Hypermatrix(state.amplitudes.reshape((2,) * n))


def hypermatrix_to_state(H: Hypermatrix) -> QubitState:
    """Inverse isomorphism; every mode must have length 2."""
    if any(d != 2 for d in H.dims):
        raise ValidationError(f"every mode must have length 2, got dims {H.dims}")
    return QubitState(H.ravel())


def state_to_json(state: QubitState) -> dict:
    """JSON form: ``{"num_qubits": n, "amplitudes": [{"re", "im"}, ...]}``."""
    return {"num_qubits": state.num_qubits, "amplitudes": _complex_to_json(state.amplitudes)}


def state_from_json(obj, *, check_norm: bool = True) -> QubitState:
    if not isinstance(obj, dict):
        raise ValidationError("state JSON needs 'num_qubits' and 'amplitudes'")
    n = _json_int(obj.get("num_qubits"), "num_qubits")
    _check_qubit_cap(n)
    amps = _complex_from_json(obj.get("amplitudes"), 2**n, "amplitudes")
    return QubitState(amps, check_norm=check_norm)


def validate_unitary(U) -> np.ndarray:
    """Check that U is a 2x2 unitary."""
    arr = np.asarray(U, dtype=np.complex128)
    if arr.shape != (2, 2):
        raise ValidationError(f"expected a 2x2 matrix, got shape {arr.shape}")
    defect = float(np.max(np.abs(arr.conj().T @ arr - np.eye(2))))
    if defect > _UNITARY_TOL:
        raise ValidationError(f"matrix is not unitary (defect {defect:.3e})")
    return arr


def apply_local_unitaries(state: QubitState, unitaries) -> QubitState:
    """Apply one 2x2 unitary per qubit, qubit k getting ``unitaries[k-1]``.

    Implemented directly on the amplitude vector, one qubit at a time,
    independently of the hypermatrix machinery.
    """
    n = state.num_qubits
    mats = list(unitaries)
    if len(mats) != n:
        raise ValidationError(f"need {n} matrices, got {len(mats)}")
    mats = [validate_unitary(U) for U in mats]
    psi = state.amplitudes
    for k, U in enumerate(mats):
        block = psi.reshape(2**k, 2, -1)
        psi = np.einsum("ab,ibj->iaj", U, block).reshape(-1)
    return QubitState(psi)


def spin_flip(state: QubitState) -> np.ndarray:
    """Conjugate the amplitudes and act with the 2n-fold Pauli-y power.

    Component j of the result is the sigma sign of j times the conjugate
    of the amplitude at the bit-complement of j.  An exact involution.
    """
    if state.num_qubits % 2:
        raise ValidationError(
            f"defined for an even number of qubits, got {state.num_qubits}"
        )
    signs = sign_string_sigma(state.num_qubits // 2).signs
    return signs * np.conj(state.amplitudes[::-1])


def n_tangle(state: QubitState, via: str = "spinflip") -> float:
    """Squared overlap of a 2n-qubit state with its spin flip.

    ``via='spinflip'`` evaluates |<state, spin_flip(state)>|^2 directly;
    ``via='hdet'`` evaluates 4 |hdet_fast(state)|^2.  The two agree
    identically.
    """
    if via == "spinflip":
        flipped = spin_flip(state)
        return float(abs(np.vdot(state.amplitudes, flipped)) ** 2)
    if via == "hdet":
        return float(4.0 * abs(hdet_fast(state)) ** 2)
    raise ValidationError(f"via must be 'spinflip' or 'hdet', got {via!r}")


def random_state(num_qubits: int, seed) -> QubitState:
    """Normalized state with i.i.d. complex Gaussian amplitudes."""
    _check_qubit_cap(num_qubits)
    if num_qubits < 1:
        raise ValidationError(f"need at least one qubit, got {num_qubits}")
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(2**num_qubits) + 1j * rng.standard_normal(2**num_qubits)
    return QubitState(vec / np.linalg.norm(vec))


def random_su2(seed) -> np.ndarray:
    """Haar-random 2x2 special unitary."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(4)
    a = complex(raw[0], raw[1])
    b = complex(raw[2], raw[3])
    scale = math.hypot(abs(a), abs(b))
    a, b = a / scale, b / scale
    U = np.array([[a, -b.conjugate()], [b, a.conjugate()]])
    U.setflags(write=False)
    return U
