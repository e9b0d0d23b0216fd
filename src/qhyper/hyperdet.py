"""Combinatorial hyperdeterminants and the antidiagonal sign strings.

For an order-N cuboid hypermatrix of side m the (Cayley) combinatorial
hyperdeterminant is

    hdet(H) = (1/m!) * sum over (s_1, ..., s_N) in S_m^N of
              sgn(s_1) ... sgn(s_N) * prod_{j=1..m} H_{s_1(j) ... s_N(j)}

which vanishes identically for odd N.  For even N it collapses, after
fixing s_1 = id, to the reduced sum without the 1/m! prefactor.

For a state of 2n qubits and m = 2 the reduced sum collapses further to
an antidiagonal pairing of the amplitude vector with a sign pattern:
the sign attached to index j is chi(bits(j)) = +1 when the 2n-bit
string of j has an even number of ones and -1 otherwise.  Written as a
string over blocks P = "+--+" and N = "-++-" it obeys the doubling
recursions

    ent:   S -> S ~S ~S S      starting from P
    sigma: S -> ~S S S ~S      starting from N

(~ is sign flip), and the two are related by ent = (-1)^n * sigma.  The
sigma string is the antidiagonal of the 2n-fold tensor power of the
second Pauli matrix, which makes the pairing above proportional to the
overlap behind the n-tangle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeCapError, ValidationError
from .tensor import Hypermatrix

__all__ = [
    "MAX_SIGN_N",
    "DENSE_CAP_N",
    "TERM_CAP",
    "SignString",
    "chi",
    "sign_string_ent",
    "sign_string_sigma",
    "chi_signs",
    "ent_matrix_dense",
    "sigma_y_dense",
    "AntidiagonalReport",
    "verify_antidiagonal_identity",
    "fact1_position",
    "hdet_general",
    "hdet_reduced",
    "hdet_fast",
]

MAX_SIGN_N = 13  # sign strings up to length 4^13
DENSE_CAP_N = 7  # dense 4^n x 4^n matrices up to n = 7
TERM_CAP = 10**7  # hard cap on enumerated permutation tuples
_CHI_CHUNK = 1 << 22  # popcount chunk length in chi_signs

_P_BLOCK = np.array([1, -1, -1, 1], dtype=np.int8)
_N_BLOCK = -_P_BLOCK


def _check_sign_n(n):
    if not 1 <= int(n) <= MAX_SIGN_N:
        raise SizeCapError(f"n must be in 1..{MAX_SIGN_N}, got {n}")
    return int(n)


@dataclass(frozen=True)
class SignString:
    """A +-1 pattern of length 4^n, stored packed as int8.

    ``kind`` records which recursion produced it ("ent" or "sigma").
    """

    signs: np.ndarray
    n: int
    kind: str

    def __len__(self):
        return self.signs.size

    def as_string(self) -> str:
        """Render as '+'/'-' characters."""
        lut = np.array(["-", "+"])
        return "".join(lut[(self.signs > 0).astype(np.int8)])

    def block_string(self) -> str:
        """Render as 'P'/'N' blocks of four; every block must be one of them."""
        quads = self.signs.reshape(-1, 4)
        is_p = np.all(quads == _P_BLOCK, axis=1)
        is_n = np.all(quads == _N_BLOCK, axis=1)
        if not np.all(is_p | is_n):
            raise ValidationError("string does not decompose into P/N blocks")
        lut = np.array(["N", "P"])
        return "".join(lut[is_p.astype(np.int8)])


def chi(bits: str) -> int:
    """+1 if the even-length 0/1 string has an even number of ones, else -1.

    This is the sign attached to a basis label in the antidiagonal
    expansion; the string length must be even.
    """
    if not bits or any(ch not in "01" for ch in bits):
        raise ValidationError(f"expected a nonempty 0/1 string, got {bits!r}")
    if len(bits) % 2:
        raise ValidationError(f"bit string length must be even, got {len(bits)}")
    return 1 if bits.count("1") % 2 == 0 else -1


def sign_string_ent(n: int) -> SignString:
    """Sign string of the antidiagonal pairing for 2n qubits.

    Built by the doubling S -> S ~S ~S S from the base P = "+--+".
    """
    n = _check_sign_n(n)
    s = _P_BLOCK
    for _ in range(n - 1):
        s = np.concatenate([s, -s, -s, s])
    s = s.copy()
    s.setflags(write=False)
    return SignString(signs=s, n=n, kind="ent")


def sign_string_sigma(n: int) -> SignString:
    """Antidiagonal signs of the 2n-fold tensor power of the second Pauli.

    Built by the doubling S -> ~S S S ~S from the base N = "-++-".
    """
    n = _check_sign_n(n)
    s = _N_BLOCK
    for _ in range(n - 1):
        s = np.concatenate([-s, s, s, -s])
    s = s.copy()
    s.setflags(write=False)
    return SignString(signs=s, n=n, kind="sigma")


def chi_signs(n: int) -> np.ndarray:
    """chi evaluated on all 2n-bit strings in lexicographic order.

    Computed directly from popcounts, independent of the doubling
    recursions, in chunks to bound memory.
    """
    n = _check_sign_n(n)
    size = 4**n
    out = np.empty(size, dtype=np.int8)
    for start in range(0, size, _CHI_CHUNK):
        stop = min(start + _CHI_CHUNK, size)
        idx = np.arange(start, stop, dtype=np.uint64)
        ones = np.bitwise_count(idx).astype(np.int8)
        out[start:stop] = 1 - 2 * (ones & 1)
    out.setflags(write=False)
    return out


def ent_matrix_dense(n: int) -> np.ndarray:
    """Dense 4^n x 4^n antidiagonal matrix with entries +-1/2.

    Row j has its only nonzero in column 4^n - 1 - j, equal to half the
    ent sign of j.  Real float64; quadratic storage, capped at n = 7.
    """
    n = int(n)
    if not 1 <= n <= DENSE_CAP_N:
        raise SizeCapError(f"dense matrices are capped at n = {DENSE_CAP_N}, got {n}")
    signs = sign_string_ent(n).signs.astype(np.float64)
    return np.fliplr(np.diag(0.5 * signs))


def sigma_y_dense(n: int) -> np.ndarray:
    """Dense 2n-fold tensor power of the second Pauli matrix (real form).

    Antidiagonal with entries +-1; row j holds sigma sign of j in column
    4^n - 1 - j.  Capped at n = 7.
    """
    n = int(n)
    if not 1 <= n <= DENSE_CAP_N:
        raise SizeCapError(f"dense matrices are capped at n = {DENSE_CAP_N}, got {n}")
    signs = sign_string_sigma(n).signs.astype(np.float64)
    return np.fliplr(np.diag(signs))


@dataclass(frozen=True)
class AntidiagonalReport:
    """Outcome of :func:`verify_antidiagonal_identity`."""

    n: int
    factor: int
    string_ok: bool
    chi_ok: bool
    dense_ok: bool | None
    first_mismatch: int | None

    @property
    def passed(self) -> bool:
        checks = [self.string_ok, self.chi_ok]
        if self.dense_ok is not None:
            checks.append(self.dense_ok)
        return all(checks)


def verify_antidiagonal_identity(n: int, *, dense: bool | None = None) -> AntidiagonalReport:
    """Check ent = (-1)^n * sigma and both against the chi formula.

    ``dense`` additionally checks, on explicit 4^n x 4^n integer sign
    matrices, that the ent antidiagonal equals the 2n-fold Kronecker
    power of [[0, -1], [1, 0]] built independently of the recursions
    (equivalent to the half-Pauli-power identity since the Pauli power
    is (-1)^n times that Kronecker power).  Defaults to on for n <= 5.
    """
    n = _check_sign_n(n)
    if dense is None:
        dense = n <= 5
    factor = (-1) ** n
    ent = sign_string_ent(n).signs
    sig = sign_string_sigma(n).signs
    string_diff = np.nonzero(ent != factor * sig)[0]
    string_ok = string_diff.size == 0
    chi_diff = np.nonzero(ent != chi_signs(n))[0]
    chi_ok = chi_diff.size == 0
    first = None
    if not string_ok:
        first = int(string_diff[0])
    elif not chi_ok:
        first = int(chi_diff[0])

    dense_ok = None
    if dense:
        if n > DENSE_CAP_N:
            raise SizeCapError(f"dense check is capped at n = {DENSE_CAP_N}, got {n}")
        K = np.array([[0, -1], [1, 0]], dtype=np.int8)
        power = np.array([[1]], dtype=np.int8)
        for _ in range(2 * n):
            power = np.kron(power, K)
        ent_dense = np.fliplr(np.diag(ent))
        # Ent signs == K-power exactly; the (-1)^n from the Pauli phase
        # cancels the (-1)^n relating ent to sigma.
        dense_ok = bool(np.array_equal(ent_dense, power))
        if not dense_ok and first is None:
            bad = np.nonzero(ent_dense != power)
            first = int(bad[0][0] * ent_dense.shape[1] + bad[1][0])

    return AntidiagonalReport(
        n=n,
        factor=factor,
        string_ok=string_ok,
        chi_ok=chi_ok,
        dense_ok=dense_ok,
        first_mismatch=first,
    )


def fact1_position(k: int, length: int) -> int:
    """One-based lexicographic rank of the length-bit string with a single
    one in position k, counted from the right.

    The rank over all 0/1 strings of even ``length`` sorted as binary
    numbers is 2^(k-1) + 1.
    """
    length = int(length)
    k = int(k)
    if length < 2 or length % 2:
        raise ValidationError(f"length must be a positive even integer, got {length}")
    if not 1 <= k <= length:
        raise ValidationError(f"k must be in 1..{length}, got {k}")
    return 2 ** (k - 1) + 1


def _parity(images):
    """Sign of the permutation j -> images[j] of 0..m-1, from its cycles."""
    seen = [False] * len(images)
    transpositions = 0
    for start in range(len(images)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = images[j]
            length += 1
        transpositions += length - 1
    return -1 if transpositions % 2 else 1


def _perm_words(m):
    """``(images, parity)`` for every permutation of 0..m-1."""
    return [(p, _parity(p)) for p in itertools.permutations(range(m))]


def _cuboid_side(H, cap_side=3):
    sides = set(H.dims)
    if len(sides) != 1:
        raise ValidationError(f"cuboid hypermatrix required, got dims {H.dims}")
    m = sides.pop()
    if m > cap_side:
        raise SizeCapError(f"side length {m} unsupported (cap {cap_side})")
    return m


def _perm_sum(H, pinned):
    """Sum over tuples (s_1, ..., s_N) in S_m^N of the signed products
    sgn(s_1) ... sgn(s_N) * prod_j H_{s_1(j) ... s_N(j)}, with s_1 fixed
    to the identity when ``pinned``.  No 1/m! prefactor."""
    m = _cuboid_side(H)
    N = H.order
    words = _perm_words(m)
    free = N - 1 if pinned else N
    if len(words) ** free > TERM_CAP:
        raise SizeCapError(
            f"(m!)^{'(N-1)' if pinned else 'N'} = {len(words) ** free} "
            f"exceeds the term cap {TERM_CAP}"
        )
    # itertools.permutations yields the identity first.
    first = words[:1] if pinned else words
    data = H.data
    total = 0.0 + 0.0j
    for combo in itertools.product(first, *[words] * (N - 1)):
        sign = 1
        for _, parity in combo:
            sign *= parity
        prod = 1.0 + 0.0j
        for j in range(m):
            prod *= data[tuple(images[j] for images, _ in combo)]
        total += sign * prod
    return total


def hdet_general(H: Hypermatrix) -> complex:
    """Combinatorial hyperdeterminant by full S_m^N enumeration.

    Zero for odd order (pairing the sum over a tuple with the tuple whose
    first permutation is composed with a fixed transposition flips the
    total sign).  The enumeration size (m!)^N must stay within
    ``TERM_CAP``.
    """
    total = _perm_sum(H, False)
    return complex(total / math.factorial(H.dims[0]))


def hdet_reduced(H: Hypermatrix) -> complex:
    """Hyperdeterminant of an even-order cuboid with the first
    permutation fixed to the identity and no 1/m! prefactor.

    Equal to :func:`hdet_general` for even order.
    """
    if H.order % 2:
        raise ValidationError(f"defined for even order only, got order {H.order}")
    return complex(_perm_sum(H, True))


def hdet_fast(state) -> complex:
    """Hyperdeterminant of a 2n-qubit state via the antidiagonal pairing.

    Equals ``hdet_reduced`` on the amplitude hypermatrix but runs in
    O(4^n): half the sign-weighted sum of products of amplitudes with
    their bit-complement partners.
    """
    if state.num_qubits % 2:
        raise ValidationError(
            f"defined for an even number of qubits, got {state.num_qubits}"
        )
    n = state.num_qubits // 2
    signs = sign_string_ent(n).signs
    amp = state.amplitudes
    return complex(0.5 * np.sum(signs * amp * amp[::-1]))
