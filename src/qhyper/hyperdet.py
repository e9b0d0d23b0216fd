"""Combinatorial hyperdeterminants and the antidiagonal sign strings.

For an order-N cuboid hypermatrix of side m the (Cayley) combinatorial
hyperdeterminant is

    hdet(H) = (1/m!) * sum over (s_1, ..., s_N) in S_m^N of
              sgn(s_1) ... sgn(s_N) * prod_{j=1..m} H_{s_1(j) ... s_N(j)}

which vanishes identically for odd N.  For even N it collapses, after
fixing s_1 = id, to the reduced sum without the 1/m! prefactor.
``hdet_general`` and ``hdet_reduced`` enumerate these sums with a peak
memory of about (m!)^(N-1) * m entries (15 MiB for a (3,)*8 cube).

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

The strings are built as packed bits, one bit per sign (1 = minus, in
``np.packbits`` order), so that a ~ quarter of the doubling is the
bitwise inverse of S and a 4^13-sign string takes 8 MiB.
``verify_antidiagonal_identity`` builds ent and sigma by their recursions
and chi from popcounts on every call.  It checks each pair for equality
64 signs per word and locates the first differing sign only when they
differ; ``sign_string_ent``, ``sign_string_sigma`` and ``chi_signs`` unpack
the same bits to one int8 per sign.

Since ent = chi, ``hdet_fast`` builds neither string.  It walks the
first half of the amplitudes in rows of w = min(4^n / 2, 4^7) entries
and multiplies row i by row i of the reversed amplitudes (both views).
Since chi(i * w + r) = chi(i) * chi(r), each product row is added to or
subtracted from one width-w accumulator by the parity of i, and the
accumulator is weighted once by a prefix of chi over one block of 4^7
indices (taken once from popcounts; ``chi_signs`` reads it too) and
summed once.  The terms of j and of its bit complement are equal, so
each complement pair is summed once.  The spin-flip overlap behind the
n-tangle is (-1)^n times the conjugate of 2 hdet_fast, so the n-tangle
is 4 |hdet_fast|^2.  Beyond the input the walk holds two 256 KiB complex
buffers: the accumulator and one product row.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeCapError, ValidationError
from .tensor import Hypermatrix, _int_arg

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
_MAX_SIDE = 3  # largest side the permutation sums enumerate
_BLOCK_N = 7  # blocks of 4^7 entries: 256 KiB of complex128

_P_BLOCK = np.array([1, -1, -1, 1], dtype=np.int8)
_N_BLOCK = -_P_BLOCK


def _check_sign_n(n):
    n = _int_arg(n, "n")
    if not 1 <= n <= MAX_SIGN_N:
        raise SizeCapError(f"n must be in 1..{MAX_SIGN_N}, got {n}")
    return n


@dataclass(frozen=True)
class SignString:
    """A +-1 pattern of length 4^n, stored as one int8 per sign.

    ``kind`` records which recursion produced it ("ent" or "sigma").
    """

    signs: np.ndarray
    n: int
    kind: str

    def __len__(self):
        return self.signs.size

    def as_string(self) -> str:
        """Render as '+'/'-' characters ('-' for anything not > 0)."""
        return np.where(self.signs > 0, b"+", b"-").tobytes().decode("ascii")

    def block_string(self) -> str:
        """Render as 'P'/'N' blocks of four; every block must be one of them."""
        quads = self.signs.reshape(-1, 4)
        is_p = np.all(quads == _P_BLOCK, axis=1)
        is_n = np.all(quads == _N_BLOCK, axis=1)
        if not np.all(is_p | is_n):
            raise ValidationError("string does not decompose into P/N blocks")
        return np.where(is_p, b"P", b"N").tobytes().decode("ascii")


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


def _doubling_bits(n, base, quarters):
    """The 4^n signs of the doubling S -> q0*S q1*S q2*S q3*S from the int8
    ``base``, each q = +-1, as packed bits (1 = minus, ``np.packbits`` order).
    The first step runs on int8 until whole bytes exist; each later step
    writes one preallocated byte array, a quarter being a copy of S or its
    bitwise inverse (quarter 0 last, since it overwrites S).  At n = 1 the
    four signs fill the high half of one byte and the pad bits are 0."""
    first = base if n == 1 else np.concatenate([q * base for q in quarters])
    head = np.packbits(first < 0)
    size = head.size
    s = np.empty(max(4**n // 8, size), dtype=np.uint8)
    s[:size] = head
    for _ in range(n - 2):
        head = s[:size]
        for j in (3, 2, 1, 0):
            quarter = s[j * size : (j + 1) * size]
            if quarters[j] > 0:
                np.copyto(quarter, head)
            else:
                np.invert(head, out=quarter)
        size *= 4
    return s


def _ent_bits(n):
    return _doubling_bits(n, _P_BLOCK, (1, -1, -1, 1))


def _sigma_bits(n):
    return _doubling_bits(n, _N_BLOCK, (-1, 1, 1, -1))


def _signs(bits, n):
    """Read-only int8 +-1 signs of the first 4^n packed bits (1 = minus)."""
    signs = np.unpackbits(bits, count=4**n).view(np.int8)
    signs *= -2
    signs += 1
    signs.setflags(write=False)
    return signs


def sign_string_ent(n: int) -> SignString:
    """Sign string of the antidiagonal pairing for 2n qubits.

    Built by the doubling S -> S ~S ~S S from the base P = "+--+".
    """
    n = _check_sign_n(n)
    return SignString(signs=_signs(_ent_bits(n), n), n=n, kind="ent")


def sign_string_sigma(n: int) -> SignString:
    """Antidiagonal signs of the 2n-fold tensor power of the second Pauli.

    Built by the doubling S -> ~S S S ~S from the base N = "-++-".
    """
    n = _check_sign_n(n)
    return SignString(signs=_signs(_sigma_bits(n), n), n=n, kind="sigma")


# chi over one block of indices, as int8: +1 for an even number of ones
_BLOCK_ODD = np.bitwise_count(np.arange(4**_BLOCK_N, dtype=np.uint64)) & 1
_CHI_BLOCK = 1 - 2 * _BLOCK_ODD.view(np.int8)
_CHI_BLOCK.setflags(write=False)


def _chi_bits(n):
    """chi on all 2n-bit strings in lexicographic order as packed bits
    (1 = minus), from popcounts and independent of the doubling recursions:
    the parity of j = i * 4^k + r is the parity of i times that of r, so
    row i is the first 4^k entries of the one chi block, packed, and
    inverted when i has odd parity, k <= 7."""
    k = min(n, _BLOCK_N)
    block = np.packbits(_BLOCK_ODD[: 4**k])
    flips = (np.bitwise_count(np.arange(4 ** (n - k), dtype=np.uint64)) & 1) * 0xFF
    return np.bitwise_xor(flips[:, None], block).reshape(-1)


def chi_signs(n: int) -> np.ndarray:
    """chi evaluated on all 2n-bit strings in lexicographic order.

    Computed directly from popcounts, independent of the doubling
    recursions: the parity of j = i * 4^k + r is the parity of i times
    that of r, so the result is the outer product of the parities of the
    block starts and the first 4^k entries of the one chi block, k <= 7.
    """
    n = _check_sign_n(n)
    return _signs(_chi_bits(n), n)


def _antidiagonal(n, string, scale):
    """Dense 4^n x 4^n float64 matrix whose row j holds ``scale`` times sign j
    of ``string(n)`` in column 4^n - 1 - j; quadratic storage, capped at n = 7."""
    n = _int_arg(n, "n")
    if not 1 <= n <= DENSE_CAP_N:
        raise SizeCapError(f"dense matrices are capped at n = {DENSE_CAP_N}, got {n}")
    return np.fliplr(np.diag(scale * string(n).signs.astype(np.float64)))


def ent_matrix_dense(n: int) -> np.ndarray:
    """Dense 4^n x 4^n antidiagonal matrix with entries +-1/2: row j holds
    half the ent sign of j in column 4^n - 1 - j.  Capped at n = 7."""
    return _antidiagonal(n, sign_string_ent, 0.5)


def sigma_y_dense(n: int) -> np.ndarray:
    """Dense 2n-fold tensor power of the second Pauli matrix (real form):
    row j holds the sigma sign of j in column 4^n - 1 - j.  Capped at n = 7."""
    return _antidiagonal(n, sign_string_sigma, 1.0)


def _first_difference(a, b, size):
    """The first sign index where the packed strings ``a`` and ``b`` differ, or None.

    Equality is checked 64 signs per word through uint64 views (uint8 when
    a string is shorter than a word); only a difference is located, from
    the first differing byte.  A difference in the pad bits past ``size``
    signs (n = 1) does not count.
    """
    word = np.uint64 if a.size % 8 == 0 else np.uint8
    if np.array_equal(a.view(word), b.view(word)):
        return None
    at = int(np.argmax(a != b))
    sign = 8 * (at + 1) - int(a[at] ^ b[at]).bit_length()
    return sign if sign < size else None


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
    is (-1)^n times that Kronecker power).  Defaults to on for n <= 5;
    anything but None or a bool raises ValidationError.
    """
    n = _check_sign_n(n)
    if dense is not None and not isinstance(dense, (bool, np.bool_)):
        raise ValidationError(f"dense must be None or a bool, got {dense!r}")
    if dense is None:
        dense = n <= 5
    if dense and n > DENSE_CAP_N:
        raise SizeCapError(f"dense check is capped at n = {DENSE_CAP_N}, got {n}")
    factor = (-1) ** n
    ent = _ent_bits(n)
    sigma = _sigma_bits(n)
    if factor < 0:
        np.invert(sigma, out=sigma)
    string_at = _first_difference(ent, sigma, 4**n)
    chi_at = _first_difference(ent, _chi_bits(n), 4**n)
    string_ok = string_at is None
    chi_ok = chi_at is None
    first = chi_at if string_ok else string_at

    dense_ok = None
    if dense:
        K = np.array([[0, -1], [1, 0]], dtype=np.int8)
        power = np.array([[1]], dtype=np.int8)
        for _ in range(2 * n):
            power = np.kron(power, K)
        ent_dense = np.fliplr(np.diag(_signs(ent, n)))
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
    length = _int_arg(length, "length", "a positive even integer")
    k = _int_arg(k, "k")
    if length < 2 or length % 2:
        raise ValidationError(f"length must be a positive even integer, got {length}")
    if not 1 <= k <= length:
        raise ValidationError(f"k must be in 1..{length}, got {k}")
    return 2 ** (k - 1) + 1


def _perm_words(m):
    """``(words, signs)``: the m! permutations of 0..m-1 as the rows of
    ``words``, the identity first, and their signs from the inversion count."""
    words = np.array(list(itertools.permutations(range(m))), dtype=np.intp)
    inversions = np.triu(words[:, :, None] > words[:, None, :], 1).sum(axis=(1, 2))
    return words, (1 - 2 * (inversions % 2)).astype(np.int8)


def _perm_tables(m, N):
    """``(pos, sign)`` over (s_2, ..., s_N) in S_m^(N-1), row-major in column
    t: pos[j, t] is the flat offset of (s_2(j), ..., s_N(j)) in modes 2..N,
    sign[t] = sgn(s_2) ... sgn(s_N).  Built from mode N out, long axis inner."""
    words, signs = _perm_words(m)
    pos = np.zeros((m, 1), dtype=np.intp)
    sign = np.ones(1, dtype=np.int8)
    for k in range(N - 1):
        pos = (words.T[:, :, None] * m**k + pos[:, None, :]).reshape(m, -1)
        sign = np.multiply.outer(signs, sign).ravel()
    return pos, sign


def _cuboid_side(H):
    sides = set(H.dims)
    if len(sides) != 1:
        raise ValidationError(f"cuboid hypermatrix required, got dims {H.dims}")
    m = sides.pop()
    if m > _MAX_SIDE:
        raise SizeCapError(f"side length {m} unsupported (cap {_MAX_SIDE})")
    return m


def _finite(total):
    """``total``, a hyperdeterminant sum, unless it overflowed: then ValidationError."""
    if not cmath.isfinite(total):
        raise ValidationError("the hyperdeterminant sum is past the floating-point range")
    return total


@np.errstate(all="ignore")  # an overflow raises ValidationError (_finite), not NumPy's warning
def _perm_sum(H, pinned):
    """Sum over tuples (s_1, ..., s_N) in S_m^N of the signed products
    sgn(s_1) ... sgn(s_N) * prod_j H_{s_1(j) ... s_N(j)}, with s_1 fixed
    to the identity when ``pinned``.  No 1/m! prefactor.  Each mode-1
    word gathers its m factors for every (s_2, ..., s_N) at once."""
    m = _cuboid_side(H)
    N = H.order
    free = N - 1 if pinned else N
    count = math.factorial(m) ** free
    if count > TERM_CAP:
        raise SizeCapError(
            f"(m!)^{'(N-1)' if pinned else 'N'} = {count} exceeds the term cap {TERM_CAP}"
        )
    words, signs = _perm_words(m)
    pos, sign = _perm_tables(m, N)
    rows = H.data.reshape(m, -1)
    total = 0.0 + 0.0j
    for w, s in zip(words[:1] if pinned else words, signs):
        prod = rows[w[0], pos[0]]
        for j in range(1, m):
            prod *= rows[w[j], pos[j]]
        total += s * np.sum(np.multiply(prod, sign, out=prod))
    return _finite(total)


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


@np.errstate(all="ignore")  # an overflow raises ValidationError (_finite), not NumPy's warning
def hdet_fast(state) -> complex:
    """Hyperdeterminant of a 2n-qubit state via the antidiagonal pairing.

    Equals ``hdet_reduced`` on the amplitude hypermatrix but runs in
    O(4^n): half the pairing sum_j chi(j) a_j a_{4^n-1-j}, i.e. each
    complement pair once, its two terms being equal.  Row i of the first
    half of the rows of min(4^n / 2, 4^7) entries is multiplied by row i
    of the reversed amplitudes into one buffer, which is added to one
    accumulator when chi(i) = +1 and subtracted when chi(i) = -1.  The
    accumulator is multiplied by a prefix of the chi block once and
    summed once, without BLAS.  Row 0 starts the accumulator, so a
    single row (up to 14 qubits) is neither added nor subtracted.
    """
    amp = state.amplitudes
    q = amp.size.bit_length() - 1
    if q % 2:
        raise ValidationError(f"defined for an even number of qubits, got {q}")
    _check_sign_n(q // 2)
    width = min(amp.size // 2, _CHI_BLOCK.size)
    count = amp.size // 2 // width
    rows, mates = (a.reshape(-1, width)[:count] for a in (amp, amp[::-1]))
    odd = np.bitwise_count(np.arange(1, count, dtype=np.uint64)) & 1
    acc = rows[0] * mates[0]
    buf = np.empty_like(acc)
    for row, mate, flip in zip(rows[1:], mates[1:], odd):
        np.multiply(row, mate, out=buf)
        (np.subtract if flip else np.add)(acc, buf, out=acc)
    return _finite(complex(np.multiply(acc, _CHI_BLOCK[:width], out=acc).sum()))
