"""Pure n-qubit states as complex hypermatrices.

The package represents an n-qubit state as an order-n hypermatrix with
every mode of length 2 and provides, on top of that representation:

* multilinear algebra (multilinear matrix multiplication and
  generalized transposes);
* a closed-form higher-order SVD for qubit tensors, whose per-mode
  singular values are local-unitary invariants, with a three-valued
  equivalence test built on them;
* combinatorial hyperdeterminants (full, reduced, and a linear-time
  antidiagonal form for 2n qubits) together with the +-1 sign strings
  that drive them and the n-tangle they compute.
"""

from .errors import (
    DimensionMismatchError,
    KetSyntaxError,
    QhyperError,
    SizeCapError,
    ValidationError,
)
from .hosvd import (
    DEFAULT_TOL,
    HosvdResult,
    LuTag,
    LuVerdict,
    SvalCertificate,
    canonicalize_core,
    hosvd,
    lu_equivalence,
    lu_fingerprint,
    mode_factor,
    mode_svals,
)
from .hyperdet import (
    SignString,
    AntidiagonalReport,
    chi,
    chi_signs,
    ent_matrix_dense,
    fact1_position,
    hdet_fast,
    hdet_general,
    hdet_reduced,
    sigma_y_dense,
    sign_string_ent,
    sign_string_sigma,
    verify_antidiagonal_identity,
)
from .states import (
    QubitState,
    apply_local_unitaries,
    hypermatrix_to_state,
    n_tangle,
    parse_ket,
    random_state,
    random_su2,
    spin_flip,
    state_from_json,
    state_to_hypermatrix,
    state_to_json,
)
from .tensor import (
    Hypermatrix,
    ModePermutation,
    frobenius_norm,
    matrix_to_json,
    mode_permute,
    multilinear_multiply,
    tensor_to_json,
)

__version__ = "0.1.0"
