"""Dense complex operator algebra for one to three qubits.

The n-qubit Pauli basis, named two- and three-qubit states, validated
density matrices, partial transposition, Hermitian eigendecomposition,
expectation values Tr(sigma O), and the maps between operators and their
Pauli-basis coefficient tables.
Everything is a plain complex128 ndarray except the few types that carry
validated structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10

PAULIS = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=np.complex128,
)
PAULIS.setflags(write=False)


def check_int(value, name: str, low: int, high: int | None = None) -> int:
    """value as a Python int: an int or numpy integer, never a bool, with
    low <= value (<= high when high is given).  The one rule for every
    integer input of the package: round, sample and qubit counts, seeds,
    sizes and labels."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < low or (high is not None and value > high)):
        bounds = f">= {low}" if high is None else f"from {low} to {high}"
        raise ValueError(f"{name} must be an integer {bounds}, got {value!r}")
    return int(value)


@lru_cache(maxsize=4, typed=True)
def pauli_basis(n_qubits: int) -> np.ndarray:
    """All 4^n Pauli strings stacked as one read-only array: the n-fold
    Kronecker power of PAULIS, labelled {0: I, 1: x, 2: y, 3: z}.

    Row order is np.ndindex order over (4,)*n, i.e. the raveled order of a
    coefficient table of shape (4,)*n.  The cache is typed, so that True
    misses the entry of 1 and is rejected.
    """
    n = check_int(n_qubits, "n_qubits", 1, 3)
    stack = reduce(np.kron, [PAULIS] * n)
    stack.setflags(write=False)
    return stack


def _as_operator(matrix, name: str = "operator", stack: bool = False) -> np.ndarray:
    """The one door for an operator argument, and the package's one
    Hermiticity rule.  A DensityMatrix yields its stored matrix, which came
    through this door when it was built.  Anything else must be a finite
    complex square matrix of dimension 2, 4 or 8 (with stack=True a nonempty
    (..., d, d) stack of them) with every entry of m - m^dag within
    HERMITICITY_TOL; the door returns its Hermitian part (m + m^dag)/2 as a
    fresh C-ordered array, which is Hermitian bit for bit.

    C order keeps m - adj and the in-place updates on matching layouts; on
    the transposed view of m.conj() each of them would be a strided pass.
    """
    if isinstance(matrix, DensityMatrix):
        return matrix.matrix
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim < 2 or (m.ndim > 2 and not stack) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    if m.shape[-1] not in (2, 4, 8):
        raise ValueError(f"{name} dimension must be 2, 4 or 8, got {m.shape[-1]}")
    if m.size == 0:
        raise ValueError(f"{name} stack is empty")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    adj = np.conjugate(m.swapaxes(-1, -2), order="C")
    dev = abs(m - adj).max()
    if not dev <= HERMITICITY_TOL:
        raise ValueError(f"{name} is not Hermitian (max deviation {dev:.3e})")
    adj += m
    adj /= 2.0
    return adj


def validate_density_matrices(matrices, stack: bool = True) -> np.ndarray:
    """Check a (..., d, d) stack of density matrices (one d x d matrix when
    stack=False) and return the Hermitian part h = (m + m^dag)/2 that
    _as_operator returns: m finite and Hermitian by its rule, h of unit
    trace with no eigenvalue below -PSD_TOL.  The first failing check raises
    ValueError; for a stack it reports the worst offending matrix.

    Positivity is one batched Cholesky factorisation of a copy of h with
    PSD_TOL added to its diagonal.
    """
    h = _as_operator(matrices, "density matrix", stack)
    tr = h.trace(axis1=-2, axis2=-1)
    off = abs(tr - 1.0)
    if not off.max() <= TRACE_TOL:
        raise ValueError(f"density matrix trace is {tr.flat[np.argmax(off)]:.12g}, expected 1")
    # h + PSD_TOL*I has a Cholesky factor exactly when no eigenvalue of h is
    # below -PSD_TOL, up to rounding of about d*eps; the eigenvalues are
    # computed only to decide and word a rejection.
    d = h.shape[-1]
    shifted = h.copy()
    # every (d + 1)-th entry of a C-ordered d x d matrix is on its diagonal
    shifted.reshape(-1, d * d)[:, ::d + 1] += PSD_TOL
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        low = np.linalg.eigvalsh(h)[..., 0].min()
        if low < -PSD_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {low:.3e}") from None
    return h


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated quantum state: Hermitian, unit trace, positive semidefinite.

    matrix is the Hermitian part that validate_density_matrices returns,
    stored read-only, so it is Hermitian bit for bit.  Eigenvalues down to
    -1e-10 are tolerated as arithmetic noise; anything more negative is
    rejected.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = validate_density_matrices(self.matrix, stack=False)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_qubits(self) -> int:
        return self.dim.bit_length() - 1


def pauli_traces(matrix) -> np.ndarray:
    """Real trace table Tr(M * sigma_t) for every Pauli string, shape (4,)*n
    for a 2^n x 2^n matrix or DensityMatrix, taken from the Hermitian part
    that _as_operator returns."""
    m = _as_operator(matrix, "matrix")
    n_qubits = m.shape[0].bit_length() - 1
    return expectations(pauli_basis(n_qubits), m).reshape((4,) * n_qubits)


def pauli_sum(table: np.ndarray) -> np.ndarray:
    """The 2^n x 2^n operator sum_t table[t] sigma_t of a real table of
    shape (4,)*n."""
    n = table.ndim
    return (table.ravel() @ pauli_basis(n).reshape(4 ** n, -1)).reshape(2 ** n, 2 ** n)


def from_pauli_coefficients(table) -> np.ndarray:
    """Inverse of pauli_traces on a state: rebuild 2^-n * sum r[t] sigma_t."""
    values = np.asarray(table, dtype=np.float64)
    n = values.ndim
    if values.shape != (4,) * n:
        raise ValueError(f"coefficient table must have shape (4,)*n, got {values.shape}")
    return pauli_sum(values) / (2.0 ** n)


def expectations(states: np.ndarray, op: np.ndarray) -> np.ndarray:
    """Tr(sigma op) for one d x d sigma or a (..., d, d) stack of them and a
    d x d op, as a float array of the stack's shape.  Nothing is checked:
    the callers pass Hermitian operands (_as_operator's results, stored
    states and witnesses, Pauli strings), so the discarded imaginary part
    is rounding.
    """
    d = op.shape[-1]
    if states.shape[-1] != d:
        raise ValueError(f"dimension mismatch: state {states.shape[-1]}, operator {d}")
    # Tr(sigma op) = sum_ij sigma_ij op_ji: each raveled sigma dotted with op^T raveled
    return (states.reshape(-1, d * d) @ op.T.ravel()).real.reshape(states.shape[:-2])


def partial_transpose(state) -> np.ndarray:
    """Partial transpose over the second qubit (B) of the Hermitian part of a
    two-qubit operator."""
    m = _as_operator(state)
    if m.shape != (4, 4):
        raise ValueError(f"partial transpose is defined for 4x4 operators, got {m.shape}")
    return np.ascontiguousarray(m.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4))


def hermitian_eigensystem(op) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of the
    Hermitian part of an operator (LAPACK via np.linalg.eigh)."""
    return np.linalg.eigh(_as_operator(op))


def trace_distance(a, b) -> float:
    """Half the sum of absolute eigenvalues of (a - b), from the Hermitian
    parts of the two operands, each checked on its own."""
    ha, hb = _as_operator(a), _as_operator(b)
    if ha.shape != hb.shape:
        raise ValueError(f"dimension mismatch: {ha.shape} vs {hb.shape}")
    # a difference of Hermitian parts is Hermitian bit for bit: nothing to check
    vals, _ = np.linalg.eigh(ha - hb)
    return float(0.5 * abs(vals).sum())


# ---------------------------------------------------------------------------
# Named states and random ensembles
# ---------------------------------------------------------------------------
# bell_psi_plus and ghz_state are built once per process, and the one frozen,
# read-only instance is shared.

@lru_cache(maxsize=1)
def bell_psi_plus() -> DensityMatrix:
    """The maximally entangled two-qubit state (|00> + |11>) / sqrt(2)."""
    vec = np.array([1, 0, 0, 1], dtype=np.complex128) / np.sqrt(2.0)
    return DensityMatrix(np.outer(vec, vec.conj()))


def make_werner(z: float) -> DensityMatrix:
    """Isotropic mixture (1-z)/4 * I + z |psi+><psi+| for z in [0, 1].

    Entangled exactly when z > 1/3.
    """
    z = float(z)
    if not 0.0 <= z <= 1.0:
        raise ValueError(f"werner parameter must be in [0, 1], got {z}")
    m = z * bell_psi_plus().matrix
    # (1-z)/4 * I added on the diagonal, in place: the same bits as the sum
    m.reshape(16)[::5] += (1.0 - z) / 4.0
    return DensityMatrix(m)


@lru_cache(maxsize=1)
def ghz_state() -> DensityMatrix:
    """(|000> + |111>) / sqrt(2) as a density matrix."""
    vec = np.zeros(8, dtype=np.complex128)
    vec[0] = vec[7] = 1.0 / np.sqrt(2.0)
    return DensityMatrix(np.outer(vec, vec.conj()))


def maximally_mixed(n_qubits: int) -> DensityMatrix:
    d = 2 ** check_int(n_qubits, "n_qubits", 1, 3)
    return DensityMatrix(np.eye(d, dtype=np.complex128) / d)


def random_density_matrix(rng: np.random.Generator, dim: int) -> DensityMatrix:
    """Hilbert-Schmidt random state: G G^dag / Tr for complex Gaussian G.

    dim is checked before anything is drawn."""
    if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or dim not in (2, 4, 8):
        raise ValueError(f"dim must be 2, 4 or 8, got {dim!r}")
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / m.trace())
