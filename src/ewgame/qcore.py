"""Dense complex operator algebra for one to three qubits.

Pauli strings and their tensor products, named two-qubit states, validated
density matrices, partial transposition, Hermitian eigendecomposition, and
the maps between operators and their Pauli-basis coefficient tables.
Everything is a plain complex128 ndarray except the few types that carry
validated structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

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


def pauli_string(labels) -> np.ndarray:
    """Tensor product of single-qubit Paulis, e.g. (1, 3) -> sigma_x (x) sigma_z.

    Labels index {0: I, 1: x, 2: y, 3: z}; one to three labels are supported.
    """
    labels = tuple(int(l) for l in labels)
    if not 1 <= len(labels) <= 3:
        raise ValueError(f"need 1 to 3 labels, got {len(labels)}")
    if any(l not in (0, 1, 2, 3) for l in labels):
        raise ValueError(f"labels must be in 0..3, got {labels}")
    out = PAULIS[labels[0]]
    for l in labels[1:]:
        out = np.kron(out, PAULIS[l])
    return out


@lru_cache(maxsize=4)
def pauli_basis(n_qubits: int) -> np.ndarray:
    """All 4^n Pauli strings stacked as one read-only array.

    Row order is np.ndindex order over (4,)*n, i.e. the raveled order of a
    coefficient table of shape (4,)*n.
    """
    stack = np.stack([pauli_string(l) for l in product(range(4), repeat=n_qubits)])
    stack.setflags(write=False)
    return stack


def _as_operator(matrix, name: str = "operator", stack: bool = False) -> np.ndarray:
    """Finite complex square matrix of dimension 2, 4 or 8, or with
    stack=True a nonempty (..., d, d) stack of them."""
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim < 2 or (m.ndim > 2 and not stack) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    if m.shape[-1] not in (2, 4, 8):
        raise ValueError(f"{name} dimension must be 2, 4 or 8, got {m.shape[-1]}")
    if m.size == 0:
        raise ValueError(f"{name} stack is empty")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _check_hermitian(m: np.ndarray, name: str = "operator") -> np.ndarray:
    """Raise unless m is Hermitian within HERMITICITY_TOL; return the adjoint
    of m as a fresh C-ordered array the caller may overwrite.

    C order keeps m - adj and the caller's in-place updates on matching
    layouts; on the transposed view of m.conj() each of them would be a
    strided pass.
    """
    adj = np.conjugate(m.swapaxes(-1, -2), order="C")
    dev = abs(m - adj).max()
    if not dev <= HERMITICITY_TOL:
        raise ValueError(f"{name} is not Hermitian (max deviation {dev:.3e})")
    return adj


def validate_density_matrices(matrices, stack: bool = True) -> np.ndarray:
    """Check a (..., d, d) stack of density matrices (one d x d matrix when
    stack=False) and return it as complex128: finite, Hermitian, unit trace,
    and no eigenvalue below -PSD_TOL.  The first failing check raises
    ValueError; for a stack it reports the worst offending matrix.

    The adjoint is computed once: the Hermiticity check returns it, and the
    Hermitian part h = (m + m^dag)/2 is built in its buffer.  Positivity is
    one batched Cholesky factorisation of a copy of h with PSD_TOL added to
    its diagonal.
    """
    m = _as_operator(matrices, "density matrix", stack)
    h = _check_hermitian(m, "density matrix")
    tr = m.trace(axis1=-2, axis2=-1)
    off = abs(tr - 1.0)
    if not off.max() <= TRACE_TOL:
        raise ValueError(f"density matrix trace is {tr.flat[np.argmax(off)]:.12g}, expected 1")
    # h + PSD_TOL*I has a Cholesky factor exactly when no eigenvalue of h is
    # below -PSD_TOL, up to rounding of about d*eps; the eigenvalues are
    # computed only to decide and word a rejection.  Cholesky reads only the
    # lower triangle, hence the Hermitian part first.
    h += m
    h /= 2.0
    d = m.shape[-1]
    shifted = h.copy()
    # every (d + 1)-th entry of a C-ordered d x d matrix is on its diagonal
    shifted.reshape(-1, d * d)[:, ::d + 1] += PSD_TOL
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        low = np.linalg.eigvalsh(h)[..., 0].min()
        if low < -PSD_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {low:.3e}") from None
    return m


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated quantum state: Hermitian, unit trace, positive semidefinite.

    Eigenvalues down to -1e-10 are tolerated as arithmetic noise; anything
    more negative is rejected.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = validate_density_matrices(self.matrix, stack=False).copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_qubits(self) -> int:
        return self.dim.bit_length() - 1


def pauli_traces(matrix) -> np.ndarray:
    """Raw trace table Tr(M * sigma_t) for every Pauli string, shape (4,)*n
    for a 2^n x 2^n matrix or DensityMatrix.

    The matrix must be finite (a DensityMatrix already is), and the
    imaginary residue must stay within 2^(n-1) * HERMITICITY_TOL (a larger
    one means the input was not Hermitian); it is discarded after the check.
    """
    if isinstance(matrix, DensityMatrix):
        m = matrix.matrix
    else:
        m = _as_operator(matrix, "matrix")
    n_qubits = m.shape[0].bit_length() - 1
    # row k of the basis, raveled, dotted with M^T raveled is Tr(sigma_k M)
    traces = pauli_basis(n_qubits).reshape(4 ** n_qubits, -1) @ m.T.ravel()
    # Only the anti-Hermitian part A = (M - M^dag)/2 adds an imaginary part,
    # Tr(sigma A).  Each entry of A is at most HERMITICITY_TOL/2 on a matrix
    # _check_hermitian accepts, and sigma has 2^n unit entries, so the
    # residue of an accepted matrix is at most 2^(n-1) * HERMITICITY_TOL.
    resid = abs(traces.imag).max()
    if not resid <= 2 ** (n_qubits - 1) * HERMITICITY_TOL:
        raise ValueError(f"imaginary residue {resid:.3e} in Pauli traces; input not Hermitian")
    return traces.real.reshape((4,) * n_qubits)


def from_pauli_coefficients(table) -> np.ndarray:
    """Inverse of pauli_traces on a state: rebuild 2^-n * sum r[t] sigma_t."""
    values = np.asarray(table, dtype=np.float64)
    n = values.ndim
    if values.shape != (4,) * n:
        raise ValueError(f"coefficient table must have shape (4,)*n, got {values.shape}")
    op = values.ravel() @ pauli_basis(n).reshape(4 ** n, -1)
    return op.reshape(2 ** n, 2 ** n) / (2.0 ** n)


def partial_transpose(state) -> np.ndarray:
    """Partial transpose of a two-qubit operator over the second qubit (B)."""
    m = state.matrix if isinstance(state, DensityMatrix) else np.asarray(state, dtype=np.complex128)
    if m.shape != (4, 4):
        raise ValueError(f"partial transpose is defined for 4x4 operators, got {m.shape}")
    return np.ascontiguousarray(m.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4))


def hermitian_eigensystem(op) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a
    Hermitian operator (LAPACK via np.linalg.eigh)."""
    m = _as_operator(op)
    h = _check_hermitian(m)
    h += m
    h /= 2.0
    return np.linalg.eigh(h)


def trace_distance(a, b) -> float:
    """Half the sum of absolute eigenvalues of (a - b)."""
    ma = a.matrix if isinstance(a, DensityMatrix) else np.asarray(a, dtype=np.complex128)
    mb = b.matrix if isinstance(b, DensityMatrix) else np.asarray(b, dtype=np.complex128)
    if ma.shape != mb.shape:
        raise ValueError(f"dimension mismatch: {ma.shape} vs {mb.shape}")
    vals, _ = hermitian_eigensystem(ma - mb)
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
    d = 2 ** n_qubits
    return DensityMatrix(np.eye(d, dtype=np.complex128) / d)


def random_density_matrix(rng: np.random.Generator, dim: int) -> DensityMatrix:
    """Hilbert-Schmidt random state: G G^dag / Tr for complex Gaussian G."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / m.trace())


def validate_spin_observable(op, name: str = "observable") -> np.ndarray:
    """Check a single-qubit observable is Hermitian with spectrum {-1, +1}."""
    m = np.asarray(op, dtype=np.complex128)
    if m.shape != (2, 2):
        raise ValueError(f"{name} must be 2x2, got {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    _check_hermitian(m, name)
    if not abs(m @ m - np.eye(2)).max() <= 1e-9:
        raise ValueError(f"{name} must square to the identity")
    if not abs(m.trace()) <= 1e-9:
        raise ValueError(f"{name} must be traceless (eigenvalues -1 and +1)")
    return m
