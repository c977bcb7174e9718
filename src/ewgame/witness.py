"""Entanglement witnesses: construction, Pauli-weight decomposition, exact
expected payoff -Tr(rho W), and sampling-based separability checks.

A witness is stored as its coefficient table w, the Pauli weights the
referee pays by, and its operator W = sum_t w[t] sigma_t is built once from
them; nothing is renormalized behind the caller's back, so payoff values
come out exactly as the defining constants dictate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import qcore

SEPARABLE_FLOOR = 1e-9
NPT_THRESHOLD = -1e-9
SAMPLE_CHUNK = 1024


class PPTStateError(ValueError):
    """Raised when a witness is requested for a state with positive partial
    transpose (for two qubits: a separable state)."""


def _check_n_qubits(n_qubits) -> None:
    if (isinstance(n_qubits, bool) or not isinstance(n_qubits, (int, np.integer))
            or not 1 <= n_qubits <= 3):
        raise ValueError(f"n_qubits must be 1, 2 or 3, got {n_qubits!r}")


@dataclass(frozen=True, eq=False)
class PauliWeights:
    """Real coefficient table over Pauli label tuples, shape (4,)*n."""

    n_qubits: int
    table: np.ndarray

    def __post_init__(self):
        _check_n_qubits(self.n_qubits)
        t = np.array(self.table, dtype=np.float64)
        if t.shape != (4,) * self.n_qubits:
            raise ValueError(f"expected shape {(4,) * self.n_qubits}, got {t.shape}")
        # one reduction decides both checks: NaN and inf make it non-finite
        top = abs(t).max()
        if not top < np.inf:
            raise ValueError("weights must be finite")
        if top == 0.0:
            raise ValueError("weights must have at least one nonzero entry")
        t.setflags(write=False)
        object.__setattr__(self, "table", t)

    def __getitem__(self, labels) -> float:
        return float(self.table[labels])


@dataclass(frozen=True, eq=False)
class Witness:
    """Hermitian witness W = sum_t w[t] sigma_t, stored as its Pauli weights
    w; the read-only operator is built from them."""

    weights: PauliWeights
    operator: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        op = qcore.pauli_sum(self.weights.table)
        op.setflags(write=False)
        object.__setattr__(self, "operator", op)

    @property
    def n_qubits(self) -> int:
        return self.weights.n_qubits

    @classmethod
    def from_weights(cls, weights: PauliWeights) -> "Witness":
        return cls(weights)

    @classmethod
    def from_operator(cls, op) -> "Witness":
        traces = qcore.pauli_traces(op)
        n = traces.ndim
        return cls(PauliWeights(n, traces / (2.0 ** n)))


@dataclass(frozen=True)
class CheckReport:
    """Result of probing a witness against its target state and a sample of
    separable states."""

    payoff_on_target: float
    min_separable_value: float
    n_samples: int
    verdict: bool


# ---------------------------------------------------------------------------
# Built-in witnesses
# ---------------------------------------------------------------------------
# Each named witness is built once per process and the one frozen, read-only
# instance is shared.

@lru_cache(maxsize=1)
def werner_witness() -> Witness:
    """(1/sqrt(3)) (I - xx + yy - zz); detects Werner states with z > 1/3.

    The prefactor makes the diagonal-correlation part a unit vector under the
    trace inner product, so the expected payoff equals the Euclidean distance
    from the state's diagonal projection to the Tr(rho W) = 0 plane.
    """
    w = np.zeros((4, 4))
    f = 1.0 / np.sqrt(3.0)
    w[0, 0] = f
    w[1, 1] = -f
    w[2, 2] = f
    w[3, 3] = -f
    return Witness.from_weights(PauliWeights(2, w))


def xz_chsh_observables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The x/z-plane setting A = x, A' = z, B = -(x+z)/sqrt(2), B' = (z-x)/sqrt(2)."""
    sx, sz = qcore.PAULIS[1], qcore.PAULIS[3]
    rt2 = np.sqrt(2.0)
    return sx, sz, -(sx + sz) / rt2, (sz - sx) / rt2


@lru_cache(maxsize=1)
def fixed_chsh_witness() -> Witness:
    """I - (xx + zz)/sqrt(2): half the CHSH witness of the x/z observables."""
    w = np.zeros((4, 4))
    w[0, 0] = 1.0
    w[1, 1] = -1.0 / np.sqrt(2.0)
    w[3, 3] = -1.0 / np.sqrt(2.0)
    return Witness.from_weights(PauliWeights(2, w))


@lru_cache(maxsize=1)
def strengthened_chsh_witness() -> Witness:
    """(1/sqrt(2)) (I - xx - zz): tightens the x/z CHSH bound from 2 to sqrt(2),
    lowering the Werner detection threshold from sqrt(2)/2 to 1/2."""
    w = np.zeros((4, 4))
    f = 1.0 / np.sqrt(2.0)
    w[0, 0] = f
    w[1, 1] = -f
    w[3, 3] = -f
    return Witness.from_weights(PauliWeights(2, w))


@lru_cache(maxsize=1)
def ghz_witness() -> Witness:
    """Projector witness I/2 - |GHZ><GHZ| for the three-player game.

    Product states overlap the GHZ state by at most 1/2, so the witness is
    nonnegative on every fully separable state while Tr(W GHZ) = -1/2.
    """
    op = 0.5 * np.eye(8, dtype=np.complex128) - qcore.ghz_state().matrix
    return Witness.from_operator(op)


def ppt_witness(rho: qcore.DensityMatrix) -> Witness:
    """Witness tailored to an entangled two-qubit state from the most negative
    eigenvector phi of its partial transpose: W = (|phi><phi|)^T_B.

    Then Tr(rho W) equals that negative eigenvalue, while Tr(sigma W) >= 0 for
    every separable sigma.  Raises PPTStateError when the partial transpose
    has no negative eigenvalue.
    """
    if rho.dim != 4:
        raise ValueError("ppt witness construction needs a two-qubit state")
    pt = qcore.partial_transpose(rho)
    vals, vecs = qcore.hermitian_eigensystem(pt)
    if vals[0] >= NPT_THRESHOLD:
        raise PPTStateError("state is PPT; no witness of this form exists")
    phi = vecs[:, 0]
    proj = np.outer(phi, phi.conj())
    return Witness.from_operator(qcore.partial_transpose(proj))


# ---------------------------------------------------------------------------
# Payoff and separability checks
# ---------------------------------------------------------------------------

def expected_payoff(rho: qcore.DensityMatrix, witness: Witness) -> float:
    """Exact average payoff -Tr(rho W)."""
    return -float(qcore.expectations(rho.matrix, witness.operator))


def _positive_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def _product_mixtures(rng: np.random.Generator, ks, n_qubits: int) -> np.ndarray:
    """Stack of len(ks) unvalidated separable states, shape (len(ks), d, d):
    state i is a Dirichlet(1,...,1)-weighted mixture of ks[i] products of
    Haar-random single-qubit pure states.

    Draws, in order: one standard exponential per component (normalised per
    state, these are the Dirichlet weights), then the normals of shape
    (components, n_qubits, 2, 2) holding each qubit's real parts and then
    its imaginary parts.  For one state this is the stream of
    ``rng.dirichlet(np.ones(k))`` followed by k * n_qubits draws of
    ``normal(size=2) + 1j * normal(size=2)``.

    The mixtures are one Gram product.  Each product vector psi_j is left
    unnormalised; its squared norm, the product of its qubits' squared
    norms, is folded into its weight w_j.  Row j of state i's block of a
    zero-padded (len(ks), max(ks), d) array A is sqrt(w_j) psi_j / |psi_j|,
    so state i is A[i]^T conj(A[i]), and one batched matmul builds the
    stack.  The vectors are built component-last, so every elementwise step
    runs over all components at once rather than over pairs of amplitudes.
    """
    _check_n_qubits(n_qubits)
    ks = np.asarray(ks, dtype=np.int64)
    total = int(ks.sum())
    starts = np.cumsum(ks) - ks
    e = rng.standard_exponential(total)
    # g[j, 0, :, t] and g[j, 1, :, t]: real and imaginary parts of qubit j
    # of component t
    g = np.ascontiguousarray(rng.normal(size=(total, n_qubits, 2, 2)).transpose(1, 2, 3, 0))
    norms2 = np.prod(np.sum(g * g, axis=(1, 2)), axis=0)
    scale = np.sqrt(e / (np.repeat(np.add.reduceat(e, starts), ks) * norms2))
    psi = scale * (g[0, 0] + 1j * g[0, 1])
    for j in range(1, n_qubits):
        psi = (psi[:, None] * (g[j, 0] + 1j * g[j, 1])).reshape(-1, total)
    a = np.zeros((len(ks), int(ks.max()), psi.shape[0]), dtype=np.complex128)
    a[np.repeat(np.arange(len(ks)), ks), np.arange(total) - np.repeat(starts, ks)] = psi.T
    return np.matmul(a.swapaxes(1, 2), a.conj())


def random_separable(rng: np.random.Generator, k: int, n_qubits: int = 2
                     ) -> qcore.DensityMatrix:
    """Convex mixture of k random product states.

    Each component is a tensor product of Haar-random single-qubit pure
    states; the mixing weights are uniform on the simplex.
    """
    k = _positive_int(k, "k")
    return qcore.DensityMatrix(_product_mixtures(rng, [k], n_qubits)[0])


def check_witness(witness: Witness, rho: qcore.DensityMatrix, n_samples: int,
                  rng: np.random.Generator) -> CheckReport:
    """Evaluate a witness on its target and on sampled separable states.

    The samples are drawn SAMPLE_CHUNK at a time, each chunk as its
    component counts (1 to 4 per sample), then the mixtures; every chunk is
    validated as density matrices before it is scored, so memory does not
    grow with n_samples.  The verdict is positive only when the target
    payoff is positive and no sampled separable state drove Tr(sigma W)
    below -1e-9.
    """
    n_samples = _positive_int(n_samples, "n_samples")
    payoff = expected_payoff(rho, witness)
    min_val = np.inf
    for start in range(0, n_samples, SAMPLE_CHUNK):
        ks = rng.integers(1, 5, min(SAMPLE_CHUNK, n_samples - start))
        sigmas = qcore.validate_density_matrices(
            _product_mixtures(rng, ks, witness.n_qubits))
        values = qcore.expectations(sigmas, witness.operator)
        min_val = min(min_val, float(values.min()))
    return CheckReport(
        payoff_on_target=payoff,
        min_separable_value=min_val,
        n_samples=n_samples,
        verdict=bool(payoff > 0.0 and min_val >= -SEPARABLE_FLOOR),
    )
