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


@dataclass(frozen=True, eq=False)
class PauliWeights:
    """Real coefficient table over Pauli label tuples, shape (4,)*n for
    n = 1, 2 or 3; n is the table's ndim."""

    table: np.ndarray

    def __post_init__(self):
        t = np.array(self.table, dtype=np.float64)
        if not 1 <= t.ndim <= 3 or t.shape != (4,) * t.ndim:
            raise ValueError(f"weights must have shape (4,)*n for n = 1, 2 or 3, got {t.shape}")
        # one reduction decides both checks: NaN and inf make it non-finite
        top = abs(t).max()
        if not top < np.inf:
            raise ValueError("weights must be finite")
        if top == 0.0:
            raise ValueError("weights must have at least one nonzero entry")
        t.setflags(write=False)
        object.__setattr__(self, "table", t)

    @property
    def n_qubits(self) -> int:
        return self.table.ndim


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
    def from_operator(cls, op) -> "Witness":
        traces = qcore.pauli_traces(op)
        return cls(PauliWeights(traces / (2.0 ** traces.ndim)))


@dataclass(frozen=True)
class CheckReport:
    """Result of probing a witness against its target state and a sample of
    pure product states."""

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
    f = 1.0 / np.sqrt(3.0)
    return Witness(PauliWeights(table=np.diag((f, -f, f, -f))))


@lru_cache(maxsize=1)
def fixed_chsh_witness() -> Witness:
    """I - (xx + zz)/sqrt(2): half the CHSH witness 2I + Bell of the x/z
    setting A = x, A' = z, B = -(x+z)/sqrt(2), B' = (z-x)/sqrt(2), whose
    Bell operator A(x)B + A'(x)B + A(x)B' - A'(x)B' is -sqrt(2) (xx + zz);
    ``game.chsh_value`` reads Bell off this witness as 2 (W - I)."""
    f = 1.0 / np.sqrt(2.0)
    return Witness(PauliWeights(table=np.diag((1.0, -f, 0.0, -f))))


@lru_cache(maxsize=1)
def strengthened_chsh_witness() -> Witness:
    """(1/sqrt(2)) (I - xx - zz): tightens the x/z CHSH bound from 2 to sqrt(2),
    lowering the Werner detection threshold from sqrt(2)/2 to 1/2."""
    f = 1.0 / np.sqrt(2.0)
    return Witness(PauliWeights(table=np.diag((f, -f, 0.0, -f))))


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
    # sigma_y^T = -sigma_y, so W's Pauli table is the projector's with its
    # t = 2 column negated; 0.0 - x keeps an exact zero at +0.0, as the
    # traces of the transposed projector give it
    traces = qcore.pauli_traces(np.outer(phi, phi.conj()))
    traces[:, 2] = 0.0 - traces[:, 2]
    return Witness(PauliWeights(traces / 4.0))


# ---------------------------------------------------------------------------
# Payoff and separability checks
# ---------------------------------------------------------------------------

def check_qubit_counts(rho: qcore.DensityMatrix, witness: Witness) -> None:
    """rho and the witness act on the same number of qubits."""
    if rho.n_qubits != witness.n_qubits:
        raise ValueError(f"state has {rho.n_qubits} qubits but the witness has {witness.n_qubits}")


def expected_payoff(rho: qcore.DensityMatrix, witness: Witness) -> float:
    """Exact average payoff -Tr(rho W)."""
    check_qubit_counts(rho, witness)
    return -float(qcore.expectations(rho.matrix, witness.operator))


def _product_mixtures(rng: np.random.Generator, count: int, k: int, n_qubits: int
                      ) -> np.ndarray:
    """Stack of count unvalidated separable states, shape (count, d, d):
    each is a Dirichlet(1,...,1)-weighted mixture of k products of
    Haar-random single-qubit pure states.

    Draws, in order: one standard exponential per component (normalised per
    state, these are the Dirichlet weights), then the normals of shape
    (count * k, n_qubits, 2, 2) holding each qubit's real parts and then
    its imaginary parts.  For one state this is the stream of
    ``rng.dirichlet(np.ones(k))`` followed by k * n_qubits draws of
    ``normal(size=2) + 1j * normal(size=2)``.

    The mixtures are one Gram product.  Each product vector psi_j is left
    unnormalised; its squared norm, the product of its qubits' squared
    norms, is folded into its weight w_j.  Row j of the (count, k, d) array
    A holds sqrt(w_j) psi_j / |psi_j| for component j of state i, so state
    i is A[i]^T conj(A[i]), and one batched matmul builds the stack.  The
    vectors are built component-last, so every elementwise step runs over
    all components at once rather than over pairs of amplitudes.  The
    callers have checked count, k and n_qubits.
    """
    e = rng.standard_exponential((count, k))
    # g[j, 0, :, t] and g[j, 1, :, t]: real and imaginary parts of qubit j
    # of component t
    g = np.ascontiguousarray(rng.normal(size=(count * k, n_qubits, 2, 2)).transpose(1, 2, 3, 0))
    norms2 = np.prod(np.sum(g * g, axis=(1, 2)), axis=0).reshape(count, k)
    scale = np.sqrt(e / (e.sum(axis=1, keepdims=True) * norms2)).ravel()
    psi = scale * (g[0, 0] + 1j * g[0, 1])
    for j in range(1, n_qubits):
        psi = (psi[:, None] * (g[j, 0] + 1j * g[j, 1])).reshape(-1, count * k)
    a = psi.T.reshape(count, k, -1)
    return np.matmul(a.swapaxes(1, 2), a.conj())


def random_separable(rng: np.random.Generator, k: int, n_qubits: int = 2
                     ) -> qcore.DensityMatrix:
    """Convex mixture of k random product states.

    Each component is a tensor product of Haar-random single-qubit pure
    states; the mixing weights are uniform on the simplex.
    """
    k = qcore.check_int(k, "k", 1)
    n_qubits = qcore.check_int(n_qubits, "n_qubits", 1, 3)
    return qcore.DensityMatrix(_product_mixtures(rng, 1, k, n_qubits)[0])


def check_witness(witness: Witness, rho: qcore.DensityMatrix, samples: int,
                  rng: np.random.Generator) -> CheckReport:
    """Evaluate a witness on its target and on sampled pure product states.

    Tr(sigma W) is linear in sigma, so its minimum over separable states is
    reached at a pure product state, and a mixture never scores below its
    best component; every sample is therefore one Haar-random product.  The
    samples are drawn SAMPLE_CHUNK at a time, and every chunk is validated
    as density matrices before it is scored, so memory does not grow with
    the sample count.  The verdict is positive only when the target payoff
    is positive and no sampled product state drove Tr(sigma W) below -1e-9.
    """
    samples = qcore.check_int(samples, "samples", 1)
    payoff = expected_payoff(rho, witness)
    min_val = np.inf
    for start in range(0, samples, SAMPLE_CHUNK):
        sigmas = qcore.validate_density_matrices(
            _product_mixtures(rng, min(SAMPLE_CHUNK, samples - start), 1, witness.n_qubits))
        values = qcore.expectations(sigmas, witness.operator)
        min_val = min(min_val, float(values.min()))
    return CheckReport(
        payoff_on_target=payoff,
        min_separable_value=min_val,
        n_samples=samples,
        verdict=bool(payoff > 0.0 and min_val >= -SEPARABLE_FLOOR),
    )
