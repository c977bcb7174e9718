"""Law-level tests for the separable sampler's RNG scheme, ``separable-v1``.

A byte-identity test can guard only a change that keeps every bit.  A
change that reorders a sum or a product, such as building the mixtures as
one Gram product, needs an oracle for the law the samples follow instead:

- component counts are uniform on 1..4;
- the weights are flat-Dirichlet: with k components on n qubits the mean
  purity Tr(sigma^2) is 2/(k+1) + (k-1)/(k+1) * 2^-n, from
  E[w_j^2] = 2/(k(k+1)), E[w_j w_l] = 1/(k(k+1)) and a mean overlap
  |<psi_j|psi_l>|^2 of 2^-n between independent Haar product vectors;
- the Bloch vector of a single-component single-qubit sample has mean 0
  and second moment 1/3 on each axis (it is uniform on the sphere);
- the mean of Tr(sigma W) over samples tends to Tr(W)/d, because Haar
  product components average to I/d.

The seeds are fixed, so every test is deterministic.  Thresholds are
computed here with numpy, not scipy: Wilson-Hilferty for chi-square
quantiles, and a normal quantile found by bisection on ``math.erfc``.  Each
law is also shown to fail on a broken sampler made in the test.
"""

import copy
import math

import numpy as np
import pytest

import ewgame as ew
from ewgame import qcore, witness

TAIL = 1e-6
N_SAMPLES = 20_000


def normal_quantile(p: float) -> float:
    """z with P(Z > z) = p for a standard normal Z, 0 < p < 1/2."""
    lo, hi = 0.0, 40.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if 0.5 * math.erfc(mid / math.sqrt(2.0)) > p else (lo, mid)
    return 0.5 * (lo + hi)


def chi2_quantile(p: float, dof: int) -> float:
    """Upper p quantile of chi-square with dof degrees of freedom, by the
    Wilson-Hilferty approximation: (X/dof)^(1/3) is about normal with mean
    1 - 2/(9 dof) and variance 2/(9 dof)."""
    c = 2.0 / (9.0 * dof)
    return dof * (1.0 - c + normal_quantile(p) * np.sqrt(c)) ** 3


def z_scores(values: np.ndarray, expected) -> np.ndarray:
    """Per-column (mean - expected) / standard error."""
    se = values.std(axis=0, ddof=1) / np.sqrt(len(values))
    return (values.mean(axis=0) - expected) / se


class DrawChanged:
    """Generator stand-in that passes every draw to rng except the ones
    given as keyword arguments, which replace the generator's methods."""

    def __init__(self, rng, **draws):
        self.rng, self.draws = rng, draws

    def __getattr__(self, name):
        return self.draws.get(name) or getattr(self.rng, name)


def test_quantiles_match_tables():
    assert normal_quantile(0.025) == pytest.approx(1.959964, abs=1e-6)
    assert normal_quantile(1e-6) == pytest.approx(4.753424, abs=1e-6)
    # Wilson-Hilferty is an approximation: within 1% of these table values
    assert chi2_quantile(0.05, 3) == pytest.approx(7.8147, rel=1e-2)
    assert chi2_quantile(0.001, 10) == pytest.approx(29.588, rel=1e-2)


# ---------------------------------------------------------------------------
# Component counts
# ---------------------------------------------------------------------------

def checked_counts(monkeypatch, rng) -> np.ndarray:
    """The component counts check_witness draws for N_SAMPLES samples."""
    counts, mixtures = [], witness._product_mixtures

    def recording(gen, ks, n_qubits):
        counts.append(np.asarray(ks))
        return mixtures(gen, ks, n_qubits)

    monkeypatch.setattr(witness, "_product_mixtures", recording)
    ew.check_witness(ew.werner_witness(), ew.make_werner(1.0), N_SAMPLES, rng)
    return np.concatenate(counts)


def counts_chi2(ks: np.ndarray) -> float:
    observed = np.array([np.sum(ks == k) for k in range(1, 5)])
    assert observed.sum() == len(ks)
    expected = len(ks) / 4.0
    return float(np.sum((observed - expected) ** 2 / expected))


def test_counts_are_uniform_on_1_to_4(monkeypatch):
    ks = checked_counts(monkeypatch, np.random.default_rng(11))
    assert len(ks) == N_SAMPLES
    assert set(np.unique(ks)) == {1, 2, 3, 4}
    assert counts_chi2(ks) <= chi2_quantile(TAIL, 3)


def test_counts_law_fails_on_counts_from_1_to_3(monkeypatch):
    rng = np.random.default_rng(11)
    mutant = DrawChanged(rng, integers=lambda low, high, size: rng.integers(low, high - 1, size))
    assert counts_chi2(checked_counts(monkeypatch, mutant)) > chi2_quantile(TAIL, 3)


# ---------------------------------------------------------------------------
# Dirichlet weights
# ---------------------------------------------------------------------------

def purity_z(rng, n_qubits: int, k: int = 3) -> float:
    sigmas = witness._product_mixtures(rng, np.full(N_SAMPLES, k), n_qubits)
    purity = np.einsum("nij,nji->n", sigmas, sigmas).real
    return float(z_scores(purity, 2.0 / (k + 1) + (k - 1) / (k + 1) * 2.0 ** -n_qubits))


@pytest.mark.parametrize("n_qubits", [1, 2, 3])
def test_weights_are_flat_dirichlet(n_qubits):
    assert abs(purity_z(np.random.default_rng(20 + n_qubits), n_qubits)) <= normal_quantile(TAIL / 2)


@pytest.mark.parametrize("n_qubits", [1, 2, 3])
def test_weight_law_fails_on_squared_exponentials(n_qubits):
    rng = np.random.default_rng(20 + n_qubits)
    mutant = DrawChanged(rng, standard_exponential=lambda size: rng.standard_exponential(size) ** 2)
    assert abs(purity_z(mutant, n_qubits)) > normal_quantile(TAIL / 2)


# ---------------------------------------------------------------------------
# Single-qubit Bloch vectors
# ---------------------------------------------------------------------------

def bloch_vectors(rng) -> np.ndarray:
    """Bloch vectors (Tr sigma X, Tr sigma Y, Tr sigma Z) of N_SAMPLES
    single-component single-qubit samples."""
    sigmas = witness._product_mixtures(rng, np.ones(N_SAMPLES, dtype=np.int64), 1)
    return np.einsum("nij,kji->nk", sigmas, qcore.PAULIS[1:]).real


def bloch_z(r: np.ndarray) -> float:
    """Largest |z| of the mean (0) and second moment (1/3) on each axis."""
    return float(np.max(np.abs(np.concatenate([z_scores(r, 0.0), z_scores(r ** 2, 1.0 / 3.0)]))))


def test_bloch_vectors_have_mean_0_and_second_moment_one_third():
    r = bloch_vectors(np.random.default_rng(12))
    assert np.allclose(np.sum(r ** 2, axis=1), 1.0, atol=1e-12)
    assert bloch_z(r) <= normal_quantile(TAIL / 2)


def test_bloch_law_fails_on_amplitudes_from_a_cube():
    rng = np.random.default_rng(12)
    mutant = DrawChanged(rng, normal=lambda size: rng.uniform(-1.0, 1.0, size))
    assert bloch_z(bloch_vectors(mutant)) > normal_quantile(TAIL / 2)


# ---------------------------------------------------------------------------
# Mean of Tr(sigma W)
# ---------------------------------------------------------------------------

OBSERVABLES = {
    1: np.array([[1.0, 0.3 - 0.2j], [0.3 + 0.2j, -0.4]]),
    2: ew.werner_witness().operator,
    3: ew.ghz_witness().operator,
}


def witness_values(rng, n_qubits: int) -> np.ndarray:
    """Tr(sigma W) on N_SAMPLES samples with counts uniform on 1..4."""
    ks = rng.integers(1, 5, N_SAMPLES)
    sigmas = witness._product_mixtures(rng, ks, n_qubits)
    return np.einsum("nij,ji->n", sigmas, OBSERVABLES[n_qubits]).real


def witness_mean_z(values: np.ndarray, n_qubits: int) -> float:
    op = OBSERVABLES[n_qubits]
    return float(z_scores(values, np.trace(op).real / op.shape[0]))


@pytest.mark.parametrize("n_qubits", [1, 2, 3])
def test_mean_witness_value_is_trace_over_d(n_qubits):
    values = witness_values(np.random.default_rng(13 + n_qubits), n_qubits)
    assert abs(witness_mean_z(values, n_qubits)) <= normal_quantile(TAIL / 2)


@pytest.mark.parametrize("n_qubits", [1, 2, 3])
def test_witness_law_fails_on_unnormalised_weights(monkeypatch, n_qubits):
    mixtures = witness._product_mixtures

    def unnormalised(rng, ks, n):
        # the raw exponentials as weights: each state times their sum
        e = copy.deepcopy(rng).standard_exponential(int(np.sum(ks)))
        return np.add.reduceat(e, np.cumsum(ks) - ks)[:, None, None] * mixtures(rng, ks, n)

    monkeypatch.setattr(witness, "_product_mixtures", unnormalised)
    values = witness_values(np.random.default_rng(13 + n_qubits), n_qubits)
    assert abs(witness_mean_z(values, n_qubits)) > normal_quantile(TAIL / 2)
