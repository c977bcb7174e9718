"""Law-level tests for the RNG schemes: ``counts-v1``, ``rounds-v2``,
``separable-v1`` and ``separable-v2``.

A byte-identity test can guard only a change that keeps every bit.  A
change that reorders a sum or a product, such as building the mixtures as
one Gram product, or one that draws the same law another way, needs an
oracle for the law the samples follow instead.

The game's count matrix N (``counts-v1``) is one multinomial of all rounds
over the (cell, outcome) entries with probabilities pi (x) table, so a
chi-square of N over its live entries stays below its quantile, and an
entry with pi or the table at 0 holds exactly 0 rounds.  The records
(``rounds-v2``) are a uniform shuffle of N's rounds, so each cell's rounds
are spread evenly over blocks of positions, and the cells of consecutive
rounds are independent: their pair counts match the product of the
marginals.

For the separable sampler behind ``separable-v1`` (``random_separable``)
and ``separable-v2`` (``check_witness``, one component per sample):

- the weights are flat-Dirichlet: with k components on n qubits the mean
  purity Tr(sigma^2) is 2/(k+1) + (k-1)/(k+1) * 2^-n, from
  E[w_j^2] = 2/(k(k+1)), E[w_j w_l] = 1/(k(k+1)) and a mean overlap
  |<psi_j|psi_l>|^2 of 2^-n between independent Haar product vectors;
- the Bloch vector of a single-component single-qubit sample has mean 0
  and second moment 1/3 on each axis (it is uniform on the sphere);
- the mean of Tr(sigma W) over samples tends to Tr(W)/d, because Haar
  product components average to I/d.

``simulate``'s detection verdict is a law as well: over seeded runs of
games whose exact payoff is <= 0, the share with a mean above
``game.detection_threshold`` stays within a binomial bound of
``game.DETECTION_ALPHA``.

The seeds are fixed, so every test is deterministic.  Thresholds are
computed here with numpy, not scipy: Wilson-Hilferty for chi-square
quantiles, and a normal quantile found by bisection on ``math.erfc``.  Each
law is also shown to fail on a broken sampler made in the test.
"""

import copy
import math
from functools import lru_cache

import numpy as np
import pytest

import ewgame as ew
from ewgame import game, qcore, witness

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


def chi2_against(counts: np.ndarray, expected: np.ndarray) -> tuple[float, int]:
    """Chi-square of counts against their expectation over the live entries
    (expected > 0), and its degrees of freedom."""
    live = expected > 0.0
    chi2 = np.sum((counts[live] - expected[live]) ** 2 / expected[live])
    return float(chi2), int(live.sum()) - 1


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
# Dirichlet weights
# ---------------------------------------------------------------------------

def purity_z(rng, n_qubits: int, k: int = 3) -> float:
    sigmas = witness._product_mixtures(rng, N_SAMPLES, k, n_qubits)
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
    sigmas = witness._product_mixtures(rng, N_SAMPLES, 1, 1)
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
    """Tr(sigma W) on N_SAMPLES mixtures of 3 components: with one, the
    unnormalised weights below would only scale each state by a mean-1
    exponential and leave the mean in place."""
    sigmas = witness._product_mixtures(rng, N_SAMPLES, 3, n_qubits)
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

    def unnormalised(rng, count, k, n):
        # the raw exponentials as weights: each state times their sum
        e = copy.deepcopy(rng).standard_exponential((count, k))
        return e.sum(axis=1)[:, None, None] * mixtures(rng, count, k, n)

    monkeypatch.setattr(witness, "_product_mixtures", unnormalised)
    values = witness_values(np.random.default_rng(13 + n_qubits), n_qubits)
    assert abs(witness_mean_z(values, n_qubits)) > normal_quantile(TAIL / 2)


# ---------------------------------------------------------------------------
# counts-v1: the count matrix
# ---------------------------------------------------------------------------

# strategy, witness, and whether pi is support-only (else uniform)
GAMES = {
    "bell, support-only": (ew.honest_strategy(ew.bell_psi_plus()), ew.werner_witness(), True),
    "cheat, uniform": (ew.classical_cheat_strategy(), ew.werner_witness(), False),
    "ghz, support-only": (ew.honest_strategy(ew.ghz_state()), ew.ghz_witness(), True),
}
COUNT_ROUNDS = 1_000_000


def counted(name: str, played=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A streamed run's count matrix N, with pi as a column and the outcome
    table as rows, both laid out like N.  The run plays the game's strategy,
    or the strategy played in its place."""
    strategy, wit, support_only = GAMES[name]
    if support_only:
        cfg = ew.GameConfig.support_only(wit.weights, COUNT_ROUNDS, seed=5)
    else:
        cfg = ew.GameConfig.uniform(COUNT_ROUNDS, seed=5, n_parties=wit.weights.n_qubits)
    tr = ew.run_game(cfg, strategy if played is None else played, wit.weights)
    return (tr.count_matrix, cfg.pi.reshape(-1, 1),
            strategy.outcome_table.reshape(tr.count_matrix.shape))


@pytest.mark.parametrize("name", GAMES)
def test_counts_follow_pi_times_table(name):
    counts, pi, table = counted(name)
    # dead entries: the cells support-only pi never draws, and the zeros of
    # the bell, ghz and cheat tables
    dead = (pi == 0.0) | (table == 0.0)
    assert (table[pi[:, 0] > 0.0] == 0.0).any()
    assert np.all(counts[dead] == 0)
    chi2, dof = chi2_against(counts, COUNT_ROUNDS * pi * table)
    assert chi2 <= chi2_quantile(TAIL, dof)


@pytest.mark.parametrize("name", GAMES)
def test_count_law_fails_on_rows_rotated_by_one_cell(name):
    # the strategy's rows moved one label cell on, checked against the
    # rows as they were
    table = GAMES[name][0].outcome_table
    rows = table.reshape(-1, table.shape[-1])
    rolled = ew.Strategy("rolled", np.roll(rows, 1, axis=0).reshape(table.shape))
    counts, pi, table = counted(name, rolled)
    chi2, dof = chi2_against(counts, COUNT_ROUNDS * pi * table)
    assert chi2 > chi2_quantile(TAIL, dof)


# ---------------------------------------------------------------------------
# rounds-v2: the order of the records
# ---------------------------------------------------------------------------

# state, witness and rounds of a uniform-pi run with records, per party count
RECORDED = {
    2: (ew.make_werner(0.8), ew.werner_witness(), 200_000),
    3: (ew.ghz_state(), ew.ghz_witness(), 400_000),
}
BLOCKS = 16


def recorded_cells(n: int) -> np.ndarray:
    """The raveled label cell of each recorded round, in the order played."""
    state, wit, rounds = RECORDED[n]
    cfg = ew.GameConfig.uniform(rounds, seed=7, n_parties=n)
    tr = ew.run_game(cfg, ew.honest_strategy(state), wit.weights, keep_records=True)
    return tr.joint >> n


def contingency_chi2(table: np.ndarray) -> tuple[float, int]:
    """Pearson chi-square of a table against the product of its margins,
    and its (rows - 1)(columns - 1) degrees of freedom."""
    rows, cols = table.sum(axis=1), table.sum(axis=0)
    chi2, _ = chi2_against(table, np.outer(rows, cols) / table.sum())
    return chi2, (len(rows) - 1) * (len(cols) - 1)


def block_chi2(cells: np.ndarray, n: int) -> tuple[float, int]:
    """Rounds per cell and block of consecutive positions: a uniform shuffle
    spreads every cell's rounds evenly over the blocks."""
    block = np.arange(len(cells)) * BLOCKS // len(cells)
    return contingency_chi2(np.bincount(cells * BLOCKS + block, minlength=4 ** n * BLOCKS)
                            .reshape(4 ** n, BLOCKS))


def pair_chi2(cells: np.ndarray, n: int) -> tuple[float, int]:
    """Counts of (cell, next round's cell): a uniform shuffle makes them the
    product of the marginals."""
    k = 4 ** n
    return contingency_chi2(np.bincount(cells[:-1] * k + cells[1:], minlength=k * k)
                            .reshape(k, k))


def shuffled_as(monkeypatch, shuffle) -> None:
    """Make run_game order its records with shuffle(rng, joint) in place of
    rng.shuffle(joint); every other draw is unchanged."""
    default_rng = np.random.default_rng

    def rng_for(seed):
        rng = default_rng(seed)
        return DrawChanged(rng, shuffle=lambda joint: shuffle(rng, joint))

    monkeypatch.setattr(game, "np", DrawChanged(np, random=DrawChanged(np.random, default_rng=rng_for)))


@pytest.mark.parametrize("n", RECORDED)
def test_cells_are_spread_evenly_over_positions(n):
    chi2, dof = block_chi2(recorded_cells(n), n)
    assert chi2 <= chi2_quantile(TAIL, dof)


@pytest.mark.parametrize("n", RECORDED)
def test_consecutive_cells_are_independent(n):
    chi2, dof = pair_chi2(recorded_cells(n), n)
    assert chi2 <= chi2_quantile(TAIL, dof)


@pytest.mark.parametrize("n", RECORDED)
def test_position_law_fails_on_records_sorted_by_cell(monkeypatch, n):
    shuffled_as(monkeypatch, lambda rng, joint: None)
    cells = recorded_cells(n)
    assert np.all(np.diff(cells) >= 0)
    chi2, dof = block_chi2(cells, n)
    assert chi2 > chi2_quantile(TAIL, dof)


@pytest.mark.parametrize("n", RECORDED)
def test_pair_law_fails_on_rounds_shuffled_two_at_a_time(monkeypatch, n):
    # the sorted rounds cut into pairs and the pairs shuffled: nearly every
    # pair holds one cell twice
    shuffled_as(monkeypatch, lambda rng, joint: rng.shuffle(joint.reshape(-1, 2)))
    chi2, dof = pair_chi2(recorded_cells(n), n)
    assert chi2 > chi2_quantile(TAIL, dof)


# ---------------------------------------------------------------------------
# The detection verdict: a payoff <= 0 certifies at rate <= alpha
# ---------------------------------------------------------------------------

VERDICT_RUNS = 10_000
VERDICT_ROUNDS = (50, 200, 1_000, 5_000)


@lru_cache(maxsize=1)
def null_runs() -> tuple:
    """(mean, transcript) of VERDICT_RUNS seeded honest werner-witness games
    on states whose exact payoff is <= 0: werner(1/3), at the separable
    boundary, and random separable states, under uniform and support-only
    pi and a few small round counts."""
    gen = np.random.default_rng(31)
    wit = ew.werner_witness()
    boundary = ew.honest_strategy(ew.make_werner(1.0 / 3.0))
    runs = []
    for j in range(VERDICT_RUNS):
        if j % 2:
            rho = ew.random_separable(gen, k=int(gen.integers(1, 5)))
            strategy = ew.honest_strategy(rho)
            assert ew.expected_payoff(rho, wit) <= 1e-12
        else:
            strategy = boundary
        # the state alternates, the round count cycles every 8 runs, and pi every 16
        rounds, seed = VERDICT_ROUNDS[j // 2 % 4], int(gen.integers(1 << 31))
        if j // 8 % 2 == 0:
            cfg = ew.GameConfig.uniform(rounds, seed)
        else:
            cfg = ew.GameConfig.support_only(wit.weights, rounds, seed)
        tr = ew.run_game(cfg, strategy, wit.weights)
        runs.append((ew.empirical_payoff(tr)[0], tr))
    return tuple(runs)


def certified(threshold) -> int:
    """How many null runs exit 0 under ``simulate``'s rule, mean > t."""
    return sum(mean > threshold(tr) for mean, tr in null_runs())


def binomial_ceiling(n: int, p: float) -> float:
    """Upper TAIL bound on a Binomial(n, p) count, by the normal approximation."""
    return n * p + normal_quantile(TAIL) * math.sqrt(n * p * (1.0 - p))


def test_null_runs_certify_at_rate_at_most_alpha():
    assert certified(game.detection_threshold) <= binomial_ceiling(VERDICT_RUNS,
                                                                   game.DETECTION_ALPHA)


def test_verdict_law_fails_on_the_sign_rule():
    # t = 0 exits 0 whenever the mean is positive: about half the werner(1/3) runs
    assert certified(lambda tr: 0.0) > binomial_ceiling(VERDICT_RUNS, game.DETECTION_ALPHA)


def test_werner_one_certifies_at_ten_thousand_rounds():
    strategy, weights = ew.honest_strategy(ew.make_werner(1.0)), ew.werner_witness().weights
    for seed in range(100):
        tr = ew.run_game(ew.GameConfig.uniform(10_000, seed), strategy, weights)
        assert ew.empirical_payoff(tr)[0] > game.detection_threshold(tr), seed
