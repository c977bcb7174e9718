"""The three ewgame workloads.

Each workload draws its inputs (matrices, spec strings, seeds) from its own
numpy Generator, so the same seed gives the same inputs, and ewgame receives
only those generated inputs.  ``items`` is one cycle of operations; the
timing loop walks it round robin.  ``run`` performs one operation through
ewgame's public functions, each call inside a tracer span named after its
layer boundary.  ``check`` compares the output with a reference computed
here with plain numpy, outside the timed region.

Only API that is meant to outlive the planned refactors is used: the generic
GameConfig/run_game path serves three parties too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ewgame import game, qcore, serialize, tomography, witness

# A game mean must lie within this many standard errors of the exact payoff.
# With 5 rather than 3, a change of RNG stream flips a check with chance
# about 6e-7 per operation.
SE_LIMIT = 5.0
EXACT_TOL = 1e-10
SEPARABLE_FLOOR = -1e-9
# 2-qubit states with lambda_min(rho^T_B) below -NPT_MARGIN get a PPT witness;
# the margin keeps states at the PPT boundary off that path.
NPT_MARGIN = 1e-6
# Trace distance bound for a 2e4-round reconstruction; the typical error is
# about 0.04.
TOMOGRAPHY_BOUND = 0.2

# ---------------------------------------------------------------------------
# Plain-numpy references
# ---------------------------------------------------------------------------

_I = np.eye(2, dtype=np.complex128)
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
_PSI_PLUS = np.array([1, 0, 0, 1], dtype=np.complex128) / np.sqrt(2.0)
_GHZ = np.zeros(8, dtype=np.complex128)
_GHZ[[0, 7]] = 1.0 / np.sqrt(2.0)

WITNESS_OPERATORS = {
    "werner": (np.kron(_I, _I) - np.kron(_X, _X) + np.kron(_Y, _Y)
               - np.kron(_Z, _Z)) / np.sqrt(3.0),
    "chsh-strengthened": (np.kron(_I, _I) - np.kron(_X, _X)
                          - np.kron(_Z, _Z)) / np.sqrt(2.0),
    "ghz": np.eye(8) / 2.0 - np.outer(_GHZ, _GHZ.conj()),
}


def werner_matrix(z: float) -> np.ndarray:
    return (1.0 - z) / 4.0 * np.eye(4) + z * np.outer(_PSI_PLUS, _PSI_PLUS.conj())


STATE_MATRICES = {
    "werner(1.0)": werner_matrix(1.0),
    "werner(0.5)": werner_matrix(0.5),
    "werner(0.9)": werner_matrix(0.9),
    "ghz": np.outer(_GHZ, _GHZ.conj()),
}


def exact_payoff(rho: np.ndarray, w: np.ndarray) -> float:
    """-Tr(rho W)."""
    return float(-np.trace(rho @ w).real)


def min_pt_eigenvalue(rho: np.ndarray) -> float:
    """Smallest eigenvalue of the partial transpose over the second qubit."""
    pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    return float(np.linalg.eigvalsh(pt)[0])


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum())


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Hilbert-Schmidt random density matrix G G^dag / Tr."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / m.trace().real


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2 ** 32))


def _scaled(n: int, scale: float, floor: int = 1) -> int:
    return max(floor, round(n * scale))


def _interleave(*groups):
    """Merge lists so that each spreads evenly over the result; then any
    stretch of a cycle holds every kind in about its full-cycle proportion."""
    keyed = sorted(((k + 0.5) / len(g), j, k)
                   for j, g in enumerate(groups) for k in range(len(g)))
    return [groups[j][k] for _, j, k in keyed]


def _within_se(mean: float, se: float, target: float) -> bool:
    return abs(mean - target) <= SE_LIMIT * se


# ---------------------------------------------------------------------------
# mc_stream: `ewgame simulate` at 2e6 rounds, no records kept
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimulateItem:
    state: str
    witness: str
    pi: str
    strategy: str
    n_qubits: int
    rounds: int
    seed: int
    reference: float


class McStream:
    """Large-round payoff estimates without records: round sampling is
    about 97% of the time, so this exercises the streaming sampler."""

    unit = "rounds"
    rounds = 2_000_000
    cases = (
        ("werner(1.0)", "werner", "uniform", "honest", 2),
        ("werner(1.0)", "werner", "uniform", "cheat", 2),
        ("werner(0.5)", "chsh-strengthened", "support-only", "honest", 2),
        ("ghz", "ghz", "uniform", "honest", 3),
    )

    def __init__(self, seed: int, scale: float = 1.0):
        rng = np.random.default_rng(seed)
        rounds = _scaled(self.rounds, scale, floor=10_000)
        self.items = [
            SimulateItem(state, wit, pi, strategy, n, rounds, _seed(rng),
                         exact_payoff(STATE_MATRICES[state], WITNESS_OPERATORS[wit]))
            for state, wit, pi, strategy, n in self.cases
        ]

    def work(self, item: SimulateItem) -> int:
        return item.rounds

    def run(self, item: SimulateItem, tr):
        with tr.span("serialize.parse_state_spec"):
            rho = serialize.parse_state_spec(item.state)
        with tr.span("serialize.parse_witness_spec"):
            wit = serialize.parse_witness_spec(item.witness)
        with tr.span("serialize.parse_pi_spec"):
            config = serialize.parse_pi_spec(item.pi, wit.weights, item.rounds, item.seed)
        if item.strategy == "cheat":
            with tr.span("game.classical_cheat_strategy"):
                strategy = game.classical_cheat_strategy()
        else:
            with tr.span(f"game.honest_strategy.{item.n_qubits}q"):
                strategy = game.honest_strategy(rho)
        with tr.span("game.run_game.stream", rounds=item.rounds):
            transcript = game.run_game(config, strategy, wit.weights, keep_records=False)
        with tr.span("game.empirical_payoff"):
            mean, se = game.empirical_payoff(transcript)
        return int(transcript.counts.sum()), mean, se

    def check(self, item: SimulateItem, out) -> bool:
        total, mean, se = out
        return total == item.rounds and _within_se(mean, se, item.reference)


# ---------------------------------------------------------------------------
# detect_sweep: witness, payoff, game and tomography for one state
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StateItem:
    matrix: np.ndarray
    n_qubits: int
    npt: bool
    reference: float
    seed: int


class DetectSweep:
    """The detection and tomography pipeline once per random state: the
    outcome-table build and the eigensolver take most of the time, and the
    sampler runs with records kept."""

    unit = "states"
    n_two = 200
    n_three = 20
    rounds = 20_000

    def __init__(self, seed: int, scale: float = 1.0):
        rng = np.random.default_rng(seed)
        twos = [self._item(random_state(rng, 4), 2, rng)
                for _ in range(_scaled(self.n_two, scale))]
        threes = [self._item(random_state(rng, 8), 3, rng)
                  for _ in range(_scaled(self.n_three, scale))]
        self.items = _interleave(twos, threes)
        self.witnesses = {2: serialize.parse_witness_spec("werner"),
                          3: serialize.parse_witness_spec("ghz")}

    @staticmethod
    def _item(m: np.ndarray, n: int, rng: np.random.Generator) -> StateItem:
        if n == 2:
            lam = min_pt_eigenvalue(m)
            if lam < -NPT_MARGIN:
                return StateItem(m, 2, True, -lam, _seed(rng))
            return StateItem(m, 2, False, exact_payoff(m, WITNESS_OPERATORS["werner"]),
                             _seed(rng))
        return StateItem(m, 3, False, exact_payoff(m, WITNESS_OPERATORS["ghz"]), _seed(rng))

    def work(self, item: StateItem) -> int:
        return 1

    def run(self, item: StateItem, tr):
        n = item.n_qubits
        with tr.span("qcore.DensityMatrix"):
            rho = qcore.DensityMatrix(item.matrix)
        if item.npt:
            with tr.span("witness.ppt_witness"):
                wit = witness.ppt_witness(rho)
        else:
            wit = self.witnesses[n]
        with tr.span("witness.expected_payoff"):
            payoff = witness.expected_payoff(rho, wit)
        with tr.span(f"game.honest_strategy.{n}q"):
            strategy = game.honest_strategy(rho)
        config = game.GameConfig.uniform(self.rounds, item.seed, n_parties=n)
        with tr.span("game.exact_average_payoff"):
            exact = game.exact_average_payoff(config.pi, strategy.outcome_table, wit.weights)
        with tr.span("game.run_game.records", rounds=self.rounds):
            transcript = game.run_game(config, strategy, wit.weights, keep_records=True)
        with tr.span("game.empirical_payoff"):
            mean, se = game.empirical_payoff(transcript)
        if n != 2:
            return payoff, exact, mean, se, None, None
        with tr.span("tomography.accumulate"):
            moments = tomography.accumulate(transcript)
        with tr.span("tomography.reconstruct"):
            estimate = tomography.reconstruct(moments)
        with tr.span("tomography.reconstruction_error"):
            error = tomography.reconstruction_error(rho, estimate)
        return payoff, exact, mean, se, error, estimate.projected.matrix

    def check(self, item: StateItem, out) -> bool:
        payoff, exact, mean, se, error, projected = out
        ok = (abs(payoff - item.reference) <= EXACT_TOL
              and abs(exact - item.reference) <= EXACT_TOL
              and _within_se(mean, se, exact))
        if item.n_qubits == 2:
            ok = (ok and error < TOMOGRAPHY_BOUND
                  and abs(error - trace_distance(item.matrix, projected)) <= EXACT_TOL)
        return ok


# ---------------------------------------------------------------------------
# sep_check: `ewgame witness check` traffic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckItem:
    n_qubits: int
    samples: int
    seed: int


class SepCheck:
    """check_witness against sampled separable states: separable sampling
    and the validations inside it are about 99.8% of the time, and the game
    sampler never runs."""

    unit = "samples"
    # 2000 2-qubit and 400 3-qubit samples per cycle, in alternating calls.
    calls_per_kind = 8
    samples = {2: 250, 3: 50}

    def __init__(self, seed: int, scale: float = 1.0):
        rng = np.random.default_rng(seed)
        self.items = _interleave(*(
            [CheckItem(n, _scaled(self.samples[n], scale), _seed(rng))
             for _ in range(self.calls_per_kind)] for n in (2, 3)))
        werner = serialize.parse_state_spec("werner(0.9)")
        self.cases = {
            2: (witness.ppt_witness(werner), werner),
            3: (serialize.parse_witness_spec("ghz"), serialize.parse_state_spec("ghz")),
        }
        self.references = {
            2: -min_pt_eigenvalue(STATE_MATRICES["werner(0.9)"]),
            3: exact_payoff(STATE_MATRICES["ghz"], WITNESS_OPERATORS["ghz"]),
        }

    def work(self, item: CheckItem) -> int:
        return item.samples

    def run(self, item: CheckItem, tr):
        wit, rho = self.cases[item.n_qubits]
        rng = np.random.default_rng(item.seed)
        with tr.span(f"witness.check_witness.{item.n_qubits}q", samples=item.samples):
            return witness.check_witness(wit, rho, item.samples, rng)

    def check(self, item: CheckItem, report) -> bool:
        return (report.verdict is True
                and report.min_separable_value >= SEPARABLE_FLOOR
                and report.n_samples == item.samples
                and abs(report.payoff_on_target - self.references[item.n_qubits]) <= EXACT_TOL)


WORKLOADS = {"mc_stream": McStream, "detect_sweep": DetectSweep, "sep_check": SepCheck}
