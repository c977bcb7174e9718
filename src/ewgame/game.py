"""The referee/player protocol: sample label pairs from a distribution Pi,
collect +/-1 answers from a strategy, pay -w[s,t]*a*b/Pi(s,t), and estimate
the average payoff.

Honest players answer by measuring their shared state; the built-in cheating
strategy answers from shared classical randomness instead and reproduces the
maximally entangled state's diagonal correlations.  Either way a strategy
enters the game only through its joint answer distribution per label cell,
its outcome table.  Runs are reproducible: a (config, strategy, weights,
seed) tuple always yields the same transcript.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

import numpy as np

from . import qcore
from .witness import PauliWeights

PI_SUM_TOL = 1e-12
OUTCOME_TOL = 1e-10
MAX_ROUNDS = 2 ** 63 - 1  # numpy's multinomial takes its count as a C long
CSV_BLOCK_ROWS = 4096

# Joint outcomes are indexed 0..2^n-1; party j's answer is the j-th bit from
# the left, with bit 0 meaning +1 and bit 1 meaning -1.


@lru_cache(maxsize=4)
def _answer_table(n_parties: int) -> np.ndarray:
    """Every party's +/-1 answer for each joint outcome index, shape
    (2^n, n), int8.  The array is shared and read-only."""
    bits = (np.arange(2 ** n_parties)[:, None] >> np.arange(n_parties - 1, -1, -1)) & 1
    answers = (1 - 2 * bits).astype(np.int8)
    answers.setflags(write=False)
    return answers


@lru_cache(maxsize=4)
def _label_table(n_parties: int) -> np.ndarray:
    """Every party's label for each raveled label cell, shape (4^n, n),
    int8.  The array is shared and read-only."""
    cells = np.unravel_index(np.arange(4 ** n_parties), (4,) * n_parties)
    labels = np.stack(cells, axis=1).astype(np.int8)
    labels.setflags(write=False)
    return labels


@lru_cache(maxsize=4)
def outcome_parity(n_parties: int) -> np.ndarray:
    """Product of all answers for each joint outcome index: -1 when an odd
    number of answer bits are set.  The array is shared and read-only."""
    parity = _answer_table(n_parties).prod(axis=1, dtype=np.int64)
    parity.setflags(write=False)
    return parity


def _check_finite(values: np.ndarray, message: str) -> None:
    """Raise ValueError(message) if any entry is NaN or infinite: the
    wording step of a check whose reduction has already failed."""
    if not np.isfinite(values).all():
        raise ValueError(message)


def count_table(counts) -> np.ndarray:
    """Round counts as a read-only int64 copy.  Every entry must be a
    nonnegative integer; integral floats such as 10.0 are accepted."""
    raw = np.asarray(counts)
    kind = raw.dtype.kind
    if kind == "f":
        whole = ((raw >= 0) & (raw < 2.0 ** 63) & (np.floor(raw) == raw)).all()
    elif raw.size == 0:
        whole = kind in "iu"  # no entry to reject; min and max would raise
    elif kind == "i":
        whole = raw.min() >= 0  # no signed integer exceeds MAX_ROUNDS
    elif kind == "u":
        whole = raw.max() <= MAX_ROUNDS
    else:
        whole = False
    if not whole:
        raise ValueError("counts must be nonnegative integers")
    table = raw.astype(np.int64)
    table.setflags(write=False)
    return table


def pi_table(pi) -> np.ndarray:
    """Label probabilities as a read-only float64 copy of shape (4, 4) or
    (4, 4, 4): finite, nonnegative entries that sum to 1."""
    p = np.array(pi, dtype=np.float64)
    n = p.ndim
    if p.shape != (4,) * n or n not in (2, 3):
        raise ValueError(f"pi must have shape (4, 4) or (4, 4, 4), got {p.shape}")
    # NaN and -inf fail the minimum, +inf the sum; only then is the
    # cause looked up, so that non-finite entries are named first
    if not p.min() >= 0.0:
        _check_finite(p, "pi entries must be finite")
        raise ValueError("pi entries must be nonnegative")
    total = p.sum()
    if not abs(total - 1.0) <= PI_SUM_TOL:
        _check_finite(p, "pi entries must be finite")
        raise ValueError(f"pi must sum to 1, got {total:.15g}")
    p.setflags(write=False)
    return p


def validate_seed(seed) -> int:
    """seed as an int: a nonnegative integer, not a bool, as
    ``default_rng`` takes it."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    return int(seed)


@dataclass(frozen=True, eq=False)
class GameConfig:
    """Label distribution, round count and RNG seed for one game run."""

    pi: np.ndarray
    rounds: int
    seed: int

    def __post_init__(self):
        p = pi_table(self.pi)
        if isinstance(self.rounds, bool) or not isinstance(self.rounds, (int, np.integer)):
            raise ValueError(f"rounds must be an integer, got {self.rounds!r}")
        if self.rounds < 1:
            raise ValueError("rounds must be positive")
        if self.rounds > MAX_ROUNDS:
            raise ValueError(f"rounds must be at most 2**63 - 1, got {self.rounds}")
        validate_seed(self.seed)
        object.__setattr__(self, "pi", p)

    @classmethod
    def uniform(cls, rounds: int, seed: int, n_parties: int = 2) -> "GameConfig":
        cells = 4 ** n_parties
        return cls(np.full((4,) * n_parties, 1.0 / cells), rounds, seed)

    @classmethod
    def support_only(cls, weights: PauliWeights, rounds: int, seed: int) -> "GameConfig":
        """Uniform distribution restricted to cells with nonzero weight;
        lowers the payoff estimator's variance without biasing it."""
        mask = weights.table != 0.0
        return cls(mask / mask.sum(), rounds, seed)


def _check_support(pi: np.ndarray, weights: PauliWeights) -> None:
    """weights are a PauliWeights with pi's party count, and pi draws every
    cell they weigh: a cell pi never draws cannot pay its weight."""
    if not isinstance(weights, PauliWeights):
        raise ValueError(f"weights must be a PauliWeights, got {type(weights).__name__}")
    if weights.n_qubits != pi.ndim:
        raise ValueError("weights and config have different party counts")
    bad = (weights.table != 0.0) & (pi == 0.0)
    if bad.any():
        cells = [tuple(ix) for ix in np.argwhere(bad).tolist()]
        raise ValueError(f"pi is zero on cells with nonzero weight: {cells}")


def _check_rows(pi: np.ndarray, table: np.ndarray) -> None:
    """The outcome table has a row for each of pi's cells."""
    if table.shape[:-1] != pi.shape:
        raise ValueError("strategy outcome table does not match pi's shape")


@dataclass(frozen=True, eq=False)
class Strategy:
    """How the players answer: outcome_table[labels + (k,)] is the
    probability of joint outcome k for each label cell, shape
    (4,)*n + (2^n,).  The players see only their labels and randomness, so
    this distribution describes any strategy completely."""

    name: str
    outcome_table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "outcome_table", _outcome_probabilities(self.outcome_table))


def _outcome_probabilities(table) -> np.ndarray:
    """An outcome table as a read-only float64 copy of shape
    (4,)*n + (2^n,) whose rows are probability distributions."""
    t = np.array(table, dtype=np.float64)
    n = t.ndim - 1
    if n < 1 or t.shape != (4,) * n + (2 ** n,):
        raise ValueError(f"outcome table must have shape (4,)*n + (2^n,), got {t.shape}")
    # NaN and -inf fail the minimum, +inf the row sums
    low = t.min()
    if not low >= -OUTCOME_TOL:
        _check_finite(t, "outcome probabilities must be finite")
        raise ValueError(f"negative outcome probability {low:.3e}")
    if not abs(t.sum(axis=-1) - 1.0).max() <= OUTCOME_TOL:
        _check_finite(t, "outcome probabilities must be finite")
        raise ValueError("outcome probabilities must sum to 1 in every label cell")
    t.setflags(write=False)
    return t


@dataclass(frozen=True, eq=False)
class Transcript:
    """One game run, stored as what it decided: count matrix, pi, weights
    and seed.  count_matrix[cell, outcome] counts the rounds that landed on
    each raveled label cell and joint outcome (int64); payments[cell,
    outcome], each such round's payment, is built from pi and the weights
    once (``payoff_table``).  joint, set by ``run_game`` alone, holds each
    round's cell * 2^n + outcome in the order played, or None when the run
    streamed.  All are read-only; every other quantity is derived from them.
    """

    count_matrix: np.ndarray
    pi: np.ndarray
    weights: PauliWeights
    seed: int
    payments: np.ndarray = field(init=False, repr=False)
    joint: np.ndarray | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        counts = count_table(self.count_matrix)
        pi = pi_table(self.pi)
        _check_support(pi, self.weights)
        # a row per label cell of pi, a column per joint outcome
        shape = (pi.size, 2 ** pi.ndim)
        if counts.shape != shape:
            raise ValueError(f"count matrix must have shape {shape} for a {pi.ndim}-party pi, "
                             f"got {counts.shape}")
        if counts[pi.ravel() == 0.0].any():
            raise ValueError("count matrix has rounds in cells pi never draws")
        pays = payoff_table(pi, self.weights)
        pays.setflags(write=False)
        object.__setattr__(self, "count_matrix", counts)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "seed", validate_seed(self.seed))
        object.__setattr__(self, "payments", pays)

    @property
    def n_parties(self) -> int:
        return self.pi.ndim

    @property
    def rounds(self) -> int:
        return int(self.count_matrix.sum())

    @property
    def counts(self) -> np.ndarray:
        """Rounds per raveled label cell."""
        return self.count_matrix.sum(axis=1)

    @property
    def parity_sums(self) -> np.ndarray:
        """Sum of the answer products per raveled label cell."""
        return self.count_matrix @ outcome_parity(self.n_parties)

    @property
    def payoff_sums(self) -> np.ndarray:
        """Sum of the payments per raveled label cell."""
        return (self.count_matrix * self.payments).sum(axis=1)

    def to_csv(self, path) -> None:
        """Write one row per round; columns s,t,a,b,payoff (plus c for three
        parties, with labels i,j,k)."""
        if self.joint is None:
            raise ValueError("transcript was streamed; per-round records were discarded")
        n = self.n_parties
        label_cols = ["s", "t"] if n == 2 else ["i", "j", "k"]
        answer_cols = ["a", "b", "c"][:n]
        # a row depends only on its joint index: format each one once
        fmt = ",".join(["%d"] * (2 * n) + ["%.17g"]) + "\n"
        labels, answers = _label_table(n).tolist(), _answer_table(n).tolist()
        rows = np.array([fmt % (*labels[k >> n], *answers[k & (len(answers) - 1)], pay)
                         for k, pay in enumerate(self.payments.ravel().tolist())],
                        dtype=object)
        with open(path, "w", newline="") as fh:
            fh.write(",".join(label_cols + answer_cols + ["payoff"]) + "\n")
            for start in range(0, self.joint.size, CSV_BLOCK_ROWS):
                fh.write("".join(rows[self.joint[start:start + CSV_BLOCK_ROWS]].tolist()))


def empirical_payoff(tr: Transcript) -> tuple[float, float]:
    """Sample mean payoff and its standard error.

    The variance is a second pass over the count matrix,
    sum N * (payment - mean)^2 / (n - 1), so a game that always pays the
    same amount reports a standard error of exactly 0.
    """
    n = tr.rounds
    if n < 2:
        raise ValueError("need at least two rounds for a standard error")
    mean = tr.payoff_sums.sum() / n
    dev = tr.payments - mean
    var = (tr.count_matrix * (dev * dev)).sum() / (n - 1)
    return float(mean), math.sqrt(var / n)


# ---------------------------------------------------------------------------
# Measurement statistics and built-in strategies
# ---------------------------------------------------------------------------

def _projector_coefficients() -> np.ndarray:
    # m[l, a, k]: Pauli coefficients of the projector onto answer a (0: +1,
    # 1: -1) for label l, i.e. (I + a sigma_l)/2 = sum_k m[l, a, k] sigma_k.
    # Label 0 measures the identity: the answer is +1 with certainty.
    m = np.zeros((4, 2, 4))
    m[0, 0, 0] = 1.0
    for label in range(1, 4):
        m[label, :, 0] = 0.5
        m[label, 0, label] = 0.5
        m[label, 1, label] = -0.5
    m.setflags(write=False)
    return m


_PROJECTOR_COEFFS = _projector_coefficients()


@lru_cache(maxsize=4)
def _outcome_map(n_parties: int) -> np.ndarray:
    """The Born rule in Pauli coordinates as one (8^n, 4^n) matrix: row
    (labels, outcome) holds the Pauli coefficients of the n-party product of
    answer projectors, one projector-coefficient factor per party.  The
    array is shared and read-only."""
    n = n_parties
    operands = []
    for j in range(n):
        operands += [_PROJECTOR_COEFFS, [j, n + j, 2 * n + j]]
    born = np.einsum(*operands, list(range(3 * n))).reshape(8 ** n, 4 ** n)
    born.setflags(write=False)
    return born


def outcome_table(rho: qcore.DensityMatrix) -> np.ndarray:
    """Joint answer distribution for every label cell, shape (4,)*n + (2^n,).

    The Born rule Tr(rho P_1 (x) ... (x) P_n) in Pauli coordinates: the
    projector-coefficient map applied to the correlation table
    r[k] = Tr(rho sigma_k).  The table is a fresh, writable array.
    """
    n = rho.n_qubits
    table = _outcome_map(n) @ qcore.pauli_traces(rho).ravel()
    return table.reshape((4,) * n + (2 ** n,))


def _table_rows(table: np.ndarray) -> np.ndarray:
    """Outcome table as one probability row per raveled label cell, clipped
    at 0 and renormalised."""
    flat = np.maximum(table.reshape(-1, table.shape[-1]), 0.0)
    return flat / flat.sum(axis=1, keepdims=True)


def honest_strategy(rho: qcore.DensityMatrix) -> Strategy:
    """Players measure the Pauli operators named by their labels on a shared
    copy of rho and report the outcomes.

    DensityMatrix tolerates eigenvalues down to -PSD_TOL, and one outcome
    probability sums up to 2^n of them, so entries in [-2^n PSD_TOL, 0) are
    Born-rule round-off: they are set to 0 and their rows renormalised.
    Anything more negative is left for Strategy to reject.
    """
    table = outcome_table(rho)
    if table.min() < 0.0:
        noise = (table < 0.0) & (table >= -(2 ** rho.n_qubits) * qcore.PSD_TOL)
        table[noise] = 0.0
        rows = noise.any(axis=-1)
        table[rows] /= table[rows].sum(axis=-1, keepdims=True)
    return Strategy(name="honest", outcome_table=table)


def cheat_outcome_table() -> np.ndarray:
    """Exact joint answer distribution of the classical cheat, enumerated
    over its eight equally likely shared bit patterns."""
    table = np.zeros((4, 4, 4), dtype=np.float64)
    for b1, b2, b3 in product((1, -1), repeat=3):
        alice = (1, b1, b2, b3)
        bob = (1, b1, -b2, b3)
        for s in range(4):
            for t in range(4):
                # outcome index: Alice's answer is the high bit, 1 meaning -1
                table[s, t, 2 * (alice[s] < 0) + (bob[t] < 0)] += 1.0 / 8.0
    return table


@lru_cache(maxsize=1)
def classical_cheat_strategy() -> Strategy:
    """Answer from three fresh shared random bits per round: both parties use
    bit 1 for label 1 and bit 3 for label 3, while on label 2 Bob flips
    bit 2.  This reproduces the (+1, -1, +1) diagonal correlations of the
    maximally entangled state without any shared entanglement.  Built once
    and shared: the strategy is frozen and its table read-only."""
    return Strategy(name="cheat", outcome_table=cheat_outcome_table())


# ---------------------------------------------------------------------------
# Running games
# ---------------------------------------------------------------------------

def payoff_table(pi: np.ndarray, weights: PauliWeights) -> np.ndarray:
    """Per-cell, per-outcome payment -w[cell] * parity(outcome) / pi[cell],
    zero on cells that pi never draws."""
    parity = outcome_parity(pi.ndim)
    flat_pi = pi.ravel()[:, None]
    # one masked division; the cells it skips keep the +0.0 of out
    return np.divide(-weights.table.ravel()[:, None] * parity, flat_pi,
                     out=np.zeros((flat_pi.size, parity.size)), where=flat_pi > 0.0)


def run_game(config: GameConfig, strategy: Strategy, weights: PauliWeights,
             keep_records: bool = False) -> Transcript:
    """Play all rounds and return the transcript.

    Every moment follows from the count matrix N[cell, outcome], the number
    of rounds that landed on each raveled label cell and joint outcome.  N
    is drawn from ``default_rng(seed)`` as a multinomial of all rounds over
    the cells, then one multinomial per cell over its row of the strategy's
    outcome table, so time and memory do not grow with the rounds.

    With records, the rounds are N's (cell, outcome) pairs in a uniformly
    random order: one shuffle, drawn after N.  Given its counts, an i.i.d.
    sequence of rounds is equally likely to be any arrangement of them, so
    the records have the law of rounds drawn one at a time.  keep_records
    (True or False) never changes the moments.
    """
    if not isinstance(keep_records, bool):
        raise ValueError(f"keep_records must be True or False, got {keep_records!r}")
    _check_rows(config.pi, strategy.outcome_table)

    rng = np.random.default_rng(config.seed)
    pi = config.pi.ravel()
    count_matrix = rng.multinomial(rng.multinomial(config.rounds, pi / pi.sum()),
                                   _table_rows(strategy.outcome_table))
    # checks the weights before any work that grows with the rounds
    tr = Transcript(count_matrix, config.pi, weights, config.seed)
    if keep_records:
        # joint = cell * 2^n + outcome, one entry per round
        joint = np.repeat(np.arange(count_matrix.size), count_matrix.ravel())
        rng.shuffle(joint)
        joint.setflags(write=False)
        object.__setattr__(tr, "joint", joint)
    return tr


def exact_average_payoff(pi: np.ndarray, outcome_table: np.ndarray,
                         weights: PauliWeights) -> float:
    """Sum over cells and outcomes of Pi * V * payment.

    This is the exact expectation of the per-round payment for any strategy
    described by its outcome table; for honest play it reproduces
    -Tr(rho W) through the importance weighting by 1/Pi.
    pi, and the outcome table's rows, must be probability distributions
    (``pi_table``, ``Strategy``) over the same label cells, and pi must draw
    every cell the weights weigh, as ``run_game`` requires.
    """
    pi = pi_table(pi)
    table = _outcome_probabilities(outcome_table)
    _check_support(pi, weights)
    _check_rows(pi, table)
    flat_v = table.reshape(pi.size, -1)
    return float(np.einsum("c,ck,ck->", pi.ravel(), flat_v, payoff_table(pi, weights)))


# ---------------------------------------------------------------------------
# CHSH expectation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChshReport:
    """CHSH combination value with the classical (2) and strengthened
    (sqrt(2), valid for the x/z setting) bound checks."""

    value: float
    violates_classical: bool
    violates_strengthened: bool


def chsh_value(rho: qcore.DensityMatrix, a, a2, b, b2) -> ChshReport:
    """Expectation of A(x)B + A'(x)B + A(x)B' - A'(x)B' on rho."""
    obs = [qcore.validate_spin_observable(o, n) for o, n in
           ((a, "A"), (a2, "A'"), (b, "B"), (b2, "B'"))]
    a, a2, b, b2 = obs
    bell = np.kron(a, b) + np.kron(a2, b) + np.kron(a, b2) - np.kron(a2, b2)
    s = float(qcore.expectations(rho.matrix, bell))
    return ChshReport(
        value=s,
        violates_classical=bool(abs(s) > 2.0),
        violates_strengthened=bool(abs(s) > np.sqrt(2.0)),
    )
