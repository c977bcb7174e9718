"""The referee/player protocol: sample label pairs from a distribution Pi,
collect +/-1 answers from a strategy, pay -w[s,t]*a*b/Pi(s,t), and estimate
the average payoff.  A party asked label 0 measures the identity, so its
answer is never paid on.

Honest players answer by measuring their shared state; the built-in cheating
strategy answers from shared classical randomness instead and reproduces the
maximally entangled state's diagonal correlations.  Either way a strategy
enters the game only through its joint answer distribution per label cell,
its outcome table.  Runs are reproducible: a (config, strategy, weights)
triple always yields the same transcript, since the config holds the seed.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import chain, product

import numpy as np

from . import qcore
from .witness import PauliWeights, fixed_chsh_witness

PI_SUM_TOL = 1e-12
MAX_ROUNDS = 2 ** 63 - 1  # numpy's multinomial takes its count as a C long
DETECTION_ALPHA = 1e-3  # the largest chance that a game whose payoff is <= 0 certifies
CSV_BLOCK_ROWS = 4096

# Joint outcomes are indexed 0..2^n-1; party j's answer is the j-th bit from
# the left, with bit 0 meaning +1 and bit 1 meaning -1.  Every per-cell table
# factorises over the parties, so each n-party table is the n-fold Kronecker
# product of a one-party table: on N-d arrays np.kron runs every result axis
# over the parties with party 1 most significant, the order of the raveled
# label cells and of the joint outcomes.


@lru_cache(maxsize=4)
def parity_table(n_parties: int) -> np.ndarray:
    """The answer product the referee pays on, shape (4^n, 2^n), int64:
    for each raveled label cell and joint outcome, the product of the
    answers of the parties whose label is nonzero.  Label 0 measures the
    identity, so its answer is never read.  The array is shared and
    read-only."""
    # one party: row l, column a holds the paid factor of answer a to label l
    paid = np.array([[1, 1], [1, -1], [1, -1], [1, -1]], dtype=np.int64)
    parity = reduce(np.kron, [paid] * n_parties)
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


@dataclass(frozen=True, eq=False)
class GameConfig:
    """Label distribution, round count and RNG seed for one game run, checked
    in that order.  The round count and seed are stored as Python ints; the
    seed is any nonnegative integer, as ``default_rng`` takes it."""

    pi: np.ndarray
    rounds: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "pi", pi_table(self.pi))
        object.__setattr__(self, "rounds", qcore.check_int(self.rounds, "rounds", 1, MAX_ROUNDS))
        object.__setattr__(self, "seed", qcore.check_int(self.seed, "seed", 0))

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
    this distribution describes any strategy completely.  The stored rows
    are the rows ``run_game`` samples: cleaned of Born-rule round-off and
    renormalised once (``_outcome_probabilities``)."""

    name: str
    outcome_table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "outcome_table", _outcome_probabilities(self.outcome_table))


def _outcome_probabilities(table) -> np.ndarray:
    """An outcome table as a read-only float64 copy of shape
    (4,)*n + (2^n,) whose rows are probability distributions.

    The only place an answer table is cleaned.  DensityMatrix tolerates
    eigenvalues down to -PSD_TOL and one outcome probability sums up to 2^n
    of them, so entries in [-2^n PSD_TOL, 0) are Born-rule round-off and
    are set to 0; anything more negative is rejected.  The raw rows must sum
    to 1 within TRACE_TOL, as an honest row sums to Tr rho.  Every row is
    then divided by its sum, once.
    """
    t = np.array(table, dtype=np.float64)
    n = t.ndim - 1
    if n < 1 or t.shape != (4,) * n + (2 ** n,):
        raise ValueError(f"outcome table must have shape (4,)*n + (2^n,), got {t.shape}")
    # NaN and -inf fail the minimum, +inf the row sums
    low = t.min()
    if not low >= -(2 ** n) * qcore.PSD_TOL:
        _check_finite(t, "outcome probabilities must be finite")
        raise ValueError(f"negative outcome probability {low:.3e}")
    sums = t.sum(axis=-1, keepdims=True)
    if not abs(sums - 1.0).max() <= qcore.TRACE_TOL:
        _check_finite(t, "outcome probabilities must be finite")
        raise ValueError("outcome probabilities must sum to 1 in every label cell")
    if low < 0.0:
        np.maximum(t, 0.0, out=t)
        sums = t.sum(axis=-1, keepdims=True)
    t /= sums
    t.setflags(write=False)
    return t


@dataclass(frozen=True, eq=False)
class Transcript:
    """One game run, stored as what it decided: the count matrix, the
    GameConfig it was played under (pi, rounds, seed) and the weights.
    count_matrix[cell, outcome] counts the rounds that landed on each raveled
    label cell and joint outcome (int64); payments[cell, outcome], each such
    round's payment, is built from pi and the weights once
    (``payoff_table``).  joint, set by ``run_game`` alone, holds each round's
    cell * 2^n + outcome in the order played, or None when the run streamed.
    All are read-only; every other quantity is derived from them.
    """

    count_matrix: np.ndarray
    config: GameConfig
    weights: PauliWeights
    payments: np.ndarray = field(init=False, repr=False)
    joint: np.ndarray | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        config = self.config
        if not isinstance(config, GameConfig):
            raise ValueError(f"config must be a GameConfig, got {type(config).__name__}")
        counts = count_table(self.count_matrix)
        pi = config.pi
        _check_support(pi, self.weights)
        # a row per label cell of pi, a column per joint outcome
        shape = (pi.size, 2 ** pi.ndim)
        if counts.shape != shape:
            raise ValueError(f"count matrix must have shape {shape} for a {pi.ndim}-party pi, "
                             f"got {counts.shape}")
        if counts[pi.ravel() == 0.0].any():
            raise ValueError("count matrix has rounds in cells pi never draws")
        total = sum(counts.ravel().tolist())
        if total != config.rounds:
            raise ValueError(f"count matrix holds {total} rounds "
                             f"but the config plays {config.rounds}")
        pays = payoff_table(pi, self.weights)
        pays.setflags(write=False)
        object.__setattr__(self, "count_matrix", counts)
        object.__setattr__(self, "payments", pays)

    @property
    def n_parties(self) -> int:
        return self.config.pi.ndim

    @property
    def rounds(self) -> int:
        return self.config.rounds

    @property
    def counts(self) -> np.ndarray:
        """Rounds per raveled label cell."""
        return self.count_matrix.sum(axis=1)

    @property
    def parity_sums(self) -> np.ndarray:
        """Sum of the paid answer products (``parity_table``) per raveled
        label cell."""
        return (self.count_matrix * parity_table(self.n_parties)).sum(axis=1)

    @property
    def payoff_sums(self) -> np.ndarray:
        """Sum of the payments per raveled label cell."""
        return (self.count_matrix * self.payments).sum(axis=1)

    def csv_lines(self) -> Iterator[str]:
        """The per-round CSV text: the header, then blocks of at most
        CSV_BLOCK_ROWS rows; columns s,t,a,b,payoff (plus c for three
        parties, with labels i,j,k).  A streamed transcript raises here,
        before any text is made."""
        if self.joint is None:
            raise ValueError("transcript was streamed; per-round records were discarded")
        n = self.n_parties
        label_cols = ["s", "t"] if n == 2 else ["i", "j", "k"]
        answer_cols = ["a", "b", "c"][:n]
        # a row depends only on its joint index: format each one once
        fmt = ",".join(["%d"] * (2 * n) + ["%.17g"]) + "\n"
        # row k of cols: the labels and answer bits of joint index k
        cols = np.indices((4,) * n + (2,) * n).reshape(2 * n, -1)
        cols[n:] = 1 - 2 * cols[n:]
        rows = np.array([fmt % (*row, pay)
                         for row, pay in zip(cols.T.tolist(), self.payments.ravel().tolist())],
                        dtype=object)
        joint = self.joint
        blocks = ("".join(rows[joint[start:start + CSV_BLOCK_ROWS]].tolist())
                  for start in range(0, joint.size, CSV_BLOCK_ROWS))
        return chain([",".join(label_cols + answer_cols + ["payoff"]) + "\n"], blocks)


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


def detection_threshold(tr: Transcript) -> float:
    """The margin t that a run's mean payoff must exceed to certify that
    the expected payoff is positive, at level DETECTION_ALPHA.

    A round pays +/-w_c/pi_c in the cell c it draws, so for every strategy
    a payment's size is at most M = max_c |w_c|/pi_c and its second moment
    is V = sum_c w_c^2/pi_c.  With L = ln(1/alpha), Bernstein's inequality
    (Boucheron, Lugosi and Massart, Concentration Inequalities, sec. 2.8)
    makes P(mean > t) <= alpha whenever the expected payoff is <= 0, for
    t = sqrt(2 V L / n) + 4 M L / (3 n) after n rounds.  No variance is
    estimated, so the bound holds at any round count.
    """
    pi = tr.config.pi.ravel()
    live = pi > 0.0
    w = abs(tr.weights.table.ravel()[live])
    ratio = w / pi[live]
    log_alpha = math.log(1.0 / DETECTION_ALPHA)
    n = tr.rounds
    return (math.sqrt(2.0 * float(ratio @ w) * log_alpha / n)
            + 4.0 * float(ratio.max()) * log_alpha / (3.0 * n))


# ---------------------------------------------------------------------------
# Measurement statistics and built-in strategies
# ---------------------------------------------------------------------------

# m[l, a, k]: Pauli coefficients of the projector (I + (-1)^a sigma_l)/2 onto
# answer a (0: +1, 1: -1) for label l, i.e. sum_k m[l, a, k] sigma_k.  As
# sigma_0 = I, label 0's -1 projector is zero: its answer is +1 with certainty.
_PROJECTOR_COEFFS = 0.5 * (np.eye(4)[0] + np.array([[1.0], [-1.0]]) * np.eye(4)[:, None])
_PROJECTOR_COEFFS.setflags(write=False)


@lru_cache(maxsize=4)
def _outcome_map(n_parties: int) -> np.ndarray:
    """The Born rule in Pauli coordinates as one (8^n, 4^n) matrix: row
    (labels, outcome) holds the Pauli coefficients of the n-party product of
    answer projectors, the Kronecker product of one projector-coefficient
    table per party.  The array is shared and read-only."""
    n = n_parties
    born = reduce(np.kron, [_PROJECTOR_COEFFS] * n).reshape(8 ** n, 4 ** n)
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


def honest_strategy(rho: qcore.DensityMatrix) -> Strategy:
    """Players measure the Pauli operators named by their labels on a shared
    copy of rho and report the outcomes."""
    return Strategy("honest", outcome_table(rho))


@lru_cache(maxsize=1)
def classical_cheat_strategy() -> Strategy:
    """Answer from three fresh shared random bits per round: both parties use
    bit 1 for label 1 and bit 3 for label 3, while on label 2 Bob flips
    bit 2.  This reproduces the (+1, -1, +1) diagonal correlations of the
    maximally entangled state without any shared entanglement.  The table
    is the exact mean over the eight equally likely bit patterns of the
    Kronecker product of the two parties' one-hot answer tables.  Built
    once and shared: the strategy is frozen and its table read-only."""
    def one_hot(answers):
        # row l: the answer to label l, column 0 for +1 and 1 for -1
        return np.eye(2)[(1 - np.array(answers)) // 2]

    table = np.mean([np.kron(one_hot((1, b1, b2, b3)), one_hot((1, b1, -b2, b3)))
                     for b1, b2, b3 in product((1, -1), repeat=3)], axis=0)
    return Strategy(name="cheat", outcome_table=table.reshape(4, 4, 4))


# ---------------------------------------------------------------------------
# Running games
# ---------------------------------------------------------------------------

def payoff_table(pi: np.ndarray, weights: PauliWeights) -> np.ndarray:
    """Per-cell, per-outcome payment -w[cell] * parity[cell, outcome] / pi[cell],
    zero on cells that pi never draws; the parity reads no answer of a party
    whose label is 0 (``parity_table``)."""
    parity = parity_table(pi.ndim)
    flat_pi = pi.ravel()[:, None]
    # one masked division; the cells it skips keep the +0.0 of out
    return np.divide(-weights.table.ravel()[:, None] * parity, flat_pi,
                     out=np.zeros(parity.shape), where=flat_pi > 0.0)


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
                                   strategy.outcome_table.reshape(pi.size, -1))
    # checks the weights before any work that grows with the rounds
    tr = Transcript(count_matrix, config, weights)
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
    pi must be a probability distribution (``pi_table``) that draws every
    cell the weights weigh, as ``run_game`` requires.  The outcome table is
    cleaned as ``Strategy`` cleans it, so the table of a state enumerates
    the rows its honest strategy samples.
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


def chsh_value(rho: qcore.DensityMatrix) -> ChshReport:
    """Expectation of the Bell operator A(x)B + A'(x)B + A(x)B' - A'(x)B' on
    a two-qubit rho, for the x/z setting A = x, A' = z, B = -(x+z)/sqrt(2),
    B' = (z-x)/sqrt(2).  That operator is -sqrt(2) (xx + zz), read off the
    CHSH witness as 2 (W - I) for W = ``witness.fixed_chsh_witness()``."""
    if rho.dim != 4:
        raise ValueError("chsh is defined for two-qubit states")
    bell = 2.0 * (fixed_chsh_witness().operator - np.eye(4))
    s = float(qcore.expectations(rho.matrix, bell))
    return ChshReport(
        value=s,
        violates_classical=bool(abs(s) > 2.0),
        violates_strengthened=bool(abs(s) > np.sqrt(2.0)),
    )
