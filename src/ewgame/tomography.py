"""Referee-side reconstruction of the shared two-qubit state from game
answers: per-cell correlation estimates, linear inversion in the Pauli basis,
and an eigenvalue-clipping projection back onto physical states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qcore
from .game import Transcript, count_table


class IncompleteTomographyError(ValueError):
    """Raised when some label cells were never played, so the correlation
    table cannot be filled."""

    def __init__(self, missing):
        self.missing = list(missing)
        super().__init__(
            f"no rounds for {len(self.missing)} label cells: {self.missing}"
        )


@dataclass(frozen=True, eq=False)
class Moments:
    """Per-cell round counts and answer-product sums with the derived
    correlation estimates r_hat = sum(ab) / n.  Both tables are 4x4 and
    read-only, the sums are finite, each lies in [-n, n] (n answers of
    +/-1) and every cell was played: construction checks that once."""

    counts: np.ndarray
    parity_sums: np.ndarray

    def __post_init__(self):
        c = count_table(self.counts)
        s = np.array(self.parity_sums, dtype=np.float64)
        if c.shape != (4, 4) or s.shape != (4, 4):
            raise ValueError("moments are 4x4 tables over two-qubit label cells")
        if not np.isfinite(s).all():
            raise ValueError("parity sums must be finite")
        missing = np.argwhere(c == 0).tolist()
        if missing:
            raise IncompleteTomographyError(tuple(ix) for ix in missing)
        if not (abs(s) <= c).all():
            raise ValueError("a parity sum lies outside [-count, count], the range of "
                             "count answers of +/-1")
        s.setflags(write=False)
        object.__setattr__(self, "counts", c)
        object.__setattr__(self, "parity_sums", s)

    def estimates(self) -> np.ndarray:
        return self.parity_sums / self.counts

    def standard_errors(self) -> np.ndarray:
        """Binomial standard error of each cell's correlation estimate."""
        r = self.estimates()
        return np.sqrt(np.clip(1.0 - r * r, 0.0, None) / self.counts)


@dataclass(frozen=True, eq=False)
class Estimate:
    """Reconstruction output: the raw linear inversion (possibly unphysical)
    and its projection onto valid states."""

    raw: np.ndarray
    projected: qcore.DensityMatrix


def accumulate(tr: Transcript) -> Moments:
    """Fold a game transcript into tomography moments.

    Requires a two-party transcript whose label distribution reached all 16
    cells; missing cells raise IncompleteTomographyError.
    """
    if tr.n_parties != 2:
        raise ValueError("tomography is defined for the two-qubit game")
    return Moments(tr.counts.reshape(4, 4), tr.parity_sums.reshape(4, 4))


def linear_inversion(m: Moments) -> np.ndarray:
    """Unbiased reconstruction (1/4) sum r_hat[s,t] sigma_s (x) sigma_t.

    The result is Hermitian with unit trace but may have negative
    eigenvalues under sampling noise.
    """
    return qcore.from_pauli_coefficients(m.estimates())


def project_psd(raw) -> qcore.DensityMatrix:
    """Clip negative eigenvalues to zero and renormalize in the eigenbasis.

    Idempotent; physical inputs pass through unchanged.
    """
    m = np.asarray(raw, dtype=np.complex128)
    vals, vecs = qcore.hermitian_eigensystem(m)
    clipped = np.clip(vals, 0.0, None)
    total = clipped.sum()
    if total <= 0.0:
        raise ValueError("no positive eigenvalues; cannot project onto states")
    clipped /= total
    return qcore.DensityMatrix((vecs * clipped) @ vecs.conj().T)


def reconstruct(m: Moments) -> Estimate:
    """Linear inversion followed by the physicality projection."""
    raw = linear_inversion(m)
    return Estimate(raw=raw, projected=project_psd(raw))


def reconstruction_error(truth: qcore.DensityMatrix, est: Estimate) -> float:
    """Trace distance between the true state and the projected estimate."""
    return qcore.trace_distance(truth, est.projected)
