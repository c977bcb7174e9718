"""Referee-side reconstruction of the shared two-qubit state from game
answers: per-cell correlation estimates, linear inversion in the Pauli basis,
and an eigenvalue-clipping projection back onto physical states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qcore
from .game import Transcript


@dataclass(frozen=True, eq=False)
class Estimate:
    """Reconstruction output: the raw linear inversion (possibly unphysical)
    and its projection onto valid states."""

    raw: np.ndarray
    projected: qcore.DensityMatrix


def accumulate(tr: Transcript) -> np.ndarray:
    """The correlation estimates r_hat[s, t] = sum(ab) / n of a game
    transcript, as a read-only float64 4x4 table.

    Requires a two-party transcript whose label distribution reached all 16
    cells; a ValueError names the cells that were never played.
    """
    if tr.n_parties != 2:
        raise ValueError("tomography is defined for the two-qubit game")
    counts = tr.counts
    if not counts.all():
        missing = [tuple(ix) for ix in np.argwhere(counts.reshape(4, 4) == 0).tolist()]
        raise ValueError(f"no rounds for {len(missing)} label cells: {missing}")
    r_hat = (tr.parity_sums / counts).reshape(4, 4)
    r_hat.setflags(write=False)
    return r_hat


def project_psd(raw) -> qcore.DensityMatrix:
    """Clip negative eigenvalues to zero and renormalize in the eigenbasis.

    Idempotent; physical inputs pass through unchanged.
    """
    vals, vecs = qcore.hermitian_eigensystem(raw)
    clipped = np.clip(vals, 0.0, None)
    total = clipped.sum()
    if total <= 0.0:
        raise ValueError("no positive eigenvalues; cannot project onto states")
    clipped /= total
    return qcore.DensityMatrix((vecs * clipped) @ vecs.conj().T)


def reconstruct(correlations) -> Estimate:
    """Linear inversion (1/4) sum r_hat[s,t] sigma_s (x) sigma_t, which is
    Hermitian with unit trace but may have negative eigenvalues under
    sampling noise, followed by the physicality projection."""
    raw = qcore.from_pauli_coefficients(correlations)
    return Estimate(raw=raw, projected=project_psd(raw))


def reconstruction_error(truth: qcore.DensityMatrix, est: Estimate) -> float:
    """Trace distance between the true state and the projected estimate."""
    return qcore.trace_distance(truth, est.projected)
