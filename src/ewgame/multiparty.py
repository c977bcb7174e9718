"""Three-player extension: triple labels (i, j, k), answers (a, b, c), and
payment -w[i,j,k] * abc / Pi(i,j,k).

The witness, strategy and game machinery is generic in the party count, so
this module adds only the GHZ example state and its projector witness.
"""

from __future__ import annotations

import numpy as np

from . import qcore
from .witness import Witness


def ghz_state() -> qcore.DensityMatrix:
    """(|000> + |111>) / sqrt(2) as a density matrix."""
    vec = np.zeros(8, dtype=np.complex128)
    vec[0] = vec[7] = 1.0 / np.sqrt(2.0)
    return qcore.DensityMatrix(np.outer(vec, vec.conj()))


def ghz_witness() -> Witness:
    """Projector witness I/2 - |GHZ><GHZ|.

    Product states overlap the GHZ state by at most 1/2, so the witness is
    nonnegative on every fully separable state while Tr(W GHZ) = -1/2.
    """
    op = 0.5 * np.eye(8, dtype=np.complex128) - ghz_state().matrix
    return Witness.from_operator(op)
