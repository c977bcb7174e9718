from functools import reduce

import numpy as np
import pytest

import ewgame as ew
from ewgame import game, qcore, tomography, witness


# the Pauli matrices I, x, y, z written out, independent of qcore.PAULIS
PAULI = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], np.diag([1, -1])],
                 dtype=complex)


def pauli_string(labels):
    """sigma_l1 (x) ... (x) sigma_ln from the written-out PAULI: an oracle
    for qcore.pauli_basis built without the package."""
    return reduce(np.kron, [PAULI[l] for l in labels])


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def cell_scans(monkeypatch):
    """Records each scan tomography makes for unplayed cells (an
    np.argwhere over the counts) and returns the list of them."""
    scans = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def argwhere(self, a):
            scans.append(a.shape)
            return np.argwhere(a)

    monkeypatch.setattr(tomography, "np", CountingNumpy())
    return scans


@pytest.fixture
def einsum_calls(monkeypatch):
    """Records the module of each np.einsum call made in ewgame.game,
    ewgame.qcore and ewgame.witness, and returns the list of them."""
    calls = []

    class CountingNumpy:
        def __init__(self, module):
            self.module = module

        def __getattr__(self, name):
            return getattr(np, name)

        def einsum(self, *operands, **kwargs):
            calls.append(self.module)
            return np.einsum(*operands, **kwargs)

    for module in (game, qcore, witness):
        monkeypatch.setattr(module, "np", CountingNumpy(module.__name__.rsplit(".")[-1]))
    return calls


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """Records the shape of the argument of each np.linalg.eigvalsh call,
    from any module, and returns the list of them."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


def decode_rounds(tr):
    """Each recorded round's labels (rounds, n), +/-1 answers (rounds, n)
    and payment (rounds,), decoded from ``tr.joint`` alone: the label cell
    is joint >> n, raveled over (4,)*n; the outcome is joint & (2^n - 1),
    and party j's answer its j-th bit from the left, 0 meaning +1.  Built
    without the package's lookup tables, so it can serve as an oracle for
    ``Transcript.csv_lines``."""
    n = tr.n_parties
    labels = np.stack(np.unravel_index(tr.joint >> n, (4,) * n), axis=1)
    bits = ((tr.joint & (2 ** n - 1))[:, None] >> np.arange(n - 1, -1, -1)) & 1
    return labels, 1 - 2 * bits, tr.payments.ravel()[tr.joint]


def builtin_witnesses():
    return [
        ("werner", ew.werner_witness()),
        ("chsh", ew.fixed_chsh_witness()),
        ("chsh-strengthened", ew.strengthened_chsh_witness()),
    ]


@pytest.fixture(scope="session")
def separable_corpus():
    """10^4 random separable two-qubit states, shared across tests."""
    gen = np.random.default_rng(777)
    states = [ew.random_separable(gen, k=int(gen.integers(1, 5))) for _ in range(10_000)]
    return np.stack([s.matrix for s in states])
