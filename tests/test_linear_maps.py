"""The fixed linear maps behind outcome tables and Pauli coordinates, and
the named constants built once per process.

Each map is checked against the einsum it replaced, kept here as an oracle:
the Born-rule contraction for the outcome map and outcome tables and the
Pauli-basis sums for traces, coefficients and Pauli sums.  The shared
constants must be the same instance on every call and must refuse every
write.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ewgame as ew
from ewgame import game, qcore, serialize

ORACLE_TOL = 1e-15


@st.composite
def states(draw):
    """A random 2- or 3-qubit density matrix of random rank."""
    n = draw(st.sampled_from([2, 3]))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (2 ** n, draw(st.integers(1, 2 ** n)))
    g = gen.normal(size=shape) + 1j * gen.normal(size=shape)
    m = g @ g.conj().T
    return ew.DensityMatrix(m / m.trace())


def projector_operands(n):
    operands = []
    for j in range(n):
        operands += [game._PROJECTOR_COEFFS, [j, n + j, 2 * n + j]]
    return operands


def einsum_outcome_map(n):
    return np.einsum(*projector_operands(n), list(range(3 * n))).reshape(8 ** n, 4 ** n)


def einsum_outcome_table(rho):
    n = rho.n_qubits
    operands = projector_operands(n) + [einsum_pauli_traces(rho.matrix), list(range(2 * n, 3 * n))]
    return np.einsum(*operands, list(range(2 * n))).reshape((4,) * n + (2 ** n,))


def einsum_pauli_traces(m):
    n = m.shape[0].bit_length() - 1
    return np.einsum("kij,ji->k", qcore.pauli_basis(n), m).real.reshape((4,) * n)


def einsum_pauli_sum(table):
    n = table.ndim
    return np.einsum("k,kij->ij", table.ravel(), qcore.pauli_basis(n))


class TestEinsumOracles:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_outcome_map(self, n):
        # the Kronecker build may hold -0.0 where the einsum holds +0.0
        assert np.array_equal(game._outcome_map(n), einsum_outcome_map(n))

    @settings(max_examples=60, deadline=None)
    @given(rho=states())
    def test_outcome_table(self, rho):
        table = game.outcome_table(rho)
        assert np.max(np.abs(table - einsum_outcome_table(rho))) <= ORACLE_TOL

    @settings(max_examples=60, deadline=None)
    @given(rho=states())
    def test_pauli_traces(self, rho):
        traces = qcore.pauli_traces(rho.matrix)
        assert np.max(np.abs(traces - einsum_pauli_traces(rho.matrix))) <= ORACLE_TOL

    @settings(max_examples=60, deadline=None)
    @given(rho=states())
    def test_from_pauli_coefficients(self, rho):
        r = qcore.pauli_traces(rho.matrix)
        op = ew.from_pauli_coefficients(r)
        assert np.max(np.abs(op - einsum_pauli_sum(r) / 2 ** rho.n_qubits)) <= ORACLE_TOL

    @settings(max_examples=60, deadline=None)
    @given(rho=states(), signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=64,
                                        max_size=64))
    def test_pauli_sum(self, rho, signs):
        # the weights of a unit-trace operator, with random signs
        n = rho.n_qubits
        flip = np.reshape(signs[:4 ** n], (4,) * n)
        table = flip * qcore.pauli_traces(rho.matrix) / 2 ** n
        assert np.max(np.abs(qcore.pauli_sum(table) - einsum_pauli_sum(table))) <= ORACLE_TOL


@pytest.mark.parametrize("seed", [0, 31, 2024])
@pytest.mark.parametrize("state,witness", [("werner(0.8)", "werner"), ("ghz", "ghz")])
def test_oracle_table_draws_the_same_counts(state, witness, seed):
    """The round-off between the map and the einsum moves no transcript."""
    rho = serialize.parse_state_spec(state)
    weights = serialize.parse_witness_spec(witness).weights
    config = ew.GameConfig.uniform(100_000, seed, n_parties=rho.n_qubits)
    honest = ew.run_game(config, ew.honest_strategy(rho), weights)
    oracle = ew.run_game(config, ew.Strategy("oracle", einsum_outcome_table(rho)), weights)
    assert honest.count_matrix.tobytes() == oracle.count_matrix.tobytes()


# ---------------------------------------------------------------------------
# Shared values
# ---------------------------------------------------------------------------

CACHED = [ew.bell_psi_plus, ew.ghz_state, ew.werner_witness, ew.fixed_chsh_witness,
          ew.strengthened_chsh_witness, ew.ghz_witness, ew.classical_cheat_strategy]


def held_arrays(value):
    if isinstance(value, ew.DensityMatrix):
        return [value.matrix]
    if isinstance(value, ew.Witness):
        return [value.operator, value.weights.table]
    return [value.outcome_table]


@pytest.mark.parametrize("make", CACHED, ids=lambda f: f.__name__)
class TestSharedConstants:
    def test_one_instance(self, make):
        assert make() is make()

    def test_arrays_refuse_writes(self, make):
        for array in held_arrays(make()):
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 0.5


@pytest.mark.parametrize("n", [2, 3])
def test_outcome_map_is_read_only(n):
    k = game._outcome_map(n)
    assert k.shape == (8 ** n, 4 ** n)
    with pytest.raises(ValueError, match="read-only"):
        k[0, 0] = 1.0


def test_round_off_fix_writes_a_fresh_table():
    # the diagonal 3-qubit state whose table has four -0.9e-10 entries summed
    diag = np.full(8, (1 + 3.6e-10) / 4)
    diag[1::2] = -0.9e-10
    rho = ew.DensityMatrix(np.diag(diag))
    before = game._outcome_map(3).tobytes()
    table = ew.honest_strategy(rho).outcome_table
    assert table.min() == 0.0
    assert game._outcome_map(3).tobytes() == before
    assert game.outcome_table(rho).min() < 0.0


def test_werner_validates_one_matrix(monkeypatch):
    ew.make_werner(0.5)
    validate, validated = qcore.validate_density_matrices, []

    def counting(matrices, stack=True):
        validated.append(np.shape(matrices))
        return validate(matrices, stack)

    monkeypatch.setattr(qcore, "validate_density_matrices", counting)
    ew.make_werner(0.5)
    assert validated == [(4, 4)]


# ---------------------------------------------------------------------------
# No einsum on the warm fixed-cost path
# ---------------------------------------------------------------------------

WARM_CALLS = {
    "honest_strategy 2q": lambda: ew.honest_strategy(ew.make_werner(0.8)),
    "honest_strategy 3q": lambda: ew.honest_strategy(ew.ghz_state()),
    **{f"parse_witness_spec {name}": (lambda name=name: serialize.parse_witness_spec(name))
       for name in ("werner", "chsh", "chsh-strengthened", "ghz")},
    "classical_cheat_strategy": ew.classical_cheat_strategy,
    "check_witness": lambda: ew.check_witness(ew.werner_witness(), ew.make_werner(0.9), 10,
                                              np.random.default_rng(0)),
}


@pytest.mark.parametrize("call", WARM_CALLS.values(), ids=WARM_CALLS.keys())
def test_warm_calls_make_no_einsum(einsum_calls, call):
    call()
    einsum_calls.clear()
    call()
    assert einsum_calls == []


def test_einsum_calls_sees_the_einsums(einsum_calls):
    table = ew.honest_strategy(ew.make_werner(0.9)).outcome_table
    einsum_calls.clear()
    ew.exact_average_payoff(np.full((4, 4), 1 / 16), table, ew.werner_witness().weights)
    assert einsum_calls == ["game"]
