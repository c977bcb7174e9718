"""One trace map: every Tr(sigma O) in the package is qcore.expectations.

expected_payoff, chsh_value and check_witness read the real part of
Tr(sigma O) for operands that have already passed a Hermiticity check, so
a state DensityMatrix accepts is never rejected for the imaginary part its
tolerance allows.  The payoff is checked against -sum_t w[t] Tr(rho sigma_t)
built from the Pauli matrices written out in conftest, not from qcore's basis.
"""

import json
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ewgame as ew
from conftest import pauli_string
from ewgame import cli, qcore, serialize


def oracle_payoff(rho, weights):
    """-sum_t w[t] Tr(rho sigma_t), one Pauli string at a time."""
    total = 0.0
    for labels in product(range(4), repeat=weights.ndim):
        total += weights[labels] * np.trace(rho @ pauli_string(labels)).real
    return -total


def edge_state():
    """I/4 with 0.5e-10j at (0, 3) and (3, 0): its Hermiticity deviation is
    exactly HERMITICITY_TOL."""
    m = np.eye(4, dtype=complex) / 4
    m[0, 3] = m[3, 0] = 0.5e-10j
    return m


class TestEdgeState:
    def test_density_matrix_accepts_it(self):
        m = edge_state()
        assert abs(m - m.conj().T).max() == qcore.HERMITICITY_TOL
        # the Hermitian part of the two imaginary entries is zero
        assert np.array_equal(ew.DensityMatrix(m).matrix, np.eye(4) / 4)

    def test_payoff_and_chsh_have_values(self):
        rho = ew.DensityMatrix(edge_state())
        assert ew.expected_payoff(rho, ew.werner_witness()) == \
            pytest.approx(-1 / np.sqrt(3), abs=1e-15)
        assert ew.chsh_value(rho).value == pytest.approx(0, abs=1e-15)

    @pytest.mark.parametrize("command", [
        ("payoff", "--witness", "werner"),
        ("chsh",),
        ("witness", "check", "--witness", "werner", "--samples", "50"),
    ], ids=lambda c: " ".join(c[:2]))
    def test_cli_prints_a_value(self, capsys, tmp_path, command):
        path = tmp_path / "edge.json"
        path.write_text(json.dumps(serialize.matrix_to_dict(edge_state())))
        code = cli.main([*command, "--state", str(path)])
        captured = capsys.readouterr()
        assert code in (0, 1) and captured.err == ""
        assert captured.out


@st.composite
def noisy_states(draw):
    """A random 2- or 3-qubit density matrix plus an anti-Hermitian part
    whose largest off-diagonal entry is up to HERMITICITY_TOL / 2, and
    random weights."""
    n = draw(st.sampled_from([2, 3]))
    # the margin below 1 leaves room for the round-off of adding the parts
    size = draw(st.floats(0.0, 1.0 - 1e-6)) * qcore.HERMITICITY_TOL / 2
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = 2 ** n
    g = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
    h = g @ g.conj().T
    h = (h + h.conj().T) / (2 * h.trace().real)
    b = gen.uniform(-1, 1, (d, d)) + 1j * gen.uniform(-1, 1, (d, d))
    a = b - b.conj().T
    np.fill_diagonal(a, 0)  # the trace stays 1
    return h + a * (size / abs(a).max()), gen.uniform(-1, 1, (4,) * n)


@settings(max_examples=60, deadline=None)
@given(case=noisy_states())
def test_payoff_is_minus_the_weighted_pauli_traces(case):
    m, table = case
    rho = ew.DensityMatrix(m)
    wit = ew.Witness(ew.PauliWeights(table))
    assert ew.expected_payoff(rho, wit) == pytest.approx(oracle_payoff(m, table), abs=1e-12)


@pytest.mark.parametrize("shape", [(7,), (2, 3)])
@pytest.mark.parametrize("wit", [ew.werner_witness, ew.ghz_witness], ids=["2q", "3q"])
def test_expectations_on_a_stack(rng, shape, wit):
    w = wit()
    d = w.operator.shape[0]
    stack = np.stack([ew.random_density_matrix(rng, d).matrix
                      for _ in range(int(np.prod(shape)))]).reshape(*shape, d, d)
    values = qcore.expectations(stack, w.operator)
    assert values.shape == shape
    for ix in np.ndindex(shape):
        assert values[ix] == pytest.approx(np.trace(stack[ix] @ w.operator).real, abs=1e-12)


def test_dimension_mismatch_is_named():
    # raw operators are told apart by dimension; states and witnesses by qubits
    with pytest.raises(ValueError, match="^dimension mismatch: state 8, operator 4$"):
        qcore.expectations(ew.ghz_state().matrix, ew.werner_witness().operator)
    with pytest.raises(ValueError, match="^chsh is defined for two-qubit states$"):
        ew.chsh_value(ew.ghz_state())
    with pytest.raises(ValueError, match="^state has 2 qubits but the witness has 3$"):
        ew.expected_payoff(ew.bell_psi_plus(), ew.ghz_witness())


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_partial_transpose_rejects_non_finite(value):
    with pytest.raises(ValueError, match="^operator contains non-finite entries$"):
        ew.partial_transpose(np.full((4, 4), value))


@settings(max_examples=60, deadline=None)
@given(case=noisy_states())
def test_a_state_is_stored_as_its_hermitian_part(case):
    m, _ = case
    h = (m + m.conj().T) / 2
    for out in (qcore.validate_density_matrices(m, stack=False), ew.DensityMatrix(m).matrix):
        assert out.tobytes() == h.tobytes()
        assert np.array_equal(out, out.conj().T)


def test_partial_transpose_follows_the_hermiticity_rule():
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] += 0.5e-10
    h = (m + m.conj().T) / 2
    pt = ew.partial_transpose(m)
    assert pt.tobytes() == ew.partial_transpose(ew.DensityMatrix(m)).tobytes()
    assert np.array_equal(pt, h.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4))
    m[0, 1] = 1e-9
    with pytest.raises(ValueError) as err:
        ew.partial_transpose(m)
    assert str(err.value) == "operator is not Hermitian (max deviation 1.000e-09)"
