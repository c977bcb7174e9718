import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ewgame as ew
from ewgame import qcore, serialize, witness
from ewgame.witness import SAMPLE_CHUNK, SEPARABLE_FLOOR

from conftest import builtin_witnesses, pauli_string

RT2 = np.sqrt(2.0)
RT3 = np.sqrt(3.0)


def kron_loop_separable(rng, k, n_qubits):
    """The per-sample separable sampler of ewgame 0.1.0: Dirichlet weights,
    then one normalised complex Gaussian 2-vector per qubit joined by kron."""
    weights = rng.dirichlet(np.ones(k))
    dim = 2 ** n_qubits
    m = np.zeros((dim, dim), dtype=complex)
    for w in weights:
        vec = np.ones(1, dtype=complex)
        for _ in range(n_qubits):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            vec = np.kron(vec, v / np.linalg.norm(v))
        m += w * np.outer(vec, vec.conj())
    return m


def reduceat_mixtures(rng, ks, n_qubits):
    """The stacked separable sampler before the Gram product, with the same
    draws: normalised product vectors, their outer products weighted by the
    Dirichlet weights, then summed per state with np.add.reduceat."""
    ks = np.asarray(ks, dtype=np.int64)
    total = int(ks.sum())
    starts = np.cumsum(ks) - ks
    e = rng.standard_exponential(total)
    weights = e / np.repeat(np.add.reduceat(e, starts), ks)
    g = rng.normal(size=(total, n_qubits, 2, 2))
    qubits = g[:, :, 0] + 1j * g[:, :, 1]
    qubits /= np.linalg.norm(qubits, axis=-1, keepdims=True)
    psi = qubits[:, 0]
    for j in range(1, n_qubits):
        psi = (psi[:, :, None] * qubits[:, j, None, :]).reshape(total, -1)
    outers = psi[:, :, None] * psi.conj()[:, None, :]
    return np.add.reduceat(weights[:, None, None] * outers, starts, axis=0)


def rebuild_from_weights(wit):
    # independent reconstruction: explicit kron per nonzero weight
    n = wit.n_qubits
    out = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for ix in np.argwhere(wit.weights.table != 0.0):
        labels = tuple(int(l) for l in ix)
        out += wit.weights.table[labels] * pauli_string(labels)
    return out


class TestBuiltinWitnesses:
    def test_werner_weights(self):
        w = ew.werner_witness().weights
        f = 1.0 / RT3
        expect = np.zeros((4, 4))
        expect[0, 0], expect[1, 1], expect[2, 2], expect[3, 3] = f, -f, f, -f
        assert np.max(np.abs(w.table - expect)) < 1e-15

    def test_fixed_chsh_weights(self):
        w = ew.fixed_chsh_witness().weights.table
        assert w[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert w[1, 1] == pytest.approx(-1 / RT2, abs=1e-15)
        assert w[3, 3] == pytest.approx(-1 / RT2, abs=1e-15)
        assert np.count_nonzero(w) == 3

    def test_strengthened_weights(self):
        w = ew.strengthened_chsh_witness().weights.table
        f = 1.0 / RT2
        assert w[0, 0] == pytest.approx(f, abs=1e-15)
        assert w[1, 1] == pytest.approx(-f, abs=1e-15)
        assert w[3, 3] == pytest.approx(-f, abs=1e-15)

    @pytest.mark.parametrize("make,diagonal", [
        (ew.werner_witness, (1 / RT3, -1 / RT3, 1 / RT3, -1 / RT3)),
        (ew.fixed_chsh_witness, (1.0, -1.0 / RT2, None, -1.0 / RT2)),
        (ew.strengthened_chsh_witness, (1 / RT2, -1 / RT2, None, -1 / RT2)),
    ], ids=["werner", "chsh", "chsh-strengthened"])
    def test_diagonal_witnesses_match_zero_and_set_tables(self, make, diagonal):
        # a zero table whose nonzero diagonal entries are set one by one
        table = np.zeros((4, 4))
        for l, value in enumerate(diagonal):
            if value is not None:
                table[l, l] = value
        wit, expect = make(), ew.Witness(ew.PauliWeights(table))
        assert wit.weights.table.tobytes() == expect.weights.table.tobytes()
        assert wit.operator.tobytes() == expect.operator.tobytes()

    @pytest.mark.parametrize("name,wit", builtin_witnesses())
    def test_operator_matches_weights(self, name, wit):
        assert np.max(np.abs(wit.operator - rebuild_from_weights(wit))) < 1e-12

    def test_werner_witness_on_bell(self):
        val = np.trace(ew.werner_witness().operator @ ew.bell_psi_plus().matrix)
        assert val.real == pytest.approx(-2 / RT3, abs=1e-12)

    @pytest.mark.parametrize("name,wit", builtin_witnesses())
    def test_separability_floor(self, name, wit, separable_corpus):
        values = np.einsum("nij,ji->n", separable_corpus, wit.operator).real
        payoffs = -values
        assert payoffs.max() <= 1e-9, f"{name}: separable payoff {payoffs.max():.3e}"


def xz_chsh_observables():
    """The x/z-plane setting A = x, A' = z, B = -(x+z)/sqrt(2), B' = (z-x)/sqrt(2)."""
    sx, sz = qcore.PAULIS[1], qcore.PAULIS[3]
    return sx, sz, -(sx + sz) / RT2, (sz - sx) / RT2


def xz_bell_operator():
    """A(x)B + A'(x)B + A(x)B' - A'(x)B' for the x/z observables, as four
    Kronecker products."""
    a, a2, b, b2 = xz_chsh_observables()
    return np.kron(a, b) + np.kron(a2, b) + np.kron(a, b2) - np.kron(a2, b2)


def chsh_operator(sign=+1):
    """2 I +/- (A(x)B + A'(x)B + A(x)B' - A'(x)B') for the x/z observables."""
    return 2 * np.eye(4) + sign * xz_bell_operator()


class TestChshWitness:
    def test_xz_observables_expansion(self):
        # expand the four tensor terms by hand
        combo = xz_bell_operator()
        sx, sz = qcore.PAULIS[1], qcore.PAULIS[3]
        expect = -RT2 * (np.kron(sx, sx) + np.kron(sz, sz))
        assert np.max(np.abs(combo - expect)) < 1e-12
        assert np.max(np.abs(chsh_operator(+1) - (2 * np.eye(4) + expect))) < 1e-12

    def test_value_on_bell(self):
        val = np.trace(chsh_operator(+1) @ ew.bell_psi_plus().matrix).real
        assert val == pytest.approx(2 - 2 * RT2, abs=1e-12)
        assert val < 0

    def test_value_on_maximally_mixed(self):
        wit = ew.Witness.from_operator(chsh_operator(+1))
        assert ew.expected_payoff(ew.maximally_mixed(2), wit) == pytest.approx(-2.0, abs=1e-12)

    def test_fixed_is_half_of_chsh(self):
        full = chsh_operator(+1)
        assert np.max(np.abs(ew.fixed_chsh_witness().operator - full / 2)) < 1e-12

    def test_chsh_value_matches_the_kronecker_oracle_bit_for_bit(self):
        # chsh_value reads its operator off the CHSH witness; the value is the
        # oracle's to the bit, so `ewgame chsh` prints the same bytes
        bell = xz_bell_operator()
        assert np.array_equal(2.0 * (ew.fixed_chsh_witness().operator - np.eye(4)), bell)
        gen = np.random.default_rng(31)
        states = ([ew.make_werner(0.05 * i) for i in range(21)]
                  + [ew.bell_psi_plus(), ew.maximally_mixed(2)]
                  + [ew.random_density_matrix(gen, 4) for _ in range(200)])
        for rho in states:
            expect = float(qcore.expectations(rho.matrix, bell))
            assert ew.chsh_value(rho).value.hex() == expect.hex()

    def test_minus_sign_witness_nonnegative_on_separables(self, separable_corpus):
        values = np.einsum("nij,ji->n", separable_corpus, chsh_operator(-1)).real
        assert values.min() >= -1e-9


class TestPayoffCurves:
    @pytest.mark.parametrize("z", [0.0, 1 / 3, 0.5, 2 / 3, 1.0])
    def test_werner_witness_payoff(self, z):
        p = ew.expected_payoff(ew.make_werner(z), ew.werner_witness())
        assert p == pytest.approx((3 * z - 1) / RT3, abs=1e-12)

    @pytest.mark.parametrize("z", [0.0, 0.3, 1 / RT2, 0.9, 1.0])
    def test_fixed_chsh_payoff(self, z):
        p = ew.expected_payoff(ew.make_werner(z), ew.fixed_chsh_witness())
        assert p == pytest.approx(RT2 * z - 1, abs=1e-12)

    @pytest.mark.parametrize("z", [0.0, 0.5, 1.0])
    def test_strengthened_payoff(self, z):
        p = ew.expected_payoff(ew.make_werner(z), ew.strengthened_chsh_witness())
        assert p == pytest.approx((RT2 / 2) * (2 * z - 1), abs=1e-12)

    def test_strengthened_at_one_is_half_sqrt2(self):
        p = ew.expected_payoff(ew.make_werner(1.0), ew.strengthened_chsh_witness())
        assert p == pytest.approx(RT2 / 2, abs=1e-12)

    def test_bell_against_fixed_chsh(self):
        p = ew.expected_payoff(ew.bell_psi_plus(), ew.fixed_chsh_witness())
        assert p == pytest.approx(RT2 - 1, abs=1e-12)

    def test_maximally_mixed_payoff_is_minus_w00(self, rng):
        # traceless Pauli terms vanish on I/4
        for _ in range(20):
            table = rng.uniform(-1, 1, size=(4, 4))
            wit = ew.Witness(ew.PauliWeights(table))
            p = ew.expected_payoff(ew.maximally_mixed(2), wit)
            assert p == pytest.approx(-table[0, 0], abs=1e-12)

    def test_linearity(self, rng):
        wit = ew.werner_witness()
        for _ in range(30):
            r1 = ew.random_density_matrix(rng, 4)
            r2 = ew.random_density_matrix(rng, 4)
            alpha = rng.uniform()
            mix = ew.DensityMatrix(alpha * r1.matrix + (1 - alpha) * r2.matrix)
            lhs = ew.expected_payoff(mix, wit)
            rhs = alpha * ew.expected_payoff(r1, wit) + (1 - alpha) * ew.expected_payoff(r2, wit)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ew.expected_payoff(ew.maximally_mixed(3), ew.werner_witness())


class TestPptWitness:
    def test_bell_state(self):
        wit = ew.ppt_witness(ew.bell_psi_plus())
        assert ew.expected_payoff(ew.bell_psi_plus(), wit) == pytest.approx(0.5, abs=1e-12)

    def test_barely_entangled_werner(self):
        # most negative partial-transpose eigenvalue is the exact payoff
        eps = 1e-3
        rho = ew.make_werner(1 / 3 + eps)
        wit = ew.ppt_witness(rho)
        lam_min = np.linalg.eigvalsh(ew.partial_transpose(rho))[0]
        assert lam_min < 0
        p = ew.expected_payoff(rho, wit)
        assert p == pytest.approx(-lam_min, abs=1e-12)
        assert p == pytest.approx(3 * eps / 4, rel=1e-6)

    def test_ppt_state_rejected(self):
        with pytest.raises(ew.PPTStateError, match="PPT"):
            ew.ppt_witness(ew.make_werner(0.2))

    def test_soundness_on_random_entangled_states(self, rng):
        # rejection-sample NPT states with an independent eigensolver oracle
        found = 0
        while found < 1000:
            rho = ew.random_density_matrix(rng, 4)
            lam = np.linalg.eigvalsh(ew.partial_transpose(rho))[0]
            if lam >= -1e-9:
                continue
            found += 1
            wit = ew.ppt_witness(rho)
            p = ew.expected_payoff(rho, wit)
            assert p > 0
            assert p == pytest.approx(-lam, abs=1e-10)

    def test_weights_match_the_transposed_projector(self, rng):
        # oracle: the Pauli weights of (|phi><phi|)^T_B itself, bit for bit,
        # zeros' signs included (the named states have exact zero weights)
        states = [ew.bell_psi_plus(), ew.make_werner(0.5), ew.make_werner(1.0)]
        while len(states) < 303:
            rho = ew.random_density_matrix(rng, 4)
            if np.linalg.eigvalsh(ew.partial_transpose(rho))[0] < witness.NPT_THRESHOLD:
                states.append(rho)
        for rho in states:
            _, vecs = ew.hermitian_eigensystem(ew.partial_transpose(rho))
            phi = vecs[:, 0]
            old = ew.Witness.from_operator(ew.partial_transpose(np.outer(phi, phi.conj())))
            assert ew.ppt_witness(rho).weights.table.tobytes() == old.weights.table.tobytes()

    def test_projector_enters_the_operator_door_once(self, monkeypatch):
        # the state's partial transpose and the projector pass the door once
        # each; the state itself comes in as a DensityMatrix
        door = qcore._as_operator
        raw = []

        def counting(matrix, *args, **kwargs):
            if not isinstance(matrix, ew.DensityMatrix):
                raw.append(matrix)
            return door(matrix, *args, **kwargs)

        rho = ew.make_werner(0.9)
        monkeypatch.setattr(qcore, "_as_operator", counting)
        ew.ppt_witness(rho)
        assert len(raw) == 2

    def test_nonnegative_on_separables(self, rng, separable_corpus):
        wit = ew.ppt_witness(ew.bell_psi_plus())
        values = np.einsum("nij,ji->n", separable_corpus, wit.operator).real
        assert values.min() >= -1e-9

    def test_needs_two_qubits(self):
        with pytest.raises(ValueError):
            ew.ppt_witness(ew.maximally_mixed(3))


class TestPauliWeights:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.sampled_from([1, 2, 3]))
    def test_qubit_count_is_the_table_ndim(self, data, n):
        t = data.draw(arrays(np.float64, (4,) * n,
                             elements=st.floats(allow_nan=False, allow_infinity=False))
                      .filter(lambda a: (a != 0.0).any()))
        weights = ew.PauliWeights(t)
        # witness_to_dict writes n_qubits, and json writes no numpy integer
        assert type(weights.n_qubits) is int and weights.n_qubits == n
        assert weights.table.dtype == np.float64
        assert weights.table.tobytes() == t.tobytes()

    @pytest.mark.parametrize("shape", [(), (0,), (3, 3), (4, 4, 3), (4,) * 4])
    def test_table_shape_is_checked_by_one_rule(self, shape):
        with pytest.raises(ValueError) as err:
            ew.PauliWeights(np.ones(shape))
        assert str(err.value) == f"weights must have shape (4,)*n for n = 1, 2 or 3, got {shape}"


class TestRandomSeparable:
    def test_single_component_is_pure(self, rng):
        for _ in range(50):
            rho = ew.random_separable(rng, k=1)
            assert np.trace(rho.matrix @ rho.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_partial_transpose_stays_psd(self, rng):
        for _ in range(200):
            rho = ew.random_separable(rng, k=int(rng.integers(1, 6)))
            assert np.linalg.eigvalsh(ew.partial_transpose(rho))[0] > -1e-12

    def test_needs_positive_k(self, rng):
        with pytest.raises(ValueError):
            ew.random_separable(rng, k=0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_matches_kron_loop(self, n, k):
        for seed in range(5):
            old, oracle, new = (np.random.default_rng(seed) for _ in range(3))
            expect = kron_loop_separable(old, k, n)
            got = ew.random_separable(new, k, n).matrix
            assert np.max(np.abs(got - expect)) <= 1e-14
            assert np.max(np.abs(got - reduceat_mixtures(oracle, [k], n)[0])) <= 1e-14
            assert new.random() == old.random() == oracle.random()

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("count,k", [(5, 1), (7, 9), (3, 4)], ids=["5x1", "7x9", "3x4"])
    def test_batches_match_reduceat_oracle(self, n, count, k):
        for seed in range(5):
            old, new = np.random.default_rng(seed), np.random.default_rng(seed)
            expect = reduceat_mixtures(old, [k] * count, n)
            got = witness._product_mixtures(new, count, k, n)
            assert got.shape == expect.shape == (count, 2 ** n, 2 ** n)
            assert np.max(np.abs(got - expect)) <= 1e-14
            assert new.random() == old.random()

    @pytest.mark.parametrize("k", [2.0, True, 0, -1, "2"])
    def test_rejects_bad_k(self, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            ew.random_separable(np.random.default_rng(0), k)

    @pytest.mark.parametrize("n_qubits", [0, 4, 2.0, True])
    def test_rejects_bad_qubit_count_before_drawing(self, n_qubits):
        gen = np.random.default_rng(0)
        with pytest.raises(ValueError) as err:
            ew.random_separable(gen, 2, n_qubits=n_qubits)
        assert str(err.value) == f"n_qubits must be an integer from 1 to 3, got {n_qubits!r}"
        assert gen.random() == np.random.default_rng(0).random()


class TestCheckWitness:
    def test_detects_bell_state(self, rng):
        report = ew.check_witness(ew.werner_witness(), ew.make_werner(1.0), 10_000, rng)
        assert report.verdict
        assert report.payoff_on_target == pytest.approx(2 / RT3, abs=1e-12)
        assert report.min_separable_value >= -1e-9
        assert report.n_samples == 10_000

    def test_separable_werner_not_detected(self, rng):
        report = ew.check_witness(ew.werner_witness(), ew.make_werner(0.2), 2000, rng)
        assert not report.verdict
        assert report.payoff_on_target < 0

    def test_entangled_but_undetected_by_chsh(self, rng):
        report = ew.check_witness(ew.fixed_chsh_witness(), ew.make_werner(0.6), 2000, rng)
        assert not report.verdict
        assert report.payoff_on_target < 0

    def test_sample_count_guard(self, rng):
        with pytest.raises(ValueError):
            ew.check_witness(ew.werner_witness(), ew.make_werner(1.0), 0, rng)

    @pytest.mark.parametrize("samples", [True, False, 10.0, 2.5, -3, "10"])
    def test_rejects_non_integer_sample_counts(self, rng, samples):
        # the parameter is named for the --samples flag, so the CLI's error names the flag
        with pytest.raises(ValueError) as err:
            ew.check_witness(ew.werner_witness(), ew.make_werner(1.0), samples, rng)
        assert str(err.value) == f"samples must be an integer >= 1, got {samples!r}"

    @pytest.mark.parametrize("wit,rho", [(ew.werner_witness(), ew.make_werner(1.0)),
                                         (ew.ghz_witness(), ew.ghz_state())])
    def test_same_seed_reports_are_equal(self, wit, rho):
        n = SAMPLE_CHUNK + 7
        first = ew.check_witness(wit, rho, n, np.random.default_rng(3))
        second = ew.check_witness(wit, rho, n, np.random.default_rng(3))
        assert repr(first) == repr(second)
        assert first.min_separable_value.hex() == second.min_separable_value.hex()

    def test_one_sample_is_one_random_separable_draw(self):
        wit, rho = ew.ghz_witness(), ew.ghz_state()
        checked, direct = np.random.default_rng(5), np.random.default_rng(5)
        report = ew.check_witness(wit, rho, 1, checked)
        sigma = ew.random_separable(direct, 1, n_qubits=3)
        value = np.trace(sigma.matrix @ wit.operator).real
        assert report.min_separable_value == pytest.approx(value, abs=1e-14)
        assert checked.random() == direct.random()

    @pytest.mark.parametrize("wit,rho", [(ew.werner_witness(), ew.make_werner(1.0)),
                                         (ew.ghz_witness(), ew.ghz_state())])
    def test_every_scored_sample_is_pure(self, monkeypatch, wit, rho):
        # Tr(sigma W) is linear in sigma, so only pure product states are scored
        scored, expectations = [], qcore.expectations

        def recording(states, operator):
            if states.ndim == 3:
                scored.append(states)
            return expectations(states, operator)

        monkeypatch.setattr(qcore, "expectations", recording)
        ew.check_witness(wit, rho, SAMPLE_CHUNK + 7, np.random.default_rng(2))
        sigmas = np.concatenate(scored)
        assert len(sigmas) == SAMPLE_CHUNK + 7
        purity = np.einsum("nij,nji->n", sigmas, sigmas).real
        assert np.max(np.abs(purity - 1.0)) <= 1e-12

    def test_longer_run_extends_the_same_samples(self):
        wit, rho = ew.werner_witness(), ew.make_werner(1.0)
        one = ew.check_witness(wit, rho, SAMPLE_CHUNK, np.random.default_rng(8))
        two = ew.check_witness(wit, rho, 2 * SAMPLE_CHUNK, np.random.default_rng(8))
        assert two.min_separable_value <= one.min_separable_value

    def test_non_witness_is_caught(self):
        ket00 = np.zeros((4, 4), dtype=complex)
        ket00[0, 0] = 1.0
        fake = ew.Witness.from_operator(np.eye(4) - 2 * ket00)
        report = ew.check_witness(fake, ew.DensityMatrix(ket00), SAMPLE_CHUNK + 1,
                                  np.random.default_rng(0))
        assert report.payoff_on_target == pytest.approx(1.0, abs=1e-12)
        assert report.min_separable_value < -SEPARABLE_FLOOR
        assert report.verdict is False
        assert report.n_samples == SAMPLE_CHUNK + 1

    def test_memory_does_not_grow_with_samples(self):
        wit, rho = ew.ghz_witness(), ew.ghz_state()
        peaks = []
        for n in (SAMPLE_CHUNK, 20 * SAMPLE_CHUNK):
            tracemalloc.start()
            ew.check_witness(wit, rho, n, np.random.default_rng(1))
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]


class TestWitnessTypes:
    def test_weights_validation(self):
        with pytest.raises(ValueError):
            ew.PauliWeights(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            ew.PauliWeights(np.full((4, 4), np.inf))
        with pytest.raises(ValueError):
            ew.PauliWeights(np.zeros((4, 3)))

    def test_inconsistent_operator_rejected(self):
        # the operator is built from the weights; no other can be given
        w = ew.werner_witness()
        with pytest.raises(TypeError):
            ew.Witness(np.eye(4), w.weights)
        with pytest.raises(TypeError):
            ew.Witness(w.weights, operator=np.eye(4))
        assert np.array_equal(ew.Witness(w.weights).operator, w.operator)

    def test_from_operator_roundtrip(self, rng):
        table = rng.uniform(-1, 1, size=(4, 4))
        op = ew.Witness(ew.PauliWeights(table)).operator
        back = ew.Witness.from_operator(op)
        assert np.max(np.abs(back.weights.table - table)) < 1e-12
