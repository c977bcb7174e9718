import numpy as np
import pytest

import ewgame as ew
from conftest import decode_rounds, pauli_string
from ewgame import game, qcore


class TestGhzState:
    def test_pure(self):
        m = ew.ghz_state().matrix
        assert np.trace(m @ m).real == pytest.approx(1.0, abs=1e-12)

    def test_zz_identity_correlation(self):
        # direct trace oracle
        rho = ew.ghz_state()
        op = pauli_string((3, 3, 0))
        assert np.trace(rho.matrix @ op).real == pytest.approx(1.0, abs=1e-12)
        assert qcore.pauli_traces(rho.matrix)[3, 3, 0] == pytest.approx(1.0, abs=1e-12)

    def test_xxx_correlation(self):
        rho = ew.ghz_state()
        op = pauli_string((1, 1, 1))
        assert np.trace(rho.matrix @ op).real == pytest.approx(1.0, abs=1e-12)
        assert qcore.pauli_traces(rho.matrix)[1, 1, 1] == pytest.approx(1.0, abs=1e-12)


class TestGhzWitness:
    def test_payoff_on_ghz(self):
        assert ew.expected_payoff(ew.ghz_state(), ew.ghz_witness()) == \
            pytest.approx(0.5, abs=1e-12)

    def test_payoff_on_maximally_mixed(self):
        # Tr W = 4 - 1 = 3, so -Tr(W I/8) = -3/8
        assert ew.expected_payoff(ew.maximally_mixed(3), ew.ghz_witness()) == \
            pytest.approx(-3 / 8, abs=1e-12)

    def test_weights_rebuild_operator(self):
        wit = ew.ghz_witness()
        rebuilt = np.zeros((8, 8), dtype=complex)
        for ix in np.argwhere(wit.weights.table != 0.0):
            labels = tuple(int(l) for l in ix)
            rebuilt += wit.weights.table[labels] * pauli_string(labels)
        assert np.max(np.abs(rebuilt - wit.operator)) < 1e-12

    def test_separable_floor(self):
        # sampling oracle: product states overlap GHZ by at most 1/2
        gen = np.random.default_rng(901)
        wit = ew.ghz_witness()
        worst = -np.inf
        for _ in range(10_000):
            sigma = ew.random_separable(gen, k=int(gen.integers(1, 4)), n_qubits=3)
            worst = max(worst, ew.expected_payoff(sigma, wit))
        assert worst <= 1e-9


class TestExpectedPayoff3:
    def test_linearity(self, rng):
        w = ew.ghz_witness()
        for _ in range(20):
            r1 = ew.random_density_matrix(rng, 8)
            r2 = ew.random_density_matrix(rng, 8)
            alpha = rng.uniform()
            mix = ew.DensityMatrix(alpha * r1.matrix + (1 - alpha) * r2.matrix)
            lhs = ew.expected_payoff(mix, w)
            rhs = alpha * ew.expected_payoff(r1, w) + (1 - alpha) * ew.expected_payoff(r2, w)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_dimension_guards(self):
        with pytest.raises(ValueError):
            ew.expected_payoff(ew.maximally_mixed(2), ew.ghz_witness())
        with pytest.raises(ValueError):
            ew.expected_payoff(ew.ghz_state(), ew.werner_witness())


class TestRunGame3:
    def test_pauli_roundtrip_three_qubits(self, rng):
        for _ in range(200):
            rho = ew.random_density_matrix(rng, 8)
            back = ew.from_pauli_coefficients(qcore.pauli_traces(rho.matrix))
            assert np.max(np.abs(back - rho.matrix)) < 1e-12

    def test_honest_ghz_converges(self):
        cfg = ew.GameConfig.uniform(1_000_000, seed=6, n_parties=3)
        tr = ew.run_game(cfg, ew.honest_strategy(ew.ghz_state()), ew.ghz_witness().weights)
        mean, se = ew.empirical_payoff(tr)
        assert abs(mean - 0.5) <= 3 * se

    def test_enumeration_matches_exact_payoff(self, rng):
        pi = np.full((4, 4, 4), 1 / 64)
        for _ in range(20):
            rho = ew.random_density_matrix(rng, 8)
            table = rng.uniform(-1, 1, size=(4, 4, 4))
            w = ew.PauliWeights(table)
            enumerated = ew.exact_average_payoff(pi, game.outcome_table(rho), w)
            assert enumerated == pytest.approx(
                ew.expected_payoff(rho, ew.Witness(w)), abs=1e-12)

    def test_identity_labels_all_plus(self):
        cfg = ew.GameConfig.uniform(5_000, seed=1, n_parties=3)
        tr = ew.run_game(cfg, ew.honest_strategy(ew.ghz_state()), ew.ghz_witness().weights,
                         keep_records=True)
        labels, answers, _ = decode_rounds(tr)
        for col in range(3):
            assert np.all(answers[labels[:, col] == 0, col] == 1)

    def test_deterministic(self):
        cfg = ew.GameConfig.uniform(20_000, seed=77, n_parties=3)
        strat = ew.honest_strategy(ew.ghz_state())
        w = ew.ghz_witness().weights
        t1 = ew.run_game(cfg, strat, w, keep_records=True)
        t2 = ew.run_game(cfg, strat, w, keep_records=True)
        assert t1.joint.tobytes() == t2.joint.tobytes()
        assert np.array_equal(t1.counts, t2.counts)

    def test_support_violation(self):
        pi = np.zeros((4, 4, 4))
        pi[0, 0, 0] = 1.0
        cfg = ew.GameConfig(pi, 10, seed=0)
        with pytest.raises(ValueError, match="nonzero weight"):
            ew.run_game(cfg, ew.honest_strategy(ew.ghz_state()), ew.ghz_witness().weights)

    def test_party_count_guards(self):
        cfg2 = ew.GameConfig.uniform(10, seed=0, n_parties=2)
        with pytest.raises(ValueError):
            ew.run_game(cfg2, ew.honest_strategy(ew.ghz_state()), ew.ghz_witness().weights)

    def test_csv_has_three_party_columns(self):
        cfg = ew.GameConfig.uniform(50, seed=0, n_parties=3)
        tr = ew.run_game(cfg, ew.honest_strategy(ew.ghz_state()), ew.ghz_witness().weights,
                         keep_records=True)
        header = next(tr.csv_lines())
        assert header == "i,j,k,a,b,c,payoff\n"
