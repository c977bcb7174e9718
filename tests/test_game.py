import time
import tracemalloc
from dataclasses import fields
from functools import reduce
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ewgame as ew
from conftest import decode_rounds
from ewgame import game, qcore

RT2 = np.sqrt(2.0)
RT3 = np.sqrt(3.0)
UNIFORM_PI = np.full((4, 4), 1 / 16)


def born_rule_table(rho):
    """Independent oracle: Tr(rho P_1 (x) ... (x) P_n) from explicit Kronecker
    products of the answer projectors, one label cell and outcome at a time."""
    n = rho.n_qubits
    eye = np.eye(2)
    projs = [(eye, np.zeros((2, 2)))] + [
        ((eye + ew.pauli_string((l,))) / 2, (eye - ew.pauli_string((l,))) / 2)
        for l in range(1, 4)]
    table = np.empty((4,) * n + (2 ** n,))
    for labels in product(range(4), repeat=n):
        for k, bits in enumerate(product((0, 1), repeat=n)):
            op = reduce(np.kron, [projs[l][b] for l, b in zip(labels, bits)])
            table[labels + (k,)] = np.trace(rho.matrix @ op).real
    return table


def decode_answers(outcome, n):
    """Independent oracle for the outcome index: party j's answer is the j-th
    bit from the left, with 0 meaning +1 and 1 meaning -1."""
    return tuple(1 - 2 * ((outcome >> (n - 1 - j)) & 1) for j in range(n))


def sample_cheat_answers(rng, rounds):
    """Independent sampler for the classical cheat: three fresh shared bits per
    round; Alice answers (1, b1, b2, b3)[s], Bob (1, b1, -b2, b3)[t].
    Returns answer arrays of shape (rounds, 4) indexed by label."""
    bits = 1 - 2 * rng.integers(0, 2, size=(rounds, 3))
    ones = np.ones((rounds, 1), dtype=bits.dtype)
    alice = np.hstack([ones, bits])
    bob = np.hstack([ones, bits[:, :1], -bits[:, 1:2], bits[:, 2:]])
    return alice, bob


def random_strategy_game(rng, zero_cells):
    # random pi with some dead cells, weights supported where pi is live,
    # and a random outcome table
    pi = rng.dirichlet(np.ones(16))
    pi[rng.choice(16, size=zero_cells, replace=False)] = 0.0
    pi = (pi / pi.sum()).reshape(4, 4)
    weights = ew.PauliWeights(2, np.where(pi > 0, rng.normal(size=(4, 4)), 0.0))
    table = rng.dirichlet(np.ones(4), size=16).reshape(4, 4, 4)
    return pi, weights, ew.Strategy(name="random", outcome_table=table)


class TestOutcomeDistribution:
    def test_bell_state_xx(self):
        v = game.outcome_table(ew.bell_psi_plus())[1, 1]
        assert np.allclose(v, [0.5, 0.0, 0.0, 0.5], atol=1e-12)

    def test_identity_labels_answer_plus_one(self, rng):
        rho = ew.random_density_matrix(rng, 4)
        v = game.outcome_table(rho)[0, 0]
        assert np.allclose(v, [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_maximally_mixed_zz(self):
        v = game.outcome_table(ew.maximally_mixed(2))[3, 3]
        assert np.allclose(v, [0.25] * 4, atol=1e-12)

    def test_normalization_random_states(self, rng):
        for _ in range(20):
            rho = ew.random_density_matrix(rng, 4)
            table = game.outcome_table(rho)
            for s in range(4):
                for t in range(4):
                    v = table[s, t]
                    assert v.min() > -1e-10
                    assert v.sum() == pytest.approx(1.0, abs=1e-10)

    def test_matches_projector_traces(self, rng):
        # independent projector-trace oracle
        rho = ew.random_density_matrix(rng, 4)
        table = game.outcome_table(rho)
        eye = np.eye(2)
        for s in range(1, 4):
            for t in range(1, 4):
                v = table[s, t]
                for k, (a, b) in enumerate([(1, 1), (1, -1), (-1, 1), (-1, -1)]):
                    pa = (eye + a * ew.pauli_string((s,))) / 2
                    pb = (eye + b * ew.pauli_string((t,))) / 2
                    direct = np.trace(rho.matrix @ np.kron(pa, pb)).real
                    assert v[k] == pytest.approx(direct, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([2, 3]),
           rank=st.integers(1, 8))
    def test_table_matches_born_rule_oracle(self, seed, n, rank):
        gen = np.random.default_rng(seed)
        shape = (2 ** n, min(rank, 2 ** n))
        g = gen.normal(size=shape) + 1j * gen.normal(size=shape)
        m = g @ g.conj().T
        rho = ew.DensityMatrix(m / m.trace())
        assert np.max(np.abs(game.outcome_table(rho) - born_rule_table(rho))) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_outcome_parity_is_product_of_answers(n):
    parity = game.outcome_parity(n)
    expect = [int(np.prod(decode_answers(k, n))) for k in range(2 ** n)]
    assert parity.tolist() == expect
    assert not parity.flags.writeable


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([2, 3]), dead=st.integers(0, 6))
def test_payoff_table_matches_the_cell_formula_bit_for_bit(seed, n, dead):
    # -w * parity / pi one cell and outcome at a time, +0.0 where pi is 0;
    # zero weights of both signs included
    gen = np.random.default_rng(seed)
    pi = gen.dirichlet(np.ones(4 ** n))
    pi[gen.choice(4 ** n, size=dead, replace=False)] = 0.0
    w = gen.normal(size=4 ** n)
    w[gen.choice(4 ** n, size=4, replace=False)] = [0.0, -0.0, 0.0, -0.0]
    expect = np.zeros((4 ** n, 2 ** n))
    for cell, k in product(range(4 ** n), range(2 ** n)):
        if pi[cell] > 0.0:
            expect[cell, k] = -w[cell] * game.outcome_parity(n)[k] / pi[cell]
    table = game.payoff_table(pi.reshape((4,) * n), ew.PauliWeights(n, w.reshape((4,) * n)))
    assert table.tobytes() == expect.tobytes()


class TestGameConfig:
    def test_uniform_sums_to_one(self):
        cfg = ew.GameConfig.uniform(10, seed=0)
        assert cfg.pi.shape == (4, 4)
        assert cfg.pi.sum() == pytest.approx(1.0, abs=1e-15)

    def test_support_only_restricts_to_nonzero_weights(self):
        w = ew.werner_witness().weights
        cfg = ew.GameConfig.support_only(w, 10, seed=0)
        assert np.all((cfg.pi > 0) == (w.table != 0))
        assert cfg.pi.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_bad_pi(self):
        with pytest.raises(ValueError):
            ew.GameConfig(np.full((4, 4), 1 / 16) * 2, 10, 0)
        bad = np.full((4, 4), 1 / 16)
        bad[0, 0] = -1 / 16
        bad[0, 1] = 3 / 16
        with pytest.raises(ValueError):
            ew.GameConfig(bad, 10, 0)
        with pytest.raises(ValueError):
            ew.GameConfig(np.full((4, 4), 1 / 16), 0, 0)

    def test_rejects_non_finite_pi(self):
        pi = np.full((4, 4), 1 / 16)
        pi[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            ew.GameConfig(pi, 10, 0)

    def test_rejects_non_integer_rounds(self):
        with pytest.raises(ValueError, match="integer"):
            ew.GameConfig.uniform(1000.5, 0)

    def test_rejects_bool_rounds(self):
        with pytest.raises(ValueError, match="integer"):
            ew.GameConfig.uniform(True, 0)

    def test_rejects_rounds_beyond_int64(self):
        assert ew.GameConfig.uniform(2 ** 63 - 1, 0).rounds == 2 ** 63 - 1
        with pytest.raises(ValueError, match="rounds"):
            ew.GameConfig.uniform(2 ** 63, 0)
        with pytest.raises(ValueError, match="rounds"):
            ew.GameConfig.uniform(10 ** 20, 0)

    @pytest.mark.parametrize("seed", [1.5, "abc", True, -1, np.int64(-3), None])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(ValueError) as err:
            ew.GameConfig.uniform(100, seed=seed)
        assert str(err.value) == f"seed must be a nonnegative integer, got {seed!r}"

    @pytest.mark.parametrize("seed", [0, np.int64(5), np.uint64(7), 10 ** 400])
    def test_accepts_any_nonnegative_integer_seed(self, seed):
        cfg = ew.GameConfig.uniform(100, seed=seed)
        tr = ew.run_game(cfg, ew.classical_cheat_strategy(), ew.werner_witness().weights)
        assert tr.rounds == 100

    def test_support_violation_fails_before_any_round(self):
        pi = np.zeros((4, 4))
        pi[0, 0] = 1.0
        cfg = ew.GameConfig(pi, 10, seed=0)
        with pytest.raises(ValueError, match="nonzero weight"):
            ew.run_game(cfg, ew.honest_strategy(ew.bell_psi_plus()),
                        ew.werner_witness().weights)


class TestExactAveragePayoff:
    """exact_average_payoff rejects what run_game and Strategy reject,
    instead of returning a number for it."""

    @staticmethod
    def bell_table():
        return ew.honest_strategy(ew.make_werner(1.0)).outcome_table

    def test_pi_must_draw_every_weighted_cell(self):
        pi = np.full((4, 4), 1 / 16)
        pi[1, 1] = 0.0
        with pytest.raises(ValueError) as err:
            ew.exact_average_payoff(pi / pi.sum(), self.bell_table(),
                                    ew.werner_witness().weights)
        assert str(err.value) == "pi is zero on cells with nonzero weight: [(1, 1)]"

    def test_outcome_rows_must_be_distributions(self):
        with pytest.raises(ValueError) as err:
            ew.exact_average_payoff(np.full((4, 4), 1 / 16), np.ones((4, 4, 4)),
                                    ew.werner_witness().weights)
        assert str(err.value) == "outcome probabilities must sum to 1 in every label cell"

    def test_pi_must_be_finite(self):
        pi = np.full((4, 4), 1 / 16)
        pi[2, 3] = np.nan
        with pytest.raises(ValueError) as err:
            ew.exact_average_payoff(pi, self.bell_table(), ew.werner_witness().weights)
        assert str(err.value) == "pi entries must be finite"

    def test_weights_must_have_pi_party_count(self):
        with pytest.raises(ValueError) as err:
            ew.exact_average_payoff(np.full((4, 4), 1 / 16), self.bell_table(),
                                    ew.ghz_witness().weights)
        assert str(err.value) == "weights and config have different party counts"

    def test_table_must_cover_pi_cells(self):
        table = ew.honest_strategy(ew.ghz_state()).outcome_table
        with pytest.raises(ValueError) as err:
            ew.exact_average_payoff(np.full((4, 4), 1 / 16), table,
                                    ew.werner_witness().weights)
        assert str(err.value) == "strategy outcome table does not match pi's shape"


class TestHonestStrategy:
    def test_identity_label_records_plus_one(self):
        strat = ew.honest_strategy(ew.bell_psi_plus())
        cfg = ew.GameConfig.uniform(20_000, seed=3)
        tr = ew.run_game(cfg, strat, ew.werner_witness().weights, keep_records=True)
        labels, answers, _ = decode_rounds(tr)
        a_vals = answers[labels[:, 0] == 0, 0]
        b_vals = answers[labels[:, 1] == 0, 1]
        assert np.all(a_vals == 1)
        assert np.all(b_vals == 1)

    def test_marginals_converge_to_correlations(self):
        # each cell's mean answer product approaches Tr(rho sigma_s x sigma_t)
        rho = ew.make_werner(0.7)
        r = qcore.pauli_traces(rho.matrix)
        tr = ew.run_game(ew.GameConfig.uniform(1_000_000, seed=11),
                         ew.honest_strategy(rho), ew.werner_witness().weights)
        counts = tr.counts.reshape(4, 4)
        means = tr.parity_sums.reshape(4, 4) / counts
        se = np.sqrt(np.clip(1 - r ** 2, 0, None) / counts)
        assert np.all(np.abs(means - r) <= 4 * se + 1e-12)

    def test_empirical_payoff_matches_exact_bell(self):
        exact = ew.expected_payoff(ew.make_werner(1.0), ew.werner_witness())
        tr = ew.run_game(ew.GameConfig.uniform(1_000_000, seed=2),
                         ew.honest_strategy(ew.make_werner(1.0)),
                         ew.werner_witness().weights)
        mean, se = ew.empirical_payoff(tr)
        assert abs(mean - exact) <= 3 * se


    def test_born_rule_round_off_is_clipped(self):
        # four eigenvalues of -0.9e-10 pass DensityMatrix; the cells that
        # measure the third qubit's "-" outcome sum all four of them
        diag = np.full(8, (1 + 3.6e-10) / 4)
        diag[1::2] = -0.9e-10
        rho = ew.DensityMatrix(np.diag(diag))
        raw = game.outcome_table(rho)
        assert raw.min() == pytest.approx(-3.6e-10, rel=1e-6)
        table = ew.honest_strategy(rho).outcome_table
        assert table.min() == 0.0
        assert np.max(np.abs(table.sum(axis=-1) - 1.0)) <= 1e-15
        assert np.max(np.abs(table - raw)) <= 1e-9
        untouched = np.all(raw >= 0.0, axis=-1)
        assert table[untouched].tobytes() == raw[untouched].tobytes()

    def test_tables_without_negative_entries_are_unchanged(self, rng):
        checked = 0
        for n in (2, 3):
            for _ in range(10):
                rho = ew.random_density_matrix(rng, 2 ** n)
                raw = game.outcome_table(rho)
                if raw.min() >= 0.0:
                    assert ew.honest_strategy(rho).outcome_table.tobytes() == raw.tobytes()
                    checked += 1
        assert checked >= 10


class TestCheatStrategy:
    def test_enumerated_correlation_pattern(self):
        table = ew.classical_cheat_strategy().outcome_table
        parity = game.outcome_parity(2)
        corr = np.einsum("stk,k->st", table, parity.astype(float))
        assert corr[1, 1] == pytest.approx(1.0, abs=1e-15)
        assert corr[2, 2] == pytest.approx(-1.0, abs=1e-15)
        assert corr[3, 3] == pytest.approx(1.0, abs=1e-15)
        for s in range(1, 4):
            for t in range(1, 4):
                if s != t:
                    assert corr[s, t] == pytest.approx(0.0, abs=1e-15)

    def test_table_matches_bell_statistics(self):
        # the cheat reproduces the honest Bell-state table for these settings
        honest = game.outcome_table(ew.bell_psi_plus())
        cheat = ew.classical_cheat_strategy().outcome_table
        assert np.max(np.abs(honest - cheat)) < 1e-12

    def test_exact_expectation_equals_honest_bell_value(self):
        pi = np.full((4, 4), 1 / 16)
        val = ew.exact_average_payoff(pi, ew.classical_cheat_strategy().outcome_table,
                                      ew.werner_witness().weights)
        assert val == pytest.approx(2 * RT3 / 3, abs=1e-12)

    def test_sampled_cheat_matches_table(self, rng):
        # every cell's sampled answer frequencies agree with the enumerated table
        n = 40_000
        alice, bob = sample_cheat_answers(rng, n)
        table = ew.classical_cheat_strategy().outcome_table
        for s in range(4):
            for t in range(4):
                # outcome index: Alice's answer is the high bit, 1 meaning -1
                k = 2 * (alice[:, s] == -1) + (bob[:, t] == -1)
                freq = np.bincount(k, minlength=4) / n
                se = np.sqrt(table[s, t] * (1 - table[s, t]) / n)
                assert np.all(np.abs(freq - table[s, t]) <= 4 * se + 1e-12), (s, t)

    def test_empirical_payoff_reaches_ceiling(self):
        tr = ew.run_game(ew.GameConfig.uniform(1_000_000, seed=9),
                         ew.classical_cheat_strategy(), ew.werner_witness().weights)
        mean, se = ew.empirical_payoff(tr)
        assert abs(mean - 2 * RT3 / 3) <= 3 * se


class TestRunGame:
    def test_deterministic_transcripts(self):
        cfg = ew.GameConfig.uniform(50_000, seed=31)
        strat = ew.honest_strategy(ew.make_werner(0.8))
        w = ew.werner_witness().weights
        t1 = ew.run_game(cfg, strat, w, keep_records=True)
        t2 = ew.run_game(cfg, strat, w, keep_records=True)
        # a round's labels, answers and payment follow from joint and payments
        assert t1.joint.tobytes() == t2.joint.tobytes()
        assert t1.payments.tobytes() == t2.payments.tobytes()
        assert np.array_equal(t1.counts, t2.counts)
        assert np.array_equal(t1.payoff_sums, t2.payoff_sums)

    def test_seed_changes_transcript(self):
        strat = ew.honest_strategy(ew.make_werner(0.8))
        w = ew.werner_witness().weights
        t1 = ew.run_game(ew.GameConfig.uniform(10_000, seed=0), strat, w, keep_records=True)
        t2 = ew.run_game(ew.GameConfig.uniform(10_000, seed=1), strat, w, keep_records=True)
        assert not np.array_equal(t1.joint, t2.joint)

    def test_unbiasedness_identity(self, rng):
        # exhaustive enumeration over cells and outcomes for 100 random pairs
        pi = np.full((4, 4), 1 / 16)
        for _ in range(100):
            rho = ew.random_density_matrix(rng, 4)
            table = rng.uniform(-1, 1, size=(4, 4))
            wit = ew.Witness.from_weights(ew.PauliWeights(2, table))
            enumerated = ew.exact_average_payoff(pi, game.outcome_table(rho), wit.weights)
            assert enumerated == pytest.approx(ew.expected_payoff(rho, wit), abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([2, 3]),
           dead=st.integers(0, 8))
    def test_unbiasedness_over_random_pi_weights_states(self, seed, n, dead):
        # Pi * V * payment sums to -Tr(rho W) for any pi covering the support
        gen = np.random.default_rng(seed)
        pi = gen.dirichlet(np.ones(4 ** n))
        pi[gen.choice(4 ** n, size=dead, replace=False)] = 0.0
        pi = (pi / pi.sum()).reshape((4,) * n)
        table = np.where(pi > 0, gen.uniform(-1, 1, size=pi.shape), 0.0)
        wit = ew.Witness.from_weights(ew.PauliWeights(n, table))
        rho = ew.random_density_matrix(gen, 2 ** n)
        enumerated = ew.exact_average_payoff(pi, game.outcome_table(rho), wit.weights)
        assert enumerated == pytest.approx(ew.expected_payoff(rho, wit), abs=1e-12)

    def test_unbiasedness_holds_for_any_supported_pi(self, rng):
        w = ew.werner_witness().weights
        rho = ew.make_werner(0.9)
        cfg = ew.GameConfig.support_only(w, 10, seed=0)
        val = ew.exact_average_payoff(cfg.pi, game.outcome_table(rho), w)
        assert val == pytest.approx(ew.expected_payoff(rho, ew.werner_witness()), abs=1e-12)

    def test_payoff_recorded_exactly(self):
        cfg = ew.GameConfig.uniform(5_000, seed=17)
        w = ew.werner_witness().weights
        tr = ew.run_game(cfg, ew.honest_strategy(ew.make_werner(1.0)), w, keep_records=True)
        labels, answers, payoffs = decode_rounds(tr)
        for (s, t), (a, b), payoff in zip(labels.tolist(), answers.tolist(), payoffs.tolist()):
            assert payoff == -w.table[s, t] * a * b / cfg.pi[s, t]

    def test_streaming_discards_records(self, tmp_path):
        # records are opt-in at any round count, and to_csv needs them
        strat = ew.honest_strategy(ew.make_werner(0.5))
        w = ew.werner_witness().weights
        streamed = ew.run_game(ew.GameConfig.uniform(100, seed=0), strat, w)
        assert streamed.joint is None
        with pytest.raises(ValueError, match="streamed"):
            streamed.to_csv(tmp_path / "rounds.csv")
        kept = ew.run_game(ew.GameConfig.uniform(100_001, seed=0), strat, w,
                           keep_records=True)
        assert kept.joint.size == 100_001

    @pytest.mark.parametrize("flag", [None, 0, 1, "yes", np.True_])
    def test_keep_records_is_true_or_false(self, flag):
        with pytest.raises(ValueError, match="keep_records"):
            ew.run_game(ew.GameConfig.uniform(100, seed=0),
                        ew.honest_strategy(ew.make_werner(0.5)),
                        ew.werner_witness().weights, keep_records=flag)

    def test_always_plus_strategy(self):
        # deterministic all-plus answers: mean payoff enumerable by hand
        table = np.zeros((4, 4, 4))
        table[..., 0] = 1.0
        strat = ew.Strategy(name="always-plus", outcome_table=table)
        w = ew.werner_witness().weights
        cfg = ew.GameConfig.uniform(4_000, seed=5)
        tr = ew.run_game(cfg, strat, w)
        mean, se = ew.empirical_payoff(tr)
        # payoff is -16 w[s,t] when cell (s,t) comes up; expectation -sum(w)
        counts = tr.counts.reshape(4, 4)
        expect = (counts * (-16.0) * w.table / cfg.rounds).sum()
        assert mean == pytest.approx(expect, abs=1e-10)

    def test_strategy_must_match_the_party_count(self):
        with pytest.raises(ValueError) as err:
            ew.run_game(ew.GameConfig.uniform(100, seed=0), ew.honest_strategy(ew.ghz_state()),
                        ew.werner_witness().weights)
        assert str(err.value) == "strategy outcome table does not match pi's shape"

    def test_zero_probability_cells_never_sampled(self, rng):
        pi, weights, strat = random_strategy_game(rng, zero_cells=6)
        tr = ew.run_game(ew.GameConfig(pi, 50_000, seed=21), strat, weights)
        assert np.all(tr.counts[pi.ravel() == 0.0] == 0)
        assert tr.counts.sum() == 50_000

    def test_cell_frequencies_match_pi(self, rng):
        pi, weights, strat = random_strategy_game(rng, zero_cells=0)
        n = 400_000
        tr = ew.run_game(ew.GameConfig(pi, n, seed=22), strat, weights)
        freq = tr.counts / n
        p = pi.ravel()
        se = np.sqrt(p * (1 - p) / n)
        assert np.all(np.abs(freq - p) <= 5 * se + 1e-9)

    def test_mean_within_three_sigma_over_seeds(self):
        exact = ew.expected_payoff(ew.bell_psi_plus(), ew.werner_witness())
        strat = ew.honest_strategy(ew.bell_psi_plus())
        w = ew.werner_witness().weights
        hits = 0
        for seed in range(100):
            tr = ew.run_game(ew.GameConfig.uniform(10_000, seed=seed), strat, w)
            mean, se = ew.empirical_payoff(tr)
            hits += abs(mean - exact) <= 3 * se
        assert hits >= 99

    def test_positive_mean_implies_npt(self, rng):
        # any clearly positive honest mean must come from an NPT state
        w = ew.werner_witness()
        for _ in range(30):
            if rng.uniform() < 0.5:
                rho = ew.random_separable(rng, k=int(rng.integers(1, 4)))
            else:
                rho = ew.random_density_matrix(rng, 4)
            tr = ew.run_game(ew.GameConfig.uniform(100_000, seed=int(rng.integers(1 << 31))),
                             ew.honest_strategy(rho), w.weights)
            mean, se = ew.empirical_payoff(tr)
            if mean > 3 * se:
                lam = np.linalg.eigvalsh(ew.partial_transpose(rho))[0]
                assert lam < 0, "positive payoff from a PPT state"


def parity_pair_game(gen, n, dead):
    """Random pi with dead cells, weights on the live cells, and a table that
    gives each cell one even- and one odd-parity outcome.  A cell's count
    matrix row is then recoverable from its count and parity sum."""
    parity = game.outcome_parity(n)
    even, odd = np.flatnonzero(parity == 1), np.flatnonzero(parity == -1)
    cells = 4 ** n
    pi = gen.dirichlet(np.ones(cells))
    pi[gen.choice(cells, size=dead, replace=False)] = 0.0
    pi /= pi.sum()
    table = np.zeros((cells, 2 ** n))
    p_even = gen.uniform(0.05, 0.95, size=cells)
    table[np.arange(cells), gen.choice(even, size=cells)] = p_even
    table[np.arange(cells), gen.choice(odd, size=cells)] = 1.0 - p_even
    weights = ew.PauliWeights(n, np.where(pi > 0, gen.normal(size=cells), 0.0)
                              .reshape((4,) * n))
    return (pi.reshape((4,) * n), weights,
            ew.Strategy(name="pairs", outcome_table=table.reshape((4,) * n + (2 ** n,))))


class TestStreamedCounts:
    @pytest.mark.parametrize("n,dead", [(2, 5), (3, 20)])
    def test_counts_match_pi_times_table(self, n, dead):
        gen = np.random.default_rng(40 + n)
        pi, weights, strat = parity_pair_game(gen, n, dead)
        rounds = 2_000_000
        tr = ew.run_game(ew.GameConfig(pi, rounds, seed=n), strat, weights,
                         keep_records=False)
        assert tr.joint is None
        live = pi.ravel() > 0
        assert np.all(tr.counts[~live] == 0)
        assert tr.counts.sum() == rounds
        # each cell has one even- and one odd-parity outcome, so its row of
        # the count matrix is (count + parity sum) / 2 on the even outcome
        table = strat.outcome_table.reshape(4 ** n, -1)
        even = game.outcome_parity(n) == 1
        got = np.stack([tr.counts + tr.parity_sums, tr.counts - tr.parity_sums], axis=1) // 2
        q = pi.ravel()[:, None] * np.stack(
            [table[:, even].sum(axis=1), table[:, ~even].sum(axis=1)], axis=1)
        se = np.sqrt(rounds * q * (1 - q))
        assert np.all(np.abs(got - rounds * q) <= 4 * se)
        # payment -w * parity / pi per round
        w = weights.table.ravel()
        pay = np.divide(-w, pi.ravel(), out=np.zeros_like(w), where=live)
        assert np.allclose(tr.payoff_sums, pay * tr.parity_sums, rtol=1e-12, atol=1e-9)

    def test_same_seed_moments_are_byte_equal(self):
        strat = ew.honest_strategy(ew.ghz_state())
        w = ew.ghz_witness().weights
        cfg = ew.GameConfig.uniform(3_000_000, seed=77, n_parties=3)
        t1, t2 = (ew.run_game(cfg, strat, w) for _ in range(2))
        # every moment is a function of the count matrix
        assert t1.count_matrix.tobytes() == t2.count_matrix.tobytes()
        other = ew.run_game(ew.GameConfig.uniform(3_000_000, seed=78, n_parties=3), strat, w)
        assert not np.array_equal(t1.counts, other.counts)

    def test_cost_does_not_grow_with_rounds(self):
        strat = ew.honest_strategy(ew.make_werner(1.0))
        w = ew.werner_witness().weights
        cfg = ew.GameConfig.uniform(10 ** 9, seed=5)
        t0 = time.perf_counter()
        tr = ew.run_game(cfg, strat, w)
        elapsed = time.perf_counter() - t0
        assert tr.counts.sum() == 10 ** 9
        assert elapsed < 0.25, f"10^9 streamed rounds took {elapsed:.3f} s"
        mean, se = ew.empirical_payoff(tr)
        assert abs(mean - 2 / RT3) <= 4 * se

    def test_sums_at_the_tolerance(self):
        # GameConfig accepts a pi summing to within 1e-12 of 1 and Strategy
        # rows summing to within 1e-10; numpy's multinomial rejects
        # probabilities before the last summing above 1 + 1e-12.  Zero last
        # entries put all of the excess in front of the last category.
        pi = np.full(16, 1 / 15 * (1 + 0.9e-12))
        pi[-1] = 0.0
        table = np.zeros((4, 4, 4))
        table[..., :2] = 0.5 * (1 + 0.9e-10)
        w = np.where(pi > 0, 1.0, 0.0).reshape(4, 4)
        cfg = ew.GameConfig(pi.reshape(4, 4), 1_000_000, seed=3)
        assert cfg.pi.sum() > 1.0
        tr = ew.run_game(cfg, ew.Strategy(name="edge", outcome_table=table),
                         ew.PauliWeights(2, w), keep_records=False)
        assert tr.counts.sum() == 1_000_000 and tr.counts[-1] == 0


class TestRecordedMoments:
    @pytest.mark.parametrize("state,wit,n", [
        (ew.make_werner(0.8), ew.werner_witness(), 2), (ew.ghz_state(), ew.ghz_witness(), 3)])
    def test_moments_equal_sums_over_records(self, state, wit, n):
        cfg = ew.GameConfig.uniform(20_000, seed=2024, n_parties=n)
        tr = ew.run_game(cfg, ew.honest_strategy(state), wit.weights, keep_records=True)
        labels, answers, payoffs = decode_rounds(tr)
        cells = np.ravel_multi_index(labels.T, cfg.pi.shape)
        parity = answers.prod(axis=1, dtype=np.int64)
        assert np.array_equal(tr.counts, np.bincount(cells, minlength=4 ** n))
        assert np.array_equal(tr.parity_sums,
                              np.bincount(cells, weights=parity, minlength=4 ** n))
        expect = np.bincount(cells, weights=payoffs, minlength=4 ** n)
        assert np.allclose(tr.payoff_sums, expect, rtol=1e-12, atol=1e-12)


class TestRecordsFromCounts:
    @pytest.mark.parametrize("state,wit,n", [
        (ew.make_werner(0.8), ew.werner_witness(), 2), (ew.ghz_state(), ew.ghz_witness(), 3)])
    @pytest.mark.parametrize("seed", [0, 31, 2024])
    def test_both_paths_give_one_estimate(self, state, wit, n, seed):
        cfg = ew.GameConfig.uniform(20_000, seed=seed, n_parties=n)
        strat = ew.honest_strategy(state)
        kept = ew.run_game(cfg, strat, wit.weights, keep_records=True)
        streamed = ew.run_game(cfg, strat, wit.weights, keep_records=False)
        assert kept.joint is not None and streamed.joint is None
        # every moment is a function of the count matrix
        assert kept.count_matrix.tobytes() == streamed.count_matrix.tobytes()
        assert ew.empirical_payoff(kept) == ew.empirical_payoff(streamed)

    @pytest.mark.parametrize("n", [2, 3])
    def test_records_are_a_permutation_of_the_count_matrix(self, n):
        # the scheme written out: counts-v1's N, then one rng.permutation of
        # the rounds it holds; the decoder checked one round at a time
        gen = np.random.default_rng(60 + n)
        pi, weights, strat = parity_pair_game(gen, n, dead=3)
        cfg = ew.GameConfig(pi, 5_000, seed=9)
        tr = ew.run_game(cfg, strat, weights, keep_records=True)
        rng = np.random.default_rng(9)
        rows = strat.outcome_table.reshape(4 ** n, -1)
        counts = rng.multinomial(rng.multinomial(5_000, pi.ravel() / pi.sum()), rows)
        joint = rng.permutation(np.repeat(np.arange(counts.size), counts.ravel()))
        assert tr.joint.tobytes() == joint.tobytes()
        cells, outcomes = np.divmod(joint, 2 ** n)
        labels, answers, payoffs = decode_rounds(tr)
        assert labels.tolist() == [list(np.unravel_index(c, pi.shape)) for c in cells]
        assert answers.tolist() == [list(decode_answers(k, n)) for k in outcomes]
        pays = game.payoff_table(cfg.pi, weights)
        assert payoffs.tobytes() == pays[cells, outcomes].tobytes()

    def test_records_are_shuffled_not_grouped_by_cell(self):
        rounds = 20_000
        cfg = ew.GameConfig.uniform(rounds, seed=12)
        tr = ew.run_game(cfg, ew.honest_strategy(ew.make_werner(0.8)),
                         ew.werner_witness().weights, keep_records=True)
        half = rounds // 2
        p = 1 / 16
        se = np.sqrt(half * p * (1 - p))
        cells = tr.joint >> 2
        for part in (cells[:half], cells[half:]):
            counts = np.bincount(part, minlength=16)
            assert np.all(np.abs(counts - half * p) <= 5 * se), counts

    def test_records_memory_per_round(self):
        rounds = 200_000
        strat = ew.honest_strategy(ew.make_werner(0.8))
        w = ew.werner_witness().weights
        cfg = ew.GameConfig.uniform(rounds, seed=4)
        ew.run_game(ew.GameConfig.uniform(100, seed=4), strat, w)  # warm caches
        tracemalloc.start()
        try:
            tr = ew.run_game(cfg, strat, w, keep_records=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tr.joint.size == rounds
        assert peak / rounds < 32, f"{peak / rounds:.1f} B/round"

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_lookup_tables(self, n):
        answers, labels = game._answer_table(n), game._label_table(n)
        assert answers.dtype == labels.dtype == np.int8
        assert not answers.flags.writeable and not labels.flags.writeable
        assert answers.tolist() == [list(decode_answers(k, n)) for k in range(2 ** n)]
        assert labels.tolist() == [list(c) for c in product(range(4), repeat=n)]


class TestStrategy:
    def test_rejects_wrong_shape(self):
        for shape in [(4, 4), (4, 4, 3), (3, 4, 4), (4, 4, 4, 4)]:
            with pytest.raises(ValueError, match="shape"):
                ew.Strategy(name="bad", outcome_table=np.full(shape, 1 / shape[-1]))

    def test_rejects_negative_entry(self):
        table = np.full((4, 4, 4), 0.25)
        table[1, 2] = [0.75, 0.5, -0.25, 0.0]
        with pytest.raises(ValueError, match="negative"):
            ew.Strategy(name="bad", outcome_table=table)

    def test_rejects_rows_not_summing_to_one(self):
        table = np.full((4, 4, 4), 0.25)
        table[3, 0, 1] = 0.3
        with pytest.raises(ValueError, match="sum to 1"):
            ew.Strategy(name="bad", outcome_table=table)
        table[3, 0, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            ew.Strategy(name="bad", outcome_table=table)

    def test_table_is_a_frozen_copy(self):
        table = np.full((4, 4, 4), 0.25)
        strat = ew.Strategy(name="uniform", outcome_table=table)
        table[0, 0] = [1.0, 0.0, 0.0, 0.0]
        assert np.all(strat.outcome_table == 0.25)
        with pytest.raises(ValueError):
            strat.outcome_table[0, 0, 0] = 1.0


class TestEmpiricalPayoff:
    def test_constant_payoffs(self):
        # support-only game over a single-cell weight table pays a constant
        for weight, rounds in ((0.7, 500), (0.1, 1_000_000), (1 / 3, 1_000_000)):
            table = np.zeros((4, 4))
            table[0, 0] = weight
            w = ew.PauliWeights(2, table)
            cfg = ew.GameConfig.support_only(w, rounds, seed=0)
            tr = ew.run_game(cfg, ew.honest_strategy(ew.maximally_mixed(2)), w)
            mean, se = ew.empirical_payoff(tr)
            assert mean == pytest.approx(-weight, abs=1e-12)
            assert se == 0.0, (weight, rounds)

    def test_alternating_signs(self):
        n = 10_000
        counts = np.zeros((16, 4), dtype=np.int64)
        counts[0, :2] = n // 2
        # -w * parity / pi pays +1 on outcome 0 and -1 on outcome 1
        table = np.zeros((4, 4))
        table[0, 0] = -1 / 16
        tr = ew.Transcript(counts, UNIFORM_PI, ew.PauliWeights(2, table), seed=0)
        assert tr.payments[0, :2].tolist() == [1.0, -1.0]
        mean, se = ew.empirical_payoff(tr)
        assert mean == pytest.approx(0.0, abs=1e-12)
        assert se == pytest.approx(1 / np.sqrt(n), rel=1e-3)

    def test_needs_two_rounds(self):
        counts = np.zeros((16, 4), dtype=np.int64)
        counts[0, 0] = 1
        tr = ew.Transcript(counts, UNIFORM_PI, ew.werner_witness().weights, seed=0)
        with pytest.raises(ValueError):
            ew.empirical_payoff(tr)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([2, 3]),
           rounds=st.integers(2, 3_000))
    def test_standard_error_matches_the_records(self, seed, n, rounds):
        gen = np.random.default_rng(seed)
        pi = gen.dirichlet(np.ones(4 ** n)).reshape((4,) * n)
        weights = ew.PauliWeights(n, gen.normal(size=(4,) * n))
        table = gen.dirichlet(np.ones(2 ** n), size=4 ** n).reshape((4,) * n + (2 ** n,))
        tr = ew.run_game(ew.GameConfig(pi, rounds, seed), ew.Strategy("random", table),
                         weights, keep_records=True)
        mean, se = ew.empirical_payoff(tr)
        _, _, payoffs = decode_rounds(tr)
        assert mean == pytest.approx(payoffs.mean(), rel=1e-12, abs=1e-12)
        expect = np.std(payoffs, ddof=1) / np.sqrt(rounds)
        assert se == pytest.approx(expect, rel=1e-12, abs=1e-300)


class TestTranscript:
    @staticmethod
    def two_rounds(counts=None, pi=UNIFORM_PI, weights=ew.werner_witness().weights, seed=0):
        """A transcript of two rounds in cell 0, outcome 0 of the uniform
        werner game, with any one of its inputs replaced."""
        if counts is None:
            counts = np.zeros((16, 4), dtype=np.int64)
            counts[0, 0] = 2
        return ew.Transcript(counts, pi, weights, seed=seed)

    def test_stores_each_quantity_once(self):
        cfg = ew.GameConfig.uniform(2_000, seed=8)
        w = ew.werner_witness().weights
        tr = ew.run_game(cfg, ew.honest_strategy(ew.make_werner(0.8)), w, keep_records=True)
        assert [f.name for f in fields(tr) if f.init] == ["count_matrix", "pi", "weights", "seed"]
        assert tr.count_matrix.dtype == tr.joint.dtype == np.int64
        assert tr.payments.tobytes() == game.payoff_table(cfg.pi, w).tobytes()
        assert tr.pi.tobytes() == cfg.pi.tobytes() and tr.weights is w
        for array in (tr.count_matrix, tr.pi, tr.payments, tr.joint):
            assert not array.flags.writeable
        assert (tr.rounds, tr.n_parties, tr.seed) == (2_000, 2, 8)
        for name in ("count_matrix", "payments", "joint", "counts", "payoff_sums"):
            with pytest.raises(AttributeError):
                setattr(tr, name, None)

    @pytest.mark.parametrize("pi,message", [
        (np.full((4, 4), 1 / 15), "pi must sum to 1, got 1.06666666666667"),
        (np.full((4, 4), np.nan), "pi entries must be finite"),
        (np.full((4, 2), 1 / 8), "pi must have shape (4, 4) or (4, 4, 4), got (4, 2)"),
    ], ids=["sum", "nan", "shape"])
    def test_rejects_what_pi_table_rejects(self, pi, message):
        with pytest.raises(ValueError) as err:
            self.two_rounds(pi=pi)
        assert str(err.value) == message

    def test_rejects_weights_that_are_not_pauli_weights(self):
        with pytest.raises(ValueError) as err:
            self.two_rounds(weights=ew.werner_witness().weights.table)
        assert str(err.value) == "weights must be a PauliWeights, got ndarray"

    def test_rejects_weights_of_another_party_count(self):
        with pytest.raises(ValueError) as err:
            self.two_rounds(weights=ew.ghz_witness().weights)
        assert str(err.value) == "weights and config have different party counts"

    def test_rejects_a_weighted_cell_pi_never_draws(self):
        pi = np.full((4, 4), 1 / 15)
        pi[1, 1] = 0.0
        with pytest.raises(ValueError) as err:
            self.two_rounds(pi=pi)
        assert str(err.value) == "pi is zero on cells with nonzero weight: [(1, 1)]"

    def test_rejects_rounds_in_a_cell_pi_never_draws(self):
        pi = np.full((4, 4), 1 / 15)
        pi[0, 2] = 0.0
        counts = np.zeros((16, 4), dtype=np.int64)
        counts[2, 3] = 1
        with pytest.raises(ValueError) as err:
            self.two_rounds(counts=counts, pi=pi)
        assert str(err.value) == "count matrix has rounds in cells pi never draws"

    def test_rejects_malformed_tables(self):
        # (64, 8) is a three-party count matrix; pi is two-party
        for shape in ((16, 3), (4, 4), (16,), (64, 8)):
            with pytest.raises(ValueError) as err:
                self.two_rounds(counts=np.zeros(shape, dtype=np.int64))
            assert str(err.value) == ("count matrix must have shape (16, 4) for a 2-party pi, "
                                      f"got {shape}")

    @pytest.mark.parametrize("count", [2.7, -1, np.inf, 2.0 ** 63, "2", 2 ** 64 - 1])
    def test_counts_are_nonnegative_integers(self, count):
        # 2^64 - 1 fills a uint64 table, which int64 cannot hold
        with pytest.raises(ValueError, match="counts must be nonnegative integers"):
            self.two_rounds(counts=np.full((16, 4), count))

    @pytest.mark.parametrize("seed", [-7, 1.5, True, None])
    def test_seed_is_a_nonnegative_integer(self, seed):
        with pytest.raises(ValueError) as err:
            self.two_rounds(seed=seed)
        assert str(err.value) == f"seed must be a nonnegative integer, got {seed!r}"

    def test_integral_float_counts(self):
        tr = self.two_rounds(counts=np.full((16, 4), 2.0), seed=np.int64(3))
        assert tr.count_matrix.dtype == np.int64 and tr.rounds == 128 and tr.seed == 3
        assert tr.joint is None

    def test_run_game_rejects_weights_before_building_records(self):
        # 2^62 records would take 32 EiB; the support check runs first
        pi = np.full((4, 4), 1 / 15)
        pi[1, 1] = 0.0
        with pytest.raises(ValueError, match="nonzero weight"):
            ew.run_game(ew.GameConfig(pi, 2 ** 62, seed=0), ew.classical_cheat_strategy(),
                        ew.werner_witness().weights, keep_records=True)


def row_loop_csv(tr, path):
    """Transcript.to_csv as ewgame 0.1.0 wrote it, one round per write."""
    label_cols = ["s", "t"] if tr.n_parties == 2 else ["i", "j", "k"]
    answer_cols = ["a", "b", "c"][: tr.n_parties]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(label_cols + answer_cols + ["payoff"]) + "\n")
        for lab, ans, pay in zip(*decode_rounds(tr)):
            cells = [str(int(x)) for x in lab] + [str(int(x)) for x in ans]
            fh.write(",".join(cells + [f"{pay:.17g}"]) + "\n")


class TestTranscriptCsv:
    @pytest.mark.parametrize("state,wit,n", [
        (ew.make_werner(0.8), ew.werner_witness(), 2),
        (ew.ghz_state(), ew.ghz_witness(), 3),
    ])
    def test_matches_row_loop(self, tmp_path, state, wit, n):
        rounds = 2 * game.CSV_BLOCK_ROWS + 5
        tr = ew.run_game(ew.GameConfig.uniform(rounds, seed=6, n_parties=n),
                         ew.honest_strategy(state), wit.weights, keep_records=True)
        row_loop_csv(tr, tmp_path / "loop.csv")
        tr.to_csv(tmp_path / "block.csv")
        assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()

    def test_round_trip(self, tmp_path):
        cfg = ew.GameConfig.uniform(200, seed=4)
        w = ew.werner_witness().weights
        tr = ew.run_game(cfg, ew.honest_strategy(ew.make_werner(0.9)), w, keep_records=True)
        path = tmp_path / "rounds.csv"
        tr.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "s,t,a,b,payoff"
        assert len(lines) == 201
        s, t, a, b, payoff = lines[1].split(",")
        labels, answers, payoffs = decode_rounds(tr)
        assert [int(s), int(t)] == labels[0].tolist()
        assert [int(a), int(b)] == answers[0].tolist()
        assert float(payoff) == payoffs[0]


class TestChshValue:
    @pytest.mark.parametrize("z", [0.0, 0.3, 1 / RT2, 0.8, 1.0])
    def test_werner_value(self, z):
        rep = ew.chsh_value(ew.make_werner(z), *ew.xz_chsh_observables())
        assert abs(rep.value) == pytest.approx(2 * RT2 * z, abs=1e-12)

    def test_flags_flip_at_thresholds(self):
        eps = 1e-9
        below = ew.chsh_value(ew.make_werner(1 / RT2 - eps), *ew.xz_chsh_observables())
        above = ew.chsh_value(ew.make_werner(1 / RT2 + eps), *ew.xz_chsh_observables())
        assert not below.violates_classical
        assert above.violates_classical
        below_s = ew.chsh_value(ew.make_werner(0.5 - eps), *ew.xz_chsh_observables())
        above_s = ew.chsh_value(ew.make_werner(0.5 + eps), *ew.xz_chsh_observables())
        assert not below_s.violates_strengthened
        assert above_s.violates_strengthened

    def test_product_state_respects_classical_bound(self):
        ket00 = np.zeros((4, 4), dtype=complex)
        ket00[0, 0] = 1.0
        rep = ew.chsh_value(ew.DensityMatrix(ket00), *ew.xz_chsh_observables())
        assert abs(rep.value) <= 2.0 + 1e-12

    def test_maximally_mixed_is_zero(self):
        rep = ew.chsh_value(ew.maximally_mixed(2), *ew.xz_chsh_observables())
        assert rep.value == pytest.approx(0.0, abs=1e-12)

    def test_rejects_invalid_observables(self):
        a, a2, b, b2 = ew.xz_chsh_observables()
        with pytest.raises(ValueError):
            ew.chsh_value(ew.make_werner(1.0), 2 * a, a2, b, b2)
