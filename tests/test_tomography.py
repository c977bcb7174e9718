import json
from dataclasses import fields

import numpy as np
import pytest

import ewgame as ew
from ewgame import cli, qcore, tomography


def exact_moments(rho):
    """Infinite-sample correlations: each cell reports its exact Pauli trace."""
    return qcore.pauli_traces(rho.matrix)


def honest_transcript(rho, rounds, seed):
    return ew.run_game(ew.GameConfig.uniform(rounds, seed=seed),
                       ew.honest_strategy(rho), ew.werner_witness().weights)


def tomography_payload(capsys, rounds, seed):
    code = cli.main(["tomography", "--state", "werner(0.5)", "--rounds", str(rounds),
                     "--seed", str(seed), "--format", "structured"])
    assert code == 0
    return json.loads(capsys.readouterr().out)


class TestMoments:
    def test_exact_moments_reproduce_correlations(self):
        # every cell's counts are its outcome distribution times 1000 rounds
        rho = ew.make_werner(0.6)
        table = ew.honest_strategy(rho).outcome_table.reshape(16, 4) * 1000
        cfg = ew.GameConfig.uniform(16_000, seed=0)
        tr = ew.Transcript(np.round(table).astype(np.int64), cfg, ew.werner_witness().weights)
        assert np.max(np.abs(ew.accumulate(tr) - exact_moments(rho))) < 1e-15

    def test_incomplete_support_raises_with_cell_list(self):
        # diagonal-only label distribution leaves 12 cells unplayed
        w = ew.werner_witness().weights
        cfg = ew.GameConfig.support_only(w, 5_000, seed=0)
        tr = ew.run_game(cfg, ew.honest_strategy(ew.make_werner(0.5)), w)
        with pytest.raises(ValueError) as err:
            ew.accumulate(tr)
        assert str(err.value).startswith("no rounds for 12 label cells: [(0, 1), (0, 2),")

    def test_accumulate_from_uniform_run(self):
        tr = honest_transcript(ew.bell_psi_plus(), 1_000_000, seed=13)
        r_hat = ew.accumulate(tr)
        assert tr.counts.sum() == 1_000_000
        assert r_hat.shape == (4, 4) and r_hat.dtype == np.float64
        assert not r_hat.flags.writeable
        # cell (1,1) has r = 1; binomial error at n ~ 62500 rounds
        assert r_hat[1, 1] == pytest.approx(1.0, abs=0.02)

    def test_standard_errors_shrink_with_rounds(self, capsys):
        small = np.array(tomography_payload(capsys, 10_000, 3)["standard_errors"])[:, 2]
        large = np.array(tomography_payload(capsys, 1_000_000, 3)["standard_errors"])[:, 2]
        # radically more data: every noisy cell tightens
        noisy = small > 0
        assert np.all(large[noisy] < small[noisy])

    def test_incomplete_moments_cannot_be_built(self):
        pi = np.full((4, 4), 1 / 14)
        pi[0, 1] = pi[2, 3] = 0.0
        w = ew.werner_witness().weights
        tr = ew.run_game(ew.GameConfig(pi, 5_000, 0), ew.honest_strategy(ew.make_werner(0.5)), w)
        with pytest.raises(ValueError) as err:
            ew.accumulate(tr)
        assert str(err.value) == "no rounds for 2 label cells: [(0, 1), (2, 3)]"

    def test_reconstruct_scans_for_missing_cells_once(self, cell_scans):
        # a complete transcript is never scanned; an incomplete one once, to
        # name its unplayed cells
        ew.reconstruct(ew.accumulate(honest_transcript(ew.make_werner(0.5), 20_000, seed=1)))
        assert cell_scans == []
        w = ew.werner_witness().weights
        tr = ew.run_game(ew.GameConfig.support_only(w, 5_000, seed=0),
                         ew.honest_strategy(ew.make_werner(0.5)), w)
        with pytest.raises(ValueError, match="no rounds for 12 label cells"):
            ew.accumulate(tr)
        assert cell_scans == [(4, 4)]

    def test_rejects_three_party_transcript(self):
        cfg = ew.GameConfig.uniform(1000, seed=0, n_parties=3)
        tr = ew.run_game(cfg, ew.honest_strategy(ew.ghz_state()), ew.ghz_witness().weights)
        with pytest.raises(ValueError):
            ew.accumulate(tr)


class TestLinearInversion:
    def test_exact_bell_roundtrip(self):
        raw = ew.reconstruct(exact_moments(ew.bell_psi_plus())).raw
        assert np.max(np.abs(raw - ew.bell_psi_plus().matrix)) < 1e-12

    def test_exact_mixed_roundtrip(self):
        raw = ew.reconstruct(exact_moments(ew.maximally_mixed(2))).raw
        assert np.max(np.abs(raw - np.eye(4) / 4)) < 1e-12

    def test_noisy_inversion_is_hermitian_unit_trace(self):
        r_hat = ew.accumulate(honest_transcript(ew.make_werner(0.5), 20_000, seed=21))
        raw = ew.reconstruct(r_hat).raw
        assert np.max(np.abs(raw - raw.conj().T)) < 1e-12
        assert np.trace(raw).real == pytest.approx(1.0, abs=1e-10)


class TestProjectPsd:
    def test_physical_input_unchanged(self, rng):
        for _ in range(20):
            rho = ew.random_density_matrix(rng, 4)
            proj = tomography.project_psd(rho.matrix)
            assert np.max(np.abs(proj.matrix - rho.matrix)) < 1e-12

    def test_no_positive_eigenvalue_is_an_error(self):
        with pytest.raises(ValueError, match="^no positive eigenvalues; cannot project"):
            tomography.project_psd(-np.eye(4))

    def test_clip_and_renormalize_diagonal(self):
        proj = tomography.project_psd(np.diag([1.1, 0.0, 0.0, -0.1]).astype(complex))
        assert np.max(np.abs(proj.matrix - np.diag([1, 0, 0, 0]))) < 1e-12

    def test_clip_in_rotated_basis(self, rng):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        v = np.linalg.qr(g)[0]
        raw = (v * np.array([1.1, 0.0, 0.0, -0.1])) @ v.conj().T
        expect = (v * np.array([1.0, 0.0, 0.0, 0.0])) @ v.conj().T
        proj = tomography.project_psd(raw)
        assert np.max(np.abs(proj.matrix - expect)) < 1e-10

    def test_idempotent(self, rng):
        r_hat = ew.accumulate(honest_transcript(ew.make_werner(0.3), 5_000, seed=5))
        once = ew.reconstruct(r_hat).projected
        twice = tomography.project_psd(once.matrix)
        assert np.max(np.abs(twice.matrix - once.matrix)) < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            tomography.project_psd(np.triu(np.ones((4, 4))).astype(complex))

    def test_projection_rarely_hurts(self):
        # projected estimate at least as close to the truth as the raw one,
        # up to rounding, in at least 95 of 100 seeded trials
        truth = ew.bell_psi_plus()
        good = 0
        for seed in range(100):
            est = ew.reconstruct(ew.accumulate(honest_transcript(truth, 5_000, seed=seed)))
            raw, proj = est.raw, est.projected
            d_raw = ew.trace_distance(raw, truth.matrix)
            d_proj = ew.trace_distance(proj, truth)
            good += d_proj <= d_raw + 1e-12
        assert good >= 95


class TestReconstruction:
    def test_exact_moments_give_zero_error(self):
        rho = ew.make_werner(0.5)
        est = ew.reconstruct(exact_moments(rho))
        assert ew.reconstruction_error(rho, est) < 1e-10

    def test_error_bounds_at_two_sample_sizes(self):
        rho = ew.make_werner(0.5)
        est4 = ew.reconstruct(ew.accumulate(honest_transcript(rho, 10_000, seed=40)))
        est6 = ew.reconstruct(ew.accumulate(honest_transcript(rho, 1_000_000, seed=40)))
        err4 = ew.reconstruction_error(rho, est4)
        err6 = ew.reconstruction_error(rho, est6)
        assert err4 < 0.15
        assert err6 < 0.02
        # errors shrink roughly like 1/sqrt(rounds): a factor ~10 here
        assert 3.0 < err4 / err6 < 33.0

    def test_estimate_holds_the_states(self):
        # the per-cell errors are the command line's; the estimate holds the states
        est = ew.reconstruct(ew.accumulate(honest_transcript(ew.make_werner(0.5), 20_000, seed=2)))
        assert [f.name for f in fields(est)] == ["raw", "projected"]
        m = est.projected.matrix
        assert np.trace(m @ m).real <= 1.0 + 1e-12

    def test_dimension_mismatch(self):
        est = ew.reconstruct(exact_moments(ew.make_werner(0.5)))
        with pytest.raises(ValueError):
            ew.reconstruction_error(ew.maximally_mixed(3), est)
