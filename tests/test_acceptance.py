"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion.
"""

import time

import numpy as np
import pytest

import ewgame as ew
from ewgame import game

RT2 = np.sqrt(2.0)
RT3 = np.sqrt(3.0)


def report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number:2d} PASS: {text}")


@pytest.fixture(scope="module")
def warm_kernels():
    # compile/load the sampling kernel once so timed runs measure steady state
    ew.run_game(ew.GameConfig.uniform(10, seed=0),
                ew.honest_strategy(ew.make_werner(1.0)), ew.werner_witness().weights)


def test_criterion_01_exact_werner_payoff_curve():
    wit = ew.werner_witness()
    for z in (0.0, 1 / 3, 0.5, 2 / 3, 1.0):
        p = ew.expected_payoff(ew.make_werner(z), wit)
        assert abs(p - (3 * z - 1) / RT3) <= 1e-12, f"z={z}: {p}"
    report(1, "expected payoff on the Werner family equals (3z-1)/sqrt(3) to 1e-12")


def test_criterion_02_threshold_triple():
    cases = [
        (ew.werner_witness(), 1 / 3),
        (ew.fixed_chsh_witness(), RT2 / 2),
        (ew.strengthened_chsh_witness(), 0.5),
    ]
    for wit, expect in cases:
        z_star = ew.werner_line_intersection(wit)
        assert abs(z_star - expect) <= 1e-12
    report(2, "Werner-line zero crossings are 1/3, sqrt(2)/2 and 1/2 to 1e-12")


def test_criterion_03_monte_carlo_convergence(warm_kernels):
    target = 2 / RT3
    strat = ew.honest_strategy(ew.make_werner(1.0))
    weights = ew.werner_witness().weights
    hits = 0
    slowest = 0.0
    for seed in range(20):
        t0 = time.perf_counter()
        tr = ew.run_game(ew.GameConfig.uniform(1_000_000, seed=seed), strat, weights)
        mean, se = ew.empirical_payoff(tr)
        slowest = max(slowest, time.perf_counter() - t0)
        hits += abs(mean - target) <= 3 * se
    assert hits >= 18, f"only {hits}/20 runs within 3 standard errors"
    assert slowest <= 5.0, f"slowest single run took {slowest:.2f} s"
    report(3, f"honest 1e6-round runs hit 2/sqrt(3) within 3 SE in {hits}/20 seeds "
              f"(slowest run {slowest:.2f} s)")


def test_criterion_04_cheat_equivalence(warm_kernels):
    weights = ew.werner_witness().weights
    cheat = ew.classical_cheat_strategy()
    pi = np.full((4, 4), 1 / 16)
    exact = ew.exact_average_payoff(pi, cheat.outcome_table, weights)
    assert abs(exact - 2 * RT3 / 3) <= 1e-12
    tr = ew.run_game(ew.GameConfig.uniform(1_000_000, seed=101), cheat, weights)
    mean, se = ew.empirical_payoff(tr)
    assert abs(mean - exact) <= 3 * se
    report(4, f"classical cheat: enumerated value 2*sqrt(3)/3 exactly, "
              f"empirical mean {mean:.4f} within 3 SE")


def test_criterion_05_separability_floor(warm_kernels, separable_corpus):
    witnesses = [("werner", ew.werner_witness()),
                 ("chsh", ew.fixed_chsh_witness()),
                 ("chsh-strengthened", ew.strengthened_chsh_witness())]
    for name, wit in witnesses:
        payoffs = -np.einsum("nij,ji->n", separable_corpus, wit.operator).real
        assert payoffs.max() <= 1e-9, f"{name}: {payoffs.max():.3e}"
    gen = np.random.default_rng(2024)
    for name, wit in witnesses:
        rho = ew.random_separable(gen, k=int(gen.integers(1, 5)))
        tr = ew.run_game(ew.GameConfig.uniform(1_000_000, seed=int(gen.integers(1 << 31))),
                         ew.honest_strategy(rho), wit.weights)
        mean, se = ew.empirical_payoff(tr)
        assert mean <= 3 * se, f"{name}: separable mean {mean:.4f} above 3 SE {se:.4f}"
    report(5, "10^4 separable states: payoff <= 1e-9 under every built-in witness; "
              "honest separable runs stay within 3 SE of zero")


def test_criterion_06_universal_detection():
    gen = np.random.default_rng(55)
    found = 0
    while found < 1000:
        rho = ew.random_density_matrix(gen, 4)
        lam = np.linalg.eigvalsh(ew.partial_transpose(rho))[0]  # independent oracle
        if lam >= -1e-9:
            continue
        found += 1
        payoff = ew.expected_payoff(rho, ew.ppt_witness(rho))
        assert payoff > 0, f"state #{found}: payoff {payoff:.3e}"
        assert abs(payoff + lam) <= 1e-10
    report(6, "tailored witnesses give positive payoff for 1000/1000 random NPT states")


def test_criterion_07_undetected_band():
    for z in (0.4, 0.6, 0.7):
        rho = ew.make_werner(z)
        chsh_payoff = ew.expected_payoff(rho, ew.fixed_chsh_witness())
        ppt_payoff = ew.expected_payoff(rho, ew.ppt_witness(rho))
        assert chsh_payoff < 0, f"z={z}"
        assert ppt_payoff > 0, f"z={z}"
    report(7, "for z in {0.4, 0.6, 0.7} the CHSH witness misses what the "
              "tailored witness detects")


def test_criterion_08_estimator_identity():
    gen = np.random.default_rng(88)
    pi = np.full((4, 4), 1 / 16)
    for _ in range(100):
        rho = ew.random_density_matrix(gen, 4)
        wit = ew.Witness(ew.PauliWeights(gen.uniform(-1, 1, size=(4, 4))))
        enumerated = ew.exact_average_payoff(pi, game.outcome_table(rho), wit.weights)
        assert abs(enumerated - ew.expected_payoff(rho, wit)) <= 1e-12
    report(8, "enumerated sum Pi*V*payment equals -Tr(rho W) to 1e-12 "
              "for 100 random state/witness pairs")


def test_criterion_09_tomography_scaling(warm_kernels):
    truth = ew.make_werner(0.5)
    strat = ew.honest_strategy(truth)
    weights = ew.werner_witness().weights

    def error_at(rounds, seed):
        tr = ew.run_game(ew.GameConfig.uniform(rounds, seed=seed), strat, weights)
        est = ew.reconstruct(ew.accumulate(tr))
        return ew.reconstruction_error(truth, est)

    errs5 = np.array([error_at(100_000, seed) for seed in range(20)])
    errs6 = np.array([error_at(1_000_000, 100 + seed) for seed in range(20)])
    med5, med6 = np.median(errs5), np.median(errs6)
    assert med6 <= 0.5 * med5, f"median errors {med5:.4f} -> {med6:.4f}"
    assert med6 <= 0.02, f"median error at 1e6 rounds is {med6:.4f}"
    report(9, f"tomography error halves with 10x rounds "
              f"(medians {med5:.4f} -> {med6:.4f}, 20 seeds)")


def test_criterion_10_chsh_relation():
    for z in np.linspace(0.0, 1.0, 21):
        rep = ew.chsh_value(ew.make_werner(float(z)))
        assert abs(abs(rep.value) - 2 * RT2 * z) <= 1e-12
    eps = 1e-9
    assert not ew.chsh_value(ew.make_werner(RT2 / 2 - eps)).violates_classical
    assert ew.chsh_value(ew.make_werner(RT2 / 2 + eps)).violates_classical
    report(10, "|S| = 2*sqrt(2)*z to 1e-12 and the violation flag flips at "
               "z = sqrt(2)/2 +- 1e-9")


def test_criterion_11_tripartite(warm_kernels):
    exact = ew.expected_payoff(ew.ghz_state(), ew.ghz_witness())
    assert abs(exact - 0.5) <= 1e-12
    cfg = ew.GameConfig.uniform(1_000_000, seed=202, n_parties=3)
    tr = ew.run_game(cfg, ew.honest_strategy(ew.ghz_state()), ew.ghz_witness().weights)
    mean, se = ew.empirical_payoff(tr)
    assert abs(mean - 0.5) <= 3 * se
    report(11, f"GHZ payoff exactly 1/2; three-player 1e6-round mean {mean:.4f} "
               f"within 3 SE")


def test_criterion_12_geometry():
    fig2 = ew.export_figure_data("fig2", resolution=16)
    plane = fig2.series_points("hyperplane")
    assert np.max(np.abs(plane[:, 0] - plane[:, 1] + plane[:, 2] - 1.0)) <= 1e-10
    line = fig2.series_points("werner_line")
    assert np.allclose(line[0], [0, 0, 0], atol=1e-15)
    assert np.allclose(line[-1], [1, -1, 1], atol=1e-15)
    cross = fig2.series_points("intersection")[0]
    assert np.allclose(cross, [1 / 3, -1 / 3, 1 / 3], atol=1e-12)
    z_rows = fig2.points["intersection"][1]
    assert abs(z_rows[0] - 1 / 3) <= 1e-12

    fig3 = ew.export_figure_data("fig3", resolution=16)
    green = fig3.series_points("chsh_line")
    assert np.max(np.abs(green[:, 0] + green[:, 1] - RT2)) <= 1e-10
    report(12, "figure data: plane x-y+z=1, Werner segment (0,0,0)-(1,-1,1) "
               "crossing at z=1/3, and the x+z=sqrt(2) line all exact")
