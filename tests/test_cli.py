import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ewgame as ew
from ewgame import cli, game, serialize

RT3 = np.sqrt(3.0)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPayoff:
    def test_bell_state_detection(self, capsys):
        code, out, _ = run_cli(capsys, "payoff", "--state", "werner(1)", "--witness", "werner")
        assert code == 0
        assert out.strip() == "1.1547005383792515"

    def test_separable_state_negative(self, capsys):
        code, out, _ = run_cli(capsys, "payoff", "--state", "werner(0.2)", "--witness", "werner")
        assert code == 1
        assert float(out) < 0

    def test_malformed_witness_file(self, capsys, tmp_path):
        bad = tmp_path / "w.json"
        bad.write_text("{ nope")
        code, _, err = run_cli(capsys, "payoff", "--state", "werner(1)",
                               "--witness", str(bad))
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("payload", [
        {"n": 2.7, "weights": [[0, 0, 1.0], [1, 1, -1.0]]},
        {"n": 2, "weights": [[0, 0, 1.0], 5]},
        {"n": 2, "weights": [[0, 0, 1.0], [0, 0, -1.0]]},
        {"n": 2, "weights": [[0, 0, True], [1, 1, -0.5]]},
    ])
    def test_bad_witness_file_exits_2(self, capsys, tmp_path, payload):
        path = tmp_path / "w.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "payoff", "--state", "werner(0.9)",
                                 "--witness", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}:")

    def test_module_entry_point(self):
        # python -m ewgame.cli runs main and exits with its code
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "ewgame.cli", "payoff",
                               "--state", "werner(1)", "--witness", "werner"],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": path})
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1.1547005383792515\n", "")

    @pytest.mark.parametrize("argv,code", [
        (["payoff", "--state", "werner(0.2)", "--witness", "werner"], 1),
        (["payoff", "--state", "nope", "--witness", "werner"], 2),
    ], ids=["1", "2"])
    def test_module_exit_codes(self, argv, code):
        # the process exits with main's code; test_module_entry_point runs 0
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "ewgame.cli", *argv],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == code
        assert proc.stderr.startswith("error: ") == (code == 2)

    def test_unknown_state(self, capsys):
        code, _, err = run_cli(capsys, "payoff", "--state", "nope", "--witness", "werner")
        assert code == 2

    @pytest.mark.parametrize("state,wit,expect", [
        ("maximally_mixed(2)", "werner", -1 / RT3), ("maximally_mixed(3)", "ghz", -0.375)])
    def test_maximally_mixed_state(self, capsys, state, wit, expect):
        code, out, _ = run_cli(capsys, "payoff", "--state", state, "--witness", wit)
        assert code == 1
        assert float(out) == pytest.approx(expect, abs=1e-15)


class TestSimulate:
    def test_deterministic_output(self, capsys):
        args = ("simulate", "--state", "werner(1)", "--witness", "werner",
                "--rounds", "50000", "--seed", "42")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "mean=" in out1 and "seed=42" in out1

    def test_cheat_reaches_bell_value(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--state", "werner(1)",
                               "--witness", "werner", "--rounds", "1000000",
                               "--seed", "3", "--strategy", "cheat")
        assert code == 0
        fields = dict(kv.split("=") for kv in out.split())
        mean, se = float(fields["mean"]), float(fields["std_error"])
        assert abs(mean - 2 * np.sqrt(3) / 3) <= 3 * se

    def test_honest_separable_state_stays_flat(self, capsys, tmp_path):
        rho = ew.random_separable(np.random.default_rng(4), k=2)
        state = tmp_path / "sep.json"
        state.write_text(json.dumps(serialize.state_to_dict(rho)))
        code, out, _ = run_cli(capsys, "simulate", "--state", str(state),
                               "--witness", "werner", "--rounds", "200000", "--seed", "8")
        fields = dict(kv.split("=") for kv in out.split())
        assert float(fields["mean"]) <= 3 * float(fields["std_error"])
        assert code == 1

    def test_needs_a_state(self, capsys):
        # argparse rejects the missing flags, with its usage message and exit 2
        with pytest.raises(SystemExit) as exit_:
            cli.main(["simulate", "--rounds", "100"])
        assert exit_.value.code == 2
        assert "required: --state, --witness\n" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["state", "witness", "pi"])
    def test_empty_flag_is_an_error(self, capsys, field):
        # an empty flag is a spec that does not resolve, never a fallback
        # to the default
        fields = {"state": "werner(0.8)", "witness": "werner", "pi": "uniform"}
        argv = sum(((f"--{k}", "" if k == field else v) for k, v in fields.items()), ())
        code, out, err = run_cli(capsys, "simulate", "--rounds", "1000", *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: unknown {field} spec ''")

    @pytest.mark.parametrize("flag,value,message", [
        ("--state", "ab", "unknown state spec 'ab'"),
        ("--witness", "ab", "unknown witness spec 'ab'"),
        ("--pi", "ab", "unknown pi spec 'ab'"),
        ("--rounds", "0", "rounds must be positive"),
    ])
    def test_bad_flag_keeps_its_message(self, capsys, flag, value, message):
        code, out, err = run_cli(capsys, "simulate", "--state", "werner(0.8)",
                                 "--witness", "werner", "--rounds", "1000", flag, value)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {message}")

    def test_run_spec_and_env_seed_are_gone(self, capsys, monkeypatch, tmp_path):
        # --config is an unrecognised argument, and EWGAME_SEED is not read
        path = spec_file(tmp_path, "run.json", {"state": "werner(0.8)", "witness": "werner"})
        with pytest.raises(SystemExit) as exit_:
            cli.main(["simulate", "--state", "werner(0.8)", "--witness", "werner",
                      "--config", path])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err
        monkeypatch.setenv("EWGAME_SEED", "3")
        code, out, err = run_cli(capsys, "simulate", "--state", "werner(0.8)",
                                 "--witness", "werner", "--rounds", "100", "--seed", "42")
        assert (code, err) == (0, "") and out.endswith(" rounds=100 seed=42\n")

    def test_negative_seed_flag(self, capsys):
        for command in (("simulate", "--witness", "werner", "--rounds", "100"),
                        ("witness", "check", "--witness", "werner", "--samples", "10"),
                        ("tomography", "--rounds", "100")):
            code, out, err = run_cli(capsys, *command, "--state", "werner(0.8)", "--seed", "-1")
            assert (code, out, err) == (2, "", "error: seed must be a nonnegative integer, got -1\n")

    def test_csv_without_out_fails_before_any_work(self, capsys, monkeypatch):
        def no_game(*args, **kwargs):
            raise AssertionError("run_game was called")

        monkeypatch.setattr(game, "run_game", no_game)
        code, out, err = run_cli(capsys, "simulate", "--state", "werner(0.8)",
                                 "--witness", "werner", "--rounds", "2000000",
                                 "--format", "csv")
        assert code == 2 and out == ""
        assert err == "error: --format csv needs --out for the transcript file\n"

    def test_csv_transcript(self, capsys, tmp_path):
        out_file = tmp_path / "rounds.csv"
        code, out, _ = run_cli(capsys, "simulate", "--state", "werner(1)",
                               "--witness", "werner", "--rounds", "500", "--seed", "0",
                               "--format", "csv", "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().strip().split("\n")
        assert lines[0] == "s,t,a,b,payoff"
        assert len(lines) == 501

    def test_csv_prints_the_same_mean(self, capsys, tmp_path):
        # above the record limit the text run streams and the csv run keeps
        # records; both estimate from the same count matrix
        base = ("simulate", "--state", "werner(0.8)", "--witness", "werner",
                "--rounds", "200000", "--seed", "3")
        code_text, out_text, _ = run_cli(capsys, *base)
        code_csv, out_csv, _ = run_cli(capsys, *base, "--format", "csv",
                                       "--out", str(tmp_path / "rounds.csv"))
        assert code_text == code_csv == 0
        assert out_text.startswith("mean=") and out_csv == out_text

    def test_structured_summary(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--state", "werner(1)",
                               "--witness", "werner", "--rounds", "10000",
                               "--seed", "5", "--format", "structured")
        payload = json.loads(out)
        assert payload["rounds"] == 10000
        assert payload["seed"] == 5
        assert payload["strategy"] == "honest"

    def test_rounds_beyond_int64_is_an_error(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--state", "werner(1)",
                               "--witness", "werner", "--rounds", "100000000000000000000")
        assert code == 2
        assert err.startswith("error: rounds")

    def test_unexpected_exception_exits_2(self, capsys, monkeypatch):
        # an exception no input check anticipated still exits 2, never 1
        def broken(rho):
            raise TypeError("unanticipated")

        monkeypatch.setattr(game, "honest_strategy", broken)
        code, _, err = run_cli(capsys, "simulate", "--state", "werner(1)",
                               "--witness", "werner", "--rounds", "100")
        assert code == 2
        assert err == "error: TypeError: unanticipated\n"

    def test_support_violation_is_an_error(self, capsys, tmp_path):
        pi = np.zeros((4, 4))
        pi[0, 0] = 1.0
        pi_file = tmp_path / "pi.json"
        pi_file.write_text(json.dumps(pi.tolist()))
        code, _, err = run_cli(capsys, "simulate", "--state", "werner(1)",
                               "--witness", "werner", "--rounds", "100",
                               "--seed", "0", "--pi", str(pi_file))
        assert code == 2
        assert "nonzero weight" in err

    def test_error_cells_print_as_plain_tuples(self, capsys, tmp_path):
        pi = np.full((4, 4), 1 / 15)
        pi[0, 1] = 0.0
        pi_file = tmp_path / "pi.json"
        pi_file.write_text(json.dumps(pi.tolist()))
        wit_file = tmp_path / "w.json"
        wit_file.write_text(json.dumps({"n": 2, "weights": [[0, 1, 1.0]]}))
        code, _, err = run_cli(capsys, "simulate", "--state", "werner(1)",
                               "--witness", str(wit_file), "--rounds", "100",
                               "--seed", "0", "--pi", str(pi_file))
        assert code == 2
        assert err == "error: pi is zero on cells with nonzero weight: [(0, 1)]\n"

    def test_three_party_simulation(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--state", "ghz",
                               "--witness", "ghz", "--rounds", "200000", "--seed", "1")
        assert code == 0
        fields = dict(kv.split("=") for kv in out.split())
        assert abs(float(fields["mean"]) - 0.5) <= 3 * float(fields["std_error"])

    def test_cheat_needs_two_parties(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--state", "ghz",
                               "--witness", "ghz", "--rounds", "100",
                               "--seed", "0", "--strategy", "cheat")
        assert code == 2

    @pytest.mark.parametrize("state,wit,strategy,message", [
        ("werner(0.5)", "ghz", "honest", "state has 2 qubits but the witness has 3"),
        ("ghz", "werner", "cheat", "state has 3 qubits but the witness has 2"),
    ], ids=["two-qubit state", "three-qubit state"])
    def test_state_and_witness_of_different_qubit_counts(self, capsys, state, wit, strategy,
                                                         message):
        code, out, err = run_cli(capsys, "simulate", "--state", state, "--witness", wit,
                                 "--rounds", "100", "--strategy", strategy)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("z", [".", "e", "+-1"])
    def test_werner_parameter_must_be_a_number(self, capsys, z):
        code, out, err = run_cli(capsys, "simulate", "--state", f"werner({z})",
                                 "--witness", "werner")
        assert (code, out, err) == (2, "", f"error: werner parameter must be a number, got {z!r}\n")

    def test_pi_file_without_pi_key_is_an_error(self, capsys, tmp_path):
        pi_file = tmp_path / "pi.json"
        pi_file.write_text(json.dumps({"probabilities": [[1 / 16] * 4] * 4}))
        code, _, err = run_cli(capsys, "simulate", "--state", "werner(1)",
                               "--witness", "werner", "--rounds", "100",
                               "--seed", "0", "--pi", str(pi_file))
        assert code == 2
        assert err.startswith("error:") and str(pi_file) in err

    def test_state_file_with_scalar_entries_is_an_error(self, capsys, tmp_path):
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"dim": 4, "entries": 5}))
        code, _, err = run_cli(capsys, "simulate", "--state", str(state),
                               "--witness", "werner", "--rounds", "100", "--seed", "0")
        assert code == 2
        assert err.startswith("error:") and str(state) in err


BIG = 10 ** 400  # 401 digits, beyond a float's range
PI_RUN = ("simulate", "--state", "werner(0.8)", "--witness", "chsh", "--rounds", "2000",
          "--seed", "5")


def not_a_number_text(text):
    """A string no weight parser may read as a number."""
    try:
        return not np.isfinite(float(text))
    except ValueError:
        return True


# JSON values that are no valid number, integer or spec field: strings that
# do not read as a number, bools, null, integers beyond a float's range, and
# containers of them
JUNK = st.recursive(
    st.text(max_size=4).filter(not_a_number_text) | st.booleans() | st.none()
    | st.sampled_from([BIG, -BIG]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4)


def run_pi(capsys, tmp_path, pi, source):
    """Run PI_RUN with pi given as a --pi file of the list itself or of a
    {"pi": ...} object; return the exit code, stdout, stderr and the file
    an error must name."""
    path = tmp_path / "pi.json"
    path.write_text(json.dumps({"pi": pi} if source == "object" else pi))
    return (*run_cli(capsys, *PI_RUN, "--pi", str(path)), str(path))


class TestPiInput:
    @pytest.mark.parametrize("source", ["file", "object"])
    @pytest.mark.parametrize("entry", ["0.0625", True, None])
    def test_entries_must_be_numbers(self, capsys, tmp_path, source, entry):
        code, out, err, name = run_pi(capsys, tmp_path, [entry] * 16, source)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and name in err

    def test_numeric_pi_gives_one_mean_from_every_source(self, capsys, tmp_path):
        pi = np.random.default_rng(3).dirichlet(np.ones(16))
        runs = [run_pi(capsys, tmp_path, table, source)[:3]
                for table in (pi.tolist(), pi.reshape(4, 4).tolist())
                for source in ("file", "object")]
        assert runs[0][0] in (0, 1) and runs[0][1].startswith("mean=")
        assert all(run == runs[0] for run in runs)

    @pytest.mark.parametrize("source", ["file", "object"])
    @pytest.mark.parametrize("pi,message", [
        ([0.07] * 16, "pi must sum to 1, got 1.12"),
        ([-0.0625] + [1.0625 / 15] * 15, "pi entries must be nonnegative"),
    ], ids=["sum", "negative"])
    def test_pi_rule_errors_name_their_source(self, capsys, tmp_path, source, pi, message):
        code, out, err, name = run_pi(capsys, tmp_path, pi, source)
        assert (code, out, err) == (2, "", f"error: {name}: {message}\n")

    @pytest.mark.parametrize("command", [PI_RUN[:5], ("tomography", "--state", "werner(0.8)")],
                             ids=["simulate", "tomography"])
    def test_bad_rounds_does_not_name_the_pi_file(self, capsys, tmp_path, command):
        path = tmp_path / "pi.json"
        path.write_text(json.dumps([1 / 16] * 16))
        code, out, err = run_cli(capsys, *command, "--rounds", "0", "--pi", str(path))
        assert (code, out, err) == (2, "", "error: rounds must be positive\n")

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(junk=JUNK, at=st.integers(0, 15), nested=st.booleans(),
           source=st.sampled_from(["file", "object"]))
    def test_malformed_pi_always_exits_2(self, capsys, tmp_path, junk, at, nested, source):
        pi = [1 / 16] * 16
        pi[at] = junk
        if nested:
            pi = [pi[i:i + 4] for i in range(0, 16, 4)]
        code, out, err, name = run_pi(capsys, tmp_path, pi, source)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and name in err

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2 ** 32 - 1), nested=st.booleans(),
           source=st.sampled_from(["file", "object"]))
    def test_valid_pi_runs(self, capsys, tmp_path, seed, nested, source):
        pi = np.random.default_rng(seed).dirichlet(np.ones(16))
        table = pi.reshape(4, 4).tolist() if nested else pi.tolist()
        code, out, err, _ = run_pi(capsys, tmp_path, table, source)
        assert code in (0, 1) and err == ""
        assert out.startswith("mean=")


class TestTomography:
    def test_missing_cells_print_as_plain_tuples(self, capsys):
        code, _, err = run_cli(capsys, "tomography", "--state", "werner(0.5)",
                               "--rounds", "1000", "--pi", "support-only")
        assert code == 2
        assert "no rounds for 12 label cells: [(0, 1), (0, 2), (0, 3), (1, 0)," in err
        assert "np." not in err

    def test_needs_two_qubits(self, capsys):
        code, out, err = run_cli(capsys, "tomography", "--state", "ghz", "--rounds", "100")
        assert (code, out, err) == (2, "", "error: tomography is defined for two-qubit states\n")

    def test_witness_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli.main(["tomography", "--state", "werner(0.5)", "--witness", "werner"])
        assert exit_.value.code == 2

    def test_std_errors_are_the_moments_standard_errors(self, capsys, tmp_path):
        args = ("tomography", "--state", "werner(0.5)", "--rounds", "20000", "--seed", "3")
        tr = ew.run_game(ew.GameConfig.uniform(20_000, seed=3),
                         ew.honest_strategy(ew.make_werner(0.5)), ew.werner_witness().weights)
        # binomial standard error of each cell's mean of n answers of +/-1
        n = tr.count_matrix.sum(axis=1)
        r = (tr.count_matrix @ [1, -1, -1, 1]) / n
        se = np.sqrt(np.clip(1.0 - r * r, 0.0, None) / n)
        run_cli(capsys, *args, "--format", "csv", "--out", str(tmp_path / "cells.csv"))
        rows = [line.split(",") for line in
                (tmp_path / "cells.csv").read_text().strip().split("\n")[1:]]
        assert [float(r[3]) for r in rows] == se.ravel().tolist()
        _, out, _ = run_cli(capsys, *args, "--format", "structured")
        assert [e for _, _, e in json.loads(out)["standard_errors"]] == se.ravel().tolist()

    @pytest.mark.parametrize("fmt", ["text", "structured", "csv"])
    def test_scans_for_missing_cells_once(self, capsys, cell_scans, tmp_path, fmt):
        # a complete run is never scanned; an incomplete one once, to name
        # its unplayed cells
        args = ("tomography", "--state", "werner(0.5)", "--rounds", "20000",
                "--format", fmt, "--out", str(tmp_path / "out"))
        assert run_cli(capsys, *args)[0] == 0 and cell_scans == []
        assert run_cli(capsys, *args, "--pi", "support-only")[0] == 2
        assert cell_scans == [(4, 4)]

    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "tomography", "--state", "werner(0.5)",
                               "--rounds", "100000", "--seed", "0")
        assert code == 0
        assert "trace_distance_to_input=" in out
        err = float(out.split("trace_distance_to_input=")[1].split()[0])
        assert err < 0.05

    def test_csv_table(self, capsys, tmp_path):
        out_file = tmp_path / "cells.csv"
        code, _, _ = run_cli(capsys, "tomography", "--state", "bell_psi_plus",
                             "--rounds", "50000", "--seed", "1",
                             "--format", "csv", "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().strip().split("\n")
        assert lines[0] == "s,t,r_hat,std_error,count"
        assert len(lines) == 17

    def test_structured_contains_matrices(self, capsys):
        code, out, _ = run_cli(capsys, "tomography", "--state", "werner(0.5)",
                               "--rounds", "20000", "--seed", "2",
                               "--format", "structured")
        payload = json.loads(out)
        assert payload["projected"]["dim"] == 4
        assert len(payload["raw"]["entries"]) == 16
        assert payload["trace_distance_to_input"] < 0.2


class TestGeometry:
    def test_fig2_csv_intersection(self, capsys):
        code, out, _ = run_cli(capsys, "geometry", "fig2", "--resolution", "8")
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")]
        header = rows[0]
        z_col = header.index("werner_z")
        series_col = header.index("series")
        cross = [r for r in rows[1:] if r[series_col] == "intersection"]
        assert len(cross) == 1
        assert float(cross[0][z_col]) == pytest.approx(1 / 3, abs=1e-12)

    def test_fig3_structured(self, capsys):
        code, out, _ = run_cli(capsys, "geometry", "fig3", "--format", "structured")
        payload = json.loads(out)
        assert payload["figure"] == "fig3"

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "fig2.csv"
        code, out, _ = run_cli(capsys, "geometry", "fig2", "--out", str(target))
        assert code == 0
        assert target.exists()
        assert out == ""


class TestChsh:
    def test_violating_werner(self, capsys):
        code, out, _ = run_cli(capsys, "chsh", "--state", "werner(0.8)")
        assert code == 0
        assert "violates_classical_bound=True" in out
        abs_s = float(out.split("abs_S=")[1].split()[0])
        assert abs_s == pytest.approx(2 * np.sqrt(2) * 0.8, abs=1e-12)

    def test_non_violating_werner(self, capsys):
        code, out, _ = run_cli(capsys, "chsh", "--state", "werner(0.5)")
        assert code == 1
        assert "violates_classical_bound=False" in out
        assert "violates_strengthened_bound=False" in out


class TestWitnessCommands:
    def test_make_on_ppt_state(self, capsys):
        code, _, err = run_cli(capsys, "witness", "make", "--state", "werner(0.2)")
        assert code == 1
        assert "state is PPT" in err

    def test_make_then_check(self, capsys, tmp_path):
        wit_file = tmp_path / "wit.json"
        code, _, _ = run_cli(capsys, "witness", "make", "--state", "werner(0.9)",
                             "--out", str(wit_file))
        assert code == 0
        payload = json.loads(wit_file.read_text())
        assert payload["n"] == 2
        assert payload["payoff_on_state"] > 0
        code, out, _ = run_cli(capsys, "witness", "check", "--state", "werner(0.9)",
                               "--witness", str(wit_file), "--samples", "500",
                               "--seed", "0")
        assert code == 0
        assert "verdict=True" in out

    def test_check_rejects_undetecting_witness(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "check", "--state", "werner(0.6)",
                               "--witness", "chsh", "--samples", "200", "--seed", "0")
        assert code == 1
        assert "verdict=False" in out


# `witness check --samples 2000 --seed 7 --format structured` (two chunks, the
# second ragged): state, witness, exit code, verdict, min_separable_value.
# "made" is the file `witness make --state 'werner(0.9)'` writes.  The values
# are those of the outer-product sampler that preceded the Gram product,
# which moved them by at most 5.6e-17.
WITNESS_CHECK_TABLE = [
    ("werner(0.9)", "werner", 0, True, 0.001416904137504893),
    ("werner(0.2)", "werner", 1, False, 0.001416904137504893),
    ("werner(0.9)", "chsh", 0, True, 0.30313186749702375),
    ("werner(0.6)", "chsh", 1, False, 0.30313186749702375),
    ("werner(0.6)", "chsh-strengthened", 0, True, 0.010238648683571251),
    ("ghz", "ghz", 0, True, 0.03979858963682294),
    ("werner(0.9)", "made", 0, True, 0.0006135374889032624),
]


@pytest.mark.parametrize("state,wit,code,verdict,min_value", WITNESS_CHECK_TABLE,
                         ids=[f"{w}-{s}" for s, w, *_ in WITNESS_CHECK_TABLE])
def test_witness_check_table(capsys, tmp_path, state, wit, code, verdict, min_value):
    if wit == "made":
        wit = str(tmp_path / "wit.json")
        assert run_cli(capsys, "witness", "make", "--state", "werner(0.9)", "--out", wit)[0] == 0
    got, out, err = run_cli(capsys, "witness", "check", "--state", state, "--witness", wit,
                            "--samples", "2000", "--seed", "7", "--format", "structured")
    report = json.loads(out)
    assert (got, report["verdict"], report["n_samples"], err) == (code, verdict, 2000, "")
    assert report["min_separable_value"] == pytest.approx(min_value, abs=1e-14)


@pytest.mark.parametrize("command", [
    ("geometry", "fig2"),
    ("tomography", "--state", "werner(0.8)", "--rounds", "1000"),
    ("simulate", "--state", "werner(0.8)", "--witness", "werner", "--rounds", "1000"),
    ("simulate", "--state", "werner(0.8)", "--witness", "werner", "--rounds", "1000",
     "--format", "csv"),
    ("witness", "make", "--state", "werner(0.9)"),
    ("witness", "make", "--state", "werner(0.2)"),
    ("witness", "check", "--state", "werner(0.9)", "--witness", "werner", "--samples", "10"),
], ids=["geometry", "tomography", "simulate", "simulate-csv", "witness-make",
        "witness-make-ppt", "witness-check"])
def test_empty_out_is_an_error(capsys, command):
    # an empty --out names no file: it is neither stdout nor a missing --out
    assert run_cli(capsys, *command, "--out", "") == (2, "", "error: --out '' names no file\n")


def spec_file(tmp_path, name, content):
    path = tmp_path / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    return str(path)


def run_spec_command(kind, path):
    """The command that reads a spec file of this kind from path."""
    return {"state": ("payoff", "--state", path, "--witness", "werner"),
            "witness": ("payoff", "--state", "werner(0.8)", "--witness", path),
            "pi": PI_RUN + ("--pi", path)}[kind]


# one file per way a spec file used to fail without its name, or to run
BAD_FILES = [
    ("state", "big_entry.json",
     '{"dim": 1, "entries": [[%d, 0]]}' % BIG, "within a float's range"),
    ("witness", "big_weight.json",
     '{"n": 2, "weights": [[0, 0, %d]]}' % BIG, "within a float's range"),
    ("witness", "big_sqrt.json",
     {"n": 2, "weights": [[0, 0, "1/sqrt(%s)" % ("1" * 400)]]}, "cannot parse weight"),
    ("witness", "sqrt0.json",
     {"n": 2, "weights": [[0, 0, "1/sqrt(0)"]]}, "cannot parse weight value '1/sqrt(0)'"),
    ("state", "truncated.json", '{"dim": 4, "entries": [[0.25, 0]\n', "Expecting"),
    ("witness", "truncated.json", '{"n": 2, "weights": [[0, 0, 1.0]\n', "Expecting"),
    ("pi", "truncated.json", "[0.0625, 0.0625\n", "Expecting"),
    ("state", "latin1.json", b'{"dim": 1, "entries": [[1, 0]], "\xff": 0}', "utf-8"),
    ("witness", "deep.json", "[" * 10 ** 5, "recursion"),
    ("state", "trace.json", {"dim": 2, "entries": [[0.6, 0], [0, 0], [0, 0], [0.5, 0]]},
     "trace is 1.1"),
    ("witness", "inf_token.json",
     {"n": 2, "weights": [[0, 0, "1e400"]]}, "weights must be finite"),
    ("witness", "inf_weight.json",
     '{"n": 2, "weights": [[0, 0, 1e400]]}', "within a float's range, got inf"),
]


class TestSpecFileErrors:
    """Every error reading a spec file exits 2 and names the file first."""

    @pytest.mark.parametrize("kind,name,content,fragment", BAD_FILES,
                             ids=[f"{kind}-{name[:-5]}" for kind, name, *_ in BAD_FILES])
    def test_bad_file_names_the_file(self, capsys, tmp_path, kind, name, content, fragment):
        path = spec_file(tmp_path, name, content)
        code, out, err = run_cli(capsys, *run_spec_command(kind, path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: ") and fragment in err


def base_doc(kind):
    if kind == "state":
        return serialize.state_to_dict(ew.make_werner(0.8))
    return {"n": 2, "weights": [[0, 0, "1/sqrt(3)"], [1, 1, -0.5773502691896258],
                                [2, 2, 0.5773502691896258], [3, 3, "-1/sqrt(3)"]]}


class TestSpecFileFuzz:
    @pytest.mark.parametrize("kind", ["state", "witness"])
    def test_base_files_run(self, capsys, tmp_path, kind):
        path = spec_file(tmp_path, "spec.json", base_doc(kind))
        code, out, err = run_cli(capsys, *run_spec_command(kind, path))
        assert code in (0, 1) and out and err == ""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(kind=st.sampled_from(["state", "witness"]),
           how=st.sampled_from(["field", "entry", "unknown key", "truncate"]),
           junk=JUNK, data=st.data())
    def test_malformed_spec_file_exits_2(self, capsys, tmp_path, kind, how, junk, data):
        """One field or entry of a valid file replaced by junk, an unknown key
        added, or the text cut short: exit 2, and the error names the file."""
        doc = base_doc(kind)
        if how == "field":
            doc[data.draw(st.sampled_from(sorted(doc)))] = junk
        elif how == "entry":
            rows = {"state": "entries", "witness": "weights"}[kind]
            i = data.draw(st.integers(0, len(doc[rows]) - 1))
            doc[rows][i][data.draw(st.integers(0, len(doc[rows][i]) - 1))] = junk
        elif how == "unknown key":
            doc[data.draw(st.text(max_size=5).filter(lambda k: k not in doc))] = junk
        text = json.dumps(doc)
        if how == "truncate":
            text = text[:data.draw(st.integers(0, len(text) - 1))]
        path = spec_file(tmp_path, "spec.json", text)
        code, out, err = run_cli(capsys, *run_spec_command(kind, path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: ")
