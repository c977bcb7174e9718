import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ewgame as ew
from ewgame import serialize

FILE_FIXTURE = settings(max_examples=40, deadline=None,
                        suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestStateSpecs:
    def test_named_states(self):
        assert np.allclose(serialize.parse_state_spec("werner(0.5)").matrix,
                           ew.make_werner(0.5).matrix)
        assert np.allclose(serialize.parse_state_spec("bell_psi_plus").matrix,
                           ew.bell_psi_plus().matrix)
        assert serialize.parse_state_spec("ghz").dim == 8
        m = serialize.parse_state_spec("maximally_mixed(2)").matrix
        assert np.trace(m @ m).real == pytest.approx(0.25, abs=1e-12)

    def test_werner_parameter_validation_propagates(self):
        with pytest.raises(ValueError):
            serialize.parse_state_spec("werner(1.5)")

    def test_unknown_spec(self):
        with pytest.raises(ValueError, match="unknown state spec"):
            serialize.parse_state_spec("singlet")

    def test_matrix_file_round_trip(self, tmp_path):
        rho = ew.make_werner(0.7)
        path = tmp_path / "state.json"
        path.write_text(json.dumps(serialize.state_to_dict(rho)))
        back = serialize.parse_state_spec(str(path))
        assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-15

    def test_matrix_file_validation(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 4, "entries": [[1.0, 0.0]] * 3}))
        with pytest.raises(ValueError, match="entries"):
            serialize.parse_state_spec(str(path))
        path.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ValueError):
            serialize.parse_state_spec(str(path))


class TestRoundTrips:
    @FILE_FIXTURE
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([1, 2, 3]))
    def test_state_file_round_trip_is_exact(self, tmp_path, seed, n):
        rho = ew.random_density_matrix(np.random.default_rng(seed), 2 ** n)
        path = tmp_path / "state.json"
        path.write_text(json.dumps(serialize.state_to_dict(rho)))
        assert serialize.parse_state_spec(str(path)).matrix.tobytes() == rho.matrix.tobytes()

    @FILE_FIXTURE
    @given(data=st.data(), n=st.sampled_from([2, 3]))
    def test_witness_file_round_trip_is_exact(self, tmp_path, data, n):
        weight = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0])
        table = np.array(data.draw(st.lists(weight, min_size=4 ** n, max_size=4 ** n)))
        table[0] = data.draw(st.floats(0.5, 2.0))  # at least one nonzero weight
        wit = ew.Witness.from_weights(ew.PauliWeights(n, table.reshape((4,) * n)))
        path = tmp_path / "wit.json"
        path.write_text(json.dumps(serialize.witness_to_dict(wit)))
        back = serialize.parse_witness_spec(str(path))
        # bit for bit, so that a -0.0 weight must come back as -0.0
        assert np.array_equal(back.weights.table.view(np.uint64),
                              wit.weights.table.view(np.uint64))
        assert np.array_equal(back.operator.view(np.uint64), wit.operator.view(np.uint64))

    def test_negative_zero_weight_is_written(self):
        table = np.zeros((4, 4))
        table[0, 0], table[1, 1] = 1.0, -0.0
        wit = ew.Witness.from_weights(ew.PauliWeights(2, table))
        rows = json.dumps(serialize.witness_to_dict(wit)["weights"])
        assert rows == "[[0, 0, 1.0], [1, 1, -0.0]]"


class TestWitnessSpecs:
    def test_named_witnesses(self):
        assert np.allclose(serialize.parse_witness_spec("werner").operator,
                           ew.werner_witness().operator)
        assert np.allclose(serialize.parse_witness_spec("chsh").operator,
                           ew.fixed_chsh_witness().operator)
        assert np.allclose(serialize.parse_witness_spec("chsh-strengthened").operator,
                           ew.strengthened_chsh_witness().operator)

    def test_symbolic_tokens_resolve_exactly(self, tmp_path):
        path = tmp_path / "wit.json"
        path.write_text(json.dumps({
            "n": 2,
            "weights": [[0, 0, "1/sqrt(3)"], [1, 1, "-1/sqrt(3)"],
                        [2, 2, "1/sqrt(3)"], [3, 3, "-1/sqrt(3)"]],
        }))
        wit = serialize.parse_witness_spec(str(path))
        assert np.max(np.abs(wit.operator - ew.werner_witness().operator)) < 1e-15

    def test_numeric_weights(self, tmp_path):
        path = tmp_path / "wit.json"
        path.write_text(json.dumps({"n": 2, "weights": [[0, 0, 1.0], [3, 3, -0.5]]}))
        wit = serialize.parse_witness_spec(str(path))
        assert wit.weights[0, 0] == 1.0
        assert wit.weights[3, 3] == -0.5

    def test_witness_dict_round_trip(self, tmp_path):
        wit = ew.ppt_witness(ew.make_werner(0.9))
        path = tmp_path / "wit.json"
        path.write_text(json.dumps(serialize.witness_to_dict(wit)))
        back = serialize.parse_witness_spec(str(path))
        assert np.max(np.abs(back.operator - wit.operator)) < 1e-12

    def test_bad_witness_files(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "weights": [[0, 5, 1.0]]}))
        with pytest.raises(ValueError, match="label"):
            serialize.parse_witness_spec(str(path))
        path.write_text(json.dumps({"n": 4, "weights": []}))
        with pytest.raises(ValueError):
            serialize.parse_witness_spec(str(path))
        path.write_text("not json {")
        with pytest.raises(ValueError) as info:
            serialize.parse_witness_spec(str(path))
        assert str(info.value).startswith(f"{path}: ")

    def test_every_listed_name_parses(self):
        names = serialize.WITNESS_NAMES.removesuffix(", or a JSON weights file").split(", ")
        assert names == ["werner", "chsh", "chsh-strengthened", "ghz"]
        for name in names:
            assert isinstance(serialize.parse_witness_spec(name), ew.Witness)
        with pytest.raises(ValueError) as err:
            serialize.parse_witness_spec("nope")
        assert all(name in str(err.value) for name in names)

    def test_unknown_spec(self):
        with pytest.raises(ValueError, match="unknown witness spec"):
            serialize.parse_witness_spec("bogus")


class TestIntegerFields:
    @pytest.mark.parametrize("value,expect", [(3, 3), (3.0, 3), (1e6, 10 ** 6), (-2, -2)])
    def test_json_int_accepts_integers(self, value, expect):
        got = serialize.json_int(value, "field")
        assert got == expect and type(got) is int

    @pytest.mark.parametrize("value", [2.7, True, False, "3", None, [3], float("nan")])
    def test_json_int_rejects_other_values(self, value):
        with pytest.raises(ValueError, match="field must be an integer"):
            serialize.json_int(value, "field")

    @pytest.mark.parametrize("dim", [4.5, True, "4", -2, 0])
    def test_state_file_bad_dim(self, tmp_path, dim):
        path = tmp_path / "state.json"
        entries = [[0.25 if i % 5 == 0 else 0.0, 0.0] for i in range(16)]
        if dim == -2:
            entries = entries[:4]
        path.write_text(json.dumps({"dim": dim, "entries": entries}))
        with pytest.raises(ValueError, match=re.escape(str(path))):
            serialize.parse_state_spec(str(path))

    @pytest.mark.parametrize("entry", [[True, False], ["0.5", "0"], [0.5, None], [0.5, [0]]])
    def test_state_file_entries_must_be_numbers(self, tmp_path, entry):
        path = tmp_path / "state.json"
        entries = [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]
        entries[0] = entry
        path.write_text(json.dumps({"dim": 2, "entries": entries}))
        with pytest.raises(ValueError, match="number pairs") as info:
            serialize.parse_state_spec(str(path))
        assert str(info.value).startswith(f"{path}: ")

    def test_state_file_integral_float_dim(self, tmp_path):
        path = tmp_path / "state.json"
        data = serialize.state_to_dict(ew.make_werner(0.7))
        data["dim"] = 4.0
        path.write_text(json.dumps(data))
        assert serialize.parse_state_spec(str(path)).dim == 4

    @pytest.mark.parametrize("payload,message", [
        ({"n": 2.7, "weights": [[0, 0, 1.0]]}, "'n' must be an integer"),
        ({"n": True, "weights": [[0, 0, 1.0]]}, "'n' must be an integer"),
        ({"n": 2, "weights": [[1.9, 1, 1.0]]}, "label must be an integer"),
        ({"n": 2, "weights": [[False, 1, 1.0]]}, "label must be an integer"),
        ({"n": 2, "weights": [[1, 1, 1.0], [1, 1, -1.0]]}, "duplicate label tuple"),
        ({"n": 2, "weights": [[1, 1, 1.0], [1.0, 1, 1.0]]}, "duplicate label tuple"),
        ({"n": 2, "weights": [[1, 1, 1.0], 5]}, "weights row"),
        ({"n": 2, "weights": [[1, 1, 1.0], "011"]}, "weights row"),
        ({"n": 2, "weights": [[1, 1, 1.0], {"s": 1}]}, "weights row"),
        ({"n": 2, "weights": [[1, 1, 1.0], [1, 1]]}, "weights row"),
        ({"n": 2, "weights": [[1, 1, 1.0], []]}, "weights row"),
        ({"n": 2, "weights": 5}, "'weights' must be a list"),
        ({"n": 2, "weights": [[1, 1, "one"]]}, "cannot parse weight"),
        ({"n": 2, "weights": [[0, 0, True], [1, 1, -0.5]]}, "weight must be a number"),
        ({"n": 2, "weights": [[1, 1, False]]}, "weight must be a number"),
    ])
    def test_witness_file_bad_fields(self, tmp_path, payload, message):
        path = tmp_path / "wit.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=message) as info:
            serialize.parse_witness_spec(str(path))
        assert str(info.value).startswith(f"{path}: ")

    def test_witness_file_integral_float_fields(self, tmp_path):
        path = tmp_path / "wit.json"
        path.write_text(json.dumps({"n": 2.0, "weights": [[1.0, 1, 0.5], [3, 3.0, -0.5]]}))
        wit = serialize.parse_witness_spec(str(path))
        assert wit.weights[1, 1] == 0.5 and wit.weights[3, 3] == -0.5


class TestTokens:
    def test_token_values(self):
        assert serialize.parse_weight_value("1/sqrt(2)") == 1 / np.sqrt(2)
        assert serialize.parse_weight_value("-1/sqrt(3)") == -1 / np.sqrt(3)
        assert serialize.parse_weight_value("2/sqrt(4)") == pytest.approx(1.0)
        assert serialize.parse_weight_value(0.25) == 0.25
        assert serialize.parse_weight_value("0.125") == 0.125

    def test_bad_tokens(self):
        with pytest.raises(ValueError):
            serialize.parse_weight_value("sqrt(2)/1")
        with pytest.raises(ValueError):
            serialize.parse_weight_value("one half")
        for flag in (True, False):
            with pytest.raises(ValueError, match="weight must be a number"):
                serialize.parse_weight_value(flag)

    @pytest.mark.parametrize("token", [
        "1/sqrt(0)", "1/sqrt(" + "1" * 400 + ")", "1/sqrt(" + "9" * 5000 + ")"],
        ids=lambda token: token[:12])
    def test_tokens_that_fail_to_evaluate(self, token):
        with pytest.raises(ValueError, match="cannot parse weight value"):
            serialize.parse_weight_value(token)

    @pytest.mark.parametrize("value", [None, [1.0], 10 ** 400, -(10 ** 400)],
                             ids=["null", "list", "big", "-big"])
    def test_non_numbers_and_huge_integers(self, value):
        with pytest.raises(ValueError, match="weight must be a number"):
            serialize.parse_weight_value(value)

    def test_float17_is_lossless(self, rng):
        for _ in range(200):
            x = float(rng.normal() * 10.0 ** float(rng.integers(-8, 8)))
            assert float(serialize.float17(x)) == x


class TestPiSpecs:
    def test_uniform_and_support_only(self):
        w = ew.werner_witness().weights
        cfg = serialize.parse_pi_spec("uniform", w, 10, 0)
        assert np.allclose(cfg.pi, 1 / 16)
        cfg = serialize.parse_pi_spec("support-only", w, 10, 0)
        assert np.allclose(cfg.pi[cfg.pi > 0], 0.25)

    def test_pi_file(self, tmp_path):
        w = ew.werner_witness().weights
        pi = np.full((4, 4), 1 / 16)
        path = tmp_path / "pi.json"
        path.write_text(json.dumps({"pi": pi.tolist()}))
        cfg = serialize.parse_pi_spec(str(path), w, 10, 0)
        assert np.allclose(cfg.pi, 1 / 16)

    @pytest.mark.parametrize("entry", ["0.0625", True, False, None, [0.0625], {"p": 1}])
    def test_pi_entries_must_be_numbers(self, tmp_path, entry):
        w = ew.werner_witness().weights
        pi = [1 / 16] * 15 + [entry]
        path = tmp_path / "pi.json"
        path.write_text(json.dumps(pi))
        with pytest.raises(ValueError, match=re.escape(f"{path}: pi must be a list of 16")):
            serialize.parse_pi_spec(str(path), w, 10, 0)

    def test_inline_pi(self, tmp_path):
        # a three-party table written as a bare list, flat or nested
        w = ew.ghz_witness().weights
        path = tmp_path / "pi.json"
        flat = [1 / 64] * 64
        for table in (flat, np.reshape(flat, (4, 4, 4)).tolist()):
            path.write_text(json.dumps(table))
            assert np.array_equal(serialize.parse_pi_spec(str(path), w, 10, 0).pi,
                                  np.full((4, 4, 4), 1 / 64))

    def test_unknown_pi(self):
        with pytest.raises(ValueError, match="unknown pi spec"):
            serialize.parse_pi_spec("gaussian", ew.werner_witness().weights, 10, 0)
