"""Text formats shared by the command line and scripts: state, witness and
pi specs, weight files with exact symbolic constants, and summaries.

States are named constructors ("werner(0.5)", "bell_psi_plus", "ghz") or a
path to a JSON file {"dim": d, "entries": [[re, im], ...]} listing the dense
matrix row-major.  Witnesses are named constructors ("werner", "chsh",
"chsh-strengthened", "ghz") or a path to a JSON file {"n": 2, "weights":
[[s, t, w], ...]} where w is a number or a token like "1/sqrt(3)" or
"-1/sqrt(2)", resolved to full double precision.  Label distributions are
"uniform", "support-only" or a path to a JSON file of probabilities.  _load
reads every spec file; each error in one is a ValueError that starts with
the file's path.
"""

from __future__ import annotations

import json
import math
import os
import re

import numpy as np

from . import qcore, witness
from .game import GameConfig, pi_table

_WERNER_RE = re.compile(r"^werner\(\s*([-+0-9.eE]+)\s*\)$")
_FLOAT_MAX = 1.7976931348623157e308
_TOKEN_RE = re.compile(r"^([-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)\s*/\s*sqrt\(\s*([0-9]+)\s*\)$")

_NAMED_WITNESSES = {
    "werner": witness.werner_witness,
    "chsh": witness.fixed_chsh_witness,
    "chsh-strengthened": witness.strengthened_chsh_witness,
    "ghz": witness.ghz_witness,
}

STATE_NAMES = "werner(z), bell_psi_plus, ghz, maximally_mixed(n), or a JSON matrix file"
WITNESS_NAMES = ", ".join(_NAMED_WITNESSES) + ", or a JSON weights file"


def float17(x: float) -> str:
    """Render a float at 17 significant digits (lossless round trip)."""
    return f"{float(x):.17g}"


def json_int(value, what: str) -> int:
    """An integer field read from JSON, which may write it as an integral
    float such as 1e6, but never as a bool, a fraction or anything else."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _json_number(value, what: str = "an entry") -> float:
    """A JSON number within a float's range: bools, strings, null and
    integers too large for a float are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or abs(value) > _FLOAT_MAX:
        raise ValueError(f"{what} must be a number within a float's range, got {value!r}")
    return float(value)


def _load(path: str, parse):
    """Decode the JSON file at path and return parse(document).  Every
    failure on the way, from a bad byte to a bad field, is one ValueError
    that names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(json.load(fh))
    except (ValueError, TypeError, ArithmeticError, RecursionError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _check_keys(data, required: tuple, optional: tuple = ()) -> None:
    """data is a JSON object with every required key and no unknown one."""
    keys = " and ".join(map(repr, required))
    if not isinstance(data, dict) or not set(required) <= set(data):
        raise ValueError(f"expected a JSON object with {keys}")
    unknown = sorted(set(data) - set(required + optional))
    if unknown:
        raise ValueError(f"unknown keys {unknown}; expected {list(required + optional)}")


def parse_weight_value(value) -> float:
    """Resolve a numeric weight or a "p/sqrt(q)" token (q >= 1) to a float."""
    if not isinstance(value, str):
        return _json_number(value, "weight")
    m = _TOKEN_RE.match(value.strip())
    try:
        return float(m.group(1)) / math.sqrt(int(m.group(2))) if m else float(value)
    except (ValueError, ArithmeticError):
        raise ValueError(f"cannot parse weight value {value!r}") from None


def parse_state_spec(spec: str) -> qcore.DensityMatrix:
    """Resolve a state spec string to a validated density matrix."""
    text = spec.strip()
    m = _WERNER_RE.match(text)
    if m:
        try:
            z = float(m.group(1))
        except ValueError:
            raise ValueError(f"werner parameter must be a number, got {m.group(1)!r}") from None
        return qcore.make_werner(z)
    if text == "bell_psi_plus":
        return qcore.bell_psi_plus()
    if text == "ghz":
        return qcore.ghz_state()
    m = re.match(r"^maximally_mixed\(\s*([123])\s*\)$", text)
    if m:
        return qcore.maximally_mixed(int(m.group(1)))
    if os.path.exists(text):
        return _load(text, _state_from_json)
    raise ValueError(f"unknown state spec {spec!r}; expected {STATE_NAMES}")


def _state_from_json(data) -> qcore.DensityMatrix:
    _check_keys(data, ("dim", "entries"))
    dim = json_int(data["dim"], "'dim'")
    pairs = data["entries"]
    if not isinstance(pairs, list) or not all(isinstance(p, list) and len(p) == 2 for p in pairs):
        raise ValueError("'entries' must be a list of [re, im] number pairs")
    what = "each part of the [re, im] number pairs in 'entries'"
    entries = [complex(_json_number(re_, what), _json_number(im, what)) for re_, im in pairs]
    if dim < 1 or dim * dim != len(entries):
        raise ValueError(f"{len(entries)} entries do not fill a {dim}x{dim} matrix")
    return qcore.DensityMatrix(np.array(entries).reshape(dim, dim))


def state_to_dict(rho: qcore.DensityMatrix) -> dict:
    return {
        "dim": rho.dim,
        "entries": [[z.real, z.imag] for z in rho.matrix.ravel()],
    }


def parse_witness_spec(spec: str) -> witness.Witness:
    """Resolve a witness spec string to a witness."""
    text = spec.strip()
    if text in _NAMED_WITNESSES:
        return _NAMED_WITNESSES[text]()
    if os.path.exists(text):
        return _load(text, _witness_from_json)
    raise ValueError(f"unknown witness spec {spec!r}; expected {WITNESS_NAMES}")


def _witness_from_json(data) -> witness.Witness:
    _check_keys(data, ("n", "weights"), ("payoff_on_state",))  # as `witness make` writes
    _json_number(data.get("payoff_on_state", 0.0), "'payoff_on_state'")
    n = json_int(data["n"], "'n'")
    if n not in (2, 3):
        raise ValueError(f"n must be 2 or 3, got {n}")
    if not isinstance(data["weights"], list):
        raise ValueError("'weights' must be a list of rows")
    table = np.zeros((4,) * n)
    seen = set()
    for row in data["weights"]:
        if not isinstance(row, list) or len(row) != n + 1:
            raise ValueError(f"weights row {row!r} is not {n} labels and a weight")
        *labels, value = row
        labels = tuple(json_int(l, "label") for l in labels)
        if any(l not in (0, 1, 2, 3) for l in labels):
            raise ValueError(f"bad label tuple {labels}")
        if labels in seen:
            raise ValueError(f"duplicate label tuple {labels}")
        seen.add(labels)
        table[labels] = parse_weight_value(value)
    return witness.Witness.from_weights(witness.PauliWeights(n, table))


def witness_to_dict(w: witness.Witness) -> dict:
    rows = []
    # a -0.0 weight is written too, so that a round trip is bit-exact
    table = w.weights.table
    for ix in np.argwhere((table != 0.0) | np.signbit(table)):
        labels = tuple(int(l) for l in ix)
        rows.append(list(labels) + [float(table[labels])])
    return {"n": w.n_qubits, "weights": rows}


def _json_numbers(value):
    """Nested JSON lists of numbers, checked entry by entry."""
    return [_json_numbers(v) for v in value] if isinstance(value, list) else _json_number(value)


def _pi_table(data, n: int) -> np.ndarray:
    """Label probabilities read from JSON: 4^n numbers, flat or nested, or
    an object holding them under "pi", checked by ``game.pi_table``."""
    if isinstance(data, dict):
        _check_keys(data, ("pi",))
        data = data["pi"]
    try:
        table = np.asarray(_json_numbers(data), dtype=np.float64).reshape((4,) * n)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"pi must be a list of {4 ** n} numbers: {exc}") from None
    return pi_table(table)


def parse_pi_spec(spec: str, weights: witness.PauliWeights, rounds: int, seed: int):
    """Build a game config from "uniform", "support-only", or a JSON file
    holding the label probabilities (flat or nested, or under a "pi" key)."""
    n = weights.n_qubits
    text = spec.strip()
    if text == "uniform":
        return GameConfig.uniform(rounds, seed, n_parties=n)
    if text == "support-only":
        return GameConfig.support_only(weights, rounds, seed)
    if not os.path.exists(text):
        raise ValueError(f"unknown pi spec {spec!r}; expected uniform, support-only, or a file")
    # the table is checked where it is read, so that an error in it names its
    # file; rounds and seed are checked after, so that theirs do not
    return GameConfig(_load(text, lambda data: _pi_table(data, n)), rounds, seed)
