"""Text formats shared by the command line and scripts: state and witness
specs, weight files with exact symbolic constants, and structured summaries.

States are named constructors ("werner(0.5)", "bell_psi_plus", "ghz") or a
path to a JSON file {"dim": d, "entries": [[re, im], ...]} listing the dense
matrix row-major.  Witnesses are named constructors ("werner", "chsh",
"chsh-strengthened", "ghz") or a path to a JSON file {"n": 2, "weights":
[[s, t, w], ...]} where w is a number or a token like "1/sqrt(3)" or
"-1/sqrt(2)", resolved to full double precision.
"""

from __future__ import annotations

import json
import math
import os
import re

import numpy as np

from . import multiparty, qcore, witness

_WERNER_RE = re.compile(r"^werner\(\s*([-+0-9.eE]+)\s*\)$")
_TOKEN_RE = re.compile(r"^([-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)\s*/\s*sqrt\(\s*([0-9]+)\s*\)$")

_NAMED_WITNESSES = {
    "werner": witness.werner_witness,
    "chsh": witness.fixed_chsh_witness,
    "chsh-strengthened": witness.strengthened_chsh_witness,
    "ghz": multiparty.ghz_witness,
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


def _json_number(value) -> float:
    """A JSON number; bools and strings are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def parse_weight_value(value) -> float:
    """Resolve a numeric weight or a "p/sqrt(q)" token to a float."""
    if isinstance(value, bool):
        raise ValueError(f"weight must be a number or a 'p/sqrt(q)' token, got {value!r}")
    if isinstance(value, (int, float)):
        return float(value)
    text = str(value).strip()
    m = _TOKEN_RE.match(text)
    if m:
        return float(m.group(1)) / math.sqrt(int(m.group(2)))
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"cannot parse weight value {value!r}") from None


def parse_state_spec(spec: str) -> qcore.DensityMatrix:
    """Resolve a state spec string to a validated density matrix."""
    text = spec.strip()
    m = _WERNER_RE.match(text)
    if m:
        return qcore.make_werner(float(m.group(1)))
    if text == "bell_psi_plus":
        return qcore.bell_psi_plus()
    if text == "ghz":
        return multiparty.ghz_state()
    m = re.match(r"^maximally_mixed\(\s*([123])\s*\)$", text)
    if m:
        return qcore.maximally_mixed(int(m.group(1)))
    if os.path.exists(text):
        return load_state_file(text)
    raise ValueError(f"unknown state spec {spec!r}; expected {STATE_NAMES}")


def load_state_file(path: str) -> qcore.DensityMatrix:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "entries" not in data:
        raise ValueError(f"{path}: expected a JSON object with 'dim' and 'entries'")
    dim = json_int(data.get("dim", 0), f"{path}: 'dim'")
    try:
        entries = [complex(_json_number(re_), _json_number(im)) for re_, im in data["entries"]]
    except (TypeError, ValueError):
        raise ValueError(f"{path}: 'entries' must be a list of [re, im] number pairs") from None
    if dim < 1 or dim * dim != len(entries):
        raise ValueError(f"{path}: {len(entries)} entries do not fill a {dim}x{dim} matrix")
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
        return load_witness_file(text)
    raise ValueError(f"unknown witness spec {spec!r}; expected {WITNESS_NAMES}")


def load_witness_file(path: str) -> witness.Witness:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "n" not in data or "weights" not in data:
        raise ValueError(f"{path}: expected a JSON object with 'n' and 'weights'")
    n = json_int(data["n"], f"{path}: 'n'")
    if n not in (2, 3):
        raise ValueError(f"{path}: n must be 2 or 3, got {n}")
    if not isinstance(data["weights"], list):
        raise ValueError(f"{path}: 'weights' must be a list of rows")
    table = np.zeros((4,) * n)
    seen = set()
    for row in data["weights"]:
        if not isinstance(row, list) or len(row) != n + 1:
            raise ValueError(f"{path}: weights row {row!r} is not {n} labels and a weight")
        *labels, value = row
        labels = tuple(json_int(l, f"{path}: label") for l in labels)
        if any(l not in (0, 1, 2, 3) for l in labels):
            raise ValueError(f"{path}: bad label tuple {labels}")
        if labels in seen:
            raise ValueError(f"{path}: duplicate label tuple {labels}")
        seen.add(labels)
        try:
            table[labels] = parse_weight_value(value)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return witness.Witness.from_weights(witness.PauliWeights(n, table))


def witness_to_dict(w: witness.Witness) -> dict:
    rows = []
    for ix in np.argwhere(w.weights.table != 0.0):
        labels = tuple(int(l) for l in ix)
        rows.append(list(labels) + [float(w.weights.table[labels])])
    return {"n": w.n_qubits, "weights": rows}


def _json_numbers(value):
    """Nested JSON lists of numbers, checked entry by entry."""
    return [_json_numbers(v) for v in value] if isinstance(value, list) else _json_number(value)


def _pi_table(data, n: int, source: str) -> np.ndarray:
    """Label probabilities read from JSON: 4^n numbers, flat or nested."""
    try:
        return np.asarray(_json_numbers(data), dtype=np.float64).reshape((4,) * n)
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{source}: pi must be a list of {4 ** n} numbers: {exc}") from None


def parse_pi_spec(spec: str | list, weights: witness.PauliWeights, rounds: int, seed: int):
    """Build a game config from "uniform", "support-only", a JSON file
    holding the label probabilities (flat or nested, or under a "pi" key),
    or such a table given inline as a run spec's "pi" field."""
    from .game import GameConfig

    n = weights.n_qubits
    if not isinstance(spec, str):
        return GameConfig(_pi_table(spec, n, "config field 'pi'"), rounds, seed)
    text = spec.strip()
    if text == "uniform":
        return GameConfig.uniform(rounds, seed, n_parties=n)
    if text == "support-only":
        return GameConfig.support_only(weights, rounds, seed)
    if os.path.exists(text):
        with open(text) as fh:
            data = json.load(fh)
        if isinstance(data, dict):
            if "pi" not in data:
                raise ValueError(f"{text}: expected a JSON object with a 'pi' key")
            data = data["pi"]
        return GameConfig(_pi_table(data, n, text), rounds, seed)
    raise ValueError(f"unknown pi spec {spec!r}; expected uniform, support-only, or a file")
