"""Which error wins: every validator on the simulate path, fed one
corruption at a time, must raise exactly the message pinned here.

The validators run their cheap reductions first and build the wording of
an error only after a check has failed, so this table is what shows that
the order of the checks, and so the error a caller sees, did not move.
Non-finite entries must be reported as such, never pass a tolerance check
or reach arithmetic that warns.
"""

import numpy as np
import pytest

import ewgame as ew
from ewgame import game, qcore

NAN, INF = np.nan, np.inf

WERNER = ew.make_werner(0.5).matrix
PI = np.full((4, 4), 1 / 16)
TABLE = np.full((4, 4, 4), 0.25)
COUNTS = np.arange(64, dtype=np.int64).reshape(16, 4)
WEIGHTS = ew.werner_witness().weights
OPERATOR = ew.werner_witness().operator


def put(base, *entries):
    """A copy of base with each (index, value) pair written into it."""
    out = np.array(base)
    for ix, value in entries:
        out[ix] = value
    return out


def in_stack(m):
    """m as the middle of three density matrices."""
    return np.stack([WERNER, m, WERNER])


NOT_FINITE = "density matrix contains non-finite entries"
HERMITIAN = "density matrix is not Hermitian (max deviation 1.000e-01)"
NEGATIVE = "density matrix has negative eigenvalue -1.000e-01"
DIAG = np.diag([-0.1, 0.4, 0.4, 0.3]).astype(complex)

VALIDATORS = {
    "DensityMatrix": ew.DensityMatrix,
    "stack": qcore.validate_density_matrices,
    "Strategy": lambda t: ew.Strategy("bad", t),
    "GameConfig": lambda p: ew.GameConfig(p, 10, 0),
    "GameConfig, zero rounds": lambda p: ew.GameConfig(p, 0, 0),
    "count_table": game.count_table,
    "PauliWeights": ew.PauliWeights,
    # a table of n axes of length 4, so that only the qubit count it implies is wrong
    "PauliWeights, qubit count": lambda n: ew.PauliWeights(np.ones((4,) * n)),
    "Witness": ew.Witness.from_operator,
}

# validator, corruption, input, expected message (None: accepted)
CASES = [
    ("DensityMatrix", "nan", put(WERNER, ((0, 3), NAN)), NOT_FINITE),
    ("DensityMatrix", "+inf", put(WERNER, ((1, 1), INF)), NOT_FINITE),
    ("DensityMatrix", "-inf", put(WERNER, ((1, 1), -INF)), NOT_FINITE),
    ("DensityMatrix", "nan and not Hermitian", put(WERNER, ((0, 1), 0.1), ((2, 2), NAN)),
     NOT_FINITE),
    ("DensityMatrix", "negative entry", DIAG, NEGATIVE),
    ("DensityMatrix", "wrong trace", WERNER * 1.1, "density matrix trace is 1.1+0j, expected 1"),
    ("DensityMatrix", "not Hermitian", put(WERNER, ((0, 1), 0.1)), HERMITIAN),
    ("DensityMatrix", "not Hermitian, wrong trace and negative",
     put(DIAG * 2, ((0, 1), 0.1)), HERMITIAN),
    ("DensityMatrix", "wrong trace and negative", DIAG * 2,
     "density matrix trace is 2+0j, expected 1"),
    ("DensityMatrix", "empty", np.zeros((0, 0)),
     "density matrix dimension must be 2, 4 or 8, got 0"),
    ("DensityMatrix", "stack", in_stack(WERNER),
     "density matrix must be a square matrix, got shape (3, 4, 4)"),
    ("stack", "nan", in_stack(put(WERNER, ((0, 3), NAN))), NOT_FINITE),
    ("stack", "+inf", in_stack(put(WERNER, ((1, 1), INF))), NOT_FINITE),
    ("stack", "-inf", in_stack(put(WERNER, ((1, 1), -INF))),
     NOT_FINITE),
    ("stack", "negative entry", in_stack(DIAG), NEGATIVE),
    ("stack", "wrong trace", in_stack(WERNER * 1.1),
     "density matrix trace is 1.1+0j, expected 1"),
    ("stack", "not Hermitian", in_stack(put(WERNER, ((0, 1), 0.1))),
     HERMITIAN),
    ("stack", "empty", np.zeros((0, 4, 4)),
     "density matrix stack is empty"),
    ("stack", "valid", in_stack(WERNER), None),
    ("Strategy", "nan", put(TABLE, ((1, 2, 3), NAN)),
     "outcome probabilities must be finite"),
    ("Strategy", "+inf", put(TABLE, ((1, 2, 3), INF)),
     "outcome probabilities must be finite"),
    ("Strategy", "-inf", put(TABLE, ((1, 2, 3), -INF)),
     "outcome probabilities must be finite"),
    ("Strategy", "negative entry and wrong sum",
     put(TABLE, ((1, 2, 3), -0.25)), "negative outcome probability -2.500e-01"),
    ("Strategy", "wrong sum", put(TABLE, ((1, 2, 3), 0.35)),
     "outcome probabilities must sum to 1 in every label cell"),
    ("Strategy", "empty", np.zeros(0),
     "outcome table must have shape (4,)*n + (2^n,), got (0,)"),
    ("GameConfig", "nan", put(PI, ((2, 1), NAN)),
     "pi entries must be finite"),
    ("GameConfig", "+inf", put(PI, ((2, 1), INF)),
     "pi entries must be finite"),
    ("GameConfig", "-inf", put(PI, ((2, 1), -INF)),
     "pi entries must be finite"),
    ("GameConfig", "+inf and negative entry",
     put(PI, ((2, 1), INF), ((0, 0), -0.5)), "pi entries must be finite"),
    ("GameConfig", "+inf and -inf", put(PI, ((2, 1), INF), ((0, 0), -INF)),
     "pi entries must be finite"),
    ("GameConfig", "negative entry",
     put(PI, ((0, 0), -1 / 16), ((0, 1), 3 / 16)), "pi entries must be nonnegative"),
    ("GameConfig", "negative entry and wrong sum", put(PI, ((0, 0), -0.5)),
     "pi entries must be nonnegative"),
    ("GameConfig", "wrong sum", PI * 1.1, "pi must sum to 1, got 1.1"),
    ("GameConfig, zero rounds", "wrong sum", PI * 1.1,
     "pi must sum to 1, got 1.1"),
    ("GameConfig", "empty", np.zeros(0),
     "pi must have shape (4, 4) or (4, 4, 4), got (0,)"),
    ("count_table", "nan", put(COUNTS.astype(float), ((3, 1), NAN)),
     "counts must be nonnegative integers"),
    ("count_table", "+inf", put(COUNTS.astype(float), ((3, 1), INF)),
     "counts must be nonnegative integers"),
    ("count_table", "-inf", put(COUNTS.astype(float), ((3, 1), -INF)),
     "counts must be nonnegative integers"),
    ("count_table", "negative entry", put(COUNTS, ((3, 1), -1)),
     "counts must be nonnegative integers"),
    ("count_table", "negative float entry", put(COUNTS.astype(float), ((3, 1), -1.0)),
     "counts must be nonnegative integers"),
    ("count_table", "fraction", put(COUNTS.astype(float), ((3, 1), 2.5)),
     "counts must be nonnegative integers"),
    ("count_table", "beyond int64", np.full((16, 4), 2 ** 63, dtype=np.uint64),
     "counts must be nonnegative integers"),
    ("count_table", "empty", np.zeros(0, dtype=np.int64), None),
    ("count_table", "empty float", np.zeros((0, 4)), None),
    ("count_table", "empty uint", np.zeros(0, dtype=np.uint64), None),
    ("PauliWeights", "nan", put(WEIGHTS.table, ((1, 1), NAN)),
     "weights must be finite"),
    ("PauliWeights", "+inf", put(WEIGHTS.table, ((1, 1), INF)),
     "weights must be finite"),
    ("PauliWeights", "-inf", put(WEIGHTS.table, ((1, 1), -INF)),
     "weights must be finite"),
    ("PauliWeights", "all zero", np.zeros((4, 4)),
     "weights must have at least one nonzero entry"),
    ("PauliWeights", "all -0.0", np.full((4, 4), -0.0),
     "weights must have at least one nonzero entry"),
    ("PauliWeights", "nan, otherwise zero", put(np.zeros((4, 4)), ((1, 1), NAN)),
     "weights must be finite"),
    ("PauliWeights", "negative entry", -WEIGHTS.table, None),
    ("PauliWeights", "empty", np.zeros(0),
     "weights must have shape (4,)*n for n = 1, 2 or 3, got (0,)"),
    ("PauliWeights, qubit count", "zero", 0,
     "weights must have shape (4,)*n for n = 1, 2 or 3, got ()"),
    ("PauliWeights, qubit count", "four", 4,
     "weights must have shape (4,)*n for n = 1, 2 or 3, got (4, 4, 4, 4)"),
    ("Witness", "nan", np.full((4, 4), NAN), "matrix contains non-finite entries"),
    ("Witness", "+inf", put(OPERATOR, ((1, 1), INF)), "matrix contains non-finite entries"),
    ("Witness", "-inf", put(OPERATOR, ((1, 1), -INF)), "matrix contains non-finite entries"),
    ("Witness", "not Hermitian", put(OPERATOR, ((0, 1), 0.1)),
     "matrix is not Hermitian (max deviation 1.000e-01)"),
    ("Witness", "empty", np.zeros((0, 0)), "matrix dimension must be 2, 4 or 8, got 0"),
    ("Witness", "scalar", np.float64(1.0), "matrix must be a square matrix, got shape ()"),
]


@pytest.mark.parametrize("validator,corruption,value,message", CASES,
                         ids=[f"{v}-{c}" for v, c, _, _ in CASES])
def test_rejection_wording(validator, corruption, value, message):
    if message is None:
        VALIDATORS[validator](value)
        return
    with pytest.raises(ValueError) as err:
        VALIDATORS[validator](value)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# Tolerance checks that once let NaN through
# ---------------------------------------------------------------------------

NON_FINITE = [NAN, INF, -INF]


@pytest.mark.parametrize("value", NON_FINITE)
def test_witness_rejects_non_finite_operator(value):
    with pytest.raises(ValueError, match="matrix contains non-finite entries"):
        ew.Witness.from_operator(np.full((4, 4), value))
    with pytest.raises(ValueError, match="matrix contains non-finite entries"):
        ew.Witness.from_operator(put(OPERATOR, ((2, 3), value)))


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_pauli_traces_rejects_non_finite(value, n):
    m = put(np.eye(2 ** n) / 2 ** n, ((0, 0), value))
    with pytest.raises(ValueError, match="matrix contains non-finite entries"):
        qcore.pauli_traces(m)
    with pytest.raises(ValueError, match="non-finite"):
        ew.Witness.from_operator(np.full((2 ** n, 2 ** n), value))


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("operand", ["first", "second", "both"])
def test_trace_distance_rejects_non_finite(value, operand):
    # checked before the subtraction, which would warn on inf - inf
    bad = np.full((4, 4), value)
    a, b = {"first": (bad, ew.make_werner(0.5)), "second": (WERNER, bad),
            "both": (bad, bad)}[operand]
    with pytest.raises(ValueError) as err:
        ew.trace_distance(a, b)
    assert str(err.value) == "operator contains non-finite entries"
