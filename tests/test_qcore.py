import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ewgame as ew
from conftest import pauli_string
from ewgame import qcore

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


class TestPauliString:
    """The rows of qcore.pauli_basis against the oracle of conftest, which
    Kronecker-multiplies Pauli matrices written out there."""

    def test_single_x(self):
        assert np.array_equal(qcore.pauli_basis(1)[1], SX)

    def test_identity_pair(self):
        assert np.array_equal(qcore.pauli_basis(2)[0], np.eye(4))

    def test_zz_diagonal(self):
        # direct tensor-product evaluation
        zz = qcore.pauli_basis(2)[15]
        assert np.array_equal(zz, np.diag([1, -1, -1, 1]).astype(complex))
        assert np.array_equal(zz, np.kron(SZ, SZ))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_basis_is_the_oracle_stack_in_ndindex_order(self, n):
        basis = qcore.pauli_basis(n)
        oracle = np.stack([pauli_string(labels) for labels in np.ndindex((4,) * n)])
        assert basis.dtype == np.complex128 and basis.shape == oracle.shape
        assert basis.tobytes() == oracle.tobytes()
        assert not basis.flags.writeable

    @pytest.mark.parametrize("n", [0, 4, True], ids=["zero", "four", "bool"])
    def test_basis_rejects_a_bad_qubit_count(self, n):
        # True is not 1: the cache is typed, so a cached basis of 1 does not answer it
        qcore.pauli_basis(1)
        with pytest.raises(ValueError) as err:
            qcore.pauli_basis(n)
        assert str(err.value) == f"n_qubits must be an integer from 1 to 3, got {n!r}"

    @pytest.mark.parametrize("n", [0, 4], ids=["0-d", "(4,)*4"])
    def test_coefficients_reject_a_bad_qubit_count(self, n):
        with pytest.raises(ValueError) as err:
            ew.from_pauli_coefficients(np.ones((4,) * n))
        assert str(err.value) == f"n_qubits must be an integer from 1 to 3, got {n}"

    @pytest.mark.parametrize("n", [2, 3])
    def test_orthogonality_exhaustive(self, n):
        basis = qcore.pauli_basis(n)
        assert basis.shape == (4 ** n, 2 ** n, 2 ** n)
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                expect = 2.0 ** n if i == j else 0.0
                assert abs(np.trace(a @ b) - expect) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_hermitian_and_involutive(self, n):
        for m in qcore.pauli_basis(n):
            assert np.max(np.abs(m - m.conj().T)) == 0.0
            assert np.max(np.abs(m @ m - np.eye(2 ** n))) < 1e-15


class TestNamedStates:
    def test_werner_zero_is_maximally_mixed(self):
        assert np.allclose(ew.make_werner(0.0).matrix, np.eye(4) / 4, atol=1e-15)

    def test_werner_one_is_pure_bell(self):
        rho = ew.make_werner(1.0)
        assert abs(np.trace(rho.matrix @ rho.matrix).real - 1.0) < 1e-12
        assert np.allclose(rho.matrix, ew.bell_psi_plus().matrix, atol=1e-15)

    def test_werner_boundary_partial_transpose_eigenvalue(self):
        # at the separability threshold the partial transpose touches zero
        pt = ew.partial_transpose(ew.make_werner(1.0 / 3.0))
        assert abs(np.linalg.eigvalsh(pt)[0]) < 1e-12

    @pytest.mark.parametrize("z", [-0.1, 1.1, 2.0])
    def test_werner_domain(self, z):
        with pytest.raises(ValueError):
            ew.make_werner(z)

    @pytest.mark.parametrize("n_qubits", [True, 0, 4, 2.0, np.float64(2.0)],
                             ids=["bool", "zero", "four", "float", "numpy float"])
    def test_maximally_mixed_rejects_a_bad_qubit_count(self, n_qubits):
        # True is no qubit count, not even 1
        with pytest.raises(ValueError) as err:
            ew.maximally_mixed(n_qubits)
        assert str(err.value) == f"n_qubits must be an integer from 1 to 3, got {n_qubits!r}"


INTEGER_LIKE = st.one_of(
    st.integers(-10, 10), st.booleans(), st.floats(-10, 10), st.none(), st.text(max_size=2),
    st.sampled_from([np.int8, np.int64, np.uint8, np.uint64]).flatmap(
        lambda t: st.integers(0, 10).map(t)),
    st.integers(-10, 10).map(np.float64), st.just(np.bool_(True)))


@settings(max_examples=300, deadline=None)
@given(value=INTEGER_LIKE, low=st.integers(-5, 5), span=st.none() | st.integers(0, 6))
def test_check_int_accepts_exactly_the_integers_in_range(value, low, span):
    high = None if span is None else low + span
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if integer and low <= value and (high is None or value <= high):
        got = qcore.check_int(value, "x", low, high)
        assert type(got) is int and got == value
        return
    bounds = f">= {low}" if high is None else f"from {low} to {high}"
    with pytest.raises(ValueError) as err:
        qcore.check_int(value, "x", low, high)
    assert str(err.value) == f"x must be an integer {bounds}, got {value!r}"


class TestDensityMatrixValidation:
    def test_random_states_always_valid(self, rng):
        for _ in range(1000):
            dim = int(rng.choice([2, 4, 8]))
            ew.random_density_matrix(rng, dim)  # raises on any violation

    @pytest.mark.parametrize("dim", [2.5, True, 1, 16, 3, 5, 6, 7, 9, 4.0])
    def test_random_state_dimension_is_an_integer_in_range(self, dim):
        # one message for every rejected dimension, checked before anything
        # is drawn; a ValueError, never numpy's TypeError for a float shape
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        with pytest.raises(ValueError) as err:
            ew.random_density_matrix(rng, dim)
        assert str(err.value) == f"dim must be 2, 4 or 8, got {dim!r}"
        assert rng.random() == twin.random()

    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            ew.DensityMatrix(m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            ew.DensityMatrix(np.eye(4, dtype=complex) / 2)

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.1, 0.0, 0.0, -0.1]).astype(complex)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            ew.DensityMatrix(m)

    def test_tolerates_rounding_scale_negativity(self):
        m = np.diag([1.0 + 5e-11, 0.0, 0.0, -5e-11]).astype(complex)
        ew.DensityMatrix(m)

    def test_rejects_non_finite(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            ew.DensityMatrix(m)

    def test_rejects_a_stack(self):
        with pytest.raises(ValueError, match="square matrix"):
            ew.DensityMatrix(np.stack([np.eye(4, dtype=complex) / 4] * 2))

    def test_stack_checks_match_single_matrix_checks(self, rng):
        good = np.stack([ew.random_density_matrix(rng, 4).matrix for _ in range(5)])
        assert np.array_equal(qcore.validate_density_matrices(good), good)
        non_hermitian = np.eye(4, dtype=complex) / 4
        non_hermitian[0, 1] = 0.1
        bad = [non_hermitian, np.eye(4, dtype=complex) / 2,
               np.diag([1.1, 0.0, 0.0, -0.1]).astype(complex)]
        nan = np.eye(4, dtype=complex) / 4
        nan[0, 0] = np.nan
        bad.append(nan)
        for m in bad:
            with pytest.raises(ValueError) as single:
                ew.DensityMatrix(m)
            stack = good.copy()
            stack[3] = m
            with pytest.raises(ValueError) as batched:
                qcore.validate_density_matrices(stack.reshape(1, 5, 4, 4))
            assert str(batched.value) == str(single.value)

    @settings(max_examples=200, deadline=None)
    @given(dim=st.sampled_from([2, 4, 8]), seed=st.integers(0, 2 ** 32 - 1),
           deltas=st.lists(st.floats(1e-13, 1e-11) | st.floats(-1e-11, -1e-13),
                           min_size=1, max_size=4),
           stack=st.booleans())
    def test_positivity_at_the_tolerance_matches_the_eigenvalues(self, dim, seed, deltas, stack):
        # each matrix has lowest eigenvalue -PSD_TOL + delta in a random
        # eigenbasis; the oracle is the lowest eigenvalue of the Hermitian part
        gen = np.random.default_rng(seed)
        matrices = []
        for delta in deltas if stack else deltas[:1]:
            g = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
            u, _ = np.linalg.qr(g)
            low = -qcore.PSD_TOL + delta
            spectrum = np.concatenate([[low], gen.dirichlet(np.ones(dim - 1)) * (1.0 - low)])
            matrices.append((u * spectrum) @ u.conj().T)
        m = np.stack(matrices) if stack else matrices[0]
        h = (m + m.conj().swapaxes(-1, -2)) / 2
        if np.min(np.linalg.eigvalsh(h)[..., 0]) >= -qcore.PSD_TOL:
            assert qcore.validate_density_matrices(m, stack).tobytes() == h.tobytes()
        else:
            with pytest.raises(ValueError, match="negative eigenvalue"):
                qcore.validate_density_matrices(m, stack)

    def test_matrix_is_frozen(self):
        rho = ew.make_werner(0.5)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 0.3


# ---------------------------------------------------------------------------
# No eigensolve to accept a state
# ---------------------------------------------------------------------------

WARM_VALIDATIONS = {
    "check_witness 2q": lambda: ew.check_witness(
        ew.ppt_witness(ew.make_werner(0.9)), ew.make_werner(0.9), 300,
        np.random.default_rng(1)),
    "check_witness 3q": lambda: ew.check_witness(
        ew.ghz_witness(), ew.ghz_state(), 60, np.random.default_rng(2)),
    **{f"DensityMatrix {name}": (lambda make=make: ew.DensityMatrix(make().matrix))
       for name, make in [("bell_psi_plus", ew.bell_psi_plus), ("ghz", ew.ghz_state),
                          ("werner(0.3)", lambda: ew.make_werner(0.3)),
                          ("maximally_mixed(3)", lambda: ew.maximally_mixed(3))]},
}


@pytest.mark.parametrize("call", WARM_VALIDATIONS.values(), ids=WARM_VALIDATIONS.keys())
def test_warm_validation_makes_no_eigensolve(eigvalsh_calls, call):
    call()
    eigvalsh_calls.clear()
    call()
    assert eigvalsh_calls == []


@pytest.mark.parametrize("stack", [False, True])
def test_rejection_makes_one_eigensolve(eigvalsh_calls, stack):
    bad = np.diag([1.1, 0.0, 0.0, -0.1]).astype(complex)
    m = np.stack([np.eye(4, dtype=complex) / 4, bad]) if stack else bad
    with pytest.raises(ValueError, match="negative eigenvalue -1.000e-01"):
        qcore.validate_density_matrices(m, stack)
    assert eigvalsh_calls == [m.shape]


HERMITIAN_PART_USERS = {
    "validate one": lambda m: qcore.validate_density_matrices(m[0], stack=False),
    "validate stack": qcore.validate_density_matrices,
    "hermitian_eigensystem": lambda m: ew.hermitian_eigensystem(m[0]),
    "pauli_traces": lambda m: qcore.pauli_traces(m[0]),
    "partial_transpose": lambda m: ew.partial_transpose(m[0]),
    "trace_distance": lambda m: ew.trace_distance(m[0], m[1]),
    "DensityMatrix": lambda m: ew.DensityMatrix(m[0]),
}


@pytest.mark.parametrize("call", HERMITIAN_PART_USERS.values(), ids=HERMITIAN_PART_USERS.keys())
def test_hermitian_part_leaves_the_input_untouched(rng, call):
    # the Hermitian part is built in place, in the buffer of the adjoint, from
    # an input that is Hermitian only within HERMITICITY_TOL
    m = np.stack([ew.random_density_matrix(rng, 4).matrix for _ in range(3)])
    m[:, 0, 1] += 1e-12j
    before = m.copy()
    call(m)
    assert m.tobytes() == before.tobytes()


class TestPauliCoefficients:
    def test_maximally_mixed(self):
        r = qcore.pauli_traces(ew.maximally_mixed(2).matrix)
        assert r[0, 0] == pytest.approx(1.0, abs=1e-15)
        values = r.copy()
        values[0, 0] = 0.0
        assert np.max(np.abs(values)) < 1e-15

    def test_bell_state_correlations(self):
        # direct trace evaluation oracle
        rho = ew.bell_psi_plus()
        r = qcore.pauli_traces(rho.matrix)
        for labels in np.ndindex(4, 4):
            direct = np.trace(rho.matrix @ pauli_string(labels)).real
            assert r[labels] == pytest.approx(direct, abs=1e-14)
        assert r[1, 1] == pytest.approx(1.0, abs=1e-14)
        assert r[2, 2] == pytest.approx(-1.0, abs=1e-14)
        assert r[3, 3] == pytest.approx(1.0, abs=1e-14)

    def test_werner_scales_linearly(self):
        # linearity of the trace: r(werner(z)) interpolates mixed <-> Bell
        r_bell = qcore.pauli_traces(ew.bell_psi_plus().matrix)
        for z in (0.25, 0.5, 0.9):
            r = qcore.pauli_traces(ew.make_werner(z).matrix)
            expect = r_bell * z
            expect[0, 0] = 1.0
            assert np.max(np.abs(r - expect)) < 1e-12

    def test_roundtrip_random_states(self, rng):
        for _ in range(1000):
            rho = ew.random_density_matrix(rng, 4)
            back = ew.from_pauli_coefficients(qcore.pauli_traces(rho.matrix))
            assert np.max(np.abs(back - rho.matrix)) < 1e-12

    def test_residue_bound_covers_every_accepted_state(self):
        # each entry is within HERMITICITY_TOL of its adjoint's, yet the
        # imaginary parts of the 2^3 entries of e.g. I (x) I (x) sigma_x add
        # up in its trace; the entrywise rule alone decides
        m = np.eye(8, dtype=complex) / 8
        for a in range(4):
            m[2 * a, 2 * a + 1] += 0.45e-10j
            m[2 * a + 1, 2 * a] += 0.45e-10j
        rho = ew.DensityMatrix(m)
        r = qcore.pauli_traces(rho.matrix)
        assert r[0, 0, 0] == pytest.approx(1.0, abs=1e-15)
        ew.honest_strategy(rho)

    def test_rejects_clearly_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 1e-6j
        with pytest.raises(ValueError) as err:
            qcore.pauli_traces(m)
        assert str(err.value) == "matrix is not Hermitian (max deviation 1.000e-06)"

    def test_from_identity_coefficient_only(self):
        table = np.zeros((4, 4))
        table[0, 0] = 1.0
        assert np.allclose(ew.from_pauli_coefficients(table), np.eye(4) / 4, atol=1e-15)

    def test_coefficient_table_must_be_4_per_axis(self):
        with pytest.raises(ValueError) as err:
            ew.from_pauli_coefficients(np.zeros((4, 3)))
        assert str(err.value) == "coefficient table must have shape (4,)*n, got (4, 3)"

    def test_random_table_gives_hermitian(self, rng):
        table = rng.uniform(-1, 1, size=(4, 4))
        m = ew.from_pauli_coefficients(table)
        assert np.max(np.abs(m - m.conj().T)) < 1e-14


class TestPartialTranspose:
    def test_identity_fixed_point(self):
        assert np.array_equal(ew.partial_transpose(np.eye(4) / 4), np.eye(4) / 4)

    def test_bell_state_eigenvalues(self):
        pt = ew.partial_transpose(ew.bell_psi_plus())
        vals = np.linalg.eigvalsh(pt)  # independent eigensolver oracle
        assert np.allclose(np.sort(vals), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_involution_trace_hermiticity(self, rng):
        for _ in range(50):
            rho = ew.random_density_matrix(rng, 4)
            pt = ew.partial_transpose(rho)
            assert np.max(np.abs(ew.partial_transpose(pt) - rho.matrix)) < 1e-15
            assert abs(np.trace(pt) - 1.0) < 1e-12
            assert np.max(np.abs(pt - pt.conj().T)) < 1e-12

    def test_product_state_stays_psd(self, rng):
        for _ in range(50):
            rho = ew.random_separable(rng, k=1)
            vals = np.linalg.eigvalsh(ew.partial_transpose(rho))
            assert vals[0] > -1e-12

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            ew.partial_transpose(np.eye(8) / 8)


class TestEigensystem:
    def test_sigma_z(self):
        vals, _ = ew.hermitian_eigensystem(SZ)
        assert np.allclose(vals, [-1.0, 1.0], atol=1e-14)

    def test_rank_one_projector(self):
        vals, _ = ew.hermitian_eigensystem(ew.bell_psi_plus().matrix)
        assert np.allclose(vals, [0, 0, 0, 1], atol=1e-12)

    def test_partial_transpose_of_bell(self):
        vals, _ = ew.hermitian_eigensystem(ew.partial_transpose(ew.bell_psi_plus()))
        assert np.allclose(vals, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_against_lapack_and_contracts(self, dim, rng):
        for _ in range(60):
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = (g + g.conj().T) / 2
            vals, vecs = ew.hermitian_eigensystem(h)
            assert np.all(np.diff(vals) >= 0)
            assert np.allclose(vals, np.linalg.eigvalsh(h), atol=1e-10)
            # residual, orthonormality, reconstruction
            assert np.max(np.abs(h @ vecs - vecs * vals)) < 1e-9
            assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(dim))) < 1e-9
            recon = (vecs * vals) @ vecs.conj().T
            assert np.max(np.abs(recon - h)) < 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            ew.hermitian_eigensystem(np.array([[0, 1], [0, 0]], dtype=complex))


class TestTraceDistance:
    def test_identical_states(self):
        rho = ew.make_werner(0.7)
        assert ew.trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        zero = ew.DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        one = ew.DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
        assert ew.trace_distance(zero, one) == pytest.approx(1.0, abs=1e-14)

    def test_mixed_vs_bell(self):
        # eigenvalues of I/4 - psi+ are {1/4, 1/4, 1/4, -3/4}: distance 3/4
        d = ew.trace_distance(ew.maximally_mixed(2), ew.bell_psi_plus())
        assert d == pytest.approx(0.75, abs=1e-12)

    def test_bounds_and_symmetry(self, rng):
        for _ in range(50):
            a = ew.random_density_matrix(rng, 4)
            b = ew.random_density_matrix(rng, 4)
            d = ew.trace_distance(a, b)
            assert 0.0 <= d <= 1.0 + 1e-12
            assert d == pytest.approx(ew.trace_distance(b, a), abs=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ew.trace_distance(ew.maximally_mixed(2), ew.maximally_mixed(3))


# ---------------------------------------------------------------------------
# One door for every operator argument, one Hermiticity rule
# ---------------------------------------------------------------------------

def off_hermitian(gen, h, k, diagonal=True):
    """h plus a random anti-Hermitian part scaled so that the entrywise
    deviation max|M - M^dag| of the sum is k * HERMITICITY_TOL, up to the
    rounding of the sum.  With diagonal=False the part is zero on the
    diagonal, so a state keeps its trace."""
    d = h.shape[0]
    g = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
    a = (g - g.conj().T) / 2
    if not diagonal:
        a[np.diag_indices(d)] = 0.0
    a *= k * qcore.HERMITICITY_TOL / abs(2 * a).max()
    return h + a


def as_bytes(out):
    """The bytes of a result: an array, a float, a DensityMatrix's matrix or
    a tuple of those."""
    if isinstance(out, tuple):
        return b"".join(as_bytes(x) for x in out)
    if isinstance(out, ew.DensityMatrix):
        out = out.matrix
    return np.asarray(out).tobytes()


OPERATOR_CALLS = {
    "pauli_traces": (qcore.pauli_traces, "matrix"),
    "Witness.from_operator": (ew.Witness.from_operator, "matrix"),
    "hermitian_eigensystem": (ew.hermitian_eigensystem, "operator"),
    "trace_distance(M, M)": (lambda m: ew.trace_distance(m, m), "operator"),
}


@pytest.mark.parametrize("call,name", OPERATOR_CALLS.values(), ids=OPERATOR_CALLS.keys())
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([1, 2, 3]),
       k=st.sampled_from([0.5, 0.99, 1.01, 2.0]))
def test_one_entrywise_rule_decides_hermiticity(call, name, seed, n, k):
    gen = np.random.default_rng(seed)
    g = gen.normal(size=(2 ** n, 2 ** n)) + 1j * gen.normal(size=(2 ** n, 2 ** n))
    m = off_hermitian(gen, (g + g.conj().T) / 2, k)
    dev = abs(m - m.conj().T).max()
    assert dev == pytest.approx(k * qcore.HERMITICITY_TOL, abs=1e-14)
    if k <= 1:
        call(m)
        return
    with pytest.raises(ValueError) as err:
        call(m)
    assert str(err.value) == f"{name} is not Hermitian (max deviation {dev:.3e})"


def density_matrix_calls(other):
    """Every function that takes an operator argument, as name -> call of
    one argument; other is a second state of the same size."""
    calls = {
        "pauli_traces": qcore.pauli_traces,
        "hermitian_eigensystem": ew.hermitian_eigensystem,
        "trace_distance first": lambda x: ew.trace_distance(x, other),
        "trace_distance second": lambda x: ew.trace_distance(other, x),
        "project_psd": ew.project_psd,
        "validate_density_matrices": lambda x: qcore.validate_density_matrices(x, stack=False),
        "validate_density_matrices stack": qcore.validate_density_matrices,
        "DensityMatrix": ew.DensityMatrix,
    }
    if other.dim == 4:
        calls["partial_transpose"] = ew.partial_transpose
    return calls


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([1, 2, 3]),
       k=st.sampled_from([0.0, 0.5, 0.99]))
def test_a_density_matrix_is_taken_as_its_matrix(seed, n, k):
    # a call that used a DensityMatrix otherwise than as its stored matrix
    # would show; the raw input gives the same bytes, since the state stores
    # the Hermitian part that every call takes from it
    gen = np.random.default_rng(seed)
    m, m_other = (off_hermitian(gen, ew.random_density_matrix(gen, 2 ** n).matrix, k,
                                diagonal=False) for _ in range(2))
    rho, other = ew.DensityMatrix(m), ew.DensityMatrix(m_other)
    for name, call in density_matrix_calls(other).items():
        expected = as_bytes(call(rho))
        assert as_bytes(call(rho.matrix)) == expected, name
        assert as_bytes(call(m)) == expected, name


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([1, 2, 3]),
       ka=st.floats(0.0, 0.99), kb=st.floats(0.0, 0.99), wrapped=st.booleans())
def test_trace_distance_takes_every_pair_of_accepted_states(seed, n, ka, kb, wrapped):
    # the difference of two accepted states can deviate by up to twice the
    # tolerance; each operand is checked, never the difference
    gen = np.random.default_rng(seed)
    a, b = (off_hermitian(gen, ew.random_density_matrix(gen, 2 ** n).matrix, k, diagonal=False)
            for k in (ka, kb))
    states = ew.DensityMatrix(a), ew.DensityMatrix(b)
    x, y = states if wrapped else (a, b)
    d = ew.trace_distance(x, y)
    assert 0.0 <= d <= 1.0 + 1e-12
    assert d == pytest.approx(ew.trace_distance(y, x), abs=1e-14)


def test_trace_distance_of_states_deviating_in_opposite_directions():
    # each state deviates by 6e-11 and is accepted; their difference deviates
    # by 1.2e-10, so a check of the difference would reject the pair
    a, b = np.eye(4, dtype=complex) / 4, np.eye(4, dtype=complex) / 4
    a[0, 1] += 6e-11
    b[0, 1] -= 6e-11
    pair = ew.DensityMatrix(a), ew.DensityMatrix(b)
    assert ew.trace_distance(*pair) == pytest.approx(6e-11, abs=1e-20)
    assert ew.trace_distance(a, b) == pytest.approx(6e-11, abs=1e-20)
