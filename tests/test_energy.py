"""Exactness tests for the weighted multinomial energy algebra.

Expected values come from independent oracles: brute-force nested-loop
enumeration, factorial evaluation, naive summation, central finite
differences, and inertia bisection for eigenvalues.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
import scipy.linalg

from rdasim.energy import (
    EnergySpec,
    IndexBudgetError,
    WeightSearchError,
    _RATIO_BLOCK_ROWS,
    _index_array,
    _max_weighted_ratio,
    _poly_weights,
    assemble_coupling_matrix,
    certify_weights,
    count_multi_indices,
    energy_density,
    energy_functional,
    energy_time_derivative,
    ibp_identity_sides,
    min_eigenvalue,
    select_weights,
)
from rdasim.grid import CoefficientField, StructuredGrid, face_diffusivities
from rdasim.reactions import builtin_reversible_reaction, system_from_expressions
from rdasim.sampling import DEFAULT_RADII


def brute_force_indices(m, p):
    """Oracle: all of {0..p}^m filtered by the sum, in lexicographic order."""
    return sorted(beta for beta in itertools.product(range(p + 1), repeat=m)
                  if sum(beta) == p)


def multinomial(p, beta):
    """Oracle: exact p!/(b_1! ... b_m!) in integer arithmetic."""
    denom = 1
    for b in beta:
        denom *= math.factorial(b)
    return math.factorial(p) // denom


def index_rows(m, p):
    return [tuple(row) for row in _index_array(m, p).tolist()]


class TestEnumeration:
    def test_single_species(self):
        assert index_rows(1, 5) == [(5,)]

    def test_two_species_order_two(self):
        assert index_rows(2, 2) == [(0, 2), (1, 1), (2, 0)]

    def test_four_species_order_six_vs_brute_force(self):
        got = index_rows(4, 6)
        assert len(got) == 84
        assert all(sum(e) == 6 for e in got)
        assert got == brute_force_indices(4, 6)

    @pytest.mark.parametrize("m", range(1, 7))
    @pytest.mark.parametrize("p", range(0, 11))
    def test_count_is_complete(self, m, p):
        indices = index_rows(m, p)
        assert len(indices) == count_multi_indices(m, p) == math.comb(p + m - 1, m - 1)
        assert len(set(indices)) == len(indices)

    def test_cap_exceeded_names_count(self):
        # C(47, 7) = 62,891,499 multi-indices for m = 8, p = 40
        with pytest.raises(IndexBudgetError, match=str(math.comb(47, 7))):
            EnergySpec(40, np.ones(8))

    def test_multi_index_invariants(self):
        table = _index_array(3, 4)
        assert (1, 0, 3) in index_rows(3, 4)
        assert np.all(table >= 0) and np.all(table.sum(axis=1) == 4)
        with pytest.raises(ValueError):
            table[0, 0] = 1  # the cached table is read-only


def poly_weight(p, beta):
    """The `_poly_weights` entry of a single index row."""
    return _poly_weights(p, np.array([beta]))[0]


class TestMultinomialCoefficient:
    def test_pair(self):
        assert poly_weight(2, (1, 1)) == 2.0

    def test_factorial_oracle(self):
        # 6! / (2! 2! 2!) = 720 / 8
        assert poly_weight(6, (2, 2, 2)) == 720 // 8 == 90

    @pytest.mark.parametrize("p", [1, 3, 7])
    def test_boundary_composition(self, p):
        assert poly_weight(p, (p, 0, 0)) == 1.0

    def test_order_mismatch(self):
        # a row of lower order keeps p! on top, as the derivative tables need
        assert poly_weight(3, (1, 1)) == 3 * multinomial(2, (1, 1)) == 6
        assert poly_weight(5, (0, 2)) == math.factorial(5) // 2

    def test_exact_for_large_order(self):
        beta = (5, 7, 8)
        expected = math.factorial(20) // (
            math.factorial(5) * math.factorial(7) * math.factorial(8)
        )
        assert poly_weight(20, beta) == float(multinomial(20, beta)) == float(expected)

    @pytest.mark.parametrize("m, p", [(1, 4), (2, 5), (3, 6), (4, 3), (3, 25)])
    def test_poly_weights_match_row_by_row(self, m, p):
        # p = 25 puts p! beyond int64, so only exact integer arithmetic agrees
        idx = _index_array(m, p)
        weights = _poly_weights(p, idx)
        assert weights.shape == (idx.shape[0],)
        for row, w in zip(idx.tolist(), weights):
            assert w == float(multinomial(p, row))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_equal_independent_factorials(self, m):
        # rows of order p, and of the lower orders p - 1 and p - 2 the
        # derivative tables read, for every p <= 60
        for p in range(61):
            factorials = np.array([math.factorial(k) for k in range(p + 1)], dtype=object)
            for q in range(max(0, p - 2), p + 1):
                idx = _index_array(m, q)
                expected = (math.factorial(p) // factorials[idx].prod(axis=1)).astype(float)
                assert _poly_weights(p, idx).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("p", [1, 60, 3000])
    def test_factorials_are_one_running_product(self, monkeypatch, p):
        # p + 1 separate factorials take time quadratic in p: 0.5 s at p = 3000
        calls = []
        real = math.factorial
        monkeypatch.setattr(math, "factorial", lambda k: calls.append(k) or real(k))
        # one species: the only row is (p,), weighted 1, as in EnergySpec(p, [1.0])
        assert _poly_weights(p, _index_array(1, p)).tolist() == [1.0]
        assert len(calls) <= 1


class TestEnergyDensity:
    def test_multinomial_reduction(self):
        # weights of one collapse the density to (sum u)^p
        rng = np.random.default_rng(1)
        for _ in range(100):
            m = int(rng.integers(1, 6))
            p = int(rng.integers(1, 9))
            u = rng.uniform(0.0, 3.0, size=m)
            spec = EnergySpec(p, np.ones(m))
            expected = np.sum(u) ** p
            assert energy_density(u, spec) == pytest.approx(expected, rel=1e-12)

    def test_explicit_quadratic_two_species(self):
        w1, w2 = 1.3, 0.7
        u1, u2 = 0.9, 2.1
        spec = EnergySpec(2, (w1, w2))
        expected = w1**4 * u1**2 + 2 * w1 * w2 * u1 * u2 + w2**4 * u2**2
        assert energy_density(np.array([u1, u2]), spec) == pytest.approx(expected, rel=1e-14)

    def test_zero_state(self):
        spec = EnergySpec(3, (2.0, 0.5))
        assert energy_density(np.zeros(2), spec) == 0.0

    def test_homogeneity(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            m = int(rng.integers(1, 5))
            p = int(rng.integers(1, 7))
            spec = EnergySpec(p, rng.uniform(0.5, 2.0, m))
            u = rng.uniform(0.0, 2.0, m)
            s = rng.uniform(0.0, 3.0)
            assert energy_density(s * u, spec) == pytest.approx(
                s**p * energy_density(u, spec), rel=1e-12, abs=1e-300
            )

    def test_negative_input_rejected(self):
        spec = EnergySpec(2, np.ones(2))
        with pytest.raises(ValueError, match="non-negative"):
            energy_density(np.array([1.0, -0.1]), spec)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        spec = EnergySpec(4, (1.5, 0.8, 1.1))
        batch = rng.uniform(0, 2, size=(3, 40))
        vals = energy_density(batch, spec)
        for k in range(40):
            assert vals[k] == pytest.approx(energy_density(batch[:, k], spec), rel=1e-14)

    def test_log_domain_path_matches_log_oracle(self):
        # single huge weight forces the log-space accumulation
        w = math.exp(12.0)
        u = 1e-6
        spec = EnergySpec(8, (w,))
        expected = math.exp(64 * 12.0 + 8 * math.log(u))
        assert energy_density(np.array([u]), spec) == pytest.approx(expected, rel=1e-10)

    def test_spec_rejects_blown_budget(self):
        # C(27, 7) = 888,030 fits under the cap of 10^6; C(28, 7) = 1,184,040 does not
        assert EnergySpec(20, np.ones(8)).p == 20
        with pytest.raises(IndexBudgetError):
            EnergySpec(21, np.ones(8))

    @pytest.mark.parametrize("weights", [[], [1.0, 0.0], [1.0, -2.0], [float("nan"), 1.0]])
    def test_spec_rejects_bad_weights(self, weights):
        with pytest.raises(ValueError, match="weights must be"):
            EnergySpec(2, weights)

    def test_spec_weights_read_only(self):
        given = np.array([1.0, 2.0])
        spec = EnergySpec(2, given)
        with pytest.raises(ValueError, match="read-only"):
            spec.weights[0] = 3.0
        given[0] = 5.0  # the spec holds its own copy
        assert spec.weights.tolist() == [1.0, 2.0]


class TestEnergyFunctional:
    def test_uniform_field_on_unit_domain(self):
        grid = StructuredGrid.uniform([(0.0, 1.0)], [16])
        spec = EnergySpec(3, np.ones(2))
        field = np.vstack([np.full(16, 0.4), np.full(16, 0.6)])
        assert energy_functional(field, grid, spec) == pytest.approx(1.0, rel=1e-13)

    def test_single_cell(self):
        grid = StructuredGrid.uniform([(0.0, 2.5)], [1])
        spec = EnergySpec(2, (1.2, 0.9))
        field = np.array([[0.3], [1.1]])
        expected = 2.5 * energy_density(field[:, 0], spec)
        assert energy_functional(field, grid, spec) == pytest.approx(expected, rel=1e-14)

    def test_matches_naive_summation(self):
        rng = np.random.default_rng(4)
        grid = StructuredGrid.uniform([(0.0, 1.0)], [37])
        spec = EnergySpec(4, (1.4, 0.6))
        field = rng.uniform(0.0, 2.0, size=(2, 37))
        naive = sum(
            energy_density(field[:, c], spec) * grid.cell_volumes[c] for c in range(37)
        )
        assert energy_functional(field, grid, spec) == pytest.approx(naive, rel=1e-13)

    def test_shape_mismatch(self):
        grid = StructuredGrid.uniform([(0.0, 1.0)], [8])
        spec = EnergySpec(2, np.ones(2))
        with pytest.raises(ValueError, match="does not match"):
            energy_functional(np.zeros((2, 9)), grid, spec)


def fd_directional_derivative(u, dudt, spec, h=1e-5):
    """Oracle: central finite difference of the density along the velocity."""
    fwd = energy_density(u + h * dudt, spec)
    bwd = energy_density(u - h * dudt, spec)
    return (fwd - bwd) / (2 * h)


class TestEnergyTimeDerivative:
    def test_zero_velocity(self):
        spec = EnergySpec(5, (1.1, 0.9))
        assert energy_time_derivative(np.array([1.0, 2.0]), np.zeros(2), spec) == 0.0

    def test_unit_weights_closed_form(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            m = int(rng.integers(1, 6))
            p = int(rng.integers(2, 9))
            u = rng.uniform(0.1, 2.0, m)
            du = rng.uniform(-1.0, 1.0, m)
            spec = EnergySpec(p, np.ones(m))
            expected = p * np.sum(u) ** (p - 1) * np.sum(du)
            assert energy_time_derivative(u, du, spec) == pytest.approx(expected, rel=1e-12)

    def test_order_one_closed_form(self):
        spec = EnergySpec(1, (2.0, 3.0))
        got = energy_time_derivative(np.array([1.0, 1.0]), np.array([0.5, -0.25]), spec)
        assert got == pytest.approx(2.0 * 0.5 - 3.0 * 0.25, rel=1e-15)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            m = int(rng.integers(1, 5))
            p = int(rng.integers(2, 7))
            spec = EnergySpec(p, rng.uniform(0.5, 2.0, m))
            u = rng.uniform(0.2, 2.0, m)
            du = rng.uniform(-1.0, 1.0, m)
            analytic = energy_time_derivative(u, du, spec)
            numeric = fd_directional_derivative(u, du, spec)
            assert analytic == pytest.approx(numeric, rel=1e-6, abs=1e-9)

    def test_specific_case_p4_m3(self):
        rng = np.random.default_rng(7)
        spec = EnergySpec(4, (1.2, 0.8, 1.5))
        u = rng.uniform(0.5, 1.5, 3)
        du = rng.uniform(-1.0, 1.0, 3)
        assert energy_time_derivative(u, du, spec) == pytest.approx(
            fd_directional_derivative(u, du, spec), rel=1e-6
        )


class TestRoundingBelowZero:
    """Values down to -STATE_TOL, which the stepper accepts, count as 0."""

    SPEC = EnergySpec(3, (1.0, 2.0))
    ROUNDED = np.array([1.0, -1e-15])
    ZERO = np.array([1.0, 0.0])

    def test_density(self):
        assert energy_density(self.ROUNDED, self.SPEC) == energy_density(self.ZERO, self.SPEC)

    def test_time_derivative(self):
        du = np.array([0.5, -0.25])
        assert (energy_time_derivative(self.ROUNDED, du, self.SPEC)
                == energy_time_derivative(self.ZERO, du, self.SPEC))

    def test_ibp_identity_sides(self):
        grads = np.array([[1.0, -0.5], [0.25, 2.0]])
        mats = [np.eye(2), np.diag([2.0, 0.5])]
        assert (ibp_identity_sides(self.ROUNDED, grads, mats, self.SPEC)
                == ibp_identity_sides(self.ZERO, grads, mats, self.SPEC))

    def test_below_tolerance_rejected(self):
        # energy_density's rejection is test_negative_input_rejected
        state = np.array([1.0, -1e-9])
        with pytest.raises(ValueError, match="non-negative"):
            energy_time_derivative(state, np.ones(2), self.SPEC)
        with pytest.raises(ValueError, match="non-negative"):
            ibp_identity_sides(state, np.ones((2, 1)), [np.eye(1)] * 2, self.SPEC)


def random_spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


class TestIbpIdentity:
    def test_single_species_closed_form(self):
        # for one species both sides reduce to p (p-1) w^(p^2) u^(p-2) (A g) . g
        rng = np.random.default_rng(8)
        for p in (2, 3, 5):
            w = 1.3
            u = np.array([0.7])
            g = rng.standard_normal((1, 3))
            a = random_spd(rng, 3)
            spec = EnergySpec(p, (w,))
            lhs, rhs = ibp_identity_sides(u, g, [a], spec)
            expected = p * (p - 1) * w ** (p * p) * u[0] ** (p - 2) * (a @ g[0]) @ g[0]
            assert lhs == pytest.approx(expected, rel=1e-12)
            assert rhs == pytest.approx(expected, rel=1e-12)

    def test_zero_gradients(self):
        spec = EnergySpec(3, (1.0, 2.0))
        lhs, rhs = ibp_identity_sides(
            np.array([1.0, 2.0]), np.zeros((2, 2)), [np.eye(2)] * 2, spec
        )
        assert lhs == 0.0 and rhs == 0.0

    def test_random_instances_agree(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            m = int(rng.integers(1, 5))
            p = int(rng.integers(2, 7))
            n = int(rng.integers(1, 4))
            spec = EnergySpec(p, rng.uniform(0.5, 2.0, m))
            u = rng.uniform(0.2, 2.0, m)
            g = rng.standard_normal((m, n))
            mats = [random_spd(rng, n) for _ in range(m)]
            lhs, rhs = ibp_identity_sides(u, g, mats, spec)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_zero_component_terms_drop(self):
        spec = EnergySpec(4, (1.0, 1.0, 1.0))
        u = np.array([0.8, 0.0, 1.2])
        rng = np.random.default_rng(10)
        g = rng.standard_normal((3, 2))
        mats = [random_spd(rng, 2) for _ in range(3)]
        lhs, rhs = ibp_identity_sides(u, g, mats, spec)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_requires_order_two(self):
        spec = EnergySpec(1, (1.0,))
        with pytest.raises(ValueError, match="order >= 2"):
            ibp_identity_sides(np.array([1.0]), np.ones((1, 1)), [np.eye(1)], spec)

    def test_dimension_mismatch(self):
        spec = EnergySpec(2, (1.0, 1.0))
        with pytest.raises(ValueError):
            ibp_identity_sides(np.array([1.0, 1.0]), np.ones((2, 2)), [np.eye(3)] * 2, spec)


def smallest_eig_bisection(mat, tol=1e-12):
    """Oracle: inertia bisection via LDL^T factorizations."""
    mat = np.asarray(mat, dtype=float)
    bound = np.linalg.norm(mat, np.inf) + 1.0
    lo, hi = -bound, bound

    def count_below(lam):
        _, d, _ = scipy.linalg.ldl(mat - lam * np.eye(mat.shape[0]))
        eigs = np.linalg.eigvalsh((d + d.T) / 2)  # block-diagonal, tiny blocks
        return int(np.sum(eigs < 0))

    while hi - lo > tol:
        mid = (lo + hi) / 2
        if count_below(mid) >= 1:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


class TestCouplingMatrixAndEigen:
    def test_single_species_block(self):
        d = np.array([[2.0, 0.3], [0.1, 1.5]])
        block = assemble_coupling_matrix([d], (1.7,))
        sym = (d + d.T) / 2
        assert np.allclose(block, 1.7**2 * sym)
        assert min_eigenvalue(block) > 0

    @pytest.mark.parametrize("t", [0.5, 0.99, 1.01, 2.0])
    def test_two_identical_identities(self, t):
        # blocks [t^2 I, I; I, t^2 I] have eigenvalues t^2 +/- 1
        n = 2
        block = assemble_coupling_matrix([np.eye(n), np.eye(n)], (t, t))
        lam = min_eigenvalue(block)
        assert lam == pytest.approx(t**2 - 1.0, abs=1e-10)
        assert (lam > 0) == (t > 1.0)

    def test_pd_monotone_in_weights(self):
        rng = np.random.default_rng(11)
        mats = [random_spd(rng, 2) * 0.5 for _ in range(3)]
        base = np.array([1.5, 2.0, 1.8])
        while min_eigenvalue(assemble_coupling_matrix(mats, base)) <= 0:
            base = base * 2
        for _ in range(10):
            bigger = base * rng.uniform(1.0, 3.0, 3)
            assert min_eigenvalue(assemble_coupling_matrix(mats, bigger)) > 0

    def test_identity_four(self):
        assert min_eigenvalue(np.eye(4)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert min_eigenvalue(np.diag([2.0, -3.0])) == pytest.approx(-3.0, abs=1e-12)

    def test_random_symmetric_vs_bisection_oracle(self):
        rng = np.random.default_rng(12)
        stack = []
        for _ in range(20):
            a = rng.standard_normal((6, 6))
            sym = (a + a.T) / 2
            assert min_eigenvalue(sym) == pytest.approx(
                smallest_eig_bisection(sym), abs=1e-8
            )
            stack.append(sym)
        # a stack gives one value per matrix, equal to the single-matrix results
        assert min_eigenvalue(np.stack(stack)).tolist() == [min_eigenvalue(a) for a in stack]

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            min_eigenvalue(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestCertifyWeights:
    def test_four_cell_counterexample(self):
        # cells 0 and 1 hold every species' extreme diffusivity, yet the face
        # between cells 2 and 3 pairs d1 = 1 with d2 = 0.01: weights (1, 2)
        # leave its block matrix with eigenvalue -0.177, and the faces need (2, 4)
        grid = StructuredGrid.uniform([(0.0, 1.0)], [4])
        coeff = CoefficientField(grid, [[[1.0, 0.01, 1.0, 1.0]], [[1.0, 0.01, 0.01, 0.01]]])
        faces = face_diffusivities(grid, coeff)
        report = certify_weights(faces, [1.0, 2.0])
        assert not report["passed"] and report["margin"] < 0
        assert report["face_column"] == [1.0, 0.01]
        block = assemble_coupling_matrix([[[[1.0]], [[0.01]]]], [1.0, 2.0])
        assert min_eigenvalue(block)[0] == pytest.approx(-0.177, abs=1e-3)
        weights, _ = select_weights(builtin_reversible_reaction(), faces, p=2)
        assert weights.tolist() == [2.0, 4.0]

    def test_singular_block_fails(self):
        # equal diffusivities and weights (1, 1, 2, 2): the block matrix has two
        # equal rows, and its computed eigenvalue is rounding of either sign
        faces = np.array([[0.1, 0.01, 0.1 / 5.5]] * 4)
        assert not certify_weights(faces, [1.0, 1.0, 2.0, 2.0])["passed"]
        assert certify_weights(faces, [1.0, 2.0, 2.0, 2.0])["passed"]

    def test_margin_is_relative_and_grids_without_faces_pass(self):
        # the margin of a column does not change when all species' values scale
        faces = np.array([[1.0], [0.01]])
        assert certify_weights(faces, [1.0, 3.0])["margin"] == pytest.approx(
            certify_weights(1e6 * faces, [1.0, 3.0])["margin"], rel=1e-12)
        assert certify_weights(np.ones((2, 0)), [1.0, 1.0]) == {
            "passed": True, "margin": np.inf, "face_column": None}


class TestSelectWeights:
    def test_single_species_stays_at_one(self):
        system = builtin_reversible_reaction()
        one_species = system_from_expressions(
            ["1 + u1"], mass_weights=[1.0], mass_constants=(1.0, 1.0),
            intermediate_order=1.0, growth_order=1.0, growth_constant=2.0,
        )
        weights, k_est = select_weights(one_species, np.ones((1, 1)), p=3,
                                        samples_per_radius=500)
        assert weights.tolist() == [1.0]
        assert np.isfinite(k_est)

    def test_reversible_system_order_four(self):
        system = builtin_reversible_reaction()
        faces = np.ones((2, 1))
        weights, k_est = select_weights(system, faces, p=4, samples_per_radius=1000)
        assert np.all(weights >= 1.0)
        assert np.isfinite(k_est)
        block = assemble_coupling_matrix(faces.T[:, :, None, None], weights)
        assert min_eigenvalue(block)[0] > 0

    def test_pd_doubling_needed(self):
        # identical unit diffusivities need weights above one
        system = builtin_reversible_reaction()
        faces = np.ones((2, 1))
        weights, _ = select_weights(system, faces, p=2, samples_per_radius=500)
        assert certify_weights(faces, weights)["passed"]
        assert weights.max() > 1.0

    def test_blocked_ratio_matches_one_product(self):
        # m = 4, p - 1 = 10 gives 286 index rows, more than one block; the
        # heaviest weight on species 1 puts the maximizing row (10, 0, 0, 0) last
        system = system_from_expressions(
            ["1 + u2", "u1 * u3 - u2", "1 - u3 + u4", "u1 - u4"],
            mass_weights=[1.0] * 4, mass_constants=(1.0, 1.0),
        )
        weights = np.array([2.0, 1.5, 1.0, 1.25])
        u = np.random.default_rng(3).uniform(0.0, 2.0, size=(4, 300))
        idx = _index_array(4, 10)
        assert idx.shape[0] > _RATIO_BLOCK_ROWS
        fvals = system.evaluate(None, 0.0, u)
        denom = 1.0 + np.sum(u ** system.intermediate_order, axis=0)
        oracle = np.max((weights ** (2 * idx + 1)) @ fvals / denom)
        assert _max_weighted_ratio(fvals, denom, weights, 11) == pytest.approx(oracle, rel=1e-14)

    def test_divergent_ratio_fails_with_message(self):
        cubic = system_from_expressions(
            ["u1^3"], mass_weights=[1.0], mass_constants=(1.0, 1.0),
            intermediate_order=2.0, growth_order=3.0, growth_constant=1.0,
        )
        with pytest.raises(WeightSearchError, match="ratio plateau"):
            select_weights(cubic, np.ones((1, 1)), p=2, samples_per_radius=500,
                           max_doublings=12)

    def test_reaction_sampled_once_per_radius(self):
        # doubling reweights the stored samples instead of evaluating F again
        system = builtin_reversible_reaction()
        calls = []

        def counting(x, t, u):
            calls.append(u.shape)
            return system.evaluate(x, t, u)

        counted = dataclasses.replace(system, evaluate=counting)
        weights, _ = select_weights(counted, np.ones((2, 1)), p=2, samples_per_radius=500)
        assert weights.max() > 1.0
        assert len(calls) == len(DEFAULT_RADII)

    def test_non_finite_reaction_fails_naming_it(self):
        nan_everywhere = system_from_expressions(
            ["0/(u1-u1)", "0*u2"], mass_weights=[1.0, 1.0], mass_constants=(0.0, 0.0),
        )
        with np.errstate(divide="ignore", invalid="ignore"), \
                pytest.raises(WeightSearchError, match=r"non-finite reaction nan at u=\["):
            select_weights(nan_everywhere, np.ones((2, 1)), p=2,
                           samples_per_radius=100)
