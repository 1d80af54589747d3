"""Assembly and geometry tests: hand stencils, interface exactness, conservation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assembly import assemble_transport
from rdasim.energy import EnergySpec, certify_weights, energy_time_derivative
from rdasim.grid import (
    BoundarySpec,
    CoefficientField,
    Dirichlet,
    NoFluxWithDrift,
    Robin,
    StructuredGrid,
    discrete_norm,
    face_diffusivities,
    face_diffusivity,
)


def constant_problem(grid, m, diffusion, drift=None, bc=None):
    coeff = CoefficientField.constant(grid, [diffusion] * m,
                                      None if drift is None else [drift] * m)
    boundary = BoundarySpec.uniform(m, grid.dim, bc or NoFluxWithDrift())
    return coeff, boundary


def floats_array(draw, size, lo, hi):
    return np.array(draw(st.lists(st.floats(lo, hi), min_size=size, max_size=size)))


@st.composite
def random_problems(draw, max_species=1):
    """1 to max_species species on a non-uniform 1D or 2D grid, a wall kind
    drawn per species and side."""
    dim, m = draw(st.integers(1, 2)), draw(st.integers(1, max_species))
    grid = StructuredGrid([floats_array(draw, draw(st.integers(1, 7)), 0.05, 1.0)
                           for _ in range(dim)])
    diff = floats_array(draw, m * dim * grid.ncells, 1e-3, 10.0).reshape(m, dim, -1)
    drift = floats_array(draw, m * dim * grid.ncells, -2.0, 2.0).reshape(m, dim, -1)
    walls = st.one_of(st.just(Dirichlet()), st.builds(Robin, st.floats(0.0, 5.0)),
                      st.just(NoFluxWithDrift()))
    sides = ("x_lo", "x_hi", "y_lo", "y_hi")[:2 * dim]
    boundary = BoundarySpec(tuple({side: draw(walls) for side in sides} for _ in range(m)), dim)
    return grid, CoefficientField(grid, diff, drift), boundary


def diffusion_only(grid, coeff):
    """The same diffusivities with zero drift: the pure diffusion operator."""
    return CoefficientField(grid, coeff.at_time(0.0)[0])


def advection_part(grid, coeff, boundary):
    """The transport operator minus its zero-drift (pure diffusion) operator."""
    return (assemble_transport(grid, coeff, boundary)
            - assemble_transport(grid, diffusion_only(grid, coeff), boundary))


def open_wall_cells(grid, boundary):
    """Mask of the cells on a side whose wall lets mass through."""
    mask = np.zeros(grid.shape, dtype=bool)
    for side, condition in boundary.conditions[0].items():
        if not isinstance(condition, NoFluxWithDrift):
            axis = "xy".index(side[0])
            layer = 0 if side.endswith("lo") else -1
            mask[(slice(None),) * axis + (layer,)] = True
    return mask.ravel()


class TestGrid:
    def test_uniform_geometry(self):
        grid = StructuredGrid.uniform([(0.0, 2.0)], [4])
        assert grid.ncells == 4
        assert np.allclose(grid.cell_volumes, 0.5)
        assert np.allclose(grid.cell_centers[0], [0.25, 0.75, 1.25, 1.75])
        assert grid.domain_volume == pytest.approx(2.0)

    def test_two_dimensional_flattening(self):
        grid = StructuredGrid.uniform([(0.0, 1.0), (0.0, 2.0)], [2, 3])
        assert grid.shape == (2, 3)
        assert np.ravel_multi_index((1, 2), grid.shape) == 5
        assert np.allclose(grid.cell_volumes, (0.5) * (2.0 / 3.0))

    def test_locate(self):
        grid = StructuredGrid.uniform([(0.0, 1.0)], [10])
        pts = np.array([[0.05, 0.55, 0.999]])
        assert list(grid.locate(pts)) == [0, 5, 9]

    def test_locate_2d(self):
        grid = StructuredGrid.uniform([(0.0, 1.0), (0.0, 1.0)], [4, 4])
        idx = grid.locate(np.array([[0.1], [0.9]]))
        assert idx[0] == np.ravel_multi_index((0, 3), grid.shape)

    def test_content_hash_stability(self):
        g1 = StructuredGrid.uniform([(0.0, 1.0)], [8])
        g2 = StructuredGrid.uniform([(0.0, 1.0)], [8])
        g3 = StructuredGrid.uniform([(0.0, 1.0)], [9])
        assert g1.content_hash() == g2.content_hash()
        assert g1.content_hash() != g3.content_hash()

    def test_bad_widths(self):
        with pytest.raises(ValueError):
            StructuredGrid([np.array([1.0, -1.0])])


class TestCoefficientField:
    def test_ellipticity_enforced(self):
        grid = StructuredGrid.uniform([(0.0, 1.0)], [4])
        with pytest.raises(ValueError, match="positive"):
            CoefficientField(grid, np.zeros((1, 1, 4)))

    def test_schedule_selection(self):
        grid = StructuredGrid.uniform([(0.0, 1.0)], [4])
        d0 = np.full((1, 1, 4), 1.0)
        d1 = np.full((1, 1, 4), 3.0)
        coeff = CoefficientField(grid, d0, schedule=[(0.5, d1, np.zeros((1, 1, 4)))])
        assert coeff.at_time(0.0)[0][0, 0, 0] == 1.0
        assert coeff.at_time(0.49)[0][0, 0, 0] == 1.0
        assert coeff.at_time(0.5)[0][0, 0, 0] == 3.0
        assert coeff.switch_times() == [0.5]


class TestFaceDiffusivity:
    def test_homogeneous_limit(self):
        assert face_diffusivity(2.0, 2.0, 0.3, 0.9) == pytest.approx(2.0)

    def test_hand_value(self):
        # equal widths: plain harmonic mean 2*1*3/(1+3)
        assert face_diffusivity(1.0, 3.0, 0.5, 0.5) == pytest.approx(1.5)

    def test_blocking_limit(self):
        assert face_diffusivity(1.0, 1e-14, 1.0, 1.0) == pytest.approx(0.0, abs=1e-13)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            face_diffusivity(0.0, 1.0, 1.0, 1.0)


class TestDiffusionAssembly:
    def test_hand_assembled_dirichlet_tridiagonal(self):
        # 3 cells, D = 1, h = 1, walls pinned to zero:
        # rows [3, -1; -1, 2, -1; -1, 3]
        grid = StructuredGrid.uniform([(0.0, 3.0)], [3])
        coeff, _ = constant_problem(grid, 1, 1.0)
        boundary = BoundarySpec.uniform(1, 1, Dirichlet())
        a = assemble_transport(grid, coeff, boundary).toarray()
        expected = np.array([[3.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 3.0]])
        assert np.allclose(a, expected)

    def test_noflux_row_sums_vanish(self):
        rng = np.random.default_rng(0)
        grid = StructuredGrid.uniform([(0.0, 1.0), (0.0, 1.0)], [5, 4])
        diff = rng.uniform(0.5, 3.0, size=(2, 2, grid.ncells))
        coeff = CoefficientField(grid, diff)
        boundary = BoundarySpec.uniform(2, 2, NoFluxWithDrift())
        a = assemble_transport(grid, coeff, boundary)
        assert np.max(np.abs(a @ np.ones(2 * grid.ncells))) < 1e-13

    def test_interface_steady_state_exact(self):
        # two materials, unit left value imposed through the boundary lift
        n = 64
        grid = StructuredGrid.uniform([(0.0, 1.0)], [n])
        d = np.where(grid.cell_centers[0] < 0.5, 1.0, 10.0)
        coeff = CoefficientField(grid, d[None, None, :])
        boundary = BoundarySpec.uniform(1, 1, Dirichlet())
        a = assemble_transport(grid, coeff, boundary).toarray()
        h = 1.0 / n
        rhs = np.zeros(n)
        rhs[0] = 2.0 * d[0] / h**2 * 1.0  # ghost-mirror lift for u(0) = 1
        u = np.linalg.solve(a, rhs)
        # exact piecewise-linear profile from flux continuity
        flux = 1.0 / (0.5 / 1.0 + 0.5 / 10.0)
        x = grid.cell_centers[0]
        exact = np.where(x < 0.5, 1.0 - flux * x, (1.0 - x) * flux / 10.0)
        assert np.max(np.abs(u - exact)) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(random_problems())
    def test_m_matrix_signs(self, problem):
        # with and without drift: non-negative diagonal, non-positive
        # off-diagonal, and weak diagonal dominance of the volume-weighted
        # columns (the flux-form dominance behind the discrete maximum principle)
        grid, coeff, boundary = problem
        for field in (coeff, diffusion_only(grid, coeff)):
            a = assemble_transport(grid, field, boundary).toarray()
            off = a - np.diag(np.diag(a))
            assert np.all(np.diag(a) >= 0.0)
            assert np.all(off <= 0.0)
            weighted = grid.cell_volumes[:, None] * a
            assert np.all(weighted.sum(axis=0) >= -1e-13 * np.abs(weighted).sum(axis=0))

    def test_pure_diffusion_symmetry_uniform(self):
        rng = np.random.default_rng(2)
        grid = StructuredGrid.uniform([(0.0, 1.0), (0.0, 2.0)], [7, 5])
        diff = rng.uniform(0.2, 4.0, size=(1, 2, grid.ncells))
        coeff = CoefficientField(grid, diff)
        for bc in (Dirichlet(), NoFluxWithDrift()):
            boundary = BoundarySpec.uniform(1, 2, bc)
            a = assemble_transport(grid, coeff, boundary)
            asym = abs(a - a.T).max()
            assert asym <= 1e-13 * abs(a).max()

    def test_robin_converges_to_noflux(self):
        grid = StructuredGrid.uniform([(0.0, 1.0)], [8])
        coeff, _ = constant_problem(grid, 1, 2.0)
        noflux = assemble_transport(
            grid, coeff, BoundarySpec.uniform(1, 1, NoFluxWithDrift())
        ).toarray()
        for alpha in (1e-3, 1e-6, 1e-9):
            robin = assemble_transport(
                grid, coeff, BoundarySpec.uniform(1, 1, Robin(alpha))
            ).toarray()
            assert np.max(np.abs(robin - noflux)) <= alpha * 8 + 1e-10
        assert np.allclose(
            assemble_transport(grid, coeff, BoundarySpec.uniform(1, 1, Robin(0.0))).toarray(),
            noflux,
        )

    def test_robin_adds_area_over_volume(self):
        grid = StructuredGrid.uniform([(0.0, 1.0)], [4])
        coeff, _ = constant_problem(grid, 1, 1.0)
        a_rob = assemble_transport(grid, coeff, BoundarySpec.uniform(1, 1, Robin(0.5))).toarray()
        a_nof = assemble_transport(grid, coeff,
                                   BoundarySpec.uniform(1, 1, NoFluxWithDrift())).toarray()
        delta = a_rob - a_nof
        # alpha * area / volume = 0.5 / 0.25 = 2.0 on both wall cells
        assert delta[0, 0] == pytest.approx(2.0)
        assert delta[3, 3] == pytest.approx(2.0)
        assert np.count_nonzero(delta) == 2


class TestAdvectionAssembly:
    def test_zero_drift_zero_operator(self):
        # zero drift adds nothing, not even rounding: with h = 1/4, D = 1 and
        # Dirichlet walls the operator is the exact diffusion stencil
        grid = StructuredGrid.uniform([(0.0, 1.0)], [4])
        coeff, boundary = constant_problem(grid, 1, 1.0, drift=0.0, bc=Dirichlet())
        a = assemble_transport(grid, coeff, boundary).toarray()
        expected = 16.0 * (2 * np.eye(4) - np.eye(4, k=1) - np.eye(4, k=-1))
        expected[[0, -1], [0, -1]] = 48.0
        assert np.array_equal(a, expected)

    def test_interior_upwind_stencil(self):
        # uniform positive drift: interior row is (u_i - u_{i-1}) b / h
        n, b = 8, 0.7
        grid = StructuredGrid.uniform([(0.0, 1.0)], [n])
        coeff, boundary = constant_problem(grid, 1, 1.0, drift=b)
        a = advection_part(grid, coeff, boundary).toarray()
        h = 1.0 / n
        i = 4
        assert a[i, i] == pytest.approx(b / h)
        assert a[i, i - 1] == pytest.approx(-b / h)
        assert a[i, i + 1] == pytest.approx(0.0)

    @settings(max_examples=60, deadline=None)
    @given(random_problems())
    def test_total_flux_walls_conserve_constants(self, problem):
        # every face flux leaves one cell and enters its neighbour, so the
        # volume-weighted column sums vanish except on walls that let mass
        # through; with total-flux-zero walls all round, mass is conserved
        grid, coeff, boundary = problem
        interior = ~open_wall_cells(grid, boundary)
        for field in (coeff, diffusion_only(grid, coeff)):
            weighted = grid.cell_volumes[:, None] * assemble_transport(grid, field,
                                                                       boundary).toarray()
            col = weighted.sum(axis=0)
            assert np.all(np.abs(col[interior])
                          <= 1e-13 * np.abs(weighted).sum(axis=0)[interior])

    def test_volume_weighted_column_sums_vanish(self):
        grid = StructuredGrid.uniform([(0.0, 1.0)], [16])
        coeff, boundary = constant_problem(grid, 1, 1.0, drift=0.9)
        a = assemble_transport(grid, coeff, boundary)
        col = grid.cell_volumes @ a
        assert np.max(np.abs(col)) < 1e-13

    def test_dirichlet_outflow_only(self):
        # positive drift: mass leaves through the right wall only
        grid = StructuredGrid.uniform([(0.0, 1.0)], [4])
        coeff, _ = constant_problem(grid, 1, 1.0, drift=1.0)
        boundary = BoundarySpec.uniform(1, 1, Dirichlet())
        a = advection_part(grid, coeff, boundary)
        col = grid.cell_volumes @ a
        assert col[-1] == pytest.approx(1.0)  # outward flux coefficient
        assert np.allclose(col[:-1], 0.0, atol=1e-14)


class TestTransportAssembly:
    @settings(max_examples=60, deadline=None)
    @given(random_problems(max_species=3))
    def test_blocks_are_the_one_species_operators(self, problem):
        # no coupling between species, and block i is, byte for byte, the
        # operator of a one-species problem with species i's coefficients
        grid, coeff, boundary = problem
        a = assemble_transport(grid, coeff, boundary)
        n, m = grid.ncells, coeff.m
        assert a.shape == (m * n, m * n) and a.has_canonical_format
        rows = np.repeat(np.arange(m * n), np.diff(a.indptr))
        assert np.array_equal(rows // n, a.indices // n)
        diff, drift = coeff.at_time(0.0)
        for i in range(m):
            single = assemble_transport(
                grid, CoefficientField(grid, diff[i:i + 1], drift[i:i + 1]),
                BoundarySpec((boundary.conditions[i],), grid.dim))
            start, end = a.indptr[i * n], a.indptr[(i + 1) * n]
            assert (a.indptr[i * n:(i + 1) * n + 1] - start).tobytes() == single.indptr.tobytes()
            assert (a.indices[start:end] - i * n).tobytes() == single.indices.tobytes()
            assert a.data[start:end].tobytes() == single.data.tobytes()


class TestFaceDiffusivities:
    @settings(max_examples=60, deadline=None)
    @given(random_problems(max_species=3), st.booleans())
    def test_distinct_columns_of_every_face(self, problem, switch):
        # oracle: face_diffusivity of each adjacent cell pair, face by face,
        # over both epochs when the coefficients switch
        grid, coeff, _ = problem
        diff, drift = coeff.at_time(0.0)
        if switch:
            coeff = CoefficientField(grid, diff, drift, schedule=[(0.5, diff[:, :, ::-1], drift)])
        expected = set()
        for _, d, _ in coeff.epochs:
            for axis in range(grid.dim):
                for cell in range(grid.ncells):
                    index = list(np.unravel_index(cell, grid.shape))
                    if index[axis] + 1 < grid.shape[axis]:
                        h = grid.widths[axis][index[axis]:index[axis] + 2]
                        index[axis] += 1
                        right = np.ravel_multi_index(index, grid.shape)
                        expected.add(tuple(face_diffusivity(d[:, axis, cell], d[:, axis, right],
                                                            h[0], h[1])))
        faces = face_diffusivities(grid, coeff)
        assert faces.shape == (coeff.m, len(expected))
        assert set(map(tuple, faces.T)) == expected

    def test_constant_coefficients_give_one_column(self):
        # powers of two keep every harmonic mean exact
        grid = StructuredGrid.uniform([(0.0, 1.0), (0.0, 1.0)], [4, 2])
        coeff = CoefficientField.constant(grid, [0.25, 0.5])
        assert face_diffusivities(grid, coeff).tolist() == [[0.25], [0.5]]

    @settings(max_examples=100, deadline=None)
    @given(random_problems(max_species=3), st.integers(1, 4), st.data())
    def test_certified_weights_dissipate_every_energy(self, problem, p, data):
        # with weights the face certificate passes, the diffusion part of the
        # energy's time derivative, sum of vol * dH(u) . (-A u), is at most
        # rounding at any non-negative state: the faces contribute quadratic
        # forms in their certified block matrices, the walls remove mass
        grid, coeff, boundary = problem
        m, n = coeff.m, grid.ncells
        faces = face_diffusivities(grid, coeff)
        weights = floats_array(data.draw, m, 0.25, 4.0)
        while not certify_weights(faces, weights)["passed"]:
            weights = 2.0 * weights

        def rate_and_scale(a, u, p):
            # the same sum with |A| bounds every term, and so the rounding of the sum
            spec = EnergySpec(p, weights)
            return [grid.cell_volumes @ energy_time_derivative(u, (op @ u.ravel()).reshape(m, n),
                                                               spec)
                    for op in (-a, abs(a))]

        a = assemble_transport(grid, diffusion_only(grid, coeff), boundary)
        rate, scale = rate_and_scale(a, floats_array(data.draw, m * n, 0.0, 3.0).reshape(m, n), p)
        assert rate <= 1e-12 * scale
        # at p = 2 the rate is the quadratic form -u . (J^T x diag(vol)) A u, J the
        # constant Jacobian of dH; its steepest ascent direction, shifted per
        # species to be non-negative, probes the faces hardest, and total-flux-zero
        # walls leave the rate unchanged by the shift
        a = assemble_transport(grid, diffusion_only(grid, coeff),
                               BoundarySpec.uniform(m, grid.dim, NoFluxWithDrift()))
        eye = np.eye(m)
        jac = np.array([[energy_time_derivative(eye[l], eye[k], EnergySpec(2, weights))
                         for l in range(m)] for k in range(m)])
        form = -np.kron(jac.T, np.diag(grid.cell_volumes)) @ a.toarray()
        v = np.linalg.eigh(form + form.T)[1][:, -1].reshape(m, n)
        rate, scale = rate_and_scale(a, v - v.min(axis=1, keepdims=True), 2)
        assert rate <= 1e-12 * scale


class TestDiscreteNorm:
    def test_constant_l1(self):
        grid = StructuredGrid.uniform([(0.0, 1.0)], [10])
        assert discrete_norm(np.full(10, 2.0), grid, 1) == pytest.approx(2.0)

    def test_sup_norm(self):
        grid = StructuredGrid.uniform([(0.0, 1.0)], [4])
        assert discrete_norm(np.array([1.0, -5.0, 2.0, 0.0]), grid, np.inf) == 5.0

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(4)
        grid = StructuredGrid.uniform([(0.0, 2.0)], [33])
        vals = rng.standard_normal(33)
        naive = (sum(abs(v) ** 3 * vol for v, vol in zip(vals, grid.cell_volumes))) ** (1 / 3)
        assert discrete_norm(vals, grid, 3) == pytest.approx(naive, rel=1e-14)

    def test_rejects_small_p(self):
        grid = StructuredGrid.uniform([(0.0, 1.0)], [4])
        with pytest.raises(ValueError):
            discrete_norm(np.ones(4), grid, 0.5)

    def test_rejects_wrong_cell_count(self):
        grid = StructuredGrid.uniform([(0.0, 1.0)], [4])
        with pytest.raises(ValueError, match="4 cells"):
            discrete_norm(np.ones((2, 3)), grid, 2)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), p=st.sampled_from([1, 2.0, np.inf, 1.5, 3, 4.0, 7.25]))
    def test_stacked_matches_per_field(self, data, p):
        """A stack of fields reduces to the per-field norms.

        The sums are the same, so p in {1, 2, inf} agrees bit for bit; at
        other p the root is an array pow instead of a scalar one, which may
        round differently by one ulp.
        """
        grid = StructuredGrid([floats_array(data.draw, data.draw(st.integers(1, 7)), 0.05, 1.0)
                               for _ in range(data.draw(st.integers(1, 2)))])
        ntimes, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
        stack = floats_array(data.draw, ntimes * m * grid.ncells, -1e3, 1e3)
        stack = stack.reshape(ntimes, m, grid.ncells)
        stacked = discrete_norm(stack, grid, p)
        rows = np.array([[discrete_norm(field, grid, p) for field in snap] for snap in stack])
        assert isinstance(discrete_norm(stack[0, 0], grid, p), float)
        assert stacked.shape == (ntimes, m)
        if p in (1, 2.0, np.inf):
            assert np.array_equal(stacked, rows)
        else:
            assert np.all(np.abs(stacked - rows) <= np.spacing(rows))
