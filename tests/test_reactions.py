"""Truncation algebra, sampled hypothesis checkers, builtins, and the grammar."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rdasim.integrator import SimState
from rdasim.reactions import (
    ExpressionError,
    ReactionSystem,
    builtin_linear_decay,
    builtin_reversible_reaction,
    check_intermediate_sum,
    check_mass_control,
    check_polynomial_growth,
    check_quasi_positivity,
    compile_expression,
    system_from_expressions,
    truncate,
)
from rdasim.sampling import DEFAULT_RADII, plateau

finite_reactions = arrays(
    np.float64, st.integers(1, 5),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


class TestTruncate:
    def test_zero_is_fixed_point(self):
        assert np.all(truncate(np.zeros(3), 0.1) == 0.0)

    def test_hand_computed(self):
        # denominator 1 + 0.25 * (2 + 2) = 2
        out = truncate(np.array([2.0, -2.0]), 0.25)
        assert np.allclose(out, [1.0, -1.0])

    def test_bound_random_draws(self):
        rng = np.random.default_rng(0)
        f = rng.uniform(-1e4, 1e4, size=(3, 10_000))
        out = truncate(f, 1e-3)
        assert np.max(np.abs(out)) <= 1000.0 + 1e-9

    @given(f=finite_reactions, eps=st.floats(1e-6, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_bound_and_signs(self, f, eps):
        out = truncate(f, eps)
        assert np.all(np.abs(out) <= 1.0 / eps + 1e-12)
        # signs never flip; subnormal inputs may underflow to exactly zero
        assert np.all(out * f >= 0.0)
        big = np.abs(f) >= 1e-300
        assert np.all(np.sign(out[big]) == np.sign(f[big]))

    @given(f=finite_reactions, eps=st.floats(1e-9, 1e-3))
    @settings(max_examples=200, deadline=None)
    def test_consistency_as_eps_vanishes(self, f, eps):
        out = truncate(f, eps)
        bound = eps * np.max(np.abs(f)) * np.sum(np.abs(f))
        assert np.max(np.abs(out - f)) <= bound + 1e-12

    def test_batch_shape(self):
        f = np.ones((2, 7))
        assert truncate(f, 1.0).shape == (2, 7)

    def test_per_column_epsilon_matches_scalar_columns(self):
        f = np.random.default_rng(3).uniform(-1e3, 1e3, size=(3, 12))
        eps = np.repeat([1e-2, 1e-3, 1e-4], 4)
        out = truncate(f, eps)
        for col in range(12):
            assert out[:, [col]].tobytes() == truncate(f[:, [col]], eps[col]).tobytes()
        with pytest.raises(ValueError, match="epsilon must be positive"):
            truncate(f, np.where(np.arange(12) == 5, 0.0, 1e-3))

    def test_requires_positive_epsilon(self):
        with pytest.raises(ValueError):
            truncate(np.ones(2), 0.0)
        with pytest.raises(ValueError, match="epsilon must be positive"):
            SimState(0.0, np.ones((2, 1)), -1.0)

    def test_quasi_positivity_preserved(self):
        # on a face u_i = 0, a non-negative component stays non-negative
        system = builtin_reversible_reaction()
        rng = np.random.default_rng(1)
        u = rng.uniform(0, 5, size=(2, 1000))
        u[0] = 0.0
        f = system.evaluate(None, 0.0, u)
        out = truncate(f, 0.05)
        assert np.all(out[0] >= 0.0)


class TestCheckers:
    def test_reversible_quasi_positive(self):
        report = check_quasi_positivity(builtin_reversible_reaction(),
                                        samples_per_radius=2000)
        assert report.passed
        assert report.samples_tested > 0

    def test_constant_sink_violates(self):
        bad = system_from_expressions(
            ["0 - 1", "0 * u1"], mass_weights=[1, 1], mass_constants=(0.0, 1.0),
            intermediate_order=1.0, growth_order=1.0, growth_constant=1.0,
        )
        report = check_quasi_positivity(bad, samples_per_radius=500)
        assert not report.passed
        assert report.violations
        u, x, t, residual = report.violations[0]
        assert residual < 0

    def test_reversible_mass_dissipation(self):
        report = check_mass_control(builtin_reversible_reaction(),
                                    samples_per_radius=2000)
        assert report.passed
        # the weighted sum vanishes identically
        assert report.estimated_constant <= 1e-9

    def test_constant_production_with_offset_passes(self):
        system = system_from_expressions(
            ["1 + 0 * u1", "1 + 0 * u2"], mass_weights=[1, 1],
            mass_constants=(0.0, 2.0),
            intermediate_order=1.0, growth_order=1.0, growth_constant=2.0,
        )
        report = check_mass_control(system, samples_per_radius=500)
        assert report.passed

    def test_mass_control_violation_detected(self):
        system = system_from_expressions(
            ["u1", "u2"], mass_weights=[1, 1], mass_constants=(0.0, 0.0),
            intermediate_order=1.0, growth_order=1.0, growth_constant=1.0,
        )
        report = check_mass_control(system, samples_per_radius=500)
        assert not report.passed

    def test_reversible_intermediate_sum_bounded(self):
        report = check_intermediate_sum(builtin_reversible_reaction(),
                                        samples_per_radius=2000)
        assert report.passed
        assert np.isfinite(report.estimated_constant)

    def test_cubic_outgrows_quadratic_bound(self):
        cubic = system_from_expressions(
            ["u1^3"], mass_weights=[1.0], mass_constants=(1.0, 1.0),
            intermediate_order=2.0, growth_order=3.0, growth_constant=1.0,
        )
        report = check_intermediate_sum(cubic, samples_per_radius=2000)
        assert not report.passed
        assert report.details["diverging_rows"] == [0]

    def test_linear_growth_passes(self):
        report = check_polynomial_growth(builtin_linear_decay(m=3),
                                         samples_per_radius=2000)
        assert report.passed

    def test_exponential_growth_diverges(self):
        system = system_from_expressions(
            ["exp(u1)"], mass_weights=[1.0], mass_constants=(1.0, 3.0),
            intermediate_order=1.0, growth_order=1.0, growth_constant=1.0,
        )
        report = check_polynomial_growth(system, samples_per_radius=2000)
        assert not report.passed

    def test_reversible_growth_bounded(self):
        report = check_polynomial_growth(builtin_reversible_reaction(),
                                         samples_per_radius=2000)
        assert report.passed

    def test_determinism(self):
        system = builtin_reversible_reaction()
        a = check_intermediate_sum(system, samples_per_radius=1000, seed=42)
        b = check_intermediate_sum(system, samples_per_radius=1000, seed=42)
        assert a.estimated_constant == b.estimated_constant
        assert a.details == b.details

    @pytest.mark.parametrize("positions", [None, np.array([[0.1, 0.4, 0.7, 0.95]])],
                             ids=["no-positions", "positions"])
    @pytest.mark.parametrize("checker", [check_intermediate_sum, check_polynomial_growth])
    def test_plateau_witness_is_the_last_radius_argmax(self, checker, positions):
        # row 1 outgrows the quadratic bound; row 0 stays bounded
        system = system_from_expressions(
            ["0 - u1", "(1 + x) * u2^3"], mass_weights=[1.0, 1.0], mass_constants=(1.0, 1.0),
            intermediate_order=2.0, growth_order=2.0, sample_positions=positions,
        )
        report = checker(system, samples_per_radius=500, seed=5)
        assert report.violation_count == 1
        u, x, t, residual = report.violations[0]
        assert np.all((u >= 0.0) & (u <= DEFAULT_RADII[-1]))
        assert t == 0.0
        if checker is check_intermediate_sum:
            assert report.details["diverging_rows"] == [1]
            assert residual == report.details["per_row_ratios"][1][-1]
        else:
            assert residual == report.details["per_radius_ratios"][-1]
        assert residual == report.estimated_constant
        if positions is None:
            assert x is None
        else:
            assert any(np.array_equal(x, col) for col in positions.T)
        # the residual is the witness's own ratio, so u and x belong together
        f = system.evaluate(None if x is None else x[:, None], 0.0, u[:, None])
        assert residual == pytest.approx(f[1, 0] / (1.0 + np.sum(u**2.0)), rel=1e-15)

    @pytest.mark.parametrize("checker", [check_quasi_positivity, check_mass_control,
                                         check_intermediate_sum, check_polynomial_growth])
    def test_nan_everywhere_fails_every_check(self, checker):
        system = system_from_expressions(["0/(u1-u1)", "0*u2"], mass_weights=[1, 1])
        with np.errstate(divide="ignore", invalid="ignore"):
            report = checker(system, samples_per_radius=200)
        assert not report.passed
        assert report.violation_count == report.samples_tested
        u, x, t, residual = report.violations[0]
        assert np.isnan(residual) and t == 0.0 and u.shape == (2,)

    def test_nan_on_a_face_fails_quasi_positivity(self):
        # F1 = 0*u2/u1 is NaN exactly where u1 = 0; orthant draws never hit it
        system = system_from_expressions(["0*u2/u1", "0*u1"], mass_weights=[1, 1])
        with np.errstate(divide="ignore", invalid="ignore"):
            report = check_quasi_positivity(system, samples_per_radius=200)
        assert report.violation_count == report.samples_tested // 2
        for u, x, t, residual in report.violations:
            assert u[0] == 0.0 and np.isnan(residual)
        for checker in (check_mass_control, check_intermediate_sum, check_polynomial_growth):
            assert checker(system, samples_per_radius=200).passed

    def test_infinite_sample_is_a_witness(self):
        # F2 = u2/(u1 - u1) is +inf at every orthant draw
        system = system_from_expressions(["0*u1", "u2/(u1 - u1)"], mass_weights=[1, 1])
        with np.errstate(divide="ignore", invalid="ignore"):
            report = check_mass_control(system, samples_per_radius=100)
        assert report.violation_count == report.samples_tested
        assert all(res == np.inf for _, _, _, res in report.violations)


class TestPlateau:
    @pytest.mark.parametrize("ratios, expected", [
        ([1.0, 1.05], True),
        ([1.0, 1.06], False),
        ([-3.0, 1e-9], True),
        ([0.0, 2e-9], False),
        ([5.0, 1.0], True),
        ([1.0, float("nan")], False),
    ])
    def test_rule(self, ratios, expected):
        assert plateau(ratios) is expected


class TestBuiltins:
    def test_reversible_values(self):
        system = builtin_reversible_reaction()
        f = system.evaluate(None, 0.0, np.array([0.0, 1.0]))
        assert f[0] == pytest.approx(1.0)
        assert f[0] + f[1] == 0.0

    def test_reversible_sum_identically_zero(self):
        system = builtin_reversible_reaction()
        rng = np.random.default_rng(2)
        u = rng.uniform(0, 10, size=(2, 500))
        f = system.evaluate(None, 0.0, u)
        assert np.allclose(f.sum(axis=0), 0.0, atol=1e-12)

    def test_reversible_returns_a_fresh_array_per_call(self):
        system = builtin_reversible_reaction()
        u = np.random.default_rng(4).uniform(0, 10, size=(2, 50))
        first, second = system.evaluate(None, 0.0, u), system.evaluate(None, 0.0, u)
        assert not np.shares_memory(first, second)
        gain = u[1] * u[1] - u[0] * u[1]
        assert first.tobytes() == np.stack([gain, -gain]).tobytes()
        assert system.evaluate(None, 0.0, u[:, 7]).tobytes() == first[:, 7].tobytes()

    def test_linear_decay(self):
        system = builtin_linear_decay(m=4, rate=0.5)
        u = np.ones((4, 3))
        assert np.allclose(system.evaluate(None, 0.0, u), -0.5)

    def test_metadata_validation(self):
        with pytest.raises(ValueError, match="lower triangular"):
            ReactionSystem(
                m=2, evaluate=lambda x, t, u: u,
                mass_weights=[1, 1], mass_constants=(0, 0),
                sum_matrix=np.array([[1.0, 1.0], [0.0, 1.0]]),
                intermediate_order=1.0, growth_order=1.0, growth_constant=1.0,
            )
        with pytest.raises(ValueError, match="positive"):
            ReactionSystem(
                m=2, evaluate=lambda x, t, u: u,
                mass_weights=[1, 0], mass_constants=(0, 0),
                sum_matrix=np.eye(2),
                intermediate_order=1.0, growth_order=1.0, growth_constant=1.0,
            )


class TestExpressionGrammar:
    def test_arithmetic_and_symbols(self):
        fn = compile_expression("u1*u2 - 2*u1 + x/2 - t", m=2)
        x = np.array([[4.0]])
        u = np.array([[3.0], [5.0]])
        assert fn(x, 1.0, u)[0] == pytest.approx(3 * 5 - 6 + 2 - 1)

    def test_caret_power(self):
        fn = compile_expression("u1^3", m=1)
        assert fn(None, 0.0, np.array([2.0])) == pytest.approx(8.0)

    def test_exp_min_max(self):
        fn = compile_expression("min(exp(u1), max(u2, 2))", m=2)
        assert fn(None, 0.0, np.array([0.0, 1.0])) == pytest.approx(1.0)

    def test_vectorized_over_batches(self):
        fn = compile_expression("u1 + y", m=1)
        x = np.array([[0.0, 0.0], [1.0, 2.0]])
        u = np.array([[10.0, 20.0]])
        assert np.allclose(fn(x, 0.0, u), [11.0, 22.0])

    def test_unknown_symbol_rejected(self):
        with pytest.raises(ExpressionError, match="unknown symbol"):
            compile_expression("u3", m=2)

    def test_calls_restricted(self):
        with pytest.raises(ExpressionError):
            compile_expression("__import__('os')", m=1)
        with pytest.raises(ExpressionError):
            compile_expression("abs(u1)", m=1)

    def test_attribute_access_rejected(self):
        with pytest.raises(ExpressionError):
            compile_expression("u1.real", m=1)

    def test_syntax_error(self):
        with pytest.raises(ExpressionError, match="cannot parse"):
            compile_expression("u1 +", m=1)

    def test_system_from_expressions_matches_builtin(self):
        expr_system = system_from_expressions(
            ["u2^2 - u1*u2", "u1*u2 - u2^2"],
            mass_weights=[1, 1], mass_constants=(0.0, 0.0),
            intermediate_order=2.0, growth_order=2.0, growth_constant=1.0,
        )
        builtin = builtin_reversible_reaction()
        rng = np.random.default_rng(3)
        u = rng.uniform(0, 4, size=(2, 100))
        assert np.allclose(expr_system.evaluate(None, 0.0, u),
                           builtin.evaluate(None, 0.0, u))

    def test_constant_expression_broadcasts(self):
        system = system_from_expressions(
            ["1 + 0*u1", "u1"], mass_weights=[1, 1], mass_constants=(0.0, 2.0),
            intermediate_order=1.0, growth_order=1.0, growth_constant=2.0,
        )
        out = system.evaluate(None, 0.0, np.ones((2, 5)))
        assert out.shape == (2, 5)
