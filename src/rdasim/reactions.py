"""Reaction vector fields, their bounded regularization, and sampled checkers.

A reaction system bundles the species count, a vectorized evaluator
F(x, t, u), and the structural metadata the solver and diagnostics rely
on: positive mass weights with their linear bound constants, a lower
triangular combination matrix whose weighted partial sums are bounded by
a degree-r polynomial, and the polynomial growth order of the field
itself.

The structural hypotheses quantify over the whole non-negative orthant;
at desk scale they are checked by seeded sampling.  One sweep serves the
four checks and the weight search: for each radius of the doubling ladder
it draws states (from the orthant, or pinned to the coordinate faces for
quasi-positivity) and probe positions from one seeded stream, and
evaluates F once at t = 0.  A sample whose reaction is inf or NaN is a
violation in every check.  The two growth bounds (intermediate sums and
polynomial growth) share one ratio ladder; divergence is a ratio that
keeps growing when the radius doubles.  Local Lipschitz continuity of the
evaluator is a documented user obligation and is not checked numerically.

`truncate` implements the bounded regularization F / (1 + eps * sum|F_j|),
which caps every component at 1/eps while preserving signs and the
structural hypotheses.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .sampling import (
    DEFAULT_RADII,
    DEFAULT_SAMPLES_PER_RADIUS,
    DEFAULT_SEED,
    face_samples,
    orthant_samples,
    plateau,
)

__all__ = [
    "ReactionSystem",
    "SampleReport",
    "ExpressionError",
    "truncate",
    "check_quasi_positivity",
    "check_mass_control",
    "check_intermediate_sum",
    "check_polynomial_growth",
    "builtin_reversible_reaction",
    "builtin_linear_decay",
    "BUILTIN_SYSTEMS",
    "compile_expression",
    "system_from_expressions",
]

_MAX_STORED_VIOLATIONS = 20
# residual beyond which a quasi-positivity or mass-control sample violates
_TOL = 1e-9
# lowest value a species may take in a state: the rounding that direct
# transport solves leave below zero, shared by the stepper and the energies
STATE_TOL = 1e-12


@dataclass
class ReactionSystem:
    """Vectorized reaction field with its structural metadata.

    evaluate(x, t, u) takes positions x of shape (dim, N) or None, a time,
    and states u of shape (m,) or (m, N); it returns reaction values of the
    same shape as u.  Each output column may depend only on the same
    column of x and u: the checkers evaluate sample batches, and the
    epsilon ladder evaluates its members' cells side by side.  The
    evaluator must be pure and re-entrant, and locally Lipschitz in u
    (user obligation, not checked).

    sample_positions, when given, holds representative positions (dim, K)
    the checkers probe for spatially dependent fields.
    """

    m: int
    evaluate: Callable
    mass_weights: np.ndarray
    mass_constants: tuple[float, float]
    sum_matrix: np.ndarray
    intermediate_order: float
    growth_order: float
    growth_constant: float
    sample_positions: np.ndarray | None = None

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"species count must be >= 1, got {self.m}")
        self.mass_weights = np.asarray(self.mass_weights, dtype=float).ravel()
        if self.mass_weights.shape != (self.m,) or np.any(self.mass_weights <= 0):
            raise ValueError("mass weights must be m strictly positive reals")
        k1, k2 = self.mass_constants
        self.mass_constants = (float(k1), float(k2))
        a = np.asarray(self.sum_matrix, dtype=float)
        if a.shape != (self.m, self.m):
            raise ValueError(f"sum matrix must be {self.m}x{self.m}, got {a.shape}")
        if np.any(np.triu(a, 1) != 0.0):
            raise ValueError("sum matrix must be lower triangular")
        if np.any(np.diag(a) <= 0) or np.any(a < 0):
            raise ValueError("sum matrix needs positive diagonal and non-negative entries")
        self.sum_matrix = a
        if not self.intermediate_order > 0:
            raise ValueError(f"intermediate order must be > 0, got {self.intermediate_order}")
        if not self.growth_order > 0:
            raise ValueError(f"growth order must be > 0, got {self.growth_order}")
        if not self.growth_constant > 0:
            raise ValueError(f"growth constant must be > 0, got {self.growth_constant}")


@dataclass
class SampleReport:
    """Outcome of one sampled hypothesis check.

    `violations` stores up to a fixed number of witness records
    (u, x, t, residual); `violation_count` is the full tally, so an empty
    list with zero count means the check passed on the sample set.
    """

    check: str
    samples_tested: int
    violations: list = field(default_factory=list)
    violation_count: int = 0
    estimated_constant: float = float("nan")
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.violation_count == 0

    def add_violation(self, u, x, t, residual):
        if len(self.violations) < _MAX_STORED_VIOLATIONS:
            self.violations.append((np.array(u, dtype=float), x, float(t), float(residual)))
        self.violation_count += 1


def truncate(f_values, eps) -> np.ndarray:
    """Bounded regularization F / (1 + eps * sum_j |F_j|).

    Works on shape (m,) or (m, N); the denominator is shared across
    components of one state, so signs are preserved and every output
    component is bounded by 1/eps.  `eps` is a positive float, or an (N,)
    array with one strength per column.
    """
    # a float, the solo run's eps, costs one comparison on every step
    if isinstance(eps, float):
        positive = eps > 0
    else:
        eps = np.asarray(eps, dtype=float)
        positive = (eps > 0).all()
    if not positive:
        raise ValueError(f"epsilon must be positive, got {eps}")
    f = np.asarray(f_values, dtype=float)
    denom = 1.0 + eps * np.abs(f).sum(axis=0)
    return f / denom


def _witness(u, x, col, residual):
    """Violation record (u, x, t, residual) of sample `col` of a sweep batch."""
    return u[:, col], None if x is None else x[:, col], 0.0, residual


def _sweep(system: ReactionSystem, draw: Callable, size: int, seed: int,
           report: SampleReport):
    """Evaluate the reaction on seeded samples over the radius ladder.

    For each radius in DEFAULT_RADII, draws states with
    `draw(rng, m, radius, size)` and then, for spatially dependent fields,
    probe positions, both from one `default_rng(seed)`; evaluates F at
    t = 0 and yields `(u, x, F)`.  Every sample counts towards
    `report.samples_tested`.  A sample whose reaction is inf or NaN is
    recorded as a violation (its residual is the first non-finite
    component) and left out of what is yielded.
    """
    rng = np.random.default_rng(seed)
    positions = system.sample_positions
    if positions is not None:
        positions = np.asarray(positions, dtype=float)
    for radius in DEFAULT_RADII:
        u = draw(rng, system.m, radius, size)
        x = None
        if positions is not None:
            x = positions[:, rng.integers(0, positions.shape[1], size=u.shape[1])]
        f = np.asarray(system.evaluate(x, 0.0, u), dtype=float)
        if f.shape != u.shape:
            raise ValueError(f"evaluator returned shape {f.shape} for states {u.shape}")
        report.samples_tested += u.shape[1]
        finite = np.isfinite(f).all(axis=0)
        if not finite.all():
            for col in np.flatnonzero(~finite):
                values = f[:, col]
                report.add_violation(*_witness(u, x, col, values[~np.isfinite(values)][0]))
            u, f = u[:, finite], f[:, finite]
            x = None if x is None else x[:, finite]
        yield u, x, f


def check_quasi_positivity(system: ReactionSystem,
                           samples_per_radius: int = DEFAULT_SAMPLES_PER_RADIUS,
                           seed: int = DEFAULT_SEED) -> SampleReport:
    """Sample the coordinate faces and flag F_i < -1e-9 where u_i = 0."""
    report = SampleReport(check="quasi_positivity", samples_tested=0)
    worst = 0.0
    per_face = max(1, samples_per_radius // system.m)
    for u, x, fvals in _sweep(system, face_samples, per_face, seed, report):
        residual = np.where(u == 0.0, fvals, np.inf)
        worst = min(worst, float(residual.min(initial=np.inf)))
        for col in np.nonzero(np.any(residual < -_TOL, axis=0))[0]:
            report.add_violation(*_witness(u, x, col, residual[:, col].min()))
    report.estimated_constant = worst
    return report


def check_mass_control(system: ReactionSystem,
                       samples_per_radius: int = DEFAULT_SAMPLES_PER_RADIUS,
                       seed: int = DEFAULT_SEED) -> SampleReport:
    """Flag samples where the weighted reaction sum beats its linear bound.

    The residual is c . F - K1 * sum(u) - K2 per sample; positive residual
    beyond 1e-9 is a violation.
    """
    k1, k2 = system.mass_constants
    report = SampleReport(check="mass_control", samples_tested=0)
    worst = -np.inf
    for u, x, fvals in _sweep(system, orthant_samples, samples_per_radius, seed, report):
        residual = system.mass_weights @ fvals - k1 * np.sum(u, axis=0) - k2
        worst = max(worst, float(residual.max(initial=-np.inf)))
        for col in np.nonzero(residual > _TOL)[0]:
            report.add_violation(*_witness(u, x, col, residual[col]))
    report.estimated_constant = worst
    return report


def _ratio_ladder(system: ReactionSystem, combine: Callable, order: float,
                  samples_per_radius: int, seed: int, report: SampleReport):
    """Per radius and row, the sampled maximum of combine(F) / (1 + sum_k u_k^order).

    Returns the (radii, rows) array of maxima and a function that gives
    row i's argmax sample at the largest radius as a violation witness.
    """
    maxima = []
    for u, x, fvals in _sweep(system, orthant_samples, samples_per_radius, seed, report):
        ratio = combine(fvals) / (1.0 + np.sum(u**order, axis=0))
        maxima.append(ratio.max(axis=1, initial=-np.inf))

    def witness(i: int):
        # u, x and ratio still hold the largest radius's batch
        col = int(np.argmax(ratio[i]))
        return _witness(u, x, col, ratio[i, col])

    return np.array(maxima), witness


def check_intermediate_sum(system: ReactionSystem,
                           samples_per_radius: int = DEFAULT_SAMPLES_PER_RADIUS,
                           seed: int = DEFAULT_SEED) -> SampleReport:
    """Radius-doubling plateau check for the triangular partial-sum bounds.

    For each row of the combination matrix, the sampled maximum of
    (row . F) / (1 + sum_k u_k^r) must stop growing (`sampling.plateau`)
    when the sample radius doubles; a row whose ratio keeps growing is
    reported as diverging, with the argmax sample at the largest radius as
    witness.
    """
    report = SampleReport(check="intermediate_sum", samples_tested=0)
    ratios, witness = _ratio_ladder(system, lambda f: system.sum_matrix @ f,
                                    system.intermediate_order, samples_per_radius, seed, report)
    diverging = [i for i in range(system.m) if not plateau(ratios[:, i])]
    for i in diverging:
        report.add_violation(*witness(i))
    report.estimated_constant = float(ratios[-1].max())
    report.details = {"per_row_ratios": ratios.T.tolist(), "diverging_rows": diverging,
                      "radii": list(DEFAULT_RADII)}
    return report


def check_polynomial_growth(system: ReactionSystem,
                            samples_per_radius: int = DEFAULT_SAMPLES_PER_RADIUS,
                            seed: int = DEFAULT_SEED) -> SampleReport:
    """Radius-doubling plateau check for the polynomial upper bound on F.

    Estimates max_i max_u F_i / (1 + sum_k u_k^l) per radius; it fails when
    that keeps growing as the radius doubles, or ends above growth_constant.
    """
    report = SampleReport(check="polynomial_growth", samples_tested=0)
    ratios, witness = _ratio_ladder(system, lambda f: f, system.growth_order,
                                    samples_per_radius, seed, report)
    per_radius = ratios.max(axis=1).tolist()
    if not plateau(per_radius) or per_radius[-1] > system.growth_constant:
        report.add_violation(*witness(int(np.argmax(ratios[-1]))))
    report.estimated_constant = per_radius[-1]
    report.details = {"per_radius_ratios": per_radius, "radii": list(DEFAULT_RADII)}
    return report


def builtin_reversible_reaction() -> ReactionSystem:
    """Two-species reversible exchange with exact mass dissipation.

    F_1 = u2^2 - u1*u2 and F_2 = u1*u2 - u2^2, so F_1 + F_2 = 0 identically
    and each component is bounded by a quadratic.
    """

    def evaluate(x, t, u):
        u = np.asarray(u, dtype=float)
        out = np.empty(u.shape)
        out[0] = u[1] * u[1] - u[0] * u[1]
        out[1] = -out[0]
        return out

    return ReactionSystem(
        m=2,
        evaluate=evaluate,
        mass_weights=np.ones(2),
        mass_constants=(0.0, 0.0),
        sum_matrix=np.eye(2),
        intermediate_order=2.0,
        growth_order=2.0,
        growth_constant=1.0,
    )


def builtin_linear_decay(m: int = 2, rate: float = 1.0) -> ReactionSystem:
    """Decoupled linear decay F_i = -rate * u_i."""

    def evaluate(x, t, u):
        return -rate * np.asarray(u, dtype=float)

    return ReactionSystem(
        m=m,
        evaluate=evaluate,
        mass_weights=np.ones(m),
        mass_constants=(0.0, 0.0),
        sum_matrix=np.eye(m),
        intermediate_order=1.0,
        growth_order=1.0,
        growth_constant=max(rate, 1.0),
    )


BUILTIN_SYSTEMS = {
    "reversible": builtin_reversible_reaction,
    "linear_decay": builtin_linear_decay,
}


class ExpressionError(ValueError):
    """A user expression failed to parse, used a disallowed construct or raised ArithmeticError."""


_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_ALLOWED_UNARY = (ast.UAdd, ast.USub)
_ALLOWED_CALLS = {"exp", "min", "max"}


def _validate_expr(tree: ast.AST, names: set[str], text: str):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Expression, ast.Constant, ast.Load)):
            if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
                raise ExpressionError(f"non-numeric constant in {text!r}")
        elif isinstance(node, ast.BinOp):
            if not isinstance(node.op, _ALLOWED_BINOPS):
                raise ExpressionError(f"operator {type(node.op).__name__} not allowed in {text!r}")
        elif isinstance(node, ast.UnaryOp):
            if not isinstance(node.op, _ALLOWED_UNARY):
                raise ExpressionError(f"operator {type(node.op).__name__} not allowed in {text!r}")
        elif isinstance(node, ast.Call):
            if (not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_CALLS
                    or node.keywords):
                raise ExpressionError(f"only exp/min/max calls are allowed in {text!r}")
            if node.func.id in ("min", "max") and len(node.args) != 2:
                raise ExpressionError(f"{node.func.id} takes exactly two arguments in {text!r}")
            if node.func.id == "exp" and len(node.args) != 1:
                raise ExpressionError(f"exp takes exactly one argument in {text!r}")
        elif isinstance(node, ast.Name):
            if node.id in _ALLOWED_CALLS:
                continue
            if node.id not in names:
                raise ExpressionError(f"unknown symbol {node.id!r} in {text!r}")
        elif isinstance(node, (ast.operator, ast.unaryop)):
            continue
        else:
            raise ExpressionError(f"construct {type(node).__name__} not allowed in {text!r}")


def compile_expression(text: str, m: int = 0, allow_time: bool = True) -> Callable:
    """Compile a closed-form expression into an evaluator f(x, t, u).

    The grammar covers +, -, *, /, powers (^ or **), exp, and two-argument
    min/max over the species symbols u1..um (none when m is 0), the space
    symbols x, y, which are always valid, and the time symbol t (unless
    allow_time is false).  Evaluation broadcasts over numpy arrays.
    Positions default to zero when the caller passes x = None.  Python's own
    ArithmeticError, such as 1/0, is an ExpressionError naming the expression.
    """
    names = {"x", "y"} | {f"u{i + 1}" for i in range(m)}
    if allow_time:
        names |= {"t"}
    try:
        tree = ast.parse(text.replace("^", "**"), mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse {text!r}: {exc}") from None
    _validate_expr(tree, names, text)
    code = compile(tree, "<reaction-expression>", "eval")
    funcs = {"exp": np.exp, "min": np.minimum, "max": np.maximum}

    def evaluate(x, t, u):
        env = dict(funcs)
        if m:
            uarr = np.asarray(u, dtype=float)
            for i in range(m):
                env[f"u{i + 1}"] = uarr[i]
        if x is None:
            env["x"] = 0.0
            env["y"] = 0.0
        else:
            xarr = np.atleast_2d(np.asarray(x, dtype=float))
            env["x"] = xarr[0]
            env["y"] = xarr[1] if xarr.shape[0] > 1 else 0.0
        if allow_time:
            env["t"] = t
        try:
            return eval(code, {"__builtins__": {}}, env)
        except ArithmeticError as exc:
            raise ExpressionError(f"{exc} in {text!r}") from None

    return evaluate


def system_from_expressions(expressions: Sequence[str], mass_weights,
                            mass_constants=(0.0, 0.0), sum_matrix=None,
                            intermediate_order: float = 1.0,
                            growth_order: float = 1.0,
                            growth_constant: float = 1.0,
                            sample_positions=None) -> ReactionSystem:
    """Build a reaction system from one expression per species."""
    m = len(expressions)
    compiled = [compile_expression(e, m) for e in expressions]
    if sum_matrix is None:
        sum_matrix = np.eye(m)

    def evaluate(x, t, u):
        uarr = np.asarray(u, dtype=float)
        rows = [np.broadcast_to(np.asarray(fn(x, t, uarr), dtype=float), uarr[0].shape)
                for fn in compiled]
        return np.stack(rows)

    return ReactionSystem(
        m=m,
        evaluate=evaluate,
        mass_weights=mass_weights,
        mass_constants=mass_constants,
        sum_matrix=sum_matrix,
        intermediate_order=intermediate_order,
        growth_order=growth_order,
        growth_constant=growth_constant,
        sample_positions=sample_positions,
    )
