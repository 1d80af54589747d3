"""Weighted multinomial energy densities and their exact algebra.

For m non-negative species values u = (u_1, ..., u_m), an integer order p
and positive per-species weights w = (w_1, ..., w_m), the energy density is

    H(u) = sum over multi-indices b with |b| = p of
           p!/(b_1! ... b_m!) * prod_i w_i^(b_i^2) * prod_i u_i^(b_i),

with the convention 0^0 = 1.  At w = (1, ..., 1) this collapses to the
multinomial expansion (sum_i u_i)^p.  The module provides

* exact enumeration of the multi-index set and of the coefficients,
* pointwise and cellwise evaluation of the density and its time derivative,
* the two exact algebraic identities used to differentiate the energy along
  a PDE trajectory (chain rule and integration-by-parts form),
* the block matrix whose positive definiteness certifies that the gradient
  part of the energy evolution is dissipative on a grid's faces, and a
  certified doubling search for admissible weights.

All functions are pure; enumeration tables are cached and immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .reactions import STATE_TOL, SampleReport, _sweep
from .sampling import orthant_samples, plateau

__all__ = [
    "INDEX_CAP",
    "EnergySpec",
    "IndexBudgetError",
    "WeightSearchError",
    "count_multi_indices",
    "energy_density",
    "energy_functional",
    "energy_time_derivative",
    "ibp_identity_sides",
    "assemble_coupling_matrix",
    "min_eigenvalue",
    "certify_weights",
    "select_weights",
]

# the most multi-indices one energy spec may enumerate (config input reaches it)
INDEX_CAP = 10**6

# exponent magnitude beyond which float powers are accumulated in log space
_LOG_DOMAIN_CUTOFF = 700.0

# index rows per block in the sampled reaction ratio
_RATIO_BLOCK_ROWS = 256


class IndexBudgetError(RuntimeError):
    """Multi-index enumeration would exceed INDEX_CAP."""


class WeightSearchError(RuntimeError):
    """The doubling search for admissible weights failed."""


def count_multi_indices(m: int, p: int) -> int:
    """Number of m-tuples of non-negative integers summing to p."""
    return math.comb(p + m - 1, m - 1)


@lru_cache(maxsize=None)
def _index_tuples(m: int, p: int) -> tuple[tuple[int, ...], ...]:
    # stars and bars, lexicographic: first component ascending
    if m == 1:
        return ((p,),)
    out = []
    for first in range(p + 1):
        for rest in _index_tuples(m - 1, p - first):
            out.append((first,) + rest)
    return tuple(out)


def _check_index_budget(m: int, p: int) -> None:
    n = count_multi_indices(m, p)
    if n > INDEX_CAP:
        raise IndexBudgetError(
            f"enumeration of {n} multi-indices (m={m}, p={p}) exceeds cap {INDEX_CAP}"
        )


@lru_cache(maxsize=None)
def _index_array(m: int, p: int) -> np.ndarray:
    """Enumeration as an immutable (K, m) int array."""
    arr = np.array(_index_tuples(m, p), dtype=np.int64).reshape(-1, m)
    arr.setflags(write=False)
    return arr


def _poly_weights(p: int, idx: np.ndarray) -> np.ndarray:
    """p!/(b_1! ... b_m!) for every row of an index table (any order <= p).

    The factorials are Python integers (object dtype), so every quotient is
    exact before the conversion to float; the order of a row never exceeds
    p, so its factorial product divides p!.
    """
    factorials = np.array([math.factorial(k) for k in range(p + 1)], dtype=object)
    return (math.factorial(p) // factorials[idx].prod(axis=1)).astype(float)


@dataclass(eq=False)
class EnergySpec:
    """Order p >= 1 plus per-species weights defining one energy density.

    `weights` may be any non-empty sequence of strictly positive values; it
    is stored as a read-only float array, since the coefficient tables,
    computed once and reused, depend on it.  Construction fails if the
    multi-index enumeration for (m, p) exceeds `INDEX_CAP`.
    """

    p: int
    weights: np.ndarray

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"energy order must be >= 1, got {self.p}")
        weights = np.array(self.weights, dtype=float)
        if weights.ndim != 1 or weights.size == 0:
            raise ValueError(f"weights must be a non-empty list, got {self.weights!r}")
        if not (weights > 0.0).all():
            raise ValueError(f"weights must be strictly positive, got {tuple(weights.tolist())}")
        weights.setflags(write=False)
        self.weights = weights
        _check_index_budget(self.m, self.p)
        self._tables: dict[int, tuple] = {}

    @property
    def m(self) -> int:
        return len(self.weights)

    def _level(self, q: int):
        """Cached (indices, coefficients, weight powers, slope powers) at order q.

        indices: (K, m) int; coefficients: p!/prod(b_i!) per row; weight
        powers: prod_i w_i^(b_i^2) per row (log-domain flagged when large);
        slope powers: w_j^(2 b_j + 1) per row and species.
        """
        if q not in self._tables:
            idx = _index_array(self.m, q)
            coefs = _poly_weights(self.p, idx)
            w = self.weights
            logw = np.log(w)
            sq = idx.astype(float) ** 2
            log_wpow = sq @ logw
            big = np.abs(log_wpow) > _LOG_DOMAIN_CUTOFF
            with np.errstate(over="ignore"):
                wpow = np.exp(log_wpow)
            slope = w[None, :] ** (2 * idx + 1)
            self._tables[q] = (idx, coefs, wpow, log_wpow, big, slope)
        return self._tables[q]

    def _finite_level(self, q: int):
        """`_level(q)` for the paths without a log-domain fallback."""
        level = self._level(q)
        if level[4].any():  # the log-domain flags
            raise OverflowError("weight powers exceed float range; reduce weights or order")
        return level


def _state_powers(u: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """prod_i u_i^(b_i) for each index row; u is (m, N).  0^0 = 1."""
    # (K, m, N) intermediate; desk-scale sizes keep this small
    return np.prod(u[None, :, :] ** idx[:, :, None], axis=1)


def _as_batch(u, m: int) -> tuple[np.ndarray, bool]:
    arr = np.asarray(u, dtype=float)
    if arr.ndim == 1:
        if arr.shape[0] != m:
            raise ValueError(f"expected {m} species values, got shape {arr.shape}")
        return arr[:, None], True
    if arr.ndim == 2 and arr.shape[0] == m:
        return arr, False
    raise ValueError(f"expected shape ({m},) or ({m}, N), got {arr.shape}")


def _nonnegative(u: np.ndarray, what: str) -> np.ndarray:
    """u with values down to -STATE_TOL, the rounding the stepper accepts, read as 0."""
    if np.any(u < -STATE_TOL):
        raise ValueError(f"{what} requires non-negative species values (down to -{STATE_TOL})")
    return np.where(u < 0, 0.0, u)


def energy_density(u, spec: EnergySpec):
    """Evaluate the weighted multinomial density at u >= 0.

    Accepts a single state of shape (m,) or a batch of shape (m, N);
    returns a scalar or an (N,) array accordingly.  Values down to
    -STATE_TOL, the rounding the stepper accepts, count as 0.  Terms whose
    weight power exceeds float range are accumulated in log space.
    """
    batch, single = _as_batch(u, spec.m)
    batch = _nonnegative(batch, "energy density")
    idx, coefs, wpow, log_wpow, big, _ = spec._level(spec.p)
    if not big.any():
        upow = _state_powers(batch, idx)
        out = (coefs * wpow) @ upow
    else:
        out = np.zeros(batch.shape[1])
        small = ~big
        if small.any():
            upow = _state_powers(batch, idx[small])
            out += (coefs[small] * wpow[small]) @ upow
        with np.errstate(divide="ignore"):
            logu = np.log(batch)  # -inf at zeros; handled per term below
        for k in np.nonzero(big)[0]:
            row = idx[k]
            active = row > 0
            term = np.full(batch.shape[1], math.log(coefs[k]) + log_wpow[k])
            zero_hit = (batch[active] == 0.0).any(axis=0) if active.any() else np.zeros(batch.shape[1], bool)
            if active.any():
                term += row[active].astype(float) @ logu[active]
            vals = np.exp(term)
            vals[zero_hit] = 0.0
            out += vals
    return float(out[0]) if single else out


def energy_functional(field, grid, spec: EnergySpec) -> float:
    """Midpoint-quadrature integral of the density over a cell field.

    `field` has shape (m, ncells) aligned with `grid`; the quadrature is
    density(cell value) * cell volume, exact for piecewise-constant fields.
    """
    arr = np.asarray(field, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != spec.m or arr.shape[1] != grid.ncells:
        raise ValueError(
            f"field shape {arr.shape} does not match ({spec.m}, {grid.ncells})"
        )
    return float(np.dot(energy_density(arr, spec), grid.cell_volumes))


def energy_time_derivative(u, dudt, spec: EnergySpec):
    """Exact time derivative of the density along a state velocity.

    Evaluates the chain-rule expansion over indices of order p - 1; at
    p = 1 its single order-0 term is sum_j w_j * dudt_j.  Shapes, and the
    values down to -STATE_TOL that count as 0, as in `energy_density`.
    """
    batch, single = _as_batch(u, spec.m)
    vel, vsingle = _as_batch(dudt, spec.m)
    if batch.shape != vel.shape:
        raise ValueError(f"state shape {batch.shape} != velocity shape {vel.shape}")
    batch = _nonnegative(batch, "energy derivative")
    idx, coefs, wpow, _, _, slope = spec._finite_level(spec.p - 1)
    upow = _state_powers(batch, idx)  # (K, N)
    inner = slope @ vel  # (K, N)
    out = np.einsum("k,kn,kn->n", coefs * wpow, upow, inner)
    return float(out[0]) if single else out


def ibp_identity_sides(u, grad_u, mats, spec: EnergySpec) -> tuple[float, float]:
    """Both sides of the exact gradient-form identity, evaluated independently.

    Left side sums over indices of order p - 1 the terms
    w_k^(2 b_k + 1) (A_k grad u_k) . grad(u^b); the right side sums over
    indices of order p - 2 the coupled form with coefficients
    C_{k,l} = w_k^(2 b_k + 1) w_l^(2 b_l + 1) for k != l and
    C_{k,k} = w_k^(4 b_k + 4).  Callers assert equality; the two code
    paths share only the enumeration tables.

    u: (m,), grad_u: (m, n), mats: m matrices of shape (n, n).  Requires
    p >= 2.  Values of u down to -STATE_TOL count as 0.  Terms with a zero
    component and positive exponent vanish (the 0^0 = 1 convention applies
    to zero exponents).
    """
    if spec.p < 2:
        raise ValueError(f"identity requires order >= 2, got p={spec.p}")
    m = spec.m
    uvec = np.asarray(u, dtype=float)
    grads = np.asarray(grad_u, dtype=float)
    if uvec.shape != (m,):
        raise ValueError(f"expected u of shape ({m},), got {uvec.shape}")
    if grads.ndim != 2 or grads.shape[0] != m:
        raise ValueError(f"expected grad_u of shape ({m}, n), got {grads.shape}")
    n = grads.shape[1]
    amats = [np.asarray(a, dtype=float) for a in mats]
    if len(amats) != m or any(a.shape != (n, n) for a in amats):
        raise ValueError(f"expected {m} matrices of shape ({n}, {n})")
    uvec = _nonnegative(uvec, "identity")

    flux = np.array([amats[k] @ grads[k] for k in range(m)])  # (m, n)
    w = spec.weights

    # left side: order p-1, gradient of the monomial expanded by product rule
    idx1, coefs1, wpow1, _, _, slope1 = spec._finite_level(spec.p - 1)
    lhs = 0.0
    for k_row in range(idx1.shape[0]):
        beta = idx1[k_row]
        grad_mono = np.zeros(n)
        for j in range(m):
            if beta[j] == 0:
                continue
            shifted = beta.copy()
            shifted[j] -= 1
            grad_mono += beta[j] * np.prod(uvec**shifted) * grads[j]
        contrib = sum(slope1[k_row, k] * flux[k] @ grad_mono for k in range(m))
        lhs += coefs1[k_row] * wpow1[k_row] * contrib

    # right side: order p-2, pairwise coupling with explicit coefficients
    idx2, coefs2, wpow2, _, _, _ = spec._finite_level(spec.p - 2)
    pair = flux @ grads.T  # (m, m): (A_k grad u_k) . grad u_l
    rhs = 0.0
    for k_row in range(idx2.shape[0]):
        beta = idx2[k_row]
        mono = np.prod(uvec ** beta)
        if mono == 0.0:
            continue
        coup = np.outer(w ** (2 * beta + 1), w ** (2 * beta + 1))
        np.fill_diagonal(coup, w ** (4 * beta + 4))
        rhs += coefs2[k_row] * wpow2[k_row] * mono * float(np.sum(coup * pair))
    return float(lhs), float(rhs)


def assemble_coupling_matrix(diffusion_mats, weights) -> np.ndarray:
    """Assemble the weight-scaled diffusion block matrix for m per-species weights.

    Takes m matrices (n, n) behind any batch axes, (..., m, n, n), and returns
    the symmetric (..., m n, m n) array of blocks w_k^2 * sym(D_k) on the
    diagonal and (sym(D_k) + sym(D_l)) / 2 off it.  Its positive definiteness
    certifies dissipativity of the gradient form for every index order.
    """
    mats = np.asarray(diffusion_mats, dtype=float)
    w = np.asarray(weights, dtype=float)
    if mats.ndim < 3 or mats.shape[-1] != mats.shape[-2]:
        raise ValueError("all diffusion matrices must share the same square shape")
    m, n = mats.shape[-3], mats.shape[-1]
    if w.shape != (m,):
        raise ValueError(f"{m} matrices but weights of shape {w.shape}")
    sym = (mats + np.swapaxes(mats, -1, -2)) / 2.0
    blocks = (sym[..., :, None, :, :] + sym[..., None, :, :, :]) / 2.0
    diag = np.arange(m)
    blocks[..., diag, diag, :, :] = w[:, None, None] ** 2 * sym
    return np.swapaxes(blocks, -3, -2).reshape(*mats.shape[:-3], m * n, m * n)


def min_eigenvalue(mat):
    """Smallest eigenvalue of a symmetric matrix (LAPACK symmetric solver).

    A stack of shape (..., n, n) gives an array of shape (...), one value
    per matrix.  Raises ValueError for a non-square or non-symmetric input.
    """
    a = np.asarray(mat, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    asym = np.linalg.norm(a - np.swapaxes(a, -1, -2), axis=(-2, -1))
    if np.any(asym > 1e-12 * np.linalg.norm(a, axis=(-2, -1))):
        raise ValueError("matrix is not symmetric")
    lowest = np.linalg.eigvalsh(a)[..., 0]
    return float(lowest) if a.ndim == 2 else lowest


def certify_weights(faces, weights) -> dict:
    """Decide whether the weights make the diffusion part of every energy dissipative.

    Under the two-point flux that part sums, over the interior faces, quadratic
    forms in `assemble_coupling_matrix` M_f of each column of `faces`
    (`grid.face_diffusivities`; Eymard, Gallouet and Herbin, 2000), and the
    walls only remove energy from u >= 0.  Reports the decision, the smallest
    lambda_min(M_f) / ||M_f||_F and its column (inf and None without faces).
    """
    faces = np.asarray(faces, dtype=float)
    if faces.shape[1] == 0:
        return {"passed": True, "margin": np.inf, "face_column": None}
    mats = assemble_coupling_matrix(faces.T[:, :, None, None], weights)
    margins = min_eigenvalue(mats) / np.linalg.norm(mats, axis=(1, 2))
    worst = int(np.argmin(margins))
    # eigvalsh errs by at most p(m) * eps * ||M|| (Weyl), and forming or scaling M
    # moves it by a few eps * ||M||: a margin above 1e-12 is positive definite in
    # exact arithmetic, and a singular M (two equal rows) fails
    return {"passed": bool(margins[worst] > 1e-12), "margin": float(margins[worst]),
            "face_column": faces[:, worst].tolist()}


def _max_weighted_ratio(fvals, denom, weights: np.ndarray, p: int) -> float:
    """max over indices of order p-1 and over a batch of reaction samples
    fvals (m, N) of the weighted combination divided by denom = 1 + sum_i u_i^r."""
    powers = weights ** (2 * _index_array(len(weights), p - 1) + 1)
    # blocks of index rows keep the (rows, batch) temporaries bounded
    return max(float(np.max(powers[k:k + _RATIO_BLOCK_ROWS] @ fvals / denom))
               for k in range(0, len(powers), _RATIO_BLOCK_ROWS))


def select_weights(
    system,
    faces: np.ndarray,
    p: int,
    samples_per_radius: int = 2000,
    max_doublings: int = 60,
    seed: int = 0,
) -> tuple[np.ndarray, float]:
    """Doubling search for weights that certify dissipativity.

    Starting from all-ones weights and doubling entries in a backward sweep
    (last species first), the search stops when

    (a) `certify_weights` passes on the (m, K) face diffusivity columns
        `faces` (`grid.face_diffusivities`), and
    (b) the sampled maximum of the weighted reaction combination over all
        indices of order p-1, divided by 1 + sum_i u_i^r, stops growing
        (`sampling.plateau`) when the sample radius doubles.

    F is sampled once, by the checkers' sweep (`reactions._sweep`).  Returns
    the weights and the stabilized ratio (the empirical bound constant at the
    largest radius).  Raises IndexBudgetError before any sampling when the
    energy of order p could not be enumerated (as `EnergySpec`), WeightSearchError
    at a sample where F is inf or NaN, and after `max_doublings` doublings,
    naming the failing condition.
    """
    m = system.m
    if p < 1:
        raise ValueError(f"order must be >= 1, got p={p}")
    _check_index_budget(m, p)
    report = SampleReport(check="weight_search", samples_tested=0)
    ladder = [(fvals, 1.0 + np.sum(u ** system.intermediate_order, axis=0))
              for u, _, fvals in _sweep(system, orthant_samples, samples_per_radius, seed, report)]
    if report.violations:
        u, _, _, value = report.violations[0]
        raise WeightSearchError(f"non-finite reaction {value} at u={u.tolist()}")

    weights = np.ones(m)
    doublings = 0
    while True:
        pd_good = certify_weights(faces, weights)["passed"]
        ks = [_max_weighted_ratio(fvals, denom, weights, p) for fvals, denom in ladder]
        ratio_good, k_est = plateau(ks), ks[-1]
        if pd_good and ratio_good:
            return weights, k_est
        if doublings >= max_doublings:
            failed = []
            if not pd_good:
                failed.append("positive definiteness on the faces")
            if not ratio_good:
                failed.append(
                    f"ratio plateau (last ratio {k_est:.6g} still moving under radius doubling)"
                )
            raise WeightSearchError(
                f"no admissible weights within {max_doublings} doublings: "
                + "; ".join(failed)
            )
        weights[m - 1 - (doublings % m)] *= 2.0
        doublings += 1
