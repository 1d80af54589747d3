"""Cell-centered finite-volume discretization on structured 1D/2D grids.

Two-point flux approximation with distance-weighted harmonic face
diffusivities (exact for 1D piecewise-constant interface problems) and
first-order upwind advection on face-averaged drift.  Coefficients are
piecewise constant per cell and may switch at scheduled times.  Boundary
conditions: homogeneous Dirichlet (ghost mirror value 0), Robin
(diffusive flux proportional to the trace), and total-flux-zero walls
that also cancel the advective face term.

`_transport_entries` lists every species' diffusion plus advection
operator from one face walk in any dimension: `_face_table` slices the
flat-index array and the width meshes along each axis into the interior
faces and the wall faces of each side.  Each face's diffusion and upwind
coefficients are summed into one flux pair, and the wall terms are
added to the diagonal; the entries of all species are COO triplets of
one block-diagonal matrix, as plain numpy arrays.  `assemble_transport`
sums them into a CSR matrix in one COO-to-CSR pass.

Operators act pointwise (rows are divided by cell volume), so on uniform
grids the pure-diffusion operator is symmetric; on non-uniform grids it
is volume-similar to a symmetric matrix.  Only `assemble_transport`
imports scipy here, and no command calls it: a run sums the entries
itself, into the three bands of its tridiagonal system in 1D and into
the CSC arrays of its sparse system in 2D, and `check` and
`energy-report` never assemble an operator, so none of them loads
scipy.sparse.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "StructuredGrid",
    "CoefficientField",
    "Dirichlet",
    "Robin",
    "NoFluxWithDrift",
    "BoundarySpec",
    "face_diffusivity",
    "face_diffusivities",
    "assemble_transport",
    "discrete_norm",
]


class StructuredGrid:
    """Tensor-product cell-centered grid in 1 or 2 dimensions.

    Cells are flattened in C order (last axis fastest).  Widths may vary
    per cell along each axis.
    """

    def __init__(self, widths: Sequence[np.ndarray], origin: Sequence[float] | None = None):
        widths = tuple(np.asarray(w, dtype=float).ravel() for w in widths)
        if len(widths) not in (1, 2):
            raise ValueError(f"grid dimension must be 1 or 2, got {len(widths)}")
        for w in widths:
            if w.size < 1 or np.any(w <= 0) or not np.all(np.isfinite(w)):
                raise ValueError("cell widths must be positive and finite")
        self.widths = widths
        self.origin = tuple(float(o) for o in (origin or (0.0,) * len(widths)))
        self.dim = len(widths)
        self.shape = tuple(w.size for w in widths)
        self.ncells = int(np.prod(self.shape))

        # per-axis centers and the flattened geometry tables
        self.axis_centers = tuple(
            self.origin[a] + np.cumsum(widths[a]) - widths[a] / 2.0 for a in range(self.dim)
        )
        mesh = np.meshgrid(*self.axis_centers, indexing="ij")
        self.cell_centers = np.stack([m.ravel() for m in mesh])  # (dim, ncells)
        wmesh = np.meshgrid(*widths, indexing="ij")
        vol = np.ones(self.shape)
        for wm in wmesh:
            vol = vol * wm
        self.cell_volumes = vol.ravel()
        self.domain_volume = float(self.cell_volumes.sum())

    @classmethod
    def uniform(cls, extents: Sequence[Sequence[float]], cells: Sequence[int]) -> "StructuredGrid":
        """Uniform grid from per-axis (lo, hi) extents and cell counts."""
        extents = [tuple(map(float, e)) for e in extents]
        cells = [int(c) for c in cells]
        if len(extents) != len(cells):
            raise ValueError("extents and cells must have the same length")
        widths = []
        for (lo, hi), n in zip(extents, cells):
            if hi <= lo or n < 1:
                raise ValueError(f"bad axis specification ({lo}, {hi}) with {n} cells")
            widths.append(np.full(n, (hi - lo) / n))
        return cls(widths, origin=[e[0] for e in extents])

    def locate(self, points: np.ndarray) -> np.ndarray:
        """Flat cell indices containing each column of `points` (dim, N)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[0] != self.dim:
            raise ValueError(f"expected points of shape ({self.dim}, N), got {pts.shape}")
        multi = []
        for a in range(self.dim):
            edges = self.origin[a] + np.concatenate([[0.0], np.cumsum(self.widths[a])])
            k = np.searchsorted(edges, pts[a], side="right") - 1
            multi.append(np.clip(k, 0, self.shape[a] - 1))
        return np.ravel_multi_index(multi, self.shape)

    def content_hash(self) -> int:
        """Stable 64-bit hash of the grid geometry, for checkpoint headers."""
        h = hashlib.sha256()
        h.update(np.int64(self.dim).tobytes())
        h.update(np.asarray(self.shape, dtype=np.int64).tobytes())
        h.update(np.asarray(self.origin, dtype="<f8").tobytes())
        for w in self.widths:
            h.update(w.astype("<f8").tobytes())
        return int.from_bytes(h.digest()[:8], "little")

    def is_uniform(self) -> bool:
        return all(np.allclose(w, w[0]) for w in self.widths)


class CoefficientField:
    """Per-cell, per-species diffusion and drift, optionally time-scheduled.

    diffusion: (m, dim, ncells) diagonal tensor entries per cell;
    drift: (m, dim, ncells) drift vector per cell.  A schedule is a list
    of (t_switch, diffusion, drift) epochs; the epoch active at time t is
    the last one with t_switch <= t.  All diffusion entries must be
    positive (uniform ellipticity for diagonal tensors) and finite.
    """

    def __init__(self, grid: StructuredGrid, diffusion, drift=None,
                 schedule: list | None = None):
        self.grid = grid
        base_diff = self._check_diffusion(np.asarray(diffusion, dtype=float))
        base_drift = self._check_drift(drift, base_diff.shape[0])
        self.m = base_diff.shape[0]
        self.epochs: list[tuple[float, np.ndarray, np.ndarray]] = [(0.0, base_diff, base_drift)]
        for entry in schedule or []:
            t_switch, diff_e, drift_e = entry
            diff_e = self._check_diffusion(np.asarray(diff_e, dtype=float))
            drift_e = self._check_drift(drift_e, self.m)
            if diff_e.shape[0] != self.m:
                raise ValueError("schedule entries must keep the species count")
            self.epochs.append((float(t_switch), diff_e, drift_e))
        self.epochs.sort(key=lambda e: e[0])

    def _check_diffusion(self, diff: np.ndarray) -> np.ndarray:
        if diff.ndim != 3 or diff.shape[1] != self.grid.dim or diff.shape[2] != self.grid.ncells:
            raise ValueError(
                f"diffusion must have shape (m, {self.grid.dim}, {self.grid.ncells}), "
                f"got {diff.shape}"
            )
        if not np.all(np.isfinite(diff)) or np.any(diff <= 0):
            raise ValueError("diffusion entries must be positive and finite")
        return diff

    def _check_drift(self, drift, m: int) -> np.ndarray:
        if drift is None:
            return np.zeros((m, self.grid.dim, self.grid.ncells))
        arr = np.asarray(drift, dtype=float)
        if arr.shape != (m, self.grid.dim, self.grid.ncells):
            raise ValueError(
                f"drift must have shape ({m}, {self.grid.dim}, {self.grid.ncells}), "
                f"got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("drift entries must be finite")
        return arr

    @classmethod
    def constant(cls, grid: StructuredGrid, diffusion_per_species, drift_per_species=None):
        """Build from per-species scalars (isotropic) or per-axis sequences."""
        m = len(diffusion_per_species)
        diff = np.empty((m, grid.dim, grid.ncells))
        for i, d in enumerate(diffusion_per_species):
            d = np.asarray(d, dtype=float)
            if d.ndim == 0:
                diff[i] = d
            else:
                diff[i] = d.reshape(grid.dim, 1)
        drift = None
        if drift_per_species is not None:
            drift = np.zeros((m, grid.dim, grid.ncells))
            for i, b in enumerate(drift_per_species):
                b = np.asarray(b, dtype=float)
                drift[i] = b if b.ndim == 0 else b.reshape(grid.dim, 1)
        return cls(grid, diff, drift)

    def at_time(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        active = self.epochs[0]
        for epoch in self.epochs:
            if epoch[0] <= t:
                active = epoch
        return active[1], active[2]

    def switch_times(self) -> list[float]:
        return [e[0] for e in self.epochs[1:]]


@dataclass(frozen=True)
class Dirichlet:
    """Homogeneous Dirichlet wall: boundary trace pinned to zero."""


@dataclass(frozen=True)
class Robin:
    """Diffusive boundary flux proportional to the trace: D grad(u).nu + alpha u = 0."""

    alpha: float

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError(f"Robin coefficient must be >= 0, got {self.alpha}")


@dataclass(frozen=True)
class NoFluxWithDrift:
    """Total-flux-zero wall: both diffusive and advective face terms vanish."""


def _sides(dim: int) -> tuple[str, ...]:
    return tuple(f"{axis}_{end}" for axis in "xy"[:dim] for end in ("lo", "hi"))


@dataclass
class BoundarySpec:
    """Per-species, per-side boundary conditions."""

    conditions: tuple[dict, ...]  # one {side: bc} mapping per species
    dim: int

    def __post_init__(self):
        sides = set(_sides(self.dim))
        for i, mapping in enumerate(self.conditions):
            if set(mapping) != sides:
                raise ValueError(
                    f"species {i}: boundary sides {sorted(mapping)} != {sorted(sides)}"
                )
            for bc in mapping.values():
                if not isinstance(bc, (Dirichlet, Robin, NoFluxWithDrift)):
                    raise TypeError(f"unsupported boundary condition {bc!r}")

    @classmethod
    def uniform(cls, m: int, dim: int, bc) -> "BoundarySpec":
        return cls(tuple({s: bc for s in _sides(dim)} for _ in range(m)), dim)


def face_diffusivity(d_left, d_right, h_left, h_right):
    """Distance-weighted harmonic mean of two adjacent cell diffusivities.

    Takes scalars or equal-shaped arrays (one entry per face).
    """
    if any(np.any(np.asarray(v) <= 0) for v in (d_left, d_right, h_left, h_right)):
        raise ValueError("face diffusivity requires positive diffusivities and widths")
    return (h_left + h_right) * d_left * d_right / (h_right * d_left + h_left * d_right)


def _face_table(grid: StructuredGrid):
    """Interior faces per axis and wall faces per side, in any dimension.

    The cells at one layer along an axis are a slice of the flat-index
    array and of the width meshes; the face area is the product of the
    widths along the other axes.  Interior faces along an axis pair the
    layers 0..n-2 (left) with 1..n-1 (right).  Returns a list with one
    (left, right, area, h_left, h_right) per axis and a dict with one
    (axis, cells, area, h, outward sign) per side, in `_sides` order.
    """
    index = np.arange(grid.ncells).reshape(grid.shape)
    wmesh = np.meshgrid(*grid.widths, indexing="ij")

    def layer(axis: int, span: slice):
        key = (slice(None),) * axis + (span,)
        area = np.ones(index[key].size)
        for other, wm in enumerate(wmesh):
            if other != axis:
                area = area * wm[key].ravel()
        return index[key].ravel(), area, wmesh[axis][key].ravel()

    interior = []
    for axis in range(grid.dim):
        left, area, h_left = layer(axis, slice(None, -1))
        right, _, h_right = layer(axis, slice(1, None))
        interior.append((left, right, area, h_left, h_right))
    walls = {}
    for side in _sides(grid.dim):
        axis = "xy".index(side[0])
        lo = side.endswith("lo")
        walls[side] = (axis, *layer(axis, slice(0, 1) if lo else slice(-1, None)),
                       -1.0 if lo else 1.0)
    return interior, walls


def face_diffusivities(grid: StructuredGrid, coeff: CoefficientField) -> np.ndarray:
    """Distinct columns of `face_diffusivity` over every interior face, axis and epoch.

    Returns an (m, K) array, in the order of first faces.  A transmissibility
    is its face's column times a factor shared by all species (area over
    centre distance), so the dissipativity certificate needs only these.
    """
    interior, _ = _face_table(grid)
    def distinct(columns):
        # one void scalar per face compares its m floats as raw bytes
        rows = np.ascontiguousarray(columns.T).view(np.dtype((np.void, 8 * coeff.m))).ravel()
        return columns[:, np.sort(np.unique(rows, return_index=True)[1])]
    # per axis and epoch first: one pass over all faces raised hetero2d's peak RSS by 0.6 MB
    return distinct(np.concatenate([
        distinct(face_diffusivity(diff[:, axis, left], diff[:, axis, right], h_left, h_right))
        for _, diff, _ in coeff.epochs
        for axis, (left, right, _, h_left, h_right) in enumerate(interior)], axis=1))


def assemble_transport(grid: StructuredGrid, coeff: CoefficientField, bc: BoundarySpec,
                       t: float = 0.0):
    """Block-diagonal transport operator of every species, as one CSR matrix.

    Block i, rows and columns i * ncells to (i + 1) * ncells, is species
    i's negative diffusion divergence plus its upwind drift divergence.
    Interior faces use distance-weighted harmonic means of the adjacent
    per-cell diffusivities, so 1D piecewise-constant interface problems are
    reproduced exactly at cell centers, and the average of the two cell
    drifts, transported from the upwind cell.  Dirichlet walls eliminate
    the ghost cell via a mirror value of zero and Robin walls add
    alpha * area / volume to the diagonal; both admit outflow against a
    zero exterior state.  Total-flux-zero walls drop both face terms, so
    the volume-weighted column sums vanish (discrete conservation).  Each
    block is a weakly diagonally dominant M-matrix.  One COO-to-CSR
    conversion sums the entries of `_transport_entries`.
    """
    import scipy.sparse as sp

    rows, cols, vals = _transport_entries(grid, coeff, bc, t)
    size = coeff.m * grid.ncells
    return sp.coo_matrix((vals, (rows, cols)), shape=(size, size)).tocsr()


def _transport_entries(grid: StructuredGrid, coeff: CoefficientField, bc: BoundarySpec,
                       t: float):
    """The COO entries of `assemble_transport`'s matrix, as numpy arrays (rows, cols, vals).

    Each face's diffusion and upwind coefficients are summed into one flux
    a*u_left + b*u_right, which leaves the left cell and enters the right
    one.  Species by species, the entries fill preallocated COO arrays:
    per axis the left-left, left-right, right-left and right-right
    couplings of every face, then the diffusion and then the advection
    wall terms of each side.  Entries at one position sum to the matrix
    entry, added in this order.
    """
    diff, drift = coeff.at_time(t)
    interior, walls = _face_table(grid)
    m, n, vol = coeff.m, grid.ncells, grid.cell_volumes
    per_species = (4 * sum(faces[0].size for faces in interior)
                   + 2 * sum(wall[1].size for wall in walls.values()))
    rows = np.empty(m * per_species, dtype=np.int32)
    cols = np.empty_like(rows)
    vals = np.empty(rows.size)
    k = 0

    def put(row, col, values):
        nonlocal k
        end = k + row.size
        rows[k:end], cols[k:end], vals[k:end] = row, col, values
        k = end

    for i, (d, b) in enumerate(zip(diff, drift)):
        start = k
        for axis, (left, right, area, h_left, h_right) in enumerate(interior):
            d_face = face_diffusivity(d[axis, left], d[axis, right], h_left, h_right)
            trans = d_face * area / ((h_left + h_right) / 2.0)
            b_face = 0.5 * (b[axis, left] + b[axis, right])
            a_left = trans + np.maximum(b_face, 0.0) * area
            a_right = -trans + np.minimum(b_face, 0.0) * area
            put(left, left, a_left / vol[left])
            put(left, right, a_right / vol[left])
            put(right, left, -a_left / vol[right])
            put(right, right, -a_right / vol[right])
        side_bcs = bc.conditions[i]
        open_walls = [(wall, side_bcs[side]) for side, wall in walls.items()
                      if not isinstance(side_bcs[side], NoFluxWithDrift)]
        for (axis, cells, area, h, _), condition in open_walls:
            if isinstance(condition, Dirichlet):
                put(cells, cells, 2.0 * d[axis, cells] * area / h / vol[cells])
            else:
                put(cells, cells, condition.alpha * area / vol[cells])
        for (axis, cells, area, _, sign), _ in open_walls:
            put(cells, cells, np.maximum(sign * b[axis, cells], 0.0) * area / vol[cells])
        rows[start:k] += i * n
        cols[start:k] += i * n
    return rows[:k], cols[:k], vals[:k]


def discrete_norm(fld, grid: StructuredGrid, p):
    """(sum |u|^p vol)^(1/p), or the max norm for p = np.inf, over the last axis.

    One field of ncells values gives a float; a stack of fields of shape
    (..., ncells), such as a trajectory's snapshots, gives an array of
    shape (...).
    """
    values = np.asarray(fld, dtype=float)
    if values.shape[-1:] != (grid.ncells,):
        raise ValueError(f"fields of shape {values.shape} do not end in {grid.ncells} cells")
    p = float(p)
    if p < 1:
        raise ValueError(f"norm order must be >= 1 or inf, got {p}")
    if p == np.inf:
        norm = np.max(np.abs(values), axis=-1)
    else:
        norm = np.sum(np.abs(values) ** p * grid.cell_volumes, axis=-1) ** (1.0 / p)
    return float(norm) if values.ndim == 1 else norm
