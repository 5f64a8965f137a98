"""Cell-centered finite-volume meshes with the two-point orthogonality property.

A mesh is admissible for two-point flux approximation when the segment
joining the centers of two neighbouring cells is orthogonal to their shared
face.  The uniform constructors below (interval and Cartesian rectangle)
are the one- and two-axis cases of one tensor-product grid and satisfy that
condition exactly.  Boundary faces carry zero flux, so a mesh stores only
its cells and interior faces.  ``disjoint_union`` joins meshes that share no
face into one, on which the scheme advances every component at once.

A ``Mesh`` is a bundle of flat numpy arrays, built by keyword::

    Mesh(cell_centers=(N, d), cell_measures=(N,),
         edge_cell_k=(E,), edge_cell_l=(E,), edge_measure=(E,),
         edge_distance=(E,), grid_shape=(N,), (Nx, Ny) or None,
         cell_lower=(N, d), cell_upper=(N, d))

Interior edges are oriented from cell K to cell L.  ``cell_lower`` and
``cell_upper`` are the corners of each cell's axis-aligned box.
``grid_shape`` is None for a mesh that is not one tensor grid, such as a
disjoint union.  The dimension d, the counts, the total measure and the
transmissibilities are derived from these arrays.

Geometric quantities carried per interior face sigma = K|L:

    m_sigma   (d-1)-dimensional face measure (1.0 when d = 1)
    d_sigma   distance |x_L - x_K| between the adjacent cell centers
    tau_sigma transmissibility m_sigma / d_sigma
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_REL_TOL = 1e-12   # relative tolerance of validate

_INDEX_ARRAYS = ("edge_cell_k", "edge_cell_l")
_FLOAT_ARRAYS = ("cell_centers", "cell_measures", "edge_measure", "edge_distance",
                 "cell_lower", "cell_upper")


@dataclass(frozen=True, eq=False)
class Mesh:
    """Immutable array bundle of the cells and interior edges of a mesh.

    The per-cell boxes ``cell_lower`` / ``cell_upper`` serve exact indicator
    averaging; ``grid_shape``, None unless the mesh is one tensor grid,
    serves nested-grid restriction.
    """

    cell_centers: np.ndarray
    cell_measures: np.ndarray
    edge_cell_k: np.ndarray
    edge_cell_l: np.ndarray
    edge_measure: np.ndarray
    edge_distance: np.ndarray
    grid_shape: tuple | None
    cell_lower: np.ndarray
    cell_upper: np.ndarray
    dimension: int = field(init=False)
    num_cells: int = field(init=False)
    total_measure: float = field(init=False)
    num_interior_edges: int = field(init=False)
    edge_tau: np.ndarray = field(init=False)

    def __post_init__(self):
        def put(name, value):
            object.__setattr__(self, name, value)

        for name in _INDEX_ARRAYS:
            put(name, np.asarray(getattr(self, name), dtype=np.intp))
        for name in _FLOAT_ARRAYS:
            put(name, np.asarray(getattr(self, name), dtype=float))
        if self.grid_shape is not None:
            put("grid_shape", tuple(self.grid_shape))
        put("dimension", self.cell_centers.shape[1])
        put("num_cells", len(self.cell_measures))
        put("total_measure", float(self.cell_measures.sum()))
        put("num_interior_edges", len(self.edge_cell_k))
        put("edge_tau", self.edge_measure / self.edge_distance)

    def cell_edge_incidence(self, rows: int) -> np.ndarray:
        """The bins of per-cell sums over cell and edge terms, for ``rows`` rows at once.

        The terms are laid out as three (rows, .) arrays, each row-major:
        one term per row and cell, then one per row and interior edge for
        its K cell, then one per row and edge for its L cell.
        ``np.bincount`` by the returned index, shape (rows * (N + 2E),),
        sums the terms of row r and cell c into bin r * N + c, in that
        order.  Built once per mesh and row count.
        """
        built = self.__dict__.setdefault("_incidence", {})
        if rows not in built:
            cells = [np.arange(self.num_cells), self.edge_cell_k, self.edge_cell_l]
            offsets = self.num_cells * np.arange(rows)[:, None]
            built[rows] = np.concatenate([(c + offsets).ravel() for c in cells])
        return built[rows]

    def edge_sides(self, rows: int) -> np.ndarray:
        """Flat indices of both cells of every interior edge, shape (2, rows, E).

        For a C-ordered array ``values`` of shape (rows, N),
        ``values.ravel().take(index)`` gathers, in one call, every edge's K
        cell values into its entry 0 and its L cell values into entry 1,
        each a contiguous (rows, E) array.  The index is a view of the
        edge part of :meth:`cell_edge_incidence`.
        """
        return self.cell_edge_incidence(rows)[rows * self.num_cells:].reshape(2, rows, -1)


def _uniform_grid(shape: tuple) -> Mesh:
    """Uniform tensor-product mesh of the unit cube, shape[a] cells along axis a.

    Cells run with axis 0 fastest (``k = ix + nx * iy``); interior edges are
    listed axis by axis, each ordered by its K cell.  A face measures the
    product of the cell widths along the other axes (1.0 when d = 1).
    """
    dim = len(shape)
    faces = [np.arange(n + 1, dtype=float) / n for n in shape]
    centers = [(np.arange(n, dtype=float) + 0.5) / n for n in shape]
    widths = [f[1:] - f[:-1] for f in faces]

    def along(a, values):
        # values of grid axis a, broadcastable over a cell array of reversed axes
        return values.reshape([-1 if b == a else 1 for b in reversed(range(dim))])

    def product(layout, factors):
        out = np.ones(layout[::-1])
        for a, values in factors:
            out *= along(a, values)
        return out.ravel()

    def per_cell(per_axis):
        out = np.empty(shape[::-1] + (dim,))
        for a, values in enumerate(per_axis):
            out[..., a] = along(a, values)
        return out.reshape(-1, dim)

    cells = np.arange(math.prod(shape)).reshape(shape[::-1])
    edge_k, edge_l, measure, distance = [], [], [], []
    for a, n in enumerate(shape):
        layout = shape[:a] + (n - 1,) + shape[a + 1:]
        rest = (slice(None),) * a
        edge_k.append(cells[(Ellipsis, slice(None, -1)) + rest].ravel())
        edge_l.append(cells[(Ellipsis, slice(1, None)) + rest].ravel())
        measure.append(product(layout, [(b, w) for b, w in enumerate(widths) if b != a]))
        distance.append(product(layout, [(a, centers[a][1:] - centers[a][:-1])]))
    return Mesh(
        cell_centers=per_cell(centers), cell_measures=product(shape, enumerate(widths)),
        edge_cell_k=np.concatenate(edge_k), edge_cell_l=np.concatenate(edge_l),
        edge_measure=np.concatenate(measure), edge_distance=np.concatenate(distance),
        grid_shape=shape, cell_lower=per_cell([f[:-1] for f in faces]),
        cell_upper=per_cell([f[1:] for f in faces]))


def _cell_counts(**counts) -> tuple:
    for name, value in counts.items():
        if not isinstance(value, (int, np.integer)) or value < 1:
            raise ValueError(f"{name} must be a positive integer")
    return tuple(int(v) for v in counts.values())


def uniform_interval(n_cells: int) -> Mesh:
    """Uniform mesh of (0, 1) with ``n_cells`` cells; faces are points, m_sigma = 1."""
    return _uniform_grid(_cell_counts(n_cells=n_cells))


def uniform_rectangle(nx: int, ny: int) -> Mesh:
    """Uniform mesh of the unit square with nx-by-ny cells, ``k = iy * nx + ix``."""
    return _uniform_grid(_cell_counts(nx=nx, ny=ny))


def disjoint_union(meshes) -> tuple:
    """One mesh of disjoint copies of ``meshes``, and the cell offsets of its components.

    Component c holds cells ``offsets[c]:offsets[c + 1]`` of the union, in
    its own order, and its interior edges follow those of the components
    before it, with their cell indices shifted by ``offsets[c]``.  No edge
    joins two components, so a residual, Jacobian or run on the union is
    that of each component, side by side.  The union is not a tensor grid:
    its ``grid_shape`` is None.
    """
    offsets = np.cumsum([0] + [m.num_cells for m in meshes])
    arrays = {name: np.concatenate([getattr(m, name) for m in meshes])
              for name in _FLOAT_ARRAYS}
    for name in _INDEX_ARRAYS:
        arrays[name] = np.concatenate([getattr(m, name) + off
                                       for m, off in zip(meshes, offsets)])
    return Mesh(grid_shape=None, **arrays), offsets


def validate(mesh: Mesh) -> list:
    """Check every stored quantity for consistency; return violation messages.

    An empty list means the mesh satisfies all structural invariants within
    a relative tolerance of 1e-12: positive measures and distances, a stored
    total equal to the sum of the cell measures, d_sigma = |x_L - x_K| on
    every interior edge and m_K equal to the volume of K's box.  Messages
    are grouped per entity, in entity order.
    """
    bad = []
    cm = mesh.cell_measures
    k, l = mesh.edge_cell_k, mesh.edge_cell_l
    m, dist = mesh.edge_measure, mesh.edge_distance

    bad += [f"cell {c}: nonpositive measure {cm[c]}" for c in np.flatnonzero(~(cm > 0.0))]
    total = float(cm.sum())
    if abs(total - mesh.total_measure) > _REL_TOL * abs(mesh.total_measure):
        bad.append(f"mesh: cell measures sum to {total}, "
                   f"stored total measure is {mesh.total_measure}")

    ok = (m > 0) & (dist > 0)
    gap = np.linalg.norm(mesh.cell_centers[l] - mesh.cell_centers[k], axis=1)
    for i in np.flatnonzero(~ok | (np.abs(gap - dist) > _REL_TOL * dist)):
        msg = ("nonpositive geometric quantity" if not ok[i] else
               f"center distance |x_L - x_K| = {float(gap[i])} differs from "
               f"d_sigma = {float(dist[i])}")
        bad.append(f"interior edge {i} ({k[i]}|{l[i]}): {msg}")

    box = np.prod(mesh.cell_upper - mesh.cell_lower, axis=1)
    bad += [f"cell {c}: measure {cm[c]} differs from its box volume {box[c]}"
            for c in np.flatnonzero(np.abs(box - cm) > _REL_TOL * box)]
    return bad
