"""Cell-centered finite-volume meshes with the two-point orthogonality property.

A mesh is admissible for two-point flux approximation when the segment
joining the centers of two neighbouring cells is orthogonal to their shared
face.  The uniform constructors below (interval and Cartesian rectangle)
satisfy that condition exactly.  Boundary faces carry zero flux, so a mesh
stores only its cells and interior faces.

A ``Mesh`` is a bundle of flat numpy arrays, built by keyword::

    Mesh(dimension=d, cell_centers=(N, d), cell_measures=(N,),
         edge_cell_k=(E,), edge_cell_l=(E,), edge_measure=(E,),
         edge_distance=(E,), grid_shape=(N,) or (Nx, Ny),
         cell_lower=(N, d), cell_upper=(N, d))

Interior edges are oriented from cell K to cell L.  ``cell_lower`` and
``cell_upper`` are the corners of each cell's axis-aligned box.  The counts,
the total measure and the transmissibilities are derived from these arrays.

Geometric quantities carried per interior face sigma = K|L:

    m_sigma   (d-1)-dimensional face measure (1.0 when d = 1)
    d_sigma   distance |x_L - x_K| between the adjacent cell centers
    tau_sigma transmissibility m_sigma / d_sigma
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_REL_TOL = 1e-12   # relative tolerance of validate

_INDEX_ARRAYS = ("edge_cell_k", "edge_cell_l")
_FLOAT_ARRAYS = ("cell_centers", "cell_measures", "edge_measure", "edge_distance",
                 "cell_lower", "cell_upper")


@dataclass(frozen=True, eq=False)
class Mesh:
    """Immutable array bundle of the cells and interior edges of a structured grid.

    ``grid_shape`` and the per-cell boxes ``cell_lower`` / ``cell_upper``
    give the structured layout that exact indicator averaging and
    nested-grid restriction use.
    """

    dimension: int
    cell_centers: np.ndarray
    cell_measures: np.ndarray
    edge_cell_k: np.ndarray
    edge_cell_l: np.ndarray
    edge_measure: np.ndarray
    edge_distance: np.ndarray
    grid_shape: tuple
    cell_lower: np.ndarray
    cell_upper: np.ndarray
    num_cells: int = field(init=False)
    total_measure: float = field(init=False)
    num_interior_edges: int = field(init=False)
    edge_tau: np.ndarray = field(init=False)

    def __post_init__(self):
        def put(name, value):
            object.__setattr__(self, name, value)

        put("dimension", int(self.dimension))
        for name in _INDEX_ARRAYS:
            put(name, np.asarray(getattr(self, name), dtype=np.intp))
        for name in _FLOAT_ARRAYS:
            put(name, np.asarray(getattr(self, name), dtype=float))
        put("grid_shape", tuple(self.grid_shape))
        put("num_cells", len(self.cell_measures))
        put("total_measure", float(self.cell_measures.sum()))
        put("num_interior_edges", len(self.edge_cell_k))
        put("edge_tau", self.edge_measure / self.edge_distance)


def uniform_interval(n_cells: int) -> Mesh:
    """Uniform mesh of (0, 1) with ``n_cells`` cells.

    Faces are points, so m_sigma = 1 by convention (their 0-dimensional
    Hausdorff measure) and tau_sigma = 1/d_sigma.
    """
    if not isinstance(n_cells, (int, np.integer)) or n_cells < 1:
        raise ValueError("n_cells must be a positive integer")
    n_cells = int(n_cells)
    faces = np.arange(n_cells + 1, dtype=float) / n_cells
    centers = (np.arange(n_cells, dtype=float) + 0.5) / n_cells
    cells = np.arange(n_cells)
    return Mesh(
        dimension=1, cell_centers=centers[:, None], cell_measures=np.diff(faces),
        edge_cell_k=cells[:-1], edge_cell_l=cells[1:],
        edge_measure=np.ones(n_cells - 1), edge_distance=np.diff(centers),
        grid_shape=(n_cells,), cell_lower=faces[:-1, None].copy(),
        cell_upper=faces[1:, None].copy())


def uniform_rectangle(nx: int, ny: int) -> Mesh:
    """Uniform Cartesian mesh of the unit square with nx-by-ny cells.

    Cells are indexed row-major, ``k = iy * nx + ix``; interior edges are
    listed x-direction first, then y-direction, each ordered by the index of
    their K cell.  The orthogonality condition holds exactly.
    """
    for name, value in (("nx", nx), ("ny", ny)):
        if not isinstance(value, (int, np.integer)) or value < 1:
            raise ValueError(f"{name} must be a positive integer")
    nx, ny = int(nx), int(ny)
    xf = np.arange(nx + 1, dtype=float) / nx
    yf = np.arange(ny + 1, dtype=float) / ny
    xc = (np.arange(nx, dtype=float) + 0.5) / nx
    yc = (np.arange(ny, dtype=float) + 0.5) / ny
    hx = np.diff(xf)
    hy = np.diff(yf)
    cells = np.arange(nx * ny).reshape(ny, nx)

    # vertical faces (K|L along +x), then horizontal faces (K|L along +y)
    ix = np.tile(np.arange(nx - 1), ny)
    iy = np.repeat(np.arange(ny), nx - 1)
    jx = np.tile(np.arange(nx), ny - 1)
    jy = np.repeat(np.arange(ny - 1), nx)
    edge_k = np.concatenate([cells[:, :-1].ravel(), cells[:-1, :].ravel()])
    edge_l = np.concatenate([cells[:, 1:].ravel(), cells[1:, :].ravel()])
    measure = np.concatenate([hy[iy], hx[jx]])
    distance = np.concatenate([np.diff(xc)[ix], np.diff(yc)[jy]])

    return Mesh(
        dimension=2, cell_centers=np.column_stack([np.tile(xc, ny), np.repeat(yc, nx)]),
        cell_measures=np.outer(hy, hx).ravel(),
        edge_cell_k=edge_k, edge_cell_l=edge_l, edge_measure=measure,
        edge_distance=distance, grid_shape=(nx, ny),
        cell_lower=np.column_stack([np.tile(xf[:-1], ny), np.repeat(yf[:-1], nx)]),
        cell_upper=np.column_stack([np.tile(xf[1:], ny), np.repeat(yf[1:], nx)]))


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
