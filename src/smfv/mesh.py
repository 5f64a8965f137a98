"""Cell-centered finite-volume meshes with the two-point orthogonality property.

A mesh is admissible for two-point flux approximation when the segment
joining the centers of two neighbouring cells is orthogonal to their shared
face.  The uniform constructors below (interval and Cartesian rectangle)
satisfy that condition exactly; the ``Mesh`` container itself accepts any
admissible cell/face data, e.g. loaded from file.

A ``Mesh`` is a bundle of flat numpy arrays, built by keyword::

    Mesh(dimension=d, mesh_size=h,
         cell_centers=(N, d), cell_measures=(N,),
         edge_cell_k=(E,), edge_cell_l=(E,), edge_measure=(E,),
         edge_distance=(E,), edge_dist_k=(E,), edge_dist_l=(E,),
         edge_normals=(E, d),
         boundary_cell=(B,), boundary_measure=(B,), boundary_distance=(B,),
         boundary_normals=(B, d),
         grid_shape=None, cell_lower=None, cell_upper=None)

Interior edges are oriented from cell K to cell L.  The counts, the total
measure, the transmissibilities, the diamond measures and the regularity
factor are derived from these arrays.

Geometric quantities carried per interior face sigma = K|L:

    m_sigma   (d-1)-dimensional face measure (1.0 when d = 1)
    d_sigma   distance |x_L - x_K| between the adjacent cell centers
    d_K, d_L  distances from each center to the face, d_K + d_L = d_sigma
    tau_sigma transmissibility m_sigma / d_sigma
    m_diamond diamond-cell measure m_sigma * d_sigma / d
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_REL_TOL = 1e-12   # relative tolerance of validate

_INDEX_ARRAYS = ("edge_cell_k", "edge_cell_l", "boundary_cell")
_FLOAT_ARRAYS = ("cell_centers", "cell_measures", "edge_measure", "edge_distance",
                 "edge_dist_k", "edge_dist_l", "edge_normals", "boundary_measure",
                 "boundary_distance", "boundary_normals")


@dataclass(frozen=True, eq=False)
class Mesh:
    """Immutable array bundle of cells, interior edges and boundary edges.

    ``grid_shape`` and the per-cell bounding boxes ``cell_lower`` /
    ``cell_upper`` are only set by the uniform constructors; operations that
    need the structured layout (exact indicator averaging, nested-grid
    restriction) require them.
    """

    dimension: int
    mesh_size: float
    cell_centers: np.ndarray
    cell_measures: np.ndarray
    edge_cell_k: np.ndarray
    edge_cell_l: np.ndarray
    edge_measure: np.ndarray
    edge_distance: np.ndarray
    edge_dist_k: np.ndarray
    edge_dist_l: np.ndarray
    edge_normals: np.ndarray
    boundary_cell: np.ndarray
    boundary_measure: np.ndarray
    boundary_distance: np.ndarray
    boundary_normals: np.ndarray
    grid_shape: tuple = None
    cell_lower: np.ndarray = None
    cell_upper: np.ndarray = None
    num_cells: int = field(init=False)
    total_measure: float = field(init=False)
    num_interior_edges: int = field(init=False)
    num_boundary_edges: int = field(init=False)
    edge_tau: np.ndarray = field(init=False)
    edge_diamond: np.ndarray = field(init=False)
    regularity: float = field(init=False)

    def __post_init__(self):
        def put(name, value):
            object.__setattr__(self, name, value)

        put("dimension", int(self.dimension))
        put("mesh_size", float(self.mesh_size))
        for name in _INDEX_ARRAYS:
            put(name, np.asarray(getattr(self, name), dtype=np.intp))
        for name in _FLOAT_ARRAYS:
            put(name, np.asarray(getattr(self, name), dtype=float))
        for name in ("edge_normals", "boundary_normals"):
            put(name, getattr(self, name).reshape(-1, self.dimension))
        if self.grid_shape is not None:
            put("grid_shape", tuple(self.grid_shape))
        put("num_cells", len(self.cell_measures))
        put("total_measure", float(self.cell_measures.sum()))
        put("num_interior_edges", len(self.edge_cell_k))
        put("num_boundary_edges", len(self.boundary_cell))
        put("edge_tau", self.edge_measure / self.edge_distance)
        put("edge_diamond", self.edge_measure * self.edge_distance / self.dimension)
        put("regularity", _regularity(self))


def _regularity(mesh):
    # min over cell/face pairs of dist(x_K, sigma)/d_sigma; boundary faces
    # contribute 1 since d_sigma is defined there as |x_K - x_sigma|.
    ratios = []
    if mesh.num_interior_edges:
        ratios.append(float(np.min(np.minimum(mesh.edge_dist_k, mesh.edge_dist_l)
                                   / mesh.edge_distance)))
    if mesh.num_boundary_edges:
        ratios.append(1.0)
    return min(ratios) if ratios else 1.0


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
        dimension=1, mesh_size=1.0 / n_cells,
        cell_centers=centers[:, None], cell_measures=np.diff(faces),
        edge_cell_k=cells[:-1], edge_cell_l=cells[1:],
        edge_measure=np.ones(n_cells - 1), edge_distance=np.diff(centers),
        edge_dist_k=faces[1:-1] - centers[:-1], edge_dist_l=centers[1:] - faces[1:-1],
        edge_normals=np.ones((n_cells - 1, 1)),
        boundary_cell=[0, n_cells - 1], boundary_measure=[1.0, 1.0],
        boundary_distance=[centers[0] - faces[0], faces[-1] - centers[-1]],
        boundary_normals=[[-1.0], [1.0]],
        grid_shape=(n_cells,), cell_lower=faces[:-1, None].copy(),
        cell_upper=faces[1:, None].copy())


def uniform_rectangle(nx: int, ny: int) -> Mesh:
    """Uniform Cartesian mesh of the unit square with nx-by-ny cells.

    Cells are indexed row-major, ``k = iy * nx + ix``; interior edges are
    listed x-direction first, then y-direction, each ordered by the index of
    their K cell.  Boundary edges are listed as (left, right) pairs row by
    row, then (bottom, top) pairs column by column.  The orthogonality
    condition holds exactly.
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
    ex = np.array([1.0, 0.0])
    ey = np.array([0.0, 1.0])
    cells = np.arange(nx * ny).reshape(ny, nx)

    # vertical faces (normal along +x), then horizontal faces (normal along +y)
    ix = np.tile(np.arange(nx - 1), ny)
    iy = np.repeat(np.arange(ny), nx - 1)
    jx = np.tile(np.arange(nx), ny - 1)
    jy = np.repeat(np.arange(ny - 1), nx)
    edge_k = np.concatenate([cells[:, :-1].ravel(), cells[:-1, :].ravel()])
    edge_l = np.concatenate([cells[:, 1:].ravel(), cells[1:, :].ravel()])
    measure = np.concatenate([hy[iy], hx[jx]])
    distance = np.concatenate([np.diff(xc)[ix], np.diff(yc)[jy]])
    dist_k = np.concatenate([(xf[1:-1] - xc[:-1])[ix], (yf[1:-1] - yc[:-1])[jy]])
    dist_l = np.concatenate([(xc[1:] - xf[1:-1])[ix], (yc[1:] - yf[1:-1])[jy]])
    normals = np.concatenate([np.tile(ex, (len(ix), 1)), np.tile(ey, (len(jx), 1))])

    boundary_cell = np.concatenate([
        np.stack([cells[:, 0], cells[:, -1]], axis=1).ravel(),
        np.stack([cells[0, :], cells[-1, :]], axis=1).ravel()])
    boundary_measure = np.concatenate([np.repeat(hy, 2), np.repeat(hx, 2)])
    boundary_distance = np.concatenate([
        np.tile([xc[0] - xf[0], xf[-1] - xc[-1]], ny),
        np.tile([yc[0] - yf[0], yf[-1] - yc[-1]], nx)])
    boundary_normals = np.concatenate([np.tile(np.stack([-ex, ex]), (ny, 1)),
                                       np.tile(np.stack([-ey, ey]), (nx, 1))])

    return Mesh(
        dimension=2, mesh_size=math.hypot(1.0 / nx, 1.0 / ny),
        cell_centers=np.column_stack([np.tile(xc, ny), np.repeat(yc, nx)]),
        cell_measures=np.outer(hy, hx).ravel(),
        edge_cell_k=edge_k, edge_cell_l=edge_l, edge_measure=measure,
        edge_distance=distance, edge_dist_k=dist_k, edge_dist_l=dist_l,
        edge_normals=normals, boundary_cell=boundary_cell,
        boundary_measure=boundary_measure, boundary_distance=boundary_distance,
        boundary_normals=boundary_normals, grid_shape=(nx, ny),
        cell_lower=np.column_stack([np.tile(xf[:-1], ny), np.repeat(yf[:-1], nx)]),
        cell_upper=np.column_stack([np.tile(xf[1:], ny), np.repeat(yf[1:], nx)]))


def validate(mesh: Mesh) -> list:
    """Check every stored quantity for consistency; return violation messages.

    An empty list means the mesh satisfies all structural invariants within
    a relative tolerance of 1e-12.  Messages are grouped per entity, in
    entity order.
    """
    bad = []
    d = mesh.dimension
    cm = mesh.cell_measures
    k, l = mesh.edge_cell_k, mesh.edge_cell_l
    m, dist = mesh.edge_measure, mesh.edge_distance
    dk, dl = mesh.edge_dist_k, mesh.edge_dist_l

    bad += [f"cell {c}: nonpositive measure {cm[c]}" for c in np.flatnonzero(~(cm > 0.0))]
    total = float(cm.sum())
    if abs(total - mesh.total_measure) > _REL_TOL * abs(mesh.total_measure):
        bad.append(f"mesh: cell measures sum to {total}, "
                   f"stored total measure is {mesh.total_measure}")

    # (edge index, message) pairs; a stable sort by index keeps check order
    edge_msgs = []
    ok = (m > 0) & (dist > 0) & (dk > 0) & (dl > 0)
    edge_msgs += [(i, "nonpositive geometric quantity") for i in np.flatnonzero(~ok)]
    edge_msgs += [(i, "center-to-face distances do not sum to the center distance")
                  for i in np.flatnonzero(ok & (np.abs(dk + dl - dist) > _REL_TOL * dist))]
    nrm = np.linalg.norm(mesh.edge_normals, axis=1)
    edge_msgs += [(i, f"normal is not a unit vector (|n| = {float(nrm[i])})")
                  for i in np.flatnonzero(ok & (np.abs(nrm - 1.0) > _REL_TOL))]
    dot = (mesh.edge_normals * (mesh.cell_centers[l] - mesh.cell_centers[k])).sum(axis=1)
    edge_msgs += [(i, f"orthogonality condition violated "
                      f"(n.(x_L - x_K) = {float(dot[i])}, d_sigma = {float(dist[i])})")
                  for i in np.flatnonzero(ok & (np.abs(dot - dist) > _REL_TOL * dist))]
    bad += [f"interior edge {i} ({k[i]}|{l[i]}): {msg}"
            for i, msg in sorted(edge_msgs, key=lambda r: r[0])]

    bc, bm, bdist = mesh.boundary_cell, mesh.boundary_measure, mesh.boundary_distance
    b_ok = (bm > 0) & (bdist > 0)
    b_nrm = np.linalg.norm(mesh.boundary_normals, axis=1)
    b_msgs = [(i, "nonpositive geometric quantity") for i in np.flatnonzero(~b_ok)]
    b_msgs += [(i, f"normal is not a unit vector (|n| = {float(b_nrm[i])})")
               for i in np.flatnonzero(b_ok & (np.abs(b_nrm - 1.0) > _REL_TOL))]
    bad += [f"boundary edge {i} (cell {bc[i]}): {msg}"
            for i, msg in sorted(b_msgs, key=lambda r: r[0])]

    n = mesh.num_cells
    half_diamond = (np.bincount(k, np.where(ok, m * dk / d, 0.0), minlength=n)
                    + np.bincount(l, np.where(ok, m * dl / d, 0.0), minlength=n)
                    + np.bincount(bc, np.where(b_ok, bm * bdist / d, 0.0), minlength=n))
    bad += [f"cell {c}: half-diamond measures sum to {half_diamond[c]}, "
            f"cell measure is {cm[c]}"
            for c in np.flatnonzero(np.abs(half_diamond - cm) > _REL_TOL * cm)]

    zeta = _regularity(mesh)
    if not zeta > 0.0:
        bad.append(f"mesh: regularity factor {zeta} is not positive")
    if abs(zeta - mesh.regularity) > _REL_TOL * max(abs(zeta), 1e-300):
        bad.append(f"mesh: stored regularity {mesh.regularity} differs "
                   f"from recomputed {zeta}")
    return bad
