import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smfv.mesh import uniform_interval, uniform_rectangle, validate


class TestUniformInterval:
    def test_four_cells(self):
        mesh = uniform_interval(4)
        assert list(mesh.cell_measures) == pytest.approx([0.25] * 4, rel=1e-15)
        assert mesh.num_interior_edges == 3
        assert np.all(mesh.edge_measure == 1.0)
        assert mesh.edge_distance == pytest.approx([0.25] * 3, rel=1e-14)
        assert mesh.edge_tau == pytest.approx([4.0] * 3, rel=1e-14)
        assert mesh.edge_diamond == pytest.approx([0.25] * 3, rel=1e-14)
        assert mesh.regularity == pytest.approx(0.5, rel=1e-14)
        assert mesh.mesh_size == pytest.approx(0.25, rel=1e-15)

    def test_single_cell(self):
        mesh = uniform_interval(1)
        assert mesh.num_cells == 1
        assert mesh.num_interior_edges == 0
        assert mesh.num_boundary_edges == 2

    def test_two_cells(self):
        mesh = uniform_interval(2)
        assert mesh.num_interior_edges == 1
        assert mesh.edge_distance[0] == pytest.approx(0.5, rel=1e-15)
        assert mesh.edge_tau[0] == pytest.approx(2.0, rel=1e-15)
        midpoint = 0.5 * (mesh.cell_centers[0, 0] + mesh.cell_centers[1, 0])
        assert midpoint == pytest.approx(0.5, rel=1e-15)

    def test_rejects_zero_cells(self):
        with pytest.raises(ValueError):
            uniform_interval(0)


class TestUniformRectangle:
    def test_two_by_two(self):
        mesh = uniform_rectangle(2, 2)
        assert mesh.num_cells == 4
        assert mesh.cell_measures == pytest.approx([0.25] * 4, rel=1e-15)
        assert mesh.num_interior_edges == 4
        assert mesh.edge_measure == pytest.approx([0.5] * 4, rel=1e-15)
        assert mesh.edge_distance == pytest.approx([0.5] * 4, rel=1e-15)
        assert mesh.edge_tau == pytest.approx([1.0] * 4, rel=1e-15)
        assert mesh.edge_diamond == pytest.approx([0.125] * 4, rel=1e-15)

    def test_single_cell(self):
        mesh = uniform_rectangle(1, 1)
        assert mesh.num_cells == 1
        assert mesh.num_interior_edges == 0
        assert mesh.num_boundary_edges == 4

    def test_paper_scale_counts(self):
        mesh = uniform_rectangle(70, 70)
        assert mesh.num_cells == 4900
        assert mesh.num_interior_edges == 2 * 70 * 69
        assert mesh.num_boundary_edges == 4 * 70

    def test_rejects_zero_subdivisions(self):
        with pytest.raises(ValueError):
            uniform_rectangle(0, 3)
        with pytest.raises(ValueError):
            uniform_rectangle(3, 0)

    def test_orthogonality_exact(self):
        mesh = uniform_rectangle(3, 5)
        dx = mesh.cell_centers[mesh.edge_cell_l] - mesh.cell_centers[mesh.edge_cell_k]
        dot = (mesh.edge_normals * dx).sum(axis=1)
        assert dot == pytest.approx(mesh.edge_distance, rel=1e-14)
        assert np.all(np.linalg.norm(mesh.edge_normals, axis=1) == 1.0)


class TestValidate:
    def test_constructed_meshes_pass(self):
        assert validate(uniform_interval(8)) == []
        assert validate(uniform_rectangle(3, 5)) == []

    def test_perturbed_diamond_reported_once(self):
        # a cell measure that its half-diamonds no longer add up to
        mesh = uniform_interval(5)
        measures = mesh.cell_measures.copy()
        measures[2] *= 1 + 1e-6
        broken = dataclasses.replace(mesh, cell_measures=measures)
        violations = validate(broken)
        assert len(violations) == 1
        assert "half-diamond" in violations[0]
        assert violations[0].startswith("cell 2:")


@given(n=st.integers(min_value=1, max_value=200))
@settings(max_examples=40, deadline=None)
def test_interval_invariants(n):
    mesh = uniform_interval(n)
    assert mesh.cell_measures.sum() == pytest.approx(mesh.total_measure, rel=1e-12)
    assert mesh.total_measure == pytest.approx(1.0, rel=1e-12)
    assert validate(mesh) == []


@given(nx=st.integers(min_value=1, max_value=12), ny=st.integers(min_value=1, max_value=12))
@settings(max_examples=30, deadline=None)
def test_rectangle_invariants(nx, ny):
    mesh = uniform_rectangle(nx, ny)
    assert mesh.total_measure == pytest.approx(1.0, rel=1e-12)
    # half-diamond partition of each cell
    acc = np.zeros(mesh.num_cells)
    np.add.at(acc, mesh.edge_cell_k, mesh.edge_measure * mesh.edge_dist_k / 2.0)
    np.add.at(acc, mesh.edge_cell_l, mesh.edge_measure * mesh.edge_dist_l / 2.0)
    np.add.at(acc, mesh.boundary_cell, mesh.boundary_measure * mesh.boundary_distance / 2.0)
    assert acc == pytest.approx(mesh.cell_measures, rel=1e-12)
    assert validate(mesh) == []


def test_edge_ordering_is_deterministic():
    mesh = uniform_rectangle(3, 2)
    # x-direction edges first, ordered by K, then y-direction edges
    ks = mesh.edge_cell_k.tolist()
    x_dir = [tuple(nrm) for nrm in mesh.edge_normals[:4].tolist()]
    assert x_dir == [(1.0, 0.0)] * 4
    assert ks[:4] == sorted(ks[:4])
    assert ks[4:] == sorted(ks[4:])


def _rectangle_reference(nx, ny):
    """Per-entity loop construction of the rectangle's edge and boundary arrays."""
    xf, yf = np.arange(nx + 1) / nx, np.arange(ny + 1) / ny
    xc, yc = (np.arange(nx) + 0.5) / nx, (np.arange(ny) + 0.5) / ny
    edges, boundary = [], []
    for iy in range(ny):
        for ix in range(nx - 1):
            k = iy * nx + ix
            edges.append((k, k + 1, yf[iy + 1] - yf[iy], xc[ix + 1] - xc[ix],
                          xf[ix + 1] - xc[ix], xc[ix + 1] - xf[ix + 1], 1.0, 0.0))
    for iy in range(ny - 1):
        for ix in range(nx):
            k = iy * nx + ix
            edges.append((k, k + nx, xf[ix + 1] - xf[ix], yc[iy + 1] - yc[iy],
                          yf[iy + 1] - yc[iy], yc[iy + 1] - yf[iy + 1], 0.0, 1.0))
    for iy in range(ny):
        m = yf[iy + 1] - yf[iy]
        boundary.append((iy * nx, m, xc[0] - xf[0], -1.0, 0.0))
        boundary.append((iy * nx + nx - 1, m, xf[-1] - xc[-1], 1.0, 0.0))
    for ix in range(nx):
        m = xf[ix + 1] - xf[ix]
        boundary.append((ix, m, yc[0] - yf[0], 0.0, -1.0))
        boundary.append(((ny - 1) * nx + ix, m, yf[-1] - yc[-1], 0.0, 1.0))
    return np.array(edges).reshape(-1, 8), np.array(boundary)


@pytest.mark.parametrize("nx, ny", [(1, 1), (3, 2), (2, 5), (7, 7)])
def test_rectangle_matches_loop_reference(nx, ny):
    mesh = uniform_rectangle(nx, ny)
    edges, boundary = _rectangle_reference(nx, ny)
    assert np.array_equal(mesh.edge_cell_k, edges[:, 0])
    assert np.array_equal(mesh.edge_cell_l, edges[:, 1])
    assert np.array_equal(mesh.edge_measure, edges[:, 2])
    assert np.array_equal(mesh.edge_distance, edges[:, 3])
    assert np.array_equal(mesh.edge_dist_k, edges[:, 4])
    assert np.array_equal(mesh.edge_dist_l, edges[:, 5])
    assert np.array_equal(mesh.edge_normals, edges[:, 6:])
    assert np.array_equal(mesh.boundary_cell, boundary[:, 0])
    assert np.array_equal(mesh.boundary_measure, boundary[:, 1])
    assert np.array_equal(mesh.boundary_distance, boundary[:, 2])
    assert np.array_equal(mesh.boundary_normals, boundary[:, 3:])
