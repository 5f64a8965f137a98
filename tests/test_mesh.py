import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smfv.diagnostics import SampledRun, l1_space_time_error
from smfv.mesh import disjoint_union, uniform_interval, uniform_rectangle, validate


class TestUniformInterval:
    def test_four_cells(self):
        mesh = uniform_interval(4)
        assert list(mesh.cell_measures) == pytest.approx([0.25] * 4, rel=1e-15)
        assert mesh.num_interior_edges == 3
        assert np.all(mesh.edge_measure == 1.0)
        assert mesh.edge_distance == pytest.approx([0.25] * 3, rel=1e-14)
        assert mesh.edge_tau == pytest.approx([4.0] * 3, rel=1e-14)
        assert mesh.grid_shape == (4,)
        assert mesh.cell_lower[:, 0].tolist() == [0.0, 0.25, 0.5, 0.75]
        assert mesh.cell_upper[:, 0].tolist() == [0.25, 0.5, 0.75, 1.0]

    def test_single_cell(self):
        mesh = uniform_interval(1)
        assert mesh.num_cells == 1
        assert mesh.num_interior_edges == 0
        assert mesh.grid_shape == (1,)

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

    def test_single_cell(self):
        mesh = uniform_rectangle(1, 1)
        assert mesh.num_cells == 1
        assert mesh.num_interior_edges == 0
        assert mesh.grid_shape == (1, 1)

    def test_paper_scale_counts(self):
        mesh = uniform_rectangle(70, 70)
        assert mesh.num_cells == 4900
        assert mesh.num_interior_edges == 2 * 70 * 69
        assert mesh.grid_shape == (70, 70)

    def test_rejects_zero_subdivisions(self):
        with pytest.raises(ValueError):
            uniform_rectangle(0, 3)
        with pytest.raises(ValueError):
            uniform_rectangle(3, 0)


class TestValidate:
    def test_constructed_meshes_pass(self):
        assert validate(uniform_interval(8)) == []
        assert validate(uniform_rectangle(3, 5)) == []

    def test_perturbed_measure_reported_once(self):
        # a cell measure that no longer equals the volume of its box
        mesh = uniform_interval(5)
        measures = mesh.cell_measures.copy()
        measures[2] *= 1 + 1e-6
        broken = dataclasses.replace(mesh, cell_measures=measures)
        violations = validate(broken)
        assert len(violations) == 1
        assert "box volume" in violations[0]
        assert violations[0].startswith("cell 2:")

    def test_perturbed_distance_reported_once(self):
        # a d_sigma that no longer equals the distance of the two centers
        mesh = uniform_rectangle(3, 2)
        distance = mesh.edge_distance.copy()
        distance[5] *= 1 + 1e-6
        violations = validate(dataclasses.replace(mesh, edge_distance=distance))
        assert len(violations) == 1
        assert violations[0].startswith("interior edge 5 (1|4): center distance")

    def test_nonpositive_quantities_reported(self):
        mesh = uniform_interval(3)
        measure = mesh.edge_measure.copy()
        measure[1] = 0.0
        violations = validate(dataclasses.replace(mesh, edge_measure=measure))
        assert violations == ["interior edge 1 (1|2): nonpositive geometric quantity"]


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
    assert validate(mesh) == []


def test_edge_ordering_is_deterministic():
    mesh = uniform_rectangle(3, 2)
    # x-direction edges first, ordered by K, then y-direction edges
    ks = mesh.edge_cell_k.tolist()
    step = mesh.cell_centers[mesh.edge_cell_l] - mesh.cell_centers[mesh.edge_cell_k]
    assert np.all(step[:4, 0] > 0.0) and np.all(step[:4, 1] == 0.0)
    assert np.all(step[4:, 0] == 0.0) and np.all(step[4:, 1] > 0.0)
    assert ks[:4] == sorted(ks[:4])
    assert ks[4:] == sorted(ks[4:])


def _rectangle_reference(nx, ny):
    """Per-entity loop construction of the rectangle's cell and edge arrays."""
    xf, yf = np.arange(nx + 1) / nx, np.arange(ny + 1) / ny
    xc, yc = (np.arange(nx) + 0.5) / nx, (np.arange(ny) + 0.5) / ny
    cells, edges = [], []
    for iy in range(ny):
        for ix in range(nx):
            cells.append((xc[ix], yc[iy], (yf[iy + 1] - yf[iy]) * (xf[ix + 1] - xf[ix]),
                          xf[ix], yf[iy], xf[ix + 1], yf[iy + 1]))
    for iy in range(ny):
        for ix in range(nx - 1):
            k = iy * nx + ix
            edges.append((k, k + 1, yf[iy + 1] - yf[iy], xc[ix + 1] - xc[ix]))
    for iy in range(ny - 1):
        for ix in range(nx):
            k = iy * nx + ix
            edges.append((k, k + nx, xf[ix + 1] - xf[ix], yc[iy + 1] - yc[iy]))
    return np.array(cells), np.array(edges).reshape(-1, 4)


def _interval_reference(n):
    """Per-entity loop construction of the interval's cell and edge arrays."""
    f, c = np.arange(n + 1) / n, (np.arange(n) + 0.5) / n
    cells = [(c[i], f[i + 1] - f[i], f[i], f[i + 1]) for i in range(n)]
    edges = [(i, i + 1, 1.0, c[i + 1] - c[i]) for i in range(n - 1)]
    return np.array(cells), np.array(edges).reshape(-1, 4)


@pytest.mark.parametrize("shape", [(1,), (2,), (5,), (64,),
                                   (1, 1), (3, 2), (2, 5), (7, 7)],
                         ids=lambda shape: "-".join(map(str, shape)))
def test_rectangle_matches_loop_reference(shape):
    d = len(shape)
    if d == 1:
        mesh, (cells, edges) = uniform_interval(*shape), _interval_reference(*shape)
    else:
        mesh, (cells, edges) = uniform_rectangle(*shape), _rectangle_reference(*shape)
    assert mesh.grid_shape == shape
    assert mesh.dimension == d
    assert np.array_equal(mesh.cell_centers, cells[:, 0:d])
    assert np.array_equal(mesh.cell_measures, cells[:, d])
    assert np.array_equal(mesh.cell_lower, cells[:, d + 1:2 * d + 1])
    assert np.array_equal(mesh.cell_upper, cells[:, 2 * d + 1:])
    assert np.array_equal(mesh.edge_cell_k, edges[:, 0])
    assert np.array_equal(mesh.edge_cell_l, edges[:, 1])
    assert np.array_equal(mesh.edge_measure, edges[:, 2])
    assert np.array_equal(mesh.edge_distance, edges[:, 3])


class TestDisjointUnion:
    @pytest.mark.parametrize("parts", [[uniform_interval(3), uniform_interval(1),
                                        uniform_interval(5)],
                                       [uniform_rectangle(2, 3), uniform_rectangle(4, 4)]],
                             ids=["intervals", "rectangles"])
    def test_components_side_by_side(self, parts):
        union, offsets = disjoint_union(parts)
        assert validate(union) == []
        assert offsets.tolist() == np.cumsum([0] + [m.num_cells for m in parts]).tolist()
        assert union.num_cells == offsets[-1]
        assert union.dimension == parts[0].dimension
        assert union.grid_shape is None
        first = 0
        for mesh, a, b in zip(parts, offsets, offsets[1:]):
            edges = slice(first, first + mesh.num_interior_edges)
            first = edges.stop
            assert np.array_equal(union.cell_centers[a:b], mesh.cell_centers)
            assert np.array_equal(union.cell_measures[a:b], mesh.cell_measures)
            assert np.array_equal(union.cell_lower[a:b], mesh.cell_lower)
            assert np.array_equal(union.cell_upper[a:b], mesh.cell_upper)
            assert np.array_equal(union.edge_cell_k[edges], mesh.edge_cell_k + a)
            assert np.array_equal(union.edge_cell_l[edges], mesh.edge_cell_l + a)
            assert np.array_equal(union.edge_tau[edges], mesh.edge_tau)
        assert first == union.num_interior_edges

    def test_union_is_not_restricted(self):
        # the union is no tensor grid, so no nested-grid restriction takes it
        union, _ = disjoint_union([uniform_interval(2), uniform_interval(4)])
        ref = SampledRun(union, [1.0], [np.full((3, 6), 1.0 / 3.0)])
        coarse = SampledRun(uniform_interval(2), [1.0], [np.full((3, 2), 1.0 / 3.0)])
        with pytest.raises(ValueError, match="tensor grids"):
            l1_space_time_error(coarse, ref)


@pytest.mark.parametrize("mesh", [
    uniform_interval(1), uniform_interval(7), uniform_rectangle(4, 3),
    disjoint_union([uniform_rectangle(3, 1), uniform_rectangle(2, 2)])[0]],
    ids=["single-cell", "interval", "rectangle", "union"])
def test_edge_sides_gather_both_cells(mesh):
    # one gather gives every edge's K and L cell values, each contiguous
    values = np.arange(3 * mesh.num_cells, dtype=float).reshape(3, -1)
    uk, ul = values.ravel().take(mesh.edge_sides(3))
    assert np.array_equal(uk, values[:, mesh.edge_cell_k])
    assert np.array_equal(ul, values[:, mesh.edge_cell_l])
    assert uk.flags.c_contiguous and ul.flags.c_contiguous
    assert mesh.edge_sides(3).base is mesh.cell_edge_incidence(3)  # a view, built once
