"""Run configuration: JSON ingestion, validation, and initial-state presets.

A configuration document is a single JSON object with sections ``mesh``,
``species``, ``initial``, ``time``, and optionally ``output`` and
``convergence``.  Numbers must be finite.  Validation errors name the
offending field.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .mesh import Mesh, uniform_interval, uniform_rectangle
from .model import SpeciesSystem, build_system, is_simplex_point
from .scheme import MAX_STEP_RATIO, StateField

PRESETS = ("smooth1d", "nonsmooth1d", "blocks2d", "uniform", "table")
_PRESET_DIMENSION = {"smooth1d": 1, "nonsmooth1d": 1, "blocks2d": 2}


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


@dataclass(frozen=True)
class MeshConfig:
    shape: tuple

    @property
    def dimension(self) -> int:
        return len(self.shape)

    def build(self) -> Mesh:
        return (uniform_interval if self.dimension == 1 else uniform_rectangle)(*self.shape)


@dataclass(frozen=True)
class InitialConfig:
    preset: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TimeConfig:
    dt: float
    t_end: float


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"
    snapshot_times: tuple = ()
    diagnostics_every: int = 1


@dataclass(frozen=True)
class ConvergenceConfig:
    grids: tuple = (16, 32, 64, 128)
    ref_n: int = 1024


@dataclass(frozen=True)
class RunConfig:
    mesh: MeshConfig
    species: SpeciesSystem
    initial: InitialConfig
    time: TimeConfig
    output: OutputConfig
    convergence: ConvergenceConfig = None


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"{where}.{key} required")
    return section[key]


def _as_positive_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"{where} must be a positive integer")
    return value


def _as_positive_float(value, where: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not value > 0:
        raise ConfigError(f"{where} must be a positive number")
    return float(value)


def _check_finite(value, where: str):
    """Reject NaN and infinite numbers anywhere in a parsed document."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{where} must be a finite number")
    if isinstance(value, dict):
        for key, item in value.items():
            _check_finite(item, f"{where}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _check_finite(item, f"{where}[{i}]")


def _check_keys(section: dict, allowed, where: str):
    for key in section:
        if key not in allowed:
            raise ConfigError(f"{where}.{key} is not a recognised field")


def _check_section(raw, allowed, where: str):
    """Require the section ``where`` to be an object whose keys are all ``allowed``."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object")
    _check_keys(raw, allowed, where)


def _parse_mesh(raw) -> MeshConfig:
    _check_section(raw, {"dimension", "N", "Nx", "Ny"}, "mesh")
    dim = _require(raw, "dimension", "mesh")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim not in (1, 2):
        raise ConfigError("mesh.dimension must be 1 or 2")
    keys = ("N",) if dim == 1 else ("Nx", "Ny")
    return MeshConfig(tuple(_as_positive_int(_require(raw, key, "mesh"), f"mesh.{key}")
                            for key in keys))


def _parse_species(raw) -> SpeciesSystem:
    _check_section(raw, {"n", "c"}, "species")
    c = _require(raw, "c", "species")
    try:
        system = build_system(c)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"species.c: {exc}") from exc
    if "n" in raw and raw["n"] != system.n:
        raise ConfigError("species.n does not match the size of species.c")
    return system


def _parse_time(raw) -> TimeConfig:
    _check_section(raw, {"dt", "T"}, "time")
    dt = _as_positive_float(_require(raw, "dt", "time"), "time.dt")
    t_end = _as_positive_float(_require(raw, "T", "time"), "time.T")
    if t_end < dt:
        raise ConfigError("time.T must be at least time.dt")
    if not t_end / dt < MAX_STEP_RATIO:
        raise ConfigError("time.T / time.dt must be a finite number of steps, "
                          f"below {MAX_STEP_RATIO:g}")
    return TimeConfig(dt, t_end)


def _parse_output(raw, t_end: float) -> OutputConfig:
    if raw is None:
        return OutputConfig()
    _check_section(raw, {"directory", "snapshot_times", "diagnostics_every"}, "output")
    directory = raw.get("directory", "out")
    if not isinstance(directory, str) or not directory:
        raise ConfigError("output.directory must be a nonempty string")
    times = raw.get("snapshot_times", [])
    if not isinstance(times, list):
        raise ConfigError("output.snapshot_times must be a list of times")
    for t in times:
        if not isinstance(t, (int, float)) or isinstance(t, bool) or t < 0 or t > t_end:
            raise ConfigError("output.snapshot_times must lie within [0, T]")
    every = raw.get("diagnostics_every", 1)
    every = _as_positive_int(every, "output.diagnostics_every")
    return OutputConfig(directory, tuple(float(t) for t in times), every)


def _parse_convergence(raw) -> ConvergenceConfig:
    if raw is None:
        return None
    _check_section(raw, {"grids", "ref"}, "convergence")
    return convergence_study(_require(raw, "grids", "convergence"),
                             _require(raw, "ref", "convergence"))


def convergence_study(grids, ref, grids_field="convergence.grids",
                      ref_field="convergence.ref") -> ConvergenceConfig:
    """Distinct positive study grids, each dividing the positive reference grid.

    The one rule for a config's ``convergence`` section and the CLI flags.
    """
    if not isinstance(grids, (list, tuple)) or not grids:
        raise ConfigError(f"{grids_field} must be a nonempty list")
    grids = tuple(sorted(_as_positive_int(g, grids_field) for g in grids))
    ref = _as_positive_int(ref, ref_field)
    for prev, g in zip(grids, grids[1:]):
        if g == prev:
            raise ConfigError(f"study grids must be distinct (N = {g} is repeated)")
    for g in grids:
        if ref % g != 0:
            raise ConfigError(f"{ref_field} must be a multiple of every study grid "
                              f"({ref} is not divisible by N = {g})")
    return ConvergenceConfig(grids, ref)


def load_config(document) -> RunConfig:
    """Parse and validate a configuration document (JSON text or dict)."""
    if isinstance(document, (str, bytes)):
        try:
            raw = json.loads(document)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"malformed configuration document: {exc}") from exc
    elif isinstance(document, dict):
        raw = document
    else:
        raise ConfigError("configuration must be a JSON object document")
    if not isinstance(raw, dict):
        raise ConfigError("top-level configuration must be an object")
    allowed = {"mesh", "species", "initial", "time", "output", "convergence"}
    _check_keys(raw, allowed, "config")
    _check_finite(raw, "config")

    mesh_cfg = _parse_mesh(_require(raw, "mesh", "config"))
    species = _parse_species(_require(raw, "species", "config"))
    time_cfg = _parse_time(_require(raw, "time", "config"))
    initial = _parse_initial(_require(raw, "initial", "config"), mesh_cfg, species.n)
    output = _parse_output(raw.get("output"), time_cfg.t_end)
    convergence = _parse_convergence(raw.get("convergence"))
    return RunConfig(mesh=mesh_cfg, species=species, initial=initial,
                     time=time_cfg, output=output,
                     convergence=convergence)


def load_config_file(path) -> RunConfig:
    """Parse and validate a UTF-8 JSON configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc
    return load_config(text)


# ----------------------------------------------------------------------
# initial profiles


def _smooth1d_point(x):
    u1 = 0.25 + 0.25 * np.cos(np.pi * x)
    return np.stack([u1, u1, 1.0 - 2.0 * u1])


# species 1 on (3/8, 5/8), species 2 on (1/8, 3/8) and (5/8, 7/8), species 3 elsewhere
_NONSMOOTH1D_BLOCKS = ({"species": 0, "box": (3 / 8, 5 / 8)},
                       {"species": 1, "box": (1 / 8, 3 / 8)},
                       {"species": 1, "box": (5 / 8, 7 / 8)})


def _interval_overlap(lo, hi, a, b):
    return np.clip(np.minimum(hi, b) - np.maximum(lo, a), 0.0, None)


def _parse_initial(raw, mesh_cfg: MeshConfig, n: int) -> InitialConfig:
    if not isinstance(raw, dict):
        raise ConfigError("initial must be an object")
    preset = _require(raw, "preset", "initial")
    if preset not in PRESETS:
        raise ConfigError(f"initial.preset unknown: {preset!r} "
                          f"(expected one of {', '.join(PRESETS)})")
    params = {k: v for k, v in raw.items() if k != "preset"}

    _check_preset_dimension(preset, mesh_cfg.dimension)
    if preset in ("smooth1d", "nonsmooth1d"):
        _check_keys(params, set(), "initial")
        if n != 3:
            raise ConfigError(f"initial.preset {preset} requires exactly 3 species")
    elif preset == "uniform":
        _check_keys(params, {"value"}, "initial")
        value = _require(params, "value", "initial")
        if not isinstance(value, list) or len(value) != n:
            raise ConfigError("initial.value must list one fraction per species")
        if not is_simplex_point(np.array(value, dtype=float)):
            raise ConfigError("initial.value must be a point of the unit simplex")
    elif preset == "blocks2d":
        _check_keys(params, {"blocks"}, "initial")
        blocks = _require(params, "blocks", "initial")
        if not isinstance(blocks, list) or not blocks:
            raise ConfigError("initial.blocks must be a nonempty list")
        for blk in blocks:
            if not isinstance(blk, dict) or set(blk) != {"species", "box"}:
                raise ConfigError("initial.blocks entries must be "
                                  "{species, box} objects")
            s = blk["species"]
            if not isinstance(s, int) or isinstance(s, bool) or not 0 <= s < n - 1:
                raise ConfigError("initial.blocks species index must lie in "
                                  f"[0, {n - 2}] (the last species takes the remainder)")
            box = blk["box"]
            if (not isinstance(box, list) or len(box) != 4
                    or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                               for v in box)):
                raise ConfigError("initial.blocks box must be [x0, x1, y0, y1]")
            x0, x1, y0, y1 = (float(v) for v in box)
            if not (0.0 <= x0 < x1 <= 1.0 and 0.0 <= y0 < y1 <= 1.0):
                raise ConfigError("initial.blocks box must be a nondegenerate "
                                  "axis-aligned box inside the unit square")
        _probe_blocks(blocks)
    elif preset == "table":
        _check_keys(params, {"values"}, "initial")
        values = _require(params, "values", "initial")
        if not isinstance(values, list) or not values:
            raise ConfigError("initial.values must be a nonempty list of rows")
        for row in values:
            if not isinstance(row, list) or len(row) != n:
                raise ConfigError("initial.values rows must list one fraction "
                                  "per species")
        if not is_simplex_point(np.array(values, dtype=float).T):
            raise ConfigError("initial.values rows must be points of the unit simplex")
    return InitialConfig(preset, params)


def _check_preset_dimension(preset, dimension):
    need = _PRESET_DIMENSION.get(preset)
    if need is not None and need != dimension:
        raise ConfigError(f"initial.preset {preset} requires a {need}D mesh")


def _probe_blocks(blocks):
    """Reject blocks whose pairwise intersections have positive area.

    Touching boundaries are fine (measure zero); positive-area overlap of any
    two blocks would push the pointwise species sum above one somewhere.
    """
    boxes = [tuple(float(v) for v in blk["box"]) for blk in blocks]
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            ax0, ax1, ay0, ay1 = boxes[i]
            bx0, bx1, by0, by1 = boxes[j]
            w = min(ax1, bx1) - max(ax0, bx0)
            h = min(ay1, by1) - max(ay0, by0)
            if w > 0.0 and h > 0.0:
                if blocks[i]["species"] == blocks[j]["species"]:
                    raise ConfigError("initial.blocks of one species must not overlap")
                raise ConfigError("initial.blocks must leave a nonnegative "
                                  "remainder for the last species")


def preset_initial(initial: InitialConfig, mesh: Mesh, n: int) -> StateField:
    """Cell-averaged initial state for a preset on a given mesh.

    Smooth data is averaged by the midpoint rule (cell-center evaluation);
    indicator data by exact overlap integration over the cell boxes.
    """
    preset = initial.preset
    _check_preset_dimension(preset, mesh.dimension)
    if preset == "smooth1d":
        values = _smooth1d_point(mesh.cell_centers[:, 0])
    elif preset == "nonsmooth1d":
        values = _box_average(mesh, _NONSMOOTH1D_BLOCKS, n)
    elif preset == "blocks2d":
        values = _box_average(mesh, initial.params["blocks"], n)
    elif preset == "uniform":
        value = np.array(initial.params["value"], dtype=float)
        if value.shape != (n,):
            raise ConfigError("initial.value must list one fraction per species")
        values = np.repeat(value[:, None], mesh.num_cells, axis=1)
    elif preset == "table":
        values = np.array(initial.params["values"], dtype=float).T
        if values.shape != (n, mesh.num_cells):
            raise ConfigError("initial.values must have one row per mesh cell")
    else:
        raise ConfigError(f"initial.preset unknown: {preset!r}")
    _validate_state_values(values)
    return StateField(mesh, values)


def _box_average(mesh: Mesh, blocks, n: int) -> np.ndarray:
    """Exact cell averages of indicators of boxes [lo_0, hi_0, lo_1, hi_1, ...]."""
    lo = mesh.cell_lower
    hi = mesh.cell_upper
    volume = np.prod(hi - lo, axis=1)
    values = np.zeros((n, mesh.num_cells))
    for blk in blocks:
        overlap = np.ones(mesh.num_cells)
        for a in range(mesh.dimension):
            overlap *= _interval_overlap(lo[:, a], hi[:, a], *blk["box"][2 * a:2 * a + 2])
        values[blk["species"]] += overlap / volume
    values[n - 1] = 1.0 - values[:n - 1].sum(axis=0)
    return values


def _validate_state_values(values):
    """Check an initial profile, one composition per column, and make it non-negative.

    Its negative entries, rounding errors of at most 1e-12 that
    :func:`is_simplex_point` accepts, are set to 0 in place.
    """
    if not is_simplex_point(values):
        raise ConfigError("initial profile cell values must be points of the unit simplex")
    # every species must be present: positive initial mass
    if np.any(values.max(axis=1) <= 0.0):
        raise ConfigError("initial profile must give every species positive mass")
    values[values < 0.0] = 0.0
