"""Run configuration: JSON ingestion, validation, and initial-state presets.

A configuration document is a single JSON object with sections ``mesh``,
``species``, ``initial``, ``time``, and optionally ``output`` and
``convergence``.  Numbers must be finite.  Validation errors name the
offending field.  Each initial preset is one row of ``_PRESETS``, whose
rules :func:`load_config` and :func:`preset_initial` both apply.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .mesh import Mesh, uniform_interval, uniform_rectangle
from .model import SpeciesSystem, build_system, is_simplex_point
from .scheme import MAX_STEP_RATIO, StateField


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


def _is_number(value) -> bool:
    """A JSON number: an int or a float, but not ``true`` or ``false``."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_positive_float(value, where: str) -> float:
    if not _is_number(value) or not value > 0:
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
        if not _is_number(t) or t < 0 or t > t_end:
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
    initial = _parse_initial(_require(raw, "initial", "config"), mesh_cfg.dimension,
                             species.n)
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

# Each preset's mesh dimension and species count (None: any), the one field
# it takes besides "preset" (None: none), and its builder, which maps
# (mesh, n, the field as _check_initial reads it) to the cell values, one
# column per cell.
_PRESETS = {
    "smooth1d": (1, 3, None,
                 lambda mesh, n, _: _smooth1d_point(mesh.cell_centers[:, 0])),
    "nonsmooth1d": (1, 3, None,
                    lambda mesh, n, _: _box_average(mesh, _NONSMOOTH1D_BLOCKS, n)),
    "blocks2d": (2, None, "blocks", lambda mesh, n, blocks: _box_average(mesh, blocks, n)),
    "uniform": (None, None, "value", lambda mesh, n, value: np.tile(value.T, mesh.num_cells)),
    "table": (None, None, "values", lambda mesh, n, rows: rows.T),
}


def _smooth1d_point(x):
    u1 = 0.25 + 0.25 * np.cos(np.pi * x)
    return np.stack([u1, u1, 1.0 - 2.0 * u1])


# species 1 on (3/8, 5/8), species 2 on (1/8, 3/8) and (5/8, 7/8), species 3 elsewhere
_NONSMOOTH1D_BLOCKS = ({"species": 0, "box": (3 / 8, 5 / 8)},
                       {"species": 1, "box": (1 / 8, 3 / 8)},
                       {"species": 1, "box": (5 / 8, 7 / 8)})


def _interval_overlap(lo, hi, a, b):
    return np.clip(np.minimum(hi, b) - np.maximum(lo, a), 0.0, None)


def _parse_initial(raw, dimension: int, n: int) -> InitialConfig:
    if not isinstance(raw, dict):
        raise ConfigError("initial must be an object")
    params = {k: v for k, v in raw.items() if k != "preset"}
    initial = InitialConfig(_require(raw, "preset", "initial"), params)
    _check_initial(initial, dimension, n)
    return initial


def _check_initial(initial: InitialConfig, dimension: int, n: int):
    """Apply every rule of ``initial`` that holds on any mesh; return its field, read.

    The field is ``blocks`` as given, ``value`` as a float array of shape
    (1, n), ``values`` as one of shape (rows, n), or None for a preset
    without a field.
    """
    preset = initial.preset
    if not isinstance(preset, str) or preset not in _PRESETS:
        raise ConfigError(f"initial.preset unknown: {preset!r} "
                          f"(expected one of {', '.join(_PRESETS)})")
    need_dimension, need_n, key, _ = _PRESETS[preset]
    if need_dimension not in (None, dimension):
        raise ConfigError(f"initial.preset {preset} requires a {need_dimension}D mesh")
    _check_keys(initial.params, {key}, "initial")  # {None} admits no field
    if need_n not in (None, n):
        raise ConfigError(f"initial.preset {preset} requires exactly {need_n} species")
    if key is None:
        return None
    data = _require(initial.params, key, "initial")
    if key == "blocks":
        _check_blocks(data, n)
        return data
    # the one reader of fractions: a uniform value is a table of one row
    rows = [data] if key == "value" else data
    if not isinstance(rows, (list, tuple)) or not rows:
        raise ConfigError("initial.values must be a nonempty list of rows")
    for i, row in enumerate(rows):
        if not (isinstance(row, (list, tuple)) and len(row) == n
                and all(map(_is_number, row))):
            where = "initial.value" if key == "value" else f"initial.values[{i}]"
            raise ConfigError(f"{where} must list one fraction per species: "
                              f"{n} JSON numbers")
    values = np.array(rows, dtype=float)
    if not is_simplex_point(values.T):
        where = "initial.value" if key == "value" else "initial.values rows"
        raise ConfigError(f"{where} must lie in the unit simplex")
    return values


def _check_blocks(blocks, n: int):
    """Require a nonempty list of {species, box} blocks, no two overlapping.

    Touching boundaries are fine (measure zero); positive-area overlap of any
    two blocks would push the pointwise species sum above one somewhere.
    """
    if not isinstance(blocks, (list, tuple)) or not blocks:
        raise ConfigError("initial.blocks must be a nonempty list")
    for i, blk in enumerate(blocks):
        if not isinstance(blk, dict) or set(blk) != {"species", "box"}:
            raise ConfigError("initial.blocks entries must be {species, box} objects")
        s = blk["species"]
        if isinstance(s, bool) or not isinstance(s, int) or not 0 <= s < n - 1:
            raise ConfigError("initial.blocks species index must lie in "
                              f"[0, {n - 2}] (the last species takes the remainder)")
        box = blk["box"]
        if not (isinstance(box, (list, tuple)) and len(box) == 4
                and all(map(_is_number, box))):
            raise ConfigError("initial.blocks box must be [x0, x1, y0, y1]")
        x0, x1, y0, y1 = box
        if not (0.0 <= x0 < x1 <= 1.0 and 0.0 <= y0 < y1 <= 1.0):
            raise ConfigError("initial.blocks box must be a nondegenerate "
                              "axis-aligned box inside the unit square")
        for other in blocks[:i]:
            ax0, ax1, ay0, ay1 = other["box"]
            if min(ax1, x1) - max(ax0, x0) > 0.0 and min(ay1, y1) - max(ay0, y0) > 0.0:
                if other["species"] == s:
                    raise ConfigError("initial.blocks of one species must not overlap")
                raise ConfigError("initial.blocks must leave a nonnegative "
                                  "remainder for the last species")


def preset_initial(initial: InitialConfig, mesh: Mesh, n: int) -> StateField:
    """Cell-averaged initial state for a preset on a given mesh.

    Raises :class:`ConfigError` unless ``initial`` meets the rules that
    :func:`load_config` applies and a table has one row per cell of ``mesh``.
    Smooth data is averaged by the midpoint rule (cell-center evaluation);
    indicator data by exact overlap integration over the cell boxes.
    """
    data = _check_initial(initial, mesh.dimension, n)
    if initial.preset == "table" and len(data) != mesh.num_cells:
        raise ConfigError("initial.values must have one row per mesh cell")
    values = _PRESETS[initial.preset][-1](mesh, n, data)
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
