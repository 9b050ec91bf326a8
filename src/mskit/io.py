"""Run configuration, field persistence, ledger CSV, and raster output.

The config grammar is flat `section.key = value` lines; unknown keys are
hard errors so typos cannot silently fall back to defaults. CONFIG_KEYS is
the one place a key is added: one row gives the record the value lands in,
its field, parser and formatter, and parsing, building and `mskit info` all
walk it; defaults live only in the dataclasses and the shipped scenarios.
The ledger CSV columns are the fields of StepRecord. Every float of a
config or a ledger goes through `_finite`, which refuses nan and the
infinities. Fields are written, never read back, in a small
self-describing binary format: the magic b"MSFLD1", then little-endian
uint32 version, d and the d dims, then d float64 box lengths, then the
float64 values in column-major (Fortran) order, so axis 0 varies fastest.
"""

from dataclasses import dataclass, fields, replace

import numpy as np

from .diagnostics import Ledger, StepRecord
from .scenarios import _GEOMETRY, _READS, KINDS, ScenarioSpec, default_scenarios

MAGIC = b"MSFLD1"
VERSION = 1

LEDGER_HEADER = ",".join(f.name.rstrip("_") for f in fields(StepRecord))


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Everything one `run` needs: what to simulate and what to write."""

    scenario: ScenarioSpec
    ledger: bool = True
    snapshots: bool = True
    out_dir: str = "out"
    stride: int = 1

    def __post_init__(self):
        if self.stride < 1:
            raise ConfigError("run.stride must be >= 1")


def _parse_bool(text):
    t = text.strip().lower()
    if t in ("true", "yes", "on", "1"):
        return True
    if t in ("false", "no", "off", "0"):
        return False
    raise ValueError("not a boolean: %r" % text)


def _finite(text):
    x = float(text)
    if not np.isfinite(x):
        raise ValueError("not a finite number: %r" % text.strip())
    return x


def _g(x):
    return "%.17g" % x


def _list(item):
    return lambda text: tuple(item(v) for v in text.split())


def _join(fmt, sep=" "):
    return lambda values: sep.join(fmt(v) for v in values)


def _parse_points(text):
    return tuple(_list(_finite)(c) for c in text.split(";") if c.strip())


def _flag(value):
    return str(value).lower()


# key -> (target record, field, parser, formatter), in `mskit info` line
# order; the targets are the scenario spec, its energy params and step
# config, and the RunConfig itself
CONFIG_KEYS = {
    "scenario.kind": ("scenario", "kind", str.strip, str),
    "scenario.name": ("scenario", "name", str.strip, str),
    "scenario.dims": ("scenario", "dims", _list(int), _join(str)),
    "scenario.lengths": ("scenario", "lengths", _list(_finite), _join(_g)),
    "scenario.n_steps": ("scenario", "n_steps", int, str),
    "energy.c0": ("params", "c0", _finite, _g),
    "energy.alpha": ("params", "alpha", _finite, _g),
    "step.h": ("step", "h", _finite, _g),
    "step.pd_max_iters": ("step", "pd_max_iters", int, str),
    "step.pd_tol": ("step", "pd_tol", _finite, _g),
    "step.interpolant_samples": ("step", "interpolant_samples", int, str),
    "scenario.centers": (
        "scenario", "centers", _parse_points, _join(_join(_g), " ; "),
    ),
    "scenario.radii": ("scenario", "radii", _list(_finite), _join(_g)),
    "scenario.angle": ("scenario", "angle", _finite, _g),
    "scenario.x_cut": ("scenario", "x_cut", _finite, _g),
    "scenario.seed": ("scenario", "seed", int, str),
    "scenario.blob_count": ("scenario", "blob_count", int, str),
    "scenario.blob_radius_range": (
        "scenario", "blob_radius_range", _list(_finite), _join(_g),
    ),
    "diagnostics.ledger": ("run", "ledger", _parse_bool, _flag),
    "diagnostics.snapshots": ("run", "snapshots", _parse_bool, _flag),
    "output.dir": ("run", "out_dir", str.strip, str),
    "run.stride": ("run", "stride", int, str),
}


def parse_config_text(text):
    """Key-value map from the flat dotted grammar; errors carry line numbers."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected key = value" % lineno)
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError("line %d: unknown key %r" % (lineno, key))
        if key in values:
            raise ConfigError("line %d: duplicate key %r" % (lineno, key))
        try:
            values[key] = CONFIG_KEYS[key][2](val)
        except ValueError as exc:
            raise ConfigError(
                "line %d: bad value for %s: %s" % (lineno, key, exc)
            )
    return values


def config_from_values(values):
    """RunConfig from parsed values over the shipped spec of the chosen kind."""
    groups = {"scenario": {}, "params": {}, "step": {}, "run": {}}
    for key, value in values.items():
        target, name = CONFIG_KEYS[key][:2]
        groups[target][name] = value
    scenario = groups["scenario"]
    kind = scenario.get("kind", "ball")
    if kind not in KINDS:
        raise ConfigError("unknown scenario kind: %r" % kind)
    base = {s.kind: s for s in default_scenarios()}[kind]
    if kind == "boundary_cap":
        # the cap's interior angle at the wall defaults to the energy's
        # alpha; the coded energy is at equilibrium at pi - alpha instead
        scenario.setdefault("angle", groups["params"].get("alpha", base.params.alpha))
    try:
        params = replace(base.params, **groups["params"])
        step = replace(base.step, **groups["step"])
        spec = replace(base, params=params, step=step, **scenario)
    except ValueError as exc:
        raise ConfigError(str(exc))
    return RunConfig(spec, **groups["run"])


def load_config(path):
    with open(path, "r") as fh:
        return config_from_values(parse_config_text(fh.read()))


def echo_config(cfg):
    """Canonical text form of a RunConfig, parseable by load_config.

    Geometry keys the scenario's kind does not read are left out, the
    rule `ScenarioSpec` enforces, and so are keys whose value is unset
    (None) or empty, such as a cap's absent centre.
    """
    spec = cfg.scenario
    records = dict(scenario=spec, params=spec.params, step=spec.step, run=cfg)
    unread = _GEOMETRY.difference(_READS[spec.kind])
    lines = []
    for key, (target, name, _parse, fmt) in CONFIG_KEYS.items():
        value = getattr(records[target], name)
        if value is None or value == () or name in unread:
            continue
        lines.append("%s = %s" % (key, fmt(value)))
    return "\n".join(lines) + "\n"


def dump_field(f, path):
    grid = f.domain
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        header = np.array([VERSION, grid.d] + list(grid.dims), dtype="<u4")
        fh.write(header.tobytes())
        fh.write(np.asarray(grid.lengths, dtype="<f8").tobytes())
        fh.write(np.asarray(f.values, dtype="<f8").ravel(order="F").tobytes())


def write_ledger(ledger, path):
    if not ledger.records:
        raise ValueError("refusing to write an empty ledger")
    lines = [LEDGER_HEADER]
    for r in ledger.records:
        values = (getattr(r, f.name) for f in fields(StepRecord))
        lines.append(",".join(
            "%.17g" % v if isinstance(v, float) else "%d" % v for v in values
        ))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_ledger(path):
    with open(path, "r") as fh:
        lines = [(i, ln) for i, ln in enumerate(fh.read().splitlines(), 1) if ln]
    if not lines or lines[0][1] != LEDGER_HEADER:
        raise ValueError("not a ledger CSV (header mismatch)")
    if len(lines) == 1:
        raise ValueError("ledger CSV has a header but no rows")
    columns = fields(StepRecord)
    records = []
    for lineno, ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(columns):
            raise ValueError("ledger CSV line %d: expected %d fields, found %d"
                             % (lineno, len(columns), len(parts)))
        row = {}
        for f, v in zip(columns, parts):
            try:
                row[f.name] = (_finite if f.type is float else f.type)(v)
            except ValueError as exc:
                raise ValueError("ledger CSV line %d: column %s: %s"
                                 % (lineno, f.name.rstrip("_"), exc)) from None
        records.append(StepRecord(**row))
    return Ledger(records=tuple(records))


def render_snapshot(obj, path):
    """Write a P5 graymap of a phase field (its mid-plane in 3d)."""
    grid = obj.domain
    vals = obj.values
    if grid.d == 3:
        vals = vals[:, :, grid.dims[2] // 2]
    img = np.round(np.clip(vals, 0.0, 1.0) * 255.0).astype(np.uint8)
    # image rows scan y downward, columns scan x rightward
    img = img.T[::-1, :]
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (w, h))
        fh.write(img.tobytes())
