"""Run configuration, field persistence, ledger CSV, and raster output.

The config grammar is flat `section.key = value` lines; unknown keys are
hard errors so typos cannot silently fall back to defaults. Fields dump
to a small self-describing binary format (magic, version, dims, lengths,
payload) that round-trips bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from .diagnostics import Ledger, StepRecord
from .energy import EnergyParams
from .fields import ScalarField, make_grid
from .minmov import StepConfig
from .scenarios import KINDS, ScenarioSpec, default_scenarios

MAGIC = b"MSFLD1"
VERSION = 1

LEDGER_HEADER = (
    "n,t,E_bulk,E_boundary,E_total,vel_sq,slope_sq,lambda,"
    "gt_residual,relaxation_gap,dissipation_margin,mass"
)

# every key the grammar accepts, with its parser
_FLOAT_LIST = "float_list"
_POINT_LIST = "point_list"
KNOWN_KEYS = {
    "scenario.kind": str,
    "scenario.name": str,
    "scenario.dims": "int_list",
    "scenario.lengths": _FLOAT_LIST,
    "scenario.centers": _POINT_LIST,
    "scenario.radii": _FLOAT_LIST,
    "scenario.angle": float,
    "scenario.x_cut": float,
    "scenario.seed": int,
    "scenario.blob_count": int,
    "scenario.blob_radius_range": _FLOAT_LIST,
    "scenario.n_steps": int,
    "energy.c0": float,
    "energy.alpha": float,
    "step.h": float,
    "step.pd_max_iters": int,
    "step.pd_tol": float,
    "step.interpolant_samples": int,
    "diagnostics.ledger": "bool",
    "diagnostics.snapshots": "bool",
    "output.dir": str,
    "run.stride": int,
}


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


def _parse_value(key, text, lineno):
    kind = KNOWN_KEYS[key]
    try:
        if kind is str:
            return text.strip()
        if kind is int:
            return int(text)
        if kind is float:
            return float(text)
        if kind == "bool":
            return _parse_bool(text)
        if kind == "int_list":
            return tuple(int(v) for v in text.split())
        if kind == _FLOAT_LIST:
            return tuple(float(v) for v in text.split())
        if kind == _POINT_LIST:
            pts = []
            for chunk in text.split(";"):
                chunk = chunk.strip()
                if chunk:
                    pts.append(tuple(float(v) for v in chunk.split()))
            return tuple(pts)
    except ValueError as exc:
        raise ConfigError("line %d: bad value for %s: %s" % (lineno, key, exc))
    raise AssertionError("unhandled kind %r" % kind)


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
        if key not in KNOWN_KEYS:
            raise ConfigError("line %d: unknown key %r" % (lineno, key))
        if key in values:
            raise ConfigError("line %d: duplicate key %r" % (lineno, key))
        values[key] = _parse_value(key, val, lineno)
    return values


def _build_scenario(values):
    kind = values.get("scenario.kind", "ball")
    if kind not in KINDS:
        raise ConfigError("unknown scenario kind: %r" % kind)
    base = {s.kind: s for s in default_scenarios()}[kind]

    alpha = values.get("energy.alpha", base.params.alpha)
    if not (0.0 < alpha <= np.pi / 2):
        raise ConfigError(
            "energy.alpha must lie in (0, pi/2], got %g" % alpha
        )
    params = EnergyParams(values.get("energy.c0", base.params.c0), alpha)

    step = StepConfig(
        h=values.get("step.h", base.step.h),
        pd_max_iters=values.get("step.pd_max_iters", base.step.pd_max_iters),
        pd_tol=values.get("step.pd_tol", base.step.pd_tol),
        interpolant_samples=values.get(
            "step.interpolant_samples", base.step.interpolant_samples
        ),
    )

    fields = dict(
        name=values.get("scenario.name", base.name),
        kind=kind,
        dims=values.get("scenario.dims", base.dims),
        lengths=values.get("scenario.lengths", base.lengths),
        params=params,
        step=step,
        n_steps=values.get("scenario.n_steps", base.n_steps),
        centers=values.get("scenario.centers", base.centers),
        radii=values.get("scenario.radii", base.radii),
        x_cut=values.get("scenario.x_cut", base.x_cut),
        seed=values.get("scenario.seed", base.seed),
        blob_count=values.get("scenario.blob_count", base.blob_count),
        blob_radius_range=values.get(
            "scenario.blob_radius_range", base.blob_radius_range
        ),
    )
    angle = values.get("scenario.angle", base.angle)
    if kind == "boundary_cap":
        # the wall angle is the energy's angle unless explicitly split
        fields["angle"] = angle if "scenario.angle" in values else alpha
    else:
        fields["angle"] = angle
    try:
        return ScenarioSpec(**fields)
    except ValueError as exc:
        raise ConfigError(str(exc))


def config_from_values(values):
    spec = _build_scenario(values)
    return RunConfig(
        scenario=spec,
        ledger=values.get("diagnostics.ledger", True),
        snapshots=values.get("diagnostics.snapshots", True),
        out_dir=values.get("output.dir", "out"),
        stride=values.get("run.stride", 1),
    )


def load_config(path):
    with open(path, "r") as fh:
        text = fh.read()
    return config_from_values(parse_config_text(text))


def echo_config(cfg):
    """Canonical text form of a RunConfig, parseable by load_config."""
    spec = cfg.scenario
    lines = [
        "scenario.kind = %s" % spec.kind,
        "scenario.name = %s" % spec.name,
        "scenario.dims = %s" % " ".join(str(n) for n in spec.dims),
        "scenario.lengths = %s" % " ".join("%.17g" % L for L in spec.lengths),
        "scenario.n_steps = %d" % spec.n_steps,
        "energy.c0 = %.17g" % spec.params.c0,
        "energy.alpha = %.17g" % spec.params.alpha,
        "step.h = %.17g" % spec.step.h,
        "step.pd_max_iters = %d" % spec.step.pd_max_iters,
        "step.pd_tol = %.17g" % spec.step.pd_tol,
        "step.interpolant_samples = %d" % spec.step.interpolant_samples,
    ]
    if spec.centers:
        lines.append(
            "scenario.centers = %s"
            % " ; ".join(
                " ".join("%.17g" % c for c in pt) for pt in spec.centers
            )
        )
    if spec.radii:
        lines.append(
            "scenario.radii = %s" % " ".join("%.17g" % r for r in spec.radii)
        )
    if spec.angle is not None:
        lines.append("scenario.angle = %.17g" % spec.angle)
    if spec.x_cut is not None:
        lines.append("scenario.x_cut = %.17g" % spec.x_cut)
    if spec.seed is not None:
        lines.append("scenario.seed = %d" % spec.seed)
        lines.append("scenario.blob_count = %d" % spec.blob_count)
        lines.append(
            "scenario.blob_radius_range = %s"
            % " ".join("%.17g" % r for r in spec.blob_radius_range)
        )
    lines += [
        "diagnostics.ledger = %s" % str(cfg.ledger).lower(),
        "diagnostics.snapshots = %s" % str(cfg.snapshots).lower(),
        "output.dir = %s" % cfg.out_dir,
        "run.stride = %d" % cfg.stride,
    ]
    return "\n".join(lines) + "\n"


def dump_field(f, path):
    grid = f.domain
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        header = np.array([VERSION, grid.d] + list(grid.dims), dtype="<u4")
        fh.write(header.tobytes())
        fh.write(np.asarray(grid.lengths, dtype="<f8").tobytes())
        fh.write(np.asarray(f.values, dtype="<f8").ravel(order="F").tobytes())


def load_field(path, grid=None):
    with open(path, "rb") as fh:
        data = fh.read()
    if data[: len(MAGIC)] != MAGIC:
        raise ValueError("bad magic: not a field dump")
    off = len(MAGIC)

    def take(n):
        nonlocal off
        chunk = data[off : off + n]
        if len(chunk) < n:
            raise ValueError("truncated field dump")
        off += n
        return chunk

    version, d = np.frombuffer(take(8), dtype="<u4")
    if version != VERSION:
        raise ValueError("unsupported field dump version %d" % version)
    dims = tuple(int(v) for v in np.frombuffer(take(4 * d), dtype="<u4"))
    lengths = tuple(np.frombuffer(take(8 * d), dtype="<f8"))
    count = int(np.prod(dims))
    payload = np.frombuffer(take(8 * count), dtype="<f8")
    if off != len(data):
        raise ValueError("trailing bytes in field dump")
    values = payload.reshape(dims, order="F").copy()
    target = make_grid(int(d), dims, lengths)
    if grid is not None:
        if grid.dims != target.dims or grid.lengths != target.lengths:
            raise ValueError(
                "dimension mismatch: dump has dims=%r lengths=%r"
                % (target.dims, target.lengths)
            )
        target = grid
    return ScalarField(target, values)


def write_ledger(ledger, path):
    if not ledger.records:
        raise ValueError("refusing to write an empty ledger")
    lines = [LEDGER_HEADER]
    for r in ledger.records:
        lines.append(
            ",".join(
                "%.17g" % v if isinstance(v, float) else "%d" % v
                for v in (
                    r.n, r.t, r.E_bulk, r.E_boundary, r.E_total, r.vel_sq,
                    r.slope_sq, r.lambda_, r.gt_residual, r.relaxation_gap,
                    r.dissipation_margin, r.mass,
                )
            )
        )
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_ledger(path):
    with open(path, "r") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    if not lines or lines[0] != LEDGER_HEADER:
        raise ValueError("not a ledger CSV (header mismatch)")
    records = []
    for ln in lines[1:]:
        parts = ln.split(",")
        records.append(
            StepRecord(
                n=int(parts[0]),
                t=float(parts[1]),
                E_bulk=float(parts[2]),
                E_boundary=float(parts[3]),
                E_total=float(parts[4]),
                vel_sq=float(parts[5]),
                slope_sq=float(parts[6]),
                lambda_=float(parts[7]),
                gt_residual=float(parts[8]),
                relaxation_gap=float(parts[9]),
                dissipation_margin=float(parts[10]),
                mass=float(parts[11]),
            )
        )
    return Ledger(records=tuple(records), E0=records[0].E_total)


def render_snapshot(obj, path):
    """Write a P5 graymap of a phase field or an interface slice."""
    if hasattr(obj, "density"):
        grid = obj.domain
        vals = obj.density.values
        peak = float(vals.max())
        if peak > 0.0:
            vals = vals / peak
    else:
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
