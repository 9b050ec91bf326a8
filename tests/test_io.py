"""Config grammar, field persistence, ledger CSV, rasters, and the CLI."""

from dataclasses import replace

import numpy as np
import pytest

from mskit.checks import (
    CHECKS,
    LEDGER_CSV,
    Check,
    _classical_verdicts,
    _run,
    _shipped,
)
from mskit.cli import main
from mskit.diagnostics import Ledger, StepRecord
from mskit.energy import (
    PhaseField,
    compatibility_check,
    interface_measure,
    mollification_width,
)
from mskit.fields import ScalarField, make_grid
from mskit.io import (
    CONFIG_KEYS,
    ConfigError,
    LEDGER_HEADER,
    config_from_values,
    dump_field,
    echo_config,
    load_config,
    parse_config_text,
    read_ledger,
    render_snapshot,
    write_ledger,
)
from mskit.scenarios import KINDS, make_initial


# configs whose geometry does not fit, with the message `info` and `run`
# both print
UNFIT_CONFIGS = [
    pytest.param("scenario.kind = ball\nscenario.radii = 0.6\n",
                 "shape out of bounds: ball", id="ball_radius"),
    pytest.param("scenario.kind = two_balls\nscenario.centers = 0.3 0.5 ; 0.4 0.5\n",
                 "shape out of bounds: balls overlap", id="two_balls_overlap"),
    pytest.param("scenario.kind = stripe\nscenario.x_cut = 0.999\n",
                 "shape out of bounds: stripe cut", id="stripe_cut"),
    pytest.param("scenario.dims = 4 4\n",
                 "axis 0 has 4 cells, need at least 8", id="dims"),
    pytest.param("scenario.lengths = 1 -1\n",
                 "axis 1 has non-positive extent -1.0", id="lengths"),
]

# every float key, with a value template whose one number is non-finite
FLOAT_KEYS = {
    "scenario.lengths": "1 {}",
    "energy.c0": "{}",
    "energy.alpha": "{}",
    "step.h": "{}",
    "step.pd_tol": "{}",
    "scenario.centers": "0.5 0.5 ; {} 0.5",
    "scenario.radii": "{}",
    "scenario.angle": "{}",
    "scenario.x_cut": "{}",
    "scenario.blob_radius_range": "0.05 {}",
}
NON_FINITE = ("nan", "inf", "-inf")

# a well-formed ledger row, and the names of its float columns (all but n)
GOOD_ROW = "0,0,0.8,0.2,1,0,0,0.1,0,0,0,0.2"
FLOAT_COLUMNS = LEDGER_HEADER.split(",")[1:]

# ledger bodies after the header that read_ledger rejects, with the message
MALFORMED_LEDGERS = [
    pytest.param("", "no rows", id="header_only"),
    pytest.param("0,0,1,0,1\n", "line 2: expected 12 fields, found 5",
                 id="short_row"),
    pytest.param("0,0,0.8,0.2,1,0,0,0.1,0,0,0,x\n",
                 "line 2: column mass: could not convert string to float: 'x'",
                 id="non_numeric"),
] + [
    # one non-finite cell per float column, cycling nan, inf and -inf
    pytest.param(
        GOOD_ROW + "\n" + ",".join(
            bad if i == k + 1 else cell
            for i, cell in enumerate(GOOD_ROW.split(","))) + "\n",
        "line 3: column %s: not a finite number: '%s'" % (name, bad),
        id="non_finite_%s" % name)
    for k, (name, bad) in enumerate(zip(FLOAT_COLUMNS, NON_FINITE * 4))
]


def simple_record(n=0, t=0.0, E=1.0, mass=0.2):
    return StepRecord(
        n=n, t=t, E_bulk=E * 0.8, E_boundary=E * 0.2, E_total=E,
        vel_sq=0.0, slope_sq=0.0, lambda_=0.1, gt_residual=1e-3,
        relaxation_gap=1e-7, dissipation_margin=0.0, mass=mass,
    )


class TestConfigGrammar:
    def test_minimal_fills_defaults(self):
        cfg = config_from_values(parse_config_text("scenario.kind = ball\n"))
        assert cfg.scenario.kind == "ball"
        assert cfg.scenario.dims == (128, 128)
        assert cfg.scenario.radii == (0.25,)
        assert cfg.stride == 1

    def test_comments_and_blanks(self):
        text = "# a comment\n\nscenario.kind = stripe  # trailing\n"
        vals = parse_config_text(text)
        assert vals == {"scenario.kind": "stripe"}

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="alhpa"):
            parse_config_text("energy.alhpa = 1.0\n")

    def test_line_number_in_error(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config_text("scenario.kind = ball\n\nbogus.key = 1\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("scenario.kind ball\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("energy.c0 = 1\nenergy.c0 = 2\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("step.h = fast\n")

    def test_float_keys_listed(self):
        # FLOAT_KEYS names exactly the keys that parse 1.5 into floats
        parsed = {}
        for key in CONFIG_KEYS:
            try:
                parsed[key] = parse_config_text("%s = 1.5\n" % key)[key]
            except ConfigError:
                continue
        floats = {k for k, v in parsed.items() if not isinstance(v, str)}
        assert floats == set(FLOAT_KEYS)

    def test_alpha_range_enforced(self):
        with pytest.raises(ConfigError, match="alpha"):
            config_from_values(parse_config_text("energy.alpha = 2.0\n"))
        with pytest.raises(ConfigError, match="alpha"):
            config_from_values(parse_config_text("energy.alpha = 0.0\n"))

    def test_overrides(self):
        text = (
            "scenario.kind = two_balls\n"
            "scenario.dims = 48 48\n"
            "scenario.centers = 0.30 0.50 ; 0.72 0.50\n"
            "scenario.radii = 0.18 0.10\n"
            "scenario.n_steps = 2\n"
            "step.h = 5e-4\n"
            "step.interpolant_samples = 4\n"
        )
        cfg = config_from_values(parse_config_text(text))
        spec = cfg.scenario
        assert spec.dims == (48, 48)
        assert spec.centers == ((0.30, 0.50), (0.72, 0.50))
        assert spec.step.h == 5e-4
        assert spec.step.interpolant_samples == 4

    def test_geometry_validation_surfaces(self):
        text = "scenario.kind = ball\nscenario.radii = 0.8\n"
        with pytest.raises(ConfigError, match="out of bounds"):
            config_from_values(parse_config_text(text))

    def test_stride_validated(self):
        with pytest.raises(ConfigError, match="stride"):
            config_from_values(parse_config_text("run.stride = 0\n"))

    @pytest.mark.parametrize("kind", KINDS)
    def test_echo_round_trip(self, kind):
        cfg = config_from_values(parse_config_text("scenario.kind = %s\n" % kind))
        again = config_from_values(parse_config_text(echo_config(cfg)))
        assert again == cfg

    def test_echo_golden_random_blobs(self):
        # the one shipped kind with a seed, so the blob_* keys appear
        cfg = config_from_values(parse_config_text("scenario.kind = random_blobs\n"))
        assert echo_config(cfg) == (
            "scenario.kind = random_blobs\n"
            "scenario.name = random_blobs\n"
            "scenario.dims = 128 128\n"
            "scenario.lengths = 1 1\n"
            "scenario.n_steps = 3\n"
            "energy.c0 = 1\n"
            "energy.alpha = 1.5707963267948966\n"
            "step.h = 9.9999999999999995e-08\n"
            "step.pd_max_iters = 40000\n"
            "step.pd_tol = 1.0000000000000001e-05\n"
            "step.interpolant_samples = 0\n"
            "scenario.seed = 2026\n"
            "scenario.blob_count = 4\n"
            "scenario.blob_radius_range = 0.080000000000000002 0.12\n"
            "diagnostics.ledger = true\n"
            "diagnostics.snapshots = true\n"
            "output.dir = out\n"
            "run.stride = 1\n"
        )

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("scenario.kind = stripe\nscenario.n_steps = 1\n")
        cfg = load_config(str(path))
        assert cfg.scenario.kind == "stripe"
        assert cfg.scenario.n_steps == 1


def decode_field(path):
    """(version, dims, lengths, values) of a .msfld file, read with numpy.

    The layout is the magic b"MSFLD1", little-endian uint32 version, d and
    the d dims, d float64 lengths, then the float64 values in Fortran order.
    """
    data = open(path, "rb").read()
    assert data[:6] == b"MSFLD1"
    version, d = (int(v) for v in np.frombuffer(data, "<u4", 2, offset=6))
    dims = tuple(int(v) for v in np.frombuffer(data, "<u4", d, offset=14))
    lengths = tuple(
        float(v) for v in np.frombuffer(data, "<f8", d, offset=14 + 4 * d)
    )
    values = np.frombuffer(data, "<f8", offset=14 + 12 * d)
    assert values.size == np.prod(dims)
    return version, dims, lengths, values.reshape(dims, order="F")


class TestFieldDump:
    def test_round_trip_bits(self, tmp_path):
        grid = make_grid((17, 9), (1.0, 0.5))
        rng = np.random.default_rng(3)
        f = ScalarField(grid, rng.standard_normal(grid.shape))
        path = str(tmp_path / "f.msfld")
        dump_field(f, path)
        version, dims, lengths, values = decode_field(path)
        assert version == 1
        assert dims == grid.dims
        assert lengths == grid.lengths
        assert np.array_equal(values, f.values)

    def test_round_trip_3d(self, tmp_path):
        grid = make_grid((10, 9, 8), (1.0, 1.0, 2.0))
        f = ScalarField(grid, np.arange(720, dtype=float).reshape(grid.shape))
        path = str(tmp_path / "f3.msfld")
        dump_field(f, path)
        version, dims, lengths, values = decode_field(path)
        assert (version, dims, lengths) == (1, grid.dims, grid.lengths)
        assert np.array_equal(values, f.values)


class TestLedgerCSV:
    def test_header_exact(self, tmp_path):
        path = str(tmp_path / "l.csv")
        write_ledger(Ledger(records=(simple_record(),)), path)
        lines = open(path).read().splitlines()
        assert lines[0] == LEDGER_HEADER
        assert len(lines) == 2

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            write_ledger(Ledger(records=()), str(tmp_path / "e.csv"))

    def test_numeric_round_trip(self, tmp_path):
        r0 = simple_record()
        r1 = StepRecord(
            n=1, t=1e-4, E_bulk=0.7123456789012345, E_boundary=0.1,
            E_total=0.8123456789012345, vel_sq=3.3333333333333331e2,
            slope_sq=1.234e-9, lambda_=3.915, gt_residual=8.2e-3,
            relaxation_gap=4.4e-8, dissipation_margin=1.66e-2,
            mass=0.19634954084936207,
        )
        path = str(tmp_path / "r.csv")
        write_ledger(Ledger(records=(r0, r1)), path)
        back = read_ledger(path)
        for orig, rt in zip((r0, r1), back.records):
            for name in StepRecord.__dataclass_fields__:
                assert getattr(orig, name) == getattr(rt, name), name

    def test_header_mismatch_on_read(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_ledger(str(path))

    @pytest.mark.parametrize("body, message", MALFORMED_LEDGERS)
    def test_malformed_rejected(self, tmp_path, body, message):
        path = tmp_path / "bad.csv"
        path.write_text(LEDGER_HEADER + "\n" + body)
        with pytest.raises(ValueError, match=message):
            read_ledger(str(path))


class TestRender:
    def test_zero_field_black(self, tmp_path):
        grid = make_grid((16, 16), (1.0, 1.0))
        chi = PhaseField(grid, np.zeros(grid.shape))
        path = str(tmp_path / "z.pgm")
        render_snapshot(chi, path)
        data = open(path, "rb").read()
        assert data.startswith(b"P5\n16 16\n255\n")
        assert set(data[len(b"P5\n16 16\n255\n"):]) == {0}

    def test_stripe_levels(self, tmp_path):
        grid = make_grid((16, 16), (1.0, 1.0))
        xs, _ = grid.meshes()
        chi = PhaseField(grid, (xs < 0.5).astype(float))
        path = str(tmp_path / "s.pgm")
        render_snapshot(chi, path)
        data = open(path, "rb").read()
        body = data[len(b"P5\n16 16\n255\n"):]
        counts = {v: 0 for v in set(body)}
        for v in body:
            counts[v] += 1
        assert counts == {0: 128, 255: 128}

    def test_3d_mid_plane(self, tmp_path):
        grid = make_grid((8, 8, 8), (1.0, 1.0, 1.0))
        f = PhaseField(grid, np.ones(grid.shape))
        path = str(tmp_path / "p.pgm")
        render_snapshot(f, path)
        assert open(path, "rb").read().startswith(b"P5\n8 8\n255\n")


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    cfgdir = tmp_path_factory.mktemp("cli")
    cfg = cfgdir / "ball.cfg"
    cfg.write_text(
        "scenario.kind = ball\n"
        "scenario.dims = 32 32\n"
        "scenario.n_steps = 1\n"
        "step.interpolant_samples = 0\n"
    )
    out = cfgdir / "out"
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    return code, cfg, out


# checks that fail today, by name, with what they measure
KNOWN_DEFECTS = {
    "flows.quotient_monotone": (
        "r(s) rises as s shrinks (0.0135, 0.0150, 0.0177, 0.0258)"
    ),
    "compat.gt_contraction": (
        "the Gibbs-Thomson residual goes from 1.170e-2 to 9.319e-3 under "
        "refinement, a ratio of 1.26 against the 1.3 floor"
    ),
}


class TestCLI:
    def test_run_succeeds(self, run_dir):
        code, _, out = run_dir
        assert code == 0
        for name in ("ledger.csv", "initial.msfld", "final.msfld",
                     "initial.pgm", "final.pgm"):
            assert (out / name).exists(), name

    def test_run_ledger_readable(self, run_dir):
        _, _, out = run_dir
        ledger = read_ledger(str(out / "ledger.csv"))
        assert len(ledger.records) == 2
        assert ledger.records[0].n == 0

    def test_repeat_run_byte_identical(self, run_dir, tmp_path):
        _, cfg, out = run_dir
        out2 = tmp_path / "out2"
        code = main(["run", "--config", str(cfg), "--out", str(out2)])
        assert code == 0
        a = open(out / "ledger.csv", "rb").read()
        b = open(out2 / "ledger.csv", "rb").read()
        assert a == b

    def test_info_echoes(self, run_dir, capsys):
        _, cfg, _ = run_dir
        assert main(["info", "--config", str(cfg)]) == 0
        text = capsys.readouterr().out
        assert "scenario.kind = ball" in text
        assert "scenario.dims = 32 32" in text

    def test_report(self, run_dir, capsys):
        _, _, out = run_dir
        assert main(["report", str(out / "ledger.csv")]) == 0
        text = capsys.readouterr().out
        assert "worst margin" in text

    @pytest.mark.parametrize("body, message", MALFORMED_LEDGERS)
    def test_report_malformed_ledger_exit_code(self, tmp_path, capsys, body, message):
        path = tmp_path / "bad.csv"
        path.write_text(LEDGER_HEADER + "\n" + body)
        assert main(["report", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_bad_config_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("scenario.kine = ball\n")
        assert main(["info", "--config", str(bad)]) == 2
        assert "scenario.kine" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_config_exit_code(self, tmp_path, capsys, key, bad):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("scenario.kind = ball\n%s = %s\n"
                       % (key, FLOAT_KEYS[key].format(bad)))
        assert main(["info", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "error: line 2: bad value for %s: not a finite number: '%s'\n"
            % (key, bad))

    def test_center_arity_exit_code(self, tmp_path, capsys):
        # the shipped two-coordinate ball centre on a 3-D grid is refused
        bad = tmp_path / "ball3d.cfg"
        bad.write_text("scenario.kind = ball\nscenario.dims = 16 16 16\n"
                       "scenario.lengths = 1 1 1\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "error: ball centers need 3 coordinates" in capsys.readouterr().err

    def test_unread_key_exit_code(self, tmp_path, capsys):
        # a stripe's cut set on a ball is refused, not silently ignored
        bad = tmp_path / "ball.cfg"
        bad.write_text("scenario.kind = ball\nscenario.x_cut = 0.4\n")
        assert main(["info", "--config", str(bad)]) == 2
        assert "ball does not read x_cut" in capsys.readouterr().err

    def test_cap_angle_exit_code(self, tmp_path, capsys):
        # the spec refuses the angle, so `info` fails as `run` does
        bad = tmp_path / "cap.cfg"
        bad.write_text("scenario.kind = boundary_cap\nscenario.angle = 2.0\n")
        assert main(["info", "--config", str(bad)]) == 2
        assert "error: cap angle outside (0, pi/2]" in capsys.readouterr().err

    @pytest.mark.parametrize("body, message", UNFIT_CONFIGS)
    def test_unfit_geometry_exit_code(self, tmp_path, capsys, body, message):
        # the spec refuses a shape that does not fit its grid, so `info`
        # fails as `run` does, with the same message
        bad = tmp_path / "unfit.cfg"
        bad.write_text(body)
        assert main(["info", "--config", str(bad)]) == 2
        assert capsys.readouterr().err == "error: %s\n" % message
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: %s\n" % message

    @pytest.mark.parametrize("suite", sorted(CHECKS))
    def test_check_suite_passes(self, suite_records, suite):
        records = suite_records[0][suite]
        assert records
        for c in records:
            assert c.name.startswith(suite + "."), c.name
        failed = [
            "%s: %s" % (c.name, c.detail)
            for c in records
            if not c.ok and c.name not in KNOWN_DEFECTS
        ]
        assert not failed

    def test_known_defects_are_checks(self, check_records, suite_records):
        assert set(KNOWN_DEFECTS) <= set(check_records)
        assert len(check_records) == sum(map(len, suite_records[0].values()))

    @pytest.mark.parametrize("name", [
        pytest.param(name, marks=pytest.mark.xfail(
            strict=True, raises=AssertionError, reason="known defect: " + why,
        ))
        for name, why in KNOWN_DEFECTS.items()
    ])
    def test_known_defect(self, check_records, name):
        assert check_records[name].ok, check_records[name].detail

    def test_consistency_names(self, suite_records):
        assert [c.name for c in suite_records[0]["consistency"]] == [
            "consistency.ball.mass",
            "consistency.ball.margin",
            "consistency.ball.stationary",
            "consistency.stripe.mass",
            "consistency.stripe.margin",
            "consistency.stripe.planar",
            "consistency.two_balls.mass",
            "consistency.two_balls.margin",
            "consistency.two_balls.ostwald",
        ]

    def test_ledger_csv_written(self, suite_records):
        ledger = read_ledger(str(suite_records[1] / LEDGER_CSV))
        assert [r.n for r in ledger.records] == [0, 1, 2]

    @pytest.mark.parametrize("suite, records, expected, code", [
        ("flows", [Check("flows.a", True, "x 1"), Check("flows.b", False)],
         "PASS flows.a: x 1\nFAIL flows.b\nsuite flows: 1 failure(s)\n", 1),
        ("poisson", [Check("poisson.a", True)],
         "PASS poisson.a\nsuite poisson: ok\n", 0),
        ("ledger", [Check("ledger.a", False, "y"), Check("ledger.b", False)],
         "FAIL ledger.a: y\nFAIL ledger.b\nwrote {out}/ledger_two_balls.csv\n"
         "suite ledger: 2 failure(s)\n", 1),
    ])
    def test_check_prints_records(self, monkeypatch, capsys, tmp_path,
                                  suite, records, expected, code):
        monkeypatch.setitem(CHECKS, suite, lambda out_dir: records)
        out = str(tmp_path / "o")
        assert main(["check", suite, "--out", out]) == code
        assert capsys.readouterr().out == expected.format(out=out)

    def test_stride_thins_ledger(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(
            "scenario.kind = ball\n"
            "scenario.dims = 32 32\n"
            "scenario.n_steps = 4\n"
            "step.interpolant_samples = 0\n"
        )
        out = tmp_path / "so"
        code = main([
            "run", "--config", str(cfg), "--out", str(out), "--stride", "2",
        ])
        assert code == 0
        ledger = read_ledger(str(out / "ledger.csv"))
        ns = [r.n for r in ledger.records]
        assert ns == [0, 2, 4]


# `ledger_two_balls.csv` as `mskit check ledger` writes it, every cell
LEDGER_TWO_BALLS = """\
0,0,2.0547378541243648,0,2.0547378541243648,0,0,5.8503694555300978,0.052001320535064517,0,0,0.13324652777777776
1,0.00050000000000000001,1.4958122890254859,0,1.4958122890254859,1805.4398053752539,225.67997567190673,12.778383992861309,0.50119657876947432,0.99832835995476776,0.051145619837088763,0.13324652777777776
2,0.001,1.4958122890254859,0,1.4958122890254859,0,0,4.4901965777809512,0.030076474566723608,0.50540180331370843,0.051145619837088763,0.13324652777777776
"""


class TestSuitePins:
    """The audit numbers the suites print, pinned at rel 1e-12."""

    @pytest.mark.parametrize("name, residuals", [
        ("ball", (1.3398239385823008e-3, 1.3378501113719943e-3)),
        ("stripe", (6.063242027463776e-4, 6.072178291695698e-4)),
    ])
    def test_compat_identity_residuals(self, name, residuals):
        spec = _shipped(64)[name]
        chi = make_initial(spec)
        slc = interface_measure(chi, mollification_width(chi.domain))
        rep = compatibility_check(chi, slc, spec.params)
        got = (rep.comp_identity_residual, rep.wall_identity_residual)
        assert got == pytest.approx(residuals, rel=1e-12)

    def test_gt_contraction_residuals(self):
        got = [_run(replace(_shipped(n)["ball"], n_steps=0))[1].records[0].gt_residual
               for n in (48, 96)]
        assert got == pytest.approx([1.1704923842067852e-2, 9.318696652887974e-3],
                                    rel=1e-12)

    def test_ledger_two_balls_cells(self, suite_records):
        lines = open(suite_records[1] / LEDGER_CSV).read().splitlines()
        assert lines[0] == LEDGER_HEADER
        rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
        expect = [[float(v) for v in ln.split(",")]
                  for ln in LEDGER_TWO_BALLS.splitlines()]
        assert len(rows) == len(expect)
        for row, ref in zip(rows, expect):
            assert row == pytest.approx(ref, rel=1e-12)

    def test_classical_verdicts_need_a_rule(self):
        cap = _shipped(32)["boundary_cap"]
        with pytest.raises(ValueError, match="no classical rule for kind "
                                             "'boundary_cap'"):
            _classical_verdicts(cap, [make_initial(cap)])
