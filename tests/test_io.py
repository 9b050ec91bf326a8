"""Config grammar, field persistence, ledger CSV, rasters, and the CLI."""

import numpy as np
import pytest

from mskit.checks import CHECKS, LEDGER_CSV, Check
from mskit.cli import main
from mskit.diagnostics import Ledger, StepRecord
from mskit.energy import PhaseField, interface_measure
from mskit.fields import ScalarField, make_grid
from mskit.io import (
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
from mskit.scenarios import KINDS


# ledger bodies after the header that read_ledger rejects, with the message
MALFORMED_LEDGERS = [
    pytest.param("", "no rows", id="header_only"),
    pytest.param("0,0,1,0,1\n", "line 2: expected 12 fields, found 5",
                 id="short_row"),
    pytest.param("0,0,0.8,0.2,1,0,0,0.1,0,0,0,x\n",
                 "line 2: column mass: could not convert string to float: 'x'",
                 id="non_numeric"),
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
        cfg = config_from_values(parse_config_text(text))
        from mskit.scenarios import make_initial

        with pytest.raises(ValueError, match="out of bounds"):
            make_initial(cfg.scenario)

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
        grid = make_grid(2, (17, 9), (1.0, 0.5))
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
        grid = make_grid(3, (10, 9, 8), (1.0, 1.0, 2.0))
        f = ScalarField(grid, np.arange(720, dtype=float).reshape(grid.shape))
        path = str(tmp_path / "f3.msfld")
        dump_field(f, path)
        version, dims, lengths, values = decode_field(path)
        assert (version, dims, lengths) == (1, grid.dims, grid.lengths)
        assert np.array_equal(values, f.values)


class TestLedgerCSV:
    def test_header_exact(self, tmp_path):
        path = str(tmp_path / "l.csv")
        write_ledger(Ledger(records=(simple_record(),), E0=1.0), path)
        lines = open(path).read().splitlines()
        assert lines[0] == LEDGER_HEADER
        assert len(lines) == 2

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            write_ledger(Ledger(records=(), E0=0.0), str(tmp_path / "e.csv"))

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
        write_ledger(Ledger(records=(r0, r1), E0=r0.E_total), path)
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
        grid = make_grid(2, (16, 16), (1.0, 1.0))
        chi = PhaseField(grid, np.zeros(grid.shape))
        path = str(tmp_path / "z.pgm")
        render_snapshot(chi, path)
        data = open(path, "rb").read()
        assert data.startswith(b"P5\n16 16\n255\n")
        assert set(data[len(b"P5\n16 16\n255\n"):]) == {0}

    def test_stripe_levels(self, tmp_path):
        grid = make_grid(2, (16, 16), (1.0, 1.0))
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

    def test_slice_rendered_normalized(self, tmp_path):
        grid = make_grid(2, (32, 32), (1.0, 1.0))
        xs, ys = grid.meshes()
        disk = ((xs - 0.5) ** 2 + (ys - 0.5) ** 2 <= 0.25 ** 2).astype(float)
        slc = interface_measure(PhaseField(grid, disk), 4.0 / 32)
        path = str(tmp_path / "d.pgm")
        render_snapshot(slc, path)
        data = open(path, "rb").read()
        body = data[data.index(b"255\n") + 4:]
        assert max(body) == 255

    def test_3d_mid_plane(self, tmp_path):
        grid = make_grid(3, (8, 8, 8), (1.0, 1.0, 1.0))
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

