"""CLI commands, artifact formats, metrics and the sweep driver."""

import csv
import json
import re

import numpy as np
import pytest

from elshape import sweep
from elshape.cli import main
from elshape.errors import SolveError
from elshape.forward import disk_series
from elshape.geometry import disk, kite, radial_curve
from elshape.metrics import arc_hausdorff, curve_hausdorff, hausdorff, radial_l2
from elshape.records import ScatterRecord
from elshape.svgout import overlay_svg
from elshape.sweep import parse_sweep_text, run_cell, run_sweep, write_sweep_csv

DISK_CFG = """
shape = disk
shape.radius = 1.0
lame.omega = 1.0
delta = 0.0
guess.radius = 2.0
truncation.mode = fixed
truncation.n = 15
max_iter = 15
n_sources = 6
n_receivers = 64
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One forward run shared by the reconstruct-side tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "disk.cfg"
    cfg.write_text(DISK_CFG)
    code = main(["forward", "--config", str(cfg), "--out-dir", str(root)])
    assert code == 0
    return root, cfg


class TestForwardCommand:
    def test_record_written(self, workspace):
        root, _ = workspace
        rec = ScatterRecord.load(root / "record.json")
        assert rec.n_sources == 6 and rec.n_receivers == 64

    def test_verify_oracle_flag(self, workspace, capsys):
        root, cfg = workspace
        code = main(["forward", "--config", str(cfg), "--out-dir", str(root),
                     "--verify-oracle"])
        assert code == 0
        out = capsys.readouterr().out
        assert "oracle check" in out
        # per-source reference: one single-source series per row of the record
        rec = ScatterRecord.load(root / "record.json")
        pts = rec.rho * np.stack([np.cos(rec.receivers), np.sin(rec.receivers)], axis=-1)
        gaps = []
        for i, src in enumerate(rec.sources):
            oracle = disk_series(1.0, src, rec.sys, 40).eval(pts)
            gaps.append(np.linalg.norm(rec.values[i] - oracle) / np.linalg.norm(oracle))
        # both gaps sit at round-off (~1e-14), so compare values, not digits:
        # 1e-3 relative covers the printed rounding, 1e-16 the round-off floor
        printed = float(re.search(r"max relative L2 discrepancy (\S+)", out).group(1))
        ref = max(gaps)
        assert abs(printed - ref) <= 1e-3 * ref + 1e-16

    def test_kite_benchmark_counts(self, tmp_path):
        cfg = tmp_path / "kite.cfg"
        # low MFS resolution keeps this a layout test, not an accuracy test
        cfg.write_text(
            "shape = kite\nmfs.n_collocation = 96\nmfs.n_charges = 48\n"
            "mfs.shrink = 0.8\nn_sources = 20\nn_receivers = 128\n"
        )
        assert main(["forward", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        rec = ScatterRecord.load(tmp_path / "record.json")
        assert rec.values.shape == (20, 128, 2)

    def test_invalid_aperture_is_validation_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("aperture.lo = 2.0\naperture.hi = 1.0\n")
        assert main(["forward", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2

    def test_unknown_key_is_validation_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("shape = disk\nrecievers = 12\n")
        assert main(["forward", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2


class TestReconstructCommand:
    def test_artifacts_written(self, workspace):
        root, cfg = workspace
        code = main([
            "reconstruct", "--config", str(cfg),
            "--record", str(root / "record.json"), "--out-dir", str(root),
        ])
        assert code == 0
        run = json.loads((root / "run.json").read_text())
        assert run["termination"] == "converged"
        final_a0 = run["coefficients"][-1][0]
        assert abs(final_a0 - 1.0) <= 0.005
        with open(root / "boundary.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "x", "y"]
        assert len(rows) == 513
        with open(root / "convergence.csv") as fh:
            conv = list(csv.reader(fh))
        assert conv[0] == ["iteration", "relative_update"]
        assert len(conv) == run["iterations"] + 1
        svg = (root / "overlay.svg").read_text()
        assert svg.startswith("<?xml") and "<svg" in svg

    def test_physics_mismatch_refused_with_diff(self, workspace, tmp_path, capsys):
        root, _ = workspace
        other = tmp_path / "other.cfg"
        other.write_text(DISK_CFG.replace("lame.omega = 1.0", "lame.omega = 2.0"))
        code = main([
            "reconstruct", "--config", str(other),
            "--record", str(root / "record.json"), "--out-dir", str(tmp_path),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "lame.omega" in err and "mismatch" in err

    def test_partial_aperture_flagged(self, tmp_path, capsys):
        cfg = tmp_path / "quarter.cfg"
        cfg.write_text(
            DISK_CFG + "aperture.lo = 2.356194490192345\n"
            "aperture.hi = 3.9269908169872414\n"
        )
        assert main(["forward", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        code = main([
            "reconstruct", "--config", str(cfg),
            "--record", str(tmp_path / "record.json"), "--out-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert "partial aperture" in out
        svg = (tmp_path / "overlay.svg").read_text()
        assert 'stroke="blue"' in svg

    def test_divergent_run_exits_numerical_failure(self, workspace, tmp_path):
        root, _ = workspace
        cfg = tmp_path / "tight.cfg"
        # expansion disk nearly touching the guess forces the backtrack
        # path into divergence
        cfg.write_text(DISK_CFG + "r_policy.mode = fixed\nr_policy.value = 1.9\n")
        code = main([
            "reconstruct", "--config", str(cfg),
            "--record", str(root / "record.json"), "--out-dir", str(tmp_path),
        ])
        assert code == 3

    def test_nan_record_is_validation_error(self, workspace, tmp_path, capsys):
        root, cfg = workspace
        doc = json.loads((root / "record.json").read_text())
        doc["values"][0][0][0] = float("nan")
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(doc))
        code = main([
            "reconstruct", "--config", str(cfg),
            "--record", str(bad), "--out-dir", str(tmp_path),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err

    @pytest.mark.parametrize("corrupt", [
        lambda doc: doc.pop("rho"),
        lambda doc: doc.update(rho="three"),
        lambda doc: doc["values"][0].pop(),
        lambda doc: doc["lame"].update(mu=0.0),
    ], ids=["missing_key", "non_numeric_rho", "ragged_values", "zero_mu"])
    def test_malformed_record_is_validation_error(self, workspace, tmp_path, capsys, corrupt):
        root, cfg = workspace
        doc = json.loads((root / "record.json").read_text())
        corrupt(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main([
            "reconstruct", "--config", str(cfg),
            "--record", str(bad), "--out-dir", str(tmp_path),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_rerun_byte_identical(self, workspace, tmp_path_factory):
        root, cfg = workspace
        out_a = tmp_path_factory.mktemp("a")
        out_b = tmp_path_factory.mktemp("b")
        for out in (out_a, out_b):
            assert main([
                "reconstruct", "--config", str(cfg),
                "--record", str(root / "record.json"), "--out-dir", str(out),
            ]) == 0
        for name in ("run.json", "boundary.csv", "overlay.svg"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestSvg:
    def test_deterministic_bytes(self):
        t = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        pts = np.stack([np.cos(t), np.sin(t)], axis=-1)
        kwargs = dict(
            rho=3.0, aperture=(0.0, np.pi), sources_xy=3.0 * pts[:4],
            final_pts=1.1 * pts, initial_pts=1.5 * pts, exact_pts=pts,
            title="case",
        )
        assert overlay_svg(**kwargs) == overlay_svg(**kwargs)

    def test_marks_partial_aperture_arc(self):
        t = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
        pts = np.stack([np.cos(t), np.sin(t)], axis=-1)
        svg = overlay_svg(
            rho=3.0, aperture=(3 * np.pi / 4, 5 * np.pi / 4), sources_xy=pts[:1],
            final_pts=pts, initial_pts=pts, exact_pts=1.2 * pts,
        )
        assert 'stroke="blue"' in svg      # receiver arc
        assert 'stroke="red"' in svg       # exact curve
        assert 'fill="red"' in svg         # source dots
        assert 'stroke="green"' in svg     # initial guess


class TestMetrics:
    def test_hausdorff_identical_sets(self):
        pts = disk(1.0).sample(64)
        assert hausdorff(pts, pts) == 0.0

    def test_hausdorff_concentric_circles(self):
        assert curve_hausdorff(disk(1.0), disk(1.5)) == pytest.approx(0.5, abs=1e-3)

    def test_radial_l2(self):
        curve = radial_curve([1.5, 0.0, 0.0])
        assert radial_l2(curve, 1.0) == pytest.approx(0.5, rel=1e-12)

    def test_arc_restriction(self):
        # r = 1 + 0.3 cos t deviates around angle 0; a narrow arc near
        # pi/2 sees almost none of it
        bumped = radial_curve([1.0, 0.3, 0.0])
        truth = disk(1.0)
        full = curve_hausdorff(bumped, truth)
        lit = arc_hausdorff(bumped, truth, (np.pi / 2 - 0.1, np.pi / 2 + 0.1))
        assert full >= 0.29
        assert lit <= 0.05


class TestVerifyCommand:
    def test_battery_passes_and_writes_csv(self, tmp_path):
        import time

        t0 = time.monotonic()
        assert main(["verify", "--out-dir", str(tmp_path)]) == 0
        assert time.monotonic() - t0 < 60.0
        with open(tmp_path / "verify.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["passed"] == "1" for r in rows)
        assert {"wronskian", "tail_sum_bound", "forward_oracle_equivalence"} <= {
            r["check"] for r in rows
        }

    def test_failure_exits_nonzero(self, monkeypatch, capsys):
        from elshape import verify as verify_mod
        from elshape.verify import CheckResult

        def failing():
            return CheckResult("stub", False, 1.0, 0.0, "forced failure", 0.0)

        monkeypatch.setattr(verify_mod, "ALL_CHECKS", [failing])
        assert main(["verify"]) == 4
        assert "FAIL" in capsys.readouterr().out


class TestSweep:
    def test_parse_lists(self):
        spec = parse_sweep_text(
            "shape = disk\nsweep.apertures = 0:6.2832; 1.0:4.0\n"
            "sweep.deltas = 0, 0.05\nsweep.seeds = 1, 2, 3\n"
        )
        assert spec.apertures == ((0.0, 6.2832), (1.0, 4.0))
        assert spec.deltas == (0.0, 0.05)
        assert spec.seeds == (1, 2, 3)
        assert spec.base["shape"] == "disk"

    def test_empty_grid_writes_header_only(self, tmp_path):
        spec = parse_sweep_text("shape = disk\n")
        rows = run_sweep(spec)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path)
        with open(path) as fh:
            lines = list(csv.reader(fh))
        assert len(lines) == 1
        assert lines[0][0] == "aperture_lo"

    def test_cell_failure_recorded_and_continues(self):
        spec = parse_sweep_text(
            DISK_CFG + "sweep.apertures = 0:6.283185307179586; 5.0:1.0\n"
            "sweep.deltas = 0\nsweep.seeds = 1\n"
        )
        rows = run_sweep(spec)
        assert len(rows) == 2
        assert rows[0][-1] == "ok"
        assert rows[1][-1].startswith("failed")

    def test_only_package_errors_recorded(self, monkeypatch):
        base = parse_sweep_text(DISK_CFG).base

        def raising(exc):
            def fake_simulate(*args, **kwargs):
                raise exc
            return fake_simulate

        monkeypatch.setattr(sweep, "simulate", raising(TypeError("bug")))
        with pytest.raises(TypeError, match="bug"):
            run_cell(base, (0.0, 2.0 * np.pi), 0.0, (1,))
        monkeypatch.setattr(sweep, "simulate", raising(SolveError("no fit")))
        row = run_cell(base, (0.0, 2.0 * np.pi), 0.0, (1,))
        assert row[-1] == "failed: SolveError: no fit"

    def test_noise_column_monotone(self, tmp_path):
        text = (
            "shape = disk\nshape.radius = 1.0\nlame.omega = 1.0\n"
            "guess.radius = 1.5\ntruncation.mode = fixed\ntruncation.n = 5\n"
            "max_iter = 30\nn_sources = 6\nn_receivers = 64\n"
            "sweep.apertures = 0:6.283185307179586\n"
            "sweep.deltas = 0, 0.01, 0.05\nsweep.seeds = 1, 2, 3\n"
        )
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(text)
        assert main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path),
                     "--workers", "2"]) == 0
        with open(tmp_path / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        errs = [float(r["median_error"]) for r in rows]
        assert errs == sorted(errs)
        assert all(r["status"] == "ok" for r in rows)
