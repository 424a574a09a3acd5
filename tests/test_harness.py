"""CLI commands, artifact formats, metrics and the sweep driver."""

import csv
import json
import re
from concurrent.futures import Future

import numpy as np
import pytest

from elshape import cli, config, forward, sweep
from elshape.cli import main
from elshape.config import ReconstructionConfig, load_config, make_record, solve_truth
from elshape.elastic import LameSystem, PointSource
from elshape.errors import ConfigError, SingularityError, SolveError
from elshape.forward import disk_series
from elshape.geometry import disk, kite, radial_curve, starfish
from elshape.metrics import arc_hausdorff, curve_hausdorff, hausdorff, radial_l2
from elshape.newton import ReconRun, StarCurve
from elshape.records import ScatterRecord
from elshape.svgout import overlay_svg
from elshape.sweep import parse_sweep_text, run_cell, run_sweep, write_sweep_csv

#: the kite reaches r ~ 2.07, so this measurement circle cuts the truth
KITE_INSIDE_RHO = "shape = kite\nrho = 2.0\n"

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

    def test_written_record_is_make_record(self, workspace):
        root, cfg = workspace
        rec = ScatterRecord.load(root / "record.json")
        config = load_config(cfg)
        ref = make_record(config, solve_truth(config))
        assert rec.sources == ref.sources and rec.aperture == ref.aperture
        assert np.array_equal(rec.receivers, ref.receivers)
        assert np.array_equal(rec.values, ref.values)

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
            oracle = disk_series(1.0, (src,), rec.sys, 40).eval(pts)[0]
            gaps.append(np.linalg.norm(rec.values[i] - oracle) / np.linalg.norm(oracle))
        # both gaps sit at round-off (~1e-14), so compare values, not digits:
        # 1e-3 relative covers the printed rounding, 1e-16 the round-off floor
        printed = float(re.search(r"max relative L2 discrepancy (\S+)", out).group(1))
        ref = max(gaps)
        assert abs(printed - ref) <= 1e-3 * ref + 1e-16

    def test_verify_oracle_on_non_disk_refused_before_solve(self, tmp_path, capsys):
        cfg = tmp_path / "kite.cfg"
        cfg.write_text("shape = kite\nn_sources = 2\nn_receivers = 16\n")
        code = main(["forward", "--config", str(cfg), "--out-dir", str(tmp_path),
                     "--verify-oracle"])
        assert code == 2
        assert capsys.readouterr().err == "error: --verify-oracle requires shape = disk\n"
        assert not (tmp_path / "record.json").exists()

    def test_kite_benchmark_counts(self, tmp_path):
        cfg = tmp_path / "kite.cfg"
        cfg.write_text("shape = kite\nn_sources = 20\nn_receivers = 128\n")
        assert main(["forward", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        rec = ScatterRecord.load(tmp_path / "record.json")
        assert rec.values.shape == (20, 128, 2)

    def test_invalid_aperture_is_validation_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("aperture.lo = 2.0\naperture.hi = 1.0\n")
        assert main(["forward", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("line", ["lame.omega = nan", "epsilon = nan", "shape.radius = inf"])
    def test_non_finite_value_is_validation_error(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"shape = disk\n{line}\n")
        assert main(["forward", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert line.split()[0] in capsys.readouterr().err

    def test_unknown_key_is_validation_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("shape = disk\nrecievers = 12\n")
        assert main(["forward", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2

    def test_zero_sources_is_validation_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("shape = disk\nn_sources = 0\n")
        assert main(["forward", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert "n_sources" in capsys.readouterr().err
        assert not (tmp_path / "record.json").exists()

    @pytest.mark.parametrize("lines,key", [
        ("shape = disk\nseed = -1\n", "seed"),
        ("shape = custom\nshape.coeffs = 0.5, 1.0, 0.0\ntruncation.mode = fixed\n", "shape.coeffs"),
        ("shape = disk\nshape.radius = -1.0\n", "shape.radius"),
        (KITE_INSIDE_RHO, "rho"),
    ], ids=["negative_seed", "custom_radius_not_positive", "disk_radius_not_positive",
            "rho_inside_truth"])
    def test_refused_before_the_solve(self, tmp_path, capsys, lines, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(lines + "n_sources = 2\nn_receivers = 16\n")
        assert main(["forward", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "record.json").exists()

    def test_singularity_is_numerical_failure(self, tmp_path, monkeypatch, capsys):
        def coincident(cfg):
            raise SingularityError("evaluation point coincides with the source point")

        monkeypatch.setattr(cli, "solve_truth", coincident)
        cfg = tmp_path / "disk.cfg"
        cfg.write_text("shape = disk\n")
        assert main(["forward", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith("numerical failure:")

    def test_zero_polarization_is_validation_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("shape = disk\nn_sources = 2\npolarization.x = 0\npolarization.y = 0\n")
        assert main(["forward", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert "polarization.x, polarization.y" in capsys.readouterr().err
        assert not (tmp_path / "record.json").exists()


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

    def test_polarization_mismatch_refused_before_out_dir(self, workspace, tmp_path, capsys):
        # the record holds the default polarization; the config asks for another
        root, _ = workspace
        other = tmp_path / "other.cfg"
        other.write_text(DISK_CFG + "polarization.x = 1.0\npolarization.y = 0.0\n")
        out = tmp_path / "out"
        code = main([
            "reconstruct", "--config", str(other),
            "--record", str(root / "record.json"), "--out-dir", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: record/config physics mismatch: ")
        assert "polarization.x" in err and "polarization.y" in err
        assert not out.exists()

    def test_takes_config_record_and_out_dir_only(self, workspace, tmp_path, capsys):
        # the noise seed is the config's `seed` key; there is no --seed flag
        root, cfg = workspace
        with pytest.raises(SystemExit) as exc:
            main([
                "reconstruct", "--config", str(cfg), "--seed", "3",
                "--record", str(root / "record.json"), "--out-dir", str(tmp_path),
            ])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
        assert not (tmp_path / "run.json").exists()
        args = cli.build_parser().parse_args(["reconstruct", "--config", "c", "--record", "r"])
        assert sorted(vars(args)) == ["command", "config", "func", "out_dir", "record"]

    @pytest.mark.parametrize("flag, make", [
        ("--config", lambda p: p.mkdir()),
        ("--record", lambda p: p.mkdir()),
        ("--config", lambda p: p.write_bytes("shape = disk  # Lam\u00e9\n".encode("latin-1"))),
        ("--record", lambda p: p.write_bytes('{"rho": "Lam\u00e9"}'.encode("latin-1"))),
        ("--out-dir", lambda p: p.write_text("")),
    ], ids=["config_is_directory", "record_is_directory", "config_not_utf8",
            "record_not_utf8", "out_dir_is_file"])
    def test_unusable_path_is_validation_error(self, workspace, tmp_path, capsys, flag, make):
        root, cfg = workspace
        paths = {"--config": cfg, "--record": root / "record.json", "--out-dir": tmp_path / "out"}
        paths[flag] = tmp_path / "bad"
        make(paths[flag])
        assert main(["reconstruct", *(str(x) for pair in paths.items() for x in pair)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "out").exists()

    def test_aliasing_collocation_grid_refused(self, workspace, tmp_path, capsys):
        root, _ = workspace
        cfg = tmp_path / "coarse.cfg"
        cfg.write_text(DISK_CFG + "collocation.n = 16\n")
        code = main([
            "reconstruct", "--config", str(cfg),
            "--record", str(root / "record.json"), "--out-dir", str(tmp_path),
        ])
        assert code == 2
        assert "collocation.n" in capsys.readouterr().err

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
        cfg.write_text(DISK_CFG + "r_policy.value = 1.9\n")
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
        lambda doc: doc.update(values=5.0),
        lambda doc: doc.update(sources=[], values=[]),
        lambda doc: doc.update(receivers=[], values=[]),
        lambda doc: doc.update(values=[[v[:3] for v in per_source] for per_source in doc["values"]]),
        lambda doc: doc["lame"].update(omega=True),
        lambda doc: doc.update(receivers=[[t] for t in doc["receivers"]]),
        lambda doc: doc.update(polarization=[True, False]),
        lambda doc: doc["sources"][0].update(x=True),
        lambda doc: doc.update(aperture=[False, doc["aperture"][1]]),
        lambda doc: doc["receivers"].__setitem__(0, False),
        lambda doc: doc["values"][0][0].__setitem__(0, True),
    ], ids=["missing_key", "non_numeric_rho", "ragged_values", "zero_mu", "scalar_values",
            "no_sources", "no_receivers", "three_numbers_per_value", "boolean_omega",
            "nested_receivers", "boolean_polarization", "boolean_source_x", "boolean_aperture",
            "boolean_receiver", "boolean_value"])
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
        assert not (tmp_path / "run.json").exists()

    @pytest.mark.parametrize("key", ["rho", "lambda", "mu", "omega"])
    def test_boolean_number_refused_on_load(self, workspace, key):
        doc = json.loads((workspace[0] / "record.json").read_text())
        (doc if key == "rho" else doc["lame"])[key] = True
        with pytest.raises(ConfigError, match=f"{key} must be a number"):
            ScatterRecord.from_json_dict(doc)

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
    @staticmethod
    def case(aperture):
        t = np.linspace(0.0, 2.0 * np.pi, 4, endpoint=False)
        sources = tuple(PointSource((3.0 * np.cos(a), 3.0 * np.sin(a)), (1.0, 0.0)) for a in t)
        rec = ScatterRecord(3.0, LameSystem(1.0, 1.0, 1.0), sources, np.array([np.mean(aperture)]),
                            np.zeros((4, 1, 2)), aperture)
        run = ReconRun((StarCurve.circle(1.5, 2), StarCurve([1.1, 0.1, 0.0, 0.0, 0.05])),
                       (0.3,), "converged", {})
        return rec, run

    def test_deterministic_bytes(self):
        rec, run = self.case((0.0, np.pi))
        assert overlay_svg(rec, run, disk(1.0), "case") == overlay_svg(rec, run, disk(1.0), "case")

    def test_marks_partial_aperture_arc(self):
        rec, run = self.case((3 * np.pi / 4, 5 * np.pi / 4))
        svg = overlay_svg(rec, run, disk(1.2))
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

    def test_csv_byte_identical_across_runs(self, tmp_path):
        # the per-check seconds go to stdout only
        for run in ("a", "b"):
            assert main(["verify", "--out-dir", str(tmp_path / run)]) == 0
        first = (tmp_path / "a" / "verify.csv").read_bytes()
        assert first == (tmp_path / "b" / "verify.csv").read_bytes()
        assert b"seconds" not in first

    def test_failure_exits_nonzero(self, monkeypatch, capsys):
        from elshape import verify as verify_mod
        from elshape.verify import CheckResult

        def failing():
            return CheckResult("stub", False, 1.0, 0.0, "forced failure", 0.0)

        monkeypatch.setattr(verify_mod, "ALL_CHECKS", [failing])
        assert main(["verify"]) == 4
        assert "FAIL" in capsys.readouterr().out


class TestBoundaryError:
    CUSTOM = ReconstructionConfig({"shape": "custom", "shape.coeffs": "1.4, 0.2, 0.0, 0.1, 0.05"})

    @staticmethod
    def run_of(coeffs):
        return ReconRun((StarCurve(coeffs),), (), "converged", {})

    def test_custom_truth_reads_zero_on_itself(self):
        err = sweep.boundary_error(self.CUSTOM, self.run_of(self.CUSTOM.shape_coeffs()))
        assert err <= 1e-12

    def test_custom_truth_reads_radius_offset(self):
        shifted = self.CUSTOM.shape_coeffs() + [0.01, 0.0, 0.0, 0.0, 0.0]
        err = sweep.boundary_error(self.CUSTOM, self.run_of(shifted))
        assert abs(err - 0.01) <= 1e-12

    def test_disk_truth_reads_radius_gap(self):
        cfg = ReconstructionConfig({"shape": "disk", "shape.radius": 1.0})
        err = sweep.boundary_error(cfg, self.run_of(StarCurve.circle(1.2, 3).coeffs))
        assert abs(err - 0.2) <= 1e-12

    @pytest.mark.parametrize("name, truth", [("kite", kite), ("starfish", starfish)])
    def test_named_truth_reads_hausdorff(self, name, truth):
        run = self.run_of(StarCurve.circle(1.2, 3).coeffs)
        err = sweep.boundary_error(ReconstructionConfig({"shape": name}), run)
        assert err == curve_hausdorff(run.final.as_curve(), truth()) > 0.0


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

    @pytest.mark.parametrize("line,message", [
        ("sweep.seeds = 1.7, 2.2", "sweep.seeds: bad entry '1.7'"),
        ("sweep.seeds = 1, -2", "sweep.seeds: must be >= 0"),
        ("sweep.seeds = 3, 3", "sweep.seeds: repeated entry '3'"),
        ("sweep.deltas = 0, 0.0", "sweep.deltas: repeated entry '0.0'"),
        ("sweep.apertures = 0:1; 0.0:1.0", "sweep.apertures: repeated entry '0.0:1.0'"),
        ("sweep.apertures = 0:1:2", "sweep.apertures: bad entry '0:1:2'"),
    ])
    def test_bad_list_entry_names_its_key(self, line, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_sweep_text(f"shape = disk\n{line}\n")

    def test_config_error_keeps_its_line_number(self):
        text = (
            "shape = disk\nsweep.apertures = 0:6.2832\nsweep.deltas = 0\n"
            "sweep.seeds = 1\nrecievers = 12\n"
        )
        with pytest.raises(ConfigError, match="line 5: unknown key 'recievers'"):
            parse_sweep_text(text)

    def test_duplicate_sweep_key_rejected(self):
        text = "shape = disk\nsweep.deltas = 0\nsweep.deltas = 0.05\n"
        with pytest.raises(ConfigError, match="line 3: duplicate key 'sweep.deltas'"):
            parse_sweep_text(text)

    @pytest.mark.parametrize("workers,n_cells,pool_size", [(4, 2, 2), (8, 1, None), (2, 3, 2)])
    def test_pool_never_larger_than_the_grid(self, monkeypatch, workers, n_cells, pool_size):
        # a stand-in pool: records its size and runs each cell in this process
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(sweep, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(sweep, "run_cell", lambda base, truth, ap, d, seeds: [ap, d])
        deltas = ", ".join(str(0.01 * i) for i in range(n_cells))
        spec = parse_sweep_text(f"shape = disk\nsweep.apertures = 0:1\nsweep.deltas = {deltas}\n")
        rows = run_sweep(spec, workers=workers)
        assert len(rows) == n_cells
        assert sizes == ([] if pool_size is None else [pool_size])

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
        truth = solve_truth(ReconstructionConfig(base))

        def raising(exc):
            def fake_make_record(*args, **kwargs):
                raise exc
            return fake_make_record

        monkeypatch.setattr(sweep, "make_record", raising(TypeError("bug")))
        with pytest.raises(TypeError, match="bug"):
            run_cell(base, truth, (0.0, 2.0 * np.pi), 0.0, (1,))
        monkeypatch.setattr(sweep, "make_record", raising(SolveError("no fit")))
        row = run_cell(base, truth, (0.0, 2.0 * np.pi), 0.0, (1,))
        assert row[-1] == "failed: SolveError: no fit"

    def test_serial_sweep_solves_the_truth_once(self, monkeypatch):
        # counted wherever the package looks solve_mfs up
        calls = []
        original = forward.solve_mfs

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for owner in (config, forward):
            monkeypatch.setattr(owner, "solve_mfs", counted, raising=False)
        spec = parse_sweep_text(
            "shape = disk\nlame.omega = 1.0\ntruncation.mode = fixed\ntruncation.n = 5\n"
            "max_iter = 2\nn_sources = 2\nn_receivers = 16\n"
            "sweep.apertures = 0:6.283185307179586; 0:3.14; 1:5\n"
            "sweep.deltas = 0, 0.05\nsweep.seeds = 1\n"
        )
        rows = run_sweep(spec)
        assert len(rows) == 6 and all(r[-1] == "ok" for r in rows)
        assert len(calls) == 1

    def test_unsolvable_base_stops_the_sweep(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            KITE_INSIDE_RHO + "n_sources = 2\nsweep.apertures = 0:6.283185307179586; 0:3.14\n"
            "sweep.deltas = 0.05\nsweep.seeds = 1\n"
        )
        assert main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert "rho" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

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


class TestOutDirBeforeWork:
    """Each command creates --out-dir before its solve, so an unusable one
    is refused without running the work first."""

    SWEEP_CFG = (
        "shape = disk\nlame.omega = 1.0\nn_sources = 2\n"
        "sweep.apertures = 0:6.283185307179586\nsweep.deltas = 0\nsweep.seeds = 1\n"
    )

    @pytest.mark.parametrize("command, solver", [
        ("forward", "solve_truth"), ("reconstruct", "reconstruct"),
        ("sweep", "run_sweep"), ("verify", "run_battery"),
    ])
    def test_out_dir_that_is_a_file_refused_before_the_solve(
        self, workspace, tmp_path, monkeypatch, capsys, command, solver
    ):
        root, cfg = workspace

        def solve(*args, **kwargs):
            raise SolveError("the solve ran before --out-dir was checked")

        monkeypatch.setattr(cli, solver, solve)
        sweep_cfg = tmp_path / "sweep.cfg"
        sweep_cfg.write_text(self.SWEEP_CFG)
        inputs = {
            "forward": ["--config", str(cfg)],
            "reconstruct": ["--config", str(cfg), "--record", str(root / "record.json")],
            "sweep": ["--config", str(sweep_cfg)],
            "verify": [],
        }[command]
        bad = tmp_path / "taken"
        bad.write_text("")
        assert main([command, *inputs, "--out-dir", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        # with a usable directory the same stub is reached: a numerical failure
        assert main([command, *inputs, "--out-dir", str(tmp_path / "out")]) == 3
        assert (tmp_path / "out").is_dir()
