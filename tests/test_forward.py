"""Forward data generation: MFS solver, analytic disk oracle, noise model."""

import json

import numpy as np
import pytest

from elshape import forward
from elshape.elastic import LameSystem, PointSource, incident_field
from elshape.errors import ConfigError, DomainError
from elshape.forward import (
    add_noise,
    boundary_residual,
    disk_series,
    receiver_angles,
    record_from_disk_series,
    ring_sources,
    simulate,
    solve_mfs,
)
from elshape.geometry import disk, kite, starfish
from elshape.records import ScatterRecord

SYS5 = LameSystem(1.0, 1.0, 5.0)
SYS1 = LameSystem(1.0, 1.0, 1.0)
POL = (np.sqrt(0.5), np.sqrt(0.5))
SRC = PointSource((3.0, 0.0), POL)


def circle_points(rho, n):
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return rho * np.stack([np.cos(t), np.sin(t)], axis=-1)


class TestSolveMfs:
    def test_boundary_residual_on_refined_grid(self):
        # the charge-lattice representation floor is ~shrink^n_charges,
        # i.e. 0.8^64 ~ 3e-7, so reaching 1e-8 with 64 charges needs a
        # deeper charge curve
        sol = solve_mfs(disk(1.0), SRC, SYS5, 128, 64, 0.7)
        assert boundary_residual(sol, disk(1.0), SRC, SYS5, 512) <= 1e-8
        sol8 = solve_mfs(disk(1.0), SRC, SYS5, 128, 64, 0.8)
        assert boundary_residual(sol8, disk(1.0), SRC, SYS5, 512) <= 1e-6

    def test_low_resolution_kite_warns(self):
        with pytest.warns(UserWarning, match="MFS collocation residual"):
            solve_mfs(kite(), SRC, SYS5, 128, 64, 0.8)

    def test_matches_disk_series_on_measurement_circle(self):
        sol = solve_mfs(disk(1.0), SRC, SYS5, 128, 64, 0.8)
        pts = circle_points(3.0, 128)
        v_m = sol.eval(pts)
        v_s = disk_series(1.0, SRC, SYS5, 40).eval(pts)
        rel = np.sqrt(np.sum(np.abs(v_m - v_s) ** 2)) / np.sqrt(np.sum(np.abs(v_s) ** 2))
        assert rel <= 1e-6

    def test_zero_polarization_gives_zero_strengths(self):
        src0 = PointSource((3.0, 0.0), (0.0, 0.0))
        sol = solve_mfs(disk(1.0), src0, SYS5, 128, 64, 0.7)
        assert np.max(np.abs(sol.strengths)) == 0.0

    def test_no_interstitial_blowup(self):
        sol = solve_mfs(disk(1.0), SRC, SYS5, 128, 64, 0.7)
        fine = boundary_residual(sol, disk(1.0), SRC, SYS5, 512)
        assert fine <= 10.0 * max(sol.residual, 1e-16)

    def test_source_inside_rejected(self):
        with pytest.raises(ConfigError):
            solve_mfs(disk(1.0), PointSource((0.2, 0.0), POL), SYS5, 64, 32, 0.7)

    def test_bad_shrink_rejected(self):
        with pytest.raises(ConfigError):
            solve_mfs(disk(1.0), SRC, SYS5, 64, 32, 1.2)


MIXED = tuple(
    PointSource((3.0 * np.cos(a), 3.0 * np.sin(a)), pol)
    for a, pol in zip(
        (0.3, 1.9, 3.5, 5.0), ((1.0, 0.0), (0.0, 1.0), POL, (0.6, -0.8))
    )
)


def rel_max(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestBatchedMfs:
    @pytest.fixture(scope="class")
    def batched(self):
        return solve_mfs(starfish(), MIXED, SYS5, 192, 96, 0.85, warn_above=None)

    def test_rows_match_single_source_solves(self, batched):
        pts = circle_points(3.0, 64)
        assert batched.strengths.shape == (len(MIXED), 96, 2)
        assert batched.residuals.shape == (len(MIXED),)
        values = batched.eval(pts)
        assert values.shape == (len(MIXED), 64, 2)
        for i, src in enumerate(MIXED):
            one = solve_mfs(starfish(), src, SYS5, 192, 96, 0.85, warn_above=None)
            assert rel_max(batched.strengths[i], one.strengths) <= 1e-10
            assert rel_max(values[i], one.eval(pts)) <= 1e-10
            assert batched.residuals[i] == pytest.approx(one.residual, rel=1e-6)
        assert batched.residual == max(batched.residuals)

    def test_single_source_keeps_unbatched_shapes(self):
        sol = solve_mfs(disk(1.0), SRC, SYS5, 64, 32, 0.7, warn_above=None)
        assert sol.strengths.shape == (32, 2)
        assert isinstance(sol.residual, float)
        assert sol.eval(circle_points(3.0, 5)).shape == (5, 2)
        assert sol.eval(np.array([3.0, 1.0])).shape == (2,)

    def test_one_warning_names_worst_source(self):
        match = r"MFS collocation residual .* \(source \d of 5\)"
        with pytest.warns(UserWarning, match=match) as caught:
            solve_mfs(kite(), ring_sources(5, 3.0, POL), SYS5, 128, 64, 0.8)
        assert len(caught) == 1

    def test_any_source_inside_rejected(self):
        srcs = (SRC, PointSource((0.2, 0.0), POL))
        with pytest.raises(ConfigError):
            solve_mfs(disk(1.0), srcs, SYS5, 64, 32, 0.7)

    def test_boundary_residual_is_max_over_sources(self):
        srcs = ring_sources(3, 3.0, POL)
        sol = solve_mfs(disk(1.0), srcs, SYS5, 128, 64, 0.8)
        single = [
            boundary_residual(solve_mfs(disk(1.0), s, SYS5, 128, 64, 0.8), disk(1.0), s, SYS5, 512)
            for s in srcs
        ]
        assert max(single) <= 1e-6
        got = boundary_residual(sol, disk(1.0), srcs, SYS5, 512)
        assert got == pytest.approx(max(single), rel=1e-6)

    def test_boundary_residual_needs_one_source_per_row(self):
        srcs = ring_sources(3, 3.0, POL)
        sol = solve_mfs(disk(1.0), srcs, SYS5, 64, 32, 0.7, warn_above=None)
        with pytest.raises(ConfigError):
            boundary_residual(sol, disk(1.0), srcs[0], SYS5, 64)
        with pytest.raises(ConfigError):
            boundary_residual(sol, disk(1.0), srcs[:2], SYS5, 64)


class TestDiskSeries:
    def test_rigid_boundary_condition(self):
        fld = disk_series(1.0, SRC, SYS5, 40)
        pts = circle_points(1.0, 256)
        total = fld.eval(pts) + incident_field(pts, SRC, SYS5)
        assert np.max(np.abs(total)) <= 1e-8

    def test_rotational_covariance(self):
        ang = 1.1
        rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        x = np.array([2.2, 0.4])
        v = disk_series(1.0, SRC, SYS5, 40).eval(x)
        src_rot = PointSource(tuple(rot @ np.array(SRC.location)), tuple(rot @ np.array(POL)))
        v_rot = disk_series(1.0, src_rot, SYS5, 40).eval(rot @ x)
        assert np.max(np.abs(v_rot - rot @ v)) <= 1e-12

    def test_source_inside_rejected(self):
        with pytest.raises(DomainError):
            disk_series(2.0, PointSource((1.0, 0.0), POL), SYS5)

    def test_eval_inside_disk_rejected(self):
        fld = disk_series(1.0, SRC, SYS5, 20)
        with pytest.raises(DomainError):
            fld.eval(np.array([0.5, 0.0]))

    def test_truncation_tail_below_1e12(self):
        pts = circle_points(3.0, 64)
        a = disk_series(1.0, SRC, SYS5, 40).eval(pts)
        b = disk_series(1.0, SRC, SYS5, 50).eval(pts)
        assert np.max(np.abs(a - b)) <= 1e-12


MIXED7 = tuple(
    PointSource((r * np.cos(a), r * np.sin(a)), pol)
    for r, a, pol in zip(
        (3.0, 2.5, 4.0, 1.5, 3.0, 2.0, 5.0),
        (0.0, 0.9, 1.7, 2.6, 3.5, 4.4, 5.3),
        ((1.0, 0.0), (0.0, 1.0), POL, (0.6, -0.8), (-1.0, 2.0), (0.1, 0.1), (0.0, 0.0)),
    )
)


class TestBatchedDiskSeries:
    @pytest.fixture(scope="class")
    def batched(self):
        return disk_series(1.0, MIXED7, SYS5, 40)

    def test_rows_match_single_source_series(self, batched):
        rng = np.random.default_rng(5)
        ang = rng.uniform(0.0, 2.0 * np.pi, 40)
        off = rng.uniform(1.1, 4.0, 40)[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        assert len(np.unique(np.hypot(off[:, 0], off[:, 1]))) == 40
        circle = circle_points(3.0, 128)
        assert batched.b_p.shape == batched.b_s.shape == (7, 81)
        for pts in (circle, off):
            values = batched.eval(pts)
            assert values.shape == (7, len(pts), 2)
            for i, src in enumerate(MIXED7[:-1]):
                one = disk_series(1.0, src, SYS5, 40)
                assert rel_max(batched.b_p[i], one.b_p) <= 1e-12
                assert rel_max(batched.b_s[i], one.b_s) <= 1e-12
                assert rel_max(values[i], one.eval(pts)) <= 1e-12
            # the zero-polarization source scatters nothing
            assert np.max(np.abs(values[-1])) == 0.0

    def test_single_source_keeps_unbatched_shapes(self):
        fld = disk_series(1.0, SRC, SYS5, 20)
        assert fld.b_p.shape == fld.b_s.shape == (41,)
        assert fld.n_modes == 20
        assert fld.eval(circle_points(3.0, 5)).shape == (5, 2)
        assert fld.eval(np.array([3.0, 1.0])).shape == (2,)
        assert fld.eval(np.ones((2, 3, 2))).shape == (2, 3, 2)
        assert disk_series(1.0, (SRC,), SYS5, 20).eval(np.ones((2, 3, 2))).shape == (1, 2, 3, 2)

    def test_any_source_inside_rejected(self):
        with pytest.raises(DomainError):
            disk_series(1.0, MIXED7 + (PointSource((0.0, 0.5), POL),), SYS5)

    @pytest.mark.parametrize("n_sources,n_receivers", [(1, 16), (7, 16), (1, 128), (7, 128)])
    def test_hankel_calls_independent_of_sources_and_receivers(
        self, monkeypatch, n_sources, n_receivers
    ):
        # a per-source or per-point loop would scale the count
        calls = []
        hankel1 = forward.specfun.hankel1

        def counted(n, t):
            calls.append(1)
            return hankel1(n, t)

        monkeypatch.setattr(forward.specfun, "hankel1", counted)
        rec = record_from_disk_series(1.0, MIXED7[:n_sources], SYS5, 5.5, n_receivers)
        assert rec.values.shape == (n_sources, n_receivers, 2)
        # incident coefficients, rim tables and receiver tables, one per branch each
        assert len(calls) == 6


class TestSimulate:
    def test_benchmark_default_layout(self):
        srcs = ring_sources(20, 3.0, POL)
        rec = simulate(disk(1.0), srcs, SYS5, 3.0, 128, n_charges=48, n_collocation=96,
                       shrink=0.7)
        assert rec.values.shape == (20, 128, 2)
        assert rec.n_sources == 20 and rec.n_receivers == 128
        assert rec.is_full_aperture

    def test_half_aperture_receiver_angles(self):
        theta = receiver_angles(128, (0.0, np.pi))
        assert theta.shape == (128,)
        assert np.all((theta >= 0.0) & (theta < np.pi))

    def test_wrapped_aperture_sorted_mod_2pi(self):
        theta = receiver_angles(16, (5.0 * np.pi / 4.0, 11.0 * np.pi / 4.0))
        assert np.all(np.diff(theta) > 0)
        assert np.all((theta >= 0.0) & (theta < 2.0 * np.pi))

    def test_empty_source_list(self):
        rec = simulate(disk(1.0), (), SYS5, 3.0, 16, n_charges=16, n_collocation=32,
                       shrink=0.7)
        assert rec.n_sources == 0
        assert rec.values.shape == (0, 16, 2)

    def test_residual_log_in_source_order(self):
        srcs = ring_sources(5, 3.0, POL)
        log = []
        simulate(kite(), srcs, SYS5, 3.0, 16, n_collocation=128, n_charges=64,
                 shrink=0.8, warn_above=None, residual_log=log)
        single = [solve_mfs(kite(), s, SYS5, 128, 64, 0.8, None).residual for s in srcs]
        assert np.allclose(log, single, rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize("n_sources", [1, 7])
    def test_one_factorization_per_record(self, monkeypatch, n_sources):
        # a per-source loop would scale both counts with the number of sources
        calls = {"lstsq": 0, "green_tensor": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(forward.np.linalg, "lstsq", counted("lstsq", np.linalg.lstsq))
        monkeypatch.setattr(forward, "green_tensor", counted("green_tensor", forward.green_tensor))
        simulate(disk(1.0), ring_sources(n_sources, 3.0, POL), SYS5, 3.0, 16,
                 n_collocation=32, n_charges=16, shrink=0.7, warn_above=None)
        # collocation matrix, right-hand sides, receiver table
        assert calls == {"lstsq": 1, "green_tensor": 3}

    def test_rho_must_exceed_obstacle(self):
        with pytest.raises(ConfigError):
            simulate(kite(), ring_sources(2, 3.0, POL), SYS5, 1.5, 16)


@pytest.fixture(scope="module")
def record():
    return record_from_disk_series(1.0, ring_sources(4, 3.0, POL), SYS5, 3.0, 32)


class TestAddNoise:
    def test_five_percent_level_runs(self, record):
        noisy = add_noise(record, 0.05, seed=3)
        assert noisy.values.shape == record.values.shape
        assert np.max(np.abs(noisy.values - record.values)) > 0.0

    def test_zero_level_is_identity(self, record):
        noisy = add_noise(record, 0.0, seed=3)
        assert np.array_equal(noisy.values, record.values)

    def test_seed_reproducibility(self, record):
        a = add_noise(record, 0.05, seed=42)
        b = add_noise(record, 0.05, seed=42)
        assert np.array_equal(a.values, b.values)
        c = add_noise(record, 0.05, seed=43)
        assert not np.array_equal(a.values, c.values)

    def test_perturbation_statistics(self):
        rng = np.random.default_rng(1)
        vals = rng.normal(size=(1, 5000, 2)) + 1j * rng.normal(size=(1, 5000, 2))
        rec = ScatterRecord(
            rho=3.0, sys=SYS5, sources=(SRC,),
            receivers=np.linspace(0, 2 * np.pi, 5000, endpoint=False),
            values=vals, aperture=(0.0, 2 * np.pi),
        )
        noisy = add_noise(rec, 0.05, seed=9)
        ratio = np.abs(noisy.values - rec.values) / (0.05 * np.abs(rec.values))
        assert 0.45 <= float(np.mean(ratio)) <= 0.55

    def test_invalid_level_rejected(self, record):
        with pytest.raises(DomainError):
            add_noise(record, 1.0, seed=1)
        with pytest.raises(DomainError):
            add_noise(record, -0.1, seed=1)


class TestRecordSerialization:
    def test_roundtrip_value_identical(self, tmp_path):
        rec = record_from_disk_series(1.0, ring_sources(3, 3.0, POL), SYS5, 3.0, 16)
        path = tmp_path / "rec.json"
        rec.save(path)
        back = ScatterRecord.load(path)
        assert np.array_equal(back.values, rec.values)
        assert np.array_equal(back.receivers, rec.receivers)
        assert back.rho == rec.rho
        assert back.aperture == rec.aperture
        assert back.sources == rec.sources
        assert back.sys == rec.sys

    def test_json_layout(self, tmp_path):
        rec = record_from_disk_series(1.0, ring_sources(2, 3.0, POL), SYS5, 3.0, 8)
        path = tmp_path / "rec.json"
        rec.save(path)
        doc = json.loads(path.read_text())
        assert set(doc) == {
            "rho", "lame", "polarization", "sources", "receivers", "values", "aperture",
        }
        assert set(doc["lame"]) == {"lambda", "mu", "omega"}
        assert len(doc["values"]) == 2
        assert len(doc["values"][0]) == 8
        assert len(doc["values"][0][0]) == 4

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ScatterRecord(
                rho=3.0, sys=SYS5, sources=(SRC,),
                receivers=np.array([0.0, 1.0, 2.0]),
                values=np.zeros((1, 2, 2), dtype=complex),  # 3 receivers expected
                aperture=(0.0, 2 * np.pi),
            )

    @pytest.mark.parametrize("field", ["rho", "receivers", "values"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, field, bad):
        kwargs = dict(
            rho=3.0, sys=SYS5, sources=(SRC,), receivers=np.array([0.0, 1.0]),
            values=np.zeros((1, 2, 2), dtype=complex), aperture=(0.0, 2 * np.pi),
        )
        if field == "rho":
            kwargs["rho"] = bad
        else:
            kwargs[field] = kwargs[field].copy()
            kwargs[field].flat[-1] = bad
        with pytest.raises(ConfigError):
            ScatterRecord(**kwargs)

    def test_mixed_polarizations_rejected_on_save(self, tmp_path):
        rec = ScatterRecord(
            rho=3.0, sys=SYS5,
            sources=(PointSource((3.0, 0.0), (1.0, 0.0)), PointSource((0.0, 3.0), (0.0, 1.0))),
            receivers=np.array([0.0, 1.0]),
            values=np.zeros((2, 2, 2), dtype=complex),
            aperture=(0.0, 2 * np.pi),
        )
        with pytest.raises(ValueError):
            rec.to_json_dict()
