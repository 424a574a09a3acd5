"""Config file parsing, validation and derived-parameter resolution."""

import json
import math
import re

import numpy as np
import pytest

from elshape.config import (
    ReconstructionConfig,
    load_config,
    make_record,
    make_shape,
    parse_config_text,
    solve_truth,
)
from elshape.elastic import LameSystem
from elshape.errors import ConfigError
from elshape.forward import (
    disk_series, receiver_angles, record_from_disk_series, ring_sources, simulate,
)
from elshape.geometry import disk, starfish
from elshape.records import ScatterRecord, aperture_error


class TestParsing:
    def test_basic_file(self):
        text = """
        # experiment
        shape = kite
        lame.omega = 5.0
        delta = 0.05     # five percent
        seed = 11
        np = 8
        """
        values = parse_config_text(text)
        assert values["shape"] == "kite"
        assert values["lame.omega"] == 5.0
        assert values["delta"] == 0.05
        assert values["seed"] == 11

    def test_quoted_strings_accepted(self):
        assert parse_config_text('shape = "disk"')["shape"] == "disk"

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ConfigError, match="lame.omgea"):
            parse_config_text("lame.omgea = 5.0")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("rho = 3.0\nrho = 4.0")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="rho"):
            parse_config_text("rho = three")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just some words")

    def test_load_config(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("shape = disk\nshape.radius = 1.25\n")
        cfg = load_config(path)
        assert cfg["shape.radius"] == 1.25


class TestValidation:
    def test_defaults_are_valid(self):
        cfg = ReconstructionConfig({})
        assert cfg["np"] == 8
        assert cfg["epsilon"] == 1e-4
        assert cfg["delta"] == 0.05
        assert cfg.polarization == (math.sqrt(0.5), math.sqrt(0.5))

    # each case is (values, key): the message names the key, whether the
    # config holds the rule or an owner (medium, truth curve, truncation) does
    @pytest.mark.parametrize(
        "bad",
        [
            ({"delta": 1.0}, "delta"),
            ({"delta": -0.1}, "delta"),
            ({"epsilon": 0.0}, "epsilon"),
            ({"np": 0}, "np"),
            ({"guess.radius": 3.5}, "guess.radius"),  # must stay below rho
            ({"aperture.lo": 2.0, "aperture.hi": 1.0}, "aperture"),
            ({"aperture.lo": 0.0, "aperture.hi": 7.0}, "aperture"),
            ({"r_policy.value": -0.5}, "r_policy.value"),  # 0 selects the auto R
            ({"stop.c1": -1.0}, "stop.c1"),  # 0 selects the relative-update stop
            ({"max_iter": -1}, "max_iter"),
            ({"lame.mu": 0.0}, "lame"),
            ({"lame.omega": -1.0}, "lame"),
            ({"shape": "pentagon"}, "shape"),
            ({"truncation.mode": "magic"}, "truncation"),
            ({"truncation.mode": "theoretical", "truncation.tau2": 1.0}, "truncation"),  # needs tau2 > 1
            ({"r_policy.value": 2.0}, "r_policy"),  # >= guess radius
            ({"collocation.n": 16}, "collocation.n"),  # P <= 2 np aliases sin(np t)
            ({"shape": "custom", "shape.coeffs": "1.0, nan, 0.0"}, "shape.coeffs"),
            ({"polarization.x": 0.0, "polarization.y": 0.0},  # no incident field
             "polarization.x, polarization.y"),
            ({"n_sources": 0}, "n_sources"),  # no data to reconstruct from
            ({"seed": -1}, "seed"),  # the noise generator needs a seed >= 0
            ({"shape": "custom", "shape.coeffs": "0.5, 1.0, 0.0"}, "shape.coeffs"),  # r < 0 near t = pi
            ({"shape": "disk", "shape.radius": -1.0}, "shape.radius"),
            ({"shape": "kite", "rho": 2.0}, "rho"),  # the kite reaches r ~ 2.07
            ({"n_receivers": 3}, "n_receivers"),
            ({"truncation.mode": "fixed", "truncation.n": -1}, "truncation"),
            ({"shape": "custom", "shape.coeffs": "a, b, c"}, "shape.coeffs"),
            ({"shape": "custom", "shape.coeffs": "1, 2"}, "shape.coeffs"),  # even length
        ],
    )
    def test_invariants_rejected(self, bad):
        values, key = bad
        with pytest.raises(ConfigError, match=f"(^|; ){re.escape(key)}: "):
            ReconstructionConfig(values)

    @pytest.mark.parametrize("delta", [-0.1, 1.0])
    @pytest.mark.parametrize("mode", ["practical", "theoretical", "fixed"])
    def test_bad_delta_reported_once(self, delta, mode):
        # the truncation rule is consulted only for a delta in [0, 1)
        values = {"delta": delta, "truncation.mode": mode, "truncation.tau2": 2.0}
        with pytest.raises(ConfigError) as exc:
            ReconstructionConfig(values)
        assert str(exc.value) == "delta: must lie in [0, 1)"

    def test_zero_delta_refused_by_the_practical_rule(self):
        with pytest.raises(ConfigError, match=r"^truncation: delta must lie in \(0, 1\)$"):
            ReconstructionConfig({"delta": 0.0})

    @pytest.mark.parametrize("aperture, problem", [
        ((2.0, 1.0), "aperture: need lo < hi"),
        ((1.0, 1.0), "aperture: need lo < hi"),
        ((0.0, 2.0 * math.pi + 1e-9), "aperture: span cannot exceed 2*pi"),
        ((0.0, 2.0 * math.pi + 1e-13), ""),
        ((5.0, 5.0 + 2.0 * math.pi), ""),
        ((5.0 * math.pi / 4.0, 11.0 * math.pi / 4.0), ""),
    ], ids=["reversed", "empty", "over_2pi", "2pi_within_tol", "wrapped_full", "wrapped_arc"])
    def test_one_aperture_rule_for_config_receivers_and_records(self, aperture, problem):
        assert aperture_error(aperture) == problem
        lo, hi = aperture
        makers = (
            lambda: ReconstructionConfig({"aperture.lo": lo, "aperture.hi": hi}),
            lambda: receiver_angles(8, aperture),
            lambda: ScatterRecord(
                3.0, LameSystem(1.0, 1.0, 1.0), (), np.zeros(0), np.zeros((0, 0, 2)), aperture
            ),
        )
        for make in makers:
            if problem:
                with pytest.raises(ConfigError, match=re.escape(problem)):
                    make()
            else:
                make()

    @pytest.mark.parametrize("key", ["lame.omega", "epsilon", "shape.radius", "rho"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected_with_key(self, key, value):
        with pytest.raises(ConfigError, match=f"{key}: must be finite"):
            ReconstructionConfig({key: value})

    def test_error_message_carries_field_path(self):
        with pytest.raises(ConfigError, match="guess.radius"):
            ReconstructionConfig({"guess.radius": 3.5})

    def test_unknown_dict_key_refused(self):
        with pytest.raises(ConfigError, match="^unknown key 'guess.radiuss'$"):
            ReconstructionConfig({"guess.radiuss": 2.0})

    @pytest.mark.parametrize("key, value", [
        ("r_policy.mode", "fixed"), ("r_policy.fraction", 0.4), ("damping", 1.0),
        ("reg", 1e-10), ("fit_reg", -1.0), ("stop.rule", "theoretical"),
        ("mfs.n_collocation", 96), ("mfs.n_charges", 48), ("mfs.shrink", 0.8),
    ])
    def test_removed_key_refused_by_file_and_dict(self, key, value):
        with pytest.raises(ConfigError, match=f"^line 1: unknown key '{re.escape(key)}'$"):
            parse_config_text(f"{key} = {value}")
        with pytest.raises(ConfigError, match=f"^unknown key '{re.escape(key)}'$"):
            ReconstructionConfig({key: value})

    @pytest.mark.parametrize("key, value", [
        ("np", 8.5), ("seed", 1.5), ("max_iter", 2.5), ("np", "8"), ("delta", "0.05"),
        ("np", True), ("delta", False), ("shape", 1), ("seed", None), ("np", np.float64(8.0)),
    ])
    def test_mistyped_value_refused_with_key(self, key, value):
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}: expected "):
            ReconstructionConfig({key: value})

    def test_numbers_stored_as_their_schema_type(self):
        cfg = ReconstructionConfig({
            "np": np.int64(6), "seed": np.uint8(3), "delta": np.float32(0.25),
            "guess.radius": 2, "rho": np.int32(4),
        })
        assert [(cfg[k], type(cfg[k])) for k in ("np", "seed", "delta", "guess.radius", "rho")] == [
            (6, int), (3, int), (0.25, float), (2.0, float), (4.0, float),
        ]
        assert json.loads(json.dumps(cfg.echo()))["seed"] == 3


class TestResolution:
    def test_r_policy_auto_fraction(self):
        cfg = ReconstructionConfig({"guess.radius": 2.0, "r_policy.value": 0.0})
        assert cfg.resolve_R() == pytest.approx(0.8)

    def test_r_policy_auto_clamped_low(self):
        cfg = ReconstructionConfig({"guess.radius": 0.2, "rho": 3.0})
        assert cfg.resolve_R() == pytest.approx(0.1)

    def test_r_policy_fixed(self):
        cfg = ReconstructionConfig({"r_policy.value": 0.45})
        assert cfg.resolve_R() == 0.45

    def test_truncation_modes(self):
        assert ReconstructionConfig({"delta": 0.05}).resolve_truncation() == 7
        fixed = ReconstructionConfig({"truncation.mode": "fixed", "truncation.n": 21})
        assert fixed.resolve_truncation() == 21
        theo = ReconstructionConfig(
            {"truncation.mode": "theoretical", "truncation.tau2": 2.0, "delta": 0.05}
        )
        assert theo.resolve_truncation() == 5

    @pytest.mark.parametrize("key, value, problem", [
        ("truncation.mode", "magic", "unknown truncation mode 'magic'"),
        ("truncation.n", -1, "fixed truncation.n must be >= 0"),
    ])
    def test_truncation_refused_when_called_directly(self, key, value, problem):
        # a validated config edited in place: resolve_truncation's own check
        cfg = ReconstructionConfig({"truncation.mode": "fixed", "truncation.n": 3})
        object.__setattr__(cfg, "raw", {**cfg.raw, key: value})
        with pytest.raises(ValueError, match=re.escape(problem)):
            cfg.resolve_truncation()

    def test_fit_reg_auto(self):
        assert ReconstructionConfig({"delta": 0.0, "truncation.mode": "fixed",
                                     "truncation.n": 5}).resolve_fit_reg() == 1e-8
        assert ReconstructionConfig({"delta": 0.05}).resolve_fit_reg() == pytest.approx(0.1)

    def test_mfs_params_by_shape(self):
        assert ReconstructionConfig({"shape": "kite"}).mfs_params() == (512, 256, 0.92)
        assert ReconstructionConfig({"shape": "disk"}).mfs_params() == (128, 64, 0.6)

    def test_echo_is_sorted_and_complete(self):
        echo = ReconstructionConfig({}).echo()
        assert list(echo) == sorted(echo)
        assert "lame.omega" in echo


class TestMakeShape:
    def test_named_shapes(self):
        assert make_shape(ReconstructionConfig({"shape": "kite"})).name == "kite"
        assert make_shape(ReconstructionConfig({"shape": "starfish"})).name == "starfish"
        disk_curve = make_shape(ReconstructionConfig({"shape": "disk", "shape.radius": 1.5}))
        assert disk_curve.max_radius() == pytest.approx(1.5)

    def test_custom_trig_curve(self):
        cfg = ReconstructionConfig(
            {"shape": "custom", "shape.coeffs": "1.4, 0.2, 0.0, 0.1, 0.05"}
        )
        curve = make_shape(cfg)
        r = np.linalg.norm(curve.point(0.0))
        assert r == pytest.approx(1.4 + 0.2)

    def test_custom_needs_odd_coefficients(self):
        with pytest.raises(ConfigError):
            ReconstructionConfig({"shape": "custom", "shape.coeffs": "1.0, 0.1"})

    def test_unknown_name_refused_when_called_directly(self):
        with pytest.raises(ValueError, match="unknown shape 'pentagon'"):
            make_shape({"shape": "pentagon"})


class TestMakeRecord:
    @pytest.mark.parametrize("values,truth,mfs,aperture", [
        ({"shape": "disk", "shape.radius": 1.2}, lambda: disk(1.2), (128, 64, 0.6),
         (0.0, 2.0 * math.pi)),
        ({"shape": "starfish", "aperture.lo": 5.0, "aperture.hi": 9.0}, starfish,
         (384, 192, 0.85), (5.0, 9.0)),
    ], ids=["disk", "wrapped_arc_starfish"])
    def test_equals_explicit_simulate(self, values, truth, mfs, aperture):
        cfg = ReconstructionConfig({
            **values, "rho": 2.5, "n_sources": 3, "n_receivers": 24,
            "polarization.x": 1.0, "polarization.y": 0.0,
        })
        ref_log = []
        sol = solve_truth(cfg)
        rec = make_record(cfg, sol)
        log = [float(r) for r in sol.residuals]
        n_col, n_chg, shrink = mfs
        ref = simulate(
            truth(), ring_sources(3, 2.5, (1.0, 0.0)), LameSystem(1.0, 1.0, 5.0), 2.5, 24,
            aperture=aperture, n_collocation=n_col, n_charges=n_chg, shrink=shrink,
            warn_above=None, residual_log=ref_log,
        )
        assert (rec.rho, rec.sys, rec.sources, rec.aperture) == (
            ref.rho, ref.sys, ref.sources, ref.aperture
        )
        assert np.array_equal(rec.receivers, ref.receivers)
        assert np.array_equal(rec.values, ref.values)
        assert log == ref_log and len(log) == 3

    def test_disk_series_equals_record_from_disk_series(self):
        cfg = ReconstructionConfig({
            "shape": "disk", "rho": 2.5, "n_sources": 3, "n_receivers": 24,
            "aperture.lo": 5.0, "aperture.hi": 9.0,
        })
        srcs = ring_sources(3, 2.5, cfg.polarization)
        rec = make_record(cfg, disk_series(1.0, srcs, cfg.sys))
        ref = record_from_disk_series(1.0, srcs, cfg.sys, 2.5, 24, (5.0, 9.0))
        assert (rec.rho, rec.sys, rec.sources, rec.aperture) == (
            ref.rho, ref.sys, ref.sources, ref.aperture
        )
        assert np.array_equal(rec.receivers, ref.receivers)
        assert np.array_equal(rec.values, ref.values)
