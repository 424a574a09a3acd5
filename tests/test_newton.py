"""Boundary parameterization, linearized system and the full iteration."""

import json

import numpy as np
import pytest

from elshape.config import ReconstructionConfig
from elshape.elastic import LameSystem, PointSource, grad_incident_field, incident_field
from elshape.errors import ConfigError, DomainError, SolveError
from elshape.forward import record_from_disk_series, ring_sources
from elshape.modal import ModalField, eval_field, eval_gradient, extract_field, modal_rhs, solve_modal
from elshape.newton import (
    ReconRun,
    StarCurve,
    assemble_system,
    basis_matrix,
    basis_row,
    newton_step,
    reconstruct,
    relative_update,
)

SYS5 = LameSystem(1.0, 1.0, 5.0)
SYS1 = LameSystem(1.0, 1.0, 1.0)
POL = (np.sqrt(0.5), np.sqrt(0.5))


class TestBasis:
    def test_row_at_zero(self):
        assert np.array_equal(basis_row(0.0, 2), [1.0, 1.0, 1.0, 0.0, 0.0])

    def test_orthogonality_gram(self):
        t = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
        b = basis_matrix(t, 8)
        gram = b.T @ b / t.size
        want = np.diag([1.0] + [0.5] * 16)
        assert np.max(np.abs(gram - want)) <= 1e-13

    def test_circle_reconstruction(self):
        curve = StarCurve.circle(1.5, 4)
        t = np.linspace(0.0, 2.0 * np.pi, 37)
        assert np.max(np.abs(curve.radius(t) - 1.5)) == 0.0


class TestRelativeUpdate:
    def test_zero_update(self):
        c = StarCurve.circle(1.5, 3).coeffs
        assert relative_update(np.zeros_like(c), c) == 0.0

    def test_full_update(self):
        c = StarCurve.circle(1.5, 3).coeffs
        assert relative_update(c, c) == pytest.approx(1.0)

    def test_gram_weighted_example(self):
        # r = 1.5, dr = 0.15 cos t: ratio = (0.15/sqrt(2)) / 1.5
        c = StarCurve.circle(1.5, 2).coeffs
        dc = np.array([0.0, 0.15, 0.0, 0.0, 0.0])
        assert relative_update(dc, c) == pytest.approx(0.15 / np.sqrt(2.0) / 1.5, rel=1e-14)

    def test_zero_curve_rejected(self):
        with pytest.raises(DomainError):
            relative_update(np.ones(5), np.zeros(5))


class TestNewtonStep:
    def test_identity_system(self):
        a = np.eye(5)
        rhs = np.zeros(5)
        rhs[0] = 1.0
        dc = newton_step(a, rhs, damping=1.0, reg=0.0)
        assert np.allclose(dc, [-1.0, 0.0, 0.0, 0.0, 0.0])
        dc_damped = newton_step(a, rhs, damping=0.25, reg=0.0)
        assert np.allclose(dc_damped, [-0.25, 0.0, 0.0, 0.0, 0.0])

    def test_huge_ridge_freezes_step(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(20, 5))
        rhs = rng.normal(size=20)
        dc = newton_step(a, rhs, damping=1.0, reg=1e12)
        assert np.max(np.abs(dc)) <= 1e-10

    def test_underdetermined_rejected(self):
        with pytest.raises(SolveError):
            newton_step(np.ones((3, 5)), np.ones(3))

    def test_singular_without_ridge_rejected(self):
        a = np.zeros((8, 3))
        a[:, 0] = 1.0  # rank 1
        with pytest.raises(SolveError):
            newton_step(a, np.ones(8), reg=0.0)
        # with a ridge the same system is solvable
        dc = newton_step(a, np.ones(8), reg=1e-6)
        assert np.all(np.isfinite(dc))


@pytest.fixture(scope="module")
def disk_setup():
    """Analytic single-source disk data with an N=25 modal field."""
    src = PointSource((3.0, 0.0), POL)
    rec = record_from_disk_series(1.0, (src,), SYS5, 3.0, 128)
    field = solve_modal(modal_rhs(rec, 25), 3.0, 0.5, SYS5)
    return rec, field, (src,)


class TestAssembleSystem:
    def test_dimensions(self, disk_setup):
        _, field, srcs = disk_setup
        t_grid = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        a, rhs = assemble_system(field, srcs, StarCurve.circle(1.5, 8), t_grid, SYS5)
        assert a.shape == (4 * 1 * 64, 17)
        assert rhs.shape == (4 * 1 * 64,)

    def test_residual_small_on_true_boundary(self, disk_setup):
        # the inward continuation amplifies the receiver-grid rounding
        # floor by ~(rho/r)^N ~ 8e11 at N=25, so ~6e-5 is the honest level
        _, field, srcs = disk_setup
        t_grid = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        _, rhs = assemble_system(field, srcs, StarCurve.circle(1.0, 8), t_grid, SYS5)
        assert np.max(np.abs(rhs)) <= 1e-4

    def test_zero_step_iff_zero_rhs(self, disk_setup):
        _, field, srcs = disk_setup
        t_grid = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        a, rhs = assemble_system(field, srcs, StarCurve.circle(1.3, 8), t_grid, SYS5)
        dc = newton_step(a, np.zeros_like(rhs), reg=0.0)
        assert np.max(np.abs(dc)) == 0.0
        dc2 = newton_step(a, rhs, reg=0.0)
        assert np.max(np.abs(dc2)) > 0.0

    def test_quadrature_refinement_stable(self, disk_setup):
        _, field, srcs = disk_setup
        curve = StarCurve.circle(1.2, 8)
        sols = []
        for m in (64, 128):
            t_grid = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
            a, rhs = assemble_system(field, srcs, curve, t_grid, SYS5)
            sols.append(newton_step(a, rhs, reg=0.0))
        assert np.max(np.abs(sols[0] - sols[1])) <= 1e-6

    def test_point_inside_expansion_disk_named(self, disk_setup):
        _, field, srcs = disk_setup
        t_grid = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
        with pytest.raises(DomainError):
            assemble_system(field, srcs, StarCurve.circle(0.4, 8), t_grid, SYS5)


    def test_rows_stack_per_source_linearizations(self):
        # reference: the linearization built one source at a time
        srcs = ring_sources(3, 3.0, POL)
        rec = record_from_disk_series(1.0, srcs, SYS5, 3.0, 128)
        field = extract_field(rec, 10, 0.5)
        curve = StarCurve.circle(1.3, 4)
        t_grid = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
        a, rhs = assemble_system(field, srcs, curve, t_grid, SYS5)

        pts = curve.point(t_grid)
        xhat = np.stack([np.cos(t_grid), np.sin(t_grid)], axis=-1)
        basis = basis_matrix(t_grid, 4)
        rows_a, rows_r = [], []
        for i, src in enumerate(srcs):
            row = ModalField(
                N=10, R=0.5, rho=3.0, sys=SYS5,
                phat_p=field.phat_p[i], phat_s=field.phat_s[i],
            )
            u = eval_field(row, pts) + incident_field(pts, src, SYS5)
            jac = eval_gradient(row, pts) + grad_incident_field(pts, src, SYS5)
            du = np.einsum("pij,pj->pi", jac, xhat)
            rows_a.append((du[:, :, None] * basis[:, None, :]).reshape(-1, basis.shape[1]))
            rows_r.append(u.reshape(-1))
        a_c, r_c = np.concatenate(rows_a), np.concatenate(rows_r)
        want_a = np.concatenate([a_c.real, a_c.imag])
        want_r = np.concatenate([r_c.real, r_c.imag])
        assert np.max(np.abs(a - want_a)) <= 1e-12 * np.max(np.abs(want_a))
        assert np.max(np.abs(rhs - want_r)) <= 1e-12 * np.max(np.abs(want_r))

    def test_mixed_polarizations_refused(self, disk_setup):
        _, field, (src,) = disk_setup
        other = PointSource(src.location, (1.0, 0.0))
        t_grid = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
        with pytest.raises(ConfigError):
            assemble_system(field, (src, other), StarCurve.circle(1.5, 8), t_grid, SYS5)


class TestOneStepContraction:
    @pytest.mark.parametrize("err0", [0.05, 0.1, 0.2])
    def test_disk_radius_error_contracts(self, err0):
        src = PointSource((3.0, 0.0), POL)
        rec = record_from_disk_series(1.0, (src,), SYS5, 3.0, 128)
        field = solve_modal(modal_rhs(rec, 25), 3.0, 0.5, SYS5)
        t_grid = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        start = StarCurve.circle(1.0 + err0, 8)
        a, rhs = assemble_system(field, (src,), start, t_grid, SYS5)
        dc = newton_step(a, rhs, damping=1.0, reg=1e-10)
        new_err = abs(start.coeffs[0] + dc[0] - 1.0)
        assert new_err <= 0.6 * err0

    def test_step_moves_toward_truth_from_far_guess(self):
        # low frequency: radius-2 guess is inside the Newton basin
        src = PointSource((3.0, 0.0), POL)
        rec = record_from_disk_series(1.0, (src,), SYS1, 3.0, 128)
        field = solve_modal(modal_rhs(rec, 15), 3.0, 0.8, SYS1)
        t_grid = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        start = StarCurve.circle(2.0, 8)
        a, rhs = assemble_system(field, (src,), start, t_grid, SYS1)
        dc = newton_step(a, rhs, damping=1.0, reg=1e-10)
        assert abs(2.0 + dc[0] - 1.0) < 1.0


def disk_config(**overrides):
    values = {
        "shape": "disk",
        "shape.radius": 1.0,
        "lame.omega": 1.0,
        "delta": 0.0,
        "guess.radius": 2.0,
        "truncation.mode": "fixed",
        "truncation.n": 15,
        "max_iter": 15,
    }
    values.update(overrides)
    return ReconstructionConfig(values)


@pytest.fixture(scope="module")
def disk_record():
    cfg = disk_config()
    srcs = ring_sources(cfg["n_sources"], cfg["rho"], cfg.polarization)
    return record_from_disk_series(1.0, srcs, cfg.sys, cfg["rho"], cfg["n_receivers"])


class TestReconstruct:
    def test_noisefree_disk_converges(self, disk_record):
        run = reconstruct(disk_record, disk_config())
        assert run.termination == "converged"
        assert run.iterations <= 15
        c = run.final.coeffs
        assert abs(c[0] - 1.0) <= 0.005
        assert np.max(np.abs(c[1:])) <= 0.01

    def test_converged_iff_last_update_below_epsilon(self, disk_record):
        run = reconstruct(disk_record, disk_config())
        assert run.e_history[-1] < disk_config()["epsilon"]
        short = reconstruct(disk_record, disk_config(max_iter=2))
        assert short.termination == "max_iterations"
        assert short.e_history[-1] >= disk_config()["epsilon"]

    def test_zero_iterations_returns_guess(self, disk_record):
        run = reconstruct(disk_record, disk_config(max_iter=0))
        assert run.termination == "max_iterations"
        assert run.iterations == 0
        assert len(run.curves) == 1
        assert run.final.coeffs[0] == 2.0

    def test_expansion_disk_collision_diverges(self, disk_record):
        cfg = disk_config(**{"r_policy.mode": "fixed", "r_policy.value": 1.9})
        run = reconstruct(disk_record, cfg)
        assert run.termination == "diverged"

    def test_modal_failure_on_unresolvable_record(self):
        cfg = disk_config(n_receivers=8, **{"truncation.n": 7})
        srcs = ring_sources(cfg["n_sources"], cfg["rho"], cfg.polarization)
        rec = record_from_disk_series(1.0, srcs, cfg.sys, cfg["rho"], 8)
        run = reconstruct(rec, cfg)
        assert run.termination == "modal_failure"
        assert run.iterations == 0

    def test_mismatched_rho_refused(self, disk_record):
        with pytest.raises(ConfigError):
            reconstruct(disk_record, disk_config(rho=4.0, **{"guess.radius": 2.0}))

    def test_deterministic_runs_byte_identical(self, disk_record, tmp_path):
        cfg = disk_config(delta=0.02, seed=5)
        a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
        reconstruct(disk_record, cfg).save(a_path)
        reconstruct(disk_record, cfg).save(b_path)
        assert a_path.read_bytes() == b_path.read_bytes()

    def test_run_roundtrip(self, disk_record, tmp_path):
        run = reconstruct(disk_record, disk_config())
        path = tmp_path / "run.json"
        run.save(path)
        back = ReconRun.from_json_dict(json.loads(path.read_text()))
        assert back.termination == run.termination
        assert back.e_history == run.e_history
        assert np.array_equal(back.final.coeffs, run.final.coeffs)


def test_wrapped_aperture_reconstruction():
    """A wrapped arc like [5pi/4, 11pi/4) expresses a union of angle
    intervals; the whole pipeline (receiver layout, arc fit, metrics)
    must handle it."""
    import warnings

    from elshape.forward import simulate
    from elshape.geometry import starfish
    from elshape.metrics import arc_hausdorff

    arc = (5 * np.pi / 4.0, 11 * np.pi / 4.0)
    cfg = ReconstructionConfig({
        "shape": "starfish", "delta": 0.05, "seed": 7, "guess.radius": 1.5,
        "n_sources": 10, "n_receivers": 96, "max_iter": 25,
        "aperture.lo": arc[0], "aperture.hi": arc[1],
    })
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rec = simulate(
            starfish(), ring_sources(10, 3.0, cfg.polarization), cfg.sys, 3.0, 96,
            aperture=arc, n_collocation=256, n_charges=128, shrink=0.85,
            warn_above=None,
        )
    assert not rec.is_full_aperture
    assert np.all(np.diff(rec.receivers) > 0)
    run = reconstruct(rec, cfg)
    assert run.termination in ("converged", "max_iterations")
    assert arc_hausdorff(run.final.as_curve(), starfish(), arc) <= 0.35
