"""Boundary parameterization, linearized system and the full iteration."""

import json

import numpy as np
import pytest

from elshape import newton
from elshape.config import ReconstructionConfig, make_record, solve_truth
from elshape.elastic import LameSystem, PointSource, grad_incident_field, incident_field
from elshape.errors import ConfigError, DomainError, SolveError
from elshape.forward import record_from_disk_series, ring_sources
from elshape.geometry import starfish
from elshape.metrics import curve_hausdorff
from elshape.modal import ModalField, eval_field, eval_gradient, extract_field, modal_rhs, solve_modal
from elshape.newton import (
    StarCurve,
    assemble_system,
    basis_matrix,
    gram_norm,
    newton_step,
    reconstruct,
    relative_update,
)

SYS5 = LameSystem(1.0, 1.0, 5.0)
SYS1 = LameSystem(1.0, 1.0, 1.0)
POL = (np.sqrt(0.5), np.sqrt(0.5))


class TestBasis:
    def test_row_at_zero(self):
        assert np.array_equal(basis_matrix(0.0, 2)[0], [1.0, 1.0, 1.0, 0.0, 0.0])

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
        dc = newton_step(a, rhs)
        assert np.allclose(dc, [-1.0, 0.0, 0.0, 0.0, 0.0])

    def test_underdetermined_rejected(self):
        with pytest.raises(SolveError):
            newton_step(np.ones((3, 5)), np.ones(3))

    def test_rank_one_system_gives_finite_step(self):
        # the STEP_REG ridge keeps a singular system solvable
        a = np.zeros((8, 3))
        a[:, 0] = 1.0  # rank 1
        dc = newton_step(a, np.ones(8))
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
        a, rhs = assemble_system(field, srcs, StarCurve.circle(1.5, 8), t_grid)
        assert a.shape == (64 + 1, 17)
        assert rhs.shape == (64 + 1,)

    def test_residual_small_on_true_boundary(self, disk_setup):
        # the inward continuation amplifies the receiver-grid rounding
        # floor by ~(rho/r)^N ~ 8e11 at N=25, so ~6e-5 is the honest level
        _, field, srcs = disk_setup
        t_grid = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        curve = StarCurve.circle(1.0, 8)
        _, rhs = assemble_system(field, srcs, curve, t_grid)
        pts = curve.point(t_grid)
        u = eval_field(field, pts) + incident_field(pts, srcs, SYS5)
        assert np.max(np.abs(u)) <= 1e-4
        # the remainder entry keeps ||rhs|| equal to the full residual ||u||
        assert abs(np.linalg.norm(rhs) - np.linalg.norm(u)) <= 1e-12 * np.linalg.norm(u)

    def test_zero_step_iff_zero_rhs(self, disk_setup):
        _, field, srcs = disk_setup
        t_grid = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        a, rhs = assemble_system(field, srcs, StarCurve.circle(1.3, 8), t_grid)
        dc = newton_step(a, np.zeros_like(rhs))
        assert np.max(np.abs(dc)) == 0.0
        dc2 = newton_step(a, rhs)
        assert np.max(np.abs(dc2)) > 0.0

    def test_quadrature_refinement_stable(self, disk_setup):
        _, field, srcs = disk_setup
        curve = StarCurve.circle(1.2, 8)
        sols = []
        for m in (64, 128):
            t_grid = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
            a, rhs = assemble_system(field, srcs, curve, t_grid)
            sols.append(newton_step(a, rhs))
        assert np.max(np.abs(sols[0] - sols[1])) <= 1e-6

    def test_point_inside_expansion_disk_named(self, disk_setup):
        _, field, srcs = disk_setup
        t_grid = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
        with pytest.raises(DomainError):
            assemble_system(field, srcs, StarCurve.circle(0.4, 8), t_grid)


    def test_rows_stack_per_source_linearizations(self):
        # reference: the full 4 S P-row linearization built one source at a
        # time; the reduced system must give its step, spectrum and residual
        srcs = ring_sources(3, 3.0, POL)
        rec = record_from_disk_series(1.0, srcs, SYS5, 3.0, 128)
        field = extract_field(rec, 10, 0.5)
        curve = StarCurve.circle(1.3, 4)
        t_grid = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
        a, rhs = assemble_system(field, srcs, curve, t_grid)

        pts = curve.point(t_grid)
        xhat = np.stack([np.cos(t_grid), np.sin(t_grid)], axis=-1)
        basis = basis_matrix(t_grid, 4)
        rows_a, rows_r = [], []
        for i, src in enumerate(srcs):
            row = ModalField(
                N=10, R=0.5, rho=3.0, sys=SYS5,
                phat_p=field.phat_p[i], phat_s=field.phat_s[i],
            )
            u = eval_field(row, pts) + incident_field(pts, (src,), SYS5)[0]
            jac = eval_gradient(row, pts) + grad_incident_field(pts, (src,), SYS5)[0]
            du = np.einsum("pij,pj->pi", jac, xhat)
            rows_a.append((du[:, :, None] * basis[:, None, :]).reshape(-1, basis.shape[1]))
            rows_r.append(u.reshape(-1))
        a_c, r_c = np.concatenate(rows_a), np.concatenate(rows_r)
        want_a = np.concatenate([a_c.real, a_c.imag])
        want_r = np.concatenate([r_c.real, r_c.imag])

        want = newton_step(want_a, want_r)
        got = newton_step(a, rhs)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        s_want = np.linalg.svd(want_a, compute_uv=False)
        s_got = np.linalg.svd(a, compute_uv=False)
        assert np.max(np.abs(s_got - s_want)) <= 1e-13 * s_want[0]
        rng = np.random.default_rng(7)
        for dc in rng.normal(size=(5, basis.shape[1])):
            want_norm = np.linalg.norm(want_a @ dc + want_r)
            got_norm = np.linalg.norm(a @ dc + rhs)
            assert abs(got_norm - want_norm) <= 1e-12 * want_norm

    def test_mixed_polarizations(self):
        # sources with different polarizations: ||rhs|| is the full residual
        # ||u|| with u built from per-source incident_field calls
        srcs = (PointSource((3.0, 0.0), POL), PointSource((0.0, 3.0), (1.0, 0.0)))
        rec = record_from_disk_series(1.0, srcs, SYS5, 3.0, 128)
        field = extract_field(rec, 10, 0.5)
        curve = StarCurve.circle(1.3, 4)
        t_grid = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
        _, rhs = assemble_system(field, srcs, curve, t_grid)
        pts = curve.point(t_grid)
        u = eval_field(field, pts) + np.concatenate([incident_field(pts, (s,), SYS5) for s in srcs])
        assert abs(np.linalg.norm(rhs) - np.linalg.norm(u)) <= 1e-12 * np.linalg.norm(u)


class TestOneStepContraction:
    @pytest.mark.parametrize("err0", [0.05, 0.1, 0.2])
    def test_disk_radius_error_contracts(self, err0):
        src = PointSource((3.0, 0.0), POL)
        rec = record_from_disk_series(1.0, (src,), SYS5, 3.0, 128)
        field = solve_modal(modal_rhs(rec, 25), 3.0, 0.5, SYS5)
        t_grid = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        start = StarCurve.circle(1.0 + err0, 8)
        a, rhs = assemble_system(field, (src,), start, t_grid)
        dc = newton_step(a, rhs)
        new_err = abs(start.coeffs[0] + dc[0] - 1.0)
        assert new_err <= 0.6 * err0

    def test_step_moves_toward_truth_from_far_guess(self):
        # low frequency: radius-2 guess is inside the Newton basin
        src = PointSource((3.0, 0.0), POL)
        rec = record_from_disk_series(1.0, (src,), SYS1, 3.0, 128)
        field = solve_modal(modal_rhs(rec, 15), 3.0, 0.8, SYS1)
        t_grid = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        start = StarCurve.circle(2.0, 8)
        a, rhs = assemble_system(field, (src,), start, t_grid)
        dc = newton_step(a, rhs)
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

    def test_zero_c1_keeps_the_relative_stop(self, disk_record):
        run = reconstruct(disk_record, disk_config(**{"stop.c1": 0.0}))
        assert run.termination == "converged" and run.iterations == 5
        assert run.e_history[-1] < run.config["epsilon"] <= min(run.e_history[:-1])

    def test_large_c1_converges_after_one_iterate(self, disk_record):
        run = reconstruct(disk_record, disk_config(**{"stop.c1": 100.0}))
        assert (run.termination, run.iterations, len(run.curves)) == ("converged", 1, 2)

    @pytest.mark.parametrize("c1, iterations", [(1e-2, 4), (1e-6, 6)])
    def test_positive_c1_stops_at_first_step_below_it(self, disk_record, c1, iterations):
        # the relative rule stops this run after 5 iterates
        run = reconstruct(disk_record, disk_config(**{"stop.c1": c1}))
        steps = [gram_norm(b.coeffs - a.coeffs) for a, b in zip(run.curves, run.curves[1:])]
        assert (run.termination, run.iterations) == ("converged", iterations)
        assert steps[-1] < c1 <= min(steps[:-1])

    def test_zero_iterations_returns_guess(self, disk_record):
        run = reconstruct(disk_record, disk_config(max_iter=0))
        assert run.termination == "max_iterations"
        assert run.iterations == 0
        assert len(run.curves) == 1
        assert run.final.coeffs[0] == 2.0

    def test_expansion_disk_collision_diverges(self, disk_record):
        cfg = disk_config(**{"r_policy.value": 1.9})
        run = reconstruct(disk_record, cfg)
        assert run.termination == "diverged"

    def test_failed_step_diverges_with_its_message(self, disk_record, monkeypatch):
        def refuse(a, rhs):
            raise SolveError("step refused")

        monkeypatch.setattr(newton, "newton_step", refuse)
        run = reconstruct(disk_record, disk_config())
        assert (run.termination, run.iterations, run.note) == ("diverged", 0, "step refused")

    def test_huge_update_diverges_after_one_iterate(self, disk_record, monkeypatch):
        # a0: 2 -> 102 stays admissible, but the relative update 100 / 2 = 50
        # exceeds the divergence guard
        monkeypatch.setattr(
            newton, "newton_step", lambda a, rhs: np.eye(a.shape[1])[0] * 100.0
        )
        run = reconstruct(disk_record, disk_config())
        assert (run.termination, run.e_history) == ("diverged", (50.0,))

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

    @pytest.mark.parametrize("key, value, record", [
        ("lame.omega", 2.0, 1.0), ("lame.lambda", 1.5, 1.0), ("lame.mu", 0.5, 1.0),
    ])
    def test_mismatched_medium_refused(self, disk_record, key, value, record):
        # the field is extracted in the record's medium, so a run in another
        # one would mix two media instead of reconstructing either
        with pytest.raises(ConfigError, match=f"{key}: record {record!r} vs config {value!r}"):
            reconstruct(disk_record, disk_config(**{key: value}))

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
        doc = json.loads(path.read_text())
        assert doc["termination"] == run.termination
        assert doc["iterations"] == run.iterations
        assert doc["e_history"] == list(run.e_history)
        assert doc["coefficients"] == [c.coeffs.tolist() for c in run.curves]
        assert doc["config"] == run.config
        assert doc["note"] == run.note


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


@pytest.fixture(scope="module")
def starfish_truth():
    """Noise-free starfish at omega = 5 at its MFS resolution: config,
    solution and full-aperture record."""
    cfg = ReconstructionConfig({
        "shape": "starfish", "lame.omega": 5.0, "delta": 0.0,
        "truncation.mode": "fixed", "truncation.n": 7,
    })
    sol = solve_truth(cfg)
    return cfg, sol, make_record(cfg, sol)


class TestOneCentreExpansionOnTheStarfish:
    """The origin-centred modal expansion does not represent the starfish's
    scattered field on its boundary, so the iteration minimizes a
    functional whose minimizer is not the truth.  Both tests pin that
    defect and XPASS once a representation valid on the boundary lands."""

    @pytest.mark.xfail(
        strict=True,
        reason="the one-centre expansion diverges on the starfish boundary: "
        "relative L2 error against the MFS field on 256 boundary points is "
        "0.871, 1.243, 3.06, 12.6 at N = 4, 7, 10, 14 (noise-free, omega = 5)",
    )
    def test_boundary_error_falls_with_the_order(self, starfish_truth):
        _, sol, rec = starfish_truth
        pts = starfish().sample(256)
        ref = sol.eval(pts)
        errs = [
            np.linalg.norm(eval_field(extract_field(rec, N, 0.6, 1e-8), pts) - ref)
            / np.linalg.norm(ref)
            for N in (4, 7, 10, 14)
        ]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert errs[-1] <= 0.05

    @pytest.mark.xfail(
        strict=True,
        reason="noise-free starfish at omega = 5 with N = 7 ends converged "
        "after 6 iterates at Hausdorff 0.229; the initial circle is at 0.300",
    )
    def test_noise_free_reconstruction_reaches_the_truth(self, starfish_truth):
        cfg, _, rec = starfish_truth
        run = reconstruct(rec, cfg)
        assert curve_hausdorff(run.final.as_curve(), starfish()) <= 0.05
