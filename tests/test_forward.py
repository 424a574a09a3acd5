"""Forward data generation: MFS solver, analytic disk oracle, noise model."""

import json

import numpy as np
import pytest

from elshape import elastic, forward, modal, specfun
from elshape.elastic import LameSystem, PointSource, incident_field
from elshape.config import _MFS_BY_SHAPE
from elshape.errors import ConfigError, DomainError, SolveError
from elshape.forward import (
    add_noise,
    boundary_residual,
    disk_series,
    noise_perturbation,
    receiver_angles,
    record_from_disk_series,
    ring_sources,
    simulate,
    solve_mfs,
)
from elshape.geometry import ParametricCurve, StarCurve, disk, kite, starfish
from elshape.modal import ModalField, _tables, eval_field
from elshape.records import FULL_APERTURE, ScatterRecord

SYS5 = LameSystem(1.0, 1.0, 5.0)
SYS1 = LameSystem(1.0, 1.0, 1.0)
POL = (np.sqrt(0.5), np.sqrt(0.5))
SRC = PointSource((3.0, 0.0), POL)


#: rotation by 0.3 rad: no shipped curve is symmetric about the turned x-axis
TURN = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])


def turned(curve):
    """The curve rotated by TURN about the origin."""
    return ParametricCurve(curve.cos @ TURN.T, curve.sin @ TURN.T, curve.name)


def circle_points(rho, n):
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return rho * np.stack([np.cos(t), np.sin(t)], axis=-1)


class TestSolveMfs:
    def test_boundary_residual_on_refined_grid(self):
        # the charge-lattice representation floor is ~shrink^n_charges,
        # i.e. 0.8^64 ~ 3e-7, so reaching 1e-8 with 64 charges needs a
        # deeper charge curve
        sol = solve_mfs(disk(1.0), (SRC,), SYS5, 128, 64, 0.7)
        assert boundary_residual(sol, disk(1.0), 512) <= 1e-8
        sol8 = solve_mfs(disk(1.0), (SRC,), SYS5, 128, 64, 0.8)
        assert boundary_residual(sol8, disk(1.0), 512) <= 1e-6

    def test_low_resolution_kite_warns(self):
        with pytest.warns(UserWarning, match="MFS collocation residual"):
            solve_mfs(kite(), (SRC,), SYS5, 128, 64, 0.8)

    def test_matches_disk_series_on_measurement_circle(self):
        sol = solve_mfs(disk(1.0), (SRC,), SYS5, 128, 64, 0.8)
        pts = circle_points(3.0, 128)
        v_m = sol.eval(pts)
        v_s = disk_series(1.0, (SRC,), SYS5, 40).eval(pts)
        rel = np.sqrt(np.sum(np.abs(v_m - v_s) ** 2)) / np.sqrt(np.sum(np.abs(v_s) ** 2))
        assert rel <= 1e-6

    def test_zero_polarization_gives_zero_strengths(self):
        src0 = PointSource((3.0, 0.0), (0.0, 0.0))
        sol = solve_mfs(disk(1.0), (src0,), SYS5, 128, 64, 0.7)
        assert np.max(np.abs(sol.strengths)) == 0.0

    def test_no_interstitial_blowup(self):
        sol = solve_mfs(disk(1.0), (SRC,), SYS5, 128, 64, 0.7)
        fine = boundary_residual(sol, disk(1.0), 512)
        assert fine <= 10.0 * max(sol.residual, 1e-16)

    def test_source_inside_rejected(self):
        with pytest.raises(ConfigError):
            solve_mfs(disk(1.0), (PointSource((0.2, 0.0), POL),), SYS5, 64, 32, 0.7)

    def test_bad_shrink_rejected(self):
        with pytest.raises(ConfigError):
            solve_mfs(disk(1.0), (SRC,), SYS5, 64, 32, 1.2)

    @pytest.mark.parametrize("n_col, n_chg", [(4, 0), (0, 0), (8, -1)])
    @pytest.mark.parametrize("route", ["solve_mfs", "simulate"])
    def test_no_charge_refused_before_the_solve(self, monkeypatch, route, n_col, n_chg):
        def unreachable(*args, **kwargs):
            raise AssertionError("the collocation system was built")

        monkeypatch.setattr(forward, "green_tensor", unreachable)
        monkeypatch.setattr(forward, "incident_field", unreachable)
        srcs = ring_sources(2, 3.0, (1.0, 0.0))
        with pytest.raises(ConfigError, match="at least one charge"):
            if route == "solve_mfs":
                solve_mfs(disk(1.0), srcs, SYS1, n_col, n_chg, shrink=0.7, warn_above=None)
            else:
                simulate(disk(1.0), srcs, SYS1, 3.0, 16, n_collocation=n_col, n_charges=n_chg,
                         shrink=0.7, warn_above=None)


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
            one = solve_mfs(starfish(), (src,), SYS5, 192, 96, 0.85, warn_above=None)
            assert rel_max(batched.strengths[i], one.strengths[0]) <= 1e-10
            assert rel_max(values[i], one.eval(pts)[0]) <= 1e-10
            assert batched.residuals[i] == pytest.approx(one.residual, rel=1e-6)
        assert batched.residual == max(batched.residuals)

    def test_one_source_keeps_source_axis(self):
        sol = solve_mfs(disk(1.0), (SRC,), SYS5, 64, 32, 0.7, warn_above=None)
        assert sol.strengths.shape == (1, 32, 2)
        assert sol.residuals.shape == (1,)
        assert isinstance(sol.residual, float)
        assert sol.eval(circle_points(3.0, 5)).shape == (1, 5, 2)
        assert sol.eval(np.array([3.0, 1.0])).shape == (1, 2)

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
            boundary_residual(solve_mfs(disk(1.0), (s,), SYS5, 128, 64, 0.8), disk(1.0), 512)
            for s in srcs
        ]
        assert max(single) <= 1e-6
        got = boundary_residual(sol, disk(1.0), 512)
        assert got == pytest.approx(max(single), rel=1e-6)


def lstsq_reference(curve, srcs, sys, n_collocation, n_charges, shrink):
    """The MFS fit through the truncated-SVD least squares of LAPACK gelsd:
    charges laid out as in solve_mfs, (strengths, residuals)."""
    centroid = curve.centroid()
    t_chg = np.linspace(0.0, 2.0 * np.pi, n_charges, endpoint=False)
    charges = centroid + shrink * (curve.point(t_chg) - centroid)
    colloc = curve.point(np.linspace(0.0, 2.0 * np.pi, n_collocation, endpoint=False))
    a = forward._charge_matrix(colloc, charges, sys)
    b = -incident_field(colloc, srcs, sys).reshape(len(srcs), -1).T
    coef = np.linalg.lstsq(a, b, rcond=1e-12)[0]
    return coef.T.reshape(len(srcs), n_charges, 2), np.max(np.abs(a @ coef - b), axis=0)


class TestQrSolve:
    """One QR of [A | B] in place of the SVD: the same fields, no truncation."""

    @pytest.mark.parametrize(
        "curve, sys, mfs",
        [(disk(1.0), SYS1, _MFS_BY_SHAPE["disk"]),
         (starfish(), SYS5, _MFS_BY_SHAPE["starfish"]),
         (kite(), SYS5, _MFS_BY_SHAPE["kite"])],
        ids=["disk", "starfish", "kite"],
    )
    def test_matches_svd_reference(self, curve, sys, mfs):
        srcs = ring_sources(20, 3.0, POL)
        sol = solve_mfs(curve, srcs, sys, *mfs, warn_above=None)
        strengths, residuals = lstsq_reference(curve, srcs, sys, *mfs)
        ref = forward.MfsSolution(sol.charges, strengths, residuals, sys, srcs)
        pts = disk(3.0).point(receiver_angles(128))
        assert rel_max(sol.eval(pts), ref.eval(pts)) <= 1e-9
        # the disk's residuals (~2.5e-13) sit at the roundoff floor, where two
        # backward-stable solvers agree only to within that floor
        assert np.allclose(sol.residuals, residuals, rtol=1e-6, atol=1e-12)

    def test_over_resolved_disk_matches_series(self):
        # cond(A) ~ 1e16: gelsd drops 74 of 256 directions at rcond 1e-12,
        # the QR solve keeps them all and stays on the analytic solution
        srcs = ring_sources(20, 3.0, POL)
        rec = simulate(disk(1.0), srcs, SYS1, 3.0, 128, n_collocation=256, n_charges=128,
                       shrink=0.6, warn_above=None)
        ref = record_from_disk_series(1.0, srcs, SYS1, 3.0, 128)
        assert rel_max(rec.values, ref.values) <= 1e-12

    @pytest.mark.parametrize("n", [1, 64, 130])
    def test_back_substitute_matches_solve(self, n):
        # a partial block, one full block, and two full blocks plus two rows
        rng = np.random.default_rng(n)
        r = np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(n)
        r[np.diag_indices(n)] = 2.0 + rng.uniform(size=n)
        y = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
        want = np.linalg.solve(r, y)
        assert rel_max(forward._back_substitute(r, y), want) <= 1e-13

    @pytest.mark.parametrize("n_points", [13, 100])
    def test_charge_matrix_is_green_tensor_laid_out(self, monkeypatch, n_points):
        # point counts that are not a multiple of 8, the width the kernel
        # pads its series to: its values do not depend on the batch, so any
        # layout slip shows as inequality
        rng = np.random.default_rng(n_points)
        x = rng.uniform(2.0, 3.0, (n_points, 2))
        charges = rng.uniform(-1.0, 1.0, (21, 2))
        made = []
        monkeypatch.setattr(forward, "green_tensor",
                            lambda *args: made.append(elastic.green_tensor(*args)) or made[-1])
        a = forward._charge_matrix(x, charges, SYS5)
        g = elastic.green_tensor(x[:, None, :], charges[None, :, :], SYS5)
        assert np.array_equal(a, g.transpose(0, 2, 1, 3).reshape(2 * n_points, 42))
        # the matrix is green_tensor's own array, not a rearranged copy
        assert a.flags.c_contiguous and np.shares_memory(a, made[0])

    @pytest.mark.parametrize("one", [False, True], ids=["all", "one_column"])
    def test_rank_deficient_matrix_refused(self, monkeypatch, one):
        # on every layout.  The turned kite is one block of the full matrix (g = 1).
        # The kite's mirrored layout folds column 5 (charge 2, y) with its mirror's
        # column 61 (charge 30, y), so one column there is both.  The disk's turns mix
        # a charge's two columns over its orbit: at 66/32 (g = 2, 16 charges an orbit)
        # charge 2 is columns 4, 5 and 36, 37; the turned disk at 64/32 (g = 32) has one
        # charge an orbit, so its one charge is every column
        charge_matrix = forward._charge_matrix
        for curve, n_col, cols in ((turned(kite()), 64, [5]), (kite(), 64, [5, 61]),
                                   (disk(1.0), 66, [4, 5, 36, 37]),
                                   (turned(disk(1.0)), 64, slice(None))):

            def deficient(x, charges, sys):
                a = charge_matrix(x, charges, sys)
                a[:, cols if one else slice(None)] = 0.0
                return a

            monkeypatch.setattr(forward, "_charge_matrix", deficient)
            with pytest.raises(SolveError, match="rank-deficient"):
                solve_mfs(curve, (SRC,), SYS5, n_col, 32, 0.7, warn_above=None)


class TestMirroredSolve:
    """A curve symmetric about the x-axis and without a turn (g = 1) is solved
    as an even and an odd block; the disk as 64 turned blocks; any other curve
    as one block of the full matrix."""

    @pytest.mark.parametrize("curve, mirrored", [
        (disk(1.0), True),
        (starfish(), True),
        (kite(), True),
        (StarCurve([1.0, 0.2, 0.1, 0.0, 0.0]).as_curve(), True),
        (StarCurve([1.0, 0.2, 0.1, 0.15, 0.0]).as_curve(), False),
        (turned(kite()), False),
    ], ids=["disk", "starfish", "kite", "cosine-star", "sine-star", "turned-kite"])
    def test_mirrored_truth_table(self, curve, mirrored):
        assert curve.mirrored is mirrored

    @pytest.mark.parametrize("curve, counts, rows, blocks", [
        (kite(), (129, 63), 65, (2, 129, 63 + 3)),
        (turned(kite()), (129, 63), 129, (1, 258, 126 + 3)),
        (disk(1.0), (128, 64), 2, (64, 4, 2 + 3)),
    ], ids=["mirrored", "turned", "disk"])
    def test_stack_layout(self, monkeypatch, curve, counts, rows, blocks):
        seen = {}
        charge_matrix, qr = forward._charge_matrix, np.linalg.qr

        def rows_seen(x, *args):
            seen["rows"] = len(x)
            return charge_matrix(x, *args)

        def stack_seen(a, **kwargs):
            seen["stack"] = a.shape
            return qr(a, **kwargs)

        monkeypatch.setattr(forward, "_charge_matrix", rows_seen)
        monkeypatch.setattr(forward.np.linalg, "qr", stack_seen)
        sol = solve_mfs(curve, ring_sources(3, 3.0, POL), SYS5, *counts, 0.9, warn_above=None)
        assert seen == {"rows": rows, "stack": blocks}
        if curve.mirrored:
            # the charges are their own mirror image, charge -j mod m of charge j:
            # the disk's turns come from a mirror-closed grid, so eval keeps its half path
            j = np.arange(counts[1])
            assert np.array_equal(sol.charges[-j % counts[1]], sol.charges * (1.0, -1.0))

    @pytest.mark.parametrize("n_col, n_chg", [(129, 63), (128, 63), (129, 64)])
    def test_odd_counts_match_svd_reference(self, n_col, n_chg):
        srcs = ring_sources(5, 3.0, POL)
        sol = solve_mfs(kite(), srcs, SYS5, n_col, n_chg, 0.9, warn_above=None)
        strengths, residuals = lstsq_reference(kite(), srcs, SYS5, n_col, n_chg, 0.9)
        ref = forward.MfsSolution(sol.charges, strengths, residuals, SYS5, srcs)
        pts = disk(3.0).point(receiver_angles(128))
        assert rel_max(sol.eval(pts), ref.eval(pts)) <= 1e-9
        assert np.allclose(sol.residuals, residuals, rtol=1e-6, atol=0.0)

    def test_residuals_are_those_of_the_full_grid(self):
        srcs = ring_sources(4, 3.0, POL)
        sol = solve_mfs(starfish(), srcs, SYS5, 101, 50, 0.85, warn_above=None)
        colloc = forward._grid(starfish(), 101)
        a = forward._charge_matrix(colloc, sol.charges, SYS5)
        misfit = a @ sol.strengths.reshape(4, -1).T
        misfit += incident_field(colloc, srcs, SYS5).reshape(4, -1).T
        assert np.allclose(sol.residuals, np.max(np.abs(misfit), axis=0), rtol=1e-6, atol=0.0)

    def test_turned_kite_fields_turn(self):
        # the turned kite takes the one-block path, the kite the mirrored one
        srcs = ring_sources(20, 3.0, POL)
        srcs_t = tuple(PointSource(TURN @ s.xy, TURN @ np.array(s.polarization)) for s in srcs)
        sol = solve_mfs(kite(), srcs, SYS5, *_MFS_BY_SHAPE["kite"], warn_above=None)
        sol_t = solve_mfs(turned(kite()), srcs_t, SYS5, *_MFS_BY_SHAPE["kite"], warn_above=None)
        pts = disk(3.0).point(receiver_angles(128))
        # measured 9.7e-11
        assert rel_max(sol_t.eval(pts @ TURN.T), sol.eval(pts) @ TURN.T) <= 1e-9

    @pytest.mark.parametrize("n_col, n_chg", [(512, 256), (129, 63), (128, 63), (129, 64),
                                              (127, 64)])
    def test_fold_matches_the_whole_array_formula(self, n_col, n_chg):
        # the fold from views against the formula on whole arrays, bit for bit:
        # 512/256 folds its 255 pair points in 8 blocks, the last one partial, the
        # others in one block; the counts take every parity of points and charges,
        # so one or two on-axis rows and columns
        sol = solve_mfs(kite(), ring_sources(5, 3.0, POL), SYS5, n_col, n_chg, 0.9,
                        warn_above=None)
        colloc = forward._grid(kite(), n_col)
        a = forward._charge_matrix(colloc[: n_col // 2 + 1], sol.charges, SYS5)
        b = -incident_field(colloc, sol.sources, SYS5).reshape(5, 2 * n_col).T
        (rep, mir, s, w), (c_rep, c_mir, c_s, c_w) = forward._fold(n_col), forward._fold(n_chg)
        w_a = 2.0 * w[:, None] * c_w
        x, y = a[rep[:, None], c_rep] * w_a, a[rep[:, None], c_mir] * (w_a * c_s)
        bx, by = b[rep] * w[:, None], b[mir] * (s * w)[:, None]
        n, m = n_col, n_chg
        want = np.empty((2, n, m + 5), dtype=complex)
        want[0, :, :m], want[1, :, :m] = x[:n, :m] + y[:n, :m], x[-n:, -m:] - y[-n:, -m:]
        want[0, :, m:], want[1, :, m:] = bx[:n] + by[:n], bx[-n:] - by[-n:]
        assert np.array_equal(forward._fold_system(a, b, n_col, n_chg), want)


class TestRotationFold:
    """A curve whose table has only exponents e = 1 mod g in Z = x_1 + i x_2 is solved
    as g blocks, one per Fourier mode of the orbit index; g = 1 is the one-block solve."""

    @pytest.mark.parametrize("curve, counts, g", [
        (disk(1.0), (128, 64), 64),
        (disk(1.0), (128, 63), 1),
        (turned(disk(1.0)), (64, 32), 32),
        (starfish(), (384, 192), 1),
        (starfish(), (400, 200), 5),
        (kite(), (512, 256), 1),
        (turned(kite()), (512, 256), 1),
    ], ids=["disk", "disk-128-63", "turned-disk", "starfish", "starfish-400-200", "kite",
            "turned-kite"])
    def test_symmetry_truth_table(self, curve, counts, g):
        assert forward._symmetry(curve, *counts) == g

    def test_turned_starfish_matches_the_mirror_fold(self, monkeypatch):
        # 400/200 takes the turns (g = 5, blocks of 160 x 80 + S); with g forced
        # to 1 the same layout takes the mirror fold
        srcs = ring_sources(5, 3.0, POL)
        pts = disk(3.0).point(receiver_angles(128))
        turns = solve_mfs(starfish(), srcs, SYS5, 400, 200, 0.85, warn_above=None)
        monkeypatch.setattr(forward, "_symmetry", lambda *args: 1)
        mirror = solve_mfs(starfish(), srcs, SYS5, 400, 200, 0.85, warn_above=None)
        # measured 5.3e-12 and residuals within 1.1e-9 relative
        assert rel_max(turns.eval(pts), mirror.eval(pts)) <= 5e-11
        assert np.allclose(turns.residuals, mirror.residuals, rtol=1e-6, atol=0.0)


class TestInteriorSource:
    """An exact oracle for any shape: with u_inc = -G(., z0) q for z0 inside the
    obstacle, the scattered field outside is G(., z0) q, the source's own field."""

    Q = (0.6, -0.8)

    @pytest.mark.parametrize("curve, layout, depth, bound", [
        (disk(1.0), "disk", 0.3, 5e-15),          # measured 1.83e-15 (1.76e-15 mirror fold)
        (disk(1.0), "disk", 0.5, 5e-15),          # measured 1.51e-15 (1.44e-15 mirror fold)
        (disk(1.0), "disk", 0.8, 1e-11),          # measured 4.89e-12 (4.91e-12 mirror fold)
        (starfish(), "starfish", 0.3, 5e-12),     # measured 2.45e-12
        (starfish(), "starfish", 0.5, 1.5e-11),   # measured 6.46e-12
        (starfish(), "starfish", 0.8, 5e-12),     # measured 2.22e-12
        (kite(), "kite", 0.3, 2.5e-4),            # measured 1.09e-4
        (kite(), "kite", 0.5, 3e-4),              # measured 1.42e-4
        (kite(), "kite", 0.8, 1e-4),              # measured 4.59e-5
        (turned(kite()), "kite", 0.3, 3e-4),      # measured 1.34e-4
        (turned(kite()), "kite", 0.5, 3e-4),      # measured 1.55e-4
        (turned(kite()), "kite", 0.8, 1e-4),      # measured 4.71e-5
    ], ids=[f"{name}-{f}" for name in ("disk", "starfish", "kite", "turned-kite")
            for f in (0.3, 0.5, 0.8)])
    def test_scattered_field_is_the_source_field(self, monkeypatch, curve, layout, depth,
                                                 bound):
        # the disk takes the turns (g = 64), the starfish and the kite the mirror
        # fold, the turned kite the one-block solve (g = 1)
        inner = (PointSource(tuple(depth * curve.point(0.7)), self.Q),)
        monkeypatch.setattr(forward, "incident_field",
                            lambda x, srcs, sys: -incident_field(x, inner, sys))
        sol = solve_mfs(curve, (SRC,), SYS5, *_MFS_BY_SHAPE[layout], warn_above=None)
        pts = forward._grid(disk(3.0), 128)
        assert forward.oracle_gap(sol.eval(pts), incident_field(pts, inner, SYS5)) <= bound

    @pytest.mark.parametrize("curve, layout, depth, bound", [
        (starfish(), "starfish", 0.3, 5e-12),     # measured 2.45e-12
        (starfish(), "starfish", 0.8, 5e-12),     # measured 2.22e-12
        (kite(), "kite", 0.3, 2.5e-4),            # measured 1.09e-4
        (kite(), "kite", 0.8, 1e-4),              # measured 4.59e-5
    ], ids=["starfish-0.3", "starfish-0.8", "kite-0.3", "kite-0.8"])
    def test_charge_fit_alone_gives_the_source_field(self, curve, layout, depth, bound):
        # the fit core driven directly with B = G(colloc, z0) q on the solve's own
        # layout (the mirror fold, A at the points j <= n/2)
        n, m, shrink = _MFS_BY_SHAPE[layout]
        inner = (PointSource(tuple(depth * curve.point(0.7)), self.Q),)
        charges = solve_mfs(curve, (SRC,), SYS5, n, m, shrink, warn_above=None).charges
        colloc = forward._grid(curve, n)
        a = forward._charge_matrix(colloc[: n // 2 + 1], charges, SYS5)
        b = incident_field(colloc, inner, SYS5).reshape(1, 2 * n).T
        coef, res = forward._charge_fit(a, b, n, m)
        assert coef.shape == (2 * m, 1) and res.shape == (2 * n, 1)
        sol = forward.MfsSolution(charges, coef.T.reshape(1, m, 2),
                                  np.max(np.abs(res), axis=0), SYS5, inner)
        pts = forward._grid(disk(3.0), 128)
        assert forward.oracle_gap(sol.eval(pts), incident_field(pts, inner, SYS5)) <= bound


def solved(name, sys):
    """The MFS solution of 20 ring sources on a shipped shape and layout."""
    curve = {"disk": disk(1.0), "starfish": starfish(), "kite": kite()}[name]
    srcs = ring_sources(20, 3.0, elastic.POLARIZATION)
    return solve_mfs(curve, srcs, sys, *_MFS_BY_SHAPE[name], warn_above=None)


class TestMfsReciprocity:
    """Reciprocity of the MFS fields on the shipped layouts: the independent
    check of forward data for shapes that have no series oracle."""

    @pytest.mark.parametrize("name, sys, bound", [
        ("disk", SYS1, 1e-12),      # measured 1.0e-15
        ("disk", SYS5, 1e-12),      # measured 2.7e-14
        ("starfish", SYS5, 1e-5),   # measured 1.51e-6
        ("kite", SYS5, 2e-4),       # measured 3.91e-5
    ], ids=["disk-1", "disk-5", "starfish-5", "kite-5"])
    def test_source_to_source_matrix_is_symmetric(self, name, sys, bound):
        assert forward.reciprocity_gap(solved(name, sys)) <= bound

    def test_series_field_and_zero_field(self):
        srcs = ring_sources(20, 3.0, elastic.POLARIZATION)
        # the series field's gap reads 5.3e-16
        assert forward.reciprocity_gap(disk_series(1.0, srcs, SYS5, 40)) <= 1e-12
        silent = ring_sources(3, 3.0, (0.0, 0.0))
        assert forward.reciprocity_gap(solve_mfs(disk(1.0), silent, SYS5, 64, 32, 0.7)) == 0.0

    @pytest.mark.parametrize("name", ["starfish", "kite"])
    def test_turned_polarization_breaks_symmetry(self, monkeypatch, name):
        # right-hand sides from polarizations turned by 90 degrees: the
        # fields are no longer those of the sources P is read against
        incident = forward.incident_field

        def turned(x, srcs, sys, *args):
            srcs = [PointSource(s.location, (-s.polarization[1], s.polarization[0])) for s in srcs]
            return incident(x, srcs, sys, *args)

        monkeypatch.setattr(forward, "incident_field", turned)
        # measured 1.44 starfish, 1.24 kite
        assert forward.reciprocity_gap(solved(name, SYS5)) >= 0.5


def plain_eval(sol, pts):
    """The field at (n, 2) points pts by the full charge matrix, one product."""
    g = forward._charge_matrix(pts, sol.charges, sol.sys)
    return (sol.strengths.reshape(len(sol.strengths), -1) @ g.T).reshape(-1, len(pts), 2)


class TestMirroredReceivers:
    """A full-aperture record samples mirror-closed receivers, and a field of
    mirror-closed charges is evaluated on half of them."""

    @pytest.mark.parametrize("n", [128, 127])
    def test_full_aperture_layout_is_mirror_closed(self, n):
        seen = []

        class Probe:
            sys, sources = SYS5, (SRC,)

            def eval(self, x):
                seen.append(x)
                return np.zeros((1,) + x.shape, dtype=complex)

        rec = forward.measure(Probe(), 3.0, n)
        x = seen[0]
        j = np.arange(n)
        assert np.array_equal(x[-j % n], x * (1.0, -1.0)) and forward._mirror_closed(x)
        assert x[0, 1] == 0.0 and (n % 2 or x[n // 2, 1] == 0.0)
        assert np.array_equal(rec.receivers, receiver_angles(n))
        assert np.max(np.abs(x - disk(3.0).point(rec.receivers))) <= 1e-14
        # a limited aperture samples its angles' points as they are
        forward.measure(Probe(), 3.0, n, (0.5, 4.0))
        assert np.array_equal(seen[1], disk(3.0).point(receiver_angles(n, (0.5, 4.0))))
        assert forward.measure(Probe(), 3.0, 0).values.shape == (1, 0, 2)

    @pytest.mark.parametrize("name, bound", [
        ("disk", 1e-12),      # measured 1.2e-14
        ("starfish", 1e-9),   # measured 1.8e-13
        ("kite", 1e-9),       # measured 2.7e-12
    ])
    @pytest.mark.parametrize("n", [128, 127])
    def test_half_path_matches_the_full_matrix(self, monkeypatch, name, bound, n):
        sol = solved(name, SYS5)
        pts = forward._grid(disk(3.0), n)
        rows, charge_matrix = [], forward._charge_matrix

        def rows_seen(x, *args):
            rows.append(len(x))
            return charge_matrix(x, *args)

        monkeypatch.setattr(forward, "_charge_matrix", rows_seen)
        half = sol.eval(pts)
        assert rows == [n // 2 + 1]
        assert half.shape == (20, n, 2)
        assert rel_max(half, plain_eval(sol, pts)) <= bound

    def test_other_inputs_take_the_full_matrix_bit_for_bit(self):
        srcs = ring_sources(20, 3.0, elastic.POLARIZATION)
        layout = _MFS_BY_SHAPE["kite"]
        # a limited aperture: its receivers are not mirror-closed
        arc = simulate(kite(), srcs, SYS5, 3.0, 128, (0.0, np.pi), *layout, warn_above=None)
        arc_pts = disk(3.0).point(arc.receivers)
        assert np.array_equal(arc.values, plain_eval(solved("kite", SYS5), arc_pts))
        # the turned kite's one-block solve: its charges are not mirror-closed
        rec = simulate(turned(kite()), srcs, SYS5, 3.0, 128, FULL_APERTURE, *layout,
                       warn_above=None)
        sol = solve_mfs(turned(kite()), srcs, SYS5, *layout, warn_above=None)
        assert not forward._mirror_closed(sol.charges)
        assert np.array_equal(rec.values, plain_eval(sol, forward._grid(disk(3.0), 128)))

    def test_one_point_on_the_axis(self):
        sol = solved("disk", SYS5)
        x = np.array([3.0, 0.0])
        assert sol.eval(x).shape == (20, 2)
        assert rel_max(sol.eval(x), plain_eval(sol, x[None])[:, 0]) <= 1e-12


class TestOrbitMeasure:
    """A full-aperture record of a turned solve (g > 1) is measured on one orbit of
    the receiver ring when g divides the receiver count, else as before."""

    # disk layouts of g = 64, 32 and 2 turns
    LAYOUTS = {64: (128, 64), 32: (64, 32), 2: (66, 32)}

    @pytest.mark.parametrize("g", [2, 32, 64])
    @pytest.mark.parametrize("n_sources", [1, 20])
    @pytest.mark.parametrize("omega, bound", [
        (1.0, 1e-14),   # measured at most 1.3e-15
        (5.0, 5e-14),   # measured at most 9.2e-15
    ])
    def test_matches_the_full_matrix(self, monkeypatch, g, n_sources, omega, bound):
        sys = LameSystem(1.0, 1.0, omega)
        srcs = ring_sources(n_sources, 3.0, elastic.POLARIZATION)
        sol = solve_mfs(disk(1.0), srcs, sys, *self.LAYOUTS[g], 0.8, warn_above=None)
        assert sol.g == g
        rows, charge_matrix = [], forward._charge_matrix

        def rows_seen(x, *args):
            rows.append(len(x))
            return charge_matrix(x, *args)

        monkeypatch.setattr(forward, "_charge_matrix", rows_seen)
        rec = forward.measure(sol, 3.0, 128)
        assert rows == [128 // g]
        assert rec.values.shape == (n_sources, 128, 2)
        assert rel_max(rec.values, plain_eval(sol, forward._grid(disk(3.0), 128))) <= bound

    @pytest.mark.parametrize("curve, counts, n_receivers", [
        (disk(1.0), (128, 64), 96),       # g = 64 does not divide 96
        (disk(1.0), (66, 32), 127),       # nor g = 2 127
        (disk(1.0), (128, 63), 128),      # g = 1
        (starfish(), (384, 192), 128),
        (kite(), (512, 256), 128),
        (turned(kite()), (512, 256), 128),
    ], ids=["disk-96", "disk-2-127", "disk-128-63", "starfish", "kite", "turned-kite"])
    def test_other_layouts_keep_eval_bit_for_bit(self, curve, counts, n_receivers):
        srcs = ring_sources(3, 3.0, elastic.POLARIZATION)
        sol = solve_mfs(curve, srcs, SYS5, *counts, 0.8, warn_above=None)
        rec = forward.measure(sol, 3.0, n_receivers)
        assert np.array_equal(rec.values, sol.eval(forward._grid(disk(3.0), n_receivers)))
        arc = forward.measure(sol, 3.0, 128, (0.5, 4.0))
        assert np.array_equal(arc.values, sol.eval(disk(3.0).point(arc.receivers)))

    def test_no_sources(self):
        sol = solve_mfs(disk(1.0), (), SYS5, 128, 64, 0.6)
        assert forward.measure(sol, 3.0, 128).values.shape == (0, 128, 2)


class TestDiskSeries:
    def test_rigid_boundary_condition(self):
        fld = disk_series(1.0, (SRC,), SYS5, 40)
        pts = circle_points(1.0, 256)
        total = fld.eval(pts) + incident_field(pts, (SRC,), SYS5)
        assert np.max(np.abs(total)) <= 1e-8

    def test_rotational_covariance(self):
        ang = 1.1
        rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        x = np.array([2.2, 0.4])
        v = disk_series(1.0, (SRC,), SYS5, 40).eval(x)[0]
        src_rot = PointSource(tuple(rot @ np.array(SRC.location)), tuple(rot @ np.array(POL)))
        v_rot = disk_series(1.0, (src_rot,), SYS5, 40).eval(rot @ x)[0]
        assert np.max(np.abs(v_rot - rot @ v)) <= 1e-12

    def test_source_inside_rejected(self):
        with pytest.raises(DomainError):
            disk_series(2.0, (PointSource((1.0, 0.0), POL),), SYS5)

    @pytest.mark.parametrize("n_modes", [-1, 2.5, 40.0, True, "40", None])
    def test_bad_mode_count_refused_before_any_table(self, monkeypatch, n_modes):
        def unreachable(*args, **kwargs):
            raise AssertionError("built a table before the mode count was checked")

        monkeypatch.setattr(specfun, "cylinder_tables", unreachable)
        with pytest.raises(DomainError, match="n_modes must be a nonnegative integer"):
            disk_series(1.0, (SRC,), SYS5, n_modes)

    def test_integer_mode_counts_accepted(self):
        for n_modes in (0, np.int64(3)):
            fld = disk_series(1.0, (SRC,), SYS5, n_modes)
            assert fld.b_p.shape == fld.b_s.shape == (1, 2 * n_modes + 1)

    def test_eval_inside_disk_rejected(self):
        fld = disk_series(1.0, (SRC,), SYS5, 20)
        with pytest.raises(DomainError):
            fld.eval(np.array([0.5, 0.0]))

    def test_eval_guard_allows_round_off_at_the_rim(self):
        fld = disk_series(2.0, (SRC,), SYS5, 20)
        assert np.all(np.isfinite(fld.eval(np.array([2.0 * (1.0 - 5e-13), 0.0]))))
        with pytest.raises(DomainError):
            fld.eval(np.array([0.0, 2.0 * (1.0 - 2e-12)]))

    def test_truncation_tail_below_1e12(self):
        pts = circle_points(3.0, 64)
        a = disk_series(1.0, (SRC,), SYS5, 40).eval(pts)
        b = disk_series(1.0, (SRC,), SYS5, 50).eval(pts)
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_amos_tables_ask_for_orders_zero_to_m_only(self):
        # the negative orders and C_{-1} come from cylinder_tables' reflection
        asked = []

        def recording(n, t):
            asked.append(np.unique(n).tolist())
            return specfun.hankel1(n, t)

        tabs = _tables(forward._amos(recording), (SYS5.k_p, SYS5.k_s), 6, np.array([1.0, 2.0]),
                       kappa=True)
        assert asked == [list(range(7))]
        assert [tab.shape for tab in tabs] == [(2, 13, 2)] * 3

    def test_disk_series_asks_amos_for_nonnegative_orders_only(self, monkeypatch):
        # the incident potentials' H_{m-1}, H_{m+1} included: every negative
        # order comes from cylinder_tables' reflection
        asked = []
        amos = specfun.hankel1

        def recording(n, t):
            asked.extend(np.unique(n).tolist())
            return amos(n, t)

        monkeypatch.setattr(specfun, "hankel1", recording)
        disk_series(1.0, (SRC, PointSource((-1.0, -4.0), (0.6, -0.8))), SYS5, 12)
        assert asked and min(asked) >= 0
        assert max(asked) == 13  # H_{M+1} for the incident potentials

    @pytest.mark.parametrize("omega", [1.0, 5.0])
    @pytest.mark.parametrize("n_modes", [20, 40])
    @pytest.mark.parametrize("R", [0.5, 0.9])
    def test_modal_field_of_the_series_agrees(self, omega, n_modes, R):
        # phat = b H_n(k R) is the series in the modal layer's normalized
        # basis, so the two evaluators (AMOS tables here, numpy tables there)
        # must give one field: this pins the frame's signs and normalization
        sys = LameSystem(1.0, 1.0, omega)
        fld = disk_series(1.0, (SRC, PointSource((-1.0, -4.0), (0.6, -0.8))), sys, n_modes)
        n = np.arange(-n_modes, n_modes + 1)
        mf = ModalField(N=n_modes, R=R, rho=3.0, sys=sys,
                        phat_p=fld.b_p * specfun.hankel1(n, sys.k_p * R),
                        phat_s=fld.b_s * specfun.hankel1(n, sys.k_s * R))
        pts = np.concatenate([circle_points(r, 64) for r in (1.0, 1.5, 3.0)])
        assert rel_max(eval_field(mf, pts), fld.eval(pts)) <= 1e-13


class TestRingMeasure:
    """A full-aperture record of a DiskField is sampled by inverse FFT (``modal._ring``)."""

    @pytest.mark.parametrize("n_modes", [0, 5, 40, 60])
    @pytest.mark.parametrize("M", [1, 7, 8, 128, 256])
    def test_matches_the_general_evaluators(self, M, n_modes):
        # 2 n_modes + 3 > M folds orders n +- 1 into their bins mod M
        fld = disk_series(1.0, MIXED[:3], SYS5, n_modes)
        rec = forward.measure(fld, 3.0, M)
        assert rec.values.shape == (3, M, 2)
        assert np.array_equal(rec.receivers, receiver_angles(M))
        assert rel_max(rec.values, fld.eval(forward._grid(disk(3.0), M))) <= 1e-13
        n = np.arange(-n_modes, n_modes + 1)
        mf = ModalField(N=n_modes, R=0.5, rho=3.0, sys=SYS5,
                        phat_p=fld.b_p * specfun.hankel1(n, SYS5.k_p * 0.5),
                        phat_s=fld.b_s * specfun.hankel1(n, SYS5.k_s * 0.5))
        assert rel_max(rec.values, eval_field(mf, disk(3.0).point(rec.receivers))) <= 1e-13

    @pytest.mark.parametrize("aperture", [(0.5, 4.0), (1.0, 1.0 + 2.0 * np.pi)])
    def test_other_apertures_sample_eval_bit_for_bit(self, aperture):
        fld = disk_series(1.0, MIXED[:3], SYS5, 40)
        rec = forward.measure(fld, 3.0, 64, aperture)
        assert np.array_equal(rec.values, fld.eval(disk(3.0).point(rec.receivers)))

    def test_inside_the_disk_refused(self):
        fld = disk_series(2.0, (SRC,), SYS5, 20)
        with pytest.raises(DomainError, match="inside the disk"):
            forward.measure(fld, 1.5, 16)
        assert forward.measure(fld, 2.0 * (1.0 - 5e-13), 16).values.shape == (1, 16, 2)

    def test_full_aperture_never_builds_the_basis(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("built the (2N+1) x M basis")

        monkeypatch.setattr(modal, "_basis", unreachable)
        rec = record_from_disk_series(1.0, MIXED[:3], SYS5, 3.0, 128)
        assert rec.values.shape == (3, 128, 2)
        with pytest.raises(AssertionError, match="basis"):  # the patch reaches DiskField.eval
            record_from_disk_series(1.0, MIXED[:3], SYS5, 3.0, 128, (0.0, np.pi))


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
                one = disk_series(1.0, (src,), SYS5, 40)
                assert rel_max(batched.b_p[i], one.b_p[0]) <= 1e-12
                assert rel_max(batched.b_s[i], one.b_s[0]) <= 1e-12
                assert rel_max(values[i], one.eval(pts)[0]) <= 1e-12
            # the zero-polarization source scatters nothing
            assert np.max(np.abs(values[-1])) == 0.0

    def test_one_source_keeps_source_axis(self):
        fld = disk_series(1.0, (SRC,), SYS5, 20)
        assert fld.b_p.shape == fld.b_s.shape == (1, 41)
        assert fld.b_p.shape[-1] == 41
        assert fld.eval(circle_points(3.0, 5)).shape == (1, 5, 2)
        assert fld.eval(np.array([3.0, 1.0])).shape == (1, 2)
        assert fld.eval(np.ones((2, 3, 2))).shape == (1, 2, 3, 2)

    def test_any_source_inside_rejected(self):
        with pytest.raises(DomainError):
            disk_series(1.0, MIXED7 + (PointSource((0.0, 0.5), POL),), SYS5)

    def test_incident_coefficients_on_distinct_radii(self, monkeypatch):
        # AMOS sees each distinct source radius once per branch, and the
        # scattered-back rows equal one-source calls bit for bit
        want = [forward._incident_potential_coeffs((src,), SYS5, 40) for src in MIXED7]
        seen, hankel1 = [], forward.specfun.hankel1

        def counted(n, t):
            seen.append(np.array(t))
            return hankel1(n, t)

        monkeypatch.setattr(forward.specfun, "hankel1", counted)
        got = forward._incident_potential_coeffs(MIXED7, SYS5, 40)
        radii = np.unique(np.hypot(*np.array([src.location for src in MIXED7]).T))
        assert [t.shape for t in seen] == [radii.shape] * 2
        assert len(radii) < len(MIXED7)
        for t, k in zip(seen, (SYS5.k_p, SYS5.k_s)):
            assert np.array_equal(t, k * radii)
        for branch, rows in zip(got, zip(*want)):
            assert branch.shape == (len(MIXED7), 81)
            assert np.array_equal(branch, np.concatenate(rows))

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
        # incident coefficients one per branch; rim and receiver tables one for both
        assert len(calls) == 4


class TestSimulate:
    def test_benchmark_default_layout(self):
        srcs = ring_sources(20, 3.0, POL)
        rec = simulate(disk(1.0), srcs, SYS5, 3.0, 128, n_charges=48, n_collocation=96,
                       shrink=0.7)
        assert rec.values.shape == (20, 128, 2)
        assert rec.n_sources == 20 and rec.n_receivers == 128
        assert rec.is_full_aperture

    def test_bad_aperture_refused_before_the_solve(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("solved before the aperture was checked")

        monkeypatch.setattr(forward, "solve_mfs", unreachable)
        monkeypatch.setattr(forward, "disk_series", unreachable)
        srcs = ring_sources(20, 3.0, POL)
        log = []
        with pytest.raises(ConfigError, match="aperture: need lo < hi"):
            simulate(kite(), srcs, SYS5, 3.0, 256, aperture=(1.0, 0.5), n_collocation=512,
                     n_charges=256, shrink=0.92, residual_log=log)
        assert log == []
        with pytest.raises(ConfigError, match="aperture: need lo < hi"):
            record_from_disk_series(1.0, srcs, SYS5, 3.0, 128, aperture=(1.0, 0.5))

    @pytest.mark.parametrize("count", [2.5, 8.0, -3, True, "8", None])
    @pytest.mark.parametrize("aperture", [FULL_APERTURE, (0.0, 3.0)])
    def test_bad_receiver_count_refused_before_the_solve(self, monkeypatch, count, aperture):
        def unreachable(*args, **kwargs):
            raise AssertionError("solved before the receiver count was checked")

        monkeypatch.setattr(forward, "solve_mfs", unreachable)
        monkeypatch.setattr(forward, "disk_series", unreachable)
        srcs = ring_sources(4, 3.0, POL)
        with pytest.raises(ConfigError, match="n_receivers must be a nonnegative integer"):
            receiver_angles(count, aperture)
        with pytest.raises(ConfigError, match="n_receivers must be a nonnegative integer"):
            record_from_disk_series(1.0, srcs, SYS5, 3.0, count, aperture)
        with pytest.raises(ConfigError, match="n_receivers must be a nonnegative integer"):
            simulate(disk(1.0), srcs, SYS5, 3.0, count, aperture)

    def test_integer_receiver_counts_accepted(self):
        assert receiver_angles(0).shape == receiver_angles(0, (0.0, 3.0)).shape == (0,)
        assert np.array_equal(receiver_angles(np.int64(8), (0.0, 3.0)),
                              receiver_angles(8, (0.0, 3.0)))

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

    @pytest.mark.parametrize("empty", ["no_sources", "no_receivers"])
    def test_empty_record_not_saved(self, tmp_path, empty):
        # load refuses both, so save must not write them
        if empty == "no_sources":
            rec = simulate(disk(1.0), (), SYS5, 3.0, 16, n_charges=16, n_collocation=32,
                           shrink=0.7)
        else:
            rec = ScatterRecord(
                rho=3.0, sys=SYS5, sources=(SRC,), receivers=np.zeros(0),
                values=np.zeros((1, 0, 2), complex), aperture=(0.0, 2.0 * np.pi),
            )
        path = tmp_path / "record.json"
        with pytest.raises(ConfigError, match=empty.replace("_", " ")):
            rec.save(path)
        assert not path.exists()

    def test_mixed_polarizations_not_saved(self, tmp_path):
        # the JSON layout holds one polarization for all sources
        srcs = (PointSource((3.0, 0.0), (1.0, 0.0)), PointSource((0.0, 3.0), (0.0, 1.0)))
        rec = simulate(disk(1.0), srcs, SYS5, 3.0, 16, n_charges=16, n_collocation=32,
                       shrink=0.7, warn_above=None)
        path = tmp_path / "record.json"
        with pytest.raises(ConfigError, match="polarizations"):
            rec.save(path)
        assert not path.exists()

    def test_residual_log_in_source_order(self):
        srcs = ring_sources(5, 3.0, POL)
        log = []
        simulate(kite(), srcs, SYS5, 3.0, 16, n_collocation=128, n_charges=64,
                 shrink=0.8, warn_above=None, residual_log=log)
        single = [solve_mfs(kite(), (s,), SYS5, 128, 64, 0.8, None).residual for s in srcs]
        assert np.allclose(log, single, rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize("n_sources", [1, 7])
    def test_one_factorization_per_record(self, monkeypatch, n_sources):
        # a per-source loop would scale both counts with the number of sources
        calls = {"qr": 0, "green_tensor": 0, "incident_field": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(forward.np.linalg, "qr", counted("qr", np.linalg.qr))
        for owner in (forward, elastic):
            monkeypatch.setattr(owner, "green_tensor", counted("green_tensor", owner.green_tensor))
        monkeypatch.setattr(forward, "incident_field",
                            counted("incident_field", forward.incident_field))
        simulate(disk(1.0), ring_sources(n_sources, 3.0, POL), SYS5, 3.0, 16,
                 n_collocation=32, n_charges=16, shrink=0.7, warn_above=None)
        # collocation matrix and receiver table; the right-hand sides
        # contract the incident kernel without a tensor
        assert calls == {"qr": 1, "green_tensor": 2, "incident_field": 1}

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

    def test_adds_the_drawn_perturbation(self, record):
        noisy = add_noise(record, 0.05, seed=42)
        delta_v = noise_perturbation(record.values, 0.05, seed=42)
        assert np.array_equal(noisy.values, record.values + delta_v)

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

    @pytest.mark.parametrize("rho", [0.0, -3.0])
    def test_nonpositive_rho_rejected(self, rho):
        with pytest.raises(ConfigError, match="rho must be positive"):
            ScatterRecord(
                rho=rho, sys=SYS5, sources=(SRC,), receivers=np.array([0.0, 1.0]),
                values=np.zeros((1, 2, 2), dtype=complex), aperture=(0.0, 2 * np.pi),
            )

    @pytest.mark.parametrize("key", ["lambda", "mu", "omega"])
    def test_non_finite_medium_refused_on_load(self, tmp_path, key):
        rec = record_from_disk_series(1.0, ring_sources(2, 3.0, POL), SYS5, 3.0, 8)
        doc = rec.to_json_dict()
        doc["lame"][key] = "overflow"
        path = tmp_path / "rec.json"
        # a literal that overflows: Python's json reads 1e400 as inf
        path.write_text(json.dumps(doc).replace('"overflow"', "1e400"))
        with pytest.raises(ConfigError, match="finite"):
            ScatterRecord.load(path)

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
