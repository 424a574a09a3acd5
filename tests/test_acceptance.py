"""Acceptance criteria: one test per criterion, stated tolerances, with a
printed PASS/FAIL line each.

Criterion 8 (kite at omega=5 with N=7) is implemented exactly as stated
and is an expected failure: the kite's scattered field at omega=5 carries
O(1) propagating modes up to n ~ 12 while its boundary dips inside the
field's singular hull (r ~ 1.65), so no truncation order of the
origin-centered expansion approximates the total field near most of the
boundary and every update scheme stalls there.  The starfish is no
success story either: noise-free at omega=5, the expansion's relative L2
error on its boundary is 0.871, 1.243, 3.06 and 12.6 at N = 4, 7, 10
and 14, and the N=7 run ends converged after 6 iterates at Hausdorff
0.229 against 0.300 for the initial circle (both pinned as strict xfails
in test_newton.py).  Criterion 9 passes, but it compares two results
that both lie near the initial guess (illuminated-arc error 0.191 with
the arc, 0.230 with full aperture).  Measured evidence: the high-mode
amplitudes are identical across independent forward routes (charge depths
0.7-0.93, and machine-precision agreement with the analytic series on a
same-size disk), and the aggregate total-field magnitude along rays is
minimized far from the boundary for every N in 4..16, noise-free or 5%.
"""

import time

import numpy as np
import pytest

from elshape.config import ReconstructionConfig, make_record, solve_truth
from elshape.geometry import kite, starfish
from elshape.metrics import arc_hausdorff, curve_hausdorff
from elshape.newton import reconstruct
from elshape import verify

import oracles


from acceptance_log import record_acceptance_line


def report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {criterion:02d}: {status} - {detail}"
    print("\n" + line)
    record_acceptance_line(line)
    return passed


class Timer:
    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.seconds = time.monotonic() - self.t0


def test_criterion_01_special_function_battery():
    with Timer() as t:
        checks = [
            verify.check_wronskian(),
            verify.check_recurrence(),
            verify.check_magnitude_monotone(),
            verify.check_derivative_bound(),
            verify.check_tail_sandwich(),
        ]
    ok = all(c.passed for c in checks) and t.seconds < 5.0
    detail = ", ".join(f"{c.name}={'ok' if c.passed else 'FAIL'}" for c in checks)
    assert report(1, ok, f"{detail}; {t.seconds:.2f}s (< 5s)")


def test_criterion_02_tail_sum_bound():
    with Timer() as t:
        check = verify.check_tail_sum_bound()
        # spot-check the direct-summation oracle against the library's sum
        assert verify.tail_sum(5, 1.5) == pytest.approx(
            oracles.tail_sum_direct(5, 1.5), rel=1e-14
        )
    ok = check.passed and t.seconds < 1.0
    assert report(2, ok, f"max S/bound = {check.measured:.4f} over 116 cells; "
                         f"{t.seconds:.2f}s (< 1s)")


def test_criterion_03_forward_oracle_equivalence():
    with Timer() as t:
        worst = max(verify.mfs_series_discrepancy(1.0), verify.mfs_series_discrepancy(5.0))
    ok = worst <= 1e-6 and t.seconds < 10.0
    assert report(3, ok, f"MFS vs series rel L2 = {worst:.3e} (<= 1e-6); "
                         f"{t.seconds:.2f}s (< 10s)")


def test_criterion_04_modal_roundtrip():
    with Timer() as t:
        rt_err, grad_err = verify.modal_roundtrip_errors()
    ok = rt_err <= 1e-11 and grad_err <= 1e-6 and t.seconds < 10.0
    assert report(4, ok, f"value round-trip {rt_err:.2e} (<= 1e-11), "
                         f"gradient vs FD {grad_err:.2e} (<= 1e-6); "
                         f"{t.seconds:.2f}s (< 10s)")


def test_criterion_05_truncation_decay_slope():
    with Timer() as t:
        check = verify.check_truncation_decay()
    ok = check.passed and t.seconds < 30.0
    assert report(5, ok, f"slope {check.measured:.3f} <= {check.bound:.3f} "
                         f"over N in [13, 21]; {t.seconds:.2f}s (< 30s)")


def test_criterion_06_noise_scaling():
    with Timer() as t:
        med = float(np.median(verify.noise_halving_ratios()))
    ok = 0.35 <= med <= 0.65 and t.seconds < 30.0
    assert report(6, ok, f"median halving ratio {med:.3f} in [0.35, 0.65] "
                         f"over 20 seeds; {t.seconds:.2f}s (< 30s)")


def test_criterion_07_disk_end_to_end():
    with Timer() as t:
        cfg = ReconstructionConfig({
            "shape": "disk", "shape.radius": 1.0, "lame.omega": 1.0,
            "delta": 0.0, "guess.radius": 2.0,
            "truncation.mode": "fixed", "truncation.n": 15, "max_iter": 15,
        })
        run = reconstruct(make_record(cfg, solve_truth(cfg)), cfg)
    c = run.final.coeffs
    ok = (
        run.termination == "converged"
        and run.iterations <= 15
        and abs(c[0] - 1.0) <= 0.005
        and np.max(np.abs(c[1:])) <= 0.01
        and t.seconds < 60.0
    )
    assert report(7, ok, f"{run.termination} in {run.iterations} iterations, "
                         f"|a0-1| = {abs(c[0]-1.0):.2e} (<= 5e-3), "
                         f"max other = {np.max(np.abs(c[1:])):.2e} (<= 1e-2); "
                         f"{t.seconds:.1f}s (< 60s)")


@pytest.mark.xfail(
    strict=True,
    reason="known limit of the method at these settings: at omega=5 the "
    "kite's field carries O(1) propagating modes up to n~12 and its "
    "boundary lies inside the field's singular hull (r~1.65), so the N=7 "
    "truncated expansion has no zero set near the boundary (measured "
    "evidence in the module docstring)",
)
def test_criterion_08_kite_end_to_end():
    with Timer() as t:
        base = {
            "shape": "kite", "lame.omega": 5.0, "rho": 3.0,
            "n_sources": 20, "n_receivers": 128,
            "delta": 0.05, "epsilon": 1e-4, "np": 8,
            "truncation.mode": "practical",   # gives N = 7 at delta = 5%
            "guess.radius": 1.5, "max_iter": 50,
        }
        cfg0 = ReconstructionConfig(base)
        assert cfg0.resolve_truncation() == 7
        rec = make_record(cfg0, solve_truth(cfg0))
        dists, terms, iters = [], [], []
        for seed in (1, 2, 3, 4, 5):
            run = reconstruct(rec, ReconstructionConfig({**base, "seed": seed}))
            dists.append(curve_hausdorff(run.final.as_curve(), kite()))
            terms.append(run.termination)
            iters.append(run.iterations)
    med = float(np.median(dists))
    ok = (
        all(term == "converged" for term in terms)
        and all(i <= 50 for i in iters)
        and med <= 0.15
        and t.seconds < 300.0
    )
    report(8, ok, f"median hausdorff {med:.3f} (<= 0.15), terminations {terms}; "
                  f"{t.seconds:.0f}s (< 300s)")
    assert ok


def test_criterion_09_limited_aperture():
    with Timer() as t:
        arc = (np.pi / 4.0, 7.0 * np.pi / 4.0)
        base = {
            "shape": "starfish", "delta": 0.05, "seed": 7,
            "guess.radius": 1.5, "max_iter": 50,
        }
        cfg_full = ReconstructionConfig(base)
        cfg_arc = ReconstructionConfig(
            {**base, "aperture.lo": arc[0], "aperture.hi": arc[1]}
        )
        # the aperture only chooses the receivers: one solve serves both
        truth = solve_truth(cfg_full)
        run_full = reconstruct(make_record(cfg_full, truth), cfg_full)
        run_arc = reconstruct(make_record(cfg_arc, truth), cfg_arc)
        err_full = arc_hausdorff(run_full.final.as_curve(), starfish(), arc)
        err_arc = arc_hausdorff(run_arc.final.as_curve(), starfish(), arc)
    ok = (
        run_full.termination == "converged"
        and run_arc.termination == "converged"
        and err_arc <= 1.5 * err_full
    )
    assert report(9, ok, f"illuminated-arc error {err_arc:.3f} vs full-aperture "
                         f"{err_full:.3f}, ratio {err_arc / err_full:.2f} (<= 1.5); "
                         f"terminations ({run_full.termination}, {run_arc.termination}); "
                         f"{t.seconds:.0f}s")


def test_criterion_10_determinism():
    with Timer() as t:
        cfg = ReconstructionConfig({
            "shape": "disk", "shape.radius": 1.0, "lame.omega": 1.0,
            "delta": 0.05, "seed": 23, "guess.radius": 1.5,
            "truncation.mode": "fixed", "truncation.n": 5, "max_iter": 20,
        })
        rec = make_record(cfg, solve_truth(cfg))
        import json

        a = json.dumps(reconstruct(rec, cfg).to_json_dict(), sort_keys=True)
        b = json.dumps(reconstruct(rec, cfg).to_json_dict(), sort_keys=True)
    ok = a == b
    assert report(10, ok, f"repeated runs byte-identical: {ok}; {t.seconds:.1f}s")
