"""In-memory span tracer for the benchmark's traced run.

`install` wraps elshape's public functions at the module attributes where
callers look them up (`specfun.hankel1`, the elastic and modal names
imported into `forward`, `newton` and `verify`, `np.linalg.lstsq` as
`forward` sees it, and the battery's checks).  Each wrapped call records a
span (name, start, end, parent, run id) and, where the layer does
countable work, a count.  `close` puts the original attributes back.
Nothing in `src/` is changed.
"""

import functools
import time
from collections import defaultdict

import numpy as np

from elshape import elastic, forward, modal, newton, specfun, verify


class Tracer:
    def __init__(self):
        #: [name, start, end, parent index or -1, run id]
        self.spans = []
        #: run id -> key -> summed count
        self.counts = defaultdict(lambda: defaultdict(float))
        #: run id -> key -> a kept value (the latest, or the largest)
        self.values = defaultdict(dict)
        self.run_id = None
        #: while set, wrapped functions run untraced (used around output checks)
        self.paused = False
        self._stack = []
        self._undo = []

    def wrap(self, fn, name, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.run_id]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if count is not None:
                count(tracer, span, result)
            return result

        return traced

    def replace(self, owner, attr, value):
        original = getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, original))

    def patch(self, owner, attr, name, count=None):
        self.replace(owner, attr, self.wrap(getattr(owner, attr), name, count))

    def patch_item(self, seq, index, name, count=None):
        original = seq[index]
        seq[index] = self.wrap(original, name, count)
        self._undo.append(lambda: seq.__setitem__(index, original))

    def close(self):
        while self._undo:
            self._undo.pop()()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def add(self, key, value):
        self.counts[self.run_id][key] += value

    def layer_times(self):
        """run id -> span name -> [inclusive s, self s, calls].

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0, 0]))
        for i, (name, t0, t1, _, run) in enumerate(self.spans):
            agg = out[run][name]
            agg[0] += t1 - t0
            agg[1] += t1 - t0 - child[i]
            agg[2] += 1
        return out


class _Namespace:
    """A module stand-in that overrides some attributes and forwards the rest."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _count_values(tracer, span, result):
    tracer.add("specfun.hankel1.values", np.size(result))


def _count_pairs(tracer, span, result):
    tracer.add("elastic.green_tensor.pairs", np.size(result) // 4)


def _record_residual(tracer, span, result):
    kept = tracer.values[tracer.run_id]
    key = "forward.mfs_residual_max"
    kept[key] = max(kept.get(key, 0.0), result.residual)


def _record_bc_residual(tracer, span, result):
    tracer.values[tracer.run_id]["newton.bc_residual_last"] = float(np.linalg.norm(result[1]))


def _name_check(tracer, span, result):
    span[0] = f"verify.{result.name}"


def install(tracer: Tracer) -> Tracer:
    """Wrap every traced lookup site; undo with `tracer.close()`."""
    p = tracer.patch
    p(specfun, "hankel1", "specfun.hankel1", _count_values)

    # elastic: called from forward, newton, and from incident_field itself
    p(elastic, "green_tensor", "elastic.green_tensor", _count_pairs)
    p(forward, "green_tensor", "elastic.green_tensor", _count_pairs)
    for owner in (forward, newton):
        p(owner, "incident_field", "elastic.incident_field")
    p(newton, "grad_incident_field", "elastic.grad_incident_field")

    # forward: the benchmark, verify and simulate look these up here
    p(forward, "simulate", "forward.simulate")
    for owner in (forward, verify):
        p(owner, "solve_mfs", "forward.solve_mfs", _record_residual)
        p(owner, "disk_series", "forward.disk_series")
    p(verify, "record_from_disk_series", "forward.record_from_disk_series")
    linalg = _Namespace(np.linalg, lstsq=tracer.wrap(np.linalg.lstsq, "forward.lstsq"))
    tracer.replace(forward, "np", _Namespace(np, linalg=linalg))

    # modal: extract_field calls these through modal's own namespace
    for attr in ("modal_rhs", "solve_modal", "limited_aperture_fit"):
        p(modal, attr, f"modal.{attr}")
    for owner in (newton, verify):
        p(owner, "eval_field", "modal.eval_field")
        p(owner, "eval_gradient", "modal.eval_gradient")
    p(newton, "extract_field", "modal.extract_field")
    p(verify, "modal_rhs", "modal.modal_rhs")
    p(verify, "solve_modal", "modal.solve_modal")

    p(newton, "reconstruct", "newton.reconstruct")
    p(newton, "assemble_system", "newton.assemble_system", _record_bc_residual)
    p(newton, "newton_step", "newton.newton_step")

    for i in range(len(verify.ALL_CHECKS)):
        tracer.patch_item(verify.ALL_CHECKS, i, "verify.check", _name_check)
    return tracer
