"""Spans around drauc's public functions, recorded from outside the package.

`Tracer.install` replaces every binding of each traced function object in
every loaded `drauc` module (the functions are imported by name into
`robust`, `training`, `cli` and `verification`), so a call is caught
whichever module makes it.  Each span keeps its function, start, end,
parent span and input rows in flat arrays; they are written out once, when
the run ends.  A span's self time is its duration minus its children's.

Work the tracer does on a result (counting moved rows, sizing a history)
is recorded as a `tracer.post` child span, so it is taken out of the
caller's self time and reported by no metric.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from array import array

import numpy as np

TARGETS = {
    "cli": ["run_command"],
    "data": ["load_csv", "corrupt", "gen_synthetic"],
    "model": ["score", "score_grad_input", "score_grad_params"],
    "losses": ["surrogate_loss", "surrogate_loss_grads", "auc_mann_whitney"],
    "robust": ["attack_batch", "estimate_robust_auc", "brute_force_worst_case",
               "dual_curve"],
    "training": ["sample_batch", "train_df", "train_da", "train_aucm_baseline"],
    "checkpoint": ["format_report", "save_checkpoint", "load_checkpoint"],
    "gradcheck": ["grad_check"],
}

# The checks `verification.run_all` makes, in its order.
VERIFY_CHECKS = [
    "check_score_range", "check_model_gradients", "check_init_determinism",
    "check_saddle_identity", "check_closed_form_optimality",
    "check_alpha_stationarity", "check_auc_properties", "check_phi_dominance",
    "check_phi_monotone_lambda", "check_weak_duality", "check_dual_convexity",
    "check_barycenter_identity", "check_barycenter_brute_force",
    "check_domain_preservation", "check_trainer_determinism",
    "check_ablation_equivalence", "check_lambda_direction",
    "check_separable_training", "check_data_invariants",
]
TARGETS["verification"] = VERIFY_CHECKS

TRAINERS = ["training.train_df", "training.train_da", "training.train_aucm_baseline"]
MODEL_FNS = ["model.score", "model.score_grad_input", "model.score_grad_params"]

# Per-layer metrics: (name, unit).  Every value is per round of the workload,
# except `setup.*`, which are per set-up.
PER_LAYER = (
    [(f"{fn}.{k}", "s" if k == "self_s" else "count")
     for fn in MODEL_FNS for k in ("calls", "rows", "self_s")]
    + [("model.forward_rows", "count")]
    + [(f"losses.{fn}.{k}", "s" if k == "self_s" else "count")
       for fn in TARGETS["losses"] for k in ("calls", "self_s")]
    + [("robust.attack_batch.calls", "count"), ("robust.attack_batch.rows", "count"),
       ("robust.attack_batch.self_s", "s"), ("robust.attack_moved_share", "share"),
       ("robust.estimate_robust_auc.calls", "count"),
       ("robust.estimate_robust_auc.self_s", "s"),
       ("robust.estimate_robust_auc.attacks_per_call", "count"),
       ("robust.brute_force_worst_case.calls", "count"),
       ("robust.brute_force_worst_case.self_s", "s"),
       ("robust.dual_curve.calls", "count"), ("robust.dual_curve.self_s", "s"),
       ("training.sample_batch.calls", "count"), ("training.sample_batch.self_s", "s"),
       ("training.loop_self_s", "s"), ("training.history_bytes", "bytes"),
       ("checkpoint.format_report.self_s", "s"), ("checkpoint.report_bytes", "bytes"),
       ("checkpoint.save_checkpoint.self_s", "s"),
       ("checkpoint.load_checkpoint.self_s", "s"),
       ("data.load_csv.rows", "count"), ("data.load_csv.self_s", "s"),
       ("data.corrupt.self_s", "s"), ("data.gen_synthetic.self_s", "s")]
    + [(f"verification.{c}.self_s", "s") for c in VERIFY_CHECKS]
    + [("gradcheck.grad_check.self_s", "s"), ("cli.self_s", "s"),
       ("setup.data.gen_synthetic.self_s", "s"), ("setup.cli.self_s", "s")]
)


def _rows(x):
    shape = np.shape(x)
    return shape[0] if len(shape) == 2 else 1


def deep_size(obj, seen=None):
    """Bytes held by obj and everything it references, each object once."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, np.ndarray):
        return size if obj.base is None else size + obj.nbytes
    if isinstance(obj, dict):
        return size + sum(deep_size(k, seen) + deep_size(v, seen) for k, v in obj.items())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return size + sum(deep_size(v, seen) for v in obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return size + sum(deep_size(getattr(obj, f.name), seen)
                          for f in dataclasses.fields(obj))
    return size


class Tracer:
    def __init__(self):
        self.names = ["tracer.post"]
        self.fn = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.rows = array("l")
        self.stack = []
        self.absent = []
        self.moved_rows = 0
        self.history_bytes = 0
        self.report_bytes = 0

    def _open(self, fn_id, rows):
        i = len(self.fn)
        self.fn.append(fn_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.rows.append(rows)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, qualname, original):
        fn_id = len(self.names)
        self.names.append(qualname)
        rows_of = post = None
        if qualname in MODEL_FNS:
            def rows_of(args, kwargs):
                return _rows(args[1] if len(args) > 1 else kwargs["x"])
        elif qualname == "robust.attack_batch":
            def rows_of(args, kwargs):
                return _rows(args[4] if len(args) > 4 else kwargs["x_batch"])

            def post(args, kwargs, result, i):
                x0 = np.asarray(args[4] if len(args) > 4 else kwargs["x_batch"])
                self.moved_rows += int(np.any(result[1] != x0, axis=1).sum())
        elif qualname == "data.load_csv":
            def post(args, kwargs, result, i):
                self.rows[i] = result.n
        elif qualname in TRAINERS:
            def post(args, kwargs, result, i):
                self.history_bytes += deep_size(result.history)
        elif qualname == "checkpoint.format_report":
            def post(args, kwargs, result, i):
                self.report_bytes += len(result.encode("utf-8"))

        @functools.wraps(original)
        def traced(*args, **kwargs):
            i = self._open(fn_id, rows_of(args, kwargs) if rows_of else -1)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(i)
            if post is not None:
                j = self._open(0, -1)
                post(args, kwargs, result, i)
                self._close(j)
            return result
        return traced

    def install(self):
        """Wrap every target that exists; note the ones that do not."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "drauc" or name.startswith("drauc.")) and m is not None]
        for mod_name, fn_names in TARGETS.items():
            home = sys.modules.get(f"drauc.{mod_name}")
            for fn_name in fn_names:
                qualname = f"{mod_name}.{fn_name}"
                original = getattr(home, fn_name, None)
                if not callable(original):
                    self.absent.append(qualname)
                    continue
                traced = self._wrap(qualname, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, traced)

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), fn=np.asarray(self.fn),
                            start=np.asarray(self.start), end=np.asarray(self.end),
                            parent=np.asarray(self.parent), rows=np.asarray(self.rows))

    def totals(self):
        """Per-function calls, rows and self time, and the tracer's counters."""
        fn = np.asarray(self.fn)
        parent = np.asarray(self.parent)
        dur = np.asarray(self.end) - np.asarray(self.start)
        rows = np.asarray(self.rows)
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        out = {"calls": {}, "rows": {}, "self_s": {}}
        for k, name in enumerate(self.names[1:], start=1):
            mask = fn == k
            out["calls"][name] = int(mask.sum())
            out["rows"][name] = int(rows[mask & (rows >= 0)].sum())
            out["self_s"][name] = float(self_t[mask].sum())
        estimate = self.names.index("robust.estimate_robust_auc") \
            if "robust.estimate_robust_auc" in self.names else -1
        attacks_in_estimate = 0
        if "robust.attack_batch" in self.names:
            for i in np.flatnonzero(fn == self.names.index("robust.attack_batch")):
                k = parent[i]
                while k >= 0 and fn[k] != estimate:
                    k = parent[k]
                attacks_in_estimate += int(k >= 0)
        out.update(moved_rows=self.moved_rows, history_bytes=self.history_bytes,
                   report_bytes=self.report_bytes,
                   attacks_in_estimate=attacks_in_estimate)
        return out


def per_layer(totals, rounds, setup_totals):
    """Every PER_LAYER metric from the totals of a run's operations and of
    one set-up; a function that was absent or never called reads 0."""
    def stat(qualname, kind, of=totals):
        return sum(t[kind].get(qualname, 0) for t in of)

    def counter(key):
        return sum(t[key] for t in totals)

    attack_rows = stat("robust.attack_batch", "rows")
    estimates = stat("robust.estimate_robust_auc", "calls")
    out = {}
    for name, _unit in PER_LAYER:
        if name == "robust.attack_moved_share":
            out[name] = counter("moved_rows") / attack_rows if attack_rows else 0.0
            continue
        if name == "robust.estimate_robust_auc.attacks_per_call":
            out[name] = counter("attacks_in_estimate") / estimates if estimates else 0.0
            continue
        if name.startswith("setup."):
            qualname = "cli.run_command" if name == "setup.cli.self_s" else name[6:-7]
            out[name] = stat(qualname, "self_s", [setup_totals])
            continue
        if name == "model.forward_rows":
            value = sum(stat(f, "rows") for f in MODEL_FNS)
        elif name == "training.loop_self_s":
            value = sum(stat(t, "self_s") for t in TRAINERS)
        elif name in ("training.history_bytes", "checkpoint.report_bytes"):
            value = counter(name.split(".")[1])
        elif name == "cli.self_s":
            value = stat("cli.run_command", "self_s")
        else:
            qualname, kind = name.rsplit(".", 1)
            value = stat(qualname, kind)
        out[name] = value / rounds
    return out
