"""Which kfpca calls the traced run wraps, and the per-layer metrics built
from the spans they record.

Each target is the attribute one layer calls in another: for example
``kfpca.model.kendall_tau_hat`` is the estimator as the ``model`` layer sees
it.  The first dotted part of a target's name is the layer it measures:
``simgen``, ``core``, ``estimators``, ``eigen``, ``model``, ``metrics``,
``cli`` (the modules under ``src/kfpca/``), and ``linalg`` for
``numpy.linalg``.  ``core.Curve`` only counts constructions.
"""

import os
from collections import defaultdict

from spans import ROOT, Target, covered_ns, self_times

LAYERS = ("simgen", "core", "estimators", "eigen", "model", "metrics", "cli", "linalg")


def _pairs(args, kwargs, result):
    n = (args[0] if args else kwargs["sample"]).n_subjects
    return {"pairs": n * (n - 1) // 2}


def _returned(args, kwargs, result):
    return {"returned": len(result)}


def _kept(args, kwargs, result):
    return {"kept": result.n_components}


def _read_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _written_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])}


TARGETS = (
    Target("kfpca.metrics", "evaluate_run", "metrics.evaluate_run"),
    Target("kfpca.metrics", "generate", "simgen.generate"),
    Target("kfpca.metrics", "fit", "model.fit", note=_kept),
    Target("kfpca.model", "fit", "model.fit", note=_kept),
    Target("kfpca.cli", "fit", "model.fit", note=_kept),
    Target("kfpca.cli", "cmd_fit", "cli.cmd_fit"),
    Target("kfpca.cli", "read_dataset", "cli.read_dataset", note=_read_bytes),
    Target("kfpca.cli", "save_model", "model.save_model", note=_written_bytes),
    Target("kfpca.model", "load_model", "model.load_model"),
    Target("kfpca.model", "smooth_curve", "core.smooth_curve.via_model"),
    Target("kfpca.model", "mean_hat", "estimators.mean_hat"),
    Target("kfpca.model", "kendall_tau_hat", "estimators.kendall_tau_hat", note=_pairs),
    Target("kfpca.model", "covariance_hat", "estimators.covariance_hat"),
    Target(
        "kfpca.estimators", "DiscretizedKernel.__post_init__", "estimators.kernel_validate"
    ),
    Target("kfpca.model", "eigen_decompose", "eigen.eigen_decompose", note=_returned),
    Target("kfpca.model", "project_scores", "eigen.project_scores"),
    Target("kfpca.eigen", "smooth_curve", "core.smooth_curve.via_eigen"),
    Target("numpy.linalg", "eigh", "linalg.eigh"),
    Target("numpy.linalg", "eigvalsh", "linalg.eigvalsh"),
    Target("kfpca.core", "Curve.__post_init__", "core.Curve", count_only=True),
)


class Summary:
    """Per-name totals over the spans of the traced operations."""

    def __init__(self, tracer, n_ops: int):
        self.n_ops = n_ops
        self.counts = tracer.counts
        selfs = self_times(tracer.spans)
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.notes = defaultdict(lambda: defaultdict(int))
        by_layer = defaultdict(list)
        op_ns = 0
        op_self_ns = 0
        for s in tracer.spans:
            if s.name == ROOT:
                op_ns += s.duration
                op_self_ns += selfs[s.id]
                continue
            self.calls[s.name] += 1
            self.total_ns[s.name] += s.duration
            self.self_ns[s.name] += selfs[s.id]
            for key, value in (s.note or {}).items():
                self.notes[s.name][key] += value
            by_layer[s.name.split(".", 1)[0]].append(s)
        # the part of an operation not covered by library spans is its self time
        self.coverage = 1.0 - op_self_ns / op_ns if op_ns else 0.0
        self.layer_calls = {k: len(v) for k, v in by_layer.items()}
        self.layer_self_ns = {k: sum(selfs[s.id] for s in v) for k, v in by_layer.items()}
        # busy time: union of the layer's spans, so nested calls count once
        self.layer_busy_ns = {
            k: covered_ns([(s.start, s.end) for s in v], min(s.start for s in v),
                          max(s.end for s in v))
            for k, v in by_layer.items()
        }

    def per_op(self, value) -> float:
        return value / self.n_ops

    def ms(self, name) -> float:
        return self.total_ns[name] / 1e6 / self.n_ops

    def self_ms(self, name) -> float:
        return self.self_ns[name] / 1e6 / self.n_ops

    def rate(self, name, key, scale) -> float:
        seconds = self.total_ns[name] / 1e9
        return self.notes[name][key] / scale / seconds if seconds else 0.0

    def ratio(self, name_a, key_a, name_b, key_b) -> float:
        b = self.notes[name_b][key_b]
        return self.notes[name_a][key_a] / b if b else 0.0


def _layer_metrics():
    out = []
    for layer in LAYERS:
        out += [
            (f"{layer}.calls_per_op", "count", "lower", (),
             lambda s, l=layer: s.per_op(s.layer_calls.get(l, 0))),
            (f"{layer}.busy_ms_per_op", "ms", "lower", (),
             lambda s, l=layer: s.layer_busy_ns.get(l, 0) / 1e6 / s.n_ops),
            (f"{layer}.self_ms_per_op", "ms", "lower", (),
             lambda s, l=layer: s.layer_self_ns.get(l, 0) / 1e6 / s.n_ops),
        ]
    return out


# (metric, unit, better, span names it needs, value from a Summary).
# trace.overhead_ratio is filled in by the runner, which owns both timings.
PER_LAYER = [
    ("core.curves_per_op", "count", "lower", ("core.Curve",),
     lambda s: s.per_op(s.counts["core.Curve"])),
    ("linalg.eigensolves_per_op", "count", "lower", ("linalg.eigh", "linalg.eigvalsh"),
     lambda s: s.per_op(s.calls["linalg.eigh"] + s.calls["linalg.eigvalsh"])),
    ("estimators.kernel_validate.ms_per_op", "ms", "lower",
     ("estimators.kernel_validate",), lambda s: s.ms("estimators.kernel_validate")),
    ("eigen.eigen_decompose.self_ms_per_op", "ms", "lower", ("eigen.eigen_decompose",),
     lambda s: s.self_ms("eigen.eigen_decompose")),
    ("eigen.kept_ratio", "ratio", "higher", ("model.fit", "eigen.eigen_decompose"),
     lambda s: s.ratio("model.fit", "kept", "eigen.eigen_decompose", "returned")),
    ("simgen.generate.calls_per_op", "count", "lower", ("simgen.generate",),
     lambda s: s.per_op(s.calls["simgen.generate"])),
    ("simgen.generate.ms_per_op", "ms", "lower", ("simgen.generate",),
     lambda s: s.ms("simgen.generate")),
    ("metrics.evaluate_run.self_ms_per_op", "ms", "lower", ("metrics.evaluate_run",),
     lambda s: s.self_ms("metrics.evaluate_run")),
    ("estimators.kendall_tau_hat.ms_per_op", "ms", "lower",
     ("estimators.kendall_tau_hat",), lambda s: s.ms("estimators.kendall_tau_hat")),
    ("estimators.kendall_tau_hat.mpairs_per_s", "Mpairs/s", "higher",
     ("estimators.kendall_tau_hat",),
     lambda s: s.rate("estimators.kendall_tau_hat", "pairs", 1e6)),
    ("estimators.covariance_hat.ms_per_op", "ms", "lower",
     ("estimators.covariance_hat",), lambda s: s.ms("estimators.covariance_hat")),
    ("core.smooth_curve.via_model.calls_per_op", "count", "lower",
     ("core.smooth_curve.via_model",),
     lambda s: s.per_op(s.calls["core.smooth_curve.via_model"])),
    ("core.smooth_curve.via_model.ms_per_op", "ms", "lower",
     ("core.smooth_curve.via_model",), lambda s: s.ms("core.smooth_curve.via_model")),
    ("core.smooth_curve.via_eigen.calls_per_op", "count", "lower",
     ("core.smooth_curve.via_eigen",),
     lambda s: s.per_op(s.calls["core.smooth_curve.via_eigen"])),
    ("core.smooth_curve.via_eigen.ms_per_op", "ms", "lower",
     ("core.smooth_curve.via_eigen",), lambda s: s.ms("core.smooth_curve.via_eigen")),
    ("cli.read_dataset.ms_per_op", "ms", "lower", ("cli.read_dataset",),
     lambda s: s.ms("cli.read_dataset")),
    ("cli.read_dataset.mib_per_s", "MiB/s", "higher", ("cli.read_dataset",),
     lambda s: s.rate("cli.read_dataset", "bytes", 2**20)),
    ("model.save_model.ms_per_op", "ms", "lower", ("model.save_model",),
     lambda s: s.ms("model.save_model")),
    ("model.doc_kib", "KiB", "lower", ("model.save_model",),
     lambda s: s.notes["model.save_model"]["bytes"] / 1024 / s.calls["model.save_model"]
     if s.calls["model.save_model"] else 0.0),
    ("model.load_model.ms_per_op", "ms", "lower", ("model.load_model",),
     lambda s: s.ms("model.load_model")),
    ("model.fit.self_ms_per_op", "ms", "lower", ("model.fit",),
     lambda s: s.self_ms("model.fit")),
    ("eigen.project_scores.ms_per_op", "ms", "lower", ("eigen.project_scores",),
     lambda s: s.ms("eigen.project_scores")),
    ("trace.overhead_ratio", "ratio", "lower", (), None),
    ("trace.coverage", "ratio", "higher", (), lambda s: s.coverage),
] + _layer_metrics()


def per_layer_metrics(summary: Summary, absent_names: set) -> tuple[dict, list]:
    """Every per-layer metric except trace.overhead_ratio, and the names of
    those whose spans could not be installed (reported as 0)."""
    values = {}
    absent = []
    for name, unit, _, needs, fn in PER_LAYER:
        if fn is None:
            continue
        if any(n in absent_names for n in needs):
            absent.append(name)
            values[name] = {"value": 0.0, "unit": unit}
        else:
            values[name] = {"value": float(fn(summary)), "unit": unit}
    return values, absent


def absent_span_names(absent_paths) -> set:
    """Span names none of whose targets could be installed."""
    absent_paths = set(absent_paths)
    installed = {
        t.name for t in TARGETS if f"{t.module}.{t.attr}" not in absent_paths
    }
    return {t.name for t in TARGETS} - installed
