"""Which wicrep functions the traced run wraps, and the per-layer metrics.

Wrappers rebind the module attributes that wicrep's callers look up at call
time, so spans land inside the program's own call chains without any edit
to it. A function that a later refactor removes is skipped, and the metrics
that need it are left out of the report instead of failing the run.

The benchmark's own spans (corpus.prepare, train.init_model, train.train,
tasks.*) are opened in workloads.py around its calls into each layer.
"""

from __future__ import annotations

import importlib
import statistics

from spans import Span, Tracer, ratio, self_time

# Every per-layer metric and its unit, in report order (BENCHMARK.json lists the same).
UNITS = {
    "corpus.prepare_s": "s",
    "corpus.instances": "count",
    "train.init_model_s": "s",
    "train.save_checkpoint_s": "s",
    "train.load_checkpoint_s": "s",
    "train.adam_step.ms_per_update": "ms",
    "train.perplexity_s": "s",
    "model.batch_nll.inst_per_s": "1/s",
    "model.loss_and_gradients.ms_per_inst": "ms",
    "model.loss_and_gradients.self_ms_per_update": "ms",
    "model.head_distribution.calls_per_update": "count",
    "model.head_distribution.ms_per_call": "ms",
    "model.encode_bidirectional.calls": "count",
    "model.encode_bidirectional.ms_per_token": "ms",
    "model.inst_per_sentence": "ratio",
    "numkit.sigmoid.calls_per_update": "count",
    "numkit.softmax_stable.calls": "count",
    "numkit.affine.calls": "count",
    "tasks.evaluate_supersense_s": "s",
    "tasks.supersense.encodes_per_token": "ratio",
    "tasks.lexsub_predict.ms_per_item": "ms",
    "tasks.lexsub.encodes_per_candidate": "ratio",
    "tasks.export_translation_features_s": "s",
    "tasks.export.encodes_per_query": "ratio",
    "trace.overhead_frac": "frac",
    "trace.untraced_frac": "frac",
}


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _batch_work(*args, **kwargs) -> dict:
    batch = _arg(args, kwargs, 2, "batch")
    return {"instances": len(batch), "sentences": len({tuple(i.source_ids) for i in batch})}


# (module, attribute, span name, mode, work); mode "span" records one span per
# call, "count" only counts calls on the innermost open span.
WRAPPED = (
    ("wicrep.train", "loss_and_gradients", "model.loss_and_gradients", "span", _batch_work),
    ("wicrep.train", "adam_step", "train.adam_step", "span", None),
    ("wicrep.train", "perplexity", "train.perplexity", "span", None),
    ("wicrep.train", "batch_nll", "model.batch_nll", "span",
     lambda *a, **k: {"instances": len(_arg(a, k, 2, "batch"))}),
    ("wicrep.model", "head_distribution", "model.head_distribution", "span", None),
    ("wicrep.tasks", "head_distribution", "model.head_distribution", "span", None),
    ("wicrep.tasks", "encode_bidirectional", "model.encode_bidirectional", "span",
     lambda *a, **k: {"tokens": len(_arg(a, k, 1, "source_ids"))}),
    ("wicrep.model", "sigmoid", "numkit.sigmoid", "count", None),
    ("wicrep.model", "softmax_stable", "numkit.softmax_stable", "count", None),
    ("wicrep.model", "affine", "numkit.affine", "count", None),
)


def install(tracer: Tracer) -> set[str]:
    """Wrap every function in WRAPPED that still exists; returns the span names installed."""
    installed = set()
    for module_name, attr, name, mode, work in WRAPPED:
        module = importlib.import_module(module_name)
        if mode == "span":
            wrap = lambda fn, name=name, work=work: tracer.timed(fn, name, work)
        else:
            wrap = lambda fn, name=name: tracer.counted(fn, name)
        if tracer.install(module, attr, wrap):
            installed.add(name)
    return installed


# Metric name -> wrapped span names it needs (benchmark-owned spans always exist).
NEEDS = {
    "train.adam_step.ms_per_update": {"train.adam_step"},
    "train.perplexity_s": {"train.perplexity"},
    "model.batch_nll.inst_per_s": {"model.batch_nll"},
    "model.loss_and_gradients.ms_per_inst": {"model.loss_and_gradients"},
    "model.loss_and_gradients.self_ms_per_update": {"model.loss_and_gradients", "model.head_distribution"},
    "model.head_distribution.calls_per_update": {"model.loss_and_gradients", "model.head_distribution"},
    "model.head_distribution.ms_per_call": {"model.head_distribution"},
    "model.encode_bidirectional.calls": {"model.encode_bidirectional"},
    "model.encode_bidirectional.ms_per_token": {"model.encode_bidirectional"},
    "model.inst_per_sentence": {"model.loss_and_gradients"},
    "numkit.sigmoid.calls_per_update": {"numkit.sigmoid", "train.adam_step"},
    "numkit.softmax_stable.calls": {"numkit.softmax_stable"},
    "numkit.affine.calls": {"numkit.affine"},
    "tasks.supersense.encodes_per_token": {"model.encode_bidirectional"},
    "tasks.lexsub.encodes_per_candidate": {"model.encode_bidirectional"},
    "tasks.export.encodes_per_query": {"model.encode_bidirectional"},
}


def _by_name(spans: list[Span]) -> dict[str, list[Span]]:
    out: dict[str, list[Span]] = {}
    for sp in spans:
        out.setdefault(sp.name, []).append(sp)
    return out


def _total(spans, key=None) -> float:
    return sum(sp.work.get(key, 0) if key else sp.duration for sp in spans)


def _count(spans, name: str) -> int:
    return sum(sp.counts[name] for sp in spans)


def setup_metrics(tracer: Tracer, setup_roots: list[Span]) -> dict[str, float]:
    """Median over set-ups of the time each layer spent in set-up."""
    kids = tracer.children()
    per_setup = []
    for root in setup_roots:
        named = _by_name(tracer.subtree(root, kids))
        per_setup.append({
            "corpus.prepare_s": _total(named.get("corpus.prepare", [])),
            "train.init_model_s": _total(named.get("train.init_model", [])),
            "train.save_checkpoint_s": _total(named.get("train.save_checkpoint", [])),
            "train.load_checkpoint_s": _total(named.get("train.load_checkpoint", [])),
        })
    return {k: statistics.median(m[k] for m in per_setup) for k in per_setup[0]}


def rep_metrics(tracer: Tracer, rep_root: Span) -> dict[str, float]:
    """Per-layer metrics of one traced cycle."""
    kids = tracer.children()
    everything = tracer.subtree(rep_root, kids)
    named = _by_name(everything)

    def under(parent_name: str, name: str) -> list[Span]:
        return [sp for parent in named.get(parent_name, []) for sp in tracer.subtree(parent, kids)
                if sp.name == name]

    lg = named.get("model.loss_and_gradients", [])
    adam = named.get("train.adam_step", [])
    updates = len(adam)
    heads = named.get("model.head_distribution", [])
    encodes = named.get("model.encode_bidirectional", [])
    nll = named.get("model.batch_nll", [])
    sst = named.get("tasks.evaluate_supersense", [])
    lexsub = named.get("tasks.lexsub_predict", [])
    export = named.get("tasks.export_translation_features", [])
    train_spans = named.get("train.train", [])
    top = kids.get(rep_root.sid, [])
    return {
        "train.adam_step.ms_per_update": 1000 * ratio(_total(adam), updates),
        "train.perplexity_s": _total(named.get("train.perplexity", [])),
        "model.batch_nll.inst_per_s": ratio(_total(nll, "instances"), _total(nll)),
        "model.loss_and_gradients.ms_per_inst": 1000 * ratio(_total(lg), _total(lg, "instances")),
        "model.loss_and_gradients.self_ms_per_update":
            1000 * ratio(sum(self_time(sp, kids) for sp in lg), len(lg)),
        "model.head_distribution.calls_per_update":
            ratio(len(under("model.loss_and_gradients", "model.head_distribution")), len(lg)),
        "model.head_distribution.ms_per_call": 1000 * ratio(_total(heads), len(heads)),
        "model.encode_bidirectional.calls": len(encodes),
        "model.encode_bidirectional.ms_per_token": 1000 * ratio(_total(encodes), _total(encodes, "tokens")),
        "model.inst_per_sentence": ratio(_total(lg, "instances"), _total(lg, "sentences")),
        "numkit.sigmoid.calls_per_update":
            ratio(sum(_count(tracer.subtree(sp, kids), "numkit.sigmoid") for sp in train_spans), updates),
        "numkit.softmax_stable.calls": _count(everything, "numkit.softmax_stable"),
        "numkit.affine.calls": _count(everything, "numkit.affine"),
        "tasks.evaluate_supersense_s": _total(sst),
        "tasks.supersense.encodes_per_token":
            ratio(len(under("tasks.evaluate_supersense", "model.encode_bidirectional")), _total(sst, "tokens")),
        "tasks.lexsub_predict.ms_per_item": 1000 * ratio(_total(lexsub), len(lexsub)),
        "tasks.lexsub.encodes_per_candidate":
            ratio(len(under("tasks.lexsub_predict", "model.encode_bidirectional")), _total(lexsub, "candidates")),
        "tasks.export_translation_features_s": _total(export),
        "tasks.export.encodes_per_query":
            ratio(len(under("tasks.export_translation_features", "model.encode_bidirectional")),
                  _total(export, "queries")),
        "trace.untraced_frac": 1.0 - ratio(_total(top), rep_root.duration),
    }


def per_layer(tracer: Tracer, installed: set[str], setup_roots, rep_roots, untraced_walls,
              counts: dict[str, float]) -> dict[str, float]:
    """Medians over traced cycles, with metrics whose wrapped functions are gone left out."""
    out = setup_metrics(tracer, setup_roots)
    reps = [rep_metrics(tracer, root) for root in rep_roots]
    for key in reps[0]:
        if NEEDS.get(key, set()) <= installed:
            out[key] = statistics.median(r[key] for r in reps)
    out.update(counts)  # counts of the inputs, e.g. corpus.instances
    traced = statistics.median(root.duration for root in rep_roots)
    out["trace.overhead_frac"] = traced / statistics.median(untraced_walls) - 1.0
    return out
