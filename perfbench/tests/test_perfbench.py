"""Tests of the benchmark's own arithmetic and failure accounting.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import layers  # noqa: E402
from spans import Tracer, ratio, self_time  # noqa: E402


class ScriptedClock:
    """Returns the given instants in order, so span boundaries are exact."""

    def __init__(self, *instants):
        self.instants = list(instants)

    def __call__(self):
        return self.instants.pop(0)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > grandchild [2, 3]; root > b [5, 7]
    tr = Tracer(clock=ScriptedClock(0, 1, 2, 3, 4, 5, 7, 10))
    with tr.span("root") as root:
        with tr.span("a") as a:
            with tr.span("g") as g:
                pass
        with tr.span("b") as b:
            pass
    kids = tr.children()
    assert self_time(root, kids) == pytest.approx(10 - 3 - 2)
    assert self_time(a, kids) == pytest.approx(3 - 1)
    assert self_time(g, kids) == pytest.approx(1)
    assert self_time(b, kids) == pytest.approx(2)
    assert [sp.name for sp in tr.subtree(a, kids)] == ["a", "g"]


def test_ratio_of_an_empty_base_is_zero():
    assert ratio(5, 0) == 0.0
    assert ratio(3, 4) == 0.75


def _synthetic_rep():
    """One cycle: 2 updates of 4 instances over 2 sentences each, a lexsub item, an export."""
    tr = Tracer(clock=iter(range(1000)).__next__)
    with tr.span("rep") as rep:
        with tr.span("train.train", instances=8):
            for _ in range(2):
                with tr.span("model.loss_and_gradients", instances=4, sentences=2) as lg:
                    lg.counts["numkit.sigmoid"] += 30
                    for _ in range(4):
                        with tr.span("model.head_distribution"):
                            pass
                with tr.span("train.adam_step"):
                    pass
        with tr.span("tasks.lexsub_predict", candidates=10):
            for _ in range(11):
                with tr.span("model.encode_bidirectional", tokens=5):
                    pass
        with tr.span("tasks.export_translation_features", queries=6):
            for _ in range(2):
                with tr.span("model.encode_bidirectional", tokens=7):
                    pass
    return tr, rep


def test_rep_metrics_use_the_stated_bases():
    tr, rep = _synthetic_rep()
    m = layers.rep_metrics(tr, rep)
    assert m["model.inst_per_sentence"] == 2.0                  # instances / distinct sentences
    assert m["model.head_distribution.calls_per_update"] == 4.0  # per loss_and_gradients call
    assert m["numkit.sigmoid.calls_per_update"] == 30.0          # per Adam update
    assert m["tasks.lexsub.encodes_per_candidate"] == 1.1        # the original plus one per candidate
    assert m["tasks.export.encodes_per_query"] == pytest.approx(2 / 6)
    assert m["model.encode_bidirectional.calls"] == 13
    # each span is 2 ticks long per level of nesting; a head span lasts 1 tick
    assert m["model.head_distribution.ms_per_call"] == 1000.0
    assert m["model.loss_and_gradients.self_ms_per_update"] == 1000.0 * (9 - 4)
    assert m["tasks.supersense.encodes_per_token"] == 0.0       # no supersense phase: empty base
    assert 0.0 < m["trace.untraced_frac"] < 1.0


def test_metrics_of_a_removed_function_are_left_out():
    tr, rep = _synthetic_rep()
    with tr.span("setup") as setup:
        with tr.span("corpus.prepare"):
            pass
    everything = {name for _, _, name, _, _ in layers.WRAPPED}
    out = layers.per_layer(tr, everything - {"numkit.sigmoid"}, [setup], [rep], [rep.duration], {})
    assert "numkit.sigmoid.calls_per_update" not in out
    assert "model.inst_per_sentence" in out
    assert out["trace.overhead_frac"] == 0.0


def test_install_skips_a_missing_attribute_and_uninstall_restores():
    class Module:
        @staticmethod
        def present(x):
            return x + 1

    tr = Tracer()
    original = Module.present
    assert tr.install(Module, "present", lambda fn: tr.timed(fn, "present"))
    assert not tr.install(Module, "absent", lambda fn: tr.timed(fn, "absent"))
    assert Module.present(1) == 2 and [sp.name for sp in tr.spans] == ["present"]
    tr.uninstall()
    assert Module.present is original


def test_a_failing_operation_is_counted_not_raised():
    ledger = checks.Ledger(stream=open("/dev/null", "w"))
    assert ledger.call("fine", lambda: 1) == (True, 1)

    def boom():
        raise ValueError("injected")

    assert ledger.call("injected", boom) == (False, None)
    assert ledger.call("fine", lambda: 2) == (True, 2)
    assert (ledger.attempted, ledger.failed) == (3, 1)
    assert ledger.failed_frac == pytest.approx(1 / 3)
    assert ledger.failures == ["injected"]


def test_thread_check_fails_unless_pinning_is_seen(monkeypatch):
    monkeypatch.setenv("PERFBENCH_T1", "1")
    monkeypatch.setenv("PERFBENCH_T2", "4")
    checks.check_threads(("PERFBENCH_T1",), 1, 1)
    with pytest.raises(checks.CheckFailed):
        checks.check_threads(("PERFBENCH_T1", "PERFBENCH_T2"), 1, 1)  # a variable has the wrong value
    with pytest.raises(checks.CheckFailed):
        checks.check_threads(("PERFBENCH_T1",), 1, None)  # no OpenBLAS found: not a pass
    with pytest.raises(checks.CheckFailed):
        checks.check_threads(("PERFBENCH_T1",), 1, 2)


def test_an_injected_failure_inside_a_cycle_raises_failed_frac(tmp_path):
    import workloads
    from spans import NullTracer

    workloads.write_inputs("homograph-train", 3, tmp_path)
    st = workloads.setup("homograph-train", 3, tmp_path, tmp_path / "ckpt", NullTracer())
    st.train_instances = st.train_instances[:16]
    st.dev_instances = st.dev_instances[:8]
    st.supersense.sentences = st.supersense.sentences[:2]
    st.queries = st.queries[:4]
    st.lexsub_items = st.lexsub_items[:3]
    st.candidates = {}  # every lexsub item now has an empty candidate list, which wicrep rejects
    ledger = checks.Ledger(stream=open("/dev/null", "w"))
    res = workloads.cycle(st, NullTracer(), ledger.call)
    assert ledger.failures == ["tasks.lexsub_predict"] * 3
    assert ledger.attempted == 1 + 1 + 1 + 3 + 1
    assert ledger.failed_frac == pytest.approx(3 / 7)
    assert len(res.records) == 4 and res.picks == {}  # the other phases still ran


def test_benchmark_json_lists_the_reported_metrics():
    import run

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
