#!/usr/bin/env python3
"""wicrep benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload homograph-train --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. It generates the workload's inputs
from the seed, sets up (reading them through wicrep) several times, repeats
the measured phases for about --seconds, checks the outputs, and prints one
JSON line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the same cycles are run
untraced and then traced, and the metrics are the per-layer ones. A summary
with units goes to the error stream, and an environment record (plus the
spans, when traced) to perfbench/out/.
"""

from __future__ import annotations

import os

# BLAS must be pinned before numpy is first imported; the same variables as
# wicrep.cli._THREAD_VARS, which a check compares against at run time.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
THREADS = 1
for _var in THREAD_VARS:
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3        # set-ups before the cycles, and again after them: at least this many ...
SETUP_MIN_SECONDS = 4.0  # ... and more, up to SETUP_MAX_REPEATS, until they took this long
SETUP_MAX_REPEATS = 20
WORKLOADS = ("homograph-train", "paper-train", "transfer-infer")

# End-to-end metric -> unit; throughputs are work done / seconds of their phase.
END_TO_END = {
    "setup_s": "s",
    "train_inst_per_s": "1/s",
    "eval_inst_per_s": "1/s",
    "dev_ppl": "ppl",
    "supersense_tok_per_s": "1/s",
    "lexsub_items_per_s": "1/s",
    "export_queries_per_s": "1/s",
    "peak_rss_mb": "MB",
}
THROUGHPUT_PHASE = {
    "train_inst_per_s": "train",
    "eval_inst_per_s": "score",
    "supersense_tok_per_s": "supersense",
    "lexsub_items_per_s": "lexsub",
    "export_queries_per_s": "export",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measured time; another cycle starts only if it should fit")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_wicrep():
    """Import wicrep from this checkout's src/, never from an installed copy."""
    if not (SRC / "wicrep" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no wicrep sources at {SRC / 'wicrep'}; "
                         "run from the root of a wicrep checkout")
    sys.path.insert(0, str(SRC))
    import wicrep

    if Path(wicrep.__file__).resolve().parent != (SRC / "wicrep").resolve():
        raise SystemExit(f"perfbench: imported wicrep from {wicrep.__file__}, not {SRC}")
    return wicrep


@dataclasses.dataclass
class Measured:
    """What one run measured: set-up times, cycles, and the traced copies."""

    state: object = None
    setup_seconds: list = dataclasses.field(default_factory=list)
    setup_roots: list = dataclasses.field(default_factory=list)
    reps: list = dataclasses.field(default_factory=list)
    traced_roots: list = dataclasses.field(default_factory=list)
    installed: set = dataclasses.field(default_factory=set)


def _cycles(state, tr, call, budget: float, count: int | None = None):
    """Cycles until the next would overrun budget seconds (at least one), or count of them."""
    import workloads

    reps, roots, start = [], [], time.perf_counter()
    while not reps or (len(reps) < count if count else
                       time.perf_counter() - start + statistics.median(r.wall for r in reps) <= budget):
        if reps:
            reps[-1].drop_models()
        with tr.span("rep") as root:
            reps.append(workloads.cycle(state, tr, call))
        roots.append(root)
    return reps, roots


def _setups(args, ledger, workdir: Path, tr, m: Measured):
    """One batch of set-ups, timed into m; returns (ok, the last state)."""
    import workloads

    state, seconds = None, []
    while len(seconds) < SETUP_REPEATS or (sum(seconds) < SETUP_MIN_SECONDS and len(seconds) < SETUP_MAX_REPEATS):
        state = None  # release the previous models before building new ones
        ckpt_dir = workdir / f"checkpoints{len(m.setup_roots)}"
        t0 = time.perf_counter()
        with tr.span("setup") as root:
            ok, state = ledger.call("setup", lambda: workloads.setup(
                args.workload, args.seed, workdir, ckpt_dir, tr))
        seconds.append(time.perf_counter() - t0)
        m.setup_roots.append(root)
        shutil.rmtree(ckpt_dir, ignore_errors=True)  # the models are loaded; the files are not needed
        if not ok:
            break
    m.setup_seconds += seconds
    return ok, state


def measure(args, ledger, workdir: Path, tracer) -> Measured:
    import layers
    import workloads
    from spans import NullTracer

    m = Measured()
    tr = tracer or NullTracer()
    ok, _ = ledger.call("write_inputs", lambda: workloads.write_inputs(args.workload, args.seed, workdir))
    if ok:
        ok, m.state = _setups(args, ledger, workdir, tr, m)
    if not ok:
        return m
    # a traced run spends half its budget untraced, for the overhead baseline
    budget = args.seconds / 2 if tracer is not None else args.seconds
    m.reps, _ = _cycles(m.state, NullTracer(), ledger.call, budget)
    if tracer is not None:
        m.installed = layers.install(tracer)
        try:
            _, m.traced_roots = _cycles(m.state, tracer, ledger.call, budget, count=len(m.reps))
        finally:
            tracer.uninstall()
    # set up again, so that setup_s spans the same stretch of host time as the cycles
    _setups(args, ledger, workdir, tr, m)
    return m


def run_checks(args, ledger, m: Measured, env: dict) -> None:
    import checks
    import numpy as np

    from wicrep import cli

    ledger.call("check.threads_pinned", lambda: checks.check_threads(
        cli._THREAD_VARS, THREADS, env["blas_threads"]))
    ledger.call("check.gradients", lambda: checks.check_gradients(args.seed))
    if not m.reps:
        return
    st, last = m.state, m.reps[-1]
    rng = np.random.default_rng(args.seed)

    def sample(seq, k):
        return [seq[int(i)] for i in sorted(rng.choice(len(seq), size=min(k, len(seq)), replace=False))]

    translation = last.translation
    ledger.call("check.finite", lambda: checks.check_finite(last.trained, [r.dev_ppl for r in m.reps]))
    dev = sample(st.dev_instances, 4)
    ledger.call("check.encodes", lambda: checks.check_encodes(
        translation.encoder, [i.source_ids for i in dev[:2]]))
    ledger.call("check.batch_nll", lambda: checks.check_nll(translation.encoder, translation.head, dev))
    ks = sample(range(len(st.queries)), 3)
    ledger.call("check.export", lambda: checks.check_export(
        translation, [st.queries[k] for k in ks], [last.records[k] for k in ks]))
    for item in sample(st.lexsub_items, 2):
        ledger.call("check.lexsub", lambda item=item: checks.check_lexsub(
            translation, item, st.candidates[item.lemma], last.picks.get(item.item_id)))
    shortest = min(st.supersense.sentences, key=len)
    ledger.call("check.tags", lambda: checks.check_tags(last.tagger, [t for t, _ in shortest], 20))
    ledger.call("check.scores", lambda: checks.check_scores(last.scores, st.supersense))


class _PhdrInfo(ctypes.Structure):
    _fields_ = [("dlpi_addr", ctypes.c_void_p), ("dlpi_name", ctypes.c_char_p)]


def loaded_libraries() -> list[str]:
    """Paths of the shared libraries loaded into this process (dl_iterate_phdr, as threadpoolctl does)."""
    names = []

    def visit(info, size, data):
        if info.contents.dlpi_name:
            names.append(info.contents.dlpi_name.decode())
        return 0

    callback = ctypes.CFUNCTYPE(ctypes.c_int, ctypes.POINTER(_PhdrInfo), ctypes.c_size_t, ctypes.c_void_p)
    libc = ctypes.CDLL(None)
    if hasattr(libc, "dl_iterate_phdr"):
        libc.dl_iterate_phdr(callback(visit), None)
    return names


def environment() -> dict:
    """Versions, core count and the BLAS thread count actually in effect."""
    import hashlib
    import platform
    import subprocess

    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = None
    for lib in loaded_libraries():
        if "openblas" not in Path(lib).name:
            continue
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                threads = fn()
                break
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
        sha = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "wicrep").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "pinned_threads": THREADS,
        "blas_threads": threads,
    }


def end_to_end(setup_seconds, reps) -> dict[str, float]:
    out = {"setup_s": statistics.median(setup_seconds)}
    for metric, phase in THROUGHPUT_PHASE.items():
        out[metric] = statistics.median(r.work[phase] / r.seconds[phase] for r in reps)
    out["dev_ppl"] = statistics.median(r.dev_ppl for r in reps)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    import_wicrep()
    from checks import Ledger
    from spans import Tracer

    ledger = Ledger()
    tracer = Tracer() if args.trace else None
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"{tag}-pid{os.getpid()}"
    env = environment()
    try:
        m = measure(args, ledger, workdir, tracer)
        run_checks(args, ledger, m, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics, units = {}, {}
    if m.reps and ledger.failed == 0:
        if args.trace:
            import layers

            metrics = layers.per_layer(tracer, m.installed, m.setup_roots, m.traced_roots,
                                       [r.wall for r in m.reps], m.state.counts)
            units = layers.UNITS
        else:
            metrics = end_to_end(m.setup_seconds, m.reps)
            units = END_TO_END
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": env, "cycles": len(m.reps), "failures": ledger.failures,
              "result": result}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        with open(OUT / f"{tag}.spans.jsonl", "w", encoding="utf-8") as fh:
            for sp in tracer.spans:
                fh.write(json.dumps({"id": sp.sid, "parent": sp.parent, "name": sp.name, "start": sp.start,
                                     "end": sp.end, "work": sp.work, "counts": dict(sp.counts)}) + "\n")
    summarize(args, ledger, m.reps, result, sys.stderr)
    print(json.dumps(result))
    return 0


def summarize(args, ledger, reps, result, stream) -> None:
    print(f"perfbench {args.workload} seed {args.seed}: {len(reps)} cycle(s), "
          f"failed_frac {ledger.failed_frac:.4f} ({ledger.failed} of {ledger.attempted} operations)",
          file=stream)
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}", file=stream)


if __name__ == "__main__":
    sys.exit(main())
