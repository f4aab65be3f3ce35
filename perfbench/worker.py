"""One workload process: set up, warm up, run timed passes, report.

Started by ``run.py`` in a fresh interpreter, so ``setup_s`` and
``peak_rss_mb`` belong to this workload alone.  Set-up covers
interpreter start (timed from ``--t0``, taken by the parent just before
the spawn), imports, the lazy registry/delta tables, program generation
and one untimed warm-up pass.  Then ``--passes`` timed passes run; the
count is fixed by the caller, so every compared build takes its figures
over the same number of samples.  A pass that would end after
``--stop-at`` is not started (there is always at least one).  With
``--trace 1`` the ``--passes`` untraced passes are followed by as many
traced ones, which gives ``trace.overhead``.

Prints one JSON object on the last line of stdout.  Every pass record
carries its ``work`` map (row -> deterministic counts); ``run.py``
compares them.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from repro.driver.backends import RunConfig  # noqa: E402
from repro.driver.runner import verify_source  # noqa: E402
from repro.smt import solver_cache  # noqa: E402

import spans as tracing  # noqa: E402
import workloads  # noqa: E402

#: One verification at a time: no worker pool, no frontier shards, no
#: persistent store.
CONFIG = RunConfig(jobs=1, shards=1, store_dir=None)

#: Counts that must repeat exactly across passes and runs: a plain name
#: is a row counter of the verifier's result; ``<span>.<what>`` is the
#: number of calls of that span in the row (traced passes only).
ROW_COUNTS = [c for c in workloads.SPEC["deterministic_counts"] if "." not in c]
SPAN_COUNTS = {c: c.rsplit(".", 1)[0]
               for c in workloads.SPEC["deterministic_counts"] if "." in c}


def run_pass(rows, tag, tracer=None):
    """Verify every row once and return the pass record; its ``work``
    maps each row to its deterministic counts."""
    times_ms, wrong, fixed, work = [], [], [], {}
    decided = ok = hits = misses = states = dispatch = 0
    if tracer is not None:
        tracer.reset()
    gc.collect()
    t_pass = time.perf_counter()
    for i, row in enumerate(rows):
        if tracer is not None:
            tracer.start_row(f"{tag}:{i}")
            frame = tracer.enter(tracing.ROW)
        t = time.perf_counter()
        result = verify_source(row.source, name=row.name,
                               kind="buggy" if row.buggy else "safe",
                               config=CONFIG, backend=row.backend)
        times_ms.append((time.perf_counter() - t) * 1000)
        if tracer is not None:
            tracer.exit(frame)
        key = f"{row.name}/{row.backend}"
        counts = {c: getattr(result, c) for c in ROW_COUNTS}
        if tracer is not None:
            counts.update({c: tracer.row_calls[s] for c, s in SPAN_COUNTS.items()})
        work[key] = counts
        # The backend clears the solver cache (and its counters) at the
        # start of every verification, so these are this row's alone.
        hits += solver_cache.hits
        misses += solver_cache.misses
        states += result.states_explored
        dispatch += result.dispatch_steps
        row_decided, row_ok, why = workloads.check(row, result)
        decided += row_decided
        ok += row_ok
        if row.known_status is None:
            if not row_ok:
                wrong.append(f"{key}: {why} ({result.detail[:120]})")
        elif row_ok:
            fixed.append(key)
        elif result.status != row.known_status:
            # A listed failure may only fail the way it fails today.
            wrong.append(f"{key}: known failure reports {result.status!r}, "
                         f"listed as {row.known_status!r} ({result.detail[:120]})")
    wall = time.perf_counter() - t_pass
    record = {"wall_s": wall, "row_ms": times_ms, "decided": decided,
              "ok": ok, "wrong": wrong, "fixed": fixed, "work": work}
    if tracer is not None:
        record["layers"] = layer_metrics(tracer, wall, hits, misses,
                                         states, dispatch)
    return record


def layer_metrics(tracer, wall_s, hits, misses, states, dispatch):
    """The per-layer metrics of one traced pass."""
    calls, self_ns, extra = tracer.calls, tracer.self_ns, tracer.extra
    out = {}

    def span(name, calls_key="calls"):
        out[f"{name}.{calls_key}"] = calls[name]
        out[f"{name}.self_ms"] = self_ns[name] / 1e6

    for name in ("smt.lia", "smt.sat", "search.fingerprint", "core.proof",
                 "scv.proof", "lang.parse", "driver.lower",
                 "scv.engine.inject", "core.counterexample",
                 "scv.counterexample", "conc.interp", "synth"):
        span(name)
    span("smt.solver", "checks")
    out["smt.lia.round_share"] = (
        calls["smt.sat"] / calls["smt.lia"] if calls["smt.lia"] else 0.0)
    out["smt.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for heap in ("core.heap", "scv.heap"):
        span(heap, "set_calls")
        out[f"{heap}.entries_per_set"] = (
            extra[heap + ".entries"] / calls[heap] if calls[heap] else 0.0)
    out["search.self_ms"] = self_ns["search"] / 1e6
    out["search.states"] = states
    out["search.dispatch_steps"] = dispatch
    out["conc.interp.failures"] = extra["conc.interp.failures"]
    out["driver.row.self_ms"] = self_ns[tracing.ROW] / 1e6
    self_sum = sum(self_ns.values()) / 1e6
    out["trace.wall_ms"] = wall_s * 1000
    out["trace.self_sum_ms"] = self_sum
    out["trace.bench_ms"] = wall_s * 1000 - self_sum
    return out


def timed_passes(rows, count, stop_at, tag, tracer=None):
    """``count`` passes, fewer only if the next one would end after
    ``stop_at`` (there is always at least one)."""
    passes = []
    while len(passes) < count:
        passes.append(run_pass(rows, f"{tag}{len(passes)}", tracer))
        if time.monotonic() + passes[-1]["wall_s"] > stop_at:
            break
    return passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, required=True,
                    help="timed passes (untraced, and as many traced with --trace 1)")
    ap.add_argument("--stop-at", type=float, required=True,
                    help="time.monotonic() by which the last pass must end")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() just before this process was spawned")
    ap.add_argument("--trace-out", help="where to write the spans (traced runs)")
    args = ap.parse_args(argv)

    rows = workloads.generate(args.workload, args.seed)
    warm = run_pass(rows, "warm")
    setup_s = time.monotonic() - args.t0

    report = {"setup_s": setup_s, "rows": len(rows), "warm": warm,
              "passes": timed_passes(rows, args.passes, args.stop_at, "p")}
    if args.trace:
        tracer = tracing.Tracer()
        undo = tracing.install(tracer)
        try:
            report["traced"] = timed_passes(rows, args.passes, args.stop_at,
                                            "t", tracer)
        finally:
            tracing.uninstall(undo)
        if args.trace_out:
            tracer.write(args.trace_out)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
