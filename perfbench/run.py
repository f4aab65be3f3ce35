"""The verifier benchmark: one workload per run, or all three in turn.

    python3 perfbench/run.py --workload {corpus,loops,chains,all} \
        --seconds S [--seed N] [--trace {0,1}]

Run from the root of a checkout; the verifier is imported from
``src/``.  A closed loop with one client: every verification runs alone
(``jobs=1``, ``shards=1``, no store) in a workload process started
fresh for each set-up.

``--trace 0`` sets up ``setups_per_run`` times (workloads.json) and
prints every end-to-end metric.  ``--trace 1`` sets up once, runs
untraced passes and then as many with spans around each layer's entry
points (``spans.py``), prints every per-layer metric and writes the
spans to ``perfbench/out/``.  The number of timed passes depends only
on ``--seconds`` and the workload's nominal pass time ``pass_s``, never
on how fast the code under test runs, so two builds compared at one
``--seconds`` take their figures over the same number of samples.

Every verdict is checked against the generator's known answer.  A row
that workloads.json lists as failing today counts against
``verdict_ok_share``; it does not make the run incorrect as long as it
reports the status listed for it (or now passes, which is printed).
The deterministic work counts must repeat across passes, set-ups and
runs of one seed on identical code (``perfbench/out/work-*.json``).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit status: 0 when
correct, 1 when a verdict was wrong or a count drifted, 2 when the
benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SPEC = json.loads((HERE / "workloads.json").read_text())
#: Whole-run limit, under the 180 s a run may take.
DEADLINE_S = 170.0


def percentile_rank(min_samples: int) -> int:
    """The highest whole percentile, at most 90, that leaves at least 10
    of ``min_samples`` samples beyond it."""
    q = 90
    while q > 0 and min_samples - math.ceil(q * min_samples / 100) < 10:
        q -= 1
    return q


def nearest_rank(sorted_values: list[float], q: int) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values) / 100) - 1)]


def code_digest() -> str:
    """Digest of the verifier and benchmark sources: stored work counts
    are compared only between runs of identical code."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "repro").rglob("*.py")) + sorted(
        p for p in HERE.iterdir() if p.suffix in (".py", ".json"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def pass_count(workload: str, seconds: float, share: float) -> int:
    """Timed passes for ``share`` of the ``--seconds`` budget."""
    return max(1, int(seconds * share / SPEC["workloads"][workload]["pass_s"]))


def spawn(workload: str, seed: int, trace: int, passes: int,
          deadline: float, trace_out=None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--passes", str(passes),
           "--stop-at", repr(deadline), "--trace", str(trace)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - t0), text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def merge_work(reference: dict, work: dict, where: str, problems: list[str]) -> None:
    """Add ``work`` (row -> counts) to ``reference``; a count that
    differs from one already there is drift."""
    for row, counts in work.items():
        ref = reference.setdefault(row, {})
        for name, value in counts.items():
            if ref.setdefault(name, value) != value:
                problems.append(f"{row} {name}: {ref[name]}, then {value} in {where}")


def check_work(children: list[dict], path: Path) -> list[str]:
    """Drift of the deterministic counts across the passes and set-ups
    of this run, and against earlier runs of the same seed on the same
    code (stored in ``path``)."""
    problems: list[str] = []
    merged: dict = {}
    for i, child in enumerate(children):
        records = [child["warm"], *child["passes"], *child.get("traced", [])]
        for j, record in enumerate(records):
            merge_work(merged, record["work"], f"set-up {i} pass {j}", problems)
    if path.exists():
        stored = json.loads(path.read_text())
        merge_work(stored, merged, "this run", problems)
    else:
        stored = merged
    if not problems:
        path.write_text(json.dumps(stored, sort_keys=True))
    return problems


def row_minima(passes: list[dict]) -> list[float]:
    """Each row's fastest time to verdict (ms) over ``passes``."""
    return [min(times) for times in zip(*(p["row_ms"] for p in passes))]


def end_to_end(children: list[dict], rows: int) -> tuple[dict, list[str]]:
    """Timing metrics rest on each row's fastest verdict in the run.

    On a shared 2-CPU machine the speed drifts by up to 1.8x over
    seconds to minutes, and a row's time follows the phase it ran in;
    its fastest pass is the time its work takes when nothing else slows
    it, and any slower order statistic (a median, a quartile) carries
    the phase with it.  The number of passes is fixed for a workload
    and ``--seconds`` (:func:`pass_count`), so the minima of compared
    builds are taken over the same sample count.  The percentiles are
    taken over the rows' fastest times, one sample per row: the tail
    one at the highest percentile that leaves ten rows beyond it."""
    passes = [p for c in children for p in c["passes"]]
    fastest = sorted(row_minima(passes))
    q = percentile_rank(rows)
    attempted = rows * len(passes)
    metrics = {
        "setup_s": (statistics.median(c["setup_s"] for c in children), "s"),
        "rows_per_s": (rows * 1000 / sum(fastest), "1/s"),
        "verdict_p50_ms": (statistics.median(fastest), "ms"),
        "verdict_p90_ms": (nearest_rank(fastest, q), "ms"),
        "decided_share": (sum(p["decided"] for p in passes) / attempted, "share"),
        "verdict_ok_share": (sum(p["ok"] for p in passes) / attempted, "share"),
        "peak_rss_mb": (statistics.median(c["peak_rss_mb"] for c in children), "MB"),
    }
    notes = [
        f"setup_s: median of {len(children)} set-ups",
        f"rows_per_s: {rows} rows over the sum of their fastest of {len(passes)} passes",
        f"verdict_p50_ms, verdict_p{q}_ms: over {rows} rows, "
        f"each its fastest of {len(passes)} passes",
    ]
    return metrics, notes


def per_layer(child: dict) -> dict:
    traced = [p["layers"] for p in child["traced"]]
    metrics = {}
    for name in traced[0]:
        values = [t[name] for t in traced]
        unit = ("ms" if name.endswith("_ms") else
                "ratio" if name.endswith(("_share", "_ratio")) else
                "entries" if name.endswith("entries_per_set") else "count")
        # Counts stay whole numbers: median_low picks one of the samples.
        pick = statistics.median_low if unit == "count" else statistics.median
        metrics[name] = (pick(values), unit)
    # traced / untraced rows_per_s, each from the rows' fastest times.
    metrics["trace.overhead"] = (
        sum(row_minima(child["passes"])) / sum(row_minima(child["traced"])), "ratio")
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> int:
    """One run of one workload; prints its report and returns the exit
    status."""
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}"
    try:
        if trace:
            passes = pass_count(workload, seconds, 1 / 2)
            children = [spawn(workload, seed, trace, passes, deadline,
                              OUT / f"trace-{tag}.jsonl")]
        else:
            k = SPEC["setups_per_run"]
            passes = pass_count(workload, seconds, 1 / k)
            children = [spawn(workload, seed, trace, passes, deadline)
                        for _ in range(k)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {workload}: {exc}", file=sys.stderr)
        return 2

    rows = children[0]["rows"]
    all_passes = [p for c in children for p in c["passes"] + c.get("traced", [])]
    wrong = sorted({w for p in all_passes + [c["warm"] for c in children]
                    for w in p["wrong"]})
    fixed = sorted({f for p in all_passes for f in p["fixed"]})
    drift = check_work(children, OUT / f"work-{tag}-{code_digest()}.json")
    short = [len(p) for c in children for p in (c["passes"], c.get("traced", []))
             if p and len(p) < passes]
    attempted = rows * len(all_passes)
    failed = attempted - sum(p["ok"] for p in all_passes)

    if trace:
        metrics, notes = per_layer(children[0]), [
            f"per-layer: median of {len(children[0]['traced'])} traced passes; "
            f"spans in {OUT.name}/trace-{tag}.jsonl"]
    else:
        metrics, notes = end_to_end(children, rows)
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} = {value:.6g} {unit}")
    for line in notes:
        print(f"  {line}")
    for n in short:
        print(f"  cut short by the {DEADLINE_S:g} s run limit: {n} of {passes} passes")
    for key in fixed:
        print(f"  known failure now passes: {key}")
    for line in wrong:
        print(f"WRONG VERDICT {line}", file=sys.stderr)
    for line in drift:
        print(f"WORK COUNT DRIFT {line}", file=sys.stderr)

    correct = not wrong and not drift
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Verifier benchmark (see the module docstring).")
    ap.add_argument("--workload", required=True,
                    choices=(*SPEC["workloads"], "all"),
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int,
                    help="input seed (default: the workload's default_seed)")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no verifier sources under {ROOT / 'src'}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    names = SPEC["workloads"] if args.workload == "all" else [args.workload]
    return max(
        run_workload(name, args.seed if args.seed is not None
                     else SPEC["workloads"][name]["default_seed"],
                     args.seconds, args.trace)
        for name in names
    )


if __name__ == "__main__":
    sys.exit(main())
