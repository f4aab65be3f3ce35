"""Seeded workload generators and their independent answer checks.

Each workload is a list of :class:`Row` objects: a surface program, the
backend to run it on, and the answer the generator knows by
construction.  :func:`check` compares a verifier result with that
answer without ever consulting the verifier's own output as the
reference.  Generator parameters live in ``workloads.json``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

SPEC = json.loads((Path(__file__).with_name("workloads.json")).read_text())
NAMES = tuple(SPEC["workloads"])
BACKENDS = ("core", "scv")

_LOOP = (
    "(define (count n acc) (if (= n 0) acc (count (- n 1) ({op} acc {k}))))\n"
)


@dataclass(frozen=True)
class Row:
    """One (program, backend) verification and its known answer."""

    name: str
    backend: str
    source: str
    buggy: bool
    n: int = 0  # loop iterations (0 for corpus rows)
    witness: Optional[int] = None  # the one opaque binding a chains cex must have
    #: The status this row reports today when workloads.json lists it as
    #: a known failure (None for a row expected to pass).
    known_status: Optional[str] = None


def generate(workload: str, seed: int) -> list[Row]:
    """The rows of ``workload`` for ``seed``; the same seed gives the
    same rows in the same order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "corpus":
        rows = _corpus_rows()
    elif workload in ("loops", "chains"):
        rows = _loop_rows(workload, rng)
    else:
        raise ValueError(f"unknown workload {workload!r} (have: {', '.join(NAMES)})")
    rng.shuffle(rows)
    return rows


def _corpus_rows() -> list[Row]:
    from repro.driver.corpus import CORPUS

    return [
        Row(p.name, b, p.source, p.is_buggy)
        for p in CORPUS
        for b in p.backends
    ]


def _loop_rows(workload: str, rng: random.Random) -> list[Row]:
    spec = SPEC["workloads"][workload]
    gen = spec["generator"]
    failures = spec.get("known_failures", ())
    rows = []
    for n in gen["sizes"]:
        k = rng.randint(*gen["step_k"])
        op = rng.choice(gen["ops"])
        final = k * n if op == "+" else -k * n  # count n acc = acc + final
        head = _LOOP.format(op=op, k=k)
        for buggy in (False, True):
            if workload == "loops":
                denom = final if buggy else final + 1
                body = f"(quotient 100 (- (count {n} 0) {denom}))"
                witness = None
            elif buggy:
                body = f"(quotient 100 (count {n} •))"
                witness = -final
            else:
                # a > 0 (for +) or a > K*N (for -) keeps a + final > 0.
                guard = "(< 0 a)" if op == "+" else f"(< {-final} a)"
                body = f"(let ([a •]) (if {guard} (quotient 100 (count {n} a)) 0))"
                witness = None
            kind = "buggy" if buggy else "safe"
            failure = next((f for f in failures
                            if f["variant"] == kind and n >= f["min_n"]), None)
            for b in BACKENDS:
                rows.append(Row(
                    f"{workload}-{kind}-n{n}-{op}{k}", b, head + body, buggy, n,
                    witness,
                    known_status=failure["status_today"][b] if failure else None,
                ))
    return rows


def check(row: Row, result) -> tuple[bool, bool, str]:
    """``(decided, ok, why)`` for one verifier result against the row's
    known answer.  A counterexample is ok only when it was concretely
    validated (and, on core, also replayed by the core machine)."""
    status = result.status
    decided = status in ("safe", "counterexample")
    if not row.buggy:
        return decided, status == "safe", f"expected safe, got {status}"
    if status != "counterexample":
        return decided, False, f"expected counterexample, got {status}"
    cex = result.counterexample
    if cex.validated_conc is not True or cex.validated_core is False:
        return decided, False, "counterexample not concretely validated"
    if row.n and cex.err_op != "quotient":
        return decided, False, f"fault at {cex.err_op}, expected quotient"
    if row.witness is None:
        if row.n and cex.bindings:
            return decided, False, f"concrete loop got bindings {cex.bindings}"
        return decided, True, ""
    values = list(cex.bindings.values())
    if len(values) != 1 or _as_int(values[0]) != row.witness:
        return decided, False, f"witness {cex.bindings}, closed form {row.witness}"
    return decided, True, ""


def _as_int(text: str) -> Optional[int]:
    try:
        return int(text)
    except ValueError:
        return None
