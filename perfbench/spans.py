"""Outside-in tracing: spans around the public entry points of each
``repro`` layer, installed by the benchmark and never by the program.

A span records its name, start, end, parent span and the row it belongs
to.  Spans stay in memory (:attr:`Tracer.spans`) and are written out by
the caller when the run ends.  Self time is a span's duration minus the
time its child spans cover, so the self times of all spans of a row sum
to the duration of the row's root span.

:func:`install` patches every ``repro`` module attribute and class
attribute that holds an entry point listed in :data:`ENTRY_POINTS`;
:func:`uninstall` puts the originals back.  Untraced runs never call
:func:`install`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter_ns

# (span name, "module:attribute path", kind).  ``gen`` entry points are
# generators: each step (one ``next``) is a span.  ``heap`` entry points
# also sum ``len(heap)`` at every call.  ``interp`` entry points also
# count calls that ended in something other than a blame.
ENTRY_POINTS = (
    ("lang.parse", "repro.lang.parser:parse_program", "call"),
    ("driver.lower", "repro.driver.lower:lower_program", "call"),
    ("driver.lower", "repro.core.typecheck:check_program", "call"),
    ("scv.engine.inject", "repro.scv.engine:inject_program", "call"),
    ("search", "repro.core.search:find_errors", "gen"),
    ("search", "repro.scv.engine:find_known_blames", "gen"),
    ("search.fingerprint", "repro.search.fingerprint:CoreFingerprinter.__call__", "call"),
    ("search.fingerprint", "repro.search.fingerprint:ScvFingerprinter.__call__", "call"),
    ("core.heap", "repro.core.heap:Heap.set", "heap"),
    ("scv.heap", "repro.scv.heap:UHeap.set", "heap"),
    ("core.proof", "repro.core.proof:ProofSystem.check", "call"),
    ("scv.proof", "repro.scv.proof:UProofSystem.check", "call"),
    ("smt.solver", "repro.smt.solver:Solver.check", "call"),
    ("smt.sat", "repro.smt.sat:SatSolver.solve", "call"),
    ("smt.lia", "repro.smt.lia:LiaSolver.solve", "call"),
    ("core.counterexample", "repro.core.counterexample:construct", "call"),
    ("scv.counterexample", "repro.scv.counterexample:construct_u", "call"),
    ("conc.interp", "repro.conc.interp:Interp.run_program", "interp"),
    ("synth", "repro.synth.client:closed_program_text", "call"),
)

#: The root span of every row, opened by the benchmark around the
#: verifier call; its self time is backend glue no layer below covers.
ROW = "driver.row"


class Tracer:
    """Span stack, per-name aggregates for the current pass, and the
    run's span list."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, name, row, start_ns, end_ns)
        self.row = None
        self._stack: list[list] = []  # [id, child_ns]
        self.reset()

    def reset(self) -> None:
        """Start a new aggregation window (one pass)."""
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.extra: dict[str, int] = defaultdict(int)
        self.row_calls: dict[str, int] = defaultdict(int)

    def start_row(self, row_id) -> None:
        self.row = row_id
        self.row_calls = defaultdict(int)

    def enter(self, name: str) -> list:
        frame = [len(self.spans), name, perf_counter_ns(), 0]
        self.spans.append(None)  # reserve the id; filled on exit
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = perf_counter_ns()
        stack = self._stack
        stack.pop()
        sid, name, start, child_ns = frame
        dur = end - start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[3] += dur
        self.spans[sid] = (sid, parent[0] if parent else -1, name, self.row,
                           start, end)
        self.calls[name] += 1
        self.row_calls[name] += 1
        self.self_ns[name] += dur - child_ns

    def write(self, path) -> None:
        """One JSON array per span: id, parent (-1 for a root), name,
        row, start_ns, end_ns."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, separators=(",", ":")))
                fh.write("\n")


def _wrap(tracer: Tracer, name: str, kind: str, fn):
    enter, exit_ = tracer.enter, tracer.exit
    if kind == "gen":
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            try:
                while True:
                    frame = enter(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        exit_(frame)
                    yield item
            finally:
                gen.close()
    elif kind == "heap":
        entries = name + ".entries"

        @functools.wraps(fn)
        def wrapper(heap, *args, **kwargs):
            tracer.extra[entries] += len(heap)
            frame = enter(name)
            try:
                return fn(heap, *args, **kwargs)
            finally:
                exit_(frame)
    elif kind == "interp":
        from repro.conc.interp import ContractBlame, PrimBlame, UserAbort

        blames = (PrimBlame, ContractBlame, UserAbort)
        failures = name + ".failures"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(name)
            try:
                return fn(*args, **kwargs)
            except blames:
                raise
            except BaseException:
                tracer.extra[failures] += 1
                raise
            finally:
                exit_(frame)
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame)
    return wrapper


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every entry point; returns the undo list for
    :func:`uninstall`.  A plain function is replaced in every loaded
    ``repro`` module that imported it, so call sites bound by
    ``from ... import`` are traced too."""
    undo = []
    for name, target, kind in ENTRY_POINTS:
        mod_name, _, path = target.partition(":")
        owner = importlib.import_module(mod_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        fn = getattr(owner, attr)
        wrapper = _wrap(tracer, name, kind, fn)
        if outer:  # a method: patch the class
            undo.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
            continue
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "")
            if mod_name != "repro" and not mod_name.startswith("repro."):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    undo.append((mod, key, fn))
                    setattr(mod, key, wrapper)
    return undo


def uninstall(undo: list[tuple]) -> None:
    for owner, attr, fn in reversed(undo):
        setattr(owner, attr, fn)
