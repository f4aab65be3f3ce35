"""Conjunction-level linear integer arithmetic.

Decides conjunctions of literals of the forms ``e = 0``, ``e <= 0`` and
``e != 0`` where ``e`` is a :class:`~repro.smt.linearize.LinExpr` over
integer-valued atoms, and produces integer models.

Algorithm
---------
1. *Constant propagation* pins variables forced to a single value by a
   unary equality and folds nonlinear product atoms whose factors become
   known.  It runs in rounds: a round checks the constraints rewritten
   by the previous one (all of them, the first time), drops constant
   ones and pins unary equalities; then it rewrites only the constraints
   that mention a variable it pinned, directly or as a product factor,
   or hold a product it can fold, substituting all of that round's pins
   in one walk over each expression.  Past one scan of the input, the
   work is proportional to the size of the constraints it rewrites: an
   equality chain of ``n`` links costs ``O(n)`` rewrites, where
   substituting every pin into every constraint each round cost
   ``O(n^3)`` single-atom substitutions.
2. Remaining *nonlinear* atoms (products of two or more variables) are
   handled by a fair bounded enumeration of their variables, seeded with
   the constants appearing in the problem; each assignment reduces the
   system to the linear case.  Exhausting the enumeration budget yields
   UNKNOWN — this is the solver's documented incompleteness boundary
   (mirroring the paper's reliance on Z3's nonlinear heuristics, §5.3).
   The enumeration answers SAT or UNKNOWN, *never* UNSAT: a conjunction
   whose propagation leaves a product atom is never refuted.
3. The *linear* core is solved by Gaussian elimination of equalities,
   Fourier–Motzkin elimination of inequalities over the rationals with
   back-substitution model construction, then branch-and-bound to repair
   fractional values, and splitting to repair violated disequalities.

Explanations
------------
Every constraint carries an *origin*: a bitmask of the input constraints
it was derived from.  Substituting a pin ORs in the origin of the
constraint that pinned it; a Gaussian substitution ORs in the origin of
its equality; a Fourier–Motzkin combination is the OR of its two
parents.  An UNSAT answer derived by constant propagation, or by the
rational relaxation at the root of branch-and-bound, carries the input
constraints of the contradiction's origin as its
:attr:`LiaResult.explanation`; that subset is itself refuted.  A
refutation that needed branching carries none.

Everything is exact (``fractions.Fraction``); no floating point.
"""

from __future__ import annotations

import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import BudgetExhausted, Result
from .linearize import LinAtom, LinExpr
from .terms import Div, IntConst, Mod, Mul, Term, Var

# Constraint kinds after normalisation.
EQ = "eq"  # expr  = 0
LE = "le"  # expr <= 0
NE = "ne"  # expr != 0


@dataclass(frozen=True)
class Constraint:
    """A normalised arithmetic literal ``expr (kind) 0``."""

    expr: LinExpr
    kind: str

    def __repr__(self) -> str:
        sym = {EQ: "=", LE: "<=", NE: "!="}[self.kind]
        return f"{self.expr!r} {sym} 0"


def normalize(expr: LinExpr, kind: str, *, strict: bool = False) -> Constraint:
    """Normalise to integer coefficients; fold strictness into the constant.

    For integer-valued atoms, ``e < 0`` is ``e + 1 <= 0`` once ``e`` has
    integer coefficients.  With ``g = gcd(a_i)``, ``a_i x_i + c <= 0``
    says ``(a_i/g) x_i <= -c/g``; the left side is an integer, so the
    bound rounds down to ``floor(-c/g)`` and the constraint tightens to
    ``(a_i/g) x_i + ceil(c/g) <= 0`` (the constant rounds *up*).  An
    equality or disequality divides through by ``g`` when ``g`` divides
    ``c``; otherwise the equality is false and the disequality true.
    """
    denoms = [c.denominator for _, c in expr.coeffs] + [expr.const.denominator]
    scale = math.lcm(*denoms) if denoms else 1
    e = expr.scale(scale)
    if strict:
        if kind != LE:
            raise ValueError("strictness only applies to inequalities")
        e = e.add(LinExpr.constant(1))
    coeffs = [int(c) for _, c in e.coeffs]
    if kind == LE and coeffs:
        g = math.gcd(*(abs(c) for c in coeffs))
        if g > 1:
            const = Fraction(math.ceil(Fraction(e.const) / g))
            e = LinExpr.from_dict(
                {a: c / g for a, c in e.coeffs}, const
            )
    elif kind in (EQ, NE) and coeffs:
        g = math.gcd(*(abs(c) for c in coeffs))
        if g > 1:
            if e.const % g != 0:
                # gcd does not divide the constant: eq is UNSAT, ne is valid.
                # ``1 = 0`` is false and ``1 != 0`` true, as required.
                return Constraint(LinExpr.constant(1), kind)
            e = e.scale(Fraction(1, g))
    return Constraint(e, kind)


@dataclass
class LiaResult:
    """Outcome of a conjunction solve.

    ``explanation`` is set on an UNSAT answer that constant propagation
    or the root rational relaxation derived: the input constraints the
    contradiction came from, in input order.  ``by_propagation`` says
    constant propagation alone found it; the propagation of any superset
    of the explanation then conflicts too (see ``Solver._shrink_core``)."""

    status: Result
    model: Optional[dict[LinAtom, int]] = None
    explanation: Optional[tuple[Constraint, ...]] = None
    by_propagation: bool = False


class _Conflict(Exception):
    """A contradiction derived from the input constraints in ``origin``
    (a bitmask over input positions; 0 when untracked)."""

    def __init__(self, origin: int) -> None:
        super().__init__(origin)
        self.origin = origin


class LiaSolver:
    """Decision procedure for conjunctions of integer linear literals.

    Parameters
    ----------
    branch_budget:
        Maximum number of branch-and-bound / disequality splits explored.
    enum_budget:
        Maximum number of assignments tried for nonlinear variables.
    enum_range:
        Half-width of the base enumeration window for nonlinear variables.
    memo_size:
        LRU bound on the conjunction-solve memo.  Incremental checking
        re-asks the conjunction solver near-identical literal sets (the
        paired ``ψ`` / ``¬ψ`` proof queries, DPLL(T) re-rounds after a
        restart); keying on the constraint *set* makes exact repeats
        free, and all budgets are deterministic so a memoized answer is
        identical to a recomputed one.
    """

    def __init__(
        self,
        branch_budget: int = 2000,
        enum_budget: int = 20000,
        enum_range: int = 12,
        memo_size: int = 2048,
    ) -> None:
        self.branch_budget = branch_budget
        self.enum_budget = enum_budget
        self.enum_range = enum_range
        self.memo_size = memo_size
        self._memo: OrderedDict[frozenset[Constraint], LiaResult] = OrderedDict()

    # -- public entry --------------------------------------------------

    def solve(
        self, constraints: Sequence[Constraint], *, refute_only: bool = False
    ) -> LiaResult:
        """Decide a conjunction; model covers every atom mentioned.

        With ``refute_only`` the caller asks only "is this UNSAT?": the
        solve stops after constant propagation when a product atom
        remains, since the enumeration could only answer SAT or UNKNOWN,
        and reports UNKNOWN without a model.  Any other answer is the
        full one.

        Results are memoized by constraint set; callers must not mutate
        a returned model."""
        key = frozenset(constraints)
        hit = self._memo.get(key)
        if hit is not None:
            self._memo.move_to_end(key)
            return hit
        try:
            result = self._solve_nonlinear(list(constraints), refute_only)
        except BudgetExhausted:
            result = LiaResult(Result.UNKNOWN)
        if result is None:
            # Not memoized: a full solve may well answer SAT.
            return LiaResult(Result.UNKNOWN)
        self._memo[key] = result
        while len(self._memo) > self.memo_size:
            self._memo.popitem(last=False)
        return result

    # -- nonlinear layer -------------------------------------------------

    def _solve_nonlinear(
        self, inputs: list[Constraint], refute_only: bool
    ) -> Optional[LiaResult]:
        origins = [1 << i for i in range(len(inputs))]
        constraints, pinned = _propagate_constants(inputs, origins)
        if constraints is None:
            return _refuted(inputs, origins[0], by_propagation=True)
        nonlin_vars = _nonlinear_vars(constraints)
        if not nonlin_vars:
            try:
                model = self._solve_linear(
                    constraints, self.branch_budget, origins
                )
            except _Conflict as conflict:
                return _refuted(inputs, conflict.origin, by_propagation=False)
            if model is None:
                return LiaResult(Result.UNSAT)
            model.update(pinned)
            return LiaResult(Result.SAT, _complete_products(model))
        if refute_only:
            return None

        # Bounded fair enumeration over the nonlinear variables.
        ordered = sorted(nonlin_vars, key=lambda v: v.name)
        seeds = _seed_values(constraints, self.enum_range)
        tried = 0
        for values in itertools.product(seeds, repeat=len(ordered)):
            tried += 1
            if tried > self.enum_budget:
                raise BudgetExhausted("nonlinear enumeration budget")
            subst = dict(zip(ordered, values))
            reduced = _substitute_all(constraints, subst)
            reduced, more_pinned = _propagate_constants(reduced)
            if reduced is None:
                continue
            if _nonlinear_vars(reduced):
                continue  # substitution did not fully linearise; try next
            model = self._solve_linear(reduced, max(self.branch_budget // 10, 50))
            if model is not None:
                model.update(pinned)
                model.update(more_pinned)
                for v, val in subst.items():
                    model[v] = val
                return LiaResult(Result.SAT, _complete_products(model))
        raise BudgetExhausted("nonlinear enumeration exhausted")

    # -- linear layer ------------------------------------------------------

    def _solve_linear(
        self,
        constraints: list[Constraint],
        budget: int,
        origins: Optional[list[int]] = None,
    ) -> Optional[dict[LinAtom, int]]:
        """Branch-and-bound around the rational relaxation.

        With ``origins`` (one per constraint), an infeasible root
        relaxation raises :class:`_Conflict` with its origin."""
        stack: list[list[Constraint]] = [constraints]
        spent = 0
        while stack:
            cons = stack.pop()
            spent += 1
            if spent > budget:
                raise BudgetExhausted("branch-and-bound budget")
            try:
                rat = _solve_rational(cons, origins if spent == 1 else None)
            except _Conflict:
                if origins is not None and spent == 1:
                    raise
                continue
            # Repair a fractional assignment first.
            frac = next(
                (a for a, v in rat.items() if v.denominator != 1), None
            )
            if frac is not None:
                v = rat[frac]
                below = LinExpr.atom(frac).add(
                    LinExpr.constant(-math.floor(v))
                )
                above = LinExpr.atom(frac, -1).add(
                    LinExpr.constant(math.ceil(v))
                )
                stack.append(cons + [normalize(below, LE)])
                stack.append(cons + [normalize(above, LE)])
                continue
            int_model = {a: int(v) for a, v in rat.items()}
            # Repair a violated disequality.
            bad = next(
                (
                    c
                    for c in cons
                    if c.kind == NE and _eval_lin(c.expr, int_model) == 0
                ),
                None,
            )
            if bad is not None:
                lo = bad.expr.add(LinExpr.constant(1))  # expr <= -1
                hi = bad.expr.scale(-1).add(LinExpr.constant(1))  # expr >= 1
                stack.append(cons + [normalize(lo, LE)])
                stack.append(cons + [normalize(hi, LE)])
                continue
            return int_model
        return None


# ---------------------------------------------------------------------------
# Rational relaxation: Gaussian elimination + Fourier–Motzkin
# ---------------------------------------------------------------------------


def _solve_rational(
    constraints: list[Constraint], origins: Optional[list[int]] = None
) -> dict[LinAtom, Fraction]:
    """Satisfy the eq/le constraints over the rationals, ignoring ne
    (handled by splitting in the caller).  Returns an assignment for every
    atom mentioned; raises :class:`_Conflict` if infeasible, with the OR
    of the ``origins`` (one per constraint) the contradiction used."""
    if origins is None:
        origins = [0] * len(constraints)
    eqs = [(c.expr, o) for c, o in zip(constraints, origins) if c.kind == EQ]
    les = [(c.expr, o) for c, o in zip(constraints, origins) if c.kind == LE]
    all_atoms: set[LinAtom] = set()
    for c in constraints:
        all_atoms |= c.expr.atoms()

    # Gaussian elimination of equalities.
    substitutions: list[tuple[LinAtom, LinExpr]] = []
    while eqs:
        e, origin = eqs.pop()
        if e.is_constant:
            if e.const != 0:
                raise _Conflict(origin)
            continue
        atom, coeff = e.coeffs[0]
        # atom = -(e - coeff*atom)/coeff
        rest = e.substitute(atom, LinExpr.constant(0))
        repl = rest.scale(Fraction(-1, 1) / coeff)
        substitutions.append((atom, repl))
        eqs = _substitute_tracked(eqs, atom, repl, origin)
        les = _substitute_tracked(les, atom, repl, origin)

    # Fourier–Motzkin elimination with recorded stages.
    for e, origin in les:
        if e.is_constant and e.const > 0:
            raise _Conflict(origin)
    stages: list[tuple[LinAtom, list[LinExpr], list[LinExpr]]] = []
    remaining = [(e, o) for e, o in les if not e.is_constant]

    def pick_var(exprs: list[tuple[LinExpr, int]]) -> LinAtom:
        counts: dict[LinAtom, tuple[int, int]] = {}
        for e, _ in exprs:
            for a, c in e.coeffs:
                lo, hi = counts.get(a, (0, 0))
                if c < 0:
                    counts[a] = (lo + 1, hi)
                else:
                    counts[a] = (lo, hi + 1)
        # Minimise the number of generated combinations (lo*hi).
        return min(counts, key=lambda a: counts[a][0] * counts[a][1])

    while remaining:
        x = pick_var(remaining)
        lowers: list[LinExpr] = []  # x >= expr
        uppers: list[LinExpr] = []  # x <= expr
        lower_origins: list[int] = []
        upper_origins: list[int] = []
        others: list[tuple[LinExpr, int]] = []
        for e, origin in remaining:
            c = e.coeff_of(x)
            if c == 0:
                others.append((e, origin))
                continue
            rest = e.substitute(x, LinExpr.constant(0)).scale(Fraction(-1) / c)
            if c > 0:
                uppers.append(rest)  # c*x + rest' <= 0  =>  x <= rest
                upper_origins.append(origin)
            else:
                lowers.append(rest)
                lower_origins.append(origin)
        stages.append((x, lowers, uppers))
        for lo, lo_origin in zip(lowers, lower_origins):
            for up, up_origin in zip(uppers, upper_origins):
                combo = lo.sub(up)  # lo <= x <= up  =>  lo - up <= 0
                if combo.is_constant:
                    if combo.const > 0:
                        raise _Conflict(lo_origin | up_origin)
                else:
                    others.append((combo, lo_origin | up_origin))
        remaining = others

    # Back-substitution: assign eliminated variables innermost-first.
    assignment: dict[LinAtom, Fraction] = {}
    for x, lowers, uppers in reversed(stages):
        lb = max(
            (_eval_lin_frac(e, assignment) for e in lowers), default=None
        )
        ub = min(
            (_eval_lin_frac(e, assignment) for e in uppers), default=None
        )
        assignment[x] = _pick_value(lb, ub)

    # Any atom not touched by inequalities is free: pick 0.
    substituted = {s for s, _ in substitutions}
    for a in all_atoms:
        if a not in assignment and a not in substituted:
            assignment[a] = Fraction(0)

    # Unwind equality substitutions.
    for atom, repl in reversed(substitutions):
        assignment[atom] = _eval_lin_frac(repl, assignment)

    return assignment


def _substitute_tracked(
    exprs: list[tuple[LinExpr, int]], atom: LinAtom, repl: LinExpr, origin: int
) -> list[tuple[LinExpr, int]]:
    """Substitute ``repl`` for ``atom``; a rewritten expression's origin
    gains ``origin``."""
    return [
        (e, o) if (new := e.substitute(atom, repl)) is e else (new, o | origin)
        for e, o in exprs
    ]


def _refuted(
    inputs: list[Constraint], origin: int, *, by_propagation: bool
) -> LiaResult:
    """The UNSAT result explained by the inputs in ``origin``."""
    return LiaResult(
        Result.UNSAT,
        explanation=tuple(c for i, c in enumerate(inputs) if origin >> i & 1),
        by_propagation=by_propagation,
    )


def _pick_value(lb: Optional[Fraction], ub: Optional[Fraction]) -> Fraction:
    """A value in [lb, ub], preferring integers, preferring small ones."""
    if lb is None and ub is None:
        return Fraction(0)
    if lb is None:
        assert ub is not None
        return Fraction(min(0, math.floor(ub)))
    if ub is None:
        return Fraction(max(0, math.ceil(lb)))
    if lb > ub:  # pragma: no cover - FM guarantees feasibility
        raise AssertionError("FM produced an empty interval")
    if lb <= 0 <= ub:
        return Fraction(0)
    candidate = Fraction(math.ceil(lb))
    if candidate <= ub:
        return candidate
    return (lb + ub) / 2  # no integer inside: fractional, B&B will repair


# ---------------------------------------------------------------------------
# Helpers: evaluation, constant propagation, nonlinear support
# ---------------------------------------------------------------------------


def _eval_lin_frac(e: LinExpr, env: dict[LinAtom, Fraction]) -> Fraction:
    total = Fraction(e.const)
    for a, c in e.coeffs:
        total += c * env.get(a, Fraction(0))
    return total


def _eval_lin(e: LinExpr, env: dict[LinAtom, int]) -> Fraction:
    total = Fraction(e.const)
    for a, c in e.coeffs:
        total += c * env.get(a, 0)
    return total


def _propagate_constants(
    constraints: list[Constraint], origins: Optional[list[int]] = None
) -> tuple[Optional[list[Constraint]], dict[LinAtom, int]]:
    """Repeatedly pin *variables* forced to a constant by a unary equality
    and fold nonlinear product atoms whose factors become known.

    Only plain variables are ever pinned: pinning a product atom would
    silently decouple it from its factors and make SAT answers unsound.

    Each round checks only the constraints the previous round rewrote,
    and rewrites only those that mention a variable it pinned or hold a
    product ``_fold_products`` would change; every other constraint
    would come out of the rewrite unchanged.

    ``origins``, when given, holds one origin per constraint (see the
    module docstring); a rewrite ORs in the origin of every pin it
    substitutes.  The list is rewritten in place: to the origins of the
    returned constraints, or to the one origin of a contradiction.

    Returns (constraints', pinned) where constraints' is None on direct
    contradiction.
    """
    pinned: dict[LinAtom, int] = {}
    cons = list(constraints)
    origin = origins if origins is not None else [0] * len(cons)
    pin_origin: dict[LinAtom, int] = {}

    def conflict(o: int) -> tuple[None, dict[LinAtom, int]]:
        origin[:] = [o]
        return None, pinned
    alive = [True] * len(cons)
    check: Sequence[int] = range(len(cons))
    # Variable -> positions whose constraint mentions it, directly or as
    # a product factor; built after the first round, over the constraints
    # it kept.  Entries may go stale; a stale one costs a no-op rewrite.
    occurs: Optional[dict[LinAtom, list[int]]] = None
    foldable: set[int] = set()
    while check:
        progress = False
        fresh: dict[LinAtom, int] = {}
        for i in check:
            c = cons[i]
            e = c.expr
            if e.is_constant:
                v = e.const
                ok = (
                    (c.kind == EQ and v == 0)
                    or (c.kind == LE and v <= 0)
                    or (c.kind == NE and v != 0)
                )
                if not ok:
                    return conflict(origin[i])
                alive[i] = False
                progress = True
                continue
            if c.kind == EQ and len(e.coeffs) == 1:
                atom, coeff = e.coeffs[0]
                value = -e.const / coeff
                if value.denominator != 1:
                    return conflict(origin[i])
                if isinstance(atom, Var):
                    prev = pinned.get(atom)
                    if prev is None:
                        fresh[atom] = pinned[atom] = int(value)
                        pin_origin[atom] = origin[i]
                    elif prev != value:
                        return conflict(origin[i] | pin_origin[atom])
                    alive[i] = False
                    progress = True
                    continue
        if not progress:
            break
        if occurs is None:
            occurs = {}
            for i, c in enumerate(cons):
                if alive[i]:
                    _index(i, c.expr, pinned, occurs, foldable)
        touched = set(foldable)
        subst: dict[LinAtom, LinExpr] = {}
        for a, v in fresh.items():
            positions = occurs.pop(a, None)
            if positions:
                touched.update(positions)
                subst[a] = LinExpr.constant(v)
                pin = pin_origin[a]
                for p in positions:
                    origin[p] |= pin
        check = sorted(i for i in touched if alive[i])
        foldable = set()
        for i in check:
            c = cons[i]
            e = _fold_products(c.expr.substitute_many(subst), pinned)
            cons[i] = Constraint(e, c.kind)
            _index(i, e, pinned, occurs, foldable)
    origin[:] = [o for o, keep in zip(origin, alive) if keep]
    return [c for c, keep in zip(cons, alive) if keep], pinned


def _index(
    i: int,
    e: LinExpr,
    pinned: dict[LinAtom, int],
    occurs: dict[LinAtom, list[int]],
    foldable: set[int],
) -> None:
    """File position ``i`` under every variable ``e`` mentions, directly
    or as a product factor, and in ``foldable`` when ``_fold_products``
    would change ``e``."""
    for a, _ in e.coeffs:
        if isinstance(a, Var):
            occurs.setdefault(a, []).append(i)
        elif isinstance(a, Mul):
            if _fold_product(a, pinned) is not None:
                foldable.add(i)
            for f in a.args:
                if isinstance(f, Var):
                    occurs.setdefault(f, []).append(i)


def _fold_product(atom: Mul, pinned: dict[LinAtom, int]) -> Optional[LinExpr]:
    """The linear form of ``atom`` once at most one factor is unknown."""
    const = 1
    unknown: list[Term] = []
    for factor in atom.args:
        if isinstance(factor, IntConst):
            const *= factor.value
        elif factor in pinned:
            const *= pinned[factor]
        else:
            unknown.append(factor)
    if len(unknown) == 0:
        return LinExpr.constant(const)
    if len(unknown) == 1:
        return LinExpr.atom(unknown[0], const)
    return None


def _fold_products(e: LinExpr, pinned: dict[LinAtom, int]) -> LinExpr:
    """Linearise product atoms whose factors are (now) known."""
    result = e
    for atom in list(e.atoms()):
        if not isinstance(atom, Mul):
            continue
        repl = _fold_product(atom, pinned)
        if repl is not None:
            result = result.substitute(atom, repl)
    return result


def _nonlinear_vars(constraints: list[Constraint]) -> set[Var]:
    """Variables occurring inside product atoms."""
    out: set[Var] = set()
    for c in constraints:
        for a in c.expr.atoms():
            if isinstance(a, Mul):
                for f in a.args:
                    if isinstance(f, Var):
                        out.add(f)
                    elif isinstance(f, (Div, Mod)):  # pragma: no cover
                        raise AssertionError(
                            "div/mod must be axiomatised before LIA"
                        )
    return out


def _substitute_all(
    constraints: list[Constraint], subst: dict[Var, int]
) -> list[Constraint]:
    repl = {v: LinExpr.constant(val) for v, val in subst.items()}
    return [
        Constraint(_fold_products(c.expr.substitute_many(repl), subst), c.kind)
        for c in constraints
    ]


def _seed_values(constraints: list[Constraint], half_width: int) -> list[int]:
    """Fair enumeration order for nonlinear variables: small magnitudes
    first, then constants (and neighbours) appearing in the problem."""
    base: list[int] = [0]
    for k in range(1, half_width + 1):
        base.extend((k, -k))
    extra: set[int] = set()
    for c in constraints:
        k = c.expr.const
        if k.denominator == 1:
            for delta in (-1, 0, 1):
                extra.add(int(k) + delta)
                extra.add(-int(k) + delta)
    ordered = base + sorted(v for v in extra if abs(v) > half_width)
    seen: set[int] = set()
    out: list[int] = []
    for v in ordered:
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


def _complete_products(model: dict[LinAtom, int]) -> dict[LinAtom, int]:
    """Strip non-variable atoms from the model, keeping the pure variable
    assignment.  Product atoms are fully determined by their factors at
    this point (they were either folded away or their variables enumerated),
    so dropping them loses no information."""
    return {a: v for a, v in model.items() if isinstance(a, Var)}
