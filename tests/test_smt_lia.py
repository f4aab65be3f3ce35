"""Tests for the conjunction-level LIA solver (``repro.smt.lia``).

* gcd tightening in ``normalize``, as a table;
* model soundness over small random conjunctions, against brute force;
* the one-pass constant propagation against a copy of the earlier
  rounds x pinned implementation, which is kept here as the oracle,
  plus a work bound on a long equality chain;
* the invariants unsat-core shrinking relies on: no refutation once
  propagation leaves a product atom, and every explanation a refuted
  subset of the input.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Optional

import pytest

from repro.smt import lia
from repro.smt.errors import Result
from repro.smt.lia import EQ, LE, NE, Constraint, LiaSolver, normalize
from repro.smt.linearize import LinAtom, LinExpr
from repro.smt.terms import IntConst, Mul, Term, Var

X, Y, Z = Var("x"), Var("y"), Var("z")


def lin(const: int | Fraction, **coeffs: int | Fraction) -> LinExpr:
    return LinExpr.from_dict(
        {Var(name): Fraction(c) for name, c in coeffs.items()}, Fraction(const)
    )


# ---------------------------------------------------------------------------
# normalize: gcd tightening
# ---------------------------------------------------------------------------

# (expr, kind, strict, expected).  ``a.x + c <= 0`` divides by
# g = gcd(a) and rounds the constant up; eq/ne divide when g | c and
# otherwise become a constant literal: false for eq, true for ne.
NORMALIZE_TABLE = [
    (lin(1, x=2), LE, False, lin(1, x=1)),
    (lin(-1, x=2), LE, False, lin(0, x=1)),
    (lin(5, x=3), LE, False, lin(2, x=1)),
    (lin(-5, x=3), LE, False, lin(-1, x=1)),
    (lin(6, x=3), LE, False, lin(2, x=1)),
    (lin(-6, x=-3), LE, False, lin(-2, x=-1)),
    (lin(7, x=4, y=-6), LE, False, lin(4, x=2, y=-3)),
    (lin(-7, x=4, y=-6), LE, False, lin(-3, x=2, y=-3)),
    (lin(1, x=2), LE, True, lin(1, x=1)),
    (lin(-4, x=2), LE, True, lin(-1, x=1)),
    (lin(Fraction(1, 3), x=Fraction(1, 2)), LE, False, lin(1, x=1)),
    (lin(1, x=1), LE, False, lin(1, x=1)),
    (lin(4, x=2), EQ, False, lin(2, x=1)),
    (lin(-4, x=2, y=6), EQ, False, lin(-2, x=1, y=3)),
    (lin(3, x=2), EQ, False, LinExpr.constant(1)),
    (lin(-3, x=2), EQ, False, LinExpr.constant(1)),
    (lin(8, x=4), NE, False, lin(2, x=1)),
    (lin(-8, x=-4, y=6), NE, False, lin(-4, x=-2, y=3)),
    (lin(6, x=4), NE, False, LinExpr.constant(1)),
    (lin(3, x=2), NE, False, LinExpr.constant(1)),
    (lin(-3, x=2), NE, False, LinExpr.constant(1)),
]


@pytest.mark.parametrize(
    "expr,kind,strict,expected",
    NORMALIZE_TABLE,
    ids=[
        f"{kind}{'-strict' if strict else ''}:{expr!r}"
        for expr, kind, strict, _ in NORMALIZE_TABLE
    ],
)
def test_normalize_gcd_table(expr, kind, strict, expected):
    assert normalize(expr, kind, strict=strict) == Constraint(expected, kind)


def test_normalize_does_not_admit_spurious_models():
    # 2x + 1 <= 0 with x >= 0 has no integer solution.
    cons = [normalize(lin(1, x=2), LE), normalize(lin(0, x=-1), LE)]
    assert LiaSolver().solve(cons).status is Result.UNSAT


# ---------------------------------------------------------------------------
# Model soundness against brute force
# ---------------------------------------------------------------------------

KINDS = [(LE, False), (LE, True), (EQ, False), (NE, False)]


def holds(expr: LinExpr, kind: str, strict: bool, env: dict) -> bool:
    v = expr.const + sum(c * env.get(a, 0) for a, c in expr.coeffs)
    if kind == EQ:
        return v == 0
    if kind == NE:
        return v != 0
    return v < 0 if strict else v <= 0


def random_literal(rng: random.Random, names: list[str]):
    coeffs = {
        n: rng.choice([-4, -3, -2, 2, 3, 4, -1, 1])
        for n in rng.sample(names, rng.randint(1, len(names)))
    }
    kind, strict = rng.choice(KINDS)
    return lin(rng.randint(-9, 9), **coeffs), kind, strict


@pytest.mark.parametrize("seed", range(6))
def test_models_satisfy_literals_and_unsat_has_no_small_solution(seed):
    rng = random.Random(seed)
    for _ in range(80):
        names = ["x", "y", "z"][: rng.randint(2, 3)]
        lits = [random_literal(rng, names) for _ in range(rng.randint(2, 4))]
        res = LiaSolver().solve([normalize(e, k, strict=s) for e, k, s in lits])
        assert res.status is not Result.UNKNOWN, lits
        if res.status is Result.SAT:
            for e, k, s in lits:
                assert holds(e, k, s, res.model), (lits, res.model)
            continue
        variables = [Var(n) for n in names]
        for point in itertools.product(range(-6, 7), repeat=len(names)):
            env = dict(zip(variables, point))
            assert not all(holds(e, k, s, env) for e, k, s in lits), (lits, env)


# ---------------------------------------------------------------------------
# Differential: one-pass propagation against the rounds x pinned oracle
# ---------------------------------------------------------------------------


def _oracle_scale(e: LinExpr, k) -> LinExpr:
    k = Fraction(k)
    if k == 0:
        return LinExpr.constant(0)
    return LinExpr.from_dict({a: c * k for a, c in e.coeffs}, e.const * k)


def _oracle_substitute(e: LinExpr, a: LinAtom, repl: LinExpr) -> LinExpr:
    c = e.coeff_of(a)
    if c == 0:
        return e
    d = e.as_dict()
    del d[a]
    return LinExpr.from_dict(d, e.const).add(_oracle_scale(repl, c))


def _oracle_fold_products(e: LinExpr, pinned: dict) -> LinExpr:
    result = e
    for atom in list(e.atoms()):
        if not isinstance(atom, Mul):
            continue
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
            result = _oracle_substitute(result, atom, LinExpr.constant(const))
        elif len(unknown) == 1:
            result = _oracle_substitute(
                result, atom, LinExpr.atom(unknown[0], const)
            )
    return result


def oracle_propagate_constants(
    constraints: list[Constraint],
) -> tuple[Optional[list[Constraint]], dict]:
    """The earlier implementation: every round substitutes every pinned
    atom, one ``substitute`` call at a time, into every constraint."""
    pinned: dict = {}
    cons = list(constraints)
    for _round in range(len(constraints) + 8):
        progress = False
        out: list[Constraint] = []
        for c in cons:
            e = c.expr
            if e.is_constant:
                v = e.const
                ok = (
                    (c.kind == EQ and v == 0)
                    or (c.kind == LE and v <= 0)
                    or (c.kind == NE and v != 0)
                )
                if not ok:
                    return None, pinned
                progress = True
                continue
            if c.kind == EQ and len(e.coeffs) == 1:
                atom, coeff = e.coeffs[0]
                value = -e.const / coeff
                if value.denominator != 1:
                    return None, pinned
                if isinstance(atom, Var):
                    prev = pinned.get(atom)
                    if prev is not None and prev != int(value):
                        return None, pinned
                    pinned[atom] = int(value)
                    progress = True
                    continue
            out.append(c)
        if not progress:
            return out, pinned
        cons = []
        for c in out:
            e = c.expr
            for atom, val in pinned.items():
                e = _oracle_substitute(e, atom, LinExpr.constant(val))
            e = _oracle_fold_products(e, pinned)
            cons.append(Constraint(e, c.kind))
    return cons, pinned


def random_conjunction(rng: random.Random) -> list[Constraint]:
    """Equality chains seeded by a unary equality, product atoms over
    chain variables, loose linear literals and occasional conflicts."""
    n = rng.randint(3, 14)
    xs = [Var(f"v{i}") for i in range(n)]
    cons = [
        Constraint(
            LinExpr.from_dict(
                {xs[i + 1]: Fraction(rng.choice([1, -1, 2])), xs[i]: Fraction(-1)},
                Fraction(rng.randint(-3, 3)),
            ),
            EQ,
        )
        for i in range(n - 1)
    ]
    cons.append(Constraint(lin(rng.randint(-4, 4), v0=1), EQ))
    atoms: list[LinAtom] = list(xs) + [Var("free0"), Var("free1")]
    for _ in range(rng.randint(0, 4)):
        factors = rng.sample(atoms, rng.randint(2, 3))
        if rng.random() < 0.3:
            factors.insert(0, IntConst(rng.choice([-2, 3])))
        atoms.append(Mul(tuple(factors)))
    for _ in range(rng.randint(1, 6)):
        chosen = rng.sample(atoms, rng.randint(1, 3))
        expr = LinExpr.from_dict(
            {a: Fraction(rng.choice([-3, -1, 1, 2])) for a in chosen},
            Fraction(rng.randint(-6, 6)),
        )
        cons.append(Constraint(expr, rng.choice([EQ, LE, NE])))
    if rng.random() < 0.2:
        cons.append(Constraint(lin(rng.randint(-4, 4), v0=1), EQ))
    if rng.random() < 0.1:
        cons.append(Constraint(lin(1, v1=2), EQ))
    rng.shuffle(cons)
    return cons


@pytest.mark.parametrize("seed", range(4))
def test_propagation_matches_rounds_oracle(seed):
    rng = random.Random(1000 + seed)
    outcomes = set()
    for _ in range(150):
        cons = random_conjunction(rng)
        got, got_pinned = lia._propagate_constants(cons)
        want, want_pinned = oracle_propagate_constants(cons)
        assert got == want, cons
        assert list(got_pinned.items()) == list(want_pinned.items()), cons
        outcomes.add(got is None)
    assert outcomes == {True, False}


def test_nested_product_folds_like_the_oracle():
    # Folding (* (* x y) z) once z is known exposes the product (* x y)
    # after x and y are pinned; like the oracle, the next round that
    # makes progress (pinning w) folds it, and the one after drops it.
    inner = Mul((X, Y))
    cons = [
        Constraint(lin(-2, z=1), EQ),
        Constraint(LinExpr.from_dict({Mul((inner, Z)): Fraction(1)}, Fraction(-8)), EQ),
        Constraint(lin(-1, x=1), EQ),
        Constraint(lin(-4, y=1), EQ),
        Constraint(lin(-1, w=1, z=-1), EQ),
    ]
    assert lia._propagate_constants(cons) == oracle_propagate_constants(cons)
    assert lia._propagate_constants(cons[:-1]) == oracle_propagate_constants(cons[:-1])
    assert lia._propagate_constants(cons)[0] == []


def test_substitute_matches_oracle():
    rng = random.Random(7)
    atoms = [X, Y, Z, Mul((X, Y))]
    for _ in range(300):
        e = LinExpr.from_dict(
            {a: Fraction(rng.randint(-3, 3)) for a in rng.sample(atoms, 3)},
            Fraction(rng.randint(-5, 5)),
        )
        a = rng.choice(atoms)
        repl = LinExpr.from_dict(
            {b: Fraction(rng.randint(-2, 2)) for b in rng.sample(atoms, 2)},
            Fraction(rng.randint(-3, 3)),
        )
        k = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        assert e.substitute(a, repl) == _oracle_substitute(e, a, repl)
        assert e.scale(k) == _oracle_scale(e, k)


def test_substitution_work_is_linear_on_a_long_chain(monkeypatch):
    n = 300
    xs = [Var(f"c{i}") for i in range(n + 1)]
    # Links listed last-to-first, so each round pins exactly one more.
    cons = [
        Constraint(lin(-1, **{xs[i + 1].name: 1, xs[i].name: -1}), EQ)
        for i in reversed(range(n))
    ]
    cons.append(Constraint(lin(-5, c0=1), EQ))
    rewrites = 0
    substitute_many = LinExpr.substitute_many

    def counting(self, subst):
        nonlocal rewrites
        rewrites += 1
        return substitute_many(self, subst)

    monkeypatch.setattr(LinExpr, "substitute_many", counting)
    out, pinned = lia._propagate_constants(cons)
    assert out == []
    assert pinned == {x: 5 + i for i, x in enumerate(xs)}
    assert rewrites <= 2 * n


# ---------------------------------------------------------------------------
# Invariants unsat-core shrinking relies on
# ---------------------------------------------------------------------------

#: Keeps the budget-exhausting members of the populations cheap.
SMALL_BUDGETS = dict(branch_budget=100, enum_budget=300)


def _value(atom: Term, env: dict) -> int:
    if isinstance(atom, IntConst):
        return atom.value
    if isinstance(atom, Mul):
        out = 1
        for f in atom.args:
            out *= _value(f, env)
        return out
    return env[atom]


def _satisfied(c: Constraint, env: dict) -> bool:
    v = c.expr.const + sum(k * _value(a, env) for a, k in c.expr.coeffs)
    return v == 0 if c.kind == EQ else v <= 0 if c.kind == LE else v != 0


def _variables(atom: Term) -> set:
    if isinstance(atom, Mul):
        return set().union(*(_variables(f) for f in atom.args))
    return {atom} if isinstance(atom, Var) else set()


def small_conjunction(rng: random.Random) -> list[Constraint]:
    """Two to six literals over x, y, z and the products x*y, y*z:
    pins, linear eq/le/ne literals and product literals."""
    atoms: list[LinAtom] = [X, Y, Z, Mul((X, Y)), Mul((Y, Z))]
    cons = []
    for _ in range(rng.randint(2, 6)):
        if rng.random() < 0.3:
            cons.append(Constraint(lin(rng.randint(-3, 3), **{rng.choice("xyz"): 1}), EQ))
            continue
        chosen = rng.sample(atoms[:3], rng.randint(1, 3))
        if rng.random() < 0.4:
            chosen.append(rng.choice(atoms[3:]))
        expr = LinExpr.from_dict(
            {a: Fraction(rng.choice([-2, -1, 1, 2, 3])) for a in chosen},
            Fraction(rng.randint(-5, 5)),
        )
        kind = rng.choice([EQ, LE, LE, NE])
        cons.append(normalize(expr, kind, strict=kind == LE and rng.random() < 0.5))
    return cons


def test_solve_never_refutes_when_propagation_leaves_a_product():
    # Shrinking keeps a literal without enumerating once propagation
    # leaves a product atom; an enumeration that refutes breaks that.
    rng = random.Random(2024)
    nonlinear = 0
    for i in range(600):
        cons = (small_conjunction if i % 2 else random_conjunction)(rng)
        reduced, _ = lia._propagate_constants(cons)
        solver = LiaSolver(**SMALL_BUDGETS)
        full = solver.solve(cons)
        if reduced is None or not lia._nonlinear_vars(reduced):
            assert LiaSolver(**SMALL_BUDGETS).solve(cons, refute_only=True) == full
            continue
        nonlinear += 1
        assert full.status is not Result.UNSAT, cons
        assert LiaSolver(**SMALL_BUDGETS).solve(
            cons, refute_only=True
        ).status is Result.UNKNOWN
    assert nonlinear >= 50


@pytest.mark.parametrize("seed", range(3))
def test_explanations_are_refuted_subsets(seed):
    rng = random.Random(500 + seed)
    routes = {True: 0, False: 0}
    for i in range(400):
        if i % 2:
            cons = small_conjunction(rng)
        else:
            # Inequalities only: refuted at the root or by branching.
            lits = [random_literal(rng, ["x", "y"]) for _ in range(rng.randint(3, 6))]
            cons = [normalize(e, LE, strict=s) for e, _, s in lits]
        res = LiaSolver(**SMALL_BUDGETS).solve(cons)
        if res.explanation is None:
            continue
        routes[res.by_propagation] += 1
        expl = res.explanation
        assert expl and set(expl) <= set(cons), (cons, expl)
        assert LiaSolver(**SMALL_BUDGETS).solve(list(expl)).status is Result.UNSAT
        reduced, _ = lia._propagate_constants(list(expl))
        if res.by_propagation:
            assert reduced is None, expl
        else:
            assert reduced is not None and not lia._nonlinear_vars(reduced), expl
        variables = sorted(
            set().union(*(_variables(a) for c in expl for a, _ in c.expr.coeffs)),
            key=lambda v: v.name,
        )
        for point in itertools.product(range(-6, 7), repeat=len(variables)):
            env = dict(zip(variables, point))
            assert not all(_satisfied(c, env) for c in expl), (expl, env)
    assert min(routes.values()) >= 20, routes
