"""Integration tests for the DPLL(T) solver — the Z3 substitute.

These exercise exactly the query shapes the paper's heap translation
produces: conjunctions of equalities with linear combinations, zero/nonzero
refinements, case-mapping consistency, and validity queries for the proof
relation (Fig. 5).  Unsat-core shrinking is compared with the plain
deletion loop, kept here as the oracle, on seeded random conflicts.
"""

import collections
import random

import pytest

from repro.smt import (
    FuncDecl,
    Result,
    Solver,
    check_sat,
    get_model,
    is_valid,
    mk_add,
    mk_and,
    mk_app,
    mk_distinct,
    mk_div,
    mk_eq,
    mk_ge,
    mk_gt,
    mk_implies,
    mk_int,
    mk_le,
    mk_lt,
    mk_mod,
    mk_mul,
    mk_or,
    mk_sub,
    mk_var,
)
from repro.smt.errors import SolverError
from repro.smt.lia import LiaResult, LiaSolver
from repro.smt.terms import Eq, Le, Lt, Mul

x, y, z, w = mk_var("x"), mk_var("y"), mk_var("z"), mk_var("w")


def model_satisfies(formulas):
    m = get_model(*formulas)
    assert m is not None
    for f in formulas:
        assert m.eval(f), f"model {m} violates {f}"
    return m


class TestBasicSat:
    def test_trivial_true(self):
        assert check_sat(mk_eq(x, x)) is Result.SAT

    def test_trivial_false(self):
        assert check_sat(mk_and(mk_eq(x, 1), mk_eq(x, 2))) is Result.UNSAT

    def test_paper_worked_example(self):
        # §2: L5 = 100 - L4 and L5 = 0 must give L4 = 100.
        l4, l5 = mk_var("L4"), mk_var("L5")
        m = model_satisfies([mk_eq(l5, mk_sub(100, l4)), mk_eq(0, l5)])
        assert m[l4] == 100
        assert m[l5] == 0

    def test_linear_system(self):
        m = model_satisfies([mk_eq(mk_add(x, y), 10), mk_eq(mk_sub(x, y), 4)])
        assert m[x] == 7 and m[y] == 3

    def test_inequality_chain(self):
        m = model_satisfies([mk_lt(x, y), mk_lt(y, z), mk_eq(z, 2)])
        assert m[x] < m[y] < 2

    def test_strict_vs_nonstrict(self):
        assert check_sat(mk_and(mk_le(x, 5), mk_gt(x, 5))) is Result.UNSAT
        assert check_sat(mk_and(mk_le(x, 5), mk_ge(x, 5))) is Result.SAT

    def test_no_integer_between(self):
        # 2x = 1 has no integer solution.
        assert check_sat(mk_eq(mk_mul(2, x), 1)) is Result.UNSAT

    def test_integer_gap(self):
        # 0 < x < 1 has no integer solution.
        assert check_sat(mk_and(mk_lt(0, x), mk_lt(x, 1))) is Result.UNSAT

    def test_disequality_split(self):
        m = model_satisfies([mk_distinct(x, 0), mk_ge(x, 0), mk_le(x, 1)])
        assert m[x] == 1

    def test_multiple_disequalities(self):
        fs = [mk_ge(x, 0), mk_le(x, 3)] + [
            mk_distinct(x, k) for k in (0, 1, 3)
        ]
        m = model_satisfies(fs)
        assert m[x] == 2

    def test_all_values_excluded(self):
        fs = [mk_ge(x, 0), mk_le(x, 2)] + [
            mk_distinct(x, k) for k in (0, 1, 2)
        ]
        assert check_sat(*fs) is Result.UNSAT


class TestBooleanStructure:
    def test_disjunction(self):
        m = model_satisfies([mk_or(mk_eq(x, 1), mk_eq(x, 2)), mk_distinct(x, 1)])
        assert m[x] == 2

    def test_implication_chain(self):
        fs = [
            mk_implies(mk_eq(x, 1), mk_eq(y, 2)),
            mk_implies(mk_eq(y, 2), mk_eq(z, 3)),
            mk_eq(x, 1),
        ]
        m = model_satisfies(fs)
        assert m[y] == 2 and m[z] == 3

    def test_case_split_boolean(self):
        # (x=0 or x=1) and (x=0 => y=5) and (x=1 => y=7) and y=7
        fs = [
            mk_or(mk_eq(x, 0), mk_eq(x, 1)),
            mk_implies(mk_eq(x, 0), mk_eq(y, 5)),
            mk_implies(mk_eq(x, 1), mk_eq(y, 7)),
            mk_eq(y, 7),
        ]
        m = model_satisfies(fs)
        assert m[x] == 1

    def test_unsat_via_boolean(self):
        fs = [
            mk_or(mk_eq(x, 0), mk_eq(x, 1)),
            mk_distinct(x, 0),
            mk_distinct(x, 1),
        ]
        assert check_sat(*fs) is Result.UNSAT

    def test_deep_nesting(self):
        f = mk_and(
            mk_or(
                mk_and(mk_eq(x, 1), mk_eq(y, 1)),
                mk_and(mk_eq(x, 2), mk_eq(y, 4)),
                mk_and(mk_eq(x, 3), mk_eq(y, 9)),
            ),
            mk_gt(y, 5),
        )
        m = model_satisfies([f])
        assert (m[x], m[y]) == (3, 9)


class TestUninterpretedFunctions:
    def test_functional_consistency(self):
        g = FuncDecl("g", 1)
        # g(x) != g(y) and x = y is unsat.
        fs = [mk_distinct(mk_app(g, x), mk_app(g, y)), mk_eq(x, y)]
        assert check_sat(*fs) is Result.UNSAT

    def test_case_mapping_shape(self):
        # The paper's case-mapping: same input must give same output;
        # different inputs may differ.
        g = FuncDecl("g", 1)
        fs = [
            mk_eq(mk_app(g, mk_int(0)), 10),
            mk_eq(mk_app(g, mk_int(1)), 20),
            mk_eq(x, mk_app(g, mk_int(0))),
        ]
        m = model_satisfies(fs)
        assert m[x] == 10
        table = m.func_table(g)
        assert table[(0,)] == 10 and table[(1,)] == 20

    def test_congruence_through_args(self):
        g = FuncDecl("g", 2)
        fs = [
            mk_eq(x, y),
            mk_distinct(mk_app(g, x, mk_int(3)), mk_app(g, y, mk_int(3))),
        ]
        assert check_sat(*fs) is Result.UNSAT

    def test_function_can_differ_on_distinct_args(self):
        g = FuncDecl("g", 1)
        fs = [
            mk_distinct(x, y),
            mk_distinct(mk_app(g, x), mk_app(g, y)),
        ]
        assert check_sat(*fs) is Result.SAT


class TestDivMod:
    def test_div_exact(self):
        m = model_satisfies([mk_eq(x, mk_div(mk_int(10), mk_int(2)))])
        assert m[x] == 5

    def test_div_symbolic_denominator(self):
        # x div y = 3 and x = 7 forces y in {2} (Euclidean, y > 0 branch).
        fs = [
            mk_eq(mk_div(x, y), 3),
            mk_eq(x, 7),
            mk_ge(y, 1),
        ]
        m = model_satisfies(fs)
        assert m[x] // m[y] == 3

    def test_mod_range(self):
        fs = [mk_eq(z, mk_mod(x, mk_int(3))), mk_eq(x, 17)]
        m = model_satisfies(fs)
        assert m[z] == 2

    def test_div_by_zero_unsat(self):
        # Divisor forced to zero makes the axiomatisation unsatisfiable.
        fs = [mk_eq(z, mk_div(x, y)), mk_eq(y, 0)]
        assert check_sat(*fs) is Result.UNSAT


class TestNonlinear:
    def test_product_with_constant_propagation(self):
        fs = [mk_eq(x, 4), mk_eq(z, mk_mul(x, y)), mk_eq(z, 12)]
        m = model_satisfies(fs)
        assert m[y] == 3

    def test_small_product_search(self):
        fs = [mk_eq(mk_mul(x, y), 6), mk_ge(x, 2), mk_ge(y, 2)]
        m = model_satisfies(fs)
        assert m[x] * m[y] == 6

    def test_square(self):
        fs = [mk_eq(mk_mul(x, x), 49), mk_ge(x, 0)]
        m = model_satisfies(fs)
        assert m[x] == 7

    def test_product_unsat(self):
        fs = [mk_eq(mk_mul(x, x), 2)]
        res = check_sat(*fs)
        # No integer square root of 2; bounded search cannot *prove* unsat,
        # so UNKNOWN is also acceptable — but never SAT.
        assert res in (Result.UNSAT, Result.UNKNOWN)


class TestValidity:
    def test_valid_implication(self):
        assert is_valid(mk_ge(x, 0), mk_ge(x, 5)) is True

    def test_invalid_implication(self):
        assert is_valid(mk_ge(x, 5), mk_ge(x, 0)) is False

    def test_proof_relation_shapes(self):
        # Fig 5: Σ ⊢ L : zero? !  when heap implies L = 0.
        l4, l5 = mk_var("L4"), mk_var("L5")
        heap = mk_and(mk_eq(l5, mk_sub(100, l4)), mk_eq(l4, 100))
        assert is_valid(mk_eq(l5, 0), heap) is True
        # Refuted: heap and L5 = 0 unsat.
        heap2 = mk_and(mk_eq(l5, mk_sub(100, l4)), mk_eq(l4, 0))
        assert check_sat(heap2, mk_eq(l5, 0)) is Result.UNSAT
        # Ambiguous: both satisfiable.
        heap3 = mk_eq(l5, mk_sub(100, l4))
        assert is_valid(mk_eq(l5, 0), heap3) is False
        assert check_sat(heap3, mk_eq(l5, 0)) is Result.SAT


class TestSolverInterface:
    def test_push_pop(self):
        s = Solver()
        s.add(mk_ge(x, 0))
        s.push()
        s.add(mk_lt(x, 0))
        assert s.check() is Result.UNSAT
        s.pop()
        assert s.check() is Result.SAT

    def test_pop_without_push_raises(self):
        s = Solver()
        with pytest.raises(SolverError):
            s.pop()

    def test_model_without_sat_raises(self):
        s = Solver()
        s.add(mk_and(mk_eq(x, 0), mk_eq(x, 1)))
        assert s.check() is Result.UNSAT
        with pytest.raises(SolverError):
            s.model()

    def test_incremental_lemma_reuse(self):
        s = Solver()
        s.add(mk_or(*(mk_eq(x, k) for k in range(8))))
        s.add(mk_ge(x, 6))
        assert s.check() is Result.SAT
        assert s.model()[x] >= 6

    def test_check_with_extra(self):
        s = Solver()
        s.add(mk_ge(x, 0))
        assert s.check(mk_lt(x, 0)) is Result.UNSAT
        assert s.check() is Result.SAT

    def test_empty_solver_sat(self):
        s = Solver()
        assert s.check() is Result.SAT
        assert s.model().env == {}

    def test_model_repr(self):
        s = Solver()
        s.add(mk_eq(x, 3))
        assert s.check() is Result.SAT
        assert "x = 3" in repr(s.model())


# ---------------------------------------------------------------------------
# Unsat-core shrinking against the plain deletion loop
# ---------------------------------------------------------------------------

#: Small budgets keep the oracle's nonlinear trials cheap; both sides of
#: every comparison use the same ones.
BUDGETS = dict(branch_budget=40, enum_budget=100)
VARS = [x, y, z, w]


def oracle_shrink_core(solver, lits):
    """The earlier deletion loop, verbatim but for a fresh LIA solver:
    one full solve per trial."""
    lia = LiaSolver(**BUDGETS)
    if len(lits) > 40:
        return lits
    core = list(lits)
    i = 0
    while i < len(core):
        trial = core[:i] + core[i + 1 :]
        constraints = [solver._constraint(a, pol) for a, pol in trial]
        if lia.solve(constraints).status is Result.UNSAT:
            core = trial
        else:
            i += 1
    return core


def _linear(rng, names):
    terms = [mk_mul(rng.choice([-2, -1, 1, 1, 2, 3]), v) for v in names]
    return mk_add(*terms, rng.randint(-4, 4))


def _relation(rng, lhs, rhs):
    return rng.choice([Eq, Le, Lt])(lhs, rhs), rng.random() < 0.75


def _noise(rng):
    vs = rng.sample(VARS, rng.randint(1, 3))
    if rng.random() < 0.25:
        return _relation(rng, mk_mul(*rng.sample(VARS, 2)), _linear(rng, vs[:1]))
    return _relation(rng, _linear(rng, vs), mk_int(rng.randint(-6, 6)))


def _seed_conflict(rng):
    """Literals that refute by one of the LIA solver's routes."""
    a, b, c = rng.sample(VARS, 3)
    k = rng.randint(-5, 5)
    route = rng.randrange(6)
    if route == 0:  # propagation: a chain of pins that disagrees
        return [
            (Eq(a, mk_int(k)), True),
            (Eq(b, mk_add(a, 1)), True),
            (Eq(c, mk_sub(b, a)), True),
            (Eq(c, mk_int(rng.choice([0, 2, 3]))), True),
        ]
    if route == 1:  # root Fourier–Motzkin: a + b <= k, a >= i, b >= j
        i = rng.randint(-3, 3)
        return [
            (Le(mk_add(a, b), mk_int(k)), True),
            (Le(mk_int(i), a), True),
            (Lt(b, mk_int(k - i + 1)), False),
        ]
    if route == 2:  # integer gaps: 2a = 1, or 0 < a < 1
        if rng.random() < 0.5:
            return [(Eq(mk_mul(2, a), mk_int(1)), True)]
        return [(Lt(mk_int(0), a), True), (Lt(a, mk_int(1)), True)]
    if route == 3:  # branch-and-bound: a + b = 1 and a = b
        return [(Eq(mk_add(a, b), mk_int(2 * k + 1)), True), (Eq(a, b), True)]
    if route == 4:  # disequality split
        return [
            (Eq(a, mk_int(k)), False),
            (Le(a, mk_int(k)), True),
            (Le(mk_int(k), a), True),
        ]
    # a product that folds once its factors are pinned, or stays nonlinear
    prod = mk_mul(a, b)
    lits = [(Eq(prod, mk_int(6)), True), (Eq(a, mk_int(2)), True)]
    if rng.random() < 0.5:
        lits.append((Eq(b, mk_int(4)), True))
    else:
        lits.append((Le(b, mk_int(2)), True))
    return lits


def random_conflicts(seed, count):
    """``count`` unsat literal lists (one per DPLL(T) conflict shape)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        lits = _seed_conflict(rng) + [_noise(rng) for _ in range(rng.randint(0, 7))]
        rng.shuffle(lits)
        s = Solver(lia=LiaSolver(**BUDGETS))
        cons = [s._constraint(a, pol) for a, pol in lits]
        if LiaSolver(**BUDGETS).solve(cons).status is Result.UNSAT:
            out.append(lits)
    return out


def _has_product(solver, lits):
    return any(
        isinstance(t, Mul)
        for a, pol in lits
        for t, _ in solver._constraint(a, pol).expr.coeffs
    )


@pytest.mark.parametrize("seed", range(4))
def test_shrink_core_matches_the_deletion_loop(seed):
    kinds = collections.Counter()
    for lits in random_conflicts(seed, 130):
        oracle_solver = Solver(lia=LiaSolver(**BUDGETS))
        want = oracle_shrink_core(oracle_solver, lits)
        # With an unexplained refutation of the full list (as
        # branch-and-bound gives), and with the solver's own.
        s = Solver(lia=LiaSolver(**BUDGETS))
        assert s._shrink_core(lits, LiaResult(Result.UNSAT)) == want, lits
        s = Solver(lia=LiaSolver(**BUDGETS))
        full = s._lia.solve([s._constraint(a, pol) for a, pol in lits])
        assert s._shrink_core(lits, full) == want, lits
        kinds["propagation" if full.by_propagation else
              "root" if full.explanation else "branching"] += 1
        if _has_product(s, lits):
            # An UNKNOWN trial keeps its literal, necessary or not.
            kinds["product"] += 1
            continue
        # Every kept literal is necessary.
        check = LiaSolver(**BUDGETS)
        for i in range(len(want)):
            rest = want[:i] + want[i + 1 :]
            res = check.solve([s._constraint(a, pol) for a, pol in rest])
            assert res.status is not Result.UNSAT, (want, i)
    assert min(kinds[k] for k in ("propagation", "root", "branching", "product")) >= 10, kinds


def test_shrink_core_leaves_long_conflicts_alone():
    rng = random.Random(5)
    lits = [(Eq(x, mk_int(0)), True), (Eq(x, mk_int(1)), True)]
    lits += [_noise(rng) for _ in range(40)]
    s = Solver()

    def no_solve(*args, **kwargs):
        raise AssertionError("a conflict over 40 literals is not shrunk")

    s._lia.solve = no_solve
    assert s._shrink_core(lits, LiaResult(Result.UNSAT)) == lits
