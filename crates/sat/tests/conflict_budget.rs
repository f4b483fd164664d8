//! The per-query conflict-budget escape hatch, pinned at the solver
//! level: a budgeted query on a hard instance must return `Unknown`
//! within its budget (never run to completion), and the budget must be
//! consumed by exactly one solve — the next query runs unbounded and
//! reaches the real verdict. The optimizer's register-correspondence
//! miters lean on the first half: a hard pair costs a bounded amount of
//! work and stays unmerged.

use genfv_sat::{Lit, SolveResult, Solver};

/// An UNSAT pigeonhole instance (`n+1` pigeons, `n` holes) — requires
/// exponentially many resolution steps, so it reliably exhausts any small
/// conflict budget.
fn pigeonhole(n: usize) -> Solver {
    let mut s = Solver::new();
    let p: Vec<Vec<Lit>> =
        (0..n + 1).map(|_| (0..n).map(|_| Lit::pos(s.new_var())).collect()).collect();
    for row in &p {
        s.add_clause(row.clone());
    }
    for h in 0..n {
        for i in 0..p.len() {
            for j in (i + 1)..p.len() {
                s.add_clause([!p[i][h], !p[j][h]]);
            }
        }
    }
    s
}

#[test]
fn budget_exhaustion_reports_unknown_within_budget() {
    let mut s = pigeonhole(8);
    let budget = 20;
    s.set_conflict_budget(budget);
    let res = s.solve();
    assert_eq!(res, SolveResult::Unknown, "hard instance must exhaust a tiny budget");
    assert!(!res.is_sat() && !res.is_unsat());
    let spent = s.stats().last_conflicts;
    assert!(spent <= budget, "budgeted solve must stop at the budget, spent {spent} of {budget}");
}

#[test]
fn budget_is_consumed_by_one_solve() {
    let mut s = pigeonhole(7);
    s.set_conflict_budget(5);
    assert_eq!(s.solve(), SolveResult::Unknown);
    // No budget re-arm: the very next query runs to completion and finds
    // the instance UNSAT, spending more conflicts than the old budget.
    let res = s.solve();
    assert_eq!(res, SolveResult::Unsat, "unbudgeted re-solve reaches the real verdict");
    assert!(s.stats().last_conflicts > 5, "second solve was not silently budgeted");
}

#[test]
fn budget_does_not_truncate_easy_queries() {
    let mut s = Solver::new();
    let a = Lit::pos(s.new_var());
    let b = Lit::pos(s.new_var());
    s.add_clause([a, b]);
    s.add_clause([!a, b]);
    s.set_conflict_budget(1_000);
    assert_eq!(s.solve(), SolveResult::Sat, "budget above the need changes nothing");
    assert_eq!(s.value(b), Some(true));
}

#[test]
fn budgeted_unknown_under_assumptions_is_rearmable() {
    // The sweep pattern: one long-lived solver, activation-literal
    // queries, a fresh budget armed per query.
    let mut s = pigeonhole(8);
    let sel = Lit::pos(s.new_var());
    for _ in 0..3 {
        s.set_conflict_budget(10);
        let res = s.solve_with_assumptions(&[sel]);
        assert_eq!(res, SolveResult::Unknown);
        assert!(s.stats().last_conflicts <= 10);
    }
}
