//! Register correspondence: the `regcorr` stage of [`optimize`](crate::optimize).
//!
//! Van Eijk-style register correspondence, restricted to singleton
//! induction: two registers with structurally equal initial values whose
//! next-state functions coincide *under the hypothesis that the registers
//! are equal* are merged into one. This is what collapses the paper's
//! Listing-1 shape — two counters stepping in lockstep — down to a single
//! register, after which `eq(c, c)` folds to constant true and the
//! induction step is structural.
//!
//! The stage runs at [`OptLevel::Full`](crate::OptLevel::Full), the
//! default, so it is ordered cheapest check first: a pair must match in
//! width and init, then its substituted next functions are compared
//! structurally. Only matched pairs that are not structurally equal pay
//! for from-reset simulation (which stops once every such pair has
//! differed) and, where the traces agree, a budgeted SAT miter.
//!
//! ## Soundness
//!
//! Register merges preserve the constrained trace set exactly: equal
//! inits give `r₀ = s₀`, and the step proof gives `rₖ = sₖ → rₖ₊₁ =
//! sₖ₊₁` on constraint-satisfying frames, so every constrained trace of
//! the original system has `r = s` everywhere and maps 1:1 onto a trace
//! of the merged system (BMC verdicts and counterexample cycles are
//! bit-identical). Unreachable-state explorations (induction steps) gain
//! the hypothesis `r = s`, which — like stuck-at folding — can only
//! *strengthen* induction: the merged netlist may close a proof the
//! original stalled on, never the reverse.

use crate::bitblast::{BitBlaster, LitEnv};
use crate::eval::{splitmix64, Simulator};
use crate::expr::{Context, ExprRef};
use crate::opt::OptStats;
use crate::ts::TransitionSystem;
use genfv_obs::{Counter, Obs};
use genfv_sat::SolveResult;
use std::collections::HashMap;

/// Seed of the simulation stimulus stream.
const SEED: u64 = 0x9c5f_f44a_703a_7b4f;
/// Upper bound on miters per stage call.
const MAX_PAIRS: usize = 256;
/// Conflict budget per miter: an exhausted miter returns `Unknown` and
/// the pair stays unmerged, which keeps the stage bounded.
pub(crate) const CONFLICT_BUDGET: u64 = 2_000;

/// Two registers of equal width and init: `gone` is to be merged into
/// `keep` if `next_keep` and `next_gone`, their next functions with `keep`
/// substituted for `gone`, are equal.
#[derive(Clone, Copy)]
struct RegisterPair {
    keep: ExprRef,
    gone: ExprRef,
    next_keep: ExprRef,
    next_gone: ExprRef,
}

/// The register-correspondence stage (see module docs): merges register
/// pairs with equal widths and structurally equal inits whose next
/// functions coincide under the hypothesis that the registers are equal,
/// counting into `stats` and recording the miters issued and registers
/// merged on `obs`. Each miter may spend `budget` conflicts
/// ([`CONFLICT_BUDGET`] in the pipeline). Returns the number of registers
/// merged.
///
/// Checks run cheapest first. A structural match after substitution is
/// merged at once: equal inits and equal substituted next functions make
/// the registers equal on every trace. Only when no pair matches
/// structurally do the remaining pairs pay for simulation, and a pair
/// whose traces agree for a budgeted miter.
pub(crate) fn merge_registers(
    ctx: &mut Context,
    ts: &mut TransitionSystem,
    roots: &mut [ExprRef],
    budget: u64,
    stats: &mut OptStats,
    obs: &Obs,
) -> u64 {
    let mut queries = 0usize;
    let mut merged = 0u64;
    'restart: loop {
        let states = ts.states().to_vec();
        let mut hard: Vec<RegisterPair> = Vec::new();
        for i in 0..states.len() {
            for j in (i + 1)..states.len() {
                let (r, s) = (&states[i], &states[j]);
                let (Some(ri), Some(si)) = (r.init, s.init) else { continue };
                if ri != si || ctx.width_of(r.symbol) != ctx.width_of(s.symbol) {
                    continue;
                }
                let sub = HashMap::from([(s.symbol, r.symbol)]);
                let next_keep = ctx.substitute(r.next, &sub);
                let next_gone = ctx.substitute(s.next, &sub);
                let pair = RegisterPair { keep: r.symbol, gone: s.symbol, next_keep, next_gone };
                if next_keep == next_gone {
                    merge_pair(ctx, ts, roots, pair, stats);
                    merged += 1;
                    continue 'restart;
                }
                hard.push(pair);
            }
        }
        for pair in trace_agreeing(ctx, ts, hard) {
            if queries >= MAX_PAIRS {
                break;
            }
            queries += 1;
            match miter(ctx, ts, pair.next_keep, pair.next_gone, budget, stats) {
                SolveResult::Unsat => {
                    merge_pair(ctx, ts, roots, pair, stats);
                    merged += 1;
                    continue 'restart;
                }
                SolveResult::Sat => stats.pairs_refuted += 1,
                SolveResult::Unknown => {}
            }
        }
        break;
    }
    obs.add(Counter::SweepPairs, queries as u64);
    obs.add(Counter::SweepMerges, merged);
    merged
}

/// The pairs whose registers agree on every cycle of a few short
/// constraint-aware random runs from reset. Registers whose traces differ
/// can never correspond, so only the pairs returned are worth a miter.
/// The simulation stops once every pair has differed.
fn trace_agreeing(
    ctx: &Context,
    ts: &TransitionSystem,
    mut pairs: Vec<RegisterPair>,
) -> Vec<RegisterPair> {
    if pairs.is_empty() {
        return pairs;
    }
    let mut stream = SEED;
    for _run in 0..3 {
        let mut sim = Simulator::new(ctx, ts);
        sim.reset();
        for _cycle in 0..8 {
            for _attempt in 0..8 {
                sim.randomize_inputs(splitmix64(&mut stream));
                if sim.constraints_hold() {
                    break;
                }
            }
            pairs.retain(|p| sim.get(p.keep) == sim.get(p.gone));
            if pairs.is_empty() {
                return pairs;
            }
            sim.step();
        }
    }
    pairs
}

/// Asks a fresh solver whether `a` and `b` can differ on a frame that
/// satisfies the environment constraints, spending at most `budget`
/// conflicts (added to `stats.sweep_conflicts`). `Unsat` proves them
/// equal; `Unknown` means the budget ran out.
fn miter(
    ctx: &Context,
    ts: &TransitionSystem,
    a: ExprRef,
    b: ExprRef,
    budget: u64,
    stats: &mut OptStats,
) -> SolveResult {
    let mut bb = BitBlaster::new();
    let mut lenv = LitEnv::new();
    for &c in ts.constraints() {
        let lits = bb.blast(ctx, &mut lenv, c);
        bb.assert_lit(lits[0]);
    }
    let al = bb.blast(ctx, &mut lenv, a);
    let bl = bb.blast(ctx, &mut lenv, b);
    debug_assert_eq!(al.len(), bl.len(), "miter width mismatch");
    let mut diff = bb.false_lit();
    for (&x, &y) in al.iter().zip(&bl) {
        let bit = bb.builder_mut().xor(x, y);
        diff = bb.builder_mut().or(diff, bit);
    }
    bb.assert_lit(diff);
    bb.solver_mut().set_conflict_budget(budget);
    let res = bb.solver_mut().solve();
    stats.sweep_conflicts += bb.solver().stats().last_conflicts;
    res
}

/// Substitutes `pair.keep` for `pair.gone` everywhere and drops the
/// merged-away register.
fn merge_pair(
    ctx: &mut Context,
    ts: &mut TransitionSystem,
    roots: &mut [ExprRef],
    pair: RegisterPair,
    stats: &mut OptStats,
) {
    stats.pairs_proved += 1;
    stats.nodes_merged += 1;
    let sub = HashMap::from([(pair.gone, pair.keep)]);
    ts.map_exprs(|e| ctx.substitute(e, &sub));
    for root in roots.iter_mut() {
        *root = ctx.substitute(*root, &sub);
    }
    ts.retain_states(|sym| sym != pair.gone);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn merge(ctx: &mut Context, ts: &mut TransitionSystem, roots: &mut [ExprRef]) -> OptStats {
        let mut stats = OptStats::default();
        merge_registers(ctx, ts, roots, CONFLICT_BUDGET, &mut stats, &Obs::off());
        stats
    }

    #[test]
    fn register_correspondence_merges_lockstep_counters() {
        // The paper's Listing 1: two counters with equal inits stepping in
        // lockstep collapse to one register and the equality property
        // folds to constant true.
        let mut ctx = Context::new();
        let c1 = ctx.symbol("count1", 32);
        let c2 = ctx.symbol("count2", 32);
        let one = ctx.constant(1, 32);
        let zero = ctx.constant(0, 32);
        let n1 = ctx.add(c1, one);
        let n2 = ctx.add(c2, one);
        let mut ts = TransitionSystem::new("sync_counters");
        ts.add_state(c1, Some(zero), n1);
        ts.add_state(c2, Some(zero), n2);
        let prop = ctx.eq(c1, c2);
        let mut roots = vec![prop];
        let stats = merge(&mut ctx, &mut ts, &mut roots);
        assert!(stats.nodes_merged >= 1, "{stats:?}");
        assert_eq!(ts.states().len(), 1, "registers merged");
        assert_eq!(ctx.const_value(roots[0]).map(|v| v.to_bool()), Some(true));
    }

    #[test]
    fn budget_exhausted_register_miter_is_not_refuted() {
        // Two registers latch a*(b+c) and a*b + a*c: equal from reset on,
        // but only a multiplier miter can tell, and a one-conflict budget
        // cannot. An unanswered miter must leave the pair unmerged and
        // count as neither proved nor refuted.
        let mut ctx = Context::new();
        let a = ctx.symbol("a", 4);
        let b = ctx.symbol("b", 4);
        let c = ctx.symbol("c", 4);
        let sum = ctx.add(b, c);
        let lhs_next = ctx.mul(a, sum);
        let ab = ctx.mul(a, b);
        let ac = ctx.mul(a, c);
        let rhs_next = ctx.add(ab, ac);
        let lhs = ctx.symbol("lhs", 4);
        let rhs = ctx.symbol("rhs", 4);
        let zero = ctx.constant(0, 4);
        let mut ts = TransitionSystem::new("t");
        for s in [a, b, c] {
            ts.add_input(s);
        }
        ts.add_state(lhs, Some(zero), lhs_next);
        ts.add_state(rhs, Some(zero), rhs_next);
        let prop = ctx.eq(lhs, rhs);
        let mut roots = vec![prop];
        let mut stats = OptStats::default();
        let merged = merge_registers(&mut ctx, &mut ts, &mut roots, 1, &mut stats, &Obs::off());
        assert_eq!(merged, 0, "{stats:?}");
        assert_eq!(ts.states().len(), 2, "hard pair left unmerged");
        assert_eq!(stats.pairs_refuted, 0, "a budgeted-out miter refutes nothing: {stats:?}");
        assert_eq!(stats.pairs_proved, 0, "{stats:?}");
        assert!(stats.sweep_conflicts >= 1, "the miter ran: {stats:?}");
        // The default budget proves the same pair.
        let stats = merge(&mut ctx, &mut ts, &mut roots);
        assert_eq!(stats.nodes_merged, 1, "{stats:?}");
        assert_eq!(ts.states().len(), 1);
    }

    #[test]
    fn register_correspondence_respects_differing_inits() {
        let mut ctx = Context::new();
        let c1 = ctx.symbol("c1", 8);
        let c2 = ctx.symbol("c2", 8);
        let one = ctx.constant(1, 8);
        let zero = ctx.constant(0, 8);
        let n1 = ctx.add(c1, one);
        let n2 = ctx.add(c2, one);
        let mut ts = TransitionSystem::new("t");
        ts.add_state(c1, Some(zero), n1);
        ts.add_state(c2, Some(one), n2);
        let prop = ctx.eq(c1, c2);
        let mut roots = vec![prop];
        merge(&mut ctx, &mut ts, &mut roots);
        assert_eq!(ts.states().len(), 2, "offset counters must not merge");
    }
}
