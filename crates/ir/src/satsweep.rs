//! SAT-sweeping: simulation-guided equivalence merging (fraiging).
//!
//! The classic synthesis technique for collapsing cones that are
//! *structurally* different but *functionally* equivalent — redundancy
//! that local rewriting cannot see because no finite pattern set matches
//! "these two DAGs compute the same function". The pass runs in three
//! stages:
//!
//! 1. **Signatures.** The [`Simulator`] is driven
//!    with deterministically seeded random input *and* state vectors
//!    ([`Simulator::randomize_inputs`](crate::eval::Simulator::randomize_inputs)
//!    / `randomize_states`), each vector retried until the environment
//!    constraints hold (infeasible stimulus must not split classes that
//!    are equivalent on every *legal* input). Every combinational node
//!    reachable from a non-constraint position is valued on every vector;
//!    nodes whose signatures agree — or agree bitwise-complemented — land
//!    in one candidate equivalence class.
//! 2. **Bounded SAT miters.** For each candidate pair `(rep, m)` a miter
//!    over the shared cone is blasted into one long-lived sweep
//!    [`Solver`](genfv_sat::Solver) (through the same
//!    [`BitBlaster`]/Tseitin machinery the engines use), activated with a
//!    fresh selector from [`ActivationGroup`] and queried under a
//!    per-pair conflict budget, so a pair that blows up costs a bounded
//!    amount of work and is simply skipped
//!    ([`SolveResult::Unknown`](genfv_sat::SolveResult)). The
//!    environment constraints are asserted permanently in the sweep
//!    solver, so equivalence is only required on constraint-satisfying
//!    assignments.
//! 3. **CEX refinement / merging.** A SAT answer yields a model that is a
//!    *new* simulation vector: it is fed back into the signature matrix
//!    (splitting, at minimum, the refuted pair) and remembered across
//!    rounds, so near-miss pairs are separated by simulation instead of
//!    repeated SAT calls. An UNSAT answer proves the pair equivalent and
//!    `m` is rewritten to `rep` (wrapped in a NOT for complemented
//!    equivalence — free in CNF, where negation is literal polarity);
//!    the downstream arena sweep reclaims the dead cone.
//!
//! A final **register-correspondence** stage lifts the same idea to the
//! sequential level (van Eijk-style, restricted to singleton induction):
//! two registers with structurally equal initial values whose next-state
//! functions coincide *under the hypothesis that the registers are equal*
//! (checked structurally after substitution, else by a budgeted miter)
//! are merged into one. This is what collapses the paper's Listing-1
//! shape — two counters stepping in lockstep — down to a single register,
//! after which `eq(c, c)` folds to constant true and the induction step
//! is structural.
//!
//! ## Soundness
//!
//! *Combinational merges* are per-frame semantic equivalences on every
//! assignment satisfying the constraints; since every engine in the stack
//! asserts the constraints at every frame, verdicts and counterexample
//! waveforms are unchanged. Because the proofs are *conditional on the
//! constraints*, merges are *never applied inside the constraint
//! expressions themselves* — rewriting a constraint with a fact derived
//! from that constraint would be self-justifying (e.g. under `a < 10` the
//! node `a < 10` is "equivalent" to `true`, but folding it away would
//! erase the constraint). Constraint positions keep their original
//! expressions; only lost sharing is at stake.
//!
//! *Register merges* preserve the constrained trace set exactly: equal
//! inits give `r₀ = s₀`, and the step proof gives `rₖ = sₖ → rₖ₊₁ =
//! sₖ₊₁` on constraint-satisfying frames, so every constrained trace of
//! the original system has `r = s` everywhere and maps 1:1 onto a trace
//! of the merged system (BMC verdicts and counterexample cycles are
//! bit-identical). Unreachable-state explorations (induction steps) gain
//! the hypothesis `r = s`, which — like stuck-at folding — can only
//! *strengthen* induction: the merged netlist may close a proof the
//! original stalled on, never the reverse.
//!
//! Representatives are always the minimum-index class member (or a
//! constant), and the expression arena is append-only, so a
//! representative's cone can never contain the node it replaces — merge
//! chains strictly decrease arena indices and rewriting terminates.

use crate::bitblast::{BitBlaster, LitEnv};
use crate::eval::{evaluate, evaluate_all, splitmix64, Env, Simulator};
use crate::expr::{Context, Expr, ExprRef, UnaryOp};
use crate::opt::rebuild_node;
use crate::ts::TransitionSystem;
use crate::value::BitVecValue;
use genfv_obs::{Counter, Obs};
use genfv_sat::{ActivationGroup, SolveResult};
use std::collections::{HashMap, HashSet};

/// Tuning knobs for [`SatSweepPass`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SatSweepConfig {
    /// Random stimulus vectors per signature round (before CEX
    /// refinement adds more).
    pub vectors: usize,
    /// Seed for the deterministic stimulus stream.
    pub seed: u64,
    /// Upper bound on SAT equivalence queries per pass invocation.
    pub max_pairs: usize,
    /// Conflict budget per equivalence query; exhausted queries return
    /// `Unknown` and the pair is skipped, keeping sweeping bounded.
    pub conflict_budget: u64,
    /// Whether to run the sequential register-correspondence stage.
    pub merge_registers: bool,
}

impl Default for SatSweepConfig {
    fn default() -> Self {
        SatSweepConfig {
            vectors: 24,
            seed: 0x5eed_5a77_57ee_9000,
            max_pairs: 256,
            conflict_budget: 2_000,
            merge_registers: true,
        }
    }
}

/// What one [`SatSweepPass`] did, accumulated across fixpoint rounds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SatSweepStats {
    /// Candidate pairs proved equivalent (UNSAT miters plus structural
    /// register correspondences).
    pub pairs_proved: u64,
    /// Candidate pairs refuted by a SAT miter (each one contributes a
    /// refinement vector).
    pub pairs_refuted: u64,
    /// Nodes rewritten to a class representative (including merged
    /// registers).
    pub nodes_merged: u64,
    /// Solver conflicts spent across all sweep queries.
    pub sweep_conflicts: u64,
}

/// The outcome of one bounded miter query.
enum PairOutcome {
    Proved,
    Refuted(Env),
    Unknown,
}

/// One candidate miter: does `a` equal `b` (or `¬b` when `negated`)?
#[derive(Clone, Copy)]
struct Miter {
    a: ExprRef,
    b: ExprRef,
    negated: bool,
}

/// One long-lived sweep solver: constraints asserted once, each miter
/// guarded by a retirable activation selector.
struct SweepSolver {
    bb: BitBlaster,
    lenv: LitEnv,
    group: ActivationGroup,
}

impl SweepSolver {
    fn new(ctx: &Context, ts: &TransitionSystem) -> Self {
        let mut bb = BitBlaster::new();
        let mut lenv = LitEnv::new();
        for &c in ts.constraints() {
            let lits = bb.blast(ctx, &mut lenv, c);
            bb.assert_lit(lits[0]);
        }
        SweepSolver { bb, lenv, group: ActivationGroup::new() }
    }

    /// Queries the miter under the asserted constraints, spending at
    /// most `budget` conflicts. A `Refuted` outcome carries the full
    /// model as a simulation environment (symbols the solver never saw
    /// default to zero — they cannot influence either cone or the
    /// constraints).
    fn prove_pair(
        &mut self,
        ctx: &Context,
        ts: &TransitionSystem,
        miter: Miter,
        budget: u64,
        conflicts: &mut u64,
    ) -> PairOutcome {
        let al = self.bb.blast(ctx, &mut self.lenv, miter.a);
        let bl = self.bb.blast(ctx, &mut self.lenv, miter.b);
        debug_assert_eq!(al.len(), bl.len(), "miter width mismatch");
        let mut diff = self.bb.false_lit();
        for (&x, &y) in al.iter().zip(&bl) {
            let y = if miter.negated { !y } else { y };
            let bit = self.bb.builder_mut().xor(x, y);
            diff = self.bb.builder_mut().or(diff, bit);
        }
        let sel = self.group.fresh(self.bb.solver_mut());
        self.group.imply(self.bb.solver_mut(), sel, diff);
        self.bb.solver_mut().set_conflict_budget(budget);
        let res = self.bb.solve_with_assumptions(&[sel]);
        *conflicts += self.bb.solver().stats().last_conflicts;
        let out = match res {
            SolveResult::Unsat => PairOutcome::Proved,
            SolveResult::Sat => {
                let mut env = Env::new();
                for sym in ts.all_symbols() {
                    let v = match self.lenv.lookup(sym) {
                        Some(lits) => self.bb.read_model_value(lits),
                        None => BitVecValue::zero(ctx.width_of(sym)),
                    };
                    env.insert(sym, v);
                }
                PairOutcome::Refuted(env)
            }
            SolveResult::Unknown => PairOutcome::Unknown,
        };
        self.group.retire(self.bb.solver_mut(), sel);
        out
    }
}

/// Simulation-guided SAT equivalence merging (see module docs). Not to be
/// confused with the arena-compaction `sweep` pass, which only collects
/// garbage — this pass *creates* the garbage for it to collect.
pub struct SatSweepPass {
    config: SatSweepConfig,
    stats: SatSweepStats,
    /// CEX stimulus learned from refuted miters, keyed by symbol *name*
    /// so the vectors survive the arena rebuilds between fixpoint rounds.
    learned: Vec<HashMap<String, BitVecValue>>,
}

/// Cap on remembered CEX vectors (oldest dropped first).
const MAX_LEARNED: usize = 64;

impl SatSweepPass {
    /// A pass with default tuning.
    pub fn new() -> Self {
        Self::with_config(SatSweepConfig::default())
    }

    /// A pass with explicit tuning.
    pub fn with_config(config: SatSweepConfig) -> Self {
        SatSweepPass { config, stats: SatSweepStats::default(), learned: Vec::new() }
    }

    /// Cumulative counters across every invocation of this pass value.
    pub fn stats(&self) -> &SatSweepStats {
        &self.stats
    }

    /// Runs the combinational sweep, then register correspondence when
    /// configured, recording the queries issued and nodes merged on
    /// `obs`. Returns the number of nodes merged.
    pub fn run(
        &mut self,
        ctx: &mut Context,
        ts: &mut TransitionSystem,
        roots: &mut [ExprRef],
        obs: &Obs,
    ) -> u64 {
        let mut queries = 0usize;
        let mut fired = self.sweep_combinational(ctx, ts, roots, &mut queries);
        if self.config.merge_registers {
            fired += self.merge_registers(ctx, ts, roots, &mut queries);
        }
        obs.add(Counter::SweepPairs, queries as u64);
        obs.add(Counter::SweepMerges, fired);
        fired
    }

    // --- stage 1: signatures -------------------------------------------------

    /// Collects every non-symbol node reachable from a *non-constraint*
    /// position, in ascending arena order (children before parents).
    fn candidates(ctx: &Context, ts: &TransitionSystem, roots: &[ExprRef]) -> Vec<ExprRef> {
        let mut tops: Vec<ExprRef> = Vec::new();
        for s in ts.states() {
            if let Some(init) = s.init {
                tops.push(init);
            }
            tops.push(s.next);
        }
        tops.extend(ts.signals().iter().map(|(_, e)| *e));
        tops.extend_from_slice(roots);
        let mut seen: HashSet<ExprRef> = HashSet::new();
        let mut stack = tops;
        let mut out: Vec<ExprRef> = Vec::new();
        while let Some(e) = stack.pop() {
            if !seen.insert(e) {
                continue;
            }
            match *ctx.expr(e) {
                Expr::Symbol { .. } => continue,
                Expr::Const(_) => {}
                Expr::Unary(_, a) => stack.push(a),
                Expr::Binary(_, a, b) => stack.extend([a, b]),
                Expr::Ite { cond, tru, fls } => stack.extend([cond, tru, fls]),
                Expr::Extract { value, .. } => stack.push(value),
            }
            out.push(e);
        }
        out.sort_unstable();
        out
    }

    /// Deterministic constraint-satisfying stimulus: fresh random vectors
    /// plus the replayable CEX vectors learned in earlier rounds.
    fn stimulus(&self, ctx: &Context, ts: &TransitionSystem) -> Vec<Env> {
        let mut envs: Vec<Env> = Vec::new();
        let mut stream = self.config.seed;
        for _ in 0..self.config.vectors {
            for _attempt in 0..8 {
                let mut sim = Simulator::new(ctx, ts);
                sim.randomize_inputs(splitmix64(&mut stream));
                sim.randomize_states(splitmix64(&mut stream));
                if sim.constraints_hold() {
                    envs.push(sim.env().clone());
                    break;
                }
            }
        }
        for cex in &self.learned {
            let mut env = Env::new();
            for sym in ts.all_symbols() {
                let w = ctx.width_of(sym);
                let v = ctx
                    .symbol_name(sym)
                    .and_then(|n| cex.get(n))
                    .filter(|v| v.width() == w)
                    .cloned()
                    .unwrap_or_else(|| BitVecValue::zero(w));
                env.insert(sym, v);
            }
            if ts.constraints().iter().all(|&c| evaluate(ctx, &env, c).to_bool()) {
                envs.push(env);
            }
        }
        envs
    }

    /// Remembers a CEX model for later rounds (name-keyed: `ExprRef`s do
    /// not survive the arena-compaction sweep).
    fn remember(&mut self, ctx: &Context, env: &Env) {
        let named: HashMap<String, BitVecValue> = env
            .iter()
            .filter_map(|(&sym, v)| ctx.symbol_name(sym).map(|n| (n.to_string(), v.clone())))
            .collect();
        if self.learned.len() >= MAX_LEARNED {
            self.learned.remove(0);
        }
        self.learned.push(named);
    }

    /// Partitions candidates into classes of equal-or-complement
    /// signatures. Each entry is `(node, phase)` where `phase` is true if
    /// the node's signature is the bitwise complement of the class key's.
    fn classes(candidates: &[ExprRef], matrix: &[Vec<BitVecValue>]) -> Vec<Vec<(ExprRef, bool)>> {
        let mut by_sig: HashMap<Vec<BitVecValue>, usize> = HashMap::new();
        let mut classes: Vec<Vec<(ExprRef, bool)>> = Vec::new();
        for (i, &e) in candidates.iter().enumerate() {
            let sig = matrix[i].clone();
            if let Some(&c) = by_sig.get(&sig) {
                classes[c].push((e, false));
                continue;
            }
            let comp: Vec<BitVecValue> = sig.iter().map(|v| v.not()).collect();
            if let Some(&c) = by_sig.get(&comp) {
                classes[c].push((e, true));
                continue;
            }
            by_sig.insert(sig, classes.len());
            classes.push(vec![(e, false)]);
        }
        classes
    }

    // --- stage 2+3: miters, refinement, merging ------------------------------

    /// The combinational sweep: signatures → budgeted miters → CEX
    /// refinement → merge map, applied everywhere except constraint
    /// positions. Returns the number of nodes rewritten.
    fn sweep_combinational(
        &mut self,
        ctx: &mut Context,
        ts: &mut TransitionSystem,
        roots: &mut [ExprRef],
        queries: &mut usize,
    ) -> u64 {
        let candidates = Self::candidates(ctx, ts, roots);
        if candidates.len() < 2 {
            return 0;
        }
        let stimulus = self.stimulus(ctx, ts);
        if stimulus.is_empty() {
            return 0;
        }
        let mut matrix: Vec<Vec<BitVecValue>> = vec![Vec::new(); candidates.len()];
        for env in &stimulus {
            for (i, v) in evaluate_all(ctx, env, &candidates).into_iter().enumerate() {
                matrix[i].push(v);
            }
        }
        let mut solver = SweepSolver::new(ctx, ts);
        let mut merge: HashMap<ExprRef, (ExprRef, bool)> = HashMap::new();
        let mut unknown: HashSet<(ExprRef, ExprRef)> = HashSet::new();
        'refine: loop {
            let classes = Self::classes(&candidates, &matrix);
            for class in classes {
                let mut members: Vec<(ExprRef, bool)> = class;
                members.retain(|(e, _)| !merge.contains_key(e));
                if members.len() < 2 {
                    continue;
                }
                // Prefer a constant representative; otherwise the
                // minimum-index member (first — candidates are sorted, so
                // class members arrive in ascending arena order).
                let rep_at =
                    members.iter().position(|&(e, _)| ctx.const_value(e).is_some()).unwrap_or(0);
                let (rep, rep_phase) = members[rep_at];
                for &(m, phase) in members.iter().filter(|&&(m, _)| m != rep) {
                    if ctx.const_value(m).is_some() {
                        continue; // two constants: distinct by definition
                    }
                    let negated = phase != rep_phase;
                    // A member that already *is* the representative's
                    // structural complement would merge to itself (the
                    // NOT wrapper re-interns to the same node): skip it
                    // rather than spend a query on an identity rewrite.
                    let trivial = negated
                        && (matches!(*ctx.expr(m), Expr::Unary(UnaryOp::Not, x) if x == rep)
                            || matches!(*ctx.expr(rep), Expr::Unary(UnaryOp::Not, x) if x == m));
                    if trivial || unknown.contains(&(rep, m)) {
                        continue;
                    }
                    if *queries >= self.config.max_pairs {
                        break 'refine;
                    }
                    *queries += 1;
                    match solver.prove_pair(
                        ctx,
                        ts,
                        Miter { a: rep, b: m, negated },
                        self.config.conflict_budget,
                        &mut self.stats.sweep_conflicts,
                    ) {
                        PairOutcome::Proved => {
                            self.stats.pairs_proved += 1;
                            merge.insert(m, (rep, negated));
                        }
                        PairOutcome::Refuted(env) => {
                            self.stats.pairs_refuted += 1;
                            for (i, v) in
                                evaluate_all(ctx, &env, &candidates).into_iter().enumerate()
                            {
                                matrix[i].push(v);
                            }
                            self.remember(ctx, &env);
                            continue 'refine;
                        }
                        PairOutcome::Unknown => {
                            unknown.insert((rep, m));
                        }
                    }
                }
            }
            break;
        }
        self.apply_merges(ctx, ts, roots, &merge)
    }

    /// Rewrites every non-constraint position through the merge map.
    fn apply_merges(
        &mut self,
        ctx: &mut Context,
        ts: &mut TransitionSystem,
        roots: &mut [ExprRef],
        merge: &HashMap<ExprRef, (ExprRef, bool)>,
    ) -> u64 {
        if merge.is_empty() {
            return 0;
        }
        let keep: HashSet<ExprRef> = ts.constraints().iter().copied().collect();
        let mut memo: HashMap<ExprRef, ExprRef> = HashMap::new();
        let mut fired = 0u64;
        ts.map_exprs(|e| {
            if keep.contains(&e) {
                e
            } else {
                rewrite_merged(ctx, e, merge, &mut memo, &mut fired)
            }
        });
        for r in roots.iter_mut() {
            *r = rewrite_merged(ctx, *r, merge, &mut memo, &mut fired);
        }
        self.stats.nodes_merged += fired;
        fired
    }

    // --- stage 4: register correspondence ------------------------------------

    /// From-reset sequential signatures for every register: a few short
    /// constraint-aware random runs, concatenated. Registers whose traces
    /// differ can never be correspondence-merged and are filtered before
    /// any solver work.
    fn sequential_traces(
        &self,
        ctx: &Context,
        ts: &TransitionSystem,
    ) -> HashMap<ExprRef, Vec<BitVecValue>> {
        let mut traces: HashMap<ExprRef, Vec<BitVecValue>> = HashMap::new();
        let mut stream = self.config.seed ^ 0xc2b2_ae3d_27d4_eb4f;
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
                for s in ts.states() {
                    traces.entry(s.symbol).or_default().push(sim.get(s.symbol).clone());
                }
                sim.step();
            }
        }
        traces
    }

    /// Merges register pairs with structurally equal inits whose next
    /// functions coincide under the hypothesis that the registers are
    /// equal — structurally after substitution when possible, else by a
    /// budgeted miter. Returns the number of registers merged.
    fn merge_registers(
        &mut self,
        ctx: &mut Context,
        ts: &mut TransitionSystem,
        roots: &mut [ExprRef],
        queries: &mut usize,
    ) -> u64 {
        if ts.states().len() < 2 {
            return 0;
        }
        let traces = self.sequential_traces(ctx, ts);
        let mut merged = 0u64;
        'restart: loop {
            let states = ts.states().to_vec();
            for i in 0..states.len() {
                for j in (i + 1)..states.len() {
                    let (r, s) = (&states[i], &states[j]);
                    if ctx.width_of(r.symbol) != ctx.width_of(s.symbol) {
                        continue;
                    }
                    let (Some(ri), Some(si)) = (r.init, s.init) else { continue };
                    if ri != si || traces.get(&r.symbol) != traces.get(&s.symbol) {
                        continue;
                    }
                    let sub = HashMap::from([(s.symbol, r.symbol)]);
                    let nr = ctx.substitute(r.next, &sub);
                    let ns = ctx.substitute(s.next, &sub);
                    let proved = if nr == ns {
                        true
                    } else if *queries < self.config.max_pairs {
                        *queries += 1;
                        let mut solver = SweepSolver::new(ctx, ts);
                        matches!(
                            solver.prove_pair(
                                ctx,
                                ts,
                                Miter { a: nr, b: ns, negated: false },
                                self.config.conflict_budget,
                                &mut self.stats.sweep_conflicts,
                            ),
                            PairOutcome::Proved
                        )
                    } else {
                        false
                    };
                    if !proved {
                        if nr != ns {
                            self.stats.pairs_refuted += 1;
                        }
                        continue;
                    }
                    self.stats.pairs_proved += 1;
                    self.stats.nodes_merged += 1;
                    ts.map_exprs(|e| ctx.substitute(e, &sub));
                    for root in roots.iter_mut() {
                        *root = ctx.substitute(*root, &sub);
                    }
                    let gone = s.symbol;
                    ts.retain_states(|sym| sym != gone);
                    merged += 1;
                    continue 'restart;
                }
            }
            break;
        }
        merged
    }
}

impl Default for SatSweepPass {
    fn default() -> Self {
        Self::new()
    }
}

/// Memoized top-down/bottom-up rewrite through `merge`: merged nodes jump
/// to their (recursively resolved) representative, everything else is
/// rebuilt over rewritten children. `fired` counts distinct merged nodes
/// actually hit.
fn rewrite_merged(
    ctx: &mut Context,
    e: ExprRef,
    merge: &HashMap<ExprRef, (ExprRef, bool)>,
    memo: &mut HashMap<ExprRef, ExprRef>,
    fired: &mut u64,
) -> ExprRef {
    if let Some(&r) = memo.get(&e) {
        return r;
    }
    let out = if let Some(&(rep, negated)) = merge.get(&e) {
        *fired += 1;
        let r = rewrite_merged(ctx, rep, merge, memo, fired);
        if negated {
            ctx.not(r)
        } else {
            r
        }
    } else {
        match ctx.expr(e).clone() {
            Expr::Const(_) | Expr::Symbol { .. } => e,
            node => rebuild_node(ctx, &node, |ctx, c| rewrite_merged(ctx, c, merge, memo, fired)),
        }
    };
    memo.insert(e, out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;

    fn sweep(
        ctx: &mut Context,
        ts: &mut TransitionSystem,
        roots: &mut [ExprRef],
        config: SatSweepConfig,
    ) -> SatSweepStats {
        let mut pass = SatSweepPass::with_config(config);
        pass.run(ctx, ts, roots, &Obs::off());
        *pass.stats()
    }

    #[test]
    fn merges_structurally_different_equivalent_cones() {
        // xor(a,b) vs (a|b) & !(a&b): same function, no shared structure.
        let mut ctx = Context::new();
        let a = ctx.symbol("a", 1);
        let b = ctx.symbol("b", 1);
        let x1 = ctx.xor(a, b);
        let o = ctx.or(a, b);
        let an = ctx.and(a, b);
        let nan = ctx.not(an);
        let x2 = ctx.and(o, nan);
        assert_ne!(x1, x2, "hash-consing must not already unify the cones");
        let mut ts = TransitionSystem::new("t");
        ts.add_input(a);
        ts.add_input(b);
        ts.add_signal("x1", x1);
        ts.add_signal("x2", x2);
        let mut roots = vec![];
        let stats = sweep(&mut ctx, &mut ts, &mut roots, SatSweepConfig::default());
        assert!(stats.pairs_proved >= 1, "equivalence must be proved: {stats:?}");
        assert!(stats.nodes_merged >= 1);
        let (s1, s2) = (ts.signals()[0].1, ts.signals()[1].1);
        assert_eq!(s1, s2, "both signals rewritten to one representative");
    }

    #[test]
    fn merges_complemented_equivalence_with_not_wrapper() {
        // !(a&b) vs (!a | !b): complements of the same AND cone are merged
        // up to a NOT wrapper (De Morgan, invisible to local rewriting).
        let mut ctx = Context::new();
        let a = ctx.symbol("a", 1);
        let b = ctx.symbol("b", 1);
        let an = ctx.and(a, b);
        let na = ctx.not(a);
        let nb = ctx.not(b);
        let dm = ctx.or(na, nb);
        let mut ts = TransitionSystem::new("t");
        ts.add_input(a);
        ts.add_input(b);
        ts.add_signal("and", an);
        ts.add_signal("de_morgan", dm);
        let mut roots = vec![];
        let stats = sweep(&mut ctx, &mut ts, &mut roots, SatSweepConfig::default());
        assert!(stats.pairs_proved >= 1, "{stats:?}");
        let (s1, s2) = (ts.signals()[0].1, ts.signals()[1].1);
        // de_morgan must now be exactly not(and).
        assert_eq!(s2, ctx.not(s1), "complement merge wraps the representative in a NOT");
        // Semantics preserved on all four input combinations.
        for va in 0..2u64 {
            for vb in 0..2u64 {
                let mut env = Env::new();
                env.insert(a, BitVecValue::from_u64(va, 1));
                env.insert(b, BitVecValue::from_u64(vb, 1));
                assert_eq!(
                    evaluate(&ctx, &env, s2).to_bool(),
                    !(va == 1 && vb == 1),
                    "a={va} b={vb}"
                );
            }
        }
    }

    #[test]
    fn constraint_conditioned_merge_leaves_constraints_untouched() {
        // Under the constraint a < 8 (top bit clear), bit 3 of `a` is
        // constant false — but the constraint expression itself must keep
        // its original cone, or the merge would justify itself.
        let mut ctx = Context::new();
        let a = ctx.symbol("a", 4);
        let eight = ctx.constant(8, 4);
        let lt = ctx.ult(a, eight);
        let top_bit = ctx.extract(a, 3, 3);
        let fals = ctx.constant(0, 1);
        let mut ts = TransitionSystem::new("t");
        ts.add_input(a);
        ts.add_constraint(lt);
        ts.add_signal("top", top_bit);
        ts.add_signal("zero", fals);
        let mut roots = vec![];
        let stats = sweep(&mut ctx, &mut ts, &mut roots, SatSweepConfig::default());
        assert!(stats.pairs_proved >= 1, "top bit provably 0 under a<8: {stats:?}");
        assert_eq!(ts.signals()[0].1, fals, "signal cone merged to the constant");
        assert_eq!(ts.constraints(), &[lt], "constraint expression unchanged");
        // Without the constraint the same pair must be refuted, not proved.
        let mut ctx2 = Context::new();
        let a2 = ctx2.symbol("a", 4);
        let top2 = ctx2.extract(a2, 3, 3);
        let fals2 = ctx2.constant(0, 1);
        let mut ts2 = TransitionSystem::new("t2");
        ts2.add_input(a2);
        ts2.add_signal("top", top2);
        ts2.add_signal("zero", fals2);
        let mut roots2 = vec![];
        let stats2 = sweep(&mut ctx2, &mut ts2, &mut roots2, SatSweepConfig::default());
        assert_eq!(stats2.nodes_merged, 0, "unconstrained top bit is not constant: {stats2:?}");
        assert_eq!(ts2.signals()[0].1, top2);
    }

    #[test]
    fn conflict_budget_skips_hard_pairs_without_merging() {
        // A multiplier distributivity miter is far too hard for a
        // one-conflict budget: the pass must give up on the pair (Unknown),
        // not merge it and not hang.
        let mut ctx = Context::new();
        let a = ctx.symbol("a", 4);
        let b = ctx.symbol("b", 4);
        let c = ctx.symbol("c", 4);
        let sum = ctx.add(b, c);
        let lhs = ctx.mul(a, sum);
        let ab = ctx.mul(a, b);
        let ac = ctx.mul(a, c);
        let rhs = ctx.add(ab, ac);
        assert_ne!(lhs, rhs, "distributed forms must be structurally distinct");
        let mut ts = TransitionSystem::new("t");
        ts.add_input(a);
        ts.add_input(b);
        ts.add_input(c);
        ts.add_signal("lhs", lhs);
        ts.add_signal("rhs", rhs);
        let mut roots = vec![];
        let config = SatSweepConfig { conflict_budget: 1, ..SatSweepConfig::default() };
        let stats = sweep(&mut ctx, &mut ts, &mut roots, config);
        assert_eq!(stats.nodes_merged, 0, "{stats:?}");
        assert_ne!(ts.signals()[0].1, ts.signals()[1].1, "hard pair left unmerged");
        // A generous budget proves the same pair.
        let mut roots = vec![];
        let stats = sweep(&mut ctx, &mut ts, &mut roots, SatSweepConfig::default());
        assert!(stats.pairs_proved >= 1, "{stats:?}");
        assert_eq!(ts.signals()[0].1, ts.signals()[1].1, "merged once the budget allows it");
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
        let stats = sweep(&mut ctx, &mut ts, &mut roots, SatSweepConfig::default());
        assert!(stats.nodes_merged >= 1, "{stats:?}");
        assert_eq!(ts.states().len(), 1, "registers merged");
        assert_eq!(ctx.const_value(roots[0]).map(|v| v.to_bool()), Some(true));
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
        sweep(&mut ctx, &mut ts, &mut roots, SatSweepConfig::default());
        assert_eq!(ts.states().len(), 2, "offset counters must not merge");
    }

    #[test]
    fn cex_refinement_learns_vectors() {
        // ult and ule agree on most random vectors of a narrow width but
        // differ exactly on a == b: the sweep must discover the refuting
        // model via SAT and not merge.
        let mut ctx = Context::new();
        let a = ctx.symbol("a", 6);
        let b = ctx.symbol("b", 6);
        let lt = ctx.ult(a, b);
        let le = ctx.ule(a, b);
        let mut ts = TransitionSystem::new("t");
        ts.add_input(a);
        ts.add_input(b);
        ts.add_signal("lt", lt);
        ts.add_signal("le", le);
        let mut roots = vec![];
        let mut pass = SatSweepPass::new();
        pass.run(&mut ctx, &mut ts, &mut roots, &Obs::off());
        assert_ne!(ts.signals()[0].1, ts.signals()[1].1, "lt and le must stay distinct");
        // Whether SAT was needed depends on whether random stimulus hit
        // a == b; when it was, the CEX must have been remembered.
        if pass.stats().pairs_refuted > 0 {
            assert!(!pass.learned.is_empty(), "refuted pairs feed the learned-vector pool");
        }
    }
}
