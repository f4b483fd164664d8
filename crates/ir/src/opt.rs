//! Netlist optimization pipeline: rewrite, sweep, rebalance, and
//! cone-reduce a transition system before any blaster sees it.
//!
//! Every engine in the stack — rebuild-per-query, incremental sessions,
//! portfolio races, template stamping — pays per *frame* for whatever CNF
//! the bit-blasters emit, so shrinking the `(Context, TransitionSystem)`
//! pair once, ahead of encoding, speeds every frame of every engine at
//! once. [`optimize`] calls the stages below as plain functions, in this
//! order, and repeats the round until no stage fires (at most four
//! rounds). Each stage runs under its own `opt.<stage>` span and adds its
//! count to a typed [`OptStats`] field:
//!
//! 1. **`rewrite`** — pattern-driven local rewriting: identity /
//!    annihilator folding and constant propagation (via re-interning every
//!    expression through the folding smart constructors), mux collapsing,
//!    and distributivity factoring `a*b + a*c → a*(b+c)` /
//!    `a*b + b → (a+1)*b` (sound in `Z/2^n`: truncating multiplication
//!    distributes over modular addition), which lets hash-consing collapse
//!    multiplier cones that are syntactically different but algebraically
//!    shared — the dominant CNF cost on datapath designs.
//! 2. **`stuck`** — stuck-at-constant register elimination: a state whose
//!    init is a constant `c` and whose next function folds to `c` under
//!    `state := c` can never change; it is substituted away and dropped
//!    (iterated, so constant cascades collapse).
//! 3. **`rebalance`** — associative chains (`add`/`mul`/`and`/`or`/`xor`)
//!    that elaborate as deep linear combs are rebuilt as balanced trees,
//!    cutting cone depth from `O(n)` to `O(log n)`.
//! 4. **`coi`** — cone-of-influence reduction: states not in the support
//!    closure of the proof targets, the environment constraints, *or* the
//!    published signals are dropped. Constraints are never dropped (an
//!    unsatisfiable constraint cluster disjoint from the target cone makes
//!    every property vacuously true — removing it would be unsound) and
//!    signals anchor the cone so counterexample waveforms and Flow-2
//!    prompts render identically before and after optimization.
//! 5. **`regcorr`** — register correspondence: two registers with equal
//!    inits whose next functions coincide once one is substituted for the
//!    other step in lockstep, and are merged into one. Cheapest check
//!    first: width and init, then a structural comparison, and only for a
//!    pair that is not structurally equal, simulation traces and a
//!    budgeted SAT miter (`regcorr.rs`). This is what closes the paper's
//!    Listing-1 counters at k=1. It runs right before `sweep`, so the
//!    cones a merge orphans are reclaimed in the same round.
//! 6. **`sweep`** — dead-node elimination: the reachable structure is
//!    rebuilt into a fresh arena, compacting away elaboration garbage and
//!    everything the other stages orphaned; constraints that folded to
//!    constant true are removed (constant-false ones are kept — they
//!    constrain the system into vacuity and must keep doing so). It
//!    proves and merges nothing.
//!
//! All rewrites are verdict-preserving equivalences except `stuck` and
//! `regcorr`, which install proven invariants (`state == c`, `r == s`)
//! and can therefore only strengthen induction: a step counterexample in
//! which two lockstep registers disagree is unreachable, and it is gone.
//! `opt_differential.rs` checks over the corpus that a verdict only ever
//! moves from unproven to proven. Callers opt out entirely with
//! [`OptLevel::None`], the paper's plain k-induction.

use crate::expr::{BinaryOp, Context, Expr, ExprRef, UnaryOp};
use crate::regcorr;
use crate::ts::TransitionSystem;
use genfv_obs::Obs;
use std::collections::{HashMap, HashSet};

/// How aggressively to optimize a design during prepare.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum OptLevel {
    /// Run no stages at all; the system is encoded exactly as elaborated.
    /// This is the source paper's plain k-induction, where two lockstep
    /// counters fail the induction step until a helper lemma says they
    /// are equal, and the differential baseline.
    None,
    /// Every stage: rewrite, stuck-at, rebalance, cone of influence,
    /// register correspondence and the arena sweep. The default. Register
    /// correspondence merges lockstep registers, so the paper's Listing-1
    /// counters prove at k=1 without a lemma.
    #[default]
    Full,
    /// Runs exactly the `Full` stages; only [`OptStats::level`] and the
    /// [`salt`](OptLevel::salt) differ. Kept because `e0_ledger` names
    /// it; delete with the next benchmark change.
    SatSweep,
}

impl OptLevel {
    /// A level-specific salt mixed into the service's cache keys, so warm
    /// capital built from an optimized system is never served to a
    /// differently-optimized copy of the same source design. `None` salts
    /// to 0.
    pub fn salt(self) -> u64 {
        match self {
            OptLevel::None => 0,
            OptLevel::Full => 0xd1b5_4a32_d192_ed03,
            OptLevel::SatSweep => 0x94d0_49bb_1331_11eb,
        }
    }
}

/// Configuration for [`optimize`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OptConfig {
    /// Pipeline aggressiveness.
    pub level: OptLevel,
}

impl OptConfig {
    /// Sets the pipeline level.
    pub fn with_level(mut self, level: OptLevel) -> Self {
        self.level = level;
        self
    }
}

/// Upper bound on fixpoint rounds (each round runs every stage once).
const MAX_ROUNDS: usize = 4;

/// What the pipeline did to one design.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OptStats {
    /// The level the pipeline ran at.
    pub level: OptLevel,
    /// Fixpoint rounds executed (0 when the level is `None`).
    pub rounds: usize,
    /// Arena nodes before optimization.
    pub nodes_before: usize,
    /// Arena nodes after the final sweep.
    pub nodes_after: usize,
    /// Pattern rewrites fired by the `rewrite` stage.
    pub rewrites: u64,
    /// Associative chains rebuilt by the `rebalance` stage.
    pub chains_rebalanced: u64,
    /// Stuck-at-constant registers substituted away.
    pub stuck_states: u64,
    /// States dropped by cone-of-influence reduction.
    pub coi_dropped_states: u64,
    /// Constraints that folded to constant true and were removed.
    pub constraints_dropped: u64,
    /// Register pairs the `regcorr` stage proved equal, structurally or by
    /// an UNSAT miter.
    pub pairs_proved: u64,
    /// Register pairs refuted by a satisfiable `regcorr` miter (a miter
    /// that exhausts its conflict budget counts as neither).
    pub pairs_refuted: u64,
    /// Registers the `regcorr` stage merged away.
    pub nodes_merged: u64,
    /// Solver conflicts spent inside `regcorr` miters.
    pub sweep_conflicts: u64,
}

impl OptStats {
    /// Nodes eliminated end to end (saturating; the pipeline never grows
    /// the reachable arena).
    pub fn nodes_removed(&self) -> usize {
        self.nodes_before.saturating_sub(self.nodes_after)
    }

    /// Total states dropped by any stage (stuck-at plus cone-of-influence).
    pub fn states_dropped(&self) -> u64 {
        self.stuck_states + self.coi_dropped_states
    }

    /// One-line human summary, used in reports and service logs. The
    /// `regcorr …` counters are appended only when register
    /// correspondence proved, refuted or merged something, so a `Full`
    /// summary carries them exactly on designs with lockstep registers.
    pub fn summary(&self) -> String {
        let mut line = format!(
            "opt[{:?}] rounds={} nodes {}→{} rewrites={} rebal={} stuck={} coi={}",
            self.level,
            self.rounds,
            self.nodes_before,
            self.nodes_after,
            self.rewrites,
            self.chains_rebalanced,
            self.stuck_states,
            self.coi_dropped_states
        );
        if self.pairs_proved + self.pairs_refuted + self.nodes_merged + self.sweep_conflicts > 0 {
            line.push_str(&format!(
                " regcorr proved={} refuted={} merged={} conflicts={}",
                self.pairs_proved, self.pairs_refuted, self.nodes_merged, self.sweep_conflicts
            ));
        }
        line
    }
}

/// Optimizes `(ctx, ts)` in place at the configured level. `roots` are the
/// compiled proof-obligation expressions (one per target); they are
/// rewritten in place so callers can re-anchor their properties afterwards.
///
/// The whole pipeline runs under an `opt` span and each stage call
/// records an `opt.<stage>` child (`opt.regcorr` included), so a trace
/// shows exactly where prepare time went. Rounds repeat until no stage
/// but the arena sweep fires:
/// rewrite probes intern speculative nodes even on rounds where no rule
/// lands, so the sweep (which runs last and leaves a compact arena)
/// always has *something* to collect — a round where only the sweep
/// fired is a fixpoint, not progress.
pub fn optimize(
    ctx: &mut Context,
    ts: &mut TransitionSystem,
    roots: &mut [ExprRef],
    config: &OptConfig,
    obs: &Obs,
) -> OptStats {
    let mut stats =
        OptStats { level: config.level, nodes_before: ctx.num_nodes(), ..OptStats::default() };
    if config.level == OptLevel::None {
        stats.nodes_after = stats.nodes_before;
        return stats;
    }
    let _span = obs.span("opt");
    let constraints_before = ts.constraints().len();
    for _ in 0..MAX_ROUNDS {
        let rewrites = stage(obs, "opt.rewrite", || rewrite(ctx, ts, roots));
        let stuck = stage(obs, "opt.stuck", || stuck_at(ctx, ts, roots));
        let rebalanced = stage(obs, "opt.rebalance", || rebalance(ctx, ts, roots));
        let dropped = stage(obs, "opt.coi", || coi(ctx, ts, roots));
        let merged = stage(obs, "opt.regcorr", || {
            regcorr::merge_registers(ctx, ts, roots, regcorr::CONFLICT_BUDGET, &mut stats, obs)
        });
        stage(obs, "opt.sweep", || sweep(ctx, ts, roots));
        stats.rewrites += rewrites;
        stats.stuck_states += stuck;
        stats.chains_rebalanced += rebalanced;
        stats.coi_dropped_states += dropped;
        stats.rounds += 1;
        if rewrites + stuck + rebalanced + dropped + merged == 0 {
            break;
        }
    }
    stats.nodes_after = ctx.num_nodes();
    stats.constraints_dropped = constraints_before.saturating_sub(ts.constraints().len()) as u64;
    stats
}

/// Runs one stage under its span.
fn stage<T>(obs: &Obs, span: &'static str, run: impl FnOnce() -> T) -> T {
    let _span = obs.span(span);
    run()
}

// --- shared machinery -------------------------------------------------------

/// Interns `node` into `ctx` through the folding smart constructors, with
/// each child mapped through `child` first, in operand order. `node` may
/// come from another arena (the arena sweep copies between two).
fn rebuild_node(
    ctx: &mut Context,
    node: &Expr,
    mut child: impl FnMut(&mut Context, ExprRef) -> ExprRef,
) -> ExprRef {
    match *node {
        Expr::Const(ref v) => ctx.value(v.clone()),
        Expr::Symbol { ref name, width } => ctx.symbol(name, width),
        Expr::Unary(op, a) => {
            let na = child(ctx, a);
            ctx.unary(op, na)
        }
        Expr::Binary(op, a, b) => {
            let na = child(ctx, a);
            let nb = child(ctx, b);
            ctx.binary(op, na, nb)
        }
        Expr::Ite { cond, tru, fls } => {
            let nc = child(ctx, cond);
            let nt = child(ctx, tru);
            let nf = child(ctx, fls);
            ctx.ite(nc, nt, nf)
        }
        Expr::Extract { value, hi, lo } => {
            let nv = child(ctx, value);
            ctx.extract(nv, hi, lo)
        }
    }
}

/// Counts parent edges for every node reachable from `tops` (tops count as
/// one edge each). Used to keep sharing-aware rewrites from duplicating
/// multi-use cones.
fn use_counts(ctx: &Context, tops: &[ExprRef]) -> HashMap<ExprRef, u32> {
    let mut uses: HashMap<ExprRef, u32> = HashMap::new();
    let mut seen: HashSet<ExprRef> = HashSet::new();
    let mut stack: Vec<ExprRef> = Vec::new();
    for &t in tops {
        *uses.entry(t).or_insert(0) += 1;
        stack.push(t);
    }
    while let Some(e) = stack.pop() {
        if !seen.insert(e) {
            continue;
        }
        let child = |c: ExprRef, uses: &mut HashMap<ExprRef, u32>, stack: &mut Vec<ExprRef>| {
            *uses.entry(c).or_insert(0) += 1;
            stack.push(c);
        };
        match *ctx.expr(e) {
            Expr::Const(_) | Expr::Symbol { .. } => {}
            Expr::Unary(_, a) => child(a, &mut uses, &mut stack),
            Expr::Binary(_, a, b) => {
                child(a, &mut uses, &mut stack);
                child(b, &mut uses, &mut stack);
            }
            Expr::Ite { cond, tru, fls } => {
                child(cond, &mut uses, &mut stack);
                child(tru, &mut uses, &mut stack);
                child(fls, &mut uses, &mut stack);
            }
            Expr::Extract { value, .. } => child(value, &mut uses, &mut stack),
        }
    }
    uses
}

/// Every expression position of the system plus the proof roots.
fn all_tops(ts: &TransitionSystem, roots: &[ExprRef]) -> Vec<ExprRef> {
    let mut tops: Vec<ExprRef> = Vec::new();
    for s in ts.states() {
        if let Some(init) = s.init {
            tops.push(init);
        }
        tops.push(s.next);
    }
    tops.extend_from_slice(ts.constraints());
    tops.extend(ts.signals().iter().map(|(_, e)| *e));
    tops.extend_from_slice(roots);
    tops
}

/// Memoized bottom-up rebuild of `e` through the folding smart
/// constructors, applying `rule` at each reconstructed node until it stops
/// firing there. Increments `fired` per rule application.
fn rebuild(
    ctx: &mut Context,
    e: ExprRef,
    memo: &mut HashMap<ExprRef, ExprRef>,
    rule: &mut dyn FnMut(&mut Context, ExprRef) -> Option<ExprRef>,
    fired: &mut u64,
) -> ExprRef {
    if let Some(&r) = memo.get(&e) {
        return r;
    }
    let mut cur = match ctx.expr(e).clone() {
        Expr::Const(_) | Expr::Symbol { .. } => e,
        node => rebuild_node(ctx, &node, |ctx, c| rebuild(ctx, c, memo, rule, fired)),
    };
    // Local fixpoint: a rewrite can expose another at the same position.
    for _ in 0..8 {
        match rule(ctx, cur) {
            Some(next) if next != cur => {
                *fired += 1;
                cur = next;
            }
            _ => break,
        }
    }
    memo.insert(e, cur);
    cur
}

// --- stage 1: pattern rewriting ---------------------------------------------

/// Pattern-driven local rewriting (see module docs). Returns the number of
/// rewrites fired.
fn rewrite(ctx: &mut Context, ts: &mut TransitionSystem, roots: &mut [ExprRef]) -> u64 {
    let tops = all_tops(ts, roots);
    let uses = use_counts(ctx, &tops);
    let mut memo: HashMap<ExprRef, ExprRef> = HashMap::new();
    let mut fired = 0u64;
    let mut rule = |ctx: &mut Context, e: ExprRef| rewrite_rule(ctx, e, &uses);
    ts.map_exprs(|e| rebuild(ctx, e, &mut memo, &mut rule, &mut fired));
    for r in roots.iter_mut() {
        *r = rebuild(ctx, *r, &mut memo, &mut rule, &mut fired);
    }
    fired
}

fn rewrite_rule(ctx: &mut Context, e: ExprRef, uses: &HashMap<ExprRef, u32>) -> Option<ExprRef> {
    match ctx.expr(e).clone() {
        Expr::Ite { cond, tru, fls } => {
            // ite(~c, t, f) → ite(c, f, t)
            if let Expr::Unary(UnaryOp::Not, c) = *ctx.expr(cond) {
                return Some(ctx.ite(c, fls, tru));
            }
            // Nested same-condition muxes collapse.
            if let Expr::Ite { cond: c2, tru: t2, .. } = *ctx.expr(tru) {
                if c2 == cond {
                    return Some(ctx.ite(cond, t2, fls));
                }
            }
            if let Expr::Ite { cond: c2, fls: f2, .. } = *ctx.expr(fls) {
                if c2 == cond {
                    return Some(ctx.ite(cond, tru, f2));
                }
            }
            // 1-bit muxes with constant arms are plain gates.
            if ctx.width_of(tru) == 1 {
                let tv = ctx.const_value(tru).map(|v| v.to_bool());
                let fv = ctx.const_value(fls).map(|v| v.to_bool());
                return match (tv, fv) {
                    (Some(true), Some(false)) => Some(cond),
                    (Some(false), Some(true)) => Some(ctx.not(cond)),
                    (Some(true), None) => Some(ctx.or(cond, fls)),
                    (Some(false), None) => {
                        let nc = ctx.not(cond);
                        Some(ctx.and(nc, fls))
                    }
                    (None, Some(false)) => Some(ctx.and(cond, tru)),
                    (None, Some(true)) => {
                        let nc = ctx.not(cond);
                        Some(ctx.or(nc, tru))
                    }
                    _ => None,
                };
            }
            None
        }
        Expr::Binary(BinaryOp::Add, p, q) => factor_add(ctx, p, q, uses),
        Expr::Binary(BinaryOp::And, p, q) => {
            // Absorption: a & (a | b) = a.
            if let Expr::Binary(BinaryOp::Or, x, y) = *ctx.expr(q) {
                if x == p || y == p {
                    return Some(p);
                }
            }
            if let Expr::Binary(BinaryOp::Or, x, y) = *ctx.expr(p) {
                if x == q || y == q {
                    return Some(q);
                }
            }
            None
        }
        Expr::Binary(BinaryOp::Or, p, q) => {
            // Absorption: a | (a & b) = a.
            if let Expr::Binary(BinaryOp::And, x, y) = *ctx.expr(q) {
                if x == p || y == p {
                    return Some(p);
                }
            }
            if let Expr::Binary(BinaryOp::And, x, y) = *ctx.expr(p) {
                if x == q || y == q {
                    return Some(q);
                }
            }
            None
        }
        _ => None,
    }
}

/// Distributivity factoring over `Z/2^n`: `a*b + a*c → a*(b+c)` and
/// `a*b + b → (a+1)*b`. Only fires when the multiplier cone is not
/// shared elsewhere (use count ≤ 1), so a multi-use product is never
/// duplicated into a second multiplier.
fn factor_add(
    ctx: &mut Context,
    p: ExprRef,
    q: ExprRef,
    uses: &HashMap<ExprRef, u32>,
) -> Option<ExprRef> {
    let single = |e: ExprRef| uses.get(&e).copied().unwrap_or(1) <= 1;
    let as_mul = |ctx: &Context, e: ExprRef| match *ctx.expr(e) {
        Expr::Binary(BinaryOp::Mul, a, b) => Some((a, b)),
        _ => None,
    };
    let mp = as_mul(ctx, p);
    let mq = as_mul(ctx, q);
    if let (Some((a, b)), Some((c, d))) = (mp, mq) {
        if single(p) && single(q) {
            let (common, x, y) = if a == c {
                (a, b, d)
            } else if a == d {
                (a, b, c)
            } else if b == c {
                (b, a, d)
            } else if b == d {
                (b, a, c)
            } else {
                return None;
            };
            let sum = ctx.add(x, y);
            return Some(ctx.mul(common, sum));
        }
        return None;
    }
    // Mixed form: mul(a, b) + t with t one of the factors.
    let (m, (a, b), t) = match (mp, mq) {
        (Some(f), None) => (p, f, q),
        (None, Some(f)) => (q, f, p),
        _ => return None,
    };
    if !single(m) {
        return None;
    }
    let w = ctx.width_of(t);
    if t == a {
        let one = ctx.constant(1, w);
        let sum = ctx.add(b, one);
        return Some(ctx.mul(a, sum));
    }
    if t == b {
        let one = ctx.constant(1, w);
        let sum = ctx.add(a, one);
        return Some(ctx.mul(b, sum));
    }
    None
}

// --- stage 2: stuck-at-constant registers -----------------------------------

/// Eliminates registers provably stuck at their constant reset value.
/// Returns the number of registers dropped.
fn stuck_at(ctx: &mut Context, ts: &mut TransitionSystem, roots: &mut [ExprRef]) -> u64 {
    let mut total = 0u64;
    loop {
        let mut stuck: HashMap<ExprRef, ExprRef> = HashMap::new();
        for s in ts.states() {
            if let Some(init) = s.init {
                if ctx.const_value(init).is_some() {
                    let m = HashMap::from([(s.symbol, init)]);
                    if ctx.substitute(s.next, &m) == init {
                        stuck.insert(s.symbol, init);
                    }
                }
            }
        }
        if stuck.is_empty() {
            return total;
        }
        total += stuck.len() as u64;
        ts.map_exprs(|e| ctx.substitute(e, &stuck));
        for r in roots.iter_mut() {
            *r = ctx.substitute(*r, &stuck);
        }
        ts.retain_states(|sym| !stuck.contains_key(&sym));
    }
}

// --- stage 3: associative chain rebalancing ---------------------------------

const ASSOC_OPS: [BinaryOp; 5] =
    [BinaryOp::Add, BinaryOp::Mul, BinaryOp::And, BinaryOp::Or, BinaryOp::Xor];

/// Rebuilds deep linear combs of associative operators as balanced trees.
/// Returns the number of chains rebuilt.
fn rebalance(ctx: &mut Context, ts: &mut TransitionSystem, roots: &mut [ExprRef]) -> u64 {
    let tops = all_tops(ts, roots);
    let uses = use_counts(ctx, &tops);
    let mut memo: HashMap<ExprRef, ExprRef> = HashMap::new();
    let mut fired = 0u64;
    ts.map_exprs(|e| rebalance_expr(ctx, e, &uses, &mut memo, &mut fired));
    for r in roots.iter_mut() {
        *r = rebalance_expr(ctx, *r, &uses, &mut memo, &mut fired);
    }
    fired
}

/// Collects the leaves of the maximal `op`-chain rooted at `e`. A chain
/// link must be a single-use application of the same operator — shared
/// nodes stay leaves so their cones keep being shared.
fn chain_leaves(
    ctx: &mut Context,
    e: ExprRef,
    op: BinaryOp,
    uses: &HashMap<ExprRef, u32>,
    memo: &mut HashMap<ExprRef, ExprRef>,
    fired: &mut u64,
    out: &mut Vec<ExprRef>,
) {
    let (a, b) = match *ctx.expr(e) {
        Expr::Binary(o, a, b) if o == op => (a, b),
        _ => unreachable!("chain_leaves called on a non-chain node"),
    };
    for x in [a, b] {
        let link = matches!(*ctx.expr(x), Expr::Binary(o, ..) if o == op)
            && uses.get(&x).copied().unwrap_or(0) <= 1;
        if link {
            chain_leaves(ctx, x, op, uses, memo, fired, out);
        } else {
            out.push(rebalance_expr(ctx, x, uses, memo, fired));
        }
    }
}

/// Operator depth of the `op`-chain skeleton rooted at `e` (leaves and
/// shared nodes count zero). A left-leaning chain of n leaves has
/// depth n-1; a tournament tree has depth ceil(log2 n).
fn chain_depth(ctx: &Context, e: ExprRef, op: BinaryOp, uses: &HashMap<ExprRef, u32>) -> u32 {
    match *ctx.expr(e) {
        Expr::Binary(o, a, b) if o == op => {
            let sub = |ctx: &Context, x: ExprRef| {
                let link = matches!(*ctx.expr(x), Expr::Binary(oo, ..) if oo == op)
                    && uses.get(&x).copied().unwrap_or(0) <= 1;
                if link {
                    chain_depth(ctx, x, op, uses)
                } else {
                    0
                }
            };
            1 + sub(ctx, a).max(sub(ctx, b))
        }
        _ => 0,
    }
}

/// Memoized rebuild of `e` with every reshapeable associative chain
/// balanced; everything else is rebuilt over rebalanced children.
fn rebalance_expr(
    ctx: &mut Context,
    e: ExprRef,
    uses: &HashMap<ExprRef, u32>,
    memo: &mut HashMap<ExprRef, ExprRef>,
    fired: &mut u64,
) -> ExprRef {
    if let Some(&r) = memo.get(&e) {
        return r;
    }
    let result = match ctx.expr(e).clone() {
        Expr::Const(_) | Expr::Symbol { .. } => e,
        node => {
            let balanced = match node {
                Expr::Binary(op, ..) if ASSOC_OPS.contains(&op) => {
                    balance_chain(ctx, e, op, uses, memo, fired)
                }
                _ => None,
            };
            balanced.unwrap_or_else(|| {
                rebuild_node(ctx, &node, |ctx, c| rebalance_expr(ctx, c, uses, memo, fired))
            })
        }
    };
    memo.insert(e, result);
    result
}

/// The balanced tree for the `op`-chain rooted at `e`, or `None` when the
/// chain is already as shallow as a tournament tree would make it.
fn balance_chain(
    ctx: &mut Context,
    e: ExprRef,
    op: BinaryOp,
    uses: &HashMap<ExprRef, u32>,
    memo: &mut HashMap<ExprRef, ExprRef>,
    fired: &mut u64,
) -> Option<ExprRef> {
    // Only reshape when the tournament tree is strictly shallower than
    // what is already there — a chain that is balanced (or canonically
    // reordered into an equivalent shape by the smart constructors) must
    // be a fixpoint, or alternating rounds would ping-pong between
    // layouts.
    let orig_depth = chain_depth(ctx, e, op, uses);
    let mut ls: Vec<ExprRef> = Vec::new();
    chain_leaves(ctx, e, op, uses, memo, fired, &mut ls);
    let balanced_depth = usize::BITS - (ls.len().max(1) - 1).leading_zeros();
    if ls.len() < 3 || balanced_depth >= orig_depth {
        return None;
    }
    // Tournament reduction: pair adjacent leaves level by level, giving
    // depth ceil(log2 n) instead of n-1.
    while ls.len() > 1 {
        let mut next_level = Vec::with_capacity(ls.len().div_ceil(2));
        let mut it = ls.chunks_exact(2);
        for pair in &mut it {
            next_level.push(ctx.binary(op, pair[0], pair[1]));
        }
        next_level.extend_from_slice(it.remainder());
        ls = next_level;
    }
    if ls[0] != e {
        *fired += 1;
    }
    Some(ls[0])
}

// --- stage 4: cone-of-influence reduction -----------------------------------

/// Drops states outside the support closure of targets, constraints, and
/// published signals (see module docs for the soundness argument).
/// Returns the number of states dropped.
fn coi(ctx: &Context, ts: &mut TransitionSystem, roots: &[ExprRef]) -> u64 {
    let mut work: Vec<ExprRef> = Vec::new();
    work.extend_from_slice(roots);
    work.extend_from_slice(ts.constraints());
    work.extend(ts.signals().iter().map(|(_, e)| *e));
    let mut needed: HashSet<ExprRef> = HashSet::new();
    let mut visited: HashSet<ExprRef> = HashSet::new();
    while let Some(e) = work.pop() {
        if !visited.insert(e) {
            continue;
        }
        for sym in ctx.free_symbols(e) {
            if needed.insert(sym) {
                if let Some(s) = ts.find_state(sym) {
                    if let Some(init) = s.init {
                        work.push(init);
                    }
                    work.push(s.next);
                }
            }
        }
    }
    ts.retain_states(|sym| needed.contains(&sym)) as u64
}

// --- stage 6: sweep / dead-node elimination ---------------------------------

/// Rebuilds the reachable structure into a fresh arena, dropping dead
/// nodes and constant-true constraints.
fn sweep(ctx: &mut Context, ts: &mut TransitionSystem, roots: &mut [ExprRef]) {
    let mut new_ctx = Context::new();
    let mut new_ts = TransitionSystem::new(ts.name());
    let mut memo: HashMap<ExprRef, ExprRef> = HashMap::new();
    let old: &Context = ctx;
    // Inputs and state symbols first, preserving declaration order so
    // symbol enumeration (and thus waveform row order) survives.
    for &i in ts.inputs() {
        let ni = copy_expr(old, &mut new_ctx, i, &mut memo);
        new_ts.add_input(ni);
    }
    for s in ts.states() {
        let sym = copy_expr(old, &mut new_ctx, s.symbol, &mut memo);
        let init = s.init.map(|i| copy_expr(old, &mut new_ctx, i, &mut memo));
        let next = copy_expr(old, &mut new_ctx, s.next, &mut memo);
        new_ts.add_state(sym, init, next);
    }
    for &c in ts.constraints() {
        let nc = copy_expr(old, &mut new_ctx, c, &mut memo);
        // Constant-true constraints are vacuous; constant-false ones keep
        // the system in (sound) vacuity and must stay.
        let is_true = new_ctx.const_value(nc).map(|v| v.to_bool()).unwrap_or(false);
        if !is_true {
            new_ts.add_constraint(nc);
        }
    }
    for (name, e) in ts.signals() {
        let ne = copy_expr(old, &mut new_ctx, *e, &mut memo);
        new_ts.add_signal(name.clone(), ne);
    }
    for r in roots.iter_mut() {
        *r = copy_expr(old, &mut new_ctx, *r, &mut memo);
    }
    *ctx = new_ctx;
    *ts = new_ts;
}

/// Memoized copy of `e` from the `old` arena into `new`.
fn copy_expr(
    old: &Context,
    new: &mut Context,
    e: ExprRef,
    memo: &mut HashMap<ExprRef, ExprRef>,
) -> ExprRef {
    if let Some(&r) = memo.get(&e) {
        return r;
    }
    let result = rebuild_node(new, old.expr(e), |new, c| copy_expr(old, new, c, memo));
    memo.insert(e, result);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{evaluate, Env};
    use crate::value::BitVecValue;
    use genfv_obs::{Counter, ObsConfig, Phase, TraceEvent};

    fn run_full(ctx: &mut Context, ts: &mut TransitionSystem, roots: &mut [ExprRef]) -> OptStats {
        optimize(ctx, ts, roots, &OptConfig::default(), &Obs::off())
    }

    #[test]
    fn level_none_is_identity() {
        let mut ctx = Context::new();
        let a = ctx.symbol("a", 8);
        let garbage = ctx.mul(a, a);
        let _ = garbage;
        let mut ts = TransitionSystem::new("t");
        ts.add_input(a);
        let n = ctx.num_nodes();
        let mut roots = vec![];
        let stats = optimize(
            &mut ctx,
            &mut ts,
            &mut roots,
            &OptConfig::default().with_level(OptLevel::None),
            &Obs::off(),
        );
        assert_eq!(stats.rounds, 0);
        assert_eq!(ctx.num_nodes(), n, "None must not touch the arena");
    }

    #[test]
    fn factoring_shares_multiplier_cones() {
        // The mul_incr shape: lhs <= (a+1)*b, rhs <= a*b + b.
        let mut ctx = Context::new();
        let a = ctx.symbol("a", 6);
        let b = ctx.symbol("b", 6);
        let one = ctx.constant(1, 6);
        let lhs = ctx.symbol("lhs", 6);
        let rhs = ctx.symbol("rhs", 6);
        let a1 = ctx.add(a, one);
        let lhs_next = ctx.mul(a1, b);
        let ab = ctx.mul(a, b);
        let rhs_next = ctx.add(ab, b);
        assert_ne!(lhs_next, rhs_next, "not shared before optimization");
        let zero = ctx.constant(0, 6);
        let mut ts = TransitionSystem::new("mul_incr");
        ts.add_input(a);
        ts.add_input(b);
        ts.add_state(lhs, Some(zero), lhs_next);
        ts.add_state(rhs, Some(zero), rhs_next);
        ts.add_signal("lhs", lhs);
        ts.add_signal("rhs", rhs);
        let prop = ctx.eq(lhs, rhs);
        let mut roots = vec![prop];
        let (mut rctx, mut rts, mut rroots) = (ctx.clone(), ts.clone(), roots.clone());
        assert!(rewrite(&mut rctx, &mut rts, &mut rroots) >= 1, "factoring should fire");
        assert_eq!(
            rts.states()[0].next,
            rts.states()[1].next,
            "both next functions hash-cons to one multiplier cone"
        );
        // The shared cone makes the registers correspond structurally:
        // the pipeline merges them and the property folds to true.
        let stats = run_full(&mut ctx, &mut ts, &mut roots);
        assert!(stats.rewrites >= 1, "{stats:?}");
        assert_eq!((stats.pairs_proved, stats.nodes_merged, stats.sweep_conflicts), (1, 1, 0));
        assert_eq!(ts.states().len(), 1, "{stats:?}");
        assert_eq!(ctx.const_value(roots[0]).map(|v| v.to_bool()), Some(true));
    }

    #[test]
    fn factoring_distrib_shape() {
        // The mul_distrib shape: lhs <= a*(b+c), rhs <= a*b + a*c.
        let mut ctx = Context::new();
        let a = ctx.symbol("a", 6);
        let b = ctx.symbol("b", 6);
        let c = ctx.symbol("c", 6);
        let bc = ctx.add(b, c);
        let lhs_next = ctx.mul(a, bc);
        let ab = ctx.mul(a, b);
        let ac = ctx.mul(a, c);
        let rhs_next = ctx.add(ab, ac);
        let lhs = ctx.symbol("lhs", 6);
        let rhs = ctx.symbol("rhs", 6);
        let zero = ctx.constant(0, 6);
        let mut ts = TransitionSystem::new("mul_distrib");
        ts.add_state(lhs, Some(zero), lhs_next);
        ts.add_state(rhs, Some(zero), rhs_next);
        let prop = ctx.eq(lhs, rhs);
        let mut roots = vec![prop];
        let (mut rctx, mut rts, mut rroots) = (ctx.clone(), ts.clone(), roots.clone());
        assert!(rewrite(&mut rctx, &mut rts, &mut rroots) >= 1);
        assert_eq!(rts.states()[0].next, rts.states()[1].next);
        // Merged at `Full`: the property folds to true, and with no
        // signal to anchor it the surviving register leaves the cone.
        let stats = run_full(&mut ctx, &mut ts, &mut roots);
        assert!(stats.rewrites >= 1);
        assert_eq!((stats.pairs_proved, stats.nodes_merged, stats.sweep_conflicts), (1, 1, 0));
        assert_eq!(ctx.const_value(roots[0]).map(|v| v.to_bool()), Some(true));
        assert!(ts.states().is_empty(), "{stats:?}");
    }

    #[test]
    fn factoring_respects_sharing() {
        // a*b is also published as a signal (use count 2): factoring the
        // sum would duplicate the multiplier, so it must not fire.
        let mut ctx = Context::new();
        let a = ctx.symbol("a", 8);
        let b = ctx.symbol("b", 8);
        let ab = ctx.mul(a, b);
        let sum = ctx.add(ab, b);
        let mut ts = TransitionSystem::new("shared");
        ts.add_input(a);
        ts.add_input(b);
        ts.add_signal("prod", ab);
        ts.add_signal("sum", sum);
        let mut roots = vec![];
        let _ = run_full(&mut ctx, &mut ts, &mut roots);
        let prod = ts.find_signal("prod").unwrap();
        let s = ts.find_signal("sum").unwrap();
        assert!(
            matches!(*ctx.expr(s), Expr::Binary(BinaryOp::Add, x, y) if x == prod || y == prod),
            "shared product must stay a shared operand of the sum"
        );
    }

    #[test]
    fn mux_collapsing() {
        let mut ctx = Context::new();
        let c = ctx.symbol("c", 1);
        let a = ctx.symbol("a", 4);
        let b = ctx.symbol("b", 4);
        let d = ctx.symbol("d", 4);
        // ite(~c, ite(~c, a, b), d) should collapse to ite(c, d, a).
        let nc = ctx.not(c);
        let inner = ctx.ite(nc, a, b);
        let outer = ctx.ite(nc, inner, d);
        let mut ts = TransitionSystem::new("mux");
        ts.add_signal("m", outer);
        let mut roots = vec![];
        let stats = run_full(&mut ctx, &mut ts, &mut roots);
        assert!(stats.rewrites >= 1);
        // The sweep rebuilt the arena; re-resolve symbols by name.
        let c = ctx.find_symbol("c").unwrap();
        let a = ctx.find_symbol("a").unwrap();
        let d = ctx.find_symbol("d").unwrap();
        let m = ts.find_signal("m").unwrap();
        let expected = ctx.ite(c, d, a);
        assert_eq!(m, expected);
    }

    #[test]
    fn one_bit_mux_becomes_gates() {
        let mut ctx = Context::new();
        let c = ctx.symbol("c", 1);
        let x = ctx.symbol("x", 1);
        let t = ctx.bool_const(true);
        let f = ctx.bool_const(false);
        let id = ctx.ite(c, t, f);
        let inv = ctx.ite(c, f, t);
        let orr = ctx.ite(c, t, x);
        let andd = ctx.ite(c, x, f);
        let mut ts = TransitionSystem::new("gates");
        ts.add_signal("id", id);
        ts.add_signal("inv", inv);
        ts.add_signal("or", orr);
        ts.add_signal("and", andd);
        let mut roots = vec![];
        let _ = run_full(&mut ctx, &mut ts, &mut roots);
        assert_eq!(ts.find_signal("id").unwrap(), ctx.find_symbol("c").unwrap());
        let c2 = ctx.find_symbol("c").unwrap();
        let x2 = ctx.find_symbol("x").unwrap();
        let not_c = ctx.not(c2);
        assert_eq!(ts.find_signal("inv").unwrap(), not_c);
        let or_cx = ctx.or(c2, x2);
        assert_eq!(ts.find_signal("or").unwrap(), or_cx);
        let and_cx = ctx.and(c2, x2);
        assert_eq!(ts.find_signal("and").unwrap(), and_cx);
    }

    #[test]
    fn stuck_register_cascade_collapses() {
        // z is stuck at 3; y = z + 1 is therefore stuck at 4; x follows y.
        let mut ctx = Context::new();
        let z = ctx.symbol("z", 8);
        let y = ctx.symbol("y", 8);
        let x = ctx.symbol("x", 8);
        let three = ctx.constant(3, 8);
        let four = ctx.constant(4, 8);
        let one = ctx.constant(1, 8);
        let z_next = z; // holds its reset value forever
        let y_next = ctx.add(z, one);
        let mut ts = TransitionSystem::new("stuck");
        ts.add_state(z, Some(three), z_next);
        ts.add_state(y, Some(four), y_next);
        ts.add_state(x, Some(four), y);
        ts.add_signal("x", x);
        let prop = ctx.eq(x, four);
        let mut roots = vec![prop];
        let stats = run_full(&mut ctx, &mut ts, &mut roots);
        assert_eq!(stats.stuck_states, 3, "whole cascade collapses: {stats:?}");
        assert_eq!(ts.states().len(), 0);
        assert!(
            ctx.const_value(roots[0]).unwrap().to_bool(),
            "property folds to true once x is known constant"
        );
    }

    #[test]
    fn coi_drops_unobserved_state_only() {
        let mut ctx = Context::new();
        let a = ctx.symbol("a", 4);
        let dead = ctx.symbol("dead", 16);
        let one4 = ctx.constant(1, 4);
        let one16 = ctx.constant(1, 16);
        let a_next = ctx.add(a, one4);
        let dead_next = ctx.mul(dead, one16);
        let dn = ctx.add(dead_next, one16);
        let mut ts = TransitionSystem::new("coi");
        ts.add_state(a, None, a_next);
        ts.add_state(dead, None, dn);
        ts.add_signal("a", a);
        let five = ctx.constant(5, 4);
        let prop = ctx.ult(a, five);
        let mut roots = vec![prop];
        let stats = run_full(&mut ctx, &mut ts, &mut roots);
        assert_eq!(stats.coi_dropped_states, 1, "{stats:?}");
        assert_eq!(ts.states().len(), 1);
        assert!(ts.find_signal("a").is_some());
    }

    #[test]
    fn coi_keeps_constraint_support() {
        // The constraint mentions `g`, so `g` must survive even though no
        // target or signal observes it.
        let mut ctx = Context::new();
        let g = ctx.symbol("g", 4);
        let one = ctx.constant(1, 4);
        let g_next = ctx.add(g, one);
        let ten = ctx.constant(10, 4);
        let cons = ctx.ult(g, ten);
        let mut ts = TransitionSystem::new("cons");
        ts.add_state(g, None, g_next);
        ts.add_constraint(cons);
        let mut roots = vec![];
        let stats = run_full(&mut ctx, &mut ts, &mut roots);
        assert_eq!(stats.coi_dropped_states, 0);
        assert_eq!(ts.states().len(), 1);
        assert_eq!(ts.constraints().len(), 1);
    }

    #[test]
    fn rebalance_cuts_depth() {
        let mut ctx = Context::new();
        let syms: Vec<ExprRef> = (0..8).map(|i| ctx.symbol(&format!("s{i}"), 8)).collect();
        let mut chain = syms[0];
        for &s in &syms[1..] {
            chain = ctx.add(chain, s);
        }
        fn depth(ctx: &Context, e: ExprRef) -> usize {
            match *ctx.expr(e) {
                Expr::Binary(_, a, b) => 1 + depth(ctx, a).max(depth(ctx, b)),
                Expr::Unary(_, a) => 1 + depth(ctx, a),
                _ => 0,
            }
        }
        assert_eq!(depth(&ctx, chain), 7, "linear comb before");
        let mut ts = TransitionSystem::new("chain");
        ts.add_signal("sum", chain);
        let mut roots = vec![];
        let stats = run_full(&mut ctx, &mut ts, &mut roots);
        assert!(stats.chains_rebalanced >= 1, "{stats:?}");
        let sum = ts.find_signal("sum").unwrap();
        assert_eq!(depth(&ctx, sum), 3, "balanced tree after: ceil(log2 8)");
        // Semantics preserved under a concrete environment.
        let mut env = Env::new();
        for (i, s) in syms.iter().enumerate() {
            // Original symbols are gone after sweep; bind by name.
            let _ = s;
            let sym = ctx.find_symbol(&format!("s{i}")).unwrap();
            env.insert(sym, BitVecValue::from_u64(i as u64 + 1, 8));
        }
        assert_eq!(evaluate(&ctx, &env, sum).to_u64(), Some(36));
    }

    #[test]
    fn sweep_compacts_and_drops_true_constraints() {
        let mut ctx = Context::new();
        let a = ctx.symbol("a", 8);
        // Unreachable garbage.
        let g1 = ctx.mul(a, a);
        let _g2 = ctx.add(g1, a);
        let t = ctx.bool_const(true);
        let mut ts = TransitionSystem::new("sweep");
        ts.add_input(a);
        ts.add_signal("a", a);
        ts.add_constraint(t);
        let before = ctx.num_nodes();
        let mut roots = vec![];
        let stats = run_full(&mut ctx, &mut ts, &mut roots);
        assert!(stats.nodes_after < before, "garbage swept: {stats:?}");
        assert_eq!(stats.constraints_dropped, 1);
        assert!(ts.constraints().is_empty());
        assert!(ts.find_signal("a").is_some());
    }

    #[test]
    fn false_constraint_is_kept() {
        let mut ctx = Context::new();
        let a = ctx.symbol("a", 8);
        let f = ctx.bool_const(false);
        let mut ts = TransitionSystem::new("vacuous");
        ts.add_input(a);
        ts.add_constraint(f);
        let mut roots = vec![];
        let _ = run_full(&mut ctx, &mut ts, &mut roots);
        assert_eq!(ts.constraints().len(), 1, "false constraint preserves vacuity");
    }

    #[test]
    fn pipeline_reaches_fixpoint_within_bound() {
        let mut ctx = Context::new();
        let a = ctx.symbol("a", 8);
        let one = ctx.constant(1, 8);
        let next = ctx.add(a, one);
        let zero = ctx.constant(0, 8);
        let mut ts = TransitionSystem::new("counter");
        ts.add_state(a, Some(zero), next);
        ts.add_signal("a", a);
        let mut roots = vec![];
        let stats = run_full(&mut ctx, &mut ts, &mut roots);
        assert!(stats.rounds <= MAX_ROUNDS);
        // Running again is a no-op: already at fixpoint.
        let n = ctx.num_nodes();
        let stats2 = run_full(&mut ctx, &mut ts, &mut roots);
        assert_eq!(stats2.nodes_after, n);
        assert_eq!(stats2.rewrites, 0);
    }

    /// Optimizes a two-round system under a deterministic trace.
    fn traced_run(level: OptLevel) -> (Vec<TraceEvent>, OptStats, Obs) {
        let mut ctx = Context::new();
        let a = ctx.symbol("a", 1);
        let b = ctx.symbol("b", 1);
        let c = ctx.symbol("c", 1);
        // ite(~c, a, b) is rewritten in round one; round two fires nothing.
        let nc = ctx.not(c);
        let mux = ctx.ite(nc, a, b);
        let mut ts = TransitionSystem::new("trace");
        for s in [a, b, c] {
            ts.add_input(s);
        }
        ts.add_signal("mux", mux);
        let obs = Obs::new(ObsConfig::Deterministic);
        let mut roots = vec![];
        let config = OptConfig::default().with_level(level);
        let stats = optimize(&mut ctx, &mut ts, &mut roots, &config, &obs);
        (obs.take_events(), stats, obs)
    }

    #[test]
    fn trace_opens_one_span_per_stage_call() {
        let round =
            ["opt.rewrite", "opt.stuck", "opt.rebalance", "opt.coi", "opt.regcorr", "opt.sweep"];
        let (full_events, full_stats, _) = traced_run(OptLevel::Full);
        for level in [OptLevel::Full, OptLevel::SatSweep] {
            let (events, stats, obs) = traced_run(level);
            assert_eq!(stats.rounds, 2, "{level:?}: {stats:?}");
            let begins: Vec<&str> =
                events.iter().filter(|ev| ev.phase == Phase::Begin).map(|ev| ev.name).collect();
            let mut expected = vec!["opt"];
            for _ in 0..stats.rounds {
                expected.extend_from_slice(&round);
            }
            assert_eq!(begins, expected, "{level:?}");
            let pairs = obs.metrics().expect("enabled handle").counter(Counter::SweepPairs);
            assert_eq!(pairs, 0, "no register pair, no miter");
            // `SatSweep` is an alias of `Full`: same trace, same counts.
            assert_eq!(events, full_events, "{level:?}");
            assert_eq!(OptStats { level: OptLevel::Full, ..stats }, full_stats, "{level:?}");
        }
        let (events, stats, _) = traced_run(OptLevel::None);
        assert!(events.is_empty(), "None records no events: {events:?}");
        assert_eq!(stats.rounds, 0);
    }

    #[test]
    fn stats_summary_mentions_counts() {
        let stats = OptStats {
            level: OptLevel::Full,
            rounds: 2,
            nodes_before: 100,
            nodes_after: 60,
            rewrites: 5,
            ..OptStats::default()
        };
        let s = stats.summary();
        assert!(s.contains("100→60"));
        assert!(s.contains("rewrites=5"));
        assert_eq!(stats.nodes_removed(), 40);
    }

    #[test]
    fn salts_are_distinct() {
        assert_eq!(OptLevel::None.salt(), 0);
        let salts = [OptLevel::Full.salt(), OptLevel::SatSweep.salt()];
        for (i, a) in salts.iter().enumerate() {
            assert_ne!(*a, 0);
            for b in &salts[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
