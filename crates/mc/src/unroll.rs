//! Time-frame expansion of a transition system over one incremental SAT
//! solver.
//!
//! Frame *i* has its own [`LitEnv`]; state symbols of frame *i+1* are bound
//! to the next-state functions evaluated in frame *i*. Environment
//! constraints hold in every frame. [`Unroller::new`] asserts them
//! outright (the rebuild reference engines); [`Unroller::new_guarded`] and
//! [`Unroller::stamped`] activate them per frame through
//! [`Unroller::frame_guard`] literals instead, so a query over frames
//! `0..=k` of a long-lived unrolling assumes exactly the constraints a
//! fresh `k`-frame unrolling would assert — deeper frames do not restrict
//! shallower ones, and frames only ever grow. The guarded forms are the
//! substrate of [`crate::session::ProofSession`], which owns one guarded
//! unroller per proof direction.
//!
//! ## One frame encoding per direction
//!
//! Each constructor fixes how every frame of its unrolling is encoded:
//!
//! * [`Unroller::new`] and [`Unroller::new_guarded`] **DAG-walk**: each
//!   frame walks the expression DAG with direct Tseitin encoding. With
//!   `use_init = true`, frame 0 binds initialised states to their reset
//!   values as constants, so the bit-blaster folds reset values through
//!   the whole unrolling (on deterministic cones a folded frame costs no
//!   clauses at all, which a uniform frame copy can never beat); with
//!   `false`, frame 0 is an arbitrary state. A session's reset-pinned base
//!   direction and the rebuild reference engines unroll this way.
//! * [`Unroller::stamped`] **stamps** a free-start unrolling — a session's
//!   induction-step direction, where every frame is the same relation.
//!   The transition relation and constraints are blasted once into a
//!   relocatable [`genfv_ir::Template`]; each frame is a bulk clause-arena
//!   copy with a per-literal offset add, substituting current-state
//!   literals with the predecessor's next-state outputs (no linking
//!   clauses — state literals chain exactly like the DAG walk).
//!
//! The rebuild engines in [`crate::rebuild`] are the tests' DAG-walk
//! reference for stamped sessions.

use genfv_ir::{BitBlaster, Context, ExprRef, FrameStamp, LitEnv, Template, TransitionSystem};
use genfv_sat::Lit;
use std::sync::Arc;

/// Ignored; kept because `e0_ledger` names it (through
/// `FlowConfig::with_unroll_mode` in `genfv-core`); delete with the next
/// benchmark change. A session's base direction always DAG-walks with
/// reset pinned and its step direction always stamps (see the
/// [module docs](self)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum UnrollMode {
    /// Template-stamped step frames, the only step encoding sessions use.
    #[default]
    Template,
    /// Ignored: sessions no longer have a DAG-walked step direction.
    DagWalk,
}

/// How an unroller encodes its frames, fixed at construction.
#[derive(Debug)]
enum Encoding {
    /// Per-frame expression-DAG walk; `pinned` binds frame 0's
    /// initialised states to their reset values.
    DagWalk { pinned: bool },
    /// Free-start frames stamped from a shared one-time blast, with one
    /// window stamp per frame.
    Stamped { template: Arc<Template>, stamps: Vec<FrameStamp> },
}

/// Incremental unroller.
#[derive(Debug)]
pub struct Unroller<'c> {
    ctx: &'c Context,
    ts: &'c TransitionSystem,
    bb: BitBlaster,
    frames: Vec<LitEnv>,
    /// Per-frame activation literals for environment constraints (and any
    /// caller-supplied frame-local facts); `None` when constraints are
    /// asserted unconditionally (the rebuild engines).
    frame_guards: Option<Vec<Lit>>,
    encoding: Encoding,
}

impl<'c> Unroller<'c> {
    /// Creates a DAG-walking unroller with zero frames and unconditional
    /// constraints.
    pub fn new(ctx: &'c Context, ts: &'c TransitionSystem, use_init: bool) -> Self {
        Unroller::build(ctx, ts, false, Encoding::DagWalk { pinned: use_init })
    }

    /// Creates a DAG-walking unroller for long-lived sessions: environment
    /// constraints are activated per frame through guard literals, so any
    /// query window `0..=k` on the persistent solver is equivalent to a
    /// fresh `k`-frame unrolling.
    pub fn new_guarded(ctx: &'c Context, ts: &'c TransitionSystem, use_init: bool) -> Self {
        Unroller::build(ctx, ts, true, Encoding::DagWalk { pinned: use_init })
    }

    /// Creates a guarded, free-start unroller whose frames are stamped
    /// from `template` (built for `ctx`/`ts`), so one blast serves every
    /// session that shares it.
    pub fn stamped(ctx: &'c Context, ts: &'c TransitionSystem, template: Arc<Template>) -> Self {
        Unroller::build(ctx, ts, true, Encoding::Stamped { template, stamps: Vec::new() })
    }

    fn build(
        ctx: &'c Context,
        ts: &'c TransitionSystem,
        guarded: bool,
        encoding: Encoding,
    ) -> Self {
        Unroller {
            ctx,
            ts,
            bb: BitBlaster::new(),
            frames: Vec::new(),
            frame_guards: guarded.then(Vec::new),
            encoding,
        }
    }

    /// Number of frames created so far.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether no frame exists yet.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// The activation literal of frame `k`'s environment constraints.
    /// `None` unless this is a guarded (session) unroller.
    ///
    /// # Panics
    /// Panics if frame `k` does not exist yet.
    pub fn frame_guard(&self, k: usize) -> Option<Lit> {
        self.frame_guards.as_ref().map(|g| g[k])
    }

    /// Ensures frames `0..=n` exist.
    pub fn ensure_frame(&mut self, n: usize) {
        while self.frames.len() <= n {
            self.push_frame();
        }
    }

    fn push_frame(&mut self) {
        let idx = self.frames.len();
        let mut env = LitEnv::new();
        match &mut self.encoding {
            Encoding::Stamped { template, stamps } => {
                // The predecessor's next-state outputs resolve by pure
                // offset arithmetic and substitute for the new frame's X
                // slots: state literals chain exactly like a DAG-walked
                // unrolling, with no linking clauses.
                let prev = stamps.last().map(|p| template.next_state_lits(p, self.bb.true_lit()));
                let stamp = template.stamp(self.bb.solver_mut(), prev.as_deref());
                template.bind_frame(&stamp, &mut env);
                stamps.push(stamp);
            }
            Encoding::DagWalk { pinned } => {
                if idx == 0 {
                    if *pinned {
                        for st in self.ts.states() {
                            if let Some(init) = st.init {
                                let lits = self.bb.blast(self.ctx, &mut env, init);
                                env.bind(st.symbol, lits);
                            }
                        }
                    }
                } else {
                    // Blast every next-state function in the previous
                    // frame, then bind the state symbols in the new frame.
                    let prev_env = &mut self.frames[idx - 1];
                    for st in self.ts.states() {
                        let lits = self.bb.blast(self.ctx, prev_env, st.next);
                        env.bind(st.symbol, lits);
                    }
                }
            }
        }
        self.frames.push(env);
        // Environment constraints hold in every frame — asserted outright
        // by the rebuild engines, activated by the frame guard in sessions.
        let guard = self.frame_guards.as_mut().map(|guards| {
            let g = Lit::pos(self.bb.solver_mut().new_var());
            guards.push(g);
            g
        });
        let ts = self.ts;
        for (i, &c) in ts.constraints().iter().enumerate() {
            let l = match &self.encoding {
                // Stamped frames carry pre-encoded (polarity-aware)
                // constraint literals; activation is positive-phase only,
                // which is exactly what the encoding guarantees.
                Encoding::Stamped { template, stamps } => {
                    template.constraint_lit(&stamps[idx], i, self.bb.true_lit())
                }
                Encoding::DagWalk { .. } => self.lit_at(idx, c),
            };
            match guard {
                Some(g) => {
                    self.bb.solver_mut().add_clause([!g, l]);
                }
                None => self.bb.assert_lit(l),
            }
        }
    }

    /// The 1-bit literal of `expr` evaluated in frame `frame`.
    ///
    /// # Panics
    /// Panics if the frame does not exist or `expr` is not 1 bit wide.
    pub fn lit_at(&mut self, frame: usize, expr: ExprRef) -> Lit {
        assert_eq!(self.ctx.width_of(expr), 1, "lit_at needs a 1-bit expression");
        self.lits_at(frame, expr)[0]
    }

    /// Blasts an arbitrary-width expression in a frame. On stamped frames
    /// template-encoded cones resolve by offset arithmetic; everything
    /// else (new lemmas, candidate monitors) falls back to the per-frame
    /// blaster, sharing template-covered sub-cones.
    pub fn lits_at(&mut self, frame: usize, expr: ExprRef) -> Vec<Lit> {
        let env = &mut self.frames[frame];
        match &self.encoding {
            Encoding::Stamped { template, stamps } => {
                template.materialize(self.ctx, &mut self.bb, env, &stamps[frame], expr)
            }
            Encoding::DagWalk { .. } => self.bb.blast(self.ctx, env, expr),
        }
    }

    /// Access to the underlying bit-blaster (for solving and models).
    pub fn blaster_mut(&mut self) -> &mut BitBlaster {
        &mut self.bb
    }

    /// Shared access to the blaster.
    pub fn blaster(&self) -> &BitBlaster {
        &self.bb
    }

    /// The per-frame environments (for trace extraction).
    pub fn frames(&self) -> &[LitEnv] {
        &self.frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genfv_ir::Context;

    fn counter(ctx: &mut Context) -> TransitionSystem {
        let c = ctx.symbol("count", 4);
        let one = ctx.constant(1, 4);
        let zero = ctx.constant(0, 4);
        let next = ctx.add(c, one);
        let mut ts = TransitionSystem::new("counter");
        ts.add_state(c, Some(zero), next);
        ts.add_signal("count", c);
        ts
    }

    /// The counter with the environment constraint `count < 8`.
    fn constrained_counter(ctx: &mut Context) -> TransitionSystem {
        let mut ts = counter(ctx);
        let c = ctx.find_symbol("count").unwrap();
        let eight = ctx.constant(8, 4);
        let lt8 = ctx.ult(c, eight);
        ts.add_constraint(lt8);
        ts
    }

    fn stamped<'c>(ctx: &'c Context, ts: &'c TransitionSystem) -> Unroller<'c> {
        Unroller::stamped(ctx, ts, Arc::new(Template::build(ctx, ts)))
    }

    #[test]
    fn init_frame_is_pinned() {
        let mut ctx = Context::new();
        let ts = counter(&mut ctx);
        let c = ctx.find_symbol("count").unwrap();
        let mut u = Unroller::new(&ctx, &ts, true);
        u.ensure_frame(3);
        // count@0 == 0, count@3 == 3: query equality with constants.
        let three = ctx.constant(3, 4);
        // (count == 3) at frame 3 must be forced true.
        let mut ctx2 = ctx.clone();
        let eq3 = ctx2.eq(c, three);
        let mut u2 = Unroller::new(&ctx2, &ts, true);
        u2.ensure_frame(3);
        let l = u2.lit_at(3, eq3);
        assert!(u2.blaster_mut().solve_with_assumptions(&[!l]).is_unsat());
    }

    #[test]
    fn no_init_frame_is_free() {
        let mut ctx = Context::new();
        let ts = counter(&mut ctx);
        let c = ctx.find_symbol("count").unwrap();
        let nine = ctx.constant(9, 4);
        let eq9 = ctx.eq(c, nine);
        let mut u = Unroller::new(&ctx, &ts, false);
        u.ensure_frame(0);
        let l = u.lit_at(0, eq9);
        assert!(
            u.blaster_mut().solve_with_assumptions(&[l]).is_sat(),
            "arbitrary start state can be 9"
        );
    }

    #[test]
    fn transition_relation_enforced() {
        let mut ctx = Context::new();
        let ts = counter(&mut ctx);
        let c = ctx.find_symbol("count").unwrap();
        let five = ctx.constant(5, 4);
        let six = ctx.constant(6, 4);
        let eq5 = ctx.eq(c, five);
        let eq6 = ctx.eq(c, six);
        let mut u = Unroller::new(&ctx, &ts, false);
        u.ensure_frame(1);
        let a = u.lit_at(0, eq5);
        let b = u.lit_at(1, eq6);
        assert!(u.blaster_mut().solve_with_assumptions(&[a, b]).is_sat());
        assert!(u.blaster_mut().solve_with_assumptions(&[a, !b]).is_unsat());
    }

    #[test]
    fn constraints_apply_every_frame() {
        let mut ctx = Context::new();
        let ts = constrained_counter(&mut ctx);
        let c = ctx.find_symbol("count").unwrap();
        let seven = ctx.constant(7, 4);
        let eq7 = ctx.eq(c, seven);
        let mut u = Unroller::new(&ctx, &ts, false);
        u.ensure_frame(1);
        // count@0 == 7 forces count@1 == 8, violating the constraint.
        let l = u.lit_at(0, eq7);
        assert!(u.blaster_mut().solve_with_assumptions(&[l]).is_unsat());
    }

    #[test]
    fn guarded_constraints_scope_to_the_assumed_window() {
        let mut ctx = Context::new();
        let ts = constrained_counter(&mut ctx);
        let c = ctx.find_symbol("count").unwrap();
        let seven = ctx.constant(7, 4);
        let eq7 = ctx.eq(c, seven);
        let mut u = Unroller::new_guarded(&ctx, &ts, false);
        u.ensure_frame(2);
        let g0 = u.frame_guard(0).expect("guarded");
        let g1 = u.frame_guard(1).expect("guarded");
        let l = u.lit_at(0, eq7);
        // count@0 == 7 is fine while only frame 0's constraint is active…
        assert!(u.blaster_mut().solve_with_assumptions(&[g0, l]).is_sat());
        // …but activating frame 1's constraint forbids it (count@1 == 8),
        // exactly like a fresh 2-frame unrolling with asserted constraints.
        assert!(u.blaster_mut().solve_with_assumptions(&[g0, g1, l]).is_unsat());
    }

    #[test]
    fn guarded_pinned_init_still_folds_reset_values() {
        let mut ctx = Context::new();
        let ts = counter(&mut ctx);
        let c = ctx.find_symbol("count").unwrap();
        let three = ctx.constant(3, 4);
        let eq3 = ctx.eq(c, three);
        let mut u = Unroller::new_guarded(&ctx, &ts, true);
        u.ensure_frame(3);
        let l = u.lit_at(3, eq3);
        // Reset values are bound (not guarded), so count@3 == 3 outright.
        assert!(u.blaster_mut().solve_with_assumptions(&[!l]).is_unsat());
    }

    #[test]
    fn template_mode_enforces_the_transition_relation() {
        let mut ctx = Context::new();
        let ts = counter(&mut ctx);
        let c = ctx.find_symbol("count").unwrap();
        let five = ctx.constant(5, 4);
        let six = ctx.constant(6, 4);
        let eq5 = ctx.eq(c, five);
        let eq6 = ctx.eq(c, six);
        let mut u = stamped(&ctx, &ts);
        u.ensure_frame(1);
        let a = u.lit_at(0, eq5);
        let b = u.lit_at(1, eq6);
        assert!(u.blaster_mut().solve_with_assumptions(&[a, b]).is_sat());
        assert!(u.blaster_mut().solve_with_assumptions(&[a, !b]).is_unsat());
    }

    #[test]
    fn template_mode_guarded_constraints_scope_like_dagwalk() {
        let mut ctx = Context::new();
        let ts = constrained_counter(&mut ctx);
        let c = ctx.find_symbol("count").unwrap();
        let seven = ctx.constant(7, 4);
        let eq7 = ctx.eq(c, seven);
        let mut u = stamped(&ctx, &ts);
        u.ensure_frame(2);
        let g0 = u.frame_guard(0).expect("guarded");
        let g1 = u.frame_guard(1).expect("guarded");
        let l = u.lit_at(0, eq7);
        assert!(u.blaster_mut().solve_with_assumptions(&[g0, l]).is_sat());
        assert!(u.blaster_mut().solve_with_assumptions(&[g0, g1, l]).is_unsat());
        // With no guard assumed, no frame's constraint is in force.
        assert!(u.blaster_mut().solve_with_assumptions(&[l]).is_sat());
    }
}
