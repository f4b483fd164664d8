//! Time-frame expansion of a transition system over one incremental SAT
//! solver.
//!
//! Frame *i* has its own [`LitEnv`]; state symbols of frame *i+1* are bound
//! to the bit-blasted next-state functions evaluated in frame *i*. With
//! `use_init = true`, frame 0 additionally pins initialised states to their
//! reset values (BMC/base case) — binding them as constants, so the
//! bit-blaster folds reset values through the whole unrolling; with
//! `false`, frame 0 is an arbitrary state (induction step).
//!
//! Environment constraints hold in every frame. [`Unroller::new`] asserts
//! them outright (the one-shot/rebuild engines); [`Unroller::new_guarded`]
//! activates them per frame through [`Unroller::frame_guard`] literals
//! instead, so a query over frames `0..=k` of a long-lived unrolling
//! assumes exactly the constraints a fresh `k`-frame unrolling would
//! assert — deeper frames do not restrict shallower ones, and frames only
//! ever grow. The guarded form is the substrate of
//! [`crate::session::ProofSession`], which owns one guarded unroller per
//! proof direction (pinned base, free step).
//!
//! ## Frame encoding modes
//!
//! How a new frame's CNF is produced is selected by [`UnrollMode`]:
//!
//! * [`UnrollMode::Template`] (production default) — for a *free-start*
//!   unrolling (the induction-step direction), the transition relation
//!   and constraints are blasted **once** into a relocatable
//!   [`genfv_ir::Template`]; each frame is then stamped by a bulk
//!   clause-arena copy with a per-literal offset add, substituting
//!   current-state literals with the predecessor's next-state outputs
//!   (no linking clauses — state literals chain exactly like the DAG
//!   walk). A *reset-pinned* unrolling keeps the DAG-walk path for
//!   every frame: constant folding specialises pinned frames (on
//!   deterministic cones they cost no clauses at all), which a uniform
//!   frame copy can never beat.
//! * [`UnrollMode::DagWalk`] — the original per-frame expression-DAG walk
//!   with direct Tseitin encoding; preserved as the differential oracle
//!   (`template_differential` in `genfv-designs`) and for the
//!   rebuild-per-query reference engines.

use genfv_ir::{BitBlaster, Context, ExprRef, FrameStamp, LitEnv, Template, TransitionSystem};
use genfv_sat::Lit;
use std::sync::Arc;

/// How frame 0 treats initialised state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum InitMode {
    /// Frame 0 binds initialised states directly to their reset values.
    Pinned,
    /// Frame 0 is an arbitrary state.
    Free,
}

/// How new time frames are encoded (see the [module docs](self)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum UnrollMode {
    /// Template-stamped frames: one-time blast, per-frame clause-arena
    /// copy by literal renaming. The production default.
    #[default]
    Template,
    /// Per-frame expression-DAG walk with direct Tseitin encoding — the
    /// pre-template path, kept as the differential oracle.
    DagWalk,
}

/// Incremental unroller.
#[derive(Debug)]
pub struct Unroller<'c> {
    ctx: &'c Context,
    ts: &'c TransitionSystem,
    bb: BitBlaster,
    frames: Vec<LitEnv>,
    init: InitMode,
    /// Per-frame activation literals for environment constraints (and any
    /// caller-supplied frame-local facts); `None` when constraints are
    /// asserted unconditionally (one-shot/rebuild mode).
    frame_guards: Option<Vec<Lit>>,
    mode: UnrollMode,
    /// The shared one-time blast (built lazily on the first stamped
    /// frame unless supplied by the session).
    template: Option<Arc<Template>>,
    /// Per-frame window stamps; `None` for DAG-walked frames.
    stamps: Vec<Option<FrameStamp>>,
}

impl<'c> Unroller<'c> {
    /// Creates an unroller with zero frames and unconditional constraints,
    /// in the DAG-walk (reference) encoding.
    pub fn new(ctx: &'c Context, ts: &'c TransitionSystem, use_init: bool) -> Self {
        Unroller::with_mode(ctx, ts, use_init, false, UnrollMode::DagWalk)
    }

    /// Creates an unroller for long-lived sessions in the DAG-walk
    /// (reference) encoding: environment constraints are activated per
    /// frame through guard literals, so any query window `0..=k` on the
    /// persistent solver is equivalent to a fresh `k`-frame unrolling.
    pub fn new_guarded(ctx: &'c Context, ts: &'c TransitionSystem, use_init: bool) -> Self {
        Unroller::with_mode(ctx, ts, use_init, true, UnrollMode::DagWalk)
    }

    /// Creates an unroller with an explicit frame-encoding mode.
    pub fn with_mode(
        ctx: &'c Context,
        ts: &'c TransitionSystem,
        use_init: bool,
        guarded: bool,
        mode: UnrollMode,
    ) -> Self {
        let init = if use_init { InitMode::Pinned } else { InitMode::Free };
        Unroller {
            ctx,
            ts,
            bb: BitBlaster::new(),
            frames: Vec::new(),
            init,
            frame_guards: guarded.then(Vec::new),
            mode,
            template: None,
            stamps: Vec::new(),
        }
    }

    /// [`Unroller::with_mode`] with a pre-built template, so one blast
    /// serves several unrollers (a session's base and step directions).
    pub fn with_shared_template(
        ctx: &'c Context,
        ts: &'c TransitionSystem,
        use_init: bool,
        guarded: bool,
        template: Arc<Template>,
    ) -> Self {
        let mut u = Unroller::with_mode(ctx, ts, use_init, guarded, UnrollMode::Template);
        u.template = Some(template);
        u
    }

    /// The frame-encoding mode.
    pub fn mode(&self) -> UnrollMode {
        self.mode
    }

    /// The template backing stamped frames, building it on first use.
    fn ensure_template(&mut self) -> Arc<Template> {
        if self.template.is_none() {
            self.template = Some(Arc::new(Template::build(self.ctx, self.ts)));
        }
        self.template.clone().expect("just built")
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
        // A reset-pinned unrolling always takes the DAG-walk path: binding
        // init values as constants lets the blaster fold reset state
        // through the whole unrolling, so pinned frames are *not*
        // frame-uniform — on deterministic cones they cost no clauses at
        // all, which stamping a generic frame copy can never beat. The
        // free-start (induction-step) direction is where every frame is
        // the same relation and stamping wins.
        let stamp_this = self.mode == UnrollMode::Template && self.init == InitMode::Free;
        let mut env = LitEnv::new();
        let stamp = if stamp_this {
            let tpl = self.ensure_template();
            // The predecessor's next-state outputs resolve by pure offset
            // arithmetic (the mode is fixed at construction, so every
            // frame of a stamping unroller is stamped) and substitute for
            // the new frame's X slots: state literals chain exactly like
            // a DAG-walked unrolling, with no linking clauses.
            let prev = if idx == 0 {
                None
            } else {
                let pst =
                    self.stamps[idx - 1].as_ref().expect("stamping unrollers stamp every frame");
                Some(tpl.next_state_lits(pst, self.bb.true_lit()))
            };
            let st = tpl.stamp(self.bb.solver_mut(), prev.as_deref());
            tpl.bind_frame(&st, &mut env);
            Some(st)
        } else {
            if idx == 0 {
                if self.init == InitMode::Pinned {
                    for st in self.ts.states() {
                        if let Some(init) = st.init {
                            let lits = self.bb.blast(self.ctx, &mut env, init);
                            env.bind(st.symbol, lits);
                        }
                    }
                }
            } else {
                // Blast every next-state function in the previous frame,
                // then bind the state symbols in the new frame.
                let mut bound = Vec::with_capacity(self.ts.states().len());
                for st in self.ts.states() {
                    let prev_env = &mut self.frames[idx - 1];
                    let lits = self.bb.blast(self.ctx, prev_env, st.next);
                    bound.push((st.symbol, lits));
                }
                for (sym, lits) in bound {
                    env.bind(sym, lits);
                }
            }
            None
        };
        self.frames.push(env);
        self.stamps.push(stamp);
        // Environment constraints hold in every frame — asserted outright
        // in one-shot mode, activated by the frame guard in session mode.
        let guard = if let Some(guards) = &mut self.frame_guards {
            let g = Lit::pos(self.bb.solver_mut().new_var());
            guards.push(g);
            Some(g)
        } else {
            None
        };
        if let Some(st) = self.stamps[idx].clone() {
            // Stamped frames carry pre-encoded (polarity-aware)
            // constraint literals; activation is positive-phase only,
            // which is exactly what the encoding guarantees.
            let tpl = self.template.clone().expect("stamped frame has a template");
            let t = self.bb.true_lit();
            for i in 0..self.ts.constraints().len() {
                let l = tpl.constraint_lit(&st, i, t);
                match guard {
                    Some(g) => {
                        self.bb.solver_mut().add_clause([!g, l]);
                    }
                    None => self.bb.assert_lit(l),
                }
            }
        } else {
            let constraints: Vec<ExprRef> = self.ts.constraints().to_vec();
            for c in constraints {
                let l = self.lit_at(idx, c);
                match guard {
                    Some(g) => {
                        self.bb.solver_mut().add_clause([!g, l]);
                    }
                    None => self.bb.assert_lit(l),
                }
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
        match self.stamps[frame].clone() {
            Some(st) => {
                let tpl = self.template.clone().expect("stamped frame has a template");
                tpl.materialize(self.ctx, &mut self.bb, &mut self.frames[frame], &st, expr)
            }
            None => self.bb.blast(self.ctx, &mut self.frames[frame], expr),
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
        let mut ts = counter(&mut ctx);
        let c = ctx.find_symbol("count").unwrap();
        let eight = ctx.constant(8, 4);
        let lt8 = ctx.ult(c, eight);
        ts.add_constraint(lt8);
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
        let mut ts = counter(&mut ctx);
        let c = ctx.find_symbol("count").unwrap();
        let eight = ctx.constant(8, 4);
        let lt8 = ctx.ult(c, eight);
        ts.add_constraint(lt8);
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
        let mut u = Unroller::with_mode(&ctx, &ts, false, false, UnrollMode::Template);
        u.ensure_frame(1);
        let a = u.lit_at(0, eq5);
        let b = u.lit_at(1, eq6);
        assert!(u.blaster_mut().solve_with_assumptions(&[a, b]).is_sat());
        assert!(u.blaster_mut().solve_with_assumptions(&[a, !b]).is_unsat());
    }

    #[test]
    fn template_mode_pins_reset_through_frame_zero() {
        let mut ctx = Context::new();
        let ts = counter(&mut ctx);
        let c = ctx.find_symbol("count").unwrap();
        let three = ctx.constant(3, 4);
        let eq3 = ctx.eq(c, three);
        let mut u = Unroller::with_mode(&ctx, &ts, true, true, UnrollMode::Template);
        u.ensure_frame(3);
        let l = u.lit_at(3, eq3);
        // A pinned unrolling keeps the DAG-walk (folding) path even in
        // Template mode, so count@3 == 3 is forced outright.
        assert!(u.blaster_mut().solve_with_assumptions(&[!l]).is_unsat());
    }

    #[test]
    fn template_mode_guarded_constraints_scope_like_dagwalk() {
        let mut ctx = Context::new();
        let mut ts = counter(&mut ctx);
        let c = ctx.find_symbol("count").unwrap();
        let eight = ctx.constant(8, 4);
        let lt8 = ctx.ult(c, eight);
        ts.add_constraint(lt8);
        let seven = ctx.constant(7, 4);
        let eq7 = ctx.eq(c, seven);
        let mut u = Unroller::with_mode(&ctx, &ts, false, true, UnrollMode::Template);
        u.ensure_frame(2);
        let g0 = u.frame_guard(0).expect("guarded");
        let g1 = u.frame_guard(1).expect("guarded");
        let l = u.lit_at(0, eq7);
        assert!(u.blaster_mut().solve_with_assumptions(&[g0, l]).is_sat());
        assert!(u.blaster_mut().solve_with_assumptions(&[g0, g1, l]).is_unsat());
    }
}
