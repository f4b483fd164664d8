//! Incremental proof sessions: persistent base/step solvers per design.
//!
//! The paper's Flow 1/Flow 2 loops spend nearly all their time in repeated
//! SAT checks over the *same* transition relation: every candidate lemma is
//! BMC-sanity-checked and induction-checked, every Houdini strengthening
//! iteration re-queries the step case, and every target proof walks the
//! same frames again. Rebuilding an [`Unroller`] (a full re-bit-blast plus
//! a brand-new solver that must re-learn everything) for each of those
//! queries is the dominant cost.
//!
//! A [`ProofSession`] owns **two persistent guarded unrollers** for one
//! `(Context, TransitionSystem)` pair — a *base* unrolling with the reset
//! state pinned (so the bit-blaster folds reset constants through every
//! frame, exactly as a one-shot BMC run would) and a *step* unrolling with
//! a free initial state — and answers every query with
//! `solve_with_assumptions` on the matching solver:
//!
//! * **frame windows** — environment constraints (and installed lemmas)
//!   activate per frame through guard literals, so a query over frames
//!   `0..=k` of a long-lived unrolling is equivalent to a fresh `k`-frame
//!   unrolling: deeper frames never restrict shallower ones, and frames
//!   only ever grow;
//! * **retractable facts** — callers guard step-case hypotheses behind
//!   *selector literals* ([`ProofSession::new_selector`] /
//!   [`ProofSession::guard_fact`]); dropping a hypothesis is one unit
//!   clause ([`ProofSession::retire_selector`]) instead of a rebuild.
//!   Houdini uses this to deactivate falsified candidates in place;
//! * **batched obligations** — [`ProofSession::new_violation_witness`]
//!   builds a literal implying "at least one of these obligations is
//!   violated", so a whole Houdini sweep is a single solver call whose
//!   model reveals every falsified candidate at once;
//! * **proof cores** — after an UNSAT answer,
//!   [`ProofSession::last_core`] names the assumptions (hypothesis
//!   selectors included) that actually carried the proof.
//!
//! ## Soundness of retraction
//!
//! Retiring a selector adds only the unit clause `¬sel`, which satisfies
//! every clause guarded by that selector without touching any other
//! clause — in particular without touching the transition relation or the
//! solver's learnt clauses, which remain sound consequences. The solver
//! is therefore always equivalent to a fresh solver loaded with only the
//! still-active hypotheses; see [`genfv_sat::assume`] for the full
//! argument and the `session_lemma_proptest` suite for the executable
//! form (random add/retract orders versus fresh sessions).
//!
//! All solver reuse is observable through [`SessionStats`]
//! (`bitblasts`, `rebuilds_avoided`, `clauses_retained`, per-query
//! conflicts), which the `genfv-core` flow reports surface.
//!
//! Compile every property (and candidate monitor) into the
//! `Context`/`TransitionSystem` **before** creating the session: the frames
//! bind state symbols as they are built, so later-added monitor state would
//! unroll unconstrained.

use crate::engine::{BmcResult, CheckConfig, CheckStats, Property, ProveResult};
use crate::trace::{read_symbol_cycles, Trace, TraceKind};
use crate::unroll::{UnrollMode, Unroller};
use genfv_ir::{Context, ExprRef, Template, TransitionSystem};
use genfv_obs::QueryKind;
use genfv_sat::{ActivationGroup, Lit, QueryEffort, SolveResult};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Shared warm-start capital for sessions over one design: the cross-
/// session (and cross-thread) handle behind the `genfv-service` session
/// cache.
///
/// A [`ProofSession`] is tied to one borrow of a design, so it cannot
/// itself outlive a request. What *can* outlive the request is the
/// session's transferable capital:
///
/// * the **step-direction [`Template`]** — the one-time blast of the
///   transition relation that [`UnrollMode::Template`] frames stamp from.
///   Building it is the dominant fixed cost of a fresh session; every
///   identically-laid-out design can stamp from the same block;
/// * the **clean-depth facts** — "no violation of `ok` at cycle `k` from
///   reset" answers (UNSAT base cases). These are sound facts about the
///   design alone: they are discovered with only *proven* lemmas assumed,
///   so they hold in every future session over the same design and let
///   repeat traffic skip its base cases outright.
///
/// Attach a seed through [`CheckConfig::seed`]; [`ProofSession::new`]
/// adopts it only when the seed's **fingerprint** matches the design it
/// is given (node/state/constraint layout), so a seed built for one
/// design can never leak a template or clean facts into a *mutated*
/// design (e.g. after a lemma monitor is compiled in) or into the
/// monitor-augmented clones candidate validation works on — those
/// sessions silently run unseeded. Sessions publish newly learnt clean
/// depths back into the seed when they are dropped, so capital compounds
/// across requests. All methods are thread-safe; merging is monotone
/// (`max` per property), so concurrent sessions only ever deepen the
/// clean facts.
///
/// No learnt clause crosses a session boundary: a seeded session differs
/// from a cold one only by the base cases it skips and by stamping from
/// a shared (deterministically built) template, so its step-direction
/// models are bit-identical to a cold session's. Under a
/// [`CheckConfig::conflict_budget`] a seeded session can answer *more*
/// than a cold one (a skipped base case consumes no budget); it can never
/// answer differently on queries both complete.
#[derive(Debug)]
pub struct SessionSeed {
    /// Layout fingerprint of the design this seed belongs to, XORed with
    /// `salt` at construction.
    fingerprint: u64,
    /// Caller-supplied discriminator mixed into the fingerprint (the
    /// service passes the design's `OptLevel` salt so warm capital built
    /// from an optimized system is never adopted by a differently-optimized
    /// copy of the same source, even if their layouts collide).
    salt: u64,
    /// The shared step-direction template, built by the first seeded
    /// session that needs it.
    template: Mutex<Option<Arc<Template>>>,
    /// Deepest from-reset cycle proven violation-free per observable,
    /// merged from every seeded session over this design.
    clean: Mutex<HashMap<ExprRef, usize>>,
    /// Times a session reused the already-built template.
    template_reuses: AtomicU64,
    /// Times a session had to build the template (0 or 1 in practice).
    template_builds: AtomicU64,
}

impl SessionSeed {
    /// Creates an empty seed for the given design (salt 0).
    pub fn for_design(ctx: &Context, ts: &TransitionSystem) -> Arc<SessionSeed> {
        Self::for_design_salted(ctx, ts, 0)
    }

    /// Creates an empty seed whose fingerprint additionally carries a
    /// caller-chosen `salt` (e.g. [`genfv_ir::OptLevel::salt`]). Sessions
    /// over the same `(ctx, ts)` layout still adopt the seed — the salt is
    /// accounted for in [`SessionSeed::matches`] — but two seeds with
    /// different salts never report the same fingerprint.
    pub fn for_design_salted(ctx: &Context, ts: &TransitionSystem, salt: u64) -> Arc<SessionSeed> {
        Arc::new(SessionSeed {
            fingerprint: Self::fingerprint(ctx, ts) ^ salt,
            salt,
            template: Mutex::new(None),
            clean: Mutex::new(HashMap::new()),
            template_reuses: AtomicU64::new(0),
            template_builds: AtomicU64::new(0),
        })
    }

    /// The salt this seed was created with (0 unless the creator passed
    /// one via [`SessionSeed::for_design_salted`]).
    pub fn salt(&self) -> u64 {
        self.salt
    }

    /// A layout fingerprint: every hash-consed node's content plus the
    /// expression indices of every state, input, constraint, and signal.
    /// Two designs prepared from identical sources share it; compiling
    /// anything further onto the design (lemma monitors, candidate
    /// monitors) changes it. Only compared within one process, so the
    /// std hasher's stability guarantees suffice.
    pub fn fingerprint(ctx: &Context, ts: &TransitionSystem) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut nodes = std::collections::hash_map::DefaultHasher::new();
        for i in 0..ctx.num_nodes() {
            ctx.expr(ExprRef::from_index(i)).hash(&mut nodes);
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v.wrapping_add(0x9e37_79b9_7f4a_7c15);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        mix(ctx.num_nodes() as u64);
        mix(nodes.finish());
        for s in ts.states() {
            mix(s.symbol.index() as u64);
            mix(s.init.map(|e| e.index() as u64 + 1).unwrap_or(0));
            mix(s.next.index() as u64);
        }
        for &i in ts.inputs() {
            mix(i.index() as u64);
        }
        for &c in ts.constraints() {
            mix(c.index() as u64);
        }
        mix(ts.signals().len() as u64);
        h
    }

    /// Whether this seed was built for a design with this layout (the
    /// seed's own salt is accounted for).
    pub fn matches(&self, ctx: &Context, ts: &TransitionSystem) -> bool {
        self.fingerprint == Self::fingerprint(ctx, ts) ^ self.salt
    }

    /// The shared template, building it on first use. Callers must have
    /// checked [`SessionSeed::matches`] first.
    fn template_for(&self, ctx: &Context, ts: &TransitionSystem) -> Arc<Template> {
        let mut slot = self.template.lock().expect("seed template lock");
        match &*slot {
            Some(t) => {
                self.template_reuses.fetch_add(1, Ordering::Relaxed);
                Arc::clone(t)
            }
            None => {
                let t = Arc::new(Template::build(ctx, ts));
                self.template_builds.fetch_add(1, Ordering::Relaxed);
                *slot = Some(Arc::clone(&t));
                t
            }
        }
    }

    /// Whether the template has already been built (a session created now
    /// would stamp without paying the blast).
    pub fn template_ready(&self) -> bool {
        self.template.lock().expect("seed template lock").is_some()
    }

    /// Times sessions reused the already-built template.
    pub fn template_reuses(&self) -> u64 {
        self.template_reuses.load(Ordering::Relaxed)
    }

    /// A snapshot of the seeded clean depths.
    fn clean_snapshot(&self) -> HashMap<ExprRef, usize> {
        self.clean.lock().expect("seed clean lock").clone()
    }

    /// Number of observables with a seeded clean depth.
    pub fn clean_entries(&self) -> usize {
        self.clean.lock().expect("seed clean lock").len()
    }

    /// Merges a dying session's clean depths into the seed (monotone:
    /// depths only deepen).
    fn publish_clean(&self, facts: &HashMap<ExprRef, usize>) {
        let mut clean = self.clean.lock().expect("seed clean lock");
        for (&ok, &k) in facts {
            let entry = clean.entry(ok).or_insert(k);
            *entry = (*entry).max(k);
        }
    }

    /// Rough heap footprint (template clause arena, clean depths), for
    /// cache byte budgets.
    pub fn approx_bytes(&self) -> usize {
        let template = self
            .template
            .lock()
            .expect("seed template lock")
            .as_ref()
            // ~16 bytes per clause of arena payload plus per-var metadata.
            .map(|t| t.num_clauses() * 16 + t.num_vars() as usize * 8)
            .unwrap_or(0);
        template + self.clean.lock().expect("seed clean lock").len() * 24
    }
}

/// Observability for one [`ProofSession`]: how much work the persistent
/// solvers absorbed that a rebuild-per-query architecture would have
/// repeated.
#[derive(Clone, Copy, Debug, Default)]
pub struct SessionStats {
    /// Transition-relation loads performed (always 1 per session — the
    /// base and step directions are each bit-blasted once, however many
    /// queries follow; a rebuild architecture pays this per check).
    pub bitblasts: u64,
    /// Solver queries issued through this session.
    pub solver_calls: u64,
    /// Queries after the first: each reused a loaded clause database
    /// where the rebuild architecture would have re-bit-blasted.
    pub rebuilds_avoided: u64,
    /// Live problem clauses across the session's solvers at the most
    /// recent query — the formula capital carried from query to query.
    pub clauses_retained: u64,
    /// Highest frame index unrolled so far (either direction).
    pub max_frame: usize,
    /// Selector (activation) literals created.
    pub selectors_created: u64,
    /// Selectors permanently deactivated.
    pub selectors_retired: u64,
    /// Conflicts of the most recent query (the race winner's alone when
    /// the query was raced).
    pub last_query_conflicts: u64,
    /// Assumption-core size of the most recent UNSAT answer.
    pub last_core_size: u64,
    /// Total conflicts across all queries, every portfolio worker's
    /// included.
    pub conflicts: u64,
    /// Total decisions across all queries.
    pub decisions: u64,
    /// Total propagations across all queries.
    pub propagations: u64,
    /// Queries escalated to a portfolio race (past the solo probe).
    pub portfolio_races: u64,
    /// Glue clauses imported from losing portfolio workers.
    pub portfolio_glue_shared: u64,
    /// Base-case queries skipped outright because a [`SessionSeed`]
    /// carried the clean-depth fact in from an earlier session.
    pub clean_seed_hits: u64,
    /// Sessions that stamped from a seed's already-built template instead
    /// of blasting their own.
    pub templates_reused: u64,
    /// Always 0 since cube-and-conquer was removed; kept because
    /// `e0_ledger` reads it; delete with the next benchmark change.
    pub cube_splits: u64,
    /// Always 0 since cube-and-conquer was removed; kept because
    /// `e0_ledger` reads it; delete with the next benchmark change.
    pub cubes_raced: u64,
    /// Always 0 since the clause pool was removed: ignored; kept because
    /// `e0_ledger` names it; delete with the next benchmark change.
    pub pool_clauses_imported: u64,
    /// Always 0 since the clause pool was removed: ignored; kept because
    /// `e0_ledger` names it; delete with the next benchmark change.
    pub pool_clauses_exported: u64,
    /// Always 0 since the clause pool was removed: ignored; kept because
    /// `e0_ledger` names it; delete with the next benchmark change.
    pub pool_hits: u64,
}

// Folding another session's counters into this one (used when several
// sessions serve one logical run, e.g. the validation batches and
// lemma-installation rebuilds in the flows). `last_*` fields only follow a
// session that actually queried — don't clobber with zeros.
genfv_obs::impl_accumulate!(SessionStats {
    add: [
        bitblasts,
        solver_calls,
        rebuilds_avoided,
        selectors_created,
        selectors_retired,
        conflicts,
        decisions,
        propagations,
        portfolio_races,
        portfolio_glue_shared,
        clean_seed_hits,
        templates_reused,
    ],
    max: [clauses_retained, max_frame],
    last_if solver_calls: [last_query_conflicts, last_core_size],
});

/// The two persistent proof directions of a session.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Dir {
    /// From-reset unrolling (reset values pinned and constant-folded).
    Base,
    /// Arbitrary-start unrolling (induction step, Houdini fixpoint).
    Step,
}

/// A persistent incremental checker for one design.
///
/// See the [module docs](self) for the architecture. The session borrows
/// the design's `Context` and `TransitionSystem`; everything mutable
/// (solvers, frames, selectors, lemmas) lives inside.
#[derive(Debug)]
pub struct ProofSession<'c> {
    ctx: &'c Context,
    ts: &'c TransitionSystem,
    /// From-reset unrolling: init pinned, constraints frame-guarded.
    base: Unroller<'c>,
    /// Arbitrary-start unrolling: free init, constraints frame-guarded.
    step: Unroller<'c>,
    config: CheckConfig,
    /// Installed lemmas, activated at every frame of both directions
    /// through the frame guards.
    lemmas: Vec<ExprRef>,
    /// Base frames `0..lemma_frames_base` have all current lemmas active.
    lemma_frames_base: usize,
    /// Step frames `0..lemma_frames_step` have all current lemmas active.
    lemma_frames_step: usize,
    /// Deepest from-reset cycle proven violation-free per observable, by
    /// earlier UNSAT base queries on this session. Lemma installation
    /// only shrinks the model set, so cached cleanliness stays valid;
    /// `prove` uses it to skip base cases that `bmc_check` already
    /// discharged — reuse a rebuild architecture cannot express.
    clean_upto: std::collections::HashMap<ExprRef, usize>,
    /// Per-property step-case activation: `sel → ok@frame` for every
    /// frame `< covered`. Step queries assume the one selector instead of
    /// `k` separate `ok` literals, so learnt clauses are conditioned on a
    /// *stable* literal and transfer across induction depths (and across
    /// the properties of a shared session). A step query at depth `k`
    /// reuses the guard only while `covered <= k`.
    step_prop_guards: std::collections::HashMap<ExprRef, (Lit, usize)>,
    /// Warm-start capital adopted from [`CheckConfig::seed`] when the
    /// seed's fingerprint matches this design; learnt clean depths are
    /// published back into it when the session drops.
    seed: Option<Arc<SessionSeed>>,
    /// The clean depths that came in from the seed, kept apart from
    /// locally-discovered ones so seed hits are attributable.
    seeded_clean: HashMap<ExprRef, usize>,
    /// Simple-path activation literal (created on first use, step side).
    sp_guard: Option<Lit>,
    /// Simple-path pairs exist for all `(i, j)` with `j <= sp_frames`.
    sp_frames: usize,
    /// Selector allocator/bookkeeper for the step solver (hypotheses,
    /// violation witnesses); lives in `genfv-sat`.
    selectors: ActivationGroup,
    /// Solver effort of the most recent query. In portfolio mode this is
    /// the winning worker's race-wide effort (probe and every epoch
    /// included), which the winner solver's own `last_*` counters
    /// undercount.
    last_effort: QueryEffort,
    stats: SessionStats,
}

impl<'c> ProofSession<'c> {
    /// Creates a session: the one (per-direction) bit-blast this design
    /// will get. In [`UnrollMode::Template`] (the default) the free-start
    /// step direction stamps its frames from a one-time
    /// [`genfv_ir::Template`] blast; the reset-pinned base direction
    /// always keeps the constant-folding DAG-walk path (pinned frames are
    /// not frame-uniform, so stamping cannot beat folding there).
    pub fn new(ctx: &'c Context, ts: &'c TransitionSystem, config: CheckConfig) -> Self {
        // Adopt the caller's seed only when it was built for exactly this
        // design layout — validation clones (extra monitor state) and
        // post-lemma-install designs silently run unseeded.
        let seed = config.seed.as_ref().filter(|s| s.matches(ctx, ts)).map(Arc::clone);
        let mut stats = SessionStats { bitblasts: 1, ..Default::default() };
        let mut base = Unroller::new_guarded(ctx, ts, true);
        let mut step = match config.unroll_mode {
            UnrollMode::Template => {
                let tpl = match &seed {
                    Some(s) => {
                        let ready = s.template_ready();
                        let t = s.template_for(ctx, ts);
                        if ready {
                            stats.templates_reused += 1;
                        }
                        t
                    }
                    None => Arc::new(Template::build(ctx, ts)),
                };
                Unroller::with_shared_template(ctx, ts, false, true, tpl)
            }
            UnrollMode::DagWalk => Unroller::new_guarded(ctx, ts, false),
        };
        // Thread the observability handle into both persistent solvers so
        // every query records a `solve.<kind>` span and per-kind metrics
        // (portfolio worker clones inherit the handle).
        base.blaster_mut().solver_mut().set_obs(config.obs.clone());
        base.blaster_mut().solver_mut().set_query_kind(QueryKind::Base);
        step.blaster_mut().solver_mut().set_obs(config.obs.clone());
        step.blaster_mut().solver_mut().set_query_kind(QueryKind::Step);
        let seeded_clean = seed.as_ref().map(|s| s.clean_snapshot()).unwrap_or_default();
        ProofSession {
            ctx,
            ts,
            base,
            step,
            config,
            lemmas: Vec::new(),
            lemma_frames_base: 0,
            lemma_frames_step: 0,
            clean_upto: seeded_clean.clone(),
            step_prop_guards: std::collections::HashMap::new(),
            seed,
            seeded_clean,
            sp_guard: None,
            sp_frames: 0,
            selectors: ActivationGroup::new(),
            last_effort: QueryEffort::default(),
            stats,
        }
    }

    /// Reuse counters.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// The check configuration the session applies to its queries.
    pub fn config(&self) -> &CheckConfig {
        &self.config
    }

    fn sync_selector_stats(&mut self) {
        self.stats.selectors_created = self.selectors.created;
        self.stats.selectors_retired = self.selectors.retired;
    }

    fn un(&mut self, dir: Dir) -> &mut Unroller<'c> {
        match dir {
            Dir::Base => &mut self.base,
            Dir::Step => &mut self.step,
        }
    }

    /// Installs a proven lemma: activated at every existing and future
    /// frame of both directions (scoped to the query window through the
    /// frame guards).
    pub fn add_lemma(&mut self, lemma: ExprRef) {
        for dir in [Dir::Base, Dir::Step] {
            let upto = match dir {
                Dir::Base => self.lemma_frames_base,
                Dir::Step => self.lemma_frames_step,
            };
            for frame in 0..upto {
                let un = self.un(dir);
                let l = un.lit_at(frame, lemma);
                let g = un.frame_guard(frame).expect("session unroller is guarded");
                un.blaster_mut().solver_mut().add_clause([!g, l]);
            }
        }
        self.lemmas.push(lemma);
    }

    /// Installs several lemmas.
    pub fn add_lemmas(&mut self, lemmas: &[ExprRef]) {
        for &l in lemmas {
            self.add_lemma(l);
        }
    }

    /// Ensures frames `0..=upto` exist in `dir`, with lemmas activated.
    fn ensure_frames_dir(&mut self, dir: Dir, upto: usize) {
        let have = self.un(dir).frames().len();
        let _span = (upto >= have).then(|| {
            let name = match dir {
                Dir::Base => "session.extend.base",
                Dir::Step => "session.extend.step",
            };
            self.config.obs.span_with(name, || format!("frames={have}..={upto}"))
        });
        self.un(dir).ensure_frame(upto);
        loop {
            let done = match dir {
                Dir::Base => self.lemma_frames_base > upto,
                Dir::Step => self.lemma_frames_step > upto,
            };
            if done {
                break;
            }
            let frame = match dir {
                Dir::Base => self.lemma_frames_base,
                Dir::Step => self.lemma_frames_step,
            };
            for i in 0..self.lemmas.len() {
                let lemma = self.lemmas[i];
                let un = self.un(dir);
                let l = un.lit_at(frame, lemma);
                let g = un.frame_guard(frame).expect("session unroller is guarded");
                un.blaster_mut().solver_mut().add_clause([!g, l]);
            }
            match dir {
                Dir::Base => self.lemma_frames_base += 1,
                Dir::Step => self.lemma_frames_step += 1,
            }
        }
        self.stats.max_frame = self.stats.max_frame.max(upto);
    }

    /// Ensures step frames `0..=upto` exist, with lemmas activated in
    /// each. (The step direction is where callers place hypotheses and
    /// obligations; base frames grow on demand through the from-reset
    /// checks.)
    pub fn ensure_frames(&mut self, upto: usize) {
        self.ensure_frames_dir(Dir::Step, upto);
    }

    /// The literal of a 1-bit expression in step frame `frame` (frames
    /// are created on demand).
    pub fn literal(&mut self, frame: usize, expr: ExprRef) -> Lit {
        self.ensure_frames_dir(Dir::Step, frame);
        self.step.lit_at(frame, expr)
    }

    /// Creates a fresh selector (activation) literal on the step solver.
    pub fn new_selector(&mut self) -> Lit {
        let sel = self.selectors.fresh(self.step.blaster_mut().solver_mut());
        self.sync_selector_stats();
        sel
    }

    /// Adds `selector → expr@frame` on the step side: assuming the
    /// selector activates the fact; retiring the selector erases it
    /// without touching the solver's clause capital.
    pub fn guard_fact(&mut self, selector: Lit, frame: usize, expr: ExprRef) {
        let l = self.literal(frame, expr);
        self.selectors.imply(self.step.blaster_mut().solver_mut(), selector, l);
    }

    /// Permanently deactivates a selector (one unit clause, no rebuild).
    /// Sound by the retraction argument in [`genfv_sat::assume`].
    pub fn retire_selector(&mut self, selector: Lit) {
        self.selectors.retire(self.step.blaster_mut().solver_mut(), selector);
        self.sync_selector_stats();
    }

    /// Builds a witness literal implying "at least one of these facts is
    /// violated": `w → ⋁ ¬expr@frame` (step side). Assuming `w` asks the
    /// solver to find a model violating one of a whole batch of
    /// obligations in a single query; on SAT, probe each obligation with
    /// [`ProofSession::value`].
    pub fn new_violation_witness(&mut self, obligations: &[(usize, ExprRef)]) -> Lit {
        let facts: Vec<Lit> =
            obligations.iter().map(|&(frame, expr)| self.literal(frame, expr)).collect();
        let w = self.selectors.any_violated(self.step.blaster_mut().solver_mut(), &facts);
        self.sync_selector_stats();
        w
    }

    fn solve_on(&mut self, dir: Dir, window: usize, extra: &[Lit]) -> SolveResult {
        self.ensure_frames_dir(dir, window);
        let mut assumptions = Vec::with_capacity(window + 1 + extra.len());
        // The caller's assumptions (obligations, hypothesis selectors) go
        // first so the search is focused on the actual query before the
        // window guards are enabled.
        assumptions.extend_from_slice(extra);
        for frame in 0..=window {
            let g = self.un(dir).frame_guard(frame).expect("session unroller is guarded");
            assumptions.push(g);
        }
        let (result, conflicts_spent) = match self.config.portfolio.clone() {
            Some(pcfg) => {
                // Portfolio-backed query: the direction's loaded solver is
                // cloned across jittered worker configurations and the
                // winner (with the losers' shared glue) takes its place.
                // The selector/assumption discipline makes the query
                // self-contained, so no re-bit-blast is ever needed.
                let budget = self.config.conflict_budget;
                let portfolio = genfv_portfolio::Portfolio::new(pcfg);
                let out =
                    portfolio.race(self.un(dir).blaster_mut().solver_mut(), &assumptions, budget);
                if out.raced {
                    self.stats.portfolio_races += 1;
                    self.stats.portfolio_glue_shared += out.glue_imported as u64;
                }
                self.last_effort = QueryEffort {
                    conflicts: out.winner.conflicts,
                    decisions: out.winner.decisions,
                    propagations: out.winner.propagations,
                };
                // The session pays for every worker's search, not only
                // the winner's.
                (out.result, out.conflicts_total)
            }
            None => {
                if let Some(b) = self.config.conflict_budget {
                    self.un(dir).blaster_mut().solver_mut().set_conflict_budget(b);
                }
                let result = self.un(dir).blaster_mut().solve_with_assumptions(&assumptions);
                self.last_effort = self.un(dir).blaster().solver().stats().last_effort();
                (result, self.last_effort.conflicts)
            }
        };
        let clauses =
            self.base.blaster().solver().num_clauses() + self.step.blaster().solver().num_clauses();
        let core = {
            let solver = self.un(dir).blaster().solver();
            if result.is_unsat() {
                solver.last_core().len() as u64
            } else {
                0
            }
        };
        let last = self.last_effort;
        self.stats.solver_calls += 1;
        if self.stats.solver_calls > 1 {
            self.stats.rebuilds_avoided += 1;
        }
        self.stats.clauses_retained = clauses as u64;
        self.stats.last_query_conflicts = last.conflicts;
        self.stats.conflicts += conflicts_spent;
        self.stats.decisions += last.decisions;
        self.stats.propagations += last.propagations;
        if result.is_unsat() {
            self.stats.last_core_size = core;
        }
        result
    }

    /// Solves under the session discipline: frame guards `0..=window` of
    /// the chosen direction plus the caller's assumptions. `from_reset`
    /// selects the base (pinned-reset) unrolling; otherwise the step
    /// (arbitrary-start) unrolling answers — so step-side literals
    /// (selectors, obligations) belong in `extra` only when `from_reset`
    /// is `false`. Applies the configured conflict budget.
    pub fn solve_under(&mut self, from_reset: bool, window: usize, extra: &[Lit]) -> SolveResult {
        self.solve_on(if from_reset { Dir::Base } else { Dir::Step }, window, extra)
    }

    /// The value of `lit` in the most recent satisfying step-side model.
    pub fn value(&self, lit: Lit) -> Option<bool> {
        self.step.blaster().solver().value(lit)
    }

    /// The subset of the most recent step query's assumptions responsible
    /// for UNSAT (see [`genfv_sat::Solver::last_core`]).
    pub fn last_core(&self) -> &[Lit] {
        self.step.blaster().solver().last_core()
    }

    fn trace(&self, dir: Dir, name: &str, kind: TraceKind, upto: usize) -> Trace {
        let un = match dir {
            Dir::Base => &self.base,
            Dir::Step => &self.step,
        };
        let cycles = read_symbol_cycles(self.ctx, self.ts, un.blaster(), &un.frames()[..=upto]);
        Trace::from_symbol_cycles(self.ctx, self.ts, name, kind, &cycles)
    }

    fn drain_check_stats(&mut self, _dir: Dir, stats: &mut CheckStats) {
        let e = self.last_effort;
        stats.conflicts += e.conflicts;
        stats.decisions += e.decisions;
        stats.propagations += e.propagations;
        stats.solver_calls += 1;
    }

    /// Bounded model checking of `property` (plus the installed lemmas) up
    /// to `depth` cycles from reset. Frames and learnt clauses persist
    /// into later checks on this session.
    pub fn bmc_check(&mut self, property: &Property, depth: usize) -> BmcResult {
        let _span = self.config.obs.span_with("bmc", || format!("{} depth={depth}", property.name));
        let start = Instant::now();
        let mut stats = CheckStats::default();
        let skip = self.clean_upto.get(&property.ok).copied();
        for k in 0..=depth {
            if skip.is_some_and(|clean| k <= clean) {
                // Proven clean by an earlier query on this session (or by
                // a previous session that published into the seed).
                self.note_clean_skip(property.ok, k);
                continue;
            }
            self.ensure_frames_dir(Dir::Base, k);
            let bad = !self.base.lit_at(k, property.ok);
            let res = self.solve_on(Dir::Base, k, &[bad]);
            self.drain_check_stats(Dir::Base, &mut stats);
            match res {
                SolveResult::Sat => {
                    let trace = self.trace(
                        Dir::Base,
                        &property.name,
                        TraceKind::CounterexampleFromReset,
                        k,
                    );
                    stats.duration = start.elapsed();
                    return BmcResult::Falsified { at: k, trace, stats };
                }
                SolveResult::Unsat => self.record_clean(property.ok, k),
                SolveResult::Unknown => {
                    // Budget exhausted: report what we know (clean so far).
                    stats.duration = start.elapsed();
                    return BmcResult::Clean { depth: k.saturating_sub(1), stats };
                }
            }
        }
        stats.duration = start.elapsed();
        BmcResult::Clean { depth, stats }
    }

    /// Records that `ok` has no violation at cycle `k` from reset (an
    /// UNSAT base answer). Monotone: installing more lemmas only shrinks
    /// the model set, so the fact never needs invalidation.
    fn record_clean(&mut self, ok: ExprRef, k: usize) {
        let entry = self.clean_upto.entry(ok).or_insert(k);
        *entry = (*entry).max(k);
    }

    /// Accounts for a skipped base-case query: if the clean fact that
    /// carried it arrived through the seed (rather than an earlier query
    /// on this session), it is a cross-session cache hit.
    fn note_clean_skip(&mut self, ok: ExprRef, k: usize) {
        if self.seeded_clean.get(&ok).is_some_and(|&clean| k <= clean) {
            self.stats.clean_seed_hits += 1;
        }
    }

    /// Bounded reachability without trace extraction: the earliest cycle
    /// `<= depth` at which `ok` is violated from reset, or `None` if the
    /// bound is clean. Queries frame by frame (early exit on the first
    /// violation) so frames unroll only as deep as the answer requires —
    /// and stay unrolled for every later check on this session. `Unknown`
    /// (budget) counts as "no violation found", like
    /// [`ProofSession::bmc_check`].
    pub fn first_violation(&mut self, ok: ExprRef, depth: usize) -> Option<usize> {
        let skip = self.clean_upto.get(&ok).copied();
        for k in 0..=depth {
            if skip.is_some_and(|clean| k <= clean) {
                // Proven clean by an earlier query on this session (or by
                // a previous session that published into the seed).
                self.note_clean_skip(ok, k);
                continue;
            }
            self.ensure_frames_dir(Dir::Base, k);
            let bad = !self.base.lit_at(k, ok);
            match self.solve_on(Dir::Base, k, &[bad]) {
                SolveResult::Sat => return Some(k),
                SolveResult::Unsat => self.record_clean(ok, k),
                SolveResult::Unknown => return None,
            }
        }
        None
    }

    /// Whether any violation of `ok` is reachable within `depth` cycles —
    /// the base-case form Houdini uses, where the earliest violating cycle
    /// is irrelevant.
    pub fn any_violation(&mut self, ok: ExprRef, depth: usize) -> bool {
        self.first_violation(ok, depth).is_some()
    }

    /// K-induction proof attempt for `property` under the installed
    /// lemmas, entirely by assumptions on the persistent solvers: the step
    /// case assumes the property at frames `0..k` and asks for a violation
    /// at frame `k`; the base case runs on the pinned-reset unrolling.
    /// Matches [`crate::engine::KInduction::prove`] answer-for-answer.
    pub fn prove(&mut self, property: &Property) -> ProveResult {
        let _span = self.config.obs.span_with("prove", || property.name.clone());
        let start = Instant::now();
        let mut stats = CheckStats::default();

        for k in 1..=self.config.max_k {
            // --- base case: no violation in cycles 0..k from reset -------
            // Skipped when an earlier BMC/reachability query on this
            // session already proved cycle k-1 clean (the validation
            // gauntlet's sanity check makes this the common case).
            let cached_clean =
                self.clean_upto.get(&property.ok).is_some_and(|&clean| k - 1 <= clean);
            if cached_clean {
                self.note_clean_skip(property.ok, k - 1);
            } else {
                self.ensure_frames_dir(Dir::Base, k - 1);
                let bad_base = !self.base.lit_at(k - 1, property.ok);
                let res = self.solve_on(Dir::Base, k - 1, &[bad_base]);
                self.drain_check_stats(Dir::Base, &mut stats);
                match res {
                    SolveResult::Sat => {
                        let trace = self.trace(
                            Dir::Base,
                            &property.name,
                            TraceKind::CounterexampleFromReset,
                            k - 1,
                        );
                        stats.duration = start.elapsed();
                        return ProveResult::Falsified { at: k - 1, trace, stats };
                    }
                    SolveResult::Unsat => self.record_clean(property.ok, k - 1),
                    SolveResult::Unknown => {
                        stats.duration = start.elapsed();
                        return ProveResult::Unknown {
                            reason: format!("base-case budget exhausted at k={k}"),
                            stats,
                        };
                    }
                }
            }

            // --- step case ------------------------------------------------
            self.ensure_frames_dir(Dir::Step, k);
            // The property is assumed at frames 0..k through one stable
            // activation literal (`guard → ok@frame`): learnt clauses
            // carry that single literal instead of a depth-dependent set
            // of `ok` assumptions, so conflict knowledge from earlier
            // depths — and earlier properties on this session — stays
            // usable. A guard that an earlier `prove` of the same `ok`
            // extended past `k` also implies `ok@k`, which would make the
            // step query trivially UNSAT: that one is left alone and a
            // fresh selector takes its place.
            let (guard, covered) = match self.step_prop_guards.get(&property.ok) {
                Some(&(g, c)) if c <= k => (g, c),
                _ => (self.new_selector(), 0),
            };
            for frame in covered..k {
                let ok = self.step.lit_at(frame, property.ok);
                self.selectors.imply(self.step.blaster_mut().solver_mut(), guard, ok);
            }
            self.step_prop_guards.insert(property.ok, (guard, covered.max(k)));
            let mut assumptions: Vec<Lit> = Vec::with_capacity(3);
            assumptions.push(guard);
            if self.config.simple_path {
                let g = match self.sp_guard {
                    Some(g) => g,
                    None => {
                        let g = self.new_selector();
                        self.sp_guard = Some(g);
                        g
                    }
                };
                if self.sp_frames < k {
                    self.step.assert_simple_path_range(self.sp_frames + 1, k, Some(g));
                    self.sp_frames = k;
                }
                assumptions.push(g);
            }
            let bad_step = !self.step.lit_at(k, property.ok);
            assumptions.push(bad_step);
            let res = self.solve_on(Dir::Step, k, &assumptions);
            self.drain_check_stats(Dir::Step, &mut stats);
            match res {
                SolveResult::Unsat => {
                    stats.duration = start.elapsed();
                    return ProveResult::Proven { k, stats };
                }
                // A step CEX below `max_k` only sends the loop one depth
                // deeper; only the last one is reported, so only it pays
                // for trace extraction.
                SolveResult::Sat if k == self.config.max_k => {
                    let trace = self.trace(Dir::Step, &property.name, TraceKind::InductionStep, k);
                    stats.duration = start.elapsed();
                    return ProveResult::StepFailure { k, trace, stats };
                }
                SolveResult::Sat => {}
                SolveResult::Unknown => {
                    stats.duration = start.elapsed();
                    return ProveResult::Unknown {
                        reason: format!("step-case budget exhausted at k={k}"),
                        stats,
                    };
                }
            }
        }

        // Every depth returns or goes deeper, so only `max_k == 0` gets
        // here.
        stats.duration = start.elapsed();
        ProveResult::Unknown {
            reason: "no induction depth attempted (max_k = 0?)".to_string(),
            stats,
        }
    }
}

impl Drop for ProofSession<'_> {
    /// Publishes this session's clean-depth facts into its seed (if any):
    /// the capital the next session over the same design starts from.
    /// Sound because every recorded fact is an UNSAT from-reset answer
    /// under proven-invariant assumptions only — a property of the design
    /// itself, not of this session's query history.
    fn drop(&mut self) {
        if let Some(seed) = &self.seed {
            seed.publish_clean(&self.clean_upto);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genfv_ir::Context;

    /// count' = count + 1, init 0, 4 bits.
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
    fn salted_seeds_stay_adoptable_but_distinct() {
        let mut ctx = Context::new();
        let ts = counter(&mut ctx);
        let c = ctx.find_symbol("count").unwrap();
        let five = ctx.constant(5, 4);
        let lt5 = ctx.ult(c, five);
        let plain = SessionSeed::for_design(&ctx, &ts);
        let salted = SessionSeed::for_design_salted(&ctx, &ts, 0xdead_beef);
        assert_eq!(plain.salt(), 0);
        assert_eq!(salted.salt(), 0xdead_beef);
        // Both match the design they were built for...
        assert!(plain.matches(&ctx, &ts));
        assert!(salted.matches(&ctx, &ts));
        // ...and a session adopts a salted seed exactly like a plain one.
        let config = CheckConfig { seed: Some(Arc::clone(&salted)), ..Default::default() };
        {
            let mut s = ProofSession::new(&ctx, &ts, config.clone());
            match s.bmc_check(&Property::new("lt5", lt5), 8) {
                BmcResult::Falsified { at, .. } => assert_eq!(at, 5),
                other => panic!("expected falsification: {other:?}"),
            }
        }
        assert!(salted.template_ready(), "salted seed accumulates warm capital");
        let warm = ProofSession::new(&ctx, &ts, config);
        assert_eq!(warm.stats().templates_reused, 1);
    }

    #[test]
    fn one_session_serves_bmc_and_induction() {
        let mut ctx = Context::new();
        let ts = counter(&mut ctx);
        let c = ctx.find_symbol("count").unwrap();
        let cc = ctx.eq(c, c);
        let trivially_true = Property::new("tauto", cc);
        let five = ctx.constant(5, 4);
        let lt5 = ctx.ult(c, five);
        let eventually_false = Property::new("lt5", lt5);

        let mut s = ProofSession::new(&ctx, &ts, CheckConfig::default());
        assert!(s.bmc_check(&trivially_true, 8).is_clean());
        assert!(s.prove(&trivially_true).is_proven());
        match s.bmc_check(&eventually_false, 8) {
            BmcResult::Falsified { at, .. } => assert_eq!(at, 5),
            other => panic!("expected falsification: {other:?}"),
        }
        let stats = s.stats();
        assert_eq!(stats.bitblasts, 1, "one persistent load for the whole session");
        assert_eq!(stats.rebuilds_avoided, stats.solver_calls - 1);
        assert!(stats.clauses_retained > 0);
    }

    #[test]
    fn reproving_a_property_repeats_its_step_failure() {
        // count < 12 is violated only at cycle 12, beyond max_k, and its
        // step fails at every depth (from count = 11). The first `prove`
        // extends the property's step guard over frames 0..3; a second
        // `prove` that reused it at k=1 would assume ok@1 and turn the
        // step query trivially UNSAT.
        let mut ctx = Context::new();
        let ts = counter(&mut ctx);
        let c = ctx.find_symbol("count").unwrap();
        let twelve = ctx.constant(12, 4);
        let lt12 = ctx.ult(c, twelve);
        let prop = Property::new("lt12", lt12);
        let config = CheckConfig { max_k: 3, ..Default::default() };
        let mut s = ProofSession::new(&ctx, &ts, config);
        for attempt in 0..2 {
            match s.prove(&prop) {
                ProveResult::StepFailure { k, .. } => assert_eq!(k, 3, "attempt {attempt}"),
                other => panic!("attempt {attempt}: expected a step failure, got {other:?}"),
            }
        }
    }

    #[test]
    fn selectors_activate_and_retire_hypotheses() {
        let mut ctx = Context::new();
        let ts = counter(&mut ctx);
        let c = ctx.find_symbol("count").unwrap();
        let nine = ctx.constant(9, 4);
        let eq9 = ctx.eq(c, nine);
        let mut s = ProofSession::new(&ctx, &ts, CheckConfig::default());

        let sel = s.new_selector();
        s.guard_fact(sel, 0, eq9);
        let l = s.literal(0, eq9);
        // Selector assumed: count@0 == 9 is forced.
        assert!(s.solve_under(false, 0, &[sel, !l]).is_unsat());
        // Selector not assumed: free.
        assert!(s.solve_under(false, 0, &[!l]).is_sat());
        // Retired: assuming the selector now contradicts nothing else but
        // can no longer force the fact — the clause is satisfied by ¬sel.
        s.retire_selector(sel);
        assert!(s.solve_under(false, 0, &[!l]).is_sat());
    }

    #[test]
    fn violation_witness_finds_the_violated_member() {
        let mut ctx = Context::new();
        let ts = counter(&mut ctx);
        let c = ctx.find_symbol("count").unwrap();
        let three = ctx.constant(3, 4);
        let lt3 = ctx.ult(c, three); // violated from reset at cycle 3
        let cc = ctx.eq(c, c); // never violated
        let mut s = ProofSession::new(&ctx, &ts, CheckConfig::default());
        assert!(s.any_violation(lt3, 8));
        assert!(!s.any_violation(cc, 8));
    }

    #[test]
    fn lemmas_scope_to_existing_and_future_frames() {
        let mut ctx = Context::new();
        let ts = counter(&mut ctx);
        let c = ctx.find_symbol("count").unwrap();
        let eight = ctx.constant(8, 4);
        let lt8 = ctx.ult(c, eight);
        let four = ctx.constant(4, 4);
        let lt4 = ctx.ult(c, four);

        let mut s = ProofSession::new(&ctx, &ts, CheckConfig::default());
        // Build some frames first, then install: both directions covered.
        s.ensure_frames(2);
        s.add_lemma(lt4);
        let l0 = s.literal(0, lt8);
        // lt4@0 (lemma) implies lt8@0 in every model of the window.
        assert!(s.solve_under(false, 0, &[!l0]).is_unsat());
        let l3 = s.literal(3, lt8);
        // Frame 3 created after the lemma was installed: 0..3 all carry it,
        // and count < 4 at frame 0 cannot reach 8 by frame 3 anyway.
        assert!(s.solve_under(false, 3, &[!l3]).is_unsat());
    }

    #[test]
    fn portfolio_backed_session_matches_single_solver() {
        let mut ctx = Context::new();
        let ts = counter(&mut ctx);
        let c = ctx.find_symbol("count").unwrap();
        let five = ctx.constant(5, 4);
        let lt5 = ctx.ult(c, five);
        let eventually_false = Property::new("lt5", lt5);
        let cc = ctx.eq(c, c);
        let tauto = Property::new("tauto", cc);

        let portfolio = genfv_portfolio::PortfolioConfig {
            workers: 3,
            probe_conflicts: Some(1), // force races even on a toy design
            epoch_start: 64,
            ..Default::default()
        };
        let config = CheckConfig { portfolio: Some(portfolio), ..CheckConfig::default() };
        let mut raced = ProofSession::new(&ctx, &ts, config);
        let mut solo = ProofSession::new(&ctx, &ts, CheckConfig::default());

        assert!(raced.prove(&tauto).is_proven());
        assert!(solo.prove(&tauto).is_proven());
        match (raced.bmc_check(&eventually_false, 8), solo.bmc_check(&eventually_false, 8)) {
            (BmcResult::Falsified { at: a, .. }, BmcResult::Falsified { at: b, .. }) => {
                assert_eq!(a, b, "portfolio and single-solver must find the same cycle");
            }
            other => panic!("expected falsification from both: {other:?}"),
        }
        assert_eq!(raced.stats().bitblasts, 1, "racing must not re-bit-blast");
    }

    /// Pigeonhole as a constraint: seven 3-bit inputs, each below 6 and
    /// pairwise distinct, so every frame is UNSAT after real search.
    fn pigeonhole(ctx: &mut Context) -> TransitionSystem {
        let holes = ctx.constant(6, 3);
        let mut ts = TransitionSystem::new("pigeonhole");
        let pigeons: Vec<ExprRef> = (0..7).map(|i| ctx.symbol(&format!("p{i}"), 3)).collect();
        for (i, &p) in pigeons.iter().enumerate() {
            ts.add_input(p);
            let fits = ctx.ult(p, holes);
            ts.add_constraint(fits);
            for &q in &pigeons[i + 1..] {
                let apart = ctx.ne(p, q);
                ts.add_constraint(apart);
            }
        }
        ts
    }

    #[test]
    fn raced_queries_charge_every_workers_conflicts() {
        let mut ctx = Context::new();
        let ts = pigeonhole(&mut ctx);
        let obs = genfv_obs::Obs::new(genfv_obs::ObsConfig::Deterministic);
        let portfolio = genfv_portfolio::PortfolioConfig {
            workers: 3,
            probe_conflicts: Some(1),
            epoch_start: 64,
            ..Default::default()
        };
        let config =
            CheckConfig { portfolio: Some(portfolio), obs: obs.clone(), ..CheckConfig::default() };
        let mut s = ProofSession::new(&ctx, &ts, config);
        assert!(s.solve_under(false, 0, &[]).is_unsat());
        let stats = *s.stats();
        assert_eq!(stats.portfolio_races, 1, "a one-conflict probe must race");
        // The solver hook records every solve call: the probe and each
        // worker's epochs.
        let workers = obs.metrics().expect("obs enabled").counter(genfv_obs::Counter::Conflicts);
        assert!(stats.conflicts >= workers, "{} < {workers}", stats.conflicts);
        assert!(stats.last_query_conflicts < stats.conflicts, "winner alone is not the total");
    }

    #[test]
    fn seed_carries_template_and_clean_depths_across_sessions() {
        let mut ctx = Context::new();
        let ts = counter(&mut ctx);
        let c = ctx.find_symbol("count").unwrap();
        let five = ctx.constant(5, 4);
        let lt5 = ctx.ult(c, five);
        let eventually_false = Property::new("lt5", lt5);
        let seed = SessionSeed::for_design(&ctx, &ts);
        let config = CheckConfig { seed: Some(Arc::clone(&seed)), ..Default::default() };

        // First session: builds the template, discovers clean depths.
        {
            let mut s = ProofSession::new(&ctx, &ts, config.clone());
            assert_eq!(s.stats().templates_reused, 0, "first session blasts");
            match s.bmc_check(&eventually_false, 8) {
                BmcResult::Falsified { at, .. } => assert_eq!(at, 5),
                other => panic!("expected falsification: {other:?}"),
            }
        } // drop publishes cycles 0..=4 clean into the seed
        assert!(seed.template_ready());
        assert!(seed.clean_entries() > 0);

        // Second session: stamps from the shared template and skips the
        // published base cases — same verdict, fewer queries.
        let mut warm = ProofSession::new(&ctx, &ts, config.clone());
        assert_eq!(warm.stats().templates_reused, 1);
        match warm.bmc_check(&eventually_false, 8) {
            BmcResult::Falsified { at, .. } => assert_eq!(at, 5),
            other => panic!("expected falsification: {other:?}"),
        }
        assert!(warm.stats().clean_seed_hits >= 5, "cycles 0..=4 skipped from the seed");

        // A mutated design (different layout) must not adopt the seed.
        let mut ctx2 = Context::new();
        let ts2 = counter(&mut ctx2);
        let extra = ctx2.constant(7, 4);
        let c2 = ctx2.find_symbol("count").unwrap();
        let _monitor = ctx2.eq(c2, extra);
        assert!(!seed.matches(&ctx2, &ts2));
        let cold = ProofSession::new(&ctx2, &ts2, config.clone());
        assert_eq!(cold.stats().templates_reused, 0);
    }

    /// s' = s + i with the free input constrained to i ≤ 16: proving
    /// "s ≠ 255 at cycle k" (true while 16·k < 255) forces the solver to
    /// bound the accumulated sum through the adder carries — real search,
    /// real learnt clauses, unlike a closed-form chain the base
    /// direction's constant folding would evaluate outright.
    fn bounded_accumulator(ctx: &mut Context) -> TransitionSystem {
        let s = ctx.symbol("s", 8);
        let i = ctx.symbol("i", 8);
        let zero = ctx.constant(0, 8);
        let cap = ctx.constant(17, 8);
        let next = ctx.add(s, i);
        let small = ctx.ult(i, cap);
        let mut ts = TransitionSystem::new("bounded_accumulator");
        ts.add_state(s, Some(zero), next);
        ts.add_input(i);
        ts.add_constraint(small);
        ts.add_signal("s", s);
        ts
    }

    #[test]
    fn seed_warm_starts_clean_skips_and_stays_sound() {
        let mut ctx = Context::new();
        let ts = bounded_accumulator(&mut ctx);
        let s = ctx.find_symbol("s").unwrap();
        let full = ctx.constant(255, 8);
        let ne_full = ctx.ne(s, full); // 16·12 < 255: clean through depth 12
        let prop = Property::new("ne_full", ne_full);
        let seed = SessionSeed::for_design(&ctx, &ts);
        let config = CheckConfig { seed: Some(Arc::clone(&seed)), ..Default::default() };

        // Cold session: solves every base case and publishes the clean
        // depths into the seed when it drops.
        {
            let mut s = ProofSession::new(&ctx, &ts, config.clone());
            assert!(s.bmc_check(&prop, 12).is_clean());
            assert_eq!(s.stats().clean_seed_hits, 0);
        }

        // Warm session: every base case is clean-skipped, and a skip is a
        // pure skip: no solver call at all.
        let mut warm = ProofSession::new(&ctx, &ts, config.clone());
        assert!(warm.bmc_check(&prop, 12).is_clean());
        assert!(warm.stats().clean_seed_hits >= 12, "cycles skipped from the seed");
        assert_eq!(warm.stats().solver_calls, 0, "skipped base cases issue no query");
        let warm_prove = warm.prove(&prop);
        drop(warm);

        // Unseeded control: same verdicts.
        let cold = CheckConfig { seed: None, ..config };
        let mut control = ProofSession::new(&ctx, &ts, cold);
        assert!(control.bmc_check(&prop, 12).is_clean());
        assert_eq!(control.stats().clean_seed_hits, 0);
        match (warm_prove, control.prove(&prop)) {
            (ProveResult::Proven { k: a, .. }, ProveResult::Proven { k: b, .. }) => {
                assert_eq!(a, b)
            }
            (ProveResult::StepFailure { k: a, .. }, ProveResult::StepFailure { k: b, .. }) => {
                assert_eq!(a, b)
            }
            other => panic!("seeded and unseeded prove diverged: {other:?}"),
        }
    }

    #[test]
    fn base_direction_constant_folds_reset() {
        let mut ctx = Context::new();
        let ts = counter(&mut ctx);
        let c = ctx.find_symbol("count").unwrap();
        let three = ctx.constant(3, 4);
        let not3 = ctx.ne(c, three);
        let never3 = Property::new("never3", not3);
        let mut s = ProofSession::new(&ctx, &ts, CheckConfig::default());
        // The base unrolling knows the reset value outright (bound, not
        // activated), so `count != 3` is clean for exactly 3 cycles and
        // deterministically falsified at cycle 3.
        match s.bmc_check(&never3, 2) {
            BmcResult::Clean { depth, .. } => assert_eq!(depth, 2),
            other => panic!("unexpected: {other:?}"),
        }
        match s.bmc_check(&never3, 8) {
            BmcResult::Falsified { at, trace, .. } => {
                assert_eq!(at, 3);
                assert_eq!(trace.steps.len(), 4, "cycles 0..=3");
            }
            other => panic!("expected falsification at 3: {other:?}"),
        }
    }
}
