//! CNF templates: encode the transition relation **once**, instantiate
//! time frames by literal renaming.
//!
//! [`crate::BitBlaster`] re-walks the whole expression DAG and re-runs
//! Tseitin encoding for every unrolled frame. For a long-lived proof
//! session issuing thousands of queries this is the dominant cost after
//! solver-state reuse: the transition relation is *identical* in every
//! frame, so frames should cost a clause-arena copy with an offset add,
//! not a DAG traversal.
//!
//! A [`Template`] is a one-time blast of a [`TransitionSystem`]'s
//! next-state functions, environment constraints, and any extra caller
//! expressions over a private variable space (signal/property cones are *not* stamped per
//! frame — [`Template::materialize`] lowers them on demand in the frames
//! that query them, reusing every registered template sub-cone):
//!
//! ```text
//!   ┌────────────────── template variable space ──────────────────┐
//!   │ X: current-state bits │ I: input bits │ G: internal gates    │
//!   └─────────────────────────────────────────────────────────────┘
//!      0..x (substituted)       x..            ..n   (the window)
//!
//!   clauses naming no X bit  → interior ClauseBlock (offset-stamped)
//!   clauses naming an X bit  → boundary layer (substituted per frame)
//! ```
//!
//! [`Template::stamp`] instantiates one frame: the interior block lands
//! through [`genfv_sat::Solver::load_template`] — a fresh window of
//! solver variables plus a clause-arena copy with a single `2·base`
//! offset add per literal — while the small boundary layer (the first
//! logic layer over state bits) is rewritten per frame, substituting each
//! X-slot literal with the *predecessor frame's* next-state output
//! literal. Frames therefore share state literals exactly like the
//! per-frame DAG walk, with no linking clauses and no indirection
//! variables; a free frame 0 substitutes fresh variables instead.
//!
//! ## Renaming soundness
//!
//! Stamping frame `k+1` applies an injective literal substitution σ to
//! the template: window variables map to fresh, unconstrained solver
//! variables (a bijective renaming — the interior offset add), and each
//! X-slot bit maps to the literal computed for the corresponding
//! next-state bit of frame `k` (or a fresh variable at a free frame 0).
//! The stamped clause set is exactly the template's definition of
//! `x' = f(x, i)` and `c(x, i)` instantiated at σ, so the conjunction of
//! stamped frames is `T(x₀,i₀,x₁) ∧ T(x₁,i₁,x₂) ∧ …` — the same formula
//! the per-frame DAG walk builds, over different-but-bijective variable
//! names. Boundary substitution goes through the simplifying
//! `add_clause`, so constant predecessor bits fold instead of polluting
//! the clause database. The `template_differential` corpus suite in
//! `genfv-designs` pins this equivalence on every observable verdict.
//!
//! ## The simplifying blaster
//!
//! The template blast pays for itself at build time:
//!
//! * **negation-aware structural hash-consing** — gates are canonicalised
//!   (commutative operand ordering, sign normalisation through XOR/ITE
//!   complement edges) and deduplicated, so logic shared between
//!   next-state functions, constraints, and property cones is encoded
//!   once;
//! * **constant folding** — gate constructors fold constants away, so no
//!   clause in the block ever mentions one;
//! * **Plaisted–Greenbaum polarity-aware emission** — gates whose cones
//!   are only ever referenced in one phase (environment constraints,
//!   which frames activate positively) emit only that phase's
//!   implications. Cones that callers may query in either phase
//!   (next-state functions, extra roots) are marked bipolar and emit
//!   the full Tseitin equivalences; only those cones are exposed
//!   through [`Template::output`]/[`Template::materialize`], which keeps
//!   single-phase encodings internal and the public literal API sound.

use crate::bitblast::{BitBlaster, LitEnv};
use crate::encode::{lower_expr, GateEncoder, LowerEnv};
use crate::expr::{Context, ExprRef};
use crate::ts::TransitionSystem;
use genfv_sat::{ClauseBlock, CnfBuilder, Lit, Solver};
use std::collections::HashMap;

/// A literal-or-constant over the template's private variable space.
///
/// Constants are folded out of all clauses at build time; they survive
/// only in *output* vectors (e.g. a next-state bit that is constant under
/// the encoding).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TRef {
    /// A boolean constant.
    Const(bool),
    /// A template-local literal, MiniSat-coded (`2·var + sign`).
    Lit(u32),
}

impl TRef {
    /// The complement.
    #[inline]
    fn flip(self) -> TRef {
        match self {
            TRef::Const(b) => TRef::Const(!b),
            TRef::Lit(c) => TRef::Lit(c ^ 1),
        }
    }
}

/// A hash-consed gate over template literals. Operand codes always name
/// variables created before the gate's own variable.
#[derive(Clone, Copy, Debug)]
enum Gate {
    /// `g ⇔ a ∧ b` with operand codes in ascending order.
    And(u32, u32),
    /// `g ⇔ a ⊕ b` with positive, ascending operand codes (signs are
    /// normalised into the consumer's literal).
    Xor(u32, u32),
    /// `g ⇔ c ? t : e` with positive `c` and `t` (signs normalised).
    Ite {
        /// Positive selector code.
        c: u32,
        /// Positive then-branch code.
        t: u32,
        /// Else-branch code (either sign).
        e: u32,
    },
}

const P_POS: u8 = 1;
const P_NEG: u8 = 2;
const P_BOTH: u8 = P_POS | P_NEG;

/// Phase contribution of a literal occurrence in an emitted clause.
#[inline]
fn occur(code: u32) -> (u32, u8) {
    (code >> 1, if code & 1 == 0 { P_POS } else { P_NEG })
}

/// Build-time counters of the simplifying template blaster.
#[derive(Clone, Copy, Debug, Default)]
pub struct TemplateStats {
    /// Final window size in variables (slots + live gates).
    pub vars: u32,
    /// Clauses in the relocatable block.
    pub clauses: usize,
    /// Gates allocated by the blaster (before liveness compaction).
    pub gates: usize,
    /// Gates dropped because no root references them in any phase.
    pub dead_gates: usize,
    /// Structural hash-consing cache hits.
    pub cache_hits: u64,
    /// Constant/structural folds that avoided allocating a gate.
    pub const_folds: u64,
    /// Clauses skipped by Plaisted–Greenbaum single-phase emission.
    pub pg_clauses_saved: usize,
}

/// The hash-consing, constant-folding gate encoder behind
/// [`Template::build`].
#[derive(Debug, Default)]
struct TemplateEncoder {
    /// Per-variable gate definition; `None` marks a slot (free variable).
    kinds: Vec<Option<Gate>>,
    and_cache: HashMap<(u32, u32), u32>,
    xor_cache: HashMap<(u32, u32), u32>,
    ite_cache: HashMap<(u32, u32, u32), u32>,
    cache_hits: u64,
    const_folds: u64,
}

impl TemplateEncoder {
    fn new_slot(&mut self) -> u32 {
        let v = self.kinds.len() as u32;
        self.kinds.push(None);
        v
    }

    fn new_gate(&mut self, g: Gate) -> u32 {
        let v = self.kinds.len() as u32;
        self.kinds.push(Some(g));
        v
    }
}

impl GateEncoder for TemplateEncoder {
    type L = TRef;

    fn constant(&mut self, v: bool) -> TRef {
        TRef::Const(v)
    }

    fn negate(&mut self, l: TRef) -> TRef {
        l.flip()
    }

    fn and(&mut self, a: TRef, b: TRef) -> TRef {
        match (a, b) {
            (TRef::Const(false), _) | (_, TRef::Const(false)) => {
                self.const_folds += 1;
                TRef::Const(false)
            }
            (TRef::Const(true), x) | (x, TRef::Const(true)) => {
                self.const_folds += 1;
                x
            }
            (TRef::Lit(x), TRef::Lit(y)) => {
                if x == y {
                    self.const_folds += 1;
                    return TRef::Lit(x);
                }
                if x ^ 1 == y {
                    self.const_folds += 1;
                    return TRef::Const(false);
                }
                let key = (x.min(y), x.max(y));
                if let Some(&v) = self.and_cache.get(&key) {
                    self.cache_hits += 1;
                    return TRef::Lit(v << 1);
                }
                let v = self.new_gate(Gate::And(key.0, key.1));
                self.and_cache.insert(key, v);
                TRef::Lit(v << 1)
            }
        }
    }

    fn xor(&mut self, a: TRef, b: TRef) -> TRef {
        match (a, b) {
            (TRef::Const(x), TRef::Const(y)) => {
                self.const_folds += 1;
                TRef::Const(x ^ y)
            }
            (TRef::Const(c), TRef::Lit(l)) | (TRef::Lit(l), TRef::Const(c)) => {
                self.const_folds += 1;
                TRef::Lit(l ^ c as u32)
            }
            (TRef::Lit(x), TRef::Lit(y)) => {
                // xor(σ₁v₁, σ₂v₂) = xor(v₁, v₂) ⊕ σ₁ ⊕ σ₂: pull signs out.
                let sign = (x ^ y) & 1;
                let (vx, vy) = (x & !1, y & !1);
                if vx == vy {
                    self.const_folds += 1;
                    return TRef::Const(sign == 1);
                }
                let key = (vx.min(vy), vx.max(vy));
                let v = match self.xor_cache.get(&key) {
                    Some(&v) => {
                        self.cache_hits += 1;
                        v
                    }
                    None => {
                        let v = self.new_gate(Gate::Xor(key.0, key.1));
                        self.xor_cache.insert(key, v);
                        v
                    }
                };
                TRef::Lit((v << 1) | sign)
            }
        }
    }

    fn ite(&mut self, c: TRef, t: TRef, e: TRef) -> TRef {
        let mut lc = match c {
            TRef::Const(true) => {
                self.const_folds += 1;
                return t;
            }
            TRef::Const(false) => {
                self.const_folds += 1;
                return e;
            }
            TRef::Lit(l) => l,
        };
        if t == e {
            self.const_folds += 1;
            return t;
        }
        let (mut lt, mut le) = match (t, e) {
            (TRef::Const(tv), TRef::Const(_)) => {
                // t ≠ e here, so this is c itself (or its complement).
                self.const_folds += 1;
                return TRef::Lit(lc ^ !tv as u32);
            }
            (TRef::Const(true), TRef::Lit(le)) => {
                self.const_folds += 1;
                return self.or(TRef::Lit(lc), TRef::Lit(le));
            }
            (TRef::Const(false), TRef::Lit(le)) => {
                self.const_folds += 1;
                return self.and(TRef::Lit(lc ^ 1), TRef::Lit(le));
            }
            (TRef::Lit(lt), TRef::Const(true)) => {
                self.const_folds += 1;
                return self.or(TRef::Lit(lc ^ 1), TRef::Lit(lt));
            }
            (TRef::Lit(lt), TRef::Const(false)) => {
                self.const_folds += 1;
                return self.and(TRef::Lit(lc), TRef::Lit(lt));
            }
            (TRef::Lit(lt), TRef::Lit(le)) => (lt, le),
        };
        if lt ^ 1 == le {
            // ite(c, t, ¬t) = c ⇔ t.
            self.const_folds += 1;
            let x = self.xor(TRef::Lit(lc), TRef::Lit(lt));
            return x.flip();
        }
        // Canonicalise: positive selector, positive then-branch.
        if lc & 1 == 1 {
            lc ^= 1;
            std::mem::swap(&mut lt, &mut le);
        }
        let out_neg = lt & 1;
        if out_neg == 1 {
            lt ^= 1;
            le ^= 1;
        }
        let key = (lc, lt, le);
        let v = match self.ite_cache.get(&key) {
            Some(&v) => {
                self.cache_hits += 1;
                v
            }
            None => {
                let v = self.new_gate(Gate::Ite { c: lc, t: lt, e: le });
                self.ite_cache.insert(key, v);
                v
            }
        };
        TRef::Lit((v << 1) | out_neg)
    }
}

/// Lowering environment of the template build: the memo doubles as the
/// registry of encoded cones, and unknown symbols become fresh window
/// slots (instantiated per frame, like the per-frame blaster's fresh
/// literals).
#[derive(Debug, Default)]
struct BuildEnv {
    memo: HashMap<ExprRef, Vec<TRef>>,
    aux_slots: Vec<(ExprRef, u32, u32)>,
}

impl LowerEnv<TemplateEncoder> for BuildEnv {
    fn lookup(&mut self, _enc: &mut TemplateEncoder, e: ExprRef) -> Option<Vec<TRef>> {
        self.memo.get(&e).cloned()
    }

    fn record(&mut self, e: ExprRef, lits: &[TRef]) {
        self.memo.insert(e, lits.to_vec());
    }

    fn symbol(&mut self, enc: &mut TemplateEncoder, e: ExprRef, width: u32) -> Vec<TRef> {
        let start = enc.kinds.len() as u32;
        let lits = (0..width).map(|_| TRef::Lit(enc.new_slot() << 1)).collect();
        self.aux_slots.push((e, start, width));
        lits
    }
}

/// One stamped instance of a template: the solver-variable window of the
/// frame's interior plus the substitution of its current-state slots.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrameStamp {
    /// First solver variable of the interior window.
    base: usize,
    /// Solver literal substituted for each X-slot bit: the predecessor
    /// frame's next-state outputs, or fresh variables for a free frame 0.
    xmap: Vec<Lit>,
}

/// A one-time blast of a transition relation into a relocatable clause
/// block; see the [module docs](self) for the architecture.
#[derive(Clone, Debug)]
pub struct Template {
    /// Number of current-state (X) slot bits; template variables `0..x`
    /// are substituted at stamp time, never allocated.
    x_bits: u32,
    /// Clauses free of X slots, over template variables `x..vars`
    /// reindexed to `0..vars-x`: stamped by pure offset add.
    interior: ClauseBlock,
    /// Clauses touching at least one X slot (the first logic layer over
    /// state bits), in full-template codes; added per frame through the
    /// simplifying `add_clause` after substitution.
    boundary: Vec<Vec<Lit>>,
    /// `(symbol, first slot var, width)` per state register (X slots).
    state_slots: Vec<(ExprRef, u32, u32)>,
    /// `(symbol, first slot var, width)` per free input (I slots).
    input_slots: Vec<(ExprRef, u32, u32)>,
    /// Slots of symbols discovered outside the transition system (extra
    /// roots over oracle variables); fresh per frame like inputs.
    aux_slots: Vec<(ExprRef, u32, u32)>,
    /// Next-state output literals, aligned with `ts.states()`.
    next_outputs: Vec<Vec<TRef>>,
    /// Positive-phase constraint literals, aligned with `ts.constraints()`.
    constraints: Vec<TRef>,
    /// Bipolar-complete encoded cones, safe for either-phase use.
    exprs: HashMap<ExprRef, Vec<TRef>>,
    stats: TemplateStats,
}

impl Template {
    /// Blasts `ts`'s next-state functions and environment constraints
    /// into a template. Signal/property cones are not pre-encoded;
    /// [`Template::materialize`] lowers them on demand in the frames
    /// that query them (pass them as extra roots to
    /// [`Template::build_with`] to pre-encode known cones).
    pub fn build(ctx: &Context, ts: &TransitionSystem) -> Template {
        Template::build_with(ctx, ts, &[])
    }

    /// [`Template::build`] plus extra bipolar roots (e.g. property or
    /// candidate-lemma cones known up front).
    pub fn build_with(ctx: &Context, ts: &TransitionSystem, extra: &[ExprRef]) -> Template {
        let mut enc = TemplateEncoder::default();
        let mut env = BuildEnv::default();

        let mut state_slots = Vec::with_capacity(ts.states().len());
        for st in ts.states() {
            let w = ctx.width_of(st.symbol);
            let start = enc.kinds.len() as u32;
            let lits: Vec<TRef> = (0..w).map(|_| TRef::Lit(enc.new_slot() << 1)).collect();
            env.memo.insert(st.symbol, lits);
            state_slots.push((st.symbol, start, w));
        }
        let mut input_slots = Vec::with_capacity(ts.inputs().len());
        for &sym in ts.inputs() {
            let w = ctx.width_of(sym);
            let start = enc.kinds.len() as u32;
            let lits: Vec<TRef> = (0..w).map(|_| TRef::Lit(enc.new_slot() << 1)).collect();
            env.memo.insert(sym, lits);
            input_slots.push((sym, start, w));
        }

        // Roots are the next-state functions (plus any caller-supplied
        // cones): exactly what every frame needs. Signal/property cones
        // are *not* stamped per frame — `materialize` lowers them on
        // demand in the frames that query them, reusing every registered
        // template sub-cone, so unqueried logic never costs clauses.
        let next_outputs: Vec<Vec<TRef>> =
            ts.states().iter().map(|st| lower_expr(ctx, &mut enc, &mut env, st.next)).collect();
        let mut bipolar_roots: Vec<TRef> = next_outputs.iter().flatten().copied().collect();
        for &e in extra {
            bipolar_roots.extend(lower_expr(ctx, &mut enc, &mut env, e));
        }
        let constraints: Vec<TRef> =
            ts.constraints().iter().map(|&c| lower_expr(ctx, &mut enc, &mut env, c)[0]).collect();

        Template::finish(
            enc,
            env,
            state_slots,
            input_slots,
            next_outputs,
            constraints,
            &bipolar_roots,
        )
    }

    /// Builds a template over bare expressions (no transition system):
    /// every free symbol becomes a per-frame slot and every root is
    /// bipolar. The differential property suites use this to pit the
    /// template blaster against the per-frame blaster on random DAGs.
    pub fn for_exprs(ctx: &Context, roots: &[ExprRef]) -> Template {
        let mut enc = TemplateEncoder::default();
        let mut env = BuildEnv::default();
        let mut bipolar_roots = Vec::new();
        for &e in roots {
            bipolar_roots.extend(lower_expr(ctx, &mut enc, &mut env, e));
        }
        Template::finish(enc, env, Vec::new(), Vec::new(), Vec::new(), Vec::new(), &bipolar_roots)
    }

    /// Polarity marking, liveness compaction, and clause emission.
    fn finish(
        enc: TemplateEncoder,
        env: BuildEnv,
        state_slots: Vec<(ExprRef, u32, u32)>,
        input_slots: Vec<(ExprRef, u32, u32)>,
        next_outputs: Vec<Vec<TRef>>,
        constraints: Vec<TRef>,
        bipolar_roots: &[TRef],
    ) -> Template {
        let n = enc.kinds.len();
        let mut phases = vec![0u8; n];

        // --- polarity marking ------------------------------------------
        let mut work: Vec<(u32, u8)> = Vec::new();
        for &r in bipolar_roots {
            if let TRef::Lit(code) = r {
                work.push((code >> 1, P_BOTH));
            }
        }
        for &c in &constraints {
            if let TRef::Lit(code) = c {
                let (v, p) = occur(code);
                work.push((v, p));
            }
        }
        while let Some((v, p)) = work.pop() {
            let add = p & !phases[v as usize];
            if add == 0 {
                continue;
            }
            phases[v as usize] |= add;
            let gate = match enc.kinds[v as usize] {
                Some(g) => g,
                None => continue, // slot: free variable, nothing beneath
            };
            match gate {
                Gate::And(a, b) => {
                    // pos: (¬g ∨ a)(¬g ∨ b) — operands occur as-is;
                    // neg: (g ∨ ¬a ∨ ¬b) — operands occur complemented.
                    if add & P_POS != 0 {
                        let (va, pa) = occur(a);
                        let (vb, pb) = occur(b);
                        work.push((va, pa));
                        work.push((vb, pb));
                    }
                    if add & P_NEG != 0 {
                        let (va, pa) = occur(a ^ 1);
                        let (vb, pb) = occur(b ^ 1);
                        work.push((va, pa));
                        work.push((vb, pb));
                    }
                }
                Gate::Xor(a, b) => {
                    // Either phase's clauses mention both signs of both
                    // operands.
                    work.push((a >> 1, P_BOTH));
                    work.push((b >> 1, P_BOTH));
                }
                Gate::Ite { c, t, e } => {
                    work.push((c >> 1, P_BOTH));
                    if add & P_POS != 0 {
                        let (vt, pt) = occur(t);
                        let (ve, pe) = occur(e);
                        work.push((vt, pt));
                        work.push((ve, pe));
                    }
                    if add & P_NEG != 0 {
                        let (vt, pt) = occur(t ^ 1);
                        let (ve, pe) = occur(e ^ 1);
                        work.push((vt, pt));
                        work.push((ve, pe));
                    }
                }
            }
        }

        // --- liveness compaction ---------------------------------------
        // Slots always survive; gates unreachable from every root are
        // dropped and the remaining variables renumbered densely.
        let mut remap = vec![u32::MAX; n];
        let mut next = 0u32;
        let mut dead_gates = 0usize;
        let mut gates = 0usize;
        for v in 0..n {
            match enc.kinds[v] {
                None => {
                    remap[v] = next;
                    next += 1;
                }
                Some(_) => {
                    gates += 1;
                    if phases[v] != 0 {
                        remap[v] = next;
                        next += 1;
                    } else {
                        dead_gates += 1;
                    }
                }
            }
        }
        let map_code = |code: u32| -> Lit {
            let v = remap[(code >> 1) as usize];
            debug_assert_ne!(v, u32::MAX, "live gate references dead variable");
            Lit::from_code(((v << 1) | (code & 1)) as usize)
        };
        let map_tref = |t: TRef| -> TRef {
            match t {
                TRef::Const(b) => TRef::Const(b),
                TRef::Lit(code) => TRef::Lit(map_code(code).code() as u32),
            }
        };

        // --- clause emission -------------------------------------------
        // State slots are allocated first and always survive compaction,
        // so the final X slots occupy exactly `0..x_bits`. Clauses free of
        // X slots go to the interior block (reindexed past the X prefix,
        // stamped by pure offset add); clauses touching an X slot form the
        // small boundary layer, substituted per frame.
        let x_bits: u32 = state_slots.iter().map(|&(_, _, w)| w).sum();
        let mut interior = ClauseBlock::new(next - x_bits);
        let mut boundary: Vec<Vec<Lit>> = Vec::new();
        let mut pg_saved = 0usize;
        let mut emit = |lits: &[Lit]| {
            if lits.iter().any(|l| (l.code() as u32) < 2 * x_bits) {
                boundary.push(lits.to_vec());
            } else {
                let shifted: Vec<Lit> =
                    lits.iter().map(|l| Lit::from_code(l.code() - 2 * x_bits as usize)).collect();
                interior.push_clause(&shifted);
            }
        };
        for (v, &p) in phases.iter().enumerate() {
            let gate = match enc.kinds[v] {
                Some(g) if p != 0 => g,
                _ => continue,
            };
            let g = map_code((v as u32) << 1);
            match gate {
                Gate::And(a, b) => {
                    let (a, b) = (map_code(a), map_code(b));
                    if p & P_POS != 0 {
                        emit(&[!g, a]);
                        emit(&[!g, b]);
                    } else {
                        pg_saved += 2;
                    }
                    if p & P_NEG != 0 {
                        emit(&[g, !a, !b]);
                    } else {
                        pg_saved += 1;
                    }
                }
                Gate::Xor(a, b) => {
                    let (a, b) = (map_code(a), map_code(b));
                    if p & P_POS != 0 {
                        emit(&[!g, a, b]);
                        emit(&[!g, !a, !b]);
                    } else {
                        pg_saved += 2;
                    }
                    if p & P_NEG != 0 {
                        emit(&[g, !a, b]);
                        emit(&[g, a, !b]);
                    } else {
                        pg_saved += 2;
                    }
                }
                Gate::Ite { c, t, e } => {
                    let (c, t, e) = (map_code(c), map_code(t), map_code(e));
                    if p & P_POS != 0 {
                        emit(&[!g, !c, t]);
                        emit(&[!g, c, e]);
                    } else {
                        pg_saved += 2;
                    }
                    if p & P_NEG != 0 {
                        emit(&[g, !c, !t]);
                        emit(&[g, c, !e]);
                    } else {
                        pg_saved += 2;
                    }
                    if p == P_BOTH {
                        // Propagation-strengthening clauses, matching the
                        // direct blaster's bipolar ITE.
                        emit(&[g, !t, !e]);
                        emit(&[!g, t, e]);
                    }
                }
            }
        }
        interior.shrink_to_fit();
        boundary.shrink_to_fit();

        // --- output registries (final codes) ---------------------------
        let remap_slots = |slots: Vec<(ExprRef, u32, u32)>| -> Vec<(ExprRef, u32, u32)> {
            slots.into_iter().map(|(e, start, w)| (e, remap[start as usize], w)).collect()
        };
        let state_slots = remap_slots(state_slots);
        let input_slots = remap_slots(input_slots);
        let aux_slots = remap_slots(env.aux_slots);
        let next_outputs: Vec<Vec<TRef>> =
            next_outputs.into_iter().map(|v| v.into_iter().map(map_tref).collect()).collect();
        let constraints: Vec<TRef> = constraints.into_iter().map(map_tref).collect();
        // Expose only cones whose every output is a constant, a slot, or
        // a fully bipolar gate: marking both phases is transitive through
        // every gate kind, so output-bipolar implies cone-bipolar and the
        // encoding is a full equivalence, safe for either-phase use.
        let safe = |t: &TRef| -> bool {
            match *t {
                TRef::Const(_) => true,
                TRef::Lit(code) => {
                    let v = (code >> 1) as usize;
                    enc.kinds[v].is_none() || phases[v] == P_BOTH
                }
            }
        };
        let exprs: HashMap<ExprRef, Vec<TRef>> = env
            .memo
            .iter()
            .filter(|(_, outs)| outs.iter().all(safe))
            .map(|(&e, outs)| (e, outs.iter().map(|&t| map_tref(t)).collect()))
            .collect();

        let stats = TemplateStats {
            vars: next,
            clauses: interior.num_clauses() + boundary.len(),
            gates,
            dead_gates,
            cache_hits: enc.cache_hits,
            const_folds: enc.const_folds,
            pg_clauses_saved: pg_saved,
        };
        Template {
            x_bits,
            interior,
            boundary,
            state_slots,
            input_slots,
            aux_slots,
            next_outputs,
            constraints,
            exprs,
            stats,
        }
    }

    /// Build-time counters.
    pub fn stats(&self) -> &TemplateStats {
        &self.stats
    }

    /// Window size in variables (X slots excluded — those are substituted,
    /// not allocated).
    pub fn num_vars(&self) -> u32 {
        self.interior.num_vars()
    }

    /// Number of current-state (X) slot bits substituted at stamp time.
    pub fn x_bits(&self) -> u32 {
        self.x_bits
    }

    /// Clauses per frame (interior block plus boundary layer).
    pub fn num_clauses(&self) -> usize {
        self.interior.num_clauses() + self.boundary.len()
    }

    /// The registered bipolar-safe encoding of `e`, if any.
    pub fn output(&self, e: ExprRef) -> Option<&[TRef]> {
        self.exprs.get(&e).map(|v| v.as_slice())
    }

    /// Instantiates one frame.
    ///
    /// `prev` supplies the predecessor frame's next-state output literals
    /// (aligned with `ts.states()`), substituted for the template's X
    /// slots — the frame then shares its current-state literals with the
    /// predecessor exactly like a DAG-walked unrolling, with no linking
    /// clauses. `None` allocates fresh state variables (a free frame 0).
    ///
    /// The interior block lands through
    /// [`genfv_sat::Solver::load_template`] — a fresh variable window plus
    /// a clause-arena copy with a single per-literal offset add. The
    /// boundary layer (clauses naming an X slot) goes through the
    /// simplifying `add_clause`, so constant predecessor bits fold away.
    pub fn stamp(&self, solver: &mut Solver, prev: Option<&[Vec<Lit>]>) -> FrameStamp {
        let xmap: Vec<Lit> = match prev {
            Some(p) => {
                debug_assert_eq!(p.len(), self.state_slots.len());
                p.iter().flat_map(|bits| bits.iter().copied()).collect()
            }
            None => {
                let base = solver.new_vars(self.x_bits as usize);
                (0..self.x_bits as usize)
                    .map(|i| Lit::pos(genfv_sat::Var::from_index(base + i)))
                    .collect()
            }
        };
        debug_assert_eq!(xmap.len(), self.x_bits as usize);
        let (base, _ok) = solver.load_template(&self.interior);
        let stamp = FrameStamp { base, xmap };
        for clause in &self.boundary {
            let mapped = clause.iter().map(|&l| self.map_lit(&stamp, l));
            solver.add_clause(mapped);
        }
        stamp
    }

    /// Maps a full-template literal code into a stamped frame: X slots go
    /// through the stamp's substitution, everything else by offset add.
    #[inline]
    fn map_lit(&self, stamp: &FrameStamp, l: Lit) -> Lit {
        let code = l.code();
        let split = 2 * self.x_bits as usize;
        if code < split {
            let base = stamp.xmap[code >> 1];
            if code & 1 == 1 {
                !base
            } else {
                base
            }
        } else {
            Lit::from_code(code - split + 2 * stamp.base)
        }
    }

    /// Maps a template literal into a stamped frame. `true_lit` resolves
    /// constants (the solver's constant-true literal).
    pub fn resolve(&self, stamp: &FrameStamp, t: TRef, true_lit: Lit) -> Lit {
        match t {
            TRef::Const(true) => true_lit,
            TRef::Const(false) => !true_lit,
            TRef::Lit(code) => self.map_lit(stamp, Lit::from_code(code as usize)),
        }
    }

    fn slot_lits(&self, stamp: &FrameStamp, start: u32, width: u32) -> Vec<Lit> {
        (0..width)
            .map(|i| self.map_lit(stamp, Lit::from_code(((start + i) << 1) as usize)))
            .collect()
    }

    /// Binds every slot symbol (states, inputs, discovered auxiliaries)
    /// of a stamped frame into `env`, making the frame's [`LitEnv`]
    /// self-sufficient for trace extraction and fallback blasting.
    pub fn bind_frame(&self, stamp: &FrameStamp, env: &mut LitEnv) {
        for &(sym, start, w) in
            self.state_slots.iter().chain(&self.input_slots).chain(&self.aux_slots)
        {
            env.insert(sym, self.slot_lits(stamp, start, w));
        }
    }

    /// The next-state output literals of a stamped frame, aligned with
    /// `ts.states()` — resolved by pure offset arithmetic, no DAG work.
    pub fn next_state_lits(&self, stamp: &FrameStamp, true_lit: Lit) -> Vec<Vec<Lit>> {
        self.next_outputs
            .iter()
            .map(|bits| bits.iter().map(|&t| self.resolve(stamp, t, true_lit)).collect())
            .collect()
    }

    /// The positive-phase literal of constraint `i` in a stamped frame.
    /// Sound only for positive use (assertion or guarded activation);
    /// constraint cones are Plaisted–Greenbaum-encoded.
    pub fn constraint_lit(&self, stamp: &FrameStamp, i: usize, true_lit: Lit) -> Lit {
        self.resolve(stamp, self.constraints[i], true_lit)
    }

    /// Lowers `e` in a stamped frame: template-encoded cones resolve by
    /// offset arithmetic (and seed `env`); anything outside the template
    /// falls back to the per-frame blaster, sharing every template-covered
    /// sub-cone. This is the template-aware path behind the unroller's
    /// `lit_at`/`lits_at`.
    pub fn materialize(
        &self,
        ctx: &Context,
        bb: &mut BitBlaster,
        env: &mut LitEnv,
        stamp: &FrameStamp,
        e: ExprRef,
    ) -> Vec<Lit> {
        let true_lit = bb.true_lit();
        let mut menv = MaterializeEnv { tpl: self, stamp, env, true_lit };
        lower_expr(ctx, bb.builder_mut(), &mut menv, e)
    }
}

/// Lowering environment of [`Template::materialize`]: frame env first,
/// then the template's registered cones, then fresh fallback gates.
struct MaterializeEnv<'a> {
    tpl: &'a Template,
    stamp: &'a FrameStamp,
    env: &'a mut LitEnv,
    true_lit: Lit,
}

impl LowerEnv<CnfBuilder> for MaterializeEnv<'_> {
    fn lookup(&mut self, _enc: &mut CnfBuilder, e: ExprRef) -> Option<Vec<Lit>> {
        if let Some(lits) = self.env.lookup(e) {
            return Some(lits.to_vec());
        }
        if let Some(outs) = self.tpl.exprs.get(&e) {
            let lits: Vec<Lit> =
                outs.iter().map(|&t| self.tpl.resolve(self.stamp, t, self.true_lit)).collect();
            self.env.insert(e, lits.clone());
            return Some(lits);
        }
        None
    }

    fn record(&mut self, e: ExprRef, lits: &[Lit]) {
        self.env.insert(e, lits.to_vec());
    }

    fn symbol(&mut self, enc: &mut CnfBuilder, _e: ExprRef, width: u32) -> Vec<Lit> {
        (0..width).map(|_| enc.fresh()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitblast::BitBlaster;
    use crate::ts::TransitionSystem;

    /// count' = count + 1, init 0, 4 bits, with a published signal.
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
    fn stamped_frames_enforce_the_transition_relation() {
        let mut ctx = Context::new();
        let ts = counter(&mut ctx);
        let c = ctx.find_symbol("count").unwrap();
        let five = ctx.constant(5, 4);
        let six = ctx.constant(6, 4);
        let eq5 = ctx.eq(c, five);
        let eq6 = ctx.eq(c, six);

        let tpl = Template::build(&ctx, &ts);
        let mut bb = BitBlaster::new();
        let t = bb.true_lit();
        let f0 = tpl.stamp(bb.solver_mut(), None);
        let prev = tpl.next_state_lits(&f0, t);
        let f1 = tpl.stamp(bb.solver_mut(), Some(&prev));

        let mut env0 = LitEnv::new();
        let mut env1 = LitEnv::new();
        tpl.bind_frame(&f0, &mut env0);
        tpl.bind_frame(&f1, &mut env1);
        let a = tpl.materialize(&ctx, &mut bb, &mut env0, &f0, eq5)[0];
        let b = tpl.materialize(&ctx, &mut bb, &mut env1, &f1, eq6)[0];
        assert!(bb.solve_with_assumptions(&[a, b]).is_sat());
        assert!(bb.solve_with_assumptions(&[a, !b]).is_unsat());
    }

    #[test]
    fn hash_consing_shares_logic_across_roots() {
        let mut ctx = Context::new();
        let a = ctx.symbol("a", 8);
        let b = ctx.symbol("b", 8);
        // `a - b` and `a < b` are different word-level expressions that
        // lower through the same ripple-borrow chain: the structural
        // cache must encode those gates once.
        let d = ctx.sub(a, b);
        let lt = ctx.ult(a, b);
        let tpl = Template::for_exprs(&ctx, &[d, lt]);
        assert!(tpl.stats().cache_hits > 0, "shared ripple logic must hit the cache");
        // Compared against blasting the two roots independently, the
        // shared template is strictly smaller.
        let solo = Template::for_exprs(&ctx, &[d]);
        let solo_lt = Template::for_exprs(&ctx, &[lt]);
        assert!(
            tpl.num_clauses() < solo.num_clauses() + solo_lt.num_clauses(),
            "hash-consing must beat independent encodings"
        );
    }

    #[test]
    fn pg_emission_saves_clauses_for_constraint_cones() {
        let mut ctx = Context::new();
        let mut ts = counter(&mut ctx);
        let c = ctx.find_symbol("count").unwrap();
        let x = ctx.symbol("x", 4);
        ts.add_input(x);
        // A constraint whose cone (comparison over an input) is not
        // shared with any bipolar root.
        let lt = ctx.ult(x, c);
        ts.add_constraint(lt);
        let tpl = Template::build(&ctx, &ts);
        assert!(tpl.stats().pg_clauses_saved > 0, "single-phase cones emit one direction");

        // The positive-phase literal still activates the constraint.
        let mut bb = BitBlaster::new();
        let t = bb.true_lit();
        let f0 = tpl.stamp(bb.solver_mut(), None);
        let cl = tpl.constraint_lit(&f0, 0, t);
        let mut env = LitEnv::new();
        tpl.bind_frame(&f0, &mut env);
        // x < count is unsatisfiable when count == 0 and the constraint
        // is activated.
        let zero = ctx.constant(0, 4);
        let is0 = ctx.eq(c, zero);
        let l0 = tpl.materialize(&ctx, &mut bb, &mut env, &f0, is0)[0];
        assert!(bb.solve_with_assumptions(&[cl, l0]).is_unsat());
        assert!(bb.solve_with_assumptions(&[l0]).is_sat());
    }

    #[test]
    fn constant_folding_keeps_blocks_constant_free() {
        let mut ctx = Context::new();
        let a = ctx.symbol("a", 4);
        let zero = ctx.constant(0, 4);
        let masked = ctx.and(a, zero); // folds to 0 at the expr level
        let b = ctx.symbol("b", 4);
        let or0 = ctx.or(b, zero); // survives expr folding? (identity)
        let tpl = Template::for_exprs(&ctx, &[masked, or0]);
        // `or` with a constant zero folds in the template encoder: the
        // output is the operand itself, no gates needed.
        assert_eq!(tpl.output(or0), tpl.output(b));
        assert_eq!(tpl.output(masked).unwrap().len(), 4);
        assert!(tpl.output(masked).unwrap().iter().all(|t| matches!(t, TRef::Const(false))));
    }

    #[test]
    fn materialize_falls_back_for_unregistered_exprs() {
        let mut ctx = Context::new();
        let ts = counter(&mut ctx);
        let c = ctx.find_symbol("count").unwrap();
        let tpl = Template::build(&ctx, &ts);
        let mut bb = BitBlaster::new();
        let f0 = tpl.stamp(bb.solver_mut(), None);
        let mut env = LitEnv::new();
        tpl.bind_frame(&f0, &mut env);
        // A lemma minted after the template was built: not registered,
        // lowered through the fallback path over the frame's slots.
        let nine = ctx.constant(9, 4);
        let lt9 = ctx.ult(c, nine);
        let l = tpl.materialize(&ctx, &mut bb, &mut env, &f0, lt9);
        assert_eq!(l.len(), 1);
        let eq9 = ctx.eq(c, nine);
        let e9 = tpl.materialize(&ctx, &mut bb, &mut env, &f0, eq9)[0];
        // count == 9 contradicts count < 9.
        assert!(bb.solve_with_assumptions(&[l[0], e9]).is_unsat());
        assert!(bb.solve_with_assumptions(&[l[0]]).is_sat());
    }

    #[test]
    fn dead_gates_are_compacted_out() {
        let mut ctx = Context::new();
        let a = ctx.symbol("a", 8);
        let b = ctx.symbol("b", 8);
        // The divider computes quotient and remainder; rooting only the
        // quotient leaves remainder-only gates dead.
        let q = ctx.udiv(a, b);
        let tpl = Template::for_exprs(&ctx, &[q]);
        assert!(tpl.stats().dead_gates > 0, "unreferenced gates must be dropped");
        assert!((tpl.stats().vars as usize) < tpl.stats().gates + 16);
    }
}
