//! Candidate-invariant mining: the analytical backend of the synthetic LLM.
//!
//! Given only the *prompt text* (RTL source, optional spec, optional
//! induction-step CEX values), the miner rebuilds the design, samples
//! reset-reachable behaviour with seeded random simulation, and proposes
//! invariant candidates from a library of pattern families — the same
//! families (register equality, offsets, range bounds, one-hot encodings,
//! parity relations) that published LLM-for-verification evaluations find
//! GPT-class models producing. Candidates falsified by the reachable
//! samples are dropped; candidates that *rule out* the CEX state are
//! boosted, mirroring how the paper's Fig.-2 flow uses the failure.

use crate::prompt::PromptSections;
use genfv_hdl::lower::literal;
use genfv_hdl::{elaborate, lex, parse_source, Tok, Token};
use genfv_ir::{evaluate, BitVecValue, Context, Env, ExprRef, Simulator, TransitionSystem};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Invariant pattern family.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Family {
    /// `a == b` between same-width registers.
    Equality,
    /// `a[i] == b[i]` single-bit relations (MSB).
    BitEquality,
    /// `(a - b) == c` constant offsets.
    Offset,
    /// `a <= c` range bounds (from RTL constants or observed maxima).
    Bound,
    /// `$onehot(s)` / `$onehot0(s)` encodings.
    OneHot,
    /// `^a == ^b` or `^a == const` parity relations.
    Parity,
    /// `s == const` frozen registers.
    Constant,
    /// `a == f(b)` functional relations between pipeline registers, mined
    /// from next-state structure (e.g. `code_q == encode(data_q)` in an
    /// ECC pipeline) — the hardest family, only strong models "know" it.
    Functional,
    /// `a |-> b` implications between 1-bit flag registers.
    Implication,
}

impl Family {
    /// All families, for profile coverage configuration.
    pub const ALL: [Family; 9] = [
        Family::Equality,
        Family::BitEquality,
        Family::Offset,
        Family::Bound,
        Family::OneHot,
        Family::Parity,
        Family::Constant,
        Family::Functional,
        Family::Implication,
    ];

    /// Short label used in generated property names.
    pub fn label(self) -> &'static str {
        match self {
            Family::Equality => "eq",
            Family::BitEquality => "biteq",
            Family::Offset => "offset",
            Family::Bound => "bound",
            Family::OneHot => "onehot",
            Family::Parity => "parity",
            Family::Constant => "const",
            Family::Functional => "func",
            Family::Implication => "impl",
        }
    }
}

/// A mined candidate invariant.
#[derive(Clone, Debug)]
pub struct CandidateInvariant {
    /// SVA boolean-layer text (parseable by `genfv-sva`).
    pub text: String,
    /// Pattern family.
    pub family: Family,
    /// Ranking score: higher = emitted earlier. CEX-excluding candidates
    /// get a large boost.
    pub score: f64,
    /// Whether the candidate evaluates to false on the CEX state (i.e. it
    /// would rule the spurious state out).
    pub excludes_cex: bool,
}

/// Mining configuration.
#[derive(Clone, Debug)]
pub struct MinerConfig {
    /// Independent random-simulation runs.
    pub sim_runs: usize,
    /// Steps per run.
    pub sim_steps: usize,
    /// RNG seed (determinism).
    pub seed: u64,
}

impl Default for MinerConfig {
    fn default() -> Self {
        MinerConfig { sim_runs: 6, sim_steps: 48, seed: 0xC0FFEE }
    }
}

/// Mining failure (unparseable RTL and similar).
#[derive(Clone, Debug)]
pub struct MineError {
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for MineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "miner error: {}", self.message)
    }
}

impl Error for MineError {}

/// Parses a Verilog-style literal (`8'hff`, `8'd200`, `4'b1010`, `42`)
/// with the RTL's lexer and literal sizing; a plain decimal is 64 bits
/// wide. Anything else, including a size no value can have, is `None`.
pub fn parse_verilog_literal(s: &str) -> Option<BitVecValue> {
    match lex(s).ok()?.as_slice() {
        [Token { tok: Tok::Number { size, base, digits }, .. }, Token { tok: Tok::Eof, .. }] => {
            literal(*size, *base, digits, (*base == 'i').then_some(64)).ok()
        }
        _ => None,
    }
}

/// Mines candidate invariants from the parsed prompt sections.
///
/// # Errors
/// Returns [`MineError`] when the RTL section is missing or fails to parse
/// or elaborate — the situations in which a real LLM starts guessing; the
/// model layer turns this into low-quality output rather than an error.
pub fn mine(
    sections: &PromptSections,
    config: &MinerConfig,
) -> Result<Vec<CandidateInvariant>, MineError> {
    let rtl =
        sections.rtl.as_ref().ok_or_else(|| MineError { message: "no RTL in prompt".into() })?;
    let modules =
        parse_source(rtl).map_err(|e| MineError { message: format!("RTL parse: {e}") })?;
    if modules.is_empty() {
        return Err(MineError { message: "no module in RTL".into() });
    }
    let mut ctx = Context::new();
    let ts = elaborate(&mut ctx, &modules[0])
        .map_err(|e| MineError { message: format!("RTL elaborate: {e}") })?;

    let samples = simulate_samples(&ctx, &ts, config);
    let cex = cex_env(&ctx, &ts, &sections.final_values);

    let mut miner = Miner { ctx: &mut ctx, ts: &ts, samples, cex, out: Vec::new() };
    miner.mine_all(sections);
    let mut out = miner.out;

    // Deduplicate by text, keep the best score.
    out.sort_by(|a, b| a.text.cmp(&b.text));
    out.dedup_by(|a, b| {
        if a.text == b.text {
            b.score = b.score.max(a.score);
            true
        } else {
            false
        }
    });
    out.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap_or(std::cmp::Ordering::Equal));
    Ok(out)
}

/// Reset-reachable state samples: one `Env` per observed cycle.
fn simulate_samples(ctx: &Context, ts: &TransitionSystem, config: &MinerConfig) -> Vec<Env> {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut samples = Vec::new();
    for _ in 0..config.sim_runs {
        let mut sim = Simulator::new(ctx, ts);
        sim.reset();
        for _ in 0..config.sim_steps {
            // Random input stimulus; reset held low so we observe the
            // design's own dynamics (formal-style: reset only at time 0).
            for &input in ts.inputs() {
                let w = ctx.width_of(input);
                let name = ctx.symbol_name(input).unwrap_or("");
                let v = if matches!(name, "rst" | "reset" | "rst_i" | "arst") {
                    BitVecValue::zero(w)
                } else {
                    random_value(&mut rng, w)
                };
                sim.set(input, v);
            }
            samples.push(sim.env().clone());
            sim.step();
        }
        samples.push(sim.env().clone());
    }
    samples
}

fn random_value(rng: &mut SmallRng, width: u32) -> BitVecValue {
    let mut v = BitVecValue::zero(width);
    for i in 0..width {
        if rng.gen_bool(0.5) {
            v.set_bit(i, true);
        }
    }
    v
}

/// Builds the CEX environment from rendered final-cycle values.
fn cex_env(ctx: &Context, ts: &TransitionSystem, values: &BTreeMap<String, String>) -> Option<Env> {
    if values.is_empty() {
        return None;
    }
    let mut env = Env::new();
    for sym in ts.all_symbols() {
        let name = ctx.symbol_name(sym)?.to_string();
        let w = ctx.width_of(sym);
        let v = values
            .get(&name)
            .and_then(|s| parse_verilog_literal(s))
            .map(|v| v.resize(w))
            .unwrap_or_else(|| BitVecValue::zero(w));
        env.insert(sym, v);
    }
    Some(env)
}

struct Miner<'a> {
    ctx: &'a mut Context,
    ts: &'a TransitionSystem,
    samples: Vec<Env>,
    cex: Option<Env>,
    out: Vec<CandidateInvariant>,
}

impl Miner<'_> {
    /// Design state registers, excluding SVA monitor internals.
    fn state_symbols(&self) -> Vec<ExprRef> {
        self.ts
            .states()
            .iter()
            .map(|s| s.symbol)
            .filter(|&s| self.ctx.symbol_name(s).map(|n| !n.starts_with("__sva_")).unwrap_or(false))
            .collect()
    }

    fn holds_on_samples(&self, e: ExprRef) -> bool {
        self.samples.iter().all(|env| evaluate(self.ctx, env, e).to_bool())
    }

    fn excludes_cex(&self, e: ExprRef) -> bool {
        match &self.cex {
            Some(env) => !evaluate(self.ctx, env, e).to_bool(),
            None => false,
        }
    }

    fn push(&mut self, expr: ExprRef, text: String, family: Family, base_score: f64) {
        if !self.holds_on_samples(expr) {
            return; // Falsified on reachable behaviour: a real LLM's good
                    // candidates survive this; junk is added elsewhere.
        }
        let excludes_cex = self.excludes_cex(expr);
        let score = base_score + if excludes_cex { 3.0 } else { 0.0 };
        self.out.push(CandidateInvariant { text, family, score, excludes_cex });
    }

    /// Named combinational signals of interest (outputs/nets), excluding
    /// states (covered separately) and monitor internals.
    fn comb_signals(&self) -> Vec<(String, ExprRef)> {
        let state_set: std::collections::HashSet<ExprRef> =
            self.ts.states().iter().map(|s| s.symbol).collect();
        self.ts
            .signals()
            .iter()
            .filter(|(n, e)| {
                !n.starts_with("__sva_")
                    && !state_set.contains(e)
                    && self.ts.inputs().iter().all(|i| i != e)
            })
            .map(|(n, e)| (n.clone(), *e))
            .collect()
    }

    fn mine_all(&mut self, sections: &PromptSections) {
        let states = self.state_symbols();
        let spec_mentions_lockstep = sections
            .spec
            .as_deref()
            .map(|s| {
                let s = s.to_lowercase();
                s.contains("equal")
                    || s.contains("lockstep")
                    || s.contains("same")
                    || s.contains("synchron")
            })
            .unwrap_or(false);

        // --- functional pipeline relations --------------------------------
        // When register b simply latches an input x (next(b) = x) and
        // register a latches f(x), then `a == f(b)` is a one-step-delayed
        // definitional invariant: the classic ECC-pipeline lemma.
        for &a in &states {
            for &b in &states {
                if a == b {
                    continue;
                }
                let (fa, fb) = match (self.ts.find_state(a), self.ts.find_state(b)) {
                    (Some(sa), Some(sb)) => (sa.next, sb.next),
                    _ => continue,
                };
                // Peel the reset mux (`ite(rst, const, body)`) that
                // elaboration wraps around next-state functions.
                let fa = self.peel_reset_mux(fa);
                let fb = self.peel_reset_mux(fb);
                // b must latch a plain input symbol.
                let is_input_latch = self.ts.inputs().contains(&fb);
                if !is_input_latch {
                    continue;
                }
                let x = fb;
                if self.ctx.free_symbols(fa) != [x] {
                    continue;
                }
                if fa == x {
                    continue; // plain equality, covered elsewhere
                }
                let map = std::collections::HashMap::from([(x, b)]);
                let rel = self.ctx.substitute(fa, &map);
                let inv = self.ctx.eq(a, rel);
                let name_a = self.ctx.symbol_name(a).unwrap_or("?").to_string();
                let text = format!("{name_a} == {}", self.ctx.display(rel));
                self.push(inv, text, Family::Functional, 2.2);
            }
        }

        // --- state ↔ combinational-signal equalities ----------------------
        // A register tracking a derived output (`count == dec_out` in an
        // ECC-protected counter) is a classic redundancy invariant.
        for &s in &states {
            let w = self.ctx.width_of(s);
            let name_s = self.ctx.symbol_name(s).unwrap_or("?").to_string();
            for (sig_name, sig) in self.comb_signals() {
                if self.ctx.width_of(sig) != w || sig == s {
                    continue;
                }
                let inv = self.ctx.eq(s, sig);
                self.push(inv, format!("{sig_name} == {name_s}"), Family::Equality, 1.9);
            }
        }

        // --- 1-bit implications -------------------------------------------
        // `a |-> b` between flag registers that co-vary in simulation
        // (non-vacuous: the antecedent fires at least once).
        let bit_states: Vec<ExprRef> =
            states.iter().copied().filter(|&s| self.ctx.width_of(s) == 1).collect();
        for &a in &bit_states {
            for &b in &bit_states {
                if a == b {
                    continue;
                }
                let fires = self
                    .samples
                    .iter()
                    .any(|env| env.get(&a).map(BitVecValue::to_bool).unwrap_or(false));
                if !fires {
                    continue;
                }
                let name_a = self.ctx.symbol_name(a).unwrap_or("?").to_string();
                let name_b = self.ctx.symbol_name(b).unwrap_or("?").to_string();
                let inv = self.ctx.implies(a, b);
                self.push(inv, format!("{name_a} |-> {name_b}"), Family::Implication, 0.7);
            }
        }

        // --- pairwise relations ------------------------------------------
        for (i, &a) in states.iter().enumerate() {
            for &b in states.iter().skip(i + 1) {
                let (wa, wb) = (self.ctx.width_of(a), self.ctx.width_of(b));
                if wa != wb {
                    continue;
                }
                let name_a = self.ctx.symbol_name(a).unwrap_or("?").to_string();
                let name_b = self.ctx.symbol_name(b).unwrap_or("?").to_string();

                // Equality.
                let eq = self.ctx.eq(a, b);
                let score = if spec_mentions_lockstep { 2.5 } else { 2.0 };
                self.push(eq, format!("{name_a} == {name_b}"), Family::Equality, score);

                // Constant sum (credit conservation: `snd + rcv == N`).
                if let Some(total) = self.constant_sum(a, b) {
                    if !total.is_zero() {
                        let t = self.ctx.value(total.clone());
                        let sum = self.ctx.add(a, b);
                        let inv = self.ctx.eq(sum, t);
                        self.push(
                            inv,
                            format!("({name_a} + {name_b}) == {total}"),
                            Family::Offset,
                            1.8,
                        );
                    }
                }

                // Constant offset (skip zero offset — that is equality).
                if let Some(delta) = self.constant_offset(a, b) {
                    if !delta.is_zero() {
                        let d = self.ctx.value(delta.clone());
                        let diff = self.ctx.sub(a, b);
                        let inv = self.ctx.eq(diff, d);
                        self.push(
                            inv,
                            format!("({name_a} - {name_b}) == {delta}"),
                            Family::Offset,
                            1.8,
                        );
                    }
                }

                // Directional families: evaluate with both operand orders.
                for (x, y, name_x, name_y) in [(a, b, &name_a, &name_b), (b, a, &name_b, &name_a)] {
                    // Difference tracked by a third register (`count ==
                    // wptr - rptr` in FIFOs). Modular subtraction makes
                    // this exact even across pointer wrap.
                    for &c in &states {
                        if c == x || c == y || self.ctx.width_of(c) != wa {
                            continue;
                        }
                        let tracks = self.samples.iter().all(|env| {
                            match (env.get(&x), env.get(&y), env.get(&c)) {
                                (Some(vx), Some(vy), Some(vc)) => vx.sub(vy) == *vc,
                                _ => false,
                            }
                        });
                        if tracks {
                            let name_c = self.ctx.symbol_name(c).unwrap_or("?").to_string();
                            let diff = self.ctx.sub(x, y);
                            let inv = self.ctx.eq(diff, c);
                            self.push(
                                inv,
                                format!("({name_x} - {name_y}) == {name_c}"),
                                Family::Offset,
                                1.7,
                            );
                        }
                    }

                    // Transform library: classic hardware idioms relating
                    // two registers (Gray-code shadow, complement).
                    let transforms: Vec<(ExprRef, String)> = {
                        let shift1 = self.ctx.constant(1, wa);
                        let shifted = self.ctx.lshr(y, shift1);
                        let gray = self.ctx.xor(y, shifted);
                        let compl = self.ctx.not(y);
                        vec![
                            (gray, format!("({name_y} ^ ({name_y} >> 1))")),
                            (compl, format!("(~{name_y})")),
                        ]
                    };
                    for (rhs, rhs_text) in transforms {
                        let inv = self.ctx.eq(x, rhs);
                        self.push(inv, format!("{name_x} == {rhs_text}"), Family::Functional, 1.9);
                    }
                }

                // MSB equality (cheap bit relation; useful when full
                // equality fails under e.g. enables).
                if wa > 1 {
                    let ba = self.ctx.bit(a, wa - 1);
                    let bb = self.ctx.bit(b, wb - 1);
                    let inv = self.ctx.eq(ba, bb);
                    self.push(
                        inv,
                        format!("{name_a}[{}] == {name_b}[{}]", wa - 1, wb - 1),
                        Family::BitEquality,
                        1.0,
                    );
                }

                // Parity relation.
                let xa = self.ctx.red_xor(a);
                let xb = self.ctx.red_xor(b);
                let inv = self.ctx.eq(xa, xb);
                self.push(inv, format!("(^{name_a}) == (^{name_b})"), Family::Parity, 0.9);
            }
        }

        // --- per-register facts --------------------------------------------
        for &s in &states {
            let w = self.ctx.width_of(s);
            let name = self.ctx.symbol_name(s).unwrap_or("?").to_string();

            // Bounds from constants in the register's own next function
            // (wrap comparisons like `cnt == MAX` suggest `cnt <= MAX`).
            for c in self.comparison_constants(s) {
                if c.is_zero() {
                    continue;
                }
                let cv = self.ctx.value(c.clone());
                let inv = self.ctx.ule(s, cv);
                self.push(inv, format!("{name} <= {c}"), Family::Bound, 1.6);
            }

            // Observed-maximum bound (plausible but sometimes too tight —
            // the validation layer will reject overfitted ones; real LLMs
            // overfit the same way).
            if w > 1 && w <= 64 {
                let max_seen = self
                    .samples
                    .iter()
                    .filter_map(|env| env.get(&s).and_then(BitVecValue::to_u64))
                    .max()
                    .unwrap_or(0);
                if max_seen > 0 && max_seen < (1u64 << w.min(63)) - 1 {
                    let cv = self.ctx.constant(max_seen, w);
                    let c = BitVecValue::from_u64(max_seen, w);
                    let inv = self.ctx.ule(s, cv);
                    self.push(inv, format!("{name} <= {c}"), Family::Bound, 0.6);
                }
            }

            // One-hot encodings.
            if w >= 2 {
                let oh = self.ctx.onehot(s);
                self.push(oh, format!("$onehot({name})"), Family::OneHot, 1.4);
                let oh0 = self.ctx.onehot0(s);
                self.push(oh0, format!("$onehot0({name})"), Family::OneHot, 0.8);
            }

            // Never-zero registers (LFSRs, one-hot tokens).
            {
                let zero = self.ctx.constant(0, w);
                let inv = self.ctx.ne(s, zero);
                let z = BitVecValue::zero(w);
                self.push(inv, format!("{name} != {z}"), Family::Bound, 1.1);
            }

            // Frozen register.
            if let Some(v) = self.constant_value(s) {
                let cv = self.ctx.value(v.clone());
                let inv = self.ctx.eq(s, cv);
                self.push(inv, format!("{name} == {v}"), Family::Constant, 1.2);
            }

            // Parity constant.
            let xs = self.ctx.red_xor(s);
            let t = self.ctx.bool_const(true);
            let f = self.ctx.bool_const(false);
            let inv_even = self.ctx.eq(xs, f);
            self.push(inv_even, format!("(^{name}) == 1'b0"), Family::Parity, 0.5);
            let inv_odd = self.ctx.eq(xs, t);
            self.push(inv_odd, format!("(^{name}) == 1'b1"), Family::Parity, 0.5);
        }
    }

    /// Strips a top-level `ite(cond, constant, body)` — the shape
    /// elaboration produces for registers with a constant reset value —
    /// returning `body` (the normal-operation next function).
    fn peel_reset_mux(&self, e: ExprRef) -> ExprRef {
        use genfv_ir::Expr;
        match self.ctx.expr(e) {
            Expr::Ite { tru, fls, .. } if self.ctx.const_value(*tru).is_some() => *fls,
            _ => e,
        }
    }

    /// The constant `a + b` if stable across every sample.
    fn constant_sum(&self, a: ExprRef, b: ExprRef) -> Option<BitVecValue> {
        let mut total: Option<BitVecValue> = None;
        for env in &self.samples {
            let va = env.get(&a)?;
            let vb = env.get(&b)?;
            let s = va.add(vb);
            match &total {
                None => total = Some(s),
                Some(prev) if *prev == s => {}
                _ => return None,
            }
        }
        total
    }

    /// The constant `a - b` if stable across every sample.
    fn constant_offset(&self, a: ExprRef, b: ExprRef) -> Option<BitVecValue> {
        let mut delta: Option<BitVecValue> = None;
        for env in &self.samples {
            let va = env.get(&a)?;
            let vb = env.get(&b)?;
            let d = va.sub(vb);
            match &delta {
                None => delta = Some(d),
                Some(prev) if *prev == d => {}
                _ => return None,
            }
        }
        delta
    }

    /// The constant value of `s` if it never changes across samples.
    fn constant_value(&self, s: ExprRef) -> Option<BitVecValue> {
        let mut val: Option<BitVecValue> = None;
        for env in &self.samples {
            let v = env.get(&s)?;
            match &val {
                None => val = Some(v.clone()),
                Some(prev) if prev == v => {}
                _ => return None,
            }
        }
        val
    }

    /// Constants that the RTL compares against register `s` (in its own
    /// next-state function) — prime sources of range bounds.
    fn comparison_constants(&self, s: ExprRef) -> Vec<BitVecValue> {
        use genfv_ir::{BinaryOp, Expr};
        let state = self.ts.find_state(s);
        let Some(state) = state else { return Vec::new() };
        let mut out = Vec::new();
        let mut stack = vec![state.next];
        let mut seen = std::collections::HashSet::new();
        while let Some(e) = stack.pop() {
            if !seen.insert(e) {
                continue;
            }
            match self.ctx.expr(e) {
                Expr::Binary(op @ (BinaryOp::Eq | BinaryOp::Ult | BinaryOp::Ule), x, y) => {
                    let _ = op;
                    for (lhs, rhs) in [(x, y), (y, x)] {
                        if *lhs == s || involves(self.ctx, *lhs, s) {
                            if let Some(c) = self.ctx.const_value(*rhs) {
                                out.push(c.clone());
                            }
                        }
                    }
                    stack.push(*x);
                    stack.push(*y);
                }
                Expr::Binary(_, x, y) => {
                    stack.push(*x);
                    stack.push(*y);
                }
                Expr::Unary(_, x) | Expr::Extract { value: x, .. } => stack.push(*x),
                Expr::Ite { cond, tru, fls } => {
                    stack.push(*cond);
                    stack.push(*tru);
                    stack.push(*fls);
                }
                _ => {}
            }
        }
        out.sort();
        out.dedup();
        out
    }
}

fn involves(ctx: &Context, e: ExprRef, sym: ExprRef) -> bool {
    ctx.free_symbols(e).contains(&sym)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompt::Prompt;

    const SYNC_COUNTERS: &str = r#"
module sync_counters (input clk, rst, output logic [7:0] count1, count2);
  always @(posedge clk or posedge rst) begin
    if (rst) begin
      count1 <= 8'b0;
      count2 <= 8'b0;
    end else begin
      count1++;
      count2++;
    end
  end
endmodule
"#;

    fn sections_for(rtl: &str, spec: &str) -> PromptSections {
        let p = Prompt::flow1(spec, rtl, &[]);
        PromptSections::parse(&p.user)
    }

    #[test]
    fn mines_paper_helper_on_sync_counters() {
        let sections = sections_for(SYNC_COUNTERS, "Two counters in lockstep.");
        let cands = mine(&sections, &MinerConfig::default()).unwrap();
        let eq = cands
            .iter()
            .find(|c| c.family == Family::Equality)
            .expect("equality candidate expected");
        assert_eq!(eq.text, "count1 == count2", "the paper's Listing-3 helper");
        // It must rank near the top even without a CEX.
        assert!(cands.iter().position(|c| c.text == eq.text).unwrap() < 4);
    }

    #[test]
    fn cex_boosts_excluding_candidates() {
        let p = Prompt::flow2(
            SYNC_COUNTERS,
            "&count1 |-> &count2",
            "(wave)",
            &BTreeMap::from([
                ("count1".to_string(), "8'hff".to_string()),
                ("count2".to_string(), "8'h7f".to_string()),
                ("rst".to_string(), "1'd0".to_string()),
            ]),
        );
        let sections = PromptSections::parse(&p.user);
        let cands = mine(&sections, &MinerConfig::default()).unwrap();
        let top = &cands[0];
        assert!(top.excludes_cex, "best candidate must rule out the CEX: {top:?}");
        assert_eq!(top.text, "count1 == count2");
    }

    #[test]
    fn offset_family_found() {
        let rtl = r#"
module offset_counters (input clk, rst, output logic [7:0] a, b);
  always_ff @(posedge clk) begin
    if (rst) begin a <= 8'd5; b <= 8'd0; end
    else begin a <= a + 8'd1; b <= b + 8'd1; end
  end
endmodule
"#;
        let sections = sections_for(rtl, "b trails a by five.");
        let cands = mine(&sections, &MinerConfig::default()).unwrap();
        let off = cands.iter().find(|c| c.family == Family::Offset).expect("offset candidate");
        assert!(off.text.contains("(a - b) == 8'd5"), "{}", off.text);
        // Plain equality must NOT appear (falsified by simulation).
        assert!(!cands.iter().any(|c| c.text == "a == b"));
    }

    #[test]
    fn bound_from_rtl_constant() {
        let rtl = r#"
module modn (input clk, rst, output logic [7:0] cnt);
  always_ff @(posedge clk) begin
    if (rst) cnt <= '0;
    else if (cnt == 8'd9) cnt <= '0;
    else cnt <= cnt + 8'd1;
  end
endmodule
"#;
        let sections = sections_for(rtl, "Counts modulo ten.");
        let cands = mine(&sections, &MinerConfig::default()).unwrap();
        assert!(
            cands.iter().any(|c| c.family == Family::Bound && c.text.contains("cnt <= 8'd9")),
            "expected wrap bound: {:?}",
            cands.iter().map(|c| &c.text).collect::<Vec<_>>()
        );
    }

    #[test]
    fn onehot_found_for_ring_counter() {
        let rtl = r#"
module ring (input clk, rst, output logic [3:0] r);
  always_ff @(posedge clk) begin
    if (rst) r <= 4'b0001;
    else r <= {r[2:0], r[3]};
  end
endmodule
"#;
        let sections = sections_for(rtl, "One-hot rotating token.");
        let cands = mine(&sections, &MinerConfig::default()).unwrap();
        assert!(cands.iter().any(|c| c.text == "$onehot(r)"), "{cands:?}");
    }

    #[test]
    fn functional_relation_mined_for_pipeline() {
        // data_q latches the input; par_q latches a function of the input:
        // the invariant `par_q == f(data_q)` must be mined.
        let rtl = r#"
module pipe (input clk, rst, input [3:0] d, output logic [3:0] data_q, output logic par_q);
  always_ff @(posedge clk) begin
    if (rst) begin data_q <= '0; par_q <= 1'b0; end
    else begin data_q <= d; par_q <= ^d; end
  end
endmodule
"#;
        let sections = sections_for(rtl, "parity pipeline");
        let cands = mine(&sections, &MinerConfig::default()).unwrap();
        let func = cands
            .iter()
            .find(|c| c.family == Family::Functional)
            .unwrap_or_else(|| panic!("functional candidate expected: {cands:?}"));
        assert!(func.text.contains("par_q =="), "{}", func.text);
        assert!(func.text.contains("data_q"), "{}", func.text);
        // The text must parse as a valid assertion.
        assert!(genfv_sva::parse_assertion(&func.text).is_ok(), "{}", func.text);
    }

    #[test]
    fn unparseable_rtl_is_an_error() {
        let s = PromptSections { rtl: Some("module broken ((".to_string()), ..Default::default() };
        assert!(mine(&s, &MinerConfig::default()).is_err());
    }

    #[test]
    fn literal_parser() {
        assert_eq!(parse_verilog_literal("8'hff").unwrap().to_u64(), Some(255));
        assert_eq!(parse_verilog_literal("8'd200").unwrap().to_u64(), Some(200));
        assert_eq!(parse_verilog_literal("4'b1010").unwrap().to_u64(), Some(10));
        assert_eq!(parse_verilog_literal("42").unwrap().to_u64(), Some(42));
        assert_eq!(parse_verilog_literal("12'hfff").unwrap().width(), 12);
        assert!(parse_verilog_literal("8'xzz").is_none());
        assert_eq!(parse_verilog_literal("8'o377").unwrap().to_u64(), Some(255));
        assert_eq!(parse_verilog_literal("18446744073709551615").unwrap().width(), 64);
        // Sizes no value can have: 0 and past `BitVecValue::MAX_WIDTH`.
        for hostile in ["0'h1", "4294967295'd1", "2000000'h1"] {
            assert!(parse_verilog_literal(hostile).is_none(), "{hostile}");
        }
    }

    #[test]
    fn determinism() {
        let sections = sections_for(SYNC_COUNTERS, "spec");
        let a = mine(&sections, &MinerConfig::default()).unwrap();
        let b = mine(&sections, &MinerConfig::default()).unwrap();
        let ta: Vec<&String> = a.iter().map(|c| &c.text).collect();
        let tb: Vec<&String> = b.iter().map(|c| &c.text).collect();
        assert_eq!(ta, tb);
    }
}
