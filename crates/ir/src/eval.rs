//! Concrete evaluation of expressions and cycle-accurate simulation of
//! transition systems.
//!
//! The evaluator is the executable semantics of the IR; the property-based
//! tests in `tests/bitblast_vs_eval.rs` check the SAT bit-blaster against it
//! bit for bit, which is the central correctness argument for the stack.

use crate::expr::{BinaryOp, Context, Expr, ExprRef, UnaryOp};
use crate::ts::TransitionSystem;
use crate::value::BitVecValue;
use std::collections::HashMap;

/// An assignment of values to symbols.
pub type Env = HashMap<ExprRef, BitVecValue>;

/// Evaluates `e` under `env` (which must bind every symbol reachable from
/// `e`).
///
/// # Panics
/// Panics if a reachable symbol is unbound.
pub fn evaluate(ctx: &Context, env: &Env, e: ExprRef) -> BitVecValue {
    let mut memo: HashMap<ExprRef, BitVecValue> = HashMap::new();
    eval_memo(ctx, env, e, &mut memo)
}

/// The splitmix64 step: a tiny, high-quality, dependency-free PRNG. The
/// simulator's stimulus helpers derive every random bit from it so stimulus
/// is a pure function of the caller's seed.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A width-correct random value drawn from a splitmix64 stream.
fn random_value(state: &mut u64, width: u32) -> BitVecValue {
    let bits: Vec<bool> = (0..width).map(|i| (splitmix64(state) >> (i % 64)) & 1 == 1).collect();
    BitVecValue::from_bits_lsb_first(&bits)
}

fn eval_memo(
    ctx: &Context,
    env: &Env,
    e: ExprRef,
    memo: &mut HashMap<ExprRef, BitVecValue>,
) -> BitVecValue {
    if let Some(v) = memo.get(&e) {
        return v.clone();
    }
    let result = match ctx.expr(e) {
        Expr::Const(v) => v.clone(),
        Expr::Symbol { name, .. } => env
            .get(&e)
            .unwrap_or_else(|| panic!("unbound symbol `{name}` during evaluation"))
            .clone(),
        Expr::Unary(op, a) => {
            let va = eval_memo(ctx, env, *a, memo);
            match op {
                UnaryOp::Not => va.not(),
                UnaryOp::Neg => va.negate(),
                UnaryOp::RedAnd => BitVecValue::from_bool(va.red_and()),
                UnaryOp::RedOr => BitVecValue::from_bool(va.red_or()),
                UnaryOp::RedXor => BitVecValue::from_bool(va.red_xor()),
            }
        }
        Expr::Binary(op, a, b) => {
            let va = eval_memo(ctx, env, *a, memo);
            let vb = eval_memo(ctx, env, *b, memo);
            match op {
                BinaryOp::And => va.and(&vb),
                BinaryOp::Or => va.or(&vb),
                BinaryOp::Xor => va.xor(&vb),
                BinaryOp::Add => va.add(&vb),
                BinaryOp::Sub => va.sub(&vb),
                BinaryOp::Mul => va.mul(&vb),
                BinaryOp::Udiv => va.udiv(&vb),
                BinaryOp::Urem => va.urem(&vb),
                BinaryOp::Eq => BitVecValue::from_bool(va == vb),
                BinaryOp::Ult => BitVecValue::from_bool(va.ult(&vb)),
                BinaryOp::Ule => BitVecValue::from_bool(va.ule(&vb)),
                BinaryOp::Slt => BitVecValue::from_bool(va.slt(&vb)),
                BinaryOp::Concat => va.concat(&vb),
                BinaryOp::Shl => va.shl(&vb),
                BinaryOp::Lshr => va.lshr(&vb),
            }
        }
        Expr::Ite { cond, tru, fls } => {
            let c = eval_memo(ctx, env, *cond, memo);
            if c.to_bool() {
                eval_memo(ctx, env, *tru, memo)
            } else {
                eval_memo(ctx, env, *fls, memo)
            }
        }
        Expr::Extract { value, hi, lo } => {
            let v = eval_memo(ctx, env, *value, memo);
            v.extract(*hi, *lo)
        }
    };
    memo.insert(e, result.clone());
    result
}

/// Cycle-accurate simulator for a [`TransitionSystem`].
///
/// ```
/// use genfv_ir::{Context, TransitionSystem, Simulator, BitVecValue};
/// let mut ctx = Context::new();
/// let c = ctx.symbol("count", 8);
/// let one = ctx.constant(1, 8);
/// let zero = ctx.constant(0, 8);
/// let next = ctx.add(c, one);
/// let mut ts = TransitionSystem::new("counter");
/// ts.add_state(c, Some(zero), next);
/// let mut sim = Simulator::new(&ctx, &ts);
/// sim.reset();
/// sim.step();
/// sim.step();
/// assert_eq!(sim.get(c).to_u64(), Some(2));
/// ```
#[derive(Debug)]
pub struct Simulator<'a> {
    ctx: &'a Context,
    ts: &'a TransitionSystem,
    env: Env,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator with all states/inputs zero-initialised (call
    /// [`Simulator::reset`] to apply declared init expressions).
    pub fn new(ctx: &'a Context, ts: &'a TransitionSystem) -> Self {
        let mut env = Env::new();
        for sym in ts.all_symbols() {
            env.insert(sym, BitVecValue::zero(ctx.width_of(sym)));
        }
        Simulator { ctx, ts, env }
    }

    /// Applies every state's declared init expression; states without one
    /// keep their current (explicitly set or zero) value.
    pub fn reset(&mut self) {
        // Init expressions may reference inputs/other symbols; evaluate in
        // the pre-reset environment.
        let snapshot = self.env.clone();
        for s in self.ts.states() {
            if let Some(init) = s.init {
                let v = evaluate(self.ctx, &snapshot, init);
                self.env.insert(s.symbol, v);
            }
        }
    }

    /// Sets an input or state symbol to a concrete value.
    ///
    /// # Panics
    /// Panics if the width does not match the symbol.
    pub fn set(&mut self, symbol: ExprRef, value: BitVecValue) {
        assert_eq!(
            self.ctx.width_of(symbol),
            value.width(),
            "width mismatch setting {:?}",
            self.ctx.symbol_name(symbol)
        );
        self.env.insert(symbol, value);
    }

    /// Reads the current value of a symbol.
    pub fn get(&self, symbol: ExprRef) -> &BitVecValue {
        &self.env[&symbol]
    }

    /// Evaluates an arbitrary expression in the current cycle.
    pub fn peek(&self, e: ExprRef) -> BitVecValue {
        evaluate(self.ctx, &self.env, e)
    }

    /// Checks whether all environment constraints hold in the current cycle.
    pub fn constraints_hold(&self) -> bool {
        self.ts.constraints().iter().all(|&c| self.peek(c).to_bool())
    }

    /// Advances one clock cycle: every state takes its next-state value,
    /// simultaneously.
    pub fn step(&mut self) {
        let mut next_vals: Vec<(ExprRef, BitVecValue)> = Vec::with_capacity(self.ts.states().len());
        for s in self.ts.states() {
            next_vals.push((s.symbol, evaluate(self.ctx, &self.env, s.next)));
        }
        for (sym, v) in next_vals {
            self.env.insert(sym, v);
        }
    }

    /// The complete current environment (symbol → value).
    pub fn env(&self) -> &Env {
        &self.env
    }

    /// Assigns every declared input a deterministic pseudo-random value
    /// derived from `seed` (splitmix64 over the declaration order). Two
    /// simulators over the same system and seed see identical stimulus, so
    /// callers — register correspondence's from-reset runs, differential
    /// tests — never hand-roll input vectors.
    pub fn randomize_inputs(&mut self, seed: u64) {
        let mut state = seed ^ 0xa076_1d64_78bd_642f;
        let syms: Vec<ExprRef> = self.ts.inputs().to_vec();
        for sym in syms {
            let v = random_value(&mut state, self.ctx.width_of(sym));
            self.env.insert(sym, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluate_arith() {
        let mut ctx = Context::new();
        let a = ctx.symbol("a", 8);
        let b = ctx.symbol("b", 8);
        let e = {
            let s = ctx.add(a, b);
            let two = ctx.constant(2, 8);
            ctx.mul(s, two)
        };
        let mut env = Env::new();
        env.insert(a, BitVecValue::from_u64(3, 8));
        env.insert(b, BitVecValue::from_u64(4, 8));
        assert_eq!(evaluate(&ctx, &env, e).to_u64(), Some(14));
    }

    #[test]
    #[should_panic(expected = "unbound symbol")]
    fn unbound_symbol_panics() {
        let mut ctx = Context::new();
        let a = ctx.symbol("a", 8);
        let env = Env::new();
        let _ = evaluate(&ctx, &env, a);
    }

    #[test]
    fn two_counters_stay_in_lockstep() {
        // The paper's Listing 1, as hand-built IR.
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
        let eq = ctx.eq(c1, c2);

        let mut sim = Simulator::new(&ctx, &ts);
        sim.reset();
        for _ in 0..100 {
            assert!(sim.peek(eq).to_bool());
            sim.step();
        }
    }

    #[test]
    fn step_is_simultaneous() {
        // swap registers: a <= b; b <= a. Sequential evaluation would
        // collapse both to the same value.
        let mut ctx = Context::new();
        let a = ctx.symbol("a", 4);
        let b = ctx.symbol("b", 4);
        let mut ts = TransitionSystem::new("swap");
        ts.add_state(a, None, b);
        ts.add_state(b, None, a);
        let mut sim = Simulator::new(&ctx, &ts);
        sim.set(a, BitVecValue::from_u64(1, 4));
        sim.set(b, BitVecValue::from_u64(2, 4));
        sim.step();
        assert_eq!(sim.get(a).to_u64(), Some(2));
        assert_eq!(sim.get(b).to_u64(), Some(1));
    }

    #[test]
    fn constraints_checked() {
        let mut ctx = Context::new();
        let x = ctx.symbol("x", 4);
        let five = ctx.constant(5, 4);
        let c = ctx.ult(x, five);
        let mut ts = TransitionSystem::new("constrained");
        let zero = ctx.constant(0, 4);
        let one = ctx.constant(1, 4);
        let next = ctx.add(x, one);
        ts.add_state(x, Some(zero), next);
        ts.add_constraint(c);
        let mut sim = Simulator::new(&ctx, &ts);
        sim.reset();
        assert!(sim.constraints_hold());
        for _ in 0..5 {
            sim.step();
        }
        assert!(!sim.constraints_hold(), "x reached 5");
    }

    #[test]
    fn randomized_stimulus_is_deterministic_and_width_correct() {
        let mut ctx = Context::new();
        let a = ctx.symbol("a", 3);
        let b = ctx.symbol("b", 64);
        let r = ctx.symbol("r", 17);
        let mut ts = TransitionSystem::new("t");
        ts.add_input(a);
        ts.add_input(b);
        ts.add_state(r, None, r);
        let mut s1 = Simulator::new(&ctx, &ts);
        let mut s2 = Simulator::new(&ctx, &ts);
        s1.randomize_inputs(7);
        s2.randomize_inputs(7);
        for sym in [a, b] {
            assert_eq!(s1.get(sym), s2.get(sym), "same seed, same stimulus");
            assert_eq!(s1.get(sym).width(), ctx.width_of(sym));
        }
        s2.randomize_inputs(8);
        assert!(
            s1.get(a) != s2.get(a) || s1.get(b) != s2.get(b),
            "different seeds should move at least one input"
        );
        assert_eq!(s1.get(r), s2.get(r), "randomize_inputs leaves states alone");
    }

    #[test]
    fn reset_applies_inits_only() {
        let mut ctx = Context::new();
        let a = ctx.symbol("a", 4);
        let b = ctx.symbol("b", 4);
        let mut ts = TransitionSystem::new("t");
        let seven = ctx.constant(7, 4);
        ts.add_state(a, Some(seven), a);
        ts.add_state(b, None, b);
        let mut sim = Simulator::new(&ctx, &ts);
        sim.set(b, BitVecValue::from_u64(3, 4));
        sim.reset();
        assert_eq!(sim.get(a).to_u64(), Some(7));
        assert_eq!(sim.get(b).to_u64(), Some(3), "uninitialised state untouched");
    }
}
