//! Differential property tests for the `genfv_ir::opt` pipeline: on
//! randomly generated expression DAGs and transition systems, the
//! optimized structure must be observationally identical to the original
//! — combinationally (the evaluator agrees on every input assignment)
//! and sequentially (a lockstep simulation from reset agrees on every
//! observable at every cycle, under random input traces).
//!
//! The sweep pass rebuilds the arena, so no `ExprRef` survives
//! optimization: everything is re-resolved by *name* (`find_symbol`,
//! `find_signal`) on the optimized side, which is exactly the discipline
//! downstream consumers follow.

use genfv_ir::{
    evaluate, optimize, BitVecValue, Context, Env, ExprRef, OptConfig, Simulator, TransitionSystem,
};
use genfv_obs::Obs;
use proptest::prelude::*;

mod common;
use common::{arb_op, build, Op};

/// Coerces `e` to exactly `width` bits (the generator's stack top can end
/// at any width after extracts/zexts/reductions).
fn norm(ctx: &mut Context, e: ExprRef, width: u32) -> ExprRef {
    let w = ctx.width_of(e);
    if w == width {
        e
    } else if w > width {
        ctx.extract(e, width - 1, 0)
    } else {
        ctx.zext(e, width)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Combinational preservation: optimize a random DAG (published as a
    /// named signal so the pipeline must keep its cone) and check that
    /// the evaluator returns the same value on both sides for the same
    /// symbol assignment.
    #[test]
    fn optimized_dag_evaluates_identically(
        width in 1u32..10,
        ops in proptest::collection::vec(arb_op(), 1..32),
        vals in proptest::collection::vec(any::<u64>(), 4),
    ) {
        let mut ctx = Context::new();
        let syms: Vec<ExprRef> =
            (0..4).map(|i| ctx.symbol(&format!("s{i}"), width)).collect();
        let e = build(&mut ctx, width, &ops, &syms);

        let mut ts = TransitionSystem::new("rand_comb");
        for &s in &syms {
            ts.add_input(s);
        }
        ts.add_signal("out", e);

        // Reference value before the pipeline touches anything.
        let mut env = Env::new();
        for (s, v) in syms.iter().zip(&vals) {
            env.insert(*s, BitVecValue::from_u64(*v, width));
        }
        let expected = evaluate(&ctx, &env, e);

        let mut roots = vec![e];
        optimize(&mut ctx, &mut ts, &mut roots, &OptConfig::default(), &Obs::off());

        // The sweep invalidated every pre-optimization ExprRef: re-key
        // the environment by symbol name. Symbols the optimizer removed
        // from the arena are exactly the ones the result cannot depend
        // on, so skipping them is sound.
        let out = ts.find_signal("out").expect("published signal survives");
        prop_assert_eq!(roots[0], out, "root and signal were rewritten in lockstep");
        let mut opt_env = Env::new();
        for (i, v) in vals.iter().enumerate() {
            if let Some(s) = ctx.find_symbol(&format!("s{i}")) {
                opt_env.insert(s, BitVecValue::from_u64(*v, width));
            }
        }
        let got = evaluate(&ctx, &opt_env, out);
        prop_assert_eq!(got, expected, "optimized expr: {}", ctx.display(out));
    }

    /// Sequential preservation: a random two-register transition system
    /// with a published observable, simulated in lockstep from reset over
    /// a random input trace. The optimizer may fold registers away
    /// (stuck-at, COI) and rebuild the arena, but the observable's value
    /// trace must be identical cycle for cycle.
    #[test]
    fn optimized_ts_simulates_identically(
        width in 1u32..8,
        next_ops in proptest::collection::vec(
            proptest::collection::vec(arb_op(), 1..16), 2),
        obs_ops in proptest::collection::vec(arb_op(), 1..16),
        inits in proptest::collection::vec(any::<u64>(), 2),
        trace in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 2), 1..5),
    ) {
        let mut ctx = Context::new();
        let i0 = ctx.symbol("i0", width);
        let i1 = ctx.symbol("i1", width);
        let r0 = ctx.symbol("r0", width);
        let r1 = ctx.symbol("r1", width);
        let syms = [i0, i1, r0, r1];

        let mut nexts = Vec::new();
        for ops in &next_ops {
            let e = build(&mut ctx, width, ops, &syms);
            nexts.push(norm(&mut ctx, e, width));
        }
        let obs = build(&mut ctx, width, &obs_ops, &syms);
        let obs = norm(&mut ctx, obs, width);

        let mut ts = TransitionSystem::new("rand_seq");
        ts.add_input(i0);
        ts.add_input(i1);
        for (k, (&next, init)) in nexts.iter().zip(&inits).enumerate() {
            let init = ctx.constant(*init, width);
            ts.add_state(syms[2 + k], Some(init), next);
        }
        ts.add_signal("obs", obs);

        let ctx0 = ctx.clone();
        let ts0 = ts.clone();
        let mut roots = Vec::new();
        optimize(&mut ctx, &mut ts, &mut roots, &OptConfig::default(), &Obs::off());

        let obs1 = ts.find_signal("obs").expect("observable survives");
        let mut ref_sim = Simulator::new(&ctx0, &ts0);
        let mut opt_sim = Simulator::new(&ctx, &ts);
        ref_sim.reset();
        opt_sim.reset();
        for (cycle, step) in trace.iter().enumerate() {
            for (name, v) in ["i0", "i1"].iter().zip(step) {
                let val = BitVecValue::from_u64(*v, width);
                ref_sim.set(ctx0.find_symbol(name).unwrap(), val.clone());
                // Inputs the optimizer swept out of the arena cannot
                // influence any kept observable.
                if let Some(s) = ctx.find_symbol(name) {
                    opt_sim.set(s, val);
                }
            }
            prop_assert_eq!(
                ref_sim.peek(obs),
                opt_sim.peek(obs1),
                "observable diverged at cycle {}",
                cycle
            );
            ref_sim.step();
            opt_sim.step();
        }
        prop_assert_eq!(ref_sim.peek(obs), opt_sim.peek(obs1), "observable diverged after trace");
    }
}

/// The generator's stack machine is exercised by the proptests above;
/// this pin keeps the module's `Op` surface referenced even under
/// `--no-default-features` style filtering.
#[test]
fn generator_builds_a_dag() {
    let mut ctx = Context::new();
    let syms: Vec<ExprRef> = (0..4).map(|i| ctx.symbol(&format!("s{i}"), 8)).collect();
    let e = build(&mut ctx, 8, &[Op::PushSym(1), Op::Add, Op::Not], &syms);
    assert_eq!(ctx.width_of(e), 8);
}
