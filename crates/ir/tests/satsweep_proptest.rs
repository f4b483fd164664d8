//! Differential property tests for `OptLevel::SatSweep`: on randomly
//! generated expression DAGs and transition systems, the pipeline with
//! `SatSweepPass` enabled must remain observationally identical to the
//! unoptimized structure — combinationally (the evaluator agrees on
//! every input assignment) and sequentially (a lockstep simulation from
//! reset agrees on every observable at every cycle, under random input
//! traces).
//!
//! This is the sweep's sharpest soundness check: the generated systems
//! carry *no* constraints, so every merge the sweep performs must be an
//! unconditional equivalence — any miter the bounded SAT calls got wrong
//! shows up as an evaluator mismatch on the very next random stimulus.
//! Hash-consing means structurally identical cones are already shared,
//! so the pairs the sweep sees here are exactly the adversarial ones:
//! signature-aliased lookalikes it must refute via CEX refinement.

use genfv_ir::{
    evaluate, optimize, BitVecValue, Context, Env, ExprRef, OptConfig, OptLevel, Simulator,
    TransitionSystem,
};
use genfv_obs::Obs;
use proptest::prelude::*;

mod common;
use common::{arb_op, build};

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

fn sweep_config() -> OptConfig {
    OptConfig::default().with_level(OptLevel::SatSweep)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Combinational preservation under sweeping: optimize a random DAG
    /// at `OptLevel::SatSweep` (published as a named signal so the
    /// pipeline must keep its cone) and check that the evaluator returns
    /// the same value on both sides for the same symbol assignment.
    #[test]
    fn swept_dag_evaluates_identically(
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
        optimize(&mut ctx, &mut ts, &mut roots, &sweep_config(), &Obs::off());

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
        prop_assert_eq!(got, expected, "swept expr: {}", ctx.display(out));
    }

    /// Sequential preservation under sweeping: a random two-register
    /// transition system with a published observable, simulated in
    /// lockstep from reset over a random input trace. Register
    /// correspondence may legitimately merge the two registers when
    /// their inits coincide and their next functions prove equal under
    /// the substitution — precisely then the observable's trace is
    /// unchanged, which is what this pins.
    #[test]
    fn swept_ts_simulates_identically(
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
        optimize(&mut ctx, &mut ts, &mut roots, &sweep_config(), &Obs::off());

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

/// A directed (non-random) instance where the sweep is guaranteed to
/// fire: two structurally different encodings of XOR, merged by the
/// sweep, still evaluate identically across all four input corners —
/// pinned here so the proptests above cannot silently degenerate into
/// never exercising a merge.
#[test]
fn merged_cone_stays_evaluator_equivalent() {
    let mut ctx = Context::new();
    let a = ctx.symbol("a", 1);
    let b = ctx.symbol("b", 1);
    let x1 = ctx.xor(a, b);
    let o = ctx.or(a, b);
    let n = ctx.and(a, b);
    let nn = ctx.not(n);
    let x2 = ctx.and(o, nn);

    let mut ts = TransitionSystem::new("xor_twins");
    ts.add_input(a);
    ts.add_input(b);
    ts.add_signal("x1", x1);
    ts.add_signal("x2", x2);

    let ctx0 = ctx.clone();
    let ts0 = ts.clone();
    let mut roots = Vec::new();
    let stats = optimize(&mut ctx, &mut ts, &mut roots, &sweep_config(), &Obs::off());
    assert!(stats.nodes_merged > 0, "the two XOR encodings must merge");

    let s1 = ts.find_signal("x1").unwrap();
    let s2 = ts.find_signal("x2").unwrap();
    assert_eq!(s1, s2, "merged signals collapse to one node");
    for (va, vb) in [(0u64, 0u64), (0, 1), (1, 0), (1, 1)] {
        let mut env0 = Env::new();
        env0.insert(ctx0.find_symbol("a").unwrap(), BitVecValue::from_u64(va, 1));
        env0.insert(ctx0.find_symbol("b").unwrap(), BitVecValue::from_u64(vb, 1));
        let x1 = ts0.find_signal("x1").unwrap();
        let expected = evaluate(&ctx0, &env0, x1);
        let mut env = Env::new();
        env.insert(ctx.find_symbol("a").unwrap(), BitVecValue::from_u64(va, 1));
        env.insert(ctx.find_symbol("b").unwrap(), BitVecValue::from_u64(vb, 1));
        assert_eq!(evaluate(&ctx, &env, s1), expected, "a={va} b={vb}");
    }
}
