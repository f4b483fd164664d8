//! Model-checker integration tests reproducing the paper's core mechanics:
//! the sync-counters property passes BMC but fails its induction step; the
//! helper lemma `count1 == count2` is itself inductive and, once assumed,
//! closes the original proof (paper Listings 1-3 / Fig. 3).

use genfv_hdl::{elaborate, parse_source};
use genfv_ir::{Context, TransitionSystem};
use genfv_mc::{bmc, BmcResult, CheckConfig, KInduction, Property, ProveResult, TraceKind};
use genfv_sva::{parse_assertion, PropertyCompiler};

/// Narrow (8-bit) version of the paper's Listing 1 for test speed; the
/// examples and benches run the full 32-bit version.
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

fn sync_counters() -> (Context, TransitionSystem) {
    let module = parse_source(SYNC_COUNTERS).unwrap().remove(0);
    let mut ctx = Context::new();
    let ts = elaborate(&mut ctx, &module).unwrap();
    (ctx, ts)
}

fn compile_prop(
    ctx: &mut Context,
    ts: &mut TransitionSystem,
    src: &str,
) -> genfv_sva::CompiledProperty {
    let a = parse_assertion(src).unwrap();
    PropertyCompiler::new(ctx, ts).compile(&a).unwrap()
}

#[test]
fn paper_property_clean_in_bmc() {
    let (mut ctx, mut ts) = sync_counters();
    let p =
        compile_prop(&mut ctx, &mut ts, "property equal_count; &count1 |-> &count2; endproperty");
    let prop = Property::new(p.name, p.ok);
    let res = bmc(&ctx, &ts, &prop, &[], 20, &CheckConfig::default());
    assert!(res.is_clean(), "no reachable violation: {res:?}");
}

#[test]
fn paper_property_fails_induction_step() {
    let (mut ctx, mut ts) = sync_counters();
    let p =
        compile_prop(&mut ctx, &mut ts, "property equal_count; &count1 |-> &count2; endproperty");
    let prop = Property::new(p.name, p.ok);
    let prover = KInduction::new(&ctx, &ts, CheckConfig { max_k: 3, ..Default::default() });
    match prover.prove(&prop, &[]) {
        ProveResult::StepFailure { k, trace, .. } => {
            assert!(k >= 1);
            assert_eq!(trace.kind, TraceKind::InductionStep);
            // The final cycle demonstrates &count1 true but &count2 false —
            // the paper's Fig. 3 situation (a low bit in count2).
            let last = trace.last_step().unwrap();
            let c1 = last.get("count1").unwrap();
            let c2 = last.get("count2").unwrap();
            assert!(c1.red_and(), "count1 must be all-ones in the violating cycle");
            assert!(!c2.red_and(), "count2 must have a zero bit");
        }
        other => panic!("expected StepFailure, got {other:?}"),
    }
}

#[test]
fn helper_lemma_is_inductive_and_closes_proof() {
    let (mut ctx, mut ts) = sync_counters();
    let target =
        compile_prop(&mut ctx, &mut ts, "property equal_count; &count1 |-> &count2; endproperty");
    let helper = compile_prop(&mut ctx, &mut ts, "property helper; count1 == count2; endproperty");

    let config = CheckConfig { max_k: 3, ..Default::default() };
    let prover = KInduction::new(&ctx, &ts, config);

    // The helper itself proves at k=1 (paper: "proved the original
    // assertion faster").
    let helper_prop = Property::new(helper.name.clone(), helper.ok);
    match prover.prove(&helper_prop, &[]) {
        ProveResult::Proven { k, .. } => assert_eq!(k, 1, "helper is 1-inductive"),
        other => panic!("helper must prove: {other:?}"),
    }

    // With the proven helper assumed, the target property closes.
    let target_prop = Property::new(target.name.clone(), target.ok);
    match prover.prove(&target_prop, &[helper.ok]) {
        ProveResult::Proven { k, .. } => assert_eq!(k, 1),
        other => panic!("target must prove with helper: {other:?}"),
    }
}

#[test]
fn real_bug_is_falsified_not_step_failure() {
    // Counters with different increments: the lockstep property has a real,
    // reachable counterexample.
    let src = r#"
module desync (input clk, rst, output logic [7:0] count1, count2);
  always @(posedge clk or posedge rst) begin
    if (rst) begin
      count1 <= 8'b0;
      count2 <= 8'b0;
    end else begin
      count1 <= count1 + 8'd1;
      count2 <= count2 + 8'd2;
    end
  end
endmodule
"#;
    let module = parse_source(src).unwrap().remove(0);
    let mut ctx = Context::new();
    let mut ts = elaborate(&mut ctx, &module).unwrap();
    let p = compile_prop(&mut ctx, &mut ts, "count1 == count2");
    let prop = Property::new(p.name, p.ok);

    let prover = KInduction::new(&ctx, &ts, CheckConfig { max_k: 5, ..Default::default() });
    match prover.prove(&prop, &[]) {
        ProveResult::Falsified { at, trace, .. } => {
            assert!(at >= 1, "counters agree at reset, diverge after");
            assert_eq!(trace.kind, TraceKind::CounterexampleFromReset);
            // First cycle must be the reset state (both zero).
            let first = &trace.steps[0];
            assert!(first.get("count1").unwrap().is_zero());
            assert!(first.get("count2").unwrap().is_zero());
        }
        other => panic!("expected Falsified, got {other:?}"),
    }
}

#[test]
fn bmc_finds_shallow_bug_with_exact_depth() {
    // A counter that breaks a bound at a known cycle: count < 5 fails at
    // cycle 5 exactly.
    let src = r#"
module cnt (input clk, rst, output logic [7:0] c);
  always_ff @(posedge clk) begin
    if (rst) c <= '0;
    else c <= c + 8'd1;
  end
endmodule
"#;
    let module = parse_source(src).unwrap().remove(0);
    let mut ctx = Context::new();
    let mut ts = elaborate(&mut ctx, &module).unwrap();
    let p = compile_prop(&mut ctx, &mut ts, "c < 8'd5");
    let prop = Property::new(p.name, p.ok);
    match bmc(&ctx, &ts, &prop, &[], 10, &CheckConfig::default()) {
        BmcResult::Falsified { at, trace, .. } => {
            assert_eq!(at, 5);
            assert_eq!(trace.len(), 6);
            assert_eq!(trace.last_step().unwrap().get("c").unwrap().to_u64(), Some(5));
        }
        other => panic!("expected Falsified, got {other:?}"),
    }
}

#[test]
fn conflict_budget_reports_unknown() {
    let (mut ctx, mut ts) = sync_counters();
    let p = compile_prop(&mut ctx, &mut ts, "&count1 |-> &count2");
    let prop = Property::new(p.name, p.ok);
    let prover = KInduction::new(
        &ctx,
        &ts,
        CheckConfig { max_k: 2, conflict_budget: Some(1), ..Default::default() },
    );
    match prover.prove(&prop, &[]) {
        ProveResult::Unknown { reason, .. } => {
            assert!(reason.contains("budget"), "{reason}");
        }
        // With a budget of 1 conflict the 8-bit instance may still solve
        // (propagation alone); accept a decisive answer too.
        ProveResult::StepFailure { .. } | ProveResult::Proven { .. } => {}
        other => panic!("unexpected: {other:?}"),
    }
}

#[test]
fn stats_are_populated() {
    let (mut ctx, mut ts) = sync_counters();
    let p = compile_prop(&mut ctx, &mut ts, "count1 == count2");
    let prop = Property::new(p.name, p.ok);
    let prover = KInduction::new(&ctx, &ts, CheckConfig::default());
    let res = prover.prove(&prop, &[]);
    let stats = res.stats();
    assert!(stats.solver_calls >= 2, "base + step at least");
    assert!(res.is_proven());
}

#[test]
fn temporal_property_with_monitor_proves() {
    // Non-overlapping implication compiled to a monitor with history
    // registers must survive induction: en && c==3 |=> c==4 on a counter
    // with enable... the monitor adds state; prove with the engine.
    let src = r#"
module encnt (input clk, rst, input en, output logic [3:0] c);
  always_ff @(posedge clk) begin
    if (rst) c <= '0;
    else if (en) c <= c + 4'd1;
  end
endmodule
"#;
    let module = parse_source(src).unwrap().remove(0);
    let mut ctx = Context::new();
    let mut ts = elaborate(&mut ctx, &module).unwrap();
    let p = compile_prop(&mut ctx, &mut ts, "en && !rst && (c == 4'd3) |=> (c == 4'd4)");
    let prop = Property::new(p.name, p.ok);
    let prover = KInduction::new(&ctx, &ts, CheckConfig { max_k: 4, ..Default::default() });
    let res = prover.prove(&prop, &[]);
    assert!(res.is_proven(), "{res:?}");
}
