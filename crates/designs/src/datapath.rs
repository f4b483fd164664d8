//! Arithmetic datapath designs: registered multiplier identities.
//!
//! These bundles exercise the bit-blaster's heaviest circuits (the O(n²)
//! shift-and-add multiplier) inside induction proofs that close at k=1:
//! the solver work per query is moderate, so the *encoding* of the
//! transition relation is a first-order cost — exactly the workload a
//! session's template-stamped step frames exist for, and part of
//! `session_differential.rs`'s deep-unroll checks against the DAG-walking
//! rebuild reference.

use crate::{DesignBundle, Expectation};

/// Registered multiplier increment identity: every cycle it latches
/// `(a+1)*b` and `a*b + b`; the two registers are always equal (modulo
/// 2⁶). As elaborated the two sides lower through structurally different
/// circuits — hash-consing alone cannot unify them — so at
/// `OptLevel::None` the proof genuinely compares two multipliers. The
/// `genfv_ir::opt` factoring rewrite (`a*b + b → (a+1)*b`) collapses the
/// two next-state cones into one shared multiplier; the registers then
/// step in lockstep structurally, so the register-correspondence stage
/// merges them and the property folds to true. That is the CNF reduction
/// `opt_differential::full_opt_shrinks_datapath_cnf` pins. The property is
/// a pure register comparison, so at `OptLevel::None` both registers stay
/// in the cone of influence.
pub fn mul_incr() -> DesignBundle {
    DesignBundle {
        name: "mul_incr",
        rtl: r#"
module mul_incr (input clk, rst, input [5:0] a, b,
                 output logic [5:0] lhs, rhs);
  always_ff @(posedge clk) begin
    if (rst) begin
      lhs <= '0;
      rhs <= '0;
    end else begin
      lhs <= (a + 6'd1) * b;
      rhs <= a * b + b;
    end
  end
endmodule
"#,
        spec: "A registered checker for the multiplier increment identity: each cycle it \
               latches (a+1)*b and a*b + b. All arithmetic truncates to six bits, so the \
               identity holds modulo 64 and the two registers are always equal.",
        targets: vec![("incr_identity".to_string(), "lhs == rhs".to_string())],
        expectation: Expectation::ProvesUnaided,
    }
}

/// Registered multiplier distributivity checker: `a*(b+c)` latched next
/// to `a*b + a*c` (all truncating, so the identity holds modulo 2⁶).
pub fn mul_distrib() -> DesignBundle {
    DesignBundle {
        name: "mul_distrib",
        rtl: r#"
module mul_distrib (input clk, rst, input [5:0] a, b, c,
                    output logic [5:0] lhs, rhs);
  always_ff @(posedge clk) begin
    if (rst) begin
      lhs <= '0;
      rhs <= '0;
    end else begin
      lhs <= a * (b + c);
      rhs <= a * b + a * c;
    end
  end
endmodule
"#,
        spec: "A registered checker for multiplier distributivity over addition: each \
               cycle it latches a*(b+c) and a*b + a*c. All arithmetic truncates to six \
               bits, so the distributive identity holds modulo 64 and the two registers \
               are always equal.",
        targets: vec![("distributive".to_string(), "lhs == rhs".to_string())],
        expectation: Expectation::ProvesUnaided,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datapath_bundles_prepare() {
        for bundle in [mul_incr(), mul_distrib()] {
            let design = bundle.prepare().expect("datapath designs prepare");
            assert_eq!(
                design.ts.states().len(),
                1,
                "{}: the two product registers merge into one",
                bundle.name
            );
            assert_eq!(design.opt_stats.nodes_merged, 1, "{}", bundle.name);
            assert!(!design.targets.is_empty());
        }
    }

    #[test]
    fn factoring_unifies_the_product_cones() {
        use genfv_core::{OptConfig, OptLevel};
        for bundle in [mul_incr(), mul_distrib()] {
            let base = bundle
                .prepare_with(&OptConfig::default().with_level(OptLevel::None))
                .expect("baseline prepare");
            let states = base.ts.states();
            assert_ne!(
                states[0].next, states[1].next,
                "{}: unoptimized sides stay structurally distinct",
                bundle.name
            );
            // The product registers latch input-only functions, so the
            // register stage can merge them without a miter only if the
            // rewrite stage made both next functions one multiplier cone.
            let opt = bundle.prepare().expect("optimized prepare");
            let stats = &opt.opt_stats;
            assert!(stats.rewrites >= 1, "{}: factoring fires", bundle.name);
            assert_eq!(opt.ts.states().len(), 1, "{}: registers merge", bundle.name);
            assert_eq!(
                (stats.pairs_proved, stats.nodes_merged, stats.sweep_conflicts),
                (1, 1, 0),
                "{}: factoring hash-conses both sides into one multiplier, so the merge \
                 is structural",
                bundle.name
            );
        }
    }
}
