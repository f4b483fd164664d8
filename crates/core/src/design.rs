//! Design preparation: from RTL + spec + target assertions to a checkable
//! package.
//!
//! Preparation runs the `genfv_ir::opt` netlist optimization pipeline after
//! target compilation (so property monitors are optimized alongside the
//! design), configurable per prepare via [`OptConfig`]. The default
//! pipeline includes register correspondence, which merges lockstep
//! registers; [`OptLevel::None`](genfv_ir::OptLevel::None) skips every
//! stage and prepares the paper's plain k-induction setting.

use crate::error::Error;
use genfv_ir::{optimize, Context, ExprRef, OptConfig, OptStats, TransitionSystem};
use genfv_mc::Property;
use genfv_obs::Obs;
use genfv_sva::PropertyCompiler;

/// A target property to prove.
#[derive(Clone, Debug)]
pub struct Target {
    /// Property name.
    pub name: String,
    /// Original SVA source text (sent to the LLM in prompts).
    pub sva: String,
    /// Compiled property.
    pub prop: Property,
}

/// A fully prepared design: elaborated RTL plus compiled target properties.
#[derive(Clone, Debug)]
pub struct PreparedDesign {
    /// Design name.
    pub name: String,
    /// RTL source (prompt input).
    pub rtl: String,
    /// Specification prose (prompt input).
    pub spec: String,
    /// Expression context.
    pub ctx: Context,
    /// Elaborated transition system (including target monitors).
    pub ts: TransitionSystem,
    /// Targets to prove.
    pub targets: Vec<Target>,
    /// Optimization configuration this design was prepared with.
    pub opt: OptConfig,
    /// What the optimization pipeline did during prepare.
    pub opt_stats: OptStats,
}

impl PreparedDesign {
    /// Parses, elaborates, compiles, and optimizes at the default
    /// [`OptConfig`] (the full pipeline, register correspondence
    /// included).
    ///
    /// `targets` are `(name, sva_source)` pairs.
    ///
    /// # Errors
    /// Returns [`Error::Parse`] if the RTL does not parse,
    /// [`Error::Design`] if it does not elaborate (or holds no module),
    /// and [`Error::Compile`] if a target assertion does not compile.
    pub fn new(
        name: impl Into<String>,
        rtl: impl Into<String>,
        spec: impl Into<String>,
        targets: &[(String, String)],
    ) -> Result<Self, Error> {
        Self::with_opt(name, rtl, spec, targets, &OptConfig::default())
    }

    /// Like [`PreparedDesign::new`] but with an explicit optimization
    /// configuration (`OptLevel::None` prepares the system exactly as
    /// elaborated — the paper's plain k-induction and the differential
    /// baseline).
    ///
    /// # Errors
    /// Same as [`PreparedDesign::new`].
    pub fn with_opt(
        name: impl Into<String>,
        rtl: impl Into<String>,
        spec: impl Into<String>,
        targets: &[(String, String)],
        opt: &OptConfig,
    ) -> Result<Self, Error> {
        Self::with_opt_obs(name, rtl, spec, targets, opt, &Obs::off())
    }

    /// Like [`PreparedDesign::with_opt`] but recording a `prepare` span
    /// (with nested per-stage `opt.*` spans) into the given observability
    /// handle. The disabled handle makes this identical to `with_opt`.
    ///
    /// # Errors
    /// Same as [`PreparedDesign::new`].
    pub fn with_opt_obs(
        name: impl Into<String>,
        rtl: impl Into<String>,
        spec: impl Into<String>,
        targets: &[(String, String)],
        opt: &OptConfig,
        obs: &Obs,
    ) -> Result<Self, Error> {
        let name = name.into();
        let _span = obs.span_with("prepare", || name.clone());
        let rtl = rtl.into();
        let spec = spec.into();
        let modules = genfv_hdl::parse_source(&rtl)
            .map_err(|e| Error::Parse { design: name.clone(), message: e.to_string() })?;
        let module = modules.into_iter().next().ok_or_else(|| Error::Design {
            design: name.clone(),
            message: "no module found".to_string(),
        })?;
        let mut ctx = Context::new();
        let mut ts = genfv_hdl::elaborate(&mut ctx, &module)
            .map_err(|e| Error::Design { design: name.clone(), message: e.to_string() })?;

        let mut compiled = Vec::with_capacity(targets.len());
        for (tname, sva) in targets {
            let assertion = genfv_sva::parse_assertion(sva).map_err(|e| Error::Compile {
                design: name.clone(),
                target: tname.clone(),
                message: e.to_string(),
            })?;
            let mut pc = PropertyCompiler::new(&mut ctx, &mut ts);
            let prop = pc.compile(&assertion).map_err(|e| Error::Compile {
                design: name.clone(),
                target: tname.clone(),
                message: e.to_string(),
            })?;
            compiled.push(Target {
                name: tname.clone(),
                sva: sva.clone(),
                prop: Property::new(tname.clone(), prop.ok),
            });
        }

        // Optimize with the compiled proof obligations as extra roots so
        // the pipeline keeps (and rewrites) the property cones, then
        // re-anchor each target on its rewritten root.
        let mut roots: Vec<ExprRef> = compiled.iter().map(|t| t.prop.ok).collect();
        let opt_stats = optimize(&mut ctx, &mut ts, &mut roots, opt, obs);
        for (target, root) in compiled.iter_mut().zip(roots) {
            target.prop.ok = root;
        }

        Ok(PreparedDesign { name, rtl, spec, ctx, ts, targets: compiled, opt: *opt, opt_stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RTL: &str = r#"
module counter (input clk, rst, output logic [7:0] c);
  always_ff @(posedge clk) begin
    if (rst) c <= '0;
    else c <= c + 8'd1;
  end
endmodule
"#;

    #[test]
    fn prepares_design_with_targets() {
        let d = PreparedDesign::new(
            "counter",
            RTL,
            "a free-running counter",
            &[("tauto".to_string(), "c == c".to_string())],
        )
        .unwrap();
        assert_eq!(d.targets.len(), 1);
        assert_eq!(d.ts.states().len(), 1);
    }

    #[test]
    fn opt_level_none_skips_pipeline() {
        use genfv_ir::OptLevel;
        let base = PreparedDesign::with_opt(
            "counter",
            RTL,
            "spec",
            &[("tauto".to_string(), "c == c".to_string())],
            &OptConfig::default().with_level(OptLevel::None),
        )
        .unwrap();
        assert_eq!(base.opt_stats.rounds, 0);
        assert_eq!(base.opt_stats.nodes_before, base.opt_stats.nodes_after);
        let opt = PreparedDesign::new(
            "counter",
            RTL,
            "spec",
            &[("tauto".to_string(), "c == c".to_string())],
        )
        .unwrap();
        assert!(opt.opt_stats.rounds >= 1);
        assert!(
            opt.ctx.num_nodes() <= base.ctx.num_nodes(),
            "sweep never grows the arena: {} vs {}",
            opt.ctx.num_nodes(),
            base.ctx.num_nodes()
        );
    }

    #[test]
    fn reports_bad_rtl() {
        let err = PreparedDesign::new("x", "module ((", "s", &[]).unwrap_err();
        assert!(matches!(&err, Error::Parse { design, .. } if design == "x"), "{err:?}");
        assert!(err.to_string().contains("x:"));
    }

    #[test]
    fn reports_bad_target() {
        let err = PreparedDesign::new(
            "counter",
            RTL,
            "spec",
            &[("bad".to_string(), "nonexistent_signal == 1".to_string())],
        )
        .unwrap_err();
        assert!(
            matches!(&err, Error::Compile { design, target, .. }
                if design == "counter" && target == "bad"),
            "{err:?}"
        );
        assert!(err.to_string().contains("unknown signal"), "{err}");
    }

    /// Widths no value can have are typed errors, never panics: sized
    /// literals of size 0 or past `BitVecValue::MAX_WIDTH` (RTL and SVA
    /// alike), and declared ranges past it, including a parameter whose
    /// `[W:0]` range used to wrap to width 0.
    #[test]
    fn hostile_widths_are_typed_errors() {
        let target = |sva: &str| vec![("t".to_string(), sva.to_string())];
        let rtl_cases = [
            RTL.replace("8'd1", "0'b1"),
            RTL.replace("8'd1", "0'h1"),
            RTL.replace("8'd1", "4294967295'd1"),
            RTL.replace("c <= c + 8'd1;", "case (c) 0'b1: c <= '0; default: c <= c; endcase"),
            RTL.replace("[7:0] c", "[2000000:0] c"),
            RTL.replace("module counter (", "module counter #(parameter W = 4294967295) (")
                .replace("[7:0] c", "[W:0] c"),
        ];
        for rtl in &rtl_cases {
            let err = PreparedDesign::new("hostile", rtl.as_str(), "s", &target("c == c"))
                .expect_err(rtl);
            assert!(matches!(err, Error::Parse { .. } | Error::Design { .. }), "{err}");
        }
        for sva in ["c == 0'b1", "c == 2000000'd1", "$onehot(0'b0)"] {
            let err = PreparedDesign::new("counter", RTL, "s", &target(sva)).expect_err(sva);
            assert!(matches!(err, Error::Compile { .. }), "{sva}: {err}");
        }
    }

    #[test]
    fn reports_empty_source_as_design_error() {
        let err = PreparedDesign::new("empty", "", "s", &[]).unwrap_err();
        assert!(
            matches!(&err, Error::Design { message, .. } | Error::Parse { message, .. }
                if !message.is_empty()),
            "{err:?}"
        );
    }
}
