//! # genfv-ir — word-level IR, transition systems, and bit-blasting
//!
//! This crate is the semantic core of the `genfv` stack:
//!
//! * [`BitVecValue`] — arbitrary-width bitvector values with Verilog /
//!   SMT-LIB semantics (two's complement, truncating ops, logical shifts);
//! * [`Context`] / [`ExprRef`] — a hash-consed word-level expression DAG
//!   with constant folding;
//! * [`TransitionSystem`] — elaborated RTL: inputs, state registers with
//!   init/next functions, constraints, named signals;
//! * [`Simulator`] / [`evaluate`] — the executable semantics;
//! * [`optimize`] — the prepare-time netlist optimizer, a loop of plain
//!   stage calls: local rewriting, stuck-at folding, rebalancing, cone of
//!   influence, register correspondence (merging registers that step in
//!   lockstep) and arena compaction;
//! * [`BitBlaster`] / [`LitEnv`] — lowering to CNF over the `genfv-sat`
//!   solver, one literal per bit, with per-frame instantiation for
//!   unrolling.
//!
//! The differential property test `tests/bitblast_vs_eval.rs` asserts that
//! the bit-blaster and the simulator implement the *same* semantics on
//! randomly generated expressions, which is the linchpin correctness
//! argument for every proof produced upstream.
//!
//! ```
//! use genfv_ir::{Context, BitBlaster, LitEnv, BitVecValue};
//!
//! let mut ctx = Context::new();
//! let a = ctx.symbol("a", 8);
//! let b = ctx.symbol("b", 8);
//! let sum = ctx.add(a, b);
//! let lit42 = ctx.constant(42, 8);
//! let is42 = ctx.eq(sum, lit42);
//!
//! let mut bb = BitBlaster::new();
//! let mut env = LitEnv::new();
//! let l = bb.blast(&ctx, &mut env, is42);
//! bb.assert_lit(l[0]);
//! assert!(bb.solver_mut().solve().is_sat());
//! let got_a = bb.read_model_value(env.lookup(a).unwrap());
//! let got_b = bb.read_model_value(env.lookup(b).unwrap());
//! assert_eq!(got_a.add(&got_b).to_u64(), Some(42));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitblast;
pub mod encode;
pub mod eval;
pub mod expr;
pub mod opt;
mod regcorr;
pub mod template;
pub mod ts;
pub mod value;

pub use bitblast::{BitBlaster, LitEnv};
pub use encode::GateEncoder;
pub use eval::{evaluate, Env, Simulator};
pub use expr::{BinaryOp, Context, Expr, ExprRef, UnaryOp};
pub use opt::{optimize, OptConfig, OptLevel, OptStats};
pub use template::{FrameStamp, TRef, Template, TemplateStats};
pub use ts::{State, TransitionSystem};
pub use value::BitVecValue;
