//! # genfv-sva — SystemVerilog-assertion subset
//!
//! Parser and compiler for the assertion fragment the `genfv` flows emit
//! and consume:
//!
//! * boolean layer: `genfv-hdl`'s expression lowering
//!   ([`genfv_hdl::lower`]), the one the RTL goes through, so literals,
//!   width rules and `$countones`, `$onehot`, `$onehot0`, `$clog2`,
//!   `$unsigned`, `$signed` mean what they mean in the design; SVA adds
//!   the sampled-value functions `$past`, `$stable`, `$changed`, `$rose`,
//!   `$fell`;
//! * temporal layer: bounded-delay sequences (`a ##1 b ##2 c`),
//!   overlapping/non-overlapping implication (`|->`, `|=>`), optional
//!   clocking events (accepted, ignored — the model is already clocked)
//!   and `disable iff`.
//!
//! Assertions compile to synchronous monitors over a
//! [`genfv_ir::TransitionSystem`]: a 1-bit "ok" expression plus
//! zero-initialised history registers, ready for BMC/k-induction.
//!
//! [`parse_assertions`] scans free-form text (e.g. an LLM completion) and
//! extracts every well-formed assertion, which is how the GenAI flows
//! validate model output before it gets anywhere near a proof.
//!
//! ```
//! use genfv_sva::parse_assertion;
//! // The paper's Listing 2:
//! let a = parse_assertion("property equal_count; &count1 |-> &count2; endproperty")?;
//! assert_eq!(a.name.as_deref(), Some("equal_count"));
//! # Ok::<(), genfv_hdl::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod compile;
pub mod parser;
pub mod render;

pub use ast::{Assertion, PropBody, SeqStep, Sequence};
pub use compile::{CompileError, CompiledProperty, PropertyCompiler};
pub use parser::{parse_assertion, parse_assertions};
pub use render::{render_assertion, render_expr, render_prop_body};
