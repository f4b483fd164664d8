//! # genfv-hdl — Verilog-subset RTL frontend
//!
//! Lexer, parser, and elaborator for the synthesizable Verilog/SystemVerilog
//! subset used by the `genfv` design corpus (clocked `always` blocks with
//! if/else/case, non-blocking assignments and `++`, `assign` nets,
//! `always_comb`, parameters, vectors, the usual expression operators).
//!
//! Elaboration produces a [`genfv_ir::TransitionSystem`]: registers become
//! state variables with next-state functions obtained by symbolic execution
//! of the procedural code, reset behaviour is converted into initial-state
//! values, and ports plus internal nets are published as named signals so
//! assertions and traces can refer to them.
//!
//! Expressions lower through [`lower`], which `genfv-sva` shares, so an
//! expression means the same in RTL and in an assertion over it. A front
//! end implements [`lower::Scope`]: it names the context nodes are built
//! in, resolves identifiers, and lowers the system functions the shared
//! code does not define. The elaborator resolves nets and parameters and
//! rejects those functions: the sampled-value ones (`$past`, `$stable`,
//! `$changed`, `$rose`, `$fell`) belong in assertions.
//!
//! ```
//! use genfv_ir::Context;
//!
//! let src = r#"
//! module counter (input clk, rst, output logic [7:0] count);
//!   always_ff @(posedge clk) begin
//!     if (rst) count <= '0;
//!     else count <= count + 8'd1;
//!   end
//! endmodule
//! "#;
//! let module = genfv_hdl::parse_source(src)?.remove(0);
//! let mut ctx = Context::new();
//! let ts = genfv_hdl::elaborate(&mut ctx, &module)?;
//! assert_eq!(ts.states().len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod elaborate;
pub mod lexer;
pub mod lower;
pub mod parser;

pub use ast::{Expr, Module};
pub use elaborate::{elaborate, elaborate_with, ElabError, ElaborateOptions};
pub use lexer::{lex, LexError, Pos, Tok, Token};
pub use parser::{parse_expression, parse_source, ParseError, Parser};
