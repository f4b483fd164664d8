//! Compilation of assertions into synchronous monitor logic.
//!
//! A [`PropertyCompiler`] lowers the boolean layer of an [`Assertion`]
//! through `genfv-hdl`'s expression lowering ([`genfv_hdl::lower`]), so
//! literals, width rules and the shared system functions mean what they
//! mean in the design's RTL. As the lowering's [`Scope`] it resolves
//! identifiers to the named signals of a [`TransitionSystem`] and adds
//! the sampled-value functions `$past`, `$stable`, `$changed`, `$rose`
//! and `$fell`. It lowers the temporal layer (bounded `##n` sequences,
//! `|->`/`|=>`, `disable iff`) into pure combinational logic plus
//! auxiliary history registers added to the system. The result is a
//! single 1-bit expression that is true in every cycle in which no
//! property violation *completes* — exactly the "bad state" formulation
//! that BMC and k-induction consume.
//!
//! History registers are initialised to zero, which matches SVA semantics:
//! `$past(e)` is 0 before time zero, and sequence matches cannot begin
//! before the first cycle.

use crate::ast::{Assertion, PropBody, Sequence};
use genfv_hdl::ast::Expr;
use genfv_hdl::lower::{const_u64, lower_bool, lower_expr, one_arg, Scope};
use genfv_hdl::ElabError;
use genfv_ir::{Context, ExprRef, TransitionSystem};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Failure to bind or lower an assertion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompileError {
    /// Human-readable message.
    pub message: String,
}

impl CompileError {
    fn new(message: impl Into<String>) -> Self {
        CompileError { message: message.into() }
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "assertion compile error: {}", self.message)
    }
}

impl Error for CompileError {}

/// An error of the shared expression lowering (it carries no position).
impl From<ElabError> for CompileError {
    fn from(e: ElabError) -> Self {
        CompileError::new(e.message)
    }
}

/// A lowered property.
#[derive(Clone, Debug)]
pub struct CompiledProperty {
    /// Property name (auto-generated when the source was anonymous).
    pub name: String,
    /// 1-bit expression: "no violation completes this cycle".
    pub ok: ExprRef,
    /// Monitor depth in cycles (0 for plain invariants).
    pub depth: u32,
}

/// Compiles assertions against one design, adding history registers to the
/// transition system as needed.
///
/// ```
/// use genfv_ir::{Context, TransitionSystem};
/// use genfv_sva::{parse_assertion, PropertyCompiler};
///
/// let mut ctx = Context::new();
/// let a = ctx.symbol("a", 1);
/// let mut ts = TransitionSystem::new("t");
/// ts.add_input(a);
/// ts.add_signal("a", a);
/// let assertion = parse_assertion("a == a")?;
/// let mut pc = PropertyCompiler::new(&mut ctx, &mut ts);
/// let prop = pc.compile(&assertion)?;
/// assert_eq!(prop.depth, 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct PropertyCompiler<'a> {
    ctx: &'a mut Context,
    ts: &'a mut TransitionSystem,
    past_cache: HashMap<(ExprRef, u32), ExprRef>,
    aux_counter: usize,
    anon_counter: usize,
}

impl<'a> PropertyCompiler<'a> {
    /// Creates a compiler for the given design.
    pub fn new(ctx: &'a mut Context, ts: &'a mut TransitionSystem) -> Self {
        // Continue aux numbering after any previously created monitors.
        let aux_counter = ctx.symbols().filter(|(n, _)| n.starts_with("__sva_p")).count();
        PropertyCompiler { ctx, ts, past_cache: HashMap::new(), aux_counter, anon_counter: 0 }
    }

    /// Compiles one assertion.
    ///
    /// # Errors
    /// Returns [`CompileError`] if the assertion references unknown signals,
    /// misuses widths, or uses unsupported constructs.
    pub fn compile(&mut self, assertion: &Assertion) -> Result<CompiledProperty, CompileError> {
        let name = match &assertion.name {
            Some(n) => n.clone(),
            None => {
                self.anon_counter += 1;
                format!("anon_prop_{}", self.anon_counter)
            }
        };
        let depth = assertion.depth();
        let ok = match &assertion.body {
            PropBody::Expr(e) => lower_bool(self, e)?,
            PropBody::Implication { antecedent, overlapping, consequent } => {
                let ant_span = antecedent.span();
                let extra = if *overlapping { 0 } else { 1 };
                let con_start = ant_span + extra;
                let total = con_start + consequent.span();

                let ant = self.shifted_conjunction(antecedent, 0, total)?;
                let con = self.shifted_conjunction(consequent, con_start, total)?;
                self.ctx.implies(ant, con)
            }
        };
        let ok = match &assertion.disable_iff {
            Some(cond) => {
                let d = lower_bool(self, cond)?;
                let mut disabled = self.ctx.bool_const(false);
                for k in 0..=depth {
                    let dk = self.past(d, k);
                    disabled = self.ctx.or(disabled, dk);
                }
                self.ctx.or(disabled, ok)
            }
            None => ok,
        };
        Ok(CompiledProperty { name, ok, depth })
    }

    /// Conjunction of a sequence's steps, each shifted so the property
    /// completes at offset `total`.
    fn shifted_conjunction(
        &mut self,
        seq: &Sequence,
        base: u32,
        total: u32,
    ) -> Result<ExprRef, CompileError> {
        let mut acc = self.ctx.bool_const(true);
        let mut offset = base;
        for (i, step) in seq.steps.iter().enumerate() {
            if i > 0 {
                offset += step.delay;
            }
            let b = lower_bool(self, &step.expr)?;
            let shifted = self.past(b, total - offset);
            acc = self.ctx.and(acc, shifted);
        }
        Ok(acc)
    }

    /// `$past(e, n)` as a chain of history registers (cached).
    fn past(&mut self, e: ExprRef, n: u32) -> ExprRef {
        if n == 0 {
            return e;
        }
        let prev = self.past(e, n - 1);
        if let Some(&r) = self.past_cache.get(&(prev, 1)) {
            return r;
        }
        let w = self.ctx.width_of(prev);
        self.aux_counter += 1;
        let name = format!("__sva_p{}", self.aux_counter);
        let reg = self.ctx.symbol(&name, w);
        let zero = self.ctx.constant(0, w);
        self.ts.add_state(reg, Some(zero), prev);
        self.past_cache.insert((prev, 1), reg);
        reg
    }
}

/// The boolean layer is `genfv-hdl`'s lowering over the design's signals,
/// plus the sampled-value functions.
impl Scope for PropertyCompiler<'_> {
    type Error = CompileError;

    fn ctx(&mut self) -> &mut Context {
        self.ctx
    }

    fn ident(&mut self, name: &str) -> Result<ExprRef, CompileError> {
        if let Some(e) = self.ts.find_signal(name) {
            return Ok(e);
        }
        if let Some(e) = self.ctx.find_symbol(name) {
            return Ok(e);
        }
        Err(CompileError::new(format!(
            "assertion references unknown signal `{name}` (design `{}`)",
            self.ts.name()
        )))
    }

    fn call(&mut self, name: &str, args: &[Expr]) -> Result<ExprRef, CompileError> {
        match name {
            "$past" => {
                if args.is_empty() || args.len() > 2 {
                    return Err(CompileError::new("$past expects 1 or 2 arguments"));
                }
                let x = lower_expr(self, &args[0], None)?;
                let n = if args.len() == 2 { const_u64(self, &args[1])? } else { 1 };
                if n == 0 || n > 64 {
                    return Err(CompileError::new(format!("$past depth {n} out of range")));
                }
                Ok(self.past(x, n as u32))
            }
            "$stable" | "$changed" => {
                let x = lower_expr(self, one_arg(name, args)?, None)?;
                let p = self.past(x, 1);
                Ok(if name == "$stable" { self.ctx.eq(x, p) } else { self.ctx.ne(x, p) })
            }
            "$rose" | "$fell" => {
                let x = lower_expr(self, one_arg(name, args)?, None)?;
                let b = if self.ctx.width_of(x) == 1 { x } else { self.ctx.bit(x, 0) };
                let p = self.past(b, 1);
                Ok(if name == "$rose" {
                    let np = self.ctx.not(p);
                    self.ctx.and(b, np)
                } else {
                    let nb = self.ctx.not(b);
                    self.ctx.and(nb, p)
                })
            }
            other => Err(CompileError::new(format!(
                "system function `{other}` is not supported in assertions"
            ))),
        }
    }
}
