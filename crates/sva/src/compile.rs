//! Compilation of assertions into synchronous monitor logic.
//!
//! A [`PropertyCompiler`] binds the boolean layer of an [`Assertion`]
//! against the named signals of a [`TransitionSystem`] and lowers the
//! temporal layer (bounded `##n` sequences, `|->`/`|=>`, `$past` and
//! friends, `disable iff`) into pure combinational logic plus auxiliary
//! history registers added to the system. The result is a single 1-bit
//! expression that is true in every cycle in which no property violation
//! *completes* — exactly the "bad state" formulation that BMC and
//! k-induction consume.
//!
//! History registers are initialised to zero, which matches SVA semantics:
//! `$past(e)` is 0 before time zero, and sequence matches cannot begin
//! before the first cycle.

use crate::ast::{Assertion, PropBody, Sequence};
use genfv_hdl::ast::{BinaryAstOp, Expr, UnaryAstOp};
use genfv_ir::{BitVecValue, Context, ExprRef, TransitionSystem};
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
            PropBody::Expr(e) => self.bind_bool(e)?,
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
                let d = self.bind_bool(cond)?;
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
            let b = self.bind_bool(&step.expr)?;
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

    // --- boolean-layer binding ---------------------------------------------

    fn resolve(&mut self, name: &str) -> Result<ExprRef, CompileError> {
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

    fn bind_bool(&mut self, e: &Expr) -> Result<ExprRef, CompileError> {
        let x = self.bind(e, None)?;
        Ok(self.to_bool(x))
    }

    // `to_bool` converts the expression, not `self` — the builder context
    // just has to be mutable to hash-cons the reduction node.
    #[allow(clippy::wrong_self_convention)]
    fn to_bool(&mut self, e: ExprRef) -> ExprRef {
        if self.ctx.width_of(e) == 1 {
            e
        } else {
            self.ctx.red_or(e)
        }
    }

    fn fit(&mut self, e: ExprRef, width: u32) -> ExprRef {
        let w = self.ctx.width_of(e);
        if w == width {
            e
        } else if w > width {
            self.ctx.extract(e, width - 1, 0)
        } else {
            self.ctx.zext(e, width)
        }
    }

    fn const_u64(&mut self, e: &Expr) -> Result<u64, CompileError> {
        let x = self.bind(e, Some(32))?;
        self.ctx
            .const_value(x)
            .and_then(|v| v.to_u64())
            .ok_or_else(|| CompileError::new("expected a constant here"))
    }

    fn bind_pair(
        &mut self,
        a: &Expr,
        b: &Expr,
        expected: Option<u32>,
    ) -> Result<(ExprRef, ExprRef), CompileError> {
        let (x, y) = if matches!(a, Expr::Number { .. }) && !matches!(b, Expr::Number { .. }) {
            let y = self.bind(b, expected)?;
            let hint = Some(self.ctx.width_of(y));
            let x = self.bind(a, hint)?;
            (x, y)
        } else {
            let x = self.bind(a, expected)?;
            let hint = Some(self.ctx.width_of(x));
            let y = self.bind(b, hint)?;
            (x, y)
        };
        let w = self.ctx.width_of(x).max(self.ctx.width_of(y));
        let x = if self.ctx.width_of(x) < w { self.ctx.zext(x, w) } else { x };
        let y = if self.ctx.width_of(y) < w { self.ctx.zext(y, w) } else { y };
        Ok((x, y))
    }

    fn bind(&mut self, e: &Expr, expected: Option<u32>) -> Result<ExprRef, CompileError> {
        match e {
            Expr::Number { size, base, digits } => self.bind_number(*size, *base, digits, expected),
            Expr::Ident(name) => self.resolve(name),
            Expr::Unary(op, a) => {
                let x = match op {
                    UnaryAstOp::BitNot | UnaryAstOp::Neg => self.bind(a, expected)?,
                    _ => self.bind(a, None)?,
                };
                Ok(match op {
                    UnaryAstOp::BitNot => self.ctx.not(x),
                    UnaryAstOp::Neg => self.ctx.neg(x),
                    UnaryAstOp::LogNot => {
                        let b = self.to_bool(x);
                        self.ctx.not(b)
                    }
                    UnaryAstOp::RedAnd => self.ctx.red_and(x),
                    UnaryAstOp::RedOr => self.ctx.red_or(x),
                    UnaryAstOp::RedXor => self.ctx.red_xor(x),
                })
            }
            Expr::Binary(op, a, b) => match op {
                BinaryAstOp::LogAnd | BinaryAstOp::LogOr => {
                    let x = self.bind_bool(a)?;
                    let y = self.bind_bool(b)?;
                    Ok(match op {
                        BinaryAstOp::LogAnd => self.ctx.and(x, y),
                        _ => self.ctx.or(x, y),
                    })
                }
                BinaryAstOp::Shl | BinaryAstOp::Shr => {
                    let x = self.bind(a, expected)?;
                    let y = self.bind(b, None)?;
                    let w = self.ctx.width_of(x);
                    let y = self.fit(y, w);
                    Ok(match op {
                        BinaryAstOp::Shl => self.ctx.shl(x, y),
                        _ => self.ctx.lshr(x, y),
                    })
                }
                BinaryAstOp::Eq
                | BinaryAstOp::Ne
                | BinaryAstOp::Lt
                | BinaryAstOp::Le
                | BinaryAstOp::Gt
                | BinaryAstOp::Ge => {
                    let (x, y) = self.bind_pair(a, b, None)?;
                    Ok(match op {
                        BinaryAstOp::Eq => self.ctx.eq(x, y),
                        BinaryAstOp::Ne => self.ctx.ne(x, y),
                        BinaryAstOp::Lt => self.ctx.ult(x, y),
                        BinaryAstOp::Le => self.ctx.ule(x, y),
                        BinaryAstOp::Gt => self.ctx.ugt(x, y),
                        _ => self.ctx.uge(x, y),
                    })
                }
                _ => {
                    let (x, y) = self.bind_pair(a, b, expected)?;
                    Ok(match op {
                        BinaryAstOp::Add => self.ctx.add(x, y),
                        BinaryAstOp::Sub => self.ctx.sub(x, y),
                        BinaryAstOp::Mul => self.ctx.mul(x, y),
                        BinaryAstOp::Div => self.ctx.udiv(x, y),
                        BinaryAstOp::Mod => self.ctx.urem(x, y),
                        BinaryAstOp::BitAnd => self.ctx.and(x, y),
                        BinaryAstOp::BitOr => self.ctx.or(x, y),
                        BinaryAstOp::BitXor => self.ctx.xor(x, y),
                        _ => unreachable!(),
                    })
                }
            },
            Expr::Ternary(c, t, f) => {
                let cond = self.bind_bool(c)?;
                let (tt, ff) = self.bind_pair(t, f, expected)?;
                Ok(self.ctx.ite(cond, tt, ff))
            }
            Expr::Index(base, idx) => {
                let x = self.bind(base, None)?;
                let i = self.const_u64(idx)? as u32;
                let w = self.ctx.width_of(x);
                if i >= w {
                    return Err(CompileError::new(format!(
                        "bit index {i} out of range (width {w})"
                    )));
                }
                Ok(self.ctx.bit(x, i))
            }
            Expr::Range(base, hi, lo) => {
                let x = self.bind(base, None)?;
                let h = self.const_u64(hi)? as u32;
                let l = self.const_u64(lo)? as u32;
                let w = self.ctx.width_of(x);
                if h < l || h >= w {
                    return Err(CompileError::new(format!(
                        "part select [{h}:{l}] out of range (width {w})"
                    )));
                }
                Ok(self.ctx.extract(x, h, l))
            }
            Expr::Concat(parts) => {
                let mut acc: Option<ExprRef> = None;
                let mut width = 0u64;
                for p in parts {
                    let x = self.bind(p, None)?;
                    width += u64::from(self.ctx.width_of(x));
                    check_concat_width(width)?;
                    acc = Some(match acc {
                        None => x,
                        Some(a) => self.ctx.concat(a, x),
                    });
                }
                acc.ok_or_else(|| CompileError::new("empty concatenation"))
            }
            Expr::Repl(count, inner) => {
                let n = self.const_u64(count)?;
                if n == 0 || n > 4096 {
                    return Err(CompileError::new(format!("bad replication count {n}")));
                }
                let x = self.bind(inner, None)?;
                check_concat_width(n * u64::from(self.ctx.width_of(x)))?;
                let mut acc = x;
                for _ in 1..n {
                    acc = self.ctx.concat(acc, x);
                }
                Ok(acc)
            }
            Expr::Call(name, args) => self.bind_call(name, args),
        }
    }

    fn bind_number(
        &mut self,
        size: Option<u32>,
        base: char,
        digits: &str,
        expected: Option<u32>,
    ) -> Result<ExprRef, CompileError> {
        let bad = |d: &str| CompileError::new(format!("bad numeric literal `{d}`"));
        match base {
            'f' => {
                let w = expected
                    .ok_or_else(|| CompileError::new("fill literal needs width context"))?;
                Ok(if digits == "1" {
                    let v = BitVecValue::ones(w);
                    self.ctx.value(v)
                } else {
                    self.ctx.constant(0, w)
                })
            }
            'i' | 'd' => {
                let w = size.or(expected).unwrap_or(32).max(1);
                let v = BitVecValue::from_decimal_str(digits, w).ok_or_else(|| bad(digits))?;
                Ok(self.ctx.value(v))
            }
            'b' => {
                let raw = BitVecValue::from_binary_str(digits).ok_or_else(|| bad(digits))?;
                let w = size.or(expected).unwrap_or(raw.width());
                Ok(self.ctx.value(resize(raw, w)))
            }
            'h' => {
                let raw = BitVecValue::from_hex_str(digits).ok_or_else(|| bad(digits))?;
                let w = size.or(expected).unwrap_or(raw.width());
                Ok(self.ctx.value(resize(raw, w)))
            }
            other => Err(CompileError::new(format!("unsupported number base `{other}`"))),
        }
    }

    fn bind_call(&mut self, name: &str, args: &[Expr]) -> Result<ExprRef, CompileError> {
        let arity = |n: usize| -> Result<(), CompileError> {
            if args.len() == n {
                Ok(())
            } else {
                Err(CompileError::new(format!("{name} expects {n} argument(s)")))
            }
        };
        match name {
            "$past" => {
                if args.is_empty() || args.len() > 2 {
                    return Err(CompileError::new("$past expects 1 or 2 arguments"));
                }
                let x = self.bind(&args[0], None)?;
                let n = if args.len() == 2 { self.const_u64(&args[1])? as u32 } else { 1 };
                if n == 0 || n > 64 {
                    return Err(CompileError::new(format!("$past depth {n} out of range")));
                }
                Ok(self.past(x, n))
            }
            "$stable" => {
                arity(1)?;
                let x = self.bind(&args[0], None)?;
                let p = self.past(x, 1);
                Ok(self.ctx.eq(x, p))
            }
            "$changed" => {
                arity(1)?;
                let x = self.bind(&args[0], None)?;
                let p = self.past(x, 1);
                Ok(self.ctx.ne(x, p))
            }
            "$rose" => {
                arity(1)?;
                let x = self.bind(&args[0], None)?;
                let b = if self.ctx.width_of(x) == 1 { x } else { self.ctx.bit(x, 0) };
                let p = self.past(b, 1);
                let np = self.ctx.not(p);
                Ok(self.ctx.and(b, np))
            }
            "$fell" => {
                arity(1)?;
                let x = self.bind(&args[0], None)?;
                let b = if self.ctx.width_of(x) == 1 { x } else { self.ctx.bit(x, 0) };
                let p = self.past(b, 1);
                let nb = self.ctx.not(b);
                Ok(self.ctx.and(nb, p))
            }
            "$countones" => {
                arity(1)?;
                let x = self.bind(&args[0], None)?;
                Ok(self.ctx.count_ones(x, 32))
            }
            "$onehot" => {
                arity(1)?;
                let x = self.bind(&args[0], None)?;
                Ok(self.ctx.onehot(x))
            }
            "$onehot0" => {
                arity(1)?;
                let x = self.bind(&args[0], None)?;
                Ok(self.ctx.onehot0(x))
            }
            other => Err(CompileError::new(format!(
                "system function `{other}` is not supported in assertions"
            ))),
        }
    }
}

/// A concatenation or replication `width` bits wide is an error past
/// [`BitVecValue::MAX_WIDTH`], checked before any of it is built.
fn check_concat_width(width: u64) -> Result<(), CompileError> {
    if width > u64::from(BitVecValue::MAX_WIDTH) {
        return Err(CompileError::new(format!(
            "concatenation is {width} bits wide, more than {}",
            BitVecValue::MAX_WIDTH
        )));
    }
    Ok(())
}

fn resize(v: BitVecValue, width: u32) -> BitVecValue {
    if v.width() == width {
        v
    } else if v.width() > width {
        v.extract(width - 1, 0)
    } else {
        v.zext(width)
    }
}
