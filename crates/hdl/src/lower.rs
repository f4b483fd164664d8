//! Expression lowering shared by RTL and assertions.
//!
//! [`lower_expr`] turns a parsed [`Expr`] into IR nodes with the subset's
//! Verilog-style width rules: operand pairs are zero-extended to the
//! wider side, an operand that is a literal takes its width from the
//! other side, and a right-hand side is truncated or extended to its
//! target. It owns literal sizing ([`literal`]), constant evaluation
//! ([`const_u64`]), the width cap on concatenations and the system
//! functions `$countones`, `$onehot`, `$onehot0`, `$clog2`, `$unsigned`
//! and `$signed`, so an expression means the same in a design's RTL and
//! in an assertion over it.
//!
//! A front end supplies a [`Scope`]: the context the nodes are built in,
//! what an identifier resolves to, and every other system function. The
//! elaborator resolves nets and parameters and rejects the rest: the
//! sampled-value functions (`$past` and friends) have no meaning in RTL.
//! `genfv-sva`'s compiler resolves the design's signals and adds the
//! sampled-value functions as history registers. Dispatch is static, so
//! the scope adds no indirect call per node.

use crate::ast::{BinaryAstOp, Expr, UnaryAstOp};
use crate::elaborate::ElabError;
use genfv_ir::{BitVecValue, Context, ExprRef};

/// What a front end provides to [`lower_expr`].
pub trait Scope {
    /// The front end's error; the lowering's own errors convert into it.
    type Error: From<ElabError>;

    /// The context nodes are built in.
    fn ctx(&mut self) -> &mut Context;

    /// The node an identifier names.
    ///
    /// # Errors
    /// An identifier the scope cannot resolve.
    fn ident(&mut self, name: &str) -> Result<ExprRef, Self::Error>;

    /// A system function the shared lowering does not define.
    ///
    /// # Errors
    /// A function the scope does not support, or a bad argument.
    fn call(&mut self, name: &str, args: &[Expr]) -> Result<ExprRef, Self::Error>;
}

/// Truncates or zero-extends `e` to `width` bits.
pub(crate) fn fit(ctx: &mut Context, e: ExprRef, width: u32) -> ExprRef {
    let w = ctx.width_of(e);
    if w == width {
        e
    } else if w > width {
        ctx.extract(e, width - 1, 0)
    } else {
        ctx.zext(e, width)
    }
}

/// `e` as a condition: itself when 1 bit wide, else its OR-reduction.
pub(crate) fn to_bool(ctx: &mut Context, e: ExprRef) -> ExprRef {
    if ctx.width_of(e) == 1 {
        e
    } else {
        ctx.red_or(e)
    }
}

/// Lowers `e` as a condition.
///
/// # Errors
/// See [`lower_expr`].
pub fn lower_bool<S: Scope>(s: &mut S, e: &Expr) -> Result<ExprRef, S::Error> {
    let x = lower_expr(s, e, None)?;
    Ok(to_bool(s.ctx(), x))
}

/// The value of a constant expression, evaluated in a 32-bit integer
/// context.
///
/// # Errors
/// An expression that does not fold to a constant, or any error of
/// [`lower_expr`].
pub(crate) fn const_value<S: Scope>(s: &mut S, e: &Expr) -> Result<BitVecValue, S::Error> {
    let x = lower_expr(s, e, Some(32))?;
    let v = s.ctx().const_value(x).cloned();
    Ok(v.ok_or_else(|| ElabError::new("expression must be constant here"))?)
}

/// The value of a constant expression, evaluated in a 32-bit integer
/// context, as a `u64`: a select index or bound, a replication count, a
/// `$clog2` argument or a `$past` depth. Callers range-check the whole
/// `u64` before narrowing it.
///
/// # Errors
/// An expression that does not fold to a constant, a constant past 64
/// bits, or any error of [`lower_expr`].
pub fn const_u64<S: Scope>(s: &mut S, e: &Expr) -> Result<u64, S::Error> {
    Ok(const_value(s, e)?.to_u64().ok_or_else(|| ElabError::new("constant too wide"))?)
}

/// The only argument of the system function `name`.
///
/// # Errors
/// Any other number of arguments.
pub fn one_arg<'e>(name: &str, args: &'e [Expr]) -> Result<&'e Expr, ElabError> {
    match args {
        [a] => Ok(a),
        _ => Err(ElabError::new(format!("{name} takes exactly one argument"))),
    }
}

/// Lowers an expression; `expected` is a width hint used to size
/// unsized literals and fill literals.
///
/// # Errors
/// An [`ElabError`] for bad literals, out-of-range selects, non-constant
/// indices or counts, over-wide concatenations and bad arguments to the
/// shared system functions; the scope's own error for identifiers and
/// other system functions.
pub fn lower_expr<S: Scope>(
    s: &mut S,
    e: &Expr,
    expected: Option<u32>,
) -> Result<ExprRef, S::Error> {
    match e {
        Expr::Number { size, base, digits } => {
            let v = literal(*size, *base, digits, expected)?;
            Ok(s.ctx().value(v))
        }
        Expr::Ident(name) => s.ident(name),
        Expr::Unary(op, a) => {
            let x = match op {
                UnaryAstOp::BitNot | UnaryAstOp::Neg => lower_expr(s, a, expected)?,
                _ => lower_expr(s, a, None)?,
            };
            let ctx = s.ctx();
            Ok(match op {
                UnaryAstOp::BitNot => ctx.not(x),
                UnaryAstOp::Neg => ctx.neg(x),
                UnaryAstOp::LogNot => {
                    let b = to_bool(ctx, x);
                    ctx.not(b)
                }
                UnaryAstOp::RedAnd => ctx.red_and(x),
                UnaryAstOp::RedOr => ctx.red_or(x),
                UnaryAstOp::RedXor => ctx.red_xor(x),
            })
        }
        Expr::Binary(op, a, b) => lower_binary(s, *op, a, b, expected),
        Expr::Ternary(c, t, f) => {
            let cond = lower_bool(s, c)?;
            let (tt, ff) = lower_pair(s, t, f, expected)?;
            Ok(s.ctx().ite(cond, tt, ff))
        }
        Expr::Index(base, idx) => {
            let x = lower_expr(s, base, None)?;
            let i = const_u64(s, idx)?;
            let w = s.ctx().width_of(x);
            if i >= u64::from(w) {
                return Err(
                    ElabError::new(format!("bit index {i} out of range (width {w})")).into()
                );
            }
            Ok(s.ctx().bit(x, i as u32))
        }
        Expr::Range(base, hi, lo) => {
            let x = lower_expr(s, base, None)?;
            let h = const_u64(s, hi)?;
            let l = const_u64(s, lo)?;
            let w = s.ctx().width_of(x);
            if h < l || h >= u64::from(w) {
                return Err(ElabError::new(format!(
                    "part select [{h}:{l}] out of range (width {w})"
                ))
                .into());
            }
            Ok(s.ctx().extract(x, h as u32, l as u32))
        }
        Expr::Concat(parts) => {
            let mut acc: Option<ExprRef> = None;
            let mut width = 0u64;
            for p in parts {
                let x = lower_expr(s, p, None)?;
                width += u64::from(s.ctx().width_of(x));
                check_concat_width(width)?;
                acc = Some(match acc {
                    None => x,
                    Some(a) => s.ctx().concat(a, x),
                });
            }
            Ok(acc.ok_or_else(|| ElabError::new("empty concatenation"))?)
        }
        Expr::Repl(count, inner) => {
            let n = const_u64(s, count)?;
            if n == 0 || n > 4096 {
                return Err(ElabError::new(format!("bad replication count {n}")).into());
            }
            let x = lower_expr(s, inner, None)?;
            check_concat_width(n * u64::from(s.ctx().width_of(x)))?;
            let ctx = s.ctx();
            let mut acc = x;
            for _ in 1..n {
                acc = ctx.concat(acc, x);
            }
            Ok(acc)
        }
        Expr::Call(name, args) => lower_call(s, name, args),
    }
}

/// The value of a number literal as the lexer gives it (`base` is `f`
/// for the fill literals `'0`/`'1` and `i` for a plain decimal), sized to
/// its own size, else to `expected`, else to its digits (32 bits for a
/// decimal).
///
/// An unsized decimal is a 32-bit integer unless its context is wider, so
/// in a context of at most 32 bits a value past `u32::MAX` is an error
/// rather than wrapping to its low bits.
///
/// # Errors
/// Bad digits, a digit string wider than [`BitVecValue::MAX_WIDTH`] bits,
/// a fill literal with no width from context, or the overflow above.
pub fn literal(
    size: Option<u32>,
    base: char,
    digits: &str,
    expected: Option<u32>,
) -> Result<BitVecValue, ElabError> {
    let bits_per_digit = match base {
        'b' => 1,
        'o' => 3,
        'h' => 4,
        _ => 0,
    };
    let bits = digits.len() as u64 * bits_per_digit;
    if bits > u64::from(BitVecValue::MAX_WIDTH) {
        return Err(ElabError::new(format!(
            "literal digits are {bits} bits wide, more than {}",
            BitVecValue::MAX_WIDTH
        )));
    }
    Ok(match base {
        'f' => {
            let w = expected
                .ok_or_else(|| ElabError::new("fill literal '0/'1 needs a width from context"))?;
            if digits == "1" {
                BitVecValue::ones(w)
            } else {
                BitVecValue::zero(w)
            }
        }
        'i' | 'd' => {
            let w = size.or(expected).unwrap_or(32);
            let v = BitVecValue::from_decimal_str(digits, w.max(1))
                .ok_or_else(|| ElabError::new(format!("bad decimal literal `{digits}`")))?;
            if size.is_none() && w <= 32 && digits.parse::<u32>().is_err() {
                return Err(ElabError::new(format!(
                    "decimal literal `{digits}` does not fit in 32 bits"
                )));
            }
            v
        }
        'b' => {
            let raw = BitVecValue::from_binary_str(digits)
                .ok_or_else(|| ElabError::new(format!("bad binary literal `{digits}`")))?;
            let w = size.or(expected).unwrap_or(raw.width());
            raw.resize(w)
        }
        'h' => {
            let raw = BitVecValue::from_hex_str(digits)
                .ok_or_else(|| ElabError::new(format!("bad hex literal `{digits}`")))?;
            let w = size.or(expected).unwrap_or(raw.width());
            raw.resize(w)
        }
        'o' => {
            let octal = digits
                .chars()
                .map(|c| {
                    c.to_digit(8).ok_or_else(|| ElabError::new(format!("bad octal digit `{c}`")))
                })
                .collect::<Result<Vec<u32>, _>>()?;
            // Set each digit's three bits in place: one pass, where a
            // shift per digit over the whole value is quadratic.
            let mut acc = BitVecValue::zero(64.max(bits as u32));
            for (i, d) in octal.iter().rev().enumerate() {
                for b in 0..3 {
                    if d & (1 << b) != 0 {
                        acc.set_bit(3 * i as u32 + b, true);
                    }
                }
            }
            let w = size.or(expected).unwrap_or(bits as u32);
            acc.resize(w)
        }
        _ => return Err(ElabError::new(format!("unsupported base `{base}`"))),
    })
}

/// Lowers two operands and unifies their widths (Verilog max-width rule,
/// zero extension).
fn lower_pair<S: Scope>(
    s: &mut S,
    a: &Expr,
    b: &Expr,
    expected: Option<u32>,
) -> Result<(ExprRef, ExprRef), S::Error> {
    // Lower the non-literal side first so literals get a width hint.
    let (x, y) = if matches!(a, Expr::Number { .. }) && !matches!(b, Expr::Number { .. }) {
        let y = lower_expr(s, b, expected)?;
        let hint = Some(s.ctx().width_of(y));
        let x = lower_expr(s, a, hint)?;
        (x, y)
    } else {
        let x = lower_expr(s, a, expected)?;
        let hint = Some(s.ctx().width_of(x));
        let y = lower_expr(s, b, hint)?;
        (x, y)
    };
    let ctx = s.ctx();
    let w = ctx.width_of(x).max(ctx.width_of(y));
    let x = if ctx.width_of(x) < w { ctx.zext(x, w) } else { x };
    let y = if ctx.width_of(y) < w { ctx.zext(y, w) } else { y };
    Ok((x, y))
}

fn lower_binary<S: Scope>(
    s: &mut S,
    op: BinaryAstOp,
    a: &Expr,
    b: &Expr,
    expected: Option<u32>,
) -> Result<ExprRef, S::Error> {
    match op {
        BinaryAstOp::LogAnd | BinaryAstOp::LogOr => {
            let x = lower_bool(s, a)?;
            let y = lower_bool(s, b)?;
            let ctx = s.ctx();
            Ok(match op {
                BinaryAstOp::LogAnd => ctx.and(x, y),
                _ => ctx.or(x, y),
            })
        }
        BinaryAstOp::Shl | BinaryAstOp::Shr => {
            let x = lower_expr(s, a, expected)?;
            let y = lower_expr(s, b, None)?;
            let ctx = s.ctx();
            let w = ctx.width_of(x);
            let y = fit(ctx, y, w);
            Ok(match op {
                BinaryAstOp::Shl => ctx.shl(x, y),
                _ => ctx.lshr(x, y),
            })
        }
        BinaryAstOp::Eq
        | BinaryAstOp::Ne
        | BinaryAstOp::Lt
        | BinaryAstOp::Le
        | BinaryAstOp::Gt
        | BinaryAstOp::Ge => {
            let (x, y) = lower_pair(s, a, b, None)?;
            let ctx = s.ctx();
            Ok(match op {
                BinaryAstOp::Eq => ctx.eq(x, y),
                BinaryAstOp::Ne => ctx.ne(x, y),
                BinaryAstOp::Lt => ctx.ult(x, y),
                BinaryAstOp::Le => ctx.ule(x, y),
                BinaryAstOp::Gt => ctx.ugt(x, y),
                _ => ctx.uge(x, y),
            })
        }
        _ => {
            let (x, y) = lower_pair(s, a, b, expected)?;
            let ctx = s.ctx();
            Ok(match op {
                BinaryAstOp::Add => ctx.add(x, y),
                BinaryAstOp::Sub => ctx.sub(x, y),
                BinaryAstOp::Mul => ctx.mul(x, y),
                BinaryAstOp::Div => ctx.udiv(x, y),
                BinaryAstOp::Mod => ctx.urem(x, y),
                BinaryAstOp::BitAnd => ctx.and(x, y),
                BinaryAstOp::BitOr => ctx.or(x, y),
                BinaryAstOp::BitXor => ctx.xor(x, y),
                _ => unreachable!("handled above"),
            })
        }
    }
}

fn lower_call<S: Scope>(s: &mut S, name: &str, args: &[Expr]) -> Result<ExprRef, S::Error> {
    match name {
        "$countones" | "$onehot" | "$onehot0" => {
            let x = lower_expr(s, one_arg(name, args)?, None)?;
            let ctx = s.ctx();
            Ok(match name {
                "$countones" => ctx.count_ones(x, 32),
                "$onehot" => ctx.onehot(x),
                _ => ctx.onehot0(x),
            })
        }
        "$clog2" => {
            let v = const_u64(s, one_arg(name, args)?)?;
            let bits = if v <= 1 { 0 } else { 64 - (v - 1).leading_zeros() };
            Ok(s.ctx().constant(bits as u64, 32))
        }
        "$unsigned" | "$signed" => lower_expr(s, one_arg(name, args)?, None),
        _ => s.call(name, args),
    }
}

/// A concatenation or replication `width` bits wide is an error past
/// [`BitVecValue::MAX_WIDTH`], checked before any of it is built.
fn check_concat_width(width: u64) -> Result<(), ElabError> {
    if width > u64::from(BitVecValue::MAX_WIDTH) {
        return Err(ElabError::new(format!(
            "concatenation is {width} bits wide, more than {}",
            BitVecValue::MAX_WIDTH
        )));
    }
    Ok(())
}
