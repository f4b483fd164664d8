//! Hash-consed word-level expression DAG.
//!
//! All expressions live inside a [`Context`] arena and are referenced by
//! lightweight [`ExprRef`] handles. Construction performs structural hashing
//! (identical sub-terms share one node) and constant folding, so the DAG
//! stays compact across the unrollings performed by the model checker.

use crate::value::BitVecValue;
use std::collections::HashMap;
use std::fmt;

/// Handle to an expression stored in a [`Context`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprRef(u32);

impl ExprRef {
    /// The dense index of this node inside its context.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The reference with dense index `i` — the inverse of
    /// [`ExprRef::index`]. Only meaningful against a context with more
    /// than `i` nodes (e.g. when enumerating `0..ctx.num_nodes()`).
    #[inline]
    pub fn from_index(i: usize) -> ExprRef {
        ExprRef(i as u32)
    }
}

impl fmt::Debug for ExprRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Unary word-level operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UnaryOp {
    /// Bitwise complement.
    Not,
    /// Two's-complement negation.
    Neg,
    /// AND-reduction to 1 bit (Verilog `&x`).
    RedAnd,
    /// OR-reduction to 1 bit (Verilog `|x`).
    RedOr,
    /// XOR-reduction to 1 bit (Verilog `^x`).
    RedXor,
}

/// Binary word-level operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinaryOp {
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Modular addition.
    Add,
    /// Modular subtraction.
    Sub,
    /// Truncating multiplication.
    Mul,
    /// Unsigned division (`x / 0` = all-ones, SMT-LIB convention).
    Udiv,
    /// Unsigned remainder (`x % 0 = x`).
    Urem,
    /// Equality (1-bit result).
    Eq,
    /// Unsigned less-than (1-bit result).
    Ult,
    /// Unsigned less-or-equal (1-bit result).
    Ule,
    /// Signed less-than (1-bit result).
    Slt,
    /// Concatenation; the left operand supplies the high bits.
    Concat,
    /// Logical shift left by the right operand.
    Shl,
    /// Logical shift right by the right operand.
    Lshr,
}

/// An expression node.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Expr {
    /// A constant bitvector.
    Const(BitVecValue),
    /// A free variable (design input, state register, or oracle).
    Symbol {
        /// Unique name within the context.
        name: String,
        /// Width in bits.
        width: u32,
    },
    /// Application of a [`UnaryOp`].
    Unary(UnaryOp, ExprRef),
    /// Application of a [`BinaryOp`].
    Binary(BinaryOp, ExprRef, ExprRef),
    /// If-then-else multiplexer; `cond` must be 1 bit wide.
    Ite {
        /// 1-bit selector.
        cond: ExprRef,
        /// Value when `cond` is 1.
        tru: ExprRef,
        /// Value when `cond` is 0.
        fls: ExprRef,
    },
    /// Bit slice `value[hi:lo]`, inclusive.
    Extract {
        /// Sliced operand.
        value: ExprRef,
        /// High bit index.
        hi: u32,
        /// Low bit index.
        lo: u32,
    },
}

/// Arena and structural-hashing table for expressions.
///
/// ```
/// use genfv_ir::{Context, BitVecValue};
/// let mut ctx = Context::new();
/// let a = ctx.symbol("a", 8);
/// let b = ctx.symbol("b", 8);
/// let sum = ctx.add(a, b);
/// let sum2 = ctx.add(a, b);
/// assert_eq!(sum, sum2); // hash-consed
/// assert_eq!(ctx.width_of(sum), 8);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Context {
    nodes: Vec<Expr>,
    widths: Vec<u32>,
    interned: HashMap<Expr, ExprRef>,
    symbols: HashMap<String, ExprRef>,
}

impl Context {
    /// Creates an empty context.
    pub fn new() -> Self {
        Context::default()
    }

    /// Number of distinct nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The node behind a handle.
    #[inline]
    pub fn expr(&self, e: ExprRef) -> &Expr {
        &self.nodes[e.index()]
    }

    /// Bit width of an expression.
    #[inline]
    pub fn width_of(&self, e: ExprRef) -> u32 {
        self.widths[e.index()]
    }

    /// Looks up a symbol by name.
    pub fn find_symbol(&self, name: &str) -> Option<ExprRef> {
        self.symbols.get(name).copied()
    }

    /// Iterates over all `(name, handle)` symbol pairs, in creation order of
    /// node allocation.
    pub fn symbols(&self) -> impl Iterator<Item = (&str, ExprRef)> {
        let mut v: Vec<(&str, ExprRef)> =
            self.symbols.iter().map(|(n, &e)| (n.as_str(), e)).collect();
        v.sort_by_key(|&(_, e)| e);
        v.into_iter()
    }

    fn intern(&mut self, node: Expr, width: u32) -> ExprRef {
        if let Some(&e) = self.interned.get(&node) {
            return e;
        }
        let e = ExprRef(self.nodes.len() as u32);
        self.interned.insert(node.clone(), e);
        self.nodes.push(node);
        self.widths.push(width);
        e
    }

    // --- leaves -----------------------------------------------------------

    /// Interns a constant.
    pub fn value(&mut self, v: BitVecValue) -> ExprRef {
        let w = v.width();
        self.intern(Expr::Const(v), w)
    }

    /// Interns a constant from a `u64`.
    pub fn constant(&mut self, value: u64, width: u32) -> ExprRef {
        self.value(BitVecValue::from_u64(value, width))
    }

    /// The 1-bit constant for `b`.
    pub fn bool_const(&mut self, b: bool) -> ExprRef {
        self.constant(b as u64, 1)
    }

    /// Creates (or retrieves) the symbol `name` of the given width.
    ///
    /// # Panics
    /// Panics if `name` already exists with a different width.
    pub fn symbol(&mut self, name: &str, width: u32) -> ExprRef {
        if let Some(&e) = self.symbols.get(name) {
            assert_eq!(self.width_of(e), width, "symbol `{name}` redeclared with different width");
            return e;
        }
        let e = self.intern(Expr::Symbol { name: name.to_string(), width }, width);
        self.symbols.insert(name.to_string(), e);
        e
    }

    /// The name of a symbol node, if `e` is one.
    pub fn symbol_name(&self, e: ExprRef) -> Option<&str> {
        match self.expr(e) {
            Expr::Symbol { name, .. } => Some(name),
            _ => None,
        }
    }

    /// Constant value of `e`, if it is a constant node.
    pub fn const_value(&self, e: ExprRef) -> Option<&BitVecValue> {
        match self.expr(e) {
            Expr::Const(v) => Some(v),
            _ => None,
        }
    }

    // --- unary -------------------------------------------------------------

    pub(crate) fn unary(&mut self, op: UnaryOp, a: ExprRef) -> ExprRef {
        // Constant folding.
        if let Expr::Const(v) = self.expr(a) {
            let folded = match op {
                UnaryOp::Not => v.not(),
                UnaryOp::Neg => v.negate(),
                UnaryOp::RedAnd => BitVecValue::from_bool(v.red_and()),
                UnaryOp::RedOr => BitVecValue::from_bool(v.red_or()),
                UnaryOp::RedXor => BitVecValue::from_bool(v.red_xor()),
            };
            return self.value(folded);
        }
        // ¬¬x = x.
        if op == UnaryOp::Not {
            if let Expr::Unary(UnaryOp::Not, inner) = self.expr(a) {
                return *inner;
            }
        }
        let w = match op {
            UnaryOp::Not | UnaryOp::Neg => self.width_of(a),
            UnaryOp::RedAnd | UnaryOp::RedOr | UnaryOp::RedXor => 1,
        };
        self.intern(Expr::Unary(op, a), w)
    }

    /// Bitwise complement.
    pub fn not(&mut self, a: ExprRef) -> ExprRef {
        self.unary(UnaryOp::Not, a)
    }

    /// Two's-complement negation.
    pub fn neg(&mut self, a: ExprRef) -> ExprRef {
        self.unary(UnaryOp::Neg, a)
    }

    /// AND-reduction (`&x`).
    pub fn red_and(&mut self, a: ExprRef) -> ExprRef {
        self.unary(UnaryOp::RedAnd, a)
    }

    /// OR-reduction (`|x`).
    pub fn red_or(&mut self, a: ExprRef) -> ExprRef {
        self.unary(UnaryOp::RedOr, a)
    }

    /// XOR-reduction (`^x`).
    pub fn red_xor(&mut self, a: ExprRef) -> ExprRef {
        self.unary(UnaryOp::RedXor, a)
    }

    // --- binary ------------------------------------------------------------

    fn expect_same_width(&self, op: BinaryOp, a: ExprRef, b: ExprRef) {
        assert_eq!(
            self.width_of(a),
            self.width_of(b),
            "width mismatch in {op:?}: {} vs {}",
            self.width_of(a),
            self.width_of(b)
        );
    }

    pub(crate) fn binary(&mut self, op: BinaryOp, a: ExprRef, b: ExprRef) -> ExprRef {
        match op {
            BinaryOp::Concat => {}
            _ => self.expect_same_width(op, a, b),
        }
        // Constant folding.
        if let (Expr::Const(va), Expr::Const(vb)) = (self.expr(a), self.expr(b)) {
            let folded = match op {
                BinaryOp::And => va.and(vb),
                BinaryOp::Or => va.or(vb),
                BinaryOp::Xor => va.xor(vb),
                BinaryOp::Add => va.add(vb),
                BinaryOp::Sub => va.sub(vb),
                BinaryOp::Mul => va.mul(vb),
                BinaryOp::Udiv => va.udiv(vb),
                BinaryOp::Urem => va.urem(vb),
                BinaryOp::Eq => BitVecValue::from_bool(va == vb),
                BinaryOp::Ult => BitVecValue::from_bool(va.ult(vb)),
                BinaryOp::Ule => BitVecValue::from_bool(va.ule(vb)),
                BinaryOp::Slt => BitVecValue::from_bool(va.slt(vb)),
                BinaryOp::Concat => va.concat(vb),
                BinaryOp::Shl => va.shl(vb),
                BinaryOp::Lshr => va.lshr(vb),
            };
            return self.value(folded);
        }
        // Cheap identities.
        match op {
            BinaryOp::And | BinaryOp::Or if a == b => return a,
            BinaryOp::Xor | BinaryOp::Sub if a == b => {
                let w = self.width_of(a);
                return self.constant(0, w);
            }
            BinaryOp::Eq if a == b => return self.bool_const(true),
            BinaryOp::Ult if a == b => return self.bool_const(false),
            BinaryOp::Ule if a == b => return self.bool_const(true),
            _ => {}
        }
        // One-constant identities and annihilators. The both-constant case
        // folded above, so at most one side classifies here. Each operand is
        // summarized as (is_zero, is_ones, is_one); `is_one` uses `to_u64`
        // and is conservatively false for constants wider than 64 bits.
        let classify = |v: &BitVecValue| (v.is_zero(), v.is_ones(), v.to_u64() == Some(1));
        let ka = self.const_value(a).map(classify);
        let kb = self.const_value(b).map(classify);
        let w = self.width_of(a);
        match op {
            BinaryOp::And => {
                if matches!(ka, Some((true, ..))) {
                    return a; // 0 & x = 0
                }
                if matches!(kb, Some((true, ..))) {
                    return b;
                }
                if matches!(ka, Some((_, true, _))) {
                    return b; // ones & x = x
                }
                if matches!(kb, Some((_, true, _))) {
                    return a;
                }
            }
            BinaryOp::Or => {
                if matches!(ka, Some((true, ..))) {
                    return b; // 0 | x = x
                }
                if matches!(kb, Some((true, ..))) {
                    return a;
                }
                if matches!(ka, Some((_, true, _))) {
                    return a; // ones | x = ones
                }
                if matches!(kb, Some((_, true, _))) {
                    return b;
                }
            }
            BinaryOp::Xor => {
                if matches!(ka, Some((true, ..))) {
                    return b; // 0 ^ x = x
                }
                if matches!(kb, Some((true, ..))) {
                    return a;
                }
                if matches!(ka, Some((_, true, _))) {
                    return self.not(b); // ones ^ x = ~x
                }
                if matches!(kb, Some((_, true, _))) {
                    return self.not(a);
                }
            }
            BinaryOp::Add => {
                if matches!(ka, Some((true, ..))) {
                    return b; // 0 + x = x
                }
                if matches!(kb, Some((true, ..))) {
                    return a;
                }
            }
            BinaryOp::Sub => {
                if matches!(kb, Some((true, ..))) {
                    return a; // x - 0 = x
                }
            }
            BinaryOp::Mul => {
                if matches!(ka, Some((true, ..))) {
                    return a; // 0 * x = 0
                }
                if matches!(kb, Some((true, ..))) {
                    return b;
                }
                if matches!(ka, Some((.., true))) {
                    return b; // 1 * x = x
                }
                if matches!(kb, Some((.., true))) {
                    return a;
                }
            }
            BinaryOp::Udiv => {
                if matches!(kb, Some((.., true))) {
                    return a; // x / 1 = x
                }
            }
            BinaryOp::Urem => {
                if matches!(kb, Some((.., true))) {
                    return self.constant(0, w); // x % 1 = 0
                }
            }
            BinaryOp::Shl | BinaryOp::Lshr => {
                if matches!(kb, Some((true, ..))) {
                    return a; // x shifted by 0 = x
                }
                if matches!(ka, Some((true, ..))) {
                    return a; // 0 shifted = 0
                }
            }
            BinaryOp::Eq if w == 1 => {
                if matches!(ka, Some((_, true, _))) {
                    return b; // (x == 1'b1) = x
                }
                if matches!(kb, Some((_, true, _))) {
                    return a;
                }
                if matches!(ka, Some((true, ..))) {
                    return self.not(b); // (x == 1'b0) = ~x
                }
                if matches!(kb, Some((true, ..))) {
                    return self.not(a);
                }
            }
            BinaryOp::Ult => {
                if matches!(kb, Some((true, ..))) {
                    return self.bool_const(false); // x < 0 is never true
                }
            }
            BinaryOp::Ule => {
                if matches!(ka, Some((true, ..))) {
                    return self.bool_const(true); // 0 <= x always
                }
                if matches!(kb, Some((_, true, _))) {
                    return self.bool_const(true); // x <= ones always
                }
            }
            _ => {}
        }
        // Canonical operand order for commutative ops improves sharing.
        let (a, b) = match op {
            BinaryOp::And
            | BinaryOp::Or
            | BinaryOp::Xor
            | BinaryOp::Add
            | BinaryOp::Mul
            | BinaryOp::Eq
                if b < a =>
            {
                (b, a)
            }
            _ => (a, b),
        };
        let w = match op {
            BinaryOp::Eq | BinaryOp::Ult | BinaryOp::Ule | BinaryOp::Slt => 1,
            BinaryOp::Concat => self.width_of(a) + self.width_of(b),
            _ => self.width_of(a),
        };
        self.intern(Expr::Binary(op, a, b), w)
    }

    /// Bitwise AND. # Panics Panics on width mismatch.
    pub fn and(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.binary(BinaryOp::And, a, b)
    }

    /// Bitwise OR. # Panics Panics on width mismatch.
    pub fn or(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.binary(BinaryOp::Or, a, b)
    }

    /// Bitwise XOR. # Panics Panics on width mismatch.
    pub fn xor(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.binary(BinaryOp::Xor, a, b)
    }

    /// Modular addition. # Panics Panics on width mismatch.
    pub fn add(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.binary(BinaryOp::Add, a, b)
    }

    /// Modular subtraction. # Panics Panics on width mismatch.
    pub fn sub(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.binary(BinaryOp::Sub, a, b)
    }

    /// Truncating multiplication. # Panics Panics on width mismatch.
    pub fn mul(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.binary(BinaryOp::Mul, a, b)
    }

    /// Unsigned division (SMT-LIB zero convention). # Panics Panics on
    /// width mismatch.
    pub fn udiv(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.binary(BinaryOp::Udiv, a, b)
    }

    /// Unsigned remainder (SMT-LIB zero convention). # Panics Panics on
    /// width mismatch.
    pub fn urem(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.binary(BinaryOp::Urem, a, b)
    }

    /// Equality (1-bit result). # Panics Panics on width mismatch.
    pub fn eq(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.binary(BinaryOp::Eq, a, b)
    }

    /// Inequality (1-bit result). # Panics Panics on width mismatch.
    pub fn ne(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        let eq = self.eq(a, b);
        self.not(eq)
    }

    /// Unsigned `<`. # Panics Panics on width mismatch.
    pub fn ult(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.binary(BinaryOp::Ult, a, b)
    }

    /// Unsigned `<=`. # Panics Panics on width mismatch.
    pub fn ule(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.binary(BinaryOp::Ule, a, b)
    }

    /// Unsigned `>`. # Panics Panics on width mismatch.
    pub fn ugt(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.binary(BinaryOp::Ult, b, a)
    }

    /// Unsigned `>=`. # Panics Panics on width mismatch.
    pub fn uge(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.binary(BinaryOp::Ule, b, a)
    }

    /// Signed `<`. # Panics Panics on width mismatch.
    pub fn slt(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.binary(BinaryOp::Slt, a, b)
    }

    /// Concatenation `{a, b}` (`a` high).
    pub fn concat(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.binary(BinaryOp::Concat, a, b)
    }

    /// Logical shift left. # Panics Panics on width mismatch.
    pub fn shl(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.binary(BinaryOp::Shl, a, b)
    }

    /// Logical shift right. # Panics Panics on width mismatch.
    pub fn lshr(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.binary(BinaryOp::Lshr, a, b)
    }

    /// If-then-else.
    ///
    /// # Panics
    /// Panics if `cond` is not 1 bit wide or the branches differ in width.
    pub fn ite(&mut self, cond: ExprRef, tru: ExprRef, fls: ExprRef) -> ExprRef {
        assert_eq!(self.width_of(cond), 1, "ite condition must be 1 bit");
        assert_eq!(self.width_of(tru), self.width_of(fls), "ite branch width mismatch");
        if let Expr::Const(c) = self.expr(cond) {
            return if c.to_bool() { tru } else { fls };
        }
        if tru == fls {
            return tru;
        }
        let w = self.width_of(tru);
        self.intern(Expr::Ite { cond, tru, fls }, w)
    }

    /// Bit slice `value[hi:lo]`.
    ///
    /// # Panics
    /// Panics if `hi < lo` or `hi >= width(value)`.
    pub fn extract(&mut self, value: ExprRef, hi: u32, lo: u32) -> ExprRef {
        let w = self.width_of(value);
        assert!(hi >= lo && hi < w, "bad extract [{hi}:{lo}] on width {w}");
        if lo == 0 && hi == w - 1 {
            return value;
        }
        if let Expr::Const(v) = self.expr(value) {
            let folded = v.extract(hi, lo);
            return self.value(folded);
        }
        self.intern(Expr::Extract { value, hi, lo }, hi - lo + 1)
    }

    /// Single bit `value[i]` as a 1-bit expression.
    pub fn bit(&mut self, value: ExprRef, i: u32) -> ExprRef {
        self.extract(value, i, i)
    }

    // --- derived helpers ----------------------------------------------------

    /// Boolean implication `a → b` over 1-bit operands.
    pub fn implies(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        let na = self.not(a);
        self.or(na, b)
    }

    /// Boolean equivalence over 1-bit operands.
    pub fn iff(&mut self, a: ExprRef, b: ExprRef) -> ExprRef {
        self.eq(a, b)
    }

    /// Zero-extension to `width`.
    ///
    /// # Panics
    /// Panics if `width` is smaller than the operand width.
    pub fn zext(&mut self, a: ExprRef, width: u32) -> ExprRef {
        let w = self.width_of(a);
        assert!(width >= w, "zext target narrower than operand");
        if width == w {
            return a;
        }
        let zeros = self.constant(0, width - w);
        self.concat(zeros, a)
    }

    /// Sign-extension to `width`.
    ///
    /// # Panics
    /// Panics if `width` is smaller than the operand width.
    pub fn sext(&mut self, a: ExprRef, width: u32) -> ExprRef {
        let w = self.width_of(a);
        assert!(width >= w, "sext target narrower than operand");
        if width == w {
            return a;
        }
        let sign = self.bit(a, w - 1);
        let ones = self.constant(u64::MAX, (width - w).min(64));
        let ones = if width - w > 64 {
            let v = BitVecValue::ones(width - w);
            self.value(v)
        } else {
            ones
        };
        let zeros = self.constant(0, width - w);
        let ext = self.ite(sign, ones, zeros);
        self.concat(ext, a)
    }

    /// Conjunction of a list of 1-bit expressions (true when empty).
    pub fn and_many(&mut self, xs: &[ExprRef]) -> ExprRef {
        let mut acc = self.bool_const(true);
        for &x in xs {
            acc = self.and(acc, x);
        }
        acc
    }

    /// Disjunction of a list of 1-bit expressions (false when empty).
    pub fn or_many(&mut self, xs: &[ExprRef]) -> ExprRef {
        let mut acc = self.bool_const(false);
        for &x in xs {
            acc = self.or(acc, x);
        }
        acc
    }

    /// Population count as a `result_width`-bit vector.
    pub fn count_ones(&mut self, a: ExprRef, result_width: u32) -> ExprRef {
        let w = self.width_of(a);
        let mut acc = self.constant(0, result_width);
        for i in 0..w {
            let b = self.bit(a, i);
            let ext = self.zext(b, result_width);
            acc = self.add(acc, ext);
        }
        acc
    }

    /// 1-bit "exactly one bit set" predicate (`$onehot`).
    pub fn onehot(&mut self, a: ExprRef) -> ExprRef {
        let w = self.width_of(a);
        let cw = 32.min(w + 1).max(2);
        let count = self.count_ones(a, cw);
        let one = self.constant(1, cw);
        self.eq(count, one)
    }

    /// 1-bit "at most one bit set" predicate (`$onehot0`).
    pub fn onehot0(&mut self, a: ExprRef) -> ExprRef {
        let w = self.width_of(a);
        let cw = 32.min(w + 1).max(2);
        let count = self.count_ones(a, cw);
        let one = self.constant(1, cw);
        self.ule(count, one)
    }

    /// Rebuilds `e` with every occurrence of a key in `map` replaced by its
    /// value (applied to arbitrary sub-expressions, typically symbols).
    /// Replacement values must match the width of what they replace.
    pub fn substitute(&mut self, e: ExprRef, map: &HashMap<ExprRef, ExprRef>) -> ExprRef {
        let mut memo: HashMap<ExprRef, ExprRef> = HashMap::new();
        self.substitute_memo(e, map, &mut memo)
    }

    fn substitute_memo(
        &mut self,
        e: ExprRef,
        map: &HashMap<ExprRef, ExprRef>,
        memo: &mut HashMap<ExprRef, ExprRef>,
    ) -> ExprRef {
        if let Some(&r) = map.get(&e) {
            debug_assert_eq!(self.width_of(r), self.width_of(e), "substitution width mismatch");
            return r;
        }
        if let Some(&r) = memo.get(&e) {
            return r;
        }
        let result = match self.expr(e).clone() {
            Expr::Const(_) | Expr::Symbol { .. } => e,
            Expr::Unary(op, a) => {
                let na = self.substitute_memo(a, map, memo);
                if na == a {
                    e
                } else {
                    self.unary(op, na)
                }
            }
            Expr::Binary(op, a, b) => {
                let na = self.substitute_memo(a, map, memo);
                let nb = self.substitute_memo(b, map, memo);
                if na == a && nb == b {
                    e
                } else {
                    self.binary(op, na, nb)
                }
            }
            Expr::Ite { cond, tru, fls } => {
                let nc = self.substitute_memo(cond, map, memo);
                let nt = self.substitute_memo(tru, map, memo);
                let nf = self.substitute_memo(fls, map, memo);
                if nc == cond && nt == tru && nf == fls {
                    e
                } else {
                    self.ite(nc, nt, nf)
                }
            }
            Expr::Extract { value, hi, lo } => {
                let nv = self.substitute_memo(value, map, memo);
                if nv == value {
                    e
                } else {
                    self.extract(nv, hi, lo)
                }
            }
        };
        memo.insert(e, result);
        result
    }

    /// Collects the symbols reachable from `e`, in deterministic order.
    pub fn free_symbols(&self, e: ExprRef) -> Vec<ExprRef> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        let mut stack = vec![e];
        while let Some(x) = stack.pop() {
            if !seen.insert(x) {
                continue;
            }
            match self.expr(x) {
                Expr::Const(_) => {}
                Expr::Symbol { .. } => out.push(x),
                Expr::Unary(_, a) => stack.push(*a),
                Expr::Binary(_, a, b) => {
                    stack.push(*a);
                    stack.push(*b);
                }
                Expr::Ite { cond, tru, fls } => {
                    stack.push(*cond);
                    stack.push(*tru);
                    stack.push(*fls);
                }
                Expr::Extract { value, .. } => stack.push(*value),
            }
        }
        out.sort();
        out
    }

    /// Renders an expression as Verilog-flavoured text (used in prompts,
    /// traces, and debugging).
    pub fn display(&self, e: ExprRef) -> String {
        match self.expr(e) {
            Expr::Const(v) => format!("{v}"),
            Expr::Symbol { name, .. } => name.clone(),
            Expr::Unary(op, a) => {
                let sa = self.display(*a);
                match op {
                    UnaryOp::Not => format!("~({sa})"),
                    UnaryOp::Neg => format!("-({sa})"),
                    UnaryOp::RedAnd => format!("&({sa})"),
                    UnaryOp::RedOr => format!("|({sa})"),
                    UnaryOp::RedXor => format!("^({sa})"),
                }
            }
            Expr::Binary(op, a, b) => {
                let sa = self.display(*a);
                let sb = self.display(*b);
                let sym = match op {
                    BinaryOp::And => "&",
                    BinaryOp::Or => "|",
                    BinaryOp::Xor => "^",
                    BinaryOp::Add => "+",
                    BinaryOp::Sub => "-",
                    BinaryOp::Mul => "*",
                    BinaryOp::Udiv => "/",
                    BinaryOp::Urem => "%",
                    BinaryOp::Eq => "==",
                    BinaryOp::Ult => "<",
                    BinaryOp::Ule => "<=",
                    BinaryOp::Slt => "<s",
                    BinaryOp::Concat => return format!("{{{sa}, {sb}}}"),
                    BinaryOp::Shl => "<<",
                    BinaryOp::Lshr => ">>",
                };
                format!("({sa} {sym} {sb})")
            }
            Expr::Ite { cond, tru, fls } => {
                format!(
                    "({} ? {} : {})",
                    self.display(*cond),
                    self.display(*tru),
                    self.display(*fls)
                )
            }
            Expr::Extract { value, hi, lo } => {
                if hi == lo {
                    format!("{}[{hi}]", self.display(*value))
                } else {
                    format!("{}[{hi}:{lo}]", self.display(*value))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_shares_nodes() {
        let mut ctx = Context::new();
        let a = ctx.symbol("a", 4);
        let b = ctx.symbol("b", 4);
        let e1 = ctx.add(a, b);
        let e2 = ctx.add(a, b);
        let e3 = ctx.add(b, a); // commutative canonicalisation
        assert_eq!(e1, e2);
        assert_eq!(e1, e3);
    }

    #[test]
    fn constant_folding() {
        let mut ctx = Context::new();
        let a = ctx.constant(3, 8);
        let b = ctx.constant(4, 8);
        let s = ctx.add(a, b);
        assert_eq!(ctx.const_value(s).unwrap().to_u64(), Some(7));
        let n = ctx.not(a);
        assert_eq!(ctx.const_value(n).unwrap().to_u64(), Some(0xFC));
    }

    #[test]
    fn widths() {
        let mut ctx = Context::new();
        let a = ctx.symbol("a", 8);
        let b = ctx.symbol("b", 8);
        assert_eq!(ctx.width_of(ctx.find_symbol("a").unwrap()), 8);
        let e = ctx.eq(a, b);
        assert_eq!(ctx.width_of(e), 1);
        let c = ctx.concat(a, b);
        assert_eq!(ctx.width_of(c), 16);
        let x = ctx.extract(a, 3, 1);
        assert_eq!(ctx.width_of(x), 3);
        let r = ctx.red_xor(a);
        assert_eq!(ctx.width_of(r), 1);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        let mut ctx = Context::new();
        let a = ctx.symbol("a", 8);
        let b = ctx.symbol("b", 4);
        let _ = ctx.add(a, b);
    }

    #[test]
    #[should_panic(expected = "redeclared")]
    fn symbol_redeclaration_panics() {
        let mut ctx = Context::new();
        ctx.symbol("a", 8);
        ctx.symbol("a", 4);
    }

    #[test]
    fn identities() {
        let mut ctx = Context::new();
        let a = ctx.symbol("a", 8);
        assert_eq!(ctx.and(a, a), a);
        let x = ctx.xor(a, a);
        assert!(ctx.const_value(x).unwrap().is_zero());
        let e = ctx.eq(a, a);
        assert_eq!(ctx.const_value(e).unwrap().to_u64(), Some(1));
        let nn = {
            let n = ctx.not(a);
            ctx.not(n)
        };
        assert_eq!(nn, a);
    }

    #[test]
    fn commutative_canonicalisation_all_ops() {
        // Regression: hash-consing must treat swapped operands of every
        // commutative operator as the same node, including when one side is
        // itself a compound expression.
        let mut ctx = Context::new();
        let a = ctx.symbol("a", 8);
        let b = ctx.symbol("b", 8);
        let c = ctx.symbol("c", 8);
        let ab = ctx.add(a, b);
        for (fwd, rev) in [
            (ctx.and(ab, c), ctx.and(c, ab)),
            (ctx.or(ab, c), ctx.or(c, ab)),
            (ctx.xor(ab, c), ctx.xor(c, ab)),
            (ctx.add(ab, c), ctx.add(c, ab)),
            (ctx.mul(ab, c), ctx.mul(c, ab)),
            (ctx.eq(ab, c), ctx.eq(c, ab)),
        ] {
            assert_eq!(fwd, rev, "swapped operands must share one node");
        }
        let before = ctx.num_nodes();
        let _ = ctx.mul(c, ab);
        assert_eq!(ctx.num_nodes(), before, "no new node for a swapped re-intern");
    }

    #[test]
    fn identity_and_annihilator_folds() {
        let mut ctx = Context::new();
        let a = ctx.symbol("a", 8);
        let zero = ctx.constant(0, 8);
        let one = ctx.constant(1, 8);
        let ones = ctx.constant(0xFF, 8);
        assert_eq!(ctx.and(a, zero), zero);
        assert_eq!(ctx.and(ones, a), a);
        assert_eq!(ctx.or(a, zero), a);
        assert_eq!(ctx.or(a, ones), ones);
        assert_eq!(ctx.xor(zero, a), a);
        let na = ctx.not(a);
        assert_eq!(ctx.xor(a, ones), na);
        assert_eq!(ctx.add(a, zero), a);
        assert_eq!(ctx.sub(a, zero), a);
        assert_eq!(ctx.mul(a, zero), zero);
        assert_eq!(ctx.mul(one, a), a);
        assert_eq!(ctx.udiv(a, one), a);
        assert_eq!(ctx.urem(a, one), zero);
        assert_eq!(ctx.shl(a, zero), a);
        assert_eq!(ctx.lshr(zero, a), zero);
        let f = ctx.ult(a, zero);
        assert_eq!(ctx.const_value(f).unwrap().to_u64(), Some(0));
        let t = ctx.ule(zero, a);
        assert_eq!(ctx.const_value(t).unwrap().to_u64(), Some(1));
    }

    #[test]
    fn boolean_eq_folds() {
        let mut ctx = Context::new();
        let p = ctx.symbol("p", 1);
        let t = ctx.bool_const(true);
        let f = ctx.bool_const(false);
        assert_eq!(ctx.eq(p, t), p);
        let np = ctx.not(p);
        assert_eq!(ctx.eq(f, p), np);
        // Wider equality against zero stays symbolic.
        let a = ctx.symbol("a", 8);
        let z8 = ctx.constant(0, 8);
        let e = ctx.eq(a, z8);
        assert!(ctx.const_value(e).is_none());
        assert!(matches!(ctx.expr(e), Expr::Binary(BinaryOp::Eq, ..)));
    }

    #[test]
    fn ite_simplification() {
        let mut ctx = Context::new();
        let a = ctx.symbol("a", 8);
        let b = ctx.symbol("b", 8);
        let t = ctx.bool_const(true);
        assert_eq!(ctx.ite(t, a, b), a);
        let c = ctx.symbol("c", 1);
        assert_eq!(ctx.ite(c, a, a), a);
    }

    #[test]
    fn extension_helpers() {
        let mut ctx = Context::new();
        let a = ctx.constant(0b1010, 4);
        let z = ctx.zext(a, 8);
        assert_eq!(ctx.const_value(z).unwrap().to_u64(), Some(0b1010));
        let s = ctx.sext(a, 8);
        assert_eq!(ctx.const_value(s).unwrap().to_u64(), Some(0b1111_1010));
    }

    #[test]
    fn display_renders_verilog_flavour() {
        let mut ctx = Context::new();
        let a = ctx.symbol("count1", 4);
        let b = ctx.symbol("count2", 4);
        let e = ctx.eq(a, b);
        assert_eq!(ctx.display(e), "(count1 == count2)");
        let r = ctx.red_and(a);
        assert_eq!(ctx.display(r), "&(count1)");
        let bit = ctx.bit(a, 3);
        assert_eq!(ctx.display(bit), "count1[3]");
    }

    #[test]
    fn onehot_constant_eval() {
        let mut ctx = Context::new();
        let v1 = ctx.constant(0b0100, 4);
        let v2 = ctx.constant(0b0110, 4);
        let v0 = ctx.constant(0, 4);
        let o1 = ctx.onehot(v1);
        let o2 = ctx.onehot(v2);
        let o0 = ctx.onehot0(v0);
        assert!(ctx.const_value(o1).unwrap().to_bool());
        assert!(!ctx.const_value(o2).unwrap().to_bool());
        assert!(ctx.const_value(o0).unwrap().to_bool());
    }

    #[test]
    fn substitute_replaces_symbols() {
        let mut ctx = Context::new();
        let a = ctx.symbol("a", 8);
        let b = ctx.symbol("b", 8);
        let e = ctx.add(a, b);
        let c5 = ctx.constant(5, 8);
        let map = HashMap::from([(a, c5)]);
        let e2 = ctx.substitute(e, &map);
        // b + 5 — still symbolic.
        assert_ne!(e2, e);
        let c3 = ctx.constant(3, 8);
        let map2 = HashMap::from([(b, c3)]);
        let e3 = ctx.substitute(e2, &map2);
        assert_eq!(ctx.const_value(e3).unwrap().to_u64(), Some(8));
    }

    #[test]
    fn substitute_identity_is_shared() {
        let mut ctx = Context::new();
        let a = ctx.symbol("a", 8);
        let one = ctx.constant(1, 8);
        let e = ctx.add(a, one);
        let empty = HashMap::new();
        assert_eq!(ctx.substitute(e, &empty), e);
    }

    #[test]
    fn free_symbols_found() {
        let mut ctx = Context::new();
        let a = ctx.symbol("a", 8);
        let b = ctx.symbol("b", 8);
        let _c = ctx.symbol("c", 8);
        let e = {
            let s = ctx.add(a, b);
            ctx.eq(s, a)
        };
        let syms = ctx.free_symbols(e);
        assert_eq!(syms, vec![a, b]);
    }

    #[test]
    fn symbols_iteration_ordered() {
        let mut ctx = Context::new();
        ctx.symbol("z", 1);
        ctx.symbol("a", 2);
        let names: Vec<&str> = ctx.symbols().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["z", "a"], "creation order preserved");
    }
}
