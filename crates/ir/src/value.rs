//! Arbitrary-width bitvector values.
//!
//! [`BitVecValue`] is the concrete datatype used by the simulator, the
//! counterexample traces, and constant folding. Semantics follow Verilog /
//! SMT-LIB `BitVec`: fixed width, two's-complement arithmetic, logical
//! shifts, truncating multiplication.

use std::fmt;

/// A fixed-width bitvector value.
///
/// Width may be anything from 1 to [`BitVecValue::MAX_WIDTH`] bits; storage
/// is little-endian `u64` words with the unused high bits kept at zero.
///
/// ```
/// use genfv_ir::BitVecValue;
/// let a = BitVecValue::from_u64(40, 8);
/// let b = BitVecValue::from_u64(2, 8);
/// assert_eq!(a.add(&b).to_u64(), Some(42));
/// assert_eq!(format!("{}", a), "8'd40");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BitVecValue {
    width: u32,
    words: Vec<u64>,
}

const WORD_BITS: u32 = 64;

fn words_for(width: u32) -> usize {
    width.div_ceil(WORD_BITS) as usize
}

impl BitVecValue {
    /// Maximum supported width in bits.
    pub const MAX_WIDTH: u32 = 1 << 20;

    /// The all-zeros value of the given width.
    ///
    /// # Panics
    /// Panics if `width` is 0 or exceeds [`BitVecValue::MAX_WIDTH`].
    pub fn zero(width: u32) -> Self {
        assert!((1..=Self::MAX_WIDTH).contains(&width), "invalid bitvector width {width}");
        BitVecValue { width, words: vec![0; words_for(width)] }
    }

    /// The all-ones value of the given width.
    pub fn ones(width: u32) -> Self {
        let mut v = Self::zero(width);
        for w in &mut v.words {
            *w = u64::MAX;
        }
        v.mask_top();
        v
    }

    /// Builds a value from the low bits of `value`, truncated/zero-extended
    /// to `width`.
    pub fn from_u64(value: u64, width: u32) -> Self {
        let mut v = Self::zero(width);
        v.words[0] = value;
        v.mask_top();
        v
    }

    /// Builds a 1-bit value from a boolean.
    pub fn from_bool(b: bool) -> Self {
        Self::from_u64(b as u64, 1)
    }

    /// Builds a value from explicit bits, least-significant first.
    ///
    /// # Panics
    /// Panics if `bits` is empty.
    pub fn from_bits_lsb_first(bits: &[bool]) -> Self {
        assert!(!bits.is_empty(), "bitvector must have at least one bit");
        let mut v = Self::zero(bits.len() as u32);
        for (i, &b) in bits.iter().enumerate() {
            if b {
                v.set_bit(i as u32, true);
            }
        }
        v
    }

    /// Parses a binary string (`"1010"`, most-significant first).
    ///
    /// Returns `None` on empty input or non-binary characters
    /// (underscores are ignored).
    pub fn from_binary_str(s: &str) -> Option<Self> {
        let digits: Vec<char> = s.chars().filter(|c| *c != '_').collect();
        if digits.is_empty() || !digits.iter().all(|c| *c == '0' || *c == '1') {
            return None;
        }
        let width = digits.len() as u32;
        let mut v = Self::zero(width);
        for (i, c) in digits.iter().rev().enumerate() {
            if *c == '1' {
                v.set_bit(i as u32, true);
            }
        }
        Some(v)
    }

    /// Parses a hexadecimal string (most-significant first) into a value of
    /// width `4 * digits`.
    pub fn from_hex_str(s: &str) -> Option<Self> {
        let digits: Vec<u8> = s
            .chars()
            .filter(|c| *c != '_')
            .map(|c| c.to_digit(16).map(|d| d as u8))
            .collect::<Option<Vec<_>>>()?;
        if digits.is_empty() {
            return None;
        }
        let width = digits.len() as u32 * 4;
        let mut v = Self::zero(width);
        for (i, d) in digits.iter().rev().enumerate() {
            for b in 0..4 {
                if d & (1 << b) != 0 {
                    v.set_bit(i as u32 * 4 + b, true);
                }
            }
        }
        Some(v)
    }

    /// Parses a decimal string into a value of the given width (truncating
    /// modulo 2^width as Verilog does).
    pub fn from_decimal_str(s: &str, width: u32) -> Option<Self> {
        let digits: Vec<u32> =
            s.chars().filter(|c| *c != '_').map(|c| c.to_digit(10)).collect::<Option<Vec<_>>>()?;
        if digits.is_empty() {
            return None;
        }
        // One multiply-by-10-and-add pass per digit, over the words that
        // hold the value so far (the ones above are still zero). Carries
        // out of the top word drop, and the top word is masked at the
        // end: the result is the same modulo 2^width.
        let mut v = Self::zero(width);
        let mut used = 0;
        for d in digits {
            let mut carry = u128::from(d);
            for w in &mut v.words[..used] {
                let x = u128::from(*w) * 10 + carry;
                *w = x as u64;
                carry = x >> 64;
            }
            if carry != 0 && used < v.words.len() {
                v.words[used] = carry as u64;
                used += 1;
            }
        }
        v.mask_top();
        Some(v)
    }

    /// The width in bits.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The value of bit `i` (LSB = 0).
    ///
    /// # Panics
    /// Panics if `i >= width`.
    #[inline]
    pub fn bit(&self, i: u32) -> bool {
        assert!(i < self.width, "bit index {i} out of range for width {}", self.width);
        (self.words[(i / WORD_BITS) as usize] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    /// Panics if `i >= width`.
    pub fn set_bit(&mut self, i: u32, value: bool) {
        assert!(i < self.width, "bit index {i} out of range for width {}", self.width);
        let w = (i / WORD_BITS) as usize;
        let b = i % WORD_BITS;
        if value {
            self.words[w] |= 1 << b;
        } else {
            self.words[w] &= !(1 << b);
        }
    }

    /// Converts to `u64` if the width is at most 64 bits, or if all higher
    /// bits are zero.
    pub fn to_u64(&self) -> Option<u64> {
        if self.words[1..].iter().all(|&w| w == 0) {
            Some(self.words[0])
        } else {
            None
        }
    }

    /// Whether every bit is zero.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Whether every bit is one.
    pub fn is_ones(&self) -> bool {
        *self == Self::ones(self.width)
    }

    /// Interprets a 1-bit value as a boolean; wider values are "true" when
    /// non-zero (Verilog truthiness).
    pub fn to_bool(&self) -> bool {
        !self.is_zero()
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    fn mask_top(&mut self) {
        let rem = self.width % WORD_BITS;
        if rem != 0 {
            let last = self.words.len() - 1;
            self.words[last] &= (1u64 << rem) - 1;
        }
    }

    fn assert_same_width(&self, rhs: &Self, op: &str) {
        assert_eq!(
            self.width, rhs.width,
            "width mismatch in {op}: {} vs {}",
            self.width, rhs.width
        );
    }

    // --- bitwise -----------------------------------------------------

    /// Bitwise NOT.
    pub fn not(&self) -> Self {
        let mut out = self.clone();
        for w in &mut out.words {
            *w = !*w;
        }
        out.mask_top();
        out
    }

    /// Bitwise AND. # Panics Panics on width mismatch.
    pub fn and(&self, rhs: &Self) -> Self {
        self.assert_same_width(rhs, "and");
        let mut out = self.clone();
        for (w, r) in out.words.iter_mut().zip(&rhs.words) {
            *w &= r;
        }
        out
    }

    /// Bitwise OR. # Panics Panics on width mismatch.
    pub fn or(&self, rhs: &Self) -> Self {
        self.assert_same_width(rhs, "or");
        let mut out = self.clone();
        for (w, r) in out.words.iter_mut().zip(&rhs.words) {
            *w |= r;
        }
        out
    }

    /// Bitwise XOR. # Panics Panics on width mismatch.
    pub fn xor(&self, rhs: &Self) -> Self {
        self.assert_same_width(rhs, "xor");
        let mut out = self.clone();
        for (w, r) in out.words.iter_mut().zip(&rhs.words) {
            *w ^= r;
        }
        out
    }

    // --- arithmetic ----------------------------------------------------

    /// Modular addition. # Panics Panics on width mismatch.
    pub fn add(&self, rhs: &Self) -> Self {
        self.assert_same_width(rhs, "add");
        let mut out = Self::zero(self.width);
        let mut carry = 0u64;
        for i in 0..self.words.len() {
            let (s1, c1) = self.words[i].overflowing_add(rhs.words[i]);
            let (s2, c2) = s1.overflowing_add(carry);
            out.words[i] = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        out.mask_top();
        out
    }

    /// Modular subtraction. # Panics Panics on width mismatch.
    pub fn sub(&self, rhs: &Self) -> Self {
        self.add(&rhs.negate())
    }

    /// Two's-complement negation.
    pub fn negate(&self) -> Self {
        let one = Self::from_u64(1, self.width);
        self.not().add(&one)
    }

    /// Truncating multiplication. # Panics Panics on width mismatch.
    pub fn mul(&self, rhs: &Self) -> Self {
        self.assert_same_width(rhs, "mul");
        // The truncated product commutes, so the outer loop walks the
        // operand with fewer nonzero words and skips its zero words (they
        // add nothing): a wide value times a small one is linear.
        let nonzero = |v: &Self| v.words.iter().filter(|&&w| w != 0).count();
        let (a, b) = if nonzero(self) <= nonzero(rhs) { (self, rhs) } else { (rhs, self) };
        let n = self.words.len();
        let mut acc = vec![0u64; n];
        for i in 0..n {
            if a.words[i] == 0 {
                continue;
            }
            let mut carry = 0u128;
            for j in 0..(n - i) {
                let idx = i + j;
                let prod = (a.words[i] as u128) * (b.words[j] as u128) + (acc[idx] as u128) + carry;
                acc[idx] = prod as u64;
                carry = prod >> 64;
            }
        }
        let mut out = Self::zero(self.width);
        out.words.copy_from_slice(&acc);
        out.mask_top();
        out
    }

    /// Unsigned division and remainder in one pass (restoring long
    /// division). Follows the SMT-LIB convention for division by zero:
    /// `x / 0 = all-ones`, `x % 0 = x`.
    ///
    /// # Panics
    /// Panics on width mismatch.
    pub fn udivrem(&self, rhs: &Self) -> (Self, Self) {
        self.assert_same_width(rhs, "udiv");
        if rhs.is_zero() {
            return (Self::ones(self.width), self.clone());
        }
        let mut q = Self::zero(self.width);
        let mut r = Self::zero(self.width);
        for i in (0..self.width).rev() {
            r = r.shl_const(1);
            r.set_bit(0, self.bit(i));
            if rhs.ule(&r) {
                r = r.sub(rhs);
                q.set_bit(i, true);
            }
        }
        (q, r)
    }

    /// Unsigned division (see [`BitVecValue::udivrem`] for the zero
    /// convention). # Panics Panics on width mismatch.
    pub fn udiv(&self, rhs: &Self) -> Self {
        self.udivrem(rhs).0
    }

    /// Unsigned remainder (see [`BitVecValue::udivrem`]). # Panics Panics
    /// on width mismatch.
    pub fn urem(&self, rhs: &Self) -> Self {
        self.udivrem(rhs).1
    }

    // --- shifts ---------------------------------------------------------

    /// Logical left shift by a constant amount (zeros shifted in); shifts of
    /// `width` or more produce zero.
    pub fn shl_const(&self, amount: u32) -> Self {
        let mut out = Self::zero(self.width);
        if amount >= self.width {
            return out;
        }
        let word_shift = (amount / WORD_BITS) as usize;
        let bit_shift = amount % WORD_BITS;
        for i in (0..self.words.len()).rev() {
            if i >= word_shift {
                let mut w = self.words[i - word_shift] << bit_shift;
                if bit_shift > 0 && i > word_shift {
                    w |= self.words[i - word_shift - 1] >> (WORD_BITS - bit_shift);
                }
                out.words[i] = w;
            }
        }
        out.mask_top();
        out
    }

    /// Logical right shift by a constant amount.
    pub fn lshr_const(&self, amount: u32) -> Self {
        let mut out = Self::zero(self.width);
        if amount >= self.width {
            return out;
        }
        let word_shift = (amount / WORD_BITS) as usize;
        let bit_shift = amount % WORD_BITS;
        for i in 0..self.words.len() {
            if i + word_shift < self.words.len() {
                let mut w = self.words[i + word_shift] >> bit_shift;
                if bit_shift > 0 && i + word_shift + 1 < self.words.len() {
                    w |= self.words[i + word_shift + 1] << (WORD_BITS - bit_shift);
                }
                out.words[i] = w;
            }
        }
        out
    }

    /// Logical left shift where the amount is itself a bitvector (Verilog
    /// `<<`). # Panics Panics on width mismatch.
    pub fn shl(&self, amount: &Self) -> Self {
        match amount.to_u64() {
            Some(a) if a < self.width as u64 => self.shl_const(a as u32),
            _ => Self::zero(self.width),
        }
    }

    /// Logical right shift with a bitvector amount (Verilog `>>`).
    pub fn lshr(&self, amount: &Self) -> Self {
        match amount.to_u64() {
            Some(a) if a < self.width as u64 => self.lshr_const(a as u32),
            _ => Self::zero(self.width),
        }
    }

    // --- comparisons -----------------------------------------------------

    /// Unsigned less-than. # Panics Panics on width mismatch.
    pub fn ult(&self, rhs: &Self) -> bool {
        self.assert_same_width(rhs, "ult");
        for i in (0..self.words.len()).rev() {
            if self.words[i] != rhs.words[i] {
                return self.words[i] < rhs.words[i];
            }
        }
        false
    }

    /// Unsigned less-or-equal. # Panics Panics on width mismatch.
    pub fn ule(&self, rhs: &Self) -> bool {
        !rhs.ult(self)
    }

    /// Signed less-than (two's complement). # Panics Panics on width mismatch.
    pub fn slt(&self, rhs: &Self) -> bool {
        self.assert_same_width(rhs, "slt");
        let sa = self.bit(self.width - 1);
        let sb = rhs.bit(rhs.width - 1);
        match (sa, sb) {
            (true, false) => true,
            (false, true) => false,
            _ => self.ult(rhs),
        }
    }

    // --- structure ------------------------------------------------------

    /// Concatenation: `self` becomes the high bits, `low` the low bits
    /// (Verilog `{self, low}`).
    pub fn concat(&self, low: &Self) -> Self {
        let width = self.width + low.width;
        let mut out = Self::zero(width);
        for i in 0..low.width {
            if low.bit(i) {
                out.set_bit(i, true);
            }
        }
        for i in 0..self.width {
            if self.bit(i) {
                out.set_bit(low.width + i, true);
            }
        }
        out
    }

    /// Bit-slice `[hi:lo]`, inclusive on both ends.
    ///
    /// # Panics
    /// Panics if `hi < lo` or `hi >= width`.
    pub fn extract(&self, hi: u32, lo: u32) -> Self {
        assert!(hi >= lo && hi < self.width, "bad extract [{hi}:{lo}] on width {}", self.width);
        let mut out = Self::zero(hi - lo + 1);
        for i in lo..=hi {
            if self.bit(i) {
                out.set_bit(i - lo, true);
            }
        }
        out
    }

    /// Zero-extends to `width` (no-op if already that wide).
    ///
    /// # Panics
    /// Panics if `width < self.width()`.
    pub fn zext(&self, width: u32) -> Self {
        assert!(width >= self.width, "zext target narrower than value");
        let mut out = Self::zero(width);
        for (i, w) in self.words.iter().enumerate() {
            out.words[i] = *w;
        }
        out
    }

    /// Truncates to the low `width` bits or zero-extends to `width`,
    /// whichever applies (Verilog assignment sizing).
    ///
    /// # Panics
    /// Panics if `width` is 0 or exceeds [`BitVecValue::MAX_WIDTH`].
    pub fn resize(self, width: u32) -> Self {
        if self.width == width {
            self
        } else if self.width > width {
            self.extract(width - 1, 0)
        } else {
            self.zext(width)
        }
    }

    /// Sign-extends to `width`.
    ///
    /// # Panics
    /// Panics if `width < self.width()`.
    pub fn sext(&self, width: u32) -> Self {
        assert!(width >= self.width, "sext target narrower than value");
        let mut out = self.zext(width);
        if self.bit(self.width - 1) {
            for i in self.width..width {
                out.set_bit(i, true);
            }
        }
        out
    }

    // --- reductions -------------------------------------------------------

    /// AND of all bits (Verilog `&x`).
    pub fn red_and(&self) -> bool {
        self.is_ones()
    }

    /// OR of all bits (Verilog `|x`).
    pub fn red_or(&self) -> bool {
        !self.is_zero()
    }

    /// XOR of all bits (Verilog `^x`).
    pub fn red_xor(&self) -> bool {
        self.count_ones() % 2 == 1
    }

    /// Renders as a binary string, most-significant bit first.
    pub fn to_binary_string(&self) -> String {
        (0..self.width).rev().map(|i| if self.bit(i) { '1' } else { '0' }).collect()
    }

    /// Renders as a hex string (width padded up to a multiple of 4).
    pub fn to_hex_string(&self) -> String {
        let digits = self.width.div_ceil(4);
        let mut s = String::with_capacity(digits as usize);
        for d in (0..digits).rev() {
            let mut nibble = 0u8;
            for b in 0..4 {
                let i = d * 4 + b;
                if i < self.width && self.bit(i) {
                    nibble |= 1 << b;
                }
            }
            s.push(char::from_digit(nibble as u32, 16).expect("nibble"));
        }
        s
    }
}

impl fmt::Display for BitVecValue {
    /// Verilog-style literal: `8'd42` for narrow values, hex for wide ones.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.to_u64() {
            Some(v) if self.width <= 64 => write!(f, "{}'d{}", self.width, v),
            _ => write!(f, "{}'h{}", self.width, self.to_hex_string()),
        }
    }
}

impl fmt::Debug for BitVecValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVecValue({self})")
    }
}

impl fmt::Binary for BitVecValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_binary_string())
    }
}

impl fmt::LowerHex for BitVecValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex_string())
    }
}

impl From<bool> for BitVecValue {
    fn from(b: bool) -> Self {
        BitVecValue::from_bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_width() {
        let v = BitVecValue::from_u64(0xAB, 8);
        assert_eq!(v.width(), 8);
        assert_eq!(v.to_u64(), Some(0xAB));
        assert!(BitVecValue::zero(1).is_zero());
        assert!(BitVecValue::ones(9).is_ones());
    }

    #[test]
    fn truncation_on_from_u64() {
        let v = BitVecValue::from_u64(0x1FF, 8);
        assert_eq!(v.to_u64(), Some(0xFF));
    }

    #[test]
    #[should_panic(expected = "invalid bitvector width")]
    fn zero_width_rejected() {
        let _ = BitVecValue::zero(0);
    }

    #[test]
    fn wide_values_cross_word_boundary() {
        let v = BitVecValue::ones(100);
        assert_eq!(v.count_ones(), 100);
        let w = v.add(&BitVecValue::from_u64(1, 100));
        assert!(w.is_zero(), "all-ones + 1 wraps to zero");
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = BitVecValue::from_u64(123, 32);
        let b = BitVecValue::from_u64(456, 32);
        assert_eq!(a.add(&b).sub(&b), a);
        assert_eq!(a.sub(&a).to_u64(), Some(0));
    }

    #[test]
    fn add_wraps_modulo() {
        let a = BitVecValue::from_u64(0xFF, 8);
        let one = BitVecValue::from_u64(1, 8);
        assert_eq!(a.add(&one).to_u64(), Some(0));
    }

    #[test]
    fn mul_truncates() {
        let a = BitVecValue::from_u64(200, 8);
        let b = BitVecValue::from_u64(3, 8);
        assert_eq!(a.mul(&b).to_u64(), Some((200u64 * 3) & 0xFF));
    }

    #[test]
    fn mul_wide() {
        let a = BitVecValue::from_u64(u64::MAX, 128);
        let b = BitVecValue::from_u64(2, 128);
        let p = a.mul(&b);
        assert_eq!(p.extract(64, 64).to_u64(), Some(1));
        assert_eq!(p.extract(63, 0).to_u64(), Some(u64::MAX - 1));
    }

    #[test]
    fn bitwise_ops() {
        let a = BitVecValue::from_u64(0b1100, 4);
        let b = BitVecValue::from_u64(0b1010, 4);
        assert_eq!(a.and(&b).to_u64(), Some(0b1000));
        assert_eq!(a.or(&b).to_u64(), Some(0b1110));
        assert_eq!(a.xor(&b).to_u64(), Some(0b0110));
        assert_eq!(a.not().to_u64(), Some(0b0011));
    }

    #[test]
    fn shifts_const() {
        let a = BitVecValue::from_u64(0b0110, 4);
        assert_eq!(a.shl_const(1).to_u64(), Some(0b1100));
        assert_eq!(a.shl_const(4).to_u64(), Some(0));
        assert_eq!(a.lshr_const(1).to_u64(), Some(0b0011));
        assert_eq!(a.lshr_const(10).to_u64(), Some(0));
    }

    #[test]
    fn shifts_cross_word() {
        let a = BitVecValue::from_u64(1, 128);
        let s = a.shl_const(100);
        assert!(s.bit(100));
        assert_eq!(s.count_ones(), 1);
        assert_eq!(s.lshr_const(100), a);
    }

    #[test]
    fn variable_shifts() {
        let a = BitVecValue::from_u64(0b11, 8);
        assert_eq!(a.shl(&BitVecValue::from_u64(2, 8)).to_u64(), Some(0b1100));
        assert_eq!(a.shl(&BitVecValue::from_u64(200, 8)).to_u64(), Some(0));
        assert_eq!(a.lshr(&BitVecValue::from_u64(1, 8)).to_u64(), Some(0b1));
    }

    #[test]
    fn comparisons() {
        let a = BitVecValue::from_u64(5, 8);
        let b = BitVecValue::from_u64(7, 8);
        assert!(a.ult(&b));
        assert!(!b.ult(&a));
        assert!(a.ule(&a));
        // Signed: 0xFF (= -1) < 0x00.
        let minus1 = BitVecValue::from_u64(0xFF, 8);
        let zero = BitVecValue::zero(8);
        assert!(minus1.slt(&zero));
        assert!(!zero.slt(&minus1));
        assert!(zero.ult(&minus1), "unsigned order is reversed");
    }

    #[test]
    fn concat_extract_roundtrip() {
        let hi = BitVecValue::from_u64(0xA, 4);
        let lo = BitVecValue::from_u64(0x5, 4);
        let c = hi.concat(&lo);
        assert_eq!(c.width(), 8);
        assert_eq!(c.to_u64(), Some(0xA5));
        assert_eq!(c.extract(7, 4), hi);
        assert_eq!(c.extract(3, 0), lo);
    }

    #[test]
    fn zext_sext() {
        let v = BitVecValue::from_u64(0b1010, 4);
        assert_eq!(v.zext(8).to_u64(), Some(0b0000_1010));
        assert_eq!(v.sext(8).to_u64(), Some(0b1111_1010));
        let pos = BitVecValue::from_u64(0b0010, 4);
        assert_eq!(pos.sext(8).to_u64(), Some(0b0000_0010));
        assert_eq!(v.clone().resize(8), v.zext(8));
        assert_eq!(v.clone().resize(2), v.extract(1, 0));
        assert_eq!(v.clone().resize(4), v);
    }

    #[test]
    fn reductions() {
        let v = BitVecValue::from_u64(0b1011, 4);
        assert!(!v.red_and());
        assert!(v.red_or());
        assert!(v.red_xor());
        assert!(BitVecValue::ones(4).red_and());
        assert!(!BitVecValue::zero(4).red_or());
        assert!(!BitVecValue::from_u64(0b0011, 4).red_xor());
    }

    #[test]
    fn string_parsing() {
        assert_eq!(BitVecValue::from_binary_str("1010").unwrap().to_u64(), Some(10));
        assert_eq!(BitVecValue::from_binary_str("10_10").unwrap().width(), 4);
        assert!(BitVecValue::from_binary_str("102").is_none());
        assert!(BitVecValue::from_binary_str("").is_none());
        assert_eq!(BitVecValue::from_hex_str("ff").unwrap().to_u64(), Some(255));
        assert_eq!(BitVecValue::from_hex_str("ff").unwrap().width(), 8);
        assert_eq!(BitVecValue::from_decimal_str("300", 8).unwrap().to_u64(), Some(300 % 256));
        assert_eq!(
            BitVecValue::from_decimal_str("18446744073709551617", 128)
                .unwrap()
                .extract(64, 64)
                .to_u64(),
            Some(1)
        );
    }

    /// The fold `from_decimal_str` used to run: one full-width multiply
    /// and add per digit. The reference for the linear parse.
    fn decimal_fold(s: &str, width: u32) -> Option<BitVecValue> {
        let digits: Vec<u32> =
            s.chars().filter(|c| *c != '_').map(|c| c.to_digit(10)).collect::<Option<Vec<_>>>()?;
        if digits.is_empty() {
            return None;
        }
        let mut v = BitVecValue::zero(width);
        let ten = BitVecValue::from_u64(10, width);
        for d in digits {
            v = v.mul(&ten).add(&BitVecValue::from_u64(d as u64, width));
        }
        Some(v)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(400))]

        /// The linear decimal parse equals the per-digit fold on every
        /// width from 1 to 300, on literals short and long enough to
        /// wrap, with `_` separators and stray characters.
        #[test]
        fn decimal_parse_matches_the_fold(
            width in 1u32..=300,
            s in "[0-9_]{0,120}",
            bad in proptest::prelude::any::<bool>(),
        ) {
            let s = if bad { format!("{s}x") } else { s };
            proptest::prop_assert_eq!(BitVecValue::from_decimal_str(&s, width), decimal_fold(&s, width));
        }

        /// `mul` walks the sparser operand: either order gives the same
        /// product, and multiplying by 3 equals adding three times.
        #[test]
        fn mul_is_order_free(width in 1u32..=300, a in "[0-9]{1,90}", b in "[0-9]{1,90}") {
            let a = BitVecValue::from_decimal_str(&a, width).unwrap();
            let b = BitVecValue::from_decimal_str(&b, width).unwrap();
            proptest::prop_assert_eq!(a.mul(&b), b.mul(&a));
            let three = BitVecValue::from_u64(3, width);
            proptest::prop_assert_eq!(a.mul(&three), a.add(&a).add(&a));
            proptest::prop_assert_eq!(three.mul(&a), a.add(&a).add(&a));
        }
    }

    #[test]
    fn rendering() {
        let v = BitVecValue::from_u64(0xA5, 8);
        assert_eq!(v.to_binary_string(), "10100101");
        assert_eq!(v.to_hex_string(), "a5");
        assert_eq!(format!("{v}"), "8'd165");
        assert_eq!(format!("{v:b}"), "10100101");
        assert_eq!(format!("{v:x}"), "a5");
    }

    #[test]
    fn negate_two_complement() {
        let v = BitVecValue::from_u64(1, 8);
        assert_eq!(v.negate().to_u64(), Some(0xFF));
        assert!(BitVecValue::zero(8).negate().is_zero());
    }

    #[test]
    fn division_and_remainder() {
        let a = BitVecValue::from_u64(100, 8);
        let b = BitVecValue::from_u64(7, 8);
        assert_eq!(a.udiv(&b).to_u64(), Some(14));
        assert_eq!(a.urem(&b).to_u64(), Some(2));
        // Identity: a == q*b + r for b != 0.
        let (q, r) = a.udivrem(&b);
        assert_eq!(q.mul(&b).add(&r), a);
        // Division by zero: SMT-LIB convention.
        let z = BitVecValue::zero(8);
        assert!(a.udiv(&z).is_ones());
        assert_eq!(a.urem(&z), a);
        // Wide operands.
        let w = BitVecValue::from_u64(u64::MAX, 100).shl_const(10);
        let d = BitVecValue::from_u64(1024, 100);
        assert_eq!(w.udiv(&d).extract(63, 0).to_u64(), Some(u64::MAX));
    }

    #[test]
    fn bit_get_set() {
        let mut v = BitVecValue::zero(70);
        v.set_bit(69, true);
        assert!(v.bit(69));
        v.set_bit(69, false);
        assert!(v.is_zero());
    }
}
