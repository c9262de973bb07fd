//! The instruction semantics both execution tiers share: every numeric
//! operator, `memory.grow`, and the bounds-checked memory accesses. The
//! RichWasm interpreter's numeric step uses the same operators, through
//! [`eval`].
//!
//! Operands and results are raw bit patterns, 32-bit values
//! zero-extended to `u64` — the bytecode VM's slot representation. The
//! tree-walker ([`crate::exec`]) checks its typed operands, converts
//! them to bits, and calls the same functions as the VM
//! ([`crate::vm`]), so the two tiers cannot disagree on what an
//! operator computes.
//!
//! Floats follow the Wasm spec rather than Rust's defaults: f32 is
//! computed in f32; `abs`, `neg` and `copysign` only touch the sign bit
//! (a signalling NaN passes through unchanged); `min`/`max` return the
//! positive canonical NaN when an operand is NaN and order −0 below +0;
//! every other float operator whose result is a NaN gives that
//! canonical NaN too (Rust leaves the payload unspecified, so it can
//! differ between two inlined copies of the same `+`); `nearest` rounds
//! ties to even and keeps the sign of zero; every int→float conversion
//! rounds once.

use crate::ast::{FBinOp, FRelOp, FUnOp, IBinOp, IRelOp, IUnOp, Sx, ValType, WInstr, Width};
use crate::exec::{trap, WasmTrap, PAGE};

/// Binds each `$x` to the float of width `$w` whose bits are `$v`, then
/// evaluates `$body` (written once, type-checked at both widths).
macro_rules! with_float {
    ($w:expr, |$($x:ident = $v:ident),+| $body:expr) => {
        match $w {
            Width::W32 => {
                $(let $x = f32::from_bits($v as u32);)+
                $body
            }
            Width::W64 => {
                $(let $x = f64::from_bits($v);)+
                $body
            }
        }
    };
}

/// A float's bit pattern as a slot: 32-bit patterns zero-extended.
trait Bits {
    fn bits(self) -> u64;
}

impl Bits for f32 {
    fn bits(self) -> u64 {
        u64::from(self.to_bits())
    }
}

impl Bits for f64 {
    fn bits(self) -> u64 {
        self.to_bits()
    }
}

/// The sign bit of a `w`-wide float.
fn sign_bit(w: Width) -> u64 {
    match w {
        Width::W32 => 1 << 31,
        Width::W64 => 1 << 63,
    }
}

/// The positive canonical NaN of width `w`.
fn canonical_nan(w: Width) -> u64 {
    match w {
        Width::W32 => 0x7fc0_0000,
        Width::W64 => 0x7ff8_0000_0000_0000,
    }
}

/// `bits`, or the positive canonical NaN if `bits` is a NaN of width `w`.
fn canonical(w: Width, bits: u64) -> u64 {
    if with_float!(w, |x = bits| x.is_nan()) {
        canonical_nan(w)
    } else {
        bits
    }
}

/// Evaluates the numeric instruction `i` on the bits of its operands: `a`
/// is the only or the deeper operand, `b` the top one (ignored by unary
/// operators). Reinterprets return `a` unchanged.
///
/// # Errors
///
/// The traps of division, remainder and float→int truncation.
///
/// # Panics
///
/// When `i` is not a numeric instruction.
pub fn eval(i: &WInstr, a: u64, b: u64) -> Result<u64, WasmTrap> {
    Ok(match *i {
        WInstr::IUn(w, op) => iun(w, op, a),
        WInstr::IBin(w, op) => ibin(w, op, a, b)?,
        WInstr::ITest(w) => u64::from(itest(w, a)),
        WInstr::IRel(w, op) => u64::from(irel(w, op, a, b)),
        WInstr::FUn(w, op) => fun(w, op, a),
        WInstr::FBin(w, op) => fbin(w, op, a, b),
        WInstr::FRel(w, op) => u64::from(frel(w, op, a, b)),
        WInstr::I32WrapI64 => u64::from(a as u32),
        WInstr::I64ExtendI32(sx) => extend(sx, a),
        WInstr::ITruncF(iw, fw, sx) => itrunc(iw, fw, sx, a)?,
        WInstr::FConvertI(fw, iw, sx) => fconvert(fw, iw, sx, a),
        WInstr::F32DemoteF64 => demote(a),
        WInstr::F64PromoteF32 => promote(a),
        WInstr::IReinterpretF(_) | WInstr::FReinterpretI(_) => a,
        ref other => panic!("num::eval on the non-numeric instruction {other:?}"),
    })
}

/// The access width, in bytes, of a load or store of type `t`.
pub(crate) fn t_size(t: ValType) -> usize {
    match t {
        ValType::I32 | ValType::F32 => 4,
        ValType::I64 | ValType::F64 => 8,
    }
}

/// The most pages a 32-bit memory can have: 65536 × 64 KiB = 4 GiB.
const MAX_PAGES: u32 = 65536;

/// `memory.grow` on `mem`: grows it by `delta` pages and returns the old
/// size in pages, or returns `-1` (`u32::MAX`) and leaves `mem` as it was
/// when the result would exceed [`MAX_PAGES`].
pub(crate) fn memory_grow(mem: &mut Vec<u8>, delta: u32) -> u32 {
    let old = (mem.len() / PAGE) as u32;
    match old.checked_add(delta) {
        Some(new) if new <= MAX_PAGES => {
            mem.resize(new as usize * PAGE, 0);
            old
        }
        _ => u32::MAX,
    }
}

fn out_of_bounds() -> WasmTrap {
    WasmTrap("out of bounds memory access".into())
}

/// Reads `n` (1, 4 or 8) little-endian bytes at address `base + offset`
/// (`base` is an i32 operand), zero-extended. Each width is a fixed-size
/// read, not a generic `copy_from_slice`, which would be a memcpy call
/// per access. Always inlined: the VM's fused ops call it in their hot
/// paths.
#[inline(always)]
pub(crate) fn load(mem: &[u8], base: u64, offset: u32, n: usize) -> Result<u64, WasmTrap> {
    let addr = base as u32 as usize + offset as usize;
    match n {
        1 => mem.get(addr).map(|&b| u64::from(b)),
        4 => mem
            .get(addr..addr + 4)
            .map(|b| u64::from(u32::from_le_bytes(b.try_into().expect("4 bytes")))),
        _ => mem
            .get(addr..addr + 8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes"))),
    }
    .ok_or_else(out_of_bounds)
}

/// Writes the low `n` (1, 4 or 8) bytes of `v`, little-endian, at
/// address `base + offset`; see [`load`].
#[inline(always)]
pub(crate) fn store(
    mem: &mut [u8],
    base: u64,
    offset: u32,
    n: usize,
    v: u64,
) -> Result<(), WasmTrap> {
    let addr = base as u32 as usize + offset as usize;
    match n {
        1 => mem.get_mut(addr).map(|b| *b = v as u8),
        4 => mem
            .get_mut(addr..addr + 4)
            .map(|b| b.copy_from_slice(&(v as u32).to_le_bytes())),
        _ => mem
            .get_mut(addr..addr + 8)
            .map(|b| b.copy_from_slice(&v.to_le_bytes())),
    }
    .ok_or_else(out_of_bounds)
}

/// `clz`, `ctz` and `popcnt`.
pub(crate) fn iun(w: Width, op: IUnOp, a: u64) -> u64 {
    u64::from(match (w, op) {
        (Width::W32, IUnOp::Clz) => (a as u32).leading_zeros(),
        (Width::W32, IUnOp::Ctz) => (a as u32).trailing_zeros(),
        (Width::W32, IUnOp::Popcnt) => (a as u32).count_ones(),
        (Width::W64, IUnOp::Clz) => a.leading_zeros(),
        (Width::W64, IUnOp::Ctz) => a.trailing_zeros(),
        (Width::W64, IUnOp::Popcnt) => a.count_ones(),
    })
}

/// `eqz`.
#[inline]
pub(crate) fn itest(w: Width, a: u64) -> bool {
    match w {
        Width::W32 => a as u32 == 0,
        Width::W64 => a == 0,
    }
}

/// Integer binary operators; division and remainder by zero and signed
/// `MIN / -1` trap.
pub(crate) fn ibin(w: Width, op: IBinOp, a: u64, b: u64) -> Result<u64, WasmTrap> {
    Ok(match w {
        Width::W32 => {
            let (x, y) = (a as u32, b as u32);
            u64::from(match op {
                IBinOp::Add => x.wrapping_add(y),
                IBinOp::Sub => x.wrapping_sub(y),
                IBinOp::Mul => x.wrapping_mul(y),
                IBinOp::Div(_) | IBinOp::Rem(_) if y == 0 => return trap("integer divide by zero"),
                IBinOp::Div(Sx::U) => x / y,
                IBinOp::Div(Sx::S) => {
                    if x as i32 == i32::MIN && y as i32 == -1 {
                        return trap("integer overflow");
                    }
                    (x as i32 / y as i32) as u32
                }
                IBinOp::Rem(Sx::U) => x % y,
                IBinOp::Rem(Sx::S) => (x as i32).wrapping_rem(y as i32) as u32,
                IBinOp::And => x & y,
                IBinOp::Or => x | y,
                IBinOp::Xor => x ^ y,
                IBinOp::Shl => x.wrapping_shl(y),
                IBinOp::Shr(Sx::U) => x.wrapping_shr(y),
                IBinOp::Shr(Sx::S) => (x as i32).wrapping_shr(y) as u32,
                IBinOp::Rotl => x.rotate_left(y % 32),
                IBinOp::Rotr => x.rotate_right(y % 32),
            })
        }
        Width::W64 => {
            let (x, y) = (a, b);
            match op {
                IBinOp::Add => x.wrapping_add(y),
                IBinOp::Sub => x.wrapping_sub(y),
                IBinOp::Mul => x.wrapping_mul(y),
                IBinOp::Div(_) | IBinOp::Rem(_) if y == 0 => return trap("integer divide by zero"),
                IBinOp::Div(Sx::U) => x / y,
                IBinOp::Div(Sx::S) => {
                    if x as i64 == i64::MIN && y as i64 == -1 {
                        return trap("integer overflow");
                    }
                    (x as i64 / y as i64) as u64
                }
                IBinOp::Rem(Sx::U) => x % y,
                IBinOp::Rem(Sx::S) => (x as i64).wrapping_rem(y as i64) as u64,
                IBinOp::And => x & y,
                IBinOp::Or => x | y,
                IBinOp::Xor => x ^ y,
                IBinOp::Shl => x.wrapping_shl(y as u32),
                IBinOp::Shr(Sx::U) => x.wrapping_shr(y as u32),
                IBinOp::Shr(Sx::S) => (x as i64).wrapping_shr(y as u32) as u64,
                IBinOp::Rotl => x.rotate_left((y % 64) as u32),
                IBinOp::Rotr => x.rotate_right((y % 64) as u32),
            }
        }
    })
}

/// Integer comparisons.
pub(crate) fn irel(w: Width, op: IRelOp, a: u64, b: u64) -> bool {
    use std::cmp::Ordering::*;
    let cmp = |sx: Sx| match (w, sx) {
        (Width::W32, Sx::U) => (a as u32).cmp(&(b as u32)),
        (Width::W32, Sx::S) => (a as u32 as i32).cmp(&(b as u32 as i32)),
        (Width::W64, Sx::U) => a.cmp(&b),
        (Width::W64, Sx::S) => (a as i64).cmp(&(b as i64)),
    };
    match op {
        IRelOp::Eq => cmp(Sx::U) == Equal,
        IRelOp::Ne => cmp(Sx::U) != Equal,
        IRelOp::Lt(s) => cmp(s) == Less,
        IRelOp::Gt(s) => cmp(s) == Greater,
        IRelOp::Le(s) => cmp(s) != Greater,
        IRelOp::Ge(s) => cmp(s) != Less,
    }
}

/// Float unary operators.
pub(crate) fn fun(w: Width, op: FUnOp, a: u64) -> u64 {
    match op {
        FUnOp::Abs => a & !sign_bit(w),
        FUnOp::Neg => a ^ sign_bit(w),
        FUnOp::Sqrt => canonical(w, with_float!(w, |x = a| x.sqrt().bits())),
        FUnOp::Ceil => canonical(w, with_float!(w, |x = a| x.ceil().bits())),
        FUnOp::Floor => canonical(w, with_float!(w, |x = a| x.floor().bits())),
        FUnOp::Trunc => canonical(w, with_float!(w, |x = a| x.trunc().bits())),
        // `round` breaks ties away from zero: step an odd tie back
        // toward zero, then restore the operand's sign (−0.5 → −0).
        FUnOp::Nearest => canonical(
            w,
            with_float!(w, |x = a| {
                let r = x.round();
                let r = if (r - x).abs() == 0.5 && r % 2.0 != 0.0 {
                    r - x.signum()
                } else {
                    r
                };
                r.copysign(x).bits()
            }),
        ),
    }
}

/// Float binary operators.
pub(crate) fn fbin(w: Width, op: FBinOp, a: u64, b: u64) -> u64 {
    let sign = sign_bit(w);
    match op {
        FBinOp::Add => canonical(w, with_float!(w, |x = a, y = b| (x + y).bits())),
        FBinOp::Sub => canonical(w, with_float!(w, |x = a, y = b| (x - y).bits())),
        FBinOp::Mul => canonical(w, with_float!(w, |x = a, y = b| (x * y).bits())),
        FBinOp::Div => canonical(w, with_float!(w, |x = a, y = b| (x / y).bits())),
        FBinOp::Min | FBinOp::Max => {
            let min = op == FBinOp::Min;
            with_float!(w, |x = a, y = b| {
                if x.is_nan() || y.is_nan() {
                    canonical_nan(w)
                } else if x == y {
                    // Equal values, or zeros of either sign: −0 < +0.
                    if (a & sign != 0) == min {
                        a
                    } else {
                        b
                    }
                } else if (x < y) == min {
                    a
                } else {
                    b
                }
            })
        }
        FBinOp::Copysign => a & !sign | b & sign,
    }
}

/// Float comparisons (false whenever an operand is NaN, except `ne`).
pub(crate) fn frel(w: Width, op: FRelOp, a: u64, b: u64) -> bool {
    with_float!(w, |x = a, y = b| match op {
        FRelOp::Eq => x == y,
        FRelOp::Ne => x != y,
        FRelOp::Lt => x < y,
        FRelOp::Gt => x > y,
        FRelOp::Le => x <= y,
        FRelOp::Ge => x >= y,
    })
}

/// `iNN.trunc_fMM_sx`: traps on NaN and on results outside the target
/// range. Widening f32 to f64 is exact, so one f64 check serves both.
pub(crate) fn itrunc(iw: Width, fw: Width, sx: Sx, a: u64) -> Result<u64, WasmTrap> {
    let x = match fw {
        Width::W32 => f64::from(f32::from_bits(a as u32)),
        Width::W64 => f64::from_bits(a),
    };
    if x.is_nan() {
        return trap("invalid conversion to integer");
    }
    let t = x.trunc();
    // Valid iff `lo <= t < hi`, both bounds exact powers of two.
    let (lo, hi) = match (iw, sx) {
        (Width::W32, Sx::S) => (-2147483648.0, 2147483648.0),
        (Width::W32, Sx::U) => (0.0, 4294967296.0),
        (Width::W64, Sx::S) => (-9223372036854775808.0, 9223372036854775808.0),
        (Width::W64, Sx::U) => (0.0, 18446744073709551616.0),
    };
    if !(lo..hi).contains(&t) {
        return trap("integer overflow");
    }
    Ok(match (iw, sx) {
        (Width::W32, Sx::S) => u64::from(t as i32 as u32),
        (Width::W32, Sx::U) => u64::from(t as u32),
        (Width::W64, Sx::S) => t as i64 as u64,
        (Width::W64, Sx::U) => t as u64,
    })
}

/// `fNN.convert_iMM_sx`: one correctly rounded conversion, never through
/// an intermediate width.
pub(crate) fn fconvert(fw: Width, iw: Width, sx: Sx, a: u64) -> u64 {
    macro_rules! to {
        ($f:ty) => {
            match (iw, sx) {
                (Width::W32, Sx::S) => a as u32 as i32 as $f,
                (Width::W32, Sx::U) => a as u32 as $f,
                (Width::W64, Sx::S) => a as i64 as $f,
                (Width::W64, Sx::U) => a as $f,
            }
            .bits()
        };
    }
    match fw {
        Width::W32 => to!(f32),
        Width::W64 => to!(f64),
    }
}

/// `i64.extend_i32_sx`.
pub(crate) fn extend(sx: Sx, a: u64) -> u64 {
    match sx {
        Sx::S => a as u32 as i32 as i64 as u64,
        Sx::U => u64::from(a as u32),
    }
}

/// `f32.demote_f64`.
pub(crate) fn demote(a: u64) -> u64 {
    canonical(Width::W32, (f64::from_bits(a) as f32).bits())
}

/// `f64.promote_f32`.
pub(crate) fn promote(a: u64) -> u64 {
    canonical(Width::W64, f64::from(f32::from_bits(a as u32)).to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    const W32: Width = Width::W32;
    const W64: Width = Width::W64;

    fn f32b(x: f32) -> u64 {
        u64::from(x.to_bits())
    }

    fn f64b(x: f64) -> u64 {
        x.to_bits()
    }

    /// A signalling f32 NaN (quiet bit clear, payload non-zero).
    const SNAN32: u64 = 0x7fa0_0000;
    const SNAN64: u64 = 0x7ff4_0000_0000_0000;

    #[test]
    fn integer_operators() {
        assert_eq!(iun(W32, IUnOp::Clz, 1), 31);
        assert_eq!(iun(W32, IUnOp::Ctz, 0), 32);
        assert_eq!(iun(W64, IUnOp::Popcnt, u64::MAX), 64);
        assert!(itest(W32, 0x1_0000_0000));
        assert!(!itest(W64, 0x1_0000_0000));
        assert_eq!(ibin(W32, IBinOp::Add, u64::from(u32::MAX), 1), Ok(0));
        assert_eq!(ibin(W64, IBinOp::Sub, 0, 1), Ok(u64::MAX));
        assert_eq!(ibin(W32, IBinOp::Shl, 1, 33), Ok(2));
        assert_eq!(
            ibin(W32, IBinOp::Shr(Sx::S), 0x8000_0000, 31),
            Ok(0xffff_ffff)
        );
        assert_eq!(ibin(W64, IBinOp::Rotr, 1, 1), Ok(1 << 63));
        assert_eq!(
            ibin(W32, IBinOp::Rem(Sx::S), 0x8000_0000, 0xffff_ffff),
            Ok(0)
        );
        let err = |m: &str| Err(WasmTrap(m.into()));
        assert_eq!(
            ibin(W32, IBinOp::Div(Sx::U), 1, 0),
            err("integer divide by zero")
        );
        assert_eq!(
            ibin(W64, IBinOp::Rem(Sx::S), 1, 0),
            err("integer divide by zero")
        );
        assert_eq!(
            ibin(W32, IBinOp::Div(Sx::S), 0x8000_0000, 0xffff_ffff),
            err("integer overflow")
        );
        assert!(irel(W32, IRelOp::Lt(Sx::S), 0xffff_ffff, 0));
        assert!(!irel(W32, IRelOp::Lt(Sx::U), 0xffff_ffff, 0));
        assert!(irel(W64, IRelOp::Ge(Sx::U), u64::MAX, 0));
        assert!(irel(W32, IRelOp::Eq, 0x1_0000_0005, 5));
        assert_eq!(extend(Sx::S, 0xffff_ffff), u64::MAX);
        assert_eq!(extend(Sx::U, 0xffff_ffff), 0xffff_ffff);
    }

    #[test]
    fn sign_operators_touch_only_the_sign_bit() {
        assert_eq!(fun(W32, FUnOp::Abs, SNAN32 | 1 << 31), SNAN32);
        assert_eq!(fun(W32, FUnOp::Neg, SNAN32), SNAN32 | 1 << 31);
        assert_eq!(fun(W64, FUnOp::Abs, SNAN64 | 1 << 63), SNAN64);
        assert_eq!(fun(W64, FUnOp::Neg, f64b(0.0)), f64b(-0.0));
        assert_eq!(
            fbin(W32, FBinOp::Copysign, SNAN32, f32b(-1.0)),
            SNAN32 | 1 << 31
        );
        assert_eq!(
            fbin(W64, FBinOp::Copysign, f64b(-2.0), f64b(0.0)),
            f64b(2.0)
        );
    }

    #[test]
    fn float_arithmetic_is_native_width() {
        // 2^24 + 1 lies halfway between two f32s: ties go to even.
        assert_eq!(
            fbin(W32, FBinOp::Add, f32b(16_777_216.0), f32b(1.0)),
            f32b(16_777_216.0)
        );
        assert_eq!(fbin(W64, FBinOp::Mul, f64b(1.5), f64b(4.0)), f64b(6.0));
        assert_eq!(
            fbin(W32, FBinOp::Div, f32b(1.0), f32b(0.0)),
            f32b(f32::INFINITY)
        );
        assert_eq!(fbin(W64, FBinOp::Sub, f64b(0.5), f64b(0.25)), f64b(0.25));
        assert_eq!(fun(W32, FUnOp::Sqrt, f32b(2.0)), f32b(2f32.sqrt()));
        assert_eq!(fun(W64, FUnOp::Ceil, f64b(-0.5)), f64b(-0.0));
        assert_eq!(fun(W32, FUnOp::Floor, f32b(-0.5)), f32b(-1.0));
        assert_eq!(fun(W64, FUnOp::Trunc, f64b(-1.7)), f64b(-1.0));
        assert!(frel(W32, FRelOp::Lt, f32b(-1.0), f32b(1.0)));
        assert!(frel(W64, FRelOp::Eq, f64b(0.0), f64b(-0.0)));
        assert!(frel(W64, FRelOp::Ne, f64b(f64::NAN), f64b(f64::NAN)));
        assert!(!frel(W32, FRelOp::Ge, f32b(f32::NAN), f32b(0.0)));
    }

    #[test]
    fn min_max_canonical_nan_and_signed_zero() {
        assert_eq!(
            fbin(W32, FBinOp::Min, f32b(f32::NAN), f32b(1.0)),
            0x7fc0_0000
        );
        assert_eq!(fbin(W32, FBinOp::Max, f32b(1.0), SNAN32), 0x7fc0_0000);
        assert_eq!(
            fbin(W64, FBinOp::Min, f64b(1.0), SNAN64 | 1 << 63),
            canonical_nan(W64)
        );
        assert_eq!(fbin(W32, FBinOp::Min, f32b(0.0), f32b(-0.0)), f32b(-0.0));
        assert_eq!(fbin(W32, FBinOp::Max, f32b(-0.0), f32b(0.0)), f32b(0.0));
        assert_eq!(fbin(W64, FBinOp::Min, f64b(-0.0), f64b(0.0)), f64b(-0.0));
        assert_eq!(fbin(W64, FBinOp::Max, f64b(0.0), f64b(-0.0)), f64b(0.0));
        assert_eq!(fbin(W64, FBinOp::Max, f64b(-3.0), f64b(2.0)), f64b(2.0));
    }

    #[test]
    fn every_nan_result_is_the_positive_canonical_nan() {
        let (nan32, nan64) = (canonical_nan(W32), canonical_nan(W64));
        assert_eq!(fbin(W32, FBinOp::Add, SNAN32, SNAN32 | 1 << 31), nan32);
        assert_eq!(fbin(W64, FBinOp::Mul, SNAN64 | 1 << 63, f64b(2.0)), nan64);
        assert_eq!(fbin(W64, FBinOp::Div, f64b(0.0), f64b(0.0)), nan64);
        assert_eq!(fun(W64, FUnOp::Sqrt, f64b(-1.0)), nan64);
        assert_eq!(fun(W32, FUnOp::Nearest, SNAN32 | 1 << 31), nan32);
        assert_eq!(demote(SNAN64 | 1 << 63), nan32);
        assert_eq!(promote(SNAN32), nan64);
    }

    #[test]
    fn nearest_ties_to_even_and_keeps_the_sign() {
        for (x, want) in [
            (0.5, 0.0),
            (-0.5, -0.0),
            (1.5, 2.0),
            (2.5, 2.0),
            (-2.5, -2.0),
            (-0.2, -0.0),
            (3.7, 4.0),
        ] {
            assert_eq!(fun(W64, FUnOp::Nearest, f64b(x)), f64b(want), "{x}");
            assert_eq!(
                fun(W32, FUnOp::Nearest, f32b(x as f32)),
                f32b(want as f32),
                "{x}"
            );
        }
        assert_eq!(
            fun(W64, FUnOp::Nearest, f64b(4503599627370497.0)),
            f64b(4503599627370497.0)
        );
    }

    #[test]
    fn conversions_round_once() {
        // 2^53 + 2^29 + 1 is just above an f32 tie: rounded directly it
        // goes up; through f64 it first rounds down onto the tie, then
        // to even.
        let x: u64 = (1 << 53) + (1 << 29) + 1;
        assert_eq!(fconvert(W32, W64, Sx::U, x), f32b(9007200328482816.0));
        assert_eq!(fconvert(W32, W64, Sx::S, x), f32b(9007200328482816.0));
        assert_eq!(fconvert(W32, W32, Sx::S, 0xffff_ffff), f32b(-1.0));
        assert_eq!(fconvert(W32, W32, Sx::U, 0xffff_ffff), f32b(4294967296.0));
        assert_eq!(fconvert(W64, W64, Sx::S, u64::MAX), f64b(-1.0));
        assert_eq!(fconvert(W64, W32, Sx::U, 7), f64b(7.0));
        assert_eq!(demote(f64b(1.0 + f64::EPSILON)), f32b(1.0));
        assert_eq!(promote(f32b(-0.0)), f64b(-0.0));
    }

    #[test]
    fn trunc_traps_exactly_outside_the_range() {
        let overflow = || Err(WasmTrap("integer overflow".into()));
        assert_eq!(itrunc(W32, W32, Sx::S, f32b(2147483648.0)), overflow());
        assert_eq!(
            itrunc(W32, W32, Sx::S, f32b(-2147483648.0)),
            Ok(0x8000_0000)
        );
        assert_eq!(itrunc(W32, W64, Sx::S, f64b(2147483647.9)), Ok(0x7fff_ffff));
        assert_eq!(
            itrunc(W32, W64, Sx::S, f64b(-2147483648.9)),
            Ok(0x8000_0000)
        );
        assert_eq!(itrunc(W32, W64, Sx::S, f64b(-2147483649.0)), overflow());
        assert_eq!(itrunc(W32, W32, Sx::U, f32b(-0.9)), Ok(0));
        assert_eq!(itrunc(W32, W32, Sx::U, f32b(-1.0)), overflow());
        assert_eq!(itrunc(W32, W64, Sx::U, f64b(4294967295.9)), Ok(0xffff_ffff));
        assert_eq!(itrunc(W32, W64, Sx::U, f64b(4294967296.0)), overflow());
        assert_eq!(
            itrunc(W64, W64, Sx::S, f64b(9223372036854775808.0)),
            overflow()
        );
        assert_eq!(
            itrunc(W64, W64, Sx::S, f64b(-9223372036854775808.0)),
            Ok(1 << 63)
        );
        assert_eq!(
            itrunc(W64, W32, Sx::U, f32b(18446744073709551616.0)),
            overflow()
        );
        assert_eq!(
            itrunc(W64, W64, Sx::U, f64b(18446744073709549568.0)),
            Ok(18446744073709549568)
        );
        assert_eq!(
            itrunc(W64, W32, Sx::S, f32b(f32::NAN)),
            Err(WasmTrap("invalid conversion to integer".into()))
        );
    }

    #[test]
    fn accesses_at_the_edge_of_memory() {
        let mut mem = vec![0u8; 16];
        fn oob<T>() -> Result<T, WasmTrap> {
            trap("out of bounds memory access")
        }
        assert_eq!(store(&mut mem, 8, 0, 8, 0x0807_0605_0403_0201), Ok(()));
        assert_eq!(load(&mem, 8, 0, 8), Ok(0x0807_0605_0403_0201));
        assert_eq!(load(&mem, 4, 8, 4), Ok(0x0807_0605));
        assert_eq!(load(&mem, 15, 0, 1), Ok(8));
        assert_eq!(load(&mem, 9, 0, 8), oob());
        assert_eq!(load(&mem, 13, 0, 4), oob());
        assert_eq!(load(&mem, 0, 16, 1), oob());
        assert_eq!(store(&mut mem, 12, 0, 4, 0xaabb_ccdd), Ok(()));
        assert_eq!(store(&mut mem, 15, 0, 1, 0x1ff), Ok(()));
        assert_eq!(load(&mem, 12, 0, 4), Ok(0xffbb_ccdd));
        assert_eq!(store(&mut mem, 16, 0, 1, 0), oob());
        assert_eq!(store(&mut mem, 9, 0, 8, 0), oob());
        // The base is an i32: its upper slot bits are ignored.
        assert_eq!(load(&mem, 0xffff_ffff_0000_000f, 0, 1), Ok(0xff));
    }

    #[test]
    fn memory_grows_up_to_the_page_limit() {
        let mut mem = vec![0u8; PAGE];
        assert_eq!(memory_grow(&mut mem, 1), 1);
        assert_eq!(mem.len(), 2 * PAGE);
        assert_eq!(memory_grow(&mut mem, MAX_PAGES), u32::MAX);
        assert_eq!(mem.len(), 2 * PAGE);
        assert_eq!(t_size(ValType::F32), 4);
        assert_eq!(t_size(ValType::I64), 8);
    }
}
