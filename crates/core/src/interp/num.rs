//! Numeric operator semantics (WebAssembly 1.0 semantics, shared with the
//! Wasm substrate's expectations so differential testing is meaningful).
//!
//! All payloads are raw 64-bit patterns; the [`NumType`] determines the
//! interpretation. 32-bit values are stored zero-extended.

use crate::error::RuntimeError;
use crate::syntax::instr::{
    FloatBinop, FloatRelop, FloatUnop, IntBinop, IntRelop, IntUnop, NumInstr, Sign,
};
use crate::syntax::{NumType, Value};

fn b32(v: u64) -> u32 {
    v as u32
}

fn mask(nt: NumType, v: u64) -> u64 {
    if nt.bits() == 32 {
        v & 0xFFFF_FFFF
    } else {
        v
    }
}

/// Evaluates an integer unary operator.
pub fn int_unop(nt: NumType, op: IntUnop, a: u64) -> u64 {
    let r = match (nt.bits(), op) {
        (32, IntUnop::Clz) => b32(a).leading_zeros() as u64,
        (32, IntUnop::Ctz) => b32(a).trailing_zeros() as u64,
        (32, IntUnop::Popcnt) => b32(a).count_ones() as u64,
        (64, IntUnop::Clz) => a.leading_zeros() as u64,
        (64, IntUnop::Ctz) => a.trailing_zeros() as u64,
        (64, IntUnop::Popcnt) => a.count_ones() as u64,
        _ => unreachable!(),
    };
    mask(nt, r)
}

/// Evaluates an integer binary operator. Division and remainder by zero
/// (and `INT_MIN / -1`) trap, exactly as in Wasm.
pub fn int_binop(nt: NumType, op: IntBinop, a: u64, b: u64) -> Result<u64, RuntimeError> {
    let w32 = nt.bits() == 32;
    let r = if w32 {
        let (x, y) = (b32(a), b32(b));
        match op {
            IntBinop::Add => x.wrapping_add(y) as u64,
            IntBinop::Sub => x.wrapping_sub(y) as u64,
            IntBinop::Mul => x.wrapping_mul(y) as u64,
            IntBinop::Div(Sign::U) => {
                if y == 0 {
                    return Err(RuntimeError::trap("integer divide by zero"));
                }
                (x / y) as u64
            }
            IntBinop::Div(Sign::S) => {
                let (x, y) = (x as i32, y as i32);
                if y == 0 {
                    return Err(RuntimeError::trap("integer divide by zero"));
                }
                if x == i32::MIN && y == -1 {
                    return Err(RuntimeError::trap("integer overflow"));
                }
                (x / y) as u32 as u64
            }
            IntBinop::Rem(Sign::U) => {
                if y == 0 {
                    return Err(RuntimeError::trap("integer divide by zero"));
                }
                (x % y) as u64
            }
            IntBinop::Rem(Sign::S) => {
                let (x, y) = (x as i32, y as i32);
                if y == 0 {
                    return Err(RuntimeError::trap("integer divide by zero"));
                }
                x.wrapping_rem(y) as u32 as u64
            }
            IntBinop::And => (x & y) as u64,
            IntBinop::Or => (x | y) as u64,
            IntBinop::Xor => (x ^ y) as u64,
            IntBinop::Shl => x.wrapping_shl(y) as u64,
            IntBinop::Shr(Sign::U) => x.wrapping_shr(y) as u64,
            IntBinop::Shr(Sign::S) => ((x as i32).wrapping_shr(y)) as u32 as u64,
            IntBinop::Rotl => x.rotate_left(y % 32) as u64,
            IntBinop::Rotr => x.rotate_right(y % 32) as u64,
        }
    } else {
        let (x, y) = (a, b);
        match op {
            IntBinop::Add => x.wrapping_add(y),
            IntBinop::Sub => x.wrapping_sub(y),
            IntBinop::Mul => x.wrapping_mul(y),
            IntBinop::Div(Sign::U) => {
                if y == 0 {
                    return Err(RuntimeError::trap("integer divide by zero"));
                }
                x / y
            }
            IntBinop::Div(Sign::S) => {
                let (x, y) = (x as i64, y as i64);
                if y == 0 {
                    return Err(RuntimeError::trap("integer divide by zero"));
                }
                if x == i64::MIN && y == -1 {
                    return Err(RuntimeError::trap("integer overflow"));
                }
                (x / y) as u64
            }
            IntBinop::Rem(Sign::U) => {
                if y == 0 {
                    return Err(RuntimeError::trap("integer divide by zero"));
                }
                x % y
            }
            IntBinop::Rem(Sign::S) => {
                let (x, y) = (x as i64, y as i64);
                if y == 0 {
                    return Err(RuntimeError::trap("integer divide by zero"));
                }
                x.wrapping_rem(y) as u64
            }
            IntBinop::And => x & y,
            IntBinop::Or => x | y,
            IntBinop::Xor => x ^ y,
            IntBinop::Shl => x.wrapping_shl(y as u32),
            IntBinop::Shr(Sign::U) => x.wrapping_shr(y as u32),
            IntBinop::Shr(Sign::S) => ((x as i64).wrapping_shr(y as u32)) as u64,
            IntBinop::Rotl => x.rotate_left((y % 64) as u32),
            IntBinop::Rotr => x.rotate_right((y % 64) as u32),
        }
    };
    Ok(mask(nt, r))
}

/// Evaluates an integer relational operator, yielding 0 or 1.
pub fn int_relop(nt: NumType, op: IntRelop, a: u64, b: u64) -> u64 {
    let w32 = nt.bits() == 32;
    let (su, ss): (bool, bool) = match op {
        IntRelop::Eq => return (mask(nt, a) == mask(nt, b)) as u64,
        IntRelop::Ne => return (mask(nt, a) != mask(nt, b)) as u64,
        IntRelop::Lt(s) | IntRelop::Gt(s) | IntRelop::Le(s) | IntRelop::Ge(s) => {
            (s == Sign::U, s == Sign::S)
        }
    };
    let _ = (su, ss);
    let cmp = |sgn: Sign| -> std::cmp::Ordering {
        match (w32, sgn) {
            (true, Sign::U) => b32(a).cmp(&b32(b)),
            (true, Sign::S) => (b32(a) as i32).cmp(&(b32(b) as i32)),
            (false, Sign::U) => a.cmp(&b),
            (false, Sign::S) => (a as i64).cmp(&(b as i64)),
        }
    };
    use std::cmp::Ordering::*;
    let r = match op {
        IntRelop::Lt(s) => cmp(s) == Less,
        IntRelop::Gt(s) => cmp(s) == Greater,
        IntRelop::Le(s) => cmp(s) != Greater,
        IntRelop::Ge(s) => cmp(s) != Less,
        _ => unreachable!(),
    };
    r as u64
}

fn f32_of(v: u64) -> f32 {
    f32::from_bits(v as u32)
}

fn f64_of(v: u64) -> f64 {
    f64::from_bits(v)
}

/// Evaluates a float unary operator.
pub fn float_unop(nt: NumType, op: FloatUnop, a: u64) -> u64 {
    if nt.bits() == 32 {
        let x = f32_of(a);
        let r = match op {
            FloatUnop::Abs => x.abs(),
            FloatUnop::Neg => -x,
            FloatUnop::Sqrt => x.sqrt(),
            FloatUnop::Ceil => x.ceil(),
            FloatUnop::Floor => x.floor(),
            FloatUnop::Trunc => x.trunc(),
            FloatUnop::Nearest => nearest32(x),
        };
        r.to_bits() as u64
    } else {
        let x = f64_of(a);
        let r = match op {
            FloatUnop::Abs => x.abs(),
            FloatUnop::Neg => -x,
            FloatUnop::Sqrt => x.sqrt(),
            FloatUnop::Ceil => x.ceil(),
            FloatUnop::Floor => x.floor(),
            FloatUnop::Trunc => x.trunc(),
            FloatUnop::Nearest => nearest64(x),
        };
        r.to_bits()
    }
}

fn nearest32(x: f32) -> f32 {
    // Round-to-nearest, ties-to-even (Wasm semantics); `round` breaks
    // ties away from zero. The result keeps the operand's sign, so
    // -0.5 rounds to -0.
    let r = x.round();
    let r = if (x - x.trunc()).abs() == 0.5 && r % 2.0 != 0.0 {
        r - x.signum()
    } else {
        r
    };
    r.copysign(x)
}

fn nearest64(x: f64) -> f64 {
    let r = x.round();
    let r = if (x - x.trunc()).abs() == 0.5 && r % 2.0 != 0.0 {
        r - x.signum()
    } else {
        r
    };
    r.copysign(x)
}

/// Wasm `min`/`max`: the canonical NaN if either operand is NaN, and
/// -0 orders below +0 (`f32::min`/`max` return the other operand for a
/// NaN and either zero for a pair of zeros).
fn min_max<F: Copy + PartialOrd>(x: F, y: F, min: bool, nan: F, negative: fn(F) -> bool) -> F {
    use std::cmp::Ordering;
    let pick_x = match x.partial_cmp(&y) {
        None => return nan,
        Some(Ordering::Equal) => negative(x) == min,
        Some(o) => (o == Ordering::Less) == min,
    };
    if pick_x {
        x
    } else {
        y
    }
}

/// Evaluates a float binary operator.
pub fn float_binop(nt: NumType, op: FloatBinop, a: u64, b: u64) -> u64 {
    if nt.bits() == 32 {
        let (x, y) = (f32_of(a), f32_of(b));
        let r = match op {
            FloatBinop::Add => x + y,
            FloatBinop::Sub => x - y,
            FloatBinop::Mul => x * y,
            FloatBinop::Div => x / y,
            FloatBinop::Min | FloatBinop::Max => min_max(
                x,
                y,
                op == FloatBinop::Min,
                f32::from_bits(0x7fc0_0000),
                f32::is_sign_negative,
            ),
            FloatBinop::Copysign => x.copysign(y),
        };
        r.to_bits() as u64
    } else {
        let (x, y) = (f64_of(a), f64_of(b));
        let r = match op {
            FloatBinop::Add => x + y,
            FloatBinop::Sub => x - y,
            FloatBinop::Mul => x * y,
            FloatBinop::Div => x / y,
            FloatBinop::Min | FloatBinop::Max => min_max(
                x,
                y,
                op == FloatBinop::Min,
                f64::from_bits(0x7ff8_0000_0000_0000),
                f64::is_sign_negative,
            ),
            FloatBinop::Copysign => x.copysign(y),
        };
        r.to_bits()
    }
}

/// Evaluates a float relational operator, yielding 0 or 1.
pub fn float_relop(nt: NumType, op: FloatRelop, a: u64, b: u64) -> u64 {
    let r = if nt.bits() == 32 {
        let (x, y) = (f32_of(a), f32_of(b));
        match op {
            FloatRelop::Eq => x == y,
            FloatRelop::Ne => x != y,
            FloatRelop::Lt => x < y,
            FloatRelop::Gt => x > y,
            FloatRelop::Le => x <= y,
            FloatRelop::Ge => x >= y,
        }
    } else {
        let (x, y) = (f64_of(a), f64_of(b));
        match op {
            FloatRelop::Eq => x == y,
            FloatRelop::Ne => x != y,
            FloatRelop::Lt => x < y,
            FloatRelop::Gt => x > y,
            FloatRelop::Le => x <= y,
            FloatRelop::Ge => x >= y,
        }
    };
    r as u64
}

/// Evaluates `dst.convert src` (wrap / extend / trunc / convert / promote
/// / demote depending on the type pair). Out-of-range float→int
/// conversions trap as in Wasm.
pub fn convert(dst: NumType, src: NumType, a: u64) -> Result<u64, RuntimeError> {
    use NumType::*;
    let r = match (src, dst) {
        // int → int: wrap / extend (sign from the *source* type).
        (I64 | U64, I32 | U32) => a & 0xFFFF_FFFF,
        (I32, I64) | (I32, U64) => (a as u32 as i32 as i64) as u64,
        (U32, I64) | (U32, U64) => a as u32 as u64,
        // same-width signedness changes are free.
        (I32, U32) | (U32, I32) | (I64, U64) | (U64, I64) => a,
        // int → float
        (I32, F32) => ((a as u32 as i32) as f32).to_bits() as u64,
        (U32, F32) => ((a as u32) as f32).to_bits() as u64,
        (I64, F32) => ((a as i64) as f32).to_bits() as u64,
        (U64, F32) => (a as f32).to_bits() as u64,
        (I32, F64) => ((a as u32 as i32) as f64).to_bits(),
        (U32, F64) => ((a as u32) as f64).to_bits(),
        (I64, F64) => ((a as i64) as f64).to_bits(),
        (U64, F64) => (a as f64).to_bits(),
        // float → int (trunc, trapping)
        (F32, I32) => {
            trunc_to_i64(f32_of(a) as f64, i32::MIN as f64, i32::MAX as f64)? as u32 as u64
        }
        (F32, U32) => trunc_to_u64(f32_of(a) as f64, u32::MAX as f64)? & 0xFFFF_FFFF,
        (F32, I64) => trunc_to_i64(f32_of(a) as f64, i64::MIN as f64, i64::MAX as f64)? as u64,
        (F32, U64) => trunc_to_u64(f32_of(a) as f64, u64::MAX as f64)?,
        (F64, I32) => trunc_to_i64(f64_of(a), i32::MIN as f64, i32::MAX as f64)? as u32 as u64,
        (F64, U32) => trunc_to_u64(f64_of(a), u32::MAX as f64)? & 0xFFFF_FFFF,
        (F64, I64) => trunc_to_i64(f64_of(a), i64::MIN as f64, i64::MAX as f64)? as u64,
        (F64, U64) => trunc_to_u64(f64_of(a), u64::MAX as f64)?,
        // float ↔ float
        (F32, F64) => ((f32_of(a)) as f64).to_bits(),
        (F64, F32) => ((f64_of(a)) as f32).to_bits() as u64,
        (F32, F32) | (F64, F64) | (I32, I32) | (U32, U32) | (I64, I64) | (U64, U64) => a,
    };
    Ok(r)
}

fn trunc_to_i64(x: f64, lo: f64, hi: f64) -> Result<i64, RuntimeError> {
    if x.is_nan() {
        return Err(RuntimeError::trap("invalid conversion to integer"));
    }
    let t = x.trunc();
    if t < lo || t > hi {
        return Err(RuntimeError::trap("integer overflow in conversion"));
    }
    Ok(t as i64)
}

fn trunc_to_u64(x: f64, hi: f64) -> Result<u64, RuntimeError> {
    if x.is_nan() {
        return Err(RuntimeError::trap("invalid conversion to integer"));
    }
    let t = x.trunc();
    if t < 0.0 || t > hi {
        return Err(RuntimeError::trap("integer overflow in conversion"));
    }
    Ok(t as u64)
}

/// Evaluates a whole numeric instruction against popped operands (`a` is
/// the deeper operand for binary operations).
pub fn eval(n: NumInstr, operands: &[Value]) -> Result<Value, RuntimeError> {
    let bits = |v: &Value| -> Result<u64, RuntimeError> {
        v.as_num()
            .map(|(_, b)| b)
            .ok_or_else(|| RuntimeError::stuck(format!("numeric op on non-number {v}")))
    };
    Ok(match n {
        NumInstr::IntUnop(nt, op) => Value::Num(nt, int_unop(nt, op, bits(&operands[0])?)),
        NumInstr::IntBinop(nt, op) => Value::Num(
            nt,
            int_binop(nt, op, bits(&operands[0])?, bits(&operands[1])?)?,
        ),
        NumInstr::Eqz(nt) => Value::Num(NumType::I32, (mask(nt, bits(&operands[0])?) == 0) as u64),
        NumInstr::IntRelop(nt, op) => Value::Num(
            NumType::I32,
            int_relop(nt, op, bits(&operands[0])?, bits(&operands[1])?),
        ),
        NumInstr::FloatUnop(nt, op) => Value::Num(nt, float_unop(nt, op, bits(&operands[0])?)),
        NumInstr::FloatBinop(nt, op) => Value::Num(
            nt,
            float_binop(nt, op, bits(&operands[0])?, bits(&operands[1])?),
        ),
        NumInstr::FloatRelop(nt, op) => Value::Num(
            NumType::I32,
            float_relop(nt, op, bits(&operands[0])?, bits(&operands[1])?),
        ),
        NumInstr::Convert(dst, src) => Value::Num(dst, convert(dst, src, bits(&operands[0])?)?),
        NumInstr::Reinterpret(dst, _) => Value::Num(dst, bits(&operands[0])?),
    })
}

/// Number of operands consumed by a numeric instruction.
pub fn arity(n: NumInstr) -> usize {
    match n {
        NumInstr::IntUnop(..)
        | NumInstr::Eqz(_)
        | NumInstr::FloatUnop(..)
        | NumInstr::Convert(..)
        | NumInstr::Reinterpret(..) => 1,
        NumInstr::IntBinop(..)
        | NumInstr::IntRelop(..)
        | NumInstr::FloatBinop(..)
        | NumInstr::FloatRelop(..) => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapping_add() {
        assert_eq!(
            int_binop(NumType::I32, IntBinop::Add, u32::MAX as u64, 1).unwrap(),
            0
        );
        assert_eq!(
            int_binop(NumType::I64, IntBinop::Add, u64::MAX, 1).unwrap(),
            0
        );
    }

    #[test]
    fn div_by_zero_traps() {
        assert!(int_binop(NumType::I32, IntBinop::Div(Sign::S), 1, 0).is_err());
        assert!(int_binop(NumType::I32, IntBinop::Rem(Sign::U), 1, 0).is_err());
        assert!(int_binop(
            NumType::I32,
            IntBinop::Div(Sign::S),
            i32::MIN as u32 as u64,
            u32::MAX as u64
        )
        .is_err());
    }

    #[test]
    fn signed_comparison() {
        // -1 <s 0 but -1 >u 0.
        let neg1 = u32::MAX as u64;
        assert_eq!(int_relop(NumType::I32, IntRelop::Lt(Sign::S), neg1, 0), 1);
        assert_eq!(int_relop(NumType::I32, IntRelop::Lt(Sign::U), neg1, 0), 0);
    }

    #[test]
    fn clz_popcnt() {
        assert_eq!(int_unop(NumType::I32, IntUnop::Clz, 1), 31);
        assert_eq!(int_unop(NumType::I32, IntUnop::Popcnt, 0xFF), 8);
        assert_eq!(int_unop(NumType::I64, IntUnop::Ctz, 0b1000), 3);
    }

    #[test]
    fn float_ops() {
        let a = 1.5f64.to_bits();
        let b = 2.5f64.to_bits();
        assert_eq!(
            float_binop(NumType::F64, FloatBinop::Add, a, b),
            4.0f64.to_bits()
        );
        assert_eq!(float_relop(NumType::F64, FloatRelop::Lt, a, b), 1);
        assert_eq!(
            float_unop(NumType::F64, FloatUnop::Neg, a),
            (-1.5f64).to_bits()
        );
        // min/max: a NaN operand gives the canonical NaN; -0 < +0.
        let f32b = |x: f32| x.to_bits() as u64;
        let (min32, max32) = (FloatBinop::Min, FloatBinop::Max);
        assert_eq!(
            float_binop(NumType::F32, min32, f32b(f32::NAN), f32b(1.0)),
            0x7fc0_0000
        );
        assert_eq!(
            float_binop(NumType::F32, max32, f32b(1.0), 0x7fa0_0000),
            0x7fc0_0000
        );
        assert_eq!(
            float_binop(
                NumType::F64,
                FloatBinop::Max,
                1.0f64.to_bits(),
                f64::NAN.to_bits()
            ),
            0x7ff8_0000_0000_0000
        );
        assert_eq!(
            float_binop(NumType::F32, min32, f32b(0.0), f32b(-0.0)),
            f32b(-0.0)
        );
        assert_eq!(
            float_binop(NumType::F32, max32, f32b(-0.0), f32b(0.0)),
            f32b(0.0)
        );
        assert_eq!(
            float_binop(NumType::F64, FloatBinop::Min, (-0.0f64).to_bits(), 0),
            (-0.0f64).to_bits()
        );
        assert_eq!(
            float_binop(NumType::F32, min32, f32b(2.0), f32b(-3.0)),
            f32b(-3.0)
        );
    }

    #[test]
    fn nearest_ties_to_even() {
        assert_eq!(
            float_unop(NumType::F64, FloatUnop::Nearest, 2.5f64.to_bits()),
            2.0f64.to_bits()
        );
        assert_eq!(
            float_unop(NumType::F64, FloatUnop::Nearest, 3.5f64.to_bits()),
            4.0f64.to_bits()
        );
        // The sign of zero survives: -0.5 and -0.4 round to -0.
        for x in [-0.5f32, -0.4] {
            assert_eq!(
                float_unop(NumType::F32, FloatUnop::Nearest, x.to_bits() as u64),
                (-0.0f32).to_bits() as u64
            );
            assert_eq!(
                float_unop(NumType::F64, FloatUnop::Nearest, (x as f64).to_bits()),
                (-0.0f64).to_bits()
            );
        }
        assert_eq!(
            float_unop(NumType::F32, FloatUnop::Nearest, 0.5f32.to_bits() as u64),
            0
        );
    }

    #[test]
    fn conversions() {
        // i64 → i32 wraps.
        assert_eq!(
            convert(NumType::I32, NumType::I64, 0x1_0000_0005).unwrap(),
            5
        );
        // i32 → i64 sign-extends.
        assert_eq!(
            convert(NumType::I64, NumType::I32, u32::MAX as u64).unwrap(),
            u64::MAX
        );
        // u32 → i64 zero-extends.
        assert_eq!(
            convert(NumType::I64, NumType::U32, u32::MAX as u64).unwrap(),
            u32::MAX as u64
        );
        // float → int truncates; NaN traps.
        assert_eq!(
            convert(NumType::I32, NumType::F64, 3.99f64.to_bits()).unwrap(),
            3
        );
        assert!(convert(NumType::I32, NumType::F64, f64::NAN.to_bits()).is_err());
        assert!(convert(NumType::I32, NumType::F64, 1e20f64.to_bits()).is_err());
    }

    #[test]
    fn eval_dispatches() {
        let v = eval(
            NumInstr::IntBinop(NumType::I32, IntBinop::Mul),
            &[Value::i32(6), Value::i32(7)],
        )
        .unwrap();
        assert_eq!(v, Value::i32(42));
        assert_eq!(arity(NumInstr::IntBinop(NumType::I32, IntBinop::Mul)), 2);
        assert_eq!(arity(NumInstr::Eqz(NumType::I32)), 1);
    }
}
