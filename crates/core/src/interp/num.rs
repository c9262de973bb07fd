//! Numeric instructions. Each evaluates as the Wasm instruction it lowers
//! to ([`NumInstr::to_wasm`]), through the operator semantics both Wasm
//! tiers share ([`richwasm_wasm::num::eval`]): the interpreter, the
//! tree-walker and the bytecode VM run one definition of every operator.
//!
//! All payloads are raw 64-bit patterns; the [`NumType`] determines the
//! interpretation. 32-bit values are stored zero-extended.

use richwasm_wasm::exec::WasmTrap;
use richwasm_wasm::num;

use crate::error::RuntimeError;
use crate::syntax::instr::NumInstr;
use crate::syntax::{NumType, Value};

/// Evaluates a numeric instruction on the bits of its operands (`a` is
/// the only or the deeper operand, `b` the top one of a binary operator).
pub fn eval(n: NumInstr, a: u64, b: u64) -> Result<Value, RuntimeError> {
    let bits = match n.to_wasm() {
        Some(i) => num::eval(&i, a, b).map_err(|WasmTrap(reason)| RuntimeError::trap(reason))?,
        None => a,
    };
    let nt = match n {
        NumInstr::IntUnop(nt, _)
        | NumInstr::IntBinop(nt, _)
        | NumInstr::FloatUnop(nt, _)
        | NumInstr::FloatBinop(nt, _)
        | NumInstr::Convert(nt, _)
        | NumInstr::Reinterpret(nt, _) => nt,
        NumInstr::Eqz(_) | NumInstr::IntRelop(..) | NumInstr::FloatRelop(..) => NumType::I32,
    };
    Ok(Value::Num(nt, bits))
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
    use crate::syntax::instr::{FloatRelop, IntBinop, Sign};

    #[test]
    fn eval_types_the_result_and_maps_traps() {
        let mul = NumInstr::IntBinop(NumType::I32, IntBinop::Mul);
        assert_eq!(eval(mul, 6, 7), Ok(Value::i32(42)));
        let lt = NumInstr::FloatRelop(NumType::F64, FloatRelop::Lt);
        assert_eq!(
            eval(lt, 1.5f64.to_bits(), 2.5f64.to_bits()),
            Ok(Value::i32(1))
        );
        let same_width = NumInstr::Convert(NumType::U32, NumType::I32);
        assert_eq!(eval(same_width, 7, 0), Ok(Value::Num(NumType::U32, 7)));
        let div = NumInstr::IntBinop(NumType::I64, IntBinop::Div(Sign::S));
        assert_eq!(
            eval(div, 1, 0),
            Err(RuntimeError::trap("integer divide by zero"))
        );
        assert_eq!(arity(mul), 2);
        assert_eq!(arity(NumInstr::Eqz(NumType::I32)), 1);
    }
}
