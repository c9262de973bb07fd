//! Instructions (paper Fig. 2 "Terms" and Fig. 4 administrative forms).

use std::fmt;

use richwasm_wasm::ast::WInstr;

use super::loc::Loc;
use super::qual::Qual;
use super::size::Size;
use super::types::{ArrowType, HeapType, Index, NumType, Pretype, Type};
use super::value::{HeapValue, Value};

/// A local effect `(i, τ)`: after the annotated block, local slot `i` has
/// type `τ` (paper §2.1: block-style instructions carry local effects).
#[derive(Debug, Clone, PartialEq)]
pub struct LocalEffect {
    /// The local slot index.
    pub idx: u32,
    /// The slot's type after the block.
    pub ty: Type,
}

impl LocalEffect {
    /// Constructs a local effect.
    pub fn new(idx: u32, ty: Type) -> LocalEffect {
        LocalEffect { idx, ty }
    }
}

/// A block annotation: arrow type + local effects, shared by `block`, `if`,
/// `mem.unpack`, `variant.case` and `exist.unpack`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    /// The type `τ1* → τ2*` of the enclosed instruction sequence.
    pub arrow: ArrowType,
    /// The prescribed effect on local slots.
    pub effects: Vec<LocalEffect>,
}

impl Block {
    /// Constructs a block annotation.
    pub fn new(arrow: ArrowType, effects: Vec<LocalEffect>) -> Block {
        Block { arrow, effects }
    }
}

/// Sign interpretation for integer operations that need one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sign {
    /// Signed interpretation.
    S,
    /// Unsigned interpretation.
    U,
}

/// Integer unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntUnop {
    /// Count leading zeros.
    Clz,
    /// Count trailing zeros.
    Ctz,
    /// Population count.
    Popcnt,
}

/// Integer binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum IntBinop {
    Add,
    Sub,
    Mul,
    Div(Sign),
    Rem(Sign),
    And,
    Or,
    Xor,
    Shl,
    Shr(Sign),
    Rotl,
    Rotr,
}

/// Integer relational operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum IntRelop {
    Eq,
    Ne,
    Lt(Sign),
    Gt(Sign),
    Le(Sign),
    Ge(Sign),
}

/// Float unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum FloatUnop {
    Abs,
    Neg,
    Sqrt,
    Ceil,
    Floor,
    Trunc,
    Nearest,
}

/// Float binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum FloatBinop {
    Add,
    Sub,
    Mul,
    Div,
    Min,
    Max,
    Copysign,
}

/// Float relational operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum FloatRelop {
    Eq,
    Ne,
    Lt,
    Gt,
    Le,
    Ge,
}

/// Numeric instructions `np.unop`, `np.binop`, `np.testop`, `np.relop`,
/// `np.cvtop`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NumInstr {
    /// An integer unary operation on the given type.
    IntUnop(NumType, IntUnop),
    /// An integer binary operation.
    IntBinop(NumType, IntBinop),
    /// `eqz`: test an integer for zero (produces `i32`).
    Eqz(NumType),
    /// An integer comparison (produces `i32`).
    IntRelop(NumType, IntRelop),
    /// A float unary operation.
    FloatUnop(NumType, FloatUnop),
    /// A float binary operation.
    FloatBinop(NumType, FloatBinop),
    /// A float comparison (produces `i32`).
    FloatRelop(NumType, FloatRelop),
    /// `dst.convert src`: numeric conversion (wrap/extend/trunc/convert…).
    Convert(NumType, NumType),
    /// `dst.reinterpret src`: bit-pattern reinterpretation between
    /// same-width types.
    Reinterpret(NumType, NumType),
}

impl NumInstr {
    /// The Wasm instruction this one lowers to, or `None` when it keeps
    /// the operand's bit pattern: a conversion between two types of one
    /// width that are both integers or both floats, or a reinterpret
    /// that does not cross between integer and float. Lowering emits it
    /// and the interpreter evaluates it, so both run one numeric
    /// semantics, [`richwasm_wasm::num::eval`].
    pub fn to_wasm(self) -> Option<WInstr> {
        use richwasm_wasm::ast::{FBinOp, FRelOp, FUnOp, IBinOp, IRelOp, IUnOp, Sx, Width};
        use NumType::*;
        let width = |nt: NumType| match nt.bits() {
            32 => Width::W32,
            _ => Width::W64,
        };
        let sx = |s: Sign| match s {
            Sign::S => Sx::S,
            Sign::U => Sx::U,
        };
        // The signedness of an integer type, as a conversion's operand.
        let int_sx = |nt: NumType| match nt {
            I32 | I64 => Sx::S,
            _ => Sx::U,
        };
        Some(match self {
            NumInstr::IntUnop(nt, op) => WInstr::IUn(
                width(nt),
                match op {
                    IntUnop::Clz => IUnOp::Clz,
                    IntUnop::Ctz => IUnOp::Ctz,
                    IntUnop::Popcnt => IUnOp::Popcnt,
                },
            ),
            NumInstr::IntBinop(nt, op) => WInstr::IBin(
                width(nt),
                match op {
                    IntBinop::Add => IBinOp::Add,
                    IntBinop::Sub => IBinOp::Sub,
                    IntBinop::Mul => IBinOp::Mul,
                    IntBinop::Div(s) => IBinOp::Div(sx(s)),
                    IntBinop::Rem(s) => IBinOp::Rem(sx(s)),
                    IntBinop::And => IBinOp::And,
                    IntBinop::Or => IBinOp::Or,
                    IntBinop::Xor => IBinOp::Xor,
                    IntBinop::Shl => IBinOp::Shl,
                    IntBinop::Shr(s) => IBinOp::Shr(sx(s)),
                    IntBinop::Rotl => IBinOp::Rotl,
                    IntBinop::Rotr => IBinOp::Rotr,
                },
            ),
            NumInstr::Eqz(nt) => WInstr::ITest(width(nt)),
            NumInstr::IntRelop(nt, op) => WInstr::IRel(
                width(nt),
                match op {
                    IntRelop::Eq => IRelOp::Eq,
                    IntRelop::Ne => IRelOp::Ne,
                    IntRelop::Lt(s) => IRelOp::Lt(sx(s)),
                    IntRelop::Gt(s) => IRelOp::Gt(sx(s)),
                    IntRelop::Le(s) => IRelOp::Le(sx(s)),
                    IntRelop::Ge(s) => IRelOp::Ge(sx(s)),
                },
            ),
            NumInstr::FloatUnop(nt, op) => WInstr::FUn(
                width(nt),
                match op {
                    FloatUnop::Abs => FUnOp::Abs,
                    FloatUnop::Neg => FUnOp::Neg,
                    FloatUnop::Sqrt => FUnOp::Sqrt,
                    FloatUnop::Ceil => FUnOp::Ceil,
                    FloatUnop::Floor => FUnOp::Floor,
                    FloatUnop::Trunc => FUnOp::Trunc,
                    FloatUnop::Nearest => FUnOp::Nearest,
                },
            ),
            NumInstr::FloatBinop(nt, op) => WInstr::FBin(
                width(nt),
                match op {
                    FloatBinop::Add => FBinOp::Add,
                    FloatBinop::Sub => FBinOp::Sub,
                    FloatBinop::Mul => FBinOp::Mul,
                    FloatBinop::Div => FBinOp::Div,
                    FloatBinop::Min => FBinOp::Min,
                    FloatBinop::Max => FBinOp::Max,
                    FloatBinop::Copysign => FBinOp::Copysign,
                },
            ),
            NumInstr::FloatRelop(nt, op) => WInstr::FRel(
                width(nt),
                match op {
                    FloatRelop::Eq => FRelOp::Eq,
                    FloatRelop::Ne => FRelOp::Ne,
                    FloatRelop::Lt => FRelOp::Lt,
                    FloatRelop::Gt => FRelOp::Gt,
                    FloatRelop::Le => FRelOp::Le,
                    FloatRelop::Ge => FRelOp::Ge,
                },
            ),
            NumInstr::Convert(dst, src) => match (src.is_float(), dst.is_float()) {
                // Float ↔ float: promote, demote, or nothing.
                (true, true) => match (src, dst) {
                    (F32, F64) => WInstr::F64PromoteF32,
                    (F64, F32) => WInstr::F32DemoteF64,
                    _ => return None,
                },
                (true, false) => WInstr::ITruncF(width(dst), width(src), int_sx(dst)),
                (false, true) => WInstr::FConvertI(width(dst), width(src), int_sx(src)),
                // Int → int: wrap, extend (sign from the source type), or
                // a same-width signedness change, which is free.
                (false, false) => match (src.bits(), dst.bits()) {
                    (64, 32) => WInstr::I32WrapI64,
                    (32, 64) => WInstr::I64ExtendI32(int_sx(src)),
                    _ => return None,
                },
            },
            NumInstr::Reinterpret(dst, src) => match (src.is_float(), dst.is_float()) {
                (true, false) => WInstr::IReinterpretF(width(src)),
                (false, true) => WInstr::FReinterpretI(width(dst)),
                _ => return None,
            },
        })
    }
}

/// A RichWasm instruction `e` (paper Fig. 2), including the administrative
/// instructions of Fig. 4 (which only arise during reduction).
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// A value used as an instruction (constants in source programs;
    /// arbitrary values during reduction).
    Val(Value),
    /// A numeric operation.
    Num(NumInstr),
    /// `unreachable`: always traps.
    Unreachable,
    /// `nop`.
    Nop,
    /// `drop` the (unrestricted) top of stack.
    Drop,
    /// `select`: pick between two unrestricted values by an `i32` flag.
    Select,
    /// `block tf (i,τ)* e* end`.
    BlockI(Block, Vec<Instr>),
    /// `loop tf e* end`.
    LoopI(ArrowType, Vec<Instr>),
    /// `if tf (i,τ)* e* else e* end`.
    IfI(Block, Vec<Instr>, Vec<Instr>),
    /// `br i`.
    Br(u32),
    /// `br_if i`.
    BrIf(u32),
    /// `br_table i* j`.
    BrTable(Vec<u32>, u32),
    /// `return`.
    Return,
    /// `get_local i q`: read local `i`; if `q` is linear the slot is
    /// strongly updated to `unit` to prevent duplication.
    GetLocal(u32, Qual),
    /// `set_local i`: write local `i` (old contents must be unrestricted).
    SetLocal(u32),
    /// `tee_local i`: like `set_local` but keeps the value on the stack
    /// (value must be unrestricted).
    TeeLocal(u32),
    /// `get_global i`.
    GetGlobal(u32),
    /// `set_global i`.
    SetGlobal(u32),
    /// `qualify q`: coerce the top value's qualifier upward to `q`.
    Qualify(Qual),
    /// `coderef i`: push a code reference to table entry `i` of the current
    /// module.
    CodeRefI(u32),
    /// `inst z*`: partially instantiate the coderef on top of the stack.
    Inst(Vec<Index>),
    /// `call_indirect`: call through a (fully instantiated) coderef.
    CallIndirect,
    /// `call i z*`: direct call of function `i` with instantiation `z*`.
    Call(u32, Vec<Index>),
    /// `rec.fold p`: fold into the isorecursive pretype `p` (which must be
    /// a `rec`).
    RecFold(Pretype),
    /// `rec.unfold`.
    RecUnfold,
    /// `mem.pack ℓ`: abstract location `ℓ` into an existential package.
    MemPack(Loc),
    /// `mem.unpack tf (i,τ)* ρ. e*`: block that opens an existential
    /// location package, binding location variable 0 in the body.
    MemUnpack(Block, Vec<Instr>),
    /// `seq.group i q`: group the top `i` stack values into a tuple with
    /// qualifier `q`.
    Group(u32, Qual),
    /// `seq.ungroup`: splat a tuple back onto the stack.
    Ungroup,
    /// `cap.split`: split a `cap rw` into `cap r` + `own`.
    CapSplit,
    /// `cap.join`: inverse of `cap.split`.
    CapJoin,
    /// `ref.demote`: weaken a `ref rw` to `ref r`.
    RefDemote,
    /// `ref.split`: split a reference into capability + pointer.
    RefSplit,
    /// `ref.join`: recombine capability + pointer into a reference.
    RefJoin,
    /// `struct.malloc sz* q`: allocate a struct with the given field slot
    /// sizes in the memory selected by `q`.
    StructMalloc(Vec<Size>, Qual),
    /// `struct.free`: free a linear struct (fields must be unrestricted).
    StructFree,
    /// `struct.get i`: read (copy) field `i`, which must be unrestricted.
    StructGet(u32),
    /// `struct.set i`: overwrite field `i` (old value unrestricted; strong
    /// update allowed on linear references).
    StructSet(u32),
    /// `struct.swap i`: simultaneously read and replace field `i` — the
    /// only way to move linear values through memory.
    StructSwap(u32),
    /// `variant.malloc i τ* q`: allocate case `i` of variant type `τ*`.
    VariantMalloc(u32, Vec<Type>, Qual),
    /// `variant.case q ψ tf (i,τ)* (e*)* end`: case analysis; if `q` is
    /// linear the variant cell is freed and its payload handed to the
    /// branch.
    VariantCase(Qual, HeapType, Block, Vec<Vec<Instr>>),
    /// `array.malloc q`: allocate an array (length and fill value from the
    /// stack).
    ArrayMalloc(Qual),
    /// `array.get`: index an array (traps when out of bounds).
    ArrayGet,
    /// `array.set`: update an array slot (traps when out of bounds).
    ArraySet,
    /// `array.free`: free a linear array (elements must be unrestricted).
    ArrayFree,
    /// `exist.pack p ψ q`: pack a value into a heap-allocated existential
    /// package with witness `p`.
    ExistPack(Pretype, HeapType, Qual),
    /// `exist.unpack q ψ tf (i,τ)* α. e* end`: open a package, binding
    /// pretype variable 0 in the body; frees the cell when `q` is linear.
    ExistUnpack(Qual, HeapType, Block, Vec<Instr>),

    // ------------------------------------------------------------------
    // Administrative instructions (paper Fig. 4) — produced by reduction,
    // never written in source modules.
    // ------------------------------------------------------------------
    /// `trap`: the configuration has aborted.
    Trap,
    /// `call cl z*`: a resolved call about to enter its frame. The closure
    /// is referenced as (instance, function index) into the store.
    CallAdmin {
        /// The module instance providing the function's environment.
        inst: u32,
        /// The function index within the instance's `func` list.
        func: u32,
        /// The quantifier instantiation.
        indices: Vec<Index>,
    },
    /// `label_n {e1*} e2* end`: a control frame with arity `n`,
    /// continuation `e1*` (non-empty only for loops) and body `e2*`.
    ///
    /// Only reduction creates frames, and it stores their bodies **last
    /// instruction first**: the next instruction to reduce is the last
    /// non-value, so a step pops and pushes at the end of the vector and
    /// never moves the code after its redex.
    Label {
        /// Number of values the label yields (branch arity).
        arity: u32,
        /// The continuation spliced in when a branch targets this label,
        /// in program order.
        cont: Vec<Instr>,
        /// The body currently being reduced, last instruction first.
        body: Vec<Instr>,
    },
    /// `local_n {i; (v, sz)*} e* end`: a function activation frame with
    /// return arity `n`, owning module instance `i`, and local slots. Its
    /// body is stored last instruction first, like a [`Instr::Label`]'s.
    LocalFrame {
        /// Return arity.
        arity: u32,
        /// The module instance the code belongs to.
        inst: u32,
        /// Local slot values and their sizes.
        locals: Vec<(Value, Size)>,
        /// The body being reduced, last instruction first.
        body: Vec<Instr>,
    },
    /// `malloc sz hv q`: allocate `hv` in the memory selected by `q`.
    MallocAdmin(Size, HeapValue, Qual),
    /// `free`: deallocate the linear location referenced on the stack.
    Free,
}

impl Instr {
    /// A convenience constant constructor.
    pub fn i32(v: i32) -> Instr {
        Instr::Val(Value::i32(v))
    }

    /// Returns `true` if this instruction is a value (already reduced).
    pub fn is_value(&self) -> bool {
        matches!(self, Instr::Val(_))
    }

    /// Returns `true` if this is one of the administrative instructions
    /// that only arise during reduction.
    pub fn is_administrative(&self) -> bool {
        matches!(
            self,
            Instr::Trap
                | Instr::CallAdmin { .. }
                | Instr::Label { .. }
                | Instr::LocalFrame { .. }
                | Instr::MallocAdmin(..)
                | Instr::Free
        )
    }
}

impl From<Value> for Instr {
    fn from(v: Value) -> Instr {
        Instr::Val(v)
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Val(v) => write!(f, "{v}"),
            Instr::Num(n) => write!(f, "{n:?}"),
            Instr::Unreachable => write!(f, "unreachable"),
            Instr::Nop => write!(f, "nop"),
            Instr::Drop => write!(f, "drop"),
            Instr::Select => write!(f, "select"),
            Instr::BlockI(b, _) => write!(f, "block {}", b.arrow),
            Instr::LoopI(a, _) => write!(f, "loop {a}"),
            Instr::IfI(b, _, _) => write!(f, "if {}", b.arrow),
            Instr::Br(i) => write!(f, "br {i}"),
            Instr::BrIf(i) => write!(f, "br_if {i}"),
            Instr::BrTable(is, j) => write!(f, "br_table {is:?} {j}"),
            Instr::Return => write!(f, "return"),
            Instr::GetLocal(i, q) => write!(f, "get_local {i} {q}"),
            Instr::SetLocal(i) => write!(f, "set_local {i}"),
            Instr::TeeLocal(i) => write!(f, "tee_local {i}"),
            Instr::GetGlobal(i) => write!(f, "get_global {i}"),
            Instr::SetGlobal(i) => write!(f, "set_global {i}"),
            Instr::Qualify(q) => write!(f, "qualify {q}"),
            Instr::CodeRefI(i) => write!(f, "coderef {i}"),
            Instr::Inst(_) => write!(f, "inst"),
            Instr::CallIndirect => write!(f, "call_indirect"),
            Instr::Call(i, _) => write!(f, "call {i}"),
            Instr::RecFold(_) => write!(f, "rec.fold"),
            Instr::RecUnfold => write!(f, "rec.unfold"),
            Instr::MemPack(l) => write!(f, "mem.pack {l}"),
            Instr::MemUnpack(b, _) => write!(f, "mem.unpack {}", b.arrow),
            Instr::Group(i, q) => write!(f, "seq.group {i} {q}"),
            Instr::Ungroup => write!(f, "seq.ungroup"),
            Instr::CapSplit => write!(f, "cap.split"),
            Instr::CapJoin => write!(f, "cap.join"),
            Instr::RefDemote => write!(f, "ref.demote"),
            Instr::RefSplit => write!(f, "ref.split"),
            Instr::RefJoin => write!(f, "ref.join"),
            Instr::StructMalloc(szs, q) => write!(f, "struct.malloc {szs:?} {q}"),
            Instr::StructFree => write!(f, "struct.free"),
            Instr::StructGet(i) => write!(f, "struct.get {i}"),
            Instr::StructSet(i) => write!(f, "struct.set {i}"),
            Instr::StructSwap(i) => write!(f, "struct.swap {i}"),
            Instr::VariantMalloc(i, _, q) => write!(f, "variant.malloc {i} {q}"),
            Instr::VariantCase(q, _, b, _) => {
                write!(f, "variant.case {q} {}", b.arrow)
            }
            Instr::ArrayMalloc(q) => write!(f, "array.malloc {q}"),
            Instr::ArrayGet => write!(f, "array.get"),
            Instr::ArraySet => write!(f, "array.set"),
            Instr::ArrayFree => write!(f, "array.free"),
            Instr::ExistPack(_, _, q) => write!(f, "exist.pack {q}"),
            Instr::ExistUnpack(q, _, b, _) => {
                write!(f, "exist.unpack {q} {}", b.arrow)
            }
            Instr::Trap => write!(f, "trap"),
            Instr::CallAdmin { inst, func, .. } => write!(f, "call⟨{inst}.{func}⟩"),
            Instr::Label { arity, body, .. } => {
                write!(f, "label_{arity}{{…}} [{} instrs] end", body.len())
            }
            Instr::LocalFrame {
                arity, inst, body, ..
            } => {
                write!(f, "local_{arity}{{{inst}}} [{} instrs] end", body.len())
            }
            Instr::MallocAdmin(sz, _, q) => write!(f, "malloc {sz} {q}"),
            Instr::Free => write!(f, "free"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_instrs_are_values() {
        assert!(Instr::i32(1).is_value());
        assert!(!Instr::Nop.is_value());
    }

    #[test]
    fn administrative_classification() {
        assert!(Instr::Trap.is_administrative());
        assert!(Instr::Free.is_administrative());
        assert!(!Instr::Drop.is_administrative());
        assert!(!Instr::Return.is_administrative());
    }

    #[test]
    fn display_smoke() {
        assert_eq!(Instr::Br(2).to_string(), "br 2");
        assert_eq!(Instr::GetLocal(0, Qual::Lin).to_string(), "get_local 0 lin");
        assert_eq!(Instr::Trap.to_string(), "trap");
    }
}
