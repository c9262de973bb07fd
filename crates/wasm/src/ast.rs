//! WebAssembly 1.0 (+ multi-value) abstract syntax.

use std::fmt;

/// A Wasm value type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValType {
    /// 32-bit integer.
    I32,
    /// 64-bit integer.
    I64,
    /// 32-bit float.
    F32,
    /// 64-bit float.
    F64,
}

impl fmt::Display for ValType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValType::I32 => write!(f, "i32"),
            ValType::I64 => write!(f, "i64"),
            ValType::F32 => write!(f, "f32"),
            ValType::F64 => write!(f, "f64"),
        }
    }
}

/// A function type (multi-value: any number of results).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct FuncType {
    /// Parameter types.
    pub params: Vec<ValType>,
    /// Result types.
    pub results: Vec<ValType>,
}

/// A block type: either inline (at most one result, Wasm 1.0 style) or a
/// reference to a declared function type (multi-value blocks).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BlockType {
    /// `[] → []`.
    Empty,
    /// `[] → [t]`.
    Value(ValType),
    /// A type-section index (multi-value extension).
    Func(u32),
}

/// Signedness annotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sx {
    /// Signed.
    S,
    /// Unsigned.
    U,
}

/// Integer binary operators (width-generic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum IBinOp {
    Add,
    Sub,
    Mul,
    Div(Sx),
    Rem(Sx),
    And,
    Or,
    Xor,
    Shl,
    Shr(Sx),
    Rotl,
    Rotr,
}

/// Integer relational operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum IRelOp {
    Eq,
    Ne,
    Lt(Sx),
    Gt(Sx),
    Le(Sx),
    Ge(Sx),
}

/// Integer unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum IUnOp {
    Clz,
    Ctz,
    Popcnt,
}

/// Float binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum FBinOp {
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
pub enum FRelOp {
    Eq,
    Ne,
    Lt,
    Gt,
    Le,
    Ge,
}

/// Float unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum FUnOp {
    Abs,
    Neg,
    Sqrt,
    Ceil,
    Floor,
    Trunc,
    Nearest,
}

/// Integer width selector for width-generic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Width {
    /// 32-bit.
    W32,
    /// 64-bit.
    W64,
}

/// A WebAssembly instruction (the subset of Wasm 1.0 + multi-value needed
/// as a complete compilation target: all numeric, parametric, variable,
/// memory, and control instructions).
#[derive(Debug, Clone, PartialEq)]
pub enum WInstr {
    /// `unreachable`.
    Unreachable,
    /// `nop`.
    Nop,
    /// `block bt instr* end`.
    Block(BlockType, Vec<WInstr>),
    /// `loop bt instr* end`.
    Loop(BlockType, Vec<WInstr>),
    /// `if bt instr* else instr* end`.
    If(BlockType, Vec<WInstr>, Vec<WInstr>),
    /// `br l`.
    Br(u32),
    /// `br_if l`.
    BrIf(u32),
    /// `br_table l* l`.
    BrTable(Vec<u32>, u32),
    /// `return`.
    Return,
    /// `call f`.
    Call(u32),
    /// `call_indirect (type t)`.
    CallIndirect(u32),
    /// `drop`.
    Drop,
    /// `select`.
    Select,
    /// `local.get i`.
    LocalGet(u32),
    /// `local.set i`.
    LocalSet(u32),
    /// `local.tee i`.
    LocalTee(u32),
    /// `global.get i`.
    GlobalGet(u32),
    /// `global.set i`.
    GlobalSet(u32),
    /// `iNN.load` / `fNN.load` with static offset (align is immaterial to
    /// semantics and fixed at natural alignment when encoding).
    Load(ValType, u32),
    /// `iNN.store` / `fNN.store` with static offset.
    Store(ValType, u32),
    /// `i32.load8_u offset` — used for byte-granular runtime code.
    Load8U(u32),
    /// `i32.store8 offset`.
    Store8(u32),
    /// `memory.size`.
    MemorySize,
    /// `memory.grow`.
    MemoryGrow,
    /// `i32.const`.
    I32Const(i32),
    /// `i64.const`.
    I64Const(i64),
    /// `f32.const`.
    F32Const(f32),
    /// `f64.const`.
    F64Const(f64),
    /// Integer unary operator.
    IUn(Width, IUnOp),
    /// Integer binary operator.
    IBin(Width, IBinOp),
    /// `iNN.eqz`.
    ITest(Width),
    /// Integer comparison.
    IRel(Width, IRelOp),
    /// Float unary operator.
    FUn(Width, FUnOp),
    /// Float binary operator.
    FBin(Width, FBinOp),
    /// Float comparison.
    FRel(Width, FRelOp),
    /// `i32.wrap_i64`.
    I32WrapI64,
    /// `i64.extend_i32_s` / `_u`.
    I64ExtendI32(Sx),
    /// `iNN.trunc_fMM_sx`.
    ITruncF(Width, Width, Sx),
    /// `fNN.convert_iMM_sx`.
    FConvertI(Width, Width, Sx),
    /// `f32.demote_f64`.
    F32DemoteF64,
    /// `f64.promote_f32`.
    F64PromoteF32,
    /// `iNN.reinterpret_fNN`.
    IReinterpretF(Width),
    /// `fNN.reinterpret_iNN`.
    FReinterpretI(Width),
}

/// A function definition: its type-section index, extra locals, body.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FuncDef {
    /// Index into [`Module::types`].
    pub type_idx: u32,
    /// Extra local declarations (beyond parameters).
    pub locals: Vec<ValType>,
    /// The body (implicitly wrapped in a function-level block).
    pub body: Vec<WInstr>,
}

/// An import descriptor.
#[derive(Debug, Clone, PartialEq)]
pub enum ImportKind {
    /// Function import with its type-section index.
    Func(u32),
    /// Global import: type and mutability.
    Global(ValType, bool),
    /// Memory import with minimum page count.
    Memory(u32),
    /// Table import with minimum size.
    Table(u32),
}

/// One import.
#[derive(Debug, Clone, PartialEq)]
pub struct Import {
    /// Providing module name.
    pub module: String,
    /// Export name within that module.
    pub name: String,
    /// What is imported.
    pub kind: ImportKind,
}

/// An export descriptor.
#[derive(Debug, Clone, PartialEq)]
pub enum ExportKind {
    /// Function export (index into the combined function index space).
    Func(u32),
    /// Global export.
    Global(u32),
    /// Memory export.
    Memory(u32),
    /// Table export.
    Table(u32),
}

/// One export.
#[derive(Debug, Clone, PartialEq)]
pub struct Export {
    /// The export name.
    pub name: String,
    /// What is exported.
    pub kind: ExportKind,
}

/// A global definition.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalDef {
    /// The value type.
    pub ty: ValType,
    /// Mutability.
    pub mutable: bool,
    /// Constant initialiser (one const instruction).
    pub init: WInstr,
}

/// An element segment (populates the table at instantiation).
#[derive(Debug, Clone, PartialEq)]
pub struct ElemSegment {
    /// Offset into the table.
    pub offset: u32,
    /// Function indices.
    pub funcs: Vec<u32>,
}

/// A data segment (populates memory at instantiation).
#[derive(Debug, Clone, PartialEq)]
pub struct DataSegment {
    /// Byte offset into memory.
    pub offset: u32,
    /// The bytes.
    pub bytes: Vec<u8>,
}

/// A WebAssembly module.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Module {
    /// The type section.
    pub types: Vec<FuncType>,
    /// Imports (functions first in the function index space).
    pub imports: Vec<Import>,
    /// Defined functions.
    pub funcs: Vec<FuncDef>,
    /// Table minimum size (one table, Wasm 1.0), `None` = no table.
    pub table: Option<u32>,
    /// Memory minimum size in 64 KiB pages, `None` = no memory.
    pub memory: Option<u32>,
    /// Defined globals.
    pub globals: Vec<GlobalDef>,
    /// Exports.
    pub exports: Vec<Export>,
    /// Element segments.
    pub elems: Vec<ElemSegment>,
    /// Data segments.
    pub data: Vec<DataSegment>,
    /// Optional start function.
    pub start: Option<u32>,
}

impl Module {
    /// Number of imported functions (they precede defined ones in the
    /// function index space).
    pub fn num_func_imports(&self) -> usize {
        self.imports
            .iter()
            .filter(|i| matches!(i.kind, ImportKind::Func(_)))
            .count()
    }

    /// The type of function `idx` in the combined index space.
    pub fn func_type(&self, idx: u32) -> Option<&FuncType> {
        let n = self.num_func_imports();
        let ti = if (idx as usize) < n {
            let mut seen = 0;
            let mut ty = None;
            for im in &self.imports {
                if let ImportKind::Func(t) = im.kind {
                    if seen == idx as usize {
                        ty = Some(t);
                        break;
                    }
                    seen += 1;
                }
            }
            ty?
        } else {
            self.funcs.get(idx as usize - n)?.type_idx
        };
        self.types.get(ti as usize)
    }

    /// Resolves a block type to its function type; `None` when a
    /// `BlockType::Func` index is out of range. (Export hook for the
    /// CFG construction in `richwasm-analyze`.)
    pub fn block_func_type(&self, bt: &BlockType) -> Option<FuncType> {
        Some(match bt {
            BlockType::Empty => FuncType::default(),
            BlockType::Value(t) => FuncType {
                params: vec![],
                results: vec![*t],
            },
            BlockType::Func(i) => self.types.get(*i as usize).cloned()?,
        })
    }

    /// Interns a function type, returning its index.
    pub fn intern_type(&mut self, ft: FuncType) -> u32 {
        if let Some(i) = self.types.iter().position(|t| *t == ft) {
            i as u32
        } else {
            self.types.push(ft);
            (self.types.len() - 1) as u32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn func_type_lookup_spans_imports_and_defs() {
        let mut m = Module::default();
        let t0 = m.intern_type(FuncType {
            params: vec![ValType::I32],
            results: vec![],
        });
        let t1 = m.intern_type(FuncType {
            params: vec![],
            results: vec![ValType::I64],
        });
        assert_ne!(t0, t1);
        // Interning the same type is idempotent.
        assert_eq!(
            m.intern_type(FuncType {
                params: vec![ValType::I32],
                results: vec![]
            }),
            t0
        );
        m.imports.push(Import {
            module: "env".into(),
            name: "f".into(),
            kind: ImportKind::Func(t1),
        });
        m.funcs.push(FuncDef {
            type_idx: t0,
            locals: vec![],
            body: vec![],
        });
        assert_eq!(m.func_type(0).unwrap().results, vec![ValType::I64]);
        assert_eq!(m.func_type(1).unwrap().params, vec![ValType::I32]);
        assert!(m.func_type(2).is_none());
        assert_eq!(m.num_func_imports(), 1);
    }
}
