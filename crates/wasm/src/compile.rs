//! Flat-bytecode compilation of validated function bodies.
//!
//! The tree-walking interpreter in [`crate::exec`] re-traverses nested
//! [`WInstr`] trees and re-threads a `Flow` signal through every block on
//! every invoke. This module lowers each **validated** body once, at
//! artifact build time, into a linear [`Vec<Op>`] that the VM in
//! [`crate::vm`] executes with a program counter:
//!
//! * structured `block` / `loop` / `if` are flattened to jumps whose
//!   targets are pre-resolved by a single validator-visit-order walk (the
//!   same linearisation the CFG construction in `richwasm-analyze`
//!   performs — stack heights in validated code are static at every
//!   program point, so each branch's unwind is a compile-time constant);
//! * every branch op carries a [`BranchTarget`]: the target `pc`, how
//!   many values to `keep`, and the absolute stack `height` to truncate
//!   to — exactly the keep/truncate/extend unwind the tree-walker
//!   performs dynamically;
//! * call sites are reduced to plain indices resolved through the
//!   instance's function-address table (the same `Arc`-shared bodies /
//!   `invoke_addr` seam the tree-walker uses), with `call_indirect`'s
//!   expected type embedded in the op so no per-call type-table clone
//!   remains.
//!
//! **Fuel equivalence.** The tree-walker charges one step per dispatched
//! instruction (including `block`/`loop`/`if` entry, charged once — a
//! loop's header is charged when the `loop` instruction is dispatched,
//! not per iteration). The compiler preserves that accounting exactly:
//! each op corresponding to a dispatched instruction costs 1
//! ([`Op::cost`]), and the two synthetic ops the flattening introduces
//! (the jump over an `else` arm, the fall-off-the-end return) cost 0.
//! `loop` entry compiles to a [`Op::Meter`] *before* the back-edge
//! target, so iterating never re-charges it.
//!
//! **Superinstruction fusion.** A peephole pass (`fuse`) collapses the
//! hottest adjacent sequences (`local.get; const; ibin; local.set`,
//! `const; irel; if-false`, a same-global read-modify-write, …) into
//! single fused ops that cost the *sum* of their parts, halving or
//! quartering dispatch count on lowered loop bodies. Fusion never
//! crosses a branch-target boundary (no jump can land mid-fusion), and
//! only fuses sub-sequences that are pure or frame-local up to an
//! optional final side effect — so batch-charging their fuel is exact:
//! if the budget crosses anywhere inside a fused op the VM traps with
//! the same step count, the same memory, and the same globals as the
//! tree-walker trapping mid-sequence (skipped sub-ops could only have
//! touched the operand stack or locals of the frame being abandoned).
//! Trapping operators (`div`/`rem`) are never fused, so a fused op's
//! only possible traps are fuel (checked before any effect) and a fused
//! load's bounds check. A load in final position traps with every
//! sub-op charged on both engines; a mid-sequence load (e.g. in
//! [`Op::GetLoadSet`]) gives back the steps the tree-walker would not
//! yet have charged before trapping, so `last_steps()` agrees there
//! too.
//!
//! **Spec branches, total compilation.** Both tiers follow the Wasm
//! spec: a branch to a `block`/`if` keeps its results and truncates to
//! the height below its parameters (the height normal completion leaves
//! too), and the function body is an implicit outermost block whose end
//! is the fall-off-the-end epilogue, so a branch to the function label
//! returns. Every validated body therefore compiles; `None` in a
//! [`CompiledModule`] only marks a malformed body that validation would
//! have rejected.

use std::sync::Arc;

use crate::ast::*;

/// A pre-resolved branch: jump to `pc` after keeping the top `keep`
/// values and truncating the operand stack to absolute `height`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchTarget {
    /// Target program counter.
    pub pc: u32,
    /// Values carried across the unwind (block results / loop params).
    pub keep: u32,
    /// Absolute stack height to truncate to before re-pushing `keep`.
    pub height: u32,
}

/// `br_table` payload: boxed so [`Op`] stays small.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BrTableData {
    /// Indexed targets.
    pub targets: Vec<BranchTarget>,
    /// Default target for out-of-range indices.
    pub default: BranchTarget,
}

/// One flat-bytecode operation. Operand-stack slots are raw `u64` bit
/// patterns (32-bit values zero-extended — the same representation as
/// `HostVal::bits()` in the embedder, so the typed call path converts
/// nothing but trivial bit moves).
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Trap: `unreachable executed`.
    Unreachable,
    /// No effect (still costs one step, like the tree-walker's `nop`).
    Nop,
    /// `block` / `loop` entry: charges the step the tree-walker charges
    /// when dispatching the structured instruction; no other effect.
    Meter,
    /// Unconditional jump, cost 0 — synthetic (end of a `then` arm).
    Jump(u32),
    /// `if`: pops the condition, falls through on non-zero, jumps to the
    /// else arm (or the end) on zero.
    IfFalse(u32),
    /// `br`.
    Br(BranchTarget),
    /// `br_if`: pops the condition, branches on non-zero.
    BrIf(BranchTarget),
    /// `br_table`: pops the index, selects a target.
    BrTable(Box<BrTableData>),
    /// `return`: keep the top `keep` values as the function's results.
    Return {
        /// Number of results the function returns.
        keep: u32,
    },
    /// Fall off the end of the body, cost 0 — synthetic epilogue.
    FallRet {
        /// Number of results the function returns.
        keep: u32,
    },
    /// `call` of a module-local function index (resolved through the
    /// instance's function-address table at run time).
    Call(u32),
    /// `call_indirect` with the expected function type pre-resolved from
    /// the module's type section.
    CallIndirect(Box<FuncType>),
    /// `drop`.
    Drop,
    /// `select`.
    Select,
    /// `local.get`.
    LocalGet(u32),
    /// `local.set`.
    LocalSet(u32),
    /// `local.tee`.
    LocalTee(u32),
    /// `global.get` (module-local index; the store keeps typed values, so
    /// the VM converts at the access).
    GlobalGet(u32),
    /// `global.set` with the global's declared type (needed to rebuild
    /// the typed store value from the raw slot).
    GlobalSet {
        /// Module-local global index.
        idx: u32,
        /// The global's declared value type.
        ty: ValType,
    },
    /// Typed load with static offset.
    Load {
        /// Loaded value type (determines the access width).
        ty: ValType,
        /// Static address offset.
        offset: u32,
    },
    /// Typed store with static offset.
    Store {
        /// Stored value type (determines the access width).
        ty: ValType,
        /// Static address offset.
        offset: u32,
    },
    /// `i32.load8_u`.
    Load8U(u32),
    /// `i32.store8`.
    Store8(u32),
    /// `memory.size`.
    MemorySize,
    /// `memory.grow`.
    MemoryGrow,
    /// Any constant, as its slot bit pattern.
    Const(u64),
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
    // --- Fused superinstructions (see the module docs). Field order is
    // chosen so every variant stays within 16 bytes. ---
    /// Fused `local.get i; const c; ibin` — fields `(w, op, i, c)`,
    /// cost 3. Pushes `local[i] op c`.
    GetConstOp(Width, IBinOp, u32, u64),
    /// Fused `local.get i; const c; ibin; local.set j` — fields
    /// `(w, op, i, j, c)`, cost 4. Sets `local[j] = local[i] op c`
    /// without touching the operand stack.
    GetConstOpSet(Width, IBinOp, u16, u16, u64),
    /// Fused same-global read-modify-write `global.get g; const c; ibin;
    /// global.set g` — fields `(w, op, ty, g, c)`, cost 4.
    GlobalIncr(Width, IBinOp, ValType, u16, u64),
    /// Fused `const c; ibin` — fields `(w, op, c)`, cost 2. Replaces the
    /// top of stack `a` with `a op c`.
    ConstOp(Width, IBinOp, u64),
    /// Fused `const c; irel; if-false` — fields `(w, op, pc, c)`,
    /// cost 3. Pops `a`, jumps to `pc` unless `a op c` holds.
    ConstRelIfFalse(Width, IRelOp, u32, u64),
    /// Fused `local.get i; load` — fields `(ty, offset, i)`, cost 2.
    GetLoad(ValType, u32, u32),
    /// Fused `iNN.eqz; br_if` — cost 2. Pops `a`, branches if `a == 0`.
    TestBr(Width, BranchTarget),
    /// Fused `local.get i; iNN.eqz` — cost 2.
    GetTest(Width, u32),
    /// Fused `local.get i; local.set j` — cost 2.
    Copy(u16, u16),
    /// Fused `local.get i; local.get j` — cost 2.
    Get2(u16, u16),
    /// Fused `const c; local.set j` — fields `(j, c)`, cost 2.
    ConstSet(u16, u64),
    /// Fused `local.get i; const c; irel; br_if` — cost 4. Branches if
    /// `local[i] op c` holds. Boxed: the payload outgrows the inline
    /// budget.
    GetConstRelBr(Box<CmpBrData>),
    /// Fused `local.get i; const c; irel; if-false` — cost 4. Falls
    /// through if `local[i] op c` holds, else jumps to `t.pc` (a plain
    /// jump — `if` arms don't unwind, so `t.keep`/`t.height` are
    /// unused).
    GetConstRelIfFalse(Box<CmpBrData>),
    /// Fused `irel; br_if` — cost 2. Pops `b` then `a`, branches if
    /// `a op b` holds.
    RelBr(Width, IRelOp, BranchTarget),
    /// Fused `local.get i; irel; if-false` — fields `(w, op, i, pc)`,
    /// cost 3. Pops `a`, jumps to `pc` unless `a op local[i]` holds.
    GetRelIfFalse(Width, IRelOp, u16, u32),
    /// Fused `local.get i; load; local.set j` — fields
    /// `(ty, offset, i, j)`, cost 3.
    GetLoadSet(ValType, u32, u16, u16),
    /// Fused `local.get i; local.get j; store` — fields
    /// `(ty, offset, i, j)`, cost 3. Stores `local[j]` at
    /// `local[i] + offset`.
    Get2Store(ValType, u32, u16, u16),
    /// Fused `const c; ibin; local.set j` — fields `(w, op, j, c)`,
    /// cost 3. Pops `a`, sets `local[j] = a op c`.
    ConstOpSet(Width, IBinOp, u16, u64),
    /// Fused `global.get g; local.set j` — cost 2.
    GlobalGetSet(u16, u16),
    /// Fused pair of adjacent `block`/`loop` entry meters — cost 2.
    Meter2,
    /// Fused `local.get i; iNN.eqz; br_if` — cost 3. Branches if
    /// `local[i] == 0`.
    GetTestBr(Width, u16, BranchTarget),
    /// Fused `local.get i; iNN.eqz; if-false` — fields `(w, i, pc)`,
    /// cost 3. Jumps to `pc` if `local[i] != 0`.
    GetTestIfFalse(Width, u16, u32),
    /// Fused `local.get i; global.get g; store` — fields
    /// `(ty, offset, i, g)`, cost 3. Stores `global[g]` at
    /// `local[i] + offset`.
    GetGlobalStore(ValType, u32, u16, u16),
    /// Fused `local.get i; load; global.set g` — fields
    /// `(ty, gty, offset, i, g)`, cost 3. Sets `global[g]` (of type
    /// `gty`) to `mem[local[i] + offset]` (loaded at `ty`'s width).
    GetLoadGlobalSet(ValType, ValType, u32, u16, u16),
    /// Fused `local.tee i; local.get i; load` (same local) — fields
    /// `(ty, offset, i)`, cost 3. With `v` on top of the stack: sets
    /// `local[i] = v`, keeps `v`, pushes `mem[v + offset]`.
    TeeGetLoad(ValType, u32, u16),
    /// Fused `local.get i; const c; ibin; local.get j; ibin` — cost 5.
    /// Pushes `(local[i] op1 c) op2 local[j]`. Boxed: the payload
    /// outgrows the inline budget.
    GetConstOpGetOp(Box<ArithChainData>),
    /// Fused `const c; call f` — fields `(f, c)`, cost 2. Pushes the
    /// constant (typically the last argument) and calls function `f`.
    ConstCall(u32, u64),
    /// [`Op::GetTestBr`] with the preceding `block`/`loop` entry meter
    /// folded in — cost 4.
    MeterGetTestBr(Width, u16, BranchTarget),
    /// Fused `local.get i` + `block`/`loop` entry meter — cost 2.
    GetMeter(u32),
    /// Fused `local.get i; const c; ibin; global.set g` — fields
    /// `(w, op, gty, i, g, c)`, cost 4. Sets `global[g]` (of type `gty`)
    /// to `local[i] op c`.
    GetConstOpGlobalSet(Width, IBinOp, ValType, u16, u16, u64),
    /// Fused `const c; local.set j1; global.get g; local.set j2` —
    /// fields `(j1, g, j2, c)`, cost 4.
    ConstSetGlobalGetSet(u16, u16, u16, u64),
    /// Fused `local.get i; const c1; ibin; const c2; ibin; local.set j`
    /// — cost 6. Sets `local[j] = (local[i] op1 c1) op2 c2` without
    /// touching the operand stack. Boxed: the payload outgrows the
    /// inline budget.
    GetConstOpConstOpSet(Box<ArithFoldData>),
    /// Fused `local.get i; const c; ibin; return` (single-result
    /// functions only) — fields `(w, op, i, c)`, cost 4. Returns
    /// `local[i] op c`.
    GetConstOpRet(Width, IBinOp, u16, u64),
    /// Fused `local.get i; load; local.get j; irel; if-false` — cost 5.
    /// Falls through if `mem[local[i] + offset] op local[j]` holds, else
    /// jumps to `pc`. Boxed: the payload outgrows the inline budget.
    GetLoadRelIfFalse(Box<LoadCmpData>),
    /// Fused `local.get a; local.set b; local.get i; const c; ibin;
    /// local.set j` — cost 6. Sets `local[b] = local[a]` then
    /// `local[j] = local[i] op c` (in that order — `b` may alias `i`).
    /// Boxed: the payload outgrows the inline budget.
    CopyGetConstOpSet(Box<CopyArithData>),
    /// Fused `local.set b; local.get b; local.get j; store` — fields
    /// `(ty, offset, b, j)`, cost 4. Pops the address `a`, sets
    /// `local[b] = a`, stores `local[j]` at `a + offset`.
    SetGet2Store(ValType, u32, u16, u16),
}

/// Payload of [`Op::GetLoadRelIfFalse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadCmpData {
    /// Loaded value type (determines the access width).
    pub ty: ValType,
    /// Comparison width.
    pub w: Width,
    /// Comparison operator.
    pub op: IRelOp,
    /// Local holding the load address.
    pub i: u16,
    /// Local holding the comparison's right operand.
    pub j: u16,
    /// Static address offset.
    pub offset: u32,
    /// Fall-through-failed jump target.
    pub pc: u32,
}

/// Payload of [`Op::CopyGetConstOpSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyArithData {
    /// Operator width.
    pub w: Width,
    /// The fused operator.
    pub op: IBinOp,
    /// Copy source local.
    pub a: u16,
    /// Copy destination local.
    pub b: u16,
    /// Local holding the arithmetic left operand.
    pub i: u16,
    /// Local receiving the arithmetic result.
    pub j: u16,
    /// The fused constant.
    pub c: u64,
}

/// Payload of [`Op::GetConstOpConstOpSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArithFoldData {
    /// Operator width (shared by both operations).
    pub w: Width,
    /// First operator (applied as `local[i] op1 c1`).
    pub op1: IBinOp,
    /// Second operator (applied as `_ op2 c2`).
    pub op2: IBinOp,
    /// Local holding the initial operand.
    pub i: u16,
    /// Local receiving the result.
    pub j: u16,
    /// First fused constant.
    pub c1: u64,
    /// Second fused constant.
    pub c2: u64,
}

/// Payload of [`Op::GetConstOpGetOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArithChainData {
    /// Operator width (shared by both operations).
    pub w: Width,
    /// First operator (applied as `local[i] op1 c`).
    pub op1: IBinOp,
    /// Second operator (applied as `_ op2 local[j]`).
    pub op2: IBinOp,
    /// Local holding the first left operand.
    pub i: u32,
    /// Local holding the second right operand.
    pub j: u32,
    /// The fused constant.
    pub c: u64,
}

/// Payload of the boxed fused compare-branch quads
/// ([`Op::GetConstRelBr`] / [`Op::GetConstRelIfFalse`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CmpBrData {
    /// Comparison width.
    pub w: Width,
    /// Comparison operator.
    pub op: IRelOp,
    /// Local holding the left operand.
    pub i: u32,
    /// Right operand (the fused constant).
    pub c: u64,
    /// Branch target (for the `if-false` form only `t.pc` applies).
    pub t: BranchTarget,
}

impl Op {
    /// How many steps of the instruction budget executing this op
    /// charges. The two synthetic control ops the flattening introduces
    /// are free, fused superinstructions charge the sum of their parts,
    /// and everything else corresponds 1:1 to a dispatched instruction
    /// in the tree-walker.
    pub fn cost(&self) -> u64 {
        match self {
            Op::Jump(_) | Op::FallRet { .. } => 0,
            Op::ConstOp(..)
            | Op::GetLoad(..)
            | Op::TestBr(..)
            | Op::GetTest(..)
            | Op::Copy(..)
            | Op::Get2(..)
            | Op::ConstSet(..)
            | Op::RelBr(..)
            | Op::GlobalGetSet(..)
            | Op::Meter2
            | Op::ConstCall(..)
            | Op::GetMeter(..) => 2,
            Op::GetConstOp(..)
            | Op::ConstRelIfFalse(..)
            | Op::GetRelIfFalse(..)
            | Op::GetLoadSet(..)
            | Op::Get2Store(..)
            | Op::ConstOpSet(..)
            | Op::GetTestBr(..)
            | Op::GetTestIfFalse(..)
            | Op::GetGlobalStore(..)
            | Op::GetLoadGlobalSet(..)
            | Op::TeeGetLoad(..) => 3,
            Op::GetConstOpSet(..)
            | Op::GlobalIncr(..)
            | Op::GetConstRelBr(..)
            | Op::GetConstRelIfFalse(..)
            | Op::MeterGetTestBr(..)
            | Op::GetConstOpGlobalSet(..)
            | Op::ConstSetGlobalGetSet(..)
            | Op::GetConstOpRet(..)
            | Op::SetGet2Store(..) => 4,
            Op::GetConstOpGetOp(..) | Op::GetLoadRelIfFalse(..) => 5,
            Op::GetConstOpConstOpSet(..) | Op::CopyGetConstOpSet(..) => 6,
            _ => 1,
        }
    }
}

/// One compiled function body.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledFunc {
    /// Number of parameters (the first locals).
    pub nparams: u32,
    /// Extra declared locals beyond the parameters (zero-initialised —
    /// every type's zero is the all-zero bit pattern, so the VM needs no
    /// types here).
    pub nlocals: u32,
    /// Declared result types, used to rebuild typed values at the exit
    /// boundary.
    pub result_types: Vec<ValType>,
    /// Static maximum operand-stack height, for exact preallocation.
    pub max_stack: u32,
    /// The flat body.
    pub code: Vec<Op>,
}

/// The compiled form of a module: one entry per *defined* function, in
/// definition order. `None` marks a malformed body the compiler could
/// not compile; [`crate::exec::WasmLinker::attach_compiled`] refuses a
/// module with one.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompiledModule {
    /// Per-function compilations.
    pub funcs: Vec<Option<Arc<CompiledFunc>>>,
}

impl CompiledModule {
    /// How many functions have a compiled form.
    pub fn compiled_count(&self) -> usize {
        self.funcs.iter().filter(|f| f.is_some()).count()
    }
}

/// Compiles every defined function of a **validated** module; each
/// entry is `Some`. Unvalidated input may yield `None` entries for
/// malformed bodies.
pub fn compile_module(m: &Module) -> CompiledModule {
    let globals = global_types(m);
    CompiledModule {
        funcs: m
            .funcs
            .iter()
            .map(|f| compile_func(m, f, &globals).map(Arc::new))
            .collect(),
    }
}

/// The global index space: imported globals first, then defined ones —
/// mirroring the instance's `global_addrs` layout.
fn global_types(m: &Module) -> Vec<ValType> {
    let mut out = Vec::new();
    for im in &m.imports {
        if let ImportKind::Global(t, _) = im.kind {
            out.push(t);
        }
    }
    for g in &m.globals {
        out.push(g.ty);
    }
    out
}

/// Marker: the body is malformed (validation would reject it), so the
/// function gets no compiled form.
struct Malformed;

enum FrameKind {
    BlockLike,
    Loop,
    If,
}

struct Frame {
    kind: FrameKind,
    /// Stack height at entry, params included (after the condition pop,
    /// for `if`).
    entry_height: u32,
    params: u32,
    results: u32,
    /// Back-edge target (`loop` only): the pc after the entry meter.
    header_pc: u32,
    /// Ops whose branch target is this frame's end, patched on pop.
    patches: Vec<Patch>,
}

/// A forward-branch fixup: which op (and, for `br_table`, which slot)
/// needs its `pc` set to the frame's end.
enum Patch {
    Br(usize),
    Jump(usize),
    Table(usize, usize),
    TableDefault(usize),
}

struct Compiler<'m> {
    m: &'m Module,
    globals: &'m [ValType],
    code: Vec<Op>,
    height: u32,
    max_height: u32,
    frames: Vec<Frame>,
    unreachable: bool,
    nresults: u32,
}

fn compile_func(m: &Module, f: &FuncDef, globals: &[ValType]) -> Option<CompiledFunc> {
    let ty = m.types.get(f.type_idx as usize)?;
    let mut c = Compiler {
        m,
        globals,
        code: Vec::new(),
        height: 0,
        max_height: 0,
        frames: Vec::new(),
        unreachable: false,
        nresults: ty.results.len() as u32,
    };
    // The body is an implicit outermost block: a branch to the function
    // label is a forward branch to the `FallRet` epilogue.
    c.frames.push(Frame {
        kind: FrameKind::BlockLike,
        entry_height: 0,
        params: 0,
        results: c.nresults,
        header_pc: 0,
        patches: Vec::new(),
    });
    c.seq(&f.body).ok()?;
    let frame = c.frames.pop().expect("function frame pushed above");
    let end = c.pc();
    c.patch_frame(frame, end);
    let keep = c.nresults;
    c.code.push(Op::FallRet { keep });
    Some(CompiledFunc {
        nparams: ty.params.len() as u32,
        nlocals: f.locals.len() as u32,
        result_types: ty.results.clone(),
        max_stack: c.max_height,
        code: fuse(&c.code),
    })
}

/// `true` for integer operators that can never trap (everything but
/// `div`/`rem`) — the precondition for folding an [`Op::IBin`] into a
/// fused superinstruction.
fn fusable_ibin(op: IBinOp) -> bool {
    !matches!(op, IBinOp::Div(_) | IBinOp::Rem(_))
}

/// The superinstruction peephole (see the module docs): collapses hot
/// adjacent sequences into single fused ops, never across a pc some
/// branch targets, then remaps every embedded branch pc into the fused
/// index space.
fn fuse(code: &[Op]) -> Vec<Op> {
    let mut is_target = vec![false; code.len() + 1];
    {
        let mut mark = |pc: u32| is_target[pc as usize] = true;
        for op in code {
            match op {
                Op::Jump(pc) | Op::IfFalse(pc) => mark(*pc),
                Op::Br(t) | Op::BrIf(t) => mark(t.pc),
                Op::BrTable(d) => {
                    for t in &d.targets {
                        mark(t.pc);
                    }
                    mark(d.default.pc);
                }
                _ => {}
            }
        }
    }
    let u16s = |i: u32, j: u32| u16::try_from(i).ok().zip(u16::try_from(j).ok());
    let mut out: Vec<Op> = Vec::with_capacity(code.len());
    let mut newpos = vec![0u32; code.len() + 1];
    let mut i = 0;
    while i < code.len() {
        // A fusion of `k` ops starting at `i` is legal only if no branch
        // lands strictly inside it ( `i` itself may be a target).
        let free = |k: usize| (i + 1..i + k).all(|j| !is_target[j]);
        let fused: Option<(Op, usize)> = match &code[i..] {
            [Op::LocalGet(a), Op::Const(c1), Op::IBin(w1, op1), Op::Const(c2), Op::IBin(w2, op2), Op::LocalSet(b), ..]
                if w1 == w2 && fusable_ibin(*op1) && fusable_ibin(*op2) && free(6) =>
            {
                u16s(*a, *b).map(|(a, b)| {
                    let d = ArithFoldData {
                        w: *w1,
                        op1: *op1,
                        op2: *op2,
                        i: a,
                        j: b,
                        c1: *c1,
                        c2: *c2,
                    };
                    (Op::GetConstOpConstOpSet(Box::new(d)), 6)
                })
            }
            [Op::LocalGet(a), Op::LocalSet(b), Op::LocalGet(x), Op::Const(c), Op::IBin(w, op), Op::LocalSet(y), ..]
                if fusable_ibin(*op) && free(6) =>
            {
                u16s(*a, *b).zip(u16s(*x, *y)).map(|((a, b), (i, j))| {
                    let d = CopyArithData {
                        w: *w,
                        op: *op,
                        a,
                        b,
                        i,
                        j,
                        c: *c,
                    };
                    (Op::CopyGetConstOpSet(Box::new(d)), 6)
                })
            }
            [Op::LocalGet(a), Op::Load { ty, offset }, Op::LocalGet(b), Op::IRel(w, op), Op::IfFalse(pc), ..]
                if free(5) =>
            {
                u16s(*a, *b).map(|(i, j)| {
                    let d = LoadCmpData {
                        ty: *ty,
                        w: *w,
                        op: *op,
                        i,
                        j,
                        offset: *offset,
                        pc: *pc,
                    };
                    (Op::GetLoadRelIfFalse(Box::new(d)), 5)
                })
            }
            [Op::LocalGet(a), Op::Const(c), Op::IBin(w1, op1), Op::LocalGet(b), Op::IBin(w2, op2), ..]
                if w1 == w2 && fusable_ibin(*op1) && fusable_ibin(*op2) && free(5) =>
            {
                let d = ArithChainData {
                    w: *w1,
                    op1: *op1,
                    op2: *op2,
                    i: *a,
                    j: *b,
                    c: *c,
                };
                Some((Op::GetConstOpGetOp(Box::new(d)), 5))
            }
            [Op::GlobalGet(g), Op::Const(c), Op::IBin(w, op), Op::GlobalSet { idx, ty }, ..]
                if g == idx && fusable_ibin(*op) && free(4) =>
            {
                u16::try_from(*g)
                    .ok()
                    .map(|g| (Op::GlobalIncr(*w, *op, *ty, g, *c), 4))
            }
            [Op::LocalGet(a), Op::Const(c), Op::IBin(w, op), Op::LocalSet(b), ..]
                if fusable_ibin(*op) && free(4) =>
            {
                u16s(*a, *b).map(|(a, b)| (Op::GetConstOpSet(*w, *op, a, b, *c), 4))
            }
            [Op::LocalGet(a), Op::Const(c), Op::IBin(w, op), Op::GlobalSet { idx, ty }, ..]
                if fusable_ibin(*op) && free(4) =>
            {
                u16s(*a, *idx).map(|(a, g)| (Op::GetConstOpGlobalSet(*w, *op, *ty, a, g, *c), 4))
            }
            [Op::LocalGet(a), Op::Const(c), Op::IBin(w, op), Op::Return { keep: 1 }, ..]
                if fusable_ibin(*op) && free(4) =>
            {
                u16::try_from(*a)
                    .ok()
                    .map(|a| (Op::GetConstOpRet(*w, *op, a, *c), 4))
            }
            [Op::LocalSet(a), Op::LocalGet(b), Op::LocalGet(j), Op::Store { ty, offset }, ..]
                if a == b && free(4) =>
            {
                u16s(*a, *j).map(|(b, j)| (Op::SetGet2Store(*ty, *offset, b, j), 4))
            }
            [Op::Meter, Op::LocalGet(a), Op::ITest(w), Op::BrIf(t), ..] if free(4) => {
                u16::try_from(*a)
                    .ok()
                    .map(|a| (Op::MeterGetTestBr(*w, a, *t), 4))
            }
            [Op::Const(c), Op::LocalSet(j1), Op::GlobalGet(g), Op::LocalSet(j2), ..] if free(4) => {
                u16s(*j1, *g)
                    .zip(u16::try_from(*j2).ok())
                    .map(|((j1, g), j2)| (Op::ConstSetGlobalGetSet(j1, g, j2, *c), 4))
            }
            [Op::LocalGet(a), Op::Const(c), Op::IRel(w, op), Op::BrIf(t), ..] if free(4) => {
                let d = CmpBrData {
                    w: *w,
                    op: *op,
                    i: *a,
                    c: *c,
                    t: *t,
                };
                Some((Op::GetConstRelBr(Box::new(d)), 4))
            }
            [Op::LocalGet(a), Op::Const(c), Op::IRel(w, op), Op::IfFalse(pc), ..] if free(4) => {
                let d = CmpBrData {
                    w: *w,
                    op: *op,
                    i: *a,
                    c: *c,
                    t: BranchTarget {
                        pc: *pc,
                        keep: 0,
                        height: 0,
                    },
                };
                Some((Op::GetConstRelIfFalse(Box::new(d)), 4))
            }
            [Op::Const(c), Op::IRel(w, op), Op::IfFalse(pc), ..] if free(3) => {
                Some((Op::ConstRelIfFalse(*w, *op, *pc, *c), 3))
            }
            [Op::LocalGet(a), Op::Const(c), Op::IBin(w, op), ..]
                if fusable_ibin(*op) && free(3) =>
            {
                Some((Op::GetConstOp(*w, *op, *a, *c), 3))
            }
            [Op::LocalGet(a), Op::Load { ty, offset }, Op::LocalSet(b), ..] if free(3) => {
                u16s(*a, *b).map(|(a, b)| (Op::GetLoadSet(*ty, *offset, a, b), 3))
            }
            [Op::LocalGet(a), Op::LocalGet(b), Op::Store { ty, offset }, ..] if free(3) => {
                u16s(*a, *b).map(|(a, b)| (Op::Get2Store(*ty, *offset, a, b), 3))
            }
            [Op::LocalGet(a), Op::IRel(w, op), Op::IfFalse(pc), ..] if free(3) => u16::try_from(*a)
                .ok()
                .map(|a| (Op::GetRelIfFalse(*w, *op, a, *pc), 3)),
            [Op::LocalGet(a), Op::ITest(w), Op::BrIf(t), ..] if free(3) => u16::try_from(*a)
                .ok()
                .map(|a| (Op::GetTestBr(*w, a, *t), 3)),
            [Op::LocalGet(a), Op::ITest(w), Op::IfFalse(pc), ..] if free(3) => u16::try_from(*a)
                .ok()
                .map(|a| (Op::GetTestIfFalse(*w, a, *pc), 3)),
            [Op::LocalGet(a), Op::GlobalGet(g), Op::Store { ty, offset }, ..] if free(3) => {
                u16s(*a, *g).map(|(a, g)| (Op::GetGlobalStore(*ty, *offset, a, g), 3))
            }
            [Op::LocalGet(a), Op::Load { ty, offset }, Op::GlobalSet { idx, ty: gty }, ..]
                if free(3) =>
            {
                u16s(*a, *idx).map(|(a, g)| (Op::GetLoadGlobalSet(*ty, *gty, *offset, a, g), 3))
            }
            [Op::LocalTee(a), Op::LocalGet(b), Op::Load { ty, offset }, ..]
                if a == b && free(3) =>
            {
                u16::try_from(*a)
                    .ok()
                    .map(|a| (Op::TeeGetLoad(*ty, *offset, a), 3))
            }
            [Op::Const(c), Op::IBin(w, op), Op::LocalSet(b), ..]
                if fusable_ibin(*op) && free(3) =>
            {
                u16::try_from(*b)
                    .ok()
                    .map(|b| (Op::ConstOpSet(*w, *op, b, *c), 3))
            }
            [Op::Const(c), Op::IBin(w, op), ..] if fusable_ibin(*op) && free(2) => {
                Some((Op::ConstOp(*w, *op, *c), 2))
            }
            [Op::LocalGet(a), Op::Load { ty, offset }, ..] if free(2) => {
                Some((Op::GetLoad(*ty, *offset, *a), 2))
            }
            [Op::IRel(w, op), Op::BrIf(t), ..] if free(2) => Some((Op::RelBr(*w, *op, *t), 2)),
            [Op::LocalGet(a), Op::ITest(w), ..] if free(2) => Some((Op::GetTest(*w, *a), 2)),
            [Op::ITest(w), Op::BrIf(t), ..] if free(2) => Some((Op::TestBr(*w, *t), 2)),
            [Op::GlobalGet(g), Op::LocalSet(b), ..] if free(2) => {
                u16s(*g, *b).map(|(g, b)| (Op::GlobalGetSet(g, b), 2))
            }
            [Op::LocalGet(a), Op::LocalSet(b), ..] if free(2) => {
                u16s(*a, *b).map(|(a, b)| (Op::Copy(a, b), 2))
            }
            [Op::LocalGet(a), Op::LocalGet(b), ..] if free(2) => {
                u16s(*a, *b).map(|(a, b)| (Op::Get2(a, b), 2))
            }
            [Op::Const(c), Op::LocalSet(b), ..] if free(2) => {
                u16::try_from(*b).ok().map(|b| (Op::ConstSet(b, *c), 2))
            }
            [Op::Const(c), Op::Call(f), ..] if free(2) => Some((Op::ConstCall(*f, *c), 2)),
            [Op::LocalGet(a), Op::Meter, ..] if free(2) => Some((Op::GetMeter(*a), 2)),
            [Op::Meter, Op::Meter, ..] if free(2) => Some((Op::Meter2, 2)),
            _ => None,
        };
        let (op, k) = fused.unwrap_or_else(|| (code[i].clone(), 1));
        // Interior positions can't be branch targets, but map them to
        // the fused op anyway so the remap below is total.
        for j in 0..k {
            newpos[i + j] = out.len() as u32;
        }
        out.push(op);
        i += k;
    }
    newpos[code.len()] = out.len() as u32;
    let remap = |pc: u32| newpos[pc as usize];
    for op in &mut out {
        match op {
            Op::Jump(pc)
            | Op::IfFalse(pc)
            | Op::ConstRelIfFalse(_, _, pc, _)
            | Op::GetRelIfFalse(_, _, _, pc)
            | Op::GetTestIfFalse(_, _, pc) => *pc = remap(*pc),
            Op::GetLoadRelIfFalse(d) => d.pc = remap(d.pc),
            Op::Br(t)
            | Op::BrIf(t)
            | Op::TestBr(_, t)
            | Op::RelBr(_, _, t)
            | Op::GetTestBr(_, _, t)
            | Op::MeterGetTestBr(_, _, t) => t.pc = remap(t.pc),
            Op::GetConstRelBr(d) | Op::GetConstRelIfFalse(d) => d.t.pc = remap(d.t.pc),
            Op::BrTable(d) => {
                for t in &mut d.targets {
                    t.pc = remap(t.pc);
                }
                d.default.pc = remap(d.default.pc);
            }
            _ => {}
        }
    }
    out
}

impl Compiler<'_> {
    fn pc(&self) -> u32 {
        self.code.len() as u32
    }

    fn push_n(&mut self, n: u32) {
        self.height += n;
        self.max_height = self.max_height.max(self.height);
    }

    fn pop_n(&mut self, n: u32) -> Result<(), Malformed> {
        // Validated code never underflows.
        self.height = self.height.checked_sub(n).ok_or(Malformed)?;
        Ok(())
    }

    /// Resolves relative label `l` to a pre-computed unwind. Forward
    /// targets (block/if ends, the function epilogue) are recorded for
    /// patching; the caller supplies the patch constructor for its op
    /// shape. Either way the unwind truncates to the frame's entry
    /// height minus its params: a loop re-receives its params, a block
    /// keeps its results.
    fn target(
        &mut self,
        l: u32,
        patch: impl FnOnce(usize) -> Patch,
    ) -> Result<BranchTarget, Malformed> {
        let idx = self
            .frames
            .len()
            .checked_sub(1 + l as usize)
            .ok_or(Malformed)?;
        let op_idx = self.code.len();
        let f = &mut self.frames[idx];
        let height = f.entry_height.checked_sub(f.params).ok_or(Malformed)?;
        match f.kind {
            FrameKind::Loop => Ok(BranchTarget {
                pc: f.header_pc,
                keep: f.params,
                height,
            }),
            FrameKind::BlockLike | FrameKind::If => {
                f.patches.push(patch(op_idx));
                Ok(BranchTarget {
                    pc: 0, // patched when the frame ends
                    keep: f.results,
                    height,
                })
            }
        }
    }

    /// Patches every recorded forward branch of `frame` to `end_pc`.
    fn patch_frame(&mut self, frame: Frame, end_pc: u32) {
        for p in frame.patches {
            match p {
                Patch::Br(i) => match &mut self.code[i] {
                    Op::Br(t) | Op::BrIf(t) => t.pc = end_pc,
                    _ => unreachable!("patch points at a non-branch op"),
                },
                Patch::Jump(i) => match &mut self.code[i] {
                    Op::Jump(pc) => *pc = end_pc,
                    _ => unreachable!("patch points at a non-jump op"),
                },
                Patch::Table(i, slot) => match &mut self.code[i] {
                    Op::BrTable(d) => d.targets[slot].pc = end_pc,
                    _ => unreachable!("patch points at a non-table op"),
                },
                Patch::TableDefault(i) => match &mut self.code[i] {
                    Op::BrTable(d) => d.default.pc = end_pc,
                    _ => unreachable!("patch points at a non-table op"),
                },
            }
        }
    }

    fn block_arity(&self, bt: &BlockType) -> Result<(u32, u32), Malformed> {
        let ft = self.m.block_func_type(bt).ok_or(Malformed)?;
        Ok((ft.params.len() as u32, ft.results.len() as u32))
    }

    fn seq(&mut self, body: &[WInstr]) -> Result<(), Malformed> {
        for e in body {
            if self.unreachable {
                // Dead code: the tree-walker never executes it, so the
                // flat body simply omits it (branches out of it cannot
                // fire either). Reachability resumes at the enclosing
                // construct's end.
                continue;
            }
            self.instr(e)?;
        }
        Ok(())
    }

    #[allow(clippy::too_many_lines)]
    fn instr(&mut self, e: &WInstr) -> Result<(), Malformed> {
        use WInstr::*;
        match e {
            Unreachable => {
                self.code.push(Op::Unreachable);
                self.unreachable = true;
            }
            Nop => self.code.push(Op::Nop),
            Block(bt, body) => {
                let (p, r) = self.block_arity(bt)?;
                // The params stay on the stack for the body to consume.
                self.code.push(Op::Meter);
                self.frames.push(Frame {
                    kind: FrameKind::BlockLike,
                    entry_height: self.height,
                    params: p,
                    results: r,
                    header_pc: 0,
                    patches: Vec::new(),
                });
                self.seq(body)?;
                let frame = self.frames.pop().expect("frame pushed above");
                let entry = frame.entry_height;
                let end = self.pc();
                self.patch_frame(frame, end);
                // Normal completion: the body consumed the params and
                // pushed the results.
                self.height = entry.checked_sub(p).ok_or(Malformed)? + r;
                self.max_height = self.max_height.max(self.height);
                self.unreachable = false;
            }
            Loop(bt, body) => {
                let (p, r) = self.block_arity(bt)?;
                if p > self.height {
                    return Err(Malformed);
                }
                self.code.push(Op::Meter);
                let header_pc = self.pc();
                self.frames.push(Frame {
                    kind: FrameKind::Loop,
                    entry_height: self.height,
                    params: p,
                    results: r,
                    header_pc,
                    patches: Vec::new(),
                });
                self.seq(body)?;
                let frame = self.frames.pop().expect("frame pushed above");
                debug_assert!(frame.patches.is_empty(), "loop ends take no branches");
                self.height = frame.entry_height - p + r;
                self.max_height = self.max_height.max(self.height);
                self.unreachable = false;
            }
            If(bt, t, f) => {
                let (p, r) = self.block_arity(bt)?;
                self.pop_n(1)?; // condition
                let entry = self.height;
                let if_idx = self.code.len();
                self.code.push(Op::IfFalse(0)); // patched to the else arm
                self.frames.push(Frame {
                    kind: FrameKind::If,
                    entry_height: entry,
                    params: p,
                    results: r,
                    header_pc: 0,
                    patches: Vec::new(),
                });
                self.seq(t)?;
                // Synthetic, cost-0: the tree-walker charges nothing when
                // a then-arm completes normally.
                let jump_idx = self.code.len();
                self.code.push(Op::Jump(0));
                self.frames
                    .last_mut()
                    .expect("if frame pushed above")
                    .patches
                    .push(Patch::Jump(jump_idx));
                let else_start = self.pc();
                match &mut self.code[if_idx] {
                    Op::IfFalse(pc) => *pc = else_start,
                    _ => unreachable!("if_idx points at IfFalse"),
                }
                self.height = entry;
                self.unreachable = false;
                self.seq(f)?;
                let frame = self.frames.pop().expect("frame pushed above");
                let end = self.pc();
                self.patch_frame(frame, end);
                self.height = entry.checked_sub(p).ok_or(Malformed)? + r;
                self.max_height = self.max_height.max(self.height);
                self.unreachable = false;
            }
            Br(l) => {
                let t = self.target(*l, Patch::Br)?;
                self.code.push(Op::Br(t));
                self.unreachable = true;
            }
            BrIf(l) => {
                self.pop_n(1)?;
                let t = self.target(*l, Patch::Br)?;
                self.code.push(Op::BrIf(t));
            }
            BrTable(ls, d) => {
                self.pop_n(1)?;
                let op_idx = self.code.len();
                let targets: Vec<BranchTarget> = ls
                    .iter()
                    .enumerate()
                    .map(|(slot, l)| self.target(*l, move |i| Patch::Table(i, slot)))
                    .collect::<Result<_, _>>()?;
                let default = self.target(*d, Patch::TableDefault)?;
                debug_assert_eq!(op_idx, self.code.len());
                self.code
                    .push(Op::BrTable(Box::new(BrTableData { targets, default })));
                self.unreachable = true;
            }
            Return => {
                let keep = self.nresults;
                self.code.push(Op::Return { keep });
                self.unreachable = true;
            }
            Call(fi) => {
                let ty = self.m.func_type(*fi).ok_or(Malformed)?;
                let (p, r) = (ty.params.len() as u32, ty.results.len() as u32);
                self.pop_n(p)?;
                self.push_n(r);
                self.code.push(Op::Call(*fi));
            }
            CallIndirect(ti) => {
                let ty = self.m.types.get(*ti as usize).ok_or(Malformed)?.clone();
                self.pop_n(1)?; // table index
                self.pop_n(ty.params.len() as u32)?;
                self.push_n(ty.results.len() as u32);
                self.code.push(Op::CallIndirect(Box::new(ty)));
            }
            Drop => {
                self.pop_n(1)?;
                self.code.push(Op::Drop);
            }
            Select => {
                self.pop_n(2)?;
                self.code.push(Op::Select);
            }
            LocalGet(i) => {
                self.push_n(1);
                self.code.push(Op::LocalGet(*i));
            }
            LocalSet(i) => {
                self.pop_n(1)?;
                self.code.push(Op::LocalSet(*i));
            }
            LocalTee(i) => self.code.push(Op::LocalTee(*i)),
            GlobalGet(i) => {
                self.push_n(1);
                self.code.push(Op::GlobalGet(*i));
            }
            GlobalSet(i) => {
                self.pop_n(1)?;
                let ty = *self.globals.get(*i as usize).ok_or(Malformed)?;
                self.code.push(Op::GlobalSet { idx: *i, ty });
            }
            Load(t, off) => {
                // Pops the address, pushes the value: net 0.
                self.code.push(Op::Load {
                    ty: *t,
                    offset: *off,
                });
            }
            Store(t, off) => {
                self.pop_n(2)?;
                self.code.push(Op::Store {
                    ty: *t,
                    offset: *off,
                });
            }
            Load8U(off) => self.code.push(Op::Load8U(*off)),
            Store8(off) => {
                self.pop_n(2)?;
                self.code.push(Op::Store8(*off));
            }
            MemorySize => {
                self.push_n(1);
                self.code.push(Op::MemorySize);
            }
            MemoryGrow => self.code.push(Op::MemoryGrow),
            I32Const(c) => {
                self.push_n(1);
                self.code.push(Op::Const(*c as u32 as u64));
            }
            I64Const(c) => {
                self.push_n(1);
                self.code.push(Op::Const(*c as u64));
            }
            F32Const(c) => {
                self.push_n(1);
                self.code.push(Op::Const(c.to_bits() as u64));
            }
            F64Const(c) => {
                self.push_n(1);
                self.code.push(Op::Const(c.to_bits()));
            }
            IUn(w, op) => self.code.push(Op::IUn(*w, *op)),
            IBin(w, op) => {
                self.pop_n(1)?;
                self.code.push(Op::IBin(*w, *op));
            }
            ITest(w) => self.code.push(Op::ITest(*w)),
            IRel(w, op) => {
                self.pop_n(1)?;
                self.code.push(Op::IRel(*w, *op));
            }
            FUn(w, op) => self.code.push(Op::FUn(*w, *op)),
            FBin(w, op) => {
                self.pop_n(1)?;
                self.code.push(Op::FBin(*w, *op));
            }
            FRel(w, op) => {
                self.pop_n(1)?;
                self.code.push(Op::FRel(*w, *op));
            }
            I32WrapI64 => self.code.push(Op::I32WrapI64),
            I64ExtendI32(sx) => self.code.push(Op::I64ExtendI32(*sx)),
            ITruncF(iw, fw, sx) => self.code.push(Op::ITruncF(*iw, *fw, *sx)),
            FConvertI(fw, iw, sx) => self.code.push(Op::FConvertI(*fw, *iw, *sx)),
            F32DemoteF64 => self.code.push(Op::F32DemoteF64),
            F64PromoteF32 => self.code.push(Op::F64PromoteF32),
            // Slots are bit patterns, so a reinterpret changes nothing but
            // still costs its one step.
            IReinterpretF(_) | FReinterpretI(_) => self.code.push(Op::Nop),
        }
        Ok(())
    }
}
