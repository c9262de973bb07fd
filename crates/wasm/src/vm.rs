//! The flat-bytecode VM: executes [`crate::compile`] output inside the
//! same [`WasmLinker`] store as the tree-walking interpreter.
//!
//! One dispatch loop over a program counter replaces the tree-walker's
//! recursive block traversal: branches are single jumps with
//! pre-resolved keep/truncate unwinds, values are raw `u64` slots
//! (32-bit values zero-extended, floats as their bit patterns — the
//! exact representation `HostVal::bits()` uses on the embedder side).
//!
//! Compiled-to-compiled calls share **one** slot stack: a callee's frame
//! is `[params, zeroed locals, operands…]` laid out directly above its
//! caller's operands, so calling allocates nothing — arguments are
//! already in place when the callee starts, and results are already in
//! place when it returns. Branch targets are frame-relative and offset
//! by the frame base at run time.
//!
//! Every numeric operator and memory access, plain or fused, calls the
//! same function in the crate-private `num` module as the tree-walker,
//! so the two tiers share one instruction semantics. What the VM adds —
//! and what the tier differential checks — is control flow, calls,
//! traps and fuel: it is **observationally identical** to the
//! tree-walker there, with the same results bit-for-bit, the same trap
//! messages, and the same fuel accounting (each op that corresponds to
//! a dispatched instruction charges one step against
//! [`WasmLinker::max_steps`]; the flattening's two synthetic ops are
//! free — see [`crate::compile`] for the argument). The fuzz farm's
//! harness pins this equivalence. Calls dispatch per callee: compiled
//! functions recurse directly on the shared slot stack, while host
//! functions (and functions of an instance with no attached bytecode)
//! go back through [`WasmLinker`]'s `call_function` — host
//! record/replay, fuel, and `reset()` all flow through unchanged.

use crate::ast::ValType;
use crate::compile::{BranchTarget, CompiledFunc, Op};
use crate::exec::{trap, FuncImpl, Val, WasmLinker, WasmTrap, PAGE};
use crate::num::{self, ibin, irel, itest, memory_grow, t_size};

/// A typed value's slot representation: the raw bit pattern,
/// zero-extended to 64 bits.
#[inline]
pub(crate) fn slot_of(v: Val) -> u64 {
    match v {
        Val::I32(x) => x as u64,
        Val::I64(x) => x,
        Val::F32(x) => x.to_bits() as u64,
        Val::F64(x) => x.to_bits(),
    }
}

/// Rebuilds the typed value a slot represents at declared type `t`.
#[inline]
pub(crate) fn val_of(t: ValType, s: u64) -> Val {
    match t {
        ValType::I32 => Val::I32(s as u32),
        ValType::I64 => Val::I64(s),
        ValType::F32 => Val::F32(f32::from_bits(s as u32)),
        ValType::F64 => Val::F64(f64::from_bits(s)),
    }
}

/// Pops one operand of the current frame (slots below `base` belong to
/// the caller — dipping under is the tree-walker's underflow trap).
#[inline]
fn pop(stack: &mut Vec<u64>, base: usize) -> Result<u64, WasmTrap> {
    if stack.len() <= base {
        return trap("value stack underflow");
    }
    Ok(stack.pop().expect("len > base >= 0"))
}

/// The running instance's memory (its address `mem` is resolved once
/// per activation), or the tree-walker's `no memory` trap.
#[inline]
fn memory(linker: &mut WasmLinker, mem: Option<usize>) -> Result<&mut Vec<u8>, WasmTrap> {
    let ma = mem.ok_or_else(|| WasmTrap("no memory".into()))?;
    Ok(&mut linker.memories[ma])
}

/// Applies a pre-resolved branch: keep the top `keep` slots, truncate to
/// the target's height (offset by the running frame's operand `base`),
/// re-push — the tree-walker's unwind, without the `Flow` propagation.
/// Returns the new pc.
///
/// Kept out of line: inlined into each branch op it grows the dispatch
/// loop `run` by about a fifth, which slowed the churn loop in
/// measurements.
#[inline(never)]
fn take_branch(stack: &mut Vec<u64>, base: usize, t: &BranchTarget) -> Result<usize, WasmTrap> {
    let keep = t.keep as usize;
    let height = base + t.height as usize;
    let len = stack.len();
    if len < base + keep {
        return trap("value stack underflow");
    }
    let src = len - keep;
    if src > height {
        for i in 0..keep {
            stack[height + i] = stack[src + i];
        }
    }
    stack.truncate(height + keep);
    Ok(t.pc as usize)
}

/// Entry point from [`WasmLinker`]'s `call_function`: converts the typed
/// arguments to slots, runs the flat body on a fresh slot stack,
/// converts the results back. The caller has already performed the
/// call-depth check.
pub(crate) fn invoke_compiled(
    linker: &mut WasmLinker,
    module: usize,
    cf: &CompiledFunc,
    args: Vec<Val>,
    depth: usize,
) -> Result<Vec<Val>, WasmTrap> {
    let mut stack: Vec<u64> =
        Vec::with_capacity((args.len() + cf.nlocals as usize + cf.max_stack as usize).max(64));
    stack.extend(args.into_iter().map(slot_of));
    run(linker, module, cf, &mut stack, depth)?;
    // The frame is gone; the results sit at the bottom of the stack.
    Ok(stack
        .iter()
        .zip(&cf.result_types)
        .map(|(s, t)| val_of(*t, *s))
        .collect())
}

/// Dispatches a call from compiled code: compiled callees run in place
/// on the shared slot stack (arguments on top become their frame);
/// host callees (and functions of an instance with no attached
/// bytecode) convert at the boundary and go through `call_function`,
/// which applies the single-charge host fuel policy.
fn call_addr(
    linker: &mut WasmLinker,
    stack: &mut Vec<u64>,
    base: usize,
    addr: usize,
    depth: usize,
) -> Result<(), WasmTrap> {
    let callee = &linker.funcs[addr];
    match &callee.def {
        FuncImpl::Compiled(cf) => {
            let (cf, callee_module) = (cf.clone(), callee.module);
            if depth + 1 > linker.max_call_depth {
                return trap("call stack exhausted");
            }
            if stack.len() < base + cf.nparams as usize {
                return trap("call with too few arguments");
            }
            run(linker, callee_module, &cf, stack, depth + 1)
        }
        _ => {
            let nparams = callee.ty.params.len();
            if stack.len() < base + nparams {
                return trap("call with too few arguments");
            }
            let param_types: Vec<ValType> = callee.ty.params.clone();
            let args: Vec<Val> = stack
                .drain(stack.len() - nparams..)
                .zip(&param_types)
                .map(|(s, t)| val_of(*t, s))
                .collect();
            let results = linker.call_function(addr, args, depth + 1)?;
            stack.extend(results.into_iter().map(slot_of));
            Ok(())
        }
    }
}

/// The dispatch loop. On entry the top `cf.nparams` slots of `stack` are
/// the arguments; on success the frame has been replaced by the
/// function's results.
#[allow(clippy::too_many_lines)]
fn run(
    linker: &mut WasmLinker,
    module: usize,
    cf: &CompiledFunc,
    stack: &mut Vec<u64>,
    depth: usize,
) -> Result<(), WasmTrap> {
    // Frame layout: [.. caller .. | params, zeroed locals | operands..].
    let locals = stack.len() - cf.nparams as usize;
    stack.resize(locals + cf.nparams as usize + cf.nlocals as usize, 0);
    let base = stack.len();
    // Memory and function address spaces are per-instance constants;
    // resolve them once per activation instead of per access.
    let mem = linker.instances[module].mem_addr;
    let mut pc: usize = 0;
    loop {
        let op = &cf.code[pc];
        pc += 1;
        // Fuel: identical accounting to the tree-walker's per-dispatch
        // charge; the flattening's synthetic ops are free and fused
        // superinstructions batch-charge the sum of their parts. If the
        // budget crosses anywhere inside a batch the trap happens before
        // any of the op's effects, with `steps` pinned to the value the
        // tree-walker stops at (`max + 1`, the first charge that
        // exceeds) — exact because fused sub-ops are pure or
        // frame-local up to their final side effect (see
        // `crate::compile`'s fusion notes).
        let cost = op.cost();
        if cost != 0 {
            linker.steps += cost;
            if linker.steps > linker.max_steps {
                linker.steps = linker.max_steps + 1;
                return Err(WasmTrap::fuel_exhausted());
            }
        }
        match op {
            Op::Unreachable => return trap("unreachable executed"),
            Op::Nop | Op::Meter => {}
            Op::Jump(t) => pc = *t as usize,
            Op::IfFalse(t) => {
                if pop(stack, base)? as u32 == 0 {
                    pc = *t as usize;
                }
            }
            Op::Br(t) => pc = take_branch(stack, base, t)?,
            Op::BrIf(t) => {
                if pop(stack, base)? as u32 != 0 {
                    pc = take_branch(stack, base, t)?;
                }
            }
            Op::BrTable(d) => {
                let i = pop(stack, base)? as u32 as usize;
                let t = d.targets.get(i).unwrap_or(&d.default);
                pc = take_branch(stack, base, t)?;
            }
            Op::Return { keep } | Op::FallRet { keep } => {
                let keep = *keep as usize;
                if stack.len() < base + keep {
                    return trap("function left too few results");
                }
                // Collapse the frame: results move down over the locals.
                let src = stack.len() - keep;
                for i in 0..keep {
                    stack[locals + i] = stack[src + i];
                }
                stack.truncate(locals + keep);
                return Ok(());
            }
            Op::Call(fi) => {
                let addr = linker.instances[module].func_addrs[*fi as usize];
                call_addr(linker, stack, base, addr, depth)?;
            }
            Op::CallIndirect(want) => {
                let i = pop(stack, base)? as u32 as usize;
                let ta = linker.instances[module]
                    .table_addr
                    .ok_or_else(|| WasmTrap("no table".into()))?;
                let Some(Some(addr)) = linker.tables[ta].get(i).copied() else {
                    return trap(format!("uninitialised table entry {i}"));
                };
                if linker.funcs[addr].ty != **want {
                    return trap("indirect call type mismatch");
                }
                call_addr(linker, stack, base, addr, depth)?;
            }
            Op::Drop => {
                pop(stack, base)?;
            }
            Op::Select => {
                let c = pop(stack, base)?;
                let b = pop(stack, base)?;
                let a = pop(stack, base)?;
                stack.push(if c as u32 != 0 { a } else { b });
            }
            Op::LocalGet(i) => {
                let v = stack[locals + *i as usize];
                stack.push(v);
            }
            Op::LocalSet(i) => {
                let v = pop(stack, base)?;
                stack[locals + *i as usize] = v;
            }
            Op::LocalTee(i) => {
                if stack.len() <= base {
                    return trap("value stack underflow");
                }
                stack[locals + *i as usize] = stack[stack.len() - 1];
            }
            Op::GlobalGet(i) => {
                let addr = linker.instances[module].global_addrs[*i as usize];
                stack.push(slot_of(linker.globals[addr]));
            }
            Op::GlobalSet { idx, ty } => {
                let v = pop(stack, base)?;
                let addr = linker.instances[module].global_addrs[*idx as usize];
                linker.globals[addr] = val_of(*ty, v);
            }
            Op::Load { ty, offset } => {
                let a = pop(stack, base)?;
                stack.push(num::load(memory(linker, mem)?, a, *offset, t_size(*ty))?);
            }
            Op::Store { ty, offset } => {
                let v = pop(stack, base)?;
                let a = pop(stack, base)?;
                num::store(memory(linker, mem)?, a, *offset, t_size(*ty), v)?;
            }
            Op::Load8U(offset) => {
                let a = pop(stack, base)?;
                stack.push(num::load(memory(linker, mem)?, a, *offset, 1)?);
            }
            Op::Store8(offset) => {
                let v = pop(stack, base)?;
                let a = pop(stack, base)?;
                num::store(memory(linker, mem)?, a, *offset, 1, v)?;
            }
            Op::MemorySize => {
                stack.push((memory(linker, mem)?.len() / PAGE) as u64);
            }
            Op::MemoryGrow => {
                let delta = pop(stack, base)? as u32;
                stack.push(u64::from(memory_grow(memory(linker, mem)?, delta)));
            }
            Op::Const(v) => stack.push(*v),
            Op::IUn(w, op) => {
                let a = pop(stack, base)?;
                stack.push(num::iun(*w, *op, a));
            }
            Op::IBin(w, op) => {
                let b = pop(stack, base)?;
                let a = pop(stack, base)?;
                stack.push(ibin(*w, *op, a, b)?);
            }
            Op::ITest(w) => {
                let a = pop(stack, base)?;
                stack.push(itest(*w, a) as u64);
            }
            Op::IRel(w, op) => {
                let b = pop(stack, base)?;
                let a = pop(stack, base)?;
                stack.push(irel(*w, *op, a, b) as u64);
            }
            Op::FUn(w, op) => {
                let a = pop(stack, base)?;
                stack.push(num::fun(*w, *op, a));
            }
            Op::FBin(w, op) => {
                let b = pop(stack, base)?;
                let a = pop(stack, base)?;
                stack.push(num::fbin(*w, *op, a, b));
            }
            Op::FRel(w, op) => {
                let b = pop(stack, base)?;
                let a = pop(stack, base)?;
                stack.push(num::frel(*w, *op, a, b) as u64);
            }
            Op::I32WrapI64 => {
                let a = pop(stack, base)?;
                stack.push(a as u32 as u64);
            }
            Op::I64ExtendI32(sx) => {
                let a = pop(stack, base)?;
                stack.push(num::extend(*sx, a));
            }
            Op::ITruncF(iw, fw, sx) => {
                let a = pop(stack, base)?;
                stack.push(num::itrunc(*iw, *fw, *sx, a)?);
            }
            Op::FConvertI(fw, iw, sx) => {
                let a = pop(stack, base)?;
                stack.push(num::fconvert(*fw, *iw, *sx, a));
            }
            Op::F32DemoteF64 => {
                let a = pop(stack, base)?;
                stack.push(num::demote(a));
            }
            Op::F64PromoteF32 => {
                let a = pop(stack, base)?;
                stack.push(num::promote(a));
            }
            // --- Fused superinstructions: same effects as their parts,
            // one dispatch. `ibin` is infallible here (div/rem are never
            // fused) but routes through `?` to keep one code path. ---
            Op::GetConstOp(w, op, i, c) => {
                let a = stack[locals + *i as usize];
                let v = ibin(*w, *op, a, *c)?;
                stack.push(v);
            }
            Op::GetConstOpSet(w, op, i, j, c) => {
                let a = stack[locals + *i as usize];
                stack[locals + *j as usize] = ibin(*w, *op, a, *c)?;
            }
            Op::GlobalIncr(w, op, ty, g, c) => {
                let addr = linker.instances[module].global_addrs[*g as usize];
                let a = slot_of(linker.globals[addr]);
                linker.globals[addr] = val_of(*ty, ibin(*w, *op, a, *c)?);
            }
            Op::ConstOp(w, op, c) => {
                let a = pop(stack, base)?;
                let v = ibin(*w, *op, a, *c)?;
                stack.push(v);
            }
            Op::ConstRelIfFalse(w, op, t, c) => {
                let a = pop(stack, base)?;
                if !irel(*w, *op, a, *c) {
                    pc = *t as usize;
                }
            }
            Op::GetLoad(ty, offset, i) => {
                let a = stack[locals + *i as usize];
                stack.push(num::load(memory(linker, mem)?, a, *offset, t_size(*ty))?);
            }
            Op::TestBr(w, t) => {
                if itest(*w, pop(stack, base)?) {
                    pc = take_branch(stack, base, t)?;
                }
            }
            Op::GetTest(w, i) => {
                let a = stack[locals + *i as usize];
                stack.push(itest(*w, a) as u64);
            }
            Op::Copy(i, j) => {
                stack[locals + *j as usize] = stack[locals + *i as usize];
            }
            Op::Get2(i, j) => {
                let a = stack[locals + *i as usize];
                let b = stack[locals + *j as usize];
                stack.push(a);
                stack.push(b);
            }
            Op::ConstSet(j, c) => {
                stack[locals + *j as usize] = *c;
            }
            Op::GetConstRelBr(d) => {
                let a = stack[locals + d.i as usize];
                if irel(d.w, d.op, a, d.c) {
                    pc = take_branch(stack, base, &d.t)?;
                }
            }
            Op::GetConstRelIfFalse(d) => {
                let a = stack[locals + d.i as usize];
                if !irel(d.w, d.op, a, d.c) {
                    pc = d.t.pc as usize;
                }
            }
            Op::RelBr(w, op, t) => {
                let b = pop(stack, base)?;
                let a = pop(stack, base)?;
                if irel(*w, *op, a, b) {
                    pc = take_branch(stack, base, t)?;
                }
            }
            Op::GetRelIfFalse(w, op, i, t) => {
                let b = stack[locals + *i as usize];
                let a = pop(stack, base)?;
                if !irel(*w, *op, a, b) {
                    pc = *t as usize;
                }
            }
            Op::GetLoadSet(ty, offset, i, j) => {
                let a = stack[locals + *i as usize];
                // The load is the middle sub-op: its traps happen with
                // only two of the three steps charged on the
                // tree-walker, so give one back before trapping.
                let loaded =
                    memory(linker, mem).and_then(|m| num::load(m, a, *offset, t_size(*ty)));
                let Ok(v) = loaded else {
                    linker.steps -= 1;
                    return loaded.map(drop);
                };
                stack[locals + *j as usize] = v;
            }
            Op::Get2Store(ty, offset, i, j) => {
                let a = stack[locals + *i as usize];
                let v = stack[locals + *j as usize];
                num::store(memory(linker, mem)?, a, *offset, t_size(*ty), v)?;
            }
            Op::ConstOpSet(w, op, j, c) => {
                let a = pop(stack, base)?;
                stack[locals + *j as usize] = ibin(*w, *op, a, *c)?;
            }
            Op::GlobalGetSet(g, j) => {
                let addr = linker.instances[module].global_addrs[*g as usize];
                stack[locals + *j as usize] = slot_of(linker.globals[addr]);
            }
            Op::Meter2 => {}
            Op::GetTestBr(w, i, t) => {
                if itest(*w, stack[locals + *i as usize]) {
                    pc = take_branch(stack, base, t)?;
                }
            }
            Op::GetTestIfFalse(w, i, t) => {
                if !itest(*w, stack[locals + *i as usize]) {
                    pc = *t as usize;
                }
            }
            Op::GetGlobalStore(ty, offset, i, g) => {
                let a = stack[locals + *i as usize];
                let gaddr = linker.instances[module].global_addrs[*g as usize];
                let v = slot_of(linker.globals[gaddr]);
                num::store(memory(linker, mem)?, a, *offset, t_size(*ty), v)?;
            }
            Op::GetLoadGlobalSet(ty, gty, offset, i, g) => {
                let a = stack[locals + *i as usize];
                // Like `GetLoadSet`: the load is the middle sub-op, so
                // its traps give one step back.
                let loaded =
                    memory(linker, mem).and_then(|m| num::load(m, a, *offset, t_size(*ty)));
                let Ok(v) = loaded else {
                    linker.steps -= 1;
                    return loaded.map(drop);
                };
                let gaddr = linker.instances[module].global_addrs[*g as usize];
                linker.globals[gaddr] = val_of(*gty, v);
            }
            Op::TeeGetLoad(ty, offset, i) => {
                if stack.len() <= base {
                    return trap("value stack underflow");
                }
                let a = stack[stack.len() - 1];
                stack[locals + *i as usize] = a;
                stack.push(num::load(memory(linker, mem)?, a, *offset, t_size(*ty))?);
            }
            Op::GetConstOpGetOp(d) => {
                let a = stack[locals + d.i as usize];
                let b = stack[locals + d.j as usize];
                let v = ibin(d.w, d.op1, a, d.c)?;
                let v = ibin(d.w, d.op2, v, b)?;
                stack.push(v);
            }
            Op::ConstCall(f, c) => {
                stack.push(*c);
                let addr = linker.instances[module].func_addrs[*f as usize];
                call_addr(linker, stack, base, addr, depth)?;
            }
            Op::MeterGetTestBr(w, i, t) => {
                if itest(*w, stack[locals + *i as usize]) {
                    pc = take_branch(stack, base, t)?;
                }
            }
            Op::GetMeter(i) => stack.push(stack[locals + *i as usize]),
            Op::GetConstOpGlobalSet(w, op, gty, i, g, c) => {
                let v = ibin(*w, *op, stack[locals + *i as usize], *c)?;
                let addr = linker.instances[module].global_addrs[*g as usize];
                linker.globals[addr] = val_of(*gty, v);
            }
            Op::ConstSetGlobalGetSet(j1, g, j2, c) => {
                stack[locals + *j1 as usize] = *c;
                let addr = linker.instances[module].global_addrs[*g as usize];
                stack[locals + *j2 as usize] = slot_of(linker.globals[addr]);
            }
            Op::GetConstOpConstOpSet(d) => {
                let v = ibin(d.w, d.op1, stack[locals + d.i as usize], d.c1)?;
                stack[locals + d.j as usize] = ibin(d.w, d.op2, v, d.c2)?;
            }
            Op::GetConstOpRet(w, op, i, c) => {
                // The fused push supplies the single result itself, so
                // the tree-walker's too-few-results check can't fire.
                stack[locals] = ibin(*w, *op, stack[locals + *i as usize], *c)?;
                stack.truncate(locals + 1);
                return Ok(());
            }
            Op::GetLoadRelIfFalse(d) => {
                let a = stack[locals + d.i as usize];
                // The load is sub-op 2 of 5: its traps happen with only
                // two steps charged on the tree-walker, so give three
                // back before trapping.
                let loaded =
                    memory(linker, mem).and_then(|m| num::load(m, a, d.offset, t_size(d.ty)));
                let Ok(v) = loaded else {
                    linker.steps -= 3;
                    return loaded.map(drop);
                };
                let b = stack[locals + d.j as usize];
                if !irel(d.w, d.op, v, b) {
                    pc = d.pc as usize;
                }
            }
            Op::CopyGetConstOpSet(d) => {
                stack[locals + d.b as usize] = stack[locals + d.a as usize];
                stack[locals + d.j as usize] = ibin(d.w, d.op, stack[locals + d.i as usize], d.c)?;
            }
            Op::SetGet2Store(ty, offset, b, j) => {
                let a = pop(stack, base)?;
                stack[locals + *b as usize] = a;
                let v = stack[locals + *j as usize];
                num::store(memory(linker, mem)?, a, *offset, t_size(*ty), v)?;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::ast::*;
    use crate::compile::compile_module;
    use crate::exec::{Val, WasmLinker};

    /// One module through compile → attach → invoke: a loop that stores
    /// and reloads memory (fused ops), a float tail, and an
    /// out-of-bounds load, each agreeing with the tree-walker on the
    /// outcome and the step count.
    #[test]
    fn a_compiled_module_runs_like_the_tree_walker() {
        use WInstr::*;
        let empty = || BlockType::Empty;
        let four_i = || vec![LocalGet(1), I32Const(4), IBin(Width::W32, IBinOp::Mul)];
        let mut body = vec![];
        body.extend([
            LocalGet(1),
            LocalGet(0),
            IRel(Width::W32, IRelOp::Ge(Sx::U)),
            BrIf(1),
        ]);
        body.extend(four_i());
        body.extend([LocalGet(1), Store(ValType::I32, 0), LocalGet(2)]);
        body.extend(four_i());
        body.extend([
            Load(ValType::I32, 0),
            IBin(Width::W32, IBinOp::Add),
            LocalSet(2),
        ]);
        body.extend([
            LocalGet(1),
            I32Const(1),
            IBin(Width::W32, IBinOp::Add),
            LocalSet(1),
        ]);
        body.push(Br(0));
        let sum = vec![
            Block(empty(), vec![Loop(empty(), body)]),
            LocalGet(2),
            FConvertI(Width::W32, Width::W32, Sx::U),
            F32Const(0.5),
            FBin(Width::W32, FBinOp::Add),
            FUn(Width::W32, FUnOp::Nearest),
            ITruncF(Width::W32, Width::W32, Sx::U),
        ];
        let mut m = Module {
            memory: Some(1),
            ..Module::default()
        };
        let sum_ty = m.intern_type(FuncType {
            params: vec![ValType::I32],
            results: vec![ValType::I32],
        });
        let oob_ty = m.intern_type(FuncType {
            params: vec![],
            results: vec![ValType::I64],
        });
        m.funcs.push(FuncDef {
            type_idx: sum_ty,
            locals: vec![ValType::I32, ValType::I32],
            body: sum,
        });
        m.funcs.push(FuncDef {
            type_idx: oob_ty,
            locals: vec![],
            body: vec![I32Const(65536 - 7), Load(ValType::I64, 0)],
        });
        for (i, name) in ["sum", "oob"].into_iter().enumerate() {
            m.exports.push(Export {
                name: name.into(),
                kind: ExportKind::Func(i as u32),
            });
        }

        let mut tree = WasmLinker::new();
        let ti = tree.instantiate("m", m.clone()).unwrap();
        let mut vm = WasmLinker::new();
        let vi = vm.instantiate("m", m.clone()).unwrap();
        assert_eq!(vm.attach_compiled(vi, &compile_module(&m)), Ok(2));
        for (name, args, want) in [
            // 0 + 1 + … + 9 = 45; nearest(45.5) = 46 (ties to even).
            ("sum", vec![Val::I32(10)], Ok(vec![Val::I32(46)])),
            ("sum", vec![Val::I32(0)], Ok(vec![Val::I32(0)])),
            (
                "oob",
                vec![],
                Err("wasm trap: out of bounds memory access".to_string()),
            ),
        ] {
            let on_tree = tree.invoke(ti, name, &args).map_err(|e| e.to_string());
            let on_vm = vm.invoke(vi, name, &args).map_err(|e| e.to_string());
            assert_eq!(on_vm, want, "{name}");
            assert_eq!(on_tree, want, "{name}");
            assert_eq!(vm.last_steps(), tree.last_steps(), "{name}");
        }
    }
}
