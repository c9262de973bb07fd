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
//! The VM is **observationally identical** to the tree-walker, which
//! follows the spec and serves as the reference: the same results
//! bit-for-bit, the same trap messages, and the same fuel accounting
//! (each op that corresponds to a dispatched instruction charges one
//! step against [`WasmLinker::max_steps`]; the flattening's two
//! synthetic ops are free — see [`crate::compile`] for the argument).
//! The fuzz farm's harness pins this equivalence. Calls dispatch per
//! callee: compiled functions recurse directly on the shared slot
//! stack, while host functions (and functions of an instance with no
//! attached bytecode) go back through [`WasmLinker`]'s
//! `call_function` — host record/replay, fuel, and `reset()` all flow
//! through unchanged.

use crate::ast::{ValType, Width};
use crate::compile::{BranchTarget, CompiledFunc, Op};
use crate::exec::{ibin, irel, memory_grow, t_size, FuncImpl, Val, WasmLinker, WasmTrap, PAGE};

fn trap<T>(msg: impl Into<String>) -> Result<T, WasmTrap> {
    Err(WasmTrap(msg.into()))
}

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

#[inline]
fn pop_f(stack: &mut Vec<u64>, base: usize, w: Width) -> Result<f64, WasmTrap> {
    let s = pop(stack, base)?;
    Ok(match w {
        Width::W32 => f32::from_bits(s as u32) as f64,
        Width::W64 => f64::from_bits(s),
    })
}

#[inline]
fn push_f(stack: &mut Vec<u64>, w: Width, v: f64) {
    stack.push(match w {
        // The tree-walker computes f32 ops in f64 and narrows on push;
        // narrowing here keeps the results bit-identical.
        Width::W32 => (v as f32).to_bits() as u64,
        Width::W64 => v.to_bits(),
    });
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
                let a = pop(stack, base)? as u32 as usize;
                let addr = a + *offset as usize;
                let ma = mem.ok_or_else(|| WasmTrap("no memory".into()))?;
                let m = &linker.memories[ma];
                // Fixed-width accesses (4 or 8 bytes, decided by the
                // static type) compile to single loads; the generic
                // `copy_from_slice` path would be a memcpy call per op.
                let v = if t_size(*ty) == 4 {
                    let Some(b) = m.get(addr..addr + 4) else {
                        return trap("out of bounds memory access");
                    };
                    u32::from_le_bytes(b.try_into().expect("4-byte slice")) as u64
                } else {
                    let Some(b) = m.get(addr..addr + 8) else {
                        return trap("out of bounds memory access");
                    };
                    u64::from_le_bytes(b.try_into().expect("8-byte slice"))
                };
                stack.push(v);
            }
            Op::Store { ty, offset } => {
                let raw = pop(stack, base)?;
                let a = pop(stack, base)? as u32 as usize;
                let addr = a + *offset as usize;
                let ma = mem.ok_or_else(|| WasmTrap("no memory".into()))?;
                let m = &mut linker.memories[ma];
                if t_size(*ty) == 4 {
                    let Some(b) = m.get_mut(addr..addr + 4) else {
                        return trap("out of bounds memory access");
                    };
                    b.copy_from_slice(&(raw as u32).to_le_bytes());
                } else {
                    let Some(b) = m.get_mut(addr..addr + 8) else {
                        return trap("out of bounds memory access");
                    };
                    b.copy_from_slice(&raw.to_le_bytes());
                }
            }
            Op::Load8U(offset) => {
                let a = pop(stack, base)? as u32 as usize;
                let addr = a + *offset as usize;
                let ma = mem.ok_or_else(|| WasmTrap("no memory".into()))?;
                let m = &linker.memories[ma];
                if addr >= m.len() {
                    return trap("out of bounds memory access");
                }
                stack.push(m[addr] as u64);
            }
            Op::Store8(offset) => {
                let v = pop(stack, base)?;
                let a = pop(stack, base)? as u32 as usize;
                let addr = a + *offset as usize;
                let ma = mem.ok_or_else(|| WasmTrap("no memory".into()))?;
                let m = &mut linker.memories[ma];
                if addr >= m.len() {
                    return trap("out of bounds memory access");
                }
                m[addr] = v as u8;
            }
            Op::MemorySize => {
                let ma = mem.ok_or_else(|| WasmTrap("no memory".into()))?;
                stack.push((linker.memories[ma].len() / PAGE) as u64);
            }
            Op::MemoryGrow => {
                let delta = pop(stack, base)? as u32;
                let ma = mem.ok_or_else(|| WasmTrap("no memory".into()))?;
                stack.push(u64::from(memory_grow(&mut linker.memories[ma], delta)));
            }
            Op::Const(v) => stack.push(*v),
            Op::IUn(w, op) => {
                let a = pop(stack, base)?;
                use crate::ast::IUnOp;
                let r = match (w, op) {
                    (Width::W32, IUnOp::Clz) => (a as u32).leading_zeros() as u64,
                    (Width::W32, IUnOp::Ctz) => (a as u32).trailing_zeros() as u64,
                    (Width::W32, IUnOp::Popcnt) => (a as u32).count_ones() as u64,
                    (Width::W64, IUnOp::Clz) => a.leading_zeros() as u64,
                    (Width::W64, IUnOp::Ctz) => a.trailing_zeros() as u64,
                    (Width::W64, IUnOp::Popcnt) => a.count_ones() as u64,
                };
                stack.push(r);
            }
            Op::IBin(w, op) => {
                let b = pop(stack, base)?;
                let a = pop(stack, base)?;
                stack.push(ibin(*w, *op, a, b)?);
            }
            Op::ITest(w) => {
                let a = pop(stack, base)?;
                let z = match w {
                    Width::W32 => a as u32 == 0,
                    Width::W64 => a == 0,
                };
                stack.push(z as u64);
            }
            Op::IRel(w, op) => {
                let b = pop(stack, base)?;
                let a = pop(stack, base)?;
                stack.push(irel(*w, *op, a, b) as u64);
            }
            Op::FUn(w, op) => {
                let a = pop_f(stack, base, *w)?;
                use crate::ast::FUnOp;
                let r = match op {
                    FUnOp::Abs => a.abs(),
                    FUnOp::Neg => -a,
                    FUnOp::Sqrt => a.sqrt(),
                    FUnOp::Ceil => a.ceil(),
                    FUnOp::Floor => a.floor(),
                    FUnOp::Trunc => a.trunc(),
                    FUnOp::Nearest => {
                        let r = a.round();
                        if (a - a.trunc()).abs() == 0.5 && r % 2.0 != 0.0 {
                            r - a.signum()
                        } else {
                            r
                        }
                    }
                };
                push_f(stack, *w, r);
            }
            Op::FBin(w, op) => {
                let b = pop_f(stack, base, *w)?;
                let a = pop_f(stack, base, *w)?;
                use crate::ast::FBinOp;
                let r = match op {
                    FBinOp::Add => a + b,
                    FBinOp::Sub => a - b,
                    FBinOp::Mul => a * b,
                    FBinOp::Div => a / b,
                    FBinOp::Min => a.min(b),
                    FBinOp::Max => a.max(b),
                    FBinOp::Copysign => a.copysign(b),
                };
                push_f(stack, *w, r);
            }
            Op::FRel(w, op) => {
                let b = pop_f(stack, base, *w)?;
                let a = pop_f(stack, base, *w)?;
                use crate::ast::FRelOp;
                let r = match op {
                    FRelOp::Eq => a == b,
                    FRelOp::Ne => a != b,
                    FRelOp::Lt => a < b,
                    FRelOp::Gt => a > b,
                    FRelOp::Le => a <= b,
                    FRelOp::Ge => a >= b,
                };
                stack.push(r as u64);
            }
            Op::I32WrapI64 => {
                let a = pop(stack, base)?;
                stack.push(a as u32 as u64);
            }
            Op::I64ExtendI32(sx) => {
                let a = pop(stack, base)?;
                use crate::ast::Sx;
                stack.push(match sx {
                    Sx::S => a as u32 as i32 as i64 as u64,
                    Sx::U => a as u32 as u64,
                });
            }
            Op::ITruncF(iw, fw, sx) => {
                let a = pop_f(stack, base, *fw)?;
                if a.is_nan() {
                    return trap("invalid conversion to integer");
                }
                let t = a.trunc();
                use crate::ast::Sx;
                let r = match (iw, sx) {
                    (Width::W32, Sx::S) => {
                        if t < i32::MIN as f64 || t > i32::MAX as f64 {
                            return trap("integer overflow");
                        }
                        t as i32 as u32 as u64
                    }
                    (Width::W32, Sx::U) => {
                        if t < 0.0 || t > u32::MAX as f64 {
                            return trap("integer overflow");
                        }
                        t as u32 as u64
                    }
                    (Width::W64, Sx::S) => {
                        if t < i64::MIN as f64 || t >= i64::MAX as f64 {
                            return trap("integer overflow");
                        }
                        t as i64 as u64
                    }
                    (Width::W64, Sx::U) => {
                        if t < 0.0 || t >= u64::MAX as f64 {
                            return trap("integer overflow");
                        }
                        t as u64
                    }
                };
                stack.push(r);
            }
            Op::FConvertI(fw, iw, sx) => {
                let a = pop(stack, base)?;
                use crate::ast::Sx;
                let x = match (iw, sx) {
                    (Width::W32, Sx::S) => a as u32 as i32 as f64,
                    (Width::W32, Sx::U) => a as u32 as f64,
                    (Width::W64, Sx::S) => a as i64 as f64,
                    (Width::W64, Sx::U) => a as f64,
                };
                push_f(stack, *fw, x);
            }
            Op::F32DemoteF64 => {
                let a = pop_f(stack, base, Width::W64)?;
                stack.push((a as f32).to_bits() as u64);
            }
            Op::F64PromoteF32 => {
                let a = pop_f(stack, base, Width::W32)?;
                stack.push(a.to_bits());
            }
            Op::IReinterpretF(w) => {
                // Mirror the tree-walker's f64 round trip exactly (it
                // widens to f64 on pop and narrows on reinterpret).
                let a = pop_f(stack, base, *w)?;
                stack.push(match w {
                    Width::W32 => (a as f32).to_bits() as u64,
                    Width::W64 => a.to_bits(),
                });
            }
            Op::FReinterpretI(w) => {
                let a = pop(stack, base)?;
                stack.push(match w {
                    Width::W32 => a as u32 as u64,
                    Width::W64 => a,
                });
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
                let a = stack[locals + *i as usize] as u32 as usize;
                let addr = a + *offset as usize;
                let ma = mem.ok_or_else(|| WasmTrap("no memory".into()))?;
                let m = &linker.memories[ma];
                let v = if t_size(*ty) == 4 {
                    let Some(b) = m.get(addr..addr + 4) else {
                        return trap("out of bounds memory access");
                    };
                    u32::from_le_bytes(b.try_into().expect("4-byte slice")) as u64
                } else {
                    let Some(b) = m.get(addr..addr + 8) else {
                        return trap("out of bounds memory access");
                    };
                    u64::from_le_bytes(b.try_into().expect("8-byte slice"))
                };
                stack.push(v);
            }
            Op::TestBr(w, t) => {
                let a = pop(stack, base)?;
                let z = match w {
                    Width::W32 => a as u32 == 0,
                    Width::W64 => a == 0,
                };
                if z {
                    pc = take_branch(stack, base, t)?;
                }
            }
            Op::GetTest(w, i) => {
                let a = stack[locals + *i as usize];
                let z = match w {
                    Width::W32 => a as u32 == 0,
                    Width::W64 => a == 0,
                };
                stack.push(z as u64);
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
                let a = stack[locals + *i as usize] as u32 as usize;
                let addr = a + *offset as usize;
                // The load is the middle sub-op: its traps happen with
                // only two of the three steps charged on the
                // tree-walker, so give one back before trapping.
                let give_back = |l: &mut WasmLinker| l.steps -= 1;
                let Some(ma) = mem else {
                    give_back(linker);
                    return trap("no memory");
                };
                let m = &linker.memories[ma];
                let v = if t_size(*ty) == 4 {
                    match m.get(addr..addr + 4) {
                        Some(b) => u32::from_le_bytes(b.try_into().expect("4-byte slice")) as u64,
                        None => {
                            give_back(linker);
                            return trap("out of bounds memory access");
                        }
                    }
                } else {
                    match m.get(addr..addr + 8) {
                        Some(b) => u64::from_le_bytes(b.try_into().expect("8-byte slice")),
                        None => {
                            give_back(linker);
                            return trap("out of bounds memory access");
                        }
                    }
                };
                stack[locals + *j as usize] = v;
            }
            Op::Get2Store(ty, offset, i, j) => {
                let a = stack[locals + *i as usize] as u32 as usize;
                let raw = stack[locals + *j as usize];
                let addr = a + *offset as usize;
                let ma = mem.ok_or_else(|| WasmTrap("no memory".into()))?;
                let m = &mut linker.memories[ma];
                if t_size(*ty) == 4 {
                    let Some(b) = m.get_mut(addr..addr + 4) else {
                        return trap("out of bounds memory access");
                    };
                    b.copy_from_slice(&(raw as u32).to_le_bytes());
                } else {
                    let Some(b) = m.get_mut(addr..addr + 8) else {
                        return trap("out of bounds memory access");
                    };
                    b.copy_from_slice(&raw.to_le_bytes());
                }
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
                let a = stack[locals + *i as usize];
                let z = match w {
                    Width::W32 => a as u32 == 0,
                    Width::W64 => a == 0,
                };
                if z {
                    pc = take_branch(stack, base, t)?;
                }
            }
            Op::GetTestIfFalse(w, i, t) => {
                let a = stack[locals + *i as usize];
                let nz = match w {
                    Width::W32 => a as u32 != 0,
                    Width::W64 => a != 0,
                };
                if nz {
                    pc = *t as usize;
                }
            }
            Op::GetGlobalStore(ty, offset, i, g) => {
                let a = stack[locals + *i as usize] as u32 as usize;
                let gaddr = linker.instances[module].global_addrs[*g as usize];
                let raw = slot_of(linker.globals[gaddr]);
                let addr = a + *offset as usize;
                let ma = mem.ok_or_else(|| WasmTrap("no memory".into()))?;
                let m = &mut linker.memories[ma];
                if t_size(*ty) == 4 {
                    let Some(b) = m.get_mut(addr..addr + 4) else {
                        return trap("out of bounds memory access");
                    };
                    b.copy_from_slice(&(raw as u32).to_le_bytes());
                } else {
                    let Some(b) = m.get_mut(addr..addr + 8) else {
                        return trap("out of bounds memory access");
                    };
                    b.copy_from_slice(&raw.to_le_bytes());
                }
            }
            Op::GetLoadGlobalSet(ty, gty, offset, i, g) => {
                let a = stack[locals + *i as usize] as u32 as usize;
                let addr = a + *offset as usize;
                // Like `GetLoadSet`: the load is the middle sub-op, so
                // its traps give one step back.
                let give_back = |l: &mut WasmLinker| l.steps -= 1;
                let Some(ma) = mem else {
                    give_back(linker);
                    return trap("no memory");
                };
                let m = &linker.memories[ma];
                let v = if t_size(*ty) == 4 {
                    match m.get(addr..addr + 4) {
                        Some(b) => u32::from_le_bytes(b.try_into().expect("4-byte slice")) as u64,
                        None => {
                            give_back(linker);
                            return trap("out of bounds memory access");
                        }
                    }
                } else {
                    match m.get(addr..addr + 8) {
                        Some(b) => u64::from_le_bytes(b.try_into().expect("8-byte slice")),
                        None => {
                            give_back(linker);
                            return trap("out of bounds memory access");
                        }
                    }
                };
                let gaddr = linker.instances[module].global_addrs[*g as usize];
                linker.globals[gaddr] = val_of(*gty, v);
            }
            Op::TeeGetLoad(ty, offset, i) => {
                if stack.len() <= base {
                    return trap("value stack underflow");
                }
                let v = stack[stack.len() - 1];
                stack[locals + *i as usize] = v;
                let addr = v as u32 as usize + *offset as usize;
                let ma = mem.ok_or_else(|| WasmTrap("no memory".into()))?;
                let m = &linker.memories[ma];
                let loaded = if t_size(*ty) == 4 {
                    let Some(b) = m.get(addr..addr + 4) else {
                        return trap("out of bounds memory access");
                    };
                    u32::from_le_bytes(b.try_into().expect("4-byte slice")) as u64
                } else {
                    let Some(b) = m.get(addr..addr + 8) else {
                        return trap("out of bounds memory access");
                    };
                    u64::from_le_bytes(b.try_into().expect("8-byte slice"))
                };
                stack.push(loaded);
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
                let a = stack[locals + *i as usize];
                let z = match w {
                    Width::W32 => a as u32 == 0,
                    Width::W64 => a == 0,
                };
                if z {
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
                let a = stack[locals + d.i as usize] as u32 as usize;
                let addr = a + d.offset as usize;
                // The load is sub-op 2 of 5: its traps happen with only
                // two steps charged on the tree-walker, so give three
                // back before trapping.
                let give_back = |l: &mut WasmLinker| l.steps -= 3;
                let Some(ma) = mem else {
                    give_back(linker);
                    return trap("no memory");
                };
                let m = &linker.memories[ma];
                let v = if t_size(d.ty) == 4 {
                    match m.get(addr..addr + 4) {
                        Some(b) => u32::from_le_bytes(b.try_into().expect("4-byte slice")) as u64,
                        None => {
                            give_back(linker);
                            return trap("out of bounds memory access");
                        }
                    }
                } else {
                    match m.get(addr..addr + 8) {
                        Some(b) => u64::from_le_bytes(b.try_into().expect("8-byte slice")),
                        None => {
                            give_back(linker);
                            return trap("out of bounds memory access");
                        }
                    }
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
                let addr = a as u32 as usize + *offset as usize;
                let raw = stack[locals + *j as usize];
                let ma = mem.ok_or_else(|| WasmTrap("no memory".into()))?;
                let m = &mut linker.memories[ma];
                if t_size(*ty) == 4 {
                    let Some(bs) = m.get_mut(addr..addr + 4) else {
                        return trap("out of bounds memory access");
                    };
                    bs.copy_from_slice(&(raw as u32).to_le_bytes());
                } else {
                    let Some(bs) = m.get_mut(addr..addr + 8) else {
                        return trap("out of bounds memory access");
                    };
                    bs.copy_from_slice(&raw.to_le_bytes());
                }
            }
        }
    }
}
