//! The small-step reduction relation (paper Fig. 4).
//!
//! A configuration `s; v*; sz*; e*` reduces one administrative step at a
//! time. Evaluation descends through `label`/`local` contexts (the
//! paper's `L^k`); `br`/`return` propagate outward carrying their value
//! prefix; traps normalise the enclosing sequence.
//!
//! A step costs its redex and the depth of its context, not the size of
//! the code around it (DESIGN.md §3): it renders nothing unless it is
//! stuck, copies only code the rule duplicates (a loop body per
//! iteration), and keeps frame bodies last instruction first so that it
//! never shifts the code after its redex.

use std::sync::Arc;

use crate::error::RuntimeError;
use crate::interp::host::HostFuncs;
use crate::interp::num;
use crate::interp::store::{Closure, Store};
use crate::sizing::{size_of_heap_value, size_of_type, size_of_value};
use crate::subst::{subst_instrs, subst_size, subst_type, SubstEnv};
use crate::syntax::{ConcreteLoc, Func, HeapValue, Instr, Loc, Mem, Module, Qual, Size, Value};

/// A runtime configuration: the current module instance, the local slots
/// of the outermost activation, and the instruction sequence.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// The module instance index executing (`j` in `↩_j`).
    pub inst: u32,
    /// Local slot values and sizes of the outermost frame.
    pub locals: Vec<(Value, Size)>,
    /// The instruction sequence under reduction, in program order.
    pub instrs: Vec<Instr>,
    /// Human-readable reason of the most recent trap, if any.
    pub trap_reason: Option<String>,
}

impl Config {
    /// Builds a configuration that calls exported function `func` of
    /// instance `inst` with `args`.
    pub fn call(
        inst: u32,
        func: u32,
        args: Vec<Value>,
        indices: Vec<crate::syntax::Index>,
    ) -> Config {
        let mut instrs: Vec<Instr> = args.into_iter().map(Instr::Val).collect();
        instrs.push(Instr::CallAdmin {
            inst,
            func,
            indices,
        });
        Config {
            inst,
            locals: Vec::new(),
            instrs,
            trap_reason: None,
        }
    }

    /// The result values if the configuration is fully reduced.
    pub fn results(&self) -> Option<Vec<Value>> {
        self.instrs
            .iter()
            .map(|e| match e {
                Instr::Val(v) => Some(v.clone()),
                _ => None,
            })
            .collect()
    }
}

/// The observable outcome of one reduction step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// One step was taken.
    Stepped,
    /// The configuration is fully reduced (all values).
    Done,
    /// The configuration is a trap.
    Trapped,
}

enum SeqOut {
    Stepped,
    Done,
    TrapNow,
    Br(u32, Vec<Value>),
    Ret(Vec<Value>),
}

/// Performs one reduction step on `cfg`.
///
/// # Errors
///
/// Returns [`RuntimeError::Stuck`] when no rule applies — for well-typed
/// programs this never happens (progress), and the soundness property
/// tests rely on that. A stuck step leaves `cfg` as it was.
pub fn step_config(
    store: &mut Store,
    modules: &[Arc<Module>],
    hosts: &HostFuncs,
    cfg: &mut Config,
) -> Result<Outcome, RuntimeError> {
    let mut note = None;
    let inst = cfg.inst;
    // `cfg.instrs` is in program order; sequences are reduced last-first
    // (see `step_seq`). The top level is short: a call's code lives in
    // its `local` frame.
    cfg.instrs.reverse();
    let r = step_seq(
        store,
        modules,
        hosts,
        inst,
        &mut cfg.locals,
        &mut cfg.instrs,
        &mut note,
    );
    cfg.instrs.reverse();
    if let Some(n) = note {
        cfg.trap_reason = Some(n);
    }
    match r? {
        SeqOut::Done => Ok(Outcome::Done),
        SeqOut::Stepped => Ok(Outcome::Stepped),
        SeqOut::TrapNow => Ok(Outcome::Trapped),
        SeqOut::Br(..) => Err(RuntimeError::stuck(
            "br escaped the top-level configuration",
        )),
        SeqOut::Ret(_) => Err(RuntimeError::stuck(
            "return escaped the top-level configuration",
        )),
    }
}

fn is_value(e: &Instr) -> bool {
    matches!(e, Instr::Val(_))
}

fn all_values(es: &[Instr]) -> bool {
    es.iter().all(is_value)
}

/// Copies the values of a last-first sequence of values, in program
/// order.
fn copy_values(es: &[Instr]) -> Vec<Value> {
    es.iter()
        .rev()
        .map(|e| match e {
            Instr::Val(v) => v.clone(),
            _ => unreachable!("copy_values on non-value"),
        })
        .collect()
}

/// Takes one step of the sequence `instrs`, which is stored **last
/// instruction first**, like the bodies of `label` and `local` frames
/// (see [`Instr::Label`]). The redex `r` is the last non-value; its
/// operands follow it, top of stack first, and the code still to run
/// precedes it. A step therefore rewrites only the redex and the values
/// behind it, and never moves the rest of the code, however long.
#[allow(clippy::too_many_lines)]
fn step_seq(
    store: &mut Store,
    modules: &[Arc<Module>],
    hosts: &HostFuncs,
    inst: u32,
    locals: &mut Vec<(Value, Size)>,
    instrs: &mut Vec<Instr>,
    note: &mut Option<String>,
) -> Result<SeqOut, RuntimeError> {
    let Some(r) = instrs.iter().rposition(|e| !is_value(e)) else {
        return Ok(SeqOut::Done);
    };

    // Trap normalisation: `v* trap e* ↩ trap`.
    if matches!(instrs[r], Instr::Trap) {
        if instrs.len() == 1 {
            return Ok(SeqOut::TrapNow);
        }
        instrs.clear();
        instrs.push(Instr::Trap);
        return Ok(SeqOut::Stepped);
    }

    // Control frames: descend.
    if let Instr::Label { arity, body, .. } = &mut instrs[r] {
        if all_values(body) {
            let vals = std::mem::take(body);
            instrs.splice(r..=r, vals);
            return Ok(SeqOut::Stepped);
        }
        if body.len() == 1 && matches!(body[0], Instr::Trap) {
            instrs[r] = Instr::Trap;
            return Ok(SeqOut::Stepped);
        }
        let arity = *arity as usize;
        return match step_seq(store, modules, hosts, inst, locals, body, note)? {
            SeqOut::Stepped => Ok(SeqOut::Stepped),
            SeqOut::TrapNow => {
                instrs[r] = Instr::Trap;
                Ok(SeqOut::Stepped)
            }
            SeqOut::Br(0, vals) => {
                if vals.len() < arity {
                    return Err(RuntimeError::stuck("br carries too few values"));
                }
                // The branch consumes the label, so its continuation (for
                // a loop, the loop itself) moves out rather than being
                // copied.
                let Instr::Label { cont, .. } = take_redex(instrs, r) else {
                    unreachable!("descended into a label")
                };
                let dropped = vals.len() - arity;
                let keep = vals.into_iter().skip(dropped).map(Instr::Val);
                reduce(instrs, r, 0, keep.chain(cont));
                Ok(SeqOut::Stepped)
            }
            SeqOut::Br(j, vals) => Ok(SeqOut::Br(j - 1, vals)),
            SeqOut::Ret(vals) => Ok(SeqOut::Ret(vals)),
            SeqOut::Done => unreachable!("body had a non-value instruction"),
        };
    }

    if let Instr::LocalFrame {
        arity,
        inst: fi,
        locals: flocals,
        body,
    } = &mut instrs[r]
    {
        let arity = *arity as usize;
        if all_values(body) {
            if body.len() != arity {
                return Err(RuntimeError::stuck(
                    "function returned wrong number of values",
                ));
            }
            let vals = std::mem::take(body);
            instrs.splice(r..=r, vals);
            return Ok(SeqOut::Stepped);
        }
        if body.len() == 1 && matches!(body[0], Instr::Trap) {
            instrs[r] = Instr::Trap;
            return Ok(SeqOut::Stepped);
        }
        return match step_seq(store, modules, hosts, *fi, flocals, body, note)? {
            SeqOut::Stepped => Ok(SeqOut::Stepped),
            SeqOut::TrapNow => {
                instrs[r] = Instr::Trap;
                Ok(SeqOut::Stepped)
            }
            SeqOut::Br(..) => Err(RuntimeError::stuck("br escaped a function body")),
            SeqOut::Ret(vals) => {
                if vals.len() < arity {
                    return Err(RuntimeError::stuck("return carries too few values"));
                }
                let dropped = vals.len() - arity;
                reduce(instrs, r, 0, vals.into_iter().skip(dropped).map(Instr::Val));
                Ok(SeqOut::Stepped)
            }
            SeqOut::Done => unreachable!("body had a non-value instruction"),
        };
    }

    // Branches and returns collect their value prefix and propagate.
    match &instrs[r] {
        Instr::Br(j) => {
            let j = *j;
            let vals = copy_values(&instrs[r + 1..]);
            return Ok(SeqOut::Br(j, vals));
        }
        Instr::Return => {
            let vals = copy_values(&instrs[r + 1..]);
            return Ok(SeqOut::Ret(vals));
        }
        _ => {}
    }

    // Everything else is a primitive redex consuming `n` values directly
    // before it. Each rule checks its operands and side conditions in
    // place, then moves what it keeps out of the sequence and splices the
    // result over the redex, so a stuck step leaves the configuration as
    // it was and a step copies only what it duplicates.
    match &instrs[r] {
        Instr::Val(_)
        | Instr::Label { .. }
        | Instr::LocalFrame { .. }
        | Instr::Trap
        | Instr::Br(_)
        | Instr::Return => unreachable!("handled above"),

        // Type-level instructions are computationally irrelevant.
        Instr::Nop | Instr::Qualify(_) | Instr::RefDemote => reduce(instrs, r, 0, []),
        Instr::Unreachable => {
            *note = Some("unreachable executed".into());
            instrs[r] = Instr::Trap;
        }
        Instr::Drop => {
            need(instrs, r, 1)?;
            reduce(instrs, r, 1, []);
        }
        Instr::Select => {
            need(instrs, r, 3)?;
            let c = val(instrs, r, 1)
                .as_i32()
                .ok_or_else(|| RuntimeError::stuck("select condition not i32"))?;
            let keep = take_val(instrs, r, if c != 0 { 3 } else { 2 });
            reduce(instrs, r, 3, [Instr::Val(keep)]);
        }
        Instr::Num(n) => {
            let n = *n;
            let a = num::arity(n);
            need(instrs, r, a)?;
            // Deepest operand first; `a` is 1 or 2.
            let mut bits = [0; 2];
            for (i, slot) in bits.iter_mut().take(a).enumerate() {
                let v = val(instrs, r, a - i);
                *slot = v
                    .as_num()
                    .map(|(_, b)| b)
                    .ok_or_else(|| RuntimeError::stuck(format!("numeric op on non-number {v}")))?;
            }
            match num::eval(n, bits[0], bits[1]) {
                Ok(v) => reduce(instrs, r, a, [Instr::Val(v)]),
                Err(RuntimeError::Trap { reason }) => trap(instrs, r, a, note, reason),
                Err(other) => return Err(other),
            }
        }
        Instr::BlockI(b, _) => {
            let (n, arity) = (b.arrow.params.len(), b.arrow.results.len() as u32);
            need(instrs, r, n)?;
            let Instr::BlockI(_, body) = take_redex(instrs, r) else {
                unreachable!("matched above")
            };
            let body = label_body(instrs, r, 1, n, None, body);
            reduce(instrs, r, n, [label(arity, vec![], body)]);
        }
        Instr::LoopI(arrow, _) => {
            let n = arrow.params.len();
            need(instrs, r, n)?;
            let Instr::LoopI(arrow, body) = take_redex(instrs, r) else {
                unreachable!("matched above")
            };
            // The label's body is the iteration's one copy of the loop
            // body; the loop itself moves into the continuation, which a
            // br to the label (re-entering with the params) consumes.
            let inner = label_body(instrs, r, 1, n, None, body.clone());
            let cont = vec![Instr::LoopI(arrow, body)];
            reduce(instrs, r, n, [label(n as u32, cont, inner)]);
        }
        Instr::IfI(b, ..) => {
            let (n, arity) = (b.arrow.params.len(), b.arrow.results.len() as u32);
            need(instrs, r, n + 1)?;
            let c = val(instrs, r, 1)
                .as_i32()
                .ok_or_else(|| RuntimeError::stuck("if condition not i32"))?;
            let Instr::IfI(_, then_b, else_b) = take_redex(instrs, r) else {
                unreachable!("matched above")
            };
            let chosen = if c != 0 { then_b } else { else_b };
            let body = label_body(instrs, r, 2, n, None, chosen);
            reduce(instrs, r, n + 1, [label(arity, vec![], body)]);
        }
        Instr::BrIf(j) => {
            let j = *j;
            need(instrs, r, 1)?;
            let c = val(instrs, r, 1)
                .as_i32()
                .ok_or_else(|| RuntimeError::stuck("br_if condition not i32"))?;
            reduce(instrs, r, 1, (c != 0).then_some(Instr::Br(j)));
        }
        Instr::BrTable(targets, default) => {
            need(instrs, r, 1)?;
            let c = val(instrs, r, 1)
                .as_i32()
                .ok_or_else(|| RuntimeError::stuck("br_table index not i32"))?;
            let t = targets.get(c as usize).copied().unwrap_or(*default);
            reduce(instrs, r, 1, [Instr::Br(t)]);
        }
        Instr::GetLocal(i, q) => {
            let (i, q) = (*i, *q);
            let (slot, _) = locals
                .get_mut(i as usize)
                .ok_or_else(|| RuntimeError::stuck(format!("get_local {i}: no such slot")))?;
            let v = if matches!(q, Qual::Unr) {
                slot.clone()
            } else {
                // Linear read: strongly update the slot to unit (§2.1).
                std::mem::replace(slot, Value::Unit)
            };
            instrs[r] = Instr::Val(v);
        }
        Instr::SetLocal(i) => {
            let i = *i;
            need(instrs, r, 1)?;
            let (slot, _) = locals
                .get_mut(i as usize)
                .ok_or_else(|| RuntimeError::stuck(format!("set_local {i}: no such slot")))?;
            *slot = take_val(instrs, r, 1);
            reduce(instrs, r, 1, []);
        }
        Instr::TeeLocal(i) => {
            let i = *i;
            need(instrs, r, 1)?;
            let (slot, _) = locals
                .get_mut(i as usize)
                .ok_or_else(|| RuntimeError::stuck(format!("tee_local {i}: no such slot")))?;
            *slot = val(instrs, r, 1).clone();
            // The value stays on the stack.
            reduce(instrs, r, 0, []);
        }
        Instr::GetGlobal(i) => {
            let i = *i;
            let v = store
                .insts
                .get(inst as usize)
                .and_then(|m| m.globals.get(i as usize))
                .cloned()
                .ok_or_else(|| RuntimeError::stuck(format!("get_global {i}: no such global")))?;
            instrs[r] = Instr::Val(v);
        }
        Instr::SetGlobal(i) => {
            let i = *i;
            need(instrs, r, 1)?;
            let slot = store
                .insts
                .get_mut(inst as usize)
                .and_then(|m| m.globals.get_mut(i as usize))
                .ok_or_else(|| RuntimeError::stuck(format!("set_global {i}: no such global")))?;
            *slot = take_val(instrs, r, 1);
            reduce(instrs, r, 1, []);
        }
        Instr::CodeRefI(i) => {
            instrs[r] = Instr::Val(Value::CodeRef {
                inst,
                table_idx: *i,
                indices: vec![],
            });
        }
        Instr::Inst(_) => {
            need(instrs, r, 1)?;
            let (code, ops) = instrs.split_at_mut(r + 1);
            let (Instr::Inst(zs), Instr::Val(Value::CodeRef { indices, .. })) =
                (&mut code[r], &mut ops[0])
            else {
                return Err(RuntimeError::stuck("inst on non-coderef"));
            };
            indices.append(zs);
            reduce(instrs, r, 0, []);
        }
        Instr::CallIndirect => {
            need(instrs, r, 1)?;
            let Instr::Val(Value::CodeRef {
                inst: ci,
                table_idx,
                indices,
            }) = &mut instrs[r + 1]
            else {
                return Err(RuntimeError::stuck("call_indirect on non-coderef"));
            };
            let cl = store
                .insts
                .get(*ci as usize)
                .and_then(|m| m.table.get(*table_idx as usize))
                .copied()
                .ok_or_else(|| RuntimeError::stuck("call_indirect: bad table entry"))?;
            let indices = std::mem::take(indices);
            reduce(
                instrs,
                r,
                1,
                [Instr::CallAdmin {
                    inst: cl.inst,
                    func: cl.func,
                    indices,
                }],
            );
        }
        Instr::Call(j, _) => {
            let j = *j;
            let cl: Closure = store
                .insts
                .get(inst as usize)
                .and_then(|m| m.funcs.get(j as usize))
                .copied()
                .ok_or_else(|| RuntimeError::stuck(format!("call {j}: no such function")))?;
            let Instr::Call(_, indices) = take_redex(instrs, r) else {
                unreachable!("matched above")
            };
            instrs[r] = Instr::CallAdmin {
                inst: cl.inst,
                func: cl.func,
                indices,
            };
        }
        Instr::CallAdmin {
            inst: ci,
            func: fi,
            indices,
        } => {
            let (ci, fi) = (*ci, *fi);
            // Host interception: a call whose closure targets a registered
            // host function runs the Rust closure instead of a RichWasm
            // body. This sits on the `call` administrative step, so every
            // route to the closure (direct call, resolved import,
            // `call_indirect` through a table entry) is covered.
            if let Some(h) = hosts.get(ci, fi) {
                if !indices.is_empty() {
                    return Err(RuntimeError::stuck(
                        "host functions are monomorphic; `inst` indices are not applicable",
                    ));
                }
                let n = h.ty.arrow.params.len();
                if operands(instrs, r) < n {
                    return Err(RuntimeError::stuck("host call with too few arguments"));
                }
                let args: Vec<Value> = take_vals(instrs, r, 1, n).collect();
                match (h.imp)(&args) {
                    Ok(vals) => {
                        // The host lives outside the checked world: re-check
                        // its results against the declared type (count and,
                        // shallowly, value shape) before splicing them into
                        // the typed instruction stream — a misbehaving
                        // closure traps, same as on the Wasm backend.
                        if vals.len() != h.ty.arrow.results.len() {
                            trap(
                                instrs,
                                r,
                                n,
                                note,
                                format!(
                                    "host function error: returned {} values, its type \
                                     declares {}",
                                    vals.len(),
                                    h.ty.arrow.results.len()
                                ),
                            );
                        } else if let Some((v, t)) = vals
                            .iter()
                            .zip(&h.ty.arrow.results)
                            .find(|(v, t)| !host_result_matches(v, t))
                        {
                            trap(
                                instrs,
                                r,
                                n,
                                note,
                                format!("host function error: returned {v}, its type declares {t}"),
                            );
                        } else {
                            reduce(instrs, r, n, vals.into_iter().map(Instr::Val));
                        }
                    }
                    Err(msg) => trap(instrs, r, n, note, format!("host function error: {msg}")),
                }
                return Ok(SeqOut::Stepped);
            }
            let m = modules
                .get(ci as usize)
                .ok_or_else(|| RuntimeError::BadStore {
                    reason: format!("no module {ci}"),
                })?;
            let Some(Func::Defined {
                ty,
                locals: lsizes,
                body,
                ..
            }) = m.funcs.get(fi as usize)
            else {
                return Err(RuntimeError::BadStore {
                    reason: format!("call target {ci}.{fi} is not a defined function"),
                });
            };
            let env =
                SubstEnv::for_instantiation(&ty.quants, indices).map_err(RuntimeError::stuck)?;
            let n = ty.arrow.params.len();
            if operands(instrs, r) < n {
                return Err(RuntimeError::stuck("call with too few arguments"));
            }
            let mut frame_locals: Vec<(Value, Size)> = Vec::with_capacity(n + lsizes.len());
            for (v, pty) in take_vals(instrs, r, 1, n).zip(&ty.arrow.params) {
                let pty = subst_type(pty, &env);
                let size = size_of_type(&crate::env::KindCtx::new(), &pty)
                    .unwrap_or(Size::Const(size_of_value(&v)));
                frame_locals.push((v, size));
            }
            frame_locals.extend(lsizes.iter().map(|sz| (Value::Unit, subst_size(sz, &env))));
            let mut body = subst_instrs(body, &env);
            body.reverse();
            let frame = Instr::LocalFrame {
                arity: ty.arrow.results.len() as u32,
                inst: ci,
                locals: frame_locals,
                body,
            };
            reduce(instrs, r, n, [frame]);
        }
        Instr::RecFold(_) => {
            need(instrs, r, 1)?;
            let v = take_val(instrs, r, 1);
            reduce(instrs, r, 1, [Instr::Val(Value::Fold(Box::new(v)))]);
        }
        Instr::RecUnfold => {
            need(instrs, r, 1)?;
            let Instr::Val(Value::Fold(inner)) = &mut instrs[r + 1] else {
                return Err(RuntimeError::stuck("rec.unfold on non-fold"));
            };
            let v = std::mem::replace(&mut **inner, Value::Unit);
            reduce(instrs, r, 1, [Instr::Val(v)]);
        }
        Instr::MemPack(l) => {
            need(instrs, r, 1)?;
            let Loc::Concrete(cl) = *l else {
                return Err(RuntimeError::stuck(
                    "mem.pack of an abstract location at runtime",
                ));
            };
            let v = take_val(instrs, r, 1);
            reduce(instrs, r, 1, [Instr::Val(Value::MemPack(cl, Box::new(v)))]);
        }
        Instr::MemUnpack(b, body) => {
            let (n, arity) = (b.arrow.params.len(), b.arrow.results.len() as u32);
            need(instrs, r, n + 1)?;
            let Value::MemPack(cl, _) = *val(instrs, r, 1) else {
                return Err(RuntimeError::stuck("mem.unpack on non-package"));
            };
            let opened = subst_instrs(body, &SubstEnv::loc(Loc::Concrete(cl)));
            let Value::MemPack(_, inner) = take_val(instrs, r, 1) else {
                unreachable!("checked above")
            };
            let body = label_body(instrs, r, 2, n, Some(*inner), opened);
            reduce(instrs, r, n + 1, [label(arity, vec![], body)]);
        }
        Instr::Group(n, _) => {
            let n = *n as usize;
            need(instrs, r, n)?;
            let vs = take_vals(instrs, r, 1, n).collect();
            reduce(instrs, r, n, [Instr::Val(Value::Prod(vs))]);
        }
        Instr::Ungroup => {
            need(instrs, r, 1)?;
            let Instr::Val(Value::Prod(vs)) = &mut instrs[r + 1] else {
                return Err(RuntimeError::stuck("seq.ungroup on non-tuple"));
            };
            let vs = std::mem::take(vs);
            reduce(instrs, r, 1, vs.into_iter().map(Instr::Val));
        }
        Instr::CapSplit => {
            need(instrs, r, 1)?;
            reduce(
                instrs,
                r,
                1,
                [Instr::Val(Value::Cap), Instr::Val(Value::Own)],
            );
        }
        Instr::CapJoin => {
            need(instrs, r, 2)?;
            reduce(instrs, r, 2, [Instr::Val(Value::Cap)]);
        }
        Instr::RefSplit => {
            need(instrs, r, 1)?;
            let Value::Ref(l) = *val(instrs, r, 1) else {
                return Err(RuntimeError::stuck("ref.split on non-ref"));
            };
            reduce(
                instrs,
                r,
                1,
                [Instr::Val(Value::Cap), Instr::Val(Value::Ptr(l))],
            );
        }
        Instr::RefJoin => {
            need(instrs, r, 2)?;
            let Value::Ptr(l) = *val(instrs, r, 1) else {
                return Err(RuntimeError::stuck("ref.join: top of stack not a pointer"));
            };
            reduce(instrs, r, 2, [Instr::Val(Value::Ref(l))]);
        }
        Instr::StructMalloc(szs, q) => {
            let (n, q) = (szs.len(), *q);
            need(instrs, r, n)?;
            let total: u64 = szs.iter().map(|s| s.eval_closed().unwrap_or(0)).sum();
            let hv = HeapValue::Struct(take_vals(instrs, r, 1, n).collect());
            reduce(
                instrs,
                r,
                n,
                [Instr::MallocAdmin(Size::Const(total), hv, q)],
            );
        }
        Instr::VariantMalloc(i, _, q) => {
            let (i, q) = (*i, *q);
            need(instrs, r, 1)?;
            let v = take_val(instrs, r, 1);
            let sz = 32 + size_of_value(&v);
            let hv = HeapValue::Variant(i, Box::new(v));
            reduce(instrs, r, 1, [Instr::MallocAdmin(Size::Const(sz), hv, q)]);
        }
        Instr::ArrayMalloc(q) => {
            let q = *q;
            need(instrs, r, 2)?;
            let len = val(instrs, r, 1)
                .as_num()
                .map(|(_, b)| b as u32)
                .ok_or_else(|| RuntimeError::stuck("array.malloc length not numeric"))?;
            let fill = take_val(instrs, r, 2);
            let sz = (len as u64) * size_of_value(&fill);
            let hv = HeapValue::Array(vec![fill; len as usize]);
            reduce(instrs, r, 2, [Instr::MallocAdmin(Size::Const(sz), hv, q)]);
        }
        Instr::ExistPack(..) => {
            need(instrs, r, 1)?;
            let Instr::ExistPack(p, psi, q) = take_redex(instrs, r) else {
                unreachable!("matched above")
            };
            let v = take_val(instrs, r, 1);
            let sz = 64 + size_of_value(&v);
            let hv = HeapValue::Pack(p, Box::new(v), psi);
            reduce(instrs, r, 1, [Instr::MallocAdmin(Size::Const(sz), hv, q)]);
        }
        Instr::MallocAdmin(_, _, q) => {
            let mem = match q {
                Qual::Lin => Mem::Lin,
                Qual::Unr => Mem::Unr,
                Qual::Var(_) => {
                    return Err(RuntimeError::stuck("malloc with unresolved qualifier"));
                }
            };
            let Instr::MallocAdmin(sz, hv, _) = take_redex(instrs, r) else {
                unreachable!("matched above")
            };
            let bits = sz.eval_closed().unwrap_or_else(|| size_of_heap_value(&hv));
            let l = store.mem.alloc(mem, hv, bits);
            instrs[r] = Instr::Val(Value::MemPack(l, Box::new(Value::Ref(l))));
        }
        Instr::StructFree | Instr::ArrayFree => instrs[r] = Instr::Free,
        Instr::Free => {
            need(instrs, r, 1)?;
            let Value::Ref(l) = *val(instrs, r, 1) else {
                return Err(RuntimeError::stuck("free on non-ref"));
            };
            if l.mem != Mem::Lin {
                trap(
                    instrs,
                    r,
                    1,
                    note,
                    "free of unrestricted (GC-owned) memory".into(),
                );
            } else if store.mem.free_lin(l.idx) {
                reduce(instrs, r, 1, []);
            } else {
                trap(
                    instrs,
                    r,
                    1,
                    note,
                    format!("double free / dangling free of {l}"),
                );
            }
        }
        // The heap rules below keep their reference operand in place
        // under the result (Fig. 4), so they rewrite only what lies
        // above it.
        Instr::StructGet(i) => {
            let i = *i as usize;
            need(instrs, r, 1)?;
            let l = ref_loc(val(instrs, r, 1))?;
            let Some(cell) = store.mem.get(l) else {
                trap(instrs, r, 1, note, format!("use after free: {l}"));
                return Ok(SeqOut::Stepped);
            };
            let HeapValue::Struct(fields) = &cell.hv else {
                return Err(RuntimeError::stuck("struct.get on non-struct cell"));
            };
            let fv = fields
                .get(i)
                .cloned()
                .ok_or_else(|| RuntimeError::stuck("struct.get: field out of range"))?;
            instrs[r] = Instr::Val(fv);
        }
        Instr::StructSet(i) | Instr::StructSwap(i) => {
            let (i, swap) = (*i as usize, matches!(instrs[r], Instr::StructSwap(_)));
            let what = if swap { "struct.swap" } else { "struct.set" };
            need(instrs, r, 2)?;
            let l = ref_loc(val(instrs, r, 2))?;
            let Some(cell) = store.mem.get_mut(l) else {
                trap(instrs, r, 2, note, format!("use after free: {l}"));
                return Ok(SeqOut::Stepped);
            };
            let HeapValue::Struct(fields) = &mut cell.hv else {
                return Err(RuntimeError::stuck(format!("{what} on non-struct cell")));
            };
            let slot = fields
                .get_mut(i)
                .ok_or_else(|| RuntimeError::stuck(format!("{what}: field out of range")))?;
            let old = std::mem::replace(slot, take_val(instrs, r, 1));
            reduce(instrs, r, 1, swap.then_some(Instr::Val(old)));
        }
        Instr::VariantCase(q, _, b, bodies) => {
            let linear = matches!(q, Qual::Lin);
            let (n, arity) = (b.arrow.params.len(), b.arrow.results.len() as u32);
            need(instrs, r, n + 1)?;
            let l = ref_loc(val(instrs, r, n + 1))?;
            let Some(cell) = store.mem.get(l) else {
                trap(instrs, r, n + 1, note, format!("use after free: {l}"));
                return Ok(SeqOut::Stepped);
            };
            let HeapValue::Variant(tag, payload) = &cell.hv else {
                return Err(RuntimeError::stuck("variant.case on non-variant cell"));
            };
            let tag = *tag as usize;
            if tag >= bodies.len() {
                return Err(RuntimeError::stuck("variant.case: tag out of range"));
            }
            let payload = (**payload).clone();
            let Instr::VariantCase(_, _, _, mut bodies) = take_redex(instrs, r) else {
                unreachable!("matched above")
            };
            let body = label_body(instrs, r, 1, n, Some(payload), bodies.swap_remove(tag));
            // A linear case consumes the reference and frees the cell.
            let free = linear.then_some(Instr::Free);
            reduce(
                instrs,
                r,
                n,
                free.into_iter().chain([label(arity, vec![], body)]),
            );
        }
        Instr::ExistUnpack(q, _, b, body) => {
            let linear = matches!(q, Qual::Lin);
            let (n, arity) = (b.arrow.params.len(), b.arrow.results.len() as u32);
            need(instrs, r, n + 1)?;
            let l = ref_loc(val(instrs, r, n + 1))?;
            let Some(cell) = store.mem.get(l) else {
                trap(instrs, r, n + 1, note, format!("use after free: {l}"));
                return Ok(SeqOut::Stepped);
            };
            let HeapValue::Pack(p, inner, _) = &cell.hv else {
                return Err(RuntimeError::stuck("exist.unpack on non-package cell"));
            };
            let opened = subst_instrs(body, &SubstEnv::pretype(p.clone()));
            let body = label_body(instrs, r, 1, n, Some((**inner).clone()), opened);
            let free = linear.then_some(Instr::Free);
            reduce(
                instrs,
                r,
                n,
                free.into_iter().chain([label(arity, vec![], body)]),
            );
        }
        Instr::ArrayGet => {
            need(instrs, r, 2)?;
            let idx = val(instrs, r, 1)
                .as_num()
                .map(|(_, b)| b as usize)
                .ok_or_else(|| RuntimeError::stuck("array.get index not numeric"))?;
            let l = ref_loc(val(instrs, r, 2))?;
            let Some(cell) = store.mem.get(l) else {
                trap(instrs, r, 2, note, format!("use after free: {l}"));
                return Ok(SeqOut::Stepped);
            };
            let HeapValue::Array(items) = &cell.hv else {
                return Err(RuntimeError::stuck("array.get on non-array cell"));
            };
            match items.get(idx) {
                Some(v) => reduce(instrs, r, 1, [Instr::Val(v.clone())]),
                // Out-of-bounds access traps (Fig. 4).
                None => trap(
                    instrs,
                    r,
                    2,
                    note,
                    format!("array.get out of bounds ({idx})"),
                ),
            }
        }
        Instr::ArraySet => {
            need(instrs, r, 3)?;
            let idx = val(instrs, r, 2)
                .as_num()
                .map(|(_, b)| b as usize)
                .ok_or_else(|| RuntimeError::stuck("array.set index not numeric"))?;
            let l = ref_loc(val(instrs, r, 3))?;
            let Some(cell) = store.mem.get_mut(l) else {
                trap(instrs, r, 3, note, format!("use after free: {l}"));
                return Ok(SeqOut::Stepped);
            };
            let HeapValue::Array(items) = &mut cell.hv else {
                return Err(RuntimeError::stuck("array.set on non-array cell"));
            };
            match items.get_mut(idx) {
                Some(slot) => {
                    *slot = take_val(instrs, r, 1);
                    reduce(instrs, r, 2, []);
                }
                None => trap(
                    instrs,
                    r,
                    3,
                    note,
                    format!("array.set out of bounds ({idx})"),
                ),
            }
        }
    }
    Ok(SeqOut::Stepped)
}

// Operand access for the redex at `r` of a last-first sequence: the
// operand `back` slots below the redex (1 = top of stack) sits at
// `r + back`.

/// The number of values below the redex at `r`.
fn operands(instrs: &[Instr], r: usize) -> usize {
    instrs.len() - 1 - r
}

/// Fails with the stuck "needs `n` operands" error unless `n` values sit
/// below the redex at `r`. The redex is only rendered on that path.
fn need(instrs: &[Instr], r: usize, n: usize) -> Result<(), RuntimeError> {
    let has = operands(instrs, r);
    if has < n {
        return Err(RuntimeError::stuck(format!(
            "instruction {} needs {n} operands, has {has}",
            instrs[r]
        )));
    }
    Ok(())
}

/// The operand `back` slots below the redex at `r`.
fn val(instrs: &[Instr], r: usize, back: usize) -> &Value {
    match &instrs[r + back] {
        Instr::Val(v) => v,
        _ => unreachable!("operands are values"),
    }
}

/// Moves the operand `back` slots below the redex at `r` out of the
/// sequence; the splice that ends the step drops its placeholder.
fn take_val(instrs: &mut [Instr], r: usize, back: usize) -> Value {
    match std::mem::replace(&mut instrs[r + back], Instr::Nop) {
        Instr::Val(v) => v,
        _ => unreachable!("operands are values"),
    }
}

/// Moves the `n` operands from `back` slots below the redex at `r`
/// downwards out of the sequence, deepest first.
fn take_vals(
    instrs: &mut [Instr],
    r: usize,
    back: usize,
    n: usize,
) -> impl Iterator<Item = Value> + '_ {
    instrs[r + back..r + back + n].iter_mut().rev().map(|e| {
        match std::mem::replace(e, Instr::Nop) {
            Instr::Val(v) => v,
            _ => unreachable!("operands are values"),
        }
    })
}

/// Moves the redex at `r` out of the sequence; the splice that ends the
/// step drops its placeholder.
fn take_redex(instrs: &mut [Instr], r: usize) -> Instr {
    std::mem::replace(&mut instrs[r], Instr::Nop)
}

/// Ends a step: replaces the redex at `r` and the `n` operands below it
/// with `repl`, given in program order.
fn reduce<I>(instrs: &mut Vec<Instr>, r: usize, n: usize, repl: I)
where
    I: IntoIterator<Item = Instr>,
    I::IntoIter: DoubleEndedIterator,
{
    instrs.splice(r..=r + n, repl.into_iter().rev());
}

/// Ends a step in a trap: replaces the redex at `r` and the `n`
/// operands below it with `trap`, recording why.
fn trap(instrs: &mut Vec<Instr>, r: usize, n: usize, note: &mut Option<String>, why: String) {
    *note = Some(why);
    reduce(instrs, r, n, [Instr::Trap]);
}

fn label(arity: u32, cont: Vec<Instr>, body: Vec<Instr>) -> Instr {
    Instr::Label { arity, cont, body }
}

/// The last-first body of the label a block-like redex at `r` opens:
/// the `n` operands from `back` slots below the redex downwards (moved
/// out of the sequence), then the unpacked value if any, then `code`,
/// given in program order.
fn label_body(
    instrs: &mut [Instr],
    r: usize,
    back: usize,
    n: usize,
    unpacked: Option<Value>,
    mut code: Vec<Instr>,
) -> Vec<Instr> {
    code.reverse();
    code.extend(unpacked.map(Instr::Val));
    code.extend(
        instrs[r + back..r + back + n]
            .iter_mut()
            .map(|e| std::mem::replace(e, Instr::Nop)),
    );
    code
}

/// Shallow shape check for host-function results: the tag of a scalar
/// value must match the declared pretype exactly (host results are
/// spliced into the *typed* instruction stream, so a wrong `NumType` tag
/// would break later numeric steps). Structured declared types cannot be
/// validated without the checker; they are accepted as-is.
fn host_result_matches(v: &Value, t: &crate::syntax::Type) -> bool {
    use crate::syntax::Pretype;
    match &*t.pre {
        Pretype::Unit => matches!(v, Value::Unit),
        Pretype::Num(nt) => matches!(v, Value::Num(vt, _) if vt == nt),
        _ => true,
    }
}

fn ref_loc(v: &Value) -> Result<ConcreteLoc, RuntimeError> {
    v.as_ref_loc()
        .ok_or_else(|| RuntimeError::stuck(format!("expected a reference, got {v}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::NumType;

    fn run_to_end(cfg: &mut Config) -> Outcome {
        let mut store = Store::default();
        let modules: Vec<Arc<Module>> = vec![];
        for _ in 0..10_000 {
            match step_config(&mut store, &modules, &HostFuncs::default(), cfg).unwrap() {
                Outcome::Stepped => continue,
                o => return o,
            }
        }
        panic!("did not terminate");
    }

    #[test]
    fn arithmetic_reduces() {
        let mut cfg = Config {
            instrs: vec![
                Instr::i32(6),
                Instr::i32(7),
                Instr::Num(NumInstr::IntBinop(
                    NumType::I32,
                    crate::syntax::instr::IntBinop::Mul,
                )),
            ],
            ..Config::default()
        };
        assert_eq!(run_to_end(&mut cfg), Outcome::Done);
        assert_eq!(cfg.results().unwrap(), vec![Value::i32(42)]);
    }

    use crate::syntax::instr::NumInstr;

    #[test]
    fn div_by_zero_traps() {
        let mut cfg = Config {
            instrs: vec![
                Instr::i32(1),
                Instr::i32(0),
                Instr::Num(NumInstr::IntBinop(
                    NumType::I32,
                    crate::syntax::instr::IntBinop::Div(crate::syntax::instr::Sign::S),
                )),
            ],
            ..Config::default()
        };
        assert_eq!(run_to_end(&mut cfg), Outcome::Trapped);
        assert!(cfg
            .trap_reason
            .as_deref()
            .unwrap()
            .contains("divide by zero"));
    }

    #[test]
    fn block_and_br() {
        // block { 5; br 0; 7 } → 5
        let mut cfg = Config {
            instrs: vec![Instr::BlockI(
                crate::syntax::instr::Block::new(
                    crate::syntax::ArrowType::new(
                        vec![],
                        vec![crate::syntax::Type::num(NumType::I32)],
                    ),
                    vec![],
                ),
                vec![Instr::i32(5), Instr::Br(0), Instr::i32(7)],
            )],
            ..Config::default()
        };
        assert_eq!(run_to_end(&mut cfg), Outcome::Done);
        assert_eq!(cfg.results().unwrap(), vec![Value::i32(5)]);
    }

    #[test]
    fn struct_malloc_get_free() {
        let mut store = Store::default();
        let modules: Vec<Arc<Module>> = vec![];
        let mut cfg = Config {
            instrs: vec![
                Instr::i32(9),
                Instr::StructMalloc(vec![Size::Const(32)], Qual::Lin),
            ],
            ..Config::default()
        };
        loop {
            match step_config(&mut store, &modules, &HostFuncs::default(), &mut cfg).unwrap() {
                Outcome::Stepped => continue,
                Outcome::Done => break,
                Outcome::Trapped => panic!("trap"),
            }
        }
        let vals = cfg.results().unwrap();
        assert_eq!(vals.len(), 1);
        let Value::MemPack(l, inner) = &vals[0] else {
            panic!("expected package")
        };
        assert_eq!(**inner, Value::Ref(*l));
        assert_eq!(store.mem.lin.len(), 1);
        // Free it.
        let mut cfg = Config {
            instrs: vec![Instr::Val(Value::Ref(*l)), Instr::Free],
            ..Config::default()
        };
        loop {
            match step_config(&mut store, &modules, &HostFuncs::default(), &mut cfg).unwrap() {
                Outcome::Stepped => continue,
                Outcome::Done => break,
                Outcome::Trapped => panic!("trap"),
            }
        }
        assert_eq!(store.mem.lin.len(), 0);
        // Double free traps.
        let mut cfg = Config {
            instrs: vec![Instr::Val(Value::Ref(*l)), Instr::Free],
            ..Config::default()
        };
        loop {
            match step_config(&mut store, &modules, &HostFuncs::default(), &mut cfg).unwrap() {
                Outcome::Stepped => continue,
                Outcome::Done => panic!("double free must trap"),
                Outcome::Trapped => break,
            }
        }
        assert!(cfg.trap_reason.unwrap().contains("double free"));
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::syntax::instr::{Block as RwBlock, IntBinop, NumInstr};
    use crate::syntax::{ArrowType, NumType, Type};

    fn drive(store: &mut Store, cfg: &mut Config) -> Outcome {
        let modules: Vec<Arc<Module>> = vec![];
        for _ in 0..100_000 {
            match step_config(store, &modules, &HostFuncs::default(), cfg).unwrap() {
                Outcome::Stepped => continue,
                o => return o,
            }
        }
        panic!("did not terminate");
    }

    #[test]
    fn br_table_selects_target() {
        // block { block { 0/1/2; br_table [0,1] 1 } push 10 } push 20 …
        for (sel, expect) in [(0, 30), (1, 20), (7, 20)] {
            let mut store = Store::default();
            let inner = Instr::BlockI(
                RwBlock::new(ArrowType::new(vec![], vec![]), vec![]),
                vec![Instr::i32(sel), Instr::BrTable(vec![0, 1], 1)],
            );
            let outer = Instr::BlockI(
                RwBlock::new(
                    ArrowType::new(vec![], vec![Type::num(NumType::I32)]),
                    vec![],
                ),
                vec![
                    inner,
                    // Fell out of the inner block (sel == 0):
                    Instr::i32(30),
                    Instr::Br(0),
                ],
            );
            let mut cfg = Config {
                instrs: vec![
                    outer,
                    // If the outer block produced nothing… it always produces
                    // one value; add 20 only when inner br went to label 1.
                ],
                ..Config::default()
            };
            // For sel != 0 the br_table exits both blocks, so the outer
            // block's result must come from somewhere: restructure — the
            // outer label type is [i32], so a br 1 from the inner body
            // needs an i32 on the stack. Push it first.
            let Instr::BlockI(b, body) = &mut cfg.instrs[0] else {
                unreachable!()
            };
            let Instr::BlockI(_, inner_body) = &mut body[0] else {
                unreachable!()
            };
            inner_body.insert(0, Instr::i32(20));
            let _ = b;
            assert_eq!(drive(&mut store, &mut cfg), Outcome::Done);
            assert_eq!(cfg.results().unwrap(), vec![Value::i32(expect)]);
        }
    }

    #[test]
    fn select_picks_by_condition() {
        for (c, expect) in [(1, 10), (0, 20)] {
            let mut store = Store::default();
            let mut cfg = Config {
                instrs: vec![Instr::i32(10), Instr::i32(20), Instr::i32(c), Instr::Select],
                ..Config::default()
            };
            assert_eq!(drive(&mut store, &mut cfg), Outcome::Done);
            assert_eq!(cfg.results().unwrap(), vec![Value::i32(expect)]);
        }
    }

    #[test]
    fn exist_pack_unpack_reduction() {
        use crate::syntax::{HeapType, Pretype, Qual};
        let psi = HeapType::Exists(Qual::Unr, Size::Const(64), Box::new(Pretype::Var(0).unr()));
        let mut store = Store::default();
        let mut cfg = Config {
            instrs: vec![
                Instr::i32(9),
                Instr::ExistPack(Pretype::Num(NumType::I32), psi.clone(), Qual::Lin),
                Instr::MemUnpack(
                    RwBlock::new(
                        ArrowType::new(vec![], vec![Type::num(NumType::I32)]),
                        vec![],
                    ),
                    vec![Instr::ExistUnpack(
                        Qual::Lin,
                        psi,
                        RwBlock::new(
                            ArrowType::new(vec![], vec![Type::num(NumType::I32)]),
                            vec![],
                        ),
                        vec![
                            Instr::i32(1),
                            Instr::Num(NumInstr::IntBinop(NumType::I32, IntBinop::Add)),
                        ],
                    )],
                ),
            ],
            ..Config::default()
        };
        assert_eq!(drive(&mut store, &mut cfg), Outcome::Done);
        assert_eq!(cfg.results().unwrap(), vec![Value::i32(10)]);
        // The linear unpack freed the package cell.
        assert_eq!(store.mem.lin.len(), 0);
        assert_eq!(store.mem.frees, 1);
    }

    #[test]
    fn variant_case_reduction_both_quals() {
        use crate::syntax::{HeapType, Qual};
        let cases = vec![Type::num(NumType::I32), Type::unit()];
        for (q, leftover) in [(Qual::Lin, 0usize), (Qual::Unr, 1usize)] {
            let mut store = Store::default();
            // Both qualifiers use the same case-result arrow; only the
            // leftover reference differs.
            let case_results = ArrowType::new(vec![], vec![Type::num(NumType::I32)]);
            let mut body = vec![Instr::VariantCase(
                q,
                HeapType::Variant(cases.clone()),
                RwBlock::new(case_results, vec![]),
                vec![vec![], vec![Instr::Drop, Instr::i32(-1)]],
            )];
            if q == Qual::Unr {
                // Ref comes back under the result: swap and drop it.
                body = vec![
                    body.remove(0),
                    Instr::SetLocal(0),
                    Instr::Drop,
                    Instr::GetLocal(0, Qual::Unr),
                ];
            }
            let alloc_q = q;
            let mut cfg = Config {
                locals: vec![(Value::Unit, Size::Const(32))],
                instrs: vec![
                    Instr::i32(5),
                    Instr::VariantMalloc(0, cases.clone(), alloc_q),
                    Instr::MemUnpack(
                        RwBlock::new(
                            ArrowType::new(vec![], vec![Type::num(NumType::I32)]),
                            vec![],
                        ),
                        body,
                    ),
                ],
                ..Config::default()
            };
            assert_eq!(drive(&mut store, &mut cfg), Outcome::Done);
            assert_eq!(cfg.results().unwrap(), vec![Value::i32(5)]);
            assert_eq!(store.mem.live(), leftover, "qual {q}");
        }
    }

    #[test]
    fn array_oob_traps_cleanly() {
        let mut store = Store::default();
        let mut cfg = Config {
            instrs: vec![
                Instr::i32(0),
                Instr::Val(Value::u32(2)),
                Instr::ArrayMalloc(Qual::Lin),
                Instr::MemUnpack(
                    RwBlock::new(ArrowType::new(vec![], vec![]), vec![]),
                    vec![
                        Instr::Val(Value::u32(5)),
                        Instr::ArrayGet,
                        Instr::Drop,
                        Instr::ArrayFree,
                    ],
                ),
            ],
            ..Config::default()
        };
        assert_eq!(drive(&mut store, &mut cfg), Outcome::Trapped);
        assert!(cfg
            .trap_reason
            .as_deref()
            .unwrap()
            .contains("out of bounds"));
    }
}

#[cfg(test)]
mod stuck_tests {
    use super::*;
    use crate::syntax::instr::{Block as RwBlock, IntBinop, NumInstr};
    use crate::syntax::{ArrowType, NumType, Type};

    /// Takes one step of `instrs` and returns the stuck reason.
    fn stuck_reason(instrs: Vec<Instr>) -> String {
        let mut cfg = Config {
            instrs,
            ..Config::default()
        };
        let before = cfg.instrs.clone();
        match step_config(&mut Store::default(), &[], &HostFuncs::default(), &mut cfg) {
            Err(RuntimeError::Stuck { reason }) => {
                assert_eq!(cfg.instrs, before, "a stuck step changes nothing");
                reason
            }
            other => panic!("expected a stuck step, got {other:?}"),
        }
    }

    #[test]
    fn missing_operands_are_stuck_with_the_redex_named() {
        assert_eq!(
            stuck_reason(vec![Instr::Drop]),
            "instruction drop needs 1 operands, has 0"
        );
        let add = Instr::Num(NumInstr::IntBinop(NumType::I32, IntBinop::Add));
        assert_eq!(
            stuck_reason(vec![Instr::i32(1), add]),
            "instruction IntBinop(I32, Add) needs 2 operands, has 1"
        );
        let block = Instr::BlockI(
            RwBlock::new(
                ArrowType::new(vec![Type::num(NumType::I32)], vec![]),
                vec![],
            ),
            vec![Instr::Drop],
        );
        assert_eq!(
            stuck_reason(vec![block]),
            "instruction block [i32^unr] → [] needs 1 operands, has 0"
        );
    }

    #[test]
    fn a_failed_side_condition_leaves_the_operands_in_place() {
        let instrs = vec![
            Instr::i32(1),
            Instr::i32(2),
            Instr::Val(Value::Unit),
            Instr::Select,
        ];
        assert_eq!(stuck_reason(instrs), "select condition not i32");
        let instrs = vec![Instr::i32(3), Instr::Ungroup];
        assert_eq!(stuck_reason(instrs), "seq.ungroup on non-tuple");
    }
}
