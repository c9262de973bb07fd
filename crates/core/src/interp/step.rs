//! The small-step reduction relation (paper Fig. 4).
//!
//! A configuration `s; v*; sz*; e*` reduces one administrative step at a
//! time. Evaluation descends through `label`/`local` contexts (the
//! paper's `L^k`); `br`/`return` propagate outward carrying their value
//! prefix; traps normalise the enclosing sequence.

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
    /// The instruction sequence under reduction.
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
/// tests rely on that.
pub fn step_config(
    store: &mut Store,
    modules: &[Arc<Module>],
    hosts: &HostFuncs,
    cfg: &mut Config,
) -> Result<Outcome, RuntimeError> {
    let mut note = None;
    let inst = cfg.inst;
    let r = step_seq(
        store,
        modules,
        hosts,
        inst,
        &mut cfg.locals,
        &mut cfg.instrs,
        &mut note,
    );
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

fn take_values(es: &[Instr]) -> Vec<Value> {
    es.iter()
        .map(|e| match e {
            Instr::Val(v) => v.clone(),
            _ => unreachable!("take_values on non-value"),
        })
        .collect()
}

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
    let Some(k) = instrs.iter().position(|e| !is_value(e)) else {
        return Ok(SeqOut::Done);
    };

    // Trap normalisation: `v* trap e* ↩ trap`.
    if matches!(instrs[k], Instr::Trap) {
        if instrs.len() == 1 {
            return Ok(SeqOut::TrapNow);
        }
        instrs.clear();
        instrs.push(Instr::Trap);
        return Ok(SeqOut::Stepped);
    }

    // Control frames: descend.
    if let Instr::Label { arity, cont, body } = &mut instrs[k] {
        if all_values(body) {
            let vals = take_values(body);
            let repl: Vec<Instr> = vals.into_iter().map(Instr::Val).collect();
            instrs.splice(k..=k, repl);
            return Ok(SeqOut::Stepped);
        }
        if body.len() == 1 && matches!(body[0], Instr::Trap) {
            instrs[k] = Instr::Trap;
            return Ok(SeqOut::Stepped);
        }
        let arity = *arity;
        let cont = cont.clone();
        return match step_seq(store, modules, hosts, inst, locals, body, note)? {
            SeqOut::Stepped => Ok(SeqOut::Stepped),
            SeqOut::TrapNow => {
                instrs[k] = Instr::Trap;
                Ok(SeqOut::Stepped)
            }
            SeqOut::Br(0, vals) => {
                let n = arity as usize;
                if vals.len() < n {
                    return Err(RuntimeError::stuck("br carries too few values"));
                }
                let keep = vals[vals.len() - n..].to_vec();
                let mut repl: Vec<Instr> = keep.into_iter().map(Instr::Val).collect();
                repl.extend(cont);
                instrs.splice(k..=k, repl);
                Ok(SeqOut::Stepped)
            }
            SeqOut::Br(j, vals) => Ok(SeqOut::Br(j - 1, vals)),
            SeqOut::Ret(vals) => Ok(SeqOut::Ret(vals)),
            SeqOut::Done => unreachable!("body had a non-value instruction"),
        };
    }

    if matches!(instrs[k], Instr::LocalFrame { .. }) {
        let (arity, fi) = {
            let Instr::LocalFrame {
                arity,
                inst: fi,
                body,
                ..
            } = &instrs[k]
            else {
                unreachable!()
            };
            if all_values(body) {
                if body.len() != *arity as usize {
                    return Err(RuntimeError::stuck(
                        "function returned wrong number of values",
                    ));
                }
                let vals = take_values(body);
                let repl: Vec<Instr> = vals.into_iter().map(Instr::Val).collect();
                instrs.splice(k..=k, repl);
                return Ok(SeqOut::Stepped);
            }
            if body.len() == 1 && matches!(body[0], Instr::Trap) {
                instrs[k] = Instr::Trap;
                return Ok(SeqOut::Stepped);
            }
            (*arity as usize, *fi)
        };
        let r = {
            let Instr::LocalFrame {
                locals: flocals,
                body,
                ..
            } = &mut instrs[k]
            else {
                unreachable!()
            };
            step_seq(store, modules, hosts, fi, flocals, body, note)?
        };
        return match r {
            SeqOut::Stepped => Ok(SeqOut::Stepped),
            SeqOut::TrapNow => {
                instrs[k] = Instr::Trap;
                Ok(SeqOut::Stepped)
            }
            SeqOut::Br(..) => Err(RuntimeError::stuck("br escaped a function body")),
            SeqOut::Ret(vals) => {
                if vals.len() < arity {
                    return Err(RuntimeError::stuck("return carries too few values"));
                }
                let keep = vals[vals.len() - arity..].to_vec();
                let repl: Vec<Instr> = keep.into_iter().map(Instr::Val).collect();
                instrs.splice(k..=k, repl);
                Ok(SeqOut::Stepped)
            }
            SeqOut::Done => unreachable!("body had a non-value instruction"),
        };
    }

    // Branches and returns collect their value prefix and propagate.
    match &instrs[k] {
        Instr::Br(j) => {
            let j = *j;
            let vals = take_values(&instrs[..k]);
            return Ok(SeqOut::Br(j, vals));
        }
        Instr::Return => {
            let vals = take_values(&instrs[..k]);
            return Ok(SeqOut::Ret(vals));
        }
        _ => {}
    }

    // Everything else is a primitive redex consuming `n` values directly
    // before position `k`.
    let e = instrs[k].clone();
    let e_str = e.to_string();
    let prefix = k; // number of values available
    let consume_and_replace =
        move |instrs: &mut Vec<Instr>, n: usize, repl: Vec<Instr>| -> Result<(), RuntimeError> {
            if prefix < n {
                return Err(RuntimeError::stuck(format!(
                    "instruction {e_str} needs {n} operands, has {prefix}"
                )));
            }
            instrs.splice(k - n..=k, repl);
            Ok(())
        };
    let val = |instrs: &Vec<Instr>, back: usize| -> Value {
        match &instrs[k - back] {
            Instr::Val(v) => v.clone(),
            _ => unreachable!("prefix is values"),
        }
    };
    let trap = |instrs: &mut Vec<Instr>, n: usize, note: &mut Option<String>, why: String| {
        *note = Some(why);
        instrs.splice(k - n..=k, [Instr::Trap]);
    };

    match e {
        Instr::Val(_)
        | Instr::Label { .. }
        | Instr::LocalFrame { .. }
        | Instr::Trap
        | Instr::Br(_)
        | Instr::Return => unreachable!("handled above"),

        Instr::Nop => consume_and_replace(instrs, 0, vec![])?,
        Instr::Unreachable => {
            *note = Some("unreachable executed".into());
            consume_and_replace(instrs, 0, vec![Instr::Trap])?;
        }
        Instr::Drop => consume_and_replace(instrs, 1, vec![])?,
        Instr::Select => {
            let c = val(instrs, 1)
                .as_i32()
                .ok_or_else(|| RuntimeError::stuck("select condition not i32"))?;
            let v2 = val(instrs, 2);
            let v1 = val(instrs, 3);
            let keep = if c != 0 { v1 } else { v2 };
            consume_and_replace(instrs, 3, vec![Instr::Val(keep)])?;
        }
        Instr::Num(n) => {
            let a = num::arity(n);
            let mut ops = Vec::with_capacity(a);
            for i in (1..=a).rev() {
                ops.push(val(instrs, i));
            }
            match num::eval(n, &ops) {
                Ok(v) => consume_and_replace(instrs, a, vec![Instr::Val(v)])?,
                Err(RuntimeError::Trap { reason }) => trap(instrs, a, note, reason),
                Err(other) => return Err(other),
            }
        }
        Instr::BlockI(b, body) => {
            let n = b.arrow.params.len();
            let arity = b.arrow.results.len() as u32;
            let mut inner: Vec<Instr> = (0..n)
                .rev()
                .map(|i| Instr::Val(val(instrs, i + 1)))
                .collect();
            inner.extend(body);
            consume_and_replace(
                instrs,
                n,
                vec![Instr::Label {
                    arity,
                    cont: vec![],
                    body: inner,
                }],
            )?;
        }
        Instr::LoopI(arrow, body) => {
            let n = arrow.params.len();
            let arity = n as u32; // a br to a loop label re-enters with the params
            let this_loop = Instr::LoopI(arrow, body.clone());
            let mut inner: Vec<Instr> = (0..n)
                .rev()
                .map(|i| Instr::Val(val(instrs, i + 1)))
                .collect();
            inner.extend(body);
            consume_and_replace(
                instrs,
                n,
                vec![Instr::Label {
                    arity,
                    cont: vec![this_loop],
                    body: inner,
                }],
            )?;
        }
        Instr::IfI(b, then_b, else_b) => {
            let c = val(instrs, 1)
                .as_i32()
                .ok_or_else(|| RuntimeError::stuck("if condition not i32"))?;
            let n = b.arrow.params.len();
            let arity = b.arrow.results.len() as u32;
            let chosen = if c != 0 { then_b } else { else_b };
            let mut inner: Vec<Instr> = (0..n)
                .rev()
                .map(|i| Instr::Val(val(instrs, i + 2)))
                .collect();
            inner.extend(chosen);
            consume_and_replace(
                instrs,
                n + 1,
                vec![Instr::Label {
                    arity,
                    cont: vec![],
                    body: inner,
                }],
            )?;
        }
        Instr::BrIf(j) => {
            let c = val(instrs, 1)
                .as_i32()
                .ok_or_else(|| RuntimeError::stuck("br_if condition not i32"))?;
            let repl = if c != 0 { vec![Instr::Br(j)] } else { vec![] };
            consume_and_replace(instrs, 1, repl)?;
        }
        Instr::BrTable(targets, default) => {
            let c = val(instrs, 1)
                .as_i32()
                .ok_or_else(|| RuntimeError::stuck("br_table index not i32"))?;
            let t = targets.get(c as usize).copied().unwrap_or(default);
            consume_and_replace(instrs, 1, vec![Instr::Br(t)])?;
        }
        Instr::GetLocal(i, q) => {
            let (v, _) = locals
                .get(i as usize)
                .cloned()
                .ok_or_else(|| RuntimeError::stuck(format!("get_local {i}: no such slot")))?;
            if !matches!(q, Qual::Unr) {
                // Linear read: strongly update the slot to unit (§2.1).
                locals[i as usize].0 = Value::Unit;
            }
            consume_and_replace(instrs, 0, vec![Instr::Val(v)])?;
        }
        Instr::SetLocal(i) => {
            let v = val(instrs, 1);
            if locals.len() <= i as usize {
                return Err(RuntimeError::stuck(format!("set_local {i}: no such slot")));
            }
            locals[i as usize].0 = v;
            consume_and_replace(instrs, 1, vec![])?;
        }
        Instr::TeeLocal(i) => {
            let v = val(instrs, 1);
            if locals.len() <= i as usize {
                return Err(RuntimeError::stuck(format!("tee_local {i}: no such slot")));
            }
            locals[i as usize].0 = v.clone();
            consume_and_replace(instrs, 1, vec![Instr::Val(v)])?;
        }
        Instr::GetGlobal(i) => {
            let v = store
                .insts
                .get(inst as usize)
                .and_then(|m| m.globals.get(i as usize))
                .cloned()
                .ok_or_else(|| RuntimeError::stuck(format!("get_global {i}: no such global")))?;
            consume_and_replace(instrs, 0, vec![Instr::Val(v)])?;
        }
        Instr::SetGlobal(i) => {
            let v = val(instrs, 1);
            let slot = store
                .insts
                .get_mut(inst as usize)
                .and_then(|m| m.globals.get_mut(i as usize))
                .ok_or_else(|| RuntimeError::stuck(format!("set_global {i}: no such global")))?;
            *slot = v;
            consume_and_replace(instrs, 1, vec![])?;
        }
        // Type-level instructions are computationally irrelevant.
        Instr::Qualify(_) | Instr::RefDemote => consume_and_replace(instrs, 0, vec![])?,
        Instr::CodeRefI(i) => {
            consume_and_replace(
                instrs,
                0,
                vec![Instr::Val(Value::CodeRef {
                    inst,
                    table_idx: i,
                    indices: vec![],
                })],
            )?;
        }
        Instr::Inst(zs) => {
            let v = val(instrs, 1);
            let Value::CodeRef {
                inst: ci,
                table_idx,
                mut indices,
            } = v
            else {
                return Err(RuntimeError::stuck("inst on non-coderef"));
            };
            indices.extend(zs);
            consume_and_replace(
                instrs,
                1,
                vec![Instr::Val(Value::CodeRef {
                    inst: ci,
                    table_idx,
                    indices,
                })],
            )?;
        }
        Instr::CallIndirect => {
            let v = val(instrs, 1);
            let Value::CodeRef {
                inst: ci,
                table_idx,
                indices,
            } = v
            else {
                return Err(RuntimeError::stuck("call_indirect on non-coderef"));
            };
            let cl = store
                .insts
                .get(ci as usize)
                .and_then(|m| m.table.get(table_idx as usize))
                .copied()
                .ok_or_else(|| RuntimeError::stuck("call_indirect: bad table entry"))?;
            consume_and_replace(
                instrs,
                1,
                vec![Instr::CallAdmin {
                    inst: cl.inst,
                    func: cl.func,
                    indices,
                }],
            )?;
        }
        Instr::Call(j, zs) => {
            let cl: Closure = store
                .insts
                .get(inst as usize)
                .and_then(|m| m.funcs.get(j as usize))
                .copied()
                .ok_or_else(|| RuntimeError::stuck(format!("call {j}: no such function")))?;
            consume_and_replace(
                instrs,
                0,
                vec![Instr::CallAdmin {
                    inst: cl.inst,
                    func: cl.func,
                    indices: zs,
                }],
            )?;
        }
        Instr::CallAdmin {
            inst: ci,
            func: fi,
            indices,
        } => {
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
                if prefix < n {
                    return Err(RuntimeError::stuck("host call with too few arguments"));
                }
                let mut args = Vec::with_capacity(n);
                for i in (1..=n).rev() {
                    args.push(val(instrs, i));
                }
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
                                n,
                                note,
                                format!("host function error: returned {v}, its type declares {t}"),
                            );
                        } else {
                            consume_and_replace(
                                instrs,
                                n,
                                vals.into_iter().map(Instr::Val).collect(),
                            )?;
                        }
                    }
                    Err(msg) => trap(instrs, n, note, format!("host function error: {msg}")),
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
                SubstEnv::for_instantiation(&ty.quants, &indices).map_err(RuntimeError::stuck)?;
            let n = ty.arrow.params.len();
            if prefix < n {
                return Err(RuntimeError::stuck("call with too few arguments"));
            }
            let mut frame_locals: Vec<(Value, Size)> = Vec::with_capacity(n + lsizes.len());
            for i in (1..=n).rev() {
                let v = val(instrs, i);
                let pty = subst_type(&ty.arrow.params[n - i], &env);
                let size = size_of_type(&crate::env::KindCtx::new(), &pty)
                    .unwrap_or(Size::Const(size_of_value(&v)));
                frame_locals.push((v, size));
            }
            for sz in lsizes {
                frame_locals.push((Value::Unit, subst_size(sz, &env)));
            }
            let body = subst_instrs(body, &env);
            let arity = ty.arrow.results.len() as u32;
            consume_and_replace(
                instrs,
                n,
                vec![Instr::LocalFrame {
                    arity,
                    inst: ci,
                    locals: frame_locals,
                    body,
                }],
            )?;
        }
        Instr::RecFold(_) => {
            let v = val(instrs, 1);
            consume_and_replace(instrs, 1, vec![Instr::Val(Value::Fold(Box::new(v)))])?;
        }
        Instr::RecUnfold => {
            let v = val(instrs, 1);
            let Value::Fold(inner) = v else {
                return Err(RuntimeError::stuck("rec.unfold on non-fold"));
            };
            consume_and_replace(instrs, 1, vec![Instr::Val(*inner)])?;
        }
        Instr::MemPack(l) => {
            let v = val(instrs, 1);
            let Loc::Concrete(cl) = l else {
                return Err(RuntimeError::stuck(
                    "mem.pack of an abstract location at runtime",
                ));
            };
            consume_and_replace(instrs, 1, vec![Instr::Val(Value::MemPack(cl, Box::new(v)))])?;
        }
        Instr::MemUnpack(b, body) => {
            let pkg = val(instrs, 1);
            let Value::MemPack(cl, inner) = pkg else {
                return Err(RuntimeError::stuck("mem.unpack on non-package"));
            };
            let n = b.arrow.params.len();
            let arity = b.arrow.results.len() as u32;
            let opened = subst_instrs(&body, &SubstEnv::loc(Loc::Concrete(cl)));
            let mut seq: Vec<Instr> = (0..n)
                .rev()
                .map(|i| Instr::Val(val(instrs, i + 2)))
                .collect();
            seq.push(Instr::Val(*inner));
            seq.extend(opened);
            consume_and_replace(
                instrs,
                n + 1,
                vec![Instr::Label {
                    arity,
                    cont: vec![],
                    body: seq,
                }],
            )?;
        }
        Instr::Group(n, _) => {
            let n = n as usize;
            // back = n is the deepest operand, so this is bottom → top.
            let vs: Vec<Value> = (1..=n).rev().map(|i| val(instrs, i)).collect();
            consume_and_replace(instrs, n, vec![Instr::Val(Value::Prod(vs))])?;
        }
        Instr::Ungroup => {
            let v = val(instrs, 1);
            let Value::Prod(vs) = v else {
                return Err(RuntimeError::stuck("seq.ungroup on non-tuple"));
            };
            consume_and_replace(instrs, 1, vs.into_iter().map(Instr::Val).collect())?;
        }
        Instr::CapSplit => {
            let _cap = val(instrs, 1);
            consume_and_replace(
                instrs,
                1,
                vec![Instr::Val(Value::Cap), Instr::Val(Value::Own)],
            )?;
        }
        Instr::CapJoin => {
            consume_and_replace(instrs, 2, vec![Instr::Val(Value::Cap)])?;
        }
        Instr::RefSplit => {
            let v = val(instrs, 1);
            let Value::Ref(l) = v else {
                return Err(RuntimeError::stuck("ref.split on non-ref"));
            };
            consume_and_replace(
                instrs,
                1,
                vec![Instr::Val(Value::Cap), Instr::Val(Value::Ptr(l))],
            )?;
        }
        Instr::RefJoin => {
            let p = val(instrs, 1);
            let Value::Ptr(l) = p else {
                return Err(RuntimeError::stuck("ref.join: top of stack not a pointer"));
            };
            consume_and_replace(instrs, 2, vec![Instr::Val(Value::Ref(l))])?;
        }
        Instr::StructMalloc(szs, q) => {
            let n = szs.len();
            let mut vs: Vec<Value> = (1..=n).map(|i| val(instrs, i)).collect();
            vs.reverse();
            let total: u64 = szs.iter().map(|s| s.eval_closed().unwrap_or(0)).sum();
            let hv = HeapValue::Struct(vs);
            consume_and_replace(
                instrs,
                n,
                vec![Instr::MallocAdmin(Size::Const(total), hv, q)],
            )?;
        }
        Instr::VariantMalloc(i, _, q) => {
            let v = val(instrs, 1);
            let sz = 32 + size_of_value(&v);
            let hv = HeapValue::Variant(i, Box::new(v));
            consume_and_replace(instrs, 1, vec![Instr::MallocAdmin(Size::Const(sz), hv, q)])?;
        }
        Instr::ArrayMalloc(q) => {
            let len = val(instrs, 1)
                .as_num()
                .map(|(_, b)| b as u32)
                .ok_or_else(|| RuntimeError::stuck("array.malloc length not numeric"))?;
            let fill = val(instrs, 2);
            let sz = (len as u64) * size_of_value(&fill);
            let hv = HeapValue::Array(vec![fill; len as usize]);
            consume_and_replace(instrs, 2, vec![Instr::MallocAdmin(Size::Const(sz), hv, q)])?;
        }
        Instr::ExistPack(p, psi, q) => {
            let v = val(instrs, 1);
            let sz = 64 + size_of_value(&v);
            let hv = HeapValue::Pack(p, Box::new(v), psi);
            consume_and_replace(instrs, 1, vec![Instr::MallocAdmin(Size::Const(sz), hv, q)])?;
        }
        Instr::MallocAdmin(sz, hv, q) => {
            let mem = match q {
                Qual::Lin => Mem::Lin,
                Qual::Unr => Mem::Unr,
                Qual::Var(_) => {
                    return Err(RuntimeError::stuck("malloc with unresolved qualifier"));
                }
            };
            let bits = sz.eval_closed().unwrap_or_else(|| size_of_heap_value(&hv));
            let l = store.mem.alloc(mem, hv, bits);
            consume_and_replace(
                instrs,
                0,
                vec![Instr::Val(Value::MemPack(l, Box::new(Value::Ref(l))))],
            )?;
        }
        Instr::StructFree | Instr::ArrayFree => {
            consume_and_replace(instrs, 0, vec![Instr::Free])?;
        }
        Instr::Free => {
            let v = val(instrs, 1);
            let Value::Ref(l) = v else {
                return Err(RuntimeError::stuck("free on non-ref"));
            };
            if l.mem != Mem::Lin {
                trap(
                    instrs,
                    1,
                    note,
                    "free of unrestricted (GC-owned) memory".into(),
                );
            } else if store.mem.free_lin(l.idx) {
                consume_and_replace(instrs, 1, vec![])?;
            } else {
                trap(
                    instrs,
                    1,
                    note,
                    format!("double free / dangling free of {l}"),
                );
            }
        }
        Instr::StructGet(i) => {
            let v = val(instrs, 1);
            let l = ref_loc(&v)?;
            let cell = read_cell(store, l, note, instrs, 1)?;
            let Some(cell) = cell else {
                return Ok(SeqOut::Stepped);
            };
            let HeapValue::Struct(fields) = &cell.hv else {
                return Err(RuntimeError::stuck("struct.get on non-struct cell"));
            };
            let fv = fields
                .get(i as usize)
                .cloned()
                .ok_or_else(|| RuntimeError::stuck("struct.get: field out of range"))?;
            consume_and_replace(instrs, 1, vec![Instr::Val(Value::Ref(l)), Instr::Val(fv)])?;
        }
        Instr::StructSet(i) => {
            let newv = val(instrs, 1);
            let rv = val(instrs, 2);
            let l = ref_loc(&rv)?;
            let Some(cell) = store.mem.get_mut(l) else {
                trap(instrs, 2, note, format!("use after free: {l}"));
                return Ok(SeqOut::Stepped);
            };
            let HeapValue::Struct(fields) = &mut cell.hv else {
                return Err(RuntimeError::stuck("struct.set on non-struct cell"));
            };
            let slot = fields
                .get_mut(i as usize)
                .ok_or_else(|| RuntimeError::stuck("struct.set: field out of range"))?;
            *slot = newv;
            consume_and_replace(instrs, 2, vec![Instr::Val(Value::Ref(l))])?;
        }
        Instr::StructSwap(i) => {
            let newv = val(instrs, 1);
            let rv = val(instrs, 2);
            let l = ref_loc(&rv)?;
            let Some(cell) = store.mem.get_mut(l) else {
                trap(instrs, 2, note, format!("use after free: {l}"));
                return Ok(SeqOut::Stepped);
            };
            let HeapValue::Struct(fields) = &mut cell.hv else {
                return Err(RuntimeError::stuck("struct.swap on non-struct cell"));
            };
            let slot = fields
                .get_mut(i as usize)
                .ok_or_else(|| RuntimeError::stuck("struct.swap: field out of range"))?;
            let old = std::mem::replace(slot, newv);
            consume_and_replace(instrs, 2, vec![Instr::Val(Value::Ref(l)), Instr::Val(old)])?;
        }
        Instr::VariantCase(q, _, b, bodies) => {
            let n = b.arrow.params.len();
            let arity = b.arrow.results.len() as u32;
            let rv = val(instrs, n + 1);
            let l = ref_loc(&rv)?;
            let Some(cell) = store.mem.get(l) else {
                trap(instrs, n + 1, note, format!("use after free: {l}"));
                return Ok(SeqOut::Stepped);
            };
            let HeapValue::Variant(tag, payload) = &cell.hv else {
                return Err(RuntimeError::stuck("variant.case on non-variant cell"));
            };
            let tag = *tag as usize;
            let payload = (**payload).clone();
            let branch = bodies
                .get(tag)
                .cloned()
                .ok_or_else(|| RuntimeError::stuck("variant.case: tag out of range"))?;
            let mut seq: Vec<Instr> = (0..n)
                .rev()
                .map(|i| Instr::Val(val(instrs, i + 1)))
                .collect();
            seq.push(Instr::Val(payload));
            seq.extend(branch);
            let label = Instr::Label {
                arity,
                cont: vec![],
                body: seq,
            };
            let linear = matches!(q, Qual::Lin);
            let repl = if linear {
                // The reference is consumed and the cell freed (Fig. 4).
                vec![Instr::Val(Value::Ref(l)), Instr::Free, label]
            } else {
                vec![Instr::Val(Value::Ref(l)), label]
            };
            consume_and_replace(instrs, n + 1, repl)?;
        }
        Instr::ExistUnpack(q, _, b, body) => {
            let n = b.arrow.params.len();
            let arity = b.arrow.results.len() as u32;
            let rv = val(instrs, n + 1);
            let l = ref_loc(&rv)?;
            let Some(cell) = store.mem.get(l) else {
                trap(instrs, n + 1, note, format!("use after free: {l}"));
                return Ok(SeqOut::Stepped);
            };
            let HeapValue::Pack(p, inner, _) = &cell.hv else {
                return Err(RuntimeError::stuck("exist.unpack on non-package cell"));
            };
            let p = p.clone();
            let inner = (**inner).clone();
            let opened = subst_instrs(&body, &SubstEnv::pretype(p));
            let mut seq: Vec<Instr> = (0..n)
                .rev()
                .map(|i| Instr::Val(val(instrs, i + 1)))
                .collect();
            seq.push(Instr::Val(inner));
            seq.extend(opened);
            let label = Instr::Label {
                arity,
                cont: vec![],
                body: seq,
            };
            let repl = if matches!(q, Qual::Lin) {
                vec![Instr::Val(Value::Ref(l)), Instr::Free, label]
            } else {
                vec![Instr::Val(Value::Ref(l)), label]
            };
            consume_and_replace(instrs, n + 1, repl)?;
        }
        Instr::ArrayGet => {
            let idx = val(instrs, 1)
                .as_num()
                .map(|(_, b)| b as usize)
                .ok_or_else(|| RuntimeError::stuck("array.get index not numeric"))?;
            let rv = val(instrs, 2);
            let l = ref_loc(&rv)?;
            let Some(cell) = store.mem.get(l) else {
                trap(instrs, 2, note, format!("use after free: {l}"));
                return Ok(SeqOut::Stepped);
            };
            let HeapValue::Array(items) = &cell.hv else {
                return Err(RuntimeError::stuck("array.get on non-array cell"));
            };
            match items.get(idx) {
                Some(v) => {
                    let v = v.clone();
                    consume_and_replace(instrs, 2, vec![Instr::Val(Value::Ref(l)), Instr::Val(v)])?;
                }
                // Out-of-bounds access traps (Fig. 4).
                None => trap(instrs, 2, note, format!("array.get out of bounds ({idx})")),
            }
        }
        Instr::ArraySet => {
            let newv = val(instrs, 1);
            let idx = val(instrs, 2)
                .as_num()
                .map(|(_, b)| b as usize)
                .ok_or_else(|| RuntimeError::stuck("array.set index not numeric"))?;
            let rv = val(instrs, 3);
            let l = ref_loc(&rv)?;
            let Some(cell) = store.mem.get_mut(l) else {
                trap(instrs, 3, note, format!("use after free: {l}"));
                return Ok(SeqOut::Stepped);
            };
            let HeapValue::Array(items) = &mut cell.hv else {
                return Err(RuntimeError::stuck("array.set on non-array cell"));
            };
            match items.get_mut(idx) {
                Some(slot) => {
                    *slot = newv;
                    consume_and_replace(instrs, 3, vec![Instr::Val(Value::Ref(l))])?;
                }
                None => trap(instrs, 3, note, format!("array.set out of bounds ({idx})")),
            }
        }
    }
    Ok(SeqOut::Stepped)
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

/// Reads a cell, trapping (by mutating the sequence) on dangling
/// references. Returns `Ok(None)` if a trap was emitted.
fn read_cell<'s>(
    store: &'s Store,
    l: ConcreteLoc,
    note: &mut Option<String>,
    instrs: &mut Vec<Instr>,
    consumed: usize,
) -> Result<Option<&'s crate::interp::store::Cell>, RuntimeError> {
    let k = instrs
        .iter()
        .position(|e| !is_value(e))
        .expect("redex exists");
    match store.mem.get(l) {
        Some(c) => Ok(Some(c)),
        None => {
            *note = Some(format!("use after free: {l}"));
            instrs.splice(k - consumed..=k, [Instr::Trap]);
            Ok(None)
        }
    }
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
