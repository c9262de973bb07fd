//! The algorithmic instruction checker (paper Fig. 7).
//!
//! Two pieces of state keep the cost of a binder, block or branch
//! proportional to what its body touches (DESIGN.md §15):
//!
//! * **Depth stamps.** Each stored type carries the binder depth (the
//!   `mem.unpack`/`exist.unpack` binders crossed) at which it was stored:
//!   a slot its own, a frame one for all its types. A read shifts it by
//!   the current depth minus its stamp, so entering an unpack rewrites
//!   nothing.
//! * **An undo-logged local environment.** One vector of slots plus a
//!   log of the slots each write replaced. A block records the log's
//!   length (its mark); its post-state is "the locals at the mark plus its
//!   declared effects", so a branch or block end compares only the slots
//!   written since the mark or named by an effect, and leaving a block
//!   (or starting an `if`/`variant.case` arm) rewinds the log to the mark.

use crate::env::{KindCtx, ModuleEnv, TypeBound};
use crate::error::TypeError;
use crate::sizing::size_of_type;
use crate::solver::{qual_leq, size_leq};
use crate::subst::{
    generalize_loc, instantiate_arrow, shift_type, subst_type, unfold_rec, Depth, Kind, SubstEnv,
};
use crate::syntax::instr::{Block, LocalEffect, NumInstr};
use crate::syntax::{
    ArrowType, FunType, HeapType, Instr, Loc, MemPriv, NumType, Pretype, Qual, Size, Type,
};
use crate::typecheck::{check_instantiation, push_telescope, synthesize_const};
use crate::wf::{no_caps_type, wf_heaptype, wf_loc, wf_pretype_at, wf_qual, wf_size, wf_type};

/// A local slot: its current type, the depth that type is stored at, and
/// its fixed size.
struct Slot {
    /// The slot's current type (changes under strong updates).
    ty: Type,
    /// The binder depth `ty` is stored at.
    at: Depth,
    /// The slot's fixed size in bits.
    size: Size,
}

/// An undo-log entry: what slot `idx` held before one write.
struct Undo {
    idx: u32,
    ty: Type,
    at: Depth,
}

/// What a branch to a label requires of the local environment.
#[derive(Clone, Copy)]
enum LocalsReq {
    /// Locals must equal the frame's post-state: the locals at its mark
    /// with its declared effects applied (inner labels).
    Exact,
    /// All locals must be unrestricted (the function's return label).
    AllUnr,
}

/// A control frame: one entry per enclosing label.
struct Frame<'a> {
    /// The binder depth every type of this frame is stored at.
    at: Depth,
    /// Types transferred by a `br` targeting this label.
    label_tys: Vec<Type>,
    /// Locals required at a `br` targeting this label.
    label_locals: LocalsReq,
    /// Types required when falling off the end of the body.
    end_tys: Vec<Type>,
    /// Whether the end of the body requires the post-state locals
    /// (`false` for loops and the function body).
    end_locals: bool,
    /// The undo log's length when the frame was entered.
    mark: usize,
    /// The frame's declared local effects, stored at depth `effects_at`
    /// (the depth of the instruction, outside an unpack's binder).
    effects: &'a [LocalEffect],
    effects_at: Depth,
    /// The operand stack inside this frame.
    stack: Vec<Type>,
    /// Values conceptually parked *below* this frame on the enclosing
    /// stack (the variant/existential reference during an `unr` case
    /// block). Dropped — and therefore checked unrestricted — whenever a
    /// branch crosses this frame outward; this is the algorithmic face of
    /// the paper's *linear environment*.
    limbo: Vec<Type>,
    /// Whether the remainder of the frame is unreachable (polymorphic
    /// stack).
    unreachable: bool,
}

/// Per-instruction type information recorded during checking, consumed by
/// the type-directed RichWasm→Wasm compiler (§6: "compilation … requires
/// some type information that is implicit in RichWasm instructions which
/// is provided by the type checker").
///
/// Entries appear in pre-order: an instruction's entry precedes the
/// entries of its nested bodies.
#[derive(Debug, Clone, PartialEq)]
pub struct InstrInfo {
    /// Types consumed from the stack (bottom → top).
    pub consumed: Vec<Type>,
    /// Types pushed onto the stack (bottom → top).
    pub produced: Vec<Type>,
    /// The instruction sits in statically dead code (after
    /// `unreachable`/`br`): its types may be placeholders.
    pub dead: bool,
    /// Whether nested bodies were visited by the checker (dead
    /// `variant.case`/`exist.unpack`/`mem.unpack` skip their bodies).
    pub bodies_visited: bool,
}

impl Default for InstrInfo {
    fn default() -> Self {
        InstrInfo {
            consumed: Vec::new(),
            produced: Vec::new(),
            dead: false,
            bodies_visited: true,
        }
    }
}

/// The instruction checker. Holds the module environment, the kind
/// context, the local environment with its undo log, and the
/// control-frame stack (whose root frame carries the return types).
struct Checker<'a> {
    module: &'a ModuleEnv,
    ctx: KindCtx,
    /// The binder depth of the instruction being checked.
    depth: Depth,
    locals: Vec<Slot>,
    log: Vec<Undo>,
    frames: Vec<Frame<'a>>,
    /// Pre-order per-instruction trace (always recorded; cheap).
    trace: Vec<InstrInfo>,
    cur_info: InstrInfo,
}

impl<'a> Checker<'a> {
    /// Creates a checker for one function body with the given locals and
    /// return types. The root frame's label behaves like the
    /// function-exit label: branching to it transfers the return types and
    /// requires all locals unrestricted.
    fn new(module: &'a ModuleEnv, ctx: KindCtx, locals: Vec<Slot>, ret: Vec<Type>) -> Self {
        let root = Frame {
            at: Depth::default(),
            label_tys: ret.clone(),
            label_locals: LocalsReq::AllUnr,
            end_tys: ret,
            end_locals: false,
            mark: 0,
            effects: &[],
            effects_at: Depth::default(),
            stack: Vec::new(),
            limbo: Vec::new(),
            unreachable: false,
        };
        Checker {
            module,
            ctx,
            depth: Depth::default(),
            locals,
            log: Vec::new(),
            frames: vec![root],
            trace: Vec::new(),
            cur_info: InstrInfo::default(),
        }
    }

    // ------------------------------------------------------------------
    // Depth-stamped reads
    // ------------------------------------------------------------------

    /// `t`, stored at depth `at`, in the current coordinates.
    fn read(&self, t: &Type, at: Depth) -> Type {
        if at == self.depth {
            t.clone()
        } else {
            shift_type(t, self.depth - at)
        }
    }

    fn read_all(&self, ts: &[Type], at: Depth) -> Vec<Type> {
        ts.iter().map(|t| self.read(t, at)).collect()
    }

    // ------------------------------------------------------------------
    // Stack primitives
    // ------------------------------------------------------------------

    fn cur(&mut self) -> &mut Frame<'a> {
        self.frames
            .last_mut()
            .expect("checker always has a root frame")
    }

    fn push_op(&mut self, t: Type) {
        self.cur_info.produced.push(t.clone());
        self.cur().stack.push(t);
    }

    /// Pops a type; `None` means the stack is polymorphic (dead code).
    fn pop_op(&mut self, ctxt: &str) -> Result<Option<Type>, TypeError> {
        let f = self.frames.last_mut().expect("root frame");
        match f.stack.pop() {
            Some(t) => {
                self.cur_info.consumed.push(t.clone());
                Ok(Some(t))
            }
            None if f.unreachable => Ok(None),
            None => Err(TypeError::StackUnderflow {
                context: ctxt.to_string(),
            }),
        }
    }

    fn pop_expect(&mut self, expected: &Type, ctxt: &str) -> Result<(), TypeError> {
        match self.pop_op(ctxt)? {
            Some(found) if &found == expected => Ok(()),
            Some(found) => Err(TypeError::mismatch(expected, &found, ctxt)),
            None => {
                self.cur_info.consumed.push(expected.clone());
                Ok(())
            }
        }
    }

    /// Pops `expected` (bottom → top order) off the stack.
    fn pop_many_expect(&mut self, expected: &[Type], ctxt: &str) -> Result<(), TypeError> {
        for t in expected.iter().rev() {
            self.pop_expect(t, ctxt)?;
        }
        Ok(())
    }

    fn drop_check(&self, t: &Type, ctxt: &str) -> Result<(), TypeError> {
        self.drop_check_at(t, self.depth, ctxt)
    }

    /// [`Self::drop_check`] for a type stored at depth `at`.
    fn drop_check_at(&self, t: &Type, at: Depth, ctxt: &str) -> Result<(), TypeError> {
        // Qualifiers mention no location or pretype variable, so no shift
        // is needed to decide; only the message shows the type.
        if qual_leq(&self.ctx, t.qual, Qual::Unr) {
            Ok(())
        } else {
            Err(TypeError::LinearityViolation {
                context: format!("{ctxt} would drop linear value {}", self.read(t, at)),
            })
        }
    }

    fn check_locals_req(&self, frame: usize, ctxt: &str) -> Result<(), TypeError> {
        match self.frames[frame].label_locals {
            LocalsReq::Exact => self.check_exact(frame, ctxt),
            LocalsReq::AllUnr => self.check_all_unr(ctxt),
        }
    }

    /// Checks that the locals equal `frame`'s post-state. Only a slot
    /// written since the frame's mark or named by one of its effects can
    /// differ from it, so only those are compared, lowest index first (the
    /// order a scan of every slot reports in). A slot's wanted type is its
    /// last effect's, else the type it held at the mark: the one the first
    /// log entry for it since the mark saved.
    fn check_exact(&self, frame: usize, ctxt: &str) -> Result<(), TypeError> {
        let f = &self.frames[frame];
        let mut want: Vec<(u32, &Type, Depth)> = f
            .effects
            .iter()
            .rev()
            .map(|e| (e.idx, &e.ty, f.effects_at))
            .chain(self.log[f.mark..].iter().map(|u| (u.idx, &u.ty, u.at)))
            .collect();
        want.sort_by_key(|w| w.0); // stable: keeps the precedence above
        want.dedup_by_key(|w| w.0);
        for (i, ty, at) in want {
            let have = &self.locals[i as usize];
            if !same_type(&have.ty, have.at, ty, at) {
                return Err(TypeError::Mismatch {
                    expected: self.read(ty, at).to_string(),
                    found: self.read(&have.ty, have.at).to_string(),
                    context: format!("{ctxt}: local {i}"),
                });
            }
        }
        Ok(())
    }

    fn check_all_unr(&self, ctxt: &str) -> Result<(), TypeError> {
        for (i, s) in self.locals.iter().enumerate() {
            if !qual_leq(&self.ctx, s.ty.qual, Qual::Unr) {
                return Err(TypeError::LinearityViolation {
                    context: format!(
                        "{ctxt}: local {i} still holds linear {}",
                        self.read(&s.ty, s.at)
                    ),
                });
            }
        }
        Ok(())
    }

    /// The types a branch to relative label `i` transfers.
    fn label_tys(&self, i: u32) -> Result<Vec<Type>, TypeError> {
        let f = self
            .frames
            .len()
            .checked_sub(1 + i as usize)
            .map(|k| &self.frames[k])
            .ok_or(TypeError::UnboundVar {
                kind: "label",
                index: i,
            })?;
        Ok(self.read_all(&f.label_tys, f.at))
    }

    /// Validates a branch with relative depth `i`; returns the transferred
    /// types (already popped). `consume` distinguishes `br` (true) from
    /// `br_if` (false, transferred values stay).
    fn check_br(&mut self, i: u32, consume: bool, ctxt: &str) -> Result<(), TypeError> {
        let label_tys = self.label_tys(i)?;
        let n = self.frames.len();
        let target = n - 1 - i as usize;
        self.pop_many_expect(&label_tys, ctxt)?;
        // Everything remaining inside the targeted label is dropped: the
        // stacks of all frames from the target inward, and the limbo
        // (parked) values of frames strictly inside the target.
        for (f, fr) in self.frames.iter().enumerate().skip(target) {
            // In dead code the stack is polymorphic; no real values exist.
            if fr.unreachable && f == n - 1 {
                continue;
            }
            for t in &fr.stack {
                self.drop_check_at(t, fr.at, ctxt)?;
            }
            if f > target {
                for t in &fr.limbo {
                    self.drop_check_at(t, fr.at, ctxt)?;
                }
            }
        }
        // Locals must agree with the label's view of `L`.
        self.check_locals_req(target, ctxt)?;
        if consume {
            let f = self.cur();
            f.unreachable = true;
            f.stack.clear();
        } else {
            // br_if: the transferred values remain on the stack.
            self.cur().stack.extend(label_tys);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Local environment
    // ------------------------------------------------------------------

    /// Stores `ty` (in current coordinates) in slot `i`, logging the old
    /// contents.
    fn write_local(&mut self, i: u32, ty: Type) {
        let slot = &mut self.locals[i as usize];
        let old = Undo {
            idx: i,
            ty: std::mem::replace(&mut slot.ty, ty),
            at: std::mem::replace(&mut slot.at, self.depth),
        };
        self.log.push(old);
    }

    /// Restores the locals to what they were when the log had `mark`
    /// entries.
    fn rewind(&mut self, mark: usize) {
        for u in self.log.drain(mark..).rev() {
            let slot = &mut self.locals[u.idx as usize];
            slot.ty = u.ty;
            slot.at = u.at;
        }
    }

    /// Validates declared local effects `(i, τ)*`: indices,
    /// well-formedness, and slot fit.
    fn check_effects(&mut self, effects: &[LocalEffect]) -> Result<(), TypeError> {
        for e in effects {
            let slot = self
                .locals
                .get(e.idx as usize)
                .ok_or(TypeError::UnboundVar {
                    kind: "local",
                    index: e.idx,
                })?;
            let sz = slot.size.clone();
            wf_type(&mut self.ctx, &e.ty)?;
            let tsz = size_of_type(&self.ctx, &e.ty)?;
            if !size_leq(&self.ctx, &tsz, &sz) {
                return Err(TypeError::SizeNotLeq {
                    lhs: tsz,
                    rhs: sz,
                    context: format!("local effect on slot {}", e.idx),
                });
            }
        }
        Ok(())
    }

    /// Leaves a block entered at log position `mark`: the locals become
    /// its post-state, the locals at `mark` with (validated) `effects`
    /// applied.
    fn leave_block(&mut self, mark: usize, effects: &[LocalEffect]) {
        self.rewind(mark);
        for e in effects {
            self.write_local(e.idx, e.ty.clone());
        }
    }

    // ------------------------------------------------------------------
    // Frame entry/exit for block-like instructions
    // ------------------------------------------------------------------

    /// A block-like frame at the current depth, entered now: a branch to
    /// it or the end of its body transfers `results` and requires the
    /// locals here with `effects` (declared at depth `effects_at`) applied.
    fn block_frame(
        &self,
        results: Vec<Type>,
        effects: &'a [LocalEffect],
        effects_at: Depth,
        entry: Vec<Type>,
        limbo: Vec<Type>,
    ) -> Frame<'a> {
        Frame {
            at: self.depth,
            label_tys: results.clone(),
            label_locals: LocalsReq::Exact,
            end_tys: results,
            end_locals: true,
            mark: self.log.len(),
            effects,
            effects_at,
            stack: entry,
            limbo,
            unreachable: false,
        }
    }

    /// Runs `body` in `frame`, whose types must be in the coordinates
    /// *inside* it (the caller enters any binder first).
    fn run_body(
        &mut self,
        body: &'a [Instr],
        frame: Frame<'a>,
        ctxt: &str,
    ) -> Result<(), TypeError> {
        self.frames.push(frame);
        let result = self.check_seq(body).and_then(|()| self.end_body(ctxt));
        self.frames.pop();
        result
    }

    /// End of a body: the stack must deliver exactly the declared results,
    /// and locals must match the declared post-state.
    fn end_body(&mut self, ctxt: &str) -> Result<(), TypeError> {
        let end_tys = std::mem::take(&mut self.cur().end_tys);
        self.pop_many_expect(&end_tys, ctxt)?;
        if !self.cur().stack.is_empty() {
            return Err(TypeError::BlockResultMismatch {
                context: format!("{ctxt}: values left on stack at end of block"),
            });
        }
        if self.cur().end_locals {
            self.check_exact(self.frames.len() - 1, ctxt)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Main dispatch
    // ------------------------------------------------------------------

    /// Checks a sequence of instructions in the current frame.
    fn check_seq(&mut self, es: &'a [Instr]) -> Result<(), TypeError> {
        for e in es {
            self.check_instr(e)?;
        }
        Ok(())
    }

    /// Checks one instruction.
    fn check_instr(&mut self, e: &'a Instr) -> Result<(), TypeError> {
        // Reserve this instruction's trace slot to preserve pre-order, and
        // save the enclosing instruction's partial record (nested bodies
        // re-enter this function).
        let saved = std::mem::take(&mut self.cur_info);
        let was_dead = self.frames.last().map(|f| f.unreachable).unwrap_or(false);
        let slot = self.trace.len();
        self.trace.push(InstrInfo::default());
        let r = self.check_instr_inner(e);
        let mut info = std::mem::take(&mut self.cur_info);
        info.consumed.reverse(); // recorded top-first; store bottom→top
        info.dead = was_dead;
        self.trace[slot] = info;
        self.cur_info = saved;
        r
    }

    fn check_instr_inner(&mut self, e: &'a Instr) -> Result<(), TypeError> {
        match e {
            Instr::Val(v) => {
                let t = synthesize_const(v)?;
                self.push_op(t);
                Ok(())
            }
            Instr::Num(n) => self.check_num(*n),
            Instr::Nop => Ok(()),
            Instr::Unreachable => {
                let f = self.cur();
                f.unreachable = true;
                f.stack.clear();
                Ok(())
            }
            Instr::Drop => {
                if let Some(t) = self.pop_op("drop")? {
                    self.drop_check(&t, "drop")?;
                }
                Ok(())
            }
            Instr::Select => {
                self.pop_expect(&Type::num(NumType::I32), "select")?;
                let t2 = self.pop_op("select")?;
                let t1 = self.pop_op("select")?;
                match (t1, t2) {
                    (Some(a), Some(b)) => {
                        if a != b {
                            return Err(TypeError::mismatch(&a, &b, "select arms"));
                        }
                        // One branch is dropped.
                        self.drop_check(&a, "select")?;
                        self.push_op(a);
                    }
                    (Some(a), None) | (None, Some(a)) => {
                        self.drop_check(&a, "select")?;
                        self.push_op(a);
                    }
                    (None, None) => {}
                }
                Ok(())
            }
            Instr::BlockI(b, body) => self.check_block(b, body),
            Instr::LoopI(arrow, body) => self.check_loop(arrow, body),
            Instr::IfI(b, then_b, else_b) => self.check_if(b, then_b, else_b),
            Instr::Br(i) => self.check_br(*i, true, "br"),
            Instr::BrIf(i) => {
                self.pop_expect(&Type::num(NumType::I32), "br_if")?;
                self.check_br(*i, false, "br_if")
            }
            Instr::BrTable(targets, default) => {
                self.pop_expect(&Type::num(NumType::I32), "br_table")?;
                // All targets must transfer the same types; validate each
                // (the last validation consumes).
                let all: Vec<u32> = targets.iter().copied().chain([*default]).collect();
                let first_tys = self.label_tys(*all.first().expect("br_table has a default"))?;
                for i in &all {
                    if self.label_tys(*i)? != first_tys {
                        return Err(TypeError::Other(format!(
                            "br_table targets disagree on label types (label {i})"
                        )));
                    }
                    self.check_br(*i, false, "br_table")?;
                }
                // Taken unconditionally.
                self.pop_many_expect(&first_tys, "br_table")?;
                let f = self.cur();
                f.unreachable = true;
                f.stack.clear();
                Ok(())
            }
            Instr::Return => {
                let ret = self.read_all(&self.frames[0].label_tys, Depth::default());
                self.pop_many_expect(&ret, "return")?;
                let n = self.frames.len();
                for (f, fr) in self.frames.iter().enumerate() {
                    if fr.unreachable && f == n - 1 {
                        continue;
                    }
                    for t in fr.stack.iter().chain(&fr.limbo) {
                        self.drop_check_at(t, fr.at, "return")?;
                    }
                }
                self.check_all_unr("return")?;
                let f = self.cur();
                f.unreachable = true;
                f.stack.clear();
                Ok(())
            }
            Instr::GetLocal(i, q) => {
                let slot = self.locals.get(*i as usize).ok_or(TypeError::UnboundVar {
                    kind: "local",
                    index: *i,
                })?;
                if slot.ty.qual != *q {
                    return Err(TypeError::Mismatch {
                        expected: format!("slot qualifier {q}"),
                        found: slot.ty.qual.to_string(),
                        context: format!("get_local {i}"),
                    });
                }
                let t = self.read(&slot.ty, slot.at);
                self.push_op(t);
                if !qual_leq(&self.ctx, *q, Qual::Unr) {
                    // Linear read: the slot is strongly updated to unit to
                    // prevent duplication (paper §2.1).
                    self.write_local(*i, Type::unit());
                }
                Ok(())
            }
            Instr::SetLocal(i) => {
                let Some(t) = self.pop_op("set_local")? else {
                    return Ok(());
                };
                self.set_local_common(*i, t, "set_local")
            }
            Instr::TeeLocal(i) => {
                let Some(t) = self.pop_op("tee_local")? else {
                    return Ok(());
                };
                if !qual_leq(&self.ctx, t.qual, Qual::Unr) {
                    return Err(TypeError::LinearityViolation {
                        context: format!("tee_local {i} would duplicate linear {t}"),
                    });
                }
                self.push_op(t.clone());
                self.set_local_common(*i, t, "tee_local")
            }
            Instr::GetGlobal(i) => {
                let (_, p) = self
                    .module
                    .globals
                    .get(*i as usize)
                    .ok_or(TypeError::UnboundVar {
                        kind: "global",
                        index: *i,
                    })?
                    .clone();
                self.push_op(p.unr());
                Ok(())
            }
            Instr::SetGlobal(i) => {
                let (mutable, p) = self
                    .module
                    .globals
                    .get(*i as usize)
                    .ok_or(TypeError::UnboundVar {
                        kind: "global",
                        index: *i,
                    })?
                    .clone();
                if !mutable {
                    return Err(TypeError::Other(format!(
                        "set_global {i}: global is immutable"
                    )));
                }
                self.pop_expect(&p.unr(), "set_global")
            }
            Instr::Qualify(q) => {
                wf_qual(&self.ctx, *q)?;
                let Some(t) = self.pop_op("qualify")? else {
                    return Ok(());
                };
                if !qual_leq(&self.ctx, t.qual, *q) {
                    return Err(TypeError::QualNotLeq {
                        lhs: t.qual,
                        rhs: *q,
                        context: "qualify only coerces upward".into(),
                    });
                }
                wf_pretype_at(&mut self.ctx, &t.pre, *q)?;
                self.push_op(Type {
                    pre: t.pre,
                    qual: *q,
                });
                Ok(())
            }
            Instr::CodeRefI(i) => {
                let ft = self
                    .module
                    .table
                    .get(*i as usize)
                    .ok_or(TypeError::UnboundVar {
                        kind: "table",
                        index: *i,
                    })?
                    .clone();
                self.push_op(Pretype::CodeRef(ft).unr());
                Ok(())
            }
            Instr::Inst(zs) => {
                let Some(t) = self.pop_op("inst")? else {
                    return Ok(());
                };
                let Pretype::CodeRef(ft) = &*t.pre else {
                    return Err(TypeError::Mismatch {
                        expected: "coderef".into(),
                        found: t.to_string(),
                        context: "inst".into(),
                    });
                };
                check_instantiation(&mut self.ctx, &ft.quants, zs)?;
                let arrow = instantiate_arrow(ft, zs)
                    .map_err(|reason| TypeError::BadInstantiation { reason })?;
                self.push_op(
                    Pretype::CodeRef(FunType {
                        quants: vec![],
                        arrow,
                    })
                    .with_qual(t.qual),
                );
                Ok(())
            }
            Instr::CallIndirect => {
                let Some(t) = self.pop_op("call_indirect")? else {
                    return Ok(());
                };
                let Pretype::CodeRef(ft) = &*t.pre else {
                    return Err(TypeError::Mismatch {
                        expected: "coderef".into(),
                        found: t.to_string(),
                        context: "call_indirect".into(),
                    });
                };
                if !ft.quants.is_empty() {
                    return Err(TypeError::BadInstantiation {
                        reason: "call_indirect requires a fully instantiated coderef".into(),
                    });
                }
                let arrow = ft.arrow.clone();
                self.pop_many_expect(&arrow.params, "call_indirect")?;
                for r in arrow.results {
                    self.push_op(r);
                }
                Ok(())
            }
            Instr::Call(i, zs) => {
                let ft = self
                    .module
                    .funcs
                    .get(*i as usize)
                    .ok_or(TypeError::UnboundVar {
                        kind: "function",
                        index: *i,
                    })?
                    .clone();
                check_instantiation(&mut self.ctx, &ft.quants, zs)?;
                let arrow = instantiate_arrow(&ft, zs)
                    .map_err(|reason| TypeError::BadInstantiation { reason })?;
                self.pop_many_expect(&arrow.params, "call")?;
                for r in arrow.results {
                    self.push_op(r);
                }
                Ok(())
            }
            Instr::RecFold(p) => {
                let Pretype::Rec(_, body) = p else {
                    return Err(TypeError::Mismatch {
                        expected: "rec pretype".into(),
                        found: p.to_string(),
                        context: "rec.fold".into(),
                    });
                };
                let q = body.qual;
                wf_pretype_at(&mut self.ctx, p, q)?;
                let unfolded = unfold_rec(p).expect("matched Rec above");
                self.pop_expect(&unfolded, "rec.fold")?;
                self.push_op(p.clone().with_qual(q));
                Ok(())
            }
            Instr::RecUnfold => {
                let Some(t) = self.pop_op("rec.unfold")? else {
                    return Ok(());
                };
                let Some(unfolded) = unfold_rec(&t.pre) else {
                    return Err(TypeError::Mismatch {
                        expected: "rec type".into(),
                        found: t.to_string(),
                        context: "rec.unfold".into(),
                    });
                };
                self.push_op(unfolded);
                Ok(())
            }
            Instr::MemPack(l) => {
                wf_loc(&self.ctx, *l)?;
                let Some(t) = self.pop_op("mem.pack")? else {
                    return Ok(());
                };
                let q = t.qual;
                let body = generalize_loc(&t, *l);
                self.push_op(Pretype::ExistsLoc(Box::new(body)).with_qual(q));
                Ok(())
            }
            Instr::MemUnpack(b, body) => self.check_mem_unpack(b, body),
            Instr::Group(n, q) => {
                wf_qual(&self.ctx, *q)?;
                let mut parts = Vec::with_capacity(*n as usize);
                for _ in 0..*n {
                    match self.pop_op("seq.group")? {
                        Some(t) => parts.push(t),
                        None => parts.push(Type::unit()),
                    }
                }
                parts.reverse();
                for t in &parts {
                    if !qual_leq(&self.ctx, t.qual, *q) {
                        return Err(TypeError::QualNotLeq {
                            lhs: t.qual,
                            rhs: *q,
                            context: "seq.group component vs tuple qualifier".into(),
                        });
                    }
                }
                self.push_op(Pretype::Prod(parts).with_qual(*q));
                Ok(())
            }
            Instr::Ungroup => {
                let Some(t) = self.pop_op("seq.ungroup")? else {
                    return Ok(());
                };
                let Pretype::Prod(parts) = *t.pre else {
                    return Err(TypeError::Mismatch {
                        expected: "tuple".into(),
                        found: format!("{}^{}", t.pre, t.qual),
                        context: "seq.ungroup".into(),
                    });
                };
                for p in parts {
                    self.push_op(p);
                }
                Ok(())
            }
            Instr::CapSplit => {
                let Some(t) = self.pop_op("cap.split")? else {
                    return Ok(());
                };
                let Pretype::Cap(MemPriv::ReadWrite, l, h) = *t.pre else {
                    return Err(TypeError::Mismatch {
                        expected: "cap rw".into(),
                        found: t.to_string(),
                        context: "cap.split".into(),
                    });
                };
                self.push_op(Pretype::Cap(MemPriv::Read, l, h).with_qual(t.qual));
                self.push_op(Pretype::Own(l).with_qual(t.qual));
                Ok(())
            }
            Instr::CapJoin => {
                let own = self.pop_op("cap.join")?;
                let cap = self.pop_op("cap.join")?;
                let (Some(own), Some(cap)) = (own, cap) else {
                    return Ok(());
                };
                let Pretype::Own(lo) = *own.pre else {
                    return Err(TypeError::Mismatch {
                        expected: "own".into(),
                        found: own.to_string(),
                        context: "cap.join".into(),
                    });
                };
                let Pretype::Cap(MemPriv::Read, lc, h) = *cap.pre else {
                    return Err(TypeError::Mismatch {
                        expected: "cap r".into(),
                        found: cap.to_string(),
                        context: "cap.join".into(),
                    });
                };
                if lo != lc {
                    return Err(TypeError::Other(format!(
                        "cap.join: ownership token for {lo} does not match capability for {lc}"
                    )));
                }
                self.push_op(Pretype::Cap(MemPriv::ReadWrite, lc, h).with_qual(cap.qual));
                Ok(())
            }
            Instr::RefDemote => {
                let Some(t) = self.pop_op("ref.demote")? else {
                    return Ok(());
                };
                let Pretype::Ref(MemPriv::ReadWrite, l, h) = *t.pre else {
                    return Err(TypeError::Mismatch {
                        expected: "ref rw".into(),
                        found: t.to_string(),
                        context: "ref.demote".into(),
                    });
                };
                self.push_op(Pretype::Ref(MemPriv::Read, l, h).with_qual(t.qual));
                Ok(())
            }
            Instr::RefSplit => {
                let Some(t) = self.pop_op("ref.split")? else {
                    return Ok(());
                };
                let Pretype::Ref(pi, l, h) = *t.pre else {
                    return Err(TypeError::Mismatch {
                        expected: "ref".into(),
                        found: t.to_string(),
                        context: "ref.split".into(),
                    });
                };
                self.push_op(Pretype::Cap(pi, l, h).with_qual(t.qual));
                // Pointers are freely copyable (§2.1: "an unrestricted
                // (copyable) pointer … and a linear capability").
                self.push_op(Pretype::Ptr(l).unr());
                Ok(())
            }
            Instr::RefJoin => {
                let ptr = self.pop_op("ref.join")?;
                let cap = self.pop_op("ref.join")?;
                let (Some(ptr), Some(cap)) = (ptr, cap) else {
                    return Ok(());
                };
                let Pretype::Ptr(lp) = *ptr.pre else {
                    return Err(TypeError::Mismatch {
                        expected: "ptr".into(),
                        found: ptr.to_string(),
                        context: "ref.join".into(),
                    });
                };
                let Pretype::Cap(pi, lc, h) = *cap.pre else {
                    return Err(TypeError::Mismatch {
                        expected: "cap".into(),
                        found: cap.to_string(),
                        context: "ref.join".into(),
                    });
                };
                if lp != lc {
                    return Err(TypeError::Other(format!(
                        "ref.join: pointer to {lp} does not match capability for {lc}"
                    )));
                }
                self.push_op(Pretype::Ref(pi, lc, h).with_qual(cap.qual));
                Ok(())
            }
            Instr::StructMalloc(szs, q) => self.check_struct_malloc(szs, *q),
            Instr::StructFree => {
                let Some(t) = self.pop_op("struct.free")? else {
                    return Ok(());
                };
                let Pretype::Ref(MemPriv::ReadWrite, _, HeapType::Struct(fields)) = &*t.pre else {
                    return Err(TypeError::Mismatch {
                        expected: "ref rw to struct".into(),
                        found: t.to_string(),
                        context: "struct.free".into(),
                    });
                };
                if !qual_leq(&self.ctx, Qual::Lin, t.qual) {
                    return Err(TypeError::QualNotLeq {
                        lhs: Qual::Lin,
                        rhs: t.qual,
                        context: "struct.free requires a linear reference".into(),
                    });
                }
                for (ft, _) in fields {
                    self.drop_check(ft, "struct.free (field)")?;
                }
                Ok(())
            }
            Instr::StructGet(i) => {
                let Some(t) = self.pop_op("struct.get")? else {
                    return Ok(());
                };
                let Pretype::Ref(_, _, HeapType::Struct(fields)) = &*t.pre else {
                    return Err(TypeError::Mismatch {
                        expected: "ref to struct".into(),
                        found: t.to_string(),
                        context: "struct.get".into(),
                    });
                };
                let (ft, _) = fields
                    .get(*i as usize)
                    .ok_or(TypeError::UnboundVar {
                        kind: "struct field",
                        index: *i,
                    })?
                    .clone();
                if !qual_leq(&self.ctx, ft.qual, Qual::Unr) {
                    return Err(TypeError::LinearityViolation {
                        context: format!(
                            "struct.get {i} would duplicate linear field {ft}; use struct.swap"
                        ),
                    });
                }
                self.push_op(t);
                self.push_op(ft);
                Ok(())
            }
            Instr::StructSet(i) => self.check_struct_set(*i, false),
            Instr::StructSwap(i) => self.check_struct_set(*i, true),
            Instr::VariantMalloc(i, cases, q) => {
                wf_qual(&self.ctx, *q)?;
                for t in cases {
                    wf_type(&mut self.ctx, t)?;
                    if !no_caps_type(&self.ctx, t) {
                        return Err(TypeError::CapsInHeap {
                            context: format!("variant.malloc case {t}"),
                        });
                    }
                }
                let payload = cases
                    .get(*i as usize)
                    .ok_or(TypeError::UnboundVar {
                        kind: "variant case",
                        index: *i,
                    })?
                    .clone();
                self.pop_expect(&payload, "variant.malloc")?;
                let shifted: Vec<Type> = cases
                    .iter()
                    .map(|t| shift_type(t, Depth::one(Kind::Loc)))
                    .collect();
                let inner =
                    Pretype::Ref(MemPriv::ReadWrite, Loc::Var(0), HeapType::Variant(shifted))
                        .with_qual(*q);
                self.push_op(Pretype::ExistsLoc(Box::new(inner)).with_qual(*q));
                Ok(())
            }
            Instr::VariantCase(q, psi, b, bodies) => self.check_variant_case(*q, psi, b, bodies),
            Instr::ArrayMalloc(q) => {
                wf_qual(&self.ctx, *q)?;
                self.pop_expect(&Type::num(NumType::U32), "array.malloc (length)")?;
                let Some(elem) = self.pop_op("array.malloc (fill)")? else {
                    return Ok(());
                };
                if !qual_leq(&self.ctx, elem.qual, Qual::Unr) {
                    return Err(TypeError::LinearityViolation {
                        context: format!("array.malloc would replicate linear fill value {elem}"),
                    });
                }
                if qual_leq(&self.ctx, *q, Qual::Unr) && !no_caps_type(&self.ctx, &elem) {
                    return Err(TypeError::CapsInHeap {
                        context: "array.malloc".into(),
                    });
                }
                let shifted = shift_type(&elem, Depth::one(Kind::Loc));
                let inner = Pretype::Ref(MemPriv::ReadWrite, Loc::Var(0), HeapType::Array(shifted))
                    .with_qual(*q);
                self.push_op(Pretype::ExistsLoc(Box::new(inner)).with_qual(*q));
                Ok(())
            }
            Instr::ArrayGet => {
                self.pop_expect(&Type::num(NumType::U32), "array.get (index)")?;
                let Some(t) = self.pop_op("array.get")? else {
                    return Ok(());
                };
                let Pretype::Ref(_, _, HeapType::Array(elem)) = &*t.pre else {
                    return Err(TypeError::Mismatch {
                        expected: "ref to array".into(),
                        found: t.to_string(),
                        context: "array.get".into(),
                    });
                };
                let elem = elem.clone();
                if !qual_leq(&self.ctx, elem.qual, Qual::Unr) {
                    return Err(TypeError::LinearityViolation {
                        context: format!("array.get would duplicate linear element {elem}"),
                    });
                }
                self.push_op(t);
                self.push_op(elem);
                Ok(())
            }
            Instr::ArraySet => {
                let Some(v) = self.pop_op("array.set (value)")? else {
                    return Ok(());
                };
                self.pop_expect(&Type::num(NumType::U32), "array.set (index)")?;
                let Some(t) = self.pop_op("array.set")? else {
                    return Ok(());
                };
                let Pretype::Ref(MemPriv::ReadWrite, _, HeapType::Array(elem)) = &*t.pre else {
                    return Err(TypeError::Mismatch {
                        expected: "ref rw to array".into(),
                        found: t.to_string(),
                        context: "array.set".into(),
                    });
                };
                if *elem != v {
                    return Err(TypeError::mismatch(elem, &v, "array.set element type"));
                }
                if !qual_leq(&self.ctx, elem.qual, Qual::Unr) {
                    return Err(TypeError::LinearityViolation {
                        context: "array.set drops the previous (linear) element".into(),
                    });
                }
                self.push_op(t);
                Ok(())
            }
            Instr::ArrayFree => {
                let Some(t) = self.pop_op("array.free")? else {
                    return Ok(());
                };
                let Pretype::Ref(MemPriv::ReadWrite, _, HeapType::Array(elem)) = &*t.pre else {
                    return Err(TypeError::Mismatch {
                        expected: "ref rw to array".into(),
                        found: t.to_string(),
                        context: "array.free".into(),
                    });
                };
                if !qual_leq(&self.ctx, Qual::Lin, t.qual) {
                    return Err(TypeError::QualNotLeq {
                        lhs: Qual::Lin,
                        rhs: t.qual,
                        context: "array.free requires a linear reference".into(),
                    });
                }
                self.drop_check(elem, "array.free (elements)")?;
                Ok(())
            }
            Instr::ExistPack(p, psi, q) => self.check_exist_pack(p, psi, *q),
            Instr::ExistUnpack(q, psi, b, body) => self.check_exist_unpack(*q, psi, b, body),
            // Administrative instructions never appear in source programs.
            Instr::Trap
            | Instr::CallAdmin { .. }
            | Instr::Label { .. }
            | Instr::LocalFrame { .. }
            | Instr::MallocAdmin(..)
            | Instr::Free => Err(TypeError::Other(format!(
                "administrative instruction {e} cannot appear in a source module"
            ))),
        }
    }

    fn set_local_common(&mut self, i: u32, t: Type, ctxt: &str) -> Result<(), TypeError> {
        let slot = self.locals.get(i as usize).ok_or(TypeError::UnboundVar {
            kind: "local",
            index: i,
        })?;
        if !qual_leq(&self.ctx, slot.ty.qual, Qual::Unr) {
            return Err(TypeError::LinearityViolation {
                context: format!(
                    "{ctxt} {i} would drop linear slot contents {}",
                    self.read(&slot.ty, slot.at)
                ),
            });
        }
        let tsz = size_of_type(&self.ctx, &t)?;
        if !size_leq(&self.ctx, &tsz, &slot.size) {
            return Err(TypeError::SizeNotLeq {
                lhs: tsz,
                rhs: slot.size.clone(),
                context: format!("{ctxt} {i}: value does not fit slot"),
            });
        }
        self.write_local(i, t);
        Ok(())
    }

    fn check_num(&mut self, n: NumInstr) -> Result<(), TypeError> {
        use NumInstr::*;
        let i32t = Type::num(NumType::I32);
        match n {
            IntUnop(nt, _) => {
                require_int(nt)?;
                self.pop_expect(&Type::num(nt), "int unop")?;
                self.push_op(Type::num(nt));
            }
            IntBinop(nt, _) => {
                require_int(nt)?;
                self.pop_expect(&Type::num(nt), "int binop")?;
                self.pop_expect(&Type::num(nt), "int binop")?;
                self.push_op(Type::num(nt));
            }
            Eqz(nt) => {
                require_int(nt)?;
                self.pop_expect(&Type::num(nt), "eqz")?;
                self.push_op(i32t);
            }
            IntRelop(nt, _) => {
                require_int(nt)?;
                self.pop_expect(&Type::num(nt), "int relop")?;
                self.pop_expect(&Type::num(nt), "int relop")?;
                self.push_op(i32t);
            }
            FloatUnop(nt, _) => {
                require_float(nt)?;
                self.pop_expect(&Type::num(nt), "float unop")?;
                self.push_op(Type::num(nt));
            }
            FloatBinop(nt, _) => {
                require_float(nt)?;
                self.pop_expect(&Type::num(nt), "float binop")?;
                self.pop_expect(&Type::num(nt), "float binop")?;
                self.push_op(Type::num(nt));
            }
            FloatRelop(nt, _) => {
                require_float(nt)?;
                self.pop_expect(&Type::num(nt), "float relop")?;
                self.pop_expect(&Type::num(nt), "float relop")?;
                self.push_op(i32t);
            }
            Convert(dst, src) => {
                self.pop_expect(&Type::num(src), "convert")?;
                self.push_op(Type::num(dst));
            }
            Reinterpret(dst, src) => {
                if dst.bits() != src.bits() {
                    return Err(TypeError::Other(format!(
                        "reinterpret between different widths ({src} vs {dst})"
                    )));
                }
                self.pop_expect(&Type::num(src), "reinterpret")?;
                self.push_op(Type::num(dst));
            }
        }
        Ok(())
    }

    fn check_block(&mut self, b: &'a Block, body: &'a [Instr]) -> Result<(), TypeError> {
        self.check_effects(&b.effects)?;
        self.pop_many_expect(&b.arrow.params, "block (params)")?;
        let mark = self.log.len();
        let frame = self.block_frame(
            b.arrow.results.clone(),
            &b.effects,
            self.depth,
            b.arrow.params.clone(),
            Vec::new(),
        );
        self.run_body(body, frame, "block")?;
        self.leave_block(mark, &b.effects);
        for t in b.arrow.results.clone() {
            self.push_op(t);
        }
        Ok(())
    }

    fn check_loop(&mut self, arrow: &ArrowType, body: &'a [Instr]) -> Result<(), TypeError> {
        self.pop_many_expect(&arrow.params, "loop (params)")?;
        // A branch to a loop label re-enters the top: it transfers the
        // loop's *parameters* and must restore the entry locals.
        let frame = Frame {
            label_tys: arrow.params.clone(),
            end_locals: false,
            ..self.block_frame(
                arrow.results.clone(),
                &[],
                self.depth,
                arrow.params.clone(),
                Vec::new(),
            )
        };
        self.run_body(body, frame, "loop")?;
        for t in arrow.results.clone() {
            self.push_op(t);
        }
        Ok(())
    }

    fn check_if(
        &mut self,
        b: &'a Block,
        then_b: &'a [Instr],
        else_b: &'a [Instr],
    ) -> Result<(), TypeError> {
        self.pop_expect(&Type::num(NumType::I32), "if (condition)")?;
        self.check_effects(&b.effects)?;
        self.pop_many_expect(&b.arrow.params, "if (params)")?;
        let mark = self.log.len();
        for (name, body) in [("if (then)", then_b), ("if (else)", else_b)] {
            self.rewind(mark);
            let frame = self.block_frame(
                b.arrow.results.clone(),
                &b.effects,
                self.depth,
                b.arrow.params.clone(),
                Vec::new(),
            );
            self.run_body(body, frame, name)?;
        }
        self.leave_block(mark, &b.effects);
        for t in b.arrow.results.clone() {
            self.push_op(t);
        }
        Ok(())
    }

    fn check_struct_malloc(&mut self, szs: &[Size], q: Qual) -> Result<(), TypeError> {
        wf_qual(&self.ctx, q)?;
        for sz in szs {
            wf_size(&self.ctx, sz)?;
        }
        // Capabilities may live in manually managed memory; only the
        // GC-owned (unrestricted) heap must be cap-free (§3, relaxed per
        // §5/§8: "capabilities are only disallowed in the parts of the
        // heap owned by the garbage collector").
        let gc_owned = qual_leq(&self.ctx, q, Qual::Unr);
        let mut fields_rev = Vec::with_capacity(szs.len());
        for sz in szs.iter().rev() {
            let t = match self.pop_op("struct.malloc")? {
                Some(t) => t,
                None => Type::unit(),
            };
            if gc_owned && !no_caps_type(&self.ctx, &t) {
                return Err(TypeError::CapsInHeap {
                    context: format!("struct.malloc field {t}"),
                });
            }
            let tsz = size_of_type(&self.ctx, &t)?;
            if !size_leq(&self.ctx, &tsz, sz) {
                return Err(TypeError::SizeNotLeq {
                    lhs: tsz,
                    rhs: sz.clone(),
                    context: "struct.malloc field vs slot size".into(),
                });
            }
            fields_rev.push((t, sz.clone()));
        }
        fields_rev.reverse();
        let shifted: Vec<(Type, Size)> = fields_rev
            .into_iter()
            .map(|(t, sz)| (shift_type(&t, Depth::one(Kind::Loc)), sz))
            .collect();
        let inner =
            Pretype::Ref(MemPriv::ReadWrite, Loc::Var(0), HeapType::Struct(shifted)).with_qual(q);
        self.push_op(Pretype::ExistsLoc(Box::new(inner)).with_qual(q));
        Ok(())
    }

    /// Shared by `struct.set` (swap = false) and `struct.swap`
    /// (swap = true).
    fn check_struct_set(&mut self, i: u32, swap: bool) -> Result<(), TypeError> {
        let ctxt = if swap { "struct.swap" } else { "struct.set" };
        let Some(v) = self.pop_op(ctxt)? else {
            return Ok(());
        };
        let Some(t) = self.pop_op(ctxt)? else {
            return Ok(());
        };
        let Pretype::Ref(MemPriv::ReadWrite, l, HeapType::Struct(fields)) = &*t.pre else {
            return Err(TypeError::Mismatch {
                expected: "ref rw to struct".into(),
                found: t.to_string(),
                context: ctxt.into(),
            });
        };
        let (old, slot_sz) = fields
            .get(i as usize)
            .ok_or(TypeError::UnboundVar {
                kind: "struct field",
                index: i,
            })?
            .clone();
        if !swap && !qual_leq(&self.ctx, old.qual, Qual::Unr) {
            return Err(TypeError::LinearityViolation {
                context: format!("struct.set {i} drops the previous (linear) field {old}"),
            });
        }
        let vsz = size_of_type(&self.ctx, &v)?;
        if !size_leq(&self.ctx, &vsz, &slot_sz) {
            return Err(TypeError::SizeNotLeq {
                lhs: vsz,
                rhs: slot_sz,
                context: format!("{ctxt} {i}: new value vs slot size"),
            });
        }
        if qual_leq(&self.ctx, t.qual, Qual::Unr) && !no_caps_type(&self.ctx, &v) {
            return Err(TypeError::CapsInHeap {
                context: format!("{ctxt} {i}"),
            });
        }
        // Strong updates are only allowed through linear references; on
        // unrestricted (GC'd, aliased) references the update must preserve
        // the type.
        if !qual_leq(&self.ctx, Qual::Lin, t.qual) && v != old {
            return Err(TypeError::Mismatch {
                expected: old.to_string(),
                found: v.to_string(),
                context: format!("{ctxt} {i}: strong update through a non-linear reference"),
            });
        }
        let mut new_fields = fields.clone();
        new_fields[i as usize] = (v, new_fields[i as usize].1.clone());
        let new_ref =
            Pretype::Ref(MemPriv::ReadWrite, *l, HeapType::Struct(new_fields)).with_qual(t.qual);
        self.push_op(new_ref);
        if swap {
            self.push_op(old);
        }
        Ok(())
    }

    fn check_variant_case(
        &mut self,
        q: Qual,
        psi: &HeapType,
        b: &'a Block,
        bodies: &'a [Vec<Instr>],
    ) -> Result<(), TypeError> {
        let HeapType::Variant(cases) = psi else {
            return Err(TypeError::Mismatch {
                expected: "variant heap type".into(),
                found: psi.to_string(),
                context: "variant.case".into(),
            });
        };
        if cases.len() != bodies.len() {
            return Err(TypeError::Other(format!(
                "variant.case has {} branches for {} cases",
                bodies.len(),
                cases.len()
            )));
        }
        self.pop_many_expect(&b.arrow.params, "variant.case (params)")?;
        let Some(rt) = self.pop_op("variant.case (ref)")? else {
            self.cur_info.bodies_visited = false;
            return Ok(());
        };
        let Pretype::Ref(pi, _, rpsi) = &*rt.pre else {
            return Err(TypeError::Mismatch {
                expected: "ref to variant".into(),
                found: rt.to_string(),
                context: "variant.case".into(),
            });
        };
        if rpsi != psi {
            return Err(TypeError::Mismatch {
                expected: psi.to_string(),
                found: rpsi.to_string(),
                context: "variant.case annotation vs reference".into(),
            });
        }
        let linear_case = !qual_leq(&self.ctx, q, Qual::Unr);
        if linear_case {
            // The cell is freed: we need write access and a linear ref.
            if *pi != MemPriv::ReadWrite {
                return Err(TypeError::Other(
                    "variant.case lin requires a read-write reference (it frees)".into(),
                ));
            }
            if !qual_leq(&self.ctx, Qual::Lin, rt.qual) {
                return Err(TypeError::QualNotLeq {
                    lhs: Qual::Lin,
                    rhs: rt.qual,
                    context: "variant.case lin consumes a linear reference".into(),
                });
            }
        } else {
            // The payload is *copied* out of memory: every case must be
            // unrestricted.
            for c in cases {
                if !qual_leq(&self.ctx, c.qual, Qual::Unr) {
                    return Err(TypeError::LinearityViolation {
                        context: format!(
                            "variant.case unr would duplicate linear case payload {c}"
                        ),
                    });
                }
            }
        }
        self.check_effects(&b.effects)?;
        let mark = self.log.len();
        let limbo = if linear_case {
            Vec::new()
        } else {
            vec![rt.clone()]
        };
        for (ci, (case_ty, body)) in cases.iter().zip(bodies).enumerate() {
            self.rewind(mark);
            let mut entry = b.arrow.params.clone();
            entry.push(case_ty.clone());
            let frame = self.block_frame(
                b.arrow.results.clone(),
                &b.effects,
                self.depth,
                entry,
                limbo.clone(),
            );
            self.run_body(body, frame, &format!("variant.case branch {ci}"))?;
        }
        self.leave_block(mark, &b.effects);
        if !linear_case {
            self.push_op(rt);
        }
        for t in b.arrow.results.clone() {
            self.push_op(t);
        }
        Ok(())
    }

    fn check_exist_pack(&mut self, p: &Pretype, psi: &HeapType, q: Qual) -> Result<(), TypeError> {
        let HeapType::Exists(bq, bsz, body_ty) = psi else {
            return Err(TypeError::Mismatch {
                expected: "existential heap type".into(),
                found: psi.to_string(),
                context: "exist.pack".into(),
            });
        };
        wf_heaptype(&mut self.ctx, psi)?;
        wf_qual(&self.ctx, q)?;
        // Witness obligations: fits the size bound, valid at the bound
        // qualifier, carries no bare capabilities (it goes to the heap).
        wf_pretype_at(&mut self.ctx, p, *bq)?;
        let psz = crate::sizing::size_of_pretype(&self.ctx, p)?;
        if !size_leq(&self.ctx, &psz, bsz) {
            return Err(TypeError::SizeNotLeq {
                lhs: psz,
                rhs: bsz.clone(),
                context: "exist.pack witness vs size bound".into(),
            });
        }
        if qual_leq(&self.ctx, q, Qual::Unr) && !crate::wf::no_caps_pretype(&self.ctx, p) {
            return Err(TypeError::CapsInHeap {
                context: "exist.pack witness".into(),
            });
        }
        let opened = subst_type(body_ty, &SubstEnv::pretype(p.clone()));
        self.pop_expect(&opened, "exist.pack")?;
        let shifted = crate::subst::shift_heaptype(psi, Depth::one(Kind::Loc));
        let inner = Pretype::Ref(MemPriv::ReadWrite, Loc::Var(0), shifted).with_qual(q);
        self.push_op(Pretype::ExistsLoc(Box::new(inner)).with_qual(q));
        Ok(())
    }

    fn check_exist_unpack(
        &mut self,
        q: Qual,
        psi: &HeapType,
        b: &'a Block,
        body: &'a [Instr],
    ) -> Result<(), TypeError> {
        let HeapType::Exists(bq, bsz, body_ty) = psi else {
            return Err(TypeError::Mismatch {
                expected: "existential heap type".into(),
                found: psi.to_string(),
                context: "exist.unpack".into(),
            });
        };
        self.pop_many_expect(&b.arrow.params, "exist.unpack (params)")?;
        let Some(rt) = self.pop_op("exist.unpack (ref)")? else {
            self.cur_info.bodies_visited = false;
            return Ok(());
        };
        let Pretype::Ref(pi, _, rpsi) = &*rt.pre else {
            return Err(TypeError::Mismatch {
                expected: "ref to existential package".into(),
                found: rt.to_string(),
                context: "exist.unpack".into(),
            });
        };
        if rpsi != psi {
            return Err(TypeError::Mismatch {
                expected: psi.to_string(),
                found: rpsi.to_string(),
                context: "exist.unpack annotation vs reference".into(),
            });
        }
        let linear_case = !qual_leq(&self.ctx, q, Qual::Unr);
        if linear_case {
            if *pi != MemPriv::ReadWrite {
                return Err(TypeError::Other(
                    "exist.unpack lin requires a read-write reference (it frees)".into(),
                ));
            }
            if !qual_leq(&self.ctx, Qual::Lin, rt.qual) {
                return Err(TypeError::QualNotLeq {
                    lhs: Qual::Lin,
                    rhs: rt.qual,
                    context: "exist.unpack lin consumes a linear reference".into(),
                });
            }
        } else if !qual_leq(&self.ctx, body_ty.qual, Qual::Unr) {
            return Err(TypeError::LinearityViolation {
                context: "exist.unpack unr would duplicate a linear package body".into(),
            });
        }
        self.check_effects(&b.effects)?;
        // Enter the pretype binder: load the bound and run the body in
        // inner coordinates. Nothing already stored is rewritten; its
        // depth stamp says how far to shift it when it is read.
        let outer = self.depth;
        self.depth = outer + Depth::one(Kind::Type);
        self.ctx.push_type(TypeBound {
            lower_qual: *bq,
            size: bsz.clone(),
            may_contain_caps: false,
        });
        let shift1 = |t: &Type| shift_type(t, Depth::one(Kind::Type));
        let mut entry: Vec<Type> = b.arrow.params.iter().map(shift1).collect();
        entry.push((**body_ty).clone()); // already in binder coordinates
        let results_in: Vec<Type> = b.arrow.results.iter().map(shift1).collect();
        let limbo = if linear_case {
            Vec::new()
        } else {
            vec![shift1(&rt)]
        };
        let mark = self.log.len();
        let frame = self.block_frame(results_in, &b.effects, outer, entry, limbo);
        let res = self.run_body(body, frame, "exist.unpack");
        self.ctx.pop_type();
        self.depth = outer;
        res?;
        self.leave_block(mark, &b.effects);
        if !linear_case {
            self.push_op(rt);
        }
        for t in b.arrow.results.clone() {
            self.push_op(t);
        }
        Ok(())
    }

    fn check_mem_unpack(&mut self, b: &'a Block, body: &'a [Instr]) -> Result<(), TypeError> {
        let Some(pkg) = self.pop_op("mem.unpack (package)")? else {
            self.cur_info.bodies_visited = false;
            return Ok(());
        };
        let Pretype::ExistsLoc(pkg_body) = &*pkg.pre else {
            return Err(TypeError::Mismatch {
                expected: "existential location package".into(),
                found: pkg.to_string(),
                context: "mem.unpack".into(),
            });
        };
        let pkg_body = (**pkg_body).clone();
        self.pop_many_expect(&b.arrow.params, "mem.unpack (params)")?;
        self.check_effects(&b.effects)?;
        let outer = self.depth;
        self.depth = outer + Depth::one(Kind::Loc);
        self.ctx.push_loc();
        let shift1 = |t: &Type| shift_type(t, Depth::one(Kind::Loc));
        let mut entry: Vec<Type> = b.arrow.params.iter().map(shift1).collect();
        entry.push(pkg_body); // the ∃ body is already in binder coordinates
        let results_in: Vec<Type> = b.arrow.results.iter().map(shift1).collect();
        let mark = self.log.len();
        let frame = self.block_frame(results_in, &b.effects, outer, entry, Vec::new());
        let res = self.run_body(body, frame, "mem.unpack");
        self.ctx.pop_loc();
        self.depth = outer;
        res?;
        self.leave_block(mark, &b.effects);
        for t in b.arrow.results.clone() {
            self.push_op(t);
        }
        Ok(())
    }

    /// Finishes checking a function body: the stack must hold exactly the
    /// return types and no local may still hold a linear value (Fig. 8's
    /// configuration rule).
    fn finish(&mut self) -> Result<(), TypeError> {
        let ret = self.frames[0].label_tys.clone();
        self.cur_info = InstrInfo::default();
        self.pop_many_expect(&ret, "function end")?;
        if !self.cur().stack.is_empty() {
            return Err(TypeError::BlockResultMismatch {
                context: "values left on stack at function end".into(),
            });
        }
        self.check_all_unr("function end")
    }
}

/// Whether `a` stored at depth `a_at` and `b` stored at `b_at` are the
/// same type once read at the current depth. Both stamps lie on the
/// current binder path, so one is within the other; shifting is
/// injective, so comparing at the deeper stamp decides it.
fn same_type(a: &Type, a_at: Depth, b: &Type, b_at: Depth) -> bool {
    if a_at == b_at {
        a == b
    } else if a_at.loc <= b_at.loc && a_at.ty <= b_at.ty {
        // (Unpacks bind only locations and pretypes.)
        shift_type(a, b_at - a_at) == *b
    } else {
        *a == shift_type(b, a_at - b_at)
    }
}

fn require_int(nt: NumType) -> Result<(), TypeError> {
    if nt.is_int() {
        Ok(())
    } else {
        Err(TypeError::Other(format!(
            "integer operation on float type {nt}"
        )))
    }
}

fn require_float(nt: NumType) -> Result<(), TypeError> {
    if nt.is_float() {
        Ok(())
    } else {
        Err(TypeError::Other(format!(
            "float operation on integer type {nt}"
        )))
    }
}

/// Checks one function body against its declared type (paper §4's
/// function typing): loads the quantifier telescope, allocates parameter
/// and declared local slots, checks the body, and enforces the
/// end-of-function conditions.
///
/// Returns the per-instruction [`InstrInfo`] trace used by the
/// type-directed Wasm backend.
///
/// # Errors
///
/// Returns the first [`TypeError`] encountered.
pub fn check_function_body(
    module: &ModuleEnv,
    ty: &FunType,
    local_sizes: &[Size],
    body: &[Instr],
) -> Result<Vec<InstrInfo>, TypeError> {
    let mut ctx = KindCtx::new();
    let _pushed = push_telescope(&mut ctx, &ty.quants);
    let mut locals = Vec::with_capacity(ty.arrow.params.len() + local_sizes.len());
    for p in &ty.arrow.params {
        let size = size_of_type(&ctx, p)?;
        locals.push(Slot {
            ty: p.clone(),
            at: Depth::default(),
            size,
        });
    }
    for sz in local_sizes {
        wf_size(&ctx, sz)?;
        locals.push(Slot {
            ty: Type::unit(),
            at: Depth::default(),
            size: sz.clone(),
        });
    }
    let mut checker = Checker::new(module, ctx, locals, ty.arrow.results.clone());
    checker.check_seq(body)?;
    checker.finish()?;
    Ok(checker.trace)
}
