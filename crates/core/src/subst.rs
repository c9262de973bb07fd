//! Substitution and shifting for RichWasm's four kinds of binders.
//!
//! RichWasm types and instructions bind variables of four kinds —
//! **locations** (`ρ`), **sizes** (`σ`), **qualifiers** (`δ`) and
//! **pretypes** (`α`) — each with its own de Bruijn index space. This
//! module implements:
//!
//! * [`shift_type`] and friends — shifting all free variables up, per
//!   kind,
//! * [`SubstEnv`] — simultaneous substitution (used to instantiate the
//!   quantifier telescope of a function type at `call`/`inst`),
//! * checked down-shifting (used by the type checker when leaving a
//!   `mem.unpack` / `exist.unpack` binder: failure = the bound variable
//!   escapes its scope).
//!
//! The paper notes that its *only* remaining admitted Coq lemmas concern
//! substitution; this module is correspondingly the most heavily
//! property-tested part of the crate.

use crate::syntax::instr::{Block, Instr, LocalEffect};
use crate::syntax::loc::Loc;
use crate::syntax::qual::Qual;
use crate::syntax::size::Size;
use crate::syntax::types::{ArrowType, FunType, HeapType, Index, Pretype, Quantifier, Type};
use crate::syntax::value::{HeapValue, Value};

/// Binder kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// Location variables `ρ`.
    Loc,
    /// Size variables `σ`.
    Size,
    /// Qualifier variables `δ`.
    Qual,
    /// Pretype variables `α`.
    Type,
}

/// Per-kind binder depths (also used as per-kind shift amounts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Depth {
    /// Location binders crossed.
    pub loc: u32,
    /// Size binders crossed.
    pub size: u32,
    /// Qualifier binders crossed.
    pub qual: u32,
    /// Pretype binders crossed.
    pub ty: u32,
}

impl Depth {
    /// A depth of 1 in a single kind, 0 elsewhere.
    pub fn one(kind: Kind) -> Depth {
        let mut d = Depth::default();
        match kind {
            Kind::Loc => d.loc = 1,
            Kind::Size => d.size = 1,
            Kind::Qual => d.qual = 1,
            Kind::Type => d.ty = 1,
        }
        d
    }

    fn bump(&mut self, kind: Kind) {
        match kind {
            Kind::Loc => self.loc += 1,
            Kind::Size => self.size += 1,
            Kind::Qual => self.qual += 1,
            Kind::Type => self.ty += 1,
        }
    }
}

impl std::ops::Add for Depth {
    type Output = Depth;

    fn add(self, o: Depth) -> Depth {
        Depth {
            loc: self.loc + o.loc,
            size: self.size + o.size,
            qual: self.qual + o.qual,
            ty: self.ty + o.ty,
        }
    }
}

/// The binders crossed from an outer depth to an inner one: `inner -
/// outer` is the shift that carries a type from `outer` to `inner`
/// coordinates. Panics if `outer` is deeper than `inner` in any kind.
impl std::ops::Sub for Depth {
    type Output = Depth;

    fn sub(self, o: Depth) -> Depth {
        Depth {
            loc: self.loc - o.loc,
            size: self.size - o.size,
            qual: self.qual - o.qual,
            ty: self.ty - o.ty,
        }
    }
}

/// A simultaneous substitution: de Bruijn index `i` of each kind is
/// replaced by the `i`-th entry (0 = **innermost** binder); indices beyond
/// the replacement list are shifted down by its length.
#[derive(Debug, Clone, Default)]
pub struct SubstEnv {
    /// Replacements for location variables.
    pub locs: Vec<Loc>,
    /// Replacements for size variables.
    pub sizes: Vec<Size>,
    /// Replacements for qualifier variables.
    pub quals: Vec<Qual>,
    /// Replacements for pretype variables.
    pub types: Vec<Pretype>,
}

impl SubstEnv {
    /// A substitution replacing only location variable 0.
    pub fn loc(l: Loc) -> SubstEnv {
        SubstEnv {
            locs: vec![l],
            ..SubstEnv::default()
        }
    }

    /// A substitution replacing only pretype variable 0.
    pub fn pretype(p: Pretype) -> SubstEnv {
        SubstEnv {
            types: vec![p],
            ..SubstEnv::default()
        }
    }

    /// A substitution replacing only qualifier variable 0.
    pub fn qual(q: Qual) -> SubstEnv {
        SubstEnv {
            quals: vec![q],
            ..SubstEnv::default()
        }
    }

    /// A substitution replacing only size variable 0.
    pub fn size(s: Size) -> SubstEnv {
        SubstEnv {
            sizes: vec![s],
            ..SubstEnv::default()
        }
    }

    /// Builds the instantiation substitution for a quantifier telescope.
    ///
    /// `indices` are given outermost-first (the order of `quants`); the
    /// resulting environment maps de Bruijn index 0 of each kind to the
    /// *innermost* binder's index value.
    ///
    /// # Errors
    ///
    /// Returns a message when the arity or a kind does not match.
    pub fn for_instantiation(quants: &[Quantifier], indices: &[Index]) -> Result<SubstEnv, String> {
        if quants.len() != indices.len() {
            return Err(format!(
                "instantiation arity mismatch: {} quantifiers, {} indices",
                quants.len(),
                indices.len()
            ));
        }
        let mut env = SubstEnv::default();
        for (q, z) in quants.iter().zip(indices) {
            match (q, z) {
                (Quantifier::Loc, Index::Loc(l)) => env.locs.push(*l),
                (Quantifier::Size { .. }, Index::Size(s)) => env.sizes.push(s.clone()),
                (Quantifier::Qual { .. }, Index::Qual(qq)) => env.quals.push(*qq),
                (Quantifier::Type { .. }, Index::Pretype(p)) => env.types.push(p.clone()),
                _ => return Err(format!("kind mismatch: quantifier {q} vs index {z}")),
            }
        }
        // Collected outermost-first; de Bruijn 0 is the innermost binder.
        env.locs.reverse();
        env.sizes.reverse();
        env.quals.reverse();
        env.types.reverse();
        Ok(env)
    }
}

/// The internal traversal operation.
enum Op<'a> {
    /// Shift free variables up by the per-kind amounts.
    ShiftUp(Depth),
    /// Shift free variables of one kind down by 1; fails if the variable at
    /// the cutoff (the escaping binder) occurs.
    ShiftDown(Kind),
    /// Simultaneous substitution.
    Subst(&'a SubstEnv),
    /// Abstract every occurrence of a location into a fresh innermost
    /// binder (the inverse of substitution, used by `mem.pack`): the target
    /// becomes `Var(depth)` and all other free location variables shift up
    /// by one.
    GeneralizeLoc(Loc),
}

/// Raised when a checked down-shift encounters the escaping variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EscapeError {
    /// The kind of the escaping variable.
    pub kind: Kind,
}

type R<T> = Result<T, EscapeError>;

fn apply_qual(q: Qual, op: &Op, d: Depth) -> R<Qual> {
    match q {
        Qual::Var(i) => var_qual(i, op, d),
        q => Ok(q),
    }
}

fn var_qual(i: u32, op: &Op, d: Depth) -> R<Qual> {
    let cut = d.qual;
    match op {
        Op::ShiftUp(by) => Ok(if i < cut {
            Qual::Var(i)
        } else {
            Qual::Var(i + by.qual)
        }),
        Op::ShiftDown(Kind::Qual) => {
            if i < cut {
                Ok(Qual::Var(i))
            } else if i == cut {
                Err(EscapeError { kind: Kind::Qual })
            } else {
                Ok(Qual::Var(i - 1))
            }
        }
        Op::ShiftDown(_) | Op::GeneralizeLoc(_) => Ok(Qual::Var(i)),
        Op::Subst(env) => {
            if i < cut {
                Ok(Qual::Var(i))
            } else {
                let j = (i - cut) as usize;
                if j < env.quals.len() {
                    // Qualifier replacements contain no sub-binders, so the
                    // only adjustment is shifting their own variables.
                    match env.quals[j] {
                        Qual::Var(v) => Ok(Qual::Var(v + cut)),
                        q => Ok(q),
                    }
                } else {
                    Ok(Qual::Var(i - env.quals.len() as u32))
                }
            }
        }
    }
}

fn apply_size(s: &Size, op: &Op, d: Depth) -> R<Size> {
    match s {
        Size::Const(c) => Ok(Size::Const(*c)),
        Size::Plus(a, b) => Ok(Size::Plus(
            Box::new(apply_size(a, op, d)?),
            Box::new(apply_size(b, op, d)?),
        )),
        Size::Var(i) => {
            let i = *i;
            let cut = d.size;
            match op {
                Op::ShiftUp(by) => Ok(if i < cut {
                    Size::Var(i)
                } else {
                    Size::Var(i + by.size)
                }),
                Op::ShiftDown(Kind::Size) => {
                    if i < cut {
                        Ok(Size::Var(i))
                    } else if i == cut {
                        Err(EscapeError { kind: Kind::Size })
                    } else {
                        Ok(Size::Var(i - 1))
                    }
                }
                Op::ShiftDown(_) | Op::GeneralizeLoc(_) => Ok(Size::Var(i)),
                Op::Subst(env) => {
                    if i < cut {
                        Ok(Size::Var(i))
                    } else {
                        let j = (i - cut) as usize;
                        if j < env.sizes.len() {
                            let shift = Depth {
                                size: cut,
                                ..Depth::default()
                            };
                            apply_size(&env.sizes[j], &Op::ShiftUp(shift), Depth::default())
                        } else {
                            Ok(Size::Var(i - env.sizes.len() as u32))
                        }
                    }
                }
            }
        }
    }
}

fn apply_loc(l: Loc, op: &Op, d: Depth) -> R<Loc> {
    if let Op::GeneralizeLoc(target) = op {
        return Ok(match (l, *target) {
            (Loc::Concrete(c), Loc::Concrete(t)) if c == t => Loc::Var(d.loc),
            (Loc::Concrete(c), _) => Loc::Concrete(c),
            // A free variable equal to the (depth-adjusted) target.
            (Loc::Var(i), Loc::Var(t)) if i >= d.loc && i == t + d.loc => Loc::Var(d.loc),
            // Other free variables shift up past the new binder.
            (Loc::Var(i), _) if i >= d.loc => Loc::Var(i + 1),
            (Loc::Var(i), _) => Loc::Var(i),
        });
    }
    match l {
        Loc::Concrete(c) => Ok(Loc::Concrete(c)),
        Loc::Var(i) => {
            let cut = d.loc;
            match op {
                Op::ShiftUp(by) => Ok(if i < cut {
                    Loc::Var(i)
                } else {
                    Loc::Var(i + by.loc)
                }),
                Op::ShiftDown(Kind::Loc) => {
                    if i < cut {
                        Ok(Loc::Var(i))
                    } else if i == cut {
                        Err(EscapeError { kind: Kind::Loc })
                    } else {
                        Ok(Loc::Var(i - 1))
                    }
                }
                Op::ShiftDown(_) => Ok(Loc::Var(i)),
                Op::GeneralizeLoc(_) => unreachable!("handled above"),
                Op::Subst(env) => {
                    if i < cut {
                        Ok(Loc::Var(i))
                    } else {
                        let j = (i - cut) as usize;
                        if j < env.locs.len() {
                            match env.locs[j] {
                                Loc::Var(v) => Ok(Loc::Var(v + cut)),
                                l => Ok(l),
                            }
                        } else {
                            Ok(Loc::Var(i - env.locs.len() as u32))
                        }
                    }
                }
            }
        }
    }
}

fn apply_pretype(p: &Pretype, op: &Op, d: Depth) -> R<Pretype> {
    Ok(match p {
        Pretype::Unit => Pretype::Unit,
        Pretype::Num(nt) => Pretype::Num(*nt),
        Pretype::Prod(ts) => {
            Pretype::Prod(ts.iter().map(|t| apply_type(t, op, d)).collect::<R<_>>()?)
        }
        Pretype::Ref(pi, l, h) => {
            Pretype::Ref(*pi, apply_loc(*l, op, d)?, apply_heaptype(h, op, d)?)
        }
        Pretype::Ptr(l) => Pretype::Ptr(apply_loc(*l, op, d)?),
        Pretype::Cap(pi, l, h) => {
            Pretype::Cap(*pi, apply_loc(*l, op, d)?, apply_heaptype(h, op, d)?)
        }
        Pretype::Rec(q, t) => {
            let q2 = apply_qual(*q, op, d)?;
            let mut d2 = d;
            d2.bump(Kind::Type);
            Pretype::Rec(q2, Box::new(apply_type(t, op, d2)?))
        }
        Pretype::ExistsLoc(t) => {
            let mut d2 = d;
            d2.bump(Kind::Loc);
            Pretype::ExistsLoc(Box::new(apply_type(t, op, d2)?))
        }
        Pretype::CodeRef(ft) => Pretype::CodeRef(apply_funtype(ft, op, d)?),
        Pretype::Own(l) => Pretype::Own(apply_loc(*l, op, d)?),
        Pretype::Var(i) => {
            let i = *i;
            let cut = d.ty;
            match op {
                Op::ShiftUp(by) => {
                    if i < cut {
                        Pretype::Var(i)
                    } else {
                        Pretype::Var(i + by.ty)
                    }
                }
                Op::ShiftDown(Kind::Type) => {
                    if i < cut {
                        Pretype::Var(i)
                    } else if i == cut {
                        return Err(EscapeError { kind: Kind::Type });
                    } else {
                        Pretype::Var(i - 1)
                    }
                }
                Op::ShiftDown(_) | Op::GeneralizeLoc(_) => Pretype::Var(i),
                Op::Subst(env) => {
                    if i < cut {
                        Pretype::Var(i)
                    } else {
                        let j = (i - cut) as usize;
                        if j < env.types.len() {
                            // Shift the replacement's free variables (of all
                            // kinds) past the binders we are under.
                            apply_pretype(&env.types[j], &Op::ShiftUp(d), Depth::default())?
                        } else {
                            Pretype::Var(i - env.types.len() as u32)
                        }
                    }
                }
            }
        }
    })
}

fn apply_type(t: &Type, op: &Op, d: Depth) -> R<Type> {
    Ok(Type {
        pre: Box::new(apply_pretype(&t.pre, op, d)?),
        qual: apply_qual(t.qual, op, d)?,
    })
}

fn apply_heaptype(h: &HeapType, op: &Op, d: Depth) -> R<HeapType> {
    Ok(match h {
        HeapType::Variant(ts) => {
            HeapType::Variant(ts.iter().map(|t| apply_type(t, op, d)).collect::<R<_>>()?)
        }
        HeapType::Struct(fs) => HeapType::Struct(
            fs.iter()
                .map(|(t, sz)| Ok((apply_type(t, op, d)?, apply_size(sz, op, d)?)))
                .collect::<R<_>>()?,
        ),
        HeapType::Array(t) => HeapType::Array(apply_type(t, op, d)?),
        HeapType::Exists(q, sz, t) => {
            let q2 = apply_qual(*q, op, d)?;
            let sz2 = apply_size(sz, op, d)?;
            let mut d2 = d;
            d2.bump(Kind::Type);
            HeapType::Exists(q2, sz2, Box::new(apply_type(t, op, d2)?))
        }
    })
}

fn apply_quantifier(q: &Quantifier, op: &Op, d: Depth) -> R<Quantifier> {
    Ok(match q {
        Quantifier::Loc => Quantifier::Loc,
        Quantifier::Size { lower, upper } => Quantifier::Size {
            lower: lower
                .iter()
                .map(|s| apply_size(s, op, d))
                .collect::<R<_>>()?,
            upper: upper
                .iter()
                .map(|s| apply_size(s, op, d))
                .collect::<R<_>>()?,
        },
        Quantifier::Qual { lower, upper } => Quantifier::Qual {
            lower: lower
                .iter()
                .map(|q| apply_qual(*q, op, d))
                .collect::<R<_>>()?,
            upper: upper
                .iter()
                .map(|q| apply_qual(*q, op, d))
                .collect::<R<_>>()?,
        },
        Quantifier::Type {
            lower_qual,
            size,
            may_contain_caps,
        } => Quantifier::Type {
            lower_qual: apply_qual(*lower_qual, op, d)?,
            size: apply_size(size, op, d)?,
            may_contain_caps: *may_contain_caps,
        },
    })
}

fn apply_arrow(a: &ArrowType, op: &Op, d: Depth) -> R<ArrowType> {
    Ok(ArrowType {
        params: a
            .params
            .iter()
            .map(|t| apply_type(t, op, d))
            .collect::<R<_>>()?,
        results: a
            .results
            .iter()
            .map(|t| apply_type(t, op, d))
            .collect::<R<_>>()?,
    })
}

fn apply_funtype(ft: &FunType, op: &Op, d: Depth) -> R<FunType> {
    let mut d = d;
    let mut quants = Vec::with_capacity(ft.quants.len());
    for q in &ft.quants {
        quants.push(apply_quantifier(q, op, d)?);
        d.bump(match q {
            Quantifier::Loc => Kind::Loc,
            Quantifier::Size { .. } => Kind::Size,
            Quantifier::Qual { .. } => Kind::Qual,
            Quantifier::Type { .. } => Kind::Type,
        });
    }
    Ok(FunType {
        quants,
        arrow: apply_arrow(&ft.arrow, op, d)?,
    })
}

fn apply_index(z: &Index, op: &Op, d: Depth) -> R<Index> {
    Ok(match z {
        Index::Loc(l) => Index::Loc(apply_loc(*l, op, d)?),
        Index::Size(s) => Index::Size(apply_size(s, op, d)?),
        Index::Qual(q) => Index::Qual(apply_qual(*q, op, d)?),
        Index::Pretype(p) => Index::Pretype(apply_pretype(p, op, d)?),
    })
}

fn apply_value(v: &Value, op: &Op, d: Depth) -> R<Value> {
    Ok(match v {
        Value::Unit | Value::Num(..) | Value::Ref(_) | Value::Ptr(_) | Value::Cap | Value::Own => {
            v.clone()
        }
        Value::Prod(vs) => Value::Prod(vs.iter().map(|v| apply_value(v, op, d)).collect::<R<_>>()?),
        Value::Fold(v) => Value::Fold(Box::new(apply_value(v, op, d)?)),
        Value::MemPack(l, v) => Value::MemPack(*l, Box::new(apply_value(v, op, d)?)),
        Value::CodeRef {
            inst,
            table_idx,
            indices,
        } => Value::CodeRef {
            inst: *inst,
            table_idx: *table_idx,
            indices: indices
                .iter()
                .map(|z| apply_index(z, op, d))
                .collect::<R<_>>()?,
        },
    })
}

fn apply_heapvalue(hv: &HeapValue, op: &Op, d: Depth) -> R<HeapValue> {
    Ok(match hv {
        HeapValue::Variant(i, v) => HeapValue::Variant(*i, Box::new(apply_value(v, op, d)?)),
        HeapValue::Struct(vs) => {
            HeapValue::Struct(vs.iter().map(|v| apply_value(v, op, d)).collect::<R<_>>()?)
        }
        HeapValue::Array(vs) => {
            HeapValue::Array(vs.iter().map(|v| apply_value(v, op, d)).collect::<R<_>>()?)
        }
        HeapValue::Pack(p, v, h) => HeapValue::Pack(
            apply_pretype(p, op, d)?,
            Box::new(apply_value(v, op, d)?),
            apply_heaptype(h, op, d)?,
        ),
    })
}

fn apply_block(b: &Block, op: &Op, d: Depth) -> R<Block> {
    Ok(Block {
        arrow: apply_arrow(&b.arrow, op, d)?,
        effects: b
            .effects
            .iter()
            .map(|e| {
                Ok(LocalEffect {
                    idx: e.idx,
                    ty: apply_type(&e.ty, op, d)?,
                })
            })
            .collect::<R<_>>()?,
    })
}

fn apply_instrs(es: &[Instr], op: &Op, d: Depth) -> R<Vec<Instr>> {
    es.iter().map(|e| apply_instr(e, op, d)).collect()
}

fn apply_instr(e: &Instr, op: &Op, d: Depth) -> R<Instr> {
    Ok(match e {
        Instr::Val(v) => Instr::Val(apply_value(v, op, d)?),
        Instr::Num(n) => Instr::Num(*n),
        Instr::Unreachable
        | Instr::Nop
        | Instr::Drop
        | Instr::Select
        | Instr::Br(_)
        | Instr::BrIf(_)
        | Instr::BrTable(..)
        | Instr::Return
        | Instr::SetLocal(_)
        | Instr::TeeLocal(_)
        | Instr::GetGlobal(_)
        | Instr::SetGlobal(_)
        | Instr::CodeRefI(_)
        | Instr::CallIndirect
        | Instr::RecUnfold
        | Instr::Ungroup
        | Instr::CapSplit
        | Instr::CapJoin
        | Instr::RefDemote
        | Instr::RefSplit
        | Instr::RefJoin
        | Instr::StructFree
        | Instr::StructGet(_)
        | Instr::StructSet(_)
        | Instr::StructSwap(_)
        | Instr::ArrayGet
        | Instr::ArraySet
        | Instr::ArrayFree
        | Instr::Trap
        | Instr::Free => e.clone(),
        Instr::BlockI(b, body) => Instr::BlockI(apply_block(b, op, d)?, apply_instrs(body, op, d)?),
        Instr::LoopI(a, body) => Instr::LoopI(apply_arrow(a, op, d)?, apply_instrs(body, op, d)?),
        Instr::IfI(b, t, f) => Instr::IfI(
            apply_block(b, op, d)?,
            apply_instrs(t, op, d)?,
            apply_instrs(f, op, d)?,
        ),
        Instr::GetLocal(i, q) => Instr::GetLocal(*i, apply_qual(*q, op, d)?),
        Instr::Qualify(q) => Instr::Qualify(apply_qual(*q, op, d)?),
        Instr::Inst(zs) => Instr::Inst(zs.iter().map(|z| apply_index(z, op, d)).collect::<R<_>>()?),
        Instr::Call(i, zs) => Instr::Call(
            *i,
            zs.iter().map(|z| apply_index(z, op, d)).collect::<R<_>>()?,
        ),
        Instr::RecFold(p) => Instr::RecFold(apply_pretype(p, op, d)?),
        Instr::MemPack(l) => Instr::MemPack(apply_loc(*l, op, d)?),
        Instr::MemUnpack(b, body) => {
            let b2 = apply_block(b, op, d)?;
            let mut d2 = d;
            d2.bump(Kind::Loc);
            Instr::MemUnpack(b2, apply_instrs(body, op, d2)?)
        }
        Instr::Group(i, q) => Instr::Group(*i, apply_qual(*q, op, d)?),
        Instr::StructMalloc(szs, q) => Instr::StructMalloc(
            szs.iter().map(|s| apply_size(s, op, d)).collect::<R<_>>()?,
            apply_qual(*q, op, d)?,
        ),
        Instr::VariantMalloc(i, ts, q) => Instr::VariantMalloc(
            *i,
            ts.iter().map(|t| apply_type(t, op, d)).collect::<R<_>>()?,
            apply_qual(*q, op, d)?,
        ),
        Instr::VariantCase(q, h, b, bodies) => Instr::VariantCase(
            apply_qual(*q, op, d)?,
            apply_heaptype(h, op, d)?,
            apply_block(b, op, d)?,
            bodies
                .iter()
                .map(|body| apply_instrs(body, op, d))
                .collect::<R<_>>()?,
        ),
        Instr::ArrayMalloc(q) => Instr::ArrayMalloc(apply_qual(*q, op, d)?),
        Instr::ExistPack(p, h, q) => Instr::ExistPack(
            apply_pretype(p, op, d)?,
            apply_heaptype(h, op, d)?,
            apply_qual(*q, op, d)?,
        ),
        Instr::ExistUnpack(q, h, b, body) => {
            let q2 = apply_qual(*q, op, d)?;
            let h2 = apply_heaptype(h, op, d)?;
            let b2 = apply_block(b, op, d)?;
            let mut d2 = d;
            d2.bump(Kind::Type);
            Instr::ExistUnpack(q2, h2, b2, apply_instrs(body, op, d2)?)
        }
        Instr::CallAdmin {
            inst,
            func,
            indices,
        } => Instr::CallAdmin {
            inst: *inst,
            func: *func,
            indices: indices
                .iter()
                .map(|z| apply_index(z, op, d))
                .collect::<R<_>>()?,
        },
        Instr::Label { arity, cont, body } => Instr::Label {
            arity: *arity,
            cont: apply_instrs(cont, op, d)?,
            body: apply_instrs(body, op, d)?,
        },
        Instr::LocalFrame {
            arity,
            inst,
            locals,
            body,
        } => Instr::LocalFrame {
            arity: *arity,
            inst: *inst,
            locals: locals
                .iter()
                .map(|(v, sz)| Ok((apply_value(v, op, d)?, apply_size(sz, op, d)?)))
                .collect::<R<_>>()?,
            body: apply_instrs(body, op, d)?,
        },
        Instr::MallocAdmin(sz, hv, q) => Instr::MallocAdmin(
            apply_size(sz, op, d)?,
            apply_heapvalue(hv, op, d)?,
            apply_qual(*q, op, d)?,
        ),
    })
}

// ---------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------

/// Shifts all free variables of `t` up by the per-kind amounts in `by`.
pub fn shift_type(t: &Type, by: Depth) -> Type {
    apply_type(t, &Op::ShiftUp(by), Depth::default()).expect("shift cannot fail")
}

/// Shifts all free variables of a heap type up.
pub fn shift_heaptype(h: &HeapType, by: Depth) -> HeapType {
    apply_heaptype(h, &Op::ShiftUp(by), Depth::default()).expect("shift cannot fail")
}

/// Shifts all free variables of a size expression up.
pub fn shift_size(s: &Size, by: Depth) -> Size {
    apply_size(s, &Op::ShiftUp(by), Depth::default()).expect("shift cannot fail")
}

/// Shifts free variables of one kind down by 1.
///
/// # Errors
///
/// Fails with [`EscapeError`] if variable 0 of that kind occurs free —
/// i.e. the variable bound by the binder being exited *escapes*.
pub fn unshift_type(t: &Type, kind: Kind) -> Result<Type, EscapeError> {
    apply_type(t, &Op::ShiftDown(kind), Depth::default())
}

/// Applies a simultaneous substitution to a type.
pub fn subst_type(t: &Type, env: &SubstEnv) -> Type {
    apply_type(t, &Op::Subst(env), Depth::default()).expect("subst cannot fail")
}

/// Applies a simultaneous substitution to a size.
pub fn subst_size(s: &Size, env: &SubstEnv) -> Size {
    apply_size(s, &Op::Subst(env), Depth::default()).expect("subst cannot fail")
}

/// Applies a simultaneous substitution to a qualifier.
pub fn subst_qual(q: Qual, env: &SubstEnv) -> Qual {
    apply_qual(q, &Op::Subst(env), Depth::default()).expect("subst cannot fail")
}

/// Applies a simultaneous substitution to an arrow type.
pub fn subst_arrow(a: &ArrowType, env: &SubstEnv) -> ArrowType {
    apply_arrow(a, &Op::Subst(env), Depth::default()).expect("subst cannot fail")
}

/// Applies a simultaneous substitution to a function type.
pub fn subst_funtype(ft: &FunType, env: &SubstEnv) -> FunType {
    apply_funtype(ft, &Op::Subst(env), Depth::default()).expect("subst cannot fail")
}

/// Applies a simultaneous substitution to an instruction sequence (used by
/// `exist.unpack` / `mem.unpack` reduction and by `call` instantiation).
pub fn subst_instrs(es: &[Instr], env: &SubstEnv) -> Vec<Instr> {
    apply_instrs(es, &Op::Subst(env), Depth::default()).expect("subst cannot fail")
}

/// Instantiates a polymorphic function type with concrete indices,
/// producing the monomorphic arrow type `tf[z*/κ*]`.
///
/// # Errors
///
/// Returns a message when the index list does not match the telescope.
pub fn instantiate_arrow(ft: &FunType, indices: &[Index]) -> Result<ArrowType, String> {
    let env = SubstEnv::for_instantiation(&ft.quants, indices)?;
    Ok(subst_arrow(&ft.arrow, &env))
}

/// Unfolds an isorecursive pretype: `unfold(rec q ⪯ α. τ) = τ[rec…/α]`.
///
/// Returns `None` if `p` is not a `rec`.
pub fn unfold_rec(p: &Pretype) -> Option<Type> {
    match p {
        Pretype::Rec(_, body) => Some(subst_type(body, &SubstEnv::pretype(p.clone()))),
        _ => None,
    }
}

/// Abstracts every occurrence of location `target` in `t` into a fresh
/// innermost location binder: the result is the body of the existential
/// `∃ρ. …` produced by `mem.pack target` (paper §2.1).
///
/// All other free location variables are shifted up past the new binder.
pub fn generalize_loc(t: &Type, target: Loc) -> Type {
    apply_type(t, &Op::GeneralizeLoc(target), Depth::default()).expect("generalize cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::types::NumType;

    fn var_t(i: u32) -> Type {
        Pretype::Var(i).unr()
    }

    #[test]
    fn subst_replaces_var_zero() {
        let t = var_t(0);
        let out = subst_type(&t, &SubstEnv::pretype(Pretype::Num(NumType::I32)));
        assert_eq!(out, Type::num(NumType::I32));
    }

    #[test]
    fn subst_shifts_down_above() {
        let t = var_t(3);
        let out = subst_type(&t, &SubstEnv::pretype(Pretype::Unit));
        assert_eq!(out, var_t(2));
    }

    #[test]
    fn subst_under_rec_binder_skips_bound() {
        // rec unr ⪯ α. α0  — the bound var must not be replaced.
        let t = Pretype::Rec(Qual::Unr, Box::new(var_t(0))).unr();
        let out = subst_type(&t, &SubstEnv::pretype(Pretype::Unit));
        assert_eq!(out, t);
        // …but a var referring past the binder is.
        let t = Pretype::Rec(Qual::Unr, Box::new(var_t(1))).unr();
        let out = subst_type(&t, &SubstEnv::pretype(Pretype::Num(NumType::F32)));
        let expect = Pretype::Rec(Qual::Unr, Box::new(Pretype::Num(NumType::F32).unr())).unr();
        assert_eq!(out, expect);
    }

    #[test]
    fn subst_shifts_replacement_under_binders() {
        // ∃ρ. (ptr ρ1)^unr with [ρ0 ↦ ρ5] : the replacement var must shift
        // to ρ6 under the ∃ binder... wait, locs: replacement is Var(5);
        // under one loc binder it becomes Var(5 + 1).
        let t = Pretype::ExistsLoc(Box::new(Pretype::Ptr(Loc::Var(1)).unr())).unr();
        let out = subst_type(&t, &SubstEnv::loc(Loc::Var(5)));
        let expect = Pretype::ExistsLoc(Box::new(Pretype::Ptr(Loc::Var(6)).unr())).unr();
        assert_eq!(out, expect);
    }

    #[test]
    fn shift_up_respects_cutoff() {
        let t = Pretype::ExistsLoc(Box::new(
            Pretype::Prod(vec![
                Pretype::Ptr(Loc::Var(0)).unr(),
                Pretype::Ptr(Loc::Var(1)).unr(),
            ])
            .unr(),
        ))
        .unr();
        let out = shift_type(&t, Depth::one(Kind::Loc));
        let expect = Pretype::ExistsLoc(Box::new(
            Pretype::Prod(vec![
                Pretype::Ptr(Loc::Var(0)).unr(),
                Pretype::Ptr(Loc::Var(2)).unr(),
            ])
            .unr(),
        ))
        .unr();
        assert_eq!(out, expect);
    }

    #[test]
    fn unshift_detects_escape() {
        let t = Pretype::Ptr(Loc::Var(0)).unr();
        assert!(unshift_type(&t, Kind::Loc).is_err());
        let t = Pretype::Ptr(Loc::Var(1)).unr();
        assert_eq!(
            unshift_type(&t, Kind::Loc).unwrap(),
            Pretype::Ptr(Loc::Var(0)).unr()
        );
    }

    #[test]
    fn unfold_rec_substitutes_whole_rec() {
        // rec unr ⪯ α. (ref rw ρ0 (variant [unit^unr, α0^unr]))^unr — unfold
        // replaces α0 with the rec type itself.
        let rec = Pretype::Rec(
            Qual::Unr,
            Box::new(
                Pretype::Ref(
                    crate::syntax::MemPriv::ReadWrite,
                    Loc::Var(0),
                    HeapType::Variant(vec![Type::unit(), var_t(0)]),
                )
                .unr(),
            ),
        );
        let unfolded = unfold_rec(&rec).unwrap();
        match &*unfolded.pre {
            Pretype::Ref(_, _, HeapType::Variant(cases)) => {
                assert_eq!(*cases[1].pre, rec);
            }
            other => panic!("unexpected unfold: {other:?}"),
        }
        assert_eq!(unfold_rec(&Pretype::Unit), None);
    }

    #[test]
    fn instantiation_env_reverses_to_innermost_first() {
        let quants = vec![
            Quantifier::Loc,
            Quantifier::Size {
                lower: vec![],
                upper: vec![],
            },
            Quantifier::Loc,
        ];
        let indices = vec![
            Index::Loc(Loc::lin(1)),
            Index::Size(Size::Const(8)),
            Index::Loc(Loc::unr(2)),
        ];
        let env = SubstEnv::for_instantiation(&quants, &indices).unwrap();
        // Innermost loc binder (the second Loc quantifier) is de Bruijn 0.
        assert_eq!(env.locs, vec![Loc::unr(2), Loc::lin(1)]);
        assert_eq!(env.sizes, vec![Size::Const(8)]);
    }

    #[test]
    fn instantiation_arity_and_kind_checked() {
        let quants = vec![Quantifier::Loc];
        assert!(SubstEnv::for_instantiation(&quants, &[]).is_err());
        assert!(SubstEnv::for_instantiation(&quants, &[Index::Qual(Qual::Lin)]).is_err());
    }

    #[test]
    fn instantiate_arrow_substitutes_params() {
        // ∀ρ. [(ptr ρ0)^unr] → [] instantiated at ℓ=3^lin.
        let ft = FunType {
            quants: vec![Quantifier::Loc],
            arrow: ArrowType::new(vec![Pretype::Ptr(Loc::Var(0)).unr()], vec![]),
        };
        let arrow = instantiate_arrow(&ft, &[Index::Loc(Loc::lin(3))]).unwrap();
        assert_eq!(arrow.params, vec![Pretype::Ptr(Loc::lin(3)).unr()]);
    }

    #[test]
    fn telescope_binders_are_not_free() {
        // ∀σ. ∀σ' ≤ σ. [] → [] — substituting the fun type with any env
        // must leave its own (bound) telescope variables untouched.
        let ft = FunType {
            quants: vec![
                Quantifier::Size {
                    lower: vec![],
                    upper: vec![],
                },
                Quantifier::Size {
                    lower: vec![],
                    upper: vec![Size::Var(0)],
                },
            ],
            arrow: ArrowType::new(vec![], vec![]),
        };
        let ft2 = subst_funtype(&ft, &SubstEnv::size(Size::Const(64)));
        assert_eq!(ft2, ft);
        // A var referring *past* the binders crossed so far is free and is
        // substituted: at quants[1] one size binder has been crossed, so
        // outer free index 0 appears as Var(1).
        let ft = FunType {
            quants: ft.quants,
            arrow: ArrowType::new(vec![], vec![Pretype::Prod(vec![]).with_qual(Qual::Unr)]),
        };
        let mut q2 = ft.quants.clone();
        q2[1] = Quantifier::Size {
            lower: vec![],
            upper: vec![Size::Var(0), Size::Var(1)],
        };
        let ft_with_free = FunType {
            quants: q2,
            arrow: ft.arrow,
        };
        let ft3 = subst_funtype(&ft_with_free, &SubstEnv::size(Size::Const(64)));
        match &ft3.quants[1] {
            Quantifier::Size { upper, .. } => {
                assert_eq!(upper[0], Size::Var(0));
                assert_eq!(upper[1], Size::Const(64));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn generalize_abstracts_concrete_loc() {
        let t = Pretype::Prod(vec![
            Pretype::Ptr(Loc::lin(3)).unr(),
            Pretype::Ptr(Loc::lin(4)).unr(),
            Pretype::Ptr(Loc::Var(0)).unr(),
        ])
        .unr();
        let out = generalize_loc(&t, Loc::lin(3));
        let expect = Pretype::Prod(vec![
            Pretype::Ptr(Loc::Var(0)).unr(),
            Pretype::Ptr(Loc::lin(4)).unr(),
            Pretype::Ptr(Loc::Var(1)).unr(),
        ])
        .unr();
        assert_eq!(out, expect);
        // Round-trip: substituting the fresh binder restores the original.
        let back = subst_type(&out, &SubstEnv::loc(Loc::lin(3)));
        // Var(1) got shifted back down to Var(0).
        assert_eq!(back, t);
    }

    #[test]
    fn generalize_abstracts_loc_var_under_binder() {
        // ∃ρ. ptr ρ1 — generalizing outer var 0 must hit the occurrence at
        // adjusted index 1 and rebind it to the *new* binder outside the ∃.
        let t = Pretype::ExistsLoc(Box::new(Pretype::Ptr(Loc::Var(1)).unr())).unr();
        let out = generalize_loc(&t, Loc::Var(0));
        // Under (new binder, then ∃): new binder is index 1 from inside.
        let expect = Pretype::ExistsLoc(Box::new(Pretype::Ptr(Loc::Var(1)).unr())).unr();
        assert_eq!(out, expect);
        // And an unrelated var shifts.
        let t = Pretype::Ptr(Loc::Var(5)).unr();
        assert_eq!(
            generalize_loc(&t, Loc::Var(0)),
            Pretype::Ptr(Loc::Var(6)).unr()
        );
    }

    #[test]
    fn subst_instr_descends_into_blocks() {
        let body = vec![Instr::MemPack(Loc::Var(0))];
        let es = vec![Instr::BlockI(Block::default(), body)];
        let out = subst_instrs(&es, &SubstEnv::loc(Loc::lin(9)));
        match &out[0] {
            Instr::BlockI(_, b) => assert_eq!(b[0], Instr::MemPack(Loc::lin(9))),
            _ => unreachable!(),
        }
    }

    #[test]
    fn subst_instr_respects_mem_unpack_binder() {
        // Inside mem.unpack, loc var 0 is the freshly bound ρ — untouched;
        // var 1 refers outward and is substituted.
        let body = vec![Instr::MemPack(Loc::Var(0)), Instr::MemPack(Loc::Var(1))];
        let es = vec![Instr::MemUnpack(Block::default(), body)];
        let out = subst_instrs(&es, &SubstEnv::loc(Loc::unr(4)));
        match &out[0] {
            Instr::MemUnpack(_, b) => {
                assert_eq!(b[0], Instr::MemPack(Loc::Var(0)));
                assert_eq!(b[1], Instr::MemPack(Loc::unr(4)));
            }
            _ => unreachable!(),
        }
    }
}
