//! Type flattening and slot layout (paper §6, "Lowering RichWasm's Type
//! System").
//!
//! Every RichWasm type is represented as a sequence of Wasm numeric
//! values. For marshalling through locals and memory, each value also has
//! a canonical *slot form*: ⌈bits/32⌉ consecutive little-endian 32-bit
//! slots. Type variables are represented by the slot form of their size
//! bound (padded with zeroes).

use richwasm::env::KindCtx;
use richwasm::sizing::size_of_type;
use richwasm::syntax::{NumType, Pretype, Size, Type};
use richwasm_wasm::ast::ValType;

use crate::error::LowerError;

/// Resolves a size expression to constant bits by substituting variables
/// with their (transitively resolved) declared upper bounds.
pub fn resolve_size(ctx: &KindCtx, sz: &Size) -> Result<u64, LowerError> {
    resolve_rec(ctx, sz, 16)
}

fn resolve_rec(ctx: &KindCtx, sz: &Size, fuel: u32) -> Result<u64, LowerError> {
    if fuel == 0 {
        return Err(LowerError::UnresolvableSize(format!(
            "cyclic bounds resolving {sz}"
        )));
    }
    match sz {
        Size::Const(c) => Ok(*c),
        Size::Plus(a, b) => Ok(resolve_rec(ctx, a, fuel)? + resolve_rec(ctx, b, fuel)?),
        Size::Var(i) => {
            let b = ctx
                .size_bounds(*i)
                .ok_or_else(|| LowerError::Internal(format!("unbound size var σ{i}")))?;
            for u in &b.upper {
                if let Ok(v) = resolve_rec(ctx, u, fuel - 1) {
                    return Ok(v);
                }
            }
            Err(LowerError::UnresolvableSize(format!(
                "size variable σ{i} has no constant upper bound"
            )))
        }
    }
}

/// Number of 32-bit slots needed for `bits`.
pub fn slots_for_bits(bits: u64) -> usize {
    bits.div_ceil(32) as usize
}

/// Flattens a type to its Wasm value-type sequence.
///
/// # Errors
///
/// Fails when a type variable's bound cannot be resolved (boxing
/// unimplemented; see crate docs).
pub fn flatten(ctx: &KindCtx, t: &Type) -> Result<Vec<ValType>, LowerError> {
    let mut out = Vec::new();
    flatten_pre(ctx, &t.pre, &mut out)?;
    Ok(out)
}

fn flatten_pre(ctx: &KindCtx, p: &Pretype, out: &mut Vec<ValType>) -> Result<(), LowerError> {
    match p {
        // No runtime information.
        Pretype::Unit | Pretype::Cap(..) | Pretype::Own(_) => {}
        Pretype::Num(nt) => out.push(match nt {
            NumType::I32 | NumType::U32 => ValType::I32,
            NumType::I64 | NumType::U64 => ValType::I64,
            NumType::F32 => ValType::F32,
            NumType::F64 => ValType::F64,
        }),
        Pretype::Prod(ts) => {
            for t in ts {
                flatten_pre(ctx, &t.pre, out)?;
            }
        }
        Pretype::Ref(..) | Pretype::Ptr(_) => out.push(ValType::I32),
        // A coderef is an index into the shared function table.
        Pretype::CodeRef(_) => out.push(ValType::I32),
        // The recursive occurrence is guarded by an indirection, so
        // flattening the body terminates.
        Pretype::Rec(_, body) | Pretype::ExistsLoc(body) => flatten_pre(ctx, &body.pre, out)?,
        Pretype::Var(i) => {
            let bound = ctx
                .type_bound(*i)
                .ok_or_else(|| LowerError::Internal(format!("unbound pretype var α{i}")))?;
            let bits = resolve_size(ctx, &bound.size)?;
            for _ in 0..slots_for_bits(bits) {
                out.push(ValType::I32);
            }
        }
    }
    Ok(())
}

/// The number of 32-bit slots occupied by the *slot form* of a layout.
pub fn layout_slots(layout: &[ValType]) -> usize {
    layout.iter().map(|t| val_slots(*t)).sum()
}

/// Slots occupied by one Wasm value.
pub fn val_slots(t: ValType) -> usize {
    match t {
        ValType::I32 | ValType::F32 => 1,
        ValType::I64 | ValType::F64 => 2,
    }
}

/// Byte size of a type's slot form (what struct-field offsets are made
/// of: each declared field size, in bytes, rounded to whole slots).
pub fn byte_size(ctx: &KindCtx, t: &Type) -> Result<u64, LowerError> {
    let bits =
        size_of_type(ctx, t).map_err(|e| LowerError::Internal(format!("size of {t}: {e}")))?;
    let bits = if bits.is_closed() {
        bits.eval_closed().expect("closed")
    } else {
        resolve_size(ctx, &bits)?
    };
    Ok(bits.div_ceil(32) * 4)
}

/// One segment of a *coercion plan* between a callee-side ("abstract")
/// layout and a caller-side ("concrete") layout. Type variables may occur
/// on either side: at a closure call the *caller* holds the padded
/// `∃`-bound representation while the callee's signature is concrete.
#[derive(Debug, Clone, PartialEq)]
pub enum Seg {
    /// Identical layout on both sides.
    Exact(Vec<ValType>),
    /// Caller concrete `content` → callee padded to `total_slots`.
    Padded {
        /// The caller's concrete value types at this position.
        content: Vec<ValType>,
        /// Total slots reserved by the callee's padded layout.
        total_slots: usize,
    },
    /// Caller padded `src_slots` → callee concrete layout `dst` (the
    /// value occupies the leading slots; trailing padding is dropped).
    Unpad {
        /// Slots of the caller's padded representation.
        src_slots: usize,
        /// The callee's concrete value types.
        dst: Vec<ValType>,
    },
    /// Caller padded `src_slots` → callee padded `dst_slots` (both sides
    /// abstract, possibly with different bounds).
    RePad {
        /// Caller-side padded slots.
        src_slots: usize,
        /// Callee-side padded slots.
        dst_slots: usize,
    },
}

impl Seg {
    /// Slots of the callee ("abstract") side.
    pub fn abs_slots(&self) -> usize {
        match self {
            Seg::Exact(ts) => layout_slots(ts),
            Seg::Padded { total_slots, .. } => *total_slots,
            Seg::Unpad { dst, .. } => layout_slots(dst),
            Seg::RePad { dst_slots, .. } => *dst_slots,
        }
    }

    /// Slots of the caller ("concrete") side.
    pub fn conc_slots(&self) -> usize {
        match self {
            Seg::Exact(ts) => layout_slots(ts),
            Seg::Padded { content, .. } => layout_slots(content),
            Seg::Unpad { src_slots, .. } => *src_slots,
            Seg::RePad { src_slots, .. } => *src_slots,
        }
    }
}

/// Computes the coercion plan between an abstract type (under `abs_ctx`,
/// e.g. a callee's telescope — variables below `n_outer_vars` are treated
/// as abstract positions) and a concrete instantiation of it.
///
/// The two types have identical tree structure except at abstract
/// variable positions.
pub fn plan(
    abs_ctx: &KindCtx,
    abs: &Type,
    conc_ctx: &KindCtx,
    conc: &Type,
) -> Result<Vec<Seg>, LowerError> {
    let mut segs = Vec::new();
    plan_pre(abs_ctx, &abs.pre, conc_ctx, &conc.pre, &mut segs)?;
    Ok(coalesce(segs))
}

fn var_slots(ctx: &KindCtx, i: u32) -> Result<usize, LowerError> {
    let bound = ctx
        .type_bound(i)
        .ok_or_else(|| LowerError::Internal(format!("unbound pretype var α{i}")))?;
    Ok(slots_for_bits(resolve_size(ctx, &bound.size)?))
}

fn plan_pre(
    abs_ctx: &KindCtx,
    abs: &Pretype,
    conc_ctx: &KindCtx,
    conc: &Pretype,
    out: &mut Vec<Seg>,
) -> Result<(), LowerError> {
    match (abs, conc) {
        (Pretype::Var(i), Pretype::Var(j)) => {
            out.push(Seg::RePad {
                src_slots: var_slots(conc_ctx, *j)?,
                dst_slots: var_slots(abs_ctx, *i)?,
            });
            Ok(())
        }
        (Pretype::Var(i), c) => {
            let mut content = Vec::new();
            flatten_pre(conc_ctx, c, &mut content)?;
            out.push(Seg::Padded {
                content,
                total_slots: var_slots(abs_ctx, *i)?,
            });
            Ok(())
        }
        (a, Pretype::Var(j)) => {
            let mut dst = Vec::new();
            flatten_pre(abs_ctx, a, &mut dst)?;
            out.push(Seg::Unpad {
                src_slots: var_slots(conc_ctx, *j)?,
                dst,
            });
            Ok(())
        }
        (Pretype::Prod(ats), Pretype::Prod(cts)) => {
            if ats.len() != cts.len() {
                return Err(LowerError::Internal("plan: product arity mismatch".into()));
            }
            for (a, c) in ats.iter().zip(cts) {
                plan_pre(abs_ctx, &a.pre, conc_ctx, &c.pre, out)?;
            }
            Ok(())
        }
        (Pretype::Rec(_, a), Pretype::Rec(_, c))
        | (Pretype::ExistsLoc(a), Pretype::ExistsLoc(c)) => {
            plan_pre(abs_ctx, &a.pre, conc_ctx, &c.pre, out)
        }
        (a, c) => {
            // Structurally identical from here down (typing guarantees it);
            // verify by flattening both sides.
            let mut ts = Vec::new();
            flatten_pre(abs_ctx, a, &mut ts)?;
            let mut cs = Vec::new();
            flatten_pre(conc_ctx, c, &mut cs)?;
            if ts != cs {
                return Err(LowerError::Internal(format!(
                    "plan: layout mismatch {ts:?} vs {cs:?}"
                )));
            }
            out.push(Seg::Exact(ts));
            Ok(())
        }
    }
}

fn coalesce(segs: Vec<Seg>) -> Vec<Seg> {
    let mut out: Vec<Seg> = Vec::new();
    for s in segs {
        match (out.last_mut(), s) {
            (Some(Seg::Exact(prev)), Seg::Exact(ts)) => prev.extend(ts),
            (_, s) => out.push(s),
        }
    }
    out
}

/// `true` when a plan is the identity (no coercion needed).
pub fn plan_is_identity(segs: &[Seg]) -> bool {
    segs.iter().all(|s| match s {
        Seg::Exact(_) => true,
        Seg::Padded {
            content,
            total_slots,
        } => layout_slots(content) == *total_slots && content.iter().all(|t| *t == ValType::I32),
        Seg::Unpad { src_slots, dst } => {
            layout_slots(dst) == *src_slots && dst.iter().all(|t| *t == ValType::I32)
        }
        Seg::RePad {
            src_slots,
            dst_slots,
        } => src_slots == dst_slots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use richwasm::env::{SizeBounds, TypeBound};
    use richwasm::syntax::{HeapType, Loc, MemPriv, Qual};

    #[test]
    fn base_flattenings() {
        let ctx = KindCtx::new();
        assert_eq!(flatten(&ctx, &Type::unit()).unwrap(), vec![]);
        assert_eq!(
            flatten(&ctx, &Type::num(NumType::I64)).unwrap(),
            vec![ValType::I64]
        );
        let t = Pretype::Prod(vec![Type::num(NumType::I32), Type::num(NumType::F64)]).unr();
        assert_eq!(flatten(&ctx, &t).unwrap(), vec![ValType::I32, ValType::F64]);
        let r = Pretype::Ref(
            MemPriv::ReadWrite,
            Loc::lin(0),
            HeapType::Array(Type::unit()),
        )
        .lin();
        assert_eq!(flatten(&ctx, &r).unwrap(), vec![ValType::I32]);
    }

    #[test]
    fn caps_and_owns_erase() {
        let ctx = KindCtx::new();
        let t = Pretype::Prod(vec![
            Pretype::Cap(MemPriv::Read, Loc::lin(0), HeapType::Array(Type::unit())).lin(),
            Type::num(NumType::I32),
            Pretype::Own(Loc::lin(0)).lin(),
        ])
        .lin();
        assert_eq!(flatten(&ctx, &t).unwrap(), vec![ValType::I32]);
    }

    #[test]
    fn type_var_pads_to_bound() {
        let mut ctx = KindCtx::new();
        ctx.push_type(TypeBound {
            lower_qual: Qual::Unr,
            size: Size::Const(96),
            may_contain_caps: false,
        });
        assert_eq!(
            flatten(&ctx, &Pretype::Var(0).unr()).unwrap(),
            vec![ValType::I32; 3]
        );
    }

    #[test]
    fn unresolvable_bound_is_reported() {
        let mut ctx = KindCtx::new();
        ctx.push_size(SizeBounds::default()); // no upper bound
        ctx.push_type(TypeBound {
            lower_qual: Qual::Unr,
            size: Size::Var(0),
            may_contain_caps: false,
        });
        assert!(matches!(
            flatten(&ctx, &Pretype::Var(0).unr()),
            Err(LowerError::UnresolvableSize(_))
        ));
    }

    #[test]
    fn size_var_resolves_through_bounds() {
        let mut ctx = KindCtx::new();
        ctx.push_size(SizeBounds {
            lower: vec![],
            upper: vec![Size::Const(64)],
        });
        assert_eq!(
            resolve_size(&ctx, &(Size::Var(0) + Size::Const(32))).unwrap(),
            96
        );
    }

    #[test]
    fn plan_pairs_var_with_concrete() {
        // abs: (α≲64, i64); conc: (i32, i64)
        let mut abs_ctx = KindCtx::new();
        abs_ctx.push_type(TypeBound {
            lower_qual: Qual::Unr,
            size: Size::Const(64),
            may_contain_caps: false,
        });
        let abs = Pretype::Prod(vec![Pretype::Var(0).unr(), Type::num(NumType::I64)]).unr();
        let conc = Pretype::Prod(vec![Type::num(NumType::I32), Type::num(NumType::I64)]).unr();
        let conc_ctx = KindCtx::new();
        let p = plan(&abs_ctx, &abs, &conc_ctx, &conc).unwrap();
        assert_eq!(
            p,
            vec![
                Seg::Padded {
                    content: vec![ValType::I32],
                    total_slots: 2
                },
                Seg::Exact(vec![ValType::I64]),
            ]
        );
        assert!(!plan_is_identity(&p));
    }

    #[test]
    fn identity_plan_detected() {
        let ctx = KindCtx::new();
        let t = Type::num(NumType::I32);
        let p = plan(&ctx, &t, &ctx, &t).unwrap();
        assert!(plan_is_identity(&p));
    }

    #[test]
    fn byte_sizes_round_to_slots() {
        let ctx = KindCtx::new();
        assert_eq!(byte_size(&ctx, &Type::num(NumType::I32)).unwrap(), 4);
        assert_eq!(byte_size(&ctx, &Type::num(NumType::F64)).unwrap(), 8);
        assert_eq!(byte_size(&ctx, &Type::unit()).unwrap(), 0);
    }
}
