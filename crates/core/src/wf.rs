//! Well-formedness of types (`F ⊢ τ type`), heap types, function types and
//! the `no_caps` judgement (paper §4).
//!
//! Well-formedness enforces:
//!
//! * all kind variables are in scope,
//! * **qualifier consistency**: a container's qualifier upper-bounds the
//!   qualifiers of its components (an unrestricted tuple may not contain a
//!   linear value — §2.1's motivating example for qualifier bounds),
//! * **memory consistency**: references/capabilities to the linear memory
//!   are linear, those to the unrestricted memory are unrestricted,
//! * pretype variables appear only at qualifiers above their declared
//!   lower bound,
//! * struct fields fit their declared slot sizes,
//! * recursive types are *guarded*: the bound variable occurs only behind
//!   a pointer indirection (so sizes stay well-defined).

use crate::env::{KindCtx, QualBounds, SizeBounds, TypeBound};
use crate::error::TypeError;
use crate::sizing::size_of_type;
use crate::solver::{qual_leq, size_leq};
use crate::syntax::{
    ArrowType, FunType, HeapType, Loc, Mem, Pretype, Qual, Quantifier, Size, Type,
};

/// Checks that a qualifier's variables are in scope.
pub fn wf_qual(ctx: &KindCtx, q: Qual) -> Result<(), TypeError> {
    match q {
        Qual::Var(i) if i >= ctx.num_quals() => Err(TypeError::UnboundVar {
            kind: "qualifier",
            index: i,
        }),
        _ => Ok(()),
    }
}

/// Checks that a size expression's variables are in scope.
pub fn wf_size(ctx: &KindCtx, s: &Size) -> Result<(), TypeError> {
    match s {
        Size::Var(i) if *i >= ctx.num_sizes() => Err(TypeError::UnboundVar {
            kind: "size",
            index: *i,
        }),
        Size::Var(_) | Size::Const(_) => Ok(()),
        Size::Plus(a, b) => {
            wf_size(ctx, a)?;
            wf_size(ctx, b)
        }
    }
}

/// Checks that a location's variables are in scope. Concrete locations are
/// always well-formed (they appear in runtime configurations).
pub fn wf_loc(ctx: &KindCtx, l: Loc) -> Result<(), TypeError> {
    match l {
        Loc::Var(i) if !ctx.loc_in_scope(i) => Err(TypeError::UnboundVar {
            kind: "location",
            index: i,
        }),
        _ => Ok(()),
    }
}

/// Checks `F ⊢ τ type`.
pub fn wf_type(ctx: &mut KindCtx, t: &Type) -> Result<(), TypeError> {
    wf_qual(ctx, t.qual)?;
    wf_pretype_at(ctx, &t.pre, t.qual)
}

/// Checks that pretype `p` is well-formed *and valid at qualifier `q`*:
/// every component the value of `p` would carry on the stack has a
/// qualifier `⪯ q` (so duplicating/dropping the container cannot
/// duplicate/drop something stricter).
pub fn wf_pretype_at(ctx: &mut KindCtx, p: &Pretype, q: Qual) -> Result<(), TypeError> {
    match p {
        Pretype::Unit | Pretype::Num(_) => Ok(()),
        Pretype::Prod(ts) => {
            for t in ts {
                wf_type(ctx, t)?;
                if !qual_leq(ctx, t.qual, q) {
                    return Err(TypeError::QualNotLeq {
                        lhs: t.qual,
                        rhs: q,
                        context: format!("component {t} of a tuple at qualifier {q}"),
                    });
                }
            }
            Ok(())
        }
        Pretype::Ref(_, l, h) | Pretype::Cap(_, l, h) => {
            wf_loc(ctx, *l)?;
            wf_heaptype(ctx, h)?;
            check_mem_consistency(ctx, *l, q, "reference/capability")
        }
        Pretype::Own(l) => {
            wf_loc(ctx, *l)?;
            check_mem_consistency(ctx, *l, q, "ownership token")
        }
        Pretype::Ptr(l) => wf_loc(ctx, *l),
        Pretype::Rec(rq, body) => {
            wf_qual(ctx, *rq)?;
            if !rec_guarded(body, 0) {
                return Err(TypeError::IllFormed {
                    reason: format!("unguarded recursive type rec {rq} ⪯ α. {body}"),
                });
            }
            // The bound variable stands for the rec type itself: guarded
            // occurrences are pointer-like, so its size bound is never
            // consulted; use 0 and forbid capabilities conservatively.
            ctx.push_type(TypeBound {
                lower_qual: *rq,
                size: Size::Const(0),
                may_contain_caps: false,
            });
            let r = wf_type(ctx, body).and_then(|()| {
                if qual_leq(ctx, body.qual, q) {
                    Ok(())
                } else {
                    Err(TypeError::QualNotLeq {
                        lhs: body.qual,
                        rhs: q,
                        context: "recursive type body vs container qualifier".into(),
                    })
                }
            });
            ctx.pop_type();
            r
        }
        Pretype::ExistsLoc(body) => {
            ctx.push_loc();
            let r = wf_type(ctx, body).and_then(|()| {
                if qual_leq(ctx, body.qual, q) {
                    Ok(())
                } else {
                    Err(TypeError::QualNotLeq {
                        lhs: body.qual,
                        rhs: q,
                        context: "existential body vs package qualifier".into(),
                    })
                }
            });
            ctx.pop_loc();
            r
        }
        Pretype::CodeRef(ft) => wf_funtype(ctx, ft),
        Pretype::Var(i) => {
            let bound = ctx.type_bound(*i).ok_or(TypeError::UnboundVar {
                kind: "pretype",
                index: *i,
            })?;
            // The variable may only appear at qualifiers above its lower
            // bound (§2.1).
            if !qual_leq(ctx, bound.lower_qual, q) {
                return Err(TypeError::QualNotLeq {
                    lhs: bound.lower_qual,
                    rhs: q,
                    context: format!("pretype variable α{i} used below its qualifier bound"),
                });
            }
            Ok(())
        }
    }
}

fn check_mem_consistency(ctx: &KindCtx, l: Loc, q: Qual, what: &str) -> Result<(), TypeError> {
    match l.mem() {
        Some(Mem::Lin) => {
            if qual_leq(ctx, Qual::Lin, q) {
                Ok(())
            } else {
                Err(TypeError::QualNotLeq {
                    lhs: Qual::Lin,
                    rhs: q,
                    context: format!("{what} to linear memory must be linear"),
                })
            }
        }
        Some(Mem::Unr) => {
            if qual_leq(ctx, q, Qual::Unr) {
                Ok(())
            } else {
                Err(TypeError::QualNotLeq {
                    lhs: q,
                    rhs: Qual::Unr,
                    context: format!("{what} to unrestricted memory must be unrestricted"),
                })
            }
        }
        // Location variables: consistency is established when the variable
        // is instantiated.
        None => Ok(()),
    }
}

/// Checks guardedness of a recursive type body: pretype variable `depth`
/// (the rec binder) may occur only inside `ref`/`ptr`/`cap`/`coderef`
/// subterms, which have fixed (pointer) sizes.
fn rec_guarded(t: &Type, depth: u32) -> bool {
    match &*t.pre {
        Pretype::Var(i) => *i != depth,
        Pretype::Unit | Pretype::Num(_) => true,
        // Indirections guard everything below them.
        Pretype::Ref(..)
        | Pretype::Ptr(_)
        | Pretype::Cap(..)
        | Pretype::Own(_)
        | Pretype::CodeRef(_) => true,
        Pretype::Prod(ts) => ts.iter().all(|t| rec_guarded(t, depth)),
        Pretype::Rec(_, body) => rec_guarded(body, depth + 1),
        Pretype::ExistsLoc(body) => rec_guarded(body, depth),
    }
}

/// Checks well-formedness of a heap type.
pub fn wf_heaptype(ctx: &mut KindCtx, h: &HeapType) -> Result<(), TypeError> {
    match h {
        HeapType::Variant(ts) => {
            for t in ts {
                wf_type(ctx, t)?;
            }
            Ok(())
        }
        HeapType::Struct(fields) => {
            for (t, sz) in fields {
                wf_type(ctx, t)?;
                wf_size(ctx, sz)?;
                let tsz = size_of_type(ctx, t)?;
                if !size_leq(ctx, &tsz, sz) {
                    return Err(TypeError::SizeNotLeq {
                        lhs: tsz,
                        rhs: sz.clone(),
                        context: format!("struct field {t} vs declared slot size"),
                    });
                }
            }
            Ok(())
        }
        HeapType::Array(t) => wf_type(ctx, t),
        HeapType::Exists(q, sz, body) => {
            wf_qual(ctx, *q)?;
            wf_size(ctx, sz)?;
            ctx.push_type(TypeBound {
                lower_qual: *q,
                size: sz.clone(),
                may_contain_caps: false,
            });
            let r = wf_type(ctx, body);
            ctx.pop_type();
            r
        }
    }
}

/// Checks well-formedness of a (possibly polymorphic) function type,
/// loading its quantifier telescope into a scratch extension of `ctx`.
pub fn wf_funtype(ctx: &mut KindCtx, ft: &FunType) -> Result<(), TypeError> {
    // Validate and push each quantifier in telescope order, then check the
    // arrow type under the extended context, then restore.
    let mut pushed = Vec::new();
    let mut result = Ok(());
    for qn in &ft.quants {
        match qn {
            Quantifier::Loc => {
                ctx.push_loc();
                pushed.push(0u8);
            }
            Quantifier::Size { lower, upper } => {
                for s in lower.iter().chain(upper) {
                    if let Err(e) = wf_size(ctx, s) {
                        result = Err(e);
                        break;
                    }
                }
                if result.is_err() {
                    break;
                }
                ctx.push_size(SizeBounds {
                    lower: lower.clone(),
                    upper: upper.clone(),
                });
                pushed.push(1);
            }
            Quantifier::Qual { lower, upper } => {
                for q in lower.iter().chain(upper) {
                    if let Err(e) = wf_qual(ctx, *q) {
                        result = Err(e);
                        break;
                    }
                }
                if result.is_err() {
                    break;
                }
                ctx.push_qual(QualBounds {
                    lower: lower.clone(),
                    upper: upper.clone(),
                });
                pushed.push(2);
            }
            Quantifier::Type {
                lower_qual,
                size,
                may_contain_caps,
            } => {
                if let Err(e) = wf_qual(ctx, *lower_qual).and_then(|()| wf_size(ctx, size)) {
                    result = Err(e);
                    break;
                }
                ctx.push_type(TypeBound {
                    lower_qual: *lower_qual,
                    size: size.clone(),
                    may_contain_caps: *may_contain_caps,
                });
                pushed.push(3);
            }
        }
    }
    if result.is_ok() {
        result = wf_arrow(ctx, &ft.arrow);
    }
    // Restore the context (pop in reverse).
    for kind in pushed.into_iter().rev() {
        match kind {
            0 => ctx.pop_loc(),
            1 => ctx.pop_size(),
            2 => ctx.pop_qual(),
            _ => ctx.pop_type(),
        }
    }
    result
}

/// Checks well-formedness of an arrow type.
pub fn wf_arrow(ctx: &mut KindCtx, a: &ArrowType) -> Result<(), TypeError> {
    for t in a.params.iter().chain(&a.results) {
        wf_type(ctx, t)?;
    }
    Ok(())
}

/// The `no_caps` judgement: `true` when values of pretype `p` cannot carry
/// bare capabilities or ownership tokens. Bare capabilities may not be
/// stored in memory — when compiled to Wasm they are erased, which would
/// leave the garbage collector unable to reach the linear memory they own
/// (§3). References *containing* capabilities are fine: the paired pointer
/// keeps the location reachable.
pub fn no_caps_pretype(ctx: &KindCtx, p: &Pretype) -> bool {
    match p {
        Pretype::Cap(..) | Pretype::Own(_) => false,
        Pretype::Unit
        | Pretype::Num(_)
        | Pretype::Ref(..)
        | Pretype::Ptr(_)
        | Pretype::CodeRef(_) => true,
        Pretype::Prod(ts) => ts.iter().all(|t| no_caps_pretype(ctx, &t.pre)),
        Pretype::Rec(_, body) | Pretype::ExistsLoc(body) => no_caps_pretype(ctx, &body.pre),
        Pretype::Var(i) => ctx
            .type_bound(*i)
            .map(|b| !b.may_contain_caps)
            .unwrap_or(false),
    }
}

/// `no_caps` on a full type.
pub fn no_caps_type(ctx: &KindCtx, t: &Type) -> bool {
    no_caps_pretype(ctx, &t.pre)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::{MemPriv, NumType};

    fn ctx() -> KindCtx {
        KindCtx::new()
    }

    #[test]
    fn unit_and_nums_wf() {
        let mut c = ctx();
        wf_type(&mut c, &Type::unit()).unwrap();
        wf_type(&mut c, &Type::num(NumType::F32)).unwrap();
    }

    #[test]
    fn unrestricted_tuple_with_linear_component_rejected() {
        let mut c = ctx();
        // The paper's motivating example: (unit^lin) inside an unr tuple.
        let t = Pretype::Prod(vec![Pretype::Unit.lin()]).unr();
        assert!(wf_type(&mut c, &t).is_err());
        // Linear tuple with linear component is fine.
        let t = Pretype::Prod(vec![Pretype::Unit.lin()]).lin();
        wf_type(&mut c, &t).unwrap();
    }

    #[test]
    fn linear_memory_ref_must_be_linear() {
        let mut c = ctx();
        let h = HeapType::Array(Type::num(NumType::I32));
        let t = Pretype::Ref(MemPriv::ReadWrite, Loc::lin(0), h.clone()).unr();
        assert!(wf_type(&mut c, &t).is_err());
        let t = Pretype::Ref(MemPriv::ReadWrite, Loc::lin(0), h.clone()).lin();
        wf_type(&mut c, &t).unwrap();
        // Unrestricted memory: the opposite.
        let t = Pretype::Ref(MemPriv::ReadWrite, Loc::unr(0), h.clone()).lin();
        assert!(wf_type(&mut c, &t).is_err());
        let t = Pretype::Ref(MemPriv::ReadWrite, Loc::unr(0), h).unr();
        wf_type(&mut c, &t).unwrap();
    }

    #[test]
    fn loc_var_ref_is_wf_at_any_qual() {
        let mut c = ctx();
        c.push_loc();
        let h = HeapType::Array(Type::num(NumType::I32));
        wf_type(
            &mut c,
            &Pretype::Ref(MemPriv::Read, Loc::Var(0), h.clone()).lin(),
        )
        .unwrap();
        wf_type(&mut c, &Pretype::Ref(MemPriv::Read, Loc::Var(0), h).unr()).unwrap();
        assert!(wf_type(&mut c, &Pretype::Ptr(Loc::Var(1)).unr()).is_err());
    }

    #[test]
    fn struct_fields_must_fit_slots() {
        let mut c = ctx();
        let ok = HeapType::Struct(vec![(Type::num(NumType::I32), Size::Const(32))]);
        wf_heaptype(&mut c, &ok).unwrap();
        let too_small = HeapType::Struct(vec![(Type::num(NumType::I64), Size::Const(32))]);
        assert!(wf_heaptype(&mut c, &too_small).is_err());
        // Over-sized slots are fine (padding).
        let padded = HeapType::Struct(vec![(Type::num(NumType::I32), Size::Const(64))]);
        wf_heaptype(&mut c, &padded).unwrap();
    }

    #[test]
    fn unguarded_rec_rejected() {
        let mut c = ctx();
        let t = Pretype::Rec(Qual::Unr, Box::new(Pretype::Var(0).unr())).unr();
        assert!(wf_type(&mut c, &t).is_err());
        let guarded = Pretype::Rec(
            Qual::Unr,
            Box::new(
                Pretype::Ref(
                    MemPriv::ReadWrite,
                    Loc::unr(0),
                    HeapType::Variant(vec![Type::unit(), Pretype::Var(0).unr()]),
                )
                .unr(),
            ),
        )
        .unr();
        wf_type(&mut c, &guarded).unwrap();
    }

    #[test]
    fn type_var_respects_lower_qual_bound() {
        let mut c = ctx();
        c.push_type(TypeBound {
            lower_qual: Qual::Lin,
            size: Size::Const(32),
            may_contain_caps: false,
        });
        // α with lower bound lin may appear at lin…
        wf_type(&mut c, &Pretype::Var(0).lin()).unwrap();
        // …but not at unr.
        assert!(wf_type(&mut c, &Pretype::Var(0).unr()).is_err());
    }

    #[test]
    fn no_caps_judgement() {
        let c = ctx();
        let h = HeapType::Array(Type::num(NumType::I32));
        assert!(!no_caps_pretype(
            &c,
            &Pretype::Cap(MemPriv::Read, Loc::lin(0), h.clone())
        ));
        assert!(!no_caps_pretype(&c, &Pretype::Own(Loc::lin(0))));
        // A ref *containing* caps is fine — pointer keeps it reachable.
        assert!(no_caps_pretype(
            &c,
            &Pretype::Ref(MemPriv::Read, Loc::lin(0), h.clone())
        ));
        let tuple_with_cap = Pretype::Prod(vec![Pretype::Cap(MemPriv::Read, Loc::lin(0), h).lin()]);
        assert!(!no_caps_pretype(&c, &tuple_with_cap));
    }

    #[test]
    fn funtype_telescope_wf() {
        let mut c = ctx();
        let ft = FunType {
            quants: vec![
                Quantifier::Loc,
                Quantifier::Size {
                    lower: vec![],
                    upper: vec![],
                },
                Quantifier::Type {
                    lower_qual: Qual::Unr,
                    size: Size::Var(0),
                    may_contain_caps: false,
                },
            ],
            arrow: ArrowType::new(
                vec![Pretype::Var(0).unr()],
                vec![Pretype::Ptr(Loc::Var(0)).unr()],
            ),
        };
        wf_funtype(&mut c, &ft).unwrap();
        // Context restored.
        assert_eq!(c.depth(), crate::subst::Depth::default());
        // A bad telescope: size bound references an unbound size var.
        let bad = FunType {
            quants: vec![Quantifier::Size {
                lower: vec![],
                upper: vec![Size::Var(3)],
            }],
            arrow: ArrowType::default(),
        };
        assert!(wf_funtype(&mut c, &bad).is_err());
    }
}
