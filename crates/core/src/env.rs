//! Typing environments (paper Fig. 5).
//!
//! * [`KindCtx`] — the kind-variable components of the function
//!   environment `F`: bounded qualifier variables (`F.qual`), bounded size
//!   variables (`F.size`), bounded pretype variables (`F.type`) and the
//!   location variables in scope (`F.location`).
//! * [`ModuleEnv`] — the module environment `M` (function, global and
//!   table types).
//! * [`StoreTyping`] — the store typing `S` (instance typings plus the
//!   linear and unrestricted memory typings).
//!
//! Bound expressions stored in a [`KindCtx`] are recorded together with
//! the binder [`Depth`] at which they were written; lookups shift them to
//! the current depth, so callers always see expressions in *current*
//! de Bruijn coordinates.

use std::collections::BTreeMap;

use crate::subst::{shift_size, Depth};
use crate::syntax::{FunType, HeapType, Pretype, Qual, Size};

/// Bounds `q* ⪯ δ ⪯ q*` on a qualifier variable.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QualBounds {
    /// Qualifiers below `δ`.
    pub lower: Vec<Qual>,
    /// Qualifiers above `δ`.
    pub upper: Vec<Qual>,
}

/// Bounds `sz* ≤ σ ≤ sz*` on a size variable.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SizeBounds {
    /// Sizes below `σ`.
    pub lower: Vec<Size>,
    /// Sizes above `σ`.
    pub upper: Vec<Size>,
}

/// The constraint `q ⪯ α (c?) ≲ sz` on a pretype variable.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeBound {
    /// The minimum qualifier at which `α` may appear.
    pub lower_qual: Qual,
    /// An upper bound on the size of any instantiation.
    pub size: Size,
    /// Whether instantiations may contain bare capabilities.
    pub may_contain_caps: bool,
}

/// The kind-variable context: qualifier, size, pretype and location
/// variables currently in scope, with their constraints.
#[derive(Debug, Clone, Default)]
pub struct KindCtx {
    quals: Vec<(QualBounds, Depth)>,
    sizes: Vec<(SizeBounds, Depth)>,
    types: Vec<(TypeBound, Depth)>,
    locs: u32,
}

impl KindCtx {
    /// An empty context.
    pub fn new() -> KindCtx {
        KindCtx::default()
    }

    /// The current binder depth (used when snapshotting bound expressions).
    pub fn depth(&self) -> Depth {
        Depth {
            loc: self.locs,
            size: self.sizes.len() as u32,
            qual: self.quals.len() as u32,
            ty: self.types.len() as u32,
        }
    }

    /// Number of qualifier variables in scope.
    pub fn num_quals(&self) -> u32 {
        self.quals.len() as u32
    }

    /// Number of size variables in scope.
    pub fn num_sizes(&self) -> u32 {
        self.sizes.len() as u32
    }

    /// Pushes a qualifier binder with the given bounds (expressed at the
    /// current depth).
    pub fn push_qual(&mut self, bounds: QualBounds) {
        let d = self.depth();
        self.quals.push((bounds, d));
    }

    /// Pushes a size binder.
    pub fn push_size(&mut self, bounds: SizeBounds) {
        let d = self.depth();
        self.sizes.push((bounds, d));
    }

    /// Pushes a pretype binder.
    pub fn push_type(&mut self, bound: TypeBound) {
        let d = self.depth();
        self.types.push((bound, d));
    }

    /// Pushes a location binder.
    pub fn push_loc(&mut self) {
        self.locs += 1;
    }

    /// Pops the most recent pretype binder.
    pub fn pop_type(&mut self) {
        self.types.pop();
    }

    /// Pops the most recent qualifier binder.
    pub fn pop_qual(&mut self) {
        self.quals.pop();
    }

    /// Pops the most recent size binder.
    pub fn pop_size(&mut self) {
        self.sizes.pop();
    }

    /// Pops the most recent location binder.
    pub fn pop_loc(&mut self) {
        assert!(self.locs > 0, "pop_loc on empty location context");
        self.locs -= 1;
    }

    fn shift_qual(q: Qual, by: u32) -> Qual {
        match q {
            Qual::Var(v) => Qual::Var(v + by),
            q => q,
        }
    }

    /// Looks up the bounds of qualifier variable `i` (de Bruijn), shifted
    /// to the current depth.
    pub fn qual_bounds(&self, i: u32) -> Option<QualBounds> {
        let pos = self.quals.len().checked_sub(1 + i as usize)?;
        let (b, snap) = &self.quals[pos];
        let by = self.depth().qual - snap.qual;
        Some(QualBounds {
            lower: b.lower.iter().map(|q| Self::shift_qual(*q, by)).collect(),
            upper: b.upper.iter().map(|q| Self::shift_qual(*q, by)).collect(),
        })
    }

    /// Looks up the bounds of size variable `i`, shifted to current depth.
    pub fn size_bounds(&self, i: u32) -> Option<SizeBounds> {
        let pos = self.sizes.len().checked_sub(1 + i as usize)?;
        let (b, snap) = &self.sizes[pos];
        let by = Depth {
            size: self.depth().size - snap.size,
            ..Depth::default()
        };
        Some(SizeBounds {
            lower: b.lower.iter().map(|s| shift_size(s, by)).collect(),
            upper: b.upper.iter().map(|s| shift_size(s, by)).collect(),
        })
    }

    /// Looks up the constraint on pretype variable `i`, shifted to current
    /// depth.
    pub fn type_bound(&self, i: u32) -> Option<TypeBound> {
        let pos = self.types.len().checked_sub(1 + i as usize)?;
        let (b, snap) = &self.types[pos];
        let d = self.depth();
        let size_by = Depth {
            size: d.size - snap.size,
            ..Depth::default()
        };
        Some(TypeBound {
            lower_qual: Self::shift_qual(b.lower_qual, d.qual - snap.qual),
            size: shift_size(&b.size, size_by),
            may_contain_caps: b.may_contain_caps,
        })
    }

    /// Returns `true` if location variable `i` is in scope.
    pub fn loc_in_scope(&self, i: u32) -> bool {
        i < self.locs
    }
}

/// The module environment `M`: the types of the module's functions,
/// globals, and table entries.
#[derive(Debug, Clone, Default)]
pub struct ModuleEnv {
    /// Function types (defined and imported, in index order).
    pub funcs: Vec<FunType>,
    /// Global types: mutability plus stored pretype.
    pub globals: Vec<(bool, Pretype)>,
    /// Types of the table's entries.
    pub table: Vec<FunType>,
}

/// A memory typing: location → (current heap type, slot size in bits).
pub type MemTyping = BTreeMap<u32, (HeapType, u64)>;

/// The store typing `S`: instance typings plus the typing of both
/// memories.
#[derive(Debug, Clone, Default)]
pub struct StoreTyping {
    /// Typings of the instantiated modules.
    pub insts: Vec<ModuleEnv>,
    /// Typing of the linear memory.
    pub lin: MemTyping,
    /// Typing of the unrestricted memory.
    pub unr: MemTyping,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_counts_binders() {
        let mut c = KindCtx::new();
        c.push_loc();
        c.push_qual(QualBounds::default());
        c.push_size(SizeBounds::default());
        c.push_type(TypeBound {
            lower_qual: Qual::Unr,
            size: Size::Const(32),
            may_contain_caps: false,
        });
        let d = c.depth();
        assert_eq!((d.loc, d.size, d.qual, d.ty), (1, 1, 1, 1));
        assert!(c.loc_in_scope(0));
        assert!(!c.loc_in_scope(1));
    }

    #[test]
    fn lookup_shifts_bounds_to_current_depth() {
        let mut c = KindCtx::new();
        // σ0 with no bounds.
        c.push_size(SizeBounds::default());
        // σ (new 0) with upper bound the previous var, written as Var(0) at
        // push time.
        c.push_size(SizeBounds {
            lower: vec![],
            upper: vec![Size::Var(0)],
        });
        // From current depth, variable 0's upper bound must still denote the
        // outer binder, now at index 1.
        let b = c.size_bounds(0).unwrap();
        assert_eq!(b.upper, vec![Size::Var(1)]);
        // The outer binder itself has no bounds.
        let b = c.size_bounds(1).unwrap();
        assert!(b.upper.is_empty());
        assert_eq!(c.size_bounds(2), None);
    }

    #[test]
    fn qual_lookup_shifts_vars() {
        let mut c = KindCtx::new();
        c.push_qual(QualBounds::default());
        c.push_qual(QualBounds {
            lower: vec![Qual::Var(0)],
            upper: vec![Qual::Lin],
        });
        let b = c.qual_bounds(0).unwrap();
        assert_eq!(b.lower, vec![Qual::Var(1)]);
        assert_eq!(b.upper, vec![Qual::Lin]);
    }

    #[test]
    fn type_bound_lookup() {
        let mut c = KindCtx::new();
        c.push_size(SizeBounds::default());
        c.push_type(TypeBound {
            lower_qual: Qual::Lin,
            size: Size::Var(0),
            may_contain_caps: true,
        });
        // No size binders pushed since, so no shift.
        let b = c.type_bound(0).unwrap();
        assert_eq!(b.size, Size::Var(0));
        assert!(b.may_contain_caps);
        // Pushing another size binder shifts the stored bound.
        c.push_size(SizeBounds::default());
        let b = c.type_bound(0).unwrap();
        assert_eq!(b.size, Size::Var(1));
    }

    #[test]
    fn pop_restores_depth() {
        let mut c = KindCtx::new();
        c.push_loc();
        c.push_type(TypeBound {
            lower_qual: Qual::Unr,
            size: Size::Const(0),
            may_contain_caps: false,
        });
        c.pop_type();
        c.pop_loc();
        assert_eq!(c.depth(), Depth::default());
    }
}
