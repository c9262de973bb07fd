//! The runtime store (paper Fig. 4, top): module instances and the two
//! global memories.

use std::collections::BTreeMap;

use crate::syntax::{ConcreteLoc, HeapValue, Mem, Value};

/// A closure: a function pinned to the module instance providing its
/// environment. The code itself lives in the instantiated module's
/// definition (see [`crate::interp::Runtime`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Closure {
    /// The defining module instance.
    pub inst: u32,
    /// The function index within that instance's module.
    pub func: u32,
}

/// A module instance: resolved function list, global values, and the
/// table used for indirect calls.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Instance {
    /// One closure per declared function (imports resolved).
    pub funcs: Vec<Closure>,
    /// Global values, in declaration order.
    pub globals: Vec<Value>,
    /// The table: closures addressable by `coderef`.
    pub table: Vec<Closure>,
}

/// One allocated heap cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// The structured contents.
    pub hv: HeapValue,
    /// The allocation size in bits (set by `malloc`, fixed thereafter —
    /// this is the slot size that strong updates must respect).
    pub size: u64,
}

/// The two flat memories. Unlike Wasm, cells hold structured heap values
/// (§2.1: "in RichWasm memories store high-level structured data").
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Memory {
    /// The manually managed linear memory.
    pub lin: BTreeMap<u32, Cell>,
    /// The garbage-collected unrestricted memory.
    pub unr: BTreeMap<u32, Cell>,
    next_lin: u32,
    next_unr: u32,
    /// Lifetime statistics (allocations).
    pub allocs: u64,
    /// Lifetime statistics (explicit frees of linear cells).
    pub frees: u64,
    /// Lifetime statistics (unrestricted cells collected by the GC).
    pub collected: u64,
    /// Lifetime statistics (linear cells finalized by the GC because they
    /// were owned by collected unrestricted cells, §3).
    pub finalized: u64,
}

impl Memory {
    /// Allocates `hv` in the chosen memory, returning its fresh location.
    pub fn alloc(&mut self, mem: Mem, hv: HeapValue, size: u64) -> ConcreteLoc {
        self.allocs += 1;
        match mem {
            Mem::Lin => {
                let idx = self.next_lin;
                self.next_lin += 1;
                self.lin.insert(idx, Cell { hv, size });
                ConcreteLoc::lin(idx)
            }
            Mem::Unr => {
                let idx = self.next_unr;
                self.next_unr += 1;
                self.unr.insert(idx, Cell { hv, size });
                ConcreteLoc::unr(idx)
            }
        }
    }

    /// Reads the cell at a location.
    pub fn get(&self, l: ConcreteLoc) -> Option<&Cell> {
        match l.mem {
            Mem::Lin => self.lin.get(&l.idx),
            Mem::Unr => self.unr.get(&l.idx),
        }
    }

    /// Mutable access to the cell at a location.
    pub fn get_mut(&mut self, l: ConcreteLoc) -> Option<&mut Cell> {
        match l.mem {
            Mem::Lin => self.lin.get_mut(&l.idx),
            Mem::Unr => self.unr.get_mut(&l.idx),
        }
    }

    /// Frees a linear cell; returns `false` on double free / dangling
    /// location (the caller traps).
    pub fn free_lin(&mut self, idx: u32) -> bool {
        let hit = self.lin.remove(&idx).is_some();
        if hit {
            self.frees += 1;
        }
        hit
    }

    /// Total live cells across both memories.
    pub fn live(&self) -> usize {
        self.lin.len() + self.unr.len()
    }
}

/// The store `s ::= {inst inst*, mem mem}`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Store {
    /// The instantiated modules.
    pub insts: Vec<Instance>,
    /// The global memory (both components).
    pub mem: Memory,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_assigns_fresh_locations_per_memory() {
        let mut m = Memory::default();
        let a = m.alloc(Mem::Lin, HeapValue::Struct(vec![]), 0);
        let b = m.alloc(Mem::Lin, HeapValue::Struct(vec![]), 0);
        let c = m.alloc(Mem::Unr, HeapValue::Struct(vec![]), 0);
        assert_ne!(a, b);
        assert_eq!(a.mem, Mem::Lin);
        assert_eq!(c.mem, Mem::Unr);
        assert_eq!(m.live(), 3);
        assert_eq!(m.allocs, 3);
    }

    #[test]
    fn free_lin_detects_double_free() {
        let mut m = Memory::default();
        let a = m.alloc(Mem::Lin, HeapValue::Array(vec![]), 0);
        assert!(m.free_lin(a.idx));
        assert!(!m.free_lin(a.idx), "double free must be reported");
        assert_eq!(m.frees, 1);
    }

    #[test]
    fn get_mut_updates_cell() {
        let mut m = Memory::default();
        let a = m.alloc(Mem::Unr, HeapValue::Struct(vec![Value::i32(1)]), 32);
        m.get_mut(a).unwrap().hv = HeapValue::Struct(vec![Value::i32(2)]);
        assert_eq!(m.get(a).unwrap().hv, HeapValue::Struct(vec![Value::i32(2)]));
    }
}
