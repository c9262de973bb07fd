//! The generated runtime module (paper §6: "We use a simple free list
//! allocator to allocate and free pointers in Wasm memory").
//!
//! The runtime module exports:
//!
//! * `mem` — the single flat memory hosting *both* RichWasm memories,
//! * `tab` — the shared function table (coderefs are global indices),
//! * `malloc : [i32 bytes] → [i32 ptr]` — first-fit free-list allocator,
//! * `free : [i32 ptr] → []` — returns a block to the free list,
//! * `live : [] → [i32]` — live allocation count (for tests/benches).
//!
//! Block layout: `[size: u32][payload …]`; free blocks reuse the first
//! payload word as the next-free link. Address 0 is reserved as null; the
//! heap starts at 8.

use richwasm_wasm::ast::*;

/// Minimum heap pages of the runtime memory.
pub const RUNTIME_PAGES: u32 = 16;

/// Builds the runtime module. `table_size` is the total number of shared
/// table slots the session needs.
pub fn runtime_module(table_size: u32) -> Module {
    let mut m = Module::default();
    let malloc_t = m.intern_type(FuncType {
        params: vec![ValType::I32],
        results: vec![ValType::I32],
    });
    let free_t = m.intern_type(FuncType {
        params: vec![ValType::I32],
        results: vec![],
    });
    let live_t = m.intern_type(FuncType {
        params: vec![],
        results: vec![ValType::I32],
    });

    m.memory = Some(RUNTIME_PAGES);
    m.table = Some(table_size.max(1));

    // global 0: free-list head (0 = empty)
    // global 1: brk (bump pointer)
    // global 2: live allocation count
    m.globals.push(GlobalDef {
        ty: ValType::I32,
        mutable: true,
        init: WInstr::I32Const(0),
    });
    m.globals.push(GlobalDef {
        ty: ValType::I32,
        mutable: true,
        init: WInstr::I32Const(8),
    });
    m.globals.push(GlobalDef {
        ty: ValType::I32,
        mutable: true,
        init: WInstr::I32Const(0),
    });

    use IBinOp::*;
    use WInstr::*;

    // ------------------------------------------------------------------
    // malloc(n):
    //   n = max(align4(n), 4)
    //   prev = 0; cur = free_head
    //   while cur != 0:
    //     if load(cur) >= n:          ; first fit
    //        next = load(cur+4)
    //        if prev == 0 { free_head = next } else { store(prev+4, next) }
    //        live += 1; return cur + 4
    //     prev = cur; cur = load(cur+4)
    //   ; no fit: bump allocate
    //   ptr = brk; ensure capacity; store(ptr, n); brk = ptr + 4 + n
    //   live += 1; return ptr + 4
    //
    // locals: 0 = n (param), 1 = prev, 2 = cur, 3 = ptr
    // ------------------------------------------------------------------
    let malloc_body = vec![
        // n = max((n + 3) & !3, 4)
        LocalGet(0),
        I32Const(3),
        IBin(Width::W32, Add),
        I32Const(-4),
        IBin(Width::W32, And),
        LocalSet(0),
        LocalGet(0),
        I32Const(4),
        IRel(Width::W32, IRelOp::Lt(Sx::U)),
        If(BlockType::Empty, vec![I32Const(4), LocalSet(0)], vec![]),
        // prev = 0; cur = free_head
        I32Const(0),
        LocalSet(1),
        GlobalGet(0),
        LocalSet(2),
        Block(
            BlockType::Empty,
            vec![Loop(
                BlockType::Empty,
                vec![
                    // while cur != 0
                    LocalGet(2),
                    ITest(Width::W32),
                    BrIf(1),
                    // if load(cur) >= n: unlink and return
                    LocalGet(2),
                    Load(ValType::I32, 0),
                    LocalGet(0),
                    IRel(Width::W32, IRelOp::Ge(Sx::U)),
                    If(
                        BlockType::Empty,
                        vec![
                            LocalGet(1),
                            ITest(Width::W32),
                            If(
                                BlockType::Empty,
                                // prev == 0: free_head = next
                                vec![LocalGet(2), Load(ValType::I32, 4), GlobalSet(0)],
                                // else: prev.next = cur.next
                                vec![
                                    LocalGet(1),
                                    LocalGet(2),
                                    Load(ValType::I32, 4),
                                    Store(ValType::I32, 4),
                                ],
                            ),
                            // live += 1; return cur + 4
                            GlobalGet(2),
                            I32Const(1),
                            IBin(Width::W32, Add),
                            GlobalSet(2),
                            LocalGet(2),
                            I32Const(4),
                            IBin(Width::W32, Add),
                            Return,
                        ],
                        vec![],
                    ),
                    // prev = cur; cur = cur.next
                    LocalGet(2),
                    LocalSet(1),
                    LocalGet(2),
                    Load(ValType::I32, 4),
                    LocalSet(2),
                    Br(0),
                ],
            )],
        ),
        // Bump allocation: ptr = brk.
        GlobalGet(1),
        LocalSet(3),
        // Grow memory while brk + 4 + n > memory.size * PAGE. A request
        // that does not fit in 4 GiB never leaves the loop: at 65536
        // pages `memory.grow` returns -1 without growing and
        // `memory.size << 16` wraps to 0, so the loop spins until the
        // invocation runs out of fuel.
        Block(
            BlockType::Empty,
            vec![Loop(
                BlockType::Empty,
                vec![
                    LocalGet(3),
                    I32Const(4),
                    IBin(Width::W32, Add),
                    LocalGet(0),
                    IBin(Width::W32, Add),
                    MemorySize,
                    I32Const(16),
                    IBin(Width::W32, Shl),
                    IRel(Width::W32, IRelOp::Le(Sx::U)),
                    BrIf(1),
                    I32Const(16),
                    MemoryGrow,
                    Drop,
                    Br(0),
                ],
            )],
        ),
        // store(ptr, n); brk = ptr + 4 + n
        LocalGet(3),
        LocalGet(0),
        Store(ValType::I32, 0),
        LocalGet(3),
        I32Const(4),
        IBin(Width::W32, Add),
        LocalGet(0),
        IBin(Width::W32, Add),
        GlobalSet(1),
        // live += 1
        GlobalGet(2),
        I32Const(1),
        IBin(Width::W32, Add),
        GlobalSet(2),
        LocalGet(3),
        I32Const(4),
        IBin(Width::W32, Add),
    ];
    m.funcs.push(FuncDef {
        type_idx: malloc_t,
        locals: vec![ValType::I32; 3],
        body: malloc_body,
    });

    // ------------------------------------------------------------------
    // free(p): hdr = p - 4; hdr.next = free_head; free_head = hdr;
    //          live -= 1
    // ------------------------------------------------------------------
    let free_body = vec![
        // hdr.next = free_head (stored in the first payload word = p)
        LocalGet(0),
        GlobalGet(0),
        Store(ValType::I32, 0),
        // free_head = hdr
        LocalGet(0),
        I32Const(4),
        IBin(Width::W32, Sub),
        GlobalSet(0),
        // live -= 1
        GlobalGet(2),
        I32Const(1),
        IBin(Width::W32, Sub),
        GlobalSet(2),
    ];
    m.funcs.push(FuncDef {
        type_idx: free_t,
        locals: vec![],
        body: free_body,
    });

    // live()
    m.funcs.push(FuncDef {
        type_idx: live_t,
        locals: vec![],
        body: vec![GlobalGet(2)],
    });

    m.exports.push(Export {
        name: "malloc".into(),
        kind: ExportKind::Func(0),
    });
    m.exports.push(Export {
        name: "free".into(),
        kind: ExportKind::Func(1),
    });
    m.exports.push(Export {
        name: "live".into(),
        kind: ExportKind::Func(2),
    });
    m.exports.push(Export {
        name: "mem".into(),
        kind: ExportKind::Memory(0),
    });
    m.exports.push(Export {
        name: "tab".into(),
        kind: ExportKind::Table(0),
    });
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use richwasm_wasm::exec::{Val, WasmLinker};
    use richwasm_wasm::validate::validate_module;

    #[test]
    fn runtime_validates() {
        validate_module(&runtime_module(4)).unwrap();
    }

    #[test]
    fn malloc_free_reuse() {
        let mut l = WasmLinker::new();
        let rt = l.instantiate("rt", runtime_module(1)).unwrap();
        let p1 = l.invoke(rt, "malloc", &[Val::I32(16)]).unwrap()[0];
        let p2 = l.invoke(rt, "malloc", &[Val::I32(16)]).unwrap()[0];
        assert_ne!(p1, p2);
        assert_eq!(l.invoke(rt, "live", &[]).unwrap(), vec![Val::I32(2)]);
        // Freeing and reallocating the same size reuses the block.
        l.invoke(rt, "free", &[p1]).unwrap();
        assert_eq!(l.invoke(rt, "live", &[]).unwrap(), vec![Val::I32(1)]);
        let p3 = l.invoke(rt, "malloc", &[Val::I32(12)]).unwrap()[0];
        assert_eq!(p3, p1, "first-fit should reuse the freed block");
    }

    #[test]
    fn alignment_and_minimum_size() {
        let mut l = WasmLinker::new();
        let rt = l.instantiate("rt", runtime_module(1)).unwrap();
        let p1 = l.invoke(rt, "malloc", &[Val::I32(1)]).unwrap()[0]
            .as_i32()
            .unwrap();
        let p2 = l.invoke(rt, "malloc", &[Val::I32(1)]).unwrap()[0]
            .as_i32()
            .unwrap();
        // 1 byte rounds up to 4: blocks are 8 bytes apart (4 header + 4).
        assert_eq!(p2 - p1, 8);
        assert_eq!(p1 % 4, 0);
    }

    #[test]
    fn oversized_malloc_ends_by_running_out_of_fuel() {
        let mut l = WasmLinker::new();
        l.max_steps = 200;
        let rt = l.instantiate("rt", runtime_module(1)).unwrap();
        // brk + 4 + n lands just below 4 GiB: no memory of at most
        // 65536 pages satisfies the grow loop's test.
        let err = l
            .invoke(rt, "malloc", &[Val::I32(0xFFFF_0000)])
            .unwrap_err();
        assert!(err.0.contains("budget exhausted"), "{err}");
    }

    #[test]
    fn heap_grows_beyond_initial_pages() {
        let mut l = WasmLinker::new();
        let rt = l.instantiate("rt", runtime_module(1)).unwrap();
        // Allocate more than RUNTIME_PAGES' worth of memory.
        let big = RUNTIME_PAGES * 65536;
        let p = l.invoke(rt, "malloc", &[Val::I32(big)]).unwrap()[0];
        let q = l.invoke(rt, "malloc", &[Val::I32(1024)]).unwrap()[0];
        assert_ne!(p, q);
    }
}
