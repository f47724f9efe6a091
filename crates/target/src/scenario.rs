//! Canned debuggees for tests, benches and the CLI demo.
//!
//! Each builder returns a fully-populated [`SimTarget`] matching one of
//! the paper's worked examples (the 60-entry scan array, the
//! `struct symbol *hash[1024]` table, linked lists, a binary tree,
//! `argv`-style string vectors) or a parametric bench workload.

use crate::sim::SimTarget;
use duel_ctype::{Abi, Field, Prim, TypeId};

/// The paper's scan example: `int x[60]`, `x[i] = 100+i` except for the
/// planted values `x[3] = 7`, `x[18] = 9`, `x[47] = 6`.
pub fn scan_array() -> SimTarget {
    let mut t = SimTarget::new(Abi::lp64());
    build_scan_array(&mut t);
    t
}

fn build_scan_array(t: &mut SimTarget) {
    let int = t.core.types.prim(Prim::Int);
    let arr = t.core.types.array(int, Some(60));
    let base = t.core.define_global("x", arr).unwrap();
    for i in 0..60u64 {
        let v = match i {
            3 => 7,
            18 => 9,
            47 => 6,
            _ => 100 + i as i32,
        };
        t.core.write_int(base + i * 4, v).unwrap();
    }
}

/// `int x[10]` with two out-of-range plants: `x[3] = -9`, `x[8] = 120`;
/// all other entries stay in `[0, 100]`.
pub fn range_array() -> SimTarget {
    let mut t = SimTarget::new(Abi::lp64());
    let int = t.core.types.prim(Prim::Int);
    let arr = t.core.types.array(int, Some(10));
    let base = t.core.define_global("x", arr).unwrap();
    for i in 0..10u64 {
        let v = match i {
            3 => -9,
            8 => 120,
            _ => i as i32 * 10,
        };
        t.core.write_int(base + i * 4, v).unwrap();
    }
    t
}

/// Layout of `struct symbol { char *name; int scope; struct symbol *next; }`.
struct SymbolLayout {
    /// Pointer-to-`struct symbol`.
    psty: TypeId,
    size: u64,
    name_off: u64,
    scope_off: u64,
    next_off: u64,
}

fn define_symbol_struct(t: &mut SimTarget) -> SymbolLayout {
    let ch = t.core.types.prim(Prim::Char);
    let pch = t.core.types.pointer(ch);
    let int = t.core.types.prim(Prim::Int);
    let (rid, sty) = t.core.types.declare_struct("symbol");
    let psty = t.core.types.pointer(sty);
    if !t.core.types.record(rid).complete {
        t.core.types.define_record(
            rid,
            vec![
                Field::new("name", pch),
                Field::new("scope", int),
                Field::new("next", psty),
            ],
        );
    }
    let l = t.core.types.record_layout(rid, &t.core.abi).unwrap();
    SymbolLayout {
        psty,
        size: l.size,
        name_off: l.fields[0].offset,
        scope_off: l.fields[1].offset,
        next_off: l.fields[2].offset,
    }
}

fn new_symbol(
    t: &mut SimTarget,
    l: &SymbolLayout,
    name: Option<&str>,
    scope: i32,
    next: u64,
) -> u64 {
    let name_addr = match name {
        Some(n) => t.core.intern_cstring(n).unwrap(),
        None => 0,
    };
    let addr = t.core.malloc(l.size).unwrap();
    t.core.write_ptr(addr + l.name_off, name_addr).unwrap();
    t.core.write_int(addr + l.scope_off, scope).unwrap();
    t.core.write_ptr(addr + l.next_off, next).unwrap();
    addr
}

fn symbol_chain(t: &mut SimTarget, l: &SymbolLayout, nodes: &[(Option<&str>, i32)]) -> u64 {
    let mut next = 0u64;
    for (name, scope) in nodes.iter().rev() {
        next = new_symbol(t, l, *name, *scope, next);
    }
    next
}

fn define_hash_global(t: &mut SimTarget, l: &SymbolLayout, buckets: u64) -> u64 {
    let arr = t.core.types.array(l.psty, Some(buckets));
    t.core.define_global("hash", arr).unwrap()
}

fn build_hash_table_basic(t: &mut SimTarget) {
    let l = define_symbol_struct(t);
    let base = define_hash_global(t, &l, 1024);
    let psize = t.core.abi.pointer_bytes;
    type Chain<'a> = (u64, &'a [(Option<&'a str>, i32)]);
    let chains: &[Chain] = &[
        (
            0,
            &[
                (Some("alpha"), 4),
                (Some("beta"), 3),
                (Some("gamma"), 2),
                (Some("delta"), 1),
            ],
        ),
        (1, &[(Some("x"), 3)]),
        (9, &[(Some("abc"), 2)]),
        (42, &[(Some("deep"), 7), (Some("under"), 4)]),
        (529, &[(Some("top"), 8)]),
    ];
    for (bucket, nodes) in chains {
        let head = symbol_chain(t, &l, nodes);
        t.core.write_ptr(base + bucket * psize, head).unwrap();
    }
}

/// The paper's `struct symbol *hash[1024]` with a handful of populated
/// buckets (0, 1, 9, 42, 529) and every other head NULL.
pub fn hash_table_basic() -> SimTarget {
    let mut t = SimTarget::new(Abi::lp64());
    build_hash_table_basic(&mut t);
    t
}

/// Every one of the 1024 buckets holds a single node with a non-zero
/// scope (for "clear the whole table"-style transcripts).
pub fn hash_table_full() -> SimTarget {
    let mut t = SimTarget::new(Abi::lp64());
    let l = define_symbol_struct(&mut t);
    let base = define_hash_global(&mut t, &l, 1024);
    let psize = t.core.abi.pointer_bytes;
    for bucket in 0..1024u64 {
        let head = new_symbol(&mut t, &l, None, (bucket % 9) as i32 + 1, 0);
        t.core.write_ptr(base + bucket * psize, head).unwrap();
    }
    t
}

/// A table sorted by descending scope except for one planted violation:
/// bucket 287 holds a ten-node chain whose scopes run
/// `14,13,12,11,10,9,8,7,5,6` — the node at walk index 8 (scope 5) is
/// smaller than its successor.
pub fn hash_table_sorted_violation() -> SimTarget {
    let mut t = SimTarget::new(Abi::lp64());
    let l = define_symbol_struct(&mut t);
    let base = define_hash_global(&mut t, &l, 1024);
    let psize = t.core.abi.pointer_bytes;
    let scopes = [14, 13, 12, 11, 10, 9, 8, 7, 5, 6];
    let nodes: Vec<(Option<&str>, i32)> = scopes.iter().map(|s| (None, *s)).collect();
    let head = symbol_chain(&mut t, &l, &nodes);
    t.core.write_ptr(base + 287 * psize, head).unwrap();
    t
}

/// Defines (idempotently) `struct list { int value; struct list *next; }`,
/// returning `(struct type, pointer type)`.
pub fn define_list_struct(t: &mut SimTarget) -> (TypeId, TypeId) {
    let int = t.core.types.prim(Prim::Int);
    let (rid, lty) = t.core.types.declare_struct("list");
    let plty = t.core.types.pointer(lty);
    if !t.core.types.record(rid).complete {
        t.core.types.define_record(
            rid,
            vec![Field::new("value", int), Field::new("next", plty)],
        );
    }
    (lty, plty)
}

/// Heap-allocates a `struct list` chain holding `vals`, returning the
/// head address (0 for an empty slice).
pub fn build_int_list(t: &mut SimTarget, vals: &[i32]) -> u64 {
    define_list_struct(t);
    let (rid, _) = t.core.types.declare_struct("list");
    let l = t.core.types.record_layout(rid, &t.core.abi).unwrap();
    let (size, value_off, next_off) = (l.size, l.fields[0].offset, l.fields[1].offset);
    let mut next = 0u64;
    for v in vals.iter().rev() {
        let addr = t.core.malloc(size).unwrap();
        t.core.write_int(addr + value_off, *v).unwrap();
        t.core.write_ptr(addr + next_off, next).unwrap();
        next = addr;
    }
    next
}

fn build_linked_lists(t: &mut SimTarget) {
    let (_, plty) = define_list_struct(t);
    let l_head = build_int_list(t, &[10, 11, 12, 13, 27, 15, 16, 17, 18, 27, 20, 21]);
    let l_var = t.core.define_global("L", plty).unwrap();
    t.core.write_ptr(l_var, l_head).unwrap();
    let h_head = build_int_list(t, &[30, 31, 32, 33, 34, 29, 36, 37]);
    let h_var = t.core.define_global("head", plty).unwrap();
    t.core.write_ptr(h_var, h_head).unwrap();
}

/// Two `struct list` chains: `L` (12 nodes, with the duplicate value 27
/// at indices 4 and 9) and `head` (8 nodes, values 30..37 with the
/// planted 29 at index 5).
pub fn linked_lists() -> SimTarget {
    let mut t = SimTarget::new(Abi::lp64());
    build_linked_lists(&mut t);
    t
}

fn build_binary_tree(t: &mut SimTarget) {
    let int = t.core.types.prim(Prim::Int);
    let (rid, nty) = t.core.types.declare_struct("node");
    let pnty = t.core.types.pointer(nty);
    if !t.core.types.record(rid).complete {
        t.core.types.define_record(
            rid,
            vec![
                Field::new("key", int),
                Field::new("left", pnty),
                Field::new("right", pnty),
            ],
        );
    }
    let l = t.core.types.record_layout(rid, &t.core.abi).unwrap();
    let (size, key_off, left_off, right_off) = (
        l.size,
        l.fields[0].offset,
        l.fields[1].offset,
        l.fields[2].offset,
    );
    let node = |t: &mut SimTarget, key: i32, left: u64, right: u64| -> u64 {
        let addr = t.core.malloc(size).unwrap();
        t.core.write_int(addr + key_off, key).unwrap();
        t.core.write_ptr(addr + left_off, left).unwrap();
        t.core.write_ptr(addr + right_off, right).unwrap();
        addr
    };
    let ll = node(t, 4, 0, 0);
    let lr = node(t, 5, 0, 0);
    let left = node(t, 3, ll, lr);
    let right = node(t, 12, 0, 0);
    let root = node(t, 9, left, right);
    let root_var = t.core.define_global("root", pnty).unwrap();
    t.core.write_ptr(root_var, root).unwrap();
}

/// A five-node binary tree rooted at global `root`:
/// keys 9 (root), 3 (left, with children 4 and 5) and 12 (right).
pub fn binary_tree() -> SimTarget {
    let mut t = SimTarget::new(Abi::lp64());
    build_binary_tree(&mut t);
    t
}

fn build_argv_strings(t: &mut SimTarget) {
    let ch = t.core.types.prim(Prim::Char);
    let pch = t.core.types.pointer(ch);
    let s_arr = t.core.types.array(ch, Some(6));
    let s = t.core.define_global("s", s_arr).unwrap();
    t.core.mem.write(s, b"hello\0").unwrap();
    let argv_arr = t.core.types.array(pch, Some(4));
    let argv = t.core.define_global("argv", argv_arr).unwrap();
    let psize = t.core.abi.pointer_bytes;
    for (i, arg) in ["prog", "-v", "input.c"].iter().enumerate() {
        let a = t.core.intern_cstring(arg).unwrap();
        t.core.write_ptr(argv + i as u64 * psize, a).unwrap();
    }
    t.core.write_ptr(argv + 3 * psize, 0).unwrap();
}

/// `char s[6] = "hello"` plus a NULL-terminated
/// `char *argv[4] = {"prog", "-v", "input.c", 0}`.
pub fn argv_strings() -> SimTarget {
    let mut t = SimTarget::new(Abi::lp64());
    build_argv_strings(&mut t);
    t
}

/// Every canned debuggee in one target: the scan array, the hash
/// table, both lists, the binary tree and the string vectors.
pub fn combined() -> SimTarget {
    let mut t = SimTarget::new(Abi::lp64());
    build_scan_array(&mut t);
    build_hash_table_basic(&mut t);
    build_linked_lists(&mut t);
    build_binary_tree(&mut t);
    build_argv_strings(&mut t);
    t
}

/// Deterministic splitmix-style step for bench data.
fn next_rand(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Bench workload: `int x[n]` with seeded values in `[-100, 100]` plus
/// a global `int i` for the lookup bench.
pub fn bench_array(n: u64, seed: u64) -> SimTarget {
    let mut t = SimTarget::new(Abi::lp64());
    let int = t.core.types.prim(Prim::Int);
    let arr = t.core.types.array(int, Some(n));
    let base = t.core.define_global("x", arr).unwrap();
    let mut state = seed;
    for idx in 0..n {
        let v = (next_rand(&mut state) % 201) as i32 - 100;
        t.core.write_int(base + idx * 4, v).unwrap();
    }
    let i_var = t.core.define_global("i", int).unwrap();
    t.core.write_int(i_var, 5).unwrap();
    t
}

/// Bench workload: a `struct symbol *hash[buckets]` table where every
/// bucket holds a `chain`-node list with seeded scopes in `[1, 9]`.
pub fn bench_hash(buckets: u64, chain: u64, seed: u64) -> SimTarget {
    let mut t = SimTarget::new(Abi::lp64());
    let l = define_symbol_struct(&mut t);
    let base = define_hash_global(&mut t, &l, buckets);
    let psize = t.core.abi.pointer_bytes;
    let mut state = seed;
    for bucket in 0..buckets {
        let mut next = 0u64;
        for _ in 0..chain {
            let scope = (next_rand(&mut state) % 9) as i32 + 1;
            next = new_symbol(&mut t, &l, None, scope, next);
        }
        t.core.write_ptr(base + bucket * psize, next).unwrap();
    }
    t
}

/// Bench workload: [`bench_hash`]'s table with its nodes allocated in a
/// seeded random order, so every step of a chain walk lands on a
/// different cache page (the shape of a long-running program's heap).
/// Like a real heap's mapping, the arena then ends on a 4 KiB page
/// boundary, so no node sits on a partly mapped cache page.
pub fn bench_hash_scattered(buckets: u64, chain: u64, seed: u64) -> SimTarget {
    hash_scattered(buckets, chain, seed, true)
}

/// [`bench_hash_scattered`] without the padding: the arena ends right
/// after the last node, so that node may share a partly mapped cache
/// page, which the cache reads by probing for its mapped prefix.
pub fn bench_hash_scattered_unpadded(buckets: u64, chain: u64, seed: u64) -> SimTarget {
    hash_scattered(buckets, chain, seed, false)
}

fn hash_scattered(buckets: u64, chain: u64, seed: u64, pad: bool) -> SimTarget {
    let mut t = SimTarget::new(Abi::lp64());
    let l = define_symbol_struct(&mut t);
    let base = define_hash_global(&mut t, &l, buckets);
    let psize = t.core.abi.pointer_bytes;
    let mut state = seed;
    let n = (buckets * chain) as usize;
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, (next_rand(&mut state) % (i as u64 + 1)) as usize);
    }
    let mut addr = vec![0u64; n];
    for id in order {
        addr[id] = t.core.malloc(l.size).unwrap();
    }
    let top = addr.iter().max().map_or(0, |a| a + l.size);
    if pad && top > 0 && !top.is_multiple_of(4096) {
        t.core.alloc(top.next_multiple_of(4096) - top, 1).unwrap();
    }
    for (id, &a) in addr.iter().enumerate() {
        let depth = id as u64 % chain;
        let next = if depth + 1 < chain { addr[id + 1] } else { 0 };
        let scope = (next_rand(&mut state) % 9) as i32 + 1;
        t.core.write_ptr(a + l.name_off, 0).unwrap();
        t.core.write_int(a + l.scope_off, scope).unwrap();
        t.core.write_ptr(a + l.next_off, next).unwrap();
        if depth == 0 {
            let bucket = id as u64 / chain;
            t.core.write_ptr(base + bucket * psize, a).unwrap();
        }
    }
    t
}

/// Bench workload: a single `struct list` chain of `n` nodes bound to
/// the global `head`, with seeded values in `[-100, 100]`.
pub fn bench_list(n: u64, seed: u64) -> SimTarget {
    let mut t = SimTarget::new(Abi::lp64());
    let (_, plty) = define_list_struct(&mut t);
    let mut state = seed;
    let vals: Vec<i32> = (0..n)
        .map(|_| (next_rand(&mut state) % 201) as i32 - 100)
        .collect();
    let head = build_int_list(&mut t, &vals);
    let var = t.core.define_global("head", plty).unwrap();
    t.core.write_ptr(var, head).unwrap();
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iface::Target;
    use crate::value_io;

    #[test]
    fn scan_array_plants() {
        let mut t = scan_array();
        let x = t.get_variable("x").unwrap();
        assert_eq!(t.core.read_int(x.addr + 3 * 4).unwrap(), 7);
        assert_eq!(t.core.read_int(x.addr + 18 * 4).unwrap(), 9);
        assert_eq!(t.core.read_int(x.addr + 47 * 4).unwrap(), 6);
        assert_eq!(t.core.read_int(x.addr + 4 * 4).unwrap(), 104);
        assert_eq!(t.core.types.display(x.ty), "int [60]");
    }

    #[test]
    fn hash_display_and_walk() {
        let mut t = hash_table_basic();
        let h = t.get_variable("hash").unwrap();
        assert_eq!(t.core.types.display(h.ty), "struct symbol *[1024]");
        // Walk bucket 0: scopes 4,3,2,1.
        let (rid, _) = t.core.types.declare_struct("symbol");
        let l = t.core.types.record_layout(rid, &t.core.abi).unwrap();
        let mut p = t.core.read_ptr(h.addr).unwrap();
        let mut scopes = Vec::new();
        while p != 0 {
            scopes.push(t.core.read_int(p + l.fields[1].offset).unwrap());
            p = t.core.read_ptr(p + l.fields[2].offset).unwrap();
        }
        assert_eq!(scopes, vec![4, 3, 2, 1]);
        // First node of bucket 0 is "alpha".
        let head = t.core.read_ptr(h.addr).unwrap();
        let name = t.core.read_ptr(head + l.fields[0].offset).unwrap();
        assert_eq!(t.core.mem.read_cstring(name, 16).unwrap(), "alpha");
        // Bucket 2 is empty.
        assert_eq!(t.core.read_ptr(h.addr + 2 * 8).unwrap(), 0);
    }

    #[test]
    fn lists_and_tree() {
        let mut t = combined();
        let head = t.get_variable("head").unwrap();
        let mut p = value_io::read_ptr(&mut t, head.addr).unwrap();
        let mut vals = Vec::new();
        while p != 0 {
            vals.push(value_io::read_int(&mut t, p, 4).unwrap());
            p = value_io::read_ptr(&mut t, p + 8).unwrap();
        }
        assert_eq!(vals, vec![30, 31, 32, 33, 34, 29, 36, 37]);
        let root = t.get_variable("root").unwrap();
        let r = t.core.read_ptr(root.addr).unwrap();
        assert_eq!(t.core.read_int(r).unwrap(), 9);
    }

    #[test]
    fn bench_builders() {
        let mut t = bench_array(100, 42);
        assert!(t.get_variable("i").is_some());
        let x = t.get_variable("x").unwrap();
        for idx in 0..100u64 {
            let v = t.core.read_int(x.addr + idx * 4).unwrap();
            assert!((-100..=100).contains(&v));
        }
        let mut t = bench_hash(64, 2, 7);
        let h = t.get_variable("hash").unwrap();
        assert_ne!(t.core.read_ptr(h.addr).unwrap(), 0);
    }
}
