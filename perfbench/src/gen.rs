//! Seeded generation of every debuggee the benchmark drives, and the
//! independent models the oracle checks DUEL's output against.
//!
//! The mini-C debuggees fill their data at run time with the LCG
//! `seed = (seed * 75 + 74) % 65537`; [`Lcg`] replays the same sequence
//! in Rust, so the models here never consult DUEL or the debugger. The
//! remote image is generated here, written to a text file, and read
//! back by the code that builds the served debuggee.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use duel_ctype::{Abi, Field, Prim};
use duel_target::SimTarget;

/// Where generated inputs are written: a directory of the benchmark's
/// own, resolved at build time so the run does not depend on its
/// working directory.
pub fn gen_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("gen")
}

/// Writes `text` to `gen/<name>` and returns the path.
pub fn write_input(name: &str, text: &str) -> PathBuf {
    let dir = gen_dir();
    std::fs::create_dir_all(&dir).expect("create the benchmark's gen directory");
    let path = dir.join(name);
    std::fs::write(&path, text).expect("write a generated input");
    path
}

/// The mini-C programs' generator, replayed in Rust.
#[derive(Clone, Copy, Debug)]
pub struct Lcg(pub u32);

impl Lcg {
    /// The program's initial `seed` for a benchmark seed. 65536 is the
    /// generator's fixed point, so it is never used.
    pub fn from_seed(seed: u64) -> Lcg {
        Lcg((seed % 65536) as u32)
    }

    pub fn next(&mut self) -> u32 {
        self.0 = (self.0 * 75 + 74) % 65537;
        self.0
    }
}

/// SplitMix64, for the remote image (generated in Rust only).
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// DUEL's rendering of the `d`-th node of a `-->next` walk from `root`
/// (chains of four or more `->next` steps are compressed).
pub fn walk_sym(root: &str, d: usize, field: &str) -> String {
    if d < 4 {
        format!("{root}{}->{field}", "->next".repeat(d))
    } else {
        format!("{root}-->next[[{d}]]->{field}")
    }
}

// ---------------------------------------------------------------------
// local_scan: a static mini-C heap, stopped at the end of `main`.

pub const SCAN_N: usize = 20_000;
pub const SCAN_BUCKETS: usize = 1024;
pub const SCAN_CHAIN: usize = 8;
pub const SCAN_LIST: usize = 500;

/// Every chain holds these scopes in a seeded order, so every filter
/// over the table matches the same number of nodes whatever the seed.
pub const CHAIN_SCOPES: [i32; 8] = [0, 1, 2, 3, 5, 6, 7, 9];

/// The line of the first `return 0;` of `src`, where a program stops.
pub fn return_line(src: &str) -> u32 {
    let i = src.lines().position(|l| l.trim() == "return 0;");
    i.map_or(0, |i| i as u32 + 1)
}

/// `local_scan`'s program: `x` holds `i / 20` for every `i`, the list
/// `2 * i`, and each chain [`CHAIN_SCOPES`], all shuffled by the
/// program's own generator. The values are the same for every seed,
/// their places are not.
pub fn scan_source(seed: u64) -> String {
    let pool: String = CHAIN_SCOPES
        .iter()
        .enumerate()
        .map(|(j, v)| format!(" pool[{j}] = {v};"))
        .collect();
    format!(
        "struct symbol {{ char *name; int scope; struct symbol *next; }};
struct list {{ int v; struct list *next; }};
struct symbol *hash[{SCAN_BUCKETS}];
int x[{SCAN_N}];
struct list *L;
int seed;
int pool[{SCAN_CHAIN}];
int sc[{SCAN_CHAIN}];
int lv[{SCAN_LIST}];
int main() {{
    int i;
    int j;
    int k;
    int t;
    struct symbol *s;
    struct list *n;
    seed = {};
   {pool}
    for (i = 0; i < {SCAN_N}; i = i + 1) x[i] = i / 20;
    for (i = {SCAN_N} - 1; i > 0; i = i - 1) {{
        seed = (seed * 75 + 74) % 65537;
        k = seed % (i + 1);
        t = x[i]; x[i] = x[k]; x[k] = t;
    }}
    for (i = 0; i < {SCAN_BUCKETS}; i = i + 1) {{
        for (j = 0; j < {SCAN_CHAIN}; j = j + 1) sc[j] = pool[j];
        for (j = {SCAN_CHAIN} - 1; j > 0; j = j - 1) {{
            seed = (seed * 75 + 74) % 65537;
            k = seed % (j + 1);
            t = sc[j]; sc[j] = sc[k]; sc[k] = t;
        }}
        for (j = 0; j < {SCAN_CHAIN}; j = j + 1) {{
            s = (struct symbol *)malloc(sizeof(struct symbol));
            s->name = 0;
            s->scope = sc[j];
            s->next = hash[i];
            hash[i] = s;
        }}
    }}
    for (i = 0; i < {SCAN_LIST}; i = i + 1) lv[i] = 2 * i;
    for (i = {SCAN_LIST} - 1; i > 0; i = i - 1) {{
        seed = (seed * 75 + 74) % 65537;
        k = seed % (i + 1);
        t = lv[i]; lv[i] = lv[k]; lv[k] = t;
    }}
    L = 0;
    for (i = 0; i < {SCAN_LIST}; i = i + 1) {{
        n = (struct list *)malloc(sizeof(struct list));
        n->v = lv[i];
        n->next = L;
        L = n;
    }}
    return 0;
}}
",
        Lcg::from_seed(seed).0
    )
}

/// The program's Fisher-Yates shuffle, replayed.
fn shuffle<T>(v: &mut [T], g: &mut Lcg) {
    for i in (1..v.len()).rev() {
        let k = g.next() as usize % (i + 1);
        v.swap(i, k);
    }
}

/// The data [`scan_source`] builds, in DUEL's walk order.
pub struct ScanModel {
    pub x: Vec<i32>,
    /// `hash[b]` chains, head first.
    pub hash: Vec<Vec<i32>>,
    /// `L`, head first.
    pub list: Vec<i32>,
}

impl ScanModel {
    pub fn new(seed: u64) -> ScanModel {
        let mut g = Lcg::from_seed(seed);
        let mut x: Vec<i32> = (0..SCAN_N as i32).map(|i| i / 20).collect();
        shuffle(&mut x, &mut g);
        let hash = (0..SCAN_BUCKETS)
            .map(|_| {
                let mut chain = CHAIN_SCOPES.to_vec();
                shuffle(&mut chain, &mut g);
                chain.reverse(); // each node is pushed at the head
                chain
            })
            .collect();
        let mut list: Vec<i32> = (0..SCAN_LIST as i32).map(|i| 2 * i).collect();
        shuffle(&mut list, &mut g);
        list.reverse();
        ScanModel { x, hash, list }
    }
}

// ---------------------------------------------------------------------
// watch_session: a mini-C loop mutating `x` and a list.

pub const WATCH_N: usize = 64;
pub const WATCH_LIST: usize = 32;
/// The loop head, where the session first stops.
pub const WATCH_LOOP_LINE: u32 = 28;
/// The statement after `x[k] = ...`, where a watch on `x[W]` fires.
pub const WATCH_STOP_LINE: u32 = 31;
/// Where one `.step` from the stop lands.
pub const WATCH_STEP_LINE: u32 = 32;

pub fn watch_source(seed: u64) -> String {
    format!(
        "struct list {{ int v; struct list *next; }};
int x[{WATCH_N}];
struct list *L;
struct list *n;
int seed;
int it;
int k;
int tick;
int probe;
int main() {{
    int i;
    struct list *m;
    seed = {};
    for (i = 0; i < {WATCH_N}; i = i + 1) {{
        seed = (seed * 75 + 74) % 65537;
        x[i] = seed % 1000;
    }}
    L = 0;
    for (i = 0; i < {WATCH_LIST}; i = i + 1) {{
        m = (struct list *)malloc(sizeof(struct list));
        seed = (seed * 75 + 74) % 65537;
        m->v = seed % 1000;
        m->next = L;
        L = m;
    }}
    n = L;
    for (it = 0; it < 100000000; it = it + 1) {{
        k = it % {WATCH_N};
        seed = (seed * 75 + 74) % 65537;
        x[k] = x[k] + seed % 7 + 1;
        tick = tick + 1;
        n->v = n->v + 1;
        n = n->next;
        if (n == 0) n = L;
    }}
    return 0;
}}
",
        Lcg::from_seed(seed).0
    )
}

/// The state of [`watch_source`]'s globals, advanced iteration by
/// iteration exactly as the program does.
pub struct WatchModel {
    g: Lcg,
    pub x: Vec<i32>,
    /// `L`, head first.
    pub list: Vec<i32>,
    /// Index (head first) of the node `n` points at.
    n: usize,
    /// The iteration in progress (`it`).
    pub it: u64,
    pub tick: i32,
}

impl WatchModel {
    /// The state at the loop head of iteration 0.
    pub fn new(seed: u64) -> WatchModel {
        let mut g = Lcg::from_seed(seed);
        let x = (0..WATCH_N).map(|_| (g.next() % 1000) as i32).collect();
        let mut list: Vec<i32> = (0..WATCH_LIST).map(|_| (g.next() % 1000) as i32).collect();
        list.reverse();
        WatchModel {
            g,
            x,
            list,
            n: 0,
            it: 0,
            tick: 0,
        }
    }

    /// Lines 28–30 of the current iteration: the `x[k]` update.
    fn update_x(&mut self) -> usize {
        let k = (self.it % WATCH_N as u64) as usize;
        self.x[k] += (self.g.next() % 7 + 1) as i32;
        k
    }

    /// Line 31: `tick = tick + 1`.
    fn line_tick(&mut self) {
        self.tick += 1;
    }

    /// Lines 32–34, then the next iteration's head.
    fn finish_iteration(&mut self) {
        self.list[self.n] += 1;
        self.n = (self.n + 1) % WATCH_LIST;
        self.it += 1;
    }

    /// Runs from a stop at [`WATCH_STOP_LINE`] (`stepped` when line 31
    /// already ran under `.step`) or from the loop head to the next
    /// change of `x[w]`.
    pub fn cont_to_change(&mut self, w: usize, at_stop: bool, stepped: bool) {
        if at_stop {
            if !stepped {
                self.line_tick();
            }
            self.finish_iteration();
        }
        loop {
            if self.update_x() == w {
                return;
            }
            self.line_tick();
            self.finish_iteration();
        }
    }

    /// `.step` from the stop: line 31 runs.
    pub fn step(&mut self) {
        self.line_tick();
    }
}

// ---------------------------------------------------------------------
// remote_walk: a SimTarget image served over MI.

pub const REMOTE_N: usize = 4096;
pub const REMOTE_BUCKETS: usize = 512;
pub const REMOTE_CHAIN: usize = 8;

/// The remote debuggee: `int x[N]` and `struct symbol *hash[B]` whose
/// nodes are allocated in a seeded random order, so a chain walk jumps
/// between cache pages. As in `local_scan`, the seed places the values
/// but does not change them.
pub struct RemoteImage {
    pub x: Vec<i32>,
    /// `hash[b]` chains, head first.
    pub hash: Vec<Vec<i32>>,
    /// Node ids (`b * CHAIN + d`) in allocation order.
    pub order: Vec<usize>,
}

impl RemoteImage {
    pub fn generate(seed: u64) -> RemoteImage {
        let mut g = SplitMix(seed ^ 0x005e_ed0f_d0e1);
        fn shuffle<T>(v: &mut [T], g: &mut SplitMix) {
            for i in (1..v.len()).rev() {
                v.swap(i, g.below(i as u64 + 1) as usize);
            }
        }
        let mut x: Vec<i32> = (0..REMOTE_N)
            .map(|i| (i * 1000 / REMOTE_N) as i32)
            .collect();
        shuffle(&mut x, &mut g);
        let hash = (0..REMOTE_BUCKETS)
            .map(|_| {
                let mut chain = CHAIN_SCOPES.to_vec();
                shuffle(&mut chain, &mut g);
                chain
            })
            .collect();
        let mut order: Vec<usize> = (0..REMOTE_BUCKETS * REMOTE_CHAIN).collect();
        shuffle(&mut order, &mut g);
        RemoteImage { x, hash, order }
    }

    pub fn to_text(&self) -> String {
        let join = |v: &mut dyn Iterator<Item = String>| v.collect::<Vec<_>>().join(" ");
        let mut s = String::from("duel-perfbench image 1\n");
        let _ = writeln!(s, "x {}", self.x.len());
        let _ = writeln!(s, "{}", join(&mut self.x.iter().map(|v| v.to_string())));
        let _ = writeln!(s, "hash {} {}", self.hash.len(), REMOTE_CHAIN);
        let _ = writeln!(
            s,
            "{}",
            join(&mut self.hash.iter().flatten().map(|v| v.to_string()))
        );
        let _ = writeln!(s, "order");
        let _ = writeln!(s, "{}", join(&mut self.order.iter().map(|v| v.to_string())));
        s
    }

    pub fn parse(text: &str) -> Result<RemoteImage, String> {
        let mut lines = text.lines();
        let mut next = |what: &str| lines.next().ok_or(format!("image truncated at {what}"));
        let nums = |l: &str| -> Result<Vec<i64>, String> {
            l.split_whitespace()
                .map(|t| {
                    t.parse::<i64>()
                        .map_err(|e| format!("bad number `{t}`: {e}"))
                })
                .collect()
        };
        if next("header")? != "duel-perfbench image 1" {
            return Err("not a duel-perfbench image".into());
        }
        let n: usize = next("x")?
            .strip_prefix("x ")
            .and_then(|v| v.parse().ok())
            .ok_or("bad x header")?;
        let x: Vec<i32> = nums(next("x values")?)?
            .into_iter()
            .map(|v| v as i32)
            .collect();
        let dims = nums(
            next("hash")?
                .strip_prefix("hash ")
                .ok_or("bad hash header")?,
        )?;
        let (buckets, chain) = match dims[..] {
            [b, c] => (b as usize, c as usize),
            _ => return Err("bad hash dimensions".into()),
        };
        let flat = nums(next("scopes")?)?;
        next("order")?;
        let order: Vec<usize> = nums(next("order values")?)?
            .into_iter()
            .map(|v| v as usize)
            .collect();
        if x.len() != n || flat.len() != buckets * chain || order.len() != buckets * chain {
            return Err("image sizes disagree".into());
        }
        let hash = flat
            .chunks(chain)
            .map(|c| c.iter().map(|&v| v as i32).collect())
            .collect();
        Ok(RemoteImage { x, hash, order })
    }

    /// Builds the debuggee the MI server serves.
    pub fn build(&self) -> SimTarget {
        let mut t = SimTarget::new(Abi::lp64());
        let ty = &mut t.core.types;
        let int = ty.prim(Prim::Int);
        let ch = ty.prim(Prim::Char);
        let pch = ty.pointer(ch);
        let (rid, sty) = ty.declare_struct("symbol");
        let psty = ty.pointer(sty);
        ty.define_record(
            rid,
            vec![
                Field::new("name", pch),
                Field::new("scope", int),
                Field::new("next", psty),
            ],
        );
        let xa = ty.array(int, Some(self.x.len() as u64));
        let ha = ty.array(psty, Some(self.hash.len() as u64));
        let layout = t
            .core
            .types
            .record_layout(rid, &t.core.abi)
            .expect("struct symbol lays out");
        let (scope_off, next_off) = (layout.fields[1].offset, layout.fields[2].offset);
        let xbase = t.core.define_global("x", xa).expect("define x");
        for (i, v) in self.x.iter().enumerate() {
            t.core.write_int(xbase + 4 * i as u64, *v).expect("write x");
        }
        let hbase = t.core.define_global("hash", ha).expect("define hash");
        let chain = self.hash.first().map_or(0, Vec::len);
        let mut addr = vec![0u64; self.order.len()];
        for &id in &self.order {
            addr[id] = t.core.malloc(layout.size).expect("malloc a node");
        }
        for (b, scopes) in self.hash.iter().enumerate() {
            for (d, scope) in scopes.iter().enumerate() {
                let a = addr[b * chain + d];
                let next = if d + 1 < chain {
                    addr[b * chain + d + 1]
                } else {
                    0
                };
                t.core.write_ptr(a, 0).expect("write name");
                t.core
                    .write_int(a + scope_off, *scope)
                    .expect("write scope");
                t.core.write_ptr(a + next_off, next).expect("write next");
            }
            t.core
                .write_ptr(hbase + 8 * b as u64, addr[b * chain])
                .expect("write bucket");
        }
        t
    }

    /// The oracle's view of the debuggee: `x` and the chains read back
    /// by a native walk of the bare image, with no DUEL involved.
    pub fn native_walk(t: &SimTarget) -> (Vec<i32>, Vec<Vec<i32>>) {
        let (xbase, _) = t.core.global_addr("x").expect("x");
        let (hbase, _) = t.core.global_addr("hash").expect("hash");
        let x = (0..REMOTE_N as u64)
            .map(|i| t.core.read_int(xbase + 4 * i).expect("read x"))
            .collect();
        let hash = (0..REMOTE_BUCKETS as u64)
            .map(|b| {
                let mut chain = Vec::new();
                let mut p = t.core.read_ptr(hbase + 8 * b).expect("read bucket");
                while p != 0 {
                    chain.push(t.core.read_int(p + 8).expect("read scope"));
                    p = t.core.read_ptr(p + 16).expect("read next");
                }
                chain
            })
            .collect();
        (x, hash)
    }
}
