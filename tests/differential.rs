//! Differential testing: random generator expressions are rendered to
//! DUEL source and simultaneously evaluated by an independent Rust
//! oracle; the produced value sequences must match exactly.
//!
//! The grammar covers the pure-generator core of the language — ranges,
//! alternation, arithmetic lifting, filters, imply, selection, count and
//! sum — which is where the paper's coroutine evaluation scheme does all
//! its work.

use duel::core::Session;
use duel::target::scenario;
use proptest::prelude::*;

/// A small generator-expression AST with a reference semantics.
#[derive(Clone, Debug)]
enum G {
    Const(i8),
    Range(i8, i8),
    Alt(Box<G>, Box<G>),
    Add(Box<G>, Box<G>),
    Mul(Box<G>, Box<G>),
    FilterGt(Box<G>, i8),
    Imply(Box<G>, Box<G>),
    Select(Box<G>, Vec<u8>),
    Count(Box<G>),
    Sum(Box<G>),
    Until(Box<G>, i8),
}

impl G {
    /// Renders as DUEL concrete syntax (fully parenthesized).
    fn render(&self) -> String {
        match self {
            G::Const(v) => format!("({v})"),
            G::Range(a, b) => format!("(({a})..({b}))"),
            G::Alt(a, b) => format!("({},{})", a.render(), b.render()),
            G::Add(a, b) => format!("({}+{})", a.render(), b.render()),
            G::Mul(a, b) => format!("({}*{})", a.render(), b.render()),
            G::FilterGt(a, k) => format!("({} >? ({k}))", a.render()),
            G::Imply(a, b) => {
                format!("({} => {})", a.render(), b.render())
            }
            G::Select(a, idx) => {
                let parts: Vec<String> = idx.iter().map(|i| i.to_string()).collect();
                format!("({}[[{}]])", a.render(), parts.join(","))
            }
            G::Count(a) => format!("(#/{})", a.render()),
            G::Sum(a) => format!("(+/{})", a.render()),
            G::Until(a, k) => format!("({}@({k}))", a.render()),
        }
    }

    /// The reference semantics, mirroring the paper's operational
    /// definitions over eager lists.
    fn eval(&self) -> Vec<i64> {
        match self {
            G::Const(v) => vec![*v as i64],
            G::Range(a, b) => (*a as i64..=*b as i64).collect(),
            G::Alt(a, b) => {
                let mut v = a.eval();
                v.extend(b.eval());
                v
            }
            G::Add(a, b) => {
                // All combinations, left operand slowest — C int
                // wrapping.
                let bs = b.eval();
                a.eval()
                    .into_iter()
                    .flat_map(|x| {
                        bs.iter()
                            .map(move |y| (x as i32).wrapping_add(*y as i32) as i64)
                    })
                    .collect()
            }
            G::Mul(a, b) => {
                let bs = b.eval();
                a.eval()
                    .into_iter()
                    .flat_map(|x| {
                        bs.iter()
                            .map(move |y| (x as i32).wrapping_mul(*y as i32) as i64)
                    })
                    .collect()
            }
            G::FilterGt(a, k) => a.eval().into_iter().filter(|v| *v > *k as i64).collect(),
            G::Imply(a, b) => {
                let bs = b.eval();
                a.eval().into_iter().flat_map(|_| bs.clone()).collect()
            }
            G::Select(a, idx) => {
                let vals = a.eval();
                idx.iter()
                    .filter_map(|i| vals.get(*i as usize).copied())
                    .collect()
            }
            G::Count(a) => vec![a.eval().len() as i64],
            G::Sum(a) => vec![a.eval().iter().sum()],
            // e@k: values of e up to (excluding) the first equal to k.
            G::Until(a, k) => a
                .eval()
                .into_iter()
                .take_while(|v| *v != *k as i64)
                .collect(),
        }
    }

    /// Number of values this expression produces (guards test size).
    fn cardinality(&self) -> usize {
        self.eval().len()
    }
}

/// Proptest strategy for the AST; `depth` bounds recursion.
fn strategy(depth: u32) -> BoxedStrategy<G> {
    if depth == 0 {
        prop_oneof![
            (-9i8..=9).prop_map(G::Const),
            (-6i8..=6, -6i8..=6).prop_map(|(a, b)| G::Range(a, b)),
        ]
        .boxed()
    } else {
        let sub = strategy(depth - 1);
        prop_oneof![
            (-9i8..=9).prop_map(G::Const),
            (-6i8..=6, -6i8..=6).prop_map(|(a, b)| G::Range(a, b)),
            (sub.clone(), sub.clone()).prop_map(|(a, b)| G::Alt(a.into(), b.into())),
            (sub.clone(), sub.clone()).prop_map(|(a, b)| G::Add(a.into(), b.into())),
            (sub.clone(), sub.clone()).prop_map(|(a, b)| G::Mul(a.into(), b.into())),
            (sub.clone(), -6i8..=6).prop_map(|(a, k)| G::FilterGt(a.into(), k)),
            (sub.clone(), sub.clone()).prop_map(|(a, b)| G::Imply(a.into(), b.into())),
            (sub.clone(), prop::collection::vec(0u8..20, 1..4))
                .prop_map(|(a, idx)| G::Select(a.into(), idx)),
            sub.clone().prop_map(|a| G::Count(a.into())),
            sub.clone().prop_map(|a| G::Sum(a.into())),
            (sub, -6i8..=6).prop_map(|(a, k)| G::Until(a.into(), k)),
        ]
        .boxed()
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 128, ..ProptestConfig::default()
    })]

    #[test]
    fn duel_matches_the_oracle(g in strategy(3)) {
        // Bound the work so pathological products stay fast.
        prop_assume!(g.cardinality() <= 4000);
        let want = g.eval();
        let src = g.render();
        let mut t = scenario::scan_array();
        let mut s = Session::new(&mut t);
        s.options.max_values = 100_000;
        let got: Vec<i64> = s
            .eval(&src)
            .unwrap_or_else(|e| panic!("`{src}` failed: {e}"))
            .into_iter()
            .filter_map(|l| match l {
                duel::core::OutputLine::Value { value, .. } => {
                    Some(value.parse::<i64>().expect("int value"))
                }
                _ => None,
            })
            .collect();
        prop_assert_eq!(got, want, "expression `{}`", src);
    }

    /// Vectored and scalar read paths are observationally identical:
    /// same buffers, same per-range results, same resident cache pages
    /// — on arbitrary range sets mixing in-arena, edge-straddling, and
    /// wholly unmapped spans.
    #[test]
    fn vectored_reads_match_scalar_reads(
        ranges in prop::collection::vec((0u64..400, 1u64..48), 1..12),
        page_exp in 4u32..9,
    ) {
        use duel::target::{CacheConfig, CachedTarget, ReadRange, Target};
        let page_size = 1u64 << page_exp;
        // scan_array: 240 readable bytes at the arena base; offsets up
        // to 400 reach past the edge.
        let mk = || {
            CachedTarget::with_config(
                scenario::scan_array(),
                CacheConfig { page_size, ..CacheConfig::default() },
            )
        };
        let mut scalar_t = mk();
        let mut vector_t = mk();
        let base = scalar_t.get_variable("x").unwrap().addr;
        vector_t.get_variable("x").unwrap();

        let mut scalar_bufs: Vec<Vec<u8>> =
            ranges.iter().map(|&(_, len)| vec![0u8; len as usize]).collect();
        let scalar_results: Vec<_> = ranges
            .iter()
            .zip(scalar_bufs.iter_mut())
            .map(|(&(off, _), buf)| scalar_t.get_bytes(base + off, buf))
            .collect();

        let mut vector_bufs: Vec<Vec<u8>> =
            ranges.iter().map(|&(_, len)| vec![0u8; len as usize]).collect();
        let mut reads: Vec<ReadRange<'_>> = ranges
            .iter()
            .zip(vector_bufs.iter_mut())
            .map(|(&(off, _), buf)| ReadRange::new(base + off, buf))
            .collect();
        let vector_results = vector_t.get_bytes_multi(&mut reads);

        prop_assert_eq!(&scalar_results, &vector_results);
        // Failed scalar reads may leave partial bytes behind; only
        // compare buffers whose reads succeeded.
        for (i, r) in scalar_results.iter().enumerate() {
            if r.is_ok() {
                prop_assert_eq!(&scalar_bufs[i], &vector_bufs[i], "range {}", i);
            }
        }
        prop_assert_eq!(scalar_t.resident_pages(), vector_t.resident_pages());
    }

    /// The I/O-actor pipeline is observationally identical to the
    /// synchronous tower: same rendered output, same trailing error,
    /// same resident cache pages, and the same backend op/injection
    /// counts — over random contiguous scans, prefetch window sizes,
    /// page sizes, and seeded chaos campaigns. The towers are
    /// `Retry<Cached<Async<Chaos<Sim>>>>` with the actor on vs off.
    #[test]
    fn async_pipeline_matches_the_synchronous_tower(
        spans in prop::collection::vec((0u16..60, 1u16..60), 1..4),
        k in -5i16..10,
        page_exp in 4u32..7,
        window in 1usize..5,
        // events == 0 means no chaos campaign at all.
        chaos_seed in 0u64..1_000_000u64,
        chaos_events in 0usize..4,
        chaos_span in 20u64..200,
    ) {
        use duel::target::{
            AsyncTarget, CacheConfig, CachedTarget, FaultTarget, RetryPolicy, RetryTarget,
        };
        let idx: Vec<String> = spans
            .iter()
            .map(|&(a, n)| format!("{}..{}", a, a + n))
            .collect();
        let src = format!("x[{}] >? ({k})", idx.join(","));
        let opts = duel::core::EvalOptions {
            prefetch: true,
            prefetch_window: window,
            error_values: true,
            ..Default::default()
        };
        let run = |pipeline: bool| {
            let gate = FaultTarget::gate(scenario::scan_array());
            let h = gate.handle();
            if chaos_events > 0 {
                h.campaign(chaos_seed, chaos_events, chaos_span);
            }
            let actor = if pipeline {
                AsyncTarget::spawned(gate)
            } else {
                AsyncTarget::new(gate)
            };
            let mut t = RetryTarget::with_policy(
                CachedTarget::with_config(
                    actor,
                    CacheConfig { page_size: 1 << page_exp, ..CacheConfig::default() },
                ),
                RetryPolicy::fast(1),
            );
            let (lines, err) = duel::core::oneshot_lines(&mut t, &src, &opts);
            let pages = t.inner().resident_pages();
            (lines, err.map(|e| e.to_string()), pages, h.ops(), h.injected())
        };
        let sync = run(false);
        let piped = run(true);
        prop_assert_eq!(sync, piped, "expression `{}`", src);
    }
}

/// One step of an I/O actor session, drawn as `(kind, a, b)`.
type MirrorStep = (u8, u8, u8);

const MIRROR_NAMES: [&str; 6] = ["x", "hash", "head", "root", "argv", "nonesuch"];
const MIRROR_TAGS: [&str; 4] = ["symbol", "list", "node", "nonesuch"];

/// Performs one step on `t` and renders its answer. Kinds 0–5 are
/// symbol ops (`malloc` interns `void *` on the backend side), 6–7
/// intern derived types on the caller's side, 8–10 are memory ops and
/// 11 drains program output (`printf` produces some in kind 5).
fn mirror_step(t: &mut dyn duel::target::Target, (kind, a, b): MirrorStep) -> String {
    use duel::ctype::{Prim, TypeId};
    use duel::target::{CallValue, ReadRange};
    let name = MIRROR_NAMES[a as usize % MIRROR_NAMES.len()];
    let tag = MIRROR_TAGS[a as usize % MIRROR_TAGS.len()];
    let x = t.get_variable("x").expect("x").addr;
    let int_arg = |t: &mut dyn duel::target::Target, v: u64| {
        let int = t.types_mut().prim(Prim::Int);
        CallValue::from_u64(int, v, 4, t.abi()).unwrap()
    };
    match kind % 12 {
        0 => format!("{:?}", t.get_variable(name)),
        1 => format!("{:?}", t.get_variable_in_frame(name, b as usize % 2)),
        2 => format!(
            "{:?} {:?} {:?} {:?}",
            t.lookup_struct(tag),
            t.lookup_union(tag),
            t.lookup_enum(tag),
            t.lookup_typedef(tag)
        ),
        3 => format!(
            "{} {} {:?}",
            t.has_function(if b % 2 == 0 { "malloc" } else { name }),
            t.frame_count(),
            t.frame_info(0)
        ),
        4 => {
            let n = int_arg(t, 8 + b as u64);
            format!("{:?}", t.call_func("malloc", &[n]))
        }
        5 => {
            let fmt = t.alloc_space(8, 1).unwrap();
            t.put_bytes(fmt, b"v=%d\n\0").unwrap();
            let ch = t.types_mut().prim(Prim::Char);
            let pch = t.types_mut().pointer(ch);
            let f = CallValue::from_u64(pch, fmt, 8, t.abi()).unwrap();
            let v = int_arg(t, b as u64);
            format!("{:?}", t.call_func("printf", &[f, v]))
        }
        6 => {
            let id = TypeId::from_raw(b as u32 % t.types().len() as u32);
            format!("{:?}", t.types_mut().pointer(id))
        }
        7 => {
            let id = TypeId::from_raw(b as u32 % t.types().len() as u32);
            format!("{:?}", t.types_mut().array(id, Some(1 + a as u64 % 4)))
        }
        8 => {
            let mut buf = vec![0; 1 + b as usize % 16];
            let r = t.get_bytes(x + a as u64 * 4, &mut buf);
            format!("{r:?} {buf:?}")
        }
        9 => {
            let (mut p, mut q) = ([0u8; 4], [0u8; 8]);
            let rs = t.get_bytes_multi(&mut [
                ReadRange::new(x + a as u64, &mut p),
                ReadRange::new(0x10 + b as u64, &mut q),
            ]);
            format!("{rs:?} {p:?} {q:?}")
        }
        10 => format!(
            "{} {:?}",
            t.is_mapped(x + a as u64 * 8, 1 + b as u64),
            t.put_bytes(x + a as u64 % 16 * 4, &[b, a])
        ),
        _ => t.take_output(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64, ..ProptestConfig::default()
    })]

    /// The I/O actor's type-table mirror keeps raw type ids in step
    /// with the backend: over random symbol ops, caller-side interning,
    /// memory ops, output drains and actor stops and restarts, the
    /// actor answers exactly as the bare backend, and ends with the
    /// same type table.
    #[test]
    fn actor_type_mirror_matches_the_inline_backend(
        steps in prop::collection::vec((0u8..13, 0u8..=255, 0u8..=255), 1..40),
    ) {
        use duel::target::{AsyncTarget, Target};
        let mut inline = scenario::combined();
        let mut actor = AsyncTarget::spawned(scenario::combined());
        for &step in &steps {
            if step.0 == 12 {
                let on = !actor.is_async();
                actor.set_async(on);
                continue;
            }
            let want = mirror_step(&mut inline, step);
            let got = mirror_step(&mut actor, step);
            prop_assert_eq!(got, want, "step {:?} of {:?}", step, steps);
        }
        prop_assert_eq!(actor.take_output(), inline.take_output());
        prop_assert_eq!(actor.types().snapshot(), inline.types().snapshot());
    }
}

/// One step of a page-cache session.
#[derive(Clone, Debug)]
enum CacheOp {
    Read(u64, usize),
    ReadMulti(Vec<(u64, usize)>),
    Write(u64, Vec<u8>),
    IsMapped(u64, u64),
    Invalidate,
}

/// The page cache written the simple way: a map of pages, and on
/// eviction a linear scan for the smallest use stamp. It mirrors
/// `CachedTarget`'s observable contract — returned bytes, answers,
/// resident pages and the count of reads sent below the cache — over a
/// `SimTarget`, which never fails transiently.
struct RefCache {
    sim: duel::target::SimTarget,
    page_size: u64,
    max_pages: usize,
    pages: std::collections::BTreeMap<u64, (Vec<u8>, u64)>,
    tick: u64,
    backend_reads: u64,
}

impl RefCache {
    fn backend_read(&mut self, addr: u64, buf: &mut [u8]) -> duel::target::TargetResult<()> {
        use duel::target::Target;
        self.backend_reads += 1;
        self.sim.get_bytes(addr, buf)
    }

    fn insert(&mut self, base: u64, bytes: Vec<u8>) {
        if self.pages.len() >= self.max_pages && !self.pages.contains_key(&base) {
            let victim = *self.pages.iter().min_by_key(|(_, p)| p.1).unwrap().0;
            self.pages.remove(&victim);
        }
        self.tick += 1;
        self.pages.insert(base, (bytes, self.tick));
    }

    fn page_range(&self, addr: u64, len: u64) -> std::ops::RangeInclusive<u64> {
        let ps = self.page_size;
        (addr & !(ps - 1))..=((addr + len - 1) & !(ps - 1))
    }

    fn read(&mut self, addr: u64, buf: &mut [u8]) -> duel::target::TargetResult<()> {
        let ps = self.page_size;
        let mut pos = 0;
        while pos < buf.len() {
            let cur = addr + pos as u64;
            let base = cur & !(ps - 1);
            let take = ((base + ps - cur) as usize).min(buf.len() - pos);
            self.read_in_page(base, cur, &mut buf[pos..pos + take])?;
            pos += take;
        }
        Ok(())
    }

    fn read_in_page(
        &mut self,
        base: u64,
        addr: u64,
        buf: &mut [u8],
    ) -> duel::target::TargetResult<()> {
        let off = (addr - base) as usize;
        let end = off + buf.len();
        if let Some(p) = self.pages.get_mut(&base) {
            if end > p.0.len() {
                return self.backend_read(addr, buf);
            }
            self.tick += 1;
            p.1 = self.tick;
            buf.copy_from_slice(&p.0[off..end]);
            return Ok(());
        }
        let mut page = vec![0u8; self.page_size as usize];
        if self.backend_read(base, &mut page).is_ok() {
            buf.copy_from_slice(&page[off..end]);
            self.insert(base, page);
            return Ok(());
        }
        // The page straddles the arena's end: bisect for the readable
        // prefix, re-read it, and cache it as a partial page.
        let (mut lo, mut hi) = (0, page.len());
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if self.backend_read(base, &mut page[..mid]).is_ok() {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        if lo > 0 {
            self.backend_read(base, &mut page[..lo]).unwrap();
            self.insert(base, page[..lo].to_vec());
        }
        if end <= lo {
            buf.copy_from_slice(&page[off..end]);
            return Ok(());
        }
        self.backend_read(addr, buf)
    }

    /// Every missing page of every range in one backend turn, then each
    /// range served as a scalar read.
    fn read_multi(&mut self, ranges: &[(u64, usize)]) -> Vec<(bool, Vec<u8>)> {
        use duel::target::Target;
        let mut missing: Vec<u64> = Vec::new();
        for &(addr, len) in ranges {
            for base in self
                .page_range(addr, len as u64)
                .step_by(self.page_size as usize)
            {
                if !self.pages.contains_key(&base) && !missing.contains(&base) {
                    missing.push(base);
                }
            }
        }
        if !missing.is_empty() {
            self.backend_reads += 1;
            for base in missing {
                let mut page = vec![0u8; self.page_size as usize];
                if self.sim.get_bytes(base, &mut page).is_ok() {
                    self.insert(base, page);
                }
            }
        }
        ranges
            .iter()
            .map(|&(addr, len)| {
                let mut buf = vec![0u8; len];
                (self.read(addr, &mut buf).is_ok(), buf)
            })
            .collect()
    }

    fn write(&mut self, addr: u64, bytes: &[u8]) -> bool {
        use duel::target::Target;
        let ps = self.page_size;
        if self.sim.put_bytes(addr, bytes).is_err() {
            let first = addr & !(ps - 1);
            let last = (addr + bytes.len() as u64) & !(ps - 1);
            self.pages.retain(|&b, _| b < first || b > last);
            return false;
        }
        for (i, &byte) in bytes.iter().enumerate() {
            let a = addr + i as u64;
            if let Some(p) = self.pages.get_mut(&(a & !(ps - 1))) {
                if let Some(slot) = p.0.get_mut((a & (ps - 1)) as usize) {
                    *slot = byte;
                }
            }
        }
        true
    }

    fn covers(&self, addr: u64, len: u64) -> bool {
        let ps = self.page_size;
        len > 0
            && self.page_range(addr, len).step_by(ps as usize).all(|base| {
                let held = self.pages.get(&base).map_or(0, |p| p.0.len() as u64);
                base + held >= (addr + len).min(base + ps)
            })
    }

    /// Resident pages answer; otherwise a range of at most two pages,
    /// none of them partial, is fetched in one turn and answers if it
    /// now is resident; everything else asks the backend.
    fn is_mapped(&mut self, addr: u64, len: u64) -> bool {
        use duel::target::Target;
        if self.covers(addr, len) {
            return true;
        }
        let ps = self.page_size;
        let bases: Vec<u64> = if len == 0 {
            Vec::new()
        } else {
            self.page_range(addr, len).step_by(ps as usize).collect()
        };
        let partial = bases
            .iter()
            .any(|b| self.pages.get(b).is_some_and(|p| (p.0.len() as u64) < ps));
        let missing: Vec<u64> = bases
            .iter()
            .copied()
            .filter(|b| !self.pages.contains_key(b))
            .collect();
        if bases.len() <= 2 && !partial && !missing.is_empty() {
            self.backend_reads += 1;
            for base in missing {
                let mut page = vec![0u8; ps as usize];
                if self.sim.get_bytes(base, &mut page).is_ok() {
                    self.insert(base, page);
                }
            }
            if self.covers(addr, len) {
                return true;
            }
        }
        self.sim.is_mapped(addr, len)
    }

    fn resident_pages(&self) -> Vec<(u64, Vec<u8>)> {
        self.pages.iter().map(|(&b, p)| (b, p.0.clone())).collect()
    }
}

/// An address near one of the combined scenario's two arena edges, as
/// (edge, offset): edge 0 is the start of its memory (0x1000), 1 the end.
type Spot = (u8, i64);

/// A cache step before it is decoded: (kind, ranges, byte).
type RawCacheOp = (u8, Vec<(Spot, u64)>, u8);

fn cache_addr() -> impl Strategy<Value = Spot> {
    (0u8..2, -160i64..160)
}

fn cache_op() -> impl Strategy<Value = RawCacheOp> {
    (
        0u8..9,
        prop::collection::vec((cache_addr(), 1u64..40), 1..4),
        0u8..=255,
    )
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 128, ..ProptestConfig::default()
    })]

    /// `CachedTarget`'s O(1) LRU evicts exactly the page a linear scan
    /// for the oldest stamp would, and its fill-backed `is_mapped`
    /// answers exactly as the bare backend: over random reads, vectored
    /// reads, writes, mapping queries and invalidations near both arena
    /// edges, the cache and a simple reference model agree step for step
    /// on bytes, results, answers, resident pages and backend reads.
    #[test]
    fn page_cache_matches_the_linear_scan_lru(
        steps in prop::collection::vec(cache_op(), 1..60),
        page_exp in 3u32..7,
        max_pages in 1usize..=8,
    ) {
        use duel::target::{CacheConfig, CachedTarget, Target};
        let page_size = 1u64 << page_exp;
        let mut cached = CachedTarget::with_config(
            scenario::combined(),
            CacheConfig { page_size, max_pages, ..CacheConfig::default() },
        );
        let mut model = RefCache {
            sim: scenario::combined(),
            page_size,
            max_pages,
            pages: Default::default(),
            tick: 0,
            backend_reads: 0,
        };
        let mut bare = scenario::combined();
        // The arena is one flat range from 0x1000; find its end.
        let (mut lo, mut hi) = (0u64, 1u64 << 28);
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if bare.is_mapped(0x1000, mid) { lo = mid } else { hi = mid }
        }
        let arena_end = 0x1000 + lo;
        let at = |(end, off): Spot| {
            (if end == 1 { arena_end } else { 0x1000 }).wrapping_add_signed(off)
        };
        for (i, (kind, ranges, byte)) in steps.into_iter().enumerate() {
            let (addr, len) = (at(ranges[0].0), ranges[0].1);
            let op = match kind {
                0..=2 => CacheOp::Read(addr, len as usize),
                3 => CacheOp::ReadMulti(
                    ranges.iter().map(|&(a, n)| (at(a), n as usize)).collect(),
                ),
                4 => CacheOp::Write(addr, vec![byte; 1 + len as usize % 8]),
                // Up to four pages of the largest page size, and empty.
                5..=7 => CacheOp::IsMapped(addr, (len * byte as u64) % (4 * 64)),
                _ => CacheOp::Invalidate,
            };
            match &op {
                CacheOp::Read(addr, len) => {
                    let mut got = vec![0u8; *len];
                    let mut want = vec![0u8; *len];
                    let (g, w) = (cached.get_bytes(*addr, &mut got), model.read(*addr, &mut want));
                    prop_assert_eq!(g.is_ok(), w.is_ok(), "step {}: {:?}", i, op);
                    if w.is_ok() {
                        prop_assert_eq!(got, want, "step {}: {:?}", i, op);
                    }
                }
                CacheOp::ReadMulti(ranges) => {
                    let mut bufs: Vec<Vec<u8>> =
                        ranges.iter().map(|&(_, n)| vec![0u8; n]).collect();
                    let mut reqs: Vec<duel::target::ReadRange<'_>> = ranges
                        .iter()
                        .zip(bufs.iter_mut())
                        .map(|(&(a, _), b)| duel::target::ReadRange::new(a, b))
                        .collect();
                    let results = cached.get_bytes_multi(&mut reqs);
                    drop(reqs);
                    let want = model.read_multi(ranges);
                    for (j, ((r, got), (ok, w))) in
                        results.iter().zip(&bufs).zip(&want).enumerate()
                    {
                        prop_assert_eq!(r.is_ok(), *ok, "step {} range {}: {:?}", i, j, op);
                        if *ok {
                            prop_assert_eq!(got, w, "step {} range {}: {:?}", i, j, op);
                        }
                    }
                }
                CacheOp::Write(addr, bytes) => {
                    let g = cached.put_bytes(*addr, bytes).is_ok();
                    prop_assert_eq!(g, model.write(*addr, bytes), "step {}: {:?}", i, op);
                    let _ = bare.put_bytes(*addr, bytes);
                }
                CacheOp::IsMapped(addr, len) => {
                    let g = cached.is_mapped(*addr, *len);
                    prop_assert_eq!(g, bare.is_mapped(*addr, *len), "step {}: {:?}", i, op);
                    prop_assert_eq!(g, model.is_mapped(*addr, *len), "step {}: {:?}", i, op);
                }
                CacheOp::Invalidate => {
                    cached.invalidate_all();
                    model.pages.clear();
                }
            }
            prop_assert_eq!(
                cached.resident_pages(),
                model.resident_pages(),
                "step {}: {:?}",
                i,
                op
            );
            prop_assert_eq!(
                cached.stats().backend_reads,
                model.backend_reads,
                "step {}: {:?}",
                i,
                op
            );
        }
    }
}

// ---------------------------------------------------------------------
// Walk prefetch: the planner's level-by-level chase is advisory
// ---------------------------------------------------------------------

fn splitmix(s: &mut u64) -> u64 {
    *s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *s;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded heap of `struct node { int key; struct node *next, *left,
/// *right; }`: a hash table of chains (`hash`, `buckets` slots), a list
/// (`head`) and a binary tree (`root`). Nodes are allocated in random
/// order with random padding between them, so chains jump between
/// pages and some nodes straddle them. Links that would end a
/// structure are NULL, or else a cycle back to a node, a dangling
/// pointer into the middle of a node, an unmapped address, or a node
/// that runs off the end of the arena.
fn walk_heap(seed: u64, buckets: usize) -> duel::target::SimTarget {
    use duel::ctype::{Abi, Field, Prim};
    let mut s = seed;
    let mut t = duel::target::SimTarget::new(Abi::lp64());
    let ty = &mut t.core.types;
    let int = ty.prim(Prim::Int);
    let (rid, node_ty) = ty.declare_struct("node");
    let pnode = ty.pointer(node_ty);
    ty.define_record(
        rid,
        vec![
            Field::new("key", int),
            Field::new("next", pnode),
            Field::new("left", pnode),
            Field::new("right", pnode),
        ],
    );
    let hash_ty = ty.array(pnode, Some(buckets as u64));
    let size = 32u64;
    let (next_off, left_off, right_off) = (8u64, 16u64, 24u64);
    let hash = t.core.define_global("hash", hash_ty).unwrap();
    let head = t.core.define_global("head", pnode).unwrap();
    let root = t.core.define_global("root", pnode).unwrap();

    let chains: Vec<usize> = (0..buckets)
        .map(|_| (splitmix(&mut s) % 7) as usize)
        .collect();
    let list = (splitmix(&mut s) % 12) as usize;
    let tree = (splitmix(&mut s) % 16) as usize;
    let n = chains.iter().sum::<usize>() + list + tree;
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, (splitmix(&mut s) % (i as u64 + 1)) as usize);
    }
    let mut addr = vec![0u64; n];
    for &id in &order {
        if splitmix(&mut s).is_multiple_of(4) {
            t.core.malloc(1 + splitmix(&mut s) % 100).unwrap();
        }
        addr[id] = t.core.malloc(size).unwrap();
        t.core
            .write_int(addr[id], (splitmix(&mut s) % 100) as i32)
            .unwrap();
    }
    // The last allocation runs to the end of the arena.
    let end = addr.iter().max().map_or(0x2000, |a| a + size);
    let end_link = |s: &mut u64| -> u64 {
        match splitmix(s) % 10 {
            0 => addr[(splitmix(s) % n as u64) as usize],
            1 => addr[(splitmix(s) % n as u64) as usize] + 8,
            2 => 0x10 + splitmix(s) % 0x800,
            3 => end - 1 - splitmix(s) % size,
            _ => 0,
        }
    };
    let mut id = 0;
    for (b, &len) in chains.iter().enumerate() {
        let first = if len == 0 { 0 } else { addr[id] };
        for k in 0..len {
            let next = if k + 1 < len {
                addr[id + 1]
            } else {
                end_link(&mut s)
            };
            t.core.write_ptr(addr[id] + next_off, next).unwrap();
            id += 1;
        }
        t.core.write_ptr(hash + 8 * b as u64, first).unwrap();
    }
    t.core
        .write_ptr(head, if list == 0 { 0 } else { addr[id] })
        .unwrap();
    for k in 0..list {
        let next = if k + 1 < list {
            addr[id + 1]
        } else {
            end_link(&mut s)
        };
        t.core.write_ptr(addr[id] + next_off, next).unwrap();
        id += 1;
    }
    let base = id;
    t.core
        .write_ptr(root, if tree == 0 { 0 } else { addr[base] })
        .unwrap();
    let mut free = vec![[true, true]; tree];
    for k in 1..tree {
        let p = (splitmix(&mut s) % k as u64) as usize;
        if let Some(side) = (0..2).find(|&side| free[p][side]) {
            free[p][side] = false;
            let off = [left_off, right_off][side];
            t.core
                .write_ptr(addr[base + p] + off, addr[base + k])
                .unwrap();
        }
    }
    for (k, sides) in free.iter().enumerate() {
        for (side, &open) in sides.iter().enumerate() {
            if open && splitmix(&mut s).is_multiple_of(3) {
                let off = [left_off, right_off][side];
                let link = end_link(&mut s);
                t.core.write_ptr(addr[base + k] + off, link).unwrap();
            }
        }
    }
    t
}

/// A walk expression over [`walk_heap`]: `-->` and `-->>`, one link or
/// a comma list, hinted (`hash[a..b]`, `hash[..n]`) and unhinted roots
/// (dangling ones too), and `[[..]]`, `@` and `#/` around the walk.
fn walk_expr(pick: u64, buckets: usize) -> String {
    let mut s = pick;
    let n = buckets as u64;
    let a = splitmix(&mut s) % n;
    let b = a + splitmix(&mut s) % (n - a);
    let k = splitmix(&mut s) % 100;
    let i = splitmix(&mut s) % 6;
    let dangling = |s: &mut u64| format!("(struct node*){:#x}", 0x10 + splitmix(s) % 0x800);
    match splitmix(&mut s) % 15 {
        0 => format!("hash[{a}..{b}]-->next->key"),
        1 => format!("hash[..{n}]-->>next->key"),
        2 => format!("#/(hash[..{n}]-->next)"),
        3 => format!("(hash[..{n}]-->next->key)[[{i}..{}]]", i + 3),
        4 => format!("(hash[{a}..{b}]-->next->key)@({k})"),
        5 => "root-->(left,right)->key".into(),
        6 => "root-->>(left,right)->key".into(),
        7 => "#/(root-->(left,right))".into(),
        8 => format!("hash[{a}..{b}]-->(next,left,right)->key"),
        9 => "head-->next->key".into(),
        10 => format!("(hash[{a}],hash[{b}],root)-->(left,next)->key"),
        11 => format!("hash[{a}..{b}]-->>(left,next)->key"),
        12 => format!("hash[{a}..{b}+0]-->next->key"),
        13 => format!(
            "({},{},{},root)-->(left,right)->key",
            dangling(&mut s),
            dangling(&mut s),
            dangling(&mut s)
        ),
        _ => format!("#/(head-->(next,right))+#/(hash[{a}..{b}]-->next)"),
    }
}

/// Wire pages each walk chase fetched, summed per chase: the pages of
/// every window the cache submitted inside a `prefetch` span whose
/// detail starts with `chase`.
fn chase_pages(snap: &duel::target::SpanSnapshot) -> Vec<u64> {
    let mut per_chase: std::collections::BTreeMap<u64, u64> = Default::default();
    for sub in snap.spans.iter().filter(|s| s.name == "window-submit") {
        let pages: u64 = sub.detail.split(' ').next().unwrap().parse().unwrap();
        let chain = snap.ancestry(sub.id).expect("unbroken span chain");
        if let Some(chase) = chain
            .iter()
            .rev()
            .find(|s| s.name == "prefetch" && s.detail.starts_with("chase"))
        {
            *per_chase.entry(chase.id).or_default() += pages;
        }
    }
    per_chase.into_values().collect()
}

type WalkRun = (Vec<String>, Option<String>, u64);

/// One walk case: a [`walk_heap`], an expression, the prefetch window
/// and cache page size, and an optional chaos campaign `(seed, events)`.
struct WalkCase {
    heap: u64,
    buckets: usize,
    src: String,
    window: usize,
    page_size: u64,
    chaos: Option<(u64, usize)>,
}

impl WalkCase {
    /// A fresh heap behind a chaos gate, armed with the campaign when
    /// `chaos` is set.
    fn gate(&self, chaos: bool) -> duel::target::FaultTarget<duel::target::SimTarget> {
        let gate = duel::target::FaultTarget::gate(walk_heap(self.heap, self.buckets));
        if let (true, Some((seed, events))) = (chaos, self.chaos) {
            gate.handle().campaign(seed, events, 120);
        }
        gate
    }

    fn cache(&self) -> duel::target::CacheConfig {
        duel::target::CacheConfig {
            page_size: self.page_size,
            ..Default::default()
        }
    }

    fn opts(&self, prefetch: bool) -> duel::core::EvalOptions {
        duel::core::EvalOptions {
            prefetch,
            prefetch_window: self.window,
            error_values: true,
            ..Default::default()
        }
    }

    /// Evaluates through `Trace<Supervised<Retry<Cached<Async<Gate<Sim>>>>>>`,
    /// with the I/O actor on or off; returns the lines, the trailing
    /// error, and the gate's op count. Also checks every chase's page
    /// budget, and that without chaos the breaker never trips: the
    /// faults a chase meets on dangling links are healthy answers.
    fn run(&self, actor: bool, prefetch: bool, chaos: bool) -> Result<WalkRun, TestCaseError> {
        use duel::target::{
            AsyncTarget, CachedTarget, RetryPolicy, RetryTarget, SupervisedTarget,
            SupervisorConfig, TraceTarget,
        };
        let gate = self.gate(chaos);
        let ops = gate.handle();
        let below = if actor {
            AsyncTarget::spawned(gate)
        } else {
            AsyncTarget::new(gate)
        };
        let cache = CachedTarget::with_config(below, self.cache());
        let mut t = TraceTarget::new(SupervisedTarget::with_config(
            RetryTarget::with_policy(cache, RetryPolicy::fast(1)),
            SupervisorConfig::fast(3),
        ));
        let spans = t.spans();
        spans.set_capacity(1 << 20);
        spans.set_enabled(true);
        let (lines, err) = duel::core::oneshot_lines(&mut t, &self.src, &self.opts(prefetch));
        for pages in chase_pages(&spans.snapshot()) {
            prop_assert!(
                pages <= 2 * self.window as u64,
                "`{}`: a chase fetched {} pages, budget {}",
                self.src,
                pages,
                2 * self.window
            );
        }
        let trips = t.inner().stats().trips;
        prop_assert!(
            chaos || trips == 0,
            "`{}` tripped the breaker {} times (prefetch {})",
            self.src,
            trips,
            prefetch
        );
        Ok((lines, err.map(|e| e.to_string()), ops.ops()))
    }

    /// Records the case with prefetch on below the cache, then replays
    /// the capture strictly: the lines must match and every event be
    /// consumed without divergence.
    fn record_replay(&self) -> Result<(), TestCaseError> {
        use duel::target::{
            CachedTarget, Capture, RecordTarget, ReplayMode, ReplayTarget, RetryPolicy,
            RetryTarget, SharedSink,
        };
        let sink = SharedSink::default();
        let mut rec = RecordTarget::new(self.gate(true));
        rec.start(Box::new(sink.clone()), "sim", "walk").unwrap();
        let mut t = RetryTarget::with_policy(
            CachedTarget::with_config(rec, self.cache()),
            RetryPolicy::fast(1),
        );
        let live = duel::core::oneshot_lines(&mut t, &self.src, &self.opts(true));
        t.inner_mut().inner_mut().stop().unwrap();
        let cap = Capture::parse(&sink.contents()).unwrap();
        let replay = ReplayTarget::from_capture(cap, ReplayMode::Strict);
        let mut rt = RetryTarget::with_policy(
            CachedTarget::with_config(replay, self.cache()),
            RetryPolicy::fast(1),
        );
        let replayed = duel::core::oneshot_lines(&mut rt, &self.src, &self.opts(true));
        let r = rt.inner().inner();
        prop_assert_eq!(
            (&live.0, live.1.map(|e| e.to_string())),
            (&replayed.0, replayed.1.map(|e| e.to_string())),
            "`{}` replays byte-identically",
            self.src
        );
        prop_assert!(r.divergence().is_none(), "`{}` diverged", self.src);
        prop_assert_eq!(r.events_consumed(), r.events_total());
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64, ..ProptestConfig::default()
    })]

    /// The walk chase changes only when bytes cross the wire: over
    /// random heaps and walks, the inline and actor towers render the
    /// same lines with prefetch on and off, every chase stays within
    /// `2 × prefetch_window` pages, and a prefetching session replays
    /// strictly from its capture. Under a chaos campaign the op
    /// sequence (and so what gets injected) depends on prefetch, so
    /// there the inline and actor towers are compared per setting.
    #[test]
    fn walk_prefetch_is_advisory(
        heap in 0u64..1_000_000,
        buckets in 4usize..17,
        pick in 0u64..1_000_000,
        window in 1usize..9,
        page_exp in 4u32..7,
        chaos_seed in 0u64..1_000_000,
        chaos_events in 0usize..4,
    ) {
        let case = WalkCase {
            heap,
            buckets,
            src: walk_expr(pick, buckets),
            window,
            page_size: 1 << page_exp,
            chaos: (chaos_events > 0).then_some((chaos_seed, chaos_events)),
        };
        let clean = case.run(false, false, false)?;
        for (actor, prefetch) in [(true, false), (false, true), (true, true)] {
            let got = case.run(actor, prefetch, false)?;
            prop_assert_eq!(
                (&got.0, &got.1),
                (&clean.0, &clean.1),
                "`{}` (actor {}, prefetch {})",
                case.src,
                actor,
                prefetch
            );
        }
        if case.chaos.is_some() {
            for prefetch in [false, true] {
                let inline = case.run(false, prefetch, true)?;
                let piped = case.run(true, prefetch, true)?;
                prop_assert_eq!(inline, piped, "`{}` under chaos (prefetch {})", case.src, prefetch);
            }
        }
        case.record_replay()?;
    }
}
