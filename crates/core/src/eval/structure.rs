//! Structure-walking generators: indexing, `with` (`.`/`->`), the
//! `-->`/`-->>` expansions, `[[..]]` selection, `#` index aliasing, and
//! `@` termination.

use std::collections::{HashSet, VecDeque};

use duel_target::{value_io, PrefetchCompletion};

use crate::{
    apply::{self, Class},
    ast::{Expr, WithLink},
    error::{DuelError, DuelResult},
    scope::{Ctx, WithEntry},
    value::{Scalar, Value},
};

use super::{basic::int_of, compile, first_value, Gen, GenT};

// ----- indexing ---------------------------------------------------------

/// `e1[e2]` — ordinary C indexing lifted over generators (both the base
/// and the index may generate).
///
/// When the index expression is a compile-time contiguous range
/// (`x[a..b]`, `x[..n]` — see `range_hint` in the parent module) and
/// [`crate::EvalOptions::prefetch`] is on, each fresh base value first
/// lays out a **windowed** warm plan over the span: windows of at most
/// [`crate::EvalOptions::prefetch_window`] cache pages, so a huge scan
/// costs bounded memory per warm call. When the tower has an I/O actor
/// below the cache, the windows are double-buffered — window *k+1* is
/// submitted the moment the scan enters window *k*, so the wire works
/// while the evaluator chews — and otherwise each window is read
/// synchronously at its boundary (same wire sequence, no overlap).
struct IndexGen {
    base: Gen,
    idx: Gen,
    cur: Option<Value>,
    /// Inclusive index range the idx generator is known to enumerate.
    hint: Option<(i64, i64)>,
    /// Base address already warmed (one plan per base value).
    warmed: Option<u64>,
    /// The windowed warm plan for the current base, if any.
    plan: Option<WindowPlan>,
}

/// The double-buffered window schedule of one hinted scan.
struct WindowPlan {
    /// `(start, len)` byte windows, in address order.
    windows: Vec<(u64, u64)>,
    /// `boundaries[k]`: 0-based element ordinal (counted from the first
    /// scanned element) whose bytes first touch window `k` — the moment
    /// window `k` must be applied and window `k+1` submitted.
    boundaries: Vec<u64>,
    /// Next window index to apply: windows `0..next` are resident,
    /// window `next` (when one exists) is the submitted one in flight.
    next: usize,
    /// Elements handed to the evaluator so far for this base.
    consumed: u64,
    /// Whether the tower accepted [`duel_target::Target::prefetch_submit`];
    /// `false` means windows were warmed eagerly via the legacy path
    /// and no boundary work remains.
    seam: bool,
    /// Submission numbers of this plan's windows not yet applied,
    /// oldest first.
    inflight: VecDeque<u64>,
}

impl WindowPlan {
    /// Submits window `k`; `false` when the tower has no prefetch seam.
    fn submit(&mut self, ctx: &mut Ctx<'_>, k: usize) -> bool {
        match submit(ctx, &[self.windows[k]]) {
            Some(seq) => {
                self.inflight.push_back(seq);
                true
            }
            None => false,
        }
    }

    /// Applies this plan's oldest in-flight window (blocking on the
    /// wire if it has not landed yet). Another warm may already have
    /// applied it on its way to its own completion; then there is
    /// nothing left to do.
    fn poll(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(seq) = self.inflight.pop_front() {
            apply_through(ctx, seq);
        }
    }

    /// Called once per element handed to the evaluator: crossing into
    /// window `k` submits window `k+1`, then applies window `k`
    /// (double buffering — planning always sees fully applied prior
    /// windows, which keeps record→replay deterministic).
    ///
    /// Submit-before-poll matters: the submission queues behind the
    /// in-flight window on the actor's FIFO, so the worker rolls
    /// straight from one wire turn into the next while this thread is
    /// still blocked in the poll — the wire never idles between
    /// windows. (Polling first would leave it idle for the length of
    /// each poll wait.) The capture layer is agnostic: it records
    /// submissions in submission order either way.
    fn advance(&mut self, ctx: &mut Ctx<'_>) {
        if self.seam {
            while self.next < self.windows.len() && self.consumed >= self.boundaries[self.next] {
                let k = self.next;
                let span = ctx.span_enter(duel_target::SpanKind::Prefetch, "prefetch", || {
                    format!("window {k} boundary")
                });
                if k + 1 < self.windows.len() && self.submit(ctx, k + 1) {
                    ctx.windows_inflight += 1;
                }
                self.poll(ctx);
                ctx.span_exit(span);
                self.next += 1;
            }
        }
        self.consumed += 1;
    }
}

/// Submits one warm through the cache's prefetch seam and returns its
/// submission number, or `None` when the tower has no cache to warm.
fn submit(ctx: &mut Ctx<'_>, ranges: &[(u64, u64)]) -> Option<u64> {
    ctx.prefetch_calls += 1;
    if !ctx.target.prefetch_submit(ranges) {
        return None;
    }
    ctx.prefetch_submitted += 1;
    Some(ctx.prefetch_submitted - 1)
}

/// Applies completions oldest first until submission `seq` has been
/// applied, and returns its completion. Completions come back in
/// submission order, so a warm issued while a scan window is still in
/// flight must apply that window before its own. `None` means `seq`
/// was already applied (by an earlier call on its way to a younger
/// submission) or the tower has nothing outstanding.
fn apply_through(ctx: &mut Ctx<'_>, seq: u64) -> Option<PrefetchCompletion> {
    while ctx.prefetch_applied <= seq {
        let Some(c) = ctx.target.prefetch_poll() else {
            ctx.prefetch_applied = ctx.prefetch_submitted;
            return None;
        };
        ctx.prefetch_applied += 1;
        ctx.prefetch_ranges += c.clean;
        if ctx.prefetch_applied > seq {
            return Some(c);
        }
    }
    None
}

/// The bytes `[start, start + total)` of elements `lo..=hi` of
/// `esize` bytes from `base`, or `None` when the span leaves the
/// address space (the plan is then skipped).
fn span_bytes(base: u64, lo: i64, hi: i64, esize: u64) -> Option<(u64, u64)> {
    let start = base.checked_add_signed(lo.checked_mul(i64::try_from(esize).ok()?)?)?;
    let count = u64::try_from(hi.checked_sub(lo)?).ok()?.checked_add(1)?;
    let total = count.checked_mul(esize)?;
    start.checked_add(total)?;
    Some((start, total))
}

impl IndexGen {
    /// Lays out the planner's warm schedule for base value `b`, if it
    /// applies. Advisory by construction: any shape we cannot cheaply
    /// resolve (no address, unsized elements) is skipped, and read
    /// errors are left for the demand path to surface.
    fn warm(&mut self, ctx: &mut Ctx<'_>, b: &Value) {
        self.plan = None;
        let (lo, hi) = match self.hint {
            Some(h) if ctx.opts.prefetch => h,
            _ => return,
        };
        let (elem, base_addr) = match apply::classify(ctx.target, b.ty) {
            Class::Array { elem, .. } => match b.lval_addr() {
                Some(a) => (elem, a),
                None => return,
            },
            Class::Ptr { pointee } => match apply::load(ctx.target, b) {
                Ok(Scalar::Ptr(p)) if p != 0 => (pointee, p),
                Ok(Scalar::Int(p)) if p != 0 => (pointee, p as u64),
                _ => return,
            },
            _ => return,
        };
        if self.warmed == Some(base_addr) {
            return;
        }
        self.warmed = Some(base_addr);
        let esize = match ctx.target.types().size_of(elem, ctx.target.abi()) {
            Ok(s) if s > 0 => s,
            _ => return,
        };
        let Some((start, total)) = span_bytes(base_addr, lo, hi, esize) else {
            return;
        };
        // Window size: `prefetch_window` cache pages (64-byte pages
        // assumed when the tower has no cache to ask).
        let page = ctx.target.cache_page_size().unwrap_or(64);
        let window = (ctx.opts.prefetch_window.max(1) as u64).saturating_mul(page);
        let mut windows = Vec::new();
        let mut boundaries = Vec::new();
        let mut off = 0u64;
        while off < total {
            let len = window.min(total - off);
            windows.push((start + off, len));
            // The element containing byte `off` is the first to touch
            // this window (it may straddle the previous one).
            boundaries.push(off / esize);
            off += len;
        }
        ctx.windows_planned += windows.len() as u64;
        let span = ctx.span_enter(duel_target::SpanKind::Prefetch, "prefetch", || {
            format!("warm 0x{start:x}+{total} ({} windows)", windows.len())
        });
        let mut plan = WindowPlan {
            windows,
            boundaries,
            next: 0,
            consumed: 0,
            seam: false,
            inflight: VecDeque::new(),
        };
        if plan.submit(ctx, 0) {
            // Window 0 must be resident before the first element is
            // read; window 1 then rides the wire while the evaluator
            // consumes window 0.
            plan.poll(ctx);
            if plan.windows.len() > 1 && plan.submit(ctx, 1) {
                ctx.windows_inflight += 1;
            }
            plan.next = 1;
            plan.seam = true;
        } else {
            // No cache in the tower: warm every window eagerly through
            // the legacy vectored read, one bounded call per window.
            ctx.prefetch_ranges += apply::prefetch(ctx.target, &[plan.windows[0]]) as u64;
            for w in &plan.windows[1..] {
                ctx.prefetch_calls += 1;
                ctx.prefetch_ranges += apply::prefetch(ctx.target, &[*w]) as u64;
            }
        }
        ctx.span_exit(span);
        self.plan = Some(plan);
    }
}

impl GenT for IndexGen {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> DuelResult<Option<Value>> {
        loop {
            if self.cur.is_none() {
                match self.base.next(ctx)? {
                    Some(b) => {
                        self.warm(ctx, &b);
                        self.cur = Some(b);
                    }
                    None => return Ok(None),
                }
            }
            match self.idx.next(ctx)? {
                Some(i) => {
                    if let Some(p) = &mut self.plan {
                        p.advance(ctx);
                    }
                    let eager = ctx.eager_sym();
                    let b = self.cur.as_ref().unwrap();
                    return apply::index(ctx.target, b, &i, eager).map(Some);
                }
                None => self.cur = None,
            }
        }
    }

    fn reset(&mut self) {
        self.base.reset();
        self.idx.reset();
        self.cur = None;
        self.warmed = None;
        self.plan = None;
    }
}

/// `e1[e2]`.
pub fn index(base: Gen, idx: Gen, hint: Option<(i64, i64)>) -> Gen {
    Box::new(IndexGen {
        base,
        idx,
        cur: None,
        hint,
        warmed: None,
        plan: None,
    })
}

// ----- selection --------------------------------------------------------

/// `e1[[e2]]` — the paper's `select`: "produces the elements of e2 given
/// by the integers in e1" (0-based, per the worked example
/// `((1..9)*(1..9))[[52,74]]` ⇒ `6*8 = 48`). "The actual implementation
/// of select avoids the re-evaluation of e2 when possible" — we cache
/// produced values.
struct SelectGen {
    base: Gen,
    idx: Gen,
    cache: Vec<Value>,
    exhausted: bool,
}

impl GenT for SelectGen {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> DuelResult<Option<Value>> {
        loop {
            match self.idx.next(ctx)? {
                None => {
                    self.rewind();
                    return Ok(None);
                }
                Some(iv) => {
                    let i = int_of(ctx, &iv)?;
                    if i < 0 {
                        continue;
                    }
                    let i = i as usize;
                    while self.cache.len() <= i && !self.exhausted {
                        match self.base.next(ctx)? {
                            Some(v) => self.cache.push(v),
                            None => self.exhausted = true,
                        }
                    }
                    if let Some(v) = self.cache.get(i) {
                        // The selected value keeps its own symbolic
                        // value (`6*8 = 48`).
                        return Ok(Some(v.clone()));
                    }
                    // Out of range: no value for this index.
                }
            }
        }
    }

    fn reset(&mut self) {
        self.idx.reset();
        self.rewind();
    }
}

impl SelectGen {
    fn rewind(&mut self) {
        self.base.reset();
        self.cache.clear();
        self.exhausted = false;
    }
}

/// `e1[[e2]]`.
pub fn select(base: Gen, idx: Gen) -> Gen {
    Box::new(SelectGen {
        base,
        idx,
        cache: Vec::new(),
        exhausted: false,
    })
}

// ----- with -------------------------------------------------------------

/// `e1.e2` / `e1->e2` — the paper's `with`:
///
/// ```text
/// case WITH:
///   while (u = eval(n->kids[0])) {
///     push(u)
///     while (v = eval(n->kids[1])) yield v
///     pop()
///   }
/// ```
///
/// The pushed entry holds the *raw* operand: `_` refers to it directly,
/// and dereferencing for field access happens lazily at fetch time, so
/// `hash[..1024]->(if (_ && scope > 5) name)` never dereferences a NULL
/// bucket.
struct WithGen {
    link: WithLink,
    base: Gen,
    inner: Gen,
    active: bool,
}

impl GenT for WithGen {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> DuelResult<Option<Value>> {
        loop {
            if !self.active {
                match self.base.next(ctx)? {
                    Some(u) => {
                        ctx.with_stack.push(WithEntry {
                            value: u,
                            arrow: self.link == WithLink::Arrow,
                        });
                        self.active = true;
                    }
                    None => return Ok(None),
                }
            }
            match self.inner.next(ctx) {
                Ok(Some(v)) => return Ok(Some(v)),
                Ok(None) => {
                    ctx.with_stack.pop();
                    self.active = false;
                }
                Err(e) => {
                    ctx.with_stack.pop();
                    self.active = false;
                    return Err(e);
                }
            }
        }
    }

    fn reset(&mut self) {
        self.base.reset();
        self.inner.reset();
        // Any pushed entry is popped by the error path in `next`.
        self.active = false;
    }
}

/// `e1.e2` / `e1->e2`.
pub fn with(link: WithLink, base: Gen, inner: Gen) -> Gen {
    Box::new(WithGen {
        link,
        base,
        inner,
        active: false,
    })
}

// ----- expansion (dfs / bfs) ---------------------------------------------

/// `e1-->e2` (depth-first) and `e1-->>e2` (breadth-first) expansion:
///
/// ```text
/// case DFS:
///   while (u = eval(n->kids[0])) {
///     stack(n, u)
///     while (v = unstack(n)) {
///       push(v)
///       while (w = eval(n->kids[1])) stack(n, w)
///       pop()
///       yield v
///     }
///   }
/// ```
///
/// "until a NULL pointer or an invalid pointer terminates the sequence";
/// children are stacked in reverse so a `(left,right)` expansion visits
/// in preorder. The paper's implementation "does not handle cycles" —
/// ours guards with a visited set unless `dfs_cycle_check` is off.
struct ExpandGen {
    root: Gen,
    expand: Gen,
    bfs: bool,
    frontier: VecDeque<Value>,
    visited: HashSet<u64>,
    running: bool,
    /// Nodes visited for the current root value, checked against
    /// `max_expand` — the backstop that terminates cyclic structures
    /// when the visited-set check is disabled.
    expanded: u64,
    /// The level-by-level planner, for link expressions it can follow.
    chase: Option<Chase>,
}

/// The prefetch planner's walk chase: the walks of different roots
/// follow paths through memory that do not depend on each other, so
/// one depth level of every chain can be fetched in one vectored turn.
///
/// A batch starts at a root and takes the roots after it (the slots
/// of a hinted `e[a..b]` root), as many as one window of nodes holds
/// at depth 1. Each level is warmed in one `prefetch_submit` of at most
/// one window; its link fields (now cache hits) give the next level.
/// The chase stops when a level is empty or the batch has fetched
/// `2 × prefetch_window` pages. A node whose page did not arrive is
/// dropped, so no field read reaches the wire for it. The chase only
/// reads memory: the root and link expressions are never evaluated
/// ahead of the walk.
struct Chase {
    /// The link fields: `next`, or `left,right`.
    fields: Vec<String>,
    /// Inclusive index range a hinted root enumerates per base value.
    hint: Option<(i64, i64)>,
    /// The node layout for the last root type seen.
    links: Option<Links>,
    /// Root values taken since the root generator last started.
    roots: u64,
    /// Slot addresses `[start, end)` of the current batch.
    batch: (u64, u64),
    /// Nodes the current batch has taken into a level.
    seen: HashSet<u64>,
}

/// Where the links of one node type live.
struct Links {
    /// The root (pointer) type this layout was resolved for.
    root_ty: duel_ctype::TypeId,
    /// Node size in bytes.
    size: u64,
    /// Offsets of the link fields within the node.
    offsets: Vec<u64>,
}

impl Links {
    /// Node size and link-field offsets for roots of type `root_ty`,
    /// when every link is a plain pointer field to the same record.
    fn resolve(ctx: &Ctx<'_>, root_ty: duel_ctype::TypeId, fields: &[String]) -> Option<Links> {
        let node = match apply::classify(ctx.target, root_ty) {
            Class::Ptr { pointee } => pointee,
            _ => return None,
        };
        let (types, abi) = (ctx.target.types(), ctx.target.abi());
        let (rid, _) = types.as_record(node)?;
        let size = types.size_of(node, abi).ok().filter(|&s| s > 0)?;
        let mut offsets = Vec::with_capacity(fields.len());
        for name in fields {
            let (idx, f) = types.find_field(node, name).ok()?;
            if apply::classify(ctx.target, f.ty) != (Class::Ptr { pointee: node }) {
                return None;
            }
            let fl = types.field_layout(rid, idx, abi).ok()?;
            if fl.bit_width.is_some() {
                return None;
            }
            offsets.push(fl.offset);
        }
        Some(Links {
            root_ty,
            size,
            offsets,
        })
    }
}

impl Chase {
    /// The chase for link expression `e` over a root with range hint
    /// `hint`: `e` must be a field name or a comma list of them, and
    /// there must be several roots to batch (a hint) or a tree to
    /// widen (two or more links). A single-root list gains nothing.
    fn plan(e: &Expr, hint: Option<(i64, i64)>) -> Option<Chase> {
        fn names(e: &Expr, out: &mut Vec<String>) -> bool {
            match e {
                Expr::Name(n) => {
                    out.push(n.clone());
                    true
                }
                Expr::Alt(a, b) => names(a, out) && names(b, out),
                _ => false,
            }
        }
        let mut fields = Vec::new();
        (names(e, &mut fields) && (hint.is_some() || fields.len() > 1)).then_some(Chase {
            fields,
            hint,
            links: None,
            roots: 0,
            batch: (0, 0),
            seen: HashSet::new(),
        })
    }

    /// Forgets the batch when the root generator starts over.
    fn restart(&mut self) {
        self.roots = 0;
        self.batch = (0, 0);
        self.seen.clear();
    }

    /// Called for every root value before the walk touches it: starts
    /// a batch unless an earlier one already covered this root.
    fn root(&mut self, ctx: &mut Ctx<'_>, u: &Value) {
        let pos = self.roots;
        self.roots += 1;
        if !ctx.opts.prefetch
            || self.hint.is_some()
                && u.lval_addr()
                    .is_none_or(|a| (self.batch.0..self.batch.1).contains(&a))
        {
            return;
        }
        let Some(page) = ctx.target.cache_page_size() else {
            return;
        };
        if self.links.as_ref().is_none_or(|l| l.root_ty != u.ty) {
            self.links = Links::resolve(ctx, u.ty, &self.fields);
        }
        let Some(links) = &self.links else {
            return;
        };
        let g = Geometry {
            size: links.size,
            page,
            window: ctx.opts.prefetch_window.max(1) as u64,
        };
        let span = ctx.span_enter(duel_target::SpanKind::Prefetch, "prefetch", || {
            format!("chase {}", u.sym.render(ctx.opts.compress_threshold))
        });
        let start = match (self.hint, u.lval_addr()) {
            (Some((lo, hi)), Some(a)) => {
                let n = hi.abs_diff(lo).saturating_add(1);
                let psize = ctx.target.abi().pointer_bytes.max(1);
                let slots = (n - pos % n)
                    .min(g.window * page / psize)
                    .min((u64::MAX - a) / psize);
                self.slots(ctx, a, slots, psize, &g)
            }
            _ => match apply::load(ctx.target, u) {
                Ok(Scalar::Ptr(p)) if followable(p, g.size) && !self.seen.contains(&p) => {
                    self.seen.clear();
                    self.seen.insert(p);
                    Some((vec![p], 0))
                }
                _ => None,
            },
        };
        if let (Some((level, fetched)), Some(links)) = (start, &self.links) {
            levels(ctx, &mut self.seen, level, fetched, &links.offsets, &g);
        }
        ctx.span_exit(span);
    }

    /// Starts a batch at slot address `a`: warms up to `slots` root
    /// slots (resident already when the scan's window has landed; the
    /// warm also applies a window still in flight before them), reads
    /// the pointers of those that arrived, and takes roots while their
    /// depth-1 nodes fit in one window. Returns depth 1 and the pages
    /// fetched so far.
    fn slots(
        &mut self,
        ctx: &mut Ctx<'_>,
        a: u64,
        slots: u64,
        psize: u64,
        g: &Geometry,
    ) -> Option<(Vec<u64>, u64)> {
        if slots == 0 {
            return None;
        }
        self.seen.clear();
        self.batch = (a, a + psize);
        let c = warm_level(ctx, &[(a, slots * psize)])?;
        let mut pages = HashSet::new();
        let mut level = Vec::new();
        for i in 0..slots {
            let slot = a + i * psize;
            if !g.arrived(&c, slot, psize) {
                break;
            }
            let Ok(p) = value_io::read_ptr(ctx.target, slot) else {
                break;
            };
            if followable(p, g.size) && !self.seen.contains(&p) {
                if !g.fits(&mut pages, p, g.window) {
                    break;
                }
                self.seen.insert(p);
                level.push(p);
            }
            self.batch.1 = slot + psize;
        }
        Some((level, c.ranges))
    }
}

/// Fetches `level` and the levels below it, one vectored turn each,
/// until a level is empty or the batch has fetched `2 × window` pages.
/// `seen` holds the nodes the batch has taken so far.
fn levels(
    ctx: &mut Ctx<'_>,
    seen: &mut HashSet<u64>,
    mut level: Vec<u64>,
    mut fetched: u64,
    offsets: &[u64],
    g: &Geometry,
) {
    let budget = 2 * g.window;
    while fetched < budget {
        let cap = g.window.min(budget - fetched);
        let mut pages = HashSet::new();
        let fit = level
            .iter()
            .take_while(|&&p| g.fits(&mut pages, p, cap))
            .count();
        level.truncate(fit);
        if level.is_empty() {
            return;
        }
        let ranges: Vec<(u64, u64)> = level.iter().map(|&p| (p, g.size)).collect();
        let Some(c) = warm_level(ctx, &ranges) else {
            return;
        };
        fetched += c.ranges;
        let mut next = Vec::new();
        for &p in level.iter().filter(|&&p| g.arrived(&c, p, g.size)) {
            for &off in offsets {
                if let Ok(q) = value_io::read_ptr(ctx.target, p + off) {
                    if followable(q, g.size) && seen.insert(q) {
                        next.push(q);
                    }
                }
            }
        }
        level = next;
    }
}

/// The sizes a chase plans with: node bytes, cache page bytes, and the
/// window in pages.
struct Geometry {
    size: u64,
    page: u64,
    window: u64,
}

impl Geometry {
    /// Adds the pages of the node at `p` to `pages` if they keep it
    /// within `cap` pages.
    fn fits(&self, pages: &mut HashSet<u64>, p: u64, cap: u64) -> bool {
        let mut total = pages.len() as u64;
        for b in self.pages(p, self.size) {
            total += u64::from(!pages.contains(&b));
            if total > cap {
                return false;
            }
        }
        pages.extend(self.pages(p, self.size));
        true
    }

    /// Did every page of `[p, p+len)` arrive in completion `c`?
    fn arrived(&self, c: &PrefetchCompletion, p: u64, len: u64) -> bool {
        c.failed_pages.is_empty() || self.pages(p, len).all(|b| !c.failed_pages.contains(&b))
    }

    /// The base addresses of the cache pages `[p, p+len)` spans.
    fn pages(&self, p: u64, len: u64) -> impl Iterator<Item = u64> + Clone {
        let first = p & !(self.page - 1);
        let last = (p + len - 1) & !(self.page - 1);
        (first..=last).step_by(self.page as usize)
    }
}

/// Can the chase follow a link to `p`? (Not NULL, and the node does not
/// wrap the address space.)
fn followable(p: u64, size: u64) -> bool {
    p != 0 && p.checked_add(size).is_some()
}

/// Warms one chase level through the prefetch seam and returns its own
/// completion; `None` when the tower has no seam (the chase then stops
/// rather than fall back to demand reads).
fn warm_level(ctx: &mut Ctx<'_>, ranges: &[(u64, u64)]) -> Option<PrefetchCompletion> {
    ctx.windows_planned += 1;
    let seq = submit(ctx, ranges)?;
    apply_through(ctx, seq)
}

impl ExpandGen {
    /// Is `v` a pointer to mapped memory? Returns the address.
    fn pointer_target(&self, ctx: &mut Ctx<'_>, v: &Value) -> DuelResult<Option<u64>> {
        let pointee = match apply::classify(ctx.target, v.ty) {
            Class::Ptr { pointee } => pointee,
            _ => {
                return Err(DuelError::Type {
                    sym: v.sym.render(ctx.opts.compress_threshold),
                    message: "`-->` expansion needs pointer values to walk".into(),
                })
            }
        };
        let p = match apply::load(ctx.target, v)? {
            Scalar::Ptr(p) => p,
            Scalar::Int(i) => i as u64,
            Scalar::Float(_) => 0,
        };
        if p == 0 {
            return Ok(None);
        }
        let size = ctx
            .target
            .types()
            .size_of(pointee, ctx.target.abi())
            .unwrap_or(1);
        if !ctx.target.is_mapped(p, size) {
            return Ok(None);
        }
        Ok(Some(p))
    }

    /// Normalizes a node to a pointer rvalue (loading field lvalues).
    fn as_node(&self, ctx: &mut Ctx<'_>, v: &Value, addr: u64) -> Value {
        let _ = ctx;
        Value::rval(v.ty, Scalar::Ptr(addr), v.sym.clone())
    }
}

impl GenT for ExpandGen {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> DuelResult<Option<Value>> {
        loop {
            if self.frontier.is_empty() {
                match self.root.next(ctx)? {
                    Some(u) => {
                        if let Some(c) = &mut self.chase {
                            c.root(ctx, &u);
                        }
                        self.visited.clear();
                        self.expanded = 0;
                        if let Some(p) = self.pointer_target(ctx, &u)? {
                            self.visited.insert(p);
                            let node = self.as_node(ctx, &u, p);
                            self.frontier.push_back(node);
                            self.running = true;
                        }
                        // NULL/invalid root: yields nothing for this u.
                        continue;
                    }
                    None => {
                        if let Some(c) = &mut self.chase {
                            c.restart();
                        }
                        self.running = false;
                        return Ok(None);
                    }
                }
            }
            // Pop the next node (LIFO for dfs, FIFO for bfs).
            let x = if self.bfs {
                self.frontier.pop_front().unwrap()
            } else {
                self.frontier.pop_back().unwrap()
            };
            self.expanded += 1;
            ctx.expansions += 1;
            if self.expanded > ctx.opts.max_expand {
                return Err(DuelError::BudgetExceeded {
                    budget: "expansion".into(),
                    limit: ctx.opts.max_expand,
                    sym: x.sym.render(ctx.opts.compress_threshold),
                });
            }
            // Expand: evaluate e2 in the scope of *X.
            ctx.with_stack.push(WithEntry {
                value: x.clone(),
                arrow: true,
            });
            let mut children = Vec::new();
            let res: DuelResult<()> = (|| {
                while let Some(w) = self.expand.next(ctx)? {
                    if let Some(p) = self.pointer_target(ctx, &w)? {
                        let fresh = !ctx.opts.dfs_cycle_check || self.visited.insert(p);
                        if fresh {
                            children.push(self.as_node(ctx, &w, p));
                        }
                    }
                }
                Ok(())
            })();
            ctx.with_stack.pop();
            res?;
            if self.bfs {
                // Queue in natural order.
                for c in children {
                    self.frontier.push_back(c);
                }
            } else {
                // Stack in reverse so the first child is visited first.
                for c in children.into_iter().rev() {
                    self.frontier.push_back(c);
                }
            }
            return Ok(Some(x));
        }
    }

    fn reset(&mut self) {
        self.root.reset();
        self.expand.reset();
        self.frontier.clear();
        self.visited.clear();
        self.running = false;
        self.expanded = 0;
        if let Some(c) = &mut self.chase {
            c.restart();
        }
    }
}

/// Builds a `-->` / `-->>` expansion; `hint` is the root's range hint
/// when the root is `e[a..b]` or `e[..n]`.
pub fn expand(root: Gen, expand_expr: &Expr, hint: Option<(i64, i64)>, bfs: bool) -> Gen {
    Box::new(ExpandGen {
        root,
        expand: compile(expand_expr),
        bfs,
        frontier: VecDeque::new(),
        visited: HashSet::new(),
        running: false,
        expanded: 0,
        chase: Chase::plan(expand_expr, hint),
    })
}

// ----- index alias ------------------------------------------------------

/// `e#name` — "produces the values of e and arranges for `name` to be an
/// alias for the index of each value in e".
struct IndexAliasGen {
    e: Gen,
    name: String,
    i: i64,
}

impl GenT for IndexAliasGen {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> DuelResult<Option<Value>> {
        match self.e.next(ctx)? {
            Some(v) => {
                let ty = ctx.target.types_mut().prim(duel_ctype::Prim::Int);
                let sym = ctx.sym_leaf(self.i.to_string());
                ctx.set_alias(&self.name, Value::rval(ty, Scalar::Int(self.i), sym));
                self.i += 1;
                Ok(Some(v))
            }
            None => {
                self.i = 0;
                Ok(None)
            }
        }
    }

    fn reset(&mut self) {
        self.e.reset();
        self.i = 0;
    }
}

/// `e#name`.
pub fn index_alias(e: Gen, name: String) -> Gen {
    Box::new(IndexAliasGen { e, name, i: 0 })
}

// ----- until ------------------------------------------------------------

enum Stop {
    /// `e@3`, `e@'\0'` — stop when the value equals the constant.
    Literal(i64),
    /// `e@(cond)` — stop when `cond`, evaluated in the scope of the
    /// value (so `_` refers to it), is non-zero.
    Cond(Gen),
}

/// `e@n` — "produces the values of e until e.n is non-zero"; with a
/// constant `n`, "the expression produces the values of e up to the
/// first one that equals n". The paper's `argv[0..]@0` and
/// `s[0..999]@(_=='\0')`.
struct UntilGen {
    e: Gen,
    stop: Stop,
    stopped: bool,
}

impl GenT for UntilGen {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> DuelResult<Option<Value>> {
        if self.stopped {
            self.stopped = false;
            return Ok(None);
        }
        match self.e.next(ctx)? {
            None => Ok(None),
            Some(v) => {
                let stop_now = match &mut self.stop {
                    Stop::Literal(lit) => {
                        let cur = match apply::load(ctx.target, &v)? {
                            Scalar::Int(i) => i,
                            Scalar::Ptr(p) => p as i64,
                            Scalar::Float(f) => f as i64,
                        };
                        cur == *lit
                    }
                    Stop::Cond(cond) => {
                        ctx.with_stack.push(WithEntry {
                            value: v.clone(),
                            arrow: false,
                        });
                        let r = first_value(ctx, cond);
                        ctx.with_stack.pop();
                        match r? {
                            Some(c) => apply::truthy(ctx.target, &c)?,
                            None => false,
                        }
                    }
                };
                if stop_now {
                    self.e.reset();
                    return Ok(None);
                }
                Ok(Some(v))
            }
        }
    }

    fn reset(&mut self) {
        self.e.reset();
        if let Stop::Cond(c) = &mut self.stop {
            c.reset();
        }
        self.stopped = false;
    }
}

/// Constant-folds a stop operand: the paper's "n can be a constant, in
/// which case the expression produces the values of e up to the first
/// one that equals n" must also cover `(-1)` and friends.
fn stop_constant(e: &Expr) -> Option<i64> {
    match e {
        Expr::Int(v) => Some(*v),
        Expr::Char(c) => Some(*c as i64),
        Expr::Unary(crate::ast::UnOp::Neg, inner) => stop_constant(inner).map(|v| -v),
        Expr::Unary(crate::ast::UnOp::Pos, inner) => stop_constant(inner),
        _ => None,
    }
}

/// `e@stop`.
pub fn until(e: Gen, stop_expr: &Expr) -> Gen {
    let stop = match stop_constant(stop_expr) {
        Some(v) => Stop::Literal(v),
        None => Stop::Cond(compile(stop_expr)),
    };
    Box::new(UntilGen {
        e,
        stop,
        stopped: false,
    })
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use duel_target::{scenario, CacheConfig, CachedTarget, Target};

    use super::*;
    use crate::EvalOptions;

    /// A chase level warmed while a scan window is still in flight gets
    /// that window's completion first (completions come back oldest
    /// first); it must keep polling until its own pages are applied.
    #[test]
    fn warm_level_applies_its_own_pages_behind_an_inflight_window() {
        let mut t =
            CachedTarget::with_config(scenario::bench_array(4096, 7), CacheConfig::default());
        let x = t.get_variable("x").unwrap();
        let page = t.cache_page_size().unwrap();
        let mut aliases = HashMap::new();
        let mut ctx = Ctx::new(&mut t, &mut aliases, EvalOptions::default());
        let node = (x.addr + 8 * page) & !(page - 1);
        let window = submit(&mut ctx, &[(x.addr, 4 * page)]).unwrap();
        let own = warm_level(&mut ctx, &[(node, page)]).unwrap();
        assert_eq!(own.ranges, 1, "the level's own completion: {own:?}");
        assert_eq!((ctx.prefetch_submitted, ctx.prefetch_applied), (2, 2));
        // The scan's own poll finds its window already applied.
        assert!(apply_through(&mut ctx, window).is_none());
        drop(ctx);
        let before = t.stats().backend_reads;
        let mut buf = vec![0u8; page as usize];
        t.get_bytes(node, &mut buf).unwrap();
        t.get_bytes(x.addr, &mut buf).unwrap();
        assert_eq!(t.stats().backend_reads, before, "both warms are resident");
    }
}
