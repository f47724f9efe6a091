//! [`TraceTarget`] — wire-level observability over the narrow interface.
//!
//! Every call that crosses [`Target`] is a potential debugger
//! round-trip, and in a decorator tower such as the REPL's
//! `Trace(Supervise(Retry(Cache(Record(backend)))))` "one evaluator
//! read" and "one wire fetch" are different quantities at different
//! levels. `TraceTarget` makes each level observable: insert it
//! *above* the cache to see what the evaluator asks for, *below* the
//! cache to see what actually reaches the backend, or both at once with
//! distinct labels.
//!
//! Recorded per call: the operation kind ([`TraceOp`]), a short detail
//! (address + length, or the symbol asked for), the outcome
//! ([`TraceOutcome`]: ok / fault / transient / not-found), and the
//! latency. The call lands in two places, with the same measured
//! latency in both:
//!
//! * the cloneable [`TraceHandle`]: per-op counters (calls, errors,
//!   cumulative nanoseconds) and per-op log₂ latency histograms;
//! * the tower's [`SpanContext`]: one closed `Wire` span under the
//!   span that caused the call (see [`crate::span`]) — the only record
//!   of individual calls; `.trace dump`, the `events` meta root and
//!   the exports read it.
//!
//! A session that outlives its towers (the `duel` REPL swaps backends
//! on `.scenario`/`.load`/`.replay`) builds every tower around one
//! handle and one span context with [`TraceTarget::with_handles`], so
//! its counters and its timeline span the swaps.
//!
//! **Disabled tracing is free.** The handle's flag is a single relaxed
//! atomic load on the fast path; no counter is bumped, no span is
//! recorded, no clock is read. The `duel` REPL leaves tracing off
//! until `.trace on` (or transiently during `.profile`), and the E11
//! bench asserts the disabled overhead is negligible.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::capture::CaptureCall;
use crate::error::TargetResult;
use crate::iface::{ReadRange, Target};
use crate::layer::{Op, Reply};
use crate::span::{SpanContext, SpanKind, SpanSnapshot};

/// The kind of a traced [`Target`] operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceOp {
    /// `get_bytes` — a debuggee memory read.
    GetBytes,
    /// `put_bytes` — a debuggee memory write.
    PutBytes,
    /// `alloc_space` — scratch allocation in the debuggee.
    AllocSpace,
    /// `call_func` — a debuggee function call.
    CallFunc,
    /// `get_variable` / `get_variable_in_frame` — symbol resolution.
    GetVariable,
    /// `lookup_typedef` / `lookup_struct` / `lookup_union` /
    /// `lookup_enum` — type lookups.
    LookupType,
    /// `has_function` — function-existence probe.
    HasFunction,
    /// `frame_count` / `frame_info` — stack inspection.
    Frames,
    /// `is_mapped` — address-space probe.
    IsMapped,
    /// `get_bytes_multi` — a vectored memory read (one wire turn
    /// carrying many ranges).
    MultiRead,
}

/// Every op kind, in display order.
pub const TRACE_OPS: [TraceOp; 10] = [
    TraceOp::GetBytes,
    TraceOp::PutBytes,
    TraceOp::AllocSpace,
    TraceOp::CallFunc,
    TraceOp::GetVariable,
    TraceOp::LookupType,
    TraceOp::HasFunction,
    TraceOp::Frames,
    TraceOp::IsMapped,
    TraceOp::MultiRead,
];

impl TraceOp {
    /// Stable numeric code of the operation (its position in
    /// [`TRACE_OPS`]); also the `op_code` field of meta-image events.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The op named `name` (the inverse of [`TraceOp::name`]).
    pub fn from_name(name: &str) -> Option<TraceOp> {
        TRACE_OPS.into_iter().find(|op| op.name() == name)
    }

    /// The wire-level name of the operation.
    pub fn name(self) -> &'static str {
        match self {
            TraceOp::GetBytes => "get_bytes",
            TraceOp::PutBytes => "put_bytes",
            TraceOp::AllocSpace => "alloc_space",
            TraceOp::CallFunc => "call_func",
            TraceOp::GetVariable => "get_variable",
            TraceOp::LookupType => "lookup_type",
            TraceOp::HasFunction => "has_function",
            TraceOp::Frames => "frames",
            TraceOp::IsMapped => "is_mapped",
            TraceOp::MultiRead => "multi_read",
        }
    }
}

const OP_COUNT: usize = TRACE_OPS.len();
/// log₂ latency buckets: bucket `i` holds calls with latency in
/// `[2^i, 2^(i+1))` ns (bucket 0 also holds sub-nanosecond readings).
pub const HIST_BUCKETS: usize = 40;

/// How a traced operation ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceOutcome {
    /// The operation succeeded.
    Ok,
    /// A fault: the debuggee's honest "no" (bad address, …).
    Fault,
    /// A transient backend failure (retryable).
    Transient,
    /// A lookup answered "not found" / `false`.
    NotFound,
}

impl TraceOutcome {
    pub(crate) fn of_result<R>(r: &TargetResult<R>) -> TraceOutcome {
        match r {
            Ok(_) => TraceOutcome::Ok,
            Err(e) if e.is_transient() => TraceOutcome::Transient,
            Err(_) => TraceOutcome::Fault,
        }
    }

    pub(crate) fn of_option<R>(r: &Option<R>) -> TraceOutcome {
        TraceOutcome::found(r.is_some())
    }

    pub(crate) fn found(yes: bool) -> TraceOutcome {
        if yes {
            TraceOutcome::Ok
        } else {
            TraceOutcome::NotFound
        }
    }

    /// A vectored read's outcome: transient if any range was, else a
    /// fault if any range faulted.
    pub(crate) fn of_results(rs: &[TargetResult<()>]) -> TraceOutcome {
        if rs
            .iter()
            .any(|r| r.as_ref().is_err_and(|e| e.is_transient()))
        {
            TraceOutcome::Transient
        } else if rs.iter().any(|r| r.is_err()) {
            TraceOutcome::Fault
        } else {
            TraceOutcome::Ok
        }
    }

    /// Short label for event dumps.
    pub fn name(self) -> &'static str {
        match self {
            TraceOutcome::Ok => "ok",
            TraceOutcome::Fault => "fault",
            TraceOutcome::Transient => "transient",
            TraceOutcome::NotFound => "not-found",
        }
    }

    /// Stable numeric code of the outcome (the `outcome_code` field of
    /// meta-image events; 0 = ok).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Renders one wire call as `.trace dump` prints it: sequence number,
/// op, detail, outcome and latency, plus a trailing `span=N` marker
/// naming the causing span when there is one.
pub fn dump_line(
    seq: u64,
    op: &str,
    detail: &str,
    outcome: TraceOutcome,
    nanos: u64,
    span: u64,
) -> String {
    let mut line = format!(
        "#{seq:<6} {op:<13} {detail:<24} {:<9} {}",
        outcome.name(),
        fmt_ns(nanos)
    );
    if span != 0 {
        line.push_str(&format!("  span={span}"));
    }
    line
}

/// Formats a nanosecond count with a human unit.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 10_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 10_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

struct TraceShared {
    enabled: AtomicBool,
    /// `calls[op]`, `errors[op]`, `nanos[op]` — flat per-op counters.
    calls: Vec<AtomicU64>,
    errors: Vec<AtomicU64>,
    nanos: Vec<AtomicU64>,
    /// `hist[op * HIST_BUCKETS + bucket]` — log₂ latency histograms.
    hist: Vec<AtomicU64>,
}

/// Counter snapshot for one operation kind.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpStats {
    /// Which operation.
    pub op: TraceOp,
    /// Calls recorded while tracing was enabled.
    pub calls: u64,
    /// Calls that ended in a fault or transient failure.
    pub errors: u64,
    /// Cumulative latency, nanoseconds.
    pub total_ns: u64,
    /// log₂ latency histogram (see [`HIST_BUCKETS`]).
    pub hist: Vec<u64>,
}

impl OpStats {
    /// Mean latency in nanoseconds (0 when no calls were recorded).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.calls).unwrap_or(0)
    }

    /// Approximate latency quantile from the histogram: the upper bound
    /// of the bucket containing the `q`-quantile call (`q` in `[0,1]`).
    pub fn quantile_ns(&self, q: f64) -> u64 {
        crate::metrics::bucket_quantile(&self.hist, q)
    }
}

/// A full snapshot of a trace handle's counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceStats {
    /// Per-op counters, in [`TRACE_OPS`] order.
    pub ops: Vec<OpStats>,
}

impl TraceStats {
    /// Total calls across all op kinds.
    pub fn total_calls(&self) -> u64 {
        self.ops.iter().map(|o| o.calls).sum()
    }

    /// Total errors (faults + transients) across all op kinds.
    pub fn total_errors(&self) -> u64 {
        self.ops.iter().map(|o| o.errors).sum()
    }

    /// Counters for one op kind.
    pub fn op(&self, op: TraceOp) -> &OpStats {
        &self.ops[op.index()]
    }

    /// The per-op totals as `wire.<op>.{calls,errors,ns}` metric
    /// counters — how `.top`, `.stats json` and the `counters` meta
    /// root see wire traffic. Ops never called are left out, and
    /// `errors` appears only when nonzero.
    pub fn wire_counters(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        for o in self.ops.iter().filter(|o| o.calls > 0) {
            let name = o.op.name();
            out.push((format!("wire.{name}.calls"), o.calls));
            if o.errors > 0 {
                out.push((format!("wire.{name}.errors"), o.errors));
            }
            out.push((format!("wire.{name}.ns"), o.total_ns));
        }
        out
    }
}

/// A cloneable view onto one [`TraceTarget`]'s instrumentation.
///
/// The handle outlives borrows of the target itself, which is what lets
/// the evaluator read counter deltas mid-evaluation while holding
/// `&mut dyn Target`.
#[derive(Clone)]
pub struct TraceHandle(Arc<TraceShared>);

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceHandle")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Default for TraceHandle {
    fn default() -> TraceHandle {
        TraceHandle::new()
    }
}

impl TraceHandle {
    /// Creates a handle with zeroed counters, tracing disabled.
    pub fn new() -> TraceHandle {
        let zeros = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect();
        TraceHandle(Arc::new(TraceShared {
            enabled: AtomicBool::new(false),
            calls: zeros(OP_COUNT),
            errors: zeros(OP_COUNT),
            nanos: zeros(OP_COUNT),
            hist: zeros(OP_COUNT * HIST_BUCKETS),
        }))
    }

    /// Whether calls are currently being recorded.
    pub fn is_enabled(&self) -> bool {
        self.0.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off. Counters accumulated so far are kept
    /// either way.
    pub fn set_enabled(&self, on: bool) {
        self.0.enabled.store(on, Ordering::Relaxed);
    }

    /// Zeroes every counter and histogram.
    pub fn clear(&self) {
        for c in self
            .0
            .calls
            .iter()
            .chain(&self.0.errors)
            .chain(&self.0.nanos)
            .chain(&self.0.hist)
        {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// Memory reads recorded so far — the counter the evaluator diffs
    /// across a generator span to attribute wire traffic to AST nodes.
    pub fn reads(&self) -> u64 {
        self.0.calls[TraceOp::GetBytes.index()].load(Ordering::Relaxed)
    }

    /// Calls recorded so far for one op kind.
    pub fn calls(&self, op: TraceOp) -> u64 {
        self.0.calls[op.index()].load(Ordering::Relaxed)
    }

    /// Snapshots every counter and histogram.
    pub fn snapshot(&self) -> TraceStats {
        let ops = TRACE_OPS
            .iter()
            .map(|&op| {
                let i = op.index();
                OpStats {
                    op,
                    calls: self.0.calls[i].load(Ordering::Relaxed),
                    errors: self.0.errors[i].load(Ordering::Relaxed),
                    total_ns: self.0.nanos[i].load(Ordering::Relaxed),
                    hist: (0..HIST_BUCKETS)
                        .map(|b| self.0.hist[i * HIST_BUCKETS + b].load(Ordering::Relaxed))
                        .collect(),
                }
            })
            .collect();
        TraceStats { ops }
    }

    /// Serializes counters, histograms, and the wire spans of `spans`
    /// as a JSON object (the `--trace-json` export; see
    /// `docs/LANGUAGE.md`).
    pub fn to_json(&self, label: &str, spans: &SpanSnapshot) -> String {
        let stats = self.snapshot();
        let mut ops = Vec::new();
        for o in &stats.ops {
            if o.calls == 0 {
                continue;
            }
            // Trim trailing empty buckets so the export stays readable.
            let last = o.hist.iter().rposition(|&n| n > 0).map_or(0, |i| i + 1);
            let hist: Vec<String> = o.hist[..last].iter().map(|n| n.to_string()).collect();
            ops.push(format!(
                "{{\"op\":\"{}\",\"calls\":{},\"errors\":{},\"total_ns\":{},\
                 \"mean_ns\":{},\"p99_ns\":{},\"hist_log2_ns\":[{}]}}",
                o.op.name(),
                o.calls,
                o.errors,
                o.total_ns,
                o.mean_ns(),
                o.quantile_ns(0.99),
                hist.join(",")
            ));
        }
        let events: Vec<String> = spans
            .wire()
            .map(|w| {
                format!(
                    "{{\"seq\":{},\"op\":\"{}\",\"detail\":\"{}\",\"outcome\":\"{}\",\"ns\":{},\
                     \"ts_ns\":{},\"trace\":{},\"span\":{}}}",
                    w.id,
                    w.name,
                    w.detail.replace('\\', "\\\\").replace('"', "\\\""),
                    w.outcome.name(),
                    w.dur_ns,
                    w.start_ns,
                    w.trace,
                    w.parent
                )
            })
            .collect();
        format!(
            "{{\"label\":\"{}\",\"enabled\":{},\"events_dropped\":{},\
             \"ops\":[{}],\"events\":[{}]}}",
            label,
            self.is_enabled(),
            spans.dropped,
            ops.join(","),
            events.join(",")
        )
    }

    /// Records one finished call of `op` that started at `start_ns`
    /// and took `nanos`: bumps its op's counters and latency histogram
    /// and, when `spans` is recording, adds a `Wire` span for it under
    /// the current span with the same latency. Offline tools (e.g.
    /// `duel-replay`) rebuild a session's telemetry from a capture this
    /// way; [`TraceTarget`] takes the same two steps around a live
    /// call, with the span open while the call runs.
    pub fn record(
        &self,
        spans: &SpanContext,
        op: TraceOp,
        detail: impl FnOnce() -> String,
        outcome: TraceOutcome,
        start_ns: u64,
        nanos: u64,
    ) {
        let span = spans.push_at(SpanKind::Wire, op.name(), detail, start_ns);
        spans.finish(span, start_ns + nanos, outcome);
        self.count(op, outcome, nanos);
    }

    /// Wire turns recorded so far: scalar reads plus vectored reads
    /// (each vectored call is one turn no matter how many ranges it
    /// carries). This is the quantity the prefetch planner optimizes.
    pub fn wire_turns(&self) -> u64 {
        self.calls(TraceOp::GetBytes) + self.calls(TraceOp::MultiRead)
    }

    fn count(&self, op: TraceOp, outcome: TraceOutcome, nanos: u64) {
        let i = op.index();
        self.0.calls[i].fetch_add(1, Ordering::Relaxed);
        if matches!(outcome, TraceOutcome::Fault | TraceOutcome::Transient) {
            self.0.errors[i].fetch_add(1, Ordering::Relaxed);
        }
        self.0.nanos[i].fetch_add(nanos, Ordering::Relaxed);
        let bucket = (64 - nanos.max(1).leading_zeros() as usize - 1).min(HIST_BUCKETS - 1);
        self.0.hist[i * HIST_BUCKETS + bucket].fetch_add(1, Ordering::Relaxed);
    }
}

/// A [`Target`] decorator that records every call crossing it.
///
/// See the module docs for what is recorded and the zero-cost-when-off
/// guarantee. The decorator answers [`Target::trace_handle`] with its
/// own handle, so the evaluator finds the *outermost* trace layer
/// through `&mut dyn Target` no matter how deep the tower is.
#[derive(Debug)]
pub struct TraceTarget<T: Target> {
    inner: T,
    handle: TraceHandle,
    spans: SpanContext,
    label: &'static str,
}

impl<T: Target> TraceTarget<T> {
    /// Wraps `inner` with a fresh, disabled handle and span context.
    pub fn new(inner: T) -> TraceTarget<T> {
        TraceTarget::with_label(inner, "trace")
    }

    /// Wraps `inner` under a layer label (used when stacking several
    /// trace layers, e.g. `"session"` above the cache and `"wire"`
    /// below it), with a fresh handle and span context.
    pub fn with_label(inner: T, label: &'static str) -> TraceTarget<T> {
        TraceTarget::with_handles(inner, label, TraceHandle::new(), SpanContext::default())
    }

    /// Wraps `inner` around an existing handle and span context — how a
    /// session keeps one set of counters and one timeline across the
    /// towers it builds.
    ///
    /// Construction installs `spans` into the whole stack below (via
    /// [`Target::set_span_context`]); since towers are built
    /// inside-out, the outermost trace layer's context wins and every
    /// layer shares one timeline.
    pub fn with_handles(
        mut inner: T,
        label: &'static str,
        handle: TraceHandle,
        spans: SpanContext,
    ) -> TraceTarget<T> {
        inner.set_span_context(&spans);
        TraceTarget {
            inner,
            handle,
            spans,
            label,
        }
    }

    /// The layer label.
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// A clone of this layer's handle.
    pub fn handle(&self) -> TraceHandle {
        self.handle.clone()
    }

    /// A clone of the shared span context.
    pub fn spans(&self) -> SpanContext {
        self.spans.clone()
    }

    /// The wrapped target.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Mutable access to the wrapped target.
    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    /// Unwraps the decorator.
    pub fn into_inner(self) -> T {
        self.inner
    }
}

impl<T: Target> crate::Layer for TraceTarget<T> {
    type Inner = T;

    fn below(&self) -> &T {
        &self.inner
    }

    fn below_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    /// Records one call. Skips *everything* (clock, counters, span)
    /// when tracing is off — the disabled cost is one relaxed load.
    #[inline(always)]
    fn call(&mut self, op: Op<'_, '_>) -> Reply {
        if !self.handle.0.enabled.load(Ordering::Relaxed) {
            return op.apply(&mut self.inner);
        }
        // take_output is a host-side buffer drain, not a wire op.
        let Some(kind) = op.trace_op() else {
            return op.apply(&mut self.inner);
        };
        if let Op::GetBytesMulti(ranges) = op {
            return Reply::Multi(self.traced_multi(ranges));
        }
        let start = self.spans.now_ns();
        let span = self.spans.push_at(
            SpanKind::Wire,
            kind.name(),
            || CaptureCall::of(&op).detail(),
            start,
        );
        let reply = op.apply(&mut self.inner);
        self.charge(kind, span, start, self.spans.now_ns(), reply.outcome());
        reply
    }

    fn trace_handle(&self) -> Option<TraceHandle> {
        Some(self.handle.clone())
    }

    fn set_span_context(&mut self, spans: &SpanContext) {
        // An outer trace layer wins: adopt its timeline and keep
        // pushing it down so the whole tower agrees.
        self.spans = spans.clone();
        self.inner.set_span_context(spans);
    }

    fn span_context(&self) -> Option<SpanContext> {
        Some(self.spans.clone())
    }

    fn prefetch_poll(&mut self) -> Option<crate::iface::PrefetchCompletion> {
        let c = self.inner.prefetch_poll()?;
        // The window's wire read happened below the cache (at submit
        // when synchronous, on the actor when pipelined), so this layer
        // never saw it as a get_bytes_multi. Count the completed window
        // as one MultiRead here — in both modes — so `wire_turns()`
        // counts every turn exactly once regardless of how the tower
        // executed it. Its wire span, with the per-page children only
        // the cache knows, was recorded by the cache with the same
        // latency.
        if c.ranges > 0 && self.handle.is_enabled() {
            self.handle
                .count(TraceOp::MultiRead, c.outcome(), c.wait_ns);
        }
        Some(c)
    }
}

impl<T: Target> TraceTarget<T> {
    /// Closes a traced call's wire span and charges its op's counters,
    /// with the one latency `end - start` in both.
    fn charge(&self, op: TraceOp, span: u64, start: u64, end: u64, outcome: TraceOutcome) {
        self.spans.finish(span, end, outcome);
        self.handle.count(op, outcome, end.saturating_sub(start));
    }

    /// A vectored read is the one wire op with visible fan-out: its
    /// wire span gets one `range` child per range, so the export shows
    /// exactly what the turn carried.
    fn traced_multi(&mut self, ranges: &mut [ReadRange<'_>]) -> Vec<TargetResult<()>> {
        let n = ranges.len();
        let total: usize = ranges.iter().map(|r| r.buf.len()).sum();
        let start = self.spans.now_ns();
        let span = self.spans.push_at(
            SpanKind::Wire,
            TraceOp::MultiRead.name(),
            || format!("{n} ranges, {total}b"),
            start,
        );
        let results = self.inner.get_bytes_multi(ranges);
        let end = self.spans.now_ns();
        if span != 0 {
            for (r, res) in ranges.iter().zip(&results) {
                let outcome = TraceOutcome::of_result(res);
                let (addr, len) = (r.addr, r.buf.len());
                self.spans.instant(SpanKind::Range, "range", || {
                    format!("0x{addr:x}+{len} {}", outcome.name())
                });
            }
        }
        let outcome = TraceOutcome::of_results(&results);
        self.charge(TraceOp::MultiRead, span, start, end, outcome);
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;

    /// A trace layer with both its counters and its span timeline on.
    fn traced() -> TraceTarget<crate::SimTarget> {
        let t = TraceTarget::new(scenario::scan_array());
        t.handle().set_enabled(true);
        t.spans().set_enabled(true);
        t
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let mut t = TraceTarget::new(scenario::scan_array());
        t.spans().set_enabled(true);
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        t.get_bytes(x.addr, &mut buf).unwrap();
        let s = t.handle().snapshot();
        assert_eq!(s.total_calls(), 0);
        assert_eq!(t.spans().snapshot().wire().count(), 0);
    }

    #[test]
    fn enabled_tracing_counts_calls_outcomes_and_latency() {
        let mut t = traced();
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        t.get_bytes(x.addr, &mut buf).unwrap();
        t.get_bytes(x.addr + 4, &mut buf).unwrap();
        assert!(t.get_bytes(0x10, &mut buf).is_err()); // fault
        assert!(t.get_variable("nonesuch").is_none()); // not-found
        let s = t.handle().snapshot();
        assert_eq!(s.op(TraceOp::GetBytes).calls, 3);
        assert_eq!(s.op(TraceOp::GetBytes).errors, 1);
        assert_eq!(s.op(TraceOp::GetVariable).calls, 2);
        assert_eq!(s.op(TraceOp::GetVariable).errors, 0);
        assert_eq!(t.handle().reads(), 3);
        // Histogram holds exactly the recorded calls.
        let hist_total: u64 = s.op(TraceOp::GetBytes).hist.iter().sum();
        assert_eq!(hist_total, 3);
        // One wire span per call, with the latency the counters got.
        let snap = t.spans().snapshot();
        let events: Vec<_> = snap.wire().collect();
        assert_eq!(events.len(), 5);
        assert_eq!(events[4].outcome, TraceOutcome::NotFound);
        assert_eq!(events[4].op(), Some(TraceOp::GetVariable));
        assert!(events[2].detail.starts_with("0x"), "{:?}", events[2]);
        let read_ns: u64 = events
            .iter()
            .filter(|e| e.op() == Some(TraceOp::GetBytes))
            .map(|e| e.dur_ns)
            .sum();
        assert_eq!(read_ns, s.op(TraceOp::GetBytes).total_ns);
    }

    #[test]
    fn ring_buffer_is_bounded_and_keeps_newest() {
        let mut t = traced();
        t.spans().set_capacity(4);
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        for i in 0..10u64 {
            t.get_bytes(x.addr + i * 4, &mut buf).unwrap();
        }
        let snap = t.spans().snapshot();
        assert_eq!(snap.spans.len(), 4);
        assert_eq!(snap.dropped, 7); // 11 calls total (1 lookup + 10 reads)
        let events: Vec<_> = snap.wire().collect();
        assert_eq!(events.len(), 4);
        assert!(events.windows(2).all(|w| w[0].id < w[1].id));
        assert_eq!(events.last().unwrap().id, 11);
        // The counters are not bounded by the ring.
        assert_eq!(t.handle().snapshot().total_calls(), 11);
    }

    #[test]
    fn clear_resets_counters() {
        let mut t = traced();
        let mut buf = [0u8; 4];
        let x = t.get_variable("x").unwrap();
        t.get_bytes(x.addr, &mut buf).unwrap();
        t.handle().clear();
        let s = t.handle().snapshot();
        assert_eq!(s.total_calls(), 0);
        assert!(s.ops.iter().all(|o| o.hist.iter().all(|&b| b == 0)));
        assert!(t.handle().is_enabled(), "clear must not disable tracing");
    }

    #[test]
    fn codes_are_positions_and_names_round_trip() {
        for (i, op) in TRACE_OPS.into_iter().enumerate() {
            assert_eq!(op.index(), i);
            assert_eq!(TraceOp::from_name(op.name()), Some(op));
        }
        assert_eq!(TraceOutcome::NotFound.index(), 3);
    }

    #[test]
    fn trace_handle_is_discoverable_through_dyn_target() {
        let mut t = TraceTarget::new(scenario::scan_array());
        let dt: &mut dyn Target = &mut t;
        assert!(dt.trace_handle().is_some());
        let mut plain = scenario::scan_array();
        let dp: &mut dyn Target = &mut plain;
        assert!(dp.trace_handle().is_none());
    }

    #[test]
    fn quantiles_come_from_the_histogram() {
        let s = OpStats {
            op: TraceOp::GetBytes,
            calls: 4,
            errors: 0,
            total_ns: 100,
            hist: {
                let mut h = vec![0u64; HIST_BUCKETS];
                h[3] = 3; // three calls in [8, 16) ns
                h[10] = 1; // one call in [1024, 2048) ns
                h
            },
        };
        assert_eq!(s.quantile_ns(0.5), 16);
        assert_eq!(s.quantile_ns(0.99), 2048);
        assert_eq!(s.mean_ns(), 25);
    }

    #[test]
    fn json_export_has_the_expected_shape() {
        let mut t = traced();
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        t.get_bytes(x.addr, &mut buf).unwrap();
        let json = t.handle().to_json("wire", &t.spans().snapshot());
        assert!(json.contains("\"label\":\"wire\""), "{json}");
        assert!(json.contains("\"op\":\"get_bytes\""), "{json}");
        assert!(json.contains("\"hist_log2_ns\""), "{json}");
        assert!(json.contains("\"events\":[{\"seq\":"), "{json}");
        assert!(json.contains("\"detail\":\"x\""), "{json}");
    }

    #[test]
    fn shared_handles_span_rebuilt_towers() {
        let (handle, spans) = (TraceHandle::new(), SpanContext::default());
        handle.set_enabled(true);
        spans.set_enabled(true);
        for _ in 0..2 {
            let mut t = TraceTarget::with_handles(
                scenario::scan_array(),
                "session",
                handle.clone(),
                spans.clone(),
            );
            assert!(t.get_variable("x").is_some());
        }
        assert_eq!(handle.calls(TraceOp::GetVariable), 2);
        assert_eq!(spans.snapshot().wire().count(), 2);
        assert_eq!(
            handle.snapshot().wire_counters(),
            vec![
                ("wire.get_variable.calls".to_string(), 2),
                (
                    "wire.get_variable.ns".to_string(),
                    handle.snapshot().op(TraceOp::GetVariable).total_ns
                ),
            ]
        );
    }
}
