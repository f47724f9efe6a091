//! Passthrough shims the traced run inserts between the layers of a
//! tower, and the fixed-latency MI transport of `remote_walk`.
//!
//! A [`Shim`] forwards every [`Target`] call unchanged and times the
//! calls that do work; the accessors that only hand out references
//! (`abi`, `types`, handles) are forwarded untimed. Counters are atomic
//! because the shim under an I/O actor runs on the actor's thread.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use duel_ctype::{Abi, EnumId, RecordId, TypeId, TypeTable};
use duel_gdbmi::{MiError, MiTransport, MockGdb};
use duel_target::{
    CallValue, FrameInfo, OwnedRange, PipelineTicket, PrefetchCompletion, ReadRange, Target,
    TargetResult, VarInfo,
};

/// Calls, nanoseconds and debuggee reads seen at one shim.
#[derive(Debug, Default)]
pub struct Counters {
    calls: AtomicU64,
    ns: AtomicU64,
    reads: AtomicU64,
}

/// A point-in-time copy of [`Counters`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Count {
    pub calls: u64,
    pub ns: u64,
    pub reads: u64,
}

impl Count {
    pub fn since(self, before: Count) -> Count {
        Count {
            calls: self.calls - before.calls,
            ns: self.ns - before.ns,
            reads: self.reads - before.reads,
        }
    }

    pub fn add(&mut self, d: Count) {
        self.calls += d.calls;
        self.ns += d.ns;
        self.reads += d.reads;
    }
}

impl Counters {
    pub fn get(&self) -> Count {
        Count {
            calls: self.calls.load(Ordering::Relaxed),
            ns: self.ns.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
        }
    }

    fn record(&self, start: Instant, reads: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if reads > 0 {
            self.reads.fetch_add(reads, Ordering::Relaxed);
        }
    }
}

/// A timing passthrough around one layer of a tower.
pub struct Shim<T> {
    inner: T,
    counters: Arc<Counters>,
}

impl<T> Shim<T> {
    pub fn new(inner: T, counters: &Arc<Counters>) -> Shim<T> {
        Shim {
            inner,
            counters: counters.clone(),
        }
    }

    pub fn inner(&self) -> &T {
        &self.inner
    }

    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// Times one forwarded call; `reads` says how many debuggee reads the
/// call puts below this shim.
macro_rules! timed {
    ($self:ident, $reads:expr, $call:expr) => {{
        let start = Instant::now();
        let r = $call;
        $self.counters.record(start, $reads);
        r
    }};
}

impl<T: Target> Target for Shim<T> {
    fn abi(&self) -> &Abi {
        self.inner.abi()
    }
    fn types(&self) -> &TypeTable {
        self.inner.types()
    }
    fn types_mut(&mut self) -> &mut TypeTable {
        self.inner.types_mut()
    }
    fn get_bytes(&mut self, addr: u64, buf: &mut [u8]) -> TargetResult<()> {
        timed!(self, 1, self.inner.get_bytes(addr, buf))
    }
    fn get_bytes_multi(&mut self, ranges: &mut [ReadRange<'_>]) -> Vec<TargetResult<()>> {
        timed!(self, 1, self.inner.get_bytes_multi(ranges))
    }
    fn put_bytes(&mut self, addr: u64, bytes: &[u8]) -> TargetResult<()> {
        timed!(self, 0, self.inner.put_bytes(addr, bytes))
    }
    fn alloc_space(&mut self, size: u64, align: u64) -> TargetResult<u64> {
        timed!(self, 0, self.inner.alloc_space(size, align))
    }
    fn call_func(&mut self, name: &str, args: &[CallValue]) -> TargetResult<CallValue> {
        timed!(self, 0, self.inner.call_func(name, args))
    }
    fn get_variable(&mut self, name: &str) -> Option<VarInfo> {
        timed!(self, 0, self.inner.get_variable(name))
    }
    fn get_variable_in_frame(&mut self, name: &str, frame: usize) -> Option<VarInfo> {
        timed!(self, 0, self.inner.get_variable_in_frame(name, frame))
    }
    fn lookup_typedef(&mut self, name: &str) -> Option<TypeId> {
        timed!(self, 0, self.inner.lookup_typedef(name))
    }
    fn lookup_struct(&mut self, tag: &str) -> Option<RecordId> {
        timed!(self, 0, self.inner.lookup_struct(tag))
    }
    fn lookup_union(&mut self, tag: &str) -> Option<RecordId> {
        timed!(self, 0, self.inner.lookup_union(tag))
    }
    fn lookup_enum(&mut self, tag: &str) -> Option<EnumId> {
        timed!(self, 0, self.inner.lookup_enum(tag))
    }
    fn has_function(&mut self, name: &str) -> bool {
        timed!(self, 0, self.inner.has_function(name))
    }
    fn frame_count(&mut self) -> usize {
        timed!(self, 0, self.inner.frame_count())
    }
    fn frame_info(&mut self, n: usize) -> Option<FrameInfo> {
        timed!(self, 0, self.inner.frame_info(n))
    }
    fn is_mapped(&mut self, addr: u64, len: u64) -> bool {
        timed!(self, 0, self.inner.is_mapped(addr, len))
    }
    fn take_output(&mut self) -> String {
        timed!(self, 0, self.inner.take_output())
    }
    fn trace_handle(&self) -> Option<duel_target::TraceHandle> {
        self.inner.trace_handle()
    }
    fn set_span_context(&mut self, spans: &duel_target::SpanContext) {
        self.inner.set_span_context(spans)
    }
    fn span_context(&self) -> Option<duel_target::SpanContext> {
        self.inner.span_context()
    }
    fn staleness_handle(&self) -> Option<duel_target::StalenessHandle> {
        self.inner.staleness_handle()
    }
    fn read_submit(&mut self, ranges: Vec<OwnedRange>) -> Option<PipelineTicket> {
        let start = Instant::now();
        let r = self.inner.read_submit(ranges);
        // Only an accepted submit is a read; `None` sends the caller to
        // a synchronous read, which is counted where it happens.
        self.counters.record(start, r.is_some() as u64);
        r
    }
    fn read_poll(&mut self, ticket: PipelineTicket) -> Option<Vec<(OwnedRange, TargetResult<()>)>> {
        timed!(self, 0, self.inner.read_poll(ticket))
    }
    fn prefetch_submit(&mut self, ranges: &[(u64, u64)]) -> bool {
        timed!(self, 0, self.inner.prefetch_submit(ranges))
    }
    fn prefetch_poll(&mut self) -> Option<PrefetchCompletion> {
        timed!(self, 0, self.inner.prefetch_poll())
    }
    fn cache_page_size(&self) -> Option<u64> {
        self.inner.cache_page_size()
    }
    fn pipeline_handle(&self) -> Option<duel_target::PipelineHandle> {
        self.inner.pipeline_handle()
    }
}

/// What the MI transport shim saw: lines each way, round trips (a
/// burst of sends answered by a burst of receives) and time in the
/// transport.
#[derive(Debug, Default)]
pub struct WireCounters {
    sent: AtomicU64,
    round_trips: AtomicU64,
    ns: AtomicU64,
}

#[derive(Clone, Copy, Debug, Default)]
pub struct WireCount {
    pub sent: u64,
    pub round_trips: u64,
    pub ns: u64,
}

impl WireCounters {
    pub fn get(&self) -> WireCount {
        WireCount {
            sent: self.sent.load(Ordering::Relaxed),
            round_trips: self.round_trips.load(Ordering::Relaxed),
            ns: self.ns.load(Ordering::Relaxed),
        }
    }
}

/// A timing passthrough around an MI transport.
pub struct WireShim<T> {
    inner: T,
    counters: Arc<WireCounters>,
    awaiting_reply: bool,
}

impl<T> WireShim<T> {
    pub fn new(inner: T, counters: &Arc<WireCounters>) -> WireShim<T> {
        WireShim {
            inner,
            counters: counters.clone(),
            awaiting_reply: false,
        }
    }
}

impl<T: MiTransport> MiTransport for WireShim<T> {
    fn send_line(&mut self, line: &str) -> Result<(), MiError> {
        let start = Instant::now();
        let r = self.inner.send_line(line);
        let c = &self.counters;
        c.sent.fetch_add(1, Ordering::Relaxed);
        c.ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.awaiting_reply = true;
        r
    }

    fn recv_line(&mut self) -> Result<String, MiError> {
        let start = Instant::now();
        let r = self.inner.recv_line();
        let c = &self.counters;
        if std::mem::take(&mut self.awaiting_reply) {
            c.round_trips.fetch_add(1, Ordering::Relaxed);
        }
        c.ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    }
}

/// How much of a held round trip [`SlowLink`] spins instead of sleeping.
const SPIN: Duration = Duration::from_micros(100);

/// An MI transport to a [`MockGdb`] whose round trips take a fixed
/// latency: the first reply after a burst of sends is held until
/// `latency` after the first of them, as on a slow link to an embedded
/// target.
pub struct SlowLink {
    inner: MockGdb,
    latency: Duration,
    sent_at: Option<Instant>,
}

impl SlowLink {
    pub fn new(inner: MockGdb, latency: Duration) -> SlowLink {
        SlowLink {
            inner,
            latency,
            sent_at: None,
        }
    }
}

impl MiTransport for SlowLink {
    fn send_line(&mut self, line: &str) -> Result<(), MiError> {
        // The mock keeps every command it receives for protocol tests;
        // a real gdb's memory is not the debugger's, so drop the log.
        self.inner.log.clear();
        self.sent_at.get_or_insert_with(Instant::now);
        self.inner.send_line(line)
    }

    fn recv_line(&mut self) -> Result<String, MiError> {
        if let Some(t0) = self.sent_at.take() {
            // Sleep most of the way and spin the rest: a sleep alone
            // overshoots by the timer slack, which varies with load.
            let due = t0 + self.latency;
            let now = Instant::now();
            if due > now + SPIN {
                std::thread::sleep(due - now - SPIN);
            }
            while Instant::now() < due {
                std::hint::spin_loop();
            }
        }
        self.inner.recv_line()
    }
}
