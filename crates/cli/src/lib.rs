#![warn(missing_docs)]

//! The REPL engine behind the `duel` binary.
//!
//! Lines starting with `.` are debugger commands (`.help` lists them);
//! anything else is a DUEL expression, evaluated as the paper's
//! `gdb> duel expr`. [`Repl::handle`] processes one line and appends the
//! output to a `String`, which is what makes the command surface
//! testable without a terminal.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use duel_core::{DuelError, EvalOptions, EvalStats, Session, SymMode, Value};
use duel_minic::{Debugger, StopReason};
use duel_target::trace::{dump_line, fmt_ns};
use duel_target::{
    chrome_trace_json, folded_stacks, scenario, CacheConfig, CachedTarget, ChaosHandle,
    FaultTarget, FlameWeight, MetaCapture, MetaSnapshot, MetaTarget, MetricsRegistry,
    MetricsSnapshot, RecordTarget, ReplayMode, ReplayTarget, RetryTarget, SimTarget, SpanContext,
    SpanSnapshot, SupervisedTarget, Target, TraceHandle, TraceStats, TraceTarget,
};

/// The REPL's decorator tower: tracing outermost (so its counters see
/// the evaluator's traffic, cache hits included), the backend
/// supervisor next (circuit breaker, degraded stale reads, reconnect —
/// it watches the *retried* failure stream, so one window entry per
/// operation), retry under it, the page cache over the flight recorder,
/// the recorder directly over the debuggee. Record sits *innermost* so
/// a capture holds the calls that actually reached the backend — cache
/// hits never hollow it out — and it is a pure passthrough until
/// `.record` arms it.
type Tower<T> = TraceTarget<SupervisedTarget<RetryTarget<CachedTarget<RecordTarget<T>>>>>;

/// The cache layer of the REPL's tower and everything below it.
type Cache = CachedTarget<RecordTarget<Debuggee>>;

/// What the REPL debugs: the innermost layer of its one tower, handing
/// every call to whichever backend is loaded.
pub(crate) enum Debuggee {
    /// Simulated debuggees carry a fault gate innermost so `.chaos`
    /// can kill/hang/garble the "wire" under the whole tower.
    Sim(FaultTarget<SimTarget>),
    Minic(Debugger),
    Replay(ReplayTarget),
}

impl duel_target::Layer for Debuggee {
    type Inner = dyn Target;

    fn below(&self) -> &(dyn Target + 'static) {
        match self {
            Debuggee::Sim(t) => t,
            Debuggee::Minic(d) => d,
            Debuggee::Replay(r) => r,
        }
    }

    fn below_mut(&mut self) -> &mut (dyn Target + 'static) {
        match self {
            Debuggee::Sim(t) => t,
            Debuggee::Minic(d) => d,
            Debuggee::Replay(r) => r,
        }
    }
}

impl Debuggee {
    /// A simulated debuggee behind its fault gate.
    fn sim(t: SimTarget) -> Debuggee {
        Debuggee::Sim(FaultTarget::gate(t))
    }

    /// Builds the REPL's tower over this debuggee, around the
    /// session's trace handle and span timeline.
    fn tower(self, cache: bool, trace: &TraceHandle, spans: &SpanContext) -> Box<Tower<Debuggee>> {
        let cfg = CacheConfig {
            enabled: cache,
            ..CacheConfig::default()
        };
        Box::new(TraceTarget::with_handles(
            SupervisedTarget::new(RetryTarget::new(CachedTarget::with_config(
                RecordTarget::new(self),
                cfg,
            ))),
            "session",
            trace.clone(),
            spans.clone(),
        ))
    }

    /// The backend label written into capture headers.
    fn label(&self) -> &'static str {
        match self {
            Debuggee::Sim(_) => "sim",
            Debuggee::Minic(_) => "minic",
            Debuggee::Replay(_) => "replay",
        }
    }

    /// The chaos gate of a simulated backend (`.chaos` commands).
    fn chaos(&self) -> Option<ChaosHandle> {
        match self {
            Debuggee::Sim(gate) => Some(gate.handle()),
            _ => None,
        }
    }

    /// The replay target, when this is a replay session.
    fn replay(&self) -> Option<&ReplayTarget> {
        match self {
            Debuggee::Replay(r) => Some(r),
            _ => None,
        }
    }
}

/// The REPL engine: owns the debuggee backend, the DUEL aliases, and
/// the evaluation options; `handle` processes one input line and
/// appends its output to a sink, so the whole command surface is unit
/// testable.
pub struct Repl {
    backend: Box<Tower<Debuggee>>,
    aliases: HashMap<String, Value>,
    options: EvalOptions,
    last_stats: EvalStats,
    cache_enabled: bool,
    /// Sticky `.set degrade` state, reapplied when the backend (and
    /// with it the supervisor) is replaced.
    degrade_enabled: bool,
    /// The session's wire counters: every tower the REPL builds
    /// (`.scenario`/`.load`/`.replay`) is built around this one handle,
    /// so `.trace on|off` and the counters outlive backend swaps.
    trace: TraceHandle,
    /// The session's one span timeline (wire spans included), shared by
    /// every tower like `trace`; `.set trace_buf` bounds it.
    spans: SpanContext,
    /// Session-lifetime evaluator counters, fed after every evaluated
    /// command; reset only by `.trace clear`.
    metrics: MetricsRegistry,
    /// Label of the current debuggee (scenario name or program path),
    /// written into capture headers by `.record`.
    scenario_label: String,
}

const HELP: &str = "\
DUEL commands:
  <expr>             evaluate a DUEL expression (try: x[..10] >? 5)
  .help              this message
  .scenario NAME     load a built-in debuggee: scan range hash full
                     violation lists tree argv combined
  .load FILE         compile FILE as mini-C and debug it
  .break N           set a breakpoint at line N
  .delete N          remove the breakpoint at line N
  .breaks            list breakpoints
  .run / .cont       run / continue the mini-C program
  .step              step one source line
  .watch EXPR        stop when the DUEL expression's values change
  .frames            show the stopped program's frames
  .ast EXPR          show the AST in the paper's LISP-like notation
  .stats             full tower counters: last evaluation, cache,
                     retry, supervision, target-call trace, recorder
  .stats json        the same counters plus live metrics as one
                     machine-readable JSON document
  .health            probe the backend; circuit and reconnect status
  .health reconnect  force a reconnect + session resync now
  .chaos CMD         fault-inject the sim backend: kill hang garble
                     revive, heal N, campaign SEED EVENTS SPAN
  .record FILE       start capturing every backend call to FILE
                     (JSONL; finalized by `.record stop` or exit)
  .record stop       finalize the capture; `.record` alone = status
  .replay FILE [strict|permissive]
                     serve the session from a capture instead of a
                     live backend (strict: exact recorded sequence,
                     permissive: new expressions over frozen state)
  .trace on|off      record every target call (latency, outcome) as a
                     wire span under the evaluator node that caused it;
                     counters and spans live for the whole session
  .trace [dump [N]]  show per-op latency stats / the last N wire calls
  .trace clear       reset trace counters, latency histograms, the
                     span ring, and live metrics
  .trace export FILE write a Chrome trace-event JSON of the span tree
                     and its wire calls (load in ui.perfetto.dev)
  .trace flame FILE [ns|reads]
                     write folded stacks weighted by wire latency or
                     backend reads (flamegraph.pl / speedscope input)
  .top               live view: hottest AST nodes (by exclusive span
                     time), wire ops, and busiest metric counters
  .query EXPR        evaluate a DUEL expression against a snapshot of
                     the debugger's own telemetry (roots: spans,
                     events, counters, hists, cache, breaker; e.g.
                     `.query events[..nevents].lat_ns >? 1000`)
  .profile EXPR      evaluate EXPR, then show per-node costs (ticks,
                     wire reads), hottest first
  .explain EXPR      evaluate EXPR, then show its AST annotated with
                     per-node costs
  .aliases           list DUEL aliases (`a := e`, declarations)
  .clear             drop all aliases
  .set trace on|off  log every generator resumption (the paper's eval)
  .set lazy|eager    symbolic-value construction (experiment E4)
  .set threshold N   `->a->a…` compression threshold (default 4)
  .set maxvalues N   value limit per command
  .set maxsteps N    step budget per command (also: --max-steps)
  .set maxdepth N    generator nesting budget (also: --max-depth)
  .set timeout N     per-command deadline in ms, 0 = off (--timeout-ms)
  .set errors tolerant|strict
                     render faults as <error: ...> values, or abort the
                     command at the first fault (default: tolerant)
  .set cache on|off  page-cache + lookup memoization over the debugger
                     wire (default: on; also: --no-cache)
  .set degrade on|off
                     while the circuit is open, serve reads from cache
                     tagged <stale> instead of failing (default: on)
  .set prefetch on|off
                     generator-aware prefetch: warm the cache with one
                     vectored read before contiguous scans (`x[a..b]`),
                     and fetch `-->` walks over field links one tree
                     level per read (`hash[..n]-->next`,
                     `root-->(left,right)`) (default: off)
  .set trace_buf N   capacity of the span ring, wire spans included
                     (default 8192; one span costs ~100-140 bytes,
                     so 8192 spans ≈ 1 MiB)
  .quit              exit
";

/// Renders the hottest-spans / hottest-wire-ops / busiest-counters
/// tables shared by the live `.top` view and `duel-replay --top`.
/// `spans: None` skips the span table (the live view passes `None`
/// when tracing is off, after printing its own hint); `limit`
/// bounds the span rows (wire ops and counters keep their fixed 6/8
/// budgets so the view stays one screen).
pub fn render_top_report(
    spans: Option<&SpanSnapshot>,
    trace: &TraceStats,
    metrics: &MetricsSnapshot,
    limit: usize,
    out: &mut String,
) {
    if let Some(snap) = spans {
        let agg = snap.aggregate();
        let _ = writeln!(
            out,
            "  {:<10} {:>6} {:>10} {:>10}  node",
            "kind", "count", "self", "total"
        );
        for row in agg.iter().take(limit) {
            let _ = writeln!(
                out,
                "  {:<10} {:>6} {:>10} {:>10}  {}{}",
                row.kind.name(),
                row.count,
                fmt_ns(row.self_ns),
                fmt_ns(row.total_ns),
                row.name,
                if row.detail.is_empty() {
                    String::new()
                } else {
                    format!(" {}", row.detail)
                }
            );
        }
    }
    let mut ops: Vec<_> = trace.ops.iter().filter(|o| o.calls > 0).collect();
    ops.sort_by_key(|o| std::cmp::Reverse(o.total_ns));
    if !ops.is_empty() {
        let _ = writeln!(out, "  wire ops by total latency:");
        for o in ops.iter().take(6) {
            let _ = writeln!(
                out,
                "    {:<13} {:>8} calls {:>6} errors  total {:>8}  p99 {:>8}",
                o.op.name(),
                o.calls,
                o.errors,
                fmt_ns(o.total_ns),
                fmt_ns(o.quantile_ns(0.99))
            );
        }
    }
    let mut counters = metrics.counters.clone();
    counters.sort_by_key(|c| std::cmp::Reverse(c.1));
    if counters.is_empty() {
        let _ = writeln!(out, "  no metrics yet (evaluate something first)");
    } else {
        let _ = writeln!(out, "  busiest counters:");
        for (name, v) in counters.iter().take(8) {
            let _ = writeln!(out, "    {name:<28} {v}");
        }
    }
}

impl Repl {
    /// Creates a REPL over the combined built-in scenario.
    pub fn new() -> Repl {
        Repl::with_options(Repl::default_options())
    }

    /// Creates a REPL with explicit evaluation options (the binary
    /// feeds the `--max-steps`/`--max-depth`/`--timeout-ms` flags
    /// through here).
    pub fn with_options(options: EvalOptions) -> Repl {
        Repl::with_config(options, true)
    }

    /// Creates a REPL with explicit options and an initial caching
    /// state (`--no-cache` passes `cache_enabled = false`).
    pub fn with_config(options: EvalOptions, cache_enabled: bool) -> Repl {
        let (trace, spans) = (TraceHandle::new(), SpanContext::default());
        Repl {
            backend: Debuggee::sim(scenario::combined()).tower(cache_enabled, &trace, &spans),
            aliases: HashMap::new(),
            options,
            last_stats: EvalStats::default(),
            cache_enabled,
            degrade_enabled: true,
            trace,
            spans,
            metrics: MetricsRegistry::new(),
            scenario_label: "combined".into(),
        }
    }

    /// The cache layer of the tower (over the recorder and debuggee).
    fn cache(&self) -> &Cache {
        self.backend.inner().inner().inner()
    }

    fn cache_mut(&mut self) -> &mut Cache {
        self.backend.inner_mut().inner_mut().inner_mut()
    }

    fn debuggee(&self) -> &Debuggee {
        self.cache().inner().inner()
    }

    /// Arms the flight recorder. The page cache is invalidated first so
    /// the capture starts cold: a capture that begins against a warm
    /// cache would be missing the reads a cold replay re-issues.
    fn record_start(&mut self, path: &str, scenario: &str) -> std::io::Result<()> {
        let label = self.debuggee().label();
        let cache = self.cache_mut();
        cache.invalidate_all();
        cache.inner_mut().start_file(path, label, scenario)
    }

    /// (recording?, events written, sticky sink error).
    fn record_info(&self) -> (bool, u64, Option<String>) {
        let r = self.cache().inner();
        (
            r.is_recording(),
            r.events_recorded(),
            r.last_error().map(str::to_string),
        )
    }

    /// Swaps in a new debuggee: finalizes an in-flight recording,
    /// builds the tower around the session's trace handle and span
    /// timeline (so telemetry carries over), reapplies degrade mode to
    /// the fresh supervisor, and drops the aliases.
    fn replace_backend(&mut self, debuggee: Debuggee, out: &mut String) {
        self.note_recording_dropped(out);
        self.backend = debuggee.tower(self.cache_enabled, &self.trace, &self.spans);
        self.backend.inner_mut().set_degrade(self.degrade_enabled);
        self.aliases.clear();
    }

    /// The session's span timeline (`--trace-perfetto` exports from it
    /// at exit; shared by every tower the session builds).
    pub fn span_context(&self) -> SpanContext {
        self.spans.clone()
    }

    /// The session's metrics: the registry's evaluator counters plus
    /// the `wire.<op>.{calls,errors,ns}` counters read from the session
    /// trace handle (`.top`, `.stats json` and `.query` read this).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics
            .snapshot()
            .with_counters(self.trace.snapshot().wire_counters())
    }

    /// Charges the just-finished command's evaluator counters to the
    /// session metrics registry.
    fn feed_metrics(&mut self) {
        let s = &self.last_stats;
        let m = &self.metrics;
        m.counter("eval.commands").inc();
        m.counter("eval.values").add(s.values);
        m.counter("eval.ticks").add(s.ticks);
        m.counter("eval.yields").add(s.yields);
        m.counter("eval.expansions").add(s.expansions);
        m.counter("eval.stale_values").add(s.stale_values);
        m.counter("eval.prefetch_calls").add(s.prefetch_calls);
        m.counter("eval.windows_planned").add(s.windows_planned);
        m.counter("eval.windows_inflight").add(s.windows_inflight);
        m.counter("eval.pipeline_overlap_ns")
            .add(s.pipeline_overlap_ns);
        m.histogram("eval.ticks_per_command").observe(s.ticks);
        m.histogram("eval.values_per_command").observe(s.values);
    }

    /// The session's trace handle (the `--trace-json` exporter reads
    /// it; shared by every tower the session builds).
    pub fn trace_handle(&self) -> TraceHandle {
        self.trace.clone()
    }

    /// The chaos gate of the simulated backend (`None` for mini-C and
    /// replay sessions). Lets test harnesses script fault campaigns
    /// against the full tower without going through `.chaos` text
    /// commands.
    pub fn chaos_handle(&self) -> Option<ChaosHandle> {
        self.debuggee().chaos()
    }

    /// Turns tracing on or off (the `.trace on|off` command): the
    /// per-op counters and the wire and evaluator spans together.
    pub fn set_tracing(&mut self, on: bool) {
        self.trace.set_enabled(on);
        self.spans.set_enabled(on);
    }

    /// Exports the trace as a JSON document (the `--trace-json FILE`
    /// flag writes this at exit). The envelope follows the shared
    /// `schema_version`/`name`/`config`/`metrics` convention used by
    /// the bench reports and capture files.
    pub fn trace_json(&self) -> String {
        format!(
            "{{\"schema_version\":1,\"name\":\"duel_trace\",\
             \"config\":{{\"backend\":\"{}\",\"scenario\":\"{}\",\"cache\":{}}},\
             \"metrics\":{{\"layers\":[{}]}}}}",
            self.debuggee().label(),
            self.scenario_label
                .replace('\\', "\\\\")
                .replace('"', "\\\""),
            self.cache_enabled,
            self.trace.to_json("session", &self.spans.snapshot())
        )
    }

    /// Resizes the span ring (the `--trace-buf N` flag and `.set
    /// trace_buf N`).
    pub fn set_trace_buf(&mut self, n: usize) {
        self.spans.set_capacity(n);
    }

    /// The Chrome trace-event JSON of the span tree and its wire calls
    /// (the `--trace-perfetto FILE` flag writes this at exit; loadable
    /// in ui.perfetto.dev).
    pub fn perfetto_json(&self) -> String {
        chrome_trace_json(&self.spans.snapshot())
    }

    /// The `.stats json` document: every tower counter in one
    /// machine-readable dump, using the shared
    /// `schema_version`/`name`/`config`/`metrics` envelope that bench
    /// reports, capture files, and `--trace-json` all follow.
    pub fn stats_json(&self) -> String {
        let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        let c = self.cache().stats();
        let r = self.backend.inner().inner().stats();
        let sup = self.backend.inner().stats();
        let t = self.trace.snapshot();
        let spans = self.spans.snapshot();
        let s = &self.last_stats;
        let mut members = vec![
            format!("\"eval_values\":{}", s.values),
            format!("\"eval_ticks\":{}", s.ticks),
            format!("\"eval_max_depth\":{}", s.max_depth),
            format!("\"eval_expansions\":{}", s.expansions),
            format!("\"eval_yields\":{}", s.yields),
            format!("\"eval_stale_values\":{}", s.stale_values),
            format!("\"eval_trace_id\":{}", s.trace_id),
            format!("\"eval_windows_planned\":{}", s.windows_planned),
            format!("\"eval_windows_inflight\":{}", s.windows_inflight),
            format!("\"eval_pipeline_overlap_ns\":{}", s.pipeline_overlap_ns),
            format!("\"cache_page_hits\":{}", c.page_hits),
            format!("\"cache_page_misses\":{}", c.page_misses),
            format!("\"cache_backend_reads\":{}", c.backend_reads),
            format!("\"cache_wire_bytes\":{}", c.wire_bytes),
            format!("\"retry_operations\":{}", r.operations),
            format!("\"retry_retries\":{}", r.retries),
            format!("\"retry_give_ups\":{}", r.give_ups),
            format!("\"supervise_trips\":{}", sup.trips),
            format!("\"supervise_reconnects\":{}", sup.reconnects),
            format!("\"supervise_fast_fails\":{}", sup.fast_fails),
            format!("\"supervise_stale_reads\":{}", sup.stale_reads),
            format!("\"trace_calls\":{}", t.total_calls()),
            format!("\"trace_errors\":{}", t.total_errors()),
            format!("\"spans_buffered\":{}", spans.spans.len()),
            format!("\"spans_open\":{}", spans.open.len()),
            format!("\"spans_dropped\":{}", spans.dropped),
        ];
        let registry = self.metrics().to_json_members();
        if !registry.is_empty() {
            members.push(registry);
        }
        format!(
            "{{\"schema_version\":1,\"name\":\"duel_stats\",\
             \"config\":{{\"backend\":\"{}\",\"scenario\":\"{}\",\"cache\":{},\
             \"prefetch\":{},\"degrade\":{},\"trace\":{},\"trace_buf\":{}}},\
             \"metrics\":{{{}}}}}",
            self.debuggee().label(),
            esc(&self.scenario_label),
            self.cache_enabled,
            self.options.prefetch,
            self.degrade_enabled,
            self.trace.is_enabled(),
            self.spans.capacity(),
            members.join(",")
        )
    }

    /// Renders the `.top` live view: hottest AST nodes by exclusive
    /// span time, hottest wire ops, and the busiest registry counters.
    /// The tables themselves are sugar over canonical `.query`
    /// meta-queries (documented side by side in docs/LANGUAGE.md);
    /// the shared renderer also serves `duel-replay --top`.
    fn render_top(&self, out: &mut String) {
        let _ = writeln!(out, "top — hottest since `.trace clear`");
        let spans = if self.spans.is_enabled() {
            Some(self.spans.snapshot())
        } else {
            let _ = writeln!(out, "  (tracing is off — `.trace on` to rank AST nodes)");
            None
        };
        render_top_report(
            spans.as_ref(),
            &self.trace.snapshot(),
            &self.metrics(),
            10,
            out,
        );
        let _ = writeln!(
            out,
            "  (each table generalizes to `.query` — try \
             `.query spans[..nspans].self_ns`)"
        );
    }

    /// Freezes every telemetry source of the session into one
    /// [`MetaSnapshot`]: the span ring with its wire spans, the session
    /// metrics, the current tower's cache/retry/supervision counters, and the
    /// replayed capture's identity when the session is offline. The
    /// snapshot is a copy — `.query` evaluates against it without
    /// touching the debuggee or the tower.
    pub fn meta_snapshot(&self) -> MetaSnapshot {
        MetaSnapshot {
            spans: self.spans.snapshot(),
            metrics: self.metrics(),
            cache: self.cache().stats().clone(),
            resident_pages: self.cache().resident_page_count() as u64,
            retry: self.backend.inner().inner().stats(),
            supervise: self.backend.inner().stats(),
            circuit: self.backend.inner().state(),
            capture: self.debuggee().replay().map(|r| MetaCapture {
                backend: r.backend_label().to_string(),
                scenario: r.scenario_label().to_string(),
                events: r.events_total() as u64,
            }),
        }
    }

    /// The `.query EXPR` body: one-shot DUEL evaluation against a
    /// fresh [`MetaTarget`] built from [`Repl::meta_snapshot`].
    /// Deliberately bypasses `feed_metrics` and the op deadline — a
    /// meta-query must perturb neither the metrics it inspects nor
    /// the debuggee tower.
    fn meta_query(&mut self, expr: &str, out: &mut String) {
        let snap = self.meta_snapshot();
        let mut meta = MetaTarget::new(&snap);
        let (lines, err) = duel_core::oneshot_lines(&mut meta, expr, &self.options);
        for l in lines {
            let _ = writeln!(out, "{l}");
        }
        if let Some(e) = err {
            let _ = writeln!(out, "{e}");
        }
    }

    /// The REPL's default options: like [`EvalOptions::default`], but
    /// fault-tolerant — an unreadable element of a stream prints as
    /// `<error: ...>` and the session keeps going, since an interactive
    /// debugging session should not lose the rest of a scan to one bad
    /// pointer.
    pub fn default_options() -> EvalOptions {
        EvalOptions {
            error_values: true,
            ..EvalOptions::default()
        }
    }

    /// The wall-clock deadline for the next command, derived from
    /// `.set timeout`; armed on the retry layer so backoff sleeps are
    /// clamped against the same budget the evaluator enforces.
    fn arm_op_deadline(&mut self) {
        let deadline = if self.options.timeout_ms > 0 {
            Some(Instant::now() + Duration::from_millis(self.options.timeout_ms))
        } else {
            None
        };
        self.backend
            .inner_mut()
            .inner_mut()
            .set_op_deadline(deadline);
    }

    fn eval(&mut self, line: &str, out: &mut String) {
        self.arm_op_deadline();
        let session = Session::with_state(
            &mut *self.backend,
            std::mem::take(&mut self.aliases),
            self.options.clone(),
        );
        let mut session = session;
        match session.eval_partial(line) {
            Ok((lines, err)) => {
                for l in duel_core::session::render_lines(&lines) {
                    let _ = writeln!(out, "{l}");
                }
                if let Some(e) = err {
                    let _ = writeln!(out, "{e}");
                }
            }
            Err(e) => {
                let _ = writeln!(out, "{e}");
            }
        }
        self.last_stats = session.last_stats();
        for line in session.take_trace() {
            let _ = writeln!(out, "| {line}");
        }
        self.aliases = session.into_aliases();
        self.backend.inner_mut().inner_mut().set_op_deadline(None);
        self.feed_metrics();
    }

    /// Shared body of `.profile` (cost table) and `.explain` (annotated
    /// AST tree): evaluates under the profiler, prints the values, then
    /// the per-node costs.
    fn profile(&mut self, explain: bool, expr: &str, out: &mut String) {
        self.arm_op_deadline();
        let mut session = Session::with_state(
            &mut *self.backend,
            std::mem::take(&mut self.aliases),
            self.options.clone(),
        );
        match session.profile(expr) {
            Ok((lines, err, report)) => {
                for l in duel_core::session::render_lines(&lines) {
                    let _ = writeln!(out, "{l}");
                }
                if let Some(e) = err {
                    let _ = writeln!(out, "{e}");
                }
                if explain {
                    out.push_str(&report.render_tree());
                } else {
                    out.push_str(&report.render_table(12));
                }
            }
            Err(e) => {
                let _ = writeln!(out, "{e}");
            }
        }
        self.last_stats = session.last_stats();
        self.aliases = session.into_aliases();
        self.backend.inner_mut().inner_mut().set_op_deadline(None);
        self.feed_metrics();
    }

    /// Finalizes an in-flight recording before the backend (and with it
    /// the armed `RecordTarget`) is replaced, and tells the user.
    fn note_recording_dropped(&mut self, out: &mut String) {
        if self.record_info().0 {
            match self.cache_mut().inner_mut().stop() {
                Ok(n) => {
                    let _ = writeln!(out, "recording finalized ({n} events): backend replaced");
                }
                Err(e) => {
                    let _ = writeln!(out, "recording lost: {e}");
                }
            }
        }
    }

    fn command(&mut self, line: &str, out: &mut String) -> bool {
        let mut parts = line.split_whitespace();
        let cmd = parts.next().unwrap_or("");
        let arg = parts.next().unwrap_or("");
        match cmd {
            ".quit" | ".q" | ".exit" => return false,
            ".help" | ".h" => out.push_str(HELP),
            ".scenario" => {
                let t = match arg {
                    "scan" => Some(scenario::scan_array()),
                    "range" => Some(scenario::range_array()),
                    "hash" => Some(scenario::hash_table_basic()),
                    "full" => Some(scenario::hash_table_full()),
                    "violation" => Some(scenario::hash_table_sorted_violation()),
                    "lists" => Some(scenario::linked_lists()),
                    "tree" => Some(scenario::binary_tree()),
                    "argv" => Some(scenario::argv_strings()),
                    "combined" | "" => Some(scenario::combined()),
                    other => {
                        let _ = writeln!(out, "unknown scenario `{other}`");
                        None
                    }
                };
                if let Some(t) = t {
                    self.replace_backend(Debuggee::sim(t), out);
                    self.scenario_label = if arg.is_empty() { "combined" } else { arg }.to_string();
                    let _ = writeln!(out, "scenario loaded; aliases cleared");
                }
            }
            ".load" => match std::fs::read_to_string(arg) {
                Ok(src) => match Debugger::new(&src) {
                    Ok(d) => {
                        self.replace_backend(Debuggee::Minic(d), out);
                        self.scenario_label = arg.to_string();
                        let _ = writeln!(out, "compiled `{arg}`; set breakpoints and .run");
                    }
                    Err(e) => {
                        let _ = writeln!(out, "compile error: {e}");
                    }
                },
                Err(e) => {
                    let _ = writeln!(out, "cannot read `{arg}`: {e}");
                }
            },
            ".break" | ".delete" | ".breaks" | ".run" | ".cont" | ".step" | ".frames"
            | ".watch" => {
                let rest = line.split_once(' ').map(|x| x.1).unwrap_or("").to_string();
                self.debugger_command(cmd, if cmd == ".watch" { &rest } else { arg }, out)
            }
            ".ast" => {
                let expr = line.split_once(' ').map(|x| x.1).unwrap_or("");
                let mut session = Session::with_state(
                    &mut *self.backend,
                    std::mem::take(&mut self.aliases),
                    self.options.clone(),
                );
                match session.parse(expr) {
                    Ok(ast) => {
                        let _ = writeln!(out, "{}", duel_core::to_sexpr(&ast));
                    }
                    Err(e) => {
                        let _ = writeln!(out, "{e}");
                    }
                }
                self.aliases = session.into_aliases();
            }
            ".top" => self.render_top(out),
            ".query" => {
                let expr = line.split_once(' ').map(|x| x.1).unwrap_or("").trim();
                if expr.is_empty() {
                    let _ = writeln!(
                        out,
                        "usage: .query EXPR — DUEL over the debugger's own telemetry\n\
                         roots: spans[..nspans] events[..nevents] counters[..ncounters]\n\
                         \x20      hists[..nhists] cache breaker (see docs/LANGUAGE.md)"
                    );
                } else {
                    self.meta_query(expr, out);
                }
            }
            ".stats" if arg == "json" => {
                let _ = writeln!(out, "{}", self.stats_json());
            }
            ".stats" => {
                let _ = writeln!(
                    out,
                    "eval: {} values, {} ticks, depth {}, {} expansions, {} yields{}",
                    self.last_stats.values,
                    self.last_stats.ticks,
                    self.last_stats.max_depth,
                    self.last_stats.expansions,
                    self.last_stats.yields,
                    if self.last_stats.stale_values > 0 {
                        format!(", {} stale", self.last_stats.stale_values)
                    } else {
                        String::new()
                    }
                );
                let c = self.cache().stats();
                let _ = writeln!(
                    out,
                    "cache: {} ({} page hits, {} misses, {} backend reads, {} bytes over the wire)",
                    if self.cache_enabled { "on" } else { "off" },
                    c.page_hits,
                    c.page_misses,
                    c.backend_reads,
                    c.wire_bytes
                );
                let _ = writeln!(
                    out,
                    "lookups: {} memoized, {} fetched; {} invalidations",
                    c.lookup_hits, c.lookup_misses, c.invalidations
                );
                let _ = writeln!(
                    out,
                    "prefetch: {} ({} warm-ups, {} ranges warmed; {} vectored turns on the wire)",
                    if self.options.prefetch { "on" } else { "off" },
                    self.last_stats.prefetch_calls,
                    self.last_stats.prefetch_ranges,
                    self.trace.calls(duel_target::TraceOp::MultiRead)
                );
                let _ = writeln!(
                    out,
                    "pipeline: {} windows planned, {} submitted ahead, overlap {}",
                    self.last_stats.windows_planned,
                    self.last_stats.windows_inflight,
                    fmt_ns(self.last_stats.pipeline_overlap_ns)
                );
                let r = self.backend.inner().inner().stats();
                let _ = writeln!(
                    out,
                    "retry: {} operations, {} retries, {} give-ups, {} backoff",
                    r.operations,
                    r.retries,
                    r.give_ups,
                    fmt_ns(r.backoff_ns)
                );
                let s = self.backend.inner().stats();
                let _ = writeln!(
                    out,
                    "supervise: circuit {}; {} ops, {} failures, {} trips, {} reconnects, \
                     {} fast-fails, {} stale reads; degrade {}",
                    self.backend.inner().state().name(),
                    s.operations,
                    s.failures,
                    s.trips,
                    s.reconnects,
                    s.fast_fails,
                    s.stale_reads,
                    if self.backend.inner().config().degrade {
                        "on"
                    } else {
                        "off"
                    }
                );
                let t = self.trace.snapshot();
                let spans = self.spans.snapshot();
                let _ = writeln!(
                    out,
                    "trace: {} ({} calls recorded, {} errors, {} wire spans buffered, {} spans dropped)",
                    if self.trace.is_enabled() { "on" } else { "off" },
                    t.total_calls(),
                    t.total_errors(),
                    spans.wire().count(),
                    spans.dropped
                );
                let (rec_on, rec_events, rec_err) = self.record_info();
                match self.debuggee().replay() {
                    Some(r) => {
                        let _ = writeln!(
                            out,
                            "replay: {:?}, {}/{} events consumed{}",
                            r.mode(),
                            r.events_consumed(),
                            r.events_total(),
                            match r.divergence() {
                                Some(d) => format!("; DIVERGED at event {}", d.at),
                                None => String::new(),
                            }
                        );
                    }
                    None => {
                        let _ = writeln!(
                            out,
                            "record: {}{}",
                            if rec_on {
                                format!("on ({rec_events} events captured)")
                            } else {
                                "off".to_string()
                            },
                            rec_err.map(|e| format!(" [{e}]")).unwrap_or_default()
                        );
                    }
                }
            }
            ".health" => match arg {
                "reconnect" => match self.backend.inner_mut().force_reconnect() {
                    Ok(r) => {
                        let _ = writeln!(out, "reconnected; {}", r.render());
                    }
                    Err(e) => {
                        let _ = writeln!(out, "reconnect failed: {e}");
                    }
                },
                "" => {
                    let probe = self.backend.inner_mut().health_check();
                    let state = self.backend.inner().state();
                    match probe {
                        Ok(()) => {
                            let _ = writeln!(out, "backend healthy; circuit {}", state.name());
                        }
                        Err(e) => {
                            let _ = writeln!(
                                out,
                                "backend unhealthy: {e}; circuit {}",
                                self.backend.inner().state().name()
                            );
                        }
                    }
                    let s = self.backend.inner().stats();
                    let _ = writeln!(
                        out,
                        "probes: {} ({} failed); trips: {}; reconnects: {} ({} failed)",
                        s.probes, s.probe_failures, s.trips, s.reconnects, s.reconnect_failures
                    );
                    if let Some(f) = self.backend.inner().last_failure() {
                        let _ = writeln!(out, "last failure: {f}");
                    }
                    if let Some(r) = self.backend.inner().last_resync() {
                        let _ = writeln!(out, "last {}", r.render());
                    }
                }
                other => {
                    let _ = writeln!(out, "usage: .health [reconnect] (got `{other}`)");
                }
            },
            ".chaos" => match self.debuggee().chaos() {
                None => {
                    let _ = writeln!(out, "chaos: only the simulated backend has a chaos gate");
                }
                Some(h) => match arg {
                    "" => {
                        let _ = writeln!(
                            out,
                            "chaos: mode {}, {} ops gated, {} faults injected",
                            h.mode().name(),
                            h.ops(),
                            h.injected()
                        );
                    }
                    "kill" => {
                        h.kill();
                        let _ = writeln!(out, "chaos: backend killed");
                    }
                    "hang" => {
                        h.hang();
                        let _ = writeln!(out, "chaos: backend hung");
                    }
                    "garble" => {
                        h.garble();
                        let _ = writeln!(out, "chaos: backend garbling replies");
                    }
                    "revive" => {
                        h.revive();
                        let _ = writeln!(out, "chaos: backend revived");
                    }
                    "heal" => match line.split_whitespace().nth(2).and_then(|v| v.parse().ok()) {
                        Some(n) => {
                            h.heal_after(n);
                            let _ = writeln!(out, "chaos: healing after {n} more ops");
                        }
                        None => {
                            let _ = writeln!(out, "usage: .chaos heal N");
                        }
                    },
                    "campaign" => {
                        let mut nums = line
                            .split_whitespace()
                            .skip(2)
                            .map(|v| v.parse::<u64>().ok());
                        match (
                            nums.next().flatten(),
                            nums.next().flatten(),
                            nums.next().flatten(),
                        ) {
                            (Some(seed), Some(events), Some(span)) => {
                                let script = h.campaign(seed, events as usize, span);
                                let _ = writeln!(
                                    out,
                                    "chaos: campaign of {} events over {span} ops (seed {seed})",
                                    script.len()
                                );
                                for e in script {
                                    let _ = writeln!(out, "  op {:>6}: {:?}", e.at_op, e.action);
                                }
                            }
                            _ => {
                                let _ = writeln!(out, "usage: .chaos campaign SEED EVENTS SPAN");
                            }
                        }
                    }
                    other => {
                        let _ = writeln!(
                            out,
                            "usage: .chaos [kill|hang|garble|revive|heal N|\
                             campaign SEED EVENTS SPAN] (got `{other}`)"
                        );
                    }
                },
            },
            ".trace" => match arg {
                "on" => {
                    self.set_tracing(true);
                    let _ = writeln!(out, "tracing on");
                }
                "off" => {
                    self.set_tracing(false);
                    let _ = writeln!(out, "tracing off");
                }
                "clear" => {
                    // One reset story: counters, latency histograms, the
                    // span ring, and the metrics registry all clear
                    // together — no view may keep serving pre-clear data.
                    self.trace.clear();
                    self.spans.clear();
                    self.metrics.clear();
                    let _ = writeln!(out, "trace cleared");
                }
                "export" => {
                    let file = line.split_whitespace().nth(2).unwrap_or("");
                    if file.is_empty() {
                        let _ = writeln!(out, "usage: .trace export FILE");
                    } else {
                        let snap = self.spans.snapshot();
                        match std::fs::write(file, chrome_trace_json(&snap)) {
                            Ok(()) => {
                                let _ = writeln!(
                                    out,
                                    "trace exported to `{file}` ({} spans, {} wire calls; \
                                     load in ui.perfetto.dev)",
                                    snap.len(),
                                    snap.wire().count()
                                );
                            }
                            Err(e) => {
                                let _ = writeln!(out, "cannot write `{file}`: {e}");
                            }
                        }
                    }
                }
                "flame" => {
                    let file = line.split_whitespace().nth(2).unwrap_or("");
                    let weight = match line.split_whitespace().nth(3) {
                        None | Some("ns") => Some(FlameWeight::WireNs),
                        Some("reads") => Some(FlameWeight::WireReads),
                        Some(other) => {
                            let _ = writeln!(out, "unknown flame weight `{other}` (ns or reads)");
                            None
                        }
                    };
                    if file.is_empty() {
                        let _ = writeln!(out, "usage: .trace flame FILE [ns|reads]");
                    } else if let Some(weight) = weight {
                        let folded = folded_stacks(&self.spans.snapshot(), weight);
                        match std::fs::write(file, &folded) {
                            Ok(()) => {
                                let _ = writeln!(
                                    out,
                                    "folded stacks written to `{file}` ({} lines; \
                                     feed to flamegraph.pl or speedscope)",
                                    folded.lines().count()
                                );
                            }
                            Err(e) => {
                                let _ = writeln!(out, "cannot write `{file}`: {e}");
                            }
                        }
                    }
                }
                "dump" => {
                    let n = line
                        .split_whitespace()
                        .nth(2)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or(20);
                    let snap = self.spans.snapshot();
                    let wire: Vec<_> = snap.wire().collect();
                    if wire.is_empty() {
                        let _ = writeln!(
                            out,
                            "no events recorded{}",
                            if self.trace.is_enabled() {
                                ""
                            } else {
                                " (tracing is off)"
                            }
                        );
                    }
                    for w in &wire[wire.len().saturating_sub(n)..] {
                        let line =
                            dump_line(w.id, w.name, &w.detail, w.outcome, w.dur_ns, w.parent);
                        let _ = writeln!(out, "{line}");
                    }
                }
                "" => {
                    let t = self.trace.snapshot();
                    let _ = writeln!(
                        out,
                        "tracing {}; {} calls recorded, {} events buffered",
                        if self.trace.is_enabled() { "on" } else { "off" },
                        t.total_calls(),
                        self.spans.snapshot().wire().count()
                    );
                    for o in t.ops.iter().filter(|o| o.calls > 0) {
                        let _ = writeln!(
                            out,
                            "  {:<13} {:>8} calls {:>6} errors  mean {:>8}  p99 {:>8}",
                            o.op.name(),
                            o.calls,
                            o.errors,
                            fmt_ns(o.mean_ns()),
                            fmt_ns(o.quantile_ns(0.99))
                        );
                    }
                }
                other => {
                    let _ = writeln!(
                        out,
                        "usage: .trace [on|off|dump [N]|clear|\
                         export FILE|flame FILE [ns|reads]] (got `{other}`)"
                    );
                }
            },
            ".record" => match arg {
                "" => {
                    let (on, events, err) = self.record_info();
                    if let Some(e) = err {
                        let _ = writeln!(out, "recording stopped: {e}");
                    } else if on {
                        let _ = writeln!(out, "recording ({events} events captured)");
                    } else {
                        let _ = writeln!(out, "not recording (use `.record FILE`)");
                    }
                }
                "stop" => match self.cache_mut().inner_mut().stop() {
                    Ok(0) => {
                        let _ = writeln!(out, "not recording");
                    }
                    Ok(n) => {
                        let _ = writeln!(out, "capture finalized ({n} events)");
                    }
                    Err(e) => {
                        let _ = writeln!(out, "cannot finalize capture: {e}");
                    }
                },
                path => {
                    let scenario = self.scenario_label.clone();
                    match self.record_start(path, &scenario) {
                        Ok(()) => {
                            let _ = writeln!(out, "recording to `{path}`");
                        }
                        Err(e) => {
                            let _ = writeln!(out, "cannot record to `{path}`: {e}");
                        }
                    }
                }
            },
            ".replay" => {
                if arg.is_empty() {
                    match self.debuggee().replay() {
                        None => {
                            let _ = writeln!(out, "usage: .replay FILE [strict|permissive]");
                        }
                        Some(r) => {
                            let _ = writeln!(
                                out,
                                "replaying `{}` capture of scenario `{}` ({:?}, {}/{} events consumed)",
                                r.backend_label(),
                                r.scenario_label(),
                                r.mode(),
                                r.events_consumed(),
                                r.events_total()
                            );
                            if let Some(d) = r.divergence() {
                                let _ = writeln!(out, "{}", d.render());
                            }
                        }
                    }
                } else {
                    let mode = match line.split_whitespace().nth(2) {
                        None | Some("strict") => Some(ReplayMode::Strict),
                        Some("permissive") => Some(ReplayMode::Permissive),
                        Some(other) => {
                            let _ = writeln!(
                                out,
                                "unknown replay mode `{other}` (strict or permissive)"
                            );
                            None
                        }
                    };
                    if let Some(mode) = mode {
                        match ReplayTarget::load(arg, mode) {
                            Ok(r) => {
                                let total = r.events_total();
                                self.replace_backend(Debuggee::Replay(r), out);
                                let _ = writeln!(
                                    out,
                                    "replaying `{arg}` ({total} events, {mode:?}); aliases cleared"
                                );
                            }
                            Err(e) => {
                                let _ = writeln!(out, "cannot replay `{arg}`: {e}");
                            }
                        }
                    }
                }
            }
            ".profile" | ".explain" => {
                let expr = line.split_once(' ').map(|x| x.1).unwrap_or("").trim();
                if expr.is_empty() {
                    let _ = writeln!(out, "usage: {cmd} EXPR");
                } else {
                    self.profile(cmd == ".explain", expr, out);
                }
            }
            ".aliases" => {
                let mut names: Vec<&String> = self.aliases.keys().collect();
                names.sort();
                for n in names {
                    let _ = writeln!(out, "{n}");
                }
            }
            ".clear" => {
                self.aliases.clear();
                let _ = writeln!(out, "aliases cleared");
            }
            ".set" => {
                let val = line.split_whitespace().nth(2).unwrap_or("");
                match arg {
                    "trace" => {
                        self.options.trace = val == "on";
                    }
                    "lazy" => self.options.sym_mode = SymMode::Lazy,
                    "eager" => self.options.sym_mode = SymMode::Eager,
                    "threshold" => {
                        if let Ok(n) = val.parse() {
                            self.options.compress_threshold = n;
                        }
                    }
                    "maxvalues" => {
                        if let Ok(n) = val.parse() {
                            self.options.max_values = n;
                        }
                    }
                    "maxsteps" => {
                        if let Ok(n) = val.parse() {
                            self.options.max_ticks = n;
                        }
                    }
                    "maxdepth" => {
                        if let Ok(n) = val.parse() {
                            self.options.max_depth = n;
                        }
                    }
                    "timeout" => {
                        if let Ok(n) = val.parse() {
                            self.options.timeout_ms = n;
                        }
                    }
                    "errors" => {
                        self.options.error_values = val != "strict";
                    }
                    "cache" => {
                        self.cache_enabled = val != "off";
                        let on = self.cache_enabled;
                        self.cache_mut().set_enabled(on);
                    }
                    "degrade" => {
                        self.degrade_enabled = val != "off";
                        self.backend.inner_mut().set_degrade(self.degrade_enabled);
                    }
                    "prefetch" => {
                        self.options.prefetch = val == "on";
                    }
                    "trace_buf" => match val.parse::<usize>() {
                        Ok(n) if n > 0 => {
                            self.set_trace_buf(n);
                            let _ = writeln!(
                                out,
                                "trace ring resized to {n} spans (~{} KiB at worst)",
                                n.saturating_mul(140) / 1024
                            );
                        }
                        _ => {
                            let _ = writeln!(out, "usage: .set trace_buf N (N > 0)");
                        }
                    },
                    other => {
                        let _ = writeln!(out, "unknown option `{other}`");
                    }
                }
            }
            other => {
                let _ = writeln!(out, "unknown command `{other}` (try .help)");
            }
        }
        true
    }

    fn debugger_command(&mut self, cmd: &str, arg: &str, out: &mut String) {
        // The cache layer wraps the recorder (which wraps the debugger)
        // and owns invalidation.
        let cache = self.cache_mut();
        if !matches!(cache.inner().inner(), Debuggee::Minic(_)) {
            let _ = writeln!(out, "no program loaded (use `.load file.c` first)");
            return;
        }
        if cmd == ".frames" {
            let n = cache.frame_count();
            for i in 0..n {
                if let Some(f) = cache.frame_info(i) {
                    let line = f.line.map(|l| format!(" at line {l}")).unwrap_or_default();
                    let _ = writeln!(out, "#{i} {}{}", f.function, line);
                }
            }
            return;
        }
        let Debuggee::Minic(dbg) = cache.inner_mut().inner_mut() else {
            unreachable!("checked above")
        };
        match cmd {
            ".break" => match arg.parse::<u32>() {
                Ok(n) => {
                    dbg.add_breakpoint(n);
                    let _ = writeln!(out, "breakpoint at line {n}");
                }
                Err(_) => {
                    let _ = writeln!(out, "usage: .break LINE");
                }
            },
            ".delete" => {
                if let Ok(n) = arg.parse::<u32>() {
                    dbg.remove_breakpoint(n);
                }
            }
            ".breaks" => {
                let _ = writeln!(out, "{:?}", dbg.breakpoints());
            }
            ".watch" => {
                if arg.is_empty() {
                    let _ = writeln!(out, "usage: .watch EXPR");
                } else {
                    dbg.add_watchpoint(arg);
                    let _ = writeln!(out, "watching `{arg}`");
                }
            }
            ".run" | ".cont" => {
                let r = if cmd == ".run" { dbg.run() } else { dbg.cont() };
                match r {
                    Ok(StopReason::Breakpoint { line }) => {
                        let _ = writeln!(out, "breakpoint hit at line {line}");
                    }
                    Ok(StopReason::Step { line }) => {
                        let _ = writeln!(out, "stopped at line {line}");
                    }
                    Ok(StopReason::Watchpoint { line }) => {
                        let _ = writeln!(out, "watchpoint fired at line {line}");
                    }
                    Ok(StopReason::Exited { code }) => {
                        let _ = writeln!(out, "program exited with code {code}");
                    }
                    Err(e) => {
                        let _ = writeln!(out, "runtime error: {e}");
                    }
                }
                let prog_out = dbg.take_output();
                if !prog_out.is_empty() {
                    out.push_str(&prog_out);
                }
                // The program ran: everything cached at the previous
                // stop is suspect.
                cache.invalidate_all();
            }
            ".step" => {
                match dbg.step_line() {
                    Ok(StopReason::Step { line }) => {
                        let _ = writeln!(out, "line {line}");
                    }
                    Ok(StopReason::Exited { code }) => {
                        let _ = writeln!(out, "program exited with code {code}");
                    }
                    Ok(other) => {
                        let _ = writeln!(out, "{other:?}");
                    }
                    Err(e) => {
                        let _ = writeln!(out, "runtime error: {e}");
                    }
                }
                cache.invalidate_all();
            }
            _ => unreachable!("dispatched by caller"),
        }
    }
}

impl Repl {
    /// Processes one input line, appending output; returns `false` when
    /// the user quits.
    ///
    /// The line is processed under panic isolation: a bug anywhere in
    /// the evaluator or a command handler costs that one command — it
    /// is reported as an internal error and the session keeps accepting
    /// input — rather than tearing down the whole debugging session
    /// (and the debuggee's state with it).
    pub fn handle(&mut self, line: &str, out: &mut String) -> bool {
        let line = line.trim();
        if line.is_empty() {
            return true;
        }
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if line.starts_with('.') {
                self.command(line, out)
            } else {
                self.eval(line, out);
                true
            }
        }));
        match unwound {
            Ok(keep_going) => keep_going,
            Err(payload) => {
                let _ = writeln!(out, "{}", DuelError::Internal(panic_text(payload.as_ref())));
                true
            }
        }
    }
}

/// Extracts the human-readable message from a panic payload.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "evaluator panicked".to_string()
    }
}

impl Default for Repl {
    fn default() -> Repl {
        Repl::new()
    }
}

/// Usage string for the `duel` binary.
pub const USAGE: &str = "usage: duel [--max-steps N] [--max-depth N] [--timeout-ms N] \
     [--no-cache] [--trace-json FILE] [--trace-perfetto FILE] [--trace-buf N] \
     [--record FILE] [--replay FILE] [program.c]";

/// What [`parse_args`] extracted from the command line.
#[derive(Debug)]
pub struct CliArgs {
    /// Evaluation options assembled from the budget flags.
    pub options: EvalOptions,
    /// The mini-C program to `.load` at startup, if given.
    pub path: Option<String>,
    /// Whether the target page cache starts enabled (`--no-cache`).
    pub cache: bool,
    /// Where to export the target-call trace at exit
    /// (`--trace-json FILE`; also turns tracing on from the start).
    pub trace_json: Option<String>,
    /// Where to export the causal span trace as Chrome trace-event
    /// JSON at exit (`--trace-perfetto FILE`; turns tracing *and* span
    /// tracing on from the start).
    pub trace_perfetto: Option<String>,
    /// Capacity override for the trace-event and span rings
    /// (`--trace-buf N`).
    pub trace_buf: Option<usize>,
    /// Capture file to start recording to immediately (`--record FILE`).
    pub record: Option<String>,
    /// Capture file to replay instead of a live backend
    /// (`--replay FILE`, strict mode).
    pub replay: Option<String>,
}

/// Parses the binary's command line: resource-budget flags, the
/// `--no-cache` switch (disable the target page cache + lookup
/// memoization), the `--trace-json FILE` trace export, plus an optional
/// mini-C program path. Accepts both `--flag N` and `--flag=N`
/// spellings.
pub fn parse_args(args: &[String]) -> Result<CliArgs, String> {
    let mut options = Repl::default_options();
    let mut path = None;
    let mut cache = true;
    let mut trace_json = None;
    let mut trace_perfetto = None;
    let mut trace_buf = None;
    let mut record = None;
    let mut replay = None;
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let (name, inline) = match arg.split_once('=') {
            Some((n, v)) => (n, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        match name {
            "--max-steps" | "--max-depth" | "--timeout-ms" | "--trace-json"
            | "--trace-perfetto" | "--trace-buf" | "--record" | "--replay" => {
                let val = match inline {
                    Some(v) => v,
                    None => {
                        i += 1;
                        args.get(i)
                            .cloned()
                            .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))?
                    }
                };
                if name == "--trace-json" {
                    trace_json = Some(val);
                } else if name == "--trace-perfetto" {
                    trace_perfetto = Some(val);
                } else if name == "--record" {
                    record = Some(val);
                } else if name == "--replay" {
                    replay = Some(val);
                } else {
                    let n: u64 = val
                        .parse()
                        .map_err(|_| format!("invalid value `{val}` for {name}\n{USAGE}"))?;
                    match name {
                        "--max-steps" => options.max_ticks = n,
                        "--max-depth" => options.max_depth = n,
                        "--trace-buf" => {
                            if n == 0 {
                                return Err(format!("--trace-buf needs N > 0\n{USAGE}"));
                            }
                            trace_buf = Some(n as usize);
                        }
                        _ => options.timeout_ms = n,
                    }
                }
            }
            "--no-cache" => cache = false,
            _ if name.starts_with('-') => {
                return Err(format!("unknown flag `{name}`\n{USAGE}"));
            }
            _ => path = Some(arg.clone()),
        }
        i += 1;
    }
    Ok(CliArgs {
        options,
        path,
        cache,
        trace_json,
        trace_perfetto,
        trace_buf,
        record,
        replay,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(lines: &[&str]) -> String {
        let mut r = Repl::new();
        let mut out = String::new();
        for l in lines {
            r.handle(l, &mut out);
        }
        out
    }

    #[test]
    fn evaluates_expressions() {
        let out = run(&["x[1..4,8,12..50] >? 5 <? 10"]);
        assert_eq!(out, "x[3] = 7\nx[18] = 9\nx[47] = 6\n");
    }

    #[test]
    fn query_without_expr_prints_usage() {
        let out = run(&[".query"]);
        assert!(out.contains("usage: .query EXPR"), "{out}");
        assert!(out.contains("spans[..nspans]"), "{out}");
    }

    #[test]
    fn query_reads_live_counters_and_cache() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle("x[..5]", &mut out);
        out.clear();
        r.handle(
            ".query counters[..ncounters].(if (value > 0) name)",
            &mut out,
        );
        assert!(out.contains("eval.values"), "{out}");
        out.clear();
        r.handle(".query cache.backend_reads", &mut out);
        let n: u64 = out.trim().parse().expect("scalar query output");
        assert_eq!(n, r.meta_snapshot().cache.backend_reads, "{out}");
    }

    #[test]
    fn query_spans_and_events_match_the_rings() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle(".trace on", &mut out);
        r.handle("x[..8] >? 5", &mut out);
        let snap = r.meta_snapshot();
        let nevents = snap.spans.wire().count();
        assert!(nevents > 0);
        assert_eq!(nevents as u64, r.trace_handle().snapshot().total_calls());
        assert!(!snap.spans.spans.is_empty());
        out.clear();
        r.handle(".query nevents", &mut out);
        assert_eq!(
            out.trim().parse::<usize>().expect("nevents"),
            nevents,
            "{out}"
        );
        out.clear();
        r.handle(".query #/(spans[..nspans].id)", &mut out);
        assert_eq!(
            out.trim().parse::<usize>().expect("span count"),
            snap.spans.spans.len() + snap.spans.open.len(),
            "{out}"
        );
    }

    #[test]
    fn query_is_isolated_from_the_debuggee_and_the_wire() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle(".trace on", &mut out);
        r.handle("x[..5]", &mut out);
        let calls_before = r.trace_handle().snapshot().total_calls();
        let counters_before = r.metrics().counters;
        out.clear();
        r.handle(".query counters[..ncounters].value", &mut out);
        r.handle(".query events[..nevents].lat_ns >? 0", &mut out);
        assert_eq!(
            r.trace_handle().snapshot().total_calls(),
            calls_before,
            "meta-queries must not touch the debuggee wire"
        );
        assert_eq!(
            r.metrics().counters,
            counters_before,
            "meta-queries must not feed the metrics they inspect"
        );
        // The debuggee still evaluates identically afterwards.
        out.clear();
        r.handle("x[1..4,8,12..50] >? 5 <? 10", &mut out);
        assert_eq!(out, "x[3] = 7\nx[18] = 9\nx[47] = 6\n");
    }

    #[test]
    fn query_reports_errors_without_breaking_the_session() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle(".query ][", &mut out);
        assert!(!out.trim().is_empty(), "parse error should be reported");
        out.clear();
        r.handle(".query no_such_symbol", &mut out);
        assert!(!out.trim().is_empty(), "{out}");
        out.clear();
        r.handle("x[0]", &mut out);
        assert!(out.contains("100"), "{out}");
    }

    #[test]
    fn trace_export_on_an_empty_ring_writes_valid_json() {
        // Regression (satellite of the meta-target PR): exporting
        // before any span or event is recorded must produce a valid
        // metadata-only Chrome trace document.
        let dir = std::env::temp_dir().join(format!("duel_empty_export_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("empty.json");
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle(&format!(".trace export {}", file.display()), &mut out);
        assert!(out.contains("trace exported"), "{out}");
        let text = std::fs::read_to_string(&file).unwrap();
        let doc = duel_target::json::Json::parse(&text).expect("empty export parses");
        assert!(doc.get("traceEvents").is_some(), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn aliases_persist_across_lines() {
        let out = run(&["v := 40 + 2 ;", "v * 2"]);
        assert!(out.contains("84"), "{out}");
    }

    #[test]
    fn scenario_switching_clears_aliases() {
        let out = run(&["v := 1 ;", ".scenario tree", "v"]);
        assert!(out.contains("scenario loaded"), "{out}");
        assert!(out.contains("`v` is not defined"), "{out}");
    }

    #[test]
    fn ast_and_stats_commands() {
        let out = run(&[".ast a*5 + *b", "1..3", ".stats"]);
        assert!(
            out.contains("(plus (multiply (name \"a\") (constant 5)) (indirect (name \"b\")))"),
            "{out}"
        );
        assert!(out.contains("eval: 3 values"), "{out}");
    }

    #[test]
    fn debugger_commands_require_a_program() {
        let out = run(&[".run"]);
        assert!(out.contains("no program loaded"), "{out}");
    }

    #[test]
    fn set_options() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle(".set lazy", &mut out);
        r.handle("x[1..3] >? 0", &mut out);
        // Lazy mode: values only, no symbolic paths.
        assert!(out.contains("101\n102\n"), "{out}");
        r.handle(".set threshold 2", &mut out);
        assert_eq!(r.options.compress_threshold, 2);
    }

    #[test]
    fn quit_returns_false() {
        let mut r = Repl::new();
        let mut out = String::new();
        assert!(!r.handle(".quit", &mut out));
        assert!(r.handle("1+1", &mut out));
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let out = run(&["nonesuch", "1 +", ".bogus"]);
        assert!(out.contains("`nonesuch` is not defined"), "{out}");
        assert!(out.contains("syntax error"), "{out}");
        assert!(out.contains("unknown command"), "{out}");
    }

    #[test]
    fn budget_errors_name_the_budget() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle(".set maxsteps 500", &mut out);
        r.handle("while (1) 1 ;", &mut out);
        assert!(out.contains("step budget of 500"), "{out}");
        out.clear();
        r.handle(".set maxdepth 4", &mut out);
        r.handle("1+(2+(3+(4+(5+6))))", &mut out);
        assert!(out.contains("depth budget of 4"), "{out}");
    }

    #[test]
    fn parse_args_flags_and_path() {
        let args: Vec<String> = ["--max-steps", "1000", "--timeout-ms=250", "prog.c"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let a = parse_args(&args).unwrap();
        assert_eq!(a.options.max_ticks, 1000);
        assert_eq!(a.options.timeout_ms, 250);
        assert!(
            a.options.error_values,
            "the REPL defaults to tolerant errors"
        );
        assert_eq!(a.path.as_deref(), Some("prog.c"));
        assert!(a.cache, "caching defaults to on");
        assert!(a.trace_json.is_none());

        let a = parse_args(&[]).unwrap();
        assert_eq!(a.options.max_ticks, EvalOptions::default().max_ticks);
        assert!(a.path.is_none());
        assert!(a.cache);

        let a = parse_args(&["--no-cache".to_string()]).unwrap();
        assert!(!a.cache);

        let a = parse_args(&["--trace-json=out.json".to_string()]).unwrap();
        assert_eq!(a.trace_json.as_deref(), Some("out.json"));
    }

    #[test]
    fn parse_args_rejects_bad_input() {
        let e = parse_args(&["--max-steps".to_string()]).unwrap_err();
        assert!(e.contains("needs a value"), "{e}");
        let e = parse_args(&["--max-depth".to_string(), "x".to_string()]).unwrap_err();
        assert!(e.contains("invalid value"), "{e}");
        let e = parse_args(&["--bogus".to_string()]).unwrap_err();
        assert!(e.contains("unknown flag"), "{e}");
        let e = parse_args(&["--trace-json".to_string()]).unwrap_err();
        assert!(e.contains("needs a value"), "{e}");
    }

    #[test]
    fn trace_command_records_target_calls() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle(".trace on", &mut out);
        r.handle("x[..5]", &mut out);
        out.clear();
        r.handle(".trace", &mut out);
        assert!(out.contains("tracing on"), "{out}");
        assert!(out.contains("get_bytes"), "{out}");
        out.clear();
        r.handle(".trace dump 3", &mut out);
        assert!(out.contains("ok"), "{out}");
        r.handle(".trace clear", &mut out);
        out.clear();
        r.handle(".trace", &mut out);
        assert!(out.contains("0 calls recorded"), "{out}");
        // Off again: no recording.
        r.handle(".trace off", &mut out);
        r.handle("x[..5]", &mut out);
        out.clear();
        r.handle(".trace", &mut out);
        assert!(out.contains("tracing off"), "{out}");
        assert!(out.contains("0 calls recorded"), "{out}");
    }

    #[test]
    fn tracing_survives_scenario_switch() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle(".trace on", &mut out);
        r.handle(".scenario scan", &mut out);
        assert!(r.trace_handle().is_enabled());
        r.handle("x[..5]", &mut out);
        out.clear();
        r.handle(".trace", &mut out);
        assert!(out.contains("get_bytes"), "{out}");
    }

    #[test]
    fn profile_shows_cost_table_and_full_attribution() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle(".scenario scan", &mut out);
        out.clear();
        r.handle(".profile x[..10] >? 5", &mut out);
        // Values first, then the table, hottest node first.
        assert!(out.contains("x[3] = 7"), "{out}");
        assert!(out.contains("self-ticks"), "{out}");
        assert!(out.contains("(display)"), "{out}");
        assert!(
            out.contains("attributed: 100.0% of ticks, 100.0% of reads"),
            "{out}"
        );
        // Profiling must not leave tracing enabled behind.
        assert!(!r.trace_handle().is_enabled());
    }

    #[test]
    fn explain_shows_annotated_tree() {
        let out = run(&[".explain x[..3]"]);
        assert!(out.contains("x[..3] (index)"), "{out}");
        // The index node's children are indented below it.
        assert!(out.contains("\n  x (name)"), "{out}");
        assert!(out.contains("..3 (to)"), "{out}");
    }

    #[test]
    fn stats_reports_all_tower_layers() {
        let out = run(&["x[..10]", ".stats"]);
        assert!(out.contains("eval: 10 values"), "{out}");
        assert!(out.contains("depth "), "{out}");
        assert!(out.contains("yields"), "{out}");
        assert!(out.contains("cache: on"), "{out}");
        assert!(out.contains("retry: "), "{out}");
        assert!(out.contains("supervise: circuit closed"), "{out}");
        assert!(out.contains("degrade on"), "{out}");
        assert!(out.contains("trace: off"), "{out}");
    }

    #[test]
    fn trace_json_export_has_schema_header() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.set_tracing(true);
        r.handle("x[..5]", &mut out);
        let json = r.trace_json();
        assert!(json.starts_with("{\"schema_version\":1,"), "{json}");
        assert!(json.contains("\"name\":\"duel_trace\""), "{json}");
        // Shared envelope convention: config and metrics blocks, like
        // bench reports and capture files.
        assert!(
            json.contains("\"config\":{\"backend\":\"sim\",\"scenario\":\"combined\""),
            "{json}"
        );
        assert!(json.contains("\"metrics\":{\"layers\":["), "{json}");
        assert!(json.contains("\"label\":\"session\""), "{json}");
        assert!(json.contains("\"op\":\"get_bytes\""), "{json}");
    }

    #[test]
    fn stats_reports_cache_counters() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle("x[..10]", &mut out);
        out.clear();
        r.handle(".stats", &mut out);
        assert!(out.contains("cache: on"), "{out}");
        assert!(out.contains("backend reads"), "{out}");
        r.handle(".set cache off", &mut out);
        out.clear();
        r.handle(".stats", &mut out);
        assert!(out.contains("cache: off"), "{out}");
    }

    #[test]
    fn cached_and_uncached_evaluation_agree() {
        let queries = ["x[1..4,8,12..50] >? 5 <? 10", "#/(head-->next)"];
        let mut cached = Repl::with_config(Repl::default_options(), true);
        let mut plain = Repl::with_config(Repl::default_options(), false);
        for q in queries {
            let (mut a, mut b) = (String::new(), String::new());
            cached.handle(q, &mut a);
            plain.handle(q, &mut b);
            assert_eq!(a, b, "`{q}` must not change under caching");
        }
    }

    #[test]
    fn no_cache_repl_passes_reads_through() {
        let mut r = Repl::with_config(Repl::default_options(), false);
        let mut out = String::new();
        r.handle("x[..10]", &mut out);
        out.clear();
        r.handle(".stats", &mut out);
        assert!(out.contains("cache: off"), "{out}");
        assert!(out.contains("0 page hits"), "{out}");
    }

    #[test]
    fn minic_resume_invalidates_the_cache() {
        // A stepped program mutates memory; the REPL must bump the
        // cache epoch at every stop so DUEL reads stay fresh.
        let src = "int g;\nint main() {\n  g = 1;\n  g = 2;\n  g = 3;\n  return 0;\n}\n";
        let dir = std::env::temp_dir().join("duel-cli-cache-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("steps.c");
        std::fs::write(&path, src).unwrap();
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle(&format!(".load {}", path.display()), &mut out);
        assert!(out.contains("compiled"), "{out}");
        r.handle(".break 4", &mut out);
        r.handle(".run", &mut out);
        out.clear();
        r.handle("g", &mut out);
        assert_eq!(out.trim_end(), "1", "{out}");
        r.handle(".step", &mut out);
        out.clear();
        r.handle("g", &mut out);
        assert_eq!(out.trim_end(), "2", "stale cached g after step: {out}");
    }

    #[test]
    fn trace_mode_prints_eval_steps() {
        let out = run(&[".set trace on", "(1..2)+(5,9)"]);
        assert!(out.contains("eval(binary) -> yield 1+5"), "{out}");
        assert!(out.contains("eval(alternate) -> NOVALUE"), "{out}");
    }

    #[test]
    fn trace_dump_honours_the_count_argument() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle(".trace on", &mut out);
        r.handle("x[..10]", &mut out);
        out.clear();
        r.handle(".trace dump 2", &mut out);
        assert_eq!(out.lines().count(), 2, "{out}");
        let full = {
            let mut full = String::new();
            r.handle(".trace dump", &mut full);
            full
        };
        assert!(full.lines().count() > 2, "{full}");
        // `dump N` is exactly the tail of the default dump.
        assert!(full.ends_with(&out), "{full:?} vs {out:?}");
    }

    #[test]
    fn record_then_replay_roundtrips_through_the_repl() {
        let dir = std::env::temp_dir().join("duel-cli-capture-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("session-{}.jsonl", std::process::id()));
        let path = path.display().to_string();
        let queries = ["x[1..4,8,12..50] >? 5 <? 10", "#/(head-->next)"];

        // Record a live session.
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle(&format!(".record {path}"), &mut out);
        assert!(out.contains(&format!("recording to `{path}`")), "{out}");
        let mut live = String::new();
        for q in queries {
            r.handle(q, &mut live);
        }
        out.clear();
        r.handle(".record stop", &mut out);
        assert!(out.contains("capture finalized"), "{out}");

        // Replay it in a fresh REPL with no simulator state carried
        // over: output must be byte-identical, capture fully consumed.
        let mut r = Repl::new();
        out.clear();
        r.handle(&format!(".replay {path}"), &mut out);
        assert!(out.contains("replaying"), "{out}");
        let mut replayed = String::new();
        for q in queries {
            r.handle(q, &mut replayed);
        }
        assert_eq!(live, replayed);
        out.clear();
        r.handle(".replay", &mut out);
        assert!(out.contains("capture of scenario `combined`"), "{out}");
        assert!(!out.contains("divergence"), "{out}");
        let consumed: Vec<&str> = out
            .split_whitespace()
            .find(|w| w.contains('/'))
            .map(|w| w.split('/').collect())
            .unwrap_or_default();
        assert_eq!(consumed.len(), 2, "{out}");
        assert_eq!(consumed[0], consumed[1], "all events consumed: {out}");
        std::fs::remove_file(&path).ok();
    }

    /// Kills the chaos gate and drives three consecutive failed health
    /// probes, which is the deterministic way to trip the breaker
    /// (`trip_consecutive` = 3 in the default supervisor config).
    fn kill_and_trip(r: &mut Repl, out: &mut String) {
        r.handle(".chaos kill", out);
        assert!(out.contains("chaos: backend killed"), "{out}");
        for _ in 0..3 {
            r.handle(".health", out);
        }
        assert!(out.contains("backend unhealthy"), "{out}");
        assert!(out.contains("circuit open"), "{out}");
    }

    #[test]
    fn health_reports_a_live_backend() {
        let out = run(&[".health"]);
        assert!(out.contains("backend healthy; circuit closed"), "{out}");
        assert!(out.contains("probes: 1 (0 failed)"), "{out}");
        assert!(out.contains("trips: 0"), "{out}");
    }

    #[test]
    fn open_circuit_serves_cached_reads_stale() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle("x[..3]", &mut out); // warm the page cache
        kill_and_trip(&mut r, &mut out);
        out.clear();
        r.handle("x[..3]", &mut out);
        assert!(out.contains("x[0] = 100 <stale>"), "{out}");
        assert!(out.contains("x[2] = 102 <stale>"), "{out}");
        out.clear();
        r.handle(".stats", &mut out);
        assert!(out.contains("supervise: circuit open"), "{out}");
        assert!(out.contains("stale reads"), "{out}");
        assert!(out.contains("stale\n") || out.contains(" stale"), "{out}");
    }

    #[test]
    fn health_reconnect_recovers_after_revive() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle("x[..3]", &mut out);
        let fresh = out.clone();
        kill_and_trip(&mut r, &mut out);
        out.clear();
        r.handle(".chaos revive", &mut out);
        assert!(out.contains("chaos: backend revived"), "{out}");
        out.clear();
        r.handle(".health reconnect", &mut out);
        assert!(out.contains("reconnected; resync:"), "{out}");
        // Post-recovery output is byte-identical to the pre-kill run.
        out.clear();
        r.handle("x[..3]", &mut out);
        assert_eq!(out, fresh, "post-resync output must match");
        assert!(!out.contains("<stale>"), "{out}");
        out.clear();
        r.handle(".health", &mut out);
        assert!(out.contains("backend healthy; circuit closed"), "{out}");
        assert!(out.contains("reconnects: 1"), "{out}");
    }

    #[test]
    fn open_circuit_fails_writes_fast() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle("x[..3]", &mut out);
        kill_and_trip(&mut r, &mut out);
        out.clear();
        r.handle("x[0] = 5 ;", &mut out);
        assert!(out.contains("circuit open"), "{out}");
    }

    #[test]
    fn degrade_off_fails_reads_fast() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle("x[..3]", &mut out);
        kill_and_trip(&mut r, &mut out);
        r.handle(".set degrade off", &mut out);
        out.clear();
        r.handle("x[..3]", &mut out);
        assert!(out.contains("circuit open"), "{out}");
        assert!(!out.contains("<stale>"), "{out}");
        // Back on: stale service resumes.
        r.handle(".set degrade on", &mut out);
        out.clear();
        r.handle("x[..3]", &mut out);
        assert!(out.contains("<stale>"), "{out}");
    }

    #[test]
    fn chaos_status_and_campaign_are_deterministic() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle(".chaos", &mut out);
        assert!(out.contains("chaos: mode live"), "{out}");
        out.clear();
        r.handle(".chaos campaign 42 3 1000", &mut out);
        assert!(out.contains("chaos: campaign of 3 events"), "{out}");
        let again = {
            let mut s = String::new();
            r.handle(".chaos campaign 42 3 1000", &mut s);
            s
        };
        assert_eq!(out, again, "campaigns are seed-deterministic");
    }

    #[test]
    fn chaos_heal_restores_service_after_n_ops() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle("x[..3]", &mut out);
        out.clear();
        r.handle(".chaos kill", &mut out);
        r.handle(".chaos heal 1", &mut out);
        assert!(out.contains("healing after 1 more ops"), "{out}");
        // The healed gate makes the next health probe succeed again.
        r.handle(".health", &mut out);
        out.clear();
        r.handle(".health", &mut out);
        assert!(out.contains("backend healthy"), "{out}");
    }

    #[test]
    fn degrade_state_survives_scenario_switch() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle(".set degrade off", &mut out);
        r.handle(".scenario scan", &mut out);
        assert!(!r.backend.inner().config().degrade, "degrade must stay off");
        out.clear();
        r.handle(".stats", &mut out);
        assert!(out.contains("degrade off"), "{out}");
    }

    // ---- causal span tracing --------------------------------------------

    #[test]
    fn span_export_loads_as_chrome_trace_json() {
        let dir = std::env::temp_dir().join("duel-cli-span-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("trace-{}.json", std::process::id()));
        let path = path.display().to_string();
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle(".trace on", &mut out);
        r.handle("x[..10] >? 5", &mut out);
        out.clear();
        r.handle(&format!(".trace export {path}"), &mut out);
        assert!(out.contains("trace exported"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        let v = duel_target::json::Json::parse(&json).expect("perfetto export parses");
        let events = v.get("traceEvents").and_then(|e| e.items()).unwrap();
        assert!(events.len() > 10, "spans + wire events expected");
        assert!(json.contains("\"cat\":\"root\""), "{json}");
        assert!(json.contains("\"cat\":\"node\""), "{json}");
        assert!(json.contains("\"cat\":\"wire-event\""), "{json}");
        std::fs::remove_file(&path).ok();

        // Every buffered wire span chains to a live eval root, and
        // every traced call has one.
        let snap = r.span_context().snapshot();
        let (ok, total) = duel_target::attribution_coverage(&snap);
        assert_eq!(total as u64, r.trace_handle().snapshot().total_calls());
        assert!(total > 0);
        assert_eq!(ok, total, "all wire events must have a rooted ancestry");
    }

    #[test]
    fn flame_command_writes_folded_stacks() {
        let dir = std::env::temp_dir().join("duel-cli-span-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("flame-{}.txt", std::process::id()));
        let path = path.display().to_string();
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle(".trace on", &mut out);
        r.handle("x[..5]", &mut out);
        out.clear();
        r.handle(&format!(".trace flame {path} reads"), &mut out);
        assert!(out.contains("folded stacks written"), "{out}");
        let folded = std::fs::read_to_string(&path).unwrap();
        let line = folded.lines().next().unwrap();
        // `frame;frame;...;op weight`
        assert!(line.contains(';'), "{line}");
        assert!(
            line.starts_with("eval "),
            "stacks root at the eval span: {line}"
        );
        let weight: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(weight >= 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn top_ranks_nodes_ops_and_counters() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle(".top", &mut out);
        assert!(out.contains("tracing is off"), "{out}");
        r.handle(".trace on", &mut out);
        r.handle("x[..10]", &mut out);
        out.clear();
        r.handle(".top", &mut out);
        assert!(out.contains("eval"), "{out}");
        assert!(
            out.contains("index"),
            "hottest nodes include the index: {out}"
        );
        assert!(out.contains("wire ops by total latency"), "{out}");
        assert!(out.contains("get_bytes"), "{out}");
        assert!(out.contains("busiest counters"), "{out}");
        assert!(out.contains("eval.values"), "{out}");
    }

    #[test]
    fn stats_json_uses_the_shared_envelope() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle("x[..5]", &mut out);
        out.clear();
        r.handle(".stats json", &mut out);
        let v = duel_target::json::Json::parse(out.trim()).expect("stats json parses");
        assert_eq!(
            v.get("schema_version").and_then(|x| x.as_u64()),
            Some(1),
            "{out}"
        );
        assert_eq!(
            v.get("name").and_then(|x| x.as_str()),
            Some("duel_stats"),
            "{out}"
        );
        let cfg = v.get("config").expect("config block");
        assert_eq!(cfg.get("backend").and_then(|x| x.as_str()), Some("sim"));
        let m = v.get("metrics").expect("metrics block");
        assert_eq!(m.get("eval_values").and_then(|x| x.as_u64()), Some(5));
        // The always-on registry feeds the same document.
        assert_eq!(m.get("eval.commands").and_then(|x| x.as_u64()), Some(1));
    }

    #[test]
    fn trace_buf_bounds_the_span_ring_across_swaps() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle(".set trace_buf 64", &mut out);
        assert!(out.contains("resized to 64"), "{out}");
        assert_eq!(r.span_context().capacity(), 64);
        r.handle(".scenario scan", &mut out);
        assert_eq!(r.span_context().capacity(), 64, "sticky across swap");
        // The ring stays bounded: more spans than capacity drop oldest.
        r.handle(".trace on", &mut out);
        r.handle("x[..60]", &mut out);
        let snap = r.span_context().snapshot();
        assert!(snap.spans.len() <= 64, "{}", snap.spans.len());
        assert!(snap.dropped > 0, "x[..60] overflows a 64-span ring");
        let stats: duel_target::json::Json =
            duel_target::json::Json::parse(&r.stats_json()).expect("stats json");
        let cfg = stats.get("config").expect("config block");
        assert_eq!(cfg.get("trace_buf").and_then(|v| v.as_u64()), Some(64));
    }

    #[test]
    fn trace_clear_resets_counters_histograms_rings_and_metrics() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle(".trace on", &mut out);
        r.handle("x[..10]", &mut out);
        // Everything is hot.
        assert!(r.trace_handle().snapshot().total_calls() > 0);
        assert!(r.span_context().snapshot().wire().count() > 0);
        assert!(!r.metrics().counters.is_empty());
        r.handle(".trace clear", &mut out);
        let t = r.trace_handle().snapshot();
        assert_eq!(t.total_calls(), 0);
        // No stale latency buckets may survive the clear: the per-op
        // histograms must be all-zero, not just the counters.
        for o in &t.ops {
            assert!(
                o.hist.iter().all(|&b| b == 0),
                "stale latency buckets for {} after .trace clear",
                o.op.name()
            );
            assert_eq!(o.total_ns, 0);
        }
        let s = r.span_context().snapshot();
        assert!(s.spans.is_empty() && s.open.is_empty() && s.dropped == 0);
        let m = r.metrics();
        assert!(m.counters.is_empty() && m.histograms.is_empty());
    }

    /// The `get_bytes` calls `.trace`'s per-op table reports.
    fn traced_reads(r: &mut Repl) -> u64 {
        let mut out = String::new();
        r.handle(".trace", &mut out);
        out.lines()
            .find(|l| l.trim_start().starts_with("get_bytes "))
            .and_then(|l| l.split_whitespace().nth(1))
            .map_or(0, |n| n.parse().expect("calls column"))
    }

    /// The session metrics as `.query counters` reports them.
    fn queried_counters(r: &mut Repl) -> Vec<(String, u64)> {
        let (mut names, mut values) = (String::new(), String::new());
        r.handle(".query counters[..ncounters].name", &mut names);
        r.handle(".query counters[..ncounters].value", &mut values);
        let col = |l: &str| l.split(" = ").nth(1).unwrap_or_default().to_string();
        names
            .lines()
            .zip(values.lines())
            .map(|(n, v)| {
                (
                    col(n).trim_matches('"').to_string(),
                    col(v).parse().unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn telemetry_spans_backend_swaps_until_trace_clear() {
        // What one `x[..10]` costs on each backend, in fresh sessions.
        let solo = |scenario: &str| {
            let mut r = Repl::new();
            let mut out = String::new();
            r.handle(&format!(".scenario {scenario}"), &mut out);
            r.handle(".trace on", &mut out);
            r.handle("x[..10]", &mut out);
            traced_reads(&mut r)
        };
        let (first, second) = (solo("combined"), solo("scan"));
        assert!(first > 0 && second > 0);

        let mut r = Repl::new();
        let mut out = String::new();
        r.handle(".trace on", &mut out);
        r.handle("x[..10]", &mut out);
        r.handle(".scenario scan", &mut out);
        assert!(
            r.trace_handle().is_enabled(),
            "one switch, kept across the swap"
        );
        r.handle("x[..10]", &mut out);

        // `.trace`'s per-op calls cover both commands...
        assert_eq!(traced_reads(&mut r), first + second);
        // ...so does the span ring: both eval roots, and one wire span
        // per traced call...
        let snap = r.span_context().snapshot();
        let roots = snap
            .spans
            .iter()
            .filter(|s| s.kind == duel_target::SpanKind::Root);
        assert_eq!(roots.count(), 2);
        let t = r.trace_handle().snapshot();
        assert_eq!(snap.wire().count() as u64, t.total_calls());
        let reads = snap.wire().filter(|w| w.name == "get_bytes").count() as u64;
        assert_eq!(reads, first + second);
        // ...and so do the counters `.query` reads.
        let counters = queried_counters(&mut r);
        let get = |name: &str| counters.iter().find(|c| c.0 == name).map(|c| c.1);
        assert_eq!(get("wire.get_bytes.calls"), Some(first + second));
        assert_eq!(get("eval.commands"), Some(2));

        // `.trace clear` resets all of them together.
        r.handle(".trace clear", &mut out);
        assert_eq!(traced_reads(&mut r), 0);
        assert!(r.span_context().snapshot().is_empty());
        assert!(queried_counters(&mut r).is_empty());
    }

    #[test]
    fn eval_stats_carry_the_trace_id() {
        let mut r = Repl::new();
        let mut out = String::new();
        r.handle("x[..3]", &mut out);
        assert_eq!(r.last_stats.trace_id, 0, "no trace id while tracing is off");
        r.handle(".trace on", &mut out);
        r.handle("x[..3]", &mut out);
        let first = r.last_stats.trace_id;
        assert!(first >= 1, "span-traced evals get a trace id");
        r.handle("x[..3]", &mut out);
        assert_eq!(r.last_stats.trace_id, first + 1, "each eval is one trace");
    }
}
