//! Accounting for the traced run: what the shims, the program's own
//! counters and the benchmark's timers saw, and the per-layer metrics
//! derived from them.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use duel_core::session::render_lines;
use duel_core::{EvalOptions, OutputLine, Session, SymMode, Value};
use duel_target::{SimTarget, Target};

use crate::shim::{Count, Counters, WireCount};
use crate::{allocs, metric, quantile, Metric};

/// The `duel-target` layers, top down, as `target.<name>.*` metrics
/// name them.
pub const TARGET_LAYERS: [&str; 7] = [
    "trace",
    "supervise",
    "retry",
    "cache",
    "record",
    "pipeline",
    "backend",
];

pub const PIPELINE: usize = 5;

/// Sums over every command of the traced run.
#[derive(Default)]
pub struct Traced {
    pub cmds: u64,
    /// Value lines the benchmark counted in the output.
    pub values: u64,
    /// `EvalStats.values`, summed.
    pub stats_values: u64,
    /// `Repl::handle` wall time, and the same commands on an unshimmed
    /// copy of the REPL's tower.
    pub repl_ns: u64,
    pub bare_ns: u64,
    /// The same commands on the shimmed copy.
    pub shim_ns: u64,
    pub parse_ns: u64,
    pub eval_ns: u64,
    pub render_ns: u64,
    pub eval_allocs: u64,
    pub render_allocs: u64,
    /// Calls into each layer (index into [`TARGET_LAYERS`]) during
    /// evaluation, seen at the shim directly above it.
    pub layer: [Count; 7],
    /// Which layers the tower has.
    pub present: [bool; 7],
    /// Time in debugger commands (`.cont`, `.step`) on the shimmed copy.
    pub debug_ns: u64,
    /// Paired evaluations in eager and lazy symbolic mode.
    pub sym_eager_ns: u64,
    pub sym_lazy_ns: u64,
    pub sym_values: u64,
    pub native_ratio: f64,
    pub compile_s: f64,
    /// `Debugger::cont` with the watchpoint, and the same statements
    /// stepped on a twin without it.
    pub watch_cont_ns: u64,
    pub vm_ns: u64,
    pub vm_stmts: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub wire_bytes: u64,
    pub retries: u64,
    pub trips: u64,
    pub overlap_ns: u64,
    pub wire: WireCount,
}

impl Traced {
    /// Self time of layer `i`: its time minus the time of the next layer
    /// below it. The pipeline's lower neighbour runs on the I/O actor,
    /// so only the part of the actor's time that was not overlapped is
    /// charged against the session thread's wait.
    fn self_ns(&self, i: usize) -> u64 {
        let below = (i + 1..7).find(|&j| self.present[j]);
        match below {
            None => self.layer[i].ns,
            Some(j) if i == PIPELINE => {
                let waited = self.layer[j].ns.saturating_sub(self.overlap_ns);
                self.layer[i].ns.saturating_sub(waited)
            }
            Some(j) => self.layer[i].ns.saturating_sub(self.layer[j].ns),
        }
    }

    pub fn metrics(&self) -> Vec<Metric> {
        let cmds = self.cmds.max(1) as f64;
        let values = self.values.max(1) as f64;
        let per_cmd = |n: u64| n as f64 / cmds;
        let per_value = |n: u64| n as f64 / values;
        let top = self.layer[0];
        let eval_self = self
            .eval_ns
            .saturating_sub(self.parse_ns)
            .saturating_sub(top.ns);
        let pipeline_wait = if self.present[PIPELINE] {
            self.layer[PIPELINE].ns
        } else {
            0
        };
        let backend = self.layer[6];
        let rts = self.wire.round_trips;
        let mut m = vec![
            metric(
                "cli.self_ns_per_cmd",
                "ns",
                (self.repl_ns as f64 - self.bare_ns as f64) / cmds,
            ),
            metric("core.parse.ns_per_cmd", "ns", per_cmd(self.parse_ns)),
            metric("core.eval.self_ns_per_value", "ns", per_value(eval_self)),
            metric(
                "core.eval.target_calls_per_value",
                "calls",
                per_value(top.calls),
            ),
            metric(
                "core.eval.allocs_per_value",
                "allocs",
                per_value(self.eval_allocs),
            ),
            metric(
                "core.sym.ns_per_value",
                "ns",
                (self.sym_eager_ns as f64 - self.sym_lazy_ns as f64)
                    / self.sym_values.max(1) as f64,
            ),
            metric("core.render.ns_per_value", "ns", per_value(self.render_ns)),
            metric(
                "core.render.allocs_per_value",
                "allocs",
                per_value(self.render_allocs),
            ),
            metric("core.native_ratio", "ratio", self.native_ratio),
        ];
        let names_ns = [
            "target.trace.self_ns_per_call",
            "target.supervise.self_ns_per_call",
            "target.retry.self_ns_per_call",
            "target.cache.self_ns_per_call",
            "target.record.self_ns_per_call",
            "target.pipeline.self_ns_per_call",
            "target.backend.self_ns_per_call",
        ];
        let names_calls = [
            "target.trace.calls_per_cmd",
            "target.supervise.calls_per_cmd",
            "target.retry.calls_per_cmd",
            "target.cache.calls_per_cmd",
            "target.record.calls_per_cmd",
            "target.pipeline.calls_per_cmd",
            "target.backend.calls_per_cmd",
        ];
        for i in 0..7 {
            let calls = self.layer[i].calls;
            let self_ns = if self.present[i] { self.self_ns(i) } else { 0 };
            m.push(metric(
                names_ns[i],
                "ns",
                self_ns as f64 / calls.max(1) as f64,
            ));
            m.push(metric(names_calls[i], "calls", per_cmd(calls)));
        }
        let lookups = self.cache_hits + self.cache_misses;
        m.extend([
            metric(
                "target.cache.hit_ratio",
                "ratio",
                self.cache_hits as f64 / lookups.max(1) as f64,
            ),
            metric(
                "target.cache.wire_bytes_per_cmd",
                "bytes",
                per_cmd(self.wire_bytes),
            ),
            metric(
                "target.pipeline.wait_ns_per_cmd",
                "ns",
                per_cmd(pipeline_wait),
            ),
            metric(
                "target.pipeline.overlap_frac",
                "fraction",
                self.overlap_ns as f64 / self.wire.ns.max(1) as f64,
            ),
            metric(
                "target.retry.retries_per_cmd",
                "count",
                per_cmd(self.retries),
            ),
            metric("target.supervise.trips", "count", self.trips as f64),
            metric("gdbmi.round_trips_per_cmd", "count", per_cmd(rts)),
            metric(
                "gdbmi.commands_per_round_trip",
                "count",
                self.wire.sent as f64 / rts.max(1) as f64,
            ),
            metric(
                "gdbmi.client.self_ns_per_round_trip",
                "ns",
                if rts == 0 {
                    0.0
                } else {
                    backend.ns.saturating_sub(self.wire.ns) as f64 / rts as f64
                },
            ),
            metric("gdbmi.wire.wait_ns_per_cmd", "ns", per_cmd(self.wire.ns)),
            metric("minic.compile_s", "s", self.compile_s),
            metric(
                "minic.vm.ns_per_stmt",
                "ns",
                self.vm_ns as f64 / self.vm_stmts.max(1) as f64,
            ),
            metric(
                "minic.watch.ns_per_eval",
                "ns",
                self.watch_cont_ns.saturating_sub(self.vm_ns) as f64 / self.vm_stmts.max(1) as f64,
            ),
            metric(
                "trace_overhead_frac",
                "fraction",
                self.shim_ns as f64 / self.bare_ns.max(1) as f64 - 1.0,
            ),
            metric(
                "attribution_frac",
                "fraction",
                (self.eval_ns + self.render_ns + self.debug_ns) as f64 / self.shim_ns.max(1) as f64,
            ),
        ]);
        m
    }

    /// The counter agreement checks: what the shims counted must equal
    /// what the program counted itself.
    pub fn agreement(&self, cache_backend_reads: u64, shim_reads: u64) -> Vec<String> {
        let mut errors = Vec::new();
        if cache_backend_reads != shim_reads {
            errors.push(format!(
                "reads below the cache: CacheStats.backend_reads = {cache_backend_reads}, \
                 shim counted {shim_reads}"
            ));
        }
        if self.stats_values != self.values {
            errors.push(format!(
                "values: EvalStats.values = {}, output lines counted = {}",
                self.stats_values, self.values
            ));
        }
        errors
    }

    /// One line per layer for the human-readable report, and whether
    /// the split the workload predicts holds.
    pub fn split_notes(&self, prediction: Split) -> Vec<String> {
        let cmds = self.cmds.max(1) as f64;
        let per_cmd = |n: u64| n as f64 / cmds / 1e3;
        let eval_self = self
            .eval_ns
            .saturating_sub(self.parse_ns)
            .saturating_sub(self.layer[0].ns);
        let mut shares: Vec<(String, f64)> = vec![
            ("core.parse".into(), per_cmd(self.parse_ns)),
            ("core.eval (self)".into(), per_cmd(eval_self)),
            ("core.render".into(), per_cmd(self.render_ns)),
        ];
        for (i, name) in TARGET_LAYERS.iter().enumerate() {
            if self.present[i] {
                shares.push((format!("target.{name} (self)"), per_cmd(self.self_ns(i))));
            }
        }
        if self.wire.round_trips > 0 {
            shares.push(("gdbmi.wire (actor thread)".into(), per_cmd(self.wire.ns)));
        }
        if self.watch_cont_ns > 0 {
            let watch = self.watch_cont_ns.saturating_sub(self.vm_ns);
            shares.push(("minic.vm".into(), per_cmd(self.vm_ns)));
            shares.push(("minic.watch".into(), per_cmd(watch)));
        }
        let mut notes = vec!["per-command time by layer (µs):".to_string()];
        for (name, us) in &shares {
            notes.push(format!("  {name:<28} {us:>10.1}"));
        }
        // The predicted part must exceed every other part on its own.
        let (part, members): (u64, &[&str]) = match prediction {
            Split::EvalLargest => (eval_self, &["core.eval (self)"]),
            Split::WireDominates => (
                self.wire.ns + self.layer[PIPELINE].ns,
                &["gdbmi.wire (actor thread)", "target.pipeline (self)"],
            ),
            Split::MinicDominates => (self.watch_cont_ns, &["minic.vm", "minic.watch"]),
        };
        let holds = shares
            .iter()
            .filter(|(n, _)| !members.contains(&n.as_str()))
            .all(|(_, v)| *v < per_cmd(part));
        notes.push(format!(
            "predicted split ({}): {}",
            prediction.describe(),
            if holds { "holds" } else { "NOT MET" }
        ));
        notes
    }
}

/// The layer split each workload is predicted to show.
#[derive(Clone, Copy)]
pub enum Split {
    EvalLargest,
    WireDominates,
    MinicDominates,
}

impl Split {
    fn describe(self) -> &'static str {
        match self {
            Split::EvalLargest => "core.eval has the largest self time",
            Split::WireDominates => "gdbmi wire wait + pipeline wait exceed every other layer",
            Split::MinicDominates => "minic vm + watch exceed every other layer",
        }
    }
}

/// One DUEL command on a shimmed tower, as the REPL evaluates it, with
/// parse, evaluation and rendering timed apart. `shims[k]` sits above
/// layer `layers[k]`; only shims on the session thread are passed.
pub fn eval_traced(
    t: &mut dyn Target,
    shims: &[Arc<Counters>],
    layers: &[usize],
    aliases: &mut HashMap<String, Value>,
    opts: &EvalOptions,
    text: &str,
    acc: &mut Traced,
) -> Vec<String> {
    // Parse once on its own, outside the command's wall time: the
    // evaluation below parses again, and that share is subtracted.
    let t0 = Instant::now();
    let _ = black_box(Session::with_options(&mut *t, opts.clone()).parse(text));
    acc.parse_ns += t0.elapsed().as_nanos() as u64;

    let wall = Instant::now();
    let mut s = Session::with_state(&mut *t, std::mem::take(aliases), opts.clone());
    let before: Vec<Count> = shims.iter().map(|c| c.get()).collect();
    let a0 = allocs();
    let t0 = Instant::now();
    let r = s.eval_partial(text);
    acc.eval_ns += t0.elapsed().as_nanos() as u64;
    let a1 = allocs();
    for ((c, &layer), b) in shims.iter().zip(layers).zip(before) {
        acc.layer[layer].add(c.get().since(b));
    }
    let t0 = Instant::now();
    let out = match r {
        Ok((lines, err)) => {
            let mut out = render_lines(&lines);
            acc.render_ns += t0.elapsed().as_nanos() as u64;
            acc.values += lines
                .iter()
                .filter(|l| matches!(l, OutputLine::Value { .. }))
                .count() as u64;
            out.extend(err.map(|e| e.to_string()));
            out
        }
        Err(e) => vec![e.to_string()],
    };
    acc.eval_allocs += a1 - a0;
    acc.render_allocs += allocs() - a1;
    acc.stats_values += s.last_stats().values;
    *aliases = s.into_aliases();
    acc.shim_ns += wall.elapsed().as_nanos() as u64;
    out
}

/// Evaluates `text` on `t` in eager and in lazy symbolic mode, in the
/// given order, and adds both times.
pub fn sym_pair(
    t: &mut dyn Target,
    opts: &EvalOptions,
    text: &str,
    eager_first: bool,
    acc: &mut Traced,
) {
    let modes = if eager_first {
        [SymMode::Eager, SymMode::Lazy]
    } else {
        [SymMode::Lazy, SymMode::Eager]
    };
    for mode in modes {
        let o = EvalOptions {
            sym_mode: mode,
            ..opts.clone()
        };
        let mut s = Session::with_options(&mut *t, o);
        let t0 = Instant::now();
        black_box(s.eval_partial(text).is_ok());
        let ns = t0.elapsed().as_nanos() as u64;
        if mode == SymMode::Eager {
            acc.sym_eager_ns += ns;
            acc.sym_values += s.last_stats().values;
        } else {
            acc.sym_lazy_ns += ns;
        }
    }
}

/// DUEL's ns per element of `#/(x[..n] >? 500)` on a bare image, over
/// the ns per element of a native Rust walk of the same bytes; medians
/// of nine interleaved rounds. 0 if the two counts disagree.
pub fn native_ratio(sim: &mut SimTarget, n: usize, opts: &EvalOptions) -> f64 {
    let addr = sim.get_variable("x").map_or(0, |v| v.addr);
    let expr = format!("#/(x[..{n}] >? 500)");
    let (mut duel, mut native) = (Vec::new(), Vec::new());
    for _ in 0..9 {
        let t0 = Instant::now();
        let r = Session::with_options(&mut *sim, opts.clone()).eval_lines(&expr);
        duel.push(t0.elapsed().as_nanos() as f64 / n as f64);
        let t0 = Instant::now();
        let mut count = 0u64;
        for i in 0..n as u64 {
            if sim
                .core
                .read_int(black_box(addr + 4 * i))
                .is_ok_and(|v| v > 500)
            {
                count += 1;
            }
        }
        native.push(t0.elapsed().as_nanos() as f64 / n as f64);
        if r.ok() != Some(vec![count.to_string()]) {
            return 0.0;
        }
    }
    quantile(&duel, 0.5) / quantile(&native, 0.5)
}
