//! End-to-end and per-layer benchmark of DUEL queries.
//!
//! ```text
//! duel-perfbench --workload local_scan|remote_walk|watch_session
//!                --seed N --seconds S --trace 0|1
//! ```
//!
//! One simulated user drives one DUEL session as a closed loop: the
//! next command is sent only after the previous one has rendered. Every
//! command's output is checked against an oracle computed from the seed
//! without DUEL. `--trace 0` reports the end-to-end metrics, `--trace 1`
//! the per-layer ones from a separate run with timing shims between
//! the layers. The last line of standard output is one JSON object;
//! the lines before it are the same numbers for a human. See
//! `WORKLOADS.md` for what each workload stresses.

mod gen;
mod layers;
mod minic;
mod remote;
mod shim;

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use duel_core::session::render_lines;
use duel_core::{EvalOptions, Session, Value};
use duel_target::Target;

/// Counts heap allocations on every thread, so the benchmark can
/// report allocations per value.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator;
// the counter is a statistic and publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations so far, process-wide.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Set-ups per run; `setup_s` is their median. The first one builds the
/// session the run uses; the rest are spread evenly through the run, so
/// the median samples the host over the whole run, not one moment.
pub const SETUP_REPS: usize = 9;

/// A run issues at least this many commands, however long it takes, so
/// at least ten samples lie beyond the 90th percentile.
pub const MIN_CMDS: usize = 120;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    LocalScan,
    RemoteWalk,
    WatchSession,
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || val.parse::<u64>().map_err(|e| format!("{flag} {val}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(match val.as_str() {
                    "local_scan" => Workload::LocalScan,
                    "remote_walk" => Workload::RemoteWalk,
                    "watch_session" => Workload::WatchSession,
                    other => return Err(format!("unknown workload `{other}`")),
                })
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(Duration::from_secs(num()?.max(1))),
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(Duration::from_secs(10)),
        trace: trace.unwrap_or(false),
    })
}

/// One command of the simulated user and the output the oracle
/// expects. `values` counts the value lines where the benchmark cannot ask
/// `EvalStats` (through the REPL); 0 otherwise.
pub struct Cmd {
    pub text: String,
    pub expect: Vec<String>,
    pub values: u64,
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// What a run found.
pub struct Report {
    /// Oracle mismatches and failed agreement checks, one line each.
    pub errors: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Extra lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Report {
    /// A run whose set-up failed.
    pub fn failed(error: String) -> Report {
        Report {
            errors: vec![error],
            attempted: 1,
            failed: 1,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }
}

/// A DUEL command as the REPL evaluates it: the rendered lines, the
/// error (if any) as the last line, and `EvalStats.values`.
pub fn eval_cmd(
    t: &mut dyn Target,
    aliases: &mut HashMap<String, Value>,
    opts: &EvalOptions,
    text: &str,
) -> (Vec<String>, u64) {
    let mut s = Session::with_state(t, std::mem::take(aliases), opts.clone());
    let out = match s.eval_partial(text) {
        Ok((lines, err)) => {
            let mut out = render_lines(&lines);
            out.extend(err.map(|e| e.to_string()));
            out
        }
        Err(e) => vec![e.to_string()],
    };
    let values = s.last_stats().values;
    *aliases = s.into_aliases();
    (out, values)
}

/// Quantile `q` of `v` by linear interpolation between order statistics.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return 0.0;
    }
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The untraced run's raw measurements, shared by every workload.
#[derive(Default)]
pub struct EndToEnd {
    pub setup_s: Vec<f64>,
    /// Wall time of each command, text in to rendered lines out; 32
    /// bits, so the samples add little to the peak RSS however many
    /// commands a run issues.
    pub cmd_ns: Vec<u32>,
    pub values: u64,
    pub allocs: u64,
    pub failed: u64,
    /// Reads below the page cache, from the program's own counter.
    pub backend_reads: u64,
    pub errors: Vec<String>,
}

impl EndToEnd {
    /// Times one set-up.
    pub fn time_setup<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let built = setup();
        self.setup_s.push(t0.elapsed().as_secs_f64());
        built
    }

    /// Whether the next of the [`SETUP_REPS`] set-ups is due, `elapsed`
    /// into a run of `run`.
    pub fn setup_due(&self, elapsed: Duration, run: Duration) -> bool {
        let done = self.setup_s.len();
        done < SETUP_REPS && elapsed >= run.mul_f64(done as f64 / SETUP_REPS as f64)
    }

    /// Records one command: its wall time, value lines, allocations and
    /// whether its output matched the oracle.
    pub fn record(
        &mut self,
        ns: u64,
        values: u64,
        allocs: u64,
        cmd: &str,
        got: &[String],
        want: &[String],
    ) {
        self.cmd_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
        self.values += values;
        self.allocs += allocs;
        if !check(&mut self.errors, "session", cmd, got, want) {
            self.failed += 1;
        }
    }

    pub fn into_report(self) -> Report {
        let n = self.cmd_ns.len();
        let ms: Vec<f64> = self.cmd_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
        let busy_s = self.cmd_ns.iter().map(|&ns| ns as u64).sum::<u64>() as f64 / 1e9;
        Report {
            notes: vec![format!(
                "samples: {n} commands, {} beyond the 90th percentile",
                n - (0.9 * n as f64).ceil() as usize
            )],
            metrics: vec![
                metric("setup_s", "s", quantile(&self.setup_s, 0.5)),
                metric("cmd_ms_p50", "ms", quantile(&ms, 0.5)),
                metric("cmd_ms_p90", "ms", quantile(&ms, 0.9)),
                metric("values_per_s", "values/s", self.values as f64 / busy_s),
                metric(
                    "backend_reads_per_cmd",
                    "reads",
                    self.backend_reads as f64 / n.max(1) as f64,
                ),
                metric(
                    "allocs_per_value",
                    "allocs",
                    self.allocs as f64 / self.values.max(1) as f64,
                ),
                metric("peak_rss_mb", "MiB", peak_rss_mb()),
            ],
            errors: self.errors,
            attempted: n as u64,
            failed: self.failed,
        }
    }
}

/// Compares one command's output with the oracle's; keeps a description
/// of the first few mismatches. True when they agree.
pub fn check(
    errors: &mut Vec<String>,
    who: &str,
    cmd: &str,
    got: &[String],
    want: &[String],
) -> bool {
    let ok = got == want;
    if !ok && errors.len() < 3 {
        errors.push(format!("{who}: `{cmd}`: {}", mismatch(got, want)));
    }
    ok
}

/// A one-line description of an oracle mismatch.
fn mismatch(got: &[String], want: &[String]) -> String {
    let first = got
        .iter()
        .zip(want)
        .position(|(g, w)| g != w)
        .unwrap_or(got.len().min(want.len()));
    format!(
        "output differs from the oracle at line {first} ({} lines vs {} expected): got {:?}, want {:?}",
        got.len(),
        want.len(),
        got.get(first),
        want.get(first)
    )
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("duel-perfbench: {e}");
            eprintln!(
                "usage: duel-perfbench --workload local_scan|remote_walk|watch_session \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let name = match args.workload {
        Workload::LocalScan => "local_scan",
        Workload::RemoteWalk => "remote_walk",
        Workload::WatchSession => "watch_session",
    };
    let report = match args.workload {
        Workload::RemoteWalk => remote::run(&args),
        _ => minic::run(&args),
    };

    println!(
        "workload {name}, seed {}, {} s, {} run, {} threads available",
        args.seed,
        args.seconds.as_secs(),
        if args.trace { "traced" } else { "untraced" },
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for n in &report.notes {
        println!("{n}");
    }
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "failed_frac = {failed_frac} fraction ({} of {} commands)",
        report.failed, report.attempted
    );
    for m in &report.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    for e in &report.errors {
        println!("ERROR: {e}");
    }
    let correct = report.errors.is_empty() && report.failed == 0;
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
