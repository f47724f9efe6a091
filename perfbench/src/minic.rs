//! `local_scan` and `watch_session`: the `duel` REPL over a seeded
//! mini-C program.
//!
//! The untraced run drives [`Repl::handle`] exactly as a user at the
//! `duel` prompt would. The traced run drives three copies of the
//! session in lockstep: the REPL itself, an unshimmed copy of the
//! tower the REPL builds (so the REPL's own cost can be subtracted),
//! and a copy with a timing shim above every layer.

use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use duel_cli::Repl;
use duel_core::{EvalOptions, Value};
use duel_minic::{Debugger, StopReason};
use duel_target::{
    CacheConfig, CacheStats, CachedTarget, RecordTarget, RetryTarget, SupervisedTarget, Target,
    TraceTarget,
};

use crate::gen::{self, ScanModel, WatchModel};
use crate::layers::{eval_traced, native_ratio, sym_pair, Split, Traced};
use crate::shim::{Counters, Shim};
use crate::{
    allocs, check, eval_cmd, quantile, Args, Cmd, EndToEnd, Report, Workload, MIN_CMDS, SETUP_REPS,
};

fn query(text: String, expect: Vec<String>) -> Cmd {
    let values = expect.len() as u64;
    Cmd {
        text,
        expect,
        values,
    }
}

fn debugger_cmd(text: &str, expect: String) -> Cmd {
    Cmd {
        text: text.into(),
        expect: vec![expect],
        values: 0,
    }
}

// ---------------------------------------------------------------------
// Command scripts and their oracle.

/// `local_scan` commands: filter scans, counts, `-->` walks over the
/// hash table and the list, a reduction and a selection, in rotation.
fn scan_cycle(m: &ScanModel) -> Vec<Cmd> {
    let n = gen::SCAN_N;
    let xs = |keep: &dyn Fn(i32) -> bool| -> Vec<String> {
        m.x.iter()
            .enumerate()
            .filter(|(_, v)| keep(**v))
            .map(|(i, v)| format!("x[{i}] = {v}"))
            .collect()
    };
    let walk = |root: &dyn Fn(usize) -> String,
                chains: &[Vec<i32>],
                field: &str,
                keep: &dyn Fn(i32) -> bool| {
        let mut out = Vec::new();
        for (b, chain) in chains.iter().enumerate() {
            for (d, v) in chain.iter().enumerate() {
                if keep(*v) {
                    out.push(format!("{} = {v}", gen::walk_sym(&root(b), d, field)));
                }
            }
        }
        out
    };
    let count = |c: usize| vec![c.to_string()];
    let mut first20 = xs(&|v| v > 900);
    first20.truncate(20);
    vec![
        query(format!("x[..{n}] >? 990"), xs(&|v| v > 990)),
        query(
            format!("#/(x[..{n}] >? 500)"),
            count(m.x.iter().filter(|&&v| v > 500).count()),
        ),
        query(
            format!("#/(hash[..{}]-->next->scope ==? 0)", gen::SCAN_BUCKETS),
            count(m.hash.iter().flatten().filter(|&&v| v == 0).count()),
        ),
        query(
            "L-->next->v >? 990".into(),
            walk(&|_| "L".into(), std::slice::from_ref(&m.list), "v", &|v| {
                v > 990
            }),
        ),
        query(format!("(x[..{n}] >? 900)[[0..19]]"), first20),
        query(
            format!("+/x[..{n}]"),
            vec![m.x.iter().map(|&v| v as i64).sum::<i64>().to_string()],
        ),
        query(
            format!("hash[..{}]-->next->scope ==? 9", gen::SCAN_BUCKETS),
            walk(&|b| format!("hash[{b}]"), &m.hash, "scope", &|v| v == 9),
        ),
        query("#/(L-->next)".into(), count(m.list.len())),
    ]
}

/// `watch_session` commands: at every stop of the watch on `x[w]`, one
/// short query, one assignment, and every fourth stop a `.step`.
struct WatchScript {
    model: WatchModel,
    w: usize,
    stops: u64,
    at_stop: bool,
    stepped: bool,
    queue: VecDeque<Cmd>,
}

impl WatchScript {
    fn new(seed: u64) -> WatchScript {
        WatchScript {
            model: WatchModel::new(seed),
            w: watch_index(seed),
            stops: 0,
            at_stop: false,
            stepped: false,
            queue: VecDeque::new(),
        }
    }

    fn next_cmd(&mut self) -> Cmd {
        if let Some(c) = self.queue.pop_front() {
            return c;
        }
        let m = &mut self.model;
        m.cont_to_change(self.w, self.at_stop, self.stepped);
        self.at_stop = true;
        self.stepped = false;
        let stop = self.stops;
        self.stops += 1;
        // Scalar reads, about as costly as the assignment after them, so
        // the median lands among commands of one kind.
        let q = match stop % 4 {
            0 => query(format!("x[{}]", self.w), vec![m.x[self.w].to_string()]),
            1 => query("tick".into(), vec![m.tick.to_string()]),
            2 => query("L->v".into(), vec![m.list[0].to_string()]),
            _ => query("it".into(), vec![m.it.to_string()]),
        };
        self.queue.push_back(q);
        self.queue
            .push_back(query(format!("probe = {stop}"), vec![stop.to_string()]));
        if stop % 4 == 3 {
            m.step();
            self.stepped = true;
            self.queue.push_back(debugger_cmd(
                ".step",
                format!("line {}", gen::WATCH_STEP_LINE),
            ));
        }
        debugger_cmd(
            ".cont",
            format!("watchpoint fired at line {}", gen::WATCH_STOP_LINE),
        )
    }
}

fn watch_index(seed: u64) -> usize {
    (seed % gen::WATCH_N as u64) as usize
}

enum Script {
    Cycle(Vec<Cmd>, usize),
    Watch(Box<WatchScript>),
}

impl Script {
    fn new(args: &Args) -> Script {
        match args.workload {
            Workload::LocalScan => Script::Cycle(scan_cycle(&ScanModel::new(args.seed)), 0),
            _ => Script::Watch(Box::new(WatchScript::new(args.seed))),
        }
    }

    fn next_cmd(&mut self) -> Cmd {
        match self {
            Script::Cycle(cmds, i) => {
                let c = &cmds[*i % cmds.len()];
                *i += 1;
                Cmd {
                    text: c.text.clone(),
                    expect: c.expect.clone(),
                    values: c.values,
                }
            }
            Script::Watch(w) => w.next_cmd(),
        }
    }
}

// ---------------------------------------------------------------------
// Setting up a session.

struct Program {
    src: String,
    path: String,
    /// `.break` line the session runs to.
    stop_line: u32,
    /// Watch expression set once stopped (removing the breakpoint).
    watch: Option<String>,
}

impl Program {
    fn generate(args: &Args) -> Program {
        let (name, src, stop_line, watch) = match args.workload {
            Workload::LocalScan => (
                "local_scan",
                gen::scan_source(args.seed),
                gen::return_line(&gen::scan_source(args.seed)),
                None,
            ),
            _ => (
                "watch_session",
                gen::watch_source(args.seed),
                gen::WATCH_LOOP_LINE,
                Some(format!("x[{}]", watch_index(args.seed))),
            ),
        };
        let path = gen::write_input(&format!("{name}-{}.c", args.seed), &src);
        Program {
            src,
            path: path.to_string_lossy().into_owned(),
            stop_line,
            watch,
        }
    }

    /// Loads the program into a fresh REPL and runs it to the first
    /// stop, checking every reply.
    fn repl(&self) -> Result<Repl, String> {
        let mut repl = Repl::new();
        let mut expect = |cmd: String, want: String| {
            let mut out = String::new();
            repl.handle(&cmd, &mut out);
            if out.trim_end() == want {
                Ok(())
            } else {
                Err(format!("set-up `{cmd}` replied {out:?}, expected {want:?}"))
            }
        };
        expect(
            format!(".load {}", self.path),
            format!("compiled `{}`; set breakpoints and .run", self.path),
        )?;
        let line = self.stop_line;
        expect(
            format!(".break {line}"),
            format!("breakpoint at line {line}"),
        )?;
        expect(".run".into(), format!("breakpoint hit at line {line}"))?;
        if let Some(w) = &self.watch {
            expect(format!(".delete {line}"), String::new())?;
            expect(format!(".watch {w}"), format!("watching `{w}`"))?;
        }
        Ok(repl)
    }

    /// A debugger stopped where [`Program::repl`] stops, outside any
    /// REPL, with the watchpoint when `watch`.
    fn debugger(&self, watch: bool) -> Result<Debugger, String> {
        let mut d = Debugger::new(&self.src).map_err(|e| format!("compile: {e:?}"))?;
        d.add_breakpoint(self.stop_line);
        match d.run() {
            Ok(StopReason::Breakpoint { .. }) => {}
            other => return Err(format!("run to the first stop: {other:?}")),
        }
        if let Some(w) = &self.watch {
            d.remove_breakpoint(self.stop_line);
            if watch {
                d.add_watchpoint(w);
            }
        }
        Ok(d)
    }
}

// ---------------------------------------------------------------------
// Copies of the REPL's tower.

/// The tower `duel` builds over a mini-C program.
type Bare = TraceTarget<SupervisedTarget<RetryTarget<CachedTarget<RecordTarget<Debugger>>>>>;

/// The same tower with a shim above every layer.
type Shimmed = Shim<
    TraceTarget<
        Shim<
            SupervisedTarget<
                Shim<RetryTarget<Shim<CachedTarget<Shim<RecordTarget<Shim<Debugger>>>>>>>,
            >,
        >,
    >,
>;

/// Which [`crate::layers::TARGET_LAYERS`] entry each shim sits above.
const SHIM_LAYERS: [usize; 6] = [0, 1, 2, 3, 4, 6];
/// The shim directly below the page cache.
const BELOW_CACHE: usize = 4;

fn bare_tower(d: Debugger) -> Bare {
    TraceTarget::with_label(
        SupervisedTarget::new(RetryTarget::new(CachedTarget::with_config(
            RecordTarget::new(d),
            CacheConfig::default(),
        ))),
        "session",
    )
}

fn shimmed_tower(d: Debugger, s: &[Arc<Counters>; 6]) -> Shimmed {
    Shim::new(
        TraceTarget::with_label(
            Shim::new(
                SupervisedTarget::new(Shim::new(
                    RetryTarget::new(Shim::new(
                        CachedTarget::with_config(
                            Shim::new(RecordTarget::new(Shim::new(d, &s[5])), &s[4]),
                            CacheConfig::default(),
                        ),
                        &s[3],
                    )),
                    &s[2],
                )),
                &s[1],
            ),
            "session",
        ),
        &s[0],
    )
}

/// What the REPL reaches inside its tower for debugger commands.
trait MinicStack: Target {
    fn debugger(&mut self) -> &mut Debugger;
    fn invalidate(&mut self);
}

impl MinicStack for Bare {
    fn debugger(&mut self) -> &mut Debugger {
        self.inner_mut()
            .inner_mut()
            .inner_mut()
            .inner_mut()
            .inner_mut()
    }
    fn invalidate(&mut self) {
        self.inner_mut().inner_mut().inner_mut().invalidate_all()
    }
}

impl Shimmed {
    fn cache(&mut self) -> &mut CachedTarget<Shim<RecordTarget<Shim<Debugger>>>> {
        let supervised = self.inner_mut().inner_mut().inner_mut();
        supervised.inner_mut().inner_mut().inner_mut().inner_mut()
    }

    fn cache_stats(&self) -> CacheStats {
        let supervised = self.inner().inner().inner();
        supervised.inner().inner().inner().inner().stats().clone()
    }
}

impl MinicStack for Shimmed {
    fn debugger(&mut self) -> &mut Debugger {
        self.cache().inner_mut().inner_mut().inner_mut().inner_mut()
    }
    fn invalidate(&mut self) {
        self.cache().invalidate_all()
    }
}

/// `.cont` / `.step` as the REPL runs them: on the debugger, then the
/// page cache is invalidated because the program ran.
fn debug_cmd<T: MinicStack>(t: &mut T, text: &str) -> Vec<String> {
    let dbg = t.debugger();
    let line = match text {
        ".cont" => match dbg.cont() {
            Ok(StopReason::Breakpoint { line }) => format!("breakpoint hit at line {line}"),
            Ok(StopReason::Step { line }) => format!("stopped at line {line}"),
            Ok(StopReason::Watchpoint { line }) => format!("watchpoint fired at line {line}"),
            Ok(StopReason::Exited { code }) => format!("program exited with code {code}"),
            Err(e) => format!("runtime error: {e}"),
        },
        _ => match dbg.step_line() {
            Ok(StopReason::Step { line }) => format!("line {line}"),
            Ok(StopReason::Exited { code }) => format!("program exited with code {code}"),
            Ok(other) => format!("{other:?}"),
            Err(e) => format!("runtime error: {e}"),
        },
    };
    let mut out = vec![line];
    out.extend(dbg.take_output().lines().map(str::to_string));
    t.invalidate();
    out
}

fn run_on<T: MinicStack>(
    t: &mut T,
    aliases: &mut HashMap<String, Value>,
    opts: &EvalOptions,
    text: &str,
) -> Vec<String> {
    if text.starts_with('.') {
        debug_cmd(t, text)
    } else {
        eval_cmd(t, aliases, opts, text).0
    }
}

fn repl_cmd(repl: &mut Repl, text: &str) -> Vec<String> {
    let mut out = String::new();
    repl.handle(text, &mut out);
    out.lines().map(str::to_string).collect()
}

/// `cache_backend_reads` from the REPL's `.stats json`.
fn repl_backend_reads(repl: &mut Repl) -> Option<u64> {
    let mut out = String::new();
    repl.handle(".stats json", &mut out);
    let tail = out.split("\"cache_backend_reads\":").nth(1)?;
    let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

// ---------------------------------------------------------------------
// The runs.

pub fn run(args: &Args) -> Report {
    if args.trace {
        run_traced(args)
    } else {
        run_untraced(args)
    }
}

fn run_untraced(args: &Args) -> Report {
    let mut e2e = EndToEnd::default();
    let setup = || Program::generate(args).repl();
    let mut repl = match e2e.time_setup(setup) {
        Ok(r) => r,
        Err(e) => return Report::failed(e),
    };
    let mut script = Script::new(args);
    let start = Instant::now();
    while start.elapsed() < args.seconds || e2e.cmd_ns.len() < MIN_CMDS {
        if e2e.setup_due(start.elapsed(), args.seconds) {
            if let Err(e) = e2e.time_setup(setup) {
                return Report::failed(e);
            }
        }
        let cmd = script.next_cmd();
        let a0 = allocs();
        let t0 = Instant::now();
        let got = repl_cmd(&mut repl, &cmd.text);
        let ns = t0.elapsed().as_nanos() as u64;
        e2e.record(ns, cmd.values, allocs() - a0, &cmd.text, &got, &cmd.expect);
    }
    while e2e.setup_s.len() < SETUP_REPS {
        if let Err(e) = e2e.time_setup(setup) {
            return Report::failed(e);
        }
    }
    e2e.backend_reads = repl_backend_reads(&mut repl).unwrap_or_else(|| {
        e2e.errors
            .push("`.stats json` has no cache_backend_reads".into());
        0
    });
    e2e.into_report()
}

/// A twin debugger without the watchpoint or a tower, kept at the
/// session's stop. On `watch_session` it is stepped statement by
/// statement to wherever the watched session stopped, and that time is
/// the VM's share of a `.cont`. The symbolic-value pairs and the native
/// walk run on it, away from the three timed copies.
struct Twin {
    dbg: Debugger,
    it_addr: u64,
}

impl Twin {
    fn new(p: &Program) -> Result<Twin, String> {
        let mut dbg = p.debugger(false)?;
        let it_addr = dbg.get_variable("it").map_or(0, |v| v.addr);
        Ok(Twin { dbg, it_addr })
    }

    /// Steps to line `line` of iteration `it`; returns (ns, statements).
    fn step_to(&mut self, line: u32, it: u64) -> (u64, u64) {
        let (mut ns, mut stmts) = (0, 0);
        loop {
            let t0 = Instant::now();
            let r = self.dbg.step_line();
            ns += t0.elapsed().as_nanos() as u64;
            stmts += 1;
            let here = self.dbg.vm_mut().target.core.read_int(self.it_addr);
            if matches!(r, Ok(StopReason::Step { line: l }) if l == line)
                && here.is_ok_and(|v| v as u64 == it)
            {
                return (ns, stmts);
            }
            if !matches!(r, Ok(StopReason::Step { .. })) {
                return (ns, stmts);
            }
        }
    }
}

/// The VM's cost per statement on the way to the first stop: a
/// `Debugger::run` with no watchpoint, timed, over the statements a
/// second copy steps through to the same stop.
fn vm_profile(p: &Program) -> Result<(u64, u64), String> {
    let compile = |src: &str| Debugger::new(src).map_err(|e| format!("compile: {e:?}"));
    let mut d = compile(&p.src)?;
    d.add_breakpoint(p.stop_line);
    let t0 = Instant::now();
    let stop = d.run();
    let ns = t0.elapsed().as_nanos() as u64;
    if !matches!(stop, Ok(StopReason::Breakpoint { .. })) {
        return Err(format!("run to the first stop: {stop:?}"));
    }
    let mut d = compile(&p.src)?;
    let mut stmts = 0;
    loop {
        stmts += 1;
        match d.step_line() {
            Ok(StopReason::Step { line }) if line == p.stop_line => return Ok((ns, stmts)),
            Ok(StopReason::Step { .. }) => {}
            other => return Err(format!("step to the first stop: {other:?}")),
        }
    }
}

fn run_traced(args: &Args) -> Report {
    let prog = Program::generate(args);
    let mut compile = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let d = Debugger::new(&prog.src);
        compile.push(t0.elapsed().as_secs_f64());
        black_box(d.is_ok());
    }
    let shims: [Arc<Counters>; 6] = Default::default();
    let built = (|| -> Result<_, String> {
        Ok((
            prog.repl()?,
            bare_tower(prog.debugger(true)?),
            shimmed_tower(prog.debugger(true)?, &shims),
            Twin::new(&prog)?,
        ))
    })();
    let (mut repl, mut bare, mut traced, mut twin) = match built {
        Ok(b) => b,
        Err(e) => return Report::failed(e),
    };
    let opts = Repl::default_options();
    let (mut bare_aliases, mut shim_aliases) = (HashMap::new(), HashMap::new());
    let mut acc = Traced {
        compile_s: quantile(&compile, 0.5),
        ..Traced::default()
    };
    if args.workload == Workload::LocalScan {
        match vm_profile(&prog) {
            Ok((ns, stmts)) => (acc.vm_ns, acc.vm_stmts) = (ns, stmts),
            Err(e) => return Report::failed(e),
        }
    }
    for &i in &SHIM_LAYERS {
        acc.present[i] = true;
    }
    let mut errors = Vec::new();
    let mut failed = 0;
    let mut script = Script::new(args);
    let watch_model_it = |s: &Script| match s {
        Script::Watch(w) => w.model.it,
        Script::Cycle(..) => 0,
    };
    let start = Instant::now();
    while start.elapsed() < args.seconds || acc.cmds < MIN_CMDS as u64 {
        let cmd = script.next_cmd();
        let debug = cmd.text.starts_with('.');

        // The REPL and its unshimmed copy take turns going first, so
        // neither always finds the caches the other just filled.
        let (from_repl, from_bare) = if acc.cmds.is_multiple_of(2) {
            let r = repl_timed(&mut repl, &cmd.text, &mut acc);
            (
                r,
                bare_timed(&mut bare, &mut bare_aliases, &opts, &cmd.text, &mut acc),
            )
        } else {
            let b = bare_timed(&mut bare, &mut bare_aliases, &opts, &cmd.text, &mut acc);
            (repl_timed(&mut repl, &cmd.text, &mut acc), b)
        };

        let from_shims = if debug {
            let t0 = Instant::now();
            let out = debug_cmd(&mut traced, &cmd.text);
            let ns = t0.elapsed().as_nanos() as u64;
            acc.shim_ns += ns;
            acc.debug_ns += ns;
            out
        } else {
            eval_traced(
                &mut traced,
                &shims,
                &SHIM_LAYERS,
                &mut shim_aliases,
                &opts,
                &cmd.text,
                &mut acc,
            )
        };
        acc.cmds += 1;

        match cmd.text.as_str() {
            ".cont" => {
                let (ns, stmts) = twin.step_to(gen::WATCH_STOP_LINE, watch_model_it(&script));
                acc.vm_ns += ns;
                acc.vm_stmts += stmts;
            }
            ".step" => {
                let _ = twin.dbg.step_line();
            }
            text if !text.starts_with("probe") => {
                sym_pair(
                    &mut twin.dbg,
                    &opts,
                    text,
                    acc.cmds.is_multiple_of(2),
                    &mut acc,
                );
            }
            _ => {}
        }

        let mut ok = true;
        for (who, got) in [
            ("repl", &from_repl),
            ("bare copy", &from_bare),
            ("traced copy", &from_shims),
        ] {
            ok &= check(&mut errors, who, &cmd.text, got, &cmd.expect);
        }
        failed += !ok as u64;
    }

    let cs = traced.cache_stats();
    acc.cache_hits = cs.page_hits;
    acc.cache_misses = cs.page_misses;
    acc.wire_bytes = cs.wire_bytes;
    {
        let supervised = traced.inner().inner().inner();
        acc.trips = supervised.stats().trips;
        acc.retries = supervised.inner().inner().stats().retries;
    }
    let n = match args.workload {
        Workload::LocalScan => gen::SCAN_N,
        _ => gen::WATCH_N,
    };
    acc.native_ratio = native_ratio(&mut twin.dbg.vm_mut().target, n, &opts);
    let shim_reads = shims[BELOW_CACHE].get().reads;
    errors.extend(acc.agreement(cs.backend_reads, shim_reads));
    match repl_backend_reads(&mut repl) {
        Some(r) if r == shim_reads => {}
        other => errors.push(format!(
            "reads below the cache: the REPL's .stats json says {other:?}, \
             the traced copy's shim counted {shim_reads}"
        )),
    }
    let split = match args.workload {
        Workload::LocalScan => Split::EvalLargest,
        _ => Split::MinicDominates,
    };
    Report {
        notes: acc.split_notes(split),
        metrics: acc.metrics(),
        errors,
        attempted: acc.cmds,
        failed,
    }
}

fn repl_timed(repl: &mut Repl, text: &str, acc: &mut Traced) -> Vec<String> {
    let t0 = Instant::now();
    let out = repl_cmd(repl, text);
    acc.repl_ns += t0.elapsed().as_nanos() as u64;
    out
}

/// A command on the unshimmed copy. A `.cont` there is the VM plus one
/// watch evaluation per statement, which `minic.watch` splits apart.
fn bare_timed(
    bare: &mut Bare,
    aliases: &mut HashMap<String, Value>,
    opts: &EvalOptions,
    text: &str,
    acc: &mut Traced,
) -> Vec<String> {
    let t0 = Instant::now();
    let out = run_on(bare, aliases, opts, text);
    let ns = t0.elapsed().as_nanos() as u64;
    acc.bare_ns += ns;
    if text == ".cont" {
        acc.watch_cont_ns += ns;
    }
    out
}
