//! `remote_walk`: DUEL over the pipelined MI tower, against a mock gdb
//! serving a seeded image through a link with a fixed round-trip time.
//!
//! The tower is `duel_gdbmi::connect_pipelined` under a `TraceTarget`,
//! with prefetch on. Commands mix contiguous scans of `x` (prefetch
//! windows on the I/O actor) with pointer-chasing walks of a hash table
//! whose nodes span more pages than the page cache holds. Every few
//! cycles the cache is invalidated, as after resuming the debuggee.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use duel_core::EvalOptions;
use duel_gdbmi::supervise::{connect_pipelined, PipelinedMi, WatchdogTransport};
use duel_gdbmi::{MiTarget, MockGdb};
use duel_target::{
    AsyncTarget, CacheConfig, CacheStats, CachedTarget, RetryPolicy, RetryTarget, SupervisedTarget,
    SupervisorConfig, Target, TraceTarget,
};

use crate::gen::{self, RemoteImage};
use crate::layers::{eval_traced, native_ratio, sym_pair, Split, Traced};
use crate::shim::{Counters, Shim, SlowLink, WireCounters, WireShim};
use crate::{allocs, check, eval_cmd, Args, Cmd, EndToEnd, Report, MIN_CMDS, SETUP_REPS};

/// Held on every MI round trip, send to first reply.
const LATENCY: Duration = Duration::from_micros(200);
/// Per-turn watchdog deadline: far above any healthy turn.
const TURN_DEADLINE: Duration = Duration::from_secs(10);

type Link = SlowLink;
type Bare = TraceTarget<PipelinedMi<Link>>;
type Backend = Shim<MiTarget<WireShim<WatchdogTransport<Link>>>>;
type Shimmed = Shim<
    TraceTarget<
        Shim<SupervisedTarget<Shim<RetryTarget<Shim<CachedTarget<Shim<AsyncTarget<Backend>>>>>>>>,
    >,
>;

/// Which [`crate::layers::TARGET_LAYERS`] entry each shim sits above.
const SHIM_LAYERS: [usize; 6] = [0, 1, 2, 3, 5, 6];
const BELOW_CACHE: usize = 4;

/// Bucket windows slide by this much from cycle to cycle.
const WINDOW: u64 = 80;
/// The cache is invalidated, as after a resume, every this many cycles.
const RESUME_EVERY: u64 = 4;

/// First bucket of cycle `c`'s windows.
fn window(c: u64) -> usize {
    ((c * WINDOW) % (gen::REMOTE_BUCKETS as u64 - WINDOW)) as usize
}

/// The commands of cycle `c`: scans of `x`, walks of fresh bucket
/// windows, a warm re-walk, and a re-walk of the first window of two
/// cycles back, which the LRU page cache has evicted by then (some 1500
/// node pages and the 256 pages of `x` were touched since).
fn cycle(c: u64, x: &[i32], hash: &[Vec<i32>]) -> Vec<Cmd> {
    let n = gen::REMOTE_N;
    let a = window(c);
    let back = window(c.saturating_sub(2));
    let walk = |lo: usize, hi: usize, keep: &dyn Fn(i32) -> bool| -> Vec<String> {
        let mut out = Vec::new();
        for (b, chain) in hash.iter().enumerate().take(hi + 1).skip(lo) {
            for (d, v) in chain.iter().enumerate() {
                if keep(*v) {
                    let sym = gen::walk_sym(&format!("hash[{b}]"), d, "scope");
                    out.push(format!("{sym} = {v}"));
                }
            }
        }
        out
    };
    let count = |lines: Vec<String>| vec![lines.len().to_string()];
    let xs = |keep: &dyn Fn(i32) -> bool| -> Vec<String> {
        x.iter()
            .enumerate()
            .filter(|(_, v)| keep(**v))
            .map(|(i, v)| format!("x[{i}] = {v}"))
            .collect()
    };
    let mut first10 = xs(&|v| v > 900);
    first10.truncate(10);
    let cmd = |text: String, expect: Vec<String>| Cmd {
        text,
        expect,
        values: 0,
    };
    // Four short commands and six cold 128-node walks: the median and
    // the 90th percentile both fall among the walks, which the wire
    // dominates.
    let walk16 = |lo: usize, keep: &dyn Fn(i32) -> bool| walk(lo, lo + 15, keep);
    vec![
        cmd(format!("x[..{n}] >? 990"), xs(&|v| v > 990)),
        cmd(
            format!("#/(hash[{a}..{}]-->next->scope ==? 0)", a + 15),
            count(walk16(a, &|v| v == 0)),
        ),
        cmd(
            format!("hash[{}..{}]-->next->scope ==? 9", a + 16, a + 31),
            walk16(a + 16, &|v| v == 9),
        ),
        cmd(
            format!("#/(hash[{a}..{}]-->next)", a + 15),
            count(walk16(a, &|_| true)),
        ),
        cmd(
            format!("#/(hash[{}..{}]-->next->scope >? 4)", a + 32, a + 47),
            count(walk16(a + 32, &|v| v > 4)),
        ),
        cmd(
            format!("+/x[..{n}]"),
            vec![x.iter().map(|&v| v as i64).sum::<i64>().to_string()],
        ),
        cmd(
            format!("hash[{}..{}]-->next->scope ==? 0", a + 48, a + 63),
            walk16(a + 48, &|v| v == 0),
        ),
        cmd(
            format!("#/(hash[{back}..{}]-->next->scope)", back + 15),
            count(walk16(back, &|_| true)),
        ),
        cmd(
            format!("#/(hash[{}..{}]-->next->scope <? 5)", a + 64, a + 79),
            count(walk16(a + 64, &|v| v < 5)),
        ),
        cmd(format!("(x[..{n}] >? 900)[[0..9]]"), first10),
    ]
}

fn options() -> EvalOptions {
    EvalOptions {
        prefetch: true,
        ..duel_cli::Repl::default_options()
    }
}

/// Generates the image from the seed, writes it, and reads it back:
/// the program side only ever sees the file.
fn load_image(seed: u64) -> Result<Arc<RemoteImage>, String> {
    let path = gen::write_input(
        &format!("remote_walk-{seed}.img"),
        &RemoteImage::generate(seed).to_text(),
    );
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read image: {e}"))?;
    RemoteImage::parse(&text).map(Arc::new)
}

fn connect_bare(img: &Arc<RemoteImage>) -> Result<Bare, String> {
    let img = img.clone();
    let tower = connect_pipelined(
        move || Ok(SlowLink::new(MockGdb::new(img.build()), LATENCY)),
        RetryPolicy::default(),
        CacheConfig::default(),
        SupervisorConfig::default(),
        TURN_DEADLINE,
    )
    .map_err(|e| format!("connect: {e}"))?;
    Ok(TraceTarget::new(tower))
}

/// The same tower, assembled layer by layer in `connect_pipelined`'s
/// order with a shim above each layer and one under the MI target. The
/// supervisor reconnects by probing instead of respawning, which only
/// matters after a failure, and no failure is injected.
fn connect_shimmed(
    img: &RemoteImage,
    s: &[Arc<Counters>; 6],
    wire: &Arc<WireCounters>,
) -> Result<Shimmed, String> {
    let link = WatchdogTransport::new(
        SlowLink::new(MockGdb::new(img.build()), LATENCY),
        TURN_DEADLINE,
    );
    let mi = MiTarget::connect(WireShim::new(link, wire)).map_err(|e| format!("connect: {e}"))?;
    let cache = CachedTarget::with_config(
        Shim::new(AsyncTarget::spawned(Shim::new(mi, &s[5])), &s[4]),
        CacheConfig::default(),
    );
    let retry = RetryTarget::with_policy(Shim::new(cache, &s[3]), RetryPolicy::default());
    let supervised =
        SupervisedTarget::with_config(Shim::new(retry, &s[2]), SupervisorConfig::default());
    Ok(Shim::new(
        TraceTarget::new(Shim::new(supervised, &s[1])),
        &s[0],
    ))
}

fn bare_cache(t: &mut Bare) -> &mut CachedTarget<AsyncTarget<MiTarget<WatchdogTransport<Link>>>> {
    t.inner_mut().inner_mut().inner_mut()
}

fn shimmed_cache(t: &mut Shimmed) -> &mut CachedTarget<Shim<AsyncTarget<Backend>>> {
    let supervised = t.inner_mut().inner_mut().inner_mut();
    supervised.inner_mut().inner_mut().inner_mut().inner_mut()
}

fn shimmed_stats(t: &mut Shimmed) -> CacheStats {
    shimmed_cache(t).stats().clone()
}

/// The oracle's data: a native walk of the bare image, which must also
/// agree with the generator.
fn oracle(img: &RemoteImage) -> Result<(Vec<i32>, Vec<Vec<i32>>), String> {
    let (x, hash) = RemoteImage::native_walk(&img.build());
    if x != img.x || hash != img.hash {
        return Err("the built image disagrees with its generator".into());
    }
    Ok((x, hash))
}

pub fn run(args: &Args) -> Report {
    if args.trace {
        run_traced(args)
    } else {
        run_untraced(args)
    }
}

fn run_untraced(args: &Args) -> Report {
    let mut e2e = EndToEnd::default();
    let setup = || load_image(args.seed).and_then(|img| Ok((connect_bare(&img)?, img)));
    let (mut tower, img) = match e2e.time_setup(setup) {
        Ok(b) => b,
        Err(e) => return Report::failed(e),
    };
    let (x, hash) = match oracle(&img) {
        Ok(o) => o,
        Err(e) => return Report::failed(e),
    };
    // A later set-up parks the session's I/O actor while its own runs,
    // so at most two threads run.
    let setup_again = |e2e: &mut EndToEnd, tower: &mut Bare| {
        bare_cache(tower).inner_mut().set_async(false);
        let r = e2e.time_setup(setup).map(drop);
        bare_cache(tower).inner_mut().set_async(true);
        r
    };
    let opts = options();
    let mut aliases = HashMap::new();
    let reads0 = bare_cache(&mut tower).stats().backend_reads;
    let start = Instant::now();
    let mut c = 0;
    while start.elapsed() < args.seconds || e2e.cmd_ns.len() < MIN_CMDS {
        if e2e.setup_due(start.elapsed(), args.seconds) {
            if let Err(e) = setup_again(&mut e2e, &mut tower) {
                return Report::failed(e);
            }
        }
        if c % RESUME_EVERY == 0 {
            bare_cache(&mut tower).invalidate_all();
        }
        for cmd in cycle(c, &x, &hash) {
            let a0 = allocs();
            let t0 = Instant::now();
            let (got, values) = eval_cmd(&mut tower, &mut aliases, &opts, &cmd.text);
            let ns = t0.elapsed().as_nanos() as u64;
            e2e.record(ns, values, allocs() - a0, &cmd.text, &got, &cmd.expect);
        }
        c += 1;
    }
    e2e.backend_reads = bare_cache(&mut tower).stats().backend_reads - reads0;
    while e2e.setup_s.len() < SETUP_REPS {
        if let Err(e) = setup_again(&mut e2e, &mut tower) {
            return Report::failed(e);
        }
    }
    e2e.into_report()
}

fn run_traced(args: &Args) -> Report {
    let shims: [Arc<Counters>; 6] = Default::default();
    let wire = Arc::new(WireCounters::default());
    let built = (|| -> Result<_, String> {
        let img = load_image(args.seed)?;
        let oracle = oracle(&img)?;
        let mut bare = connect_bare(&img)?;
        bare_cache(&mut bare).inner_mut().set_async(false);
        let shimmed = connect_shimmed(&img, &shims, &wire)?;
        Ok((img, oracle, bare, shimmed))
    })();
    let (img, (x, hash), mut bare, mut traced) = match built {
        Ok(b) => b,
        Err(e) => return Report::failed(e),
    };
    let mut sim = img.build();
    let opts = options();
    let (mut bare_aliases, mut shim_aliases) = (HashMap::new(), HashMap::new());
    let mut acc = Traced::default();
    for &i in &SHIM_LAYERS {
        acc.present[i] = true;
    }
    let stats0 = shimmed_stats(&mut traced);
    let reads0 = shims[BELOW_CACHE].get().reads;
    let wire0 = wire.get();
    let backend0 = shims[5].get();
    let handle = traced
        .pipeline_handle()
        .expect("the tower has an I/O actor");
    let overlap0 = handle.stats().overlap_ns;
    let (mut errors, mut failed) = (Vec::new(), 0);
    let start = Instant::now();
    let mut c = 0;
    while start.elapsed() < args.seconds || acc.cmds < MIN_CMDS as u64 {
        let cmds = cycle(c, &x, &hash);
        // One cycle on each tower, alternating which goes first; only
        // the tower in use has its I/O actor running.
        for shimmed_turn in [c % 2 == 1, c % 2 == 0] {
            if shimmed_turn {
                shimmed_cache(&mut traced)
                    .inner_mut()
                    .inner_mut()
                    .set_async(true);
                if c % RESUME_EVERY == 0 {
                    shimmed_cache(&mut traced).invalidate_all();
                }
                for cmd in &cmds {
                    let got = eval_traced(
                        &mut traced,
                        &shims[..5],
                        &SHIM_LAYERS[..5],
                        &mut shim_aliases,
                        &opts,
                        &cmd.text,
                        &mut acc,
                    );
                    acc.cmds += 1;
                    failed +=
                        !check(&mut errors, "traced copy", &cmd.text, &got, &cmd.expect) as u64;
                }
                shimmed_cache(&mut traced)
                    .inner_mut()
                    .inner_mut()
                    .set_async(false);
            } else {
                bare_cache(&mut bare).inner_mut().set_async(true);
                if c % RESUME_EVERY == 0 {
                    bare_cache(&mut bare).invalidate_all();
                }
                for cmd in &cmds {
                    let t0 = Instant::now();
                    let (got, _) = eval_cmd(&mut bare, &mut bare_aliases, &opts, &cmd.text);
                    acc.bare_ns += t0.elapsed().as_nanos() as u64;
                    failed += !check(&mut errors, "bare copy", &cmd.text, &got, &cmd.expect) as u64;
                }
                bare_cache(&mut bare).inner_mut().set_async(false);
            }
        }
        for (i, cmd) in cmds.iter().enumerate() {
            sym_pair(&mut sim, &opts, &cmd.text, i % 2 == 0, &mut acc);
        }
        c += 1;
    }
    // No REPL drives this tower: the cli layer is absent.
    acc.repl_ns = acc.bare_ns;
    let cs = shimmed_stats(&mut traced);
    acc.cache_hits = cs.page_hits - stats0.page_hits;
    acc.cache_misses = cs.page_misses - stats0.page_misses;
    acc.wire_bytes = cs.wire_bytes - stats0.wire_bytes;
    {
        let supervised = traced.inner().inner().inner();
        acc.trips = supervised.stats().trips;
        acc.retries = supervised.inner().inner().stats().retries;
    }
    let w = wire.get();
    acc.wire.sent = w.sent - wire0.sent;
    acc.wire.round_trips = w.round_trips - wire0.round_trips;
    acc.wire.ns = w.ns - wire0.ns;
    acc.overlap_ns = handle.stats().overlap_ns - overlap0;
    // The backend runs on the actor thread, outside the evaluation
    // windows the session thread measures: take its whole-run totals.
    acc.layer[6] = shims[5].get().since(backend0);
    acc.native_ratio = native_ratio(&mut sim, gen::REMOTE_N, &opts);
    let shim_reads = shims[BELOW_CACHE].get().reads - reads0;
    errors.extend(acc.agreement(cs.backend_reads - stats0.backend_reads, shim_reads));
    Report {
        notes: acc.split_notes(Split::WireDominates),
        metrics: acc.metrics(),
        errors,
        attempted: acc.cmds,
        failed,
    }
}
