//! Chaos campaigns against the full CLI tower.
//!
//! Property: under arbitrary scripted fault campaigns (kill / hang /
//! garble / revive at random operation counts), the REPL session never
//! panics and every expression either yields values or a symbolic
//! error — the supervisor may serve stale reads or fail fast, but the
//! session itself stays alive and can keep evaluating.
//!
//! Deterministic companions: a backend killed mid-`.record` still
//! finalizes a well-formed capture (parseable, footer present), and a
//! revived backend recovers to byte-identical output after
//! `.health reconnect`.

use duel::cli::Repl;
use duel::target::capture::Capture;
use duel::target::{attribution_coverage, SpanKind};
use proptest::prelude::*;

/// Pure-read queries that always produce at least one output line on a
/// healthy backend (values) and at least an error line on a sick one.
const BATTERY: &[&str] = &[
    "x[..5]",
    "x[1..4,8,12..50] >? 5 <? 10",
    "#/(head-->next)",
    "root-->(left,right)->key",
];

/// Runs one line and asserts the session-survival invariants: the REPL
/// wants to keep going, and no panic escaped the evaluator (a caught
/// panic would print `internal error: ...`).
fn step(r: &mut Repl, line: &str, log: &mut String) -> Result<String, TestCaseError> {
    let mut out = String::new();
    let alive = r.handle(line, &mut out);
    log.push_str(&format!("> {line}\n{out}"));
    prop_assert!(alive, "session gave up on `{line}`:\n{log}");
    prop_assert!(
        !out.contains("internal error:"),
        "panic escaped on `{line}`:\n{log}"
    );
    Ok(out)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24, ..ProptestConfig::default()
    })]

    #[test]
    fn scripted_campaigns_never_kill_the_session(
        seed in 0u64..u64::MAX,
        events in 0usize..8,
        span in 1u64..400,
    ) {
        let mut r = Repl::new();
        let mut log = String::new();
        // Keep failing evaluations cheap: the op deadline clamps retry
        // backoff to the evaluation's own time budget.
        step(&mut r, ".set timeout 40", &mut log)?;
        let chaos = r.chaos_handle().expect("sim backend has a chaos gate");
        let script = chaos.campaign(seed, events, span);
        let scripted = script.len();
        chaos.load_script(script);

        for round in 0..3 {
            for q in BATTERY {
                let out = step(&mut r, q, &mut log)?;
                prop_assert!(
                    !out.is_empty(),
                    "`{q}` (round {round}) yielded neither values nor an \
                     error:\n{log}"
                );
            }
            // Dot-commands must stay available mid-campaign.
            step(&mut r, ".stats", &mut log)?;
        }
        step(&mut r, ".health", &mut log)?;
        prop_assert!(scripted <= events);
    }

    #[test]
    fn campaigns_with_final_revive_always_recover(seed in 0u64..u64::MAX) {
        let mut r = Repl::new();
        let mut log = String::new();
        step(&mut r, ".set timeout 40", &mut log)?;
        let clean = step(&mut r, "x[..3]", &mut log)?;

        let chaos = r.chaos_handle().unwrap();
        let mut script = chaos.campaign(seed, 4, 50);
        script.retain(|e| e.at_op > 0);
        chaos.load_script(script);
        for q in BATTERY {
            step(&mut r, q, &mut log)?;
        }
        // End of campaign: drop any events that have not fired yet,
        // revive the gate, force recovery, and demand byte-identical
        // output again.
        chaos.load_script(Vec::new());
        chaos.revive();
        let rec = step(&mut r, ".health reconnect", &mut log)?;
        prop_assert!(rec.contains("reconnected"), "{}", log);
        let after = step(&mut r, "x[..3]", &mut log)?;
        prop_assert_eq!(&after, &clean, "post-recovery output diverged:\n{}", log);
        prop_assert!(!after.contains("<stale>"), "{}", log);
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, ..ProptestConfig::default()
    })]

    /// Span-attribution invariant under chaos: whatever the fault
    /// campaign does — retries, breaker trips, fast-fails, stale
    /// serves — every wire event the trace ring holds must still chain
    /// through live parent spans to an `eval` root, and the span stack
    /// must be balanced (nothing left open) once the REPL is idle.
    #[test]
    fn span_attribution_survives_chaos_campaigns(
        seed in 0u64..u64::MAX,
        events in 0usize..8,
        span in 1u64..400,
    ) {
        let mut r = Repl::new();
        let mut log = String::new();
        step(&mut r, ".set timeout 40", &mut log)?;
        // Size the ring so nothing is evicted mid-campaign: coverage
        // is only guaranteed for wire spans whose parents are still
        // buffered.
        step(&mut r, ".set trace_buf 65536", &mut log)?;
        step(&mut r, ".trace on", &mut log)?;
        let chaos = r.chaos_handle().expect("sim backend has a chaos gate");
        chaos.load_script(chaos.campaign(seed, events, span));

        for _ in 0..2 {
            for q in BATTERY {
                step(&mut r, q, &mut log)?;
            }
        }

        let snap = r.span_context().snapshot();
        let (ok, total) = attribution_coverage(&snap);
        prop_assert!(total > 0, "campaign recorded no wire events:\n{}", log);
        prop_assert_eq!(
            total as u64,
            r.trace_handle().snapshot().total_calls(),
            "a traced call left no wire span:\n{}", log
        );
        prop_assert_eq!(
            ok, total,
            "events lost their ancestor chain under chaos:\n{}", log
        );
        prop_assert!(
            snap.open.is_empty(),
            "spans left open at quiescence: {:?}\n{}", snap.open, log
        );
        prop_assert_eq!(snap.dropped, 0, "ring wrapped despite trace_buf:\n{}", log);
        // Retry episodes stay logical: attempts are instants *inside*
        // a retry span, never free-floating retry spans per attempt.
        for s in &snap.spans {
            if s.name == "attempt" {
                let parent = snap.find(s.parent);
                prop_assert!(
                    parent.is_some_and(|p| p.kind == SpanKind::Retry && p.name == "retry"),
                    "attempt {:?} not parented by a retry episode\n{}", s, log
                );
            }
        }
    }
}

/// Breaker-open fast-fails are still causally attributed: once the
/// circuit trips on a killed backend, the supervisor's `fast-fail` /
/// `breaker-trip` marks and the failing wire events must all resolve
/// to the eval that caused them.
#[test]
fn breaker_fast_fails_still_attribute_to_the_causing_eval() {
    let mut r = Repl::new();
    let mut out = String::new();
    r.handle(".set timeout 40", &mut out);
    r.handle(".set trace_buf 65536", &mut out);
    r.handle(".trace on", &mut out);
    r.handle(".chaos kill", &mut out);
    // Default supervision trips after 3 consecutive transient
    // failures; uncached ranges force every eval onto the dead wire.
    for lo in [20, 30, 40, 50, 60] {
        r.handle(&format!("x[{lo}..{}]", lo + 5), &mut out);
    }

    let snap = r.span_context().snapshot();
    let marks: Vec<_> = snap
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Supervise)
        .collect();
    assert!(
        marks
            .iter()
            .any(|s| s.name == "breaker-trip" || s.name == "fast-fail"),
        "no supervision marks recorded: {marks:?}"
    );
    for m in &marks {
        let chain = snap
            .ancestry(m.id)
            .unwrap_or_else(|| panic!("supervision mark {m:?} has a dead parent"));
        assert!(
            chain.first().is_some_and(|r| r.kind == SpanKind::Root),
            "mark {m:?} does not chain to an eval root"
        );
    }
    let (ok, total) = attribution_coverage(&snap);
    assert!(total > 0);
    assert_eq!(total as u64, r.trace_handle().snapshot().total_calls());
    assert_eq!(ok, total, "failing wire events lost their attribution");
}

/// Under the prefetch planner, a vectored read is one `multi_read`
/// parent span whose per-range instant children account for exactly
/// the batch: as many `range` children as the batch declared ranges.
#[test]
fn multiread_children_sum_to_the_batch_under_prefetch() {
    let mut r = Repl::new();
    let mut out = String::new();
    r.handle(".set trace_buf 65536", &mut out);
    r.handle(".trace on", &mut out);
    r.handle(".set prefetch on", &mut out);
    r.handle("#/(head-->next)", &mut out);
    r.handle("x[..30] >? 5", &mut out);

    let snap = r.span_context().snapshot();
    let batches: Vec<_> = snap
        .spans
        .iter()
        .filter(|s| s.name == "multi_read")
        .collect();
    assert!(
        !batches.is_empty(),
        "prefetch produced no vectored reads: {:?}",
        snap.spans
    );
    for b in &batches {
        // Span detail is `"{n} ranges, {total}b"`.
        let declared: usize = b
            .detail
            .split(' ')
            .next()
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("unparseable batch detail {:?}", b.detail));
        let children = snap
            .spans
            .iter()
            .filter(|s| s.parent == b.id && s.kind == SpanKind::Range)
            .count();
        assert_eq!(
            children, declared,
            "batch {b:?} declared {declared} ranges but recorded {children} children"
        );
        // And the batch itself chains to the causing eval node.
        let chain = snap.ancestry(b.id).expect("batch has live ancestry");
        assert!(chain.first().is_some_and(|r| r.kind == SpanKind::Root));
        assert!(
            chain.iter().any(|r| r.kind == SpanKind::Node),
            "batch {b:?} is not attributed to an evaluator node"
        );
    }
}

#[test]
fn kill_mid_record_still_finalizes_the_capture() {
    let dir = std::env::temp_dir().join("duel-chaos-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("chaos-{}.jsonl", std::process::id()));
    let path_s = path.display().to_string();

    let mut r = Repl::new();
    let mut out = String::new();
    r.handle(".set timeout 40", &mut out);
    r.handle(&format!(".record {path_s}"), &mut out);
    assert!(out.contains("recording to"), "{out}");
    r.handle("x[..5]", &mut out);

    // The backend dies mid-session; evaluation fails but the recorder
    // must keep its file consistent.
    r.handle(".chaos kill", &mut out);
    r.handle("x[20..30]", &mut out);
    out.clear();
    r.handle(".record stop", &mut out);
    assert!(out.contains("capture finalized"), "{out}");

    let text = std::fs::read_to_string(&path).unwrap();
    let cap = Capture::parse(&text)
        .unwrap_or_else(|e| panic!("capture written under chaos does not parse: {e}\n{text}"));
    assert!(
        cap.footer_types.is_some(),
        "capture footer missing after mid-record kill:\n{text}"
    );
    let last = text.lines().last().unwrap();
    assert!(last.starts_with("{\"footer\":true,"), "{last}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn hung_backend_is_reported_not_waited_on() {
    let mut r = Repl::new();
    let mut out = String::new();
    r.handle(".set timeout 40", &mut out);
    r.handle("x[..3]", &mut out);
    r.handle(".chaos hang", &mut out);
    out.clear();
    // x[20] is outside the cached page: the read needs the hung wire
    // and must come back as a timeout, not block the REPL.
    let started = std::time::Instant::now();
    r.handle("x[20]", &mut out);
    assert!(
        started.elapsed() < std::time::Duration::from_secs(5),
        "hung backend stalled the session"
    );
    assert!(out.contains("timed out"), "{out}");
}
