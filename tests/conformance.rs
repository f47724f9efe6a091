//! Per-op conformance of the decorator tower.
//!
//! Every data method of `Target` that no evaluator test reaches through
//! a decorator is driven here over `scenario::combined()`, through
//! three kinds of tower:
//!
//! * each decorator alone over a bare `SimTarget`;
//! * the `duel` REPL's production order (trace, supervise, retry,
//!   cache, record, I/O actor, fault gate);
//! * record → strict replay: the production tower with the recorder
//!   armed, then the same tower over a strict `ReplayTarget` of the
//!   capture.
//!
//! For each method the reply must equal the bare `SimTarget`'s, an
//! outer trace layer must record exactly one event of the matching
//! `TraceOp` (none for `take_output`, a host-side buffer drain that is
//! never traced), and the capture must replay with no divergence and
//! every event consumed.

use duel::ctype::Prim;
use duel::target::{
    scenario, AsyncTarget, CachedTarget, CallValue, Capture, FaultConfig, FaultTarget, ReadRange,
    RecordTarget, ReplayMode, ReplayTarget, RetryTarget, SharedSink, SpanContext, SupervisedTarget,
    Target, TraceOp, TraceTarget,
};

/// The methods under test.
#[derive(Clone, Copy, Debug)]
enum Method {
    LookupUnion,
    HasFunction,
    AllocSpace,
    CallFunc,
    FrameInfo,
    IsMapped,
    TakeOutput,
    /// A vectored read whose middle range is unmapped.
    MultiRead,
}

const METHODS: [Method; 8] = [
    Method::LookupUnion,
    Method::HasFunction,
    Method::AllocSpace,
    Method::CallFunc,
    Method::FrameInfo,
    Method::IsMapped,
    Method::TakeOutput,
    Method::MultiRead,
];

impl Method {
    /// The trace bucket one call of this method lands in.
    fn trace_op(self) -> Option<TraceOp> {
        match self {
            Method::LookupUnion => Some(TraceOp::LookupType),
            Method::HasFunction => Some(TraceOp::HasFunction),
            Method::AllocSpace => Some(TraceOp::AllocSpace),
            Method::CallFunc => Some(TraceOp::CallFunc),
            Method::FrameInfo => Some(TraceOp::Frames),
            Method::IsMapped => Some(TraceOp::IsMapped),
            Method::TakeOutput => None,
            Method::MultiRead => Some(TraceOp::MultiRead),
        }
    }

    /// Calls made before the measured one, so it has state to observe
    /// (debuggee output to drain). Returns the address of `x`.
    fn setup(self, t: &mut dyn Target) -> u64 {
        if let Method::TakeOutput = self {
            let fmt = b"n=%d\n\0";
            let addr = t.alloc_space(fmt.len() as u64, 1).unwrap();
            t.put_bytes(addr, fmt).unwrap();
            let args = format_args(t, addr, 42);
            t.call_func("printf", &args).unwrap();
        }
        t.get_variable("x").unwrap().addr
    }

    /// The measured call (exactly one `Target` call); its reply
    /// rendered for comparison.
    fn run(self, t: &mut dyn Target, x: u64) -> String {
        match self {
            Method::LookupUnion => format!("{:?}", t.lookup_union("nonesuch")),
            Method::HasFunction => format!("{:?}", t.has_function("printf")),
            Method::AllocSpace => format!("{:?}", t.alloc_space(24, 8)),
            Method::CallFunc => {
                let int = t.types_mut().prim(Prim::Int);
                let arg = CallValue::from_u64(int, (-17i32) as u32 as u64, 4, t.abi()).unwrap();
                format!("{:?}", t.call_func("abs", &[arg]))
            }
            Method::FrameInfo => format!("{:?}", t.frame_info(0)),
            Method::IsMapped => format!("{:?}", t.is_mapped(x, 8)),
            Method::TakeOutput => format!("{:?}", t.take_output()),
            Method::MultiRead => {
                let (mut a, mut b, mut c) = ([0u8; 8], [0u8; 4], [0u8; 12]);
                let mut ranges = [
                    ReadRange::new(x, &mut a),
                    ReadRange::new(0x10, &mut b),
                    ReadRange::new(x + 12, &mut c),
                ];
                let results = t.get_bytes_multi(&mut ranges);
                format!("{results:?} {a:?} {b:?} {c:?}")
            }
        }
    }
}

/// `printf(fmt, n)` arguments: a `char *` and an `int`.
fn format_args(t: &mut dyn Target, fmt: u64, n: u64) -> Vec<CallValue> {
    let (abi, psize) = (t.abi().clone(), t.abi().pointer_bytes as usize);
    let char_ty = t.types_mut().prim(Prim::Char);
    let ptr = t.types_mut().pointer(char_ty);
    let int = t.types_mut().prim(Prim::Int);
    vec![
        CallValue::from_u64(ptr, fmt, psize, &abi).unwrap(),
        CallValue::from_u64(int, n, 4, &abi).unwrap(),
    ]
}

/// What the bare backend answers.
fn bare(m: Method) -> String {
    let mut t = scenario::combined();
    let x = m.setup(&mut t);
    m.run(&mut t, x)
}

/// Runs `m` on `t` and checks its reply against the bare backend's.
fn check_reply(m: Method, tower: &str, t: &mut dyn Target) {
    let x = m.setup(t);
    assert_eq!(m.run(t, x), bare(m), "{m:?} through {tower}");
}

/// Every decorator, alone over a fresh combined scenario.
fn single_layers() -> Vec<(&'static str, Box<dyn Target>)> {
    let sim = scenario::combined;
    let mut record = RecordTarget::new(sim());
    record
        .start(Box::new(SharedSink::new()), "sim", "combined")
        .unwrap();
    vec![
        ("trace", Box::new(TraceTarget::new(sim()))),
        ("supervise", Box::new(SupervisedTarget::new(sim()))),
        ("retry", Box::new(RetryTarget::new(sim()))),
        ("cache", Box::new(CachedTarget::new(sim()))),
        ("record", Box::new(record)),
        (
            "fault",
            Box::new(FaultTarget::new(sim(), FaultConfig::default())),
        ),
        ("async inline", Box::new(AsyncTarget::new(sim()))),
        ("async actor", Box::new(AsyncTarget::spawned(sim()))),
    ]
}

type Production<T> = TraceTarget<SupervisedTarget<RetryTarget<CachedTarget<RecordTarget<T>>>>>;

/// The REPL's tower order over `backend`.
fn production<T: Target>(backend: T) -> Production<T> {
    TraceTarget::with_label(
        SupervisedTarget::new(RetryTarget::new(CachedTarget::new(RecordTarget::new(
            backend,
        )))),
        "session",
    )
}

fn recorder<T: Target>(t: &mut Production<T>) -> &mut RecordTarget<T> {
    t.inner_mut().inner_mut().inner_mut().inner_mut()
}

/// Runs `m` with tracing off for the setup and on for the measured
/// call; returns the reply and the ops the trace layer recorded.
fn traced_run<T: Target>(m: Method, t: &mut Production<T>) -> (String, Vec<TraceOp>) {
    let x = m.setup(t);
    let (handle, spans) = (t.handle(), t.spans());
    handle.set_enabled(true);
    spans.set_enabled(true);
    let reply = m.run(t, x);
    handle.set_enabled(false);
    spans.set_enabled(false);
    (reply, wire_ops(&spans))
}

/// The ops of the wire spans on a timeline, oldest first.
fn wire_ops(spans: &SpanContext) -> Vec<TraceOp> {
    spans.snapshot().wire().map(|w| w.op().unwrap()).collect()
}

/// The measured call leaves exactly one wire span of the right kind.
fn check_trace(m: Method, tower: &str, ops: &[TraceOp]) {
    match m.trace_op() {
        Some(op) => assert_eq!(ops, &[op], "{m:?} trace through {tower}"),
        None => assert!(ops.is_empty(), "{m:?} is never traced: {ops:?}"),
    }
}

#[test]
fn each_layer_alone_answers_like_the_bare_backend() {
    for m in METHODS {
        for (name, mut t) in single_layers() {
            check_reply(m, name, &mut *t);
        }
    }
}

#[test]
fn the_trace_layer_alone_records_one_event_per_call() {
    for m in METHODS {
        let mut t = TraceTarget::new(scenario::combined());
        let x = m.setup(&mut t);
        t.handle().set_enabled(true);
        t.spans().set_enabled(true);
        assert_eq!(m.run(&mut t, x), bare(m), "{m:?} through trace");
        check_trace(m, "trace", &wire_ops(&t.spans()));
    }
}

#[test]
fn the_production_tower_answers_and_traces_each_op() {
    for m in METHODS {
        for pipelined in [false, true] {
            let mut gate = AsyncTarget::new(FaultTarget::new(
                scenario::combined(),
                FaultConfig::default(),
            ));
            gate.set_async(pipelined);
            let mut t = production(gate);
            let (reply, ops) = traced_run(m, &mut t);
            let tower = if pipelined {
                "production (actor)"
            } else {
                "production"
            };
            assert_eq!(reply, bare(m), "{m:?} through {tower}");
            check_trace(m, tower, &ops);
        }
    }
}

/// Records `m` through the production tower; returns the capture.
fn record(m: Method) -> String {
    let sink = SharedSink::new();
    let mut t = production(scenario::combined());
    recorder(&mut t)
        .start(Box::new(sink.clone()), "sim", "combined")
        .unwrap();
    let (reply, _) = traced_run(m, &mut t);
    assert_eq!(reply, bare(m), "{m:?} while recording");
    recorder(&mut t).stop().unwrap();
    sink.contents()
}

#[test]
fn every_op_survives_record_then_strict_replay() {
    for m in METHODS {
        let capture = record(m);
        let cap = Capture::parse(&capture).unwrap();
        let total = cap.events.len();
        assert!(total > 0, "{m:?} recorded nothing");
        let mut t = production(ReplayTarget::from_capture(cap, ReplayMode::Strict));
        let (reply, ops) = traced_run(m, &mut t);
        assert_eq!(reply, bare(m), "{m:?} through strict replay");
        check_trace(m, "strict replay", &ops);
        let replay = recorder(&mut t).inner();
        assert_eq!(replay.divergence(), None, "{m:?} diverged");
        assert_eq!(replay.events_consumed(), total, "{m:?} left events unread");
    }
}
