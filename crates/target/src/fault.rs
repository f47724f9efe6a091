//! Deterministic fault injection for testing the robustness stack.
//!
//! [`FaultTarget`] wraps any [`Target`] and gates its four wire
//! operations (`get_bytes`, `put_bytes`, `alloc_space`, `call_func`;
//! each range of a vectored read on its own) through one injector with
//! two sources of failure:
//!
//! * a static [`FaultConfig`] *plan*, for retry and cache tests: a
//!   burst of transient errors, a permanent fail-every-N pattern,
//!   poisoned address ranges, truncated reads and artificial latency;
//! * a *mode* steered through a cloneable [`ChaosHandle`], for chaos
//!   tests of the supervision stack: the backend is Live, Dead (every
//!   wire operation fails like a killed process), Hung (every operation
//!   times out, modeling a stuck MI turn the watchdog had to kill), or
//!   Garbling (every reply comes back as seeded gibberish). Modes are
//!   switched imperatively (the reconnect strategy of a supervised
//!   tower can `revive()` the gate, playing the role of a process
//!   respawn) or by a *script* of [`ChaosEvent`]s keyed by operation
//!   count — including seeded random campaigns via
//!   [`ChaosHandle::campaign`], so a failing chaos run reproduces from
//!   its seed alone.
//!
//! Everything is counter-based, so tests are fully reproducible. Symbol
//! and type lookups model debugger-side tables and stay transparent,
//! mirroring how the retry layer treats `Option`-returning operations.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::error::{TargetError, TargetResult};
use crate::iface::{OwnedRange, PipelineTicket, ReadRange, Target};
use crate::layer::{forward_open, Op, Reply};

/// What a [`FaultTarget`] should inject.
#[derive(Clone, Debug)]
pub struct FaultConfig {
    /// Fail the first N I/O operations with [`FaultConfig::error`],
    /// then behave normally (models a backend that recovers).
    pub transient_failures: u32,
    /// Additionally fail every Nth I/O operation (0 = never) with
    /// [`FaultConfig::error`] (models a persistently flaky link).
    pub fail_every: u64,
    /// The transient error to inject.
    pub error: TargetError,
    /// Address ranges `(start, len)` that permanently fault with
    /// [`TargetError::IllegalMemory`] (models corrupted pages).
    pub poison: Vec<(u64, u64)>,
    /// Reads longer than this many bytes report
    /// [`TargetError::Truncated`] (models a half-dead remote stub).
    pub truncate_reads_above: Option<usize>,
    /// Artificial delay added to every I/O operation.
    pub latency: Duration,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig {
            transient_failures: 0,
            fail_every: 0,
            error: TargetError::Backend("injected transient fault".to_string()),
            poison: Vec::new(),
            truncate_reads_above: None,
            latency: Duration::ZERO,
        }
    }
}

impl FaultConfig {
    /// A config that fails the first `n` I/O operations with a
    /// transient backend error, then recovers.
    pub fn transient(n: u32) -> FaultConfig {
        FaultConfig {
            transient_failures: n,
            ..FaultConfig::default()
        }
    }

    /// A config that permanently poisons `[start, start+len)`.
    pub fn poisoned(start: u64, len: u64) -> FaultConfig {
        FaultConfig {
            poison: vec![(start, len)],
            ..FaultConfig::default()
        }
    }
}

/// The gate's current behaviour.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosMode {
    /// Forward everything untouched.
    Live,
    /// Every wire operation fails like a killed backend process.
    Dead,
    /// Every wire operation times out (a hung MI turn, already killed
    /// by the deadline watchdog).
    Hung,
    /// Every wire operation fails with a seeded garbled-reply error.
    Garbling,
}

impl ChaosMode {
    /// Lower-case label for logs and `.stats` output.
    pub fn name(self) -> &'static str {
        match self {
            ChaosMode::Live => "live",
            ChaosMode::Dead => "dead",
            ChaosMode::Hung => "hung",
            ChaosMode::Garbling => "garbling",
        }
    }
}

/// A mode switch in a scripted campaign.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosAction {
    /// Switch to [`ChaosMode::Dead`].
    Kill,
    /// Switch to [`ChaosMode::Hung`].
    Hang,
    /// Switch to [`ChaosMode::Garbling`].
    Garble,
    /// Switch back to [`ChaosMode::Live`].
    Revive,
}

/// One scripted event: after `at_op` wire operations have passed the
/// gate, perform `action`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosEvent {
    /// Operation count (1-based) at which the action fires; events with
    /// `at_op <= ops` fire in script order.
    pub at_op: u64,
    /// The mode switch to perform.
    pub action: ChaosAction,
}

/// splitmix64 — the workspace's standard tiny deterministic generator
/// (same recurrence the vendored proptest shim uses).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[derive(Debug)]
struct ChaosState {
    mode: ChaosMode,
    /// Auto-revive after this many more gated operations.
    heal_in: Option<u64>,
    /// Pending scripted events, sorted by `at_op`.
    script: VecDeque<ChaosEvent>,
    /// Wire operations that have passed the gate.
    ops: u64,
    /// Failures injected so far.
    injected: u64,
    rng: u64,
}

impl ChaosState {
    /// Counts one gated operation, fires due script events and
    /// auto-heals, and returns the failure the current mode injects.
    fn advance(&mut self) -> Option<TargetError> {
        self.ops += 1;
        while let Some(ev) = self.script.front().copied() {
            if ev.at_op > self.ops {
                break;
            }
            self.script.pop_front();
            self.apply(ev.action);
        }
        if let Some(left) = self.heal_in {
            if left == 0 {
                self.mode = ChaosMode::Live;
                self.heal_in = None;
            } else {
                self.heal_in = Some(left - 1);
            }
        }
        match self.mode {
            ChaosMode::Live => None,
            ChaosMode::Dead => Some(TargetError::Backend("chaos: backend killed".to_string())),
            // The deadline watchdog has already killed the turn by the
            // time the caller sees anything — model that.
            ChaosMode::Hung => Some(TargetError::Timeout { ms: 1000 }),
            ChaosMode::Garbling => {
                let noise = splitmix64(&mut self.rng);
                Some(TargetError::Backend(format!(
                    "chaos: garbled reply 0x{noise:016x}"
                )))
            }
        }
    }

    fn apply(&mut self, action: ChaosAction) {
        self.mode = match action {
            ChaosAction::Kill => ChaosMode::Dead,
            ChaosAction::Hang => ChaosMode::Hung,
            ChaosAction::Garble => ChaosMode::Garbling,
            ChaosAction::Revive => ChaosMode::Live,
        };
        if action == ChaosAction::Revive {
            self.heal_in = None;
        }
    }
}

/// A cloneable remote control for a [`FaultTarget`]'s gate. Tests (and the
/// supervised tower's reconnect strategy) hold one while the target
/// itself is buried inside a decorator stack.
#[derive(Clone, Debug)]
pub struct ChaosHandle(Arc<Mutex<ChaosState>>);

impl ChaosHandle {
    fn new(seed: u64) -> ChaosHandle {
        ChaosHandle(Arc::new(Mutex::new(ChaosState {
            mode: ChaosMode::Live,
            heal_in: None,
            script: VecDeque::new(),
            ops: 0,
            injected: 0,
            rng: seed,
        })))
    }

    /// Kills the backend: every wire operation now fails.
    pub fn kill(&self) {
        self.0.lock().unwrap().apply(ChaosAction::Kill);
    }

    /// Hangs the backend: every wire operation now times out.
    pub fn hang(&self) {
        self.0.lock().unwrap().apply(ChaosAction::Hang);
    }

    /// Garbles the backend: every reply is a seeded protocol error.
    pub fn garble(&self) {
        self.0.lock().unwrap().apply(ChaosAction::Garble);
    }

    /// Revives the backend (what a successful respawn does).
    pub fn revive(&self) {
        self.0.lock().unwrap().apply(ChaosAction::Revive);
    }

    /// Auto-revives after `n` more gated operations (models a backend
    /// that comes back on its own, for mean-time-to-recovery runs).
    pub fn heal_after(&self, n: u64) {
        self.0.lock().unwrap().heal_in = Some(n);
    }

    /// Installs a scripted campaign (replacing any pending script).
    /// Events fire as the gate's operation count reaches each `at_op`.
    pub fn load_script(&self, mut events: Vec<ChaosEvent>) {
        events.sort_by_key(|e| e.at_op);
        self.0.lock().unwrap().script = events.into();
    }

    /// Generates and installs a seeded random campaign: `events` mode
    /// switches spread over the next `span` operations. The same seed
    /// always produces the same script — a failing run reproduces from
    /// its seed alone. Returns the generated script for logging.
    pub fn campaign(&self, seed: u64, events: usize, span: u64) -> Vec<ChaosEvent> {
        let mut s = seed;
        let mut script: Vec<ChaosEvent> = (0..events)
            .map(|_| {
                let at_op = 1 + splitmix64(&mut s) % span.max(1);
                let action = match splitmix64(&mut s) % 4 {
                    0 => ChaosAction::Kill,
                    1 => ChaosAction::Hang,
                    2 => ChaosAction::Garble,
                    _ => ChaosAction::Revive,
                };
                ChaosEvent { at_op, action }
            })
            .collect();
        script.sort_by_key(|e| e.at_op);
        self.load_script(script.clone());
        script
    }

    /// The gate's current mode.
    pub fn mode(&self) -> ChaosMode {
        self.0.lock().unwrap().mode
    }

    /// Wire operations that have passed the gate so far (each range of
    /// a vectored read counts as one).
    pub fn ops(&self) -> u64 {
        self.0.lock().unwrap().ops
    }

    /// Transient failures injected so far, by the mode or the plan.
    pub fn injected(&self) -> u64 {
        self.0.lock().unwrap().injected
    }
}

/// A [`Target`] decorator that injects faults per its [`FaultConfig`]
/// plan and its [`ChaosHandle`] mode. See the module docs.
#[derive(Debug)]
pub struct FaultTarget<T: Target> {
    inner: T,
    cfg: FaultConfig,
    remaining_transients: u32,
    chaos: ChaosHandle,
}

impl<T: Target> FaultTarget<T> {
    /// Wraps `inner` with the given fault plan and a live gate.
    pub fn new(inner: T, cfg: FaultConfig) -> FaultTarget<T> {
        FaultTarget {
            inner,
            remaining_transients: cfg.transient_failures,
            cfg,
            chaos: ChaosHandle::new(0),
        }
    }

    /// Wraps `inner` with an empty plan: a transparent gate that only
    /// its [`ChaosHandle`] steers.
    pub fn gate(inner: T) -> FaultTarget<T> {
        FaultTarget::new(inner, FaultConfig::default())
    }

    /// A remote control for this gate.
    pub fn handle(&self) -> ChaosHandle {
        self.chaos.clone()
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

    /// How many transient faults have been injected so far.
    pub fn injected(&self) -> u64 {
        self.chaos.injected()
    }

    /// How many I/O operations have been attempted.
    pub fn operations(&self) -> u64 {
        self.chaos.ops()
    }

    /// Passes one wire operation (or one range of a vectored read)
    /// through the gate: the mode first, then the counted plan.
    fn gate_op(&mut self) -> Option<TargetError> {
        let mut st = self.chaos.0.lock().unwrap();
        let e = st.advance().or_else(|| {
            if self.remaining_transients > 0 {
                self.remaining_transients -= 1;
                Some(self.cfg.error.clone())
            } else if self.cfg.fail_every > 0 && st.ops.is_multiple_of(self.cfg.fail_every) {
                Some(self.cfg.error.clone())
            } else {
                None
            }
        });
        st.injected += u64::from(e.is_some());
        e
    }

    /// The honest fault the plan makes of a `len`-byte access at
    /// `addr`: poisoned memory, or (for reads) a truncated reply.
    fn bad_access(&self, addr: u64, len: usize, read: bool) -> Option<TargetError> {
        if self.poisoned_at(addr, len as u64) {
            return Some(TargetError::IllegalMemory {
                addr,
                len: len as u64,
            });
        }
        match self.cfg.truncate_reads_above {
            Some(cap) if read && len > cap => Some(TargetError::Truncated {
                addr,
                wanted: len as u64,
                got: cap as u64,
            }),
            _ => None,
        }
    }

    fn poisoned_at(&self, addr: u64, len: u64) -> bool {
        let end = addr.saturating_add(len.max(1));
        self.cfg
            .poison
            .iter()
            .any(|(start, plen)| addr < start.saturating_add(*plen) && *start < end)
    }
}

/// Pays a wire turn's worth of latency. Deliberately a plain sleep,
/// overshoot and all: the injected latency models time the wire is
/// busy and the CPU is *not*, so it must yield the core — a
/// spin-accurate wait would steal cycles from the evaluator on small
/// machines and invert the very overlap the pipeline benches measure.
/// Benchmarks that need the true per-turn figure measure it rather
/// than trusting the nominal one.
fn pay_latency(d: Duration) {
    if !d.is_zero() {
        std::thread::sleep(d);
    }
}

impl<T: Target> crate::Layer for FaultTarget<T> {
    type Inner = T;

    fn below(&self) -> &T {
        &self.inner
    }

    fn below_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    #[inline(always)]
    fn call(&mut self, op: Op<'_, '_>) -> Reply {
        if let Op::GetBytesMulti(ranges) = op {
            return Reply::Multi(self.multi(ranges));
        }
        let access = match &op {
            Op::GetBytes { addr, buf } => Some((*addr, buf.len(), true)),
            Op::PutBytes { addr, bytes } => Some((*addr, bytes.len(), false)),
            Op::AllocSpace { .. } | Op::CallFunc { .. } => None,
            &Op::IsMapped { addr, len } if self.poisoned_at(addr, len) => {
                return Reply::Flag(false)
            }
            _ => return op.apply(&mut self.inner),
        };
        pay_latency(self.cfg.latency);
        let fault = self
            .gate_op()
            .or_else(|| access.and_then(|(addr, len, read)| self.bad_access(addr, len, read)));
        match fault {
            Some(e) => op.fail(e),
            None => op.apply(&mut self.inner),
        }
    }

    /// Every read must pass the gate, and an in-flight read would slip
    /// past it: callers above read synchronously through the gate.
    fn read_submit(&mut self, _ranges: Vec<OwnedRange>) -> Option<PipelineTicket> {
        None
    }
}

impl<T: Target> FaultTarget<T> {
    /// One wire turn: latency is paid once per batch, but every range
    /// passes the gate on its own (script `at_op` counters keep their
    /// wire-op granularity) and gets its own poison / truncation
    /// decision; the survivors go down in one inner vectored call, so
    /// one flaky range never fails the rest of the batch.
    fn multi(&mut self, ranges: &mut [ReadRange<'_>]) -> Vec<TargetResult<()>> {
        pay_latency(self.cfg.latency);
        let mut results: Vec<Option<TargetResult<()>>> = ranges
            .iter()
            .map(|r| {
                self.gate_op()
                    .or_else(|| self.bad_access(r.addr, r.len(), true))
                    .map(Err)
            })
            .collect();
        forward_open(&mut self.inner, ranges, &mut results);
        results.into_iter().map(Option::unwrap).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;

    #[test]
    fn transient_burst_then_recovers() {
        let mut t = FaultTarget::new(scenario::scan_array(), FaultConfig::transient(2));
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        assert!(t.get_bytes(x.addr, &mut buf).is_err());
        assert!(t.get_bytes(x.addr, &mut buf).is_err());
        assert!(t.get_bytes(x.addr, &mut buf).is_ok());
        assert_eq!(t.injected(), 2);
        assert_eq!(t.operations(), 3);
    }

    #[test]
    fn poison_is_permanent_and_unmapped() {
        let mut t = scenario::scan_array();
        let x = t.get_variable("x").unwrap();
        let mut t = FaultTarget::new(t, FaultConfig::poisoned(x.addr + 12, 4));
        let mut buf = [0u8; 4];
        assert!(t.get_bytes(x.addr, &mut buf).is_ok());
        for _ in 0..3 {
            assert_eq!(
                t.get_bytes(x.addr + 12, &mut buf),
                Err(TargetError::IllegalMemory {
                    addr: x.addr + 12,
                    len: 4
                })
            );
        }
        assert!(!t.is_mapped(x.addr + 12, 4));
        assert!(t.is_mapped(x.addr, 4));
    }

    #[test]
    fn truncation_reports_partial_length() {
        let mut t = FaultTarget::new(
            scenario::scan_array(),
            FaultConfig {
                truncate_reads_above: Some(2),
                ..FaultConfig::default()
            },
        );
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(
            t.get_bytes(x.addr, &mut buf),
            Err(TargetError::Truncated {
                addr: x.addr,
                wanted: 4,
                got: 2
            })
        );
        let mut small = [0u8; 2];
        assert!(t.get_bytes(x.addr, &mut small).is_ok());
    }

    #[test]
    fn one_flaky_range_does_not_fail_the_batch() {
        // A single transient left in the burst budget hits only the
        // first range of the vectored call; the rest still go through.
        let mut t = FaultTarget::new(scenario::scan_array(), FaultConfig::transient(1));
        let x = t.get_variable("x").unwrap();
        let mut a = [0u8; 4];
        let mut b = [0u8; 4];
        let mut c = [0u8; 4];
        let mut ranges = [
            ReadRange::new(x.addr, &mut a),
            ReadRange::new(x.addr + 72, &mut b),
            ReadRange::new(x.addr + 12, &mut c),
        ];
        let rs = t.get_bytes_multi(&mut ranges);
        assert!(rs[0].as_ref().is_err_and(|e| e.is_transient()), "{rs:?}");
        assert_eq!(rs[1], Ok(()));
        assert_eq!(rs[2], Ok(()));
        assert_eq!(i32::from_le_bytes(b), 9); // x[18]
        assert_eq!(i32::from_le_bytes(c), 7); // x[3]
        assert_eq!(t.injected(), 1);
        // Each range counts as one faultable operation.
        assert_eq!(t.operations(), 3);
    }

    #[test]
    fn live_gate_is_transparent() {
        let mut t = FaultTarget::gate(scenario::scan_array());
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        t.get_bytes(x.addr + 12, &mut buf).unwrap();
        assert_eq!(i32::from_le_bytes(buf), 7);
        assert_eq!(t.handle().injected(), 0);
        assert_eq!(t.handle().ops(), 1);
    }

    #[test]
    fn kill_hang_garble_inject_the_right_errors() {
        let mut t = FaultTarget::gate(scenario::scan_array());
        let h = t.handle();
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        h.kill();
        assert!(matches!(
            t.get_bytes(x.addr, &mut buf),
            Err(TargetError::Backend(m)) if m.contains("killed")
        ));
        h.hang();
        assert!(matches!(
            t.get_bytes(x.addr, &mut buf),
            Err(TargetError::Timeout { .. })
        ));
        h.garble();
        let e1 = t.get_bytes(x.addr, &mut buf).unwrap_err();
        let e2 = t.get_bytes(x.addr, &mut buf).unwrap_err();
        assert!(e1.to_string().contains("garbled reply"), "{e1}");
        assert_ne!(e1, e2, "garbled replies draw fresh noise");
        assert!(e1.is_transient() && e2.is_transient());
        h.revive();
        t.get_bytes(x.addr, &mut buf).unwrap();
        assert_eq!(h.injected(), 4);
    }

    #[test]
    fn heal_after_revives_on_schedule() {
        let mut t = FaultTarget::gate(scenario::scan_array());
        let h = t.handle();
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        h.kill();
        h.heal_after(2);
        assert!(t.get_bytes(x.addr, &mut buf).is_err());
        assert!(t.get_bytes(x.addr, &mut buf).is_err());
        assert!(t.get_bytes(x.addr, &mut buf).is_ok(), "healed after 2 ops");
        assert_eq!(h.mode(), ChaosMode::Live);
    }

    #[test]
    fn scripted_campaign_fires_in_order() {
        let mut t = FaultTarget::gate(scenario::scan_array());
        let h = t.handle();
        h.load_script(vec![
            ChaosEvent {
                at_op: 4,
                action: ChaosAction::Revive,
            },
            ChaosEvent {
                at_op: 2,
                action: ChaosAction::Kill,
            },
        ]);
        let x = t.get_variable("x").unwrap();
        let mut buf = [0u8; 4];
        assert!(t.get_bytes(x.addr, &mut buf).is_ok()); // op 1
        assert!(t.get_bytes(x.addr, &mut buf).is_err()); // op 2: kill
        assert!(t.get_bytes(x.addr, &mut buf).is_err()); // op 3
        assert!(t.get_bytes(x.addr, &mut buf).is_ok()); // op 4: revive
    }

    #[test]
    fn campaigns_are_deterministic_in_the_seed() {
        let a = ChaosHandle::new(0).campaign(42, 8, 100);
        let b = ChaosHandle::new(9).campaign(42, 8, 100);
        assert_eq!(a, b, "same seed, same script");
        let c = ChaosHandle::new(0).campaign(43, 8, 100);
        assert_ne!(a, c, "different seed, different script");
        assert!(a.windows(2).all(|w| w[0].at_op <= w[1].at_op));
    }

    #[test]
    fn only_wire_operations_are_gated() {
        let mut t = FaultTarget::gate(scenario::scan_array());
        let h = t.handle();
        h.kill();
        // Symbol/type lookups model debugger-side tables: still fine.
        assert!(t.get_variable("x").is_some());
        assert!(t.frame_count() == 0 || t.frame_info(0).is_some());
        assert_eq!(h.ops(), 0);
    }
}
