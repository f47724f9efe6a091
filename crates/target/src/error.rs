//! The fault taxonomy of the target layer.
//!
//! Every operation on a [`crate::Target`] returns a [`TargetResult`].
//! Errors fall into two classes that the rest of the system treats very
//! differently:
//!
//! * **Faults** ([`TargetError::is_fault`]) — the debuggee state is bad
//!   (wild pointer, missing symbol), but the debugger connection is
//!   healthy. Evaluation converts these into per-subexpression symbolic
//!   errors and keeps streaming the remaining values.
//! * **Transient failures** ([`TargetError::is_transient`]) — the
//!   backend hiccupped (dropped connection, timeout, short read). These
//!   are worth retrying; [`crate::RetryTarget`] does exactly that with
//!   bounded exponential backoff.
//!
//! Two variants straddle the boundary deliberately:
//! [`TargetError::CircuitOpen`] and [`TargetError::BackendDown`] are
//! raised by [`crate::SupervisedTarget`] *after* the transient budget
//! below it is spent, so they classify as faults — the retry layer must
//! pass them through untouched and evaluation renders them as
//! per-subexpression `<error: ...>` values while the breaker owns
//! recovery.

use std::error::Error;
use std::fmt;

/// Result alias used by every [`crate::Target`] operation.
pub type TargetResult<T> = Result<T, TargetError>;

/// An error reported by a debugger target.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TargetError {
    /// The debuggee address range is not mapped (a *fault*: the
    /// debuggee's data is bad, the debugger itself is fine).
    IllegalMemory {
        /// First address of the attempted access.
        addr: u64,
        /// Length of the attempted access in bytes.
        len: u64,
    },
    /// No variable/symbol with this name is visible (a *fault*).
    UnknownSymbol(String),
    /// No function with this name exists in the debuggee (a *fault*).
    UnknownFunction(String),
    /// Calling a debuggee function failed (a *fault*).
    CallFailed {
        /// Name of the function that was called.
        func: String,
        /// Backend-reported reason.
        reason: String,
    },
    /// A value too wide for the call boundary (a *fault*): scalar
    /// call marshalling carries at most 8 bytes, and silently
    /// truncating a wider value would corrupt the argument.
    UnsupportedWidth {
        /// Width of the offending value in bytes.
        bytes: u64,
    },
    /// A replayed session issued a call the capture does not contain at
    /// this position (a *fault*: the capture is the frozen ground truth
    /// and retrying the same divergent call cannot help).
    ReplayDivergence {
        /// Zero-based position in the capture's event stream.
        at: u64,
        /// The call the capture recorded at this position (or
        /// "end of capture").
        expected: String,
        /// The call the session actually issued.
        got: String,
    },
    /// The supervision layer's circuit breaker is open: the backend has
    /// been failing persistently and new operations are rejected
    /// immediately instead of waiting out another doomed round-trip (a
    /// *fault* at the session level: retrying through an open breaker
    /// cannot help — the breaker itself owns recovery, and evaluation
    /// should render the sub-expression as a symbolic error and keep
    /// the stream going).
    CircuitOpen {
        /// Milliseconds until the breaker next allows a half-open
        /// reconnect probe (0 = a probe is already due).
        retry_in_ms: u64,
    },
    /// The backend process is gone and could not be re-established —
    /// reconnect/respawn itself failed (a *fault*: the supervisor has
    /// already retried at every level below; surfacing one more
    /// transient would just loop).
    BackendDown(String),
    /// The backend itself misbehaved — protocol error, dropped
    /// connection, garbled reply (a *transient failure*, retryable).
    Backend(String),
    /// A backend call exceeded its deadline (a *transient failure*).
    Timeout {
        /// The deadline that was exceeded, in milliseconds.
        ms: u64,
    },
    /// The backend returned fewer bytes than requested (a *transient
    /// failure*: the classic symptom of a half-dead remote stub).
    Truncated {
        /// First address of the read.
        addr: u64,
        /// Bytes requested.
        wanted: u64,
        /// Bytes actually delivered.
        got: u64,
    },
}

impl TargetError {
    /// True for *faults*: the debuggee state is bad but the backend is
    /// healthy. These become per-subexpression symbolic errors during
    /// evaluation; retrying them cannot help.
    #[inline]
    pub fn is_fault(&self) -> bool {
        matches!(
            self,
            TargetError::IllegalMemory { .. }
                | TargetError::UnknownSymbol(_)
                | TargetError::UnknownFunction(_)
                | TargetError::CallFailed { .. }
                | TargetError::UnsupportedWidth { .. }
                | TargetError::ReplayDivergence { .. }
                | TargetError::CircuitOpen { .. }
                | TargetError::BackendDown(_)
        )
    }

    /// True for *transient failures*: the backend hiccupped and the
    /// same operation may well succeed if retried.
    #[inline]
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            TargetError::Backend(_) | TargetError::Timeout { .. } | TargetError::Truncated { .. }
        )
    }
}

impl fmt::Display for TargetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TargetError::IllegalMemory { addr, len } => {
                write!(f, "illegal memory reference: {len} byte(s) at 0x{addr:x}")
            }
            TargetError::UnknownSymbol(name) => write!(f, "unknown symbol: {name}"),
            TargetError::UnknownFunction(name) => write!(f, "unknown function: {name}"),
            TargetError::CallFailed { func, reason } => {
                write!(f, "call to {func} failed: {reason}")
            }
            TargetError::UnsupportedWidth { bytes } => write!(
                f,
                "value of {bytes} byte(s) is too wide for the call boundary (max 8)"
            ),
            TargetError::ReplayDivergence { at, expected, got } => write!(
                f,
                "replay divergence at event {at}: capture has {expected}, session issued {got}"
            ),
            TargetError::CircuitOpen { retry_in_ms } => {
                if *retry_in_ms == 0 {
                    write!(f, "backend circuit open: reconnect probe due")
                } else {
                    write!(
                        f,
                        "backend circuit open: reconnect probe in {retry_in_ms} ms"
                    )
                }
            }
            TargetError::BackendDown(msg) => write!(f, "backend down: {msg}"),
            TargetError::Backend(msg) => write!(f, "backend error: {msg}"),
            TargetError::Timeout { ms } => write!(f, "target call timed out after {ms} ms"),
            TargetError::Truncated { addr, wanted, got } => write!(
                f,
                "truncated read at 0x{addr:x}: wanted {wanted} byte(s), got {got}"
            ),
        }
    }
}

impl Error for TargetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn illegal_memory_display_is_stable() {
        // This exact rendering round-trips through the MI wire format
        // (MockGdb relays it; MiTarget re-parses it) — do not change it.
        let e = TargetError::IllegalMemory { addr: 0x99, len: 4 };
        assert_eq!(e.to_string(), "illegal memory reference: 4 byte(s) at 0x99");
    }

    #[test]
    fn taxonomy_is_a_partition() {
        let all = [
            TargetError::IllegalMemory { addr: 1, len: 1 },
            TargetError::UnknownSymbol("x".into()),
            TargetError::UnknownFunction("f".into()),
            TargetError::CallFailed {
                func: "f".into(),
                reason: "r".into(),
            },
            TargetError::UnsupportedWidth { bytes: 16 },
            TargetError::ReplayDivergence {
                at: 0,
                expected: "e".into(),
                got: "g".into(),
            },
            TargetError::CircuitOpen { retry_in_ms: 50 },
            TargetError::BackendDown("spawn failed".into()),
            TargetError::Backend("b".into()),
            TargetError::Timeout { ms: 10 },
            TargetError::Truncated {
                addr: 1,
                wanted: 4,
                got: 2,
            },
        ];
        for e in &all {
            assert!(
                e.is_fault() != e.is_transient(),
                "{e:?} must be exactly one of fault/transient"
            );
        }
    }
}
