//! One op path through the decorator tower.
//!
//! Every data method of [`Target`] has a twin [`Op`] variant that
//! borrows the call's arguments, and every answer travels back as a
//! [`Reply`]. A decorator implements [`Layer`]: it names the target it
//! wraps and writes one [`Layer::call`] that matches only the ops it
//! changes, handing the rest to [`Op::apply`]. The blanket
//! `impl<L: Layer> Target for L` turns that back into the typed
//! [`Target`] methods, and the ten side-channel hooks forward to the
//! wrapped target unless a layer overrides them.
//!
//! Building an [`Op`] allocates nothing, so a layer that only passes a
//! call through costs one match and one move.

use crate::error::{TargetError, TargetResult};
use crate::iface::{
    CallValue, FrameInfo, OwnedRange, PipelineTicket, PrefetchCompletion, ReadRange, Target,
    VarInfo,
};
use crate::pipeline::PipelineHandle;
use crate::span::SpanContext;
use crate::supervise::StalenessHandle;
use crate::trace::{TraceHandle, TraceOp, TraceOutcome};
use duel_ctype::{Abi, EnumId, RecordId, TypeId, TypeTable};

/// One data call crossing the interface, with its arguments borrowed
/// from the caller. There is one variant per data method of [`Target`].
#[derive(Debug)]
pub enum Op<'a, 'r> {
    /// [`Target::get_bytes`].
    GetBytes {
        /// Start address.
        addr: u64,
        /// Destination; its length is the read length.
        buf: &'a mut [u8],
    },
    /// [`Target::get_bytes_multi`].
    GetBytesMulti(&'a mut [ReadRange<'r>]),
    /// [`Target::put_bytes`].
    PutBytes {
        /// Start address.
        addr: u64,
        /// The bytes to write.
        bytes: &'a [u8],
    },
    /// [`Target::alloc_space`].
    AllocSpace {
        /// Size in bytes.
        size: u64,
        /// Alignment.
        align: u64,
    },
    /// [`Target::call_func`].
    CallFunc {
        /// Function name.
        name: &'a str,
        /// Marshalled arguments.
        args: &'a [CallValue],
    },
    /// [`Target::get_variable`].
    GetVariable(&'a str),
    /// [`Target::get_variable_in_frame`].
    GetVariableInFrame(&'a str, usize),
    /// [`Target::lookup_typedef`].
    LookupTypedef(&'a str),
    /// [`Target::lookup_struct`].
    LookupStruct(&'a str),
    /// [`Target::lookup_union`].
    LookupUnion(&'a str),
    /// [`Target::lookup_enum`].
    LookupEnum(&'a str),
    /// [`Target::has_function`].
    HasFunction(&'a str),
    /// [`Target::frame_count`].
    FrameCount,
    /// [`Target::frame_info`].
    FrameInfo(usize),
    /// [`Target::is_mapped`].
    IsMapped {
        /// Start address.
        addr: u64,
        /// Length in bytes.
        len: u64,
    },
    /// [`Target::take_output`].
    TakeOutput,
}

/// The answer to one [`Op`]: one variant per distinct return type of
/// the data methods.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// `get_bytes`, `put_bytes`.
    Done(TargetResult<()>),
    /// `get_bytes_multi`: one result per range, in order.
    Multi(Vec<TargetResult<()>>),
    /// `alloc_space`.
    Addr(TargetResult<u64>),
    /// `call_func`.
    Value(TargetResult<CallValue>),
    /// `get_variable`, `get_variable_in_frame`.
    Var(Option<VarInfo>),
    /// `lookup_typedef`.
    Typedef(Option<TypeId>),
    /// `lookup_struct`, `lookup_union`.
    Record(Option<RecordId>),
    /// `lookup_enum`.
    Enum(Option<EnumId>),
    /// `has_function`, `is_mapped`.
    Flag(bool),
    /// `frame_count`.
    Count(usize),
    /// `frame_info`.
    Frame(Option<FrameInfo>),
    /// `take_output`.
    Output(String),
}

impl<'r> Op<'_, 'r> {
    /// Performs the op on `t` through its typed method.
    #[inline(always)]
    pub fn apply<T: Target + ?Sized>(self, t: &mut T) -> Reply {
        match self {
            Op::GetBytes { addr, buf } => done(t.get_bytes(addr, buf)),
            Op::GetBytesMulti(ranges) => Reply::Multi(t.get_bytes_multi(ranges)),
            Op::PutBytes { addr, bytes } => done(t.put_bytes(addr, bytes)),
            Op::AllocSpace { size, align } => Reply::Addr(t.alloc_space(size, align)),
            Op::CallFunc { name, args } => Reply::Value(t.call_func(name, args)),
            Op::GetVariable(name) => Reply::Var(t.get_variable(name)),
            Op::GetVariableInFrame(name, n) => Reply::Var(t.get_variable_in_frame(name, n)),
            Op::LookupTypedef(name) => Reply::Typedef(t.lookup_typedef(name)),
            Op::LookupStruct(tag) => Reply::Record(t.lookup_struct(tag)),
            Op::LookupUnion(tag) => Reply::Record(t.lookup_union(tag)),
            Op::LookupEnum(tag) => Reply::Enum(t.lookup_enum(tag)),
            Op::HasFunction(name) => Reply::Flag(t.has_function(name)),
            Op::FrameCount => Reply::Count(t.frame_count()),
            Op::FrameInfo(n) => Reply::Frame(t.frame_info(n)),
            Op::IsMapped { addr, len } => Reply::Flag(t.is_mapped(addr, len)),
            Op::TakeOutput => Reply::Output(t.take_output()),
        }
    }

    /// A shorter-lived copy of the op, so a layer can issue it again
    /// (retry) or read its buffers after the call (record).
    pub fn reborrow(&mut self) -> Op<'_, 'r> {
        match self {
            Op::GetBytes { addr, buf } => Op::GetBytes { addr: *addr, buf },
            Op::GetBytesMulti(ranges) => Op::GetBytesMulti(ranges),
            Op::PutBytes { addr, bytes } => Op::PutBytes { addr: *addr, bytes },
            Op::AllocSpace { size, align } => Op::AllocSpace {
                size: *size,
                align: *align,
            },
            Op::CallFunc { name, args } => Op::CallFunc { name, args },
            Op::GetVariable(name) => Op::GetVariable(name),
            Op::GetVariableInFrame(name, n) => Op::GetVariableInFrame(name, *n),
            Op::LookupTypedef(name) => Op::LookupTypedef(name),
            Op::LookupStruct(tag) => Op::LookupStruct(tag),
            Op::LookupUnion(tag) => Op::LookupUnion(tag),
            Op::LookupEnum(tag) => Op::LookupEnum(tag),
            Op::HasFunction(name) => Op::HasFunction(name),
            Op::FrameCount => Op::FrameCount,
            Op::FrameInfo(n) => Op::FrameInfo(*n),
            Op::IsMapped { addr, len } => Op::IsMapped {
                addr: *addr,
                len: *len,
            },
            Op::TakeOutput => Op::TakeOutput,
        }
    }

    /// The reply of an op that could not run: `e` for every fallible
    /// op (each range of a vectored read), and the "nothing there"
    /// answer — `None`, `false`, 0, no output — for the rest.
    #[inline(always)]
    pub fn fail(self, e: TargetError) -> Reply {
        match self {
            Op::GetBytes { .. } | Op::PutBytes { .. } => Reply::Done(Err(e)),
            Op::GetBytesMulti(ranges) => Reply::Multi(vec![Err(e); ranges.len()]),
            Op::AllocSpace { .. } => Reply::Addr(Err(e)),
            Op::CallFunc { .. } => Reply::Value(Err(e)),
            Op::GetVariable(_) | Op::GetVariableInFrame(..) => Reply::Var(None),
            Op::LookupTypedef(_) => Reply::Typedef(None),
            Op::LookupStruct(_) | Op::LookupUnion(_) => Reply::Record(None),
            Op::LookupEnum(_) => Reply::Enum(None),
            Op::HasFunction(_) | Op::IsMapped { .. } => Reply::Flag(false),
            Op::FrameCount => Reply::Count(0),
            Op::FrameInfo(_) => Reply::Frame(None),
            Op::TakeOutput => Reply::Output(String::new()),
        }
    }

    /// The [`Target`] method name of the op.
    pub fn name(&self) -> &'static str {
        match self {
            Op::GetBytes { .. } => "get_bytes",
            Op::GetBytesMulti(_) => "get_bytes_multi",
            Op::PutBytes { .. } => "put_bytes",
            Op::AllocSpace { .. } => "alloc_space",
            Op::CallFunc { .. } => "call_func",
            Op::GetVariable(_) => "get_variable",
            Op::GetVariableInFrame(..) => "get_variable_in_frame",
            Op::LookupTypedef(_) => "lookup_typedef",
            Op::LookupStruct(_) => "lookup_struct",
            Op::LookupUnion(_) => "lookup_union",
            Op::LookupEnum(_) => "lookup_enum",
            Op::HasFunction(_) => "has_function",
            Op::FrameCount => "frame_count",
            Op::FrameInfo(_) => "frame_info",
            Op::IsMapped { .. } => "is_mapped",
            Op::TakeOutput => "take_output",
        }
    }

    /// The trace bucket of the op; `None` for `take_output`, a
    /// host-side buffer drain that never crosses the wire.
    pub fn trace_op(&self) -> Option<TraceOp> {
        Some(match self {
            Op::GetBytes { .. } => TraceOp::GetBytes,
            Op::GetBytesMulti(_) => TraceOp::MultiRead,
            Op::PutBytes { .. } => TraceOp::PutBytes,
            Op::AllocSpace { .. } => TraceOp::AllocSpace,
            Op::CallFunc { .. } => TraceOp::CallFunc,
            Op::GetVariable(_) | Op::GetVariableInFrame(..) => TraceOp::GetVariable,
            Op::LookupTypedef(_) | Op::LookupStruct(_) | Op::LookupUnion(_) | Op::LookupEnum(_) => {
                TraceOp::LookupType
            }
            Op::HasFunction(_) => TraceOp::HasFunction,
            Op::FrameCount | Op::FrameInfo(_) => TraceOp::Frames,
            Op::IsMapped { .. } => TraceOp::IsMapped,
            Op::TakeOutput => return None,
        })
    }
}

impl Reply {
    /// How the op ended, as the trace layer counts it.
    #[inline]
    pub fn outcome(&self) -> TraceOutcome {
        match self {
            Reply::Done(r) => TraceOutcome::of_result(r),
            Reply::Multi(rs) => TraceOutcome::of_results(rs),
            Reply::Addr(r) => TraceOutcome::of_result(r),
            Reply::Value(r) => TraceOutcome::of_result(r),
            Reply::Var(v) => TraceOutcome::of_option(v),
            Reply::Typedef(v) => TraceOutcome::of_option(v),
            Reply::Record(v) => TraceOutcome::of_option(v),
            Reply::Enum(v) => TraceOutcome::of_option(v),
            Reply::Frame(v) => TraceOutcome::of_option(v),
            Reply::Flag(b) => TraceOutcome::found(*b),
            Reply::Count(_) | Reply::Output(_) => TraceOutcome::Ok,
        }
    }

    /// The first transient failure the reply carries, if any (for a
    /// vectored read, the first transient range).
    #[inline]
    pub fn transient(&self) -> Option<&TargetError> {
        match self {
            Reply::Done(Err(e)) | Reply::Addr(Err(e)) | Reply::Value(Err(e)) => {
                Some(e).filter(|e| e.is_transient())
            }
            Reply::Multi(rs) => rs
                .iter()
                .filter_map(|r| r.as_ref().err())
                .find(|e| e.is_transient()),
            _ => None,
        }
    }

    /// The per-range results of a memory reply (`Done` or `Multi`);
    /// empty for every other reply.
    pub fn reads_mut(&mut self) -> &mut [TargetResult<()>] {
        match self {
            Reply::Done(r) => std::slice::from_mut(r),
            Reply::Multi(rs) => rs,
            _ => &mut [],
        }
    }
}

/// The typed result one [`Reply`] variant carries; what the blanket
/// [`Target`] impl unwraps each reply into.
pub(crate) trait FromReply: Sized {
    /// Unwraps `r`. A reply of the wrong kind is a bug in the layer
    /// that produced it.
    fn from_reply(r: Reply) -> Self;
}

macro_rules! from_reply {
    ($($variant:ident => $ty:ty),* $(,)?) => {$(
        impl FromReply for $ty {
            #[inline(always)]
            fn from_reply(r: Reply) -> $ty {
                match r {
                    Reply::$variant(v) => v,
                    other => panic!(
                        concat!("expected a ", stringify!($variant), " reply, got {:?}"),
                        other
                    ),
                }
            }
        }
    )*};
}

/// Like `from_reply!`, for the variants whose payload is `Copy`: a
/// copied payload leaves the reply whole, and its drop is a call the
/// optimizer cannot see is a no-op, so the reply is forgotten instead.
macro_rules! from_copy_reply {
    ($($variant:ident => $ty:ty),* $(,)?) => {$(
        impl FromReply for $ty {
            #[inline(always)]
            fn from_reply(r: Reply) -> $ty {
                match r {
                    Reply::$variant(v) => {
                        std::mem::forget(r);
                        v
                    }
                    other => panic!(
                        concat!("expected a ", stringify!($variant), " reply, got {:?}"),
                        other
                    ),
                }
            }
        }
    )*};
}

/// Wraps a memory result. Success is rebuilt rather than moved: the
/// hot path then writes one word instead of copying the 56-byte
/// result, whose error part is unset on success.
#[inline(always)]
fn done(r: TargetResult<()>) -> Reply {
    match r {
        Ok(()) => Reply::Done(Ok(())),
        Err(e) => Reply::Done(Err(e)),
    }
}

impl FromReply for TargetResult<()> {
    /// Unwraps a memory result, rebuilding success for the same reason
    /// as `done`.
    #[inline(always)]
    fn from_reply(r: Reply) -> TargetResult<()> {
        match r {
            Reply::Done(Ok(())) => Ok(()),
            Reply::Done(Err(e)) => Err(e),
            other => panic!("expected a Done reply, got {other:?}"),
        }
    }
}

from_reply! {
    Multi => Vec<TargetResult<()>>,
    Addr => TargetResult<u64>,
    Value => TargetResult<CallValue>,
    Var => Option<VarInfo>,
    Frame => Option<FrameInfo>,
    Output => String,
}

from_copy_reply! {
    Typedef => Option<TypeId>,
    Record => Option<RecordId>,
    Enum => Option<EnumId>,
    Flag => bool,
    Count => usize,
}

/// The sixteen typed data methods of [`Target`], each built as an
/// [`Op`] and answered by `self.$serve(op)`.
macro_rules! data_methods_via {
    ($serve:ident) => {
        #[inline]
        fn get_bytes(&mut self, addr: u64, buf: &mut [u8]) -> $crate::TargetResult<()> {
            $crate::layer::FromReply::from_reply(self.$serve($crate::Op::GetBytes { addr, buf }))
        }
        #[inline]
        fn get_bytes_multi(
            &mut self,
            ranges: &mut [$crate::ReadRange<'_>],
        ) -> Vec<$crate::TargetResult<()>> {
            $crate::layer::FromReply::from_reply(self.$serve($crate::Op::GetBytesMulti(ranges)))
        }
        #[inline]
        fn put_bytes(&mut self, addr: u64, bytes: &[u8]) -> $crate::TargetResult<()> {
            $crate::layer::FromReply::from_reply(self.$serve($crate::Op::PutBytes { addr, bytes }))
        }
        #[inline]
        fn alloc_space(&mut self, size: u64, align: u64) -> $crate::TargetResult<u64> {
            $crate::layer::FromReply::from_reply(
                self.$serve($crate::Op::AllocSpace { size, align }),
            )
        }
        #[inline]
        fn call_func(
            &mut self,
            name: &str,
            args: &[$crate::CallValue],
        ) -> $crate::TargetResult<$crate::CallValue> {
            $crate::layer::FromReply::from_reply(self.$serve($crate::Op::CallFunc { name, args }))
        }
        #[inline]
        fn get_variable(&mut self, name: &str) -> Option<$crate::VarInfo> {
            $crate::layer::FromReply::from_reply(self.$serve($crate::Op::GetVariable(name)))
        }
        #[inline]
        fn get_variable_in_frame(&mut self, name: &str, frame: usize) -> Option<$crate::VarInfo> {
            $crate::layer::FromReply::from_reply(
                self.$serve($crate::Op::GetVariableInFrame(name, frame)),
            )
        }
        #[inline]
        fn lookup_typedef(&mut self, name: &str) -> Option<duel_ctype::TypeId> {
            $crate::layer::FromReply::from_reply(self.$serve($crate::Op::LookupTypedef(name)))
        }
        #[inline]
        fn lookup_struct(&mut self, tag: &str) -> Option<duel_ctype::RecordId> {
            $crate::layer::FromReply::from_reply(self.$serve($crate::Op::LookupStruct(tag)))
        }
        #[inline]
        fn lookup_union(&mut self, tag: &str) -> Option<duel_ctype::RecordId> {
            $crate::layer::FromReply::from_reply(self.$serve($crate::Op::LookupUnion(tag)))
        }
        #[inline]
        fn lookup_enum(&mut self, tag: &str) -> Option<duel_ctype::EnumId> {
            $crate::layer::FromReply::from_reply(self.$serve($crate::Op::LookupEnum(tag)))
        }
        #[inline]
        fn has_function(&mut self, name: &str) -> bool {
            $crate::layer::FromReply::from_reply(self.$serve($crate::Op::HasFunction(name)))
        }
        #[inline]
        fn frame_count(&mut self) -> usize {
            $crate::layer::FromReply::from_reply(self.$serve($crate::Op::FrameCount))
        }
        #[inline]
        fn frame_info(&mut self, n: usize) -> Option<$crate::FrameInfo> {
            $crate::layer::FromReply::from_reply(self.$serve($crate::Op::FrameInfo(n)))
        }
        #[inline]
        fn is_mapped(&mut self, addr: u64, len: u64) -> bool {
            $crate::layer::FromReply::from_reply(self.$serve($crate::Op::IsMapped { addr, len }))
        }
        #[inline]
        fn take_output(&mut self) -> String {
            $crate::layer::FromReply::from_reply(self.$serve($crate::Op::TakeOutput))
        }
    };
}
pub(crate) use data_methods_via;

/// A decorator over one wrapped [`Target`].
///
/// Implementors name the wrapped target and override [`Layer::call`]
/// for the ops they change, plus whichever hooks they answer
/// themselves; everything else forwards to [`Layer::below`]. Every
/// `Layer` is a [`Target`] through the blanket impl.
///
/// Layers on the read path mark `call` `#[inline(always)]`: inlined
/// into each typed method, its match folds to the one arm that op
/// takes, as a hand-written method would.
pub trait Layer {
    /// The wrapped target.
    type Inner: Target + ?Sized;

    /// The wrapped target.
    fn below(&self) -> &Self::Inner;

    /// Mutable access to the wrapped target.
    fn below_mut(&mut self) -> &mut Self::Inner;

    /// Answers one data call. The default passes it through.
    #[inline(always)]
    fn call(&mut self, op: Op<'_, '_>) -> Reply {
        op.apply(self.below_mut())
    }

    /// See [`Target::trace_handle`].
    fn trace_handle(&self) -> Option<TraceHandle> {
        self.below().trace_handle()
    }

    /// See [`Target::set_span_context`].
    fn set_span_context(&mut self, spans: &SpanContext) {
        self.below_mut().set_span_context(spans);
    }

    /// See [`Target::span_context`].
    fn span_context(&self) -> Option<SpanContext> {
        self.below().span_context()
    }

    /// See [`Target::staleness_handle`].
    fn staleness_handle(&self) -> Option<StalenessHandle> {
        self.below().staleness_handle()
    }

    /// See [`Target::read_submit`].
    fn read_submit(&mut self, ranges: Vec<OwnedRange>) -> Option<PipelineTicket> {
        self.below_mut().read_submit(ranges)
    }

    /// See [`Target::read_poll`].
    fn read_poll(&mut self, ticket: PipelineTicket) -> Option<Vec<(OwnedRange, TargetResult<()>)>> {
        self.below_mut().read_poll(ticket)
    }

    /// See [`Target::prefetch_submit`].
    fn prefetch_submit(&mut self, ranges: &[(u64, u64)]) -> bool {
        self.below_mut().prefetch_submit(ranges)
    }

    /// See [`Target::prefetch_poll`].
    fn prefetch_poll(&mut self) -> Option<PrefetchCompletion> {
        self.below_mut().prefetch_poll()
    }

    /// See [`Target::cache_page_size`].
    fn cache_page_size(&self) -> Option<u64> {
        self.below().cache_page_size()
    }

    /// See [`Target::pipeline_handle`].
    fn pipeline_handle(&self) -> Option<PipelineHandle> {
        self.below().pipeline_handle()
    }
}

impl<L: Layer> Target for L {
    fn abi(&self) -> &Abi {
        self.below().abi()
    }

    fn types(&self) -> &TypeTable {
        self.below().types()
    }

    fn types_mut(&mut self) -> &mut TypeTable {
        self.below_mut().types_mut()
    }

    data_methods_via!(call);

    fn trace_handle(&self) -> Option<TraceHandle> {
        Layer::trace_handle(self)
    }

    fn set_span_context(&mut self, spans: &SpanContext) {
        Layer::set_span_context(self, spans)
    }

    fn span_context(&self) -> Option<SpanContext> {
        Layer::span_context(self)
    }

    fn staleness_handle(&self) -> Option<StalenessHandle> {
        Layer::staleness_handle(self)
    }

    fn read_submit(&mut self, ranges: Vec<OwnedRange>) -> Option<PipelineTicket> {
        Layer::read_submit(self, ranges)
    }

    fn read_poll(&mut self, ticket: PipelineTicket) -> Option<Vec<(OwnedRange, TargetResult<()>)>> {
        Layer::read_poll(self, ticket)
    }

    fn prefetch_submit(&mut self, ranges: &[(u64, u64)]) -> bool {
        Layer::prefetch_submit(self, ranges)
    }

    fn prefetch_poll(&mut self) -> Option<PrefetchCompletion> {
        Layer::prefetch_poll(self)
    }

    fn cache_page_size(&self) -> Option<u64> {
        Layer::cache_page_size(self)
    }

    fn pipeline_handle(&self) -> Option<PipelineHandle> {
        Layer::pipeline_handle(self)
    }
}

/// Reads the ranges whose result is still open (`None`) from `inner`
/// in one vectored call and fills in their results — how a layer that
/// answered some ranges itself (an injected fault, a settled retry)
/// forwards the survivors without splitting the wire turn.
pub fn forward_open<T: Target + ?Sized>(
    inner: &mut T,
    ranges: &mut [ReadRange<'_>],
    results: &mut [Option<TargetResult<()>>],
) {
    let (mut fwd, mut idx) = (Vec::new(), Vec::new());
    for (i, r) in ranges.iter_mut().enumerate() {
        if results[i].is_none() {
            idx.push(i);
            fwd.push(ReadRange::new(r.addr, &mut *r.buf));
        }
    }
    for (i, res) in idx.into_iter().zip(inner.get_bytes_multi(&mut fwd)) {
        results[i] = Some(res);
    }
}
