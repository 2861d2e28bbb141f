//! # heidl-rmi — the HeidiRMI runtime ORB
//!
//! A Rust implementation of HeidiRMI, the control-messaging infrastructure
//! from Welling & Ott, *"Customizing IDL Mappings and ORB Protocols"*
//! (Middleware 2000, §3). The runtime provides everything the paper's
//! generated stubs and skeletons lean on:
//!
//! * stringified [`ObjectRef`]s — `@tcp:host:port#id#IDL:Heidi/A:1.0`;
//! * the [`Call`] / [`Reply`] envelopes and the [`ObjectCommunicator`]
//!   channel abstraction (Figs 4 & 5);
//! * a thread-per-connection bootstrap-port server with recursive
//!   [`Skeleton`] dispatch up the interface hierarchy;
//! * pluggable [dispatch strategies](dispatch) — linear string compare,
//!   nested/binary compare, length/first-byte bucketing, hash table (the
//!   §2 optimization discussion);
//! * **connection, stub and skeleton caches** with lazy skeleton creation
//!   and a stale-cached-connection retry policy;
//! * **`incopy` pass-by-value** via [`ValueSerialize`] and the dynamic
//!   `HdSerializable`-style check [`RemoteObject::as_serializable`];
//! * [interceptors](interceptor) on the invocation/dispatch paths and a
//!   [dynamic invocation interface](dynamic) needing no compiled stubs;
//! * a **fault-tolerance layer** — [retry policies](retry) with
//!   jittered backoff gated by retry-safety classes, per-endpoint
//!   [circuit breakers](breaker), multi-endpoint failover references
//!   (`@tcp:h1:p1,tcp:h2:p2#id#type`), and a deterministic, seedable
//!   [fault injector](fault) for chaos testing;
//! * **server-side overload protection** — a [`ServerPolicy`] of
//!   connection/in-flight caps with `Busy` load shedding (always safe to
//!   retry), wire [`DecodeLimits`](heidl_wire::DecodeLimits), graceful
//!   drain via [`Orb::shutdown_and_drain`], and a built-in `_health`
//!   object ([`Orb::health_ref`]) reporting the [`ServerHealth`] counters;
//! * an **exactly-once invocation layer** — client-stamped
//!   [`InvocationToken`]s as backward-compatible frame suffixes on both
//!   protocols, a server-side per-session dedup table with a bounded
//!   reply cache (retries replay the original reply instead of
//!   re-executing the servant), and mux-level liveness via
//!   `OrbBuilder::heartbeat` (idle pooled connections are pinged; dead
//!   peers are evicted and tokened calls reconnect transparently);
//! * a **multi-node tier** — a [`Router`](router) fronting many backends
//!   behind one reference (bodies forwarded verbatim so tokens, trace
//!   context and request ids survive the hop; untokened calls
//!   round-robin, tokened calls pin to one backend's replay cache;
//!   membership comes from a live [`BackendSource`](router::BackendSource)
//!   such as the `heidl-router` crate's directory-backed resolver);
//! * swappable wire protocols (text or CDR/GIOP-lite) from `heidl-wire`.
//!
//! ## A complete round trip
//!
//! ```
//! use heidl_rmi::{DispatchKind, DispatchOutcome, Orb, RmiResult, Skeleton, SkeletonBase};
//! use heidl_wire::{Decoder, Encoder};
//! use std::sync::Arc;
//!
//! struct EchoSkeleton {
//!     base: SkeletonBase,
//! }
//!
//! impl Skeleton for EchoSkeleton {
//!     fn type_id(&self) -> &str {
//!         self.base.type_id()
//!     }
//!     fn dispatch(
//!         &self,
//!         method: &str,
//!         args: &mut dyn Decoder,
//!         reply: &mut dyn Encoder,
//!     ) -> RmiResult<DispatchOutcome> {
//!         match self.base.find(method) {
//!             Some(0) => {
//!                 let text = args.get_string()?;
//!                 reply.put_string(&text.to_uppercase());
//!                 Ok(DispatchOutcome::Handled)
//!             }
//!             _ => self.base.dispatch_parents(method, args, reply),
//!         }
//!     }
//! }
//!
//! let orb = Orb::new();
//! orb.serve("127.0.0.1:0")?;
//! let skel = Arc::new(EchoSkeleton {
//!     base: SkeletonBase::new("IDL:Echo:1.0", DispatchKind::Hash, ["shout"], vec![]),
//! });
//! let objref = orb.export(skel)?;
//!
//! let mut call = orb.call(&objref, "shout");
//! call.args().put_string("hello");
//! let mut reply = orb.invoke(call)?;
//! assert_eq!(reply.results().get_string()?, "HELLO");
//! orb.shutdown();
//! # Ok::<(), heidl_rmi::RmiError>(())
//! ```

#![warn(missing_docs)]

pub mod breaker;
pub mod call;
pub mod communicator;
pub mod dispatch;
pub mod dynamic;
pub mod error;
pub mod fault;
pub mod interceptor;
pub mod metrics;
pub mod objref;
pub mod orb;
pub mod policy;
mod reactor;
mod replay;
mod result_cache;
pub mod retry;
pub mod router;
pub mod serialize;
mod server;
pub mod skeleton;
pub mod stream;
pub mod trace;
pub mod transport;

pub use breaker::{BreakerConfig, BreakerObserver, BreakerState, CircuitBreaker, ProbeToken};
pub use call::{
    extract_invocation_token, next_request_id, peek_reply_id, peek_reply_status, Call,
    IncomingCall, InvocationToken, Reply, ReplyBuilder, ReplyStatus, BUSY_REPO_ID,
};
pub use communicator::{
    BreakerListener, CheckedOut, ConnectionPool, MuxConnection, ObjectCommunicator,
};
pub use dispatch::{DispatchKind, DispatchStrategy, MethodTable};
pub use dynamic::{DynCall, DynResults, DynValue};
pub use error::{RmiError, RmiResult};
pub use fault::{Fault, FaultInjector, FaultOp, FaultPlan, FaultRule, FaultyConnector, Trigger};
pub use interceptor::{CallInfo, CallPhase, FnInterceptor, Interceptor};
pub use metrics::{Counter, Histogram, Metrics, MetricsSnapshot, OpSnapshot, OpStats};
pub use objref::{Endpoint, ObjectRef};
pub use orb::{live_heartbeat_threads, CallOptions, CallOptionsBuilder, Orb, OrbBuilder};
pub use policy::{ServerHealth, ServerPolicy};
pub use retry::{classify, Backoff, RetryClass, RetryPolicy};
pub use router::{
    BackendSource, Router, RouterBuilder, RouterPolicy, SharedBackends, ROUTER_FORWARD_REPO_ID,
};
pub use serialize::{
    marshal_reference, marshal_value, unmarshal_incopy, IncopyArg, RemoteObject, ValueRegistry,
    ValueSerialize,
};
pub use server::{HEALTH_OBJECT_ID, HEALTH_TYPE_ID, METRICS_OBJECT_ID, METRICS_TYPE_ID};
pub use skeleton::{DispatchOutcome, Skeleton, SkeletonBase};
pub use stream::{
    Fragment, ReplyStream, StreamBody, StreamServant, StreamWindow, TokenBucket,
    STREAM_ACK_OBJECT_ID, STREAM_ACK_TYPE_ID, STREAM_EXPIRED_REPO_ID,
};
pub use trace::{
    CallContext, ContextGuard, RingSink, StderrSink, TraceEvent, TraceInterceptor, TraceLevel,
    TraceSink,
};
pub use transport::{
    Connector, InProcTransport, TcpConnector, TcpTransport, Transport, TransportMode,
};
