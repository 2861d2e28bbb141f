//! The ORB: object registry, client invocation path, caches.
//!
//! This is HeidiRMI's runtime nucleus. It owns:
//!
//! * the **object registry** (object id → skeleton) consulted by the
//!   server-side dispatcher (Fig 5);
//! * the **connection cache** used by the client-side invocation path
//!   (Fig 4);
//! * the **stub cache** and **lazy skeleton creation** — "the skeleton for
//!   a particular object is only created when a reference to it is being
//!   passed ... Both stubs and skeletons are cached in each address-space"
//!   (§3.1);
//! * the **value registry** for `incopy` pass-by-value.
//!
//! The wire protocol is pluggable per ORB instance — constructing with
//! `heidl_wire::CdrProtocol` instead of `heidl_wire::TextProtocol` swaps
//! every connection to the binary protocol without touching generated
//! code.

use crate::breaker::BreakerConfig;
use crate::call::{Call, InvocationToken, Reply};
use crate::communicator::{ConnectionPool, MuxConnection, PoolScan};
use crate::error::{RmiError, RmiResult};
use crate::interceptor::{CallPhase, Interceptor, InterceptorChain};
use crate::metrics::{Counter, Metrics};
use crate::objref::{Endpoint, ObjectRef};
use crate::policy::{ServerHealth, ServerPolicy};
use crate::result_cache::ResultCache;
use crate::retry::{may_retry, Backoff, RetryClass, RetryPolicy};
use crate::serialize::{self, RemoteObject, ValueRegistry};
use crate::server::{
    Route, ServerHandle, HEALTH_OBJECT_ID, HEALTH_TYPE_ID, METRICS_OBJECT_ID, METRICS_TYPE_ID,
};
use crate::skeleton::Skeleton;
use crate::stream::{ReplyStream, StreamServant, STREAM_ACK_OBJECT_ID, STREAM_ACK_TYPE_ID};
use crate::trace::{self, CallContext, TraceLevel};
use crate::transport::{Connector, TransportMode};
use heidl_wire::{pool, Encoder, PooledBuf, Protocol, TextProtocol};
use parking_lot::{Mutex, RwLock};
use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Per-invocation knobs for [`Orb::invoke_with`].
///
/// Construct via [`CallOptions::builder`] (or [`CallOptions::default`] for
/// the defaults). The struct is `#[non_exhaustive]`: new QoS knobs can be
/// added without breaking callers, which is exactly what the IDL
/// annotation mapping relies on — generated stubs translate
/// `@idempotent` / `@deadline(ms)` / `@cached(ttl_ms)` into a builder
/// chain, so hand-written call sites never need to spell out QoS again.
///
/// ```
/// use heidl_rmi::{CallOptions, RetryClass};
/// use std::time::Duration;
///
/// let options = CallOptions::builder()
///     .deadline(Duration::from_millis(50))
///     .retry_class(RetryClass::Safe)
///     .build();
/// assert!(options.idempotent);
/// ```
#[non_exhaustive]
#[derive(Debug, Clone, Copy)]
pub struct CallOptions {
    /// How long to wait for the reply before giving up with
    /// [`RmiError::DeadlineExceeded`]. `None` falls back to the ORB's
    /// default deadline (set via [`OrbBuilder::default_deadline`]), which
    /// itself defaults to waiting forever.
    pub deadline: Option<Duration>,
    /// Whether a mid-call failure on a *cached* connection may be retried
    /// once on a fresh connection (the stale-connection heuristic). On by
    /// default — but the retry additionally requires the failure's
    /// retry-safety class to allow it (see
    /// [`CallOptionsBuilder::retry_class`]),
    /// so it never re-executes non-idempotent work.
    pub retry: bool,
    /// Per-call override of the ORB's [`RetryPolicy`]
    /// (set via [`OrbBuilder::retry_policy`]). `None` uses the ORB's.
    pub retry_policy: Option<RetryPolicy>,
    /// Declares the call safe to re-execute even after request bytes may
    /// have reached the server. Off by default: a non-idempotent call is
    /// never retried once bytes were written (only connect-level failures,
    /// which provably wrote nothing, stay retryable). See
    /// [`RetryClass`](crate::retry::RetryClass).
    pub idempotent: bool,
    /// Serve this call from the ORB's client-side result cache when a
    /// fresh entry exists, and remember a successful reply for this long.
    /// `None` (the default) bypasses the cache entirely. Set by stubs
    /// generated from `@cached(ttl_ms)` operations.
    pub cached_ttl: Option<Duration>,
    /// Stamp the call with a per-ORB invocation token (`"~tok"` wire
    /// suffix) and retry mid-call transport failures under the server's
    /// exactly-once guarantee: a retried token is never re-executed — the
    /// server replays the cached reply. Off by default; set by
    /// [`RetryClass::ExactlyOnce`] / the `@exactly_once` IDL annotation.
    pub exactly_once: bool,
}

impl Default for CallOptions {
    fn default() -> Self {
        CallOptions {
            deadline: None,
            retry: true,
            retry_policy: None,
            idempotent: false,
            cached_ttl: None,
            exactly_once: false,
        }
    }
}

impl CallOptions {
    /// Starts building call options:
    /// `CallOptions::builder().deadline(...).retry_class(...).build()`.
    pub fn builder() -> CallOptionsBuilder {
        CallOptionsBuilder { options: CallOptions::default() }
    }
}

/// Builder for [`CallOptions`] — the single public way to construct
/// non-default per-call QoS. Every knob maps one-to-one onto an IDL
/// annotation, so generated stubs and hand-written call sites read the
/// same way.
#[derive(Debug, Clone)]
pub struct CallOptionsBuilder {
    options: CallOptions,
}

impl CallOptionsBuilder {
    /// Per-call deadline (`@deadline(ms)`): the call fails with
    /// [`RmiError::DeadlineExceeded`] once it outlives this budget.
    pub fn deadline(mut self, deadline: Duration) -> CallOptionsBuilder {
        self.options.deadline = Some(deadline);
        self
    }

    /// Retry-safety class of the call:
    ///
    /// * [`RetryClass::Safe`] (`@idempotent`) — may re-send even after
    ///   request bytes reached a server;
    /// * [`RetryClass::IfIdempotent`] — the default: only provably-unsent
    ///   failures (connect refused, circuit open, shed with `Busy`) retry;
    /// * [`RetryClass::Never`] — disables even those;
    /// * [`RetryClass::ExactlyOnce`] (`@exactly_once`) — may re-send like
    ///   `Safe`, but the safety comes from the invocation token and the
    ///   server's reply cache, not from the operation being idempotent.
    pub fn retry_class(mut self, class: RetryClass) -> CallOptionsBuilder {
        match class {
            RetryClass::Safe => {
                self.options.idempotent = true;
                self.options.retry = true;
                self.options.exactly_once = false;
            }
            RetryClass::IfIdempotent => {
                self.options.idempotent = false;
                self.options.retry = true;
                self.options.exactly_once = false;
            }
            RetryClass::Never => {
                self.options.idempotent = false;
                self.options.retry = false;
                self.options.exactly_once = false;
            }
            RetryClass::ExactlyOnce => {
                self.options.idempotent = false;
                self.options.retry = true;
                self.options.exactly_once = true;
            }
        }
        self
    }

    /// Per-call override of the ORB's [`RetryPolicy`].
    pub fn retry_policy(mut self, policy: RetryPolicy) -> CallOptionsBuilder {
        self.options.retry_policy = Some(policy);
        self
    }

    /// Serve from (and fill) the client-side result cache with this TTL
    /// (`@cached(ttl_ms)`). Only successful replies are cached; the key is
    /// target + method + marshaled argument bytes.
    pub fn cached(mut self, ttl: Duration) -> CallOptionsBuilder {
        self.options.cached_ttl = Some(ttl);
        self
    }

    /// Finishes the chain.
    pub fn build(self) -> CallOptions {
        self.options
    }
}

/// Step-by-step construction of an [`Orb`]; start with [`Orb::builder`].
#[derive(Debug)]
pub struct OrbBuilder {
    protocol: Arc<dyn Protocol>,
    max_connections_per_endpoint: usize,
    default_deadline: Option<Duration>,
    retry_policy: RetryPolicy,
    breaker_config: BreakerConfig,
    connector: Option<Arc<dyn Connector>>,
    server_policy: ServerPolicy,
    heartbeat_interval: Option<Duration>,
    transport_mode: TransportMode,
}

impl Default for OrbBuilder {
    fn default() -> Self {
        OrbBuilder {
            protocol: Arc::new(TextProtocol),
            max_connections_per_endpoint: 1,
            default_deadline: None,
            retry_policy: RetryPolicy::default(),
            breaker_config: BreakerConfig::disabled(),
            connector: None,
            server_policy: ServerPolicy::default(),
            heartbeat_interval: None,
            transport_mode: TransportMode::from_env(),
        }
    }
}

impl OrbBuilder {
    /// The wire protocol every connection will speak (default: text).
    pub fn protocol(mut self, protocol: Arc<dyn Protocol>) -> OrbBuilder {
        self.protocol = protocol;
        self
    }

    /// Cap on pooled sockets per endpoint (default 1: every call to an
    /// endpoint multiplexes over one shared connection). Clamped to ≥ 1.
    pub fn max_connections_per_endpoint(mut self, max: usize) -> OrbBuilder {
        self.max_connections_per_endpoint = max.max(1);
        self
    }

    /// Deadline applied to every invocation that does not set its own via
    /// [`CallOptions`] (default: none — wait forever).
    pub fn default_deadline(mut self, deadline: Duration) -> OrbBuilder {
        self.default_deadline = Some(deadline);
        self
    }

    /// The retry policy applied to every invocation that does not carry a
    /// [`CallOptions::retry_policy`] override. Defaults to
    /// [`RetryPolicy::default`] (3 attempts, 10 ms base backoff) —
    /// retry-safety classes still gate which errors may actually retry.
    pub fn retry_policy(mut self, policy: RetryPolicy) -> OrbBuilder {
        self.retry_policy = policy;
        self
    }

    /// Enables per-endpoint circuit breakers with this tuning. Disabled by
    /// default ([`BreakerConfig::disabled`]).
    pub fn circuit_breaker(mut self, config: BreakerConfig) -> OrbBuilder {
        self.breaker_config = config;
        self
    }

    /// Replaces how outbound connections are dialed (default: plain TCP).
    /// Chaos tests plug a `FaultyConnector` in here.
    pub fn connector(mut self, connector: Arc<dyn Connector>) -> OrbBuilder {
        self.connector = Some(connector);
        self
    }

    /// Overload-protection policy for this ORB's server side: connection
    /// and in-flight caps, worker-overflow budget, socket timeouts, wire
    /// decode limits, and the graceful-drain budget. Defaults preserve the
    /// historical unbounded behavior ([`ServerPolicy::default`]).
    pub fn server_policy(mut self, policy: ServerPolicy) -> OrbBuilder {
        self.server_policy = policy;
        self
    }

    /// Enables client-side liveness heartbeats: a background prober pings
    /// (`_health.ping`) every pooled connection that has been idle longer
    /// than `interval`, evicting dead peers from the pool and recording a
    /// breaker failure — so the *next* call dials fresh (or fails fast)
    /// instead of inheriting a half-dead socket. Connections with borrows
    /// or in-flight calls are never pinged. Off by default; clamped to
    /// ≥ 1 ms. The prober stops when the ORB is dropped.
    pub fn heartbeat(mut self, interval: Duration) -> OrbBuilder {
        self.heartbeat_interval = Some(interval.max(Duration::from_millis(1)));
        self
    }

    /// Selects the I/O engine for this ORB's server (default: the
    /// `HEIDL_TRANSPORT` environment variable, i.e.
    /// [`TransportMode::from_env`]). [`TransportMode::Reactor`] serves the
    /// listener and every connection from a fixed set of leader/followers
    /// threads on one epoll set instead of a thread per connection; on
    /// targets without epoll it silently falls back to the threaded
    /// engine. Client connections are read by their own callers on either
    /// engine. Wire behavior is byte-identical between the two.
    pub fn transport_mode(mut self, mode: TransportMode) -> OrbBuilder {
        self.transport_mode = mode;
        self
    }

    /// Builds the ORB.
    pub fn build(self) -> Orb {
        let pool = ConnectionPool::new();
        pool.set_max_connections_per_endpoint(self.max_connections_per_endpoint);
        pool.set_breaker_config(self.breaker_config);
        if let Some(connector) = self.connector {
            pool.set_connector(connector);
        }
        // One registry per ORB: both the client invocation path and the
        // server dispatch path of this address space record into it, and
        // breaker state transitions are observed as counter bumps.
        let metrics = Arc::new(Metrics::new());
        pool.set_breaker_observer(Arc::clone(&metrics) as _);
        let orb = Orb {
            inner: Arc::new(OrbInner {
                protocol: self.protocol,
                metrics,
                objects: RwLock::new(HashMap::new()),
                streams: RwLock::new(HashMap::new()),
                next_id: AtomicU64::new(1),
                pool,
                default_deadline: self.default_deadline,
                values: ValueRegistry::new(),
                stubs: RwLock::new(HashMap::new()),
                exported: RwLock::new(HashMap::new()),
                server: Mutex::new(None),
                interceptors: InterceptorChain::default(),
                retries: AtomicU64::new(0),
                retry_policy: self.retry_policy,
                server_policy: self.server_policy,
                result_cache: ResultCache::default(),
                session_id: fresh_session_id(),
                token_seq: AtomicU64::new(1),
                heartbeat: Mutex::new(None),
                transport_mode: self.transport_mode,
            }),
        };
        if let Some(interval) = self.heartbeat_interval {
            // The prober holds only a `Weak`: dropping the last ORB handle
            // lets it notice and stop itself. It runs on the
            // `heidl-heartbeat` thread on either engine, whose join handle
            // lives in `OrbInner` so shutdown can wait for it.
            let mut probe = HeartbeatProbe {
                orb: Arc::downgrade(&orb.inner),
                interval,
                scan: PoolScan::default(),
                outstanding: Vec::new(),
            };
            let tick = (interval / 2).clamp(Duration::from_millis(5), Duration::from_millis(500));
            // Dropping `stop` wakes the thread out of its tick wait.
            let (stop, stopped) = crossbeam::channel::unbounded::<()>();
            let thread = std::thread::Builder::new()
                .name("heidl-heartbeat".to_owned())
                .spawn(move || {
                    let _alive = HeartbeatAlive::enter();
                    let timeout = Err(crossbeam::channel::RecvTimeoutError::Timeout);
                    while stopped.recv_timeout(tick) == timeout && probe.tick() {}
                })
                .expect("spawn heartbeat thread");
            *orb.inner.heartbeat.lock() =
                Some(HeartbeatHandle { stop: Some(stop), thread: Some(thread) });
        }
        orb
    }
}

/// Handle to the `heidl-heartbeat` thread: stop channel plus join handle.
struct HeartbeatHandle {
    stop: Option<crossbeam::channel::Sender<()>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl HeartbeatHandle {
    /// Stops the prober and joins its thread. Idempotent.
    fn stop_and_join(&mut self) {
        drop(self.stop.take());
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Number of heartbeat prober threads currently running in this process.
///
/// Diagnostics for shutdown correctness: after `Orb::shutdown` (or drop
/// of the last handle) of every heartbeating ORB, this returns to zero —
/// the regression test for "no detached threads outlive the ORB" asserts
/// exactly that.
pub fn live_heartbeat_threads() -> usize {
    LIVE_HEARTBEATS.load(Ordering::SeqCst) as usize
}

static LIVE_HEARTBEATS: AtomicU64 = AtomicU64::new(0);

/// RAII increment of [`LIVE_HEARTBEATS`] for the prober's whole lifetime,
/// so a panicking scan still decrements on unwind.
struct HeartbeatAlive;

impl HeartbeatAlive {
    fn enter() -> HeartbeatAlive {
        LIVE_HEARTBEATS.fetch_add(1, Ordering::SeqCst);
        HeartbeatAlive
    }
}

impl Drop for HeartbeatAlive {
    fn drop(&mut self) {
        LIVE_HEARTBEATS.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A session id that is unique per built ORB and very unlikely to collide
/// across processes: wall-clock nanos mixed with a process-local counter
/// via a Weyl-style odd multiplier. Invocation tokens `(session, seq)`
/// key the server's replay cache, so colliding sessions could alias
/// unrelated invocations — nanosecond skew makes that vanishingly rare.
fn fresh_session_id() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    nanos ^ COUNTER.fetch_add(1, Ordering::Relaxed).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The heartbeat prober (see [`OrbBuilder::heartbeat`]), one scan per
/// tick at half the interval, so a connection is probed within ~1.5
/// intervals of going idle; nothing in a tick blocks.
/// Each scan walks a pool snapshot, reads only connections that are
/// unborrowed, quiescent, and idle past the interval (a connection in use
/// is read by its callers alone), and pings those still alive. Pings are
/// fire-and-forget ([`MuxConnection::send_ping`]) and each tick begins by
/// settling the previous round: a ping still unanswered after a whole tick
/// means the peer is gone, so the connection is evicted and its breaker
/// charged — and N dead peers cost one tick, not N serial timeouts. A ping
/// whose connection a caller took up meanwhile is judged once it is idle.
struct HeartbeatProbe {
    orb: Weak<OrbInner>,
    interval: Duration,
    /// The pool snapshot, reused so a tick allocates nothing.
    scan: PoolScan,
    /// Pings not yet judged: the connection, its endpoint's index in
    /// `scan`, and the request id. A tick judges last tick's pings, and
    /// keeps those whose connection is in use for a later tick.
    outstanding: Vec<(usize, Arc<MuxConnection>, u64)>,
}

impl HeartbeatProbe {
    /// One scan; `false` once the ORB is gone.
    fn tick(&mut self) -> bool {
        let Some(inner) = self.orb.upgrade() else {
            self.outstanding.clear();
            return false;
        };
        // Settle first so `in_flight` is accurate for this tick's scan.
        // Nobody reads an idle connection, so the pong is read here: once
        // drained, a pong (or the connection's death) removed the pending
        // entry, and a still-pending ping is a silent peer. A connection a
        // caller took up since the ping is read by that caller alone, so
        // its ping is judged at a later tick, once it is idle again: a
        // silent peer gives the caller nothing to read, and its deadline
        // no verdict.
        let scan = &self.scan;
        self.outstanding.retain(|(at, conn, request_id)| {
            if conn.borrow_count() > 0 || conn.in_flight() > 1 {
                return true;
            }
            conn.drain();
            if conn.ping_unanswered(*request_id) {
                let endpoint = &scan.endpoints[*at];
                inner.pool.discard(endpoint, conn);
                inner.pool.breaker(endpoint).record_failure();
            }
            false
        });
        inner.pool.scan(&mut self.scan);
        // A ping kept for later names its endpoint by its index in the
        // snapshot just replaced; one whose connection left the pool
        // (its callers saw it die) is retired.
        let scan = &self.scan;
        self.outstanding.retain_mut(|(at, conn, request_id)| {
            let Some((now_at, _)) = scan.conns.iter().find(|(_, c)| Arc::ptr_eq(c, conn)) else {
                conn.ping_unanswered(*request_id);
                return false;
            };
            *at = *now_at;
            true
        });
        for (at, conn) in self.scan.conns.drain(..) {
            // Checked before draining: draining takes the reader token, so
            // on a connection in use this thread would read its callers'
            // replies. They read it themselves, and see its end-of-stream.
            if conn.borrow_count() > 0 || conn.in_flight() > 0 || conn.idle_for() < self.interval {
                continue;
            }
            let endpoint = &self.scan.endpoints[at];
            conn.drain();
            if !conn.is_alive() {
                // A read saw the peer die (EOF/RST); evict the corpse now
                // instead of leaving it for the next checkout to trip
                // over.
                inner.pool.discard(endpoint, &conn);
                continue;
            }
            let health = ObjectRef::new(endpoint.clone(), HEALTH_OBJECT_ID, HEALTH_TYPE_ID);
            let call = Call::request(&health, "ping", inner.protocol.as_ref());
            let request_id = call.request_id();
            let body = call.into_body();
            inner.metrics.inc(Counter::HeartbeatsSent);
            let outcome = conn.send_ping(request_id, &body);
            pool::recycle(body);
            match outcome {
                Ok(()) => self.outstanding.push((at, conn, request_id)),
                // Dead peer: evict the socket so the next call dials
                // fresh, and count a breaker failure so a flapping
                // endpoint trips to fail-fast without burning a call.
                Err(_) => {
                    inner.pool.discard(endpoint, &conn);
                    inner.pool.breaker(endpoint).record_failure();
                }
            }
        }
        true
    }
}

/// Which stages of the invocation path one call kind runs: a
/// difference between a two-way, a streamed and a oneway call is a row
/// here, not a second function. Every kind stamps `~ctx` under Debug
/// tracing, passes breaker admission and records its outcome.
struct CallKind {
    /// What the send stage puts on the wire, and what comes back.
    send: SendKind,
    /// Stamp `~tok` when the options ask for exactly-once.
    token: bool,
    /// Consult, and fill, the `@cached` result cache.
    cached: bool,
    /// Run the retry/failover loop; without it, one attempt on the
    /// primary endpoint.
    retry: bool,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum SendKind {
    /// Send the request, await the correlated reply.
    TwoWay,
    /// Register a stream slot, send the request with its chunk section.
    Stream,
    /// Send the request; nothing comes back.
    Oneway,
}

const TWO_WAY: CallKind =
    CallKind { send: SendKind::TwoWay, token: true, cached: true, retry: true };
const STREAM: CallKind =
    CallKind { send: SendKind::Stream, token: true, cached: false, retry: false };
const ONEWAY: CallKind =
    CallKind { send: SendKind::Oneway, token: false, cached: false, retry: false };

/// What the invocation path's send stage got back, by call kind.
#[allow(clippy::large_enum_variant)] // returned once per call; boxing a stream would allocate
enum Sent {
    /// A two-way reply body, not yet classified.
    Raw(PooledBuf),
    /// A classified OK reply, with its raw bytes when the `@cached` store
    /// wants them.
    Reply(Reply, Option<Vec<u8>>),
    /// A stream whose request is on the wire and whose slot is registered.
    Stream(ReplyStream),
    /// A oneway on the wire.
    Oneway,
}

impl Sent {
    fn into_reply(self) -> Reply {
        let Sent::Reply(reply, _) = self else { unreachable!("a two-way call gets a reply") };
        reply
    }

    fn into_stream(self) -> ReplyStream {
        let Sent::Stream(stream) = self else { unreachable!("a streamed call gets a stream") };
        stream
    }
}

/// One invocation past the stamp stage, whatever endpoint an attempt
/// goes to.
struct Outgoing {
    kind: &'static CallKind,
    target: ObjectRef,
    method: String,
    request_id: u64,
    body: Vec<u8>,
    options: CallOptions,
}

/// A handle to the per-address-space ORB state. Cheap to clone.
#[derive(Clone)]
pub struct Orb {
    pub(crate) inner: Arc<OrbInner>,
}

pub(crate) struct OrbInner {
    pub(crate) protocol: Arc<dyn Protocol>,
    /// Per-ORB metrics registry (counters + latency histograms).
    pub(crate) metrics: Arc<Metrics>,
    pub(crate) objects: RwLock<HashMap<u64, Arc<dyn Skeleton>>>,
    /// Stream-servant registry (object id → servant), separate from
    /// `objects`: a skeleton marshals one whole reply, a stream servant's
    /// reply is pumped out as chunked frames. Ids come from the same
    /// `next_id` counter, so the two registries can never collide.
    streams: RwLock<HashMap<u64, Arc<dyn StreamServant>>>,
    next_id: AtomicU64,
    pool: ConnectionPool,
    default_deadline: Option<Duration>,
    values: ValueRegistry,
    /// Stub cache: stringified reference → typed stub (as `Any`).
    stubs: RwLock<HashMap<String, Arc<dyn Any + Send + Sync>>>,
    /// Lazy-skeleton cache: servant identity → exported object id.
    exported: RwLock<HashMap<usize, u64>>,
    server: Mutex<Option<ServerHandle>>,
    pub(crate) interceptors: InterceptorChain,
    retries: AtomicU64,
    retry_policy: RetryPolicy,
    server_policy: ServerPolicy,
    /// Client-side `@cached` result cache (see [`CallOptions::cached_ttl`]).
    result_cache: ResultCache,
    /// This ORB's invocation-token session id (see
    /// [`CallOptions::exactly_once`]): stamped, with `token_seq`, into the
    /// `"~tok"` wire suffix of every exactly-once request.
    session_id: u64,
    /// Monotonic sequence for invocation tokens. A retry reuses the
    /// original token — the sequence advances once per *invocation*, not
    /// per attempt.
    token_seq: AtomicU64,
    /// The heartbeat prober's stop signal and join handle (`None` when
    /// heartbeats are off, or once the prober has been joined). Shutdown
    /// and drop both stop-and-join through this, so the prober can never
    /// outlive the ORB.
    heartbeat: Mutex<Option<HeartbeatHandle>>,
    /// Which I/O engine this ORB's sockets run on (see
    /// [`OrbBuilder::transport_mode`]).
    transport_mode: TransportMode,
}

impl std::fmt::Debug for Orb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Orb")
            .field("protocol", &self.inner.protocol.name())
            .field("objects", &self.inner.objects.read().len())
            .field("endpoint", &self.endpoint().map(|e| e.to_string()))
            .finish()
    }
}

impl Default for Orb {
    fn default() -> Self {
        Orb::new()
    }
}

impl Orb {
    /// Creates an ORB speaking the HeidiRMI text protocol.
    pub fn new() -> Orb {
        Orb::builder().build()
    }

    /// Creates an ORB speaking the given protocol on every connection.
    pub fn with_protocol(protocol: Arc<dyn Protocol>) -> Orb {
        Orb::builder().protocol(protocol).build()
    }

    /// Starts configuring an ORB:
    /// `Orb::builder().protocol(...).default_deadline(...).build()`.
    pub fn builder() -> OrbBuilder {
        OrbBuilder::default()
    }

    /// Registers an interceptor (Orbix-filter style, paper §5): it fires
    /// at every [`CallPhase`] on both the client invocation path and the
    /// server dispatch path, in registration order.
    pub fn add_interceptor(&self, interceptor: Arc<dyn Interceptor>) {
        self.inner.interceptors.add(interceptor);
    }

    /// The wire protocol this ORB speaks.
    pub fn protocol(&self) -> &Arc<dyn Protocol> {
        &self.inner.protocol
    }

    /// The connection cache (exposed for E3's ablation and observability).
    pub fn connections(&self) -> &ConnectionPool {
        &self.inner.pool
    }

    /// The pass-by-value factory registry.
    pub fn values(&self) -> &ValueRegistry {
        &self.inner.values
    }

    // ---- server side ----------------------------------------------------

    /// Starts the bootstrap port: binds `addr` (e.g. `"127.0.0.1:0"`) and
    /// serves incoming connections on background threads.
    ///
    /// # Errors
    ///
    /// Bind failures, or calling it twice.
    pub fn serve(&self, addr: &str) -> RmiResult<Endpoint> {
        self.serve_route(addr, Route::Dispatch)
    }

    /// [`Orb::serve`] with the execute step `route` (a router forwards).
    pub(crate) fn serve_route(&self, addr: &str, route: Route) -> RmiResult<Endpoint> {
        let mut guard = self.inner.server.lock();
        if guard.is_some() {
            return Err(RmiError::Protocol("ORB is already serving".to_owned()));
        }
        let handle = ServerHandle::start(addr, self.clone(), route)?;
        let endpoint = handle.endpoint().clone();
        *guard = Some(handle);
        Ok(endpoint)
    }

    /// The bootstrap endpoint, if serving.
    pub fn endpoint(&self) -> Option<Endpoint> {
        self.inner.server.lock().as_ref().map(|h| h.endpoint().clone())
    }

    /// The server-side overload policy this ORB was built with.
    pub(crate) fn server_policy(&self) -> &ServerPolicy {
        &self.inner.server_policy
    }

    /// The I/O engine this ORB was built with (see
    /// [`OrbBuilder::transport_mode`]).
    pub fn transport_mode(&self) -> TransportMode {
        self.inner.transport_mode
    }

    /// Stops accepting connections. Existing connections drain naturally.
    /// Also stops and joins the heartbeat prober, if one is running.
    pub fn shutdown(&self) {
        self.stop_heartbeat();
        if let Some(handle) = self.inner.server.lock().take() {
            handle.stop();
        }
    }

    /// Graceful shutdown: stops accepting, sheds new requests on live
    /// connections with `Busy`, waits up to the policy's `drain_timeout`
    /// for in-flight dispatches to complete, then force-closes whatever
    /// remains. Returns `true` when everything in flight finished within
    /// the budget (`false` = some dispatch was cut off), and `true` when
    /// the ORB was not serving.
    pub fn shutdown_and_drain(&self) -> bool {
        self.stop_heartbeat();
        // Take the handle *then* release the server lock: draining can
        // take up to `drain_timeout`, and in-flight dispatches may read
        // ORB state that must not deadlock behind this mutex.
        let handle = self.inner.server.lock().take();
        match handle {
            Some(h) => h.stop_and_drain(),
            None => true,
        }
    }

    /// Stops and joins the heartbeat prober (idempotent; no-op when
    /// heartbeats were never enabled). The join is bounded: the prober
    /// parks on the stop signal between ticks, and a scan in progress
    /// never waits on a peer.
    fn stop_heartbeat(&self) {
        // Take the handle *then* release the lock: joining can block for
        // the tail of a scan in progress, and the prober never takes this
        // lock, but keeping join outside the critical section is cheap
        // insurance against future lock-order knots.
        let handle = self.inner.heartbeat.lock().take();
        if let Some(mut h) = handle {
            h.stop_and_join();
        }
    }

    /// A point-in-time health snapshot of the running server: accepting
    /// flag, in-flight and connection gauges, shed counters. `None` when
    /// the ORB is not serving. The same data is remotely dispatchable via
    /// the built-in `_health` object ([`Orb::health_ref`]).
    pub fn server_health(&self) -> Option<ServerHealth> {
        self.inner.server.lock().as_ref().map(|h| h.health())
    }

    /// The reference of this server's built-in `_health` object
    /// (well-known object id 0, type `IDL:heidl/Health:1.0`). Every
    /// serving ORB dispatches it — no export required — so any client
    /// (including a telnet user on the text protocol) can probe liveness
    /// (`ping` → `"pong"`) and overload counters (`report`). `None` when
    /// the ORB is not serving.
    pub fn health_ref(&self) -> Option<ObjectRef> {
        self.endpoint().map(|e| ObjectRef::new(e, HEALTH_OBJECT_ID, HEALTH_TYPE_ID))
    }

    /// This ORB's metrics registry: call counters, per-operation latency
    /// histograms, retry/breaker/shed counters, byte counters. Always
    /// live — recording does not require a running server. The same data
    /// is remotely dispatchable via the built-in `_metrics` object
    /// ([`Orb::metrics_ref`]).
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.inner.metrics
    }

    /// The reference of this server's built-in `_metrics` object
    /// (well-known object id `u64::MAX`, type `IDL:heidl/Metrics:1.0`).
    /// Like `_health` it is served by every running ORB with no export
    /// required and bypasses admission control, so a telnet user can read
    /// `dump` even from an overloaded server. `None` when not serving.
    pub fn metrics_ref(&self) -> Option<ObjectRef> {
        self.endpoint().map(|e| ObjectRef::new(e, METRICS_OBJECT_ID, METRICS_TYPE_ID))
    }

    /// Registers a skeleton, returning its reference. Requires a running
    /// server (the reference embeds the bootstrap endpoint).
    ///
    /// # Errors
    ///
    /// Fails when the ORB is not serving.
    pub fn export(&self, skeleton: Arc<dyn Skeleton>) -> RmiResult<ObjectRef> {
        let endpoint = self.endpoint().ok_or_else(|| {
            RmiError::Protocol("cannot export: ORB is not serving (call serve() first)".to_owned())
        })?;
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        // Fully qualified: `std::any::Any` is in scope and would otherwise
        // capture `.type_id()` on the `Arc` itself.
        let type_id = Skeleton::type_id(skeleton.as_ref()).to_owned();
        self.inner.objects.write().insert(id, skeleton);
        Ok(ObjectRef::new(endpoint, id, type_id))
    }

    /// Lazy export: creates and registers the skeleton only on first call
    /// for this servant `identity` (use the servant's `Arc` pointer). This
    /// is the paper's "skeleton is only created when a reference to it is
    /// being passed", combined with the skeleton cache.
    ///
    /// # Errors
    ///
    /// As for [`Orb::export`].
    pub fn export_once(
        &self,
        identity: usize,
        make: impl FnOnce() -> Arc<dyn Skeleton>,
    ) -> RmiResult<ObjectRef> {
        if let Some(&id) = self.inner.exported.read().get(&identity) {
            let endpoint = self.endpoint().ok_or_else(|| {
                RmiError::Protocol("ORB stopped serving while references are live".to_owned())
            })?;
            let objects = self.inner.objects.read();
            let skel = objects.get(&id).ok_or_else(|| {
                RmiError::Protocol("exported object vanished from the registry".to_owned())
            })?;
            return Ok(ObjectRef::new(endpoint, id, Skeleton::type_id(skel.as_ref())));
        }
        let objref = self.export(make())?;
        self.inner.exported.write().insert(identity, objref.object_id);
        Ok(objref)
    }

    /// Registers a [`StreamServant`], returning its reference. Stream
    /// servants live in their own registry: their replies leave the
    /// server as chunked frames pumped under flow control, not as one
    /// marshaled body. Invoke the reference with [`Orb::invoke_stream`]
    /// (a plain [`Orb::invoke`] works too — the server then materializes
    /// the whole payload into one ordinary reply).
    ///
    /// # Errors
    ///
    /// Fails when the ORB is not serving.
    pub fn export_stream(&self, servant: Arc<dyn StreamServant>) -> RmiResult<ObjectRef> {
        let endpoint = self.endpoint().ok_or_else(|| {
            RmiError::Protocol("cannot export: ORB is not serving (call serve() first)".to_owned())
        })?;
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        // Fully qualified: `std::any::Any` is in scope and would otherwise
        // capture `.type_id()` on the `Arc` itself.
        let type_id = StreamServant::type_id(servant.as_ref()).to_owned();
        self.inner.streams.write().insert(id, servant);
        Ok(ObjectRef::new(endpoint, id, type_id))
    }

    /// The stream servant registered under `object_id`, if any — the
    /// server's router consults this to pick the pump dispatch path.
    pub(crate) fn stream_servant(&self, object_id: u64) -> Option<Arc<dyn StreamServant>> {
        self.inner.streams.read().get(&object_id).cloned()
    }

    /// Number of live skeletons (observability for E4's laziness tests).
    pub fn skeleton_count(&self) -> usize {
        self.inner.objects.read().len()
    }

    /// Removes an object from the registry. Existing references to it will
    /// fail with [`RmiError::UnknownObject`].
    pub fn unexport(&self, objref: &ObjectRef) {
        self.inner.objects.write().remove(&objref.object_id);
        self.inner.streams.write().remove(&objref.object_id);
    }

    // ---- client side ------------------------------------------------------

    /// Starts a request `Call` against `target` (Fig 4 step 1).
    pub fn call(&self, target: &ObjectRef, method: &str) -> Call {
        Call::request(target, method, self.inner.protocol.as_ref())
    }

    /// Starts a `oneway` call: the server will not reply, so the request
    /// carries `response_expected = false` (keeping cached connections in
    /// sync). Send it with [`Orb::invoke_oneway`].
    pub fn call_oneway(&self, target: &ObjectRef, method: &str) -> Call {
        Call::oneway(target, method, self.inner.protocol.as_ref())
    }

    /// Invokes a call with default [`CallOptions`]: connection checkout
    /// (the endpoint's shared multiplexed connection), correlated round
    /// trip, reply parse (Fig 4 steps 2-4).
    ///
    /// Pooled connections that died while idle — the classic
    /// stale-connection case after a server closed them — are evicted at
    /// checkout, before any request bytes are written, so every call
    /// transparently proceeds on a fresh connection. When a cached
    /// connection fails only *mid-call* (the narrow window where it went
    /// stale between checkout and use), the call is retried **once** on a
    /// fresh connection, but only when its retry-safety class allows it:
    /// the server may already be executing the request, so non-idempotent
    /// calls surface the error instead (see
    /// [`CallOptionsBuilder::retry_class`]).
    ///
    /// # Errors
    ///
    /// Transport failures, marshal failures, and remote exceptions
    /// ([`RmiError::Remote`]).
    pub fn invoke(&self, call: Call) -> RmiResult<Reply> {
        self.invoke_with(call, CallOptions::default())
    }

    /// Invokes a call with explicit [`CallOptions`] — deadline, retry
    /// class/policy, result caching. **This is the single client
    /// invocation entry point**: [`Orb::invoke`] is sugar for default
    /// options, generated stubs call it with annotation-derived options,
    /// and [`DynCall`](crate::dynamic::DynCall) routes through it too.
    ///
    /// A call that outlives its deadline returns
    /// [`RmiError::DeadlineExceeded`]; the shared connection is *not* torn
    /// down, and the late reply is discarded by the demultiplexer whenever
    /// it arrives.
    ///
    /// When [`CallOptions::cached_ttl`] is set and a fresh entry for the
    /// same target, method, and argument bytes exists in the result
    /// cache, the remembered reply is returned without touching the wire
    /// — no connection checkout, no interceptor fires, only the
    /// `CacheHits` counter records the short-circuit.
    ///
    /// # Errors
    ///
    /// As [`Orb::invoke`], plus [`RmiError::DeadlineExceeded`].
    pub fn invoke_with(&self, call: Call, options: CallOptions) -> RmiResult<Reply> {
        self.invoke_as(&TWO_WAY, call, options).map(Sent::into_reply)
    }

    /// Invokes a call whose reply is **streamed**: the request carries the
    /// trailing chunk section (the opt-in, with its `index` field naming
    /// the requested credit window in bytes), and the returned
    /// [`ReplyStream`] consumes the server's chunked frames incrementally
    /// — never buffering more than about one window — while acking
    /// consumed bytes to keep the server's credit turning.
    ///
    /// Sugar for [`Orb::invoke_stream_with`] with default options.
    ///
    /// # Errors
    ///
    /// As [`Orb::invoke_stream_with`].
    pub fn invoke_stream(&self, call: Call) -> RmiResult<ReplyStream> {
        self.invoke_stream_with(call, CallOptions::default())
    }

    /// [`Orb::invoke_stream`] with explicit [`CallOptions`].
    ///
    /// **Single-attempt by design**: a stream consumed halfway cannot be
    /// transparently re-sent, so there is no retry/failover loop here —
    /// callers re-invoke on error. [`CallOptions::exactly_once`] still
    /// attaches an invocation token; a retry landing *after* the stream
    /// went out is answered by the server's stream-expired marker
    /// ([`STREAM_EXPIRED_REPO_ID`](crate::STREAM_EXPIRED_REPO_ID)), which
    /// surfaces as the always-safe-to-retry [`RmiError::ServerBusy`].
    /// [`CallOptions::deadline`] (or the ORB default) bounds each
    /// *chunk* wait, not the whole stream.
    ///
    /// Like a two-way call, the request carries `~ctx` under Debug
    /// tracing and needs the endpoint's circuit breaker to admit it (an
    /// open one fails the call with [`RmiError::CircuitOpen`] unsent).
    ///
    /// The requested window is the ORB's own
    /// [`ServerPolicy::stream_window_bytes`](crate::ServerPolicy) — the
    /// serving side clamps it to *its* policy, and the ack protocol makes
    /// the clamp transparent.
    ///
    /// # Errors
    ///
    /// Transport and marshal failures, as [`Orb::invoke`], and
    /// [`RmiError::CircuitOpen`]; also rejects oneway calls and protocols
    /// without a chunk encoding.
    pub fn invoke_stream_with(&self, call: Call, options: CallOptions) -> RmiResult<ReplyStream> {
        self.invoke_as(&STREAM, call, options).map(Sent::into_stream)
    }

    /// Number of stale-connection retries performed (observability).
    pub fn retry_count(&self) -> u64 {
        self.inner.retries.load(Ordering::Relaxed)
    }

    /// This ORB's invocation-token session id — the `session` half of
    /// every `"~tok"` suffix it stamps (see [`CallOptions::exactly_once`]).
    pub fn session_id(&self) -> u64 {
        self.inner.session_id
    }

    /// The one client invocation path (Fig 4), whatever the call
    /// kind: stamp → cache → admit → send → await → classify → record.
    /// `kind` is the row saying which of the stages the call runs (see
    /// [`CallKind`]).
    fn invoke_as(
        &self,
        kind: &'static CallKind,
        mut call: Call,
        options: CallOptions,
    ) -> RmiResult<Sent> {
        let misuse = match (kind.send, call.response_expected()) {
            (SendKind::Stream, false) => "invoke_stream requires a two-way call built with call()",
            (SendKind::Oneway, true) => "invoke_oneway requires a call built with call_oneway()",
            _ => "",
        };
        if !misuse.is_empty() {
            return Err(RmiError::Protocol(misuse.to_owned()));
        }
        self.check_protocol(call.target())?;
        let protocol = self.inner.protocol.as_ref();
        let request_id = call.request_id();

        // Stamp, in the sections' nesting order: token, context, chunk. Every
        // retry reuses the token verbatim, which lets the server dedup them.
        if kind.token && options.exactly_once && call.response_expected() {
            let seq = self.inner.token_seq.fetch_add(1, Ordering::Relaxed);
            call.attach_token(protocol, InvocationToken { session: self.inner.session_id, seq });
        }
        // Call tracing (Debug): this call's id, and the call being dispatched
        // as its parent, current for the whole invocation so interceptors
        // and trace events correlate. One relaxed load when tracing is off.
        let _ctx_guard = trace::enabled(TraceLevel::Debug).then(|| {
            let parent_id = CallContext::current().map_or(0, |c| c.call_id);
            let ctx = CallContext { call_id: request_id, parent_id };
            call.attach_context(protocol, ctx);
            ctx.enter()
        });
        let window = self.inner.server_policy.stream_window_bytes as u64;
        if kind.send == SendKind::Stream && !call.attach_stream_request(protocol, window) {
            return Err(RmiError::Protocol(format!(
                "protocol `{}` has no chunk encoding; streaming is unavailable",
                protocol.name()
            )));
        }
        let key = call.cache_key_span();
        // Moving the target and method out spares a clone of each per call.
        let (target, method, body) = call.into_parts();
        let out = Outgoing { kind, target, method, request_id, body, options };

        // Cache: the key is borrowed from the request body, so a hit
        // allocates nothing for it.
        let cached_ttl = options.cached_ttl.filter(|_| kind.cached);
        if cached_ttl.is_some() {
            if let Some(hit) = self.inner.result_cache.lookup(&out.body[key.clone()]) {
                pool::recycle(out.body);
                self.inner.metrics.inc(Counter::CacheHits);
                return Reply::parse(hit, protocol).map(|reply| Sent::Reply(reply, None));
            }
        }

        self.inner.interceptors.fire(CallPhase::ClientSend, &out.target, &out.method, true);
        self.inner.metrics.add(Counter::BytesOut, out.body.len() as u64);
        let deadline = options.deadline.or(self.inner.default_deadline);
        // The latency clock is read only when per-op detail is on: two
        // `Instant::now()` reads are measurable on the echo path.
        let started = self.inner.metrics.detail_enabled().then(Instant::now);
        let mut result = if kind.retry {
            self.invoke_fault_tolerant(&out, deadline)
        } else {
            self.attempt_endpoint(&out, &out.target.endpoint, deadline)
        };
        if let (Ok(Sent::Reply(_, raw @ Some(_))), Some(ttl)) = (&mut result, cached_ttl) {
            self.inner.result_cache.store(&out.body[key], raw.take().unwrap_or_default(), ttl);
        }
        // The request body is done with the wire; its storage goes back.
        let Outgoing { target, method, body, .. } = out;
        pool::recycle(body);

        // Record: every kind lands in the per-op histogram; a oneway
        // counts under `Oneways`, everything else under calls ok/failed.
        let elapsed_ns = started.map_or(0, |s| s.elapsed().as_nanos() as u64);
        let ok = result.is_ok();
        if kind.send == SendKind::Oneway {
            self.inner.metrics.inc(Counter::Oneways);
            self.inner.metrics.record_client_op(&method, elapsed_ns, ok);
        } else {
            self.inner.metrics.record_client_call(&method, elapsed_ns, ok);
        }
        // Only a two-way call receives anything; the others report a
        // receive phase when they fail, so interceptors see a pair.
        if kind.send == SendKind::TwoWay || !ok {
            self.inner.interceptors.fire(CallPhase::ClientReceive, &target, &method, ok);
        }
        result
    }

    /// The fault-tolerant invocation engine: up to `max_attempts` passes
    /// over the reference's endpoints (primary, then fallbacks), with
    /// jittered backoff between passes and the whole schedule bounded by
    /// the call deadline — a budget too spent to fit the next backoff
    /// sleep surfaces as [`RmiError::DeadlineExceeded`], not as whatever
    /// transport error happened last. Whether a failure may move on to the next
    /// endpoint/pass is decided by its retry-safety class
    /// ([`classify`](crate::retry::classify)): connect-level failures are
    /// always safe, failures after bytes were written need
    /// [`RetryClass::Safe`] (an idempotent declaration), and
    /// semantic failures (remote exceptions, deadlines) never retry.
    ///
    /// Interceptors observe each extra attempt as a
    /// [`CallPhase::ClientRetry`] with the target re-pointed at the
    /// endpoint about to be tried.
    fn invoke_fault_tolerant(&self, out: &Outgoing, deadline: Option<Duration>) -> RmiResult<Sent> {
        let (target, options) = (&out.target, &out.options);
        let policy = options.retry_policy.unwrap_or(self.inner.retry_policy);
        let overall = deadline.map(|d| Instant::now() + d);
        let mut backoff = Backoff::new(&policy, out.request_id);
        let mut last_err: Option<RmiError> = None;
        let mut first_attempt = true;
        for pass in 0..policy.max_attempts.max(1) {
            if pass > 0 {
                let delay = backoff.next_delay();
                // Never sleep past the deadline. The budget — not the last
                // endpoint tried — is what ran out here, so surface the
                // deadline rather than a stale transport error.
                if let Some(end) = overall {
                    if Instant::now() + delay >= end {
                        return Err(RmiError::DeadlineExceeded {
                            after: deadline.unwrap_or_default(),
                        });
                    }
                }
                std::thread::sleep(delay);
            }
            for endpoint in target.endpoints() {
                if !first_attempt {
                    self.inner.metrics.inc(Counter::Retries);
                    self.inner.interceptors.fire(
                        CallPhase::ClientRetry,
                        &target.at_endpoint(endpoint),
                        &out.method,
                        true,
                    );
                }
                first_attempt = false;
                let remaining = match overall {
                    None => None,
                    Some(end) => {
                        let left = end.saturating_duration_since(Instant::now());
                        if left.is_zero() {
                            return Err(RmiError::DeadlineExceeded {
                                after: deadline.unwrap_or_default(),
                            });
                        }
                        Some(left)
                    }
                };
                match self.attempt_endpoint(out, endpoint, remaining) {
                    Ok(sent) => return Ok(sent),
                    // A tokened call is resend-safe even when bytes were
                    // written: the server dedups on the token, so a
                    // re-send can at worst replay the cached reply.
                    Err(e) if may_retry(&e, options.idempotent || options.exactly_once) => {
                        last_err = Some(e)
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        Err(last_err.unwrap_or_else(|| RmiError::Protocol("no endpoints left to try".to_owned())))
    }

    /// One attempt against one specific endpoint: breaker admission, the
    /// send ladder, classification, breaker bookkeeping. Every admitted
    /// [`ProbeToken`](crate::breaker::ProbeToken) is resolved here — an
    /// unresolved one would wedge a half-open breaker. A failed send or a `Busy` shed counts against
    /// the endpoint; any other outcome (an exception reply *is* an
    /// answer) counts for it.
    fn attempt_endpoint(
        &self,
        out: &Outgoing,
        endpoint: &Endpoint,
        deadline: Option<Duration>,
    ) -> RmiResult<Sent> {
        let breaker = self.inner.pool.breaker(endpoint);
        // The admission token ties the eventual outcome back to the
        // breaker generation that admitted this attempt: if the breaker
        // trips (or is probed) while this call is in flight, a stale
        // outcome is ignored instead of corrupting the newer state.
        let token = breaker.try_admit().map_err(|retry_after| RmiError::CircuitOpen {
            endpoint: endpoint.to_string(),
            retry_after,
        })?;
        let (sent, healthy) = match self.send(out, endpoint, deadline) {
            // Classify: the reply's header is parsed once, here. A `Busy`
            // shed surfaces as `ServerBusy`, always safe to retry, and counts
            // against the endpoint; an exception reply is an answer.
            Ok(Sent::Raw(reply)) => {
                self.inner.metrics.add(Counter::BytesIn, reply.len() as u64);
                let reply: Vec<u8> = reply.into();
                let raw =
                    (out.kind.cached && out.options.cached_ttl.is_some()).then(|| reply.clone());
                let parsed = Reply::parse(reply, self.inner.protocol.as_ref());
                let busy = matches!(parsed, Err(RmiError::ServerBusy { .. }));
                (parsed.map(|reply| Sent::Reply(reply, raw)), !busy)
            }
            Ok(sent) => (Ok(sent), true),
            Err(e) => (Err(e), false),
        };
        breaker.record_outcome(token, healthy);
        sent
    }

    /// The send ladder, once for every kind: checkout → send → discard the
    /// connection on failure. A deadline says nothing about connection
    /// health, so that connection stays. A retry-safe failure of a
    /// two-way call on a *cached* connection — it went stale while idle —
    /// gets one immediate retry on a fresh one (see [`may_retry`]); so
    /// does any retry-safe failure of a tokened call, whose reconnect the
    /// server's replay cache makes transparent.
    fn send(
        &self,
        out: &Outgoing,
        endpoint: &Endpoint,
        deadline: Option<Duration>,
    ) -> RmiResult<Sent> {
        let (request_id, body, options) = (out.request_id, &out.body, &out.options);
        let mut first_err = None;
        loop {
            let checked = match self.inner.pool.checkout(endpoint, &self.inner.protocol) {
                Ok(c) => c,
                Err(e) => return Err(first_err.unwrap_or(e)),
            };
            let sent = match out.kind.send {
                SendKind::TwoWay => checked.call(request_id, body, deadline).map(Sent::Raw),
                SendKind::Stream => checked.call_streamed(request_id, body).map(|slot| {
                    let ack =
                        ObjectRef::new(endpoint.clone(), STREAM_ACK_OBJECT_ID, STREAM_ACK_TYPE_ID);
                    Sent::Stream(ReplyStream::new(
                        Arc::clone(checked.connection()),
                        slot,
                        Arc::clone(&self.inner.protocol),
                        request_id,
                        ack,
                        self.inner.server_policy.stream_window_bytes as u64,
                        self.inner.server_policy.decode_limits,
                        deadline,
                    ))
                }),
                SendKind::Oneway => checked.send_oneway(body).map(|()| Sent::Oneway),
            };
            let err = match sent {
                Ok(sent) => return Ok(sent),
                Err(e @ RmiError::DeadlineExceeded { .. }) => return Err(e),
                Err(e) => e,
            };
            self.inner.pool.discard(endpoint, checked.connection());
            let stale = first_err.is_none()
                && out.kind.send == SendKind::TwoWay
                && (checked.from_cache() || options.exactly_once)
                && options.retry
                && may_retry(&err, options.idempotent || options.exactly_once);
            if !stale {
                return Err(err);
            }
            self.inner.retries.fetch_add(1, Ordering::Relaxed);
            self.inner.metrics.inc(Counter::Retries);
            if options.exactly_once {
                self.inner.metrics.inc(Counter::Reconnects);
            }
            first_err = Some(err);
        }
    }

    /// Invokes a `oneway` call: send and forget.
    ///
    /// Runs the invocation path of [`Orb::invoke`] minus the reply: the request
    /// carries `~ctx` under Debug tracing and needs the endpoint's circuit
    /// breaker to admit it (an open one fails the call with
    /// [`RmiError::CircuitOpen`] unsent; one that reached the wire counts
    /// as a breaker success). Fires `ClientSend` like [`Orb::invoke`]; on
    /// a failure also `ClientReceive` with `ok = false`, so interceptors
    /// see a symmetric pair for failed oneways (successful oneways fire
    /// only `ClientSend` — there is no reply to receive).
    ///
    /// # Errors
    ///
    /// Transport failures and [`RmiError::CircuitOpen`]; also rejects
    /// calls built with [`Orb::call`] (the server would send a reply
    /// nobody reads).
    pub fn invoke_oneway(&self, call: Call) -> RmiResult<()> {
        self.invoke_as(&ONEWAY, call, CallOptions::default()).map(drop)
    }

    /// A reference names the protocol its server speaks (`@tcp:...` vs
    /// `@giop:...`); invoking it through an ORB speaking another protocol
    /// would exchange mutually unintelligible bytes, so fail fast.
    fn check_protocol(&self, target: &ObjectRef) -> RmiResult<()> {
        let ours = self.inner.protocol.name();
        for endpoint in target.endpoints() {
            if endpoint.proto != ours {
                return Err(RmiError::Protocol(format!(
                    "reference speaks `{}` but this ORB speaks `{ours}`",
                    endpoint.proto
                )));
            }
        }
        Ok(())
    }

    // ---- stub cache -------------------------------------------------------

    /// Returns the cached stub for `objref`, creating it with `make` on
    /// first use ("both stubs and skeletons are cached in each
    /// address-space").
    pub fn cached_stub<T, F>(&self, objref: &ObjectRef, make: F) -> Arc<T>
    where
        T: Any + Send + Sync,
        F: FnOnce() -> Arc<T>,
    {
        let key = objref.to_string();
        if let Some(existing) = self.inner.stubs.read().get(&key) {
            if let Ok(typed) = Arc::clone(existing).downcast::<T>() {
                return typed;
            }
        }
        let stub = make();
        self.inner.stubs.write().insert(key, Arc::clone(&stub) as Arc<dyn Any + Send + Sync>);
        stub
    }

    /// Number of cached stubs (observability).
    pub fn stub_count(&self) -> usize {
        self.inner.stubs.read().len()
    }

    /// Number of entries in the `@cached` result cache (observability;
    /// counts entries not yet reaped, including expired ones).
    pub fn cached_result_count(&self) -> usize {
        self.inner.result_cache.len()
    }

    // ---- incopy ----------------------------------------------------------

    /// Marshals an `incopy` argument: by value when the servant is
    /// serializable (no skeleton is ever created), by reference otherwise
    /// (lazily exporting a skeleton built by `make_skel`).
    ///
    /// # Errors
    ///
    /// Export failures when falling back to by-reference.
    pub fn marshal_incopy(
        &self,
        servant: &Arc<dyn RemoteObject>,
        make_skel: impl FnOnce() -> Arc<dyn Skeleton>,
        enc: &mut dyn Encoder,
    ) -> RmiResult<()> {
        if let Some(value) = servant.as_serializable() {
            serialize::marshal_value(value, enc);
            return Ok(());
        }
        let identity = Arc::as_ptr(servant) as *const () as usize;
        let objref = self.export_once(identity, make_skel)?;
        serialize::marshal_reference(&objref, enc);
        Ok(())
    }
}

impl Drop for OrbInner {
    fn drop(&mut self) {
        // Join the heartbeat prober first: it holds only a `Weak` to this
        // inner (upgrade now fails), so the join is bounded by one tick
        // plus the tail of a scan in progress.
        if let Some(handle) = self.heartbeat.get_mut().take() {
            let mut handle = handle;
            handle.stop_and_join();
        }
        if let Some(handle) = self.server.get_mut().take() {
            handle.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_default() {
        let built = CallOptions::builder().build();
        let defaulted = CallOptions::default();
        assert_eq!(built.deadline, defaulted.deadline);
        assert_eq!(built.retry, defaulted.retry);
        assert_eq!(built.retry_policy, defaulted.retry_policy);
        assert_eq!(built.idempotent, defaulted.idempotent);
        assert_eq!(built.cached_ttl, defaulted.cached_ttl);
    }

    #[test]
    fn retry_class_maps_onto_retry_and_idempotent() {
        let safe = CallOptions::builder().retry_class(RetryClass::Safe).build();
        assert!(safe.retry && safe.idempotent);
        let conditional = CallOptions::builder().retry_class(RetryClass::IfIdempotent).build();
        assert!(conditional.retry && !conditional.idempotent);
        let never = CallOptions::builder().retry_class(RetryClass::Never).build();
        assert!(!never.retry && !never.idempotent);
    }

    #[test]
    fn builder_chain_composes_all_knobs() {
        let options = CallOptions::builder()
            .deadline(Duration::from_millis(50))
            .retry_class(RetryClass::Safe)
            .retry_policy(RetryPolicy::none())
            .cached(Duration::from_millis(200))
            .build();
        assert_eq!(options.deadline, Some(Duration::from_millis(50)));
        assert!(options.idempotent);
        assert_eq!(options.retry_policy, Some(RetryPolicy::none()));
        assert_eq!(options.cached_ttl, Some(Duration::from_millis(200)));
    }
}
