//! The router/gateway: many backends behind one reference.
//!
//! RAFDA's observation (PAPERS.md) pushed one level past the paper: *which
//! replica serves a call* is distribution policy, not application code,
//! and that policy is all a router adds to a server. A [`Router`] is a
//! server whose route forwards: it runs the one connection path every
//! server runs (admission and `Busy` shedding, the reply writer and its
//! death rule, the lent reader, both drivers). Where a server dispatches
//! an admitted application request to a skeleton, the router, which owns
//! no servants, **forwards it body-verbatim** to one of the backends named
//! by its [`BackendSource`] and relays the reply back under the client's
//! own request id.
//!
//! Verbatim forwarding is not an optimization, it is a correctness rule:
//!
//! * the server dispatches on the *object id* inside the embedded
//!   reference and ignores its host:port, so a request addressed "to the
//!   router" dispatches unchanged on any backend;
//! * the PR 7 `~tok` exactly-once token and PR 5 `~ctx` trace context ride
//!   the body's tail — an intermediary that re-marshaled the request would
//!   strip them, silently downgrading exactly-once to at-most-once and
//!   orphaning the call trace;
//! * reply-cache replays embed the **original** request id; only a router
//!   that never rewrites ids can relay a replayed reply to the retrying
//!   client and have it correlate.
//!
//! Per-call routing composes the PR 2/3 fault-tolerance stack per backend:
//! every backend endpoint gets a circuit breaker (shared router-wide), the
//! router sheds with `Busy` when its in-flight cap is hit, as any server
//! does, and failed backends are skipped. The routing discipline differs
//! by call class:
//!
//! * **Tokened (`@exactly_once`) calls** route *sticky*: the token's
//!   first forward picks the rendezvous-hash winner of `(session, seq)`
//!   over the membership and **pins** the token to it
//!   ([`RouterPolicy::affinity_ttl`]); a client retry of the same
//!   invocation follows the pin and hits that backend's replay cache.
//!   The pin matters because rendezvous alone re-homes ~1/N of all keys
//!   whenever a node *joins* — a retry re-homed to the newcomer would
//!   re-execute there. A tokened call **never moves to another backend**:
//!   even a pre-send refusal (open breaker, dial failure) might be the
//!   retry of an attempt that already executed on the pinned backend,
//!   and another backend's replay cache has never seen the token.
//!   Refusals and exhausted mid-call redials all answer `Busy`, which is
//!   retry-safe because the client reuses its token; only the pinned
//!   backend *leaving membership* (which a graceful restart does after
//!   draining, i.e. after delivering every reply) re-homes the token.
//! * **Untokened calls** round-robin. Only *provably unsent* failures
//!   (breaker refusal, dial failure, a `Busy` shed — all pre-dispatch)
//!   move to the next backend; a failure after the request was sent is
//!   answered with a system exception so the client never silently
//!   re-sends a non-idempotent call.
//!
//! The router answers the built-in `_health` (`ping`/`report`) and
//! `_metrics` objects itself, as any server does — a heartbeating client
//! is probing *this* hop's liveness, and the router's own counters must
//! stay readable (over telnet, like any heidl object) even when every
//! backend is down. Its `_metrics dump` adds three rows to a server's:
//! `backends`, `membership_generation` and `token_pins`.
//!
//! Being a server, a router takes its driver from `HEIDL_TRANSPORT` and
//! wraps its accepted sockets per `HEIDL_FAULT_PLAN`. Oneway forwards run
//! inline on the reader, like oneway dispatches, so one client thread's
//! program order survives the hop; on the reactor that puts a first dial
//! to a backend on the thread reading the connection, the exposure a
//! oneway servant has there too. Streams are not relayed: a forward is one backend `call`,
//! so only the first chunk of a `@stream` reply reaches the client, and
//! stream-credit acks stop at the router.

use crate::call::{extract_invocation_token, ReplyBuilder, ReplyStatus};
use crate::communicator::{ConnectionPool, MuxConnection};
use crate::error::{RmiError, RmiResult};
use crate::metrics::{Counter, Metrics};
use crate::objref::{Endpoint, ObjectRef};
use crate::orb::Orb;
use crate::policy::ServerPolicy;
use crate::retry::may_retry;
use crate::server::Route;
use crate::trace::{self, TraceLevel};
use crate::transport::Connector;
use heidl_wire::{DecodeLimits, Protocol, TextProtocol};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Repository id of the system exception a client receives when the
/// router lost a backend *after* forwarding a non-idempotent request:
/// the outcome is unknown, so the router must answer (never re-send).
pub const ROUTER_FORWARD_REPO_ID: &str = "IDL:heidl/RouterForward:1.0";

/// Where the router learns its backend membership from.
///
/// `backends()` is consulted on **every** forwarded call, so membership
/// changes take effect immediately — implementations cache internally and
/// use `invalidate()` as the refresh hint. The directory-backed
/// implementation lives in `heidl-router`; tests use [`SharedBackends`].
pub trait BackendSource: Send + Sync {
    /// Monotonic membership generation: bumps whenever `backends()` would
    /// answer differently (lets pollers skip no-op refreshes).
    fn generation(&self) -> u64;

    /// The current live backends, in registration order.
    fn backends(&self) -> Vec<Endpoint>;

    /// Hint that the cached membership is suspect (a forward found every
    /// candidate unusable): drop caches so the next `backends()`
    /// re-resolves. The default does nothing (static sources).
    fn invalidate(&self) {}
}

/// A [`BackendSource`] over a mutable in-process membership list: the
/// chaos harness's stand-in for the directory (rolling restarts edit it),
/// and the simplest way to front a fixed backend set.
#[derive(Debug, Default)]
pub struct SharedBackends {
    inner: Mutex<Membership>,
}

#[derive(Debug, Default)]
struct Membership {
    generation: u64,
    endpoints: Vec<Endpoint>,
}

impl SharedBackends {
    /// An empty membership (generation 0).
    pub fn new() -> SharedBackends {
        SharedBackends::default()
    }

    /// A fixed initial membership.
    pub fn with_endpoints(endpoints: impl IntoIterator<Item = Endpoint>) -> SharedBackends {
        let shared = SharedBackends::new();
        shared.set(endpoints);
        shared
    }

    /// Replaces the membership and bumps the generation.
    pub fn set(&self, endpoints: impl IntoIterator<Item = Endpoint>) {
        let mut inner = self.inner.lock();
        inner.endpoints = endpoints.into_iter().collect();
        inner.generation += 1;
    }

    /// Adds one backend (idempotent) and bumps the generation if it was new.
    pub fn add(&self, endpoint: Endpoint) {
        let mut inner = self.inner.lock();
        if !inner.endpoints.contains(&endpoint) {
            inner.endpoints.push(endpoint);
            inner.generation += 1;
        }
    }

    /// Removes one backend and bumps the generation if it was present.
    pub fn remove(&self, endpoint: &Endpoint) {
        let mut inner = self.inner.lock();
        let before = inner.endpoints.len();
        inner.endpoints.retain(|e| e != endpoint);
        if inner.endpoints.len() != before {
            inner.generation += 1;
        }
    }
}

impl BackendSource for SharedBackends {
    fn generation(&self) -> u64 {
        self.inner.lock().generation
    }

    fn backends(&self) -> Vec<Endpoint> {
        self.inner.lock().endpoints.clone()
    }
}

/// Tuning for a [`Router`].
#[derive(Debug, Clone)]
pub struct RouterPolicy {
    /// Upper bound on one forwarded attempt's wait for a backend reply.
    pub forward_deadline: Duration,
    /// Router-wide cap on concurrently forwarded requests; beyond it the
    /// router sheds with `Busy` (always safe for the client to retry).
    pub max_in_flight: usize,
    /// How many times a *tokened* call is re-sent to its sticky backend
    /// after a mid-call failure (each retry redials; the token makes the
    /// resend safe against that backend's replay cache).
    pub sticky_retries: u32,
    /// How long a token's backend *pin* outlives its last forward. Pins
    /// make stickiness immune to membership growth: rendezvous hashing
    /// re-homes ~1/N of all keys whenever a node joins, which would send
    /// a retried token to a backend whose replay cache never saw it. The
    /// default matches the backends' default reply-cache TTL — once the
    /// replay entry is gone, the pin protects nothing.
    pub affinity_ttl: Duration,
    /// Wire decode limits applied to everything read from clients.
    pub decode_limits: DecodeLimits,
}

impl Default for RouterPolicy {
    fn default() -> Self {
        RouterPolicy {
            forward_deadline: Duration::from_secs(5),
            max_in_flight: 256,
            sticky_retries: 2,
            affinity_ttl: Duration::from_secs(30),
            decode_limits: DecodeLimits::default(),
        }
    }
}

/// Builder for a [`Router`]; see [`Router::builder`].
pub struct RouterBuilder {
    source: Arc<dyn BackendSource>,
    protocol: Arc<dyn Protocol>,
    policy: RouterPolicy,
    connector: Option<Arc<dyn Connector>>,
    breaker_config: Option<crate::breaker::BreakerConfig>,
}

impl RouterBuilder {
    /// Selects the wire protocol spoken on both legs (text by default).
    pub fn protocol(mut self, protocol: Arc<dyn Protocol>) -> RouterBuilder {
        self.protocol = protocol;
        self
    }

    /// Replaces the routing/shedding policy.
    pub fn policy(mut self, policy: RouterPolicy) -> RouterBuilder {
        self.policy = policy;
        self
    }

    /// Dials backends through `connector` (the seam fault injectors plug
    /// into, exactly as on a client ORB).
    pub fn connector(mut self, connector: Arc<dyn Connector>) -> RouterBuilder {
        self.connector = Some(connector);
        self
    }

    /// Tunes the per-backend circuit breakers.
    pub fn breaker_config(mut self, config: crate::breaker::BreakerConfig) -> RouterBuilder {
        self.breaker_config = Some(config);
        self
    }

    /// Binds `addr` and starts accepting clients: an ORB with the
    /// builder's protocol, connector and breakers, serving with the
    /// forward route.
    ///
    /// # Errors
    ///
    /// Propagates bind/thread-spawn failures.
    pub fn start(self, addr: &str) -> RmiResult<Router> {
        let server_policy = ServerPolicy {
            max_in_flight: self.policy.max_in_flight,
            // A forward holds its thread for one backend exchange, so the
            // in-flight cap bounds the overflow threads too.
            max_overflow_threads: self.policy.max_in_flight,
            decode_limits: self.policy.decode_limits,
            ..ServerPolicy::default()
        };
        let mut builder = Orb::builder().protocol(self.protocol).server_policy(server_policy);
        if let Some(connector) = self.connector {
            builder = builder.connector(connector);
        }
        if let Some(config) = self.breaker_config {
            builder = builder.circuit_breaker(config);
        }
        let orb = builder.build();
        let shared = Arc::new(RouterShared {
            source: self.source,
            rotation: AtomicU64::new(0),
            affinity: Mutex::new(HashMap::new()),
            policy: self.policy,
        });
        let endpoint = orb.serve_route(addr, Route::Forward(Arc::clone(&shared)))?;
        Ok(Router { orb, shared, endpoint })
    }
}

/// The forward route's state, shared by every client connection.
pub(crate) struct RouterShared {
    source: Arc<dyn BackendSource>,
    policy: RouterPolicy,
    /// Round-robin cursor for untokened calls.
    rotation: AtomicU64,
    /// Token → backend pins, keyed by `(session, seq)`: the backend a
    /// token's *first* forward selected. Retries reuse the pin while the
    /// backend remains in membership, so a node *joining* (which re-homes
    /// ~1/N of rendezvous keys) cannot steal an in-retry token away from
    /// the one replay cache that saw it. Entries expire `affinity_ttl`
    /// after their last use and are swept on insert past a high-water
    /// mark.
    affinity: Mutex<HashMap<(u64, u64), (Endpoint, Instant)>>,
}

impl RouterShared {
    /// The router's rows of `_metrics dump`, after the server's gauges.
    pub(crate) fn gauges(&self) -> [(&'static str, u64); 3] {
        [
            ("backends", self.source.backends().len() as u64),
            ("membership_generation", self.source.generation()),
            ("token_pins", self.affinity.lock().len() as u64),
        ]
    }
}

/// Sweep threshold for the affinity table: inserts past this size first
/// drop expired pins, bounding the table by live-token volume.
const AFFINITY_SWEEP_LEN: usize = 4096;

/// A running router/gateway. Shut down with [`Router::shutdown`] (also
/// invoked on drop).
pub struct Router {
    /// The server the router is; its pool holds the backend breakers.
    orb: Orb,
    shared: Arc<RouterShared>,
    endpoint: Endpoint,
}

impl Router {
    /// Starts building a router over `source` (text protocol, default
    /// policy).
    pub fn builder(source: Arc<dyn BackendSource>) -> RouterBuilder {
        RouterBuilder {
            source,
            protocol: Arc::new(TextProtocol),
            policy: RouterPolicy::default(),
            connector: None,
            breaker_config: None,
        }
    }

    /// The endpoint clients connect to.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// A client-facing reference to the backends' object `object_id`:
    /// the router's endpoint with the backend object's id and type. Calls
    /// on it dispatch on whichever backend the router selects.
    pub fn service_ref(&self, object_id: u64, type_id: &str) -> ObjectRef {
        ObjectRef::new(self.endpoint.clone(), object_id, type_id)
    }

    /// The router's breaker/connector pool — one breaker per backend
    /// endpoint. Resolver caches register their
    /// [`BreakerListener`](crate::communicator::BreakerListener)s here.
    pub fn pool(&self) -> &ConnectionPool {
        self.orb.connections()
    }

    /// The router's own metrics registry (also remotely dispatchable via
    /// the built-in `_metrics` object on the router's endpoint).
    pub fn metrics(&self) -> &Arc<Metrics> {
        self.orb.metrics()
    }

    /// Stops accepting, joining the accept thread and the overrun
    /// watcher. Existing client connections drain naturally as their
    /// peers disconnect.
    pub fn shutdown(&self) {
        self.orb.shutdown();
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("endpoint", &self.endpoint.to_string())
            .field("backends", &self.shared.source.backends().len())
            .finish()
    }
}

/// One client connection's private backend connections, keyed by
/// endpoint, held by its server connection. Never shared across client
/// connections: request ids are only unique per client process, so two
/// clients must never multiplex onto one backend socket. Breaker history,
/// by contrast, is shared router-wide, in the router's pool.
#[derive(Default)]
pub(crate) struct BackendConns {
    map: Mutex<HashMap<Endpoint, Arc<MuxConnection>>>,
}

impl BackendConns {
    fn get_or_dial(&self, orb: &Orb, endpoint: &Endpoint) -> RmiResult<Arc<MuxConnection>> {
        if let Some(conn) = self.map.lock().get(endpoint) {
            // Nobody reads a backend connection between forwards: the
            // probe is what sees a backend that closed it.
            if conn.probe() {
                return Ok(Arc::clone(conn));
            }
        }
        // Dial outside the map lock: concurrent forwards to one new
        // backend may race and open two sockets; the loser's is dropped.
        let connector = orb.connections().connector();
        let conn = MuxConnection::via(connector.as_ref(), endpoint, orb.protocol())?;
        let mut map = self.map.lock();
        let entry = map.entry(endpoint.clone()).or_insert_with(|| Arc::clone(&conn));
        if !entry.is_alive() {
            *entry = Arc::clone(&conn);
        }
        Ok(Arc::clone(entry))
    }

    fn evict(&self, endpoint: &Endpoint, dead: &Arc<MuxConnection>) {
        let mut map = self.map.lock();
        if let Some(current) = map.get(endpoint) {
            if Arc::ptr_eq(current, dead) {
                map.remove(endpoint);
            }
        }
    }
}

/// The forward route: forwards one request body over `conns` and returns
/// the reply to relay (`None` for oneways). Implements the routing
/// discipline documented at module level.
pub(crate) fn forward_one(
    shared: &RouterShared,
    orb: &Orb,
    conns: &BackendConns,
    body: &[u8],
    request_id: u64,
    response_expected: bool,
) -> Option<Vec<u8>> {
    let protocol = orb.protocol();
    let token = extract_invocation_token(body, protocol.as_ref());
    let backends = shared.source.backends();
    if backends.is_empty() {
        shared.source.invalidate();
        return response_expected.then(|| {
            ReplyBuilder::busy(protocol.as_ref(), request_id, "router: no backends registered")
        });
    }
    let candidates = match &token {
        // Sticky: the token's pinned backend if it is still a member,
        // else the rendezvous winner over the current membership — which
        // becomes the pin. The pin (not rendezvous alone) is what makes a
        // retried invocation land on the backend whose replay cache saw
        // it: rendezvous re-homes ~1/N of keys whenever a node *joins*,
        // and a re-homed retry would re-execute on the newcomer.
        Some(tok) => {
            let id = (tok.session, tok.seq);
            let now = Instant::now();
            let mut pins = shared.affinity.lock();
            let pinned = pins.get(&id).and_then(|(ep, at)| {
                (now.duration_since(*at) < shared.policy.affinity_ttl && backends.contains(ep))
                    .then(|| ep.clone())
            });
            let chosen = pinned.unwrap_or_else(|| {
                let key = tok.session.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tok.seq;
                backends
                    .iter()
                    .max_by_key(|e| rendezvous_weight(key, e))
                    .cloned()
                    .expect("membership checked non-empty above")
            });
            if pins.len() >= AFFINITY_SWEEP_LEN && !pins.contains_key(&id) {
                pins.retain(|_, (_, at)| now.duration_since(*at) < shared.policy.affinity_ttl);
            }
            pins.insert(id, (chosen.clone(), now));
            drop(pins);
            vec![chosen]
        }
        // Round-robin: rotate the membership per call.
        None => {
            let start = shared.rotation.fetch_add(1, Ordering::Relaxed) as usize % backends.len();
            let mut rotated = backends;
            rotated.rotate_left(start);
            rotated
        }
    };
    let tokened = token.is_some();
    let mut last_busy: Option<Vec<u8>> = None;
    for endpoint in &candidates {
        let breaker = orb.connections().breaker(endpoint);
        // Breaker refusal is provably unsent *this time* — but for a
        // tokened call the router cannot know whether an earlier client
        // attempt already executed on the sticky backend before its
        // breaker opened. Moving the token to another backend would
        // re-execute there (its replay cache has never seen the token),
        // so tokened calls never go past their sticky candidate: answer
        // Busy and let the client retry the same token once the breaker
        // half-opens. Untokened calls are free to try the next backend.
        let Ok(probe) = breaker.try_admit() else {
            if token.is_some() {
                return response_expected.then(|| {
                    ReplyBuilder::busy(
                        protocol.as_ref(),
                        request_id,
                        "router: sticky backend unavailable (breaker open); \
                         the token makes a later retry safe",
                    )
                });
            }
            continue;
        };
        let conn = match conns.get_or_dial(orb, endpoint) {
            Ok(conn) => conn,
            Err(_) => {
                // Dial failure: provably unsent; count it against the
                // breaker so a dead backend trips to fail-fast. Same
                // stickiness rule: a tokened call must not hop backends.
                breaker.record_outcome(probe, false);
                if token.is_some() {
                    return response_expected.then(|| {
                        ReplyBuilder::busy(
                            protocol.as_ref(),
                            request_id,
                            "router: sticky backend unavailable (dial failed); \
                             the token makes a later retry safe",
                        )
                    });
                }
                continue;
            }
        };
        if !response_expected {
            // Oneway: fire at the first usable backend; a send failure is
            // not retried (the class promises at-most-once, nothing more).
            match conn.send_oneway(body) {
                Ok(()) => {
                    breaker.record_outcome(probe, true);
                    orb.metrics().inc(Counter::Oneways);
                }
                Err(_) => {
                    breaker.record_outcome(probe, false);
                    conns.evict(endpoint, &conn);
                }
            }
            return None;
        }
        let policy = &shared.policy;
        match forward_exchange(orb, policy, conns, endpoint, conn, probe, body, request_id, tokened)
        {
            Exchange::Reply(reply) => return Some(reply),
            Exchange::Busy(reply) => {
                if token.is_some() {
                    // A tokened Busy may mean "your first attempt is
                    // executing right now" (replay InFlight): failing over
                    // would re-execute. Relay it — the client backs off
                    // and retries sticky.
                    return Some(reply);
                }
                // Untokened Busy is a pre-dispatch shed: provably unsent,
                // so trying the next backend is safe.
                last_busy = Some(reply);
                continue;
            }
            Exchange::Unsent => continue,
            Exchange::SentThenLost(err) => {
                let protocol = protocol.as_ref();
                return Some(answer_mid_call_failure(protocol, &token, request_id, endpoint, &err));
            }
        }
    }
    shared.source.invalidate();
    Some(last_busy.unwrap_or_else(|| {
        ReplyBuilder::busy(protocol.as_ref(), request_id, "router: no healthy backend")
    }))
}

/// Outcome of one backend exchange attempt (including sticky retries).
enum Exchange {
    /// A non-Busy reply to relay verbatim.
    Reply(Vec<u8>),
    /// The backend shed with `Busy`.
    Busy(Vec<u8>),
    /// Nothing reached the backend; the next candidate is safe.
    Unsent,
    /// The request was (possibly) delivered but the reply was lost.
    SentThenLost(RmiError),
}

/// One request/reply exchange with `endpoint`, with sticky redials for
/// `tokened` calls. `probe` is the breaker admission for the first attempt.
#[allow(clippy::too_many_arguments)]
fn forward_exchange(
    orb: &Orb,
    policy: &RouterPolicy,
    conns: &BackendConns,
    endpoint: &Endpoint,
    mut conn: Arc<MuxConnection>,
    probe: crate::breaker::ProbeToken,
    body: &[u8],
    request_id: u64,
    tokened: bool,
) -> Exchange {
    let breaker = orb.connections().breaker(endpoint);
    let mut probe = Some(probe);
    let retries = if tokened { policy.sticky_retries } else { 0 };
    let mut last_err = None;
    for attempt in 0..=retries {
        match conn.call(request_id, body, Some(policy.forward_deadline)) {
            Ok(reply) => {
                let status =
                    crate::call::peek_reply_status(&reply, orb.protocol().as_ref()).map(|(_, s)| s);
                let reply: Vec<u8> = reply.into();
                return if matches!(status, Ok(ReplyStatus::Busy)) {
                    // An overloaded backend counts against its breaker —
                    // exactly as on the direct client path.
                    record(&breaker, &mut probe, false);
                    Exchange::Busy(reply)
                } else {
                    record(&breaker, &mut probe, true);
                    Exchange::Reply(reply)
                };
            }
            Err(err) => {
                record(&breaker, &mut probe, false);
                conns.evict(endpoint, &conn);
                // `may_retry` with resend-safe=true admits mid-call
                // failures; without a token nothing post-send is safe.
                if !may_retry(&err, tokened) {
                    return Exchange::SentThenLost(err);
                }
                if attempt == retries {
                    last_err = Some(err);
                    break;
                }
                orb.metrics().inc(Counter::Reconnects);
                // Redial the *same* backend: the token only dedups there.
                let Ok(admitted) = breaker.try_admit() else {
                    last_err = Some(err);
                    break;
                };
                probe = Some(admitted);
                conn = match conns.get_or_dial(orb, endpoint) {
                    Ok(conn) => conn,
                    Err(dial_err) => {
                        record(&breaker, &mut probe, false);
                        last_err = Some(dial_err);
                        break;
                    }
                };
                orb.metrics().inc(Counter::Retries);
            }
        }
    }
    match last_err {
        Some(err) => Exchange::SentThenLost(err),
        None => Exchange::Unsent,
    }
}

/// Records a breaker outcome exactly once per admission.
fn record(
    breaker: &Arc<crate::breaker::CircuitBreaker>,
    probe: &mut Option<crate::breaker::ProbeToken>,
    ok: bool,
) {
    if let Some(p) = probe.take() {
        breaker.record_outcome(p, ok);
    }
}

/// Builds the reply for a request that may have reached a backend whose
/// answer was lost.
fn answer_mid_call_failure(
    protocol: &dyn Protocol,
    token: &Option<crate::call::InvocationToken>,
    request_id: u64,
    endpoint: &Endpoint,
    err: &RmiError,
) -> Vec<u8> {
    trace::emit_with(TraceLevel::Warn, "router", || {
        format!("forward to {endpoint} failed mid-call: {err}")
    });
    match token {
        // The client's retry reuses its token, so telling it to retry is
        // safe: the sticky backend's replay cache absorbs the duplicate.
        Some(_) => ReplyBuilder::busy(
            protocol,
            request_id,
            &format!("router: backend {endpoint} unreachable mid-call; token makes retry safe"),
        ),
        // No token: the outcome at the backend is unknown and a resend
        // could re-execute. Answer with a system exception — the Remote
        // class is never retried — so the client surfaces the failure
        // instead of silently re-sending.
        None => ReplyBuilder::exception(
            protocol,
            request_id,
            ReplyStatus::SystemException,
            ROUTER_FORWARD_REPO_ID,
            &format!("backend {endpoint} failed after the request was forwarded: {err}"),
        ),
    }
}

/// Highest-random-weight (rendezvous) score of `endpoint` for `key`:
/// FNV-1a over the key bytes and the endpoint string. Stable across
/// routers, so independent router instances agree on sticky placement.
fn rendezvous_weight(key: u64, endpoint: &Endpoint) -> u64 {
    const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut hash = FNV_OFFSET;
    for byte in key.to_le_bytes() {
        hash = (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    for byte in endpoint.to_string().as_bytes() {
        hash = (hash ^ u64::from(*byte)).wrapping_mul(FNV_PRIME);
    }
    hash
}
