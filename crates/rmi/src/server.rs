//! The bootstrap-port server: Fig 5's interaction, one reader per
//! connection plus a small shared worker pool for dispatch.
//!
//! *"The bootstrap port in each address space serves as means to initiate a
//! communication channel. When a client connects to the bootstrap port (1),
//! a new `ObjectCommunicator` is wrapped around the resulting connection.
//! ... The `ObjectCommunicator` reads in an incoming request (2) and
//! encapsulates it in a `Call` object. The `Call` header contains the
//! stringified object reference, whose type information and object
//! identifier permit the selection of the appropriate `Skeleton`."*
//!
//! With request-id correlation on the wire, one connection can carry many
//! interleaved requests: the per-connection reader thread only deframes and
//! routes. Two-way requests are dispatched on a shared worker pool and
//! their replies written back (in completion order — the client
//! demultiplexes by id), so one slow servant cannot head-of-line-block the
//! connection. `oneway` requests are dispatched inline on the reader,
//! preserving the oneway-then-call ordering a single client observes.
//!
//! Every stage applies the ORB's `ServerPolicy`: connections beyond
//! `max_connections` are refused at `accept`, requests beyond the global or
//! per-connection in-flight caps (or beyond the worker pool's overflow
//! budget, or arriving during a drain) are shed with a `Busy` reply before
//! any servant runs, and everything the server reads is deframed and
//! decoded under the policy's `DecodeLimits`. The built-in `_health`
//! object (well-known id `0`) reports the resulting counters.
//!
//! ## Two I/O engines, one routing path
//!
//! The server runs its sockets on one of two engines, selected by
//! [`TransportMode`](crate::TransportMode) (`HEIDL_TRANSPORT` or
//! `OrbBuilder::transport_mode`):
//!
//! * **threaded** (the historical engine): a blocking accept loop plus one
//!   `heidl-conn` reader thread per connection;
//! * **reactor**: a single `heidl-reactor-{port}` epoll readiness loop
//!   owns the listener and every connection — accepted sockets become
//!   per-connection state machines ([`ConnSource`]/[`ConnWriter`]) that
//!   deframe with `MSG_DONTWAIT` reads and continue partial reply writes
//!   when `EPOLLOUT` says the peer caught up, so ten thousand idle
//!   connections cost zero threads instead of ten thousand.
//!
//! Both engines deframe into the same [`route_frame`] routing path and
//! dispatch on the same worker pool, so policy enforcement and wire
//! behavior are byte-identical; only the thread economics differ.

use crate::call::{
    extract_call_context, extract_invocation_token, peek_reply_id, peek_route, IncomingCall,
    ReplyBuilder, ReplyStatus,
};
use crate::communicator::{write_framed, ObjectCommunicator};
use crate::error::{RmiError, RmiResult};
use crate::metrics::{Counter, Metrics};
use crate::objref::Endpoint;
use crate::orb::Orb;
use crate::policy::{ServerHealth, ServerPolicy};
use crate::reactor::{
    self, Action, ReactorHandle, Source, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};
use crate::replay::{ReplayCache, ReplayDecision};
use crate::skeleton::{DispatchOutcome, Skeleton};
use crate::stream::{
    StreamServant, StreamWindow, TokenBucket, STREAM_ACK_OBJECT_ID, STREAM_EXPIRED_REPO_ID,
};
use crate::trace::{self, TraceLevel};
use crate::transport::{TcpTransport, Transport, RECV_CHUNK};
use heidl_wire::{pool, FrameBuf, PooledBuf, MAX_FRAME_HEADER};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::IoSlice;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Resident dispatch threads per server; requests beyond this run on
/// transient overflow threads (bounded by the policy) so a dispatch that
/// itself blocks (e.g. on a nested remote call) can never starve the pool.
pub(crate) const WORKER_THREADS: usize = 4;

/// Well-known object id of the built-in `_health` object every server
/// serves. Exported ids start at 1, so 0 can never collide.
pub const HEALTH_OBJECT_ID: u64 = 0;

/// Repository id of the built-in `_health` object.
pub const HEALTH_TYPE_ID: &str = "IDL:heidl/Health:1.0";

/// Well-known object id of the built-in `_metrics` object every server
/// serves. Exported ids start at 1 and increment, so `u64::MAX` can never
/// collide with an application export.
pub const METRICS_OBJECT_ID: u64 = u64::MAX;

/// Repository id of the built-in `_metrics` object.
pub const METRICS_TYPE_ID: &str = "IDL:heidl/Metrics:1.0";

/// Counters and policy shared by the accept loop, every connection
/// reader, every dispatch, and the drain path.
pub(crate) struct ServerShared {
    policy: ServerPolicy,
    /// Set once a drain begins: new requests are shed, accepts refused.
    draining: AtomicBool,
    /// Requests currently admitted (dispatching or queued to workers).
    in_flight: AtomicUsize,
    /// Connections currently open.
    connections: AtomicUsize,
    /// Requests shed with `Busy` (or silently, for oneways) since start.
    shed_requests: AtomicU64,
    /// Connections refused at accept time since start.
    shed_connections: AtomicU64,
    /// Live connections' write halves, for force-close at drain timeout
    /// and the reactor's idle/stall sweep.
    conns: Mutex<HashMap<u64, Weak<dyn ReplySink>>>,
    next_conn_id: AtomicU64,
    /// The owning ORB's metrics registry: the shed counters below are
    /// mirrored into it exactly once per event (see [`Self::shed_request`]).
    metrics: Arc<Metrics>,
    /// Exactly-once dedup table + reply cache: a retried invocation token
    /// is answered from here instead of re-executing the servant.
    replay: ReplayCache,
    /// Live per-stream credit windows, keyed by `(conn id, request id)`
    /// (request ids are only unique per client): the reader thread's
    /// inline ack handling grants credit into them.
    streams: Mutex<HashMap<(u64, u64), Arc<StreamWindow>>>,
    /// Pacing bucket shared by every stream on this server — the policy's
    /// `stream_rate_bytes_per_sec` bounds *aggregate* emission.
    stream_bucket: Option<TokenBucket>,
    /// Global outstanding-reply-bytes budget across every connection
    /// writer (see [`ReplyBudget`]).
    reply_budget: Arc<ReplyBudget>,
}

impl ServerShared {
    fn new(policy: ServerPolicy, metrics: Arc<Metrics>) -> ServerShared {
        let replay = ReplayCache::new(policy.reply_cache_ttl, policy.reply_cache_max_bytes);
        let stream_bucket = policy.stream_rate_bytes_per_sec.map(TokenBucket::new);
        let reply_budget = Arc::new(ReplyBudget::new(policy.max_reply_queue_bytes_global));
        ServerShared {
            policy,
            draining: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            connections: AtomicUsize::new(0),
            shed_requests: AtomicU64::new(0),
            shed_connections: AtomicU64::new(0),
            conns: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(1),
            metrics,
            replay,
            streams: Mutex::new(HashMap::new()),
            stream_bucket,
            reply_budget,
        }
    }

    /// Admission control for one request. On success the returned guard
    /// holds both the global and the per-connection in-flight slot until
    /// the dispatch (and its reply write) completes; on refusal the error
    /// names the cap so the `Busy` reply is diagnosable over telnet.
    fn try_admit(self: &Arc<Self>, per_conn: &Arc<AtomicUsize>) -> Result<InFlightGuard, String> {
        if self.draining.load(Ordering::SeqCst) {
            return Err("draining for shutdown".to_owned());
        }
        // The global reply-queue byte budget: per-connection queue caps do
        // not stop *many* slow readers from collectively growing RSS, so
        // once the sum of queued reply bytes crosses the policy line, new
        // work is shed until writers drain. (The threaded engine's
        // blocking writes never queue, so its accounting stays at zero.)
        if self.reply_budget.exhausted() {
            return Err(format!(
                "global reply-queue byte budget ({}) reached",
                self.policy.max_reply_queue_bytes_global
            ));
        }
        if per_conn.fetch_add(1, Ordering::SeqCst) >= self.policy.max_in_flight_per_connection {
            per_conn.fetch_sub(1, Ordering::SeqCst);
            return Err(format!(
                "per-connection in-flight cap ({}) reached",
                self.policy.max_in_flight_per_connection
            ));
        }
        if self.in_flight.fetch_add(1, Ordering::SeqCst) >= self.policy.max_in_flight {
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
            per_conn.fetch_sub(1, Ordering::SeqCst);
            return Err(format!("in-flight cap ({}) reached", self.policy.max_in_flight));
        }
        Ok(InFlightGuard { shared: Arc::clone(self), per_conn: Arc::clone(per_conn) })
    }

    /// Counts one request shed. The `_health` counter and the metrics
    /// counter are bumped together here — the *only* shed-request site —
    /// so `_health.report` and `_metrics.snapshot` always agree.
    fn shed_request(&self) {
        self.shed_requests.fetch_add(1, Ordering::SeqCst);
        self.metrics.inc(Counter::ShedRequests);
    }

    /// Counts one connection refused at accept time; same single-site
    /// dual-count contract as [`Self::shed_request`].
    fn shed_connection(&self) {
        self.shed_connections.fetch_add(1, Ordering::SeqCst);
        self.metrics.inc(Counter::ShedConnections);
    }

    /// Registers a live stream's credit window so inbound acks can find it.
    fn register_stream(&self, conn_id: u64, request_id: u64, window: Arc<StreamWindow>) {
        self.streams.lock().insert((conn_id, request_id), window);
    }

    /// Removes a finished stream's window; late acks then fall on the floor.
    fn unregister_stream(&self, conn_id: u64, request_id: u64) {
        self.streams.lock().remove(&(conn_id, request_id));
    }

    /// Grants ack'd credit into a live stream's window (no-op for
    /// unknown/finished streams — late acks are as harmless as late
    /// replies).
    fn grant_stream(&self, conn_id: u64, request_id: u64, bytes: u64) {
        if let Some(window) = self.streams.lock().get(&(conn_id, request_id)) {
            window.grant(bytes);
        }
    }

    /// Closes (and drops) every stream window belonging to a dead
    /// connection, so its pump threads stop waiting for acks that can
    /// never arrive.
    fn close_conn_streams(&self, conn_id: u64) {
        self.streams.lock().retain(|(owner, _), window| {
            if *owner == conn_id {
                window.close();
                false
            } else {
                true
            }
        });
    }

    pub(crate) fn snapshot(&self) -> ServerHealth {
        ServerHealth {
            accepting: !self.draining.load(Ordering::SeqCst),
            in_flight: self.in_flight.load(Ordering::SeqCst) as u64,
            connections: self.connections.load(Ordering::SeqCst) as u64,
            shed_requests: self.shed_requests.load(Ordering::SeqCst),
            shed_connections: self.shed_connections.load(Ordering::SeqCst),
        }
    }
}

/// Releases a request's global and per-connection in-flight slots. Owned
/// by the dispatch job, so the slots stay held until the reply is written.
struct InFlightGuard {
    shared: Arc<ServerShared>,
    per_conn: Arc<AtomicUsize>,
}

impl Drop for InFlightGuard {
    fn drop(&mut self) {
        self.shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        self.per_conn.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Releases a connection's slot in the accept-time connection count.
struct ConnGuard {
    shared: Arc<ServerShared>,
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.shared.connections.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Server-wide accounting of reply bytes accepted but not yet written to
/// any socket. Each [`ConnWriter`] settles its queue's byte count here
/// after every mutation, and [`ServerShared::try_admit`] sheds new work
/// with `Busy` while the total exceeds the policy budget — the backstop
/// the per-connection caps cannot provide when *many* connections are
/// slow at once.
struct ReplyBudget {
    queued: AtomicUsize,
    max: usize,
}

impl ReplyBudget {
    fn new(max: usize) -> ReplyBudget {
        ReplyBudget { queued: AtomicUsize::new(0), max: max.max(1) }
    }

    fn exhausted(&self) -> bool {
        self.queued.load(Ordering::SeqCst) >= self.max
    }

    /// Moves this writer's accounted share from `before` to `after` bytes.
    fn adjust(&self, before: usize, after: usize) {
        if after > before {
            self.queued.fetch_add(after - before, Ordering::SeqCst);
        } else if before > after {
            self.queued.fetch_sub(before - after, Ordering::SeqCst);
        }
    }
}

/// A running bootstrap-port server.
pub(crate) struct ServerHandle {
    endpoint: Endpoint,
    local: SocketAddr,
    engine: Engine,
    shared: Arc<ServerShared>,
}

/// Which I/O engine is serving the sockets (see the module docs).
enum Engine {
    Threaded {
        running: Arc<AtomicBool>,
        acceptor: Option<JoinHandle<()>>,
    },
    Reactor {
        reactor: ReactorHandle,
        accept_token: u64,
        /// Set by [`AcceptSource`]'s drop, so stopping can wait until the
        /// listener is actually closed (threaded `stop` joins the accept
        /// thread; this is the readiness-loop equivalent).
        accept_closed: Arc<AtomicBool>,
    },
}

impl ServerHandle {
    /// Binds `addr` and starts serving under the ORB's `ServerPolicy`, on
    /// the engine its `TransportMode` selects. The reactor engine requires
    /// raw socket fds, so a `HEIDL_FAULT_PLAN` run (every accepted
    /// transport wrapped in a fd-less fault injector) falls back to the
    /// threaded engine.
    pub(crate) fn start(addr: &str, orb: Orb) -> RmiResult<ServerHandle> {
        if orb.transport_mode().reactor_enabled() && crate::fault::FaultPlan::from_env().is_none() {
            ServerHandle::start_reactor(addr, orb)
        } else {
            ServerHandle::start_threaded(addr, orb)
        }
    }

    /// The historical engine: a blocking accept loop plus one reader
    /// thread per accepted connection.
    fn start_threaded(addr: &str, orb: Orb) -> RmiResult<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let endpoint = Endpoint::new(orb.protocol().name(), local.ip().to_string(), local.port());
        let running = Arc::new(AtomicBool::new(true));
        let flag = Arc::clone(&running);
        let policy = orb.server_policy().clone();
        let workers = Arc::new(WorkerPool::new(WORKER_THREADS, policy.max_overflow_threads));
        let shared = Arc::new(ServerShared::new(policy, Arc::clone(orb.metrics())));
        let loop_shared = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name(format!("heidl-accept-{}", local.port()))
            .spawn(move || accept_loop(listener, orb, flag, workers, loop_shared))
            .map_err(RmiError::Io)?;
        Ok(ServerHandle {
            endpoint,
            local,
            engine: Engine::Threaded { running, acceptor: Some(acceptor) },
            shared,
        })
    }

    /// The readiness-loop engine: one epoll thread owns the listener and
    /// every connection; dispatch still runs on the shared worker pool.
    fn start_reactor(addr: &str, orb: Orb) -> RmiResult<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let endpoint = Endpoint::new(orb.protocol().name(), local.ip().to_string(), local.port());
        let policy = orb.server_policy().clone();
        let workers = Arc::new(WorkerPool::new(WORKER_THREADS, policy.max_overflow_threads));
        let shared = Arc::new(ServerShared::new(policy, Arc::clone(orb.metrics())));
        let handle =
            reactor::spawn(&format!("heidl-reactor-{}", local.port())).map_err(RmiError::Io)?;
        let accept_closed = Arc::new(AtomicBool::new(false));
        let accept_token = handle.alloc_id();
        handle.register(
            accept_token,
            EPOLLIN,
            Box::new(AcceptSource {
                listener,
                orb,
                workers,
                shared: Arc::clone(&shared),
                closed: Arc::clone(&accept_closed),
            }),
        );
        // The socket timeouts the threaded engine sets are meaningless for
        // MSG_DONTWAIT I/O, so a sweep timer polices them instead: idle
        // peers (read_idle_timeout) and peers too slow to take their
        // replies (write_timeout) get force-closed, which surfaces as an
        // EOF event on their source.
        let idle = shared.policy.read_idle_timeout;
        let stall = shared.policy.write_timeout;
        if idle.is_some() || stall.is_some() {
            let tightest = [idle, stall].into_iter().flatten().min().unwrap_or_default();
            let period =
                (tightest / 4).clamp(Duration::from_millis(10), Duration::from_millis(1000));
            let sweep_shared = Arc::clone(&shared);
            handle.add_timer(
                handle.alloc_id(),
                period,
                Box::new(move |_| {
                    let sinks: Vec<_> = sweep_shared.conns.lock().values().cloned().collect();
                    for weak in sinks {
                        if let Some(sink) = weak.upgrade() {
                            if sink.stalled(idle, stall) {
                                sink.force_close();
                            }
                        }
                    }
                }),
            );
        }
        Ok(ServerHandle {
            endpoint,
            local,
            engine: Engine::Reactor { reactor: handle, accept_token, accept_closed },
            shared,
        })
    }

    pub(crate) fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    pub(crate) fn health(&self) -> ServerHealth {
        self.shared.snapshot()
    }

    /// Stops the accept loop immediately; in-flight dispatches race the
    /// process teardown (the historical `shutdown()` semantics).
    /// Established connections keep being served on both engines until
    /// their peers disconnect.
    pub(crate) fn stop(mut self) {
        self.halt_accepting();
        if let Engine::Reactor { reactor, .. } = &self.engine {
            // Exit once the last connection's source is gone — the
            // reactor-thread analogue of `heidl-conn` threads outliving
            // the acceptor.
            reactor.retire();
        }
    }

    /// Graceful drain: stop accepting, shed new requests with `Busy`,
    /// wait up to the policy's `drain_timeout` for in-flight dispatches,
    /// then force-close every remaining connection. Returns `true` when
    /// everything in flight completed within the budget.
    pub(crate) fn stop_and_drain(mut self) -> bool {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.halt_accepting();
        let deadline = Instant::now() + self.shared.policy.drain_timeout;
        let drained = loop {
            if self.shared.in_flight.load(Ordering::SeqCst) == 0 {
                break true;
            }
            if Instant::now() >= deadline {
                break false;
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        // Force-close whatever is left (all connections when drained — the
        // readers are idle-blocked — plus any overrunning dispatch's):
        // shutting the socket down gives each reader EOF, so every reader
        // (thread or reactor source) exits promptly.
        let writers: Vec<_> = self.shared.conns.lock().drain().collect();
        for (conn_id, weak) in writers {
            if let Some(writer) = weak.upgrade() {
                if !drained {
                    trace::emit_with(TraceLevel::Warn, "server", || {
                        format!("drain timeout: force-closing connection {conn_id}")
                    });
                }
                writer.force_close();
            }
        }
        if let Engine::Reactor { reactor, .. } = &self.engine {
            reactor.retire();
        }
        drained
    }

    fn halt_accepting(&mut self) {
        match &mut self.engine {
            Engine::Threaded { running, acceptor } => {
                running.store(false, Ordering::SeqCst);
                // Nudge the blocking accept() so it observes the flag.
                // Connect via loopback: the bind address may be unroutable
                // as a *destination* (`0.0.0.0` / `::`), but the listener
                // is always reachable on the loopback of its own address
                // family.
                let addr = nudge_addr(self.local);
                let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(250));
                if let Some(h) = acceptor.take() {
                    let _ = h.join();
                }
            }
            Engine::Reactor { reactor, accept_token, accept_closed } => {
                reactor.close(*accept_token);
                // Wait (bounded) until the listener has actually dropped,
                // so the port is free when we return — same guarantee the
                // threaded engine gets from joining its accept thread.
                let deadline = Instant::now() + Duration::from_secs(1);
                while !accept_closed.load(Ordering::SeqCst) && Instant::now() < deadline {
                    if !reactor.is_live() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }
}

fn nudge_addr(local: SocketAddr) -> SocketAddr {
    let mut addr = local;
    if addr.ip().is_unspecified() {
        addr.set_ip(match local {
            SocketAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            SocketAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    addr
}

pub(crate) type Job = Box<dyn FnOnce() + Send>;

/// A small fixed pool of dispatch threads with *bounded* overflow: when
/// every resident worker is occupied, the job runs on a transient thread
/// instead of queueing behind a potentially blocked dispatch — but only
/// up to the policy's overflow budget. Past that, `submit` refuses and
/// the caller sheds the request with `Busy` instead of letting a slow
/// servant grow one thread per queued request without bound. The router
/// runs its forwards on one too (a forward blocks on its backend exactly
/// as a dispatch may block on a nested call).
pub(crate) struct WorkerPool {
    tx: crossbeam::channel::Sender<Job>,
    busy: Arc<AtomicUsize>,
    workers: usize,
    overflow: Arc<AtomicUsize>,
    max_overflow: usize,
}

impl WorkerPool {
    pub(crate) fn new(workers: usize, max_overflow: usize) -> WorkerPool {
        let (tx, rx) = crossbeam::channel::unbounded::<Job>();
        let busy = Arc::new(AtomicUsize::new(0));
        for i in 0..workers {
            let rx = rx.clone();
            let busy = Arc::clone(&busy);
            let _ =
                std::thread::Builder::new().name(format!("heidl-worker-{i}")).spawn(move || {
                    while let Ok(job) = rx.recv() {
                        job();
                        busy.fetch_sub(1, Ordering::SeqCst);
                    }
                });
        }
        WorkerPool { tx, busy, workers, overflow: Arc::new(AtomicUsize::new(0)), max_overflow }
    }

    /// Runs `job` on a resident worker or a transient overflow thread.
    /// Returns `false` (dropping the job unrun) when every resident
    /// worker is busy and the overflow budget is exhausted.
    pub(crate) fn submit(&self, job: Job) -> bool {
        // `busy` counts submitted-but-unfinished pool jobs; the check is a
        // heuristic (races only cost an occasional extra thread), but it
        // guarantees a job is never queued behind `workers` blocked ones.
        if self.busy.load(Ordering::SeqCst) < self.workers {
            self.busy.fetch_add(1, Ordering::SeqCst);
            if self.tx.send(job).is_ok() {
                return true;
            }
            self.busy.fetch_sub(1, Ordering::SeqCst);
            return false;
        }
        if self.overflow.fetch_add(1, Ordering::SeqCst) >= self.max_overflow {
            self.overflow.fetch_sub(1, Ordering::SeqCst);
            return false;
        }
        let overflow = Arc::clone(&self.overflow);
        let spawned =
            std::thread::Builder::new().name("heidl-overflow".to_owned()).spawn(move || {
                job();
                overflow.fetch_sub(1, Ordering::SeqCst);
            });
        if spawned.is_err() {
            self.overflow.fetch_sub(1, Ordering::SeqCst);
            return false;
        }
        true
    }
}

/// First back-off after a failed `accept()`; doubles per consecutive
/// failure up to [`ACCEPT_BACKOFF_MAX`], resetting on any success.
const ACCEPT_BACKOFF_BASE: std::time::Duration = std::time::Duration::from_millis(5);
/// Cap on the accept-failure back-off.
const ACCEPT_BACKOFF_MAX: std::time::Duration = std::time::Duration::from_millis(500);

fn accept_loop(
    listener: TcpListener,
    orb: Orb,
    running: Arc<AtomicBool>,
    workers: Arc<WorkerPool>,
    shared: Arc<ServerShared>,
) {
    // When HEIDL_FAULT_PLAN is set (demo servers, chaos runs), every
    // accepted transport is wrapped in a fault injector driven by it.
    let fault_plan = crate::fault::FaultPlan::from_env();
    let mut backoff = ACCEPT_BACKOFF_BASE;
    loop {
        let stream = listener.accept();
        if !running.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok((stream, _)) => {
                backoff = ACCEPT_BACKOFF_BASE;
                stream
            }
            // Transient accept failures (EMFILE, ECONNABORTED, ...) must
            // not kill the server: back off so a persistent condition does
            // not spin the CPU, then keep serving.
            Err(e) => {
                trace::emit_with(TraceLevel::Warn, "server", || {
                    format!("accept failed (backing off {backoff:?}): {e}")
                });
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(ACCEPT_BACKOFF_MAX);
                continue;
            }
        };
        // Connection admission: over the cap (or draining), close
        // immediately — cheaper than a reader thread per rejected peer.
        if shared.connections.load(Ordering::SeqCst) >= shared.policy.max_connections
            || shared.draining.load(Ordering::SeqCst)
        {
            shared.shed_connection();
            drop(stream);
            continue;
        }
        shared.connections.fetch_add(1, Ordering::SeqCst);
        let conn_guard = ConnGuard { shared: Arc::clone(&shared) };
        let Ok(transport) = TcpTransport::from_stream(stream) else { continue };
        // Slow-client protection: an idle reader or a blocked reply write
        // times out at the socket, tearing the connection down.
        let _ =
            transport.set_timeouts(shared.policy.read_idle_timeout, shared.policy.write_timeout);
        let mut transport: Box<dyn Transport> = Box::new(transport);
        if let Some(plan) = &fault_plan {
            let label = transport.peer();
            transport =
                Box::new(crate::fault::FaultInjector::wrap(transport, Arc::clone(plan), label));
        }
        let conn_orb = orb.clone();
        let conn_workers = Arc::clone(&workers);
        let conn_shared = Arc::clone(&shared);
        let _ = std::thread::Builder::new().name("heidl-conn".to_owned()).spawn(move || {
            let _conn_guard = conn_guard;
            connection_loop(transport, conn_orb, conn_workers, conn_shared);
        });
    }
}

/// A connection's write half, as every dispatch job (and the drain and
/// sweep paths) sees it: the threaded engine's blocking [`ReplyWriter`]
/// and the reactor's queueing non-blocking [`ConnWriter`] both implement
/// it, so [`route_frame`] and the worker pool are engine-agnostic.
pub(crate) trait ReplySink: Send + Sync {
    /// Writes one framed reply, recycling the (pooled) body storage once
    /// the bytes are on the wire (or queued for it).
    fn send(&self, body: Vec<u8>) -> RmiResult<()>;

    /// As [`Self::send`] but without touching the byte counters: replies
    /// to the built-in `_health`/`_metrics` objects — including heartbeat
    /// pings — are runtime chatter, not application traffic, and must not
    /// skew `_metrics` byte totals.
    fn send_unmetered(&self, body: Vec<u8>) -> RmiResult<()>;

    /// Tears the connection down: shuts the socket down so the read side
    /// (blocked thread or reactor source) observes EOF and cleans up.
    fn force_close(&self);

    /// Whether the connection has gone idle past `idle_after` or has had
    /// reply bytes queued without progress past `write_stall`. Only the
    /// reactor writer reports either — the threaded engine's socket
    /// timeouts already police both.
    fn stalled(&self, idle_after: Option<Duration>, write_stall: Option<Duration>) -> bool {
        let _ = (idle_after, write_stall);
        false
    }
}

/// The write half of a connection, shared by every dispatch that answers
/// on it. Frames under a brief lock so interleaved replies stay whole.
struct ReplyWriter {
    transport: Mutex<Box<dyn Transport>>,
    protocol: Arc<dyn heidl_wire::Protocol>,
    metrics: Arc<Metrics>,
}

impl ReplyWriter {
    /// Takes the body by value so its (pooled) storage can be recycled
    /// once the bytes are on the wire. A write failure is traced here —
    /// the one choke point every reply passes through — so a connection
    /// torn down mid-reply never vanishes silently.
    fn send_with_accounting(&self, body: Vec<u8>, metered: bool) -> RmiResult<()> {
        let len = body.len();
        let result = {
            let mut transport = self.transport.lock();
            write_framed(transport.as_mut(), self.protocol.as_ref(), &body)
        };
        heidl_wire::pool::recycle(body);
        match &result {
            Ok(()) if metered => self.metrics.add(Counter::BytesOut, len as u64),
            Ok(()) => {}
            Err(e) => trace::emit_with(TraceLevel::Warn, "server", || {
                format!("reply write failed; dropping connection: {e}")
            }),
        }
        result
    }
}

impl ReplySink for ReplyWriter {
    fn send(&self, body: Vec<u8>) -> RmiResult<()> {
        self.send_with_accounting(body, true)
    }

    fn send_unmetered(&self, body: Vec<u8>) -> RmiResult<()> {
        self.send_with_accounting(body, false)
    }

    fn force_close(&self) {
        self.transport.lock().shutdown();
    }
}

/// Routes one deframed request — the single path both engines feed. The
/// read side (a `heidl-conn` thread or a reactor [`ConnSource`]) calls
/// this once per frame; returns `false` when the reply sink failed and
/// the connection should be torn down.
fn route_frame(
    body: PooledBuf,
    orb: &Orb,
    workers: &WorkerPool,
    shared: &Arc<ServerShared>,
    per_conn: &Arc<AtomicUsize>,
    sink: &Arc<dyn ReplySink>,
    conn_id: u64,
) -> bool {
    let protocol = orb.protocol();
    let limits = &shared.policy.decode_limits;
    let body_len = body.len() as u64;
    // One borrowed decode pass yields everything routing needs: the
    // id, the reply-expected flag, and the target object id.
    match peek_route(&body, protocol.as_ref(), limits) {
        // `_health` probes and `_metrics` reads bypass admission
        // control and dispatch inline on the reader (they are cheap
        // and run no servant code): overload or drain must never
        // blind observability. They also stay out of the byte
        // counters — a client heartbeating through a quiet period
        // must not read back as application traffic.
        Ok((_, _, Some(HEALTH_OBJECT_ID | METRICS_OBJECT_ID))) => {
            if let Some(reply) = handle_request(body.into(), orb, shared) {
                if sink.send_unmetered(reply).is_err() {
                    return false;
                }
            }
        }
        // Stream-credit acks target the reserved ack object and are
        // handled inline on the reader, unmetered and never queued
        // behind servant work — a credit grant stuck in the worker
        // queue would starve the very stream it is meant to unblock.
        Ok((_, _, Some(STREAM_ACK_OBJECT_ID))) => {
            handle_stream_ack(body.into(), orb, shared, conn_id);
        }
        // oneway: dispatch inline so a client's oneway-then-call
        // sequence executes in order; there is no reply to write, so
        // an overload shed is silent (but counted).
        Ok((_, false, _)) => {
            shared.metrics.add(Counter::BytesIn, body_len);
            match shared.try_admit(per_conn) {
                Ok(guard) => {
                    let _ = handle_request(body.into(), orb, shared);
                    drop(guard);
                }
                Err(_) => shared.shed_request(),
            }
        }
        Ok((request_id, true, object_id)) => {
            shared.metrics.add(Counter::BytesIn, body_len);
            match shared.try_admit(per_conn) {
                Ok(guard) => {
                    let job_orb = orb.clone();
                    let job_sink = Arc::clone(sink);
                    let job_shared = Arc::clone(shared);
                    let job_body: Vec<u8> = body.into();
                    // A target registered as a stream servant dispatches on
                    // the pump path: same worker pool, same in-flight
                    // guard, but the reply goes out as chunked frames.
                    let streamer = object_id.and_then(|id| orb.stream_servant(id));
                    let job: Job = match streamer {
                        Some(servant) => Box::new(move || {
                            // The guard lives until the final chunk is on
                            // the wire — drains wait for whole streams.
                            let _guard = guard;
                            pump_stream(
                                job_body,
                                servant,
                                &job_orb,
                                &job_shared,
                                &job_sink,
                                conn_id,
                            );
                        }),
                        None => Box::new(move || {
                            // The guard lives until the reply is on the wire.
                            let _guard = guard;
                            if let Some(reply) = handle_request(job_body, &job_orb, &job_shared) {
                                let _ = job_sink.send(reply);
                            }
                        }),
                    };
                    let accepted = workers.submit(job);
                    if !accepted {
                        // The dropped job released its guard; tell the
                        // client to back off.
                        shared.shed_request();
                        let busy = ReplyBuilder::busy(
                            protocol.as_ref(),
                            request_id,
                            "worker pool overflow cap reached",
                        );
                        if sink.send(busy).is_err() {
                            return false;
                        }
                    }
                }
                Err(reason) => {
                    shared.shed_request();
                    let busy = ReplyBuilder::busy(protocol.as_ref(), request_id, &reason);
                    if sink.send(busy).is_err() {
                        return false;
                    }
                }
            }
        }
        // Unparsable header — diagnose inline (a telnet user who
        // mistyped wants the error back immediately).
        Err(_) => {
            shared.metrics.add(Counter::BytesIn, body_len);
            if let Some(reply) = handle_request(body.into(), orb, shared) {
                if sink.send(reply).is_err() {
                    return false;
                }
            }
        }
    }
    true
}

/// Serves one connection until the peer closes it: the reader thread
/// deframes and routes (shedding what admission control refuses),
/// workers dispatch and reply.
fn connection_loop(
    transport: Box<dyn Transport>,
    orb: Orb,
    workers: Arc<WorkerPool>,
    shared: Arc<ServerShared>,
) {
    let protocol = Arc::clone(orb.protocol());
    let limits = shared.policy.decode_limits;
    // Fig 5 (1): wrap the read half in a new ObjectCommunicator.
    let Ok((write_half, read_half)) = transport.split() else { return };
    let writer = Arc::new(ReplyWriter {
        transport: Mutex::new(write_half),
        protocol: Arc::clone(&protocol),
        metrics: Arc::clone(&shared.metrics),
    });
    let sink: Arc<dyn ReplySink> = Arc::clone(&writer) as Arc<dyn ReplySink>;
    // Register for force-close at drain timeout; deregister on exit.
    let conn_id = shared.next_conn_id.fetch_add(1, Ordering::SeqCst);
    shared.conns.lock().insert(conn_id, Arc::downgrade(&sink));
    // This connection's share of the in-flight budget.
    let per_conn = Arc::new(AtomicUsize::new(0));
    let mut comm = ObjectCommunicator::with_limits(read_half, Arc::clone(&protocol), limits);
    while let Ok(Some(body)) = comm.recv() {
        if !route_frame(body, &orb, &workers, &shared, &per_conn, &sink, conn_id) {
            break;
        }
    }
    shared.conns.lock().remove(&conn_id);
    // Streams pumping toward this connection can never be acked again;
    // fail them fast instead of letting each wait out the credit timeout.
    shared.close_conn_streams(conn_id);
}

/// Fig 5 (2)-(4): decode the request, select the skeleton by object id,
/// dispatch (recursively up the inheritance chain), and build the reply.
/// Returns `None` for `oneway` requests, which must not be answered.
pub(crate) fn handle_request(body: Vec<u8>, orb: &Orb, shared: &ServerShared) -> Option<Vec<u8>> {
    let protocol = Arc::clone(orb.protocol());
    // Call tracing: when the client stamped the request with a trailing
    // wire context, make it current for the whole dispatch — server-side
    // trace events and any *nested* outbound calls this dispatch makes
    // then carry the caller's id as their parent. Skipped entirely (one
    // relaxed load) when tracing is off.
    let _ctx_guard = if trace::enabled(TraceLevel::Debug) {
        extract_call_context(&body, protocol.as_ref()).map(|ctx| ctx.enter())
    } else {
        None
    };
    // Best-effort id for diagnostics on unparsable requests: both message
    // kinds lead with the id, so the reply-peek works on requests too.
    let fallback_id = peek_reply_id(&body, protocol.as_ref()).unwrap_or(0);
    // Exactly-once: the invocation token rides the body's tail, so it must
    // be read before parsing consumes the bytes.
    let token = extract_invocation_token(&body, protocol.as_ref());
    let mut incoming =
        match IncomingCall::parse_limited(body, protocol.as_ref(), &shared.policy.decode_limits) {
            Ok(c) => c,
            Err(e) => {
                // The header did not parse, so we cannot know whether a reply
                // is expected; send the diagnostic (a telnet user wants it).
                return Some(ReplyBuilder::exception(
                    protocol.as_ref(),
                    fallback_id,
                    ReplyStatus::SystemException,
                    "IDL:heidl/BadRequest:1.0",
                    &e.to_string(),
                ));
            }
        };
    if let (Some(token), true) = (token, incoming.response_expected) {
        let key = (token.session, token.seq);
        let (decision, purged) = shared.replay.begin(key);
        if purged > 0 {
            shared.metrics.add(Counter::ReplyCacheEvictions, purged);
        }
        return Some(match decision {
            ReplayDecision::Execute => {
                let reply_body = dispatch_request(&mut incoming, orb, shared, &protocol);
                let evicted = shared.replay.complete(key, &reply_body);
                if evicted > 0 {
                    shared.metrics.add(Counter::ReplyCacheEvictions, evicted);
                }
                reply_body
            }
            // A duplicate of a completed invocation: replay the reply
            // byte-for-byte (a retry reuses its request id, so the
            // embedded id already matches) — the servant never re-runs.
            ReplayDecision::Replay(reply_body) => {
                shared.metrics.inc(Counter::DedupReplays);
                reply_body
            }
            // A duplicate racing the first execution: Busy is Safe to
            // retry, so the client backs off and replays once complete.
            ReplayDecision::InFlight => ReplyBuilder::busy(
                protocol.as_ref(),
                incoming.request_id,
                "retry of an in-flight invocation",
            ),
        });
    }
    let reply_body = dispatch_request(&mut incoming, orb, shared, &protocol);
    incoming.response_expected.then_some(reply_body)
}

/// Handles one inbound flow-control ack (a oneway to the reserved
/// [`STREAM_ACK_OBJECT_ID`]): `ulonglong stream-request-id · ulonglong
/// consumed-bytes` grant straight into the stream's credit window.
/// Malformed acks are dropped silently — they are runtime chatter, and a
/// hostile one can at worst refill a window the policy already capped.
fn handle_stream_ack(body: Vec<u8>, orb: &Orb, shared: &ServerShared, conn_id: u64) {
    let protocol = orb.protocol();
    let Ok(mut incoming) =
        IncomingCall::parse_limited(body, protocol.as_ref(), &shared.policy.decode_limits)
    else {
        return;
    };
    let (Ok(stream_id), Ok(bytes)) = (incoming.args.get_ulonglong(), incoming.args.get_ulonglong())
    else {
        return;
    };
    shared.grant_stream(conn_id, stream_id, bytes);
}

/// Fallback credit-wait budget when the policy sets no `write_timeout`: a
/// stream whose client stops acking for this long is aborted rather than
/// parked forever on a worker thread.
const STREAM_CREDIT_TIMEOUT: Duration = Duration::from_secs(30);

/// Dispatches one streamed invocation end to end on a worker thread:
/// opens the servant's [`StreamBody`](crate::stream::StreamBody), then
/// pumps fragments as chunk-tailed OK replies through the connection's
/// sink — spending window credit per fragment, pacing through the shared
/// bucket — until the body is exhausted or the stream aborts.
///
/// A request *without* the chunk tail (a plain caller) gets the whole
/// payload accumulated into one ordinary reply instead: streaming is a
/// client opt-in, not a wire break.
fn pump_stream(
    body: Vec<u8>,
    servant: Arc<dyn StreamServant>,
    orb: &Orb,
    shared: &Arc<ServerShared>,
    sink: &Arc<dyn ReplySink>,
    conn_id: u64,
) {
    let protocol = Arc::clone(orb.protocol());
    let _ctx_guard = if trace::enabled(TraceLevel::Debug) {
        extract_call_context(&body, protocol.as_ref()).map(|ctx| ctx.enter())
    } else {
        None
    };
    let fallback_id = peek_reply_id(&body, protocol.as_ref()).unwrap_or(0);
    // The client's opt-in rides the request's chunk tail; its index field
    // carries the requested credit window in bytes.
    let requested = protocol.extract_chunk(&body).map(|(window, _)| window);
    let token = extract_invocation_token(&body, protocol.as_ref());
    let mut incoming =
        match IncomingCall::parse_limited(body, protocol.as_ref(), &shared.policy.decode_limits) {
            Ok(c) => c,
            Err(e) => {
                let _ = sink.send(ReplyBuilder::exception(
                    protocol.as_ref(),
                    fallback_id,
                    ReplyStatus::SystemException,
                    "IDL:heidl/BadRequest:1.0",
                    &e.to_string(),
                ));
                return;
            }
        };
    let request_id = incoming.request_id;
    // Exactly-once bookkeeping brackets the stream, but the reply cache
    // never holds the chunks themselves (see the completion below).
    let replay_key = token.map(|t| (t.session, t.seq));
    if let Some(key) = replay_key {
        let (decision, purged) = shared.replay.begin(key);
        if purged > 0 {
            shared.metrics.add(Counter::ReplyCacheEvictions, purged);
        }
        match decision {
            ReplayDecision::Execute => {}
            ReplayDecision::Replay(reply_body) => {
                shared.metrics.inc(Counter::DedupReplays);
                let _ = sink.send(reply_body);
                return;
            }
            ReplayDecision::InFlight => {
                let _ = sink.send(ReplyBuilder::busy(
                    protocol.as_ref(),
                    request_id,
                    "retry of an in-flight invocation",
                ));
                return;
            }
        }
    }
    orb.inner.interceptors.fire(
        crate::interceptor::CallPhase::ServerDispatch,
        &incoming.target,
        &incoming.method,
        true,
    );
    let started = Instant::now();
    let opened = servant.open(&incoming.method, incoming.args.as_mut());
    shared.metrics.record_server_dispatch(
        &incoming.method,
        started.elapsed().as_nanos() as u64,
        opened.is_ok(),
    );
    orb.inner.interceptors.fire(
        crate::interceptor::CallPhase::ServerReply,
        &incoming.target,
        &incoming.method,
        opened.is_ok(),
    );
    let mut stream_body = match opened {
        Ok(b) => b,
        Err(e) => {
            // An `open` failure is an ordinary (bounded) exception reply;
            // unlike chunks it is perfectly cacheable, so exactly-once
            // retries replay it like any other dispatch failure.
            let reply = match e {
                RmiError::Remote { repo_id, detail } => ReplyBuilder::exception(
                    protocol.as_ref(),
                    request_id,
                    ReplyStatus::UserException,
                    &repo_id,
                    &detail,
                ),
                other => ReplyBuilder::exception(
                    protocol.as_ref(),
                    request_id,
                    ReplyStatus::SystemException,
                    "IDL:heidl/DispatchFailed:1.0",
                    &other.to_string(),
                ),
            };
            complete_replay(shared, replay_key, &reply);
            let _ = sink.send(reply);
            return;
        }
    };
    let Some(requested) = requested else {
        // Compatibility path: no opt-in tail, so materialize the whole
        // payload into one ordinary reply (bounded buffering is the
        // opting client's reward, not a wire-level requirement).
        let mut all = String::new();
        while let Some(fragment) = stream_body.next_fragment(shared.policy.stream_chunk_bytes) {
            all.push_str(&fragment);
        }
        let mut reply = ReplyBuilder::ok(protocol.as_ref(), request_id);
        reply.results().put_string(&all);
        let reply = reply.into_body();
        complete_replay(shared, replay_key, &reply);
        let _ = sink.send(reply);
        return;
    };
    // The client asks, the policy caps: the effective window is the
    // smaller of the two, and the client learns it implicitly by acking
    // whatever arrives (its reader force-flushes pending acks before
    // blocking, so a clamped window cannot deadlock).
    let window_bytes = requested.clamp(1, shared.policy.stream_window_bytes as u64);
    let chunk_max = shared.policy.stream_chunk_bytes.min(window_bytes as usize).max(1);
    let window = Arc::new(StreamWindow::new(window_bytes));
    shared.register_stream(conn_id, request_id, Arc::clone(&window));
    let credit_timeout = shared.policy.write_timeout.unwrap_or(STREAM_CREDIT_TIMEOUT);
    let mut index: u64 = 0;
    let mut next = stream_body.next_fragment(chunk_max);
    let aborted = loop {
        // Look one fragment ahead so the final frame can say `last` —
        // an empty body still sends one empty terminal chunk.
        let mid_stream = next.is_some();
        let fragment = next.unwrap_or_default();
        let upcoming = if mid_stream { stream_body.next_fragment(chunk_max) } else { None };
        let last = upcoming.is_none();
        if !fragment.is_empty() && !window.consume(fragment.len() as u64, credit_timeout) {
            break true;
        }
        if let Some(bucket) = &shared.stream_bucket {
            bucket.pace(fragment.len() as u64);
        }
        let mut reply = ReplyBuilder::ok(protocol.as_ref(), request_id);
        reply.results().put_string(&fragment);
        let _ = protocol.encode_chunk(reply.results(), index, last);
        if sink.send(reply.into_body()).is_err() {
            break true;
        }
        if last {
            break false;
        }
        index += 1;
        next = upcoming;
    };
    shared.unregister_stream(conn_id, request_id);
    if let Some(key) = replay_key {
        // A streamed reply never enters the reply cache whole — one 64 MiB
        // stream would evict everything else. A retry that lands after the
        // stream went out replays this always-safe-to-retry marker instead
        // and the caller re-invokes.
        let marker = ReplyBuilder::exception(
            protocol.as_ref(),
            request_id,
            ReplyStatus::Busy,
            STREAM_EXPIRED_REPO_ID,
            "streamed reply is not replayable; re-invoke",
        );
        let evicted = shared.replay.complete(key, &marker);
        if evicted > 0 {
            shared.metrics.add(Counter::ReplyCacheEvictions, evicted);
        }
    }
    if aborted {
        trace::emit_with(TraceLevel::Warn, "server", || {
            format!("stream {request_id} aborted: credit window stalled or connection lost")
        });
        // Best-effort: a live-but-stalled client gets a terminal
        // (unchunked) exception frame instead of hanging to its timeout.
        let _ = sink.send(ReplyBuilder::exception(
            protocol.as_ref(),
            request_id,
            ReplyStatus::SystemException,
            "IDL:heidl/StreamAborted:1.0",
            "stream aborted: credit window stalled",
        ));
    }
}

/// Completes an exactly-once invocation with `reply` when a token was
/// attached, mirroring the eviction accounting on the skeleton path.
fn complete_replay(shared: &ServerShared, key: Option<(u64, u64)>, reply: &[u8]) {
    if let Some(key) = key {
        let evicted = shared.replay.complete(key, reply);
        if evicted > 0 {
            shared.metrics.add(Counter::ReplyCacheEvictions, evicted);
        }
    }
}

/// Serves the built-in `_health` object: `ping` echoes liveness, `report`
/// marshals the [`ServerHealth`] snapshot as `bool accepting · ulonglong
/// in-flight · ulonglong connections · ulonglong shed-requests ·
/// ulonglong shed-connections`. Readable over telnet like any servant.
fn dispatch_health(
    incoming: &IncomingCall,
    shared: &ServerShared,
    protocol: &Arc<dyn heidl_wire::Protocol>,
) -> Vec<u8> {
    let mut reply = ReplyBuilder::ok(protocol.as_ref(), incoming.request_id);
    match incoming.method.as_str() {
        "ping" => reply.results().put_string("pong"),
        "report" => {
            let h = shared.snapshot();
            let enc = reply.results();
            enc.put_bool(h.accepting);
            enc.put_ulonglong(h.in_flight);
            enc.put_ulonglong(h.connections);
            enc.put_ulonglong(h.shed_requests);
            enc.put_ulonglong(h.shed_connections);
        }
        other => {
            return ReplyBuilder::exception(
                protocol.as_ref(),
                incoming.request_id,
                ReplyStatus::SystemException,
                "IDL:heidl/UnknownMethod:1.0",
                &RmiError::UnknownMethod {
                    type_id: HEALTH_TYPE_ID.to_owned(),
                    method: other.to_owned(),
                }
                .to_string(),
            );
        }
    }
    reply.into_body()
}

/// Serves the built-in `_metrics` object (`IDL:heidl/Metrics:1.0`):
///
/// * `snapshot` — machine-readable: every counter in [`Counter::ALL`]
///   order (`ulonglong` each; the order is append-only so old clients
///   keep decoding), then `ulong` server-op count followed per op by
///   `string name · ulonglong calls · failures · p50_ns · p99_ns`;
/// * `reset` — zeroes the registry, returns `bool` true;
/// * `dump` — human-readable: `ulong` row count then one `string` per
///   row of [`Metrics::dump_rows`]' table (counters, live gauges,
///   per-op latency buckets), designed to be read over a raw telnet
///   session on the text protocol.
fn dispatch_metrics(
    incoming: &IncomingCall,
    orb: &Orb,
    shared: &ServerShared,
    protocol: &Arc<dyn heidl_wire::Protocol>,
) -> Vec<u8> {
    let metrics = &shared.metrics;
    let mut reply = ReplyBuilder::ok(protocol.as_ref(), incoming.request_id);
    match incoming.method.as_str() {
        "snapshot" => {
            let snap = metrics.snapshot();
            let enc = reply.results();
            for c in Counter::ALL {
                enc.put_ulonglong(snap.counter(c));
            }
            enc.put_ulong(snap.server_ops.len() as u32);
            for (name, op) in &snap.server_ops {
                enc.put_string(name);
                enc.put_ulonglong(op.calls);
                enc.put_ulonglong(op.failures);
                enc.put_ulonglong(op.p50_ns);
                enc.put_ulonglong(op.p99_ns);
            }
        }
        "reset" => {
            metrics.reset();
            reply.results().put_bool(true);
        }
        "dump" => {
            // Gauges are sampled here, not stored in the registry: they
            // are live occupancy values, meaningless as counters.
            let health = shared.snapshot();
            let pool = orb.connections();
            let gauges = [
                ("in_flight", health.in_flight),
                ("connections", health.connections),
                ("pool_opened", pool.opened_count()),
                ("pool_pooled", pool.pooled_count() as u64),
                ("pool_pending", pool.pending_total() as u64),
                ("reply_cache_entries", shared.replay.len() as u64),
                ("reply_cache_bytes", shared.replay.bytes() as u64),
            ];
            let rows = metrics.dump_rows(&gauges);
            let enc = reply.results();
            enc.put_ulong(rows.len() as u32);
            for row in &rows {
                enc.put_string(row);
            }
        }
        other => {
            return ReplyBuilder::exception(
                protocol.as_ref(),
                incoming.request_id,
                ReplyStatus::SystemException,
                "IDL:heidl/UnknownMethod:1.0",
                &RmiError::UnknownMethod {
                    type_id: METRICS_TYPE_ID.to_owned(),
                    method: other.to_owned(),
                }
                .to_string(),
            );
        }
    }
    reply.into_body()
}

fn dispatch_request(
    incoming: &mut IncomingCall,
    orb: &Orb,
    shared: &ServerShared,
    protocol: &Arc<dyn heidl_wire::Protocol>,
) -> Vec<u8> {
    let request_id = incoming.request_id;
    // The well-known health and metrics objects are served by the runtime
    // itself, not the skeleton registry (so `skeleton_count()` stays the
    // number of application exports).
    if incoming.target.object_id == HEALTH_OBJECT_ID {
        return dispatch_health(incoming, shared, protocol);
    }
    if incoming.target.object_id == METRICS_OBJECT_ID {
        return dispatch_metrics(incoming, orb, shared, protocol);
    }
    let skeleton = {
        let objects = orb.inner.objects.read();
        objects.get(&incoming.target.object_id).cloned()
    };
    let Some(skeleton) = skeleton else {
        return ReplyBuilder::exception(
            protocol.as_ref(),
            request_id,
            ReplyStatus::SystemException,
            "IDL:heidl/UnknownObject:1.0",
            &RmiError::UnknownObject { reference: incoming.target.to_string() }.to_string(),
        );
    };

    orb.inner.interceptors.fire(
        crate::interceptor::CallPhase::ServerDispatch,
        &incoming.target,
        &incoming.method,
        true,
    );
    let mut reply = ReplyBuilder::ok(protocol.as_ref(), request_id);
    let started = Instant::now();
    let outcome = skeleton.dispatch(&incoming.method, incoming.args.as_mut(), reply.results());
    shared.metrics.record_server_dispatch(
        &incoming.method,
        started.elapsed().as_nanos() as u64,
        matches!(outcome, Ok(DispatchOutcome::Handled)),
    );
    orb.inner.interceptors.fire(
        crate::interceptor::CallPhase::ServerReply,
        &incoming.target,
        &incoming.method,
        matches!(outcome, Ok(DispatchOutcome::Handled)),
    );
    match outcome {
        Ok(DispatchOutcome::Handled) => reply.into_body(),
        Ok(DispatchOutcome::NotFound) => ReplyBuilder::exception(
            protocol.as_ref(),
            request_id,
            ReplyStatus::SystemException,
            "IDL:heidl/UnknownMethod:1.0",
            &RmiError::UnknownMethod {
                type_id: Skeleton::type_id(skeleton.as_ref()).to_owned(),
                method: incoming.method.clone(),
            }
            .to_string(),
        ),
        // A servant-raised exception carries its own repository id.
        Err(RmiError::Remote { repo_id, detail }) => ReplyBuilder::exception(
            protocol.as_ref(),
            request_id,
            ReplyStatus::UserException,
            &repo_id,
            &detail,
        ),
        Err(other) => ReplyBuilder::exception(
            protocol.as_ref(),
            request_id,
            ReplyStatus::SystemException,
            "IDL:heidl/DispatchFailed:1.0",
            &other.to_string(),
        ),
    }
}

// ---- reactor engine -----------------------------------------------------

/// The listener as a reactor source: each readiness event drains the
/// accept queue (nonblocking listener) and registers every admitted
/// connection as a [`ConnSource`]/[`ConnWriter`] pair on the same loop.
struct AcceptSource {
    listener: TcpListener,
    orb: Orb,
    workers: Arc<WorkerPool>,
    shared: Arc<ServerShared>,
    closed: Arc<AtomicBool>,
}

impl Drop for AcceptSource {
    fn drop(&mut self) {
        self.closed.store(true, Ordering::SeqCst);
    }
}

impl Source for AcceptSource {
    fn fd(&self) -> i32 {
        use std::os::fd::AsRawFd;
        self.listener.as_raw_fd()
    }

    fn on_ready(&mut self, _events: u32, reactor: &ReactorHandle) -> Action {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    register_reactor_conn(stream, &self.orb, &self.workers, &self.shared, reactor);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                // The aborted connection is gone; the next queue entry
                // may be fine.
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionAborted => continue,
                // Resource exhaustion (EMFILE/ENFILE/ENOMEM) and other
                // persistent failures must not kill the server — but
                // under level-triggered epoll the listener stays readable
                // while the queue entry we cannot accept is pending, so
                // breaking bare would spin the loop hot. A short sleep
                // bounds that: degraded, not burning a core.
                Err(e) => {
                    trace::emit_with(TraceLevel::Warn, "server", || format!("accept failed: {e}"));
                    std::thread::sleep(Duration::from_millis(10));
                    break;
                }
            }
        }
        Action::Keep
    }
}

/// Admission + registration for one reactor-accepted connection: the
/// readiness-loop counterpart of the tail of [`accept_loop`].
fn register_reactor_conn(
    stream: TcpStream,
    orb: &Orb,
    workers: &Arc<WorkerPool>,
    shared: &Arc<ServerShared>,
    reactor: &ReactorHandle,
) {
    // Connection admission: over the cap (or draining), close
    // immediately — cheaper than a registered source per rejected peer.
    if shared.connections.load(Ordering::SeqCst) >= shared.policy.max_connections
        || shared.draining.load(Ordering::SeqCst)
    {
        shared.shed_connection();
        drop(stream);
        return;
    }
    shared.connections.fetch_add(1, Ordering::SeqCst);
    let conn_guard = ConnGuard { shared: Arc::clone(shared) };
    let Ok(transport) = TcpTransport::from_stream(stream) else { return };
    // No socket timeouts here: MSG_DONTWAIT I/O never blocks on them, and
    // the sweep timer polices idle/stalled peers instead.
    let transport: Box<dyn Transport> = Box::new(transport);
    let Ok((write_half, read_half)) = transport.split() else { return };
    let token = reactor.alloc_id();
    let writer = Arc::new(ConnWriter {
        inner: Mutex::new(WriterInner {
            transport: write_half,
            queue: Vec::new(),
            pos: 0,
            queued_since: None,
            dead: false,
            accounted: 0,
        }),
        reactor: reactor.clone(),
        token,
        protocol: Arc::clone(orb.protocol()),
        metrics: Arc::clone(&shared.metrics),
        last_activity: Mutex::new(Instant::now()),
        budget: Arc::clone(&shared.reply_budget),
    });
    let sink: Arc<dyn ReplySink> = Arc::clone(&writer) as Arc<dyn ReplySink>;
    let conn_id = shared.next_conn_id.fetch_add(1, Ordering::SeqCst);
    shared.conns.lock().insert(conn_id, Arc::downgrade(&sink));
    let source = ConnSource {
        transport: read_half,
        buf: FrameBuf::new(),
        writer,
        sink,
        orb: orb.clone(),
        workers: Arc::clone(workers),
        shared: Arc::clone(shared),
        per_conn: Arc::new(AtomicUsize::new(0)),
        conn_id,
        _conn: conn_guard,
    };
    reactor.register(token, EPOLLIN | EPOLLRDHUP, Box::new(source));
}

/// What [`ConnWriter::flush`] left behind.
enum FlushState {
    /// Queue fully drained; `EPOLLOUT` can be disarmed.
    Idle,
    /// Kernel buffer filled again mid-queue; keep `EPOLLOUT` armed.
    Pending,
    /// The socket failed; tear the connection down.
    Dead,
}

/// State behind the [`ConnWriter`] lock: the write-half transport plus
/// the pending-bytes queue a partial write leaves behind.
struct WriterInner {
    transport: Box<dyn Transport>,
    /// Reply bytes accepted but not yet written (`pos..` is pending);
    /// non-empty exactly while `EPOLLOUT` is armed for this connection.
    queue: Vec<u8>,
    pos: usize,
    /// When the oldest still-queued byte last made progress — the input
    /// to the sweep timer's `write_timeout` stall check.
    queued_since: Option<Instant>,
    dead: bool,
    /// This writer's share currently counted in the global [`ReplyBudget`];
    /// [`WriterInner::settle`] reconciles it after every queue mutation.
    accounted: usize,
}

/// The reactor engine's reply writer: framing and accounting match
/// [`ReplyWriter`] byte-for-byte, but writes are `MSG_DONTWAIT` — when
/// the kernel buffer fills, the remainder queues here and the connection
/// arms `EPOLLOUT`; the loop continues the write when the peer catches
/// up, so a slow reader stalls *its own* replies, never a worker thread.
struct ConnWriter {
    inner: Mutex<WriterInner>,
    reactor: ReactorHandle,
    /// The connection's source token — `EPOLLOUT` (re)arms target it.
    token: u64,
    protocol: Arc<dyn heidl_wire::Protocol>,
    metrics: Arc<Metrics>,
    /// Last inbound activity, touched by the read source; the sweep
    /// timer's `read_idle_timeout` check reads it.
    last_activity: Mutex<Instant>,
    /// The server-wide reply-byte budget this writer settles its queue
    /// occupancy into.
    budget: Arc<ReplyBudget>,
}

impl ConnWriter {
    fn send_with_accounting(&self, body: Vec<u8>, metered: bool) -> RmiResult<()> {
        let len = body.len();
        let result = self.write_frame(&body);
        pool::recycle(body);
        match &result {
            Ok(()) if metered => self.metrics.add(Counter::BytesOut, len as u64),
            Ok(()) => {}
            Err(e) => trace::emit_with(TraceLevel::Warn, "server", || {
                format!("reply write failed; dropping connection: {e}")
            }),
        }
        result
    }

    /// Frames and writes one reply body. Runs on a worker thread: the
    /// frame goes straight to the socket when nothing is queued (the hot
    /// path touches the reactor not at all); otherwise — or when the
    /// kernel buffer fills mid-write — the remainder is queued and
    /// `EPOLLOUT` armed for continuation.
    fn write_frame(&self, body: &[u8]) -> RmiResult<()> {
        let mut header = [0u8; MAX_FRAME_HEADER];
        let arm = {
            let mut inner = self.inner.lock();
            let result = if let Some((header_len, trailer)) =
                self.protocol.frame_parts(body.len(), &mut header)
            {
                inner.write_parts(&[&header[..header_len], body, trailer])
            } else {
                let mut framed = pool::global().get();
                framed.reserve(body.len() + MAX_FRAME_HEADER);
                self.protocol.frame(body, &mut framed);
                inner.write_parts(&[&framed])
            };
            inner.settle(&self.budget);
            result?
        };
        if arm {
            // Queue transitioned (or stayed) non-empty: make sure the loop
            // watches for writability. Redundant re-arms are harmless —
            // the source itself disarms once the queue drains.
            self.reactor.rearm(self.token, EPOLLIN | EPOLLOUT | EPOLLRDHUP);
        }
        Ok(())
    }

    /// Continues the queued write (reactor thread, `EPOLLOUT`).
    fn flush(&self) -> FlushState {
        let mut inner = self.inner.lock();
        let state = inner.continue_write();
        inner.settle(&self.budget);
        state
    }

    /// Whether reply bytes are still queued (drives `EPOLLOUT` interest).
    fn has_backlog(&self) -> bool {
        let inner = self.inner.lock();
        inner.pos < inner.queue.len()
    }

    fn touch(&self) {
        *self.last_activity.lock() = Instant::now();
    }

    /// Marks the writer unusable and drops queued bytes: called when the
    /// read source goes away (peer EOF or reactor teardown) — nothing
    /// will ever flush the queue again, so later sends fail fast.
    fn mark_dead(&self) {
        let mut inner = self.inner.lock();
        inner.dead = true;
        inner.queue.clear();
        inner.pos = 0;
        inner.queued_since = None;
        inner.settle(&self.budget);
    }
}

impl WriterInner {
    /// Continues the pending write until drained, blocked, or dead — the
    /// body of [`ConnWriter::flush`], split out so the caller can settle
    /// the budget after it under the same lock hold.
    fn continue_write(&mut self) -> FlushState {
        if self.dead {
            return FlushState::Dead;
        }
        while self.pos < self.queue.len() {
            match self.transport.try_send(&self.queue[self.pos..]) {
                Ok(Some(n)) if n > 0 => {
                    self.pos += n;
                    self.queued_since = Some(Instant::now());
                }
                Ok(None) => return FlushState::Pending,
                Ok(Some(_)) | Err(_) => {
                    self.dead = true;
                    return FlushState::Dead;
                }
            }
        }
        self.queue.clear();
        self.pos = 0;
        self.queued_since = None;
        FlushState::Idle
    }

    /// Reconciles this writer's queued-byte count into the global budget.
    /// Called after every queue mutation, still under the writer lock.
    fn settle(&mut self, budget: &ReplyBudget) {
        let queued = self.queue.len() - self.pos;
        budget.adjust(self.accounted, queued);
        self.accounted = queued;
    }

    /// Writes `parts` in order: appended to the queue when one exists
    /// (strict FIFO — replies must hit the wire in acceptance order),
    /// otherwise written directly until done or `EWOULDBLOCK` stashes the
    /// remainder. Returns whether `EPOLLOUT` should be armed.
    fn write_parts(&mut self, parts: &[&[u8]]) -> RmiResult<bool> {
        if self.dead {
            return Err(RmiError::Disconnected);
        }
        if self.pos < self.queue.len() {
            for part in parts {
                self.queue.extend_from_slice(part);
            }
            return Ok(true);
        }
        self.queue.clear();
        self.pos = 0;
        // One gathered `sendmsg` per attempt: the framed reply reaches the
        // wire whole, so the client's readiness loop wakes once per reply
        // instead of once per part (header, body, ...).
        debug_assert!(parts.len() <= 3, "frame has at most header, body, trailer");
        let mut storage = [IoSlice::new(&[]); 3];
        for (slot, part) in storage.iter_mut().zip(parts) {
            *slot = IoSlice::new(part);
        }
        let mut bufs = &mut storage[..parts.len()];
        while bufs.iter().any(|b| !b.is_empty()) {
            match self.transport.try_send_vectored(bufs) {
                Ok(Some(n)) if n > 0 => IoSlice::advance_slices(&mut bufs, n),
                Ok(None) => {
                    // Kernel buffer full: stash everything unwritten.
                    for part in bufs.iter() {
                        self.queue.extend_from_slice(part);
                    }
                    self.queued_since = Some(Instant::now());
                    return Ok(true);
                }
                Ok(Some(_)) => {
                    self.dead = true;
                    return Err(RmiError::Disconnected);
                }
                Err(e) => {
                    self.dead = true;
                    return Err(RmiError::Io(e));
                }
            }
        }
        Ok(false)
    }
}

impl ReplySink for ConnWriter {
    fn send(&self, body: Vec<u8>) -> RmiResult<()> {
        self.send_with_accounting(body, true)
    }

    fn send_unmetered(&self, body: Vec<u8>) -> RmiResult<()> {
        self.send_with_accounting(body, false)
    }

    fn force_close(&self) {
        // SHUT_RDWR on the write half reaches the shared file
        // description, so the read half reports EOF to the loop and the
        // source drops naturally — no token bookkeeping here.
        let mut inner = self.inner.lock();
        inner.dead = true;
        inner.transport.shutdown();
    }

    fn stalled(&self, idle_after: Option<Duration>, write_stall: Option<Duration>) -> bool {
        if let (Some(stall), Some(since)) = (write_stall, self.inner.lock().queued_since) {
            if since.elapsed() >= stall {
                return true;
            }
        }
        match idle_after {
            Some(idle) => self.last_activity.lock().elapsed() >= idle,
            None => false,
        }
    }
}

/// One connection's read-side state machine on the reactor: deframes
/// everything a readiness event made available and feeds each frame to
/// [`route_frame`] — exactly what a `heidl-conn` thread does, minus the
/// thread.
struct ConnSource {
    transport: Box<dyn Transport>,
    buf: FrameBuf,
    writer: Arc<ConnWriter>,
    /// `writer`, pre-coerced once so routing does not re-coerce per frame.
    sink: Arc<dyn ReplySink>,
    orb: Orb,
    workers: Arc<WorkerPool>,
    shared: Arc<ServerShared>,
    per_conn: Arc<AtomicUsize>,
    conn_id: u64,
    _conn: ConnGuard,
}

impl Drop for ConnSource {
    fn drop(&mut self) {
        self.shared.conns.lock().remove(&self.conn_id);
        self.shared.close_conn_streams(self.conn_id);
        self.writer.mark_dead();
    }
}

impl Source for ConnSource {
    fn fd(&self) -> i32 {
        self.transport.raw_fd().unwrap_or(-1)
    }

    fn on_ready(&mut self, events: u32, _reactor: &ReactorHandle) -> Action {
        if events & EPOLLERR != 0 {
            return Action::Drop;
        }
        let mut out_pending = false;
        if events & EPOLLOUT != 0 {
            match self.writer.flush() {
                FlushState::Dead => return Action::Drop,
                FlushState::Pending => out_pending = true,
                FlushState::Idle => {}
            }
        }
        if events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0 {
            self.writer.touch();
            let mut drained = false;
            loop {
                // Drain every complete frame already buffered...
                loop {
                    match self
                        .orb
                        .protocol()
                        .deframe_pooled(&mut self.buf, &self.shared.policy.decode_limits)
                    {
                        Ok(Some(body)) => {
                            self.buf.maybe_shrink();
                            if !route_frame(
                                body,
                                &self.orb,
                                &self.workers,
                                &self.shared,
                                &self.per_conn,
                                &self.sink,
                                self.conn_id,
                            ) {
                                return Action::Drop;
                            }
                        }
                        Ok(None) => break,
                        Err(_) => return Action::Drop,
                    }
                }
                if drained {
                    break;
                }
                // ...then pull more until the socket runs dry. A read
                // shorter than `RECV_CHUNK` emptied the kernel buffer:
                // deframe what it returned, then stop without paying the
                // `EWOULDBLOCK` confirmation syscall (level-triggered
                // epoll re-reports the fd if more bytes race in).
                match self.transport.try_recv_into(self.buf.input()) {
                    Ok(Some(0)) => return Action::Drop,
                    Ok(Some(n)) => drained = n < RECV_CHUNK,
                    Ok(None) => break,
                    Err(_) => return Action::Drop,
                }
            }
        }
        // Interest management: `EPOLLOUT` stays armed only while replies
        // are queued. The hot path (readable-only event, no backlog)
        // keeps the registration untouched — zero `epoll_ctl` per
        // request. Any event involving `EPOLLOUT` re-MODs explicitly:
        // worker-side arms race this decision, and an explicit MOD can
        // never leave a drained connection busy-looping on writability.
        let want_out = out_pending || self.writer.has_backlog();
        if events & EPOLLOUT != 0 || want_out {
            let interest =
                if want_out { EPOLLIN | EPOLLOUT | EPOLLRDHUP } else { EPOLLIN | EPOLLRDHUP };
            Action::Rearm(interest)
        } else {
            Action::Keep
        }
    }
}
