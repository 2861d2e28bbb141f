//! The bootstrap-port server: Fig 5's interaction, one reader per
//! connection that runs a lone request itself, plus a small shared
//! worker pool for the rest.
//!
//! *"The bootstrap port in each address space serves as means to initiate a
//! communication channel. When a client connects to the bootstrap port (1),
//! a new `ObjectCommunicator` is wrapped around the resulting connection.
//! ... The `ObjectCommunicator` reads in an incoming request (2) and
//! encapsulates it in a `Call` object. The `Call` header contains the
//! stringified object reference, whose type information and object
//! identifier permit the selection of the appropriate `Skeleton`."*
//!
//! One connection carries many interleaved requests, replied to in
//! completion order (the client demultiplexes by id). Oneways run inline
//! on the reader, in receipt order. A two-way that arrives alone is *lent
//! the reader* on the threaded driver: it runs on the thread that read it;
//! other two-ways go to the worker pool. A slow servant cannot
//! head-of-line-block the connection: the overrun watcher ([`Lender`])
//! has the pool drain a reader lent for longer than a tick.
//!
//! The same path serves a [`Router`](crate::Router): a server's route
//! ([`Route`]) is what its execute step does with an admitted application
//! request — dispatch it to a skeleton, or forward it to a backend.
//!
//! Every stage applies the ORB's `ServerPolicy`: connections beyond
//! `max_connections` are refused at `accept`, requests beyond the global or
//! per-connection in-flight caps (or beyond the worker pool's overflow
//! budget, or arriving during a drain) are shed with a `Busy` reply before
//! any servant runs, and everything the server reads is deframed and
//! decoded under the policy's `DecodeLimits`. The built-in `_health`
//! object (well-known id `0`) reports the resulting counters.
//!
//! ## One connection state machine, two drivers
//!
//! Every accepted socket goes through one admission function ([`admit`])
//! and becomes one [`Connection`]: the `ObjectCommunicator` around its
//! read half, its reply sink, and the routing context, torn down by its
//! `Drop`. Each frame the communicator deframes goes down the one
//! [`route_frame`] path. What [`TransportMode`](crate::TransportMode)
//! (`HEIDL_TRANSPORT` or `OrbBuilder::transport_mode`) selects is only who
//! drives it:
//!
//! * **threaded**: a blocking accept loop, and per connection a
//!   `heidl-conn` thread blocked in `recv`; a lone two-way runs on that
//!   thread (see [`Lender`]);
//! * **reactor**: one `heidl-reactor-{port}` epoll loop owns the listener
//!   and every connection, calling `try_recv` on readiness
//!   ([`ConnSource`]), so ten thousand idle connections cost zero threads
//!   instead of ten thousand. It is never lent: its loop serves every
//!   connection.
//!
//! Both write replies through one [`ReplyWriter`]; they differ only in
//! who finishes a frame the socket did not take whole (the writing thread
//! on the threaded driver, the loop on `EPOLLOUT` on the reactor).
//! Policy enforcement and wire bytes are the same either way; only the
//! thread economics differ. Fd-less transports (a `HEIDL_FAULT_PLAN` run)
//! always take the blocking driver, and are never lent.

use crate::call::{peek_reply_id, peek_route, IncomingCall, ReplyBuilder, ReplyStatus};
use crate::communicator::{with_frame, ObjectCommunicator};
use crate::error::{RmiError, RmiResult};
use crate::metrics::{Counter, Metrics};
use crate::objref::Endpoint;
use crate::orb::Orb;
use crate::policy::{ServerHealth, ServerPolicy};
use crate::reactor::{
    self, Action, ReactorHandle, Source, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};
use crate::replay::{ReplayCache, ReplayDecision};
use crate::router::{forward_one, BackendConns, RouterShared};
use crate::skeleton::{DispatchOutcome, Skeleton};
use crate::stream::{
    StreamServant, StreamWindow, TokenBucket, STREAM_ACK_OBJECT_ID, STREAM_EXPIRED_REPO_ID,
};
use crate::trace::{self, CallContext, ContextGuard, TraceLevel};
use crate::transport::{TcpTransport, Transport};
use heidl_wire::{pool, DecodeLimits, PooledBuf, Protocol};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::IoSlice;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

/// Resident dispatch threads per server; requests beyond this run on
/// transient overflow threads (bounded by the policy) so a dispatch that
/// itself blocks (e.g. on a nested remote call) can never starve the pool.
const WORKER_THREADS: usize = 4;

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

/// What the execute step does with an admitted application request.
pub(crate) enum Route {
    /// Fig 5 (3)-(4): dispatch to the exported skeleton ([`Orb::serve`]).
    Dispatch,
    /// Forward to a backend ([`Router`](crate::Router)).
    Forward(Arc<RouterShared>),
}

/// Counters and policy shared by the accept loop, every connection
/// reader, every dispatch, and the drain path.
pub(crate) struct ServerShared {
    policy: ServerPolicy,
    route: Route,
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
    /// Live connections' writers, for force-close at drain timeout and
    /// the reactor's idle/stall sweep.
    conns: Mutex<HashMap<u64, Weak<ReplyWriter>>>,
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
    /// Lent readers and their overrun watcher (threaded driver only).
    lender: Lender,
}

impl ServerShared {
    fn new(policy: ServerPolicy, metrics: Arc<Metrics>, route: Route) -> ServerShared {
        let replay = ReplayCache::new(policy.reply_cache_ttl, policy.reply_cache_max_bytes);
        let stream_bucket = policy.stream_rate_bytes_per_sec.map(TokenBucket::new);
        let reply_budget = Arc::new(ReplyBudget::new(policy.max_reply_queue_bytes_global));
        ServerShared {
            policy,
            route,
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
            lender: Lender::default(),
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
        // The global reply-queue byte budget. One connection's unwritten
        // replies are bounded only by its in-flight caps times the reply
        // size, plus its stream windows, so *many* slow readers could
        // collectively grow RSS; once the sum of unwritten reply bytes
        // (queued on the reactor, blocked in a write on the threaded
        // driver) crosses the policy line, new work is shed until
        // writers drain.
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
/// any socket. Each [`ReplyWriter`] settles its unwritten byte count here
/// after every write, and [`ServerShared::try_admit`] sheds new work
/// with `Busy` while the total exceeds the policy budget — the backstop
/// the per-connection in-flight caps cannot provide when *many*
/// connections are slow at once.
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

/// The watcher's period: what waits behind an overrunning lend is drained
/// within two ticks, under the heartbeat's 5 ms tick (DESIGN.md 18).
const LEND_TICK: Duration = Duration::from_millis(1);

/// Lending, server-wide. A lent reader keeps its lend's number in its
/// connection's `lent` slot until its reply is written. Each [`LEND_TICK`]
/// the watcher (`heidl-lend-{port}`) has the pool [`rescue`] readers lent
/// since before the last tick, and parks after a tick without lends.
#[derive(Default)]
struct Lender {
    /// Set while the watcher runs; readers lend only then.
    watching: AtomicBool,
    /// Lends started so far; each lend is numbered by this count.
    started: AtomicU64,
    thread: OnceLock<Thread>,
    /// Readers that can be lent: threaded connections with a raw fd.
    readers: Mutex<Vec<Weak<Connection>>>,
}

impl Lender {
    /// Registers `conn`'s reader if a rescue can drain it without
    /// blocking (it has a raw fd); dead ones are pruned as the list grows.
    fn register(&self, conn: &Arc<Connection>) -> bool {
        if conn.comm.lock().raw_fd().is_none() {
            return false;
        }
        let mut readers = self.readers.lock();
        if readers.len() == readers.capacity() {
            readers.retain(|reader| reader.strong_count() > 0);
        }
        readers.push(Arc::downgrade(conn));
        true
    }

    /// Starts a lend in `slot` if a watcher bounds it; the caller zeroes it.
    fn lend(&self, slot: &AtomicU64) -> bool {
        if !self.watching.load(Ordering::Relaxed) {
            return false;
        }
        slot.store(self.started.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
        // Wakes a parked watcher; an awake one only keeps a spare token.
        if let Some(watcher) = self.thread.get() {
            watcher.unpark();
        }
        true
    }

    /// One tick: a drain for each reader lent before `before` lends had
    /// started (retried next tick if refused). Returns whether any is lent.
    fn sweep(&self, workers: &WorkerPool, before: u64) -> bool {
        let mut any = false;
        self.readers.lock().retain(|reader| {
            let Some(conn) = reader.upgrade() else { return false };
            let lend = conn.lent.load(Ordering::SeqCst);
            any |= lend != 0;
            if lend != 0 && lend <= before {
                let _ = workers.submit(Box::new(move || rescue(&conn, lend)));
            }
            true
        });
        any
    }
}

/// The overrun watcher's loop, until the server stops watching.
fn watch(shared: Arc<ServerShared>, workers: Arc<WorkerPool>) {
    let lender = &shared.lender;
    let _ = lender.thread.set(std::thread::current());
    let mut before = lender.started.load(Ordering::SeqCst);
    while lender.watching.load(Ordering::SeqCst) {
        std::thread::sleep(LEND_TICK);
        let now = lender.started.load(Ordering::SeqCst);
        // A lend after `now` was read leaves an unpark token: no lost wake.
        if !lender.sweep(&workers, before) && now == before {
            std::thread::park();
        }
        before = now;
    }
}

/// A rescue drain, on the pool: while the reader is lent to `lend`, routes
/// what is readable without blocking as a reader would, lending nothing.
fn rescue(conn: &Connection, lend: u64) {
    // An unlent reader holds the communicator: once locked, no new lend.
    let Some(mut comm) = conn.comm.try_lock() else { return };
    if conn.lent.load(Ordering::SeqCst) != lend {
        return;
    }
    while let Some(got) = comm.try_recv() {
        if !got.ok().flatten().is_some_and(|body| route_frame(conn, body, false)) {
            conn.hung_up.store(true, Ordering::SeqCst);
            return;
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

/// Which driver is serving the sockets (see the module docs).
enum Engine {
    Threaded {
        running: Arc<AtomicBool>,
        acceptor: Option<JoinHandle<()>>,
        watcher: Option<JoinHandle<()>>,
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
    /// Binds `addr` and starts serving under the ORB's `ServerPolicy`,
    /// driven as its `TransportMode` selects, executing requests by
    /// `route`. The reactor needs raw socket fds, so a `HEIDL_FAULT_PLAN`
    /// run (every accepted transport wrapped in a fd-less fault injector)
    /// takes the blocking driver.
    pub(crate) fn start(addr: &str, orb: Orb, route: Route) -> RmiResult<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let endpoint = Endpoint::new(orb.protocol().name(), local.ip().to_string(), local.port());
        let policy = orb.server_policy().clone();
        let workers = Arc::new(WorkerPool::new(WORKER_THREADS, policy.max_overflow_threads));
        let shared = Arc::new(ServerShared::new(policy, Arc::clone(orb.metrics()), route));
        let engine = if orb.transport_mode().reactor_enabled()
            && crate::fault::FaultPlan::from_env().is_none()
        {
            start_reactor(listener, orb, workers, &shared)?
        } else {
            shared.lender.watching.store(true, Ordering::SeqCst);
            let (watch_shared, watch_workers) = (Arc::clone(&shared), Arc::clone(&workers));
            let watcher = std::thread::Builder::new()
                .name(format!("heidl-lend-{}", local.port()))
                .spawn(move || watch(watch_shared, watch_workers))
                .map_err(RmiError::Io)?;
            let running = Arc::new(AtomicBool::new(true));
            let flag = Arc::clone(&running);
            let loop_shared = Arc::clone(&shared);
            let acceptor = std::thread::Builder::new()
                .name(format!("heidl-accept-{}", local.port()))
                .spawn(move || accept_loop(listener, orb, flag, workers, loop_shared))
                .map_err(RmiError::Io)?;
            Engine::Threaded { running, acceptor: Some(acceptor), watcher: Some(watcher) }
        };
        Ok(ServerHandle { endpoint, local, engine, shared })
    }

    pub(crate) fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    pub(crate) fn health(&self) -> ServerHealth {
        self.shared.snapshot()
    }

    /// Stops the accept loop immediately; in-flight dispatches race the
    /// process teardown (the historical `shutdown()` semantics).
    /// Established connections keep being served by either driver until
    /// their peers disconnect.
    pub(crate) fn stop(mut self) {
        self.halt_accepting();
        self.stop_watching();
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
        // Watched until now, so requests behind a lent reader were shed.
        self.stop_watching();
        drained
    }

    /// Stops and joins the overrun watcher; nothing is lent after.
    fn stop_watching(&mut self) {
        self.shared.lender.watching.store(false, Ordering::SeqCst);
        if let Engine::Threaded { watcher, .. } = &mut self.engine {
            if let Some(watcher) = watcher.take() {
                watcher.thread().unpark();
                let _ = watcher.join();
            }
        }
    }

    fn halt_accepting(&mut self) {
        match &mut self.engine {
            Engine::Threaded { running, acceptor, .. } => {
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
                // blocking driver gets from joining its accept thread.
                let deadline = Instant::now() + Duration::from_secs(1);
                while !accept_closed.load(Ordering::SeqCst) && Instant::now() < deadline {
                    if !reactor.is_live() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                // Exit once the last connection's source is gone — the
                // reactor-thread analogue of `heidl-conn` threads
                // outliving the acceptor.
                reactor.retire();
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

type Job = Box<dyn FnOnce() + Send>;

/// A small fixed pool of dispatch threads with *bounded* overflow: when
/// every resident worker is occupied, the job runs on a transient thread
/// instead of queueing behind a potentially blocked dispatch — but only
/// up to the policy's overflow budget. Past that, `submit` refuses and
/// the caller sheds the request with `Busy` instead of letting a slow
/// servant grow one thread per queued request without bound. A router's
/// forwards run on it too (a forward blocks on its backend exactly as a
/// dispatch may block on a nested call).
struct WorkerPool {
    tx: crossbeam::channel::Sender<Job>,
    busy: Arc<AtomicUsize>,
    workers: usize,
    overflow: Arc<AtomicUsize>,
    max_overflow: usize,
}

impl WorkerPool {
    fn new(workers: usize, max_overflow: usize) -> WorkerPool {
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
    fn submit(&self, job: Job) -> bool {
        // `busy` counts submitted-but-unfinished pool jobs. The increment
        // itself claims a resident slot, so racing submitters cannot both
        // take the last one: a job never queues behind `workers` blocked ones.
        if self.busy.fetch_add(1, Ordering::SeqCst) < self.workers {
            if self.tx.send(job).is_ok() {
                return true;
            }
            self.busy.fetch_sub(1, Ordering::SeqCst);
            return false;
        }
        self.busy.fetch_sub(1, Ordering::SeqCst);
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
        let prepare = |transport: TcpTransport| -> Box<dyn Transport> {
            // Slow-client protection: an idle reader or a blocked reply
            // write times out at the socket, tearing the connection down.
            let _ = transport
                .set_timeouts(shared.policy.read_idle_timeout, shared.policy.write_timeout);
            let transport: Box<dyn Transport> = Box::new(transport);
            match &fault_plan {
                Some(plan) => {
                    let label = transport.peer();
                    Box::new(crate::fault::FaultInjector::wrap(transport, Arc::clone(plan), label))
                }
                None => transport,
            }
        };
        let Some(conn) = admit(stream, &orb, &workers, &shared, prepare, None) else {
            continue;
        };
        let conn = Arc::new(conn);
        let lendable = shared.lender.register(&conn);
        // The blocking driver: a reader thread that routes until the peer
        // closes, a read fails, or a reply write does. A frame with nothing
        // buffered behind it may be lent, so the communicator is released
        // while it routes.
        let _ = std::thread::Builder::new().name("heidl-conn".to_owned()).spawn(move || {
            let mut comm = conn.comm.lock();
            while let Ok(Some(body)) = comm.recv() {
                let lend = lendable && !comm.has_buffered();
                drop(comm);
                let routed = route_frame(&conn, body, lend);
                comm = conn.comm.lock();
                if !routed || conn.hung_up.load(Ordering::SeqCst) {
                    break;
                }
            }
        });
    }
}

/// Admission for one accepted socket, whichever driver will serve it:
/// past the connection cap (or while draining) the socket is closed at
/// once — cheaper than a reader per rejected peer — and counted;
/// otherwise it takes a connection slot, `prepare` readies the transport,
/// the write half becomes the connection's [`ReplyWriter`] (continued by
/// `arm`, see there), and the writer is registered for drain and sweep.
/// Fig 5 (1): the read half is wrapped in a new `ObjectCommunicator`.
fn admit(
    stream: TcpStream,
    orb: &Orb,
    workers: &Arc<WorkerPool>,
    shared: &Arc<ServerShared>,
    prepare: impl FnOnce(TcpTransport) -> Box<dyn Transport>,
    arm: Option<Box<dyn Fn() + Send + Sync>>,
) -> Option<Connection> {
    if shared.connections.load(Ordering::SeqCst) >= shared.policy.max_connections
        || shared.draining.load(Ordering::SeqCst)
    {
        shared.shed_connection();
        return None;
    }
    shared.connections.fetch_add(1, Ordering::SeqCst);
    let slot = ConnGuard { shared: Arc::clone(shared) };
    let transport = prepare(TcpTransport::from_stream(stream).ok()?);
    let (write_half, read_half) = transport.split().ok()?;
    let protocol = Arc::clone(orb.protocol());
    let sink = Arc::new(ReplyWriter::new(write_half, Arc::clone(&protocol), shared, arm));
    let conn_id = shared.next_conn_id.fetch_add(1, Ordering::SeqCst);
    shared.conns.lock().insert(conn_id, Arc::downgrade(&sink));
    let comm = ObjectCommunicator::with_limits(read_half, protocol, shared.policy.decode_limits);
    Some(Connection {
        comm: Mutex::new(comm),
        sink,
        orb: orb.clone(),
        workers: Arc::clone(workers),
        shared: Arc::clone(shared),
        per_conn: Arc::new(AtomicUsize::new(0)),
        backends: Arc::default(),
        conn_id,
        lent: AtomicU64::new(0),
        hung_up: AtomicBool::new(false),
        _slot: slot,
    })
}

/// A connection's one reply writer, shared by every dispatch that
/// answers on it, the drain and the sweep, whichever driver serves it.
/// Every reply takes one path: under one lock, one gathered nonblocking
/// write from a stack array of slices; on failure the death rule; then
/// one settle into the [`ReplyBudget`]. The drivers differ only in what
/// happens to the part of a frame the socket did not take:
///
/// * **reactor** (`arm` set): it queues here, and `arm` re-arms
///   `EPOLLOUT` so the loop continues it ([`ReplyWriter::flush`]) — a
///   slow reader stalls its own replies, never a worker thread;
/// * **threaded** (`arm` is `None`): the writing thread finishes it with
///   a blocking write that `SO_SNDTIMEO` bounds, its bytes counted in the
///   budget while it blocks. Nothing is copied and nothing queues.
///
/// A transport with no nonblocking write (an in-process pipe, a fault
/// injector) takes the blocking continuation for the whole frame, so one
/// frame is still one `send` through an injector.
struct ReplyWriter {
    inner: Mutex<WriterInner>,
    /// The reactor's `EPOLLOUT` re-arm; `None` on the threaded driver.
    arm: Option<Box<dyn Fn() + Send + Sync>>,
    protocol: Arc<dyn Protocol>,
    metrics: Arc<Metrics>,
    /// The server-wide reply-byte budget this writer settles into.
    budget: Arc<ReplyBudget>,
    /// Last inbound activity, touched by the reactor's read source; the
    /// sweep timer's `read_idle_timeout` check reads it.
    last_activity: Mutex<Instant>,
}

/// What [`ReplyWriter::flush`] left behind.
enum FlushState {
    /// Queue fully drained; `EPOLLOUT` can be disarmed.
    Idle,
    /// Kernel buffer filled again mid-queue; keep `EPOLLOUT` armed.
    Pending,
    /// The socket failed; tear the connection down.
    Dead,
}

/// State behind the [`ReplyWriter`] lock: the write-half transport plus
/// the queue a partial write leaves behind on the reactor.
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
    /// This writer's share currently counted in the global [`ReplyBudget`].
    accounted: usize,
}

impl ReplyWriter {
    fn new(
        transport: Box<dyn Transport>,
        protocol: Arc<dyn Protocol>,
        shared: &ServerShared,
        arm: Option<Box<dyn Fn() + Send + Sync>>,
    ) -> ReplyWriter {
        let inner = WriterInner {
            transport,
            queue: Vec::new(),
            pos: 0,
            queued_since: None,
            dead: false,
            accounted: 0,
        };
        ReplyWriter {
            inner: Mutex::new(inner),
            arm,
            protocol,
            metrics: Arc::clone(&shared.metrics),
            budget: Arc::clone(&shared.reply_budget),
            last_activity: Mutex::new(Instant::now()),
        }
    }

    /// Writes one framed reply, recycling the (pooled) body storage once
    /// the bytes are on the wire (or queued for it).
    fn send(&self, body: Vec<u8>) -> RmiResult<()> {
        let result = self.write(&[&body], true);
        pool::recycle(body);
        result
    }

    /// As [`Self::send`] but without touching the byte counters: replies
    /// to the built-in `_health`/`_metrics` objects — including heartbeat
    /// pings — are runtime chatter, not application traffic, and must not
    /// skew `_metrics` byte totals.
    fn send_unmetered(&self, body: Vec<u8>) -> RmiResult<()> {
        let result = self.write(&[&body], false);
        pool::recycle(body);
        result
    }

    /// Writes one framed reply whose body is `envelope` with `payload`
    /// spliced in at byte `at` — `envelope[..at] · payload ·
    /// envelope[at..]` — as one gathered write: the payload goes to the
    /// socket from the buffer its producer filled, never through an
    /// encoder. The envelope's storage is recycled as in [`Self::send`].
    fn send_spliced(&self, envelope: Vec<u8>, at: usize, payload: Vec<u8>) -> RmiResult<()> {
        let (head, tail) = envelope.split_at(at);
        let result = self.write(&[head, &payload, tail], true);
        pool::recycle(envelope);
        result
    }

    /// Frames and writes one reply whose body is `body` (up to three
    /// parts, concatenated), counting its body bytes when `metered`. It
    /// owns the death rule: a failed write may have left part of a frame
    /// on the wire, after which nothing framed can follow, so the writer
    /// refuses further writes and shuts the socket down (the reader then
    /// sees EOF) before its lock is released.
    fn write(&self, body: &[&[u8]], metered: bool) -> RmiResult<()> {
        let mut inner = self.inner.lock();
        let queue = self.arm.is_some();
        let result = with_frame(self.protocol.as_ref(), body, |frame| {
            inner.write_parts(frame, queue, &self.budget)
        });
        if result.is_err() {
            inner.kill();
            inner.transport.shutdown();
        }
        inner.settle(&self.budget);
        drop(inner);
        match result {
            Ok(queued) => {
                if metered {
                    let len = body.iter().map(|part| part.len() as u64).sum();
                    self.metrics.add(Counter::BytesOut, len);
                }
                if let (true, Some(arm)) = (queued, &self.arm) {
                    // Redundant re-arms are harmless: the source itself
                    // disarms once the queue drains.
                    arm();
                }
                Ok(())
            }
            Err(e) => {
                trace::emit_with(TraceLevel::Warn, "server", || {
                    format!("reply write failed; dropping connection: {e}")
                });
                Err(e)
            }
        }
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

    /// Tears the connection down: shuts the socket down so the read side
    /// (blocked thread or reactor source) observes EOF and cleans up.
    fn force_close(&self) {
        let mut inner = self.inner.lock();
        inner.kill();
        // SHUT_RDWR on the write half reaches the shared file description.
        inner.transport.shutdown();
        inner.settle(&self.budget);
    }

    /// Marks the writer unusable and drops queued bytes: called when the
    /// reactor's read source goes away (peer EOF or reactor teardown) —
    /// nothing will ever flush the queue again, so later sends fail fast.
    fn mark_dead(&self) {
        let mut inner = self.inner.lock();
        inner.kill();
        inner.settle(&self.budget);
    }

    /// Why the connection should be closed, if it has gone idle past
    /// `idle_after` or has had reply bytes queued without progress past
    /// `write_stall`. Only the reactor's sweep asks (see
    /// `start_reactor`); only the reactor queues.
    fn stalled(
        &self,
        idle_after: Option<Duration>,
        write_stall: Option<Duration>,
    ) -> Option<&'static str> {
        if let (Some(stall), Some(since)) = (write_stall, self.inner.lock().queued_since) {
            if since.elapsed() >= stall {
                return Some("reply write stalled past write_timeout");
            }
        }
        let idle = idle_after.is_some_and(|idle| self.last_activity.lock().elapsed() >= idle);
        idle.then_some("idle past read_idle_timeout")
    }
}

impl WriterInner {
    /// Writes one frame's `parts` in order: appended to the queue when one
    /// exists (strict FIFO — replies hit the wire in acceptance order),
    /// otherwise one gathered nonblocking write, whose remainder is queued
    /// when `queue` is set (returns `true`: arm `EPOLLOUT`) and otherwise
    /// finished here by a blocking write, counted in `budget` meanwhile.
    fn write_parts(
        &mut self,
        parts: &[&[u8]],
        queue: bool,
        budget: &ReplyBudget,
    ) -> RmiResult<bool> {
        if self.dead {
            return Err(RmiError::Disconnected);
        }
        if self.pos < self.queue.len() {
            for part in parts {
                self.queue.extend_from_slice(part);
            }
            return Ok(true);
        }
        // One gathered `sendmsg` per attempt: the framed reply reaches the
        // wire whole, so the client wakes once per reply instead of once
        // per part (header, body, ...).
        debug_assert!(parts.len() <= 5, "frame has at most header, three body parts, trailer");
        let mut storage = [IoSlice::new(&[]); 5];
        for (slot, part) in storage.iter_mut().zip(parts) {
            *slot = IoSlice::new(part);
        }
        let mut bufs = &mut storage[..parts.len()];
        IoSlice::advance_slices(&mut bufs, 0);
        while !bufs.is_empty() {
            match self.transport.try_send_vectored(bufs) {
                Ok(Some(n)) if n > 0 => IoSlice::advance_slices(&mut bufs, n),
                // Socket buffer full, or no nonblocking write at all.
                Ok(None) => break,
                Err(e) if e.kind() == std::io::ErrorKind::Unsupported => break,
                Ok(Some(_)) => return Err(RmiError::Disconnected),
                Err(e) => return Err(RmiError::Io(e)),
            }
        }
        if bufs.is_empty() {
            return Ok(false);
        }
        if queue {
            for part in bufs.iter() {
                self.queue.extend_from_slice(part);
            }
            self.queued_since = Some(Instant::now());
            return Ok(true);
        }
        let mut rest: [&[u8]; 5] = [&[]; 5];
        for (slot, part) in rest.iter_mut().zip(bufs.iter()) {
            *slot = part;
        }
        self.account(budget, rest.iter().map(|part| part.len()).sum());
        self.transport.send_vectored(&rest[..bufs.len()])?;
        Ok(false)
    }

    /// Continues the pending write until drained, blocked, or dead — the
    /// body of [`ReplyWriter::flush`], split out so the caller can settle
    /// the budget after it under the same lock hold.
    fn continue_write(&mut self) -> FlushState {
        if self.dead {
            return FlushState::Dead;
        }
        while self.pos < self.queue.len() {
            match self.transport.try_send_vectored(&[IoSlice::new(&self.queue[self.pos..])]) {
                Ok(Some(n)) if n > 0 => {
                    self.pos += n;
                    self.queued_since = Some(Instant::now());
                }
                Ok(None) => return FlushState::Pending,
                Ok(Some(_)) | Err(_) => {
                    self.kill();
                    return FlushState::Dead;
                }
            }
        }
        self.queue.clear();
        self.pos = 0;
        self.queued_since = None;
        FlushState::Idle
    }

    /// Refuses every later write and drops whatever is queued.
    fn kill(&mut self) {
        self.dead = true;
        self.queue.clear();
        self.pos = 0;
        self.queued_since = None;
    }

    /// Moves this writer's share of the global budget to `bytes`.
    fn account(&mut self, budget: &ReplyBudget, bytes: usize) {
        budget.adjust(self.accounted, bytes);
        self.accounted = bytes;
    }

    /// Reconciles the budget with the queue; called after every write,
    /// flush or teardown, still under the writer lock.
    fn settle(&mut self, budget: &ReplyBudget) {
        self.account(budget, self.queue.len() - self.pos);
    }
}

/// One admitted connection, whichever driver reads it: the communicator
/// around its read half, its reply writer, and what routing needs. Its drop
/// is the connection's teardown.
struct Connection {
    /// Held by whoever reads: the driver, or a rescue while it is lent.
    comm: Mutex<ObjectCommunicator>,
    sink: Arc<ReplyWriter>,
    orb: Orb,
    workers: Arc<WorkerPool>,
    shared: Arc<ServerShared>,
    /// This connection's share of the in-flight budget.
    per_conn: Arc<AtomicUsize>,
    /// The forward route's backend connections (unused by `Dispatch`).
    backends: Arc<BackendConns>,
    conn_id: u64,
    /// The lend the reader is serving, 0 when it is not lent.
    lent: AtomicU64,
    /// Set by a rescue that saw the connection end: the reader then stops.
    hung_up: AtomicBool,
    _slot: ConnGuard,
}

impl Drop for Connection {
    fn drop(&mut self) {
        self.shared.conns.lock().remove(&self.conn_id);
        // Streams pumping toward this connection can never be acked again;
        // fail them fast instead of letting each wait out the credit timeout.
        self.shared.close_conn_streams(self.conn_id);
    }
}

/// Routes one deframed request — the single path both drivers feed,
/// once per frame; returns `false` when the reply sink failed and the
/// connection should be torn down. With `lend`, an admitted plain
/// two-way runs on the caller's thread instead of the pool.
fn route_frame(conn: &Connection, body: PooledBuf, lend: bool) -> bool {
    let (orb, shared, sink, conn_id) = (&conn.orb, &conn.shared, &conn.sink, conn.conn_id);
    let backends = &conn.backends;
    let protocol = orb.protocol();
    let limits = &shared.policy.decode_limits;
    let body_len = body.len() as u64;
    // One borrowed decode pass yields everything routing needs: the
    // id, the reply-expected flag, and the target object id.
    let route = peek_route(&body, protocol.as_ref(), limits);
    let reserved = route.as_ref().ok().and_then(|&(_, _, object_id)| Reserved::of(object_id?));
    match (route, reserved) {
        // The reserved objects are the runtime's own: inline on the
        // reader, unmetered, past admission (see [`Reserved`]).
        (Ok(_), Some(Reserved::StreamAck)) => {
            handle_stream_ack(body.into(), orb, shared, conn_id);
        }
        (Ok((request_id, _, _)), Some(_)) => {
            if let Some(reply) = answer_builtin(body.into(), request_id, orb, shared) {
                if sink.send_unmetered(reply).is_err() {
                    return false;
                }
            }
        }
        // oneway: dispatch inline so a client's oneway-then-call
        // sequence executes in order; there is no reply to write, so
        // an overload shed is silent (but counted).
        (Ok((request_id, false, _)), None) => {
            shared.metrics.add(Counter::BytesIn, body_len);
            match shared.try_admit(&conn.per_conn) {
                Ok(_guard) => drop(execute(body.into(), request_id, false, orb, shared, backends)),
                Err(_) => shared.shed_request(),
            }
        }
        (Ok((request_id, true, object_id)), None) => {
            shared.metrics.add(Counter::BytesIn, body_len);
            match shared.try_admit(&conn.per_conn) {
                Ok(guard) => {
                    // A stream servant dispatches on the pump path (same pool
                    // and in-flight guard, chunked replies), never lent: its
                    // reader must stay free to read the credit acks.
                    let streamer = object_id.and_then(|id| orb.stream_servant(id));
                    if lend && streamer.is_none() && shared.lender.lend(&conn.lent) {
                        // The guard lives until the reply is on the wire.
                        let _guard = guard;
                        let reply = execute(body.into(), request_id, true, orb, shared, backends);
                        let sent = reply.is_none_or(|reply| sink.send(reply).is_ok());
                        conn.lent.store(0, Ordering::SeqCst);
                        return sent;
                    }
                    let job_orb = orb.clone();
                    let job_sink = Arc::clone(sink);
                    let job_shared = Arc::clone(shared);
                    let job_backends = Arc::clone(backends);
                    let job_body: Vec<u8> = body.into();
                    let job: Job = match streamer {
                        Some(servant) => Box::new(move || {
                            // The guard lives until the final chunk is on
                            // the wire — drains wait for whole streams.
                            let _guard = guard;
                            let (orb, shared, sink) = (&job_orb, &job_shared, &job_sink);
                            pump_stream(job_body, request_id, servant, orb, shared, sink, conn_id);
                        }),
                        None => Box::new(move || {
                            // The guard lives until the reply is on the wire.
                            let _guard = guard;
                            let (orb, shared, backends) = (&job_orb, &job_shared, &job_backends);
                            let reply = execute(job_body, request_id, true, orb, shared, backends);
                            if let Some(reply) = reply {
                                let _ = job_sink.send(reply);
                            }
                        }),
                    };
                    if !conn.workers.submit(job) {
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
        (Err(_), _) => {
            shared.metrics.add(Counter::BytesIn, body_len);
            if let Some(reply) = handle_request(body.into(), None, orb, shared) {
                if sink.send(reply).is_err() {
                    return false;
                }
            }
        }
    }
    true
}

/// The objects the runtime serves itself, ahead of the skeleton
/// registry (so `skeleton_count()` stays the number of application
/// exports). Every one is routed inline on the reader, unmetered and past
/// admission control: overload or drain must never blind observability,
/// a heartbeat through a quiet period must not read back as application
/// traffic, and a credit grant queued behind servant work would starve
/// the very stream it is meant to unblock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reserved {
    /// `_health`: answered by [`answer_builtin`].
    Health,
    /// `_metrics`: answered by [`answer_builtin`].
    Metrics,
    /// Stream-credit acks: granted into the stream's window, never
    /// answered ([`handle_stream_ack`]).
    StreamAck,
}

impl Reserved {
    /// The reserved-object table: the row for `object_id`, if reserved.
    fn of(object_id: u64) -> Option<Reserved> {
        match object_id {
            HEALTH_OBJECT_ID => Some(Reserved::Health),
            METRICS_OBJECT_ID => Some(Reserved::Metrics),
            STREAM_ACK_OBJECT_ID => Some(Reserved::StreamAck),
            _ => None,
        }
    }
}

/// Answers one request to `_health` or `_metrics` for this server; `None`
/// for a oneway. A request that does not parse gets the `BadRequest`
/// diagnostic, as on any object. Readable over telnet like any servant:
///
/// * `_health.ping` — `"pong"`;
/// * `_health.report` — `bool accepting · ulonglong in-flight ·
///   ulonglong connections · ulonglong shed-requests · ulonglong
///   shed-connections`;
/// * `_metrics.snapshot` — machine-readable: every counter in
///   [`Counter::ALL`] order (`ulonglong` each; the order is append-only
///   so old clients keep decoding), then `ulong` server-op count followed
///   per op by `string name · ulonglong calls · failures · p50_ns ·
///   p99_ns`;
/// * `_metrics.reset` — zeroes the registry, returns `bool` true;
/// * `_metrics.dump` — human-readable: `ulong` row count then one
///   `string` per row of [`Metrics::dump_rows`]' table (counters, the
///   server's gauges and a router's rows, per-op latency buckets).
fn answer_builtin(
    body: Vec<u8>,
    request_id: u64,
    orb: &Orb,
    shared: &ServerShared,
) -> Option<Vec<u8>> {
    let protocol = orb.protocol().as_ref();
    let limits = &shared.policy.decode_limits;
    let incoming = match parse_request(body, Some(request_id), protocol, limits) {
        Ok(incoming) => incoming,
        Err(bad_request) => return Some(bad_request),
    };
    let (request_id, object_id) = (incoming.request_id, incoming.target.object_id);
    let mut reply = ReplyBuilder::ok(protocol, request_id);
    let enc = reply.results();
    match (object_id, incoming.method.as_str()) {
        (HEALTH_OBJECT_ID, "ping") => enc.put_string("pong"),
        (HEALTH_OBJECT_ID, "report") => {
            let h = shared.snapshot();
            enc.put_bool(h.accepting);
            enc.put_ulonglong(h.in_flight);
            enc.put_ulonglong(h.connections);
            enc.put_ulonglong(h.shed_requests);
            enc.put_ulonglong(h.shed_connections);
        }
        (METRICS_OBJECT_ID, "snapshot") => {
            let snap = shared.metrics.snapshot();
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
        (METRICS_OBJECT_ID, "reset") => {
            shared.metrics.reset();
            enc.put_bool(true);
        }
        (METRICS_OBJECT_ID, "dump") => {
            let pool = orb.connections();
            let mut gauges = vec![
                ("in_flight", shared.in_flight.load(Ordering::SeqCst) as u64),
                ("connections", shared.connections.load(Ordering::SeqCst) as u64),
                ("pool_opened", pool.opened_count()),
                ("pool_pooled", pool.pooled_count() as u64),
                ("pool_pending", pool.pending_total() as u64),
                ("reply_cache_entries", shared.replay.len() as u64),
                ("reply_cache_bytes", shared.replay.bytes() as u64),
            ];
            if let Route::Forward(router) = &shared.route {
                gauges.extend(router.gauges());
            }
            let rows = shared.metrics.dump_rows(&gauges);
            enc.put_ulong(rows.len() as u32);
            for row in &rows {
                enc.put_string(row);
            }
        }
        (_, method) => {
            let type_id =
                if object_id == HEALTH_OBJECT_ID { HEALTH_TYPE_ID } else { METRICS_TYPE_ID };
            let unknown =
                RmiError::UnknownMethod { type_id: type_id.to_owned(), method: method.to_owned() };
            let reply = ReplyBuilder::exception(
                protocol,
                request_id,
                ReplyStatus::SystemException,
                "IDL:heidl/UnknownMethod:1.0",
                &unknown.to_string(),
            );
            return incoming.response_expected.then_some(reply);
        }
    }
    incoming.response_expected.then(|| reply.into_body())
}

/// Parses a request under `limits`. One that does not parse is answered
/// with the `BadRequest` diagnostic, whether or not a reply was expected
/// (the header did not parse, so nobody knows, and a telnet user wants
/// it), carrying the id the reader routed it by — or, when routing could
/// not read one, whatever id leads the body.
fn parse_request(
    body: Vec<u8>,
    routed_id: Option<u64>,
    protocol: &dyn Protocol,
    limits: &DecodeLimits,
) -> Result<IncomingCall, Vec<u8>> {
    let id = routed_id.unwrap_or_else(|| peek_reply_id(&body, protocol).unwrap_or(0));
    IncomingCall::parse_limited(body, protocol, limits).map_err(|e| {
        ReplyBuilder::exception(
            protocol,
            id,
            ReplyStatus::SystemException,
            "IDL:heidl/BadRequest:1.0",
            &e.to_string(),
        )
    })
}

/// A request past the prelude, ready for its execute stage.
struct Admitted {
    incoming: IncomingCall,
    /// The exactly-once key, when the request carried a token: the
    /// completion stage stores the reply under it.
    replay_key: Option<(u64, u64)>,
    /// The stream window the request's chunk section asks for — a
    /// client's streaming opt-in.
    window: Option<u64>,
    /// The caller's wire context, current until the dispatch ends.
    _ctx: Option<ContextGuard>,
}

/// The request prelude every dispatch runs, skeleton or stream: one walk
/// over the body's trailing sections; under Debug tracing the caller's
/// call context made current, so server-side trace events and any
/// *nested* outbound calls carry the caller's id as their parent; the
/// parse, with its `BadRequest` diagnostic; and the exactly-once replay
/// check. `Err` is the reply that already answers the request: the
/// diagnostic, a replayed reply, or `Busy` for a retry racing its first
/// execution.
fn prelude(
    body: Vec<u8>,
    routed_id: Option<u64>,
    protocol: &dyn Protocol,
    shared: &ServerShared,
) -> Result<Admitted, Vec<u8>> {
    // The sections ride the body's tail, so they are read before parsing
    // consumes the bytes.
    let tail = protocol.split_tail(&body);
    let ctx = trace::enabled(TraceLevel::Debug)
        .then_some(tail.context)
        .flatten()
        .map(|(call_id, parent_id)| CallContext { call_id, parent_id }.enter());
    let incoming = parse_request(body, routed_id, protocol, &shared.policy.decode_limits)?;
    let replay_key = tail.token.filter(|_| incoming.response_expected);
    if let Some(key) = replay_key {
        let (decision, purged) = shared.replay.begin(key);
        if purged > 0 {
            shared.metrics.add(Counter::ReplyCacheEvictions, purged);
        }
        match decision {
            ReplayDecision::Execute => {}
            // A duplicate of a completed invocation: replay the reply
            // byte-for-byte (a retry reuses its request id, so the
            // embedded id already matches) — the servant never re-runs.
            ReplayDecision::Replay(reply_body) => {
                shared.metrics.inc(Counter::DedupReplays);
                return Err(reply_body);
            }
            // A duplicate racing the first execution: Busy is Safe to
            // retry, so the client backs off and replays once complete.
            ReplayDecision::InFlight => {
                let detail = "retry of an in-flight invocation";
                return Err(ReplyBuilder::busy(protocol, incoming.request_id, detail));
            }
        }
    }
    Ok(Admitted { incoming, replay_key, window: tail.chunk.map(|(window, _)| window), _ctx: ctx })
}

/// The execute step of an admitted application request, by the server's
/// route: dispatched here, or forwarded over this connection's `backends`.
/// Returns `None` for `oneway` requests, which must not be answered.
fn execute(
    body: Vec<u8>,
    request_id: u64,
    two_way: bool,
    orb: &Orb,
    shared: &ServerShared,
    backends: &BackendConns,
) -> Option<Vec<u8>> {
    match &shared.route {
        Route::Dispatch => handle_request(body, Some(request_id), orb, shared),
        Route::Forward(router) => {
            let reply = forward_one(router, orb, backends, &body, request_id, two_way);
            // A dispatch's parse recycles the body; a forward only reads it.
            pool::recycle(body);
            reply
        }
    }
}

/// Fig 5 (2)-(4): the prelude, then select the skeleton by object id,
/// dispatch (recursively up the inheritance chain), and build the reply;
/// an exactly-once reply is cached on the way out. Returns `None` for
/// `oneway` requests, which must not be answered.
fn handle_request(
    body: Vec<u8>,
    routed_id: Option<u64>,
    orb: &Orb,
    shared: &ServerShared,
) -> Option<Vec<u8>> {
    let protocol = orb.protocol().as_ref();
    let mut call = match prelude(body, routed_id, protocol, shared) {
        Ok(call) => call,
        Err(answer) => return Some(answer),
    };
    let reply = dispatch_request(&mut call.incoming, orb, shared, protocol);
    complete_replay(shared, call.replay_key, &reply);
    call.incoming.response_expected.then_some(reply)
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
/// after the prelude, opens the servant's
/// [`StreamBody`](crate::stream::StreamBody), then pumps fragments as
/// chunk-tailed OK replies through the connection's sink — spending
/// window credit per fragment, pacing through the shared bucket — until
/// the body is exhausted or the stream aborts.
///
/// A request *without* the chunk tail (a plain caller) gets the whole
/// payload accumulated into one ordinary reply instead: streaming is a
/// client opt-in, not a wire break.
fn pump_stream(
    body: Vec<u8>,
    request_id: u64,
    servant: Arc<dyn StreamServant>,
    orb: &Orb,
    shared: &Arc<ServerShared>,
    sink: &ReplyWriter,
    conn_id: u64,
) {
    let protocol = orb.protocol().as_ref();
    // Exactly-once bookkeeping brackets the stream, but the reply cache
    // never holds the chunks themselves (see the completion below).
    let Admitted { mut incoming, replay_key, window: requested, _ctx } =
        match prelude(body, Some(request_id), protocol, shared) {
            Ok(call) => call,
            Err(answer) => {
                let _ = sink.send(answer);
                return;
            }
        };
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
            let reply = failure_reply(protocol, request_id, e);
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
        let mut reply = ReplyBuilder::ok(protocol, request_id);
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
        let sent = send_chunk(sink, protocol, request_id, index, last, fragment);
        if sent.is_err() {
            break true;
        }
        if last {
            break false;
        }
        index += 1;
        next = upcoming;
    };
    shared.unregister_stream(conn_id, request_id);
    if replay_key.is_some() {
        // A streamed reply never enters the reply cache whole — one 64 MiB
        // stream would evict everything else. A retry that lands after the
        // stream went out replays this always-safe-to-retry marker instead
        // and the caller re-invokes.
        let marker = ReplyBuilder::exception(
            protocol,
            request_id,
            ReplyStatus::Busy,
            STREAM_EXPIRED_REPO_ID,
            "streamed reply is not replayable; re-invoke",
        );
        complete_replay(shared, replay_key, &marker);
    }
    if aborted {
        trace::emit_with(TraceLevel::Warn, "server", || {
            format!("stream {request_id} aborted: credit window stalled or connection lost")
        });
        // Best-effort: a live-but-stalled client gets a terminal
        // (unchunked) exception frame instead of hanging to its timeout.
        let _ = sink.send(ReplyBuilder::exception(
            protocol,
            request_id,
            ReplyStatus::SystemException,
            "IDL:heidl/StreamAborted:1.0",
            "stream aborted: credit window stalled",
        ));
    }
}

/// Sends one stream fragment as an OK reply carrying the chunk section.
/// Where the protocol writes strings verbatim (CDR), the fragment is
/// spliced into the frame as the servant produced it — reply header and
/// length prefix before it, NUL and chunk section after — so its bytes
/// go from the servant's `String` to the socket with no encoder copy.
/// Text escapes its strings, so there the fragment is marshaled like any
/// result. The wire bytes are the same either way.
fn send_chunk(
    sink: &ReplyWriter,
    protocol: &dyn heidl_wire::Protocol,
    request_id: u64,
    index: u64,
    last: bool,
    fragment: String,
) -> RmiResult<()> {
    let mut reply = ReplyBuilder::ok(protocol, request_id);
    let at = protocol.put_string_spliced(reply.results(), fragment.len());
    if at.is_none() {
        reply.results().put_string(&fragment);
    }
    let _ = protocol.encode_chunk(reply.results(), index, last);
    match at {
        Some(at) => sink.send_spliced(reply.into_body(), at, fragment.into_bytes()),
        None => sink.send(reply.into_body()),
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

fn dispatch_request(
    incoming: &mut IncomingCall,
    orb: &Orb,
    shared: &ServerShared,
    protocol: &dyn Protocol,
) -> Vec<u8> {
    let request_id = incoming.request_id;
    let skeleton = {
        let objects = orb.inner.objects.read();
        objects.get(&incoming.target.object_id).cloned()
    };
    let Some(skeleton) = skeleton else {
        return ReplyBuilder::exception(
            protocol,
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
    let mut reply = ReplyBuilder::ok(protocol, request_id);
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
            protocol,
            request_id,
            ReplyStatus::SystemException,
            "IDL:heidl/UnknownMethod:1.0",
            &RmiError::UnknownMethod {
                type_id: Skeleton::type_id(skeleton.as_ref()).to_owned(),
                method: incoming.method.clone(),
            }
            .to_string(),
        ),
        Err(e) => failure_reply(protocol, request_id, e),
    }
}

/// The exception reply for a dispatch that failed with `err`. A
/// servant-raised exception carries its own repository id.
fn failure_reply(protocol: &dyn Protocol, request_id: u64, err: RmiError) -> Vec<u8> {
    match err {
        RmiError::Remote { repo_id, detail } => {
            let status = ReplyStatus::UserException;
            ReplyBuilder::exception(protocol, request_id, status, &repo_id, &detail)
        }
        other => ReplyBuilder::exception(
            protocol,
            request_id,
            ReplyStatus::SystemException,
            "IDL:heidl/DispatchFailed:1.0",
            &other.to_string(),
        ),
    }
}

// ---- reactor driver -----------------------------------------------------

/// The readiness-loop driver: one epoll thread owns the listener and every
/// connection; dispatch still runs on the shared worker pool. The loop is
/// never lent: a dispatch on it would stall every connection.
fn start_reactor(
    listener: TcpListener,
    orb: Orb,
    workers: Arc<WorkerPool>,
    shared: &Arc<ServerShared>,
) -> RmiResult<Engine> {
    listener.set_nonblocking(true)?;
    let port = listener.local_addr()?.port();
    let reactor = reactor::spawn(&format!("heidl-reactor-{port}")).map_err(RmiError::Io)?;
    let accept_closed = Arc::new(AtomicBool::new(false));
    let accept_token = reactor.alloc_id();
    let closed = Arc::clone(&accept_closed);
    let source = AcceptSource { listener, orb, workers, shared: Arc::clone(shared), closed };
    reactor.register(accept_token, EPOLLIN, Box::new(source));
    // The sweep is reactor-only: the threaded driver's socket timeouts
    // (SO_RCVTIMEO, SO_SNDTIMEO) already enforce read_idle_timeout and
    // write_timeout, but they are meaningless for MSG_DONTWAIT I/O. So
    // here a timer polices them instead: idle peers and peers too slow to
    // take their queued replies get force-closed, which surfaces as an
    // EOF event on their source.
    let idle = shared.policy.read_idle_timeout;
    let stall = shared.policy.write_timeout;
    if let Some(tightest) = [idle, stall].into_iter().flatten().min() {
        let period = (tightest / 4).clamp(Duration::from_millis(10), Duration::from_millis(1000));
        let sweep_shared = Arc::clone(shared);
        let sweep = move |_: &ReactorHandle| {
            let sinks: Vec<_> =
                sweep_shared.conns.lock().iter().map(|(&id, w)| (id, w.clone())).collect();
            for (conn_id, weak) in sinks {
                let Some(sink) = weak.upgrade() else { continue };
                if let Some(reason) = sink.stalled(idle, stall) {
                    sink.force_close();
                    trace::emit_with(TraceLevel::Warn, "server", || {
                        format!("closing connection {conn_id}: {reason}")
                    });
                }
            }
        };
        reactor.add_timer(reactor.alloc_id(), period, Box::new(sweep));
    }
    Ok(Engine::Reactor { reactor, accept_token, accept_closed })
}

/// The listener as a reactor source: each readiness event drains the
/// accept queue (nonblocking listener) and registers every admitted
/// connection as a [`ConnSource`] on the same loop.
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
                    let token = reactor.alloc_id();
                    // No socket timeouts here: MSG_DONTWAIT I/O never
                    // blocks on them, and the sweep timer polices
                    // idle/stalled peers instead.
                    let plain = |transport| Box::new(transport) as Box<dyn Transport>;
                    let handle = reactor.clone();
                    let arm = move || handle.rearm(token, EPOLLIN | EPOLLOUT | EPOLLRDHUP);
                    let (orb, workers, shared) = (&self.orb, &self.workers, &self.shared);
                    if let Some(conn) =
                        admit(stream, orb, workers, shared, plain, Some(Box::new(arm)))
                    {
                        let source = Box::new(ConnSource { conn });
                        reactor.register(token, EPOLLIN | EPOLLRDHUP, source);
                    }
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

/// The reactor driver of one [`Connection`]: every readiness event
/// continues a queued reply write and routes each frame `try_recv`
/// deframes — what a `heidl-conn` thread does, minus the thread.
struct ConnSource {
    conn: Connection,
}

impl Drop for ConnSource {
    fn drop(&mut self) {
        // Nothing will flush the queue again: later sends fail fast.
        self.conn.sink.mark_dead();
    }
}

impl Source for ConnSource {
    fn fd(&self) -> i32 {
        self.conn.comm.lock().raw_fd().unwrap_or(-1)
    }

    fn on_ready(&mut self, events: u32, _reactor: &ReactorHandle) -> Action {
        if events & EPOLLERR != 0 {
            return Action::Drop;
        }
        let mut out_pending = false;
        if events & EPOLLOUT != 0 {
            match self.conn.sink.flush() {
                FlushState::Dead => return Action::Drop,
                FlushState::Pending => out_pending = true,
                FlushState::Idle => {}
            }
        }
        if events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0 {
            self.conn.sink.touch();
            let mut comm = self.conn.comm.lock();
            while let Some(got) = comm.try_recv() {
                let Ok(Some(body)) = got else { return Action::Drop };
                if !route_frame(&self.conn, body, false) {
                    return Action::Drop;
                }
            }
        }
        // Interest management: `EPOLLOUT` stays armed only while replies
        // are queued. The hot path (readable-only event, no backlog)
        // keeps the registration untouched — zero `epoll_ctl` per
        // request. Any event involving `EPOLLOUT` re-MODs explicitly:
        // worker-side arms race this decision, and an explicit MOD can
        // never leave a drained connection busy-looping on writability.
        let want_out = out_pending || self.conn.sink.has_backlog();
        if events & EPOLLOUT != 0 || want_out {
            let interest =
                if want_out { EPOLLIN | EPOLLOUT | EPOLLRDHUP } else { EPOLLIN | EPOLLRDHUP };
            Action::Rearm(interest)
        } else {
            Action::Keep
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heidl_wire::{CdrProtocol, Protocol, TextProtocol, RECV_CHUNK};

    /// Fragments for the chunk-frame oracle: empty, one byte, an odd
    /// size, exactly one read chunk, a whole 256 KiB stream chunk,
    /// multi-byte UTF-8, every character text escapes, and seeded random
    /// lengths.
    fn fragments() -> Vec<String> {
        let mut out = vec![
            String::new(),
            "x".to_owned(),
            "odd".repeat(333),
            "a".repeat(RECV_CHUNK),
            "b".repeat(256 * 1024),
            "é€😀".repeat(1001),
            "\"quoted\" \\slash\\ new\nline\ttab\rcr 'tick'".repeat(77),
        ];
        let mut seed = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..4 {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            out.push("r".repeat((seed % 300_000) as usize));
        }
        out
    }

    /// Sends every case through `send_chunk` into `sink`; returns the
    /// frames the encoder path writes for the same cases:
    /// `ReplyBuilder::ok` + `put_string` + `encode_chunk`, framed whole.
    fn send_cases(sink: &ReplyWriter, protocol: &dyn Protocol) -> Vec<u8> {
        let mut expected = Vec::new();
        for (i, fragment) in fragments().into_iter().enumerate() {
            let id = 100 + i as u64;
            for (index, last) in [(0, false), (0, true), (u64::MAX - 1, false), (9, true)] {
                let mut reply = ReplyBuilder::ok(protocol, id);
                reply.results().put_string(&fragment);
                let _ = protocol.encode_chunk(reply.results(), index, last);
                protocol.frame(&reply.into_body(), &mut expected);
                send_chunk(sink, protocol, id, index, last, fragment.clone()).unwrap();
            }
        }
        expected
    }

    fn assert_same_bytes(got: &[u8], expected: &[u8], protocol: &dyn Protocol) {
        let first_diff = got.iter().zip(expected).position(|(a, b)| a != b);
        assert!(
            got == expected,
            "{}: wrote {} bytes, expected {}, first difference at {first_diff:?}",
            protocol.name(),
            got.len(),
            expected.len()
        );
    }

    /// A socket whose nonblocking writes take at most `STEP` bytes and
    /// refuse every other attempt outright, so frames tear at every size
    /// and both continuations run. Its blocking write records how many of
    /// the bytes it is handed the reply budget counts meanwhile.
    struct Trickle {
        wire: Arc<Mutex<Vec<u8>>>,
        full: bool,
        budget: Arc<ReplyBudget>,
        /// `(bytes handed to a blocking write, bytes the budget counted)`.
        blocked: Arc<Mutex<Vec<(usize, usize)>>>,
    }

    impl Trickle {
        const STEP: usize = 4093;

        fn take(&mut self, bufs: &[IoSlice<'_>]) -> Option<usize> {
            self.full = !self.full;
            if self.full {
                return None;
            }
            let mut wire = self.wire.lock();
            let start = wire.len();
            for buf in bufs {
                let room = Self::STEP - (wire.len() - start);
                wire.extend_from_slice(&buf[..buf.len().min(room)]);
            }
            Some(wire.len() - start)
        }
    }

    impl Transport for Trickle {
        fn send(&mut self, bytes: &[u8]) -> std::io::Result<()> {
            let counted = self.budget.queued.load(Ordering::SeqCst);
            self.blocked.lock().push((bytes.len(), counted));
            self.wire.lock().extend_from_slice(bytes);
            Ok(())
        }

        fn recv_into(&mut self, _buf: &mut Vec<u8>) -> std::io::Result<usize> {
            Ok(0)
        }

        fn peer(&self) -> String {
            "trickle".to_owned()
        }

        fn split(self: Box<Self>) -> std::io::Result<(Box<dyn Transport>, Box<dyn Transport>)> {
            unreachable!("the writer owns a write half")
        }

        fn try_send_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<Option<usize>> {
            Ok(self.take(bufs))
        }
    }

    /// The chunk frames the pump writes (spliced on CDR, encoded on text)
    /// are the encoder path's bytes through the one writer, whichever
    /// continuation finishes a torn frame: the threaded driver's blocking
    /// write, with the remainder counted in the budget while it blocks,
    /// or the reactor's queue, continued by flushes after an `EPOLLOUT`
    /// arm.
    #[test]
    fn chunk_frames_match_the_encoder_path_through_both_continuations() {
        for protocol in [Arc::new(TextProtocol) as Arc<dyn Protocol>, Arc::new(CdrProtocol)] {
            for queued in [false, true] {
                let shared = ServerShared::new(
                    ServerPolicy::default(),
                    Arc::new(Metrics::new()),
                    Route::Dispatch,
                );
                let wire = Arc::new(Mutex::new(Vec::new()));
                let blocked = Arc::new(Mutex::new(Vec::new()));
                let transport = Trickle {
                    wire: Arc::clone(&wire),
                    full: false,
                    budget: Arc::clone(&shared.reply_budget),
                    blocked: Arc::clone(&blocked),
                };
                let arms = Arc::new(AtomicUsize::new(0));
                let counter = Arc::clone(&arms);
                let arm = move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                };
                let arm = queued.then(|| Box::new(arm) as Box<dyn Fn() + Send + Sync>);
                let writer =
                    ReplyWriter::new(Box::new(transport), Arc::clone(&protocol), &shared, arm);
                let expected = send_cases(&writer, protocol.as_ref());
                while writer.has_backlog() {
                    assert!(!matches!(writer.flush(), FlushState::Dead));
                }
                assert_same_bytes(&wire.lock(), &expected, protocol.as_ref());
                assert_eq!(shared.reply_budget.queued.load(Ordering::SeqCst), 0);
                let blocked = blocked.lock();
                if queued {
                    assert!(arms.load(Ordering::SeqCst) > 0, "nothing was queued");
                    assert!(blocked.is_empty(), "the reactor writer blocked");
                } else {
                    assert!(!blocked.is_empty(), "no frame tore");
                    for &(bytes, counted) in blocked.iter() {
                        assert_eq!(bytes, counted, "a blocked remainder was not budgeted");
                    }
                }
            }
        }
    }

    /// Submitters racing for the pool's last free resident slot: every
    /// job blocks on one gate, so a job queued behind `WORKER_THREADS`
    /// blocked ones would never start. All of them must be running at
    /// once before the gate opens.
    #[test]
    fn racing_submits_never_queue_behind_blocked_jobs() {
        const JOBS: usize = 64;
        let pool = Arc::new(WorkerPool::new(WORKER_THREADS, JOBS));
        let gate = Arc::new((Mutex::new((0usize, false)), parking_lot::Condvar::new()));
        let start = Arc::new(std::sync::Barrier::new(JOBS));
        let submitters: Vec<_> = (0..JOBS)
            .map(|_| {
                let (pool, gate, start) =
                    (Arc::clone(&pool), Arc::clone(&gate), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    pool.submit(Box::new(move || {
                        let (state, cv) = &*gate;
                        let mut state = state.lock();
                        state.0 += 1;
                        cv.notify_all();
                        while !state.1 {
                            cv.wait(&mut state);
                        }
                    }))
                })
            })
            .collect();
        for submitter in submitters {
            assert!(submitter.join().unwrap(), "the overflow budget covers every job");
        }
        let (state, cv) = &*gate;
        let mut state = state.lock();
        let deadline = Instant::now() + Duration::from_secs(10);
        while state.0 < JOBS && Instant::now() < deadline {
            cv.wait_for(&mut state, Duration::from_millis(10));
        }
        let running = state.0;
        state.1 = true;
        cv.notify_all();
        drop(state);
        assert_eq!(running, JOBS, "a job was queued behind blocked ones");
    }
}
