//! `ObjectCommunicator`, multiplexed connections, and the connection cache.
//!
//! Paper §3.1: *"An `ObjectCommunicator` provides the abstraction of a
//! communication channel on which individual requests can be demarcated.
//! ... Connections are cached and reused in HeidiRMI, and only if there is
//! no available connection is a new connection opened."*
//!
//! This module goes one step past the paper's one-call-at-a-time cache:
//! a [`MuxConnection`] multiplexes any number of concurrent in-flight
//! requests over a single socket, correlating out-of-order replies by the
//! request id that leads every message (see `call.rs`). A [`Demux`] owns
//! the read half — on a thread of its own or as a client-reactor source,
//! one state machine either way; callers park on reusable per-thread reply
//! slots until their reply (or their deadline) arrives.
//!
//! The hot path is allocation-light: frames go out as vectored writes
//! (stack header + body, no `framed` staging copy), arrive through a
//! [`FrameBuf`] consume-from-front cursor, and travel up as
//! [`PooledBuf`]s whose storage recycles after decode. Reply correlation
//! uses a sharded pending table, so concurrent callers on one connection
//! do not serialize on a single registration lock.

use crate::breaker::{BreakerConfig, BreakerObserver, BreakerState, CircuitBreaker};
use crate::call::peek_reply_id;
use crate::error::{RmiError, RmiResult};
use crate::objref::Endpoint;
use crate::reactor::{self, Action, ReactorHandle, Source, EPOLLERR, EPOLLIN, EPOLLRDHUP};
use crate::trace::{self, TraceLevel};
use crate::transport::{Connector, TcpConnector, Transport, TransportMode};
use heidl_wire::{pool, DecodeLimits, FrameBuf, PooledBuf, Protocol, MAX_FRAME_HEADER, RECV_CHUNK};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Writes one framed message through a single vectored write (see
/// [`with_frame`]).
pub(crate) fn write_framed(
    transport: &mut dyn Transport,
    protocol: &dyn Protocol,
    body: &[&[u8]],
) -> RmiResult<()> {
    Ok(with_frame(protocol, body, |frame| transport.send_vectored(frame))?)
}

/// Frames a body given as up to three `parts` (concatenated in order)
/// without materializing it, and hands `write` the frame as slices:
/// protocols that describe their framing as header + body + trailer
/// ([`Protocol::frame_parts`]) yield the stack header, the parts as they
/// lie, and the trailer; others fall back to staging the frame in a
/// pooled buffer.
pub(crate) fn with_frame<R>(
    protocol: &dyn Protocol,
    body: &[&[u8]],
    write: impl FnOnce(&[&[u8]]) -> R,
) -> R {
    let n = body.len();
    assert!(n <= 3, "a frame body has at most three parts");
    let mut header = [0u8; MAX_FRAME_HEADER];
    let len = body.iter().map(|part| part.len()).sum();
    if let Some((header_len, trailer)) = protocol.frame_parts(len, &mut header) {
        let mut frame: [&[u8]; 5] = [&[]; 5];
        frame[0] = &header[..header_len];
        frame[1..=n].copy_from_slice(body);
        frame[n + 1] = trailer;
        write(&frame[..n + 2])
    } else {
        let mut framed = pool::global().get();
        framed.reserve(len + MAX_FRAME_HEADER);
        protocol.frame(&body.concat(), &mut framed);
        write(&[&framed])
    }
}

/// A message channel over a transport: framing + buffering.
///
/// The one reader of the runtime: every connection, server or client,
/// blocking thread or reactor source, deframes through [`Self::recv`] or
/// its nonblocking twin [`Self::try_recv`].
pub struct ObjectCommunicator {
    transport: Box<dyn Transport>,
    protocol: Arc<dyn Protocol>,
    inbuf: FrameBuf,
    limits: DecodeLimits,
    /// Set by a [`Self::try_recv`] read that came back short: the kernel
    /// buffer is empty, so once the buffered frames are out it reports
    /// "nothing more" without a confirming `EWOULDBLOCK` read.
    drained: bool,
}

impl std::fmt::Debug for ObjectCommunicator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectCommunicator")
            .field("peer", &self.transport.peer())
            .field("protocol", &self.protocol.name())
            .field("buffered", &self.inbuf.len())
            .finish()
    }
}

impl ObjectCommunicator {
    /// Wraps a transport with a protocol (default, permissive
    /// [`DecodeLimits`]).
    pub fn new(transport: Box<dyn Transport>, protocol: Arc<dyn Protocol>) -> Self {
        ObjectCommunicator::with_limits(transport, protocol, DecodeLimits::default())
    }

    /// Wraps a transport with a protocol and explicit [`DecodeLimits`]
    /// enforced during deframing — the server side, where a hostile frame
    /// length must error before it buffers or allocates.
    pub fn with_limits(
        transport: Box<dyn Transport>,
        protocol: Arc<dyn Protocol>,
        limits: DecodeLimits,
    ) -> Self {
        ObjectCommunicator { transport, protocol, inbuf: FrameBuf::new(), limits, drained: false }
    }

    /// The protocol in use.
    pub fn protocol(&self) -> &Arc<dyn Protocol> {
        &self.protocol
    }

    /// Peer description for diagnostics.
    pub fn peer(&self) -> String {
        self.transport.peer()
    }

    /// The read half's file descriptor, when a reactor can watch it.
    pub(crate) fn raw_fd(&self) -> Option<i32> {
        self.transport.raw_fd()
    }

    /// Sends one message body, framed.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn send(&mut self, body: &[u8]) -> RmiResult<()> {
        write_framed(self.transport.as_mut(), self.protocol.as_ref(), &[body])
    }

    /// Receives the next complete message body, or `None` on orderly close.
    ///
    /// # Errors
    ///
    /// Propagates transport failures and stream corruption.
    pub fn recv(&mut self) -> RmiResult<Option<PooledBuf>> {
        loop {
            if let Some(body) = self.buffered()? {
                return Ok(Some(body));
            }
            // A large frame's body is read straight into its own buffer,
            // waiting for all of it at once: those bytes are the frame's.
            let filling = self.inbuf.filling_body();
            let (input, lacking) = self.inbuf.input();
            let n = if filling {
                self.transport.recv_body_into(input, lacking)?
            } else {
                self.transport.recv_into(input)?
            };
            if n == 0 {
                return self.closed();
            }
        }
    }

    /// [`Self::recv`] for a readiness-driven reader: `None` once nothing
    /// more can be had without blocking, otherwise exactly what `recv`
    /// would have returned. Reads are nonblocking and at most
    /// [`RECV_CHUNK`] (straight into a large frame's body while one is
    /// arriving); a read shorter than asked for emptied the kernel buffer,
    /// so after the frames it completed this reports `None` without the
    /// `EWOULDBLOCK` confirmation syscall — level-triggered epoll
    /// re-reports the fd if more bytes race in.
    pub(crate) fn try_recv(&mut self) -> Option<RmiResult<Option<PooledBuf>>> {
        loop {
            match self.buffered() {
                Ok(None) => {}
                got => return Some(got),
            }
            if std::mem::take(&mut self.drained) {
                return None;
            }
            let (input, lacking) = self.inbuf.input();
            let max = lacking.min(RECV_CHUNK);
            match self.transport.try_recv_into(input, max) {
                Ok(Some(0)) => return Some(self.closed()),
                Ok(Some(n)) => self.drained = n < max,
                Ok(None) => return None,
                Err(e) => return Some(Err(e.into())),
            }
        }
    }

    /// Whether bytes past the last message returned are already buffered.
    pub(crate) fn has_buffered(&self) -> bool {
        !self.inbuf.is_empty()
    }

    /// The next complete frame already buffered, if any.
    fn buffered(&mut self) -> RmiResult<Option<PooledBuf>> {
        let body = self.protocol.deframe_pooled(&mut self.inbuf, &self.limits)?;
        if body.is_some() {
            // A jumbo text line may have ballooned the read buffer; give
            // the excess back once it is drained.
            self.inbuf.maybe_shrink();
        }
        Ok(body)
    }

    /// The outcome of end-of-stream: orderly between frames, a lost
    /// connection inside one.
    fn closed(&self) -> RmiResult<Option<PooledBuf>> {
        if self.inbuf.is_empty() {
            Ok(None)
        } else {
            Err(RmiError::Disconnected)
        }
    }

    /// One request/reply round trip (single-plexed; the client invocation
    /// path goes through [`MuxConnection::call`] instead).
    ///
    /// # Errors
    ///
    /// [`RmiError::Disconnected`] when the channel closes before a reply.
    pub fn round_trip(&mut self, body: &[u8]) -> RmiResult<PooledBuf> {
        self.send(body)?;
        self.recv()?.ok_or(RmiError::Disconnected)
    }
}

/// Poll budget `(busy, yields)` for [`ReplySlot::wait`]: how many
/// lock-and-check polls to make before parking on the condvar. Busy polls
/// (`spin_loop`) only pay off when the demux thread can run on *another*
/// core while we spin; on a single-CPU host they would stall the very
/// thread that is about to deliver, so there the budget is yield-only —
/// `yield_now` hands the core straight to the runnable demux/server
/// threads and is still far cheaper than a futex park + wake.
fn wait_poll_budget() -> (u32, u32) {
    static BUDGET: OnceLock<(u32, u32)> = OnceLock::new();
    *BUDGET.get_or_init(|| {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        if cores > 1 {
            (448, 32)
        } else {
            (0, 64)
        }
    })
}

/// A waiting caller's mailbox: the demux thread posts the reply body here.
///
/// Unlike a channel, the slot is *reusable*: each thread keeps one in a
/// thread-local and re-arms it per call, so steady-state calls allocate
/// nothing for correlation. The protocol is strictly one delivery per arm:
/// whoever holds the `Arc` out of the pending table owns the (single)
/// pending delivery, and the parked caller always consumes it before the
/// slot is re-armed — see the quiescence dance in [`MuxConnection::call`].
struct ReplySlot {
    state: Mutex<Option<RmiResult<PooledBuf>>>,
    cv: Condvar,
}

impl ReplySlot {
    fn new() -> ReplySlot {
        ReplySlot { state: Mutex::new(None), cv: Condvar::new() }
    }

    /// Posts the result and wakes the parked caller.
    fn deliver(&self, result: RmiResult<PooledBuf>) {
        *self.state.lock() = Some(result);
        self.cv.notify_one();
    }

    /// Parks until a delivery arrives, consuming it.
    ///
    /// On a loopback round trip the reply lands within a few microseconds
    /// of the request, so the slot polls briefly before paying the futex
    /// park + wake — that cut measures several microseconds off p50 echo
    /// latency.
    fn wait(&self) -> RmiResult<PooledBuf> {
        let (busy, yields) = wait_poll_budget();
        for poll in 0..busy + yields {
            if let Some(result) = self.state.lock().take() {
                return result;
            }
            if poll < busy {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        let mut state = self.state.lock();
        loop {
            if let Some(result) = state.take() {
                return result;
            }
            self.cv.wait(&mut state);
        }
    }

    /// Parks for at most `limit`, consuming the delivery if one arrives in
    /// time; `None` on timeout (the slot stays armed — the caller must
    /// settle ownership through the pending table before reusing it).
    fn wait_for(&self, limit: Duration) -> Option<RmiResult<PooledBuf>> {
        let deadline = Instant::now() + limit;
        let mut state = self.state.lock();
        loop {
            if let Some(result) = state.take() {
                return Some(result);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            self.cv.wait_for(&mut state, deadline - now);
        }
    }
}

thread_local! {
    /// The calling thread's reusable mailbox. A thread has at most one
    /// blocking `call` in progress (it parks inside it), so one slot per
    /// thread suffices — across however many connections it calls on.
    static REPLY_SLOT: Arc<ReplySlot> = Arc::new(ReplySlot::new());
}

/// A streamed reply's mailbox: unlike a [`ReplySlot`], it accepts *many*
/// deliveries (one per chunk frame) and tracks the high-water mark of
/// bytes buffered between arrival and consumption — the client half of
/// the bounded-buffering guarantee the per-stream window provides.
pub(crate) struct StreamSlot {
    state: Mutex<StreamSlotState>,
    cv: Condvar,
}

struct StreamSlotState {
    queue: std::collections::VecDeque<PooledBuf>,
    /// Terminal failure, delivered once to the consumer.
    error: Option<RmiError>,
    closed: bool,
    buffered: usize,
    high_water: usize,
}

impl StreamSlot {
    fn new() -> StreamSlot {
        StreamSlot {
            state: Mutex::new(StreamSlotState {
                queue: std::collections::VecDeque::new(),
                error: None,
                closed: false,
                buffered: 0,
                high_water: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Enqueues one chunk frame and wakes the consumer.
    fn push(&self, body: PooledBuf) {
        let mut st = self.state.lock();
        st.buffered += body.len();
        st.high_water = st.high_water.max(st.buffered);
        st.queue.push_back(body);
        self.cv.notify_one();
    }

    /// Terminates the stream with `err` (connection teardown).
    fn fail(&self, err: RmiError) {
        let mut st = self.state.lock();
        if st.error.is_none() {
            st.error = Some(err);
        }
        st.closed = true;
        self.cv.notify_all();
    }

    /// True when no frame is queued — the consumer is about to block.
    pub(crate) fn is_empty(&self) -> bool {
        self.state.lock().queue.is_empty()
    }

    /// Peak bytes ever queued between arrival and consumption.
    pub(crate) fn high_water(&self) -> usize {
        self.state.lock().high_water
    }

    /// Blocks for the next frame.
    pub(crate) fn wait(&self) -> RmiResult<PooledBuf> {
        let mut st = self.state.lock();
        loop {
            if let Some(body) = st.queue.pop_front() {
                st.buffered -= body.len();
                return Ok(body);
            }
            if let Some(e) = st.error.take() {
                return Err(e);
            }
            if st.closed {
                return Err(RmiError::Disconnected);
            }
            self.cv.wait(&mut st);
        }
    }

    /// Blocks at most `limit` for the next frame.
    pub(crate) fn wait_for(&self, limit: Duration) -> RmiResult<PooledBuf> {
        let deadline = Instant::now() + limit;
        let mut st = self.state.lock();
        loop {
            if let Some(body) = st.queue.pop_front() {
                st.buffered -= body.len();
                return Ok(body);
            }
            if let Some(e) = st.error.take() {
                return Err(e);
            }
            if st.closed {
                return Err(RmiError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RmiError::DeadlineExceeded { after: limit });
            }
            self.cv.wait_for(&mut st, deadline - now);
        }
    }
}

/// The registry of in-progress streamed replies on one connection, keyed
/// by request id. Checked *before* the pending table on every delivery, so
/// a chunk frame can never wake a one-shot caller.
struct StreamTable {
    streams: Mutex<HashMap<u64, Arc<StreamSlot>>>,
}

impl StreamTable {
    fn new() -> StreamTable {
        StreamTable { streams: Mutex::new(HashMap::new()) }
    }

    fn insert(&self, id: u64, slot: Arc<StreamSlot>) {
        self.streams.lock().insert(id, slot);
    }

    fn get(&self, id: u64) -> Option<Arc<StreamSlot>> {
        self.streams.lock().get(&id).cloned()
    }

    fn remove(&self, id: u64) -> Option<Arc<StreamSlot>> {
        self.streams.lock().remove(&id)
    }

    fn drain(&self) -> Vec<Arc<StreamSlot>> {
        self.streams.lock().drain().map(|(_, s)| s).collect()
    }
}

/// How many independent locks the pending-reply table is split across.
const PENDING_SHARDS: usize = 8;

/// The pending-reply table, sharded by request id so registration under
/// heavy multiplexing does not serialize every caller on one mutex.
struct PendingTable {
    shards: [Mutex<HashMap<u64, Arc<ReplySlot>>>; PENDING_SHARDS],
}

impl PendingTable {
    fn new() -> PendingTable {
        PendingTable { shards: std::array::from_fn(|_| Mutex::new(HashMap::new())) }
    }

    fn shard(&self, id: u64) -> &Mutex<HashMap<u64, Arc<ReplySlot>>> {
        &self.shards[(id % PENDING_SHARDS as u64) as usize]
    }

    fn insert(&self, id: u64, slot: Arc<ReplySlot>) {
        self.shard(id).lock().insert(id, slot);
    }

    fn remove(&self, id: u64) -> Option<Arc<ReplySlot>> {
        self.shard(id).lock().remove(&id)
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Claims every registered slot (connection teardown).
    fn drain(&self) -> Vec<Arc<ReplySlot>> {
        let mut all = Vec::new();
        for shard in &self.shards {
            all.extend(shard.lock().drain().map(|(_, slot)| slot));
        }
        all
    }
}

/// A shared, multiplexed connection to one endpoint.
///
/// Any number of threads may have calls in flight concurrently; each call
/// stamps its request id into the body (done by `Call`), registers a
/// mailbox under that id, writes the frame under a brief lock, and parks
/// until the demux thread delivers the correlated reply — which may arrive
/// in any order relative to other calls. A call abandoned at its deadline
/// simply unregisters; the late reply is dropped on arrival and the
/// connection stays healthy.
pub struct MuxConnection {
    writer: Mutex<Box<dyn Transport>>,
    protocol: Arc<dyn Protocol>,
    pending: Arc<PendingTable>,
    streams: Arc<StreamTable>,
    alive: Arc<AtomicBool>,
    /// Outstanding `CheckedOut` guards (pool observability, not a limit).
    borrowed: AtomicUsize,
    peer: String,
    /// Milliseconds (since a process-local epoch) of the last send on this
    /// connection — what the heartbeat scan calls "activity". Coarse on
    /// purpose: one relaxed store per call keeps the hot path unburdened.
    last_used: AtomicU64,
}

/// Milliseconds elapsed since the first time any connection asked — a
/// monotonic, process-local clock for the coarse idle bookkeeping.
fn epoch_millis() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_millis() as u64
}

impl std::fmt::Debug for MuxConnection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MuxConnection")
            .field("peer", &self.peer)
            .field("alive", &self.is_alive())
            .field("in_flight", &self.in_flight())
            .finish()
    }
}

impl MuxConnection {
    /// Opens a multiplexed TCP connection to `endpoint`.
    ///
    /// # Errors
    ///
    /// [`RmiError::ConnectFailed`] naming the endpoint that refused.
    pub fn connect(
        endpoint: &Endpoint,
        protocol: &Arc<dyn Protocol>,
    ) -> RmiResult<Arc<MuxConnection>> {
        MuxConnection::via(&TcpConnector, endpoint, protocol)
    }

    /// Opens a multiplexed connection through an explicit [`Connector`]
    /// (the seam fault injectors plug into).
    ///
    /// # Errors
    ///
    /// [`RmiError::ConnectFailed`] naming the endpoint that refused.
    pub fn via(
        connector: &dyn Connector,
        endpoint: &Endpoint,
        protocol: &Arc<dyn Protocol>,
    ) -> RmiResult<Arc<MuxConnection>> {
        MuxConnection::via_mode(connector, endpoint, protocol, TransportMode::Threaded)
    }

    /// As [`MuxConnection::via`] but demultiplexing replies on the engine
    /// `mode` selects (see [`MuxConnection::over_mode`]).
    ///
    /// # Errors
    ///
    /// [`RmiError::ConnectFailed`] naming the endpoint that refused.
    pub fn via_mode(
        connector: &dyn Connector,
        endpoint: &Endpoint,
        protocol: &Arc<dyn Protocol>,
        mode: TransportMode,
    ) -> RmiResult<Arc<MuxConnection>> {
        let transport = connector
            .connect(endpoint)
            .map_err(|source| RmiError::ConnectFailed { endpoint: endpoint.to_string(), source })?;
        MuxConnection::over_mode(transport, Arc::clone(protocol), mode)
    }

    /// Wraps an arbitrary transport (tests use in-process pipes), splitting
    /// it and spawning the demux reader thread.
    ///
    /// # Errors
    ///
    /// Fails when the transport cannot be split or the thread not spawned.
    pub fn over(
        transport: Box<dyn Transport>,
        protocol: Arc<dyn Protocol>,
    ) -> RmiResult<Arc<MuxConnection>> {
        MuxConnection::over_mode(transport, protocol, TransportMode::Threaded)
    }

    /// As [`MuxConnection::over`] but selecting the demux driver: in
    /// [`TransportMode::Reactor`], a transport that exposes a raw fd gets
    /// its [`Demux`] registered on the process-wide client reactor — one
    /// `heidl-reactor-client` thread demultiplexes every pooled
    /// connection, instead of one `heidl-demux-*` thread each. Transports
    /// without an fd (in-process pipes, fault injectors) and non-epoll
    /// targets fall back to the demux thread transparently.
    ///
    /// # Errors
    ///
    /// Fails when the transport cannot be split or the thread not spawned.
    pub fn over_mode(
        transport: Box<dyn Transport>,
        protocol: Arc<dyn Protocol>,
        mode: TransportMode,
    ) -> RmiResult<Arc<MuxConnection>> {
        let peer = transport.peer();
        let (writer, reader) = transport.split()?;
        let pending = Arc::new(PendingTable::new());
        let streams = Arc::new(StreamTable::new());
        let alive = Arc::new(AtomicBool::new(true));
        let demux = Demux {
            comm: ObjectCommunicator::new(reader, Arc::clone(&protocol)),
            pending: Arc::clone(&pending),
            streams: Arc::clone(&streams),
            alive: Arc::clone(&alive),
            peer: peer.clone(),
        };
        let reactor = if mode.reactor_enabled() && demux.comm.raw_fd().is_some() {
            reactor::client_reactor()
        } else {
            None
        };
        match reactor {
            Some(handle) => {
                handle.register(handle.alloc_id(), EPOLLIN | EPOLLRDHUP, Box::new(demux))
            }
            None => {
                std::thread::Builder::new()
                    .name(format!("heidl-demux-{peer}"))
                    .spawn(move || demux_loop(demux))
                    .map_err(RmiError::Io)?;
            }
        }
        Ok(Arc::new(MuxConnection {
            writer: Mutex::new(writer),
            protocol,
            pending,
            streams,
            alive,
            borrowed: AtomicUsize::new(0),
            peer,
            last_used: AtomicU64::new(epoch_millis()),
        }))
    }

    /// Whether the demux is still serving replies.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// Number of calls currently awaiting a reply.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Peer description for diagnostics.
    pub fn peer(&self) -> String {
        self.peer.clone()
    }

    /// Time since the last send on this connection (calls, oneways, or
    /// heartbeat pings). The heartbeat scan pings connections idle longer
    /// than its interval; a ping refreshes this, so an idle pooled
    /// connection is probed once per interval, not continuously.
    pub fn idle_for(&self) -> Duration {
        let last = self.last_used.load(Ordering::Relaxed);
        Duration::from_millis(epoch_millis().saturating_sub(last))
    }

    /// Outstanding `CheckedOut` borrows (pool observability).
    pub(crate) fn borrow_count(&self) -> usize {
        self.borrowed()
    }

    /// One correlated request/reply exchange. `request_id` must match the
    /// id marshaled at the front of `body`. With a deadline, waits at most
    /// that long for the correlated reply before returning
    /// [`RmiError::DeadlineExceeded`] — without tearing the connection
    /// down for the other calls sharing it.
    ///
    /// # Errors
    ///
    /// Transport failures, [`RmiError::Disconnected`] when the connection
    /// dies before the reply, [`RmiError::DeadlineExceeded`] on timeout.
    pub fn call(
        &self,
        request_id: u64,
        body: &[u8],
        deadline: Option<Duration>,
    ) -> RmiResult<PooledBuf> {
        // Whoever removes the id from `pending` owns the outcome: either
        // we remove it (no delivery will ever come — safe to walk away),
        // or the demux/teardown side already claimed it (a delivery is in
        // flight and MUST be consumed so the thread-local slot is
        // quiescent for its next call).
        let slot = REPLY_SLOT.with(Arc::clone);
        self.pending.insert(request_id, Arc::clone(&slot));
        // The demux drains `pending` when it dies; registering
        // first and re-checking `alive` after closes the race where it
        // died in between (then nobody would ever wake us).
        if !self.is_alive() {
            return match self.pending.remove(request_id) {
                Some(_) => Err(RmiError::Disconnected),
                None => slot.wait(),
            };
        }
        if let Err(e) = self.send_framed(body) {
            if self.pending.remove(request_id).is_none() {
                let _ = slot.wait();
            }
            return Err(e);
        }
        match deadline {
            None => slot.wait(),
            Some(limit) => {
                if let Some(result) = slot.wait_for(limit) {
                    return result;
                }
                // Unregister so the late reply is dropped. If the demux
                // thread claimed the slot in this instant, the delivery is
                // imminent — take it instead.
                match self.pending.remove(request_id) {
                    Some(_) => Err(RmiError::DeadlineExceeded { after: limit }),
                    None => slot.wait(),
                }
            }
        }
    }

    /// Sends a request that expects no reply: the same single framed
    /// write as a two-way call, so one thread's oneways and calls reach
    /// the wire in program order.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn send_oneway(&self, body: &[u8]) -> RmiResult<()> {
        self.send_framed(body)
    }

    /// Sends a request whose reply will arrive as a *stream* of chunk
    /// frames sharing `request_id`: registers a [`StreamSlot`] the demux
    /// side routes every matching frame into, then writes the request.
    /// The returned slot is what a `ReplyStream` consumes.
    ///
    /// # Errors
    ///
    /// Transport failures; [`RmiError::Disconnected`] when the demux side
    /// is already gone.
    pub(crate) fn call_streamed(&self, request_id: u64, body: &[u8]) -> RmiResult<Arc<StreamSlot>> {
        let slot = Arc::new(StreamSlot::new());
        self.streams.insert(request_id, Arc::clone(&slot));
        // Same registration race as `call`: the demux side drains the
        // stream table when it dies, so re-check liveness after.
        if !self.is_alive() {
            self.streams.remove(request_id);
            return Err(RmiError::Disconnected);
        }
        if let Err(e) = self.send_framed(body) {
            self.streams.remove(request_id);
            return Err(e);
        }
        Ok(slot)
    }

    /// Retires a stream registration; frames still in flight for it are
    /// then dropped exactly like late replies.
    pub(crate) fn unregister_stream(&self, request_id: u64) {
        self.streams.remove(request_id);
    }

    fn send_framed(&self, body: &[u8]) -> RmiResult<()> {
        self.last_used.store(epoch_millis(), Ordering::Relaxed);
        let mut writer = self.writer.lock();
        write_framed(writer.as_mut(), self.protocol.as_ref(), &[body])
    }

    /// Sends a fire-and-forget liveness ping: the request goes out with a
    /// throwaway mailbox registered under `request_id`, and nobody parks
    /// for the pong — the heartbeat probe checks back one tick later with
    /// [`MuxConnection::ping_unanswered`]. (A parked wait would stall the
    /// reactor loop the probe may run on, and serialize a scan behind
    /// every dead peer.)
    ///
    /// # Errors
    ///
    /// Transport failures; [`RmiError::Disconnected`] when the demux side
    /// is already gone.
    pub(crate) fn send_ping(&self, request_id: u64, body: &[u8]) -> RmiResult<()> {
        self.pending.insert(request_id, Arc::new(ReplySlot::new()));
        // Same registration race as `call`: the demux side drains
        // `pending` when it dies, so re-check liveness after registering.
        if !self.is_alive() {
            self.pending.remove(request_id);
            return Err(RmiError::Disconnected);
        }
        if let Err(e) = self.send_framed(body) {
            self.pending.remove(request_id);
            return Err(e);
        }
        Ok(())
    }

    /// Settles a [`MuxConnection::send_ping`]: `true` when no pong has
    /// arrived (the registration is still pending — a dead peer), `false`
    /// when the demux side consumed the pong. Either way the registration
    /// is gone afterwards.
    pub(crate) fn ping_unanswered(&self, request_id: u64) -> bool {
        self.pending.remove(request_id).is_some()
    }

    fn borrow(&self) {
        self.borrowed.fetch_add(1, Ordering::SeqCst);
    }

    fn release(&self) {
        self.borrowed.fetch_sub(1, Ordering::SeqCst);
    }

    fn borrowed(&self) -> usize {
        self.borrowed.load(Ordering::SeqCst)
    }
}

impl Drop for MuxConnection {
    fn drop(&mut self) {
        self.alive.store(false, Ordering::SeqCst);
        // Gives the demux EOF and closes the socket for the peer.
        self.writer.get_mut().shutdown();
    }
}

/// One pooled connection's reply side, whichever driver reads it: the
/// communicator around the read half and the tables its replies route
/// into. Each reply wakes whichever caller registered its request id;
/// replies with no registered caller (deadline already passed) are
/// dropped. Dropping the demux is the connection's death — it marks the
/// connection dead and wakes every parked caller and stream with
/// `Disconnected` — and every way it can die emits a traced event saying
/// why.
struct Demux {
    comm: ObjectCommunicator,
    pending: Arc<PendingTable>,
    streams: Arc<StreamTable>,
    alive: Arc<AtomicBool>,
    peer: String,
}

impl Demux {
    /// Handles what one read produced; `false` once the connection is done.
    fn on_read(&self, got: RmiResult<Option<PooledBuf>>) -> bool {
        match got {
            Ok(Some(body)) => self.deliver(body),
            Ok(None) => {
                trace::emit_with(TraceLevel::Debug, "demux", || {
                    format!("connection to {} closed by peer", self.peer)
                });
                false
            }
            Err(e) => {
                trace::emit_with(TraceLevel::Warn, "demux", || {
                    format!("read failure on connection to {}: {e}", self.peer)
                });
                false
            }
        }
    }

    /// Routes one reply body: a registered stream gets the frame queued
    /// (unregistering on the final chunk or an unchunked envelope), a
    /// pending one-shot caller gets woken, and anything else is a late
    /// reply, dropped. Streams are checked first, so a chunk frame can
    /// never wake a one-shot caller. Returns `false` when the body is
    /// unintelligible — the connection is then given up on.
    fn deliver(&self, body: PooledBuf) -> bool {
        let protocol = self.comm.protocol().as_ref();
        let id = match peek_reply_id(&body, protocol) {
            Ok(id) => id,
            Err(e) => {
                trace::emit_with(TraceLevel::Warn, "demux", || {
                    format!("unintelligible reply from {}: {e}", self.peer)
                });
                return false;
            }
        };
        if let Some(slot) = self.streams.get(id) {
            // The final chunk — or an unchunked reply, which ends a stream
            // in one envelope — retires the registration.
            let last = protocol.extract_chunk(&body).is_none_or(|(_, last)| last);
            slot.push(body);
            if last {
                self.streams.remove(id);
            }
        } else if let Some(slot) = self.pending.remove(id) {
            slot.deliver(Ok(body));
        } else {
            trace::emit_with(TraceLevel::Debug, "demux", || {
                format!("dropping late reply from {}", self.peer)
            });
        }
        true
    }
}

impl Drop for Demux {
    fn drop(&mut self) {
        self.alive.store(false, Ordering::SeqCst);
        let slots = self.pending.drain();
        if !slots.is_empty() {
            trace::emit_with(TraceLevel::Warn, "demux", || {
                format!("disconnecting {} pending caller(s) on {}", slots.len(), self.peer)
            });
        }
        for slot in slots {
            slot.deliver(Err(RmiError::Disconnected));
        }
        for slot in self.streams.drain() {
            slot.fail(RmiError::Disconnected);
        }
    }
}

/// The blocking driver: a `heidl-demux-*` thread reading until the
/// connection dies.
fn demux_loop(mut demux: Demux) {
    loop {
        let got = demux.comm.recv();
        if !demux.on_read(got) {
            return;
        }
    }
}

/// The reactor driver: every readiness event on the process-wide client
/// reactor delivers what arrived; the source drops with the connection.
impl Source for Demux {
    fn fd(&self) -> i32 {
        self.comm.raw_fd().unwrap_or(-1)
    }

    fn on_ready(&mut self, events: u32, _reactor: &ReactorHandle) -> Action {
        if events & EPOLLERR != 0 {
            return Action::Drop;
        }
        while let Some(got) = self.comm.try_recv() {
            if !self.on_read(got) {
                return Action::Drop;
            }
        }
        Action::Keep
    }
}

/// A checked-out connection: an RAII guard around the shared
/// [`MuxConnection`], recording whether it came from the cache (the input
/// to the stale-connection retry heuristic). Dropping the guard checks the
/// connection back in.
pub struct CheckedOut {
    conn: Arc<MuxConnection>,
    from_cache: bool,
}

impl std::fmt::Debug for CheckedOut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckedOut")
            .field("peer", &self.conn.peer())
            .field("from_cache", &self.from_cache)
            .finish()
    }
}

impl CheckedOut {
    /// Whether this connection was already pooled at checkout time. A
    /// failure on a cached connection may just mean it went stale while
    /// idle, so — when the failure's retry-safety class permits — it is
    /// worth one retry on a fresh connection; a failure on a fresh
    /// connection is not.
    pub fn from_cache(&self) -> bool {
        self.from_cache
    }

    /// The underlying shared connection.
    pub fn connection(&self) -> &Arc<MuxConnection> {
        &self.conn
    }
}

impl Deref for CheckedOut {
    type Target = MuxConnection;
    fn deref(&self) -> &MuxConnection {
        &self.conn
    }
}

impl Drop for CheckedOut {
    fn drop(&mut self) {
        self.conn.release();
    }
}

/// The per-address-space connection cache.
///
/// `checkout` hands back a guard over the endpoint's shared multiplexed
/// connection, opening a fresh one only when none exists (or when every
/// pooled connection is busy and the per-endpoint cap allows growth).
/// Experiment E3 measures exactly this cache's effect.
pub struct ConnectionPool {
    conns: Mutex<HashMap<Endpoint, Vec<Arc<MuxConnection>>>>,
    /// Total fresh connections opened (observability for tests/benches).
    opened: AtomicU64,
    /// When false, every checkout opens a throwaway connection — the
    /// "no cache" ablation arm of E3.
    caching: AtomicBool,
    /// Upper bound on pooled connections per endpoint; beyond it, calls
    /// multiplex onto the existing sockets.
    max_per_endpoint: AtomicUsize,
    /// How fresh connections are dialed; [`TcpConnector`] by default,
    /// swappable for fault injection.
    connector: Mutex<Arc<dyn Connector>>,
    /// Which demux engine fresh connections use (see
    /// [`MuxConnection::over_mode`]).
    transport_mode: Mutex<TransportMode>,
    /// One circuit breaker per endpoint, created on demand with
    /// `breaker_config`.
    breakers: Mutex<HashMap<Endpoint, Arc<CircuitBreaker>>>,
    /// Tuning applied to breakers as they are created.
    breaker_config: Mutex<BreakerConfig>,
    /// Observer attached to breakers as they are created (the owning
    /// ORB's metrics registry counts their transitions).
    breaker_observer: Mutex<Option<Arc<dyn BreakerObserver>>>,
    /// Endpoint-aware transition listeners (see
    /// [`ConnectionPool::add_breaker_listener`]). Shared with the adapter
    /// observer wrapped around every breaker, so listeners registered
    /// *after* a breaker was created still hear its transitions.
    breaker_listeners: Arc<Mutex<Vec<Arc<dyn BreakerListener>>>>,
}

/// Endpoint-aware circuit-breaker transition notifications.
///
/// [`BreakerObserver`] deliberately carries no endpoint (a breaker does
/// not know what it guards); the pool does, so it wraps every breaker it
/// creates with an adapter that forwards transitions here *with* the
/// endpoint attached. Resolver caches use this to invalidate cached
/// `resolve` results the moment a failover leg trips [`BreakerState::Open`]
/// — rather than dialing a dead backend for a full cache TTL.
pub trait BreakerListener: Send + Sync {
    /// Called once per state transition of the breaker guarding
    /// `endpoint`, outside the breaker's lock (listeners may call back
    /// into the pool).
    fn on_breaker_transition(&self, endpoint: &Endpoint, from: BreakerState, to: BreakerState);
}

/// The pool's per-breaker observer: forwards to the ORB-level observer
/// (metrics) and fans out to the endpoint-aware listeners.
struct EndpointObserver {
    endpoint: Endpoint,
    inner: Option<Arc<dyn BreakerObserver>>,
    listeners: Arc<Mutex<Vec<Arc<dyn BreakerListener>>>>,
}

impl BreakerObserver for EndpointObserver {
    fn on_transition(&self, from: BreakerState, to: BreakerState) {
        if let Some(obs) = &self.inner {
            obs.on_transition(from, to);
        }
        // Snapshot under the lock, notify outside it.
        let listeners = self.listeners.lock().clone();
        for listener in listeners {
            listener.on_breaker_transition(&self.endpoint, from, to);
        }
    }
}

impl std::fmt::Debug for ConnectionPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConnectionPool")
            .field("opened", &self.opened_count())
            .field("caching", &self.caching_enabled())
            .field("max_per_endpoint", &self.max_connections_per_endpoint())
            .finish()
    }
}

impl Default for ConnectionPool {
    fn default() -> Self {
        ConnectionPool::new()
    }
}

impl ConnectionPool {
    /// Creates an empty pool with caching enabled and one shared
    /// connection per endpoint.
    pub fn new() -> Self {
        ConnectionPool {
            conns: Mutex::new(HashMap::new()),
            opened: AtomicU64::new(0),
            caching: AtomicBool::new(true),
            max_per_endpoint: AtomicUsize::new(1),
            connector: Mutex::new(Arc::new(TcpConnector)),
            transport_mode: Mutex::new(TransportMode::Threaded),
            breakers: Mutex::new(HashMap::new()),
            breaker_config: Mutex::new(BreakerConfig::disabled()),
            breaker_observer: Mutex::new(None),
            breaker_listeners: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Replaces the connector fresh connections are dialed through.
    pub fn set_connector(&self, connector: Arc<dyn Connector>) {
        *self.connector.lock() = connector;
    }

    /// The connector fresh connections are dialed through.
    pub fn connector(&self) -> Arc<dyn Connector> {
        Arc::clone(&self.connector.lock())
    }

    /// Selects the demux engine for connections opened from now on (see
    /// [`MuxConnection::over_mode`]); already-pooled connections keep
    /// whichever engine they were opened with.
    pub fn set_transport_mode(&self, mode: TransportMode) {
        *self.transport_mode.lock() = mode;
    }

    /// The demux engine fresh connections will use.
    pub fn transport_mode(&self) -> TransportMode {
        *self.transport_mode.lock()
    }

    /// Sets the tuning for breakers created from now on. Already-created
    /// breakers keep their tuning; call [`ConnectionPool::reset_breakers`]
    /// to rebuild them.
    pub fn set_breaker_config(&self, config: BreakerConfig) {
        *self.breaker_config.lock() = config;
    }

    /// The tuning applied to newly created breakers.
    pub fn breaker_config(&self) -> BreakerConfig {
        *self.breaker_config.lock()
    }

    /// Attaches an observer to breakers created from now on (already
    /// created breakers are unaffected; call
    /// [`ConnectionPool::reset_breakers`] to rebuild them observed).
    pub fn set_breaker_observer(&self, observer: Arc<dyn BreakerObserver>) {
        *self.breaker_observer.lock() = Some(observer);
    }

    /// Registers an endpoint-aware [`BreakerListener`]. Unlike
    /// [`ConnectionPool::set_breaker_observer`], listeners take effect for
    /// *already-created* breakers too — every breaker's adapter observer
    /// reads the shared listener list at notification time.
    pub fn add_breaker_listener(&self, listener: Arc<dyn BreakerListener>) {
        self.breaker_listeners.lock().push(listener);
    }

    /// The circuit breaker guarding `endpoint`, created on first use.
    ///
    /// Breakers are deliberately *not* evicted with their connections
    /// (their failure history is most valuable exactly while an endpoint
    /// has none), so the map grows with the number of distinct endpoints
    /// ever contacted. Long-running clients that touch unbounded endpoint
    /// sets reclaim the memory with [`ConnectionPool::clear`] or
    /// [`ConnectionPool::reset_breakers`].
    pub fn breaker(&self, endpoint: &Endpoint) -> Arc<CircuitBreaker> {
        let mut breakers = self.breakers.lock();
        if let Some(b) = breakers.get(endpoint) {
            return Arc::clone(b);
        }
        let config = *self.breaker_config.lock();
        let adapter = Arc::new(EndpointObserver {
            endpoint: endpoint.clone(),
            inner: self.breaker_observer.lock().clone(),
            listeners: Arc::clone(&self.breaker_listeners),
        });
        let b = Arc::new(CircuitBreaker::with_observer(config, adapter));
        breakers.insert(endpoint.clone(), Arc::clone(&b));
        b
    }

    /// Drops every per-endpoint breaker so the next call recreates them
    /// (fresh and Closed) with the current config.
    pub fn reset_breakers(&self) {
        self.breakers.lock().clear();
    }

    /// Enables or disables caching (E3's ablation switch).
    pub fn set_caching(&self, on: bool) {
        self.caching.store(on, Ordering::Relaxed);
        if !on {
            self.conns.lock().clear();
        }
    }

    /// Whether checkouts share pooled connections.
    pub fn caching_enabled(&self) -> bool {
        self.caching.load(Ordering::Relaxed)
    }

    /// Number of fresh connections opened through this pool.
    pub fn opened_count(&self) -> u64 {
        self.opened.load(Ordering::Relaxed)
    }

    /// The per-endpoint pooled-connection cap.
    pub fn max_connections_per_endpoint(&self) -> usize {
        self.max_per_endpoint.load(Ordering::Relaxed)
    }

    /// Sets the per-endpoint pooled-connection cap (minimum 1).
    pub fn set_max_connections_per_endpoint(&self, max: usize) {
        self.max_per_endpoint.store(max.max(1), Ordering::Relaxed);
    }

    /// Gets a connection to `endpoint`: the endpoint's shared multiplexed
    /// connection when pooled, else fresh. Pooled connections whose demux
    /// thread has died (stale entries: the server closed them while idle)
    /// are evicted here, *before* any request bytes are written — the one
    /// point where replacing them is provably safe for every call,
    /// idempotent or not.
    ///
    /// # Errors
    ///
    /// [`RmiError::ConnectFailed`] naming the endpoint that refused.
    pub fn checkout(
        &self,
        endpoint: &Endpoint,
        protocol: &Arc<dyn Protocol>,
    ) -> RmiResult<CheckedOut> {
        let connector = self.connector();
        let mode = self.transport_mode();
        if !self.caching_enabled() {
            let conn = MuxConnection::via_mode(connector.as_ref(), endpoint, protocol, mode)?;
            self.opened.fetch_add(1, Ordering::Relaxed);
            conn.borrow();
            return Ok(CheckedOut { conn, from_cache: false });
        }
        // The connect below stays under the lock on purpose: the cap on
        // sockets per endpoint is a hard guarantee, not best-effort.
        let mut conns = self.conns.lock();
        let list = conns.entry(endpoint.clone()).or_default();
        // A dead connection can never deliver a reply; drop it now, while
        // nothing of the caller's request has touched the wire.
        list.retain(|c| c.is_alive());
        let max = self.max_connections_per_endpoint();
        if let Some(best) = list.iter().min_by_key(|c| c.borrowed()) {
            if best.borrowed() == 0 || list.len() >= max {
                let conn = Arc::clone(best);
                conn.borrow();
                return Ok(CheckedOut { conn, from_cache: true });
            }
        }
        let conn = MuxConnection::via_mode(connector.as_ref(), endpoint, protocol, mode)?;
        self.opened.fetch_add(1, Ordering::Relaxed);
        conn.borrow();
        list.push(Arc::clone(&conn));
        Ok(CheckedOut { conn, from_cache: false })
    }

    /// Removes a (presumed broken) connection from the pool so the next
    /// checkout opens a fresh one. In-flight guards keep it alive until
    /// they drop.
    pub fn discard(&self, endpoint: &Endpoint, conn: &Arc<MuxConnection>) {
        if let Some(list) = self.conns.lock().get_mut(endpoint) {
            list.retain(|c| !Arc::ptr_eq(c, conn));
        }
    }

    /// Test hook: replaces the endpoint's pooled connections with `conn`,
    /// as if it had been opened and cached by a prior call. Only compiled
    /// for tests and under the `testing` feature — production code cannot
    /// smuggle connections past the pool's accounting.
    #[cfg(any(test, feature = "testing"))]
    pub fn inject(&self, endpoint: &Endpoint, conn: Arc<MuxConnection>) {
        self.conns.lock().insert(endpoint.clone(), vec![conn]);
    }

    /// Drops all pooled connections *and* their per-endpoint breakers
    /// (e.g. after an endpoint restart, or to reclaim breaker memory in a
    /// client that has contacted many distinct endpoints). Use
    /// [`ConnectionPool::reset_breakers`] to rebuild breakers alone.
    pub fn clear(&self) {
        self.conns.lock().clear();
        self.breakers.lock().clear();
    }

    /// Number of pooled connections to `endpoint` not currently checked
    /// out by any caller.
    pub fn idle_count(&self, endpoint: &Endpoint) -> usize {
        self.conns
            .lock()
            .get(endpoint)
            .map_or(0, |list| list.iter().filter(|c| c.borrowed() == 0).count())
    }

    /// Total pooled connections across every endpoint (occupancy gauge).
    pub fn pooled_count(&self) -> usize {
        self.conns.lock().values().map(Vec::len).sum()
    }

    /// Total calls awaiting replies across every pooled connection — the
    /// live pending-table occupancy (gauge for `_metrics.dump`).
    pub fn pending_total(&self) -> usize {
        self.conns.lock().values().flatten().map(|c| c.in_flight()).sum()
    }

    /// Fills `scan` with every pooled connection — the heartbeat probe
    /// walks it outside the pool lock so a slow ping never blocks
    /// checkouts. `scan` is reused tick after tick: an endpoint slot is
    /// re-cloned only when its endpoint changed, so a steady pool scans
    /// without allocating.
    pub(crate) fn scan(&self, scan: &mut PoolScan) {
        scan.conns.clear();
        let conns = self.conns.lock();
        for (n, (endpoint, list)) in conns.iter().enumerate() {
            match scan.endpoints.get_mut(n) {
                Some(slot) if slot == endpoint => {}
                Some(slot) => *slot = endpoint.clone(),
                None => scan.endpoints.push(endpoint.clone()),
            }
            scan.conns.extend(list.iter().map(|conn| (n, Arc::clone(conn))));
        }
        scan.endpoints.truncate(conns.len());
    }
}

/// A snapshot of the pool, filled by [`ConnectionPool::scan`].
#[derive(Default)]
pub(crate) struct PoolScan {
    /// Every endpoint the pool holds connections for.
    pub(crate) endpoints: Vec<Endpoint>,
    /// Each pooled connection, with the index of its endpoint.
    pub(crate) conns: Vec<(usize, Arc<MuxConnection>)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::call::next_request_id;
    use crate::transport::{InProcTransport, TcpTransport};
    use heidl_wire::{CdrProtocol, TextProtocol};
    use std::io::Write;
    use std::net::TcpListener;

    fn text() -> Arc<dyn Protocol> {
        Arc::new(TextProtocol)
    }

    /// A body that leads with `id`, as every real request/reply does.
    fn tagged_body(id: u64, payload: &str) -> Vec<u8> {
        let p = TextProtocol;
        let mut enc = p.encoder();
        enc.put_ulonglong(id);
        enc.put_string(payload);
        enc.finish()
    }

    /// An echo server over TCP that serves any number of connections.
    fn spawn_echo_server() -> u16 {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        std::thread::spawn(move || {
            for stream in listener.incoming().flatten() {
                std::thread::spawn(move || {
                    let t = TcpTransport::from_stream(stream).unwrap();
                    let mut c = ObjectCommunicator::new(Box::new(t), Arc::new(TextProtocol));
                    while let Ok(Some(m)) = c.recv() {
                        let _ = c.send(&m);
                    }
                });
            }
        });
        port
    }

    #[test]
    fn send_recv_over_inproc() {
        let (a, b) = InProcTransport::pair();
        let mut ca = ObjectCommunicator::new(Box::new(a), text());
        let mut cb = ObjectCommunicator::new(Box::new(b), text());
        ca.send(b"\"m1\"").unwrap();
        ca.send(b"\"m2\"").unwrap();
        assert_eq!(cb.recv().unwrap().unwrap(), b"\"m1\"");
        assert_eq!(cb.recv().unwrap().unwrap(), b"\"m2\"");
    }

    #[test]
    fn recv_none_on_orderly_close() {
        let (a, b) = InProcTransport::pair();
        let mut cb = ObjectCommunicator::new(Box::new(b), text());
        drop(a);
        assert!(cb.recv().unwrap().is_none());
    }

    #[test]
    fn recv_disconnected_mid_frame() {
        let (mut a, b) = InProcTransport::pair();
        let mut cb = ObjectCommunicator::new(Box::new(b), Arc::new(CdrProtocol));
        // half a GIOP header, then close
        a.send(b"GIOP\x01").unwrap();
        drop(a);
        assert!(matches!(cb.recv(), Err(RmiError::Disconnected)));
    }

    #[test]
    fn round_trip_echo() {
        let (a, b) = InProcTransport::pair();
        let mut ca = ObjectCommunicator::new(Box::new(a), text());
        let mut cb = ObjectCommunicator::new(Box::new(b), text());
        let server = std::thread::spawn(move || {
            let msg = cb.recv().unwrap().unwrap();
            cb.send(&msg).unwrap();
        });
        assert_eq!(ca.round_trip(b"\"x\"").unwrap(), b"\"x\"");
        server.join().unwrap();
    }

    #[test]
    fn mux_correlates_out_of_order_replies() {
        let (a, b) = InProcTransport::pair();
        let mut server = ObjectCommunicator::new(Box::new(b), text());
        let conn = MuxConnection::over(Box::new(a), text()).unwrap();

        // The server reads both requests before answering, then replies
        // in reverse order.
        let server_thread = std::thread::spawn(move || {
            let first = server.recv().unwrap().unwrap();
            let second = server.recv().unwrap().unwrap();
            server.send(&second).unwrap();
            server.send(&first).unwrap();
        });

        let (id1, id2) = (next_request_id(), next_request_id());
        let c2 = Arc::clone(&conn);
        let caller1 = std::thread::spawn(move || c2.call(id1, &tagged_body(id1, "one"), None));
        // Make it likely caller1's request is first on the wire.
        std::thread::sleep(Duration::from_millis(20));
        let c3 = Arc::clone(&conn);
        let caller2 = std::thread::spawn(move || c3.call(id2, &tagged_body(id2, "two"), None));

        assert_eq!(caller1.join().unwrap().unwrap(), tagged_body(id1, "one"));
        assert_eq!(caller2.join().unwrap().unwrap(), tagged_body(id2, "two"));
        server_thread.join().unwrap();
    }

    #[test]
    fn mux_deadline_drops_late_reply_without_poisoning() {
        let (a, b) = InProcTransport::pair();
        let mut server = ObjectCommunicator::new(Box::new(b), text());
        let conn = MuxConnection::over(Box::new(a), text()).unwrap();

        let server_thread = std::thread::spawn(move || {
            // Never answer the first request; answer the second promptly,
            // then send the first reply far too late.
            let first = server.recv().unwrap().unwrap();
            let second = server.recv().unwrap().unwrap();
            server.send(&second).unwrap();
            std::thread::sleep(Duration::from_millis(80));
            server.send(&first).unwrap();
            // Keep the connection up until the client is done.
            let _ = server.recv();
        });

        let id1 = next_request_id();
        let err =
            conn.call(id1, &tagged_body(id1, "slow"), Some(Duration::from_millis(40))).unwrap_err();
        assert!(matches!(err, RmiError::DeadlineExceeded { .. }), "{err}");

        // The same shared connection still works for the next caller.
        let id2 = next_request_id();
        assert_eq!(
            conn.call(id2, &tagged_body(id2, "fast"), None).unwrap(),
            tagged_body(id2, "fast")
        );
        assert_eq!(conn.in_flight(), 0);
        drop(conn);
        server_thread.join().unwrap();
    }

    #[test]
    fn mux_death_wakes_all_pending_callers() {
        let (a, b) = InProcTransport::pair();
        let mut server = ObjectCommunicator::new(Box::new(b), text());
        let conn = MuxConnection::over(Box::new(a), text()).unwrap();

        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&conn);
                let id = next_request_id();
                std::thread::spawn(move || c.call(id, &tagged_body(id, "x"), None))
            })
            .collect();
        // Swallow the requests, then drop the connection entirely.
        for _ in 0..4 {
            server.recv().unwrap().unwrap();
        }
        drop(server);
        for h in handles {
            assert!(matches!(h.join().unwrap(), Err(RmiError::Disconnected)));
        }
        assert!(!conn.is_alive());
    }

    #[test]
    fn pool_shares_one_connection_per_endpoint() {
        let port = spawn_echo_server();
        let pool = ConnectionPool::new();
        let ep = Endpoint::new("tcp", "127.0.0.1", port);
        let proto: Arc<dyn Protocol> = Arc::new(TextProtocol);

        for _ in 0..5 {
            let c = pool.checkout(&ep, &proto).unwrap();
            assert!(c.from_cache() || pool.opened_count() == 1);
            let id = next_request_id();
            assert_eq!(c.call(id, &tagged_body(id, "hi"), None).unwrap(), tagged_body(id, "hi"));
        }
        assert_eq!(pool.opened_count(), 1, "one connection multiplexed five times");
        assert_eq!(pool.idle_count(&ep), 1);

        // With caching off, every call opens a throwaway connection.
        pool.set_caching(false);
        for _ in 0..3 {
            let c = pool.checkout(&ep, &proto).unwrap();
            assert!(!c.from_cache());
            let id = next_request_id();
            assert_eq!(c.call(id, &tagged_body(id, "hi"), None).unwrap(), tagged_body(id, "hi"));
        }
        assert_eq!(pool.opened_count(), 4);
        assert_eq!(pool.idle_count(&ep), 0);
    }

    #[test]
    fn pool_grows_only_to_the_per_endpoint_cap() {
        let port = spawn_echo_server();
        let pool = ConnectionPool::new();
        pool.set_max_connections_per_endpoint(2);
        let ep = Endpoint::new("tcp", "127.0.0.1", port);
        let proto: Arc<dyn Protocol> = Arc::new(TextProtocol);

        // Hold three checkouts at once: the third must share a socket.
        let a = pool.checkout(&ep, &proto).unwrap();
        let b = pool.checkout(&ep, &proto).unwrap();
        let c = pool.checkout(&ep, &proto).unwrap();
        assert_eq!(pool.opened_count(), 2);
        assert!(!a.from_cache());
        assert!(!b.from_cache());
        assert!(c.from_cache());
        drop((a, b, c));
        assert_eq!(pool.idle_count(&ep), 2);

        // Released connections are reused, not reopened.
        let d = pool.checkout(&ep, &proto).unwrap();
        assert!(d.from_cache());
        assert_eq!(pool.opened_count(), 2);
    }

    #[test]
    fn discard_removes_only_that_connection() {
        let port = spawn_echo_server();
        let pool = ConnectionPool::new();
        pool.set_max_connections_per_endpoint(2);
        let ep = Endpoint::new("tcp", "127.0.0.1", port);
        let proto: Arc<dyn Protocol> = Arc::new(TextProtocol);
        let a = pool.checkout(&ep, &proto).unwrap();
        let b = pool.checkout(&ep, &proto).unwrap();
        pool.discard(&ep, a.connection());
        drop((a, b));
        assert_eq!(pool.idle_count(&ep), 1);
    }

    #[test]
    fn checkout_failure_names_the_endpoint() {
        let pool = ConnectionPool::new();
        // Port 1 on localhost is essentially guaranteed closed.
        let ep = Endpoint::new("tcp", "127.0.0.1", 1);
        let proto: Arc<dyn Protocol> = Arc::new(TextProtocol);
        let err = pool.checkout(&ep, &proto).unwrap_err();
        let RmiError::ConnectFailed { endpoint, .. } = err else {
            panic!("expected ConnectFailed, got {err}");
        };
        assert_eq!(endpoint, "@tcp:127.0.0.1:1");
    }

    #[test]
    fn pool_hands_out_per_endpoint_breakers() {
        let pool = ConnectionPool::new();
        pool.set_breaker_config(BreakerConfig { failure_threshold: 1, ..BreakerConfig::default() });
        let ep = Endpoint::new("tcp", "a", 1);
        let b1 = pool.breaker(&ep);
        let b2 = pool.breaker(&ep);
        assert!(Arc::ptr_eq(&b1, &b2), "same endpoint, same breaker");
        let other = pool.breaker(&Endpoint::new("tcp", "b", 1));
        assert!(!Arc::ptr_eq(&b1, &other));
        b1.record_failure();
        assert_eq!(b2.state(), crate::breaker::BreakerState::Open);
        assert_eq!(other.state(), crate::breaker::BreakerState::Closed, "isolation per endpoint");
        // Reset rebuilds fresh Closed breakers.
        pool.reset_breakers();
        assert_eq!(pool.breaker(&ep).state(), crate::breaker::BreakerState::Closed);
    }

    /// A server that records every received frame and echoes back only
    /// those whose payload contains `"sync"` — lets tests observe oneway
    /// delivery and wire order without a reply correlating to them.
    fn spawn_recording_server() -> (u16, Arc<Mutex<Vec<Vec<u8>>>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let received: Arc<Mutex<Vec<Vec<u8>>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&received);
        std::thread::spawn(move || {
            for stream in listener.incoming().flatten() {
                let sink = Arc::clone(&sink);
                std::thread::spawn(move || {
                    let t = TcpTransport::from_stream(stream).unwrap();
                    let mut c = ObjectCommunicator::new(Box::new(t), Arc::new(TextProtocol));
                    while let Ok(Some(m)) = c.recv() {
                        sink.lock().push(m.clone());
                        if String::from_utf8_lossy(&m).contains("sync") {
                            let _ = c.send(&m);
                        }
                    }
                });
            }
        });
        (port, received)
    }

    #[test]
    fn oneways_then_a_twoway_reach_the_wire_in_program_order() {
        let (port, received) = spawn_recording_server();
        let ep = Endpoint::new("tcp", "127.0.0.1", port);
        let proto: Arc<dyn Protocol> = Arc::new(TextProtocol);
        let conn = MuxConnection::connect(&ep, &proto).unwrap();

        for i in 0..5 {
            conn.send_oneway(&tagged_body(next_request_id(), &format!("ow{i}"))).unwrap();
        }
        let id = next_request_id();
        let body = tagged_body(id, "sync");
        let reply = conn.call(id, &body, Some(Duration::from_secs(10))).unwrap();
        assert_eq!(&*reply, &body[..]);

        // The server recorded the sync before echoing it, and it reads
        // one socket in order, so everything sent before it is recorded.
        let got = received.lock();
        assert_eq!(got.len(), 6, "five oneways plus the sync must have landed");
        for (i, frame) in got[..5].iter().enumerate() {
            assert!(
                String::from_utf8_lossy(frame).contains(&format!("ow{i}")),
                "oneway {i} out of order: {:?}",
                String::from_utf8_lossy(frame)
            );
        }
        assert_eq!(&got[5][..], &body[..], "sync overtook a oneway");
    }

    #[test]
    fn large_and_small_frames_interleave_in_program_order() {
        let (port, received) = spawn_recording_server();
        let ep = Endpoint::new("tcp", "127.0.0.1", port);
        let proto: Arc<dyn Protocol> = Arc::new(TextProtocol);
        let conn = MuxConnection::connect(&ep, &proto).unwrap();

        // Four threads each alternate small and 64 KiB oneways, then a
        // sync call: frames of different threads may interleave, but
        // each thread's own frames land whole and in its order.
        let big = "x".repeat(64 * 1024);
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let c = Arc::clone(&conn);
                let big = big.clone();
                std::thread::spawn(move || {
                    for i in 0..10 {
                        let pad = if i % 2 == 1 { big.as_str() } else { "" };
                        c.send_oneway(&tagged_body(next_request_id(), &format!("t{t}-{i}-{pad}")))
                            .unwrap();
                    }
                    let id = next_request_id();
                    let body = tagged_body(id, &format!("t{t}-sync"));
                    assert_eq!(
                        &*c.call(id, &body, Some(Duration::from_secs(10))).unwrap(),
                        &body[..]
                    );
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let got = received.lock();
        assert_eq!(got.len(), 44);
        for t in 0..4 {
            let prefix = format!("t{t}-");
            let mine: Vec<String> = got
                .iter()
                .map(|f| String::from_utf8_lossy(f).into_owned())
                .filter(|f| f.contains(&prefix))
                .collect();
            assert_eq!(mine.len(), 11, "thread {t} lost a frame");
            for (i, frame) in mine[..10].iter().enumerate() {
                assert!(frame.contains(&format!("t{t}-{i}-")), "thread {t} frame {i} out of order");
                assert_eq!(frame.len() > 64 * 1024, i % 2 == 1, "thread {t} frame {i} torn");
            }
            assert!(mine[10].contains("sync"), "thread {t}'s sync overtook a oneway");
        }
    }

    #[test]
    fn a_send_after_transport_death_fails() {
        let (a, b) = InProcTransport::pair();
        let conn = MuxConnection::over(Box::new(a), text()).unwrap();
        drop(b);
        let deadline = Instant::now() + Duration::from_secs(5);
        while conn.is_alive() {
            assert!(Instant::now() < deadline, "demux never saw the close");
            std::thread::yield_now();
        }
        let id = next_request_id();
        assert!(conn.send_oneway(&tagged_body(id, "x")).is_err(), "oneway onto a dead pipe");
        let err = conn.call(id, &tagged_body(id, "x"), None).unwrap_err();
        assert!(
            matches!(err, RmiError::Disconnected | RmiError::Io(_)),
            "expected a dead-connection error, got {err}"
        );
    }

    // ---- one deframe loop, two ways to drive it ---------------------------
    //
    // The blocking drivers call `recv`, the reactor drivers `try_recv`.
    // Fed the same bytes in the same seeded pieces, the two must return
    // the same frames and end the same way.

    /// Seeded xorshift, so a failing case replays from its seed.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    /// How a stream ends after its whole frames.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Ending {
        /// Orderly close between frames.
        Clean,
        /// Close inside one more frame's header or body.
        MidFrame,
        /// A header declaring `max_frame_bytes + 1`, then silence.
        Oversized,
    }

    /// The frame bound every reader below runs under.
    const MAX_FRAME: u64 = 4 * RECV_CHUNK as u64;

    /// Body lengths around the read size, cycled so each shows up.
    const SIZES: [usize; 10] = [
        0,
        1,
        100,
        RECV_CHUNK - 13,
        RECV_CHUNK - 1,
        RECV_CHUNK,
        RECV_CHUNK + 1,
        2 * RECV_CHUNK + 7,
        60_000,
        3,
    ];

    /// Write sizes: single bytes, a split 12-byte header, pieces
    /// straddling the read size.
    const PIECES: [usize; 12] =
        [1, 2, 3, 7, 12, 13, 100, 4096, RECV_CHUNK - 1, RECV_CHUNK, RECV_CHUNK + 1, 40_000];

    /// Case `seed`: a protocol, the bodies a reader must return, how the
    /// stream ends, and the bytes on the wire.
    fn case(seed: u64) -> (Arc<dyn Protocol>, Vec<Vec<u8>>, Ending, Vec<u8>) {
        let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let cdr = seed % 2 == 1;
        let protocol: Arc<dyn Protocol> =
            if cdr { Arc::new(CdrProtocol) } else { Arc::new(TextProtocol) };
        let endings: &[Ending] = if cdr {
            &[Ending::Clean, Ending::MidFrame, Ending::Oversized]
        } else {
            &[Ending::Clean, Ending::MidFrame]
        };
        let ending = endings[rng.below(endings.len())];
        let mut bodies = Vec::new();
        for i in 0..=rng.below(4) {
            let len =
                SIZES[if i == 0 { seed as usize } else { rng.below(SIZES.len()) } % SIZES.len()];
            // Text frames are lines: no line breaks inside a body.
            let body: Vec<u8> = if cdr {
                (0..len).map(|_| rng.below(256) as u8).collect()
            } else {
                (0..len).map(|_| b"ab \"\\~9"[rng.below(7)]).collect()
            };
            bodies.push(body);
        }
        let mut wire = Vec::new();
        for body in &bodies {
            protocol.frame(body, &mut wire);
        }
        match ending {
            Ending::Clean => {}
            Ending::MidFrame => {
                // A non-empty body, so even a text frame has an inside.
                let mut last = Vec::new();
                protocol.frame(&[&bodies[rng.below(bodies.len())][..], b"x"].concat(), &mut last);
                wire.extend_from_slice(&last[..1 + rng.below(last.len() - 1)]);
            }
            Ending::Oversized => {
                wire.extend_from_slice(b"GIOP\x01\x00\x01\x00");
                wire.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
            }
        }
        (protocol, bodies, ending, wire)
    }

    /// Every frame a reader returned, then how the stream ended (`"eof"`
    /// for an orderly close, else the error), and whether a body buffer
    /// was left waiting to be filled.
    type Transcript = (Vec<Vec<u8>>, String, bool);

    fn read_blocking(mut comm: ObjectCommunicator) -> Transcript {
        let mut frames = Vec::new();
        let end = loop {
            match comm.recv() {
                Ok(Some(body)) => frames.push(body.to_vec()),
                Ok(None) => break "eof".to_owned(),
                Err(e) => break format!("{e:?}"),
            }
        };
        (frames, end, comm.inbuf.filling_body())
    }

    fn read_polling(mut comm: ObjectCommunicator) -> Transcript {
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut frames = Vec::new();
        let end = loop {
            match comm.try_recv() {
                Some(Ok(Some(body))) => frames.push(body.to_vec()),
                Some(Ok(None)) => break "eof".to_owned(),
                Some(Err(e)) => break format!("{e:?}"),
                None if Instant::now() > deadline => break "stalled".to_owned(),
                None => std::thread::sleep(Duration::from_micros(200)),
            }
        };
        (frames, end, comm.inbuf.filling_body())
    }

    /// Reads case `seed` over two loopback connections at once, one per
    /// entry point, writing each seeded piece to both.
    fn both_readers(seed: u64) -> (Transcript, Transcript) {
        let (protocol, _, ending, wire) = case(seed);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut readers = Vec::new();
        let mut writers = Vec::new();
        for polling in [false, true] {
            writers.push(std::net::TcpStream::connect(addr).unwrap());
            let (stream, _) = listener.accept().unwrap();
            // A reader that waits for bytes that never come fails the
            // comparison instead of hanging the test.
            stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let transport = Box::new(TcpTransport::from_stream(stream).unwrap());
            let limits = DecodeLimits::default().with_max_frame_bytes(MAX_FRAME);
            let comm = ObjectCommunicator::with_limits(transport, Arc::clone(&protocol), limits);
            readers.push(std::thread::spawn(move || {
                if polling {
                    read_polling(comm)
                } else {
                    read_blocking(comm)
                }
            }));
        }
        let mut rng = Rng(seed ^ 0x2545_F491_4F6C_DD1D);
        let mut rest = &wire[..];
        while !rest.is_empty() {
            let n = PIECES[rng.below(PIECES.len())].min(rest.len());
            for writer in &mut writers {
                writer.write_all(&rest[..n]).unwrap();
            }
            rest = &rest[n..];
            if rng.below(3) == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        if ending != Ending::Oversized {
            for writer in &writers {
                writer.shutdown(std::net::Shutdown::Write).unwrap();
            }
        }
        let polled = readers.pop().unwrap().join().unwrap();
        let blocked = readers.pop().unwrap().join().unwrap();
        (blocked, polled)
    }

    #[test]
    fn recv_and_try_recv_return_the_same_frames_and_the_same_end() {
        for seed in 0..40 {
            let (_, bodies, ending, _) = case(seed);
            let (blocked, polled) = both_readers(seed);
            assert_eq!(blocked, polled, "seed {seed}: recv and try_recv disagree ({ending:?})");
            let (frames, end, filling) = blocked;
            assert_eq!(frames, bodies, "seed {seed}: frames ({ending:?})");
            match ending {
                Ending::Clean => assert_eq!(end, "eof", "seed {seed}"),
                Ending::MidFrame => assert_eq!(end, "Disconnected", "seed {seed}"),
                Ending::Oversized => {
                    assert!(end.contains("Bounds"), "seed {seed}: {end}");
                    assert!(!filling, "seed {seed}: a body buffer was made for the refused frame");
                }
            }
        }
    }

    #[test]
    fn debug_impls_are_nonempty() {
        let (a, _b) = InProcTransport::pair();
        let c = ObjectCommunicator::new(Box::new(a), text());
        assert!(format!("{c:?}").contains("inproc"));
        assert!(format!("{:?}", ConnectionPool::new()).contains("opened"));
    }
}
