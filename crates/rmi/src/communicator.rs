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
//! the read half, and is a token the callers pass around
//! (leader/followers, DESIGN decision 22) whichever engine the ORB runs:
//! as in the paper's Fig 4, a caller reads its own reply, and the frames
//! it reads for others on the way go to their mailboxes.
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
use crate::trace::{self, TraceLevel};
use crate::transport::{Connector, InProcTransport, TcpConnector, Transport};
use heidl_wire::{pool, DecodeLimits, FrameBuf, PooledBuf, Protocol, MAX_FRAME_HEADER, RECV_CHUNK};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::io;
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
/// read by a blocking thread or on a readiness event, deframes through
/// [`Self::recv`] or its nonblocking twin [`Self::try_recv`].
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

    /// The read half's file descriptor, when it has one to read without
    /// blocking.
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

    /// The next frame, waited for until `deadline` (`None` once it
    /// passes first): [`Self::recv`] without a deadline; with one, a wait
    /// for readability with a timeout and reads that do not block.
    fn recv_until(&mut self, deadline: Option<Instant>) -> Option<RmiResult<Option<PooledBuf>>> {
        let Some(deadline) = deadline else { return Some(self.recv()) };
        loop {
            if let Some(got) = self.try_recv() {
                return Some(got);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            if let Err(e) = self.transport.wait_readable(deadline - now) {
                return Some(Err(e.into()));
            }
        }
    }

    /// The next frame if one is to be had without waiting for the peer to
    /// send more, else `None`. One that is buffered whole comes at once;
    /// one whose bytes have begun to arrive, in the buffer or on one read
    /// that does not block, is read to its end as [`Self::recv_until`]
    /// reads, since a peer never stops mid-frame — so a large body still
    /// arrives straight into its own buffer, not [`RECV_CHUNK`] at a time.
    fn recv_readable(&mut self, deadline: Option<Instant>) -> Option<RmiResult<Option<PooledBuf>>> {
        if self.inbuf.is_empty() {
            let (input, max) = self.inbuf.input();
            match self.transport.try_recv_into(input, max) {
                Ok(Some(0)) => return Some(self.closed()),
                Ok(Some(_)) => {}
                Ok(None) => return None,
                Err(e) => return Some(Err(e.into())),
            }
        }
        self.recv_until(deadline)
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

/// Poll budget `(busy, yields)` for [`Mailbox::follow`]: lock-and-check
/// polls before parking. Spinning only pays off while the leader runs on
/// *another* core; on a single-CPU host it would stall the very thread
/// about to deliver, so there the budget is yield-only.
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

/// What a [`Mailbox`] holds for its owner.
pub(crate) trait Contents {
    /// Whether a delivery or a failure is in: the owner's wait is over.
    fn ready(&self) -> bool;
}

/// The lock-protected state of a [`Mailbox`].
pub(crate) struct Mail<C> {
    contents: C,
    /// The owner is inside [`MuxConnection::await_mail`]; only then is it
    /// nudged (a caller still sending would sit on the hand-off).
    waiting: bool,
    /// A leader left the reader token free for this owner. Sticky, so a
    /// nudge that lands before the owner parks is not lost.
    nudged: bool,
}

/// A caller's mailbox: the reader posts the owner's frames here, and a
/// leader leaving the token free nudges the owner here. A one-shot reply
/// and a stream of chunks differ only in their [`Contents`].
pub(crate) struct Mailbox<C> {
    mail: Mutex<Mail<C>>,
    cv: Condvar,
}

impl<C: Contents> Mailbox<C> {
    fn new(contents: C) -> Mailbox<C> {
        Mailbox {
            mail: Mutex::new(Mail { contents, waiting: false, nudged: false }),
            cv: Condvar::new(),
        }
    }

    /// Changes the contents and wakes the owner.
    fn post(&self, change: impl FnOnce(&mut C)) {
        change(&mut self.mail.lock().contents);
        self.cv.notify_one();
    }

    fn ready(&self) -> bool {
        self.mail.lock().contents.ready()
    }

    /// The owner stops waiting; whether it holds an unused nudge to pass on.
    fn leave(&self) -> bool {
        let mut mail = self.mail.lock();
        mail.waiting = false;
        std::mem::take(&mut mail.nudged)
    }

    /// Nudges the owner if it waits with nothing delivered; whether it did.
    fn nudge(&self) -> bool {
        let mut mail = self.mail.lock();
        if !mail.waiting || mail.contents.ready() {
            return false;
        }
        mail.nudged = true;
        drop(mail);
        self.cv.notify_one();
        true
    }

    /// Waits until the contents are ready or the owner is nudged (the
    /// nudge is consumed); `false` once `deadline` passes first. Polls
    /// first: a loopback reply lands within microseconds.
    fn follow(&self, deadline: Option<Instant>) -> bool {
        let (busy, yields) = wait_poll_budget();
        let (mut mail, mut polls) = (self.mail.lock(), 0);
        loop {
            if mail.contents.ready() || std::mem::take(&mut mail.nudged) {
                return true;
            }
            if polls < busy + yields {
                polls += 1;
                drop(mail);
                if polls <= busy {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
                mail = self.mail.lock();
                continue;
            }
            match deadline {
                None => self.cv.wait(&mut mail),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return false;
                    }
                    self.cv.wait_for(&mut mail, deadline - now);
                }
            }
        }
    }
}

impl Contents for Option<RmiResult<PooledBuf>> {
    fn ready(&self) -> bool {
        self.is_some()
    }
}

/// A one-shot caller's mailbox, *reusable*: each thread keeps one in a
/// thread-local, so steady-state calls allocate nothing for correlation.
/// Whoever holds the `Arc` out of the pending table owns its single
/// delivery, which the caller always consumes before its next call — see
/// the quiescence dance in [`MuxConnection::call`].
type ReplySlot = Mailbox<Option<RmiResult<PooledBuf>>>;

impl ReplySlot {
    /// Posts the result and wakes the caller.
    fn deliver(&self, result: RmiResult<PooledBuf>) {
        self.post(|slot| *slot = Some(result));
    }

    /// Takes the delivery, waiting for it when it is not in yet — it is
    /// then imminent: whoever claimed the pending entry posts right after.
    fn take(&self) -> RmiResult<PooledBuf> {
        loop {
            if let Some(result) = self.mail.lock().contents.take() {
                return result;
            }
            self.follow(None);
        }
    }
}

thread_local! {
    /// The calling thread's reusable mailbox. A thread has at most one
    /// blocking `call` in progress (it waits inside it), so one slot per
    /// thread suffices — across however many connections it calls on.
    static REPLY_SLOT: Arc<ReplySlot> = Arc::new(Mailbox::new(None));
}

/// A streamed reply's queue: unlike a one-shot reply, it accepts *many*
/// deliveries (one per chunk frame) and tracks the high-water mark of
/// bytes buffered between arrival and consumption — the client half of
/// the bounded-buffering guarantee the per-stream window provides.
#[derive(Default)]
pub(crate) struct StreamQueue {
    queue: std::collections::VecDeque<PooledBuf>,
    /// Terminal failure, delivered once to the consumer.
    error: Option<RmiError>,
    closed: bool,
    buffered: usize,
    high_water: usize,
}

impl Contents for StreamQueue {
    fn ready(&self) -> bool {
        !self.queue.is_empty() || self.closed
    }
}

/// A streamed reply's mailbox.
pub(crate) type StreamSlot = Mailbox<StreamQueue>;

impl StreamSlot {
    /// Enqueues one chunk frame and wakes the consumer.
    fn push(&self, body: PooledBuf) {
        self.post(|st| {
            st.buffered += body.len();
            st.high_water = st.high_water.max(st.buffered);
            st.queue.push_back(body);
        });
    }

    /// Terminates the stream with `err` (connection teardown).
    fn fail(&self, err: RmiError) {
        self.post(|st| {
            st.error.get_or_insert(err);
            st.closed = true;
        });
    }

    /// True when no frame is queued — the consumer is about to block.
    pub(crate) fn is_empty(&self) -> bool {
        self.mail.lock().contents.queue.is_empty()
    }

    /// Peak bytes ever queued between arrival and consumption.
    pub(crate) fn high_water(&self) -> usize {
        self.mail.lock().contents.high_water
    }

    /// Takes the next frame once the slot is ready: the frame, else the
    /// stream's failure.
    fn pop(&self) -> RmiResult<PooledBuf> {
        let st = &mut self.mail.lock().contents;
        match st.queue.pop_front() {
            Some(body) => {
                st.buffered -= body.len();
                Ok(body)
            }
            None => Err(st.error.take().unwrap_or(RmiError::Disconnected)),
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

    /// Nudges one consumer waiting for a chunk; whether one was.
    fn nudge_one(&self) -> bool {
        self.streams.lock().values().any(|slot| slot.nudge())
    }
}

/// How many independent locks the pending-reply table is split across.
const PENDING_SHARDS: usize = 8;

/// A pending-table entry: the caller's mailbox, or `None` for a heartbeat
/// ping, which nobody waits for — the pong just retires the entry.
type Pending = Option<Arc<ReplySlot>>;

/// The pending-reply table, sharded by request id so registration under
/// heavy multiplexing does not serialize every caller on one mutex.
struct PendingTable {
    shards: [Mutex<HashMap<u64, Pending>>; PENDING_SHARDS],
}

impl PendingTable {
    fn new() -> PendingTable {
        PendingTable { shards: std::array::from_fn(|_| Mutex::new(HashMap::new())) }
    }

    fn shard(&self, id: u64) -> &Mutex<HashMap<u64, Pending>> {
        &self.shards[(id % PENDING_SHARDS as u64) as usize]
    }

    fn insert(&self, id: u64, slot: Pending) {
        self.shard(id).lock().insert(id, slot);
    }

    fn remove(&self, id: u64) -> Option<Pending> {
        self.shard(id).lock().remove(&id)
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Claims every registered entry (connection teardown).
    fn drain(&self) -> Vec<Pending> {
        let mut all = Vec::new();
        for shard in &self.shards {
            all.extend(shard.lock().drain().map(|(_, slot)| slot));
        }
        all
    }

    /// Nudges one caller waiting for its reply; whether one was.
    fn nudge_one(&self) -> bool {
        self.shards.iter().any(|shard| shard.lock().values().flatten().any(|slot| slot.nudge()))
    }
}

/// A shared, multiplexed connection to one endpoint.
///
/// Any number of threads may have calls in flight concurrently; each call
/// stamps its request id into the body (done by `Call`), registers a
/// mailbox under that id, writes the frame under a brief lock, and waits
/// for the correlated reply, which may arrive in any order. The waiting
/// callers read: whoever holds the read half leads, posting every frame to
/// its owner, until its own reply is in; the others follow. A call
/// abandoned at its deadline simply unregisters; the late reply is dropped
/// on arrival.
pub struct MuxConnection {
    writer: Mutex<Box<dyn Transport>>,
    /// The read half: the leader's token.
    reader: Mutex<Demux>,
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
    /// When, on the same clock, the token was last held (`u64::MAX`:
    /// never); see [`MuxConnection::probe`].
    last_read: AtomicU64,
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
        let transport = connector
            .connect(endpoint)
            .map_err(|source| RmiError::ConnectFailed { endpoint: endpoint.to_string(), source })?;
        MuxConnection::over(transport, Arc::clone(protocol))
    }

    /// Wraps an arbitrary transport (tests use in-process pipes), splitting
    /// it into a writer and a read half that its callers read; no thread
    /// is spawned (but see [`Demux::pumped`]).
    ///
    /// # Errors
    ///
    /// Fails when the transport cannot be split.
    pub fn over(
        transport: Box<dyn Transport>,
        protocol: Arc<dyn Protocol>,
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
        Ok(Arc::new(MuxConnection {
            writer: Mutex::new(writer),
            reader: Mutex::new(demux.pumped()?),
            protocol,
            pending,
            streams,
            alive,
            borrowed: AtomicUsize::new(0),
            peer,
            last_used: AtomicU64::new(epoch_millis()),
            last_read: AtomicU64::new(u64::MAX),
        }))
    }

    /// Whether the connection can still deliver replies: no read has yet
    /// met its end-of-stream, a read failure or an unintelligible frame.
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
        // Whoever removes the id from `pending` owns the outcome: we (no
        // delivery will come), or a reader or the connection's death (a
        // delivery is in flight and MUST be consumed, so the thread-local
        // slot is quiescent for the next call).
        let slot = REPLY_SLOT.with(Arc::clone);
        self.pending.insert(request_id, Some(Arc::clone(&slot)));
        self.send_registered(body, || {
            if self.pending.remove(request_id).is_none() {
                let _ = slot.take();
            }
        })?;
        if self.await_mail(&slot, deadline.map(|limit| Instant::now() + limit)) {
            return slot.take();
        }
        // Past the deadline, token handed on: unregister so the late reply
        // drops — unless a reader just claimed the slot; then take it.
        match self.pending.remove(request_id) {
            Some(_) => Err(RmiError::DeadlineExceeded { after: deadline.unwrap_or_default() }),
            None => slot.take(),
        }
    }

    /// Writes a request whose reply is registered for; `unregister` runs if
    /// it does not go out (`alive` is checked after registering: see `die`).
    fn send_registered(&self, body: &[u8], unregister: impl FnOnce()) -> RmiResult<()> {
        let sent =
            if self.is_alive() { self.send_framed(body) } else { Err(RmiError::Disconnected) };
        if sent.is_err() {
            unregister();
        }
        sent
    }

    /// Waits until `mailbox` is ready, leading whenever the reader token is
    /// free and following otherwise; `false` once `deadline` passes first.
    ///
    /// A leader leaving, and a follower leaving with an unused nudge, nudge
    /// a waiter with nothing delivered. A waiter is findable (registered,
    /// `waiting` set, each under a lock) before it tries the token, and a
    /// leader looks only after releasing it, so one always sees the other:
    /// the token never sits free while someone waits.
    fn await_mail<C: Contents>(&self, mailbox: &Mailbox<C>, deadline: Option<Instant>) -> bool {
        mailbox.mail.lock().waiting = true;
        let mut led = false;
        let in_time = loop {
            if mailbox.ready() {
                break true;
            }
            if let Some(mut demux) = self.reader.try_lock() {
                led = true;
                let in_time = self.lead(&mut demux, mailbox, deadline);
                self.last_read.store(epoch_millis(), Ordering::Relaxed);
                break in_time;
            }
            if !mailbox.follow(deadline) {
                break false;
            }
        };
        if mailbox.leave() || led {
            self.hand_off();
        }
        in_time
    }

    /// Reads until `mailbox` is ready, posting every frame to its owner;
    /// `false` once `deadline` passes. With a deadline it waits for
    /// readability with a timeout and reads without blocking.
    fn lead<C: Contents>(
        &self,
        demux: &mut Demux,
        mailbox: &Mailbox<C>,
        deadline: Option<Instant>,
    ) -> bool {
        while !mailbox.ready() {
            let Some(got) = demux.comm.recv_until(deadline) else { return false };
            if !demux.on_read(got) {
                demux.die();
            }
        }
        // Post the frames already read for others before leaving (a bad
        // one is left for the next reader to fail on).
        while let Ok(Some(body)) = demux.comm.buffered() {
            if !demux.deliver(body) {
                demux.die();
                break;
            }
        }
        true
    }

    /// Nudges one waiter with nothing delivered (never a ping) to lead.
    fn hand_off(&self) {
        let _ = self.pending.nudge_one() || self.streams.nudge_one();
    }

    /// Reads what has arrived without blocking, if the token is free, then
    /// hands it on: how an idle connection's end-of-stream, late replies
    /// and pongs are seen, since nobody else reads it.
    pub(crate) fn drain(&self) {
        let Some(mut demux) = self.reader.try_lock() else { return };
        // A short read's "kernel buffer emptied" mark is stale by now.
        demux.comm.drained = false;
        while let Some(got) = self.is_alive().then(|| demux.comm.try_recv()).flatten() {
            if !demux.on_read(got) {
                demux.die();
            }
        }
        self.last_read.store(epoch_millis(), Ordering::Relaxed);
        drop(demux);
        self.hand_off();
    }

    /// Whether a pooled connection can take a call, after a
    /// [`drain`](MuxConnection::drain) unless the token was held this
    /// millisecond (a read per checkout would cost a syscall per call).
    pub(crate) fn probe(&self) -> bool {
        if self.last_read.load(Ordering::Relaxed) != epoch_millis() {
            self.drain();
        }
        self.is_alive()
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

    /// Sends a request whose reply arrives as a *stream* of chunk frames
    /// sharing `request_id`, routed into the returned [`StreamSlot`] that a
    /// `ReplyStream` consumes through [`MuxConnection::next_frame`].
    ///
    /// # Errors
    ///
    /// Transport failures; [`RmiError::Disconnected`] when the connection
    /// is already dead.
    pub(crate) fn call_streamed(&self, request_id: u64, body: &[u8]) -> RmiResult<Arc<StreamSlot>> {
        let slot = Arc::new(Mailbox::new(StreamQueue::default()));
        self.streams.insert(request_id, Arc::clone(&slot));
        self.send_registered(body, || drop(self.streams.remove(request_id)))?;
        Ok(slot)
    }

    /// The next frame of a streamed reply, or the stream's failure, waited
    /// for (and read when the token is free) as a two-way caller does;
    /// `None` once `deadline` passes first.
    pub(crate) fn next_frame(
        &self,
        slot: &StreamSlot,
        deadline: Option<Instant>,
    ) -> Option<RmiResult<PooledBuf>> {
        self.await_mail(slot, deadline).then(|| slot.pop())
    }

    /// Reads the frames that are readable now, when the reader token is
    /// free, posting each to its owner, and stops as soon as `slot` holds
    /// one: whether it does (or the stream has failed). `false` also means
    /// the stream's consumer would block — nothing readable is left, or
    /// another caller holds the token — so the server may be waiting for
    /// credit. A frame that has begun to arrive is read to its end, for at
    /// most until `deadline`.
    pub(crate) fn read_readable(&self, slot: &StreamSlot, deadline: Option<Instant>) -> bool {
        if let Some(mut demux) = self.reader.try_lock() {
            while !slot.ready() && self.is_alive() {
                let Some(got) = demux.comm.recv_readable(deadline) else { break };
                if !demux.on_read(got) {
                    demux.die();
                }
            }
            self.last_read.store(epoch_millis(), Ordering::Relaxed);
            drop(demux);
            self.hand_off();
        }
        slot.ready()
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

    /// Sends a fire-and-forget liveness ping under a mailbox-less entry;
    /// the heartbeat probe drains the connection and checks back one tick
    /// later with [`MuxConnection::ping_unanswered`], so N dead peers cost
    /// one tick, not N serial waits.
    ///
    /// # Errors
    ///
    /// Transport failures; [`RmiError::Disconnected`] when the connection
    /// is already dead.
    pub(crate) fn send_ping(&self, request_id: u64, body: &[u8]) -> RmiResult<()> {
        self.pending.insert(request_id, None);
        self.send_registered(body, || drop(self.pending.remove(request_id)))
    }

    /// Settles a [`MuxConnection::send_ping`]: `true` when no pong has
    /// been read (the registration is still pending — a dead peer),
    /// `false` when a reader consumed the pong or the connection's death
    /// retired it. Either way the registration is gone afterwards.
    pub(crate) fn ping_unanswered(&self, request_id: u64) -> bool {
        self.pending.remove(request_id).is_some()
    }

    fn borrow(&self) {
        self.borrowed.fetch_add(1, Ordering::SeqCst);
    }

    fn release(&self) {
        self.borrowed.fetch_sub(1, Ordering::SeqCst);
    }

    /// Outstanding `CheckedOut` borrows (pool observability).
    pub(crate) fn borrow_count(&self) -> usize {
        self.borrowed.load(Ordering::SeqCst)
    }
}

impl Drop for MuxConnection {
    fn drop(&mut self) {
        self.alive.store(false, Ordering::SeqCst);
        // Closes the socket for the peer (and gives a pump thread EOF).
        self.writer.get_mut().shutdown();
    }
}

/// One pooled connection's reply side, whoever reads it: the read half
/// and the tables its replies route into. A reply with no registered
/// caller (its deadline passed) is dropped. Every way the connection can
/// die is traced, then [`Demux::die`] fails every waiting caller and
/// stream; dropping the demux does the same.
struct Demux {
    comm: ObjectCommunicator,
    pending: Arc<PendingTable>,
    streams: Arc<StreamTable>,
    alive: Arc<AtomicBool>,
    peer: String,
}

impl Demux {
    /// A read half that can only block (a zero wait meets the
    /// `Unsupported` default) moves onto a `heidl-pump-{peer}` thread that
    /// forwards what it reads through an in-process pipe; the thread ends
    /// with the stream (or a read failure) or with the connection.
    fn pumped(mut self) -> io::Result<Demux> {
        match self.comm.transport.wait_readable(Duration::ZERO) {
            Err(e) if e.kind() == io::ErrorKind::Unsupported => {}
            _ => return Ok(self),
        }
        let (pipe, mut feed) = InProcTransport::pair();
        let mut blocking = std::mem::replace(&mut self.comm.transport, Box::new(pipe));
        let mut buf = Vec::with_capacity(RECV_CHUNK);
        std::thread::Builder::new().name(format!("heidl-pump-{}", self.peer)).spawn(move || {
            while blocking.recv_into(&mut buf).is_ok_and(|n| n > 0) && feed.send(&buf).is_ok() {
                buf.clear();
            }
        })?;
        Ok(self)
    }

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
        } else if let Some(waiter) = self.pending.remove(id) {
            // A ping's entry has no mailbox: retiring it is the answer.
            if let Some(slot) = waiter {
                slot.deliver(Ok(body));
            }
        } else {
            trace::emit_with(TraceLevel::Debug, "demux", || {
                format!("dropping late reply from {}", self.peer)
            });
        }
        true
    }

    /// The connection's death: marks it dead and wakes every pending
    /// caller and stream with `Disconnected`. Idempotent.
    fn die(&self) {
        self.alive.store(false, Ordering::SeqCst);
        let slots = self.pending.drain();
        if !slots.is_empty() {
            trace::emit_with(TraceLevel::Warn, "demux", || {
                format!("disconnecting {} pending caller(s) on {}", slots.len(), self.peer)
            });
        }
        for slot in slots.into_iter().flatten() {
            slot.deliver(Err(RmiError::Disconnected));
        }
        for slot in self.streams.drain() {
            slot.fail(RmiError::Disconnected);
        }
    }
}

impl Drop for Demux {
    fn drop(&mut self) {
        self.die();
    }
}

/// A checked-out connection: an RAII guard around the shared
/// [`MuxConnection`], recording whether it came from the cache (the input
/// to the stale-connection retry heuristic). Dropping the guard checks the
/// connection back in.
#[derive(Debug)]
pub struct CheckedOut {
    conn: Arc<MuxConnection>,
    from_cache: bool,
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
    /// connection when pooled, else fresh. Pooled connections found dead
    /// (stale entries: the server closed them while idle, which the
    /// checkout's [`probe`](MuxConnection::probe) reads) are evicted here,
    /// *before* any request bytes are written — the one point where
    /// replacing them is provably safe for every call, idempotent or not.
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
        if !self.caching_enabled() {
            let conn = MuxConnection::via(connector.as_ref(), endpoint, protocol)?;
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
        list.retain(|c| c.probe());
        let max = self.max_connections_per_endpoint();
        if let Some(best) = list.iter().min_by_key(|c| c.borrow_count()) {
            if best.borrow_count() == 0 || list.len() >= max {
                let conn = Arc::clone(best);
                conn.borrow();
                return Ok(CheckedOut { conn, from_cache: true });
            }
        }
        let conn = MuxConnection::via(connector.as_ref(), endpoint, protocol)?;
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
            .map_or(0, |list| list.iter().filter(|c| c.borrow_count() == 0).count())
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
            // Answer the first request far too late, just ahead of the
            // second: the second caller reads the late reply, drops it,
            // then reads its own.
            let first = server.recv().unwrap().unwrap();
            let second = server.recv().unwrap().unwrap();
            std::thread::sleep(Duration::from_millis(80));
            server.send(&first).unwrap();
            server.send(&second).unwrap();
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
        assert!(conn.is_alive(), "nobody has read the close yet");
        conn.drain();
        assert!(!conn.is_alive(), "draining reads the close");
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
