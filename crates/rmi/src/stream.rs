//! Streaming replies with flow control: chunked frames, per-stream credit
//! windows, and token-bucket pacing.
//!
//! A bulk payload does not fit the one-request/one-reply envelope without
//! materializing the whole thing on both sides. This module streams it
//! instead: the server pulls fragments from a [`StreamBody`] and sends each
//! as an ordinary OK reply carrying the protocols' trailing **chunk
//! section** (`index`, `last` — see
//! [`Protocol::encode_chunk`](heidl_wire::Protocol::encode_chunk)), so
//! every frame stays hand-typeable on the text protocol and
//! old-reader-compatible on both. The client's demultiplexer routes the
//! shared request id to a [`ReplyStream`], which reassembles fragments in
//! order through a [`ChunkAssembler`]; its consumer waits for them, and
//! reads them when the connection's reader token is free, as a two-way
//! caller does. Each comes back as a [`Fragment`]: the chunk's frame
//! itself, its text checked on arrival and read where it lies, so the
//! client copies a chunk's bytes only out of the socket.
//!
//! Flow control is per stream, not per connection: the server spends a
//! credit [`StreamWindow`] as it emits and the client replenishes it with
//! oneway acks as it consumes, so a slow reader backpressures *its own*
//! stream without stalling the other calls multiplexed on the socket. The
//! client acks every half window it consumes, and before it would block:
//! when its slot is empty and, once it has read every frame already
//! readable on the connection, still empty — the only state in which the
//! server can be waiting for credit. Each stream encodes its ack once and
//! rewrites only the count. An optional [`TokenBucket`] additionally
//! paces emission to a byte rate
//! (`ServerPolicy::with_stream_rate_bytes_per_sec`).

use crate::call::{read_reply_header, Call};
use crate::communicator::{MuxConnection, StreamSlot};
use crate::error::{RmiError, RmiResult};
use crate::objref::ObjectRef;
use heidl_wire::{pool, ChunkAssembler, DecodeLimits, Decoder, PooledBuf, Protocol};
use parking_lot::{Condvar, Mutex};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Object id the client's flow-control acks target — a reserved id (like
/// the health and metrics objects) the server handles inline on its reader
/// thread, so credit grants are never queued behind servant work.
pub const STREAM_ACK_OBJECT_ID: u64 = u64::MAX - 1;

/// Type id stamped on the references stream acks are addressed to.
pub const STREAM_ACK_TYPE_ID: &str = "IDL:heidl/StreamAck:1.0";

/// Repository id of the marker replayed when an exactly-once retry lands
/// after its streamed reply already went out. Chunks are not cached (the
/// reply cache is byte-bounded; a 64 MiB stream would evict everything
/// else), so the retry gets this always-safe-to-retry busy marker and the
/// caller re-invokes.
pub const STREAM_EXPIRED_REPO_ID: &str = "IDL:heidl/StreamExpired:1.0";

/// A token bucket pacing stream emission to a byte rate.
///
/// `pace(n)` debits `n` tokens, sleeping until the bucket (replenished at
/// the configured rate, capped at a quarter-second of burst) covers them.
/// One bucket is shared by every stream on a server, so the rate bounds
/// aggregate emission, not per-stream emission.
pub struct TokenBucket {
    rate: f64,
    capacity: f64,
    state: Mutex<BucketState>,
}

struct BucketState {
    available: f64,
    last: Instant,
}

impl std::fmt::Debug for TokenBucket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TokenBucket").field("rate", &self.rate).finish_non_exhaustive()
    }
}

impl TokenBucket {
    /// Creates a bucket replenishing at `rate_bytes_per_sec` (minimum 1),
    /// starting full with a quarter-second of burst capacity.
    pub fn new(rate_bytes_per_sec: u64) -> TokenBucket {
        let rate = rate_bytes_per_sec.max(1) as f64;
        let capacity = (rate / 4.0).max(1.0);
        TokenBucket {
            rate,
            capacity,
            state: Mutex::new(BucketState { available: capacity, last: Instant::now() }),
        }
    }

    /// Debits `bytes` tokens, sleeping as needed so sustained throughput
    /// through this bucket never exceeds the configured rate.
    pub fn pace(&self, bytes: u64) {
        let mut remaining = bytes as f64;
        while remaining > 0.0 {
            // Debit in bucket-sized installments so a single jumbo chunk
            // cannot demand more tokens than the bucket can ever hold.
            let take = remaining.min(self.capacity);
            loop {
                let mut st = self.state.lock();
                let now = Instant::now();
                let refill = now.duration_since(st.last).as_secs_f64() * self.rate;
                st.available = (st.available + refill).min(self.capacity);
                st.last = now;
                if st.available >= take {
                    st.available -= take;
                    break;
                }
                let deficit = take - st.available;
                drop(st);
                let wait = Duration::from_secs_f64(deficit / self.rate);
                std::thread::sleep(
                    wait.clamp(Duration::from_micros(200), Duration::from_millis(50)),
                );
            }
            remaining -= take;
        }
    }
}

/// A per-stream credit window: the server consumes credit as it emits
/// fragments, the client's acks grant it back as it consumes them.
///
/// The window is what bounds buffering on *both* sides: the server never
/// has more than one window of unacknowledged bytes in flight, so a slow
/// reader's stream parks its pump thread here instead of growing queues.
pub struct StreamWindow {
    state: Mutex<WindowState>,
    cv: Condvar,
}

struct WindowState {
    credit: u64,
    closed: bool,
}

impl std::fmt::Debug for StreamWindow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("StreamWindow")
            .field("credit", &st.credit)
            .field("closed", &st.closed)
            .finish()
    }
}

impl StreamWindow {
    /// Creates a window holding `initial` bytes of credit.
    pub fn new(initial: u64) -> StreamWindow {
        StreamWindow {
            state: Mutex::new(WindowState { credit: initial, closed: false }),
            cv: Condvar::new(),
        }
    }

    /// Spends `bytes` of credit, parking up to `timeout` for acks to
    /// replenish it. Returns `false` when the window was closed or the
    /// timeout elapsed first — the pump aborts the stream rather than
    /// buffering past the window.
    pub fn consume(&self, bytes: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock();
        loop {
            if st.closed {
                return false;
            }
            if st.credit >= bytes {
                st.credit -= bytes;
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            self.cv.wait_for(&mut st, deadline - now);
        }
    }

    /// Grants `bytes` of credit back (a client ack landed).
    pub fn grant(&self, bytes: u64) {
        let mut st = self.state.lock();
        st.credit = st.credit.saturating_add(bytes);
        self.cv.notify_all();
    }

    /// Closes the window: the consumer's next `consume` fails, aborting
    /// the stream (connection teardown path).
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.cv.notify_all();
    }

    /// Current unspent credit (observability for tests).
    pub fn credit(&self) -> u64 {
        self.state.lock().credit
    }
}

/// An incremental source of stream fragments.
///
/// The pump pulls one bounded fragment at a time, so a servant can stream
/// a payload it never materializes whole — the point of the per-stream
/// window is lost if the producer buffers everything up front.
pub struct StreamBody {
    pull: Box<dyn FnMut(usize) -> Option<String> + Send>,
}

impl std::fmt::Debug for StreamBody {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamBody").finish_non_exhaustive()
    }
}

impl StreamBody {
    /// Wraps a pull function: called with a byte budget, it returns the
    /// next fragment (at most about that many bytes) or `None` when the
    /// stream is exhausted.
    pub fn from_fn(pull: impl FnMut(usize) -> Option<String> + Send + 'static) -> StreamBody {
        StreamBody { pull: Box::new(pull) }
    }

    /// Streams an already-built string, splitting it into budget-sized
    /// fragments on `char` boundaries (a fragment may exceed the budget by
    /// at most one multi-byte `char`). Each pull copies out just its
    /// fragment, so a fragment holds no more memory than its bytes.
    pub fn from_string(payload: String) -> StreamBody {
        let mut at = 0;
        StreamBody::from_fn(move |max| {
            if at >= payload.len() {
                return None;
            }
            let mut cut = (at + max).min(payload.len());
            while !payload.is_char_boundary(cut) {
                cut += 1;
            }
            let fragment = payload[at..cut].to_owned();
            at = cut;
            Some(fragment)
        })
    }

    /// Pulls the next fragment, at most about `max_bytes` long; `None`
    /// ends the stream.
    pub fn next_fragment(&mut self, max_bytes: usize) -> Option<String> {
        (self.pull)(max_bytes.max(1))
    }
}

/// A servant whose replies are streamed instead of materialized.
///
/// Registered with [`Orb::export_stream`](crate::Orb::export_stream) —
/// a separate registry from [`Skeleton`](crate::Skeleton), because a
/// skeleton's contract is "marshal the whole result into one reply" and a
/// stream's is the opposite. `open` unmarshals the arguments and returns
/// the fragment source; the server's pump owns chunking, pacing, and
/// windowing from there.
pub trait StreamServant: Send + Sync {
    /// The interface repository id, as in [`Skeleton`](crate::Skeleton).
    fn type_id(&self) -> &str;

    /// Begins one streamed invocation: unmarshal `args`, return the body.
    ///
    /// # Errors
    ///
    /// Unmarshaling failures and servant-level errors become exception
    /// replies, exactly as on the skeleton path.
    fn open(&self, method: &str, args: &mut dyn Decoder) -> RmiResult<StreamBody>;
}

/// One fragment of a streamed reply, as [`ReplyStream::next_chunk`]
/// returns it.
///
/// It holds the chunk's frame, and its text is read where it lies in the
/// frame: no copy is made. The text was checked when the frame arrived —
/// its length against the decode limits, its terminator and its UTF-8 —
/// with the errors `get_string` reports. A text-protocol fragment whose
/// string was escaped on the wire holds its unescaped copy instead.
pub struct Fragment(Text);

enum Text {
    /// The text at `span` of `frame`.
    InFrame { frame: PooledBuf, span: Range<usize> },
    /// Unescaped text.
    Copied(String),
}

impl Fragment {
    /// Reads an OK reply's one string result out of `frame`; an exception
    /// reply is its error, as [`Reply::parse`](crate::Reply::parse)
    /// reports it.
    fn read(frame: PooledBuf, protocol: &dyn Protocol) -> RmiResult<Fragment> {
        let span = {
            let mut dec = protocol.peek_decoder(&frame, &DecodeLimits::default())?;
            read_reply_header(dec.as_mut())?;
            match dec.get_string_span()? {
                Some(span) => span,
                None => return Ok(Fragment(Text::Copied(dec.get_string()?))),
            }
        };
        Ok(Fragment(Text::InFrame { frame, span }))
    }

    /// The text's bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Text::InFrame { frame, span } => &frame[span.clone()],
            Text::Copied(text) => text.as_bytes(),
        }
    }

    /// The text's length in bytes.
    pub fn len(&self) -> usize {
        self.as_bytes().len()
    }

    /// Whether the text is empty.
    pub fn is_empty(&self) -> bool {
        self.as_bytes().is_empty()
    }

    /// The text. This checks the UTF-8 of the bytes again, one pass over
    /// them: the check on arrival cannot be carried over without `unsafe`.
    /// [`Fragment::as_bytes`] is free.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(self.as_bytes()).expect("a fragment's UTF-8 is checked on arrival")
    }

    /// The text as an owned string, in the frame's own buffer: the text
    /// moves to its front, and its UTF-8 is checked again.
    pub fn into_string(self) -> String {
        match self.0 {
            Text::InFrame { frame, span } => {
                let mut bytes = frame.detach();
                bytes.truncate(span.end);
                bytes.drain(..span.start);
                String::from_utf8(bytes).expect("a fragment's UTF-8 is checked on arrival")
            }
            Text::Copied(text) => text,
        }
    }
}

impl PartialEq for Fragment {
    fn eq(&self, other: &Fragment) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Fragment {}

impl std::fmt::Debug for Fragment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Fragment").field(&self.as_str()).finish()
    }
}

/// A streamed reply being consumed incrementally on the client.
///
/// Produced by [`Orb::invoke_stream`](crate::Orb::invoke_stream). Each
/// [`next_chunk`](ReplyStream::next_chunk) blocks for the next fragment;
/// consumed bytes are acknowledged back to the server in batches (half a
/// window, or whatever is pending when the reader would block, having
/// found nothing readable for this stream), which is what keeps the
/// server's credit window turning.
pub struct ReplyStream {
    conn: Arc<MuxConnection>,
    slot: Arc<StreamSlot>,
    protocol: Arc<dyn Protocol>,
    request_id: u64,
    ack_target: ObjectRef,
    /// The credit ack's body, encoded once; only its last field, the
    /// consumed count starting at `count_at`, is rewritten per ack.
    ack: Vec<u8>,
    count_at: usize,
    window: u64,
    consumed_since_ack: u64,
    asm: ChunkAssembler,
    done: bool,
    chunk_timeout: Option<Duration>,
}

impl std::fmt::Debug for ReplyStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplyStream")
            .field("request_id", &self.request_id)
            .field("chunks", &self.asm.accepted())
            .field("done", &self.done)
            .finish_non_exhaustive()
    }
}

/// A credit ack for the stream `request_id` — a oneway to the reserved ack
/// object carrying `ulonglong stream-request-id · ulonglong
/// consumed-bytes` — and where its count begins.
fn encode_ack(
    target: &ObjectRef,
    request_id: u64,
    consumed: u64,
    protocol: &dyn Protocol,
) -> (Vec<u8>, usize) {
    let mut call = Call::oneway(target, "ack", protocol);
    call.args().put_ulonglong(request_id);
    let count_at = call.args().position();
    call.args().put_ulonglong(consumed);
    (call.into_body(), count_at)
}

impl ReplyStream {
    #[allow(clippy::too_many_arguments)] // crate-internal; one call site, the ORB's send stage
    pub(crate) fn new(
        conn: Arc<MuxConnection>,
        slot: Arc<StreamSlot>,
        protocol: Arc<dyn Protocol>,
        request_id: u64,
        ack_target: ObjectRef,
        window: u64,
        limits: DecodeLimits,
        chunk_timeout: Option<Duration>,
    ) -> ReplyStream {
        let (ack, count_at) = encode_ack(&ack_target, request_id, 0, protocol.as_ref());
        ReplyStream {
            conn,
            slot,
            protocol,
            request_id,
            ack_target,
            ack,
            count_at,
            window: window.max(1),
            consumed_since_ack: 0,
            asm: ChunkAssembler::new(limits),
            done: false,
            chunk_timeout,
        }
    }

    /// The request id the stream's frames are correlated by.
    pub fn request_id(&self) -> u64 {
        self.request_id
    }

    /// True once the final fragment has been consumed.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Number of chunk frames consumed so far.
    pub fn chunks(&self) -> u64 {
        self.asm.accepted()
    }

    /// Peak bytes ever buffered for this stream between arrival and
    /// consumption — the client half of the "bounded by the window"
    /// guarantee the transport-parity tests assert.
    pub fn high_water_bytes(&self) -> usize {
        self.slot.high_water()
    }

    /// Blocks for the next fragment; `Ok(None)` after the final one.
    ///
    /// # Errors
    ///
    /// Transport failures, a hostile or corrupt chunk sequence or chunk
    /// body ([`RmiError::Wire`]), a remote exception carried by any frame,
    /// or [`RmiError::DeadlineExceeded`] when a per-chunk deadline was
    /// set. Every error ends the stream.
    pub fn next_chunk(&mut self) -> RmiResult<Option<Fragment>> {
        if self.done {
            return Ok(None);
        }
        let deadline = self.chunk_timeout.map(|after| Instant::now() + after);
        // About to block: first read the frames already readable. Only if
        // none of them is this stream's is any pending ack forced out,
        // whatever its size. This is what makes window clamping
        // deadlock-free — the server stalls on credit only once everything
        // it sent has been read, and so consumed here, and then the forced
        // ack restarts it — without an ack per chunk while frames keep
        // arriving.
        if self.slot.is_empty() && !self.conn.read_readable(&self.slot, deadline) {
            self.send_ack(true);
        }
        let frame = self.conn.next_frame(&self.slot, deadline).unwrap_or_else(|| {
            Err(RmiError::DeadlineExceeded { after: self.chunk_timeout.unwrap_or_default() })
        });
        let fragment = match frame.and_then(|body| self.consume_frame(body)) {
            Ok(f) => f,
            Err(e) => {
                self.finish();
                return Err(e);
            }
        };
        self.consumed_since_ack = self.consumed_since_ack.saturating_add(fragment.len() as u64);
        if self.done {
            self.finish();
        } else {
            self.send_ack(false);
        }
        Ok(Some(fragment))
    }

    /// Drains the stream into one string (tests and small payloads; for a
    /// payload worth streaming, prefer the [`next_chunk`] loop).
    ///
    /// [`next_chunk`]: ReplyStream::next_chunk
    ///
    /// # Errors
    ///
    /// As [`ReplyStream::next_chunk`].
    pub fn collect_string(&mut self) -> RmiResult<String> {
        let mut out = String::new();
        while let Some(fragment) = self.next_chunk()? {
            out.push_str(fragment.as_str());
        }
        Ok(out)
    }

    fn consume_frame(&mut self, body: PooledBuf) -> RmiResult<Fragment> {
        match self.protocol.extract_chunk(&body) {
            Some((index, last)) => {
                self.asm.accept(index, last).map_err(RmiError::Wire)?;
                self.done = last;
            }
            // An unchunked reply: the server answered the whole payload in
            // one envelope (or with an exception). Either way the stream
            // ends with this frame.
            None => self.done = true,
        }
        Fragment::read(body, self.protocol.as_ref())
    }

    /// Sends a credit ack when forced, or when half the window has been
    /// consumed since the last one. Best-effort: a send failure leaves the
    /// bytes pending and the next wait surfaces the dead connection.
    fn send_ack(&mut self, force: bool) {
        let consumed = self.consumed_since_ack;
        if consumed == 0 || (!force && consumed.saturating_mul(2) < self.window) {
            return;
        }
        let protocol = self.protocol.as_ref();
        if !protocol.put_ulonglong_at(&mut self.ack, self.count_at, consumed) {
            (self.ack, self.count_at) =
                encode_ack(&self.ack_target, self.request_id, consumed, protocol);
        }
        if self.conn.send_oneway(&self.ack).is_ok() {
            self.consumed_since_ack = 0;
        }
    }

    fn finish(&mut self) {
        self.done = true;
        self.conn.unregister_stream(self.request_id);
    }
}

impl Drop for ReplyStream {
    fn drop(&mut self) {
        // An abandoned stream must stop routing frames to its slot; late
        // chunks then drop exactly like late replies.
        self.conn.unregister_stream(self.request_id);
        pool::recycle(std::mem::take(&mut self.ack));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_allows_initial_burst_then_paces() {
        let bucket = TokenBucket::new(4_000_000);
        let start = Instant::now();
        bucket.pace(1_000_000); // the initial burst: free
        assert!(start.elapsed() < Duration::from_millis(100));
        bucket.pace(1_000_000); // must wait ~250ms for refill
        assert!(start.elapsed() >= Duration::from_millis(150), "{:?}", start.elapsed());
    }

    #[test]
    fn bucket_handles_debits_larger_than_capacity() {
        // Capacity is rate/4; a debit of a full second of rate must not
        // wedge, it just takes installments.
        let bucket = TokenBucket::new(40_000_000);
        let start = Instant::now();
        bucket.pace(20_000_000);
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(100), "{elapsed:?}");
        assert!(elapsed < Duration::from_secs(2), "{elapsed:?}");
    }

    #[test]
    fn window_consumes_and_blocks_until_granted() {
        let w = Arc::new(StreamWindow::new(10));
        assert!(w.consume(10, Duration::from_millis(10)));
        assert_eq!(w.credit(), 0);
        // Exhausted: a consume now times out...
        assert!(!w.consume(1, Duration::from_millis(20)));
        // ...but a grant from another thread unblocks it.
        let w2 = Arc::clone(&w);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            w2.grant(5);
        });
        assert!(w.consume(5, Duration::from_secs(5)));
        t.join().unwrap();
    }

    #[test]
    fn window_close_fails_consumers() {
        let w = Arc::new(StreamWindow::new(0));
        let w2 = Arc::clone(&w);
        let t = std::thread::spawn(move || w2.consume(1, Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(20));
        w.close();
        assert!(!t.join().unwrap());
        assert!(!w.consume(0, Duration::from_millis(1)), "closed window admits nothing");
    }

    #[test]
    fn body_from_string_fragments_on_char_boundaries() {
        // 'é' is 2 bytes; a 3-byte budget must not split it.
        let mut body = StreamBody::from_string("aébéc".to_owned());
        let mut out = String::new();
        let mut fragments = 0;
        while let Some(f) = body.next_fragment(3) {
            assert!(f.len() <= 4, "fragment overshoots by more than one char: {f:?}");
            out.push_str(&f);
            fragments += 1;
        }
        assert_eq!(out, "aébéc");
        assert!(fragments >= 2);
        assert!(body.next_fragment(3).is_none(), "exhausted body stays exhausted");
    }

    #[test]
    fn body_from_string_fragments_hold_only_their_own_bytes() {
        // Multi-byte chars throughout, so cuts land mid-char and round up.
        let payload = "aé€😀".repeat(10_000);
        let budget = 1000;
        let mut body = StreamBody::from_string(payload.clone());
        let mut out = String::new();
        while let Some(f) = body.next_fragment(budget) {
            assert!(f.capacity() <= budget + 3, "fragment pins {} bytes", f.capacity());
            out.push_str(&f);
        }
        assert_eq!(out, payload);
    }

    #[test]
    fn body_from_string_empty_is_immediately_exhausted() {
        let mut body = StreamBody::from_string(String::new());
        assert!(body.next_fragment(16).is_none());
    }

    #[test]
    fn body_from_fn_respects_budget_clamp() {
        let mut calls = 0;
        let mut body = StreamBody::from_fn(move |max| {
            calls += 1;
            assert!(max >= 1, "budget is clamped to at least one byte");
            if calls <= 2 {
                Some("x".repeat(max.min(4)))
            } else {
                None
            }
        });
        assert_eq!(body.next_fragment(0).unwrap(), "x");
        assert_eq!(body.next_fragment(4).unwrap(), "xxxx");
        assert!(body.next_fragment(4).is_none());
    }
}
