//! Reusable buffer management for the wire hot path.
//!
//! Every request and reply used to pay several transient heap
//! allocations: a body `Vec` from the encoder, a `framed` copy of header
//! plus body, and a deframed body copied back out of the read buffer.
//! This module removes the steady-state allocations without changing any
//! byte on the wire:
//!
//! * [`BufPool`] — a small sharded-mutex pool of `Vec<u8>`s. Buffers are
//!   cleared before they are retained and a capacity cap keeps a hostile
//!   jumbo frame from pinning memory in the pool forever.
//! * [`PooledBuf`] — an RAII handle that derefs to `Vec<u8>` and returns
//!   its storage to the pool on drop. Deframed bodies travel through the
//!   demux and decoder layers as `PooledBuf`s, so the storage recycles
//!   when the decode finishes.
//! * [`FrameBuf`] — a consume-from-front read cursor. `recv_into` appends
//!   at the tail, the deframer consumes from the head, and compaction is
//!   lazy and amortized — replacing the per-frame `drain(..).collect()`
//!   plus `to_vec()` double copy with a single copy into a pooled buffer.
//!   A length-prefixed frame longer than [`RECV_CHUNK`] skips even that
//!   copy: its body is read straight into a buffer of its own.
//!
//! The pool interacts with [`DecodeLimits`](crate::DecodeLimits) only
//! indirectly: limits decide whether bytes are accepted at all; the pool
//! decides whether the backing storage is worth keeping afterwards.

use crate::error::WireResult;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of independently locked free-lists. Eight shards is plenty for
/// the worker-pool sizes this ORB runs (contention is per-push/pop, and
/// `try_lock` skips a busy shard rather than waiting).
const SHARD_COUNT: usize = 8;

/// Default cap on buffers retained per shard (64 buffers process-wide).
const DEFAULT_MAX_PER_SHARD: usize = 8;

/// Default capacity cap: buffers that grew beyond this are dropped on
/// recycle so one jumbo frame cannot pin megabytes in the pool.
const DEFAULT_MAX_RETAIN_CAPACITY: usize = 64 * 1024;

/// A sharded free-list of `Vec<u8>`s.
///
/// `new()` is `const`, so pools can live in statics — the process-wide
/// pool is [`global()`]. All operations use `try_lock` and fall back to
/// plain allocation, so the pool can never block the hot path.
#[derive(Debug)]
pub struct BufPool {
    shards: [Mutex<Vec<Vec<u8>>>; SHARD_COUNT],
    cursor: AtomicUsize,
    max_per_shard: usize,
    max_retain_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    recycled: AtomicU64,
    discarded: AtomicU64,
}

/// Point-in-time counters for tests and diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// `take_vec`/`get` calls served from the pool.
    pub hits: u64,
    /// `take_vec`/`get` calls that allocated fresh.
    pub misses: u64,
    /// Buffers accepted back into the pool.
    pub recycled: u64,
    /// Buffers dropped on recycle (over the capacity cap, shards full, or
    /// capacity zero).
    pub discarded: u64,
}

impl BufPool {
    /// Creates an empty pool with the default caps.
    pub const fn new() -> Self {
        BufPool::with_caps(DEFAULT_MAX_PER_SHARD, DEFAULT_MAX_RETAIN_CAPACITY)
    }

    /// Creates an empty pool retaining at most `max_per_shard` buffers per
    /// shard, each with capacity at most `max_retain_capacity`.
    pub const fn with_caps(max_per_shard: usize, max_retain_capacity: usize) -> Self {
        BufPool {
            shards: [const { Mutex::new(Vec::new()) }; SHARD_COUNT],
            cursor: AtomicUsize::new(0),
            max_per_shard,
            max_retain_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            recycled: AtomicU64::new(0),
            discarded: AtomicU64::new(0),
        }
    }

    /// Takes an empty buffer out of the pool, or allocates a fresh one.
    pub fn take_vec(&self) -> Vec<u8> {
        let start = self.cursor.fetch_add(1, Ordering::Relaxed);
        for i in 0..SHARD_COUNT {
            let Ok(mut shard) = self.shards[(start + i) % SHARD_COUNT].try_lock() else {
                continue;
            };
            if let Some(buf) = shard.pop() {
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                debug_assert!(buf.is_empty(), "pooled buffers are stored cleared");
                return buf;
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        Vec::new()
    }

    /// Clears `buf` and returns it to the pool, unless its capacity is
    /// zero, exceeds the retain cap, or every shard is full.
    pub fn recycle(&self, mut buf: Vec<u8>) {
        if buf.capacity() == 0 || buf.capacity() > self.max_retain_capacity {
            self.discarded.fetch_add(1, Ordering::Relaxed);
            return;
        }
        buf.clear();
        let start = self.cursor.fetch_add(1, Ordering::Relaxed);
        for i in 0..SHARD_COUNT {
            let Ok(mut shard) = self.shards[(start + i) % SHARD_COUNT].try_lock() else {
                continue;
            };
            if shard.len() < self.max_per_shard {
                shard.push(buf);
                self.recycled.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        self.discarded.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a pooled buffer wrapped in an RAII handle that returns the
    /// storage here on drop.
    pub fn get(&'static self) -> PooledBuf {
        PooledBuf { buf: self.take_vec(), pool: Some(self) }
    }

    /// Wraps an existing buffer so its storage lands in this pool when the
    /// handle drops.
    pub fn adopt(&'static self, buf: Vec<u8>) -> PooledBuf {
        PooledBuf { buf, pool: Some(self) }
    }

    /// Snapshot of the pool counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            recycled: self.recycled.load(Ordering::Relaxed),
            discarded: self.discarded.load(Ordering::Relaxed),
        }
    }

    /// Number of buffers currently idle in the pool.
    pub fn idle(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map_or(0, |v| v.len())).sum()
    }
}

impl Default for BufPool {
    fn default() -> Self {
        BufPool::new()
    }
}

static GLOBAL: BufPool = BufPool::new();

/// The process-wide buffer pool used by the shipped codecs and framers.
pub fn global() -> &'static BufPool {
    &GLOBAL
}

/// Shorthand for [`global()`]`.recycle(buf)`.
pub fn recycle(buf: Vec<u8>) {
    GLOBAL.recycle(buf);
}

/// What an encoder's buffer holds when the pool has none to lend: a
/// request header (id, object reference, operation, flags) and a short
/// argument, such as a 96-byte string echo's 150-200 bytes. Grown from
/// empty, a buffer reaches that size in six allocations (8, 16, ...,
/// 256 bytes); sized up front, in one.
const ENCODER_CAPACITY: usize = 256;

/// An encoder's output buffer: a pooled one, else one of
/// [`ENCODER_CAPACITY`] bytes. A pooled buffer is never empty of
/// capacity ([`BufPool::recycle`] drops those), so a zero capacity is a
/// miss.
pub(crate) fn encoder_vec() -> Vec<u8> {
    let buf = GLOBAL.take_vec();
    if buf.capacity() == 0 {
        return Vec::with_capacity(ENCODER_CAPACITY);
    }
    buf
}

/// An owned byte buffer whose storage returns to a [`BufPool`] on drop.
///
/// Derefs to `Vec<u8>`; compares equal to anything byte-slice-like.
/// [`PooledBuf::detach`] (or `Vec::from`) takes the bytes out without
/// recycling them.
pub struct PooledBuf {
    buf: Vec<u8>,
    pool: Option<&'static BufPool>,
}

impl PooledBuf {
    /// Wraps a buffer with no backing pool: dropping it just frees it.
    pub fn unpooled(buf: Vec<u8>) -> Self {
        PooledBuf { buf, pool: None }
    }

    /// The buffer contents.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Takes the bytes out; the storage is no longer returned to the pool.
    pub fn detach(mut self) -> Vec<u8> {
        self.pool = None;
        std::mem::take(&mut self.buf)
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if let Some(pool) = self.pool {
            pool.recycle(std::mem::take(&mut self.buf));
        }
    }
}

impl std::ops::Deref for PooledBuf {
    type Target = Vec<u8>;

    fn deref(&self) -> &Vec<u8> {
        &self.buf
    }
}

impl std::ops::DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }
}

impl AsRef<[u8]> for PooledBuf {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl std::fmt::Debug for PooledBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&self.buf, f)
    }
}

impl<T: AsRef<[u8]> + ?Sized> PartialEq<T> for PooledBuf {
    fn eq(&self, other: &T) -> bool {
        self.buf.as_slice() == other.as_ref()
    }
}

impl Eq for PooledBuf {}

impl PartialEq<PooledBuf> for Vec<u8> {
    fn eq(&self, other: &PooledBuf) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// Adopts the buffer into the [`global()`] pool.
impl From<Vec<u8>> for PooledBuf {
    fn from(buf: Vec<u8>) -> Self {
        global().adopt(buf)
    }
}

impl From<PooledBuf> for Vec<u8> {
    fn from(buf: PooledBuf) -> Self {
        buf.detach()
    }
}

/// Minimum consumed prefix before [`FrameBuf`] considers compacting.
const COMPACT_MIN: usize = 4 * 1024;

/// When an idle `FrameBuf` holds more capacity than this, it shrinks back
/// to its initial capacity (a jumbo frame should not pin memory for the
/// connection's lifetime).
const SHRINK_TRIGGER: usize = 128 * 1024;

/// Bytes a transport pulls into a [`FrameBuf`]'s tail per read, and the
/// body length past which a length-prefixed frame is read straight into
/// a buffer of its own instead ([`FrameBuf::take_declared`]). One number
/// for both: a body that fits in one read gains nothing from skipping
/// the tail.
pub const RECV_CHUNK: usize = 16 * 1024;

/// A consume-from-front read buffer for stream deframing.
///
/// The transport appends received bytes where [`FrameBuf::input`] points;
/// the deframer reads [`FrameBuf::bytes`] and drops parsed prefixes with
/// [`FrameBuf::consume`]. Consuming just advances a read offset; the
/// consumed region is reclaimed lazily — when the buffer drains empty
/// (the common case: one frame per read) or when the dead prefix grows
/// past [`COMPACT_MIN`] and dominates the live bytes, keeping compaction
/// cost amortized O(1) per byte.
///
/// A frame whose header declares a body longer than [`RECV_CHUNK`] never
/// passes through the buffer: [`FrameBuf::take_declared`] gives the body
/// a buffer reserved for its length, and `input` points reads at that body
/// until it is complete, so its bytes are copied once — socket to body.
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    start: usize,
    initial_capacity: usize,
    /// A large frame's body while it arrives, with its declared length.
    body: Option<(PooledBuf, usize)>,
    /// How many bytes at the front of [`FrameBuf::bytes`] a delimiter
    /// search has already found no delimiter in. Only appends follow a
    /// miss, so the next search resumes here: a line that arrives in *k*
    /// reads is searched once, not *k* times. [`FrameBuf::consume`]
    /// resets it.
    pub(crate) searched: usize,
}

impl FrameBuf {
    /// Default initial capacity for per-connection read buffers: covers
    /// typical RMI requests without growth, small enough to be cheap per
    /// connection.
    pub const DEFAULT_CAPACITY: usize = 8 * 1024;

    /// Creates an empty buffer with [`FrameBuf::DEFAULT_CAPACITY`].
    pub fn new() -> Self {
        FrameBuf::with_capacity(FrameBuf::DEFAULT_CAPACITY)
    }

    /// Creates an empty buffer pre-sized to `capacity`.
    pub fn with_capacity(capacity: usize) -> Self {
        FrameBuf {
            buf: Vec::with_capacity(capacity),
            initial_capacity: capacity,
            ..Self::default()
        }
    }

    /// Wraps existing bytes (read offset zero, no pre-sizing).
    pub fn from_vec(buf: Vec<u8>) -> Self {
        FrameBuf { buf, ..Self::default() }
    }

    /// The unconsumed bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.buf[self.start..]
    }

    /// Number of unconsumed bytes.
    pub fn len(&self) -> usize {
        self.buf.len() - self.start
    }

    /// True when no unconsumed bytes remain and no frame is part-read.
    pub fn is_empty(&self) -> bool {
        self.start >= self.buf.len() && self.body.is_none()
    }

    /// Total capacity of the backing storage.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Drops `n` bytes from the front of [`FrameBuf::bytes`].
    ///
    /// # Panics
    ///
    /// Panics when `n` exceeds [`FrameBuf::len`].
    pub fn consume(&mut self, n: usize) {
        assert!(n <= self.len(), "consume({n}) beyond the {} buffered bytes", self.len());
        self.start += n;
        self.searched = 0;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start >= COMPACT_MIN && self.start >= self.buf.len() - self.start {
            self.compact();
        }
    }

    fn compact(&mut self) {
        let len = self.buf.len();
        self.buf.copy_within(self.start..len, 0);
        self.buf.truncate(len - self.start);
        self.start = 0;
    }

    /// Where the transport read loop appends next, and the most it may
    /// append: the body of a large frame still arriving, with the bytes
    /// it lacks, or else the tail of the buffer, [`RECV_CHUNK`] at a time.
    /// Received bytes must only be *appended*; truncating below the
    /// already buffered length breaks the read offset.
    pub fn input(&mut self) -> (&mut Vec<u8>, usize) {
        match &mut self.body {
            Some((body, len)) => {
                let lacking = *len - body.len();
                (&mut **body, lacking)
            }
            None => (&mut self.buf, RECV_CHUNK),
        }
    }

    /// True while [`FrameBuf::input`] points at a large frame's body:
    /// every byte it lacks belongs to that frame, so a blocking reader
    /// may wait for all of them without ever reading past the frame.
    pub fn filling_body(&self) -> bool {
        self.body.is_some()
    }

    /// Extracts the next frame of a length-prefixed protocol — the one
    /// deframing path such a protocol needs. `declared` reads the header
    /// off the buffered bytes: `Ok(None)` while it is incomplete, else
    /// `(header_len, body_len)` once the protocol has checked the length
    /// against its limits, so an oversized length fails here before any
    /// body buffer exists.
    ///
    /// A body of at most [`RECV_CHUNK`] bytes is copied out of the buffer
    /// once all of it has arrived. A longer one is given a pooled buffer
    /// reserved for its length as soon as the header is in: the bytes
    /// already buffered move into it, and [`FrameBuf::input`] points the
    /// transport at it until the rest has landed there, so it comes back
    /// with no copy through this buffer and without growing it. A
    /// transport that cannot bound its reads may append past the body;
    /// that surplus opens the next frame and is moved back here.
    ///
    /// # Errors
    ///
    /// Whatever `declared` reports for a corrupt or oversized header.
    pub fn take_declared(
        &mut self,
        declared: impl FnOnce(&[u8]) -> WireResult<Option<(usize, usize)>>,
    ) -> WireResult<Option<PooledBuf>> {
        if self.body.is_none() {
            let Some((header, len)) = declared(self.bytes())? else { return Ok(None) };
            let have = (self.len() - header).min(len);
            if have < len && len <= RECV_CHUNK {
                return Ok(None);
            }
            let mut body = global().get();
            if len > RECV_CHUNK {
                body.reserve_exact(len);
            }
            body.extend_from_slice(&self.bytes()[header..header + have]);
            self.consume(header + have);
            self.body = Some((body, len));
        }
        let (body, len) = self.body.as_mut().expect("a body is being read");
        if body.len() < *len {
            return Ok(None);
        }
        self.buf.extend_from_slice(&body[*len..]);
        body.truncate(*len);
        Ok(self.body.take().map(|(body, _)| body))
    }

    /// Appends received bytes as a transport read would: into a large
    /// frame's body up to its declared length, the rest at the tail.
    pub fn extend_from_slice(&mut self, mut bytes: &[u8]) {
        if let Some((body, len)) = &mut self.body {
            let n = (*len - body.len()).min(bytes.len());
            body.extend_from_slice(&bytes[..n]);
            bytes = &bytes[n..];
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Releases excess capacity after a jumbo frame: when the buffer is
    /// empty and holds more than [`SHRINK_TRIGGER`] bytes of capacity, it
    /// shrinks back toward the initial capacity.
    pub fn maybe_shrink(&mut self) {
        if self.is_empty() && self.buf.capacity() > SHRINK_TRIGGER {
            self.buf.shrink_to(self.initial_capacity.max(FrameBuf::DEFAULT_CAPACITY));
        }
    }

    /// Unwraps into a plain `Vec` holding exactly the unconsumed bytes (a
    /// large frame's part-read body is not among them: its header has
    /// been consumed).
    pub fn into_vec(mut self) -> Vec<u8> {
        if self.start > 0 {
            self.compact();
        }
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static TEST_POOL: BufPool = BufPool::with_caps(2, 1024);

    #[test]
    fn recycled_buffers_come_back_cleared() {
        static POOL: BufPool = BufPool::with_caps(4, 1024);
        let mut buf = POOL.take_vec();
        buf.extend_from_slice(b"dirty bytes");
        let cap = buf.capacity();
        POOL.recycle(buf);
        let again = POOL.take_vec();
        assert!(again.is_empty(), "pool must clear buffers before reuse");
        assert_eq!(again.capacity(), cap, "capacity is what the pool preserves");
    }

    #[test]
    fn capacity_cap_is_enforced() {
        static POOL: BufPool = BufPool::with_caps(4, 64);
        POOL.recycle(Vec::with_capacity(65));
        assert_eq!(POOL.idle(), 0, "an over-cap buffer must not be retained");
        assert_eq!(POOL.stats().discarded, 1);
        POOL.recycle(Vec::with_capacity(64));
        assert_eq!(POOL.idle(), 1);
    }

    #[test]
    fn per_shard_count_is_bounded() {
        static POOL: BufPool = BufPool::with_caps(1, 1024);
        for _ in 0..SHARD_COUNT * 3 {
            POOL.recycle(Vec::with_capacity(16));
        }
        assert!(POOL.idle() <= SHARD_COUNT, "at most max_per_shard per shard");
    }

    #[test]
    fn zero_capacity_buffers_are_not_pooled() {
        static POOL: BufPool = BufPool::with_caps(4, 1024);
        POOL.recycle(Vec::new());
        assert_eq!(POOL.idle(), 0);
    }

    #[test]
    fn pooled_buf_returns_on_drop_and_detach_opts_out() {
        let before = TEST_POOL.stats().recycled;
        let mut b = TEST_POOL.get();
        b.extend_from_slice(b"abc");
        drop(b);
        assert_eq!(TEST_POOL.stats().recycled, before + 1);

        let mut b = TEST_POOL.get();
        b.extend_from_slice(b"xyz");
        let v = b.detach();
        assert_eq!(v, b"xyz");
        assert_eq!(TEST_POOL.stats().recycled, before + 1, "detach must not recycle");
    }

    #[test]
    fn pooled_buf_equality_and_debug() {
        let mut b = PooledBuf::unpooled(Vec::new());
        b.extend_from_slice(b"hi");
        assert_eq!(b, b"hi");
        assert_eq!(b, vec![b'h', b'i']);
        assert_eq!(vec![b'h', b'i'], b);
        assert_eq!(format!("{b:?}"), format!("{:?}", b"hi"));
    }

    #[test]
    fn framebuf_consume_and_compact() {
        let mut fb = FrameBuf::with_capacity(16);
        fb.extend_from_slice(b"hello world");
        assert_eq!(fb.bytes(), b"hello world");
        fb.consume(6);
        assert_eq!(fb.bytes(), b"world");
        fb.consume(5);
        assert!(fb.is_empty());
        assert_eq!(fb.bytes(), b"");

        // Force the lazy-compaction path: a consumed prefix past
        // COMPACT_MIN that dominates the remainder.
        let mut fb = FrameBuf::new();
        fb.extend_from_slice(&vec![7u8; COMPACT_MIN + 100]);
        fb.consume(COMPACT_MIN + 50);
        assert_eq!(fb.bytes(), &[7u8; 50]);
        assert_eq!(fb.start, 0, "compaction reclaims the dead prefix");
    }

    #[test]
    #[should_panic(expected = "consume")]
    fn framebuf_overconsume_panics() {
        let mut fb = FrameBuf::from_vec(b"ab".to_vec());
        fb.consume(3);
    }

    #[test]
    fn framebuf_shrinks_after_jumbo() {
        let mut fb = FrameBuf::new();
        fb.extend_from_slice(&vec![0u8; SHRINK_TRIGGER + 1]);
        fb.consume(SHRINK_TRIGGER + 1);
        assert!(fb.capacity() > SHRINK_TRIGGER);
        fb.maybe_shrink();
        assert!(fb.capacity() <= SHRINK_TRIGGER, "jumbo capacity released");
        // Non-empty buffers never shrink (live bytes would be copied).
        let mut fb = FrameBuf::new();
        fb.extend_from_slice(&vec![0u8; SHRINK_TRIGGER + 1]);
        fb.maybe_shrink();
        assert!(fb.capacity() > SHRINK_TRIGGER);
    }

    #[test]
    fn framebuf_into_vec_keeps_unconsumed_tail() {
        let mut fb = FrameBuf::from_vec(b"abcdef".to_vec());
        fb.consume(2);
        assert_eq!(fb.into_vec(), b"cdef");
    }
}
