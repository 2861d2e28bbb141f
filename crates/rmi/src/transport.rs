//! Byte-stream transports underneath the `ObjectCommunicator`.
//!
//! The paper's communicators sit on dedicated TCP/IP connections; tests and
//! single-process deployments also get an in-process duplex pipe built on
//! crossbeam channels.

use crate::objref::Endpoint;
use heidl_wire::RECV_CHUNK;
use std::io::{self, IoSlice, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A bidirectional byte stream.
pub trait Transport: Send {
    /// Writes all of `bytes`.
    ///
    /// # Errors
    ///
    /// Propagates transport write failures.
    fn send(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// Writes all of `parts`, in order, as if concatenated — the hot path
    /// for framing, where the header lives on the caller's stack and the
    /// body in a pooled buffer.
    ///
    /// The default *concatenates and makes a single [`Transport::send`]
    /// call*, deliberately: decorating transports (fault injectors) treat
    /// each `send` as one frame, and a multi-`send` default would change
    /// what "corrupt one frame" means through them. Leaf transports that
    /// can gather (TCP) override this with a true vectored write.
    ///
    /// # Errors
    ///
    /// Propagates transport write failures.
    fn send_vectored(&mut self, parts: &[&[u8]]) -> io::Result<()> {
        let total = parts.iter().map(|p| p.len()).sum();
        let mut joined = heidl_wire::pool::global().get();
        joined.reserve(total);
        for part in parts {
            joined.extend_from_slice(part);
        }
        self.send(&joined)
    }

    /// Reads *some* bytes, appending to `buf`. Returns the number read;
    /// `0` means the peer closed the stream.
    ///
    /// # Errors
    ///
    /// Propagates transport read failures.
    fn recv_into(&mut self, buf: &mut Vec<u8>) -> io::Result<usize>;

    /// Reads part of a large frame's body, appending to `buf`: the next
    /// `need` bytes on the stream are known to belong to that frame
    /// (see [`FrameBuf::input`](heidl_wire::FrameBuf::input)), so an
    /// implementation may block until all of them have arrived and should
    /// read no further. Returns the number read; `0` means the peer
    /// closed the stream.
    ///
    /// The default makes one [`Transport::recv_into`], which may return
    /// fewer bytes or more (the `FrameBuf` hands a surplus back to the
    /// next frame). TCP overrides it to read straight into `buf`'s spare
    /// capacity.
    ///
    /// # Errors
    ///
    /// Propagates transport read failures.
    fn recv_body_into(&mut self, buf: &mut Vec<u8>, need: usize) -> io::Result<usize> {
        let _ = need;
        self.recv_into(buf)
    }

    /// A short human-readable peer description for diagnostics.
    fn peer(&self) -> String;

    /// Splits the transport into independent write and read halves so
    /// one caller can block in `recv_into` while others keep sending.
    /// Returns `(writer, reader)`.
    ///
    /// # Errors
    ///
    /// Fails when the underlying handle cannot be duplicated.
    fn split(self: Box<Self>) -> io::Result<(Box<dyn Transport>, Box<dyn Transport>)>;

    /// Tears the stream down in both directions so a reader blocked in
    /// `recv_into` (possibly on a split-off half) observes end-of-stream.
    fn shutdown(&mut self) {}

    /// The OS-level file descriptor, when this transport is backed by one.
    /// `None` (the default, and the answer for in-process pipes and
    /// fault-injecting decorators) means the transport cannot be driven by
    /// the reactor and is read by the threaded driver instead.
    fn raw_fd(&self) -> Option<i32> {
        None
    }

    /// Nonblocking read for the reactor, and for a client connection's
    /// reader with a deadline or with nobody waiting: appends whatever is
    /// immediately available, `Ok(None)` when nothing is (`EWOULDBLOCK`),
    /// `Ok(Some(0))` on orderly EOF. Must not disturb the blocking behavior of other
    /// handles sharing the file description (implemented with per-call
    /// `MSG_DONTWAIT`, not `O_NONBLOCK`).
    ///
    /// Implementations pull at most `max` bytes per call (callers pass at
    /// most [`RECV_CHUNK`]); a shorter return means the kernel buffer was
    /// emptied, which level-triggered sources use to skip the
    /// `EWOULDBLOCK` confirmation syscall (epoll re-reports the fd if more
    /// arrives).
    ///
    /// # Errors
    ///
    /// Propagates transport read failures; `Unsupported` when the
    /// transport has no nonblocking path (the default).
    fn try_recv_into(&mut self, buf: &mut Vec<u8>, max: usize) -> io::Result<Option<usize>> {
        let _ = (buf, max);
        Err(io::ErrorKind::Unsupported.into())
    }

    /// Waits up to `timeout` for bytes, end-of-stream or an error to read,
    /// consuming nothing; `Ok(false)` on timeout. A client connection's
    /// reader with a deadline waits here, then uses `try_recv_into`.
    ///
    /// # Errors
    ///
    /// Transport failures; `Unsupported` (the default). A client
    /// connection reads a transport that leaves this to the default
    /// through a pump thread of its own (DESIGN decision 22); one that
    /// implements it must implement `try_recv_into` too.
    fn wait_readable(&mut self, timeout: Duration) -> io::Result<bool> {
        let _ = timeout;
        Err(io::ErrorKind::Unsupported.into())
    }

    /// Nonblocking gathered write: writes as much of `bufs` as the socket
    /// buffer accepts, as one `sendmsg`, and returns the count; `Ok(None)`
    /// when the buffer is full and the caller should wait for
    /// writability. A framed reply (header + body) hits the wire — and
    /// wakes the peer's readiness loop — once instead of once per part.
    ///
    /// # Errors
    ///
    /// Propagates transport write failures; `Unsupported` when the
    /// transport has no nonblocking path (the default).
    fn try_send_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<Option<usize>> {
        let _ = bufs;
        Err(io::ErrorKind::Unsupported.into())
    }
}

/// Who drives the ORB's server connections.
///
/// Each server connection is one state machine, reading through one
/// `ObjectCommunicator`; the mode picks only who drives it. `Threaded`
/// blocks a thread in `recv` per accepted connection. `Reactor` has a
/// fixed set of leader/followers threads per server wait on one epoll
/// set and call the nonblocking `try_recv` on readiness (DESIGN decision
/// 23), so idle connections cost no thread. Client connections are the
/// same on both: their callers read their own replies (DESIGN decision
/// 22), and the heartbeat probe runs on a `heidl-heartbeat` thread.
/// Transports without a file descriptor (in-process pipes, fault
/// injectors) always take the threaded driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportMode {
    /// A blocking thread per connection (the default).
    #[default]
    Threaded,
    /// Leader/followers over one epoll set per server; falls back to
    /// `Threaded` on targets without epoll support.
    Reactor,
}

impl TransportMode {
    /// Resolves the mode from the `HEIDL_TRANSPORT` environment variable
    /// (`reactor` or `threaded`, default threaded) — the switch the CI
    /// parity lane flips to run the whole test suite under the reactor.
    pub fn from_env() -> TransportMode {
        match std::env::var("HEIDL_TRANSPORT").as_deref() {
            Ok("reactor") => TransportMode::Reactor,
            _ => TransportMode::Threaded,
        }
    }

    /// True when this mode should serve fd-backed sockets on the reactor.
    pub(crate) fn reactor_enabled(self) -> bool {
        self == TransportMode::Reactor && epoll_shim::available()
    }
}

/// Opens outbound transports to endpoints: the pluggable seam the
/// connection pool dials through.
///
/// The default is [`TcpConnector`]. Tests and chaos harnesses swap in a
/// `FaultyConnector` (see the `fault` module) via
/// `Orb::builder().connector(...)` to inject connect refusals and wrap
/// every produced transport in a fault injector.
pub trait Connector: Send + Sync + std::fmt::Debug {
    /// Opens a transport to `endpoint`.
    ///
    /// # Errors
    ///
    /// Propagates connect failures. The caller attaches the endpoint
    /// context (`RmiError::ConnectFailed`).
    fn connect(&self, endpoint: &Endpoint) -> io::Result<Box<dyn Transport>>;
}

/// The default [`Connector`]: plain TCP with `TCP_NODELAY`.
#[derive(Debug, Clone, Copy, Default)]
pub struct TcpConnector;

impl Connector for TcpConnector {
    fn connect(&self, endpoint: &Endpoint) -> io::Result<Box<dyn Transport>> {
        Ok(Box::new(TcpTransport::connect(&endpoint.socket_addr())?))
    }
}

/// TCP transport, `TCP_NODELAY` enabled — request/response RPC suffers
/// badly under Nagle.
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
}

impl TcpTransport {
    /// Connects to `addr` (e.g. `"localhost:1234"`).
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(addr: &str) -> io::Result<TcpTransport> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(TcpTransport { stream })
    }

    /// Wraps an accepted stream.
    ///
    /// # Errors
    ///
    /// Fails when `TCP_NODELAY` cannot be set.
    pub fn from_stream(stream: TcpStream) -> io::Result<TcpTransport> {
        stream.set_nodelay(true)?;
        Ok(TcpTransport { stream })
    }

    /// Applies socket-level read/write timeouts (`None` leaves a
    /// direction unbounded). Servers use these to reclaim readers from
    /// idle clients and writers from clients too slow to consume replies.
    ///
    /// # Errors
    ///
    /// Propagates `setsockopt` failures.
    pub fn set_timeouts(
        &self,
        read: Option<std::time::Duration>,
        write: Option<std::time::Duration>,
    ) -> io::Result<()> {
        self.stream.set_read_timeout(read)?;
        self.stream.set_write_timeout(write)
    }
}

thread_local! {
    /// Where a TCP read lands before its bytes are appended to the
    /// caller's buffer. Safe code cannot hand the kernel uninitialized
    /// room, and a stack array would be zeroed on every read; this one is
    /// zeroed once per reading thread, and a reactor serving thousands of
    /// connections holds one, not one per connection.
    static RECV_CHUNK_BUF: std::cell::RefCell<Box<[u8]>> =
        std::cell::RefCell::new(vec![0; RECV_CHUNK].into_boxed_slice());
}

/// Slices one gathered TCP write takes: a frame's header, up to three
/// body parts and a trailer.
const GATHER: usize = 5;

impl Transport for TcpTransport {
    fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    fn send_vectored(&mut self, parts: &[&[u8]]) -> io::Result<()> {
        // Gather header + body into one writev(2) from a stack array: a
        // single syscall and — with TCP_NODELAY — usually a single
        // segment, with no staging copy of the frame and no allocation. A
        // frame has at most five parts; more go out a stack-full at a time.
        for group in parts.chunks(GATHER) {
            let mut storage = [IoSlice::new(&[]); GATHER];
            for (slot, part) in storage.iter_mut().zip(group) {
                *slot = IoSlice::new(part);
            }
            let mut bufs = &mut storage[..group.len()];
            IoSlice::advance_slices(&mut bufs, 0);
            while !bufs.is_empty() {
                match self.stream.write_vectored(bufs) {
                    Ok(0) => {
                        return Err(io::Error::new(
                            io::ErrorKind::WriteZero,
                            "failed to write whole frame",
                        ));
                    }
                    Ok(n) => IoSlice::advance_slices(&mut bufs, n),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(())
    }

    fn recv_into(&mut self, buf: &mut Vec<u8>) -> io::Result<usize> {
        RECV_CHUNK_BUF.with_borrow_mut(|chunk| {
            let n = self.stream.read(chunk)?;
            buf.extend_from_slice(&chunk[..n]);
            Ok(n)
        })
    }

    fn recv_body_into(&mut self, buf: &mut Vec<u8>, need: usize) -> io::Result<usize> {
        // Every one of these bytes belongs to the frame, so waiting for
        // all of them never stalls the reader early, and `take` never
        // reads into the next frame. `read_to_end` fills the spare
        // capacity in place: no stack bounce, no zeroing.
        (&self.stream).take(need as u64).read_to_end(buf)
    }

    fn peer(&self) -> String {
        self.stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "<disconnected>".to_owned())
    }

    fn split(self: Box<Self>) -> io::Result<(Box<dyn Transport>, Box<dyn Transport>)> {
        let reader = TcpTransport { stream: self.stream.try_clone()? };
        Ok((self, Box::new(reader)))
    }

    fn shutdown(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    fn raw_fd(&self) -> Option<i32> {
        #[cfg(unix)]
        {
            use std::os::fd::AsRawFd;
            Some(self.stream.as_raw_fd())
        }
        #[cfg(not(unix))]
        {
            None
        }
    }

    fn try_recv_into(&mut self, buf: &mut Vec<u8>, max: usize) -> io::Result<Option<usize>> {
        let Some(fd) = self.raw_fd() else {
            return Err(io::Error::new(io::ErrorKind::Unsupported, "no raw fd"));
        };
        let max = max.min(RECV_CHUNK);
        let start = buf.len();
        if buf.capacity() - start >= max {
            // Room already reserved (a large frame's body): receive in
            // place, zeroing the room instead of copying out of a chunk.
            buf.resize(start + max, 0);
            let got = epoll_shim::recv_nonblocking(fd, &mut buf[start..]);
            buf.truncate(start + got.as_ref().map_or(0, |n| n.unwrap_or(0)));
            return got;
        }
        // Otherwise bounce through the thread's chunk rather than grow a
        // connection's small read buffer just to offer the kernel room.
        RECV_CHUNK_BUF.with_borrow_mut(|chunk| {
            let got = epoll_shim::recv_nonblocking(fd, &mut chunk[..max])?;
            if let Some(n) = got {
                buf.extend_from_slice(&chunk[..n]);
            }
            Ok(got)
        })
    }

    fn wait_readable(&mut self, timeout: Duration) -> io::Result<bool> {
        epoll_shim::wait_readable(self.raw_fd().ok_or(io::ErrorKind::Unsupported)?, timeout)
    }

    fn try_send_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<Option<usize>> {
        let Some(fd) = self.raw_fd() else {
            return Err(io::Error::new(io::ErrorKind::Unsupported, "no raw fd"));
        };
        epoll_shim::send_vectored_nonblocking(fd, bufs)
    }
}

/// One end of an in-process duplex pipe.
pub struct InProcTransport {
    tx: crossbeam::channel::Sender<Vec<u8>>,
    rx: crossbeam::channel::Receiver<Vec<u8>>,
    /// Received but not yet read: a timed wait takes a message off the
    /// channel, and a nonblocking read hands out `max` bytes at a time.
    held: Vec<u8>,
    label: &'static str,
}

impl std::fmt::Debug for InProcTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InProcTransport").field("label", &self.label).finish()
    }
}

impl InProcTransport {
    /// Creates a connected pair of in-process transports.
    pub fn pair() -> (InProcTransport, InProcTransport) {
        let (atx, arx) = crossbeam::channel::unbounded();
        let (btx, brx) = crossbeam::channel::unbounded();
        (
            InProcTransport { tx: atx, rx: brx, held: Vec::new(), label: "inproc-a" },
            InProcTransport { tx: btx, rx: arx, held: Vec::new(), label: "inproc-b" },
        )
    }
}

impl Transport for InProcTransport {
    fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.tx
            .send(bytes.to_vec())
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer dropped"))
    }

    fn recv_into(&mut self, buf: &mut Vec<u8>) -> io::Result<usize> {
        if self.held.is_empty() {
            self.held = self.rx.recv().unwrap_or_default(); // empty: peer closed
        }
        let n = self.held.len();
        buf.append(&mut self.held);
        Ok(n)
    }

    fn peer(&self) -> String {
        self.label.to_owned()
    }

    fn split(self: Box<Self>) -> io::Result<(Box<dyn Transport>, Box<dyn Transport>)> {
        // Channels are already directional: hand the send side to the writer
        // half and the receive side to the reader half. Each half's unused
        // direction gets a fresh, permanently-disconnected channel end.
        let (dead_tx, _) = crossbeam::channel::unbounded();
        let (_, dead_rx) = crossbeam::channel::unbounded();
        let writer =
            InProcTransport { tx: self.tx, rx: dead_rx, held: Vec::new(), label: self.label };
        let reader =
            InProcTransport { tx: dead_tx, rx: self.rx, held: self.held, label: self.label };
        Ok((Box::new(writer), Box::new(reader)))
    }

    fn shutdown(&mut self) {
        // Dropping our sender disconnects the peer's receiver; the peer
        // then drops its own sender, which unblocks any split-off reader.
        let (dead_tx, _) = crossbeam::channel::unbounded();
        self.tx = dead_tx;
    }

    fn try_recv_into(&mut self, buf: &mut Vec<u8>, max: usize) -> io::Result<Option<usize>> {
        if !self.wait_readable(Duration::ZERO)? {
            return Ok(None);
        }
        let n = self.held.len().min(max);
        buf.extend(self.held.drain(..n));
        Ok(Some(n))
    }

    fn wait_readable(&mut self, timeout: Duration) -> io::Result<bool> {
        if self.held.is_empty() {
            match self.rx.recv_timeout(timeout) {
                Ok(bytes) => self.held = bytes,
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => return Ok(false),
                Err(_) => {} // peer closed: end-of-stream is readable
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn inproc_pair_carries_bytes_both_ways() {
        let (mut a, mut b) = InProcTransport::pair();
        a.send(b"hello").unwrap();
        let mut buf = Vec::new();
        assert_eq!(b.recv_into(&mut buf).unwrap(), 5);
        assert_eq!(buf, b"hello");
        b.send(b"world").unwrap();
        let mut buf = Vec::new();
        a.recv_into(&mut buf).unwrap();
        assert_eq!(buf, b"world");
    }

    #[test]
    fn inproc_close_reads_zero() {
        let (mut a, b) = InProcTransport::pair();
        drop(b);
        assert!(a.send(b"x").is_err());
        let mut buf = Vec::new();
        assert_eq!(a.recv_into(&mut buf).unwrap(), 0);
    }

    #[test]
    fn inproc_peer_labels() {
        let (a, b) = InProcTransport::pair();
        assert_eq!(a.peer(), "inproc-a");
        assert_eq!(b.peer(), "inproc-b");
    }

    #[test]
    fn inproc_split_keeps_directions() {
        let (a, mut b) = InProcTransport::pair();
        let (mut aw, mut ar) = Box::new(a).split().unwrap();
        aw.send(b"out").unwrap();
        let mut buf = Vec::new();
        b.recv_into(&mut buf).unwrap();
        assert_eq!(buf, b"out");
        b.send(b"back").unwrap();
        let mut buf = Vec::new();
        ar.recv_into(&mut buf).unwrap();
        assert_eq!(buf, b"back");
        // The reader half's write direction is disconnected.
        assert!(ar.send(b"x").is_err());
    }

    #[test]
    fn tcp_transport_roundtrip_on_loopback() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = TcpTransport::from_stream(stream).unwrap();
            let mut buf = Vec::new();
            while buf.len() < 4 {
                if t.recv_into(&mut buf).unwrap() == 0 {
                    break;
                }
            }
            t.send(&buf).unwrap();
        });
        let mut client = TcpTransport::connect(&addr.to_string()).unwrap();
        assert!(client.peer().contains("127.0.0.1"));
        client.send(b"ping").unwrap();
        let mut buf = Vec::new();
        while buf.len() < 4 {
            if client.recv_into(&mut buf).unwrap() == 0 {
                break;
            }
        }
        assert_eq!(buf, b"ping");
        server.join().unwrap();
    }

    #[test]
    fn tcp_send_vectored_writes_any_number_of_parts_in_order() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let big = vec![b'z'; 1 << 20];
        let parts: [&[u8]; 7] = [b"one", b"", b"three", &big, b"", b"six", b"seven"];
        let expected = parts.concat();
        let want = expected.len();
        let reader = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = TcpTransport::from_stream(stream).unwrap();
            let mut got = Vec::new();
            while got.len() < want && t.recv_into(&mut got).unwrap() > 0 {}
            got
        });
        let mut client = TcpTransport::connect(&addr.to_string()).unwrap();
        client.send_vectored(&parts).unwrap();
        assert!(reader.join().unwrap() == expected, "parts arrived torn or out of order");
    }
}
