//! Client-side heartbeat liveness ([`OrbBuilder::heartbeat`]) and its
//! interaction with the server's `read_idle_timeout`: pings are real
//! `_health.ping` frames, so they reset the server's socket-level idle
//! timer — an idle-but-pinging pooled connection must survive a timeout
//! that would otherwise reap it, while *not* counting as application
//! traffic in the server's byte counters.

use heidl_rmi::*;
use heidl_wire::{Decoder, Encoder};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

struct EchoSkel {
    base: SkeletonBase,
}

impl Skeleton for EchoSkel {
    fn type_id(&self) -> &str {
        self.base.type_id()
    }

    fn dispatch(
        &self,
        method: &str,
        args: &mut dyn Decoder,
        reply: &mut dyn Encoder,
    ) -> RmiResult<DispatchOutcome> {
        match self.base.find(method) {
            Some(0) => {
                let v = args.get_long()?;
                reply.put_long(v + 1);
                Ok(DispatchOutcome::Handled)
            }
            _ => self.base.dispatch_parents(method, args, reply),
        }
    }
}

fn spawn_server(policy: ServerPolicy) -> (Orb, ObjectRef) {
    let orb = Orb::builder().server_policy(policy).build();
    orb.serve("127.0.0.1:0").unwrap();
    let objref = orb
        .export(Arc::new(EchoSkel {
            base: SkeletonBase::new("IDL:Test/Echo:1.0", DispatchKind::Hash, ["ping"], vec![]),
        }))
        .unwrap();
    (orb, objref)
}

fn call(orb: &Orb, objref: &ObjectRef) -> RmiResult<i32> {
    let mut c = orb.call(objref, "ping");
    c.args().put_long(41);
    Ok(orb.invoke(c)?.results().get_long()?)
}

/// The satellite regression: a pooled connection that is idle from the
/// application's point of view but carries heartbeats outlives a server
/// `read_idle_timeout` several times shorter than the idle window — the
/// pings reset the server's read timer, so the server must neither kill
/// the connection nor the client re-dial.
#[test]
fn idle_but_pinging_connection_survives_the_server_idle_timeout() {
    let (server, objref) = spawn_server(
        ServerPolicy::default().with_read_idle_timeout(Some(Duration::from_millis(300))),
    );
    let client = Orb::builder().heartbeat(Duration::from_millis(100)).build();

    assert_eq!(call(&client, &objref).unwrap(), 42);
    assert_eq!(client.connections().opened_count(), 1);

    // Idle for 3x the server's read timeout. Only heartbeats flow.
    std::thread::sleep(Duration::from_millis(900));

    assert_eq!(call(&client, &objref).unwrap(), 42, "the pooled connection is still usable");
    assert_eq!(
        client.connections().opened_count(),
        1,
        "no re-dial: heartbeats kept the server's idle timer from firing"
    );
    assert!(
        client.metrics().get(Counter::HeartbeatsSent) >= 2,
        "the idle window was covered by pings"
    );
    server.shutdown();
}

/// The control: the same idle window WITHOUT heartbeats loses the pooled
/// connection to the server's idle reaper, and the next call re-dials.
/// (This is the pre-heartbeat behavior the satellite preserves for
/// non-pinging clients — dead weight still gets reaped.)
#[test]
fn silent_idle_connection_is_reaped_and_redialed() {
    let (server, objref) = spawn_server(
        ServerPolicy::default().with_read_idle_timeout(Some(Duration::from_millis(300))),
    );
    let client = Orb::new();

    assert_eq!(call(&client, &objref).unwrap(), 42);
    assert_eq!(client.connections().opened_count(), 1);

    std::thread::sleep(Duration::from_millis(900));

    assert_eq!(call(&client, &objref).unwrap(), 42, "recovers transparently on a fresh dial");
    assert_eq!(
        client.connections().opened_count(),
        2,
        "the silent connection was reaped by the server and re-dialed"
    );
    server.shutdown();
}

/// Heartbeat pings are infrastructure, not application traffic: a pinged
/// idle window must not move the server's `bytes_in`/`bytes_out`
/// counters (the satellite's "pings don't count as app traffic" half).
#[test]
fn heartbeats_are_not_metered_as_application_traffic() {
    let (server, objref) = spawn_server(ServerPolicy::default());
    let client = Orb::builder().heartbeat(Duration::from_millis(50)).build();

    assert_eq!(call(&client, &objref).unwrap(), 42);
    // BytesOut is counted just after the reply hits the wire, so give the
    // server thread a moment to get past the write before snapshotting.
    let deadline = std::time::Instant::now() + Duration::from_secs(1);
    while server.metrics().get(Counter::BytesOut) == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    let bytes_in = server.metrics().get(Counter::BytesIn);
    let bytes_out = server.metrics().get(Counter::BytesOut);
    assert!(bytes_in > 0 && bytes_out > 0, "the app call itself was metered");

    std::thread::sleep(Duration::from_millis(400));
    assert!(client.metrics().get(Counter::HeartbeatsSent) >= 3, "pings flowed while idle");
    assert_eq!(server.metrics().get(Counter::BytesIn), bytes_in, "pings don't count as bytes_in");
    assert_eq!(
        server.metrics().get(Counter::BytesOut),
        bytes_out,
        "pongs don't count as bytes_out"
    );
    server.shutdown();
}

/// Heartbeats detect a dead peer and evict the corpse from the pool:
/// after the server dies, the pinger discards the pooled connection, so
/// a later call fails on a fresh *connect* (retry-safe) rather than
/// surfacing the ambiguous mid-call `Disconnected` from a dead socket.
#[test]
fn heartbeat_evicts_dead_peer_from_the_pool() {
    let (server, objref) = spawn_server(ServerPolicy::default());
    let client = Orb::builder().heartbeat(Duration::from_millis(50)).build();

    assert_eq!(call(&client, &objref).unwrap(), 42);
    assert_eq!(client.connections().pooled_count(), 1);

    // Tear the server down hard: drain force-closes the established
    // connection (plain `shutdown()` only stops accepting new ones).
    server.shutdown_and_drain();
    // Give the pinger a few ticks to notice the dead peer.
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while client.connections().pooled_count() > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(25));
    }
    assert_eq!(client.connections().pooled_count(), 0, "the dead connection was evicted");

    let err = call(&client, &objref).unwrap_err();
    assert_eq!(
        classify(&err),
        RetryClass::Safe,
        "the failure is a clean connect-level error, safe to retry/fail over: {err}"
    );
}

/// A TCP client connection that makes the heartbeat thread slow to read:
/// there, each nonblocking read of its read half first lingers [`LINGER`]
/// holding the connection's reader token, and counts the bytes it then
/// gets in `heartbeat_read`. A caller that sends meanwhile finds the token
/// taken, so its reply is read by the heartbeat thread.
struct Lingering {
    inner: Box<dyn Transport>,
    heartbeat_read: Arc<AtomicUsize>,
}

/// How long a heartbeat thread's read lingers.
const LINGER: Duration = Duration::from_millis(20);

impl Transport for Lingering {
    fn send(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.inner.send(bytes)
    }

    fn recv_into(&mut self, buf: &mut Vec<u8>) -> std::io::Result<usize> {
        self.inner.recv_into(buf)
    }

    fn peer(&self) -> String {
        self.inner.peer()
    }

    fn split(self: Box<Self>) -> std::io::Result<(Box<dyn Transport>, Box<dyn Transport>)> {
        let (writer, inner) = self.inner.split()?;
        Ok((writer, Box::new(Lingering { inner, heartbeat_read: self.heartbeat_read })))
    }

    fn shutdown(&mut self) {
        self.inner.shutdown();
    }

    fn try_recv_into(&mut self, buf: &mut Vec<u8>, max: usize) -> std::io::Result<Option<usize>> {
        let on_heartbeat =
            std::thread::current().name().is_some_and(|name| name.starts_with("heidl-heartbeat"));
        if on_heartbeat {
            std::thread::sleep(LINGER);
        }
        let got = self.inner.try_recv_into(buf, max)?;
        if on_heartbeat {
            self.heartbeat_read.fetch_add(got.unwrap_or(0), Ordering::SeqCst);
        }
        Ok(got)
    }

    fn wait_readable(&mut self, timeout: Duration) -> std::io::Result<bool> {
        self.inner.wait_readable(timeout)
    }
}

/// Dials [`Lingering`] TCP connections.
#[derive(Debug, Default)]
struct LingeringConnector {
    heartbeat_read: Arc<AtomicUsize>,
}

impl Connector for LingeringConnector {
    fn connect(&self, endpoint: &Endpoint) -> std::io::Result<Box<dyn Transport>> {
        let inner = TcpConnector.connect(endpoint)?;
        Ok(Box::new(Lingering { inner, heartbeat_read: Arc::clone(&self.heartbeat_read) }))
    }
}

/// A connection in use is read by its callers, never by the heartbeat: a
/// busy connection's replies are read on the callers' threads even when
/// the heartbeat thread is slow to let go of the reader token. Calls run
/// back to back for several heartbeat ticks, so the connection is never
/// idle and the heartbeat has nothing of its own (a pong) to read on it.
#[test]
fn heartbeat_reads_no_reply_of_a_waiting_caller() {
    let (server, objref) = spawn_server(ServerPolicy::default());
    let connector = Arc::new(LingeringConnector::default());
    let heartbeat_read = Arc::clone(&connector.heartbeat_read);
    let client = Orb::builder().connector(connector).heartbeat(Duration::from_millis(200)).build();

    let started = std::time::Instant::now();
    let mut calls = 0;
    while started.elapsed() < Duration::from_secs(1) {
        assert_eq!(call(&client, &objref).unwrap(), 42);
        calls += 1;
    }
    let read = heartbeat_read.load(Ordering::SeqCst);
    assert_eq!(read, 0, "the heartbeat thread read {read} bytes of replies to {calls} calls");
    client.shutdown();
    server.shutdown();
}

/// A TCP client connection whose incoming bytes can be cut off: once
/// `cut` is set, everything that arrives is swallowed unread, as behind a
/// partition that sends no RST.
struct Partitionable {
    inner: Box<dyn Transport>,
    cut: Arc<AtomicBool>,
}

impl Transport for Partitionable {
    fn send(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.inner.send(bytes)
    }

    fn recv_into(&mut self, buf: &mut Vec<u8>) -> std::io::Result<usize> {
        let before = buf.len();
        loop {
            let got = self.inner.recv_into(buf)?;
            if got == 0 || !self.cut.load(Ordering::SeqCst) {
                return Ok(got);
            }
            buf.truncate(before);
        }
    }

    fn peer(&self) -> String {
        self.inner.peer()
    }

    fn split(self: Box<Self>) -> std::io::Result<(Box<dyn Transport>, Box<dyn Transport>)> {
        let (writer, inner) = self.inner.split()?;
        Ok((writer, Box::new(Partitionable { inner, cut: self.cut })))
    }

    fn shutdown(&mut self) {
        self.inner.shutdown();
    }

    fn try_recv_into(&mut self, buf: &mut Vec<u8>, max: usize) -> std::io::Result<Option<usize>> {
        let before = buf.len();
        match self.inner.try_recv_into(buf, max)? {
            Some(got) if got > 0 && self.cut.load(Ordering::SeqCst) => {
                buf.truncate(before);
                Ok(None)
            }
            other => Ok(other),
        }
    }

    fn wait_readable(&mut self, timeout: Duration) -> std::io::Result<bool> {
        self.inner.wait_readable(timeout)
    }
}

/// Dials [`Partitionable`] TCP connections sharing one `cut` switch.
#[derive(Debug, Default)]
struct PartitionConnector {
    cut: Arc<AtomicBool>,
}

impl Connector for PartitionConnector {
    fn connect(&self, endpoint: &Endpoint) -> std::io::Result<Box<dyn Transport>> {
        let inner = TcpConnector.connect(endpoint)?;
        Ok(Box::new(Partitionable { inner, cut: Arc::clone(&self.cut) }))
    }
}

/// A ping whose connection a caller takes up before the ping is judged is
/// judged once the caller is done: a silent peer gives the caller nothing
/// to read, so the heartbeat still evicts the connection on that first
/// unanswered ping, without waiting to send another.
#[test]
fn silent_peer_is_evicted_on_a_ping_that_a_caller_outlasted() {
    let (server, objref) = spawn_server(ServerPolicy::default());
    let connector = Arc::new(PartitionConnector::default());
    let cut = Arc::clone(&connector.cut);
    let client = Orb::builder().connector(connector).heartbeat(Duration::from_millis(100)).build();

    assert_eq!(call(&client, &objref).unwrap(), 42);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while client.metrics().get(Counter::HeartbeatsSent) == 0 {
        assert!(std::time::Instant::now() < deadline, "the idle connection was never pinged");
        std::thread::sleep(Duration::from_millis(1));
    }
    // The ping is out and the next tick is half an interval away: the
    // peer goes silent and a caller takes the connection up past it.
    cut.store(true, Ordering::SeqCst);
    let mut c = client.call(&objref, "ping");
    c.args().put_long(41);
    let options = CallOptions::builder().deadline(Duration::from_millis(300)).build();
    let err = client.invoke_with(c, options).unwrap_err();
    assert!(matches!(err, RmiError::DeadlineExceeded { .. }), "{err}");

    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while client.connections().pooled_count() > 0 {
        assert!(std::time::Instant::now() < deadline, "the silent connection was never evicted");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        client.metrics().get(Counter::HeartbeatsSent),
        1,
        "evicted on the ping the caller outlasted, not on a later one"
    );
    client.shutdown();
    server.shutdown();
}
