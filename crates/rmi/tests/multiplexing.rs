//! Multiplexed-connection tests: many concurrent callers sharing one
//! socket per endpoint, out-of-order reply correlation by request id, and
//! per-call deadlines that do not poison the shared connection.

use heidl_rmi::*;
use heidl_wire::{CdrProtocol, Decoder, Encoder, Protocol, TextProtocol};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// `echo(x) -> x`, with an optional per-call sleep so some requests
/// finish long after later ones (forcing out-of-order replies), a
/// `nap(ms)` method that just sleeps — the slow servant for deadline
/// tests — and `mark(x) -> x`, which logs `x` so tests can see the order
/// calls ran in.
struct SleepyEchoSkel {
    base: SkeletonBase,
    dispatched: AtomicUsize,
    marks: Mutex<Vec<i32>>,
}

impl SleepyEchoSkel {
    fn new() -> Arc<SleepyEchoSkel> {
        Arc::new(SleepyEchoSkel {
            base: SkeletonBase::new(
                "IDL:Test/SleepyEcho:1.0",
                DispatchKind::Hash,
                ["echo", "nap", "mark"],
                vec![],
            ),
            dispatched: AtomicUsize::new(0),
            marks: Mutex::new(Vec::new()),
        })
    }
}

impl Skeleton for SleepyEchoSkel {
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
                let sleep_ms = args.get_long()?;
                if sleep_ms > 0 {
                    std::thread::sleep(Duration::from_millis(sleep_ms as u64));
                }
                self.dispatched.fetch_add(1, Ordering::SeqCst);
                reply.put_long(v);
                Ok(DispatchOutcome::Handled)
            }
            Some(1) => {
                let ms = args.get_long()?;
                std::thread::sleep(Duration::from_millis(ms as u64));
                reply.put_long(ms);
                Ok(DispatchOutcome::Handled)
            }
            Some(2) => {
                let v = args.get_long()?;
                self.marks.lock().unwrap().push(v);
                reply.put_long(v);
                Ok(DispatchOutcome::Handled)
            }
            _ => self.base.dispatch_parents(method, args, reply),
        }
    }
}

fn echo(orb: &Orb, objref: &ObjectRef, v: i32, sleep_ms: i32) -> RmiResult<i32> {
    let mut call = orb.call(objref, "echo");
    call.args().put_long(v);
    call.args().put_long(sleep_ms);
    let mut reply = orb.invoke(call)?;
    Ok(reply.results().get_long()?)
}

#[test]
fn many_threads_share_one_pooled_connection() {
    const THREADS: usize = 8;
    const CALLS: usize = 25;
    let orb = Orb::new();
    orb.serve("127.0.0.1:0").unwrap();
    let skel = SleepyEchoSkel::new();
    let objref = orb.export(skel).unwrap();

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let orb = orb.clone();
            let objref = objref.clone();
            std::thread::spawn(move || {
                for i in 0..CALLS {
                    let v = (t * CALLS + i) as i32;
                    // A sprinkling of slow calls so replies interleave
                    // across threads and arrive out of request order.
                    let sleep = if i % 7 == 0 { 3 } else { 0 };
                    assert_eq!(echo(&orb, &objref, v, sleep).unwrap(), v);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(
        orb.connections().opened_count(),
        1,
        "{} concurrent calls multiplexed over a single socket",
        THREADS * CALLS
    );
    orb.shutdown();
}

#[test]
fn thirty_two_clients_never_exceed_the_connection_cap() {
    const CLIENTS: usize = 32;
    const CAP: usize = 3;
    let server = Orb::new();
    server.serve("127.0.0.1:0").unwrap();
    let objref = server.export(SleepyEchoSkel::new()).unwrap();

    let client = Orb::builder().max_connections_per_endpoint(CAP).build();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let orb = client.clone();
            let objref = objref.clone();
            std::thread::spawn(move || {
                for i in 0..5 {
                    let v = (t * 5 + i) as i32;
                    assert_eq!(echo(&orb, &objref, v, 1).unwrap(), v);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let opened = client.connections().opened_count();
    assert!(opened as usize <= CAP, "{CLIENTS} clients opened {opened} sockets, cap {CAP}");
    server.shutdown();
}

#[test]
fn slow_calls_do_not_head_of_line_block_fast_ones() {
    let orb = Orb::new();
    orb.serve("127.0.0.1:0").unwrap();
    let objref = orb.export(SleepyEchoSkel::new()).unwrap();

    // Park a slow call on the shared connection…
    let slow = {
        let orb = orb.clone();
        let objref = objref.clone();
        std::thread::spawn(move || echo(&orb, &objref, 1, 300))
    };
    std::thread::sleep(Duration::from_millis(30));
    // …and race a fast one past it on the same socket.
    let start = Instant::now();
    assert_eq!(echo(&orb, &objref, 2, 0).unwrap(), 2);
    let fast_elapsed = start.elapsed();
    assert_eq!(slow.join().unwrap().unwrap(), 1);
    assert_eq!(orb.connections().opened_count(), 1, "both calls shared the socket");
    assert!(
        fast_elapsed < Duration::from_millis(250),
        "fast call waited {fast_elapsed:?} behind the slow one"
    );
    orb.shutdown();
}

#[test]
fn deadline_exceeded_leaves_the_connection_usable() {
    let orb = Orb::new();
    orb.serve("127.0.0.1:0").unwrap();
    let objref = orb.export(SleepyEchoSkel::new()).unwrap();

    // Warm the connection so the deadline failure hits the pooled socket.
    assert_eq!(echo(&orb, &objref, 7, 0).unwrap(), 7);

    let mut call = orb.call(&objref, "nap");
    call.args().put_long(400);
    let err = orb
        .invoke_with(call, CallOptions::builder().deadline(Duration::from_millis(50)).build())
        .unwrap_err();
    assert!(matches!(err, RmiError::DeadlineExceeded { .. }), "{err}");
    assert_eq!(orb.retry_count(), 0, "a deadline is not a stale connection");

    // The same pooled connection keeps working; the orphaned nap reply is
    // dropped by the demultiplexer without desynchronizing anything.
    for v in 0..5 {
        assert_eq!(echo(&orb, &objref, v, 0).unwrap(), v);
    }
    assert_eq!(orb.connections().opened_count(), 1, "no reconnect after the deadline");
    orb.shutdown();
}

#[test]
fn default_deadline_applies_when_call_options_do_not() {
    let orb = Orb::builder().default_deadline(Duration::from_millis(50)).build();
    orb.serve("127.0.0.1:0").unwrap();
    let objref = orb.export(SleepyEchoSkel::new()).unwrap();

    let mut call = orb.call(&objref, "nap");
    call.args().put_long(400);
    let err = orb.invoke(call).unwrap_err();
    assert!(matches!(err, RmiError::DeadlineExceeded { .. }), "{err}");

    // An explicit per-call deadline overrides the default.
    let mut call = orb.call(&objref, "nap");
    call.args().put_long(100);
    let mut reply = orb
        .invoke_with(call, CallOptions::builder().deadline(Duration::from_secs(5)).build())
        .unwrap();
    assert_eq!(reply.results().get_long().unwrap(), 100);
    orb.shutdown();
}

/// A reader lent to an overrunning call does not head-of-line-block its
/// connection: after a warm-up that keeps lending the reader, a 300 ms
/// call parks on it, and a fast call on the same socket still returns
/// within 50 ms. During the same overrun a oneway and then a two-way from
/// one thread run in that order.
fn lent_reader_overrun_is_bounded(protocol: Arc<dyn Protocol>) {
    let orb = Orb::with_protocol(protocol);
    orb.serve("127.0.0.1:0").unwrap();
    let skel = SleepyEchoSkel::new();
    let objref = orb.export(Arc::clone(&skel) as Arc<dyn Skeleton>).unwrap();
    for v in 0..200 {
        assert_eq!(echo(&orb, &objref, v, 0).unwrap(), v);
    }
    // A reply can reach the client just before its in-flight slot frees.
    while orb.server_health().unwrap().in_flight != 0 {
        std::thread::yield_now();
    }
    let slow = {
        let orb = orb.clone();
        let objref = objref.clone();
        std::thread::spawn(move || echo(&orb, &objref, 1, 300))
    };
    // The slow call is admitted (and lent) before the fast one is sent.
    while orb.server_health().unwrap().in_flight == 0 {
        std::thread::yield_now();
    }

    let start = Instant::now();
    assert_eq!(echo(&orb, &objref, 2, 0).unwrap(), 2);
    let fast_elapsed = start.elapsed();
    assert!(
        fast_elapsed < Duration::from_millis(50),
        "fast call waited {fast_elapsed:?} behind a lent reader"
    );

    let mut oneway = orb.call_oneway(&objref, "mark");
    oneway.args().put_long(7);
    orb.invoke_oneway(oneway).unwrap();
    let mut two_way = orb.call(&objref, "mark");
    two_way.args().put_long(8);
    assert_eq!(orb.invoke(two_way).unwrap().results().get_long().unwrap(), 8);
    assert!(start.elapsed() < Duration::from_millis(250), "both ran during the overrun");
    assert_eq!(*skel.marks.lock().unwrap(), [7, 8], "the oneway ran before the two-way");

    assert_eq!(slow.join().unwrap().unwrap(), 1);
    assert_eq!(orb.connections().opened_count(), 1, "every call shared the socket");
    orb.shutdown();
}

#[test]
fn lent_reader_overrun_is_bounded_over_text() {
    lent_reader_overrun_is_bounded(Arc::new(TextProtocol));
}

#[test]
fn lent_reader_overrun_is_bounded_over_cdr() {
    lent_reader_overrun_is_bounded(Arc::new(CdrProtocol));
}

// ---- the reader token: callers read their own replies -----------------------

/// A client transport that tells the test each time its read half waits
/// for readability with a timeout, which only a leader with a deadline
/// does. (The zero wait a connection makes when it is set up, asking
/// whether the transport can wait at all, is not told.)
struct Watched {
    inner: Box<dyn Transport>,
    waits: mpsc::Sender<()>,
}

impl Transport for Watched {
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
        let (writer, reader) = self.inner.split()?;
        Ok((writer, Box::new(Watched { inner: reader, waits: self.waits })))
    }

    fn shutdown(&mut self) {
        self.inner.shutdown();
    }

    fn try_recv_into(&mut self, buf: &mut Vec<u8>, max: usize) -> std::io::Result<Option<usize>> {
        self.inner.try_recv_into(buf, max)
    }

    fn wait_readable(&mut self, timeout: Duration) -> std::io::Result<bool> {
        if !timeout.is_zero() {
            let _ = self.waits.send(());
        }
        self.inner.wait_readable(timeout)
    }
}

/// A body leading with `id`, as every request and reply does; the
/// scripted peer below answers a request by echoing it.
fn tagged(id: u64, payload: &str) -> Vec<u8> {
    let mut enc = TextProtocol.encoder();
    enc.put_ulonglong(id);
    enc.put_string(payload);
    enc.finish()
}

/// Runs `conn.call` on a thread of its own; the result comes back on the
/// returned channel.
fn call_on_thread(
    conn: &Arc<MuxConnection>,
    id: u64,
    deadline: Option<Duration>,
) -> mpsc::Receiver<RmiResult<Vec<u8>>> {
    let (tx, rx) = mpsc::channel();
    let conn = Arc::clone(conn);
    std::thread::spawn(move || {
        let _ = tx.send(conn.call(id, &tagged(id, "payload"), deadline).map(|b| b.to_vec()));
    });
    rx
}

/// Caller A leads with a 20 ms deadline and caller B follows with none;
/// the scripted peer holds both replies until A has given up. A's
/// deadline must hand the reader to B, which then reads its own reply,
/// and the connection must carry a third call.
#[test]
fn a_leader_past_its_deadline_hands_the_reader_to_a_follower() {
    let text: Arc<dyn Protocol> = Arc::new(TextProtocol);
    let (client_end, peer_end) = InProcTransport::pair();
    let (waits, waited) = mpsc::channel();
    let watched = Watched { inner: Box::new(client_end), waits };
    let conn = MuxConnection::over(Box::new(watched), Arc::clone(&text)).unwrap();
    let mut peer = ObjectCommunicator::new(Box::new(peer_end), text);
    let patience = Duration::from_secs(10);

    let (id_a, id_b) = (next_request_id(), next_request_id());
    let a = call_on_thread(&conn, id_a, Some(Duration::from_millis(20)));
    // A holds the token: it is waiting, with its deadline, to read.
    waited.recv_timeout(patience).expect("A never led");
    let b = call_on_thread(&conn, id_b, None);
    assert_eq!(peer.recv().unwrap().unwrap(), tagged(id_a, "payload"));
    let request_b = peer.recv().unwrap().unwrap();

    let err = a.recv_timeout(patience).unwrap().unwrap_err();
    assert!(matches!(err, RmiError::DeadlineExceeded { .. }), "A: {err}");
    peer.send(&request_b).unwrap();
    let reply_b = b.recv_timeout(patience).expect("B never read its reply: the token was lost");
    assert_eq!(reply_b.unwrap(), tagged(id_b, "payload"));

    let id_c = next_request_id();
    let c = call_on_thread(&conn, id_c, None);
    let request_c = peer.recv().unwrap().unwrap();
    peer.send(&request_c).unwrap();
    assert_eq!(c.recv_timeout(patience).unwrap().unwrap(), tagged(id_c, "payload"));
    assert_eq!(conn.in_flight(), 0, "A's abandoned registration is gone");
    assert!(conn.is_alive());
}

/// `stream string drip(in long n)`: `n` one-letter chunks, each sent only
/// once the test lets it through.
struct Drip {
    gate: Arc<Mutex<mpsc::Receiver<()>>>,
}

impl StreamServant for Drip {
    fn type_id(&self) -> &str {
        "IDL:Test/Drip:1.0"
    }

    fn open(&self, _method: &str, args: &mut dyn Decoder) -> RmiResult<StreamBody> {
        let mut left = args.get_long()?;
        let gate = Arc::clone(&self.gate);
        Ok(StreamBody::from_fn(move |_| {
            if left == 0 {
                return None;
            }
            gate.lock().unwrap().recv().ok()?;
            left -= 1;
            Some("x".to_owned())
        }))
    }
}

/// `long pass(in long x)`: returns `x` once the test lets it through.
struct Gate {
    base: SkeletonBase,
    gate: Mutex<mpsc::Receiver<()>>,
}

impl Skeleton for Gate {
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
                let x = args.get_long()?;
                let _ = self.gate.lock().unwrap().recv();
                reply.put_long(x);
                Ok(DispatchOutcome::Handled)
            }
            _ => self.base.dispatch_parents(method, args, reply),
        }
    }
}

/// A stream consumer and a two-way caller share one connection, and the
/// replies each waits for are let through in turn: whichever is waiting
/// when the other's frame lands has the token handed to it, so each leads
/// in turn, and both see everything.
#[test]
fn a_stream_consumer_and_a_caller_take_turns_leading_one_connection() {
    const ROUNDS: i32 = 4;
    let server = Orb::builder().transport_mode(TransportMode::Threaded).build();
    server.serve("127.0.0.1:0").unwrap();
    let (chunks, chunk_gate) = mpsc::channel();
    let (passes, pass_gate) = mpsc::channel();
    let drip = server.export_stream(Arc::new(Drip { gate: Arc::new(Mutex::new(chunk_gate)) }));
    let base = SkeletonBase::new("IDL:Test/Gate:1.0", DispatchKind::Hash, ["pass"], vec![]);
    let gated = server.export(Arc::new(Gate { base, gate: Mutex::new(pass_gate) })).unwrap();
    let client = Orb::builder().transport_mode(TransportMode::Threaded).build();

    let mut call = client.call(&drip.unwrap(), "drip");
    call.args().put_long(ROUNDS);
    let mut stream = client.invoke_stream(call).unwrap();
    let (streamed_tx, streamed) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = streamed_tx.send(stream.collect_string());
    });
    let (passed_tx, passed) = mpsc::channel();
    {
        let client = client.clone();
        std::thread::spawn(move || {
            for x in 0..ROUNDS {
                let mut call = client.call(&gated, "pass");
                call.args().put_long(x);
                let got = client.invoke(call).and_then(|mut r| Ok(r.results().get_long()?));
                let _ = passed_tx.send(got);
            }
        });
    }
    let patience = Duration::from_secs(10);
    for x in 0..ROUNDS {
        chunks.send(()).unwrap();
        passes.send(()).unwrap();
        assert_eq!(passed.recv_timeout(patience).expect("the caller stalled").unwrap(), x);
    }
    let got = streamed.recv_timeout(patience).expect("the consumer stalled").unwrap();
    assert_eq!(got, "x".repeat(ROUNDS as usize));
    assert_eq!(client.connections().opened_count(), 1, "one connection carried both");
    client.shutdown();
    server.shutdown();
}
