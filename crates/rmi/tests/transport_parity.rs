//! Transport-driver suite. Both drivers run one connection state machine
//! (`recv` on a blocking thread, `try_recv` on the reactor — their
//! agreement is a property test beside `ObjectCommunicator`), and the
//! whole workspace suite runs under each, so what stays here is what
//! only a side-by-side run or a raw socket can show: overload shedding
//! and graceful drain on both drivers, the global reply budget on both
//! drivers, the reactor's adversaries (dribbled partial reads, partial
//! writes to a slow reader, slow-loris eviction by the sweep timer, no
//! per-connection threads), and every reader, on both drivers, through
//! the large-frame path.

use heidl_rmi::*;
use heidl_wire::{CdrProtocol, DecodeLimits, Decoder, Encoder, Protocol, TextProtocol};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Both engines, in the order "baseline first".
const MODES: [TransportMode; 2] = [TransportMode::Threaded, TransportMode::Reactor];

// ---- `interface Echo { string shout(in string t); string blob(in long n); }`

struct EchoSkel {
    base: SkeletonBase,
}

impl EchoSkel {
    fn spawn() -> Arc<dyn Skeleton> {
        Arc::new(EchoSkel {
            base: SkeletonBase::new(
                "IDL:Parity/Echo:1.0",
                DispatchKind::Hash,
                ["shout", "blob", "nap"],
                vec![],
            ),
        })
    }
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
                let text = args.get_string()?;
                reply.put_string(&text.to_uppercase());
                Ok(DispatchOutcome::Handled)
            }
            Some(1) => {
                let n = args.get_long()?;
                reply.put_string(&"x".repeat(n as usize));
                Ok(DispatchOutcome::Handled)
            }
            Some(2) => {
                let ms = args.get_long()?;
                std::thread::sleep(Duration::from_millis(ms as u64));
                reply.put_long(ms);
                Ok(DispatchOutcome::Handled)
            }
            _ => self.base.dispatch_parents(method, args, reply),
        }
    }
}

fn serve(
    mode: TransportMode,
    protocol: Arc<dyn Protocol>,
    policy: ServerPolicy,
) -> (Orb, ObjectRef) {
    let orb = Orb::builder().transport_mode(mode).protocol(protocol).server_policy(policy).build();
    orb.serve("127.0.0.1:0").unwrap();
    let objref = orb.export(EchoSkel::spawn()).unwrap();
    (orb, objref)
}

fn client(mode: TransportMode, protocol: Arc<dyn Protocol>) -> Orb {
    Orb::builder().transport_mode(mode).protocol(protocol).build()
}

fn shout(orb: &Orb, target: &ObjectRef, text: &str) -> RmiResult<String> {
    let mut call = orb.call(target, "shout");
    call.args().put_string(text);
    let mut reply = orb.invoke(call)?;
    Ok(reply.results().get_string()?)
}

// ---- both drivers ------------------------------------------------------

#[test]
fn overload_sheds_with_busy_in_both_modes() {
    const CAP: usize = 2;
    const CALLS: usize = 4 * CAP;
    for mode in MODES {
        let (server, objref) = serve(
            mode,
            Arc::new(TextProtocol),
            ServerPolicy::default().with_max_in_flight(CAP).with_max_overflow_threads(64),
        );
        assert_eq!(server.transport_mode(), mode);
        let client_orb = client(mode, Arc::new(TextProtocol));
        let barrier = Arc::new(std::sync::Barrier::new(CALLS));
        let mut threads = Vec::new();
        for _ in 0..CALLS {
            let client_orb = client_orb.clone();
            let objref = objref.clone();
            let barrier = Arc::clone(&barrier);
            threads.push(std::thread::spawn(move || {
                barrier.wait();
                let mut call = client_orb.call(&objref, "nap");
                call.args().put_long(150);
                client_orb
                    .invoke_with(
                        call,
                        CallOptions::builder().retry_policy(RetryPolicy::none()).build(),
                    )
                    .map(|mut r| r.results().get_long().unwrap())
            }));
        }
        let (mut ok, mut busy) = (0, 0);
        for t in threads {
            match t.join().unwrap() {
                Ok(ms) => {
                    assert_eq!(ms, 150);
                    ok += 1;
                }
                Err(RmiError::ServerBusy { .. }) => busy += 1,
                Err(other) => panic!("mode {mode:?}: storm produced non-shed failure: {other}"),
            }
        }
        assert_eq!(ok + busy, CALLS, "mode {mode:?}");
        assert!(busy > 0, "mode {mode:?}: a 4x-cap storm must shed");
        // Still live afterward.
        assert_eq!(shout(&client_orb, &objref, "after").unwrap(), "AFTER");
        client_orb.shutdown();
        server.shutdown();
    }
}

#[test]
fn graceful_drain_finishes_inflight_work_in_both_modes() {
    for mode in MODES {
        let (server, objref) = serve(mode, Arc::new(TextProtocol), ServerPolicy::default());
        let client_orb = client(mode, Arc::new(TextProtocol));
        // Park one slow call in flight, then drain under it.
        let slow = {
            let client_orb = client_orb.clone();
            let objref = objref.clone();
            std::thread::spawn(move || {
                let mut call = client_orb.call(&objref, "nap");
                call.args().put_long(300);
                client_orb.invoke(call).map(|mut r| r.results().get_long().unwrap())
            })
        };
        std::thread::sleep(Duration::from_millis(100));
        assert!(server.shutdown_and_drain(), "mode {mode:?}: drain must beat its timeout");
        assert_eq!(slow.join().unwrap().unwrap(), 300, "mode {mode:?}: in-flight call must finish");
        client_orb.shutdown();
    }
}

// ---- reactor-specific behavior ------------------------------------------

/// Frames `call`'s body the way a conforming peer would put it on the wire.
fn raw_request(protocol: &dyn Protocol, target: &ObjectRef, method: &str, arg: &str) -> Vec<u8> {
    let mut call = Call::request(target, method, protocol);
    call.args().put_string(arg);
    let body = call.into_body();
    let mut framed = Vec::new();
    protocol.frame(&body, &mut framed);
    framed
}

/// Reads one whole frame's body off `stream`, keeping any bytes past it
/// in `acc` for the next call.
fn read_frame(stream: &mut TcpStream, protocol: &dyn Protocol, acc: &mut Vec<u8>) -> Vec<u8> {
    let mut chunk = [0u8; 64 * 1024];
    loop {
        if let Some(body) = protocol.deframe(acc).unwrap() {
            return body;
        }
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "peer closed before a whole frame arrived");
        acc.extend_from_slice(&chunk[..n]);
    }
}

/// Reads frames off `stream` until one deframes, then parses it as a reply.
fn read_reply(stream: &mut TcpStream, protocol: &dyn Protocol) -> Reply {
    Reply::parse(read_frame(stream, protocol, &mut Vec::new()), protocol).unwrap()
}

/// A raw connection whose reads are bounded, so a server that never
/// answers fails the test instead of hanging it.
fn connect_raw(server: &Orb) -> TcpStream {
    let endpoint = server.endpoint().unwrap();
    let stream = TcpStream::connect((endpoint.host.as_str(), endpoint.port)).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    stream
}

#[test]
fn reactor_reassembles_dribbled_request_bytes() {
    let protocol: Arc<dyn Protocol> = Arc::new(TextProtocol);
    let (server, objref) =
        serve(TransportMode::Reactor, Arc::clone(&protocol), ServerPolicy::default());
    let mut stream = connect_raw(&server);
    let framed = raw_request(protocol.as_ref(), &objref, "shout", "dribble");
    // One byte per write, with pauses: the reactor sees dozens of partial
    // reads and must keep per-connection deframe state across them.
    for byte in &framed {
        stream.write_all(std::slice::from_ref(byte)).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut reply = read_reply(&mut stream, protocol.as_ref());
    assert_eq!(reply.results().get_string().unwrap(), "DRIBBLE");
    server.shutdown();
}

#[test]
fn reactor_finishes_partial_writes_to_slow_reader() {
    let protocol: Arc<dyn Protocol> = Arc::new(TextProtocol);
    let (server, objref) =
        serve(TransportMode::Reactor, Arc::clone(&protocol), ServerPolicy::default());
    let mut stream = connect_raw(&server);
    // Ask for a reply far larger than loopback socket buffers, then
    // refuse to read for a while: the reactor's first write returns
    // short, the remainder parks in the connection's backlog, and
    // EPOLLOUT continuation must deliver every byte once we drain.
    const BLOB: usize = 16 * 1024 * 1024;
    let mut call = Call::request(&objref, "blob", protocol.as_ref());
    call.args().put_long(BLOB as i32);
    let body = call.into_body();
    let mut framed = Vec::new();
    protocol.frame(&body, &mut framed);
    stream.write_all(&framed).unwrap();
    std::thread::sleep(Duration::from_millis(300));
    let mut reply = read_reply(&mut stream, protocol.as_ref());
    let blob = reply.results().get_string().unwrap();
    assert_eq!(blob.len(), BLOB);
    assert!(blob.bytes().all(|b| b == b'x'));
    server.shutdown();
}

#[test]
fn reactor_sweep_timer_cuts_slow_loris_connections() {
    let protocol: Arc<dyn Protocol> = Arc::new(TextProtocol);
    let (server, objref) = serve(
        TransportMode::Reactor,
        Arc::clone(&protocol),
        ServerPolicy::default().with_read_idle_timeout(Some(Duration::from_millis(100))),
    );
    let mut stream = connect_raw(&server);
    // Half a frame, then silence: a slow-loris peer holding a connection
    // (and its deframe buffer) open forever. The sweep timer must cut it.
    let framed = raw_request(protocol.as_ref(), &objref, "shout", "loris");
    stream.write_all(&framed[..framed.len() / 2]).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let start = Instant::now();
    let mut chunk = [0u8; 1024];
    // EOF (Ok(0)) or reset — either way the server hung up on us.
    let cut = matches!(stream.read(&mut chunk), Ok(0) | Err(_));
    assert!(cut, "server kept a stalled half-frame connection open");
    assert!(
        start.elapsed() < Duration::from_secs(4),
        "eviction took longer than the sweep should allow"
    );
    server.shutdown();
}

#[test]
fn reactor_global_reply_budget_sheds_busy_under_slow_readers() {
    global_reply_budget_sheds_busy_under_slow_readers(TransportMode::Reactor);
}

/// The threaded row: there each unwritten reply is a remainder its
/// writing thread is blocked on, counted in the same budget.
#[test]
fn threaded_global_reply_budget_sheds_busy_under_slow_readers() {
    global_reply_budget_sheds_busy_under_slow_readers(TransportMode::Threaded);
}

fn global_reply_budget_sheds_busy_under_slow_readers(mode: TransportMode) {
    let protocol: Arc<dyn Protocol> = Arc::new(TextProtocol);
    const BUDGET: usize = 2 * 1024 * 1024;
    const BLOB: i32 = 8 * 1024 * 1024;
    let (server, objref) = serve(
        mode,
        Arc::clone(&protocol),
        ServerPolicy::default().with_max_reply_queue_bytes_global(BUDGET),
    );
    // Slow readers: each asks for a blob far larger than the global
    // budget and then refuses to read. The reply parks in its
    // connection's write backlog; the shared budget fills and stays full.
    let mut stalled = Vec::new();
    for _ in 0..4 {
        let mut stream = connect_raw(&server);
        let mut call = Call::request(&objref, "blob", protocol.as_ref());
        call.args().put_long(BLOB);
        let body = call.into_body();
        let mut framed = Vec::new();
        protocol.frame(&body, &mut framed);
        stream.write_all(&framed).unwrap();
        stalled.push(stream);
    }
    // A well-behaved caller must now be shed with Busy — not block, not
    // grow the backlog further.
    let client_orb = client(mode, Arc::clone(&protocol));
    let no_retry = CallOptions::builder().retry_policy(RetryPolicy::none()).build();
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut shed = false;
    while Instant::now() < deadline {
        let mut call = client_orb.call(&objref, "shout");
        call.args().put_string("storm");
        match client_orb.invoke_with(call, no_retry) {
            Err(RmiError::ServerBusy { .. }) => {
                shed = true;
                break;
            }
            Ok(_) | Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
    assert!(shed, "budget never tripped: slow readers should exhaust {BUDGET} queued bytes");
    // Drain the stalled connections; the backlog flushes, the budget
    // frees, and service recovers without a restart.
    let drains: Vec<_> = stalled
        .into_iter()
        .map(|mut stream| {
            // The timeout is how a drain thread learns it's done: after
            // the blob is consumed the connection stays open and a
            // further read would park forever.
            stream.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            std::thread::spawn(move || {
                let mut sink = [0u8; 64 * 1024];
                while let Ok(n) = stream.read(&mut sink) {
                    if n == 0 {
                        break;
                    }
                }
            })
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(15);
    let mut recovered = false;
    while Instant::now() < deadline {
        if shout(&client_orb, &objref, "after").is_ok_and(|r| r == "AFTER") {
            recovered = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(recovered, "budget must free once the backlog drains");
    for d in drains {
        d.join().unwrap();
    }
    client_orb.shutdown();
    server.shutdown();
}

/// Threads currently live in this process.
fn process_threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// Whether any live thread's name starts with `prefix` (`comm` truncates
/// names to 15 bytes, so keep prefixes shorter than that).
fn has_thread_named(prefix: &str) -> bool {
    std::fs::read_dir("/proc/self/task").unwrap().flatten().any(|t| {
        std::fs::read_to_string(t.path().join("comm"))
            .map(|name| name.trim_end().starts_with(prefix))
            .unwrap_or(false)
    })
}

/// This process's soft limit on open files (`None`: unlimited).
fn open_files_limit() -> Option<usize> {
    let limits = std::fs::read_to_string("/proc/self/limits").unwrap();
    let line = limits.lines().find(|line| line.starts_with("Max open files")).unwrap();
    line.split_whitespace().nth(3).unwrap().parse().ok()
}

/// Runs the test `name` in a process of its own, where no test beside it
/// starts or stops threads: `true` in that process, which goes on with
/// the test, and `false` in this one, once that process passed.
fn alone(name: &str) -> bool {
    const ALONE: &str = "HEIDL_PARITY_ALONE";
    if std::env::var_os(ALONE).is_some() {
        return true;
    }
    let mut run = std::process::Command::new(std::env::current_exe().unwrap());
    let out = run.args(["--exact", name]).env(ALONE, "1").output().unwrap();
    let log = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success() && log.contains("1 passed"), "{log}");
    false
}

/// A thousand idle connections add no thread to a reactor server: it
/// serves them all from its resident threads. Three descriptors per
/// connection (the test's socket, the accepted one, and its clone for
/// the split halves), so a low open-files limit takes fewer, leaving 512
/// for the rest of the process.
#[test]
fn reactor_does_not_spawn_per_connection_threads() {
    if !alone("reactor_does_not_spawn_per_connection_threads") {
        return;
    }
    let fd_room = open_files_limit().map_or(usize::MAX, |limit| limit.saturating_sub(512) / 3);
    let conns = fd_room.min(1_000);
    let (server, objref) =
        serve(TransportMode::Reactor, Arc::new(TextProtocol), ServerPolicy::default());
    // Prove the engine actually engaged: the per-server reactor thread
    // exists (silent fallback would make this whole test vacuous).
    assert!(has_thread_named("heidl-reactor-"), "reactor thread missing: engine fell back?");
    // One real call first so every lazily-spawned helper thread exists
    // before the baseline count is taken.
    let client_orb = client(TransportMode::Reactor, Arc::new(TextProtocol));
    assert_eq!(shout(&client_orb, &objref, "warm").unwrap(), "WARM");
    let before = process_threads();
    let idle: Vec<_> = (0..conns).map(|_| connect_raw(&server)).collect();
    // Give the acceptor time to register every connection.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.server_health().map_or(0, |h| h.connections) < conns as u64 {
        assert!(Instant::now() < deadline, "acceptor never saw all {conns} connections");
        std::thread::sleep(Duration::from_millis(10));
    }
    let during = process_threads();
    assert!(
        during <= before + 2,
        "{conns} idle connections grew the thread count {before} -> {during}: \
         the reactor must not spawn per-connection threads"
    );
    // The existing connections still work while the idle crowd is parked.
    assert_eq!(shout(&client_orb, &objref, "busy").unwrap(), "BUSY");
    drop(idle);
    client_orb.shutdown();
    server.shutdown();
}

/// Live threads whose name starts with `prefix`.
fn threads_named(prefix: &str) -> usize {
    let tasks = std::fs::read_dir("/proc/self/task").unwrap().flatten();
    let names = tasks.filter_map(|t| std::fs::read_to_string(t.path().join("comm")).ok());
    names.filter(|name| name.starts_with(prefix)).count()
}

/// A reactor client spawns no thread of its own: four callers holding
/// four pooled connections read their own replies, with no
/// `heidl-reactor-client` thread. The reactor server serves them from its
/// resident threads, at most five (`comm` keeps 15 bytes, so they read
/// `heidl-reactor-` and the port's first digit). Counted in a process of
/// its own, since the tests beside this one start and stop reactor
/// servers.
#[test]
fn reactor_client_spawns_no_threads_and_its_server_keeps_five() {
    if !alone("reactor_client_spawns_no_threads_and_its_server_keeps_five") {
        return;
    }
    const CALLERS: usize = 4;
    let (server, objref) =
        serve(TransportMode::Reactor, Arc::new(TextProtocol), ServerPolicy::default());
    let client_orb = client(TransportMode::Reactor, Arc::new(TextProtocol));
    client_orb.connections().set_max_connections_per_endpoint(CALLERS);
    let callers: Vec<_> = (0..CALLERS)
        .map(|_| {
            let (client_orb, objref) = (client_orb.clone(), objref.clone());
            std::thread::spawn(move || {
                let mut call = client_orb.call(&objref, "nap");
                call.args().put_long(300);
                client_orb.invoke(call).map(|mut r| r.results().get_long().unwrap())
            })
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.server_health().unwrap().in_flight < CALLERS as u64 {
        assert!(Instant::now() < deadline, "the callers never all arrived");
        std::thread::yield_now();
    }
    assert_eq!(client_orb.connections().opened_count(), CALLERS as u64);
    assert_eq!(threads_named("heidl-reactor-c"), 0, "a client reactor thread");
    let resident = threads_named("heidl-reactor-");
    assert!((1..=5).contains(&resident), "{resident} reactor server threads");
    for caller in callers {
        assert_eq!(caller.join().unwrap().unwrap(), 300);
    }
    client_orb.shutdown();
    server.shutdown();
}

// ---- large frames: bodies read straight into their own buffer -----------
//
// A CDR frame whose body is longer than one read chunk is not gathered in
// the connection's read buffer: its body gets a buffer of the declared
// length and the rest of the frame is read into it. Every reader takes
// that path — the server's (driven here by a raw client) and the
// client's (driven by a scripted raw server) — on both engines.

/// Seeded xorshift, so a failing boundary pattern replays.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

/// At least `n` bytes of multi-byte text: a byte landing in the wrong
/// place breaks the UTF-8 as well as the comparison.
fn large_text(n: usize, seed: u64) -> String {
    let mut rng = Rng(seed | 1);
    let alphabet = ['a', 'Z', '0', 'é', '€', '😀', ' '];
    let mut out = String::with_capacity(n + 4);
    while out.len() < n {
        out.push(alphabet[rng.below(alphabet.len())]);
    }
    out
}

/// Writes `bytes` in seeded pieces — single bytes, a split 12-byte
/// header, pieces straddling the 16 KiB read size — pausing after each so
/// the reader sees the boundaries.
fn dribble(stream: &mut TcpStream, bytes: &[u8], seed: u64) {
    const PIECES: [usize; 11] = [1, 2, 3, 7, 12, 100, 4096, 16383, 16384, 16385, 40_000];
    let mut rng = Rng(seed | 1);
    let mut rest = bytes;
    while !rest.is_empty() {
        let n = PIECES[rng.below(PIECES.len())].min(rest.len());
        stream.write_all(&rest[..n]).unwrap();
        rest = &rest[n..];
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn request_id(body: &[u8]) -> u64 {
    CdrProtocol.decoder(body.to_vec()).unwrap().get_ulonglong().unwrap()
}

#[test]
fn large_request_dribbled_across_reads_in_both_modes() {
    for (seed, mode) in MODES.into_iter().enumerate() {
        let (server, objref) = serve(mode, Arc::new(CdrProtocol), ServerPolicy::default());
        let mut stream = connect_raw(&server);
        stream.set_nodelay(true).unwrap();
        let text = large_text(50_000, seed as u64);
        dribble(&mut stream, &raw_request(&CdrProtocol, &objref, "shout", &text), seed as u64);
        let mut reply = read_reply(&mut stream, &CdrProtocol);
        assert_eq!(reply.results().get_string().unwrap(), text.to_uppercase(), "mode {mode:?}");
        server.shutdown();
    }
}

#[test]
fn two_large_requests_and_a_small_one_in_one_write_in_both_modes() {
    for mode in MODES {
        let (server, objref) = serve(mode, Arc::new(CdrProtocol), ServerPolicy::default());
        let mut stream = connect_raw(&server);
        let texts = [large_text(70_000, 1), large_text(20_000, 2), "small".to_owned()];
        let mut ids = Vec::new();
        let mut batch = Vec::new();
        for text in &texts {
            let framed = raw_request(&CdrProtocol, &objref, "shout", text);
            ids.push(request_id(&framed[12..]));
            batch.extend_from_slice(&framed);
        }
        stream.write_all(&batch).unwrap();
        // Replies come back in completion order; correlate them by id.
        let mut acc = Vec::new();
        let mut answered = std::collections::HashMap::new();
        for _ in 0..texts.len() {
            let body = read_frame(&mut stream, &CdrProtocol, &mut acc);
            let mut reply = Reply::parse(body, &CdrProtocol).unwrap();
            answered.insert(reply.request_id(), reply.results().get_string().unwrap());
        }
        for (id, text) in ids.iter().zip(&texts) {
            assert_eq!(answered[id], text.to_uppercase(), "mode {mode:?}");
        }
        server.shutdown();
    }
}

#[test]
fn oversized_declared_length_is_refused_from_the_header_in_both_modes() {
    const MAX: u64 = 256 * 1024;
    for mode in MODES {
        let limits = DecodeLimits::default().with_max_frame_bytes(MAX);
        let policy = ServerPolicy::default().with_decode_limits(limits);
        let (server, _) = serve(mode, Arc::new(CdrProtocol), policy);
        let mut stream = connect_raw(&server);
        let mut header = b"GIOP\x01\x00\x01\x00".to_vec();
        header.extend_from_slice(&(MAX as u32 + 1).to_le_bytes());
        stream.write_all(&header).unwrap();
        // Twelve bytes are all it takes: the server hangs up without
        // waiting for (or making room for) the body it was promised.
        let hung_up = match stream.read(&mut [0u8; 64]) {
            Ok(n) => n == 0,
            Err(e) => {
                !matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
            }
        };
        assert!(hung_up, "mode {mode:?}: the server waited for an oversized body");
        // ...and is otherwise unharmed.
        let client = client(mode, Arc::new(CdrProtocol));
        let mut pong =
            DynCall::new(&client, &server.health_ref().unwrap(), "ping").invoke().unwrap();
        assert_eq!(pong.next_string().unwrap(), "pong", "mode {mode:?}");
        client.shutdown();
        server.shutdown();
    }
}

/// A scripted CDR peer in place of a stream server: accepts one
/// connection, reads the stream request, and lets `answer` write what it
/// likes to the request's id. It then half-closes and drains (the
/// client's credit acks) until the client hangs up.
fn scripted_stream_server(
    answer: impl FnOnce(&mut TcpStream, u64) + Send + 'static,
) -> (ObjectRef, std::thread::JoinHandle<()>) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let endpoint = Endpoint::new("giop", "127.0.0.1", listener.local_addr().unwrap().port());
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        stream.set_nodelay(true).unwrap();
        let request = read_frame(&mut stream, &CdrProtocol, &mut Vec::new());
        answer(&mut stream, request_id(&request));
        let _ = stream.shutdown(std::net::Shutdown::Write);
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let _ = std::io::copy(&mut stream, &mut std::io::sink());
    });
    (ObjectRef::new(endpoint, 1, "IDL:Parity/Blob:1.0"), peer)
}

/// One framed chunk of a streamed CDR reply to `id`.
fn chunk_frame(id: u64, index: u64, last: bool, fragment: &str) -> Vec<u8> {
    let mut reply = ReplyBuilder::ok(&CdrProtocol, id);
    reply.results().put_string(fragment);
    CdrProtocol.encode_chunk(reply.results(), index, last);
    let mut framed = Vec::new();
    CdrProtocol.frame(&reply.into_body(), &mut framed);
    framed
}

/// Opens a stream whose every chunk wait is bounded, so a broken read
/// path fails the test instead of hanging it.
fn open_stream(client: &Orb, target: &ObjectRef) -> ReplyStream {
    let bounded = CallOptions::builder().deadline(Duration::from_secs(20)).build();
    client.invoke_stream_with(client.call(target, "pour"), bounded).unwrap()
}

#[test]
fn client_reads_large_chunks_dribbled_or_batched_in_both_modes() {
    let fragments = [large_text(40_000, 3), large_text(300_000, 4), "tail".to_owned()];
    for mode in MODES {
        for batched in [false, true] {
            let frames = fragments.clone();
            let (target, peer) = scripted_stream_server(move |stream, id| {
                let mut bytes = Vec::new();
                for (i, fragment) in frames.iter().enumerate() {
                    bytes.extend(chunk_frame(id, i as u64, i + 1 == frames.len(), fragment));
                }
                if batched {
                    stream.write_all(&bytes).unwrap();
                } else {
                    dribble(stream, &bytes, 5);
                }
            });
            let client = client(mode, Arc::new(CdrProtocol));
            let mut stream = open_stream(&client, &target);
            for fragment in &fragments {
                let got = stream.next_chunk().unwrap();
                assert_eq!(got.as_deref(), Some(fragment.as_str()), "mode {mode:?} {batched}");
            }
            assert_eq!(stream.next_chunk().unwrap(), None);
            // Hanging up (the pooled connection closes with its last
            // holder) is what ends the peer's drain.
            drop((stream, client));
            peer.join().unwrap();
        }
    }
}

#[test]
fn peer_closing_mid_body_disconnects_the_stream_in_both_modes() {
    for mode in MODES {
        let (target, peer) = scripted_stream_server(|stream, id| {
            let frame = chunk_frame(id, 0, false, &large_text(200_000, 6));
            stream.write_all(&frame[..frame.len() / 2]).unwrap();
        });
        let client = client(mode, Arc::new(CdrProtocol));
        // Disconnected, not the deadline: the cut surfaces as soon as the
        // peer's FIN lands mid-body.
        let got = open_stream(&client, &target).next_chunk();
        assert!(matches!(got, Err(RmiError::Disconnected)), "mode {mode:?}: {got:?}");
        drop(client);
        peer.join().unwrap();
    }
}
