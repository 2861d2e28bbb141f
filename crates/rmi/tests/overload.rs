//! Overload-protection chaos tests: a server under admission control must
//! shed cleanly (`Ok` or `ServerBusy`, never a hang or panic), stay live
//! afterward, account for every shed in its `_health` counters, and drain
//! gracefully on `shutdown_and_drain()`.

use heidl_rmi::*;
use heidl_wire::{DecodeLimits, Decoder, Encoder};
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Duration;

// ---- a deliberately slow servant ---------------------------------------

/// `interface Sleeper { long nap(in long millis); }` — holds its dispatch
/// slot for `millis`, so in-flight caps are easy to saturate.
struct SleeperSkel {
    base: SkeletonBase,
}

impl SleeperSkel {
    fn spawn() -> Arc<dyn Skeleton> {
        Arc::new(SleeperSkel {
            base: SkeletonBase::new("IDL:Heidi/Sleeper:1.0", DispatchKind::Hash, ["nap"], vec![]),
        })
    }
}

impl Skeleton for SleeperSkel {
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
                let ms = args.get_long()?;
                std::thread::sleep(Duration::from_millis(ms as u64));
                reply.put_long(ms);
                Ok(DispatchOutcome::Handled)
            }
            _ => self.base.dispatch_parents(method, args, reply),
        }
    }
}

fn serve_sleeper(policy: ServerPolicy) -> (Orb, ObjectRef) {
    let orb = Orb::builder().server_policy(policy).build();
    orb.serve("127.0.0.1:0").unwrap();
    let objref = orb.export(SleeperSkel::spawn()).unwrap();
    (orb, objref)
}

/// One call with retries disabled, so every shed surfaces exactly once.
fn nap_once(orb: &Orb, target: &ObjectRef, ms: i32) -> RmiResult<i32> {
    let mut call = orb.call(target, "nap");
    call.args().put_long(ms);
    let mut reply =
        orb.invoke_with(call, CallOptions::builder().retry_policy(RetryPolicy::none()).build())?;
    Ok(reply.results().get_long()?)
}

fn health_report(client: &Orb, health: &ObjectRef) -> ServerHealth {
    let mut res = DynCall::new(client, health, "report").invoke().unwrap();
    ServerHealth {
        accepting: res.next_bool().unwrap(),
        in_flight: res.next_ulonglong().unwrap(),
        connections: res.next_ulonglong().unwrap(),
        shed_requests: res.next_ulonglong().unwrap(),
        shed_connections: res.next_ulonglong().unwrap(),
    }
}

// ---- the acceptance scenario: 4·N concurrent calls, cap N ---------------

#[test]
fn overload_storm_yields_only_ok_or_busy_and_health_counts_sheds() {
    const CAP: usize = 4;
    const CALLS: usize = 4 * CAP;
    let (server, objref) = serve_sleeper(
        ServerPolicy::default().with_max_in_flight(CAP).with_max_overflow_threads(64),
    );
    let client = Orb::new();

    let barrier = Arc::new(std::sync::Barrier::new(CALLS));
    let mut threads = Vec::new();
    for _ in 0..CALLS {
        let client = client.clone();
        let objref = objref.clone();
        let barrier = Arc::clone(&barrier);
        threads.push(std::thread::spawn(move || {
            barrier.wait();
            nap_once(&client, &objref, 150)
        }));
    }
    let mut ok = 0u64;
    let mut busy = 0u64;
    for t in threads {
        match t.join().expect("no client panics") {
            Ok(ms) => {
                assert_eq!(ms, 150);
                ok += 1;
            }
            Err(RmiError::ServerBusy { detail }) => {
                assert!(detail.contains("cap"), "unexpected shed reason: {detail}");
                busy += 1;
            }
            Err(other) => panic!("storm produced a non-shed failure: {other}"),
        }
    }
    assert_eq!(ok + busy, CALLS as u64);
    assert!(busy > 0, "a 4x-cap storm against a slow servant must shed");

    // The server is still live and healthy afterward.
    assert_eq!(nap_once(&client, &objref, 1).unwrap(), 1);
    let health_ref = server.health_ref().unwrap();
    // A reply reaches the client an instant before the worker releases
    // its slot, so give the last guard a moment to drop.
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    let mut health = health_report(&client, &health_ref);
    while health.in_flight != 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
        health = health_report(&client, &health_ref);
    }
    assert!(health.accepting);
    assert_eq!(health.in_flight, 0, "all slots released after the storm");
    assert_eq!(health.shed_requests, busy, "every Busy reply is counted, nothing else");
    server.shutdown();
}

#[test]
fn overload_per_connection_cap_protects_the_global_budget() {
    let (server, objref) = serve_sleeper(
        ServerPolicy::default().with_max_in_flight_per_connection(1).with_max_overflow_threads(64),
    );
    let client = Orb::new();
    // Two concurrent calls on the same multiplexed connection: the second
    // to arrive is shed by the per-connection cap, not the global one.
    let t = {
        let client = client.clone();
        let objref = objref.clone();
        std::thread::spawn(move || nap_once(&client, &objref, 200))
    };
    std::thread::sleep(Duration::from_millis(60));
    let second = nap_once(&client, &objref, 1);
    assert!(
        matches!(&second, Err(RmiError::ServerBusy { detail }) if detail.contains("per-connection")),
        "expected a per-connection shed, got {second:?}"
    );
    assert_eq!(t.join().unwrap().unwrap(), 200, "the admitted call is undisturbed");
    server.shutdown();
}

#[test]
fn overload_busy_is_safe_to_retry_and_composes_with_backoff() {
    let (server, objref) = serve_sleeper(ServerPolicy::default().with_max_in_flight(1));
    let client = Orb::new();
    let occupant = {
        let client = client.clone();
        let objref = objref.clone();
        std::thread::spawn(move || nap_once(&client, &objref, 150))
    };
    std::thread::sleep(Duration::from_millis(40));
    // While the cap is held this call is shed — but `ServerBusy` is an
    // always-safe retry class, so the policy loop backs off and lands a
    // later attempt after the occupant finishes.
    let mut call = client.call(&objref, "nap");
    call.args().put_long(1);
    let policy = RetryPolicy::default()
        .with_max_attempts(10)
        .with_backoff(Duration::from_millis(30), Duration::from_millis(60))
        .with_jitter_seed(7);
    let mut reply = client
        .invoke_with(call, CallOptions::builder().retry_policy(policy).build())
        .expect("retries land");
    assert_eq!(reply.results().get_long().unwrap(), 1);
    occupant.join().unwrap().unwrap();
    let health = health_report(&client, &server.health_ref().unwrap());
    assert!(health.shed_requests >= 1, "the first attempt was shed");
    server.shutdown();
}

// ---- graceful drain -----------------------------------------------------

#[test]
fn overload_drain_completes_inflight_and_sheds_new_requests() {
    let (server, objref) =
        serve_sleeper(ServerPolicy::default().with_drain_timeout(Duration::from_secs(5)));
    let client = Orb::new();

    let inflight = {
        let client = client.clone();
        let objref = objref.clone();
        std::thread::spawn(move || nap_once(&client, &objref, 250))
    };
    std::thread::sleep(Duration::from_millis(60));
    let late = {
        let client = client.clone();
        let objref = objref.clone();
        std::thread::spawn(move || {
            // Arrives mid-drain, on a still-open connection.
            std::thread::sleep(Duration::from_millis(60));
            nap_once(&client, &objref, 1)
        })
    };
    assert!(server.shutdown_and_drain(), "the in-flight call fits the drain budget");
    assert_eq!(inflight.join().unwrap().unwrap(), 250, "in-flight work completed during drain");
    let late = late.join().unwrap();
    assert!(
        matches!(&late, Err(RmiError::ServerBusy { detail }) if detail.contains("draining")),
        "a request arriving mid-drain is shed with Busy, got {late:?}"
    );
    assert!(server.server_health().is_none(), "the server is gone after the drain");
    assert!(server.endpoint().is_none());
}

#[test]
fn overload_drain_force_closes_overrunning_dispatches_at_timeout() {
    let (server, objref) =
        serve_sleeper(ServerPolicy::default().with_drain_timeout(Duration::from_millis(50)));
    let client = Orb::new();
    let overrunner = {
        let client = client.clone();
        let objref = objref.clone();
        std::thread::spawn(move || nap_once(&client, &objref, 800))
    };
    std::thread::sleep(Duration::from_millis(60));
    assert!(!server.shutdown_and_drain(), "an 800 ms dispatch cannot fit a 50 ms budget");
    // The overrunner's connection was force-closed; the client sees the
    // stream die rather than hanging forever on a reply that never comes.
    let result = overrunner.join().unwrap();
    assert!(result.is_err(), "force-close must surface an error, got {result:?}");
}

// ---- connection caps ----------------------------------------------------

#[test]
fn overload_connection_cap_refuses_extra_peers() {
    let (server, objref) = serve_sleeper(ServerPolicy::default().with_max_connections(1));
    let first = Orb::new();
    assert_eq!(nap_once(&first, &objref, 1).unwrap(), 1, "first peer is admitted");
    // A second peer is accepted at the TCP level and closed immediately;
    // its call fails without disturbing the first peer's connection.
    let second = Orb::new();
    assert!(nap_once(&second, &objref, 1).is_err(), "second peer must be refused");
    assert_eq!(nap_once(&first, &objref, 1).unwrap(), 1, "first peer is undisturbed");
    let health = health_report(&first, &server.health_ref().unwrap());
    assert!(health.shed_connections >= 1, "the refused peer is counted");
    server.shutdown();
}

// ---- the built-in _health object ---------------------------------------

#[test]
fn overload_health_object_answers_ping_and_report() {
    let (server, _objref) = serve_sleeper(ServerPolicy::default());
    let client = Orb::new();
    let health_ref = server.health_ref().unwrap();
    assert_eq!(health_ref.object_id, HEALTH_OBJECT_ID);
    assert_eq!(health_ref.type_id, HEALTH_TYPE_ID);

    let mut pong = DynCall::new(&client, &health_ref, "ping").invoke().unwrap();
    assert_eq!(pong.next_string().unwrap(), "pong");

    let health = health_report(&client, &health_ref);
    assert!(health.accepting);
    assert_eq!(health.connections, 1, "exactly this client's connection");
    assert_eq!(health.shed_requests, 0);

    // The local snapshot agrees with the remote report.
    let local = server.server_health().unwrap();
    assert!(local.accepting);
    assert_eq!(local.shed_requests, 0);

    let err = DynCall::new(&client, &health_ref, "no_such").invoke().unwrap_err();
    assert!(matches!(err, RmiError::Remote { repo_id, .. } if repo_id.contains("UnknownMethod")));
    server.shutdown();
}

#[test]
fn overload_health_object_is_reachable_by_hand_typed_text() {
    // The telnet walkthrough from the README, verbatim over a raw socket.
    let (server, _objref) = serve_sleeper(ServerPolicy::default());
    let ep = server.endpoint().unwrap();
    let mut stream = std::net::TcpStream::connect((ep.host.as_str(), ep.port)).unwrap();
    let probe = format!("1 \"@tcp:{}:{}#0#IDL:heidl/Health:1.0\" \"ping\" T\n", ep.host, ep.port);
    stream.write_all(probe.as_bytes()).unwrap();
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    while stream.read(&mut byte).unwrap() == 1 && byte[0] != b'\n' {
        line.push(byte[0]);
    }
    assert_eq!(String::from_utf8(line).unwrap(), "1 0 \"pong\"");
    server.shutdown();
}

/// The runtime's own traffic is never queued behind a lent reader: over
/// raw TCP text, a `_health` ping sent while the connection's reader runs
/// a 300 ms nap it was lent is answered within 50 ms, ahead of the nap.
#[test]
fn overload_health_ping_is_answered_behind_a_lent_reader() {
    let (server, objref) = serve_sleeper(ServerPolicy::default());
    let ep = server.endpoint().unwrap();
    let mut stream = std::net::TcpStream::connect((ep.host.as_str(), ep.port)).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.write_all(format!("1 \"{objref}\" \"nap\" T 300\n").as_bytes()).unwrap();
    // The nap is admitted (and lent) before the ping is sent.
    while server.server_health().unwrap().in_flight == 0 {
        std::thread::yield_now();
    }
    let started = std::time::Instant::now();
    let probe = format!("2 \"@tcp:{}:{}#0#IDL:heidl/Health:1.0\" \"ping\" T\n", ep.host, ep.port);
    stream.write_all(probe.as_bytes()).unwrap();
    let (mut line, mut byte) = (Vec::new(), [0u8; 1]);
    while stream.read(&mut byte).unwrap() == 1 && byte[0] != b'\n' {
        line.push(byte[0]);
    }
    let waited = started.elapsed();
    assert_eq!(String::from_utf8(line).unwrap(), "2 0 \"pong\"", "the ping overtakes the nap");
    assert!(waited < Duration::from_millis(50), "ping waited {waited:?} behind a lent reader");
    server.shutdown();
}

/// Regression (remote DoS): a line holding U+000B outside quotes sent the
/// eager text tokenizer into an endless loop that grew memory past every
/// decode limit — one such line typed over telnet wedged a reader thread.
/// It now comes back as an ordinary diagnostic, and the server keeps
/// answering on other connections.
#[test]
fn overload_vertical_tab_line_gets_a_diagnostic_and_the_server_stays_up() {
    let (server, _objref) = serve_sleeper(ServerPolicy::default());
    let ep = server.endpoint().unwrap();
    let read_line = |stream: &mut std::net::TcpStream| {
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let (mut line, mut byte) = (Vec::new(), [0u8; 1]);
        while stream.read(&mut byte).expect("a reply within the timeout") == 1 && byte[0] != b'\n' {
            line.push(byte[0]);
        }
        String::from_utf8(line).unwrap()
    };
    let mut hostile = std::net::TcpStream::connect((ep.host.as_str(), ep.port)).unwrap();
    hostile.write_all(b"\x0b\n").unwrap();
    let diagnostic = read_line(&mut hostile);
    assert!(diagnostic.starts_with("0 2 \"IDL:heidl/BadRequest:1.0\""), "{diagnostic}");

    let mut second = std::net::TcpStream::connect((ep.host.as_str(), ep.port)).unwrap();
    let probe = format!("1 \"@tcp:{}:{}#0#IDL:heidl/Health:1.0\" \"ping\" T\n", ep.host, ep.port);
    second.write_all(probe.as_bytes()).unwrap();
    assert_eq!(read_line(&mut second), "1 0 \"pong\"");
    server.shutdown();
}

/// Regression (remote CPU exhaustion): the text deframer searched every
/// buffered byte again after each read, so one newline-less line cost CPU
/// quadratic in its length — about a minute for a line at the default
/// 64 MiB frame bound — and on the reactor driver that time is spent on
/// the loop thread that serves every other connection too. Each line is
/// now searched once: a raw peer streams a 16 MiB line, and a `_health`
/// ping sent on a second connection once the line is written is answered
/// within 2 s of the line's first byte. Searching from the line's start
/// after every read, this test took 92 s in a debug build.
#[test]
fn overload_long_line_does_not_stall_the_reactor() {
    let server = Orb::builder().transport_mode(TransportMode::Reactor).build();
    server.serve("127.0.0.1:0").unwrap();
    let ep = server.endpoint().unwrap();
    let mut flood = std::net::TcpStream::connect((ep.host.as_str(), ep.port)).unwrap();
    let mut second = std::net::TcpStream::connect((ep.host.as_str(), ep.port)).unwrap();
    second.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    let started = std::time::Instant::now();
    let piece = vec![b'7'; 1 << 20];
    for _ in 0..16 {
        flood.write_all(&piece).unwrap();
    }
    let probe = format!("1 \"@tcp:{}:{}#0#IDL:heidl/Health:1.0\" \"ping\" T\n", ep.host, ep.port);
    second.write_all(probe.as_bytes()).unwrap();
    let (mut line, mut byte) = (Vec::new(), [0u8; 1]);
    while second.read(&mut byte).expect("a reply within the timeout") == 1 && byte[0] != b'\n' {
        line.push(byte[0]);
    }
    let waited = started.elapsed();
    assert_eq!(String::from_utf8(line).unwrap(), "1 0 \"pong\"");
    assert!(waited < Duration::from_secs(2), "a 16 MiB line held the ping for {waited:?}");
    drop(flood);
    server.shutdown();
}

// ---- server-side decode limits ------------------------------------------

#[test]
fn overload_hostile_frames_drop_the_connection_not_the_server() {
    let policy = ServerPolicy::default()
        .with_decode_limits(DecodeLimits::strict().with_max_frame_bytes(4 * 1024));
    let (server, objref) = serve_sleeper(policy);
    let ep = server.endpoint().unwrap();

    // A newline-free flood past the frame bound: the server must cut the
    // connection (bounded buffering), not grow memory hunting for `\n`.
    let mut hostile = std::net::TcpStream::connect((ep.host.as_str(), ep.port)).unwrap();
    let flood = vec![b'a'; 64 * 1024];
    let _ = hostile.write_all(&flood); // may fail midway once the server closes
    let mut sink = Vec::new();
    let _ = hostile.read_to_end(&mut sink); // EOF: connection was dropped
    drop(hostile);

    // The server survived and still serves well-formed requests.
    let client = Orb::new();
    assert_eq!(nap_once(&client, &objref, 1).unwrap(), 1);
    server.shutdown();
}
