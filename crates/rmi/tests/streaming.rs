//! End-to-end streamed-reply coverage: a `StreamServant` pumping chunked
//! frames through the real server (both engines) to a `ReplyStream` on a
//! real client (both protocols). The headline property is *bounded
//! buffering* — a 64 MiB body crosses the wire while neither side ever
//! holds more than roughly one credit window of it — plus the compat
//! path (plain callers still get one whole reply) and error surfacing.

use heidl_rmi::*;
use heidl_wire::{CdrProtocol, Decoder, Protocol, TextProtocol};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

const MODES: [TransportMode; 2] = [TransportMode::Threaded, TransportMode::Reactor];

/// `interface Blob { stream string pour(in long n); }` — streams `n`
/// bytes of a repeating alphabet without ever materializing them.
struct BlobStreamer;

impl StreamServant for BlobStreamer {
    fn type_id(&self) -> &str {
        "IDL:Streaming/Blob:1.0"
    }

    fn open(&self, method: &str, args: &mut dyn Decoder) -> RmiResult<StreamBody> {
        match method {
            "pour" => {
                let total = args.get_long()? as usize;
                let mut sent = 0usize;
                Ok(StreamBody::from_fn(move |max| {
                    if sent >= total {
                        return None;
                    }
                    let take = max.min(total - sent);
                    let fragment: String =
                        (sent..sent + take).map(|i| (b'a' + (i % 26) as u8) as char).collect();
                    sent += take;
                    Some(fragment)
                }))
            }
            "fail" => Err(RmiError::Protocol("tap is closed".to_owned())),
            other => Err(RmiError::UnknownMethod {
                method: other.to_owned(),
                type_id: self.type_id().to_owned(),
            }),
        }
    }
}

/// The expected `pour(n)` payload.
fn alphabet(n: usize) -> String {
    (0..n).map(|i| (b'a' + (i % 26) as u8) as char).collect()
}

fn serve(
    mode: TransportMode,
    protocol: Arc<dyn Protocol>,
    policy: ServerPolicy,
) -> (Orb, ObjectRef) {
    let orb = Orb::builder().transport_mode(mode).protocol(protocol).server_policy(policy).build();
    orb.serve("127.0.0.1:0").unwrap();
    let objref = orb.export_stream(Arc::new(BlobStreamer)).unwrap();
    (orb, objref)
}

fn client(mode: TransportMode, protocol: Arc<dyn Protocol>, policy: ServerPolicy) -> Orb {
    // The client's own ServerPolicy doubles as its stream tuning (the
    // requested credit window rides in the request's chunk tail).
    Orb::builder().transport_mode(mode).protocol(protocol).server_policy(policy).build()
}

#[test]
fn streamed_reply_round_trips_across_modes_and_protocols() {
    let protocols: [Arc<dyn Protocol>; 2] = [Arc::new(TextProtocol), Arc::new(CdrProtocol)];
    for protocol in protocols {
        for mode in MODES {
            let policy = ServerPolicy::default().with_stream_chunk_bytes(1024);
            let (server, objref) = serve(mode, Arc::clone(&protocol), policy.clone());
            let client = client(mode, Arc::clone(&protocol), policy);
            const N: usize = 64 * 1024;
            let mut call = client.call(&objref, "pour");
            call.args().put_long(N as i32);
            let mut stream = client.invoke_stream(call).unwrap();
            let got = stream.collect_string().unwrap();
            assert_eq!(got.len(), N, "mode {mode:?} protocol {}", protocol.name());
            assert_eq!(got, alphabet(N));
            assert!(stream.is_done());
            assert!(stream.chunks() > 1, "a 64 KiB body over 1 KiB chunks must fragment");
            client.shutdown();
            server.shutdown();
        }
    }
}

#[test]
fn bulk_stream_buffering_stays_under_the_credit_window_in_both_modes() {
    // The tentpole guarantee: 64 MiB crosses the wire, yet the client
    // never buffers more than the credit window it asked for (the server
    // can't outrun un-acked credit, and the assembler consumes in step).
    const TOTAL: usize = 64 * 1024 * 1024;
    const WINDOW: usize = 1024 * 1024;
    const CHUNK: usize = 256 * 1024;
    for mode in MODES {
        let policy =
            ServerPolicy::default().with_stream_chunk_bytes(CHUNK).with_stream_window_bytes(WINDOW);
        let (server, objref) = serve(mode, Arc::new(TextProtocol), policy.clone());
        let client = client(mode, Arc::new(TextProtocol), policy);
        let mut call = client.call(&objref, "pour");
        call.args().put_long(TOTAL as i32);
        let mut stream = client.invoke_stream(call).unwrap();
        let mut received = 0usize;
        let mut sum: u64 = 0;
        while let Some(fragment) = stream.next_chunk().unwrap() {
            received += fragment.len();
            sum += fragment.as_bytes().iter().map(|&b| u64::from(b)).sum::<u64>();
        }
        assert_eq!(received, TOTAL, "mode {mode:?}");
        assert_eq!(sum, alphabet(TOTAL).bytes().map(u64::from).sum::<u64>(), "mode {mode:?}");
        // Window plus one chunk of slop: a frame already on the wire when
        // the consumer paused is allowed to land.
        assert!(
            stream.high_water_bytes() <= WINDOW + CHUNK,
            "mode {mode:?}: peak buffered {} exceeded window {} + chunk {}",
            stream.high_water_bytes(),
            WINDOW,
            CHUNK
        );
        client.shutdown();
        server.shutdown();
    }
}

#[test]
fn plain_invoke_on_a_stream_servant_gets_one_whole_reply() {
    // Compat path: a caller that never opted into chunking (no chunk
    // tail on the request) gets the accumulated body as one ordinary
    // reply.
    for mode in MODES {
        let (server, objref) = serve(
            mode,
            Arc::new(TextProtocol),
            ServerPolicy::default().with_stream_chunk_bytes(512),
        );
        let client = client(mode, Arc::new(TextProtocol), ServerPolicy::default());
        const N: usize = 8 * 1024;
        let mut call = client.call(&objref, "pour");
        call.args().put_long(N as i32);
        let mut reply = client.invoke(call).unwrap();
        assert_eq!(reply.results().get_string().unwrap(), alphabet(N), "mode {mode:?}");
        client.shutdown();
        server.shutdown();
    }
}

#[test]
fn stream_open_failure_surfaces_as_remote_error() {
    for mode in MODES {
        let (server, objref) = serve(mode, Arc::new(TextProtocol), ServerPolicy::default());
        let client = client(mode, Arc::new(TextProtocol), ServerPolicy::default());
        let call = client.call(&objref, "fail");
        let mut stream = client.invoke_stream(call).unwrap();
        let err = stream.collect_string().unwrap_err();
        assert!(
            matches!(err, RmiError::Remote { .. }),
            "mode {mode:?}: expected the servant's exception, got {err}"
        );
        client.shutdown();
        server.shutdown();
    }
}

#[test]
fn paced_stream_still_delivers_everything() {
    // A tight token bucket (64 KiB/s serving 32 KiB) forces the pacer to
    // sleep between chunks; the payload must still arrive intact.
    let policy = ServerPolicy::default()
        .with_stream_chunk_bytes(8 * 1024)
        .with_stream_rate_bytes_per_sec(Some(64 * 1024));
    let (server, objref) = serve(TransportMode::Threaded, Arc::new(TextProtocol), policy.clone());
    let client = client(TransportMode::Threaded, Arc::new(TextProtocol), policy);
    const N: usize = 32 * 1024;
    let mut call = client.call(&objref, "pour");
    call.args().put_long(N as i32);
    let started = std::time::Instant::now();
    let mut stream = client.invoke_stream(call).unwrap();
    assert_eq!(stream.collect_string().unwrap(), alphabet(N));
    // 32 KiB at 64 KiB/s with a 16 KiB initial burst allowance: the
    // bucket must have slowed us measurably (but keep the bound loose —
    // CI machines stall).
    assert!(
        started.elapsed() >= std::time::Duration::from_millis(100),
        "token bucket never paced: finished in {:?}",
        started.elapsed()
    );
    client.shutdown();
    server.shutdown();
}

#[test]
fn clamped_window_beside_two_way_calls_on_one_connection_keeps_flowing() {
    // The server clamps the window to one chunk while the client asks for
    // a megabyte, so the client never consumes half its window between
    // frames: every chunk waits on an ack the client must force. A steady
    // two-way caller shares the connection, so the bytes the consumer
    // finds readable before it forces one are often that caller's
    // replies. A missed ack stalls the server past its 2 s write timeout,
    // which aborts the stream and fails the test in seconds.
    const CHUNK: usize = 64 * 1024;
    const TOTAL: usize = 4 * 1024 * 1024;
    let protocols: [Arc<dyn Protocol>; 2] = [Arc::new(TextProtocol), Arc::new(CdrProtocol)];
    for protocol in protocols {
        for mode in MODES {
            let name = format!("mode {mode:?} protocol {}", protocol.name());
            let policy = ServerPolicy::default()
                .with_stream_chunk_bytes(CHUNK)
                .with_stream_window_bytes(CHUNK)
                .with_write_timeout(Some(Duration::from_secs(2)));
            let (server, objref) = serve(mode, Arc::clone(&protocol), policy);
            let asks = ServerPolicy::default().with_stream_window_bytes(1024 * 1024);
            let client = client(mode, Arc::clone(&protocol), asks);
            let health = server.health_ref().unwrap();
            let (stop, started) = (AtomicBool::new(false), Barrier::new(2));
            let received = std::thread::scope(|s| {
                let pinger = s.spawn(|| {
                    for pings in 1.. {
                        let mut pong = DynCall::new(&client, &health, "ping").invoke().unwrap();
                        assert_eq!(pong.next_string().unwrap(), "pong");
                        if pings == 1 {
                            started.wait();
                        }
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                });
                started.wait();
                let mut call = client.call(&objref, "pour");
                call.args().put_long(TOTAL as i32);
                let received = client.invoke_stream(call).and_then(|mut stream| {
                    let mut received = 0;
                    while let Some(fragment) = stream.next_chunk()? {
                        received += fragment.len();
                    }
                    Ok(received)
                });
                stop.store(true, Ordering::Relaxed);
                pinger.join().unwrap();
                received
            });
            assert_eq!(received.unwrap(), TOTAL, "{name}");
            assert_eq!(client.connections().opened_count(), 1, "{name}: one shared connection");
            client.shutdown();
            server.shutdown();
        }
    }
}
