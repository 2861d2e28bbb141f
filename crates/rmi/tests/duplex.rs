//! A sender never stalls the connection it sends on. A client connection
//! is read by its own callers (DESIGN decision 22), so a caller blocked in
//! a long send is not reading; these cases put large frames in flight in
//! both directions at once, with a reactor client and a reactor server, on
//! both protocols, and each must finish within [`DEADLINE`] instead of
//! hanging:
//!
//! - (a) a caller holds a stream open without consuming it while the
//!   server fills its credit window, and sends a request on the same
//!   connection larger than loopback's largest send and receive buffers
//!   together;
//! - (b) large oneways flood from the client while the server streams
//!   large chunks back on the same connection.
//!
//! Neither hangs, for two reasons: the reactor server reads a connection
//! whatever its write backlog (a torn reply queues for `EPOLLOUT`, it
//! never blocks a reader), and the credit window stops the server's pump
//! once the client stops consuming, so the client's unread bytes are
//! bounded by window + chunk (asserted here too).

use heidl_rmi::*;
use heidl_wire::{CdrProtocol, Decoder, Encoder, Protocol, TextProtocol};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// How long a case may take before it counts as hung.
const DEADLINE: Duration = Duration::from_secs(120);

/// `interface Pour { stream string pour(in long n); }`: `n` bytes of `p`.
struct Pour;

impl StreamServant for Pour {
    fn type_id(&self) -> &str {
        "IDL:Duplex/Pour:1.0"
    }

    fn open(&self, _method: &str, args: &mut dyn Decoder) -> RmiResult<StreamBody> {
        let mut left = args.get_long()? as usize;
        Ok(StreamBody::from_fn(move |max| {
            let take = max.min(left);
            left -= take;
            (take > 0).then(|| "p".repeat(take))
        }))
    }
}

/// `interface Sink { long size(in string s); oneway void drop(in string
/// s); long count(); }`: `count` is how many `drop`s have run.
struct Sink {
    base: SkeletonBase,
    dropped: AtomicUsize,
}

impl Skeleton for Sink {
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
            Some(0) => reply.put_long(args.get_string()?.len() as i32),
            Some(1) => {
                args.get_string()?;
                self.dropped.fetch_add(1, Ordering::SeqCst);
            }
            Some(2) => reply.put_long(self.dropped.load(Ordering::SeqCst) as i32),
            _ => return self.base.dispatch_parents(method, args, reply),
        }
        Ok(DispatchOutcome::Handled)
    }
}

/// A reactor server exporting both servants, and a reactor client; both
/// stream with `window`-byte credit windows and `chunk`-byte chunks.
struct Rig {
    server: Orb,
    client: Orb,
    pour: ObjectRef,
    sink: ObjectRef,
}

impl Rig {
    fn new(protocol: &Arc<dyn Protocol>, window: usize, chunk: usize) -> Rig {
        let policy =
            ServerPolicy::default().with_stream_window_bytes(window).with_stream_chunk_bytes(chunk);
        let build = || {
            Orb::builder()
                .protocol(Arc::clone(protocol))
                .transport_mode(TransportMode::Reactor)
                .server_policy(policy.clone())
                .build()
        };
        let server = build();
        server.serve("127.0.0.1:0").unwrap();
        let pour = server.export_stream(Arc::new(Pour)).unwrap();
        let methods = ["size", "drop", "count"];
        let base = SkeletonBase::new("IDL:Duplex/Sink:1.0", DispatchKind::Hash, methods, vec![]);
        let sink = server.export(Arc::new(Sink { base, dropped: AtomicUsize::new(0) })).unwrap();
        Rig { server, client: build(), pour, sink }
    }

    fn open_stream(&self, bytes: usize) -> ReplyStream {
        let mut call = self.client.call(&self.pour, "pour");
        call.args().put_long(bytes as i32);
        self.client.invoke_stream(call).unwrap()
    }

    fn call_long(&self, method: &str, arg: Option<&str>) -> i32 {
        let mut call = self.client.call(&self.sink, method);
        if let Some(arg) = arg {
            call.args().put_string(arg);
        }
        self.client.invoke(call).unwrap().results().get_long().unwrap()
    }
}

/// Consumes `stream` to its end: the bytes it carried.
fn drain(stream: &mut ReplyStream, window: usize, chunk: usize) -> usize {
    let mut received = 0;
    while let Some(fragment) = stream.next_chunk().unwrap() {
        received += fragment.len();
    }
    let high_water = stream.high_water_bytes();
    assert!(high_water <= window + chunk, "{high_water} bytes buffered past the window");
    received
}

/// Runs `case` on each protocol, failing when one takes past [`DEADLINE`].
fn on_both_protocols(case: fn(Arc<dyn Protocol>)) {
    for protocol in [Arc::new(TextProtocol) as Arc<dyn Protocol>, Arc::new(CdrProtocol)] {
        let name = protocol.name();
        let (done, finished) = mpsc::channel();
        std::thread::spawn(move || {
            case(protocol);
            let _ = done.send(());
        });
        match finished.recv_timeout(DEADLINE) {
            Ok(()) => {}
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("{name}: hung past {DEADLINE:?}"),
            Err(mpsc::RecvTimeoutError::Disconnected) => panic!("{name}: the case failed"),
        }
    }
}

#[test]
fn a_send_past_both_buffers_beside_an_unread_stream_finishes() {
    on_both_protocols(|protocol| {
        const WINDOW: usize = 8 << 20;
        const CHUNK: usize = 1 << 20;
        const STREAM: usize = 32 << 20;
        // Past loopback's largest receive (32 MiB) and send (4 MiB) buffers
        // together, under the 64 MiB frame limit of the default
        // `DecodeLimits`.
        const REQUEST: usize = 40 << 20;
        let rig = Rig::new(&protocol, WINDOW, CHUNK);
        let mut stream = rig.open_stream(STREAM);
        // The server fills the window that nobody is reading.
        while rig.server.server_health().unwrap().in_flight == 0 {
            std::thread::yield_now();
        }
        assert_eq!(rig.call_long("size", Some(&"x".repeat(REQUEST))), REQUEST as i32);
        assert_eq!(drain(&mut stream, WINDOW, CHUNK), STREAM);
        rig.client.shutdown();
        rig.server.shutdown();
    });
}

#[test]
fn large_oneways_against_a_large_stream_finish() {
    on_both_protocols(|protocol| {
        const WINDOW: usize = 1 << 20;
        const CHUNK: usize = 256 << 10;
        const STREAM: usize = 32 << 20;
        const ONEWAY: usize = 512 << 10;
        const ONEWAYS: usize = 64;
        let rig = Arc::new(Rig::new(&protocol, WINDOW, CHUNK));
        let mut stream = rig.open_stream(STREAM);
        let flooder = Arc::clone(&rig);
        let flood = std::thread::spawn(move || {
            let payload = "o".repeat(ONEWAY);
            for _ in 0..ONEWAYS {
                let mut call = flooder.client.call_oneway(&flooder.sink, "drop");
                call.args().put_string(&payload);
                flooder.client.invoke_oneway(call).unwrap();
            }
            // Behind its oneways on one connection, so every one has run.
            flooder.call_long("count", None)
        });
        assert_eq!(drain(&mut stream, WINDOW, CHUNK), STREAM);
        assert_eq!(flood.join().unwrap(), ONEWAYS as i32);
        rig.client.shutdown();
        rig.server.shutdown();
    });
}
