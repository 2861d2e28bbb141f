//! A reply write that fails partway leaves part of a frame on the wire,
//! and nothing framed can follow it: whichever driver serves the
//! connection, the server must close it after the torn bytes instead of
//! writing the next reply behind them — on the text protocol the client
//! would otherwise read the two replies as one line and hand the first
//! caller a wrong value as a success.
//!
//! A file of its own: the test installs the process-wide trace sink.

use heidl_rmi::*;
use heidl_wire::{Decoder, Encoder, Protocol, TextProtocol};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `interface Blob { string blob(in long n); string shout(in string t); }`
struct BlobSkel {
    base: SkeletonBase,
}

impl Skeleton for BlobSkel {
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
            Some(0) => reply.put_string(&"x".repeat(args.get_long()? as usize)),
            Some(1) => reply.put_string(&args.get_string()?.to_uppercase()),
            _ => return self.base.dispatch_parents(method, args, reply),
        }
        Ok(DispatchOutcome::Handled)
    }
}

/// Frames a request the way a conforming peer would put it on the wire.
fn framed_request(protocol: &dyn Protocol, call: Call) -> Vec<u8> {
    let mut framed = Vec::new();
    protocol.frame(&call.into_body(), &mut framed);
    framed
}

#[test]
fn a_torn_reply_frame_closes_the_connection_on_both_drivers() {
    const BLOB: usize = 32 * 1024 * 1024;
    let protocol: Arc<dyn Protocol> = Arc::new(TextProtocol);
    let ring = Arc::new(RingSink::new(4096));
    trace::set_sink(Arc::clone(&ring) as Arc<dyn TraceSink>);
    for mode in [TransportMode::Threaded, TransportMode::Reactor] {
        ring.clear();
        let policy = ServerPolicy::default().with_write_timeout(Some(Duration::from_millis(100)));
        let server = Orb::builder()
            .transport_mode(mode)
            .protocol(Arc::clone(&protocol))
            .server_policy(policy)
            .build();
        server.serve("127.0.0.1:0").unwrap();
        let objref = server
            .export(Arc::new(BlobSkel {
                base: SkeletonBase::new(
                    "IDL:Torn/Blob:1.0",
                    DispatchKind::Hash,
                    ["blob", "shout"],
                    vec![],
                ),
            }))
            .unwrap();
        let endpoint = server.endpoint().unwrap();
        let mut stream = TcpStream::connect((endpoint.host.as_str(), endpoint.port)).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();

        // A reply far larger than the socket buffers, which we do not read.
        let mut call = Call::request(&objref, "blob", protocol.as_ref());
        call.args().put_long(BLOB as i32);
        let id = call.request_id();
        stream.write_all(&framed_request(protocol.as_ref(), call)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(30);
        while !ring.snapshot().iter().any(|e| {
            e.level == TraceLevel::Warn && e.target == "server" && e.message.contains("reply write")
        }) {
            assert!(Instant::now() < deadline, "{mode:?}: the reply write never gave up");
            std::thread::sleep(Duration::from_millis(5));
        }

        // A second request after the write failed; the server may already
        // refuse it.
        let mut call = Call::request(&objref, "shout", protocol.as_ref());
        call.args().put_string("next");
        let _ = stream.write_all(&framed_request(protocol.as_ref(), call));

        let mut got = Vec::new();
        let end = stream.read_to_end(&mut got);
        assert!(
            end.is_ok() || end.as_ref().is_err_and(|e| e.kind() == ErrorKind::ConnectionReset),
            "{mode:?}: the connection stayed open after a torn frame: {end:?}"
        );
        let mut first = ReplyBuilder::ok(protocol.as_ref(), id);
        first.results().put_string(&"x".repeat(BLOB));
        let mut expected = Vec::new();
        protocol.frame(&first.into_body(), &mut expected);
        assert!(
            got.len() < expected.len() && got[..] == expected[..got.len()],
            "{mode:?}: the {} bytes received are not a strict prefix of the first reply",
            got.len()
        );
        server.shutdown();
    }
    trace::clear_sink();
}
