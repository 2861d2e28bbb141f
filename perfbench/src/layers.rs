//! The outside-in layer budget: every layer (module) of the ORB timed from
//! the benchmark's side of its public functions, on the workload's own
//! request and reply. Probes inside `heidl-rmi` are a later change; until
//! then what these cannot see is reported as `unaccounted_ns`.

use crate::workloads::{Shape, STREAM_CHUNK, STREAM_TOTAL};
use heidl_rmi::{
    Call, CallContext, DispatchKind, InProcTransport, IncomingCall, MethodTable, MuxConnection,
    ObjectCommunicator, Reply, ReplyBuilder, TcpTransport, Transport,
};
use heidl_wire::{pool, DecodeLimits, FrameBuf, Protocol, MAX_FRAME_HEADER};
use std::hint::black_box;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Inputs prepared per batch may hold this many bytes at most.
const BATCH_BYTES: usize = 8 << 20;

/// Nanoseconds per call of `f`, each call consuming one input made by `make`
/// outside the timed region (a decoder consumes its body, so the copy it is
/// fed must not be billed to it). Runs batches until `budget` is spent and
/// returns their first quartile; a batch is sized to last about a millisecond.
fn time_each<T>(
    budget: Duration,
    input_bytes: usize,
    mut make: impl FnMut() -> T,
    mut f: impl FnMut(T),
) -> f64 {
    let cap = (BATCH_BYTES / input_bytes.max(1)).clamp(1, 4096);
    let deadline = Instant::now() + budget;
    let mut batch = 1usize;
    let mut samples = Vec::new();
    loop {
        let inputs: Vec<T> = (0..batch).map(|_| make()).collect();
        let start = Instant::now();
        for input in inputs {
            f(input);
        }
        let ns = start.elapsed().as_nanos() as f64;
        if ns < 1e6 && batch < cap {
            batch = (batch * 2).min(cap);
        } else {
            samples.push(ns / batch as f64);
        }
        if Instant::now() >= deadline && !samples.is_empty() {
            // The first quartile, for the reason the end-to-end numbers are
            // read over quiet slices: a neighbour only ever slows a batch.
            samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
            return samples[samples.len() / 4];
        }
    }
}

fn time(budget: Duration, mut f: impl FnMut()) -> f64 {
    time_each(budget, 0, || (), |()| f())
}

fn recycle(body: Vec<u8>) {
    pool::recycle(black_box(body));
}

/// The workload's request body as the ORB would send it, and its id.
fn request_body(shape: &Shape) -> (u64, Vec<u8>) {
    let p = shape.protocol.as_ref();
    let mut call = Call::request(&shape.target, shape.method, p);
    (shape.put_args)(call.args());
    if shape.routed_with_suffixes {
        // `mix_open` stamps `~ctx` on every call (`~tok` only on purchases).
        call.attach_context(p, CallContext { call_id: call.request_id(), parent_id: 0 });
    }
    if shape.streamed {
        call.attach_stream_request(p, crate::workloads::STREAM_WINDOW as u64);
    }
    (call.request_id(), call.into_body())
}

/// The workload's reply body as the server would send it.
fn reply_body(shape: &Shape, request_id: u64) -> Vec<u8> {
    let p = shape.protocol.as_ref();
    let mut reply = ReplyBuilder::ok(p, request_id);
    (shape.put_results)(reply.results());
    if shape.streamed {
        p.encode_chunk(reply.results(), 1, false);
    }
    reply.into_body()
}

fn framed(p: &dyn Protocol, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + MAX_FRAME_HEADER);
    p.frame(body, &mut out);
    out
}

/// One probe's result: the metric's declared name and its value.
pub type Metric = (&'static str, f64);

/// Times every layer on `shape`'s representative call, spending about
/// `budget` in total. `invoke_ns` is the traced whole-call p50 the self
/// times are read against.
pub fn probe(shape: &Shape, invoke_ns: f64, budget: Duration) -> Vec<Metric> {
    let each = budget / 16;
    let p = shape.protocol.as_ref();
    let (request_id, request) = request_body(shape);
    let reply = reply_body(shape, request_id);
    let (request_frame, reply_frame) = (framed(p, &request), framed(p, &reply));

    // ---- wire -------------------------------------------------------------
    let marshal = |put: &dyn Fn(&mut dyn heidl_wire::Encoder)| {
        time(each, || {
            let mut enc = p.encoder();
            put(enc.as_mut());
            recycle(enc.finish());
        })
    };
    let m_args = marshal(&shape.put_args);
    let m_results = marshal(&shape.put_results);
    let bare = |put: &dyn Fn(&mut dyn heidl_wire::Encoder)| {
        let mut enc = p.encoder();
        put(enc.as_mut());
        enc.finish()
    };
    let unmarshal = |body: Vec<u8>, get: &dyn Fn(&mut dyn heidl_wire::Decoder)| {
        time_each(
            each,
            body.len(),
            || body.clone(),
            |b| {
                let mut dec = p.decoder(b).expect("decoder over own encoding");
                get(dec.as_mut());
            },
        )
    };
    let u_args = unmarshal(bare(&shape.put_args), &shape.get_args);
    let u_results = unmarshal(bare(&shape.put_results), &shape.get_results);

    let limits = DecodeLimits::default();
    let frame = |body_len: usize, frame: &Vec<u8>| {
        let head = time(each / 2, || {
            let mut header = [0u8; MAX_FRAME_HEADER];
            black_box(p.frame_parts(black_box(body_len), &mut header));
        });
        let deframe = time_each(
            each / 2,
            frame.len(),
            || FrameBuf::from_vec(frame.clone()),
            |mut buf| {
                black_box(
                    p.deframe_pooled(&mut buf, &limits).expect("own frame").expect("whole frame"),
                );
            },
        );
        head + deframe
    };
    let frame_ns = frame(request.len(), &request_frame) + frame(reply.len(), &reply_frame);

    let suffix_ns = if shape.routed_with_suffixes {
        let encode = time_each(
            each / 2,
            64,
            || p.encoder(),
            |mut enc| {
                p.encode_token(enc.as_mut(), 7, 9);
                p.encode_context(enc.as_mut(), 11, 0);
                black_box(&enc);
            },
        );
        let mut enc = p.encoder();
        (shape.put_args)(enc.as_mut());
        p.encode_token(enc.as_mut(), 7, 9);
        p.encode_context(enc.as_mut(), 11, 0);
        let tailed = enc.finish();
        let extract = time(each / 2, || {
            black_box(p.extract_token(black_box(&tailed)));
            black_box(p.extract_context(black_box(&tailed)));
        });
        encode + extract
    } else {
        0.0
    };

    // ---- rmi::call ---------------------------------------------------------
    let t_call = time(each, || {
        let mut call = Call::request(&shape.target, shape.method, p);
        (shape.put_args)(call.args());
        recycle(call.into_body());
    });
    let t_incoming = time_each(
        each,
        request.len(),
        || request.clone(),
        |b| {
            let mut incoming = IncomingCall::parse(b, p).expect("own request");
            (shape.get_args)(incoming.args.as_mut());
        },
    );
    let t_reply_build = time(each, || {
        let mut builder = ReplyBuilder::ok(p, request_id);
        (shape.put_results)(builder.results());
        recycle(builder.into_body());
    });
    let t_reply_parse = time_each(
        each,
        reply.len(),
        || reply.clone(),
        |b| {
            let mut parsed = Reply::parse(b, p).expect("own reply");
            (shape.get_results)(parsed.results());
        },
    );
    let marshal_ns = m_args + m_results;
    let unmarshal_ns = u_args + u_results;
    let envelope_ns =
        (t_call + t_incoming + t_reply_build + t_reply_parse - marshal_ns - unmarshal_ns).max(0.0);

    // ---- rmi::dispatch, rmi::skeleton ---------------------------------------
    let find_ns = if shape.methods.is_empty() {
        0.0
    } else {
        let table = MethodTable::new(DispatchKind::Hash, shape.methods.iter().copied());
        time(each, || {
            black_box(table.find(black_box(shape.method)));
        })
    };
    let dispatch_ns = shape.skeleton.as_ref().map_or(0.0, |skeleton| {
        let args = bare(&shape.put_args);
        time_each(
            each,
            args.len(),
            || args.clone(),
            |b| {
                let mut dec = p.decoder(b).expect("decoder over own encoding");
                let mut enc = p.encoder();
                skeleton
                    .dispatch(shape.method, dec.as_mut(), enc.as_mut())
                    .expect("in-memory dispatch");
                recycle(enc.finish());
            },
        )
    });

    // ---- rmi::transport ----------------------------------------------------
    let rtt_ns = tcp_ping_pong(each, request_frame.len(), reply_frame.len());
    let inproc_rtt_ns = inproc_ping_pong(each, request_frame.len(), reply_frame.len());

    // ---- rmi::server -------------------------------------------------------
    // A raw round trip cannot drive a stream (chunks need credit acks).
    let server_rtt_ns = if shape.streamed { 0.0 } else { server_round_trip(each, shape, &request) };

    // ---- rmi::communicator -------------------------------------------------
    let mux_ns = mux_call(each, &shape.protocol, request_id, &request, &reply);

    // ---- self times ----------------------------------------------------------
    // A streamed call is one request and TOTAL/CHUNK chunk replies.
    let exchanges = if shape.streamed { (STREAM_TOTAL / STREAM_CHUNK) as f64 } else { 1.0 };
    let servant_ns = (dispatch_ns - u_args - m_results).max(0.0);
    let server_work = t_incoming + find_ns + servant_ns + t_reply_build;
    let client_work = t_call + t_reply_parse;
    let mux_self = (mux_ns - inproc_rtt_ns - frame_ns).max(0.0);
    let server_self =
        if shape.streamed { 0.0 } else { server_rtt_ns - rtt_ns - server_work - frame_ns };
    let client_self = if shape.streamed { 0.0 } else { invoke_ns - server_rtt_ns };
    let accounted = exchanges * (rtt_ns + frame_ns + server_work + client_work + mux_self)
        + server_self.max(0.0);
    let bytes_per_call = request_frame.len() as f64 + exchanges * reply_frame.len() as f64;

    vec![
        ("wire.marshal_ns", marshal_ns),
        ("wire.unmarshal_ns", unmarshal_ns),
        ("wire.frame_ns", frame_ns),
        ("wire.bytes_per_call", bytes_per_call),
        ("wire.suffix_ns", suffix_ns),
        ("call.envelope_ns", envelope_ns),
        ("dispatch.find_ns", find_ns),
        ("skeleton.dispatch_ns", dispatch_ns),
        ("servant_ns", servant_ns),
        ("transport.rtt_ns", rtt_ns),
        ("transport.inproc_rtt_ns", inproc_rtt_ns),
        ("server.rtt_ns", server_rtt_ns),
        ("server.self_ns", server_self),
        ("communicator.call_ns", mux_ns),
        ("client.self_ns", client_self),
        ("unaccounted_ns", invoke_ns - accounted),
    ]
}

/// Reads until `buf` holds `want` bytes; false when the peer closed first.
fn read_exactly(t: &mut dyn Transport, buf: &mut Vec<u8>, want: usize) -> bool {
    buf.clear();
    while buf.len() < want {
        match t.recv_into(buf) {
            Ok(n) if n > 0 => {}
            _ => return false,
        }
    }
    true
}

/// Answers every `request_len` bytes read with `reply_len` bytes, until the
/// peer closes.
fn echo_peer(mut t: Box<dyn Transport>, request_len: usize, reply_len: usize) {
    let reply = vec![b'r'; reply_len];
    let mut buf = Vec::with_capacity(request_len);
    while read_exactly(t.as_mut(), &mut buf, request_len) {
        if t.send(&reply).is_err() {
            return;
        }
    }
}

fn ping_pong(
    each: Duration,
    mut t: Box<dyn Transport>,
    request_len: usize,
    reply_len: usize,
) -> f64 {
    let request = vec![b'q'; request_len];
    let mut buf = Vec::with_capacity(reply_len);
    let ns = time(each, || {
        t.send(&request).expect("ping");
        assert!(read_exactly(t.as_mut(), &mut buf, reply_len), "pong");
    });
    t.shutdown();
    ns
}

/// Raw `TcpTransport` ping-pong of frames the workload's size against an
/// echo thread: the syscall-and-wake floor no ORB change can beat.
fn tcp_ping_pong(each: Duration, request_len: usize, reply_len: usize) -> f64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let peer = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept probe");
        let t = TcpTransport::from_stream(stream).expect("wrap accepted stream");
        echo_peer(Box::new(t), request_len, reply_len);
    });
    let t = TcpTransport::connect(&addr).expect("connect probe");
    let ns = ping_pong(each, Box::new(t), request_len, reply_len);
    peer.join().expect("echo peer panicked");
    ns
}

fn inproc_ping_pong(each: Duration, request_len: usize, reply_len: usize) -> f64 {
    let (a, b) = InProcTransport::pair();
    let peer = std::thread::spawn(move || echo_peer(Box::new(b), request_len, reply_len));
    let ns = ping_pong(each, Box::new(a), request_len, reply_len);
    peer.join().expect("echo peer panicked");
    ns
}

/// `ObjectCommunicator::round_trip` against the workload's real server: no
/// mux, no pool, one connection of its own.
fn server_round_trip(each: Duration, shape: &Shape, request: &[u8]) -> f64 {
    let t = TcpTransport::connect(&shape.target.endpoint.socket_addr()).expect("connect server");
    let mut comm = ObjectCommunicator::new(Box::new(t), Arc::clone(&shape.protocol));
    time(each, || {
        black_box(comm.round_trip(request).expect("server round trip"));
    })
}

/// `MuxConnection::call` over an in-process pipe with a responder that
/// answers every frame with the prepared reply.
fn mux_call(
    each: Duration,
    protocol: &Arc<dyn Protocol>,
    request_id: u64,
    request: &[u8],
    reply: &[u8],
) -> f64 {
    let (a, b) = InProcTransport::pair();
    let mut responder = ObjectCommunicator::new(Box::new(b), Arc::clone(protocol));
    let reply = reply.to_vec();
    let peer = std::thread::spawn(move || {
        while let Ok(Some(_)) = responder.recv() {
            if responder.send(&reply).is_err() {
                return;
            }
        }
    });
    let conn =
        MuxConnection::over(Box::new(a), Arc::clone(protocol)).expect("mux over in-proc pipe");
    let ns = time(each, || {
        black_box(conn.call(request_id, request, None).expect("mux call"));
    });
    drop(conn);
    peer.join().expect("responder panicked");
    ns
}
