//! Observability-layer integration tests: wire-propagated call context
//! (including a telnet-style hand-typed one), the built-in `_metrics`
//! object over a real TCP text-protocol connection, shed-counter
//! agreement between `_health` and `_metrics`, breaker transitions
//! surfacing as metrics, and the call kinds that share the client
//! pipeline: streamed and oneway calls carry the call context and answer
//! to the circuit breaker like two-way calls.

use heidl_rmi::trace;
use heidl_rmi::*;
use heidl_wire::{CdrProtocol, Decoder, Encoder, Protocol, TextProtocol};
use std::io::{Read, Write};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Call tracing is process-global state (level + sink); tests that flip
/// it serialize here so a parallel test never observes a half-configured
/// facade.
fn trace_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|e| e.into_inner())
}

// ---- servants -----------------------------------------------------------

/// `interface Echo { string shout(in string s); }`
struct EchoSkel {
    base: SkeletonBase,
}

impl EchoSkel {
    fn spawn() -> Arc<dyn Skeleton> {
        Arc::new(EchoSkel {
            base: SkeletonBase::new("IDL:Heidi/Echo:1.0", DispatchKind::Hash, ["shout"], vec![]),
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
            _ => self.base.dispatch_parents(method, args, reply),
        }
    }
}

/// `interface Sleeper { long nap(in long millis); }` — holds its dispatch
/// slot so in-flight caps are easy to saturate.
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

fn shout(client: &Orb, target: &ObjectRef, s: &str) -> RmiResult<String> {
    let mut call = client.call(target, "shout");
    call.args().put_string(s);
    let mut reply = client.invoke(call)?;
    Ok(reply.results().get_string()?)
}

fn nap_once(client: &Orb, target: &ObjectRef, ms: i32) -> RmiResult<i32> {
    let mut call = client.call(target, "nap");
    call.args().put_long(ms);
    let mut reply = client
        .invoke_with(call, CallOptions::builder().retry_policy(RetryPolicy::none()).build())?;
    Ok(reply.results().get_long()?)
}

/// Captures the [`CallContext`] (if any) seen at `ServerDispatch` for one
/// method, so tests can assert what the server extracted from the wire.
fn capture_dispatch_context(orb: &Orb, method: &'static str) -> Arc<Mutex<Option<CallContext>>> {
    let seen = Arc::new(Mutex::new(None));
    let sink = Arc::clone(&seen);
    orb.add_interceptor(Arc::new(FnInterceptor(move |info: &CallInfo| {
        if info.phase == CallPhase::ServerDispatch && info.method == method {
            *sink.lock().unwrap() = info.context;
        }
    })));
    seen
}

/// Sends one raw text-protocol line (what a telnet user would type) and
/// returns the single reply line.
fn telnet_exchange(ep: &Endpoint, line: &str) -> String {
    let mut stream = std::net::TcpStream::connect((ep.host.as_str(), ep.port)).unwrap();
    stream.write_all(line.as_bytes()).unwrap();
    let mut reply = Vec::new();
    let mut byte = [0u8; 1];
    while stream.read(&mut byte).unwrap() == 1 && byte[0] != b'\n' {
        reply.push(byte[0]);
    }
    String::from_utf8(reply).unwrap()
}

// ---- wire-propagated call context ---------------------------------------

#[test]
fn trace_context_propagates_from_client_to_server() {
    let _guard = trace_lock();
    let ring = Arc::new(RingSink::new(256));
    trace::set_sink(Arc::clone(&ring) as Arc<dyn TraceSink>);
    trace::set_level(TraceLevel::Debug);

    let server = Orb::new();
    server.serve("127.0.0.1:0").unwrap();
    let objref = server.export(EchoSkel::spawn()).unwrap();
    let seen = capture_dispatch_context(&server, "shout");

    let client = Orb::new();
    assert_eq!(shout(&client, &objref, "hi").unwrap(), "HI");

    let ctx = seen.lock().unwrap().expect("server extracted a wire context");
    assert_ne!(ctx.call_id, 0, "the call id is the client's request id");
    assert_eq!(ctx.parent_id, 0, "a top-level call has no parent");

    trace::set_level(TraceLevel::Warn);
    trace::clear_sink();
    server.shutdown();
}

#[test]
fn trace_context_is_absent_when_tracing_is_off() {
    let _guard = trace_lock();
    trace::set_level(TraceLevel::Warn); // Debug off: no stamping, no extraction.

    let server = Orb::new();
    server.serve("127.0.0.1:0").unwrap();
    let objref = server.export(EchoSkel::spawn()).unwrap();
    let seen = capture_dispatch_context(&server, "shout");

    let client = Orb::new();
    assert_eq!(shout(&client, &objref, "quiet").unwrap(), "QUIET");
    assert!(seen.lock().unwrap().is_none(), "no context without tracing");
    server.shutdown();
}

#[test]
fn hand_typed_context_reaches_the_server() {
    let _guard = trace_lock();
    let ring = Arc::new(RingSink::new(256));
    trace::set_sink(Arc::clone(&ring) as Arc<dyn TraceSink>);
    trace::set_level(TraceLevel::Debug);

    let server = Orb::new();
    server.serve("127.0.0.1:0").unwrap();
    let objref = server.export(EchoSkel::spawn()).unwrap();
    let seen = capture_dispatch_context(&server, "shout");
    let ep = server.endpoint().unwrap();

    // Exactly what a telnet user types: the ordinary request line plus
    // the trailing context section `"~ctx" <call-id> <parent-id>`.
    let line = format!("8 \"{objref}\" \"shout\" T \"hey\" \"~ctx\" 42 7\n");
    assert_eq!(telnet_exchange(&ep, &line), "8 0 \"HEY\"");

    let ctx = seen.lock().unwrap().expect("hand-typed context was extracted");
    assert_eq!(ctx.call_id, 42);
    assert_eq!(ctx.parent_id, 7);

    trace::set_level(TraceLevel::Warn);
    trace::clear_sink();
    server.shutdown();
}

// ---- the built-in _metrics object ---------------------------------------

#[test]
fn metrics_dump_over_raw_tcp_shows_live_traffic() {
    let server = Orb::new();
    // Per-op rows and latency buckets are pay-for-use; opt in before traffic.
    server.metrics().set_detail(true);
    server.serve("127.0.0.1:0").unwrap();
    let objref = server.export(EchoSkel::spawn()).unwrap();
    let metrics_ref = server.metrics_ref().unwrap();
    assert_eq!(metrics_ref.object_id, METRICS_OBJECT_ID);
    assert_eq!(metrics_ref.type_id, METRICS_TYPE_ID);

    let client = Orb::new();
    for _ in 0..10 {
        assert_eq!(shout(&client, &objref, "go").unwrap(), "GO");
    }

    // The README walkthrough, verbatim over a raw socket.
    let ep = server.endpoint().unwrap();
    let line = format!("1 \"{metrics_ref}\" \"dump\" T\n");
    let reply = telnet_exchange(&ep, &line);
    assert!(reply.starts_with("1 0 "), "an Ok reply: {reply}");
    assert!(reply.contains("== heidl metrics =="), "table header: {reply}");
    assert!(reply.contains("shout"), "per-op row for the echo method: {reply}");
    assert!(reply.contains("calls=10"), "nonzero call count: {reply}");
    assert!(reply.contains(">= "), "latency bucket rows: {reply}");
    assert!(reply.contains("bytes_in"), "byte counters: {reply}");
    server.shutdown();
}

#[test]
fn metrics_snapshot_and_reset_roundtrip_remotely() {
    let server = Orb::new();
    server.metrics().set_detail(true);
    server.serve("127.0.0.1:0").unwrap();
    let objref = server.export(EchoSkel::spawn()).unwrap();
    let client = Orb::new();
    for _ in 0..3 {
        shout(&client, &objref, "x").unwrap();
    }

    let metrics_ref = server.metrics_ref().unwrap();
    let read_snapshot = |client: &Orb| {
        let mut res = DynCall::new(client, &metrics_ref, "snapshot").invoke().unwrap();
        let counters: Vec<u64> =
            (0..Counter::ALL.len()).map(|_| res.next_ulonglong().unwrap()).collect();
        let ops = res.next_ulong().unwrap();
        let mut shout_calls = 0;
        for _ in 0..ops {
            let name = res.next_string().unwrap();
            let calls = res.next_ulonglong().unwrap();
            let _failures = res.next_ulonglong().unwrap();
            let _p50 = res.next_ulonglong().unwrap();
            let _p99 = res.next_ulonglong().unwrap();
            if name == "shout" {
                shout_calls = calls;
            }
        }
        (counters, shout_calls)
    };

    let (counters, shout_calls) = read_snapshot(&client);
    assert_eq!(shout_calls, 3, "three server-side dispatches recorded");
    assert!(counters[Counter::BytesIn as usize] > 0, "ingress bytes counted");
    assert!(counters[Counter::BytesOut as usize] > 0, "egress bytes counted");

    let mut ok = DynCall::new(&client, &metrics_ref, "reset").invoke().unwrap();
    assert!(ok.next_bool().unwrap());
    let (_, after_reset) = read_snapshot(&client);
    // The reset itself and the snapshot call are dispatched by the
    // runtime, not the skeleton, so `shout` stays at zero.
    assert_eq!(after_reset, 0, "reset zeroed the per-op stats");
    server.shutdown();
}

// ---- shed counters agree between _health and _metrics --------------------

#[test]
fn busy_sheds_count_once_in_both_health_and_metrics() {
    let server =
        Orb::builder().server_policy(ServerPolicy::default().with_max_in_flight(1)).build();
    server.serve("127.0.0.1:0").unwrap();
    let objref = server.export(SleeperSkel::spawn()).unwrap();
    let client = Orb::new();

    let occupant = {
        let client = client.clone();
        let objref = objref.clone();
        std::thread::spawn(move || nap_once(&client, &objref, 200))
    };
    std::thread::sleep(Duration::from_millis(60));
    let shed = nap_once(&client, &objref, 1);
    assert!(matches!(shed, Err(RmiError::ServerBusy { .. })), "cap shed expected: {shed:?}");
    assert_eq!(occupant.join().unwrap().unwrap(), 200);

    let health = server.server_health().unwrap();
    let metrics = server.metrics().get(Counter::ShedRequests);
    assert_eq!(health.shed_requests, 1, "exactly one shed in _health");
    assert_eq!(metrics, 1, "exactly one shed in _metrics");
    server.shutdown();
}

#[test]
fn drain_sheds_count_once_in_metrics() {
    let server = Orb::builder()
        .server_policy(ServerPolicy::default().with_drain_timeout(Duration::from_secs(5)))
        .build();
    server.serve("127.0.0.1:0").unwrap();
    let objref = server.export(SleeperSkel::spawn()).unwrap();
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
            std::thread::sleep(Duration::from_millis(60));
            nap_once(&client, &objref, 1)
        })
    };
    assert!(server.shutdown_and_drain());
    assert_eq!(inflight.join().unwrap().unwrap(), 250);
    let late = late.join().unwrap();
    assert!(matches!(late, Err(RmiError::ServerBusy { .. })), "mid-drain shed: {late:?}");
    // `_health` is gone after the drain, but the ORB's registry survives:
    // the one client-observed Busy is the one recorded shed — not zero
    // (dropped) and not two (double-counted).
    assert_eq!(server.metrics().get(Counter::ShedRequests), 1);
}

#[test]
fn refused_connections_count_once_in_both_health_and_metrics() {
    let server =
        Orb::builder().server_policy(ServerPolicy::default().with_max_connections(1)).build();
    server.serve("127.0.0.1:0").unwrap();
    let objref = server.export(EchoSkel::spawn()).unwrap();

    let first = Orb::new();
    assert_eq!(shout(&first, &objref, "a").unwrap(), "A");
    let second = Orb::new();
    assert!(shout(&second, &objref, "b").is_err(), "second peer refused");

    let health = server.server_health().unwrap();
    let metrics = server.metrics().get(Counter::ShedConnections);
    assert_eq!(health.shed_connections, metrics, "both registries agree");
    assert!(metrics >= 1, "the refused peer was counted");
    server.shutdown();
}

// ---- breaker transitions surface as metrics ------------------------------

#[test]
fn breaker_transitions_are_counted_in_client_metrics() {
    // A dead endpoint: bind, take the port, drop the listener.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let port = listener.local_addr().unwrap().port();
    drop(listener);
    let dead = ObjectRef::new(Endpoint::new("tcp", "127.0.0.1", port), 1, "IDL:Heidi/Echo:1.0");

    let client = Orb::builder()
        .circuit_breaker(BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::from_millis(5),
            probe_budget: 1,
            success_threshold: 1,
        })
        .build();
    assert!(shout(&client, &dead, "x").is_err(), "dead endpoint fails");
    assert!(
        client.metrics().get(Counter::BreakerOpened) >= 1,
        "the Closed -> Open transition was recorded as a metric"
    );
    assert!(client.metrics().get(Counter::CallsFailed) >= 1, "the failed call was counted");
}

// ---- every call kind runs the one client pipeline -------------------------

/// Every protocol × connection driver pair the pipeline must hold on.
fn flavours() -> Vec<(Arc<dyn Protocol>, TransportMode)> {
    let mut out: Vec<(Arc<dyn Protocol>, TransportMode)> = Vec::new();
    for mode in [TransportMode::Threaded, TransportMode::Reactor] {
        out.push((Arc::new(TextProtocol), mode));
        out.push((Arc::new(CdrProtocol), mode));
    }
    out
}

fn orb_for(protocol: &Arc<dyn Protocol>, mode: TransportMode) -> OrbBuilder {
    Orb::builder().protocol(Arc::clone(protocol)).transport_mode(mode)
}

/// `pour(long n)`: streams `n` bytes of `x`.
struct Pour;

impl StreamServant for Pour {
    fn type_id(&self) -> &str {
        "IDL:Heidi/Pour:1.0"
    }

    fn open(&self, _method: &str, args: &mut dyn Decoder) -> RmiResult<StreamBody> {
        let mut left = args.get_long()? as usize;
        Ok(StreamBody::from_fn(move |max| {
            let take = max.min(left);
            left -= take;
            (take > 0).then(|| "x".repeat(take))
        }))
    }
}

/// `interface Relay { void relay(); }`: from inside its own dispatch,
/// streams `pour(16)` from one object and sends a oneway `shout` to
/// another, recording both nested request ids.
struct RelaySkel {
    base: SkeletonBase,
    via: Orb,
    pour: ObjectRef,
    echo: ObjectRef,
    nested: Arc<Mutex<Vec<u64>>>,
}

impl Skeleton for RelaySkel {
    fn type_id(&self) -> &str {
        self.base.type_id()
    }

    fn dispatch(
        &self,
        method: &str,
        args: &mut dyn Decoder,
        reply: &mut dyn Encoder,
    ) -> RmiResult<DispatchOutcome> {
        if self.base.find(method) != Some(0) {
            return self.base.dispatch_parents(method, args, reply);
        }
        let mut call = self.via.call(&self.pour, "pour");
        call.args().put_long(16);
        self.nested.lock().unwrap().push(call.request_id());
        assert_eq!(self.via.invoke_stream(call)?.collect_string()?, "x".repeat(16));
        let mut call = self.via.call_oneway(&self.echo, "shout");
        call.args().put_string("psst");
        self.nested.lock().unwrap().push(call.request_id());
        self.via.invoke_oneway(call)?;
        Ok(DispatchOutcome::Handled)
    }
}

/// Waits up to five seconds for `seen` to be filled.
fn await_context(seen: &Mutex<Option<CallContext>>) -> Option<CallContext> {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while std::time::Instant::now() < deadline {
        if let Some(ctx) = *seen.lock().unwrap() {
            return Some(ctx);
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    None
}

#[test]
fn streamed_and_oneway_calls_carry_the_call_context() {
    let _guard = trace_lock();
    trace::set_sink(Arc::new(RingSink::new(256)) as Arc<dyn TraceSink>);
    trace::set_level(TraceLevel::Debug);
    for (protocol, mode) in flavours() {
        let flavour = format!("{} {mode:?}", protocol.name());
        let backend = orb_for(&protocol, mode).build();
        backend.serve("127.0.0.1:0").unwrap();
        let pour = backend.export_stream(Arc::new(Pour)).unwrap();
        let echo = backend.export(EchoSkel::spawn()).unwrap();
        let poured = capture_dispatch_context(&backend, "pour");
        let shouted = capture_dispatch_context(&backend, "shout");

        let front = orb_for(&protocol, mode).build();
        front.serve("127.0.0.1:0").unwrap();
        let nested = Arc::new(Mutex::new(Vec::new()));
        let relay = front
            .export(Arc::new(RelaySkel {
                base: SkeletonBase::new(
                    "IDL:Heidi/Relay:1.0",
                    DispatchKind::Hash,
                    ["relay"],
                    vec![],
                ),
                via: orb_for(&protocol, mode).build(),
                pour,
                echo,
                nested: Arc::clone(&nested),
            }))
            .unwrap();

        let client = orb_for(&protocol, mode).build();
        let call = client.call(&relay, "relay");
        let top = call.request_id();
        client.invoke(call).unwrap();

        let ids = nested.lock().unwrap().clone();
        assert_eq!(ids.len(), 2, "{flavour}");
        let stream_ctx = await_context(&poured);
        assert_eq!(stream_ctx, Some(CallContext { call_id: ids[0], parent_id: top }), "{flavour}");
        let oneway_ctx = await_context(&shouted);
        assert_eq!(oneway_ctx, Some(CallContext { call_id: ids[1], parent_id: top }), "{flavour}");
        front.shutdown();
        backend.shutdown();
    }
    trace::set_level(TraceLevel::Warn);
    trace::clear_sink();
}

fn breaker_client(protocol: &Arc<dyn Protocol>, mode: TransportMode, cooldown: Duration) -> Orb {
    orb_for(protocol, mode)
        .circuit_breaker(BreakerConfig {
            failure_threshold: 1,
            cooldown,
            probe_budget: 1,
            success_threshold: 1,
        })
        .build()
}

#[test]
fn open_breaker_refuses_streams_and_oneways_before_the_wire() {
    for (protocol, mode) in flavours() {
        let flavour = format!("{} {mode:?}", protocol.name());
        let server = orb_for(&protocol, mode).build();
        let endpoint = server.serve("127.0.0.1:0").unwrap();
        let pour = server.export_stream(Arc::new(Pour)).unwrap();
        let echo = server.export(EchoSkel::spawn()).unwrap();
        let client = breaker_client(&protocol, mode, Duration::from_secs(60));
        let breaker = client.connections().breaker(&endpoint);
        breaker.record_failure();
        assert_eq!(breaker.state(), BreakerState::Open, "{flavour}");

        let mut call = client.call(&pour, "pour");
        call.args().put_long(16);
        let streamed = client.invoke_stream(call).err();
        assert!(matches!(streamed, Some(RmiError::CircuitOpen { .. })), "{flavour}: {streamed:?}");
        let mut call = client.call_oneway(&echo, "shout");
        call.args().put_string("hush");
        let oneway = client.invoke_oneway(call);
        assert!(matches!(oneway, Err(RmiError::CircuitOpen { .. })), "{flavour}: {oneway:?}");

        assert_eq!(client.connections().opened_count(), 0, "{flavour}: nothing dialed");
        assert_eq!(server.metrics().get(Counter::BytesIn), 0, "{flavour}: nothing received");
        server.shutdown();
    }
}

#[test]
fn a_oneway_half_open_probe_resolves_its_token() {
    for (protocol, mode) in flavours() {
        let flavour = format!("{} {mode:?}", protocol.name());
        let server = orb_for(&protocol, mode).build();
        let endpoint = server.serve("127.0.0.1:0").unwrap();
        let echo = server.export(EchoSkel::spawn()).unwrap();
        let client = breaker_client(&protocol, mode, Duration::from_millis(20));
        let breaker = client.connections().breaker(&endpoint);
        breaker.record_failure();
        std::thread::sleep(Duration::from_millis(40));

        // The cool-down is over: the oneway is admitted as the one probe
        // the budget allows, and its outcome closes the breaker again.
        let mut call = client.call_oneway(&echo, "shout");
        call.args().put_string("probe");
        client.invoke_oneway(call).unwrap();
        assert_eq!(breaker.state(), BreakerState::Closed, "{flavour}");
        assert_eq!(client.metrics().get(Counter::BreakerHalfOpened), 1, "{flavour}");
        // A probe left unresolved would hold the budget and refuse this.
        assert_eq!(shout(&client, &echo, "next").unwrap(), "NEXT", "{flavour}");
        server.shutdown();
    }
}

// ---- a router answers its built-in objects like a server ------------------

#[test]
fn router_answers_a_malformed_builtin_request_with_bad_request() {
    let router = Router::builder(Arc::new(SharedBackends::new())).start("127.0.0.1:0").unwrap();
    let ep = router.endpoint().clone();
    let health = format!("@tcp:{}:{}#{HEALTH_OBJECT_ID}#{HEALTH_TYPE_ID}", ep.host, ep.port);
    let mut stream = std::net::TcpStream::connect((ep.host.as_str(), ep.port)).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut conn = stream.try_clone().unwrap();
    let mut read_line = || {
        let mut line = Vec::new();
        let mut byte = [0u8; 1];
        while stream.read(&mut byte).expect("a reply before the timeout") == 1 && byte[0] != b'\n' {
            line.push(byte[0]);
        }
        String::from_utf8(line).unwrap()
    };
    // The header peeks fine; the unterminated string argument does not.
    let bad = format!("5 \"{health}\" \"ping\" T \"oops\n");
    let good = format!("6 \"{health}\" \"ping\" T\n");
    conn.write_all(bad.as_bytes()).unwrap();
    let answer = read_line();
    assert!(answer.starts_with("5 2 \"IDL:heidl/BadRequest:1.0\""), "{answer}");
    conn.write_all(good.as_bytes()).unwrap();
    assert_eq!(read_line(), "6 0 \"pong\"");
    // A header that does not peek (no response flag) still answers under
    // the id that leads the line, as a server does.
    conn.write_all(b"9 \"x\" \"m\"\n").unwrap();
    let answer = read_line();
    assert!(answer.starts_with("9 2 \"IDL:heidl/BadRequest:1.0\""), "{answer}");
    router.shutdown();
}
