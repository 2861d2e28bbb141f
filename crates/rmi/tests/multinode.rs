//! The multi-node tier's proving ground: N backends behind a [`Router`],
//! membership edited live (rolling restarts), partitions injected on one
//! backend's legs — and the exactly-once ledger must still balance.
//!
//! Every claim is asserted from **counters** — servant-side execution
//! ledgers and `_metrics` snapshots read over the wire — never from logs:
//!
//! * every `@exactly_once` (tokened) invocation executed **exactly once**
//!   across the whole cluster, no matter how many times it was retried;
//! * unannotated invocations were **never silently re-sent**: each
//!   executed at most once, and exactly once when the call returned Ok;
//! * while at least one backend is healthy, latency stays bounded.
//!
//! The `seeded_` test fans out over `HEIDL_CHAOS_SEED` in CI's
//! `multinode` job, like the `chaos-long` sweep.

use heidl_rmi::fault::{Fault, FaultOp, FaultPlan, FaultRule, FaultyConnector};
use heidl_rmi::retry::RetryPolicy;
use heidl_rmi::*;
use heidl_wire::{Decoder, Encoder, Protocol};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const REC_TYPE_ID: &str = "IDL:Test/Recorder:1.0";

/// Cluster-wide execution ledger: how many times each unique invocation
/// argument ran a servant body, across every backend (including restarted
/// incarnations, which share the ledger).
#[derive(Default)]
struct Ledger {
    puts: Mutex<HashMap<i64, u64>>,
    pokes: Mutex<HashMap<i64, u64>>,
}

impl Ledger {
    fn bump(map: &Mutex<HashMap<i64, u64>>, arg: i64) {
        *map.lock().entry(arg).or_insert(0) += 1;
    }
}

/// The backend servant: `put` is the exactly-once workload, `poke` the
/// unannotated one. Both record into the shared ledger and echo their
/// argument.
struct RecorderSkel {
    base: SkeletonBase,
    ledger: Arc<Ledger>,
}

impl Skeleton for RecorderSkel {
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
            Some(slot @ (0 | 1)) => {
                let arg = args.get_longlong()?;
                let map = if slot == 0 { &self.ledger.puts } else { &self.ledger.pokes };
                Ledger::bump(map, arg);
                reply.put_longlong(arg);
                Ok(DispatchOutcome::Handled)
            }
            _ => self.base.dispatch_parents(method, args, reply),
        }
    }
}

/// One backend node: a fresh ORB on an ephemeral port, exporting the
/// recorder as object 1 (every incarnation numbers from 1, so the same
/// routed reference addresses any backend).
fn spawn_backend(ledger: &Arc<Ledger>) -> (Orb, Endpoint) {
    let orb = Orb::new();
    let endpoint = orb.serve("127.0.0.1:0").unwrap();
    let objref = orb
        .export(Arc::new(RecorderSkel {
            base: SkeletonBase::new(REC_TYPE_ID, DispatchKind::Hash, ["put", "poke"], vec![]),
            ledger: Arc::clone(ledger),
        }))
        .unwrap();
    assert_eq!(objref.object_id, 1);
    (orb, endpoint)
}

fn invoke(
    orb: &Orb,
    target: &ObjectRef,
    method: &str,
    arg: i64,
    class: RetryClass,
) -> RmiResult<i64> {
    let mut call = orb.call(target, method);
    call.args().put_longlong(arg);
    let options = CallOptions::builder().retry_class(class).build();
    let mut reply = orb.invoke_with(call, options)?;
    Ok(reply.results().get_longlong()?)
}

/// Reads one counter from a node's `_metrics` object over the wire.
fn remote_counter(probe: &Orb, endpoint: &Endpoint, counter: Counter) -> u64 {
    let metrics_ref = ObjectRef::new(endpoint.clone(), METRICS_OBJECT_ID, METRICS_TYPE_ID);
    let mut res = DynCall::new(probe, &metrics_ref, "snapshot").invoke().unwrap();
    let counters: Vec<u64> =
        (0..Counter::ALL.len()).map(|_| res.next_ulonglong().unwrap()).collect();
    counters[counter as usize]
}

// ---- routing basics ------------------------------------------------------

/// Untokened calls round-robin across the membership: with 3 backends and
/// 30 calls, each backend dispatches its share.
#[test]
fn untokened_calls_round_robin_across_backends() {
    // Each backend records into its own ledger, so the share each one
    // served is directly observable.
    let mut per_backend = Vec::new();
    let mut endpoints = Vec::new();
    for _ in 0..3 {
        let sub = Arc::new(Ledger::default());
        let (orb, ep) = spawn_backend(&sub);
        per_backend.push((orb, sub));
        endpoints.push(ep);
    }
    let source = Arc::new(SharedBackends::with_endpoints(endpoints.clone()));
    let router = Router::builder(source).start("127.0.0.1:0").unwrap();
    let target = router.service_ref(1, REC_TYPE_ID);

    let client = Orb::new();
    for i in 0..30 {
        assert_eq!(invoke(&client, &target, "poke", i, RetryClass::IfIdempotent).unwrap(), i);
    }
    for (i, (_, sub)) in per_backend.iter().enumerate() {
        let served = sub.pokes.lock().len();
        assert_eq!(served, 10, "backend {i} should serve exactly its round-robin share");
    }

    client.shutdown();
    router.shutdown();
    for (orb, _) in &per_backend {
        orb.shutdown();
    }
}

/// A token is pinned to a backend only once forwarded there: a fresh
/// token whose rendezvous winner refuses (here: a dead backend, so the
/// dial fails, then its breaker opens) reached no backend, so it takes
/// the next one instead of answering `Busy` until the client gives up.
/// The client does not retry, so every call must land on its first try.
#[test]
fn a_fresh_token_skips_a_refusing_backend() {
    let ledger = Arc::new(Ledger::default());
    let (live, live_ep) = spawn_backend(&ledger);
    let (dead, dead_ep) = spawn_backend(&ledger);
    dead.shutdown_and_drain();
    let source = Arc::new(SharedBackends::with_endpoints([dead_ep, live_ep]));
    let router = Router::builder(source).start("127.0.0.1:0").unwrap();
    let target = router.service_ref(1, REC_TYPE_ID);

    let client = Orb::builder().retry_policy(RetryPolicy::default().with_max_attempts(1)).build();
    for arg in 0..20 {
        let got = invoke(&client, &target, "put", arg, RetryClass::ExactlyOnce);
        assert_eq!(got.unwrap_or_else(|e| panic!("tokened call {arg} refused: {e}")), arg);
    }
    let puts = ledger.puts.lock();
    assert!((0..20).all(|arg| puts.get(&arg) == Some(&1)), "each put ran once: {:?}", *puts);
    drop(puts);

    client.shutdown();
    router.shutdown();
    live.shutdown();
}

/// Dials TCP, except that every dial is refused while `refuse` is set,
/// and the next dial after `hold` is armed signals its `Sender` and waits
/// on its `Receiver` before connecting.
#[derive(Debug, Default)]
struct GatedConnector {
    refuse: AtomicBool,
    hold: Mutex<Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>>,
}

impl Connector for GatedConnector {
    fn connect(&self, endpoint: &Endpoint) -> std::io::Result<Box<dyn Transport>> {
        if self.refuse.load(Ordering::SeqCst) {
            return Err(std::io::ErrorKind::ConnectionRefused.into());
        }
        let hold = self.hold.lock().take();
        if let Some((entered, release)) = hold {
            let _ = entered.send(());
            let _ = release.recv();
        }
        TcpConnector.connect(endpoint)
    }
}

/// Sends `body` to the router on a connection of its own and returns the
/// reply's status.
fn send_raw(
    endpoint: &Endpoint,
    protocol: &Arc<dyn Protocol>,
    body: &[u8],
    id: u64,
) -> ReplyStatus {
    let conn = MuxConnection::connect(endpoint, protocol).unwrap();
    let reply = conn.call(id, body, Some(Duration::from_secs(10))).unwrap();
    peek_reply_status(&reply, protocol.as_ref()).unwrap().1
}

/// Two attempts of one token in the router at once run on one backend.
/// Both backends' breakers are half-open, so each admits one probe: the
/// first attempt takes the rendezvous winner's and its dial is held, the
/// second is refused by the winner and forwarded to the runner-up, which
/// pins the token. When the held dial completes, the first attempt finds
/// the token pinned elsewhere and answers `Busy` without sending.
#[test]
fn concurrent_attempts_of_one_token_run_on_one_backend() {
    let ledger = Arc::new(Ledger::default());
    let (a, a_ep) = spawn_backend(&ledger);
    let (b, b_ep) = spawn_backend(&ledger);
    let source = Arc::new(SharedBackends::with_endpoints([a_ep.clone(), b_ep.clone()]));
    let connector = Arc::new(GatedConnector::default());
    let cooldown = Duration::from_millis(50);
    let router = Router::builder(source)
        .connector(Arc::clone(&connector) as Arc<dyn Connector>)
        .breaker_config(BreakerConfig {
            failure_threshold: 1,
            cooldown,
            probe_budget: 1,
            success_threshold: 1,
        })
        .start("127.0.0.1:0")
        .unwrap();
    let target = router.service_ref(1, REC_TYPE_ID);
    let client = Orb::builder().retry_policy(RetryPolicy::default().with_max_attempts(1)).build();

    // Trip both breakers: an untokened call tries each backend, and each
    // dial is refused.
    connector.refuse.store(true, Ordering::SeqCst);
    assert!(invoke(&client, &target, "poke", -1, RetryClass::Safe).is_err());
    connector.refuse.store(false, Ordering::SeqCst);
    for ep in [&a_ep, &b_ep] {
        assert_eq!(router.pool().breaker(ep).state(), BreakerState::Open);
    }
    std::thread::sleep(cooldown * 2);

    let protocol = Arc::clone(client.protocol());
    let mut call = client.call(&target, "put");
    call.args().put_longlong(7);
    assert!(call.attach_token(protocol.as_ref(), InvocationToken { session: 0x5EED, seq: 1 }));
    let id = call.request_id();
    let body = Arc::new(call.into_body());

    let (entered_tx, entered) = mpsc::channel();
    let (release, release_rx) = mpsc::channel();
    *connector.hold.lock() = Some((entered_tx, release_rx));
    let first = {
        let (endpoint, protocol, body) =
            (router.endpoint().clone(), Arc::clone(&protocol), Arc::clone(&body));
        std::thread::spawn(move || send_raw(&endpoint, &protocol, &body, id))
    };
    entered.recv_timeout(Duration::from_secs(10)).expect("the first attempt dials the winner");
    let second = send_raw(router.endpoint(), &protocol, &body, id);
    release.send(()).unwrap();
    let first = first.join().unwrap();

    assert_eq!(second, ReplyStatus::Ok, "the second attempt ran on the runner-up");
    assert_eq!(first, ReplyStatus::Busy, "the first attempt found the token pinned elsewhere");
    assert_eq!(ledger.puts.lock().get(&7), Some(&1), "the token ran once");

    client.shutdown();
    router.shutdown();
    a.shutdown();
    b.shutdown();
}

/// A backend servant that holds every `wait` call until `parties` of them
/// are inside it together.
struct RendezvousSkel {
    base: SkeletonBase,
    barrier: std::sync::Barrier,
}

impl Skeleton for RendezvousSkel {
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
                self.barrier.wait();
                reply.put_longlong(args.get_longlong()?);
                Ok(DispatchOutcome::Handled)
            }
            _ => self.base.dispatch_parents(method, args, reply),
        }
    }
}

/// Forwards run on a few resident router threads, but a burst wider than
/// those must still forward concurrently (on overflow threads), never
/// queue behind a forward that is waiting for its backend: every call here
/// completes only once all of them are inside the servant at once.
#[test]
fn a_burst_wider_than_the_resident_forwarders_forwards_concurrently() {
    const BURST: usize = 12;
    let backend = Orb::new();
    let endpoint = backend.serve("127.0.0.1:0").unwrap();
    backend
        .export(Arc::new(RendezvousSkel {
            base: SkeletonBase::new(REC_TYPE_ID, DispatchKind::Hash, ["wait"], vec![]),
            barrier: std::sync::Barrier::new(BURST),
        }))
        .unwrap();
    let source = Arc::new(SharedBackends::with_endpoints([endpoint]));
    let router = Router::builder(source).start("127.0.0.1:0").unwrap();
    let target = router.service_ref(1, REC_TYPE_ID);

    let client = Orb::new();
    // Twice: the second burst finds the resident forwarders already used.
    for round in 0..2 {
        std::thread::scope(|scope| {
            for i in 0..BURST as i64 {
                let (client, target) = (&client, &target);
                scope.spawn(move || {
                    let arg = round * 100 + i;
                    let got = invoke(client, target, "wait", arg, RetryClass::IfIdempotent);
                    assert_eq!(got.unwrap(), arg);
                });
            }
        });
    }

    client.shutdown();
    router.shutdown();
    backend.shutdown();
}

const NOTE_TYPE_ID: &str = "IDL:Test/Notes:1.0";

/// A backend servant counting `note` oneways; `count` returns how many
/// it has run.
struct NotesSkel {
    base: SkeletonBase,
    notes: AtomicU64,
}

impl Skeleton for NotesSkel {
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
                self.notes.fetch_add(1, Ordering::SeqCst);
                Ok(DispatchOutcome::Handled)
            }
            Some(1) => {
                reply.put_ulonglong(self.notes.load(Ordering::SeqCst));
                Ok(DispatchOutcome::Handled)
            }
            _ => self.base.dispatch_parents(method, args, reply),
        }
    }
}

/// Per-thread program order is wire order across the hop too: one client
/// thread's oneways reach the backend servant before the two-way it sent
/// after them, so every `count` sees every earlier `note`.
#[test]
fn oneways_then_a_two_way_keep_program_order_through_the_router() {
    const ROUNDS: u64 = 2000;
    let backend = Orb::new();
    let endpoint = backend.serve("127.0.0.1:0").unwrap();
    let base = SkeletonBase::new(NOTE_TYPE_ID, DispatchKind::Hash, ["note", "count"], vec![]);
    backend.export(Arc::new(NotesSkel { base, notes: Default::default() })).unwrap();
    let source = Arc::new(SharedBackends::with_endpoints([endpoint]));
    let router = Router::builder(source).start("127.0.0.1:0").unwrap();
    let target = router.service_ref(1, NOTE_TYPE_ID);

    let client = Orb::new();
    let mut overtaken = 0;
    for round in 1..=ROUNDS {
        for _ in 0..3 {
            client.invoke_oneway(client.call_oneway(&target, "note")).unwrap();
        }
        let mut reply = client.invoke(client.call(&target, "count")).unwrap();
        if reply.results().get_ulonglong().unwrap() != 3 * round {
            overtaken += 1;
        }
    }
    assert_eq!(overtaken, 0, "{overtaken} of {ROUNDS} two-ways ran before an earlier oneway");

    client.shutdown();
    router.shutdown();
    backend.shutdown();
}

/// The router answers `_health` and `_metrics` itself: both stay readable
/// with an empty membership, and application calls are answered `Busy`
/// (retry-safe) rather than hanging or tearing the connection.
#[test]
fn router_builtins_answer_with_all_backends_down() {
    let source = Arc::new(SharedBackends::new());
    let router = Router::builder(source).start("127.0.0.1:0").unwrap();
    let client = Orb::new();

    // _health.ping — what a heartbeating client probes.
    let health_ref = ObjectRef::new(router.endpoint().clone(), HEALTH_OBJECT_ID, HEALTH_TYPE_ID);
    let mut pong = DynCall::new(&client, &health_ref, "ping").invoke().unwrap();
    assert_eq!(pong.next_string().unwrap(), "pong");

    // _metrics.dump — counters readable with zero backends.
    let metrics_ref = ObjectRef::new(router.endpoint().clone(), METRICS_OBJECT_ID, METRICS_TYPE_ID);
    let mut res = DynCall::new(&client, &metrics_ref, "dump").invoke().unwrap();
    let rows = res.next_ulong().unwrap();
    let text: Vec<String> = (0..rows).map(|_| res.next_string().unwrap()).collect();
    let text = text.join("\n");
    assert!(text.contains("backends"), "router gauges present: {text}");

    // An application call sheds Busy instead of hanging.
    let target = router.service_ref(1, REC_TYPE_ID);
    let err = invoke(&client, &target, "poke", 1, RetryClass::IfIdempotent).unwrap_err();
    assert_eq!(classify(&err), RetryClass::Safe, "Busy is retry-safe: {err}");

    client.shutdown();
    router.shutdown();
}

/// Membership edits re-route immediately: calls drain to the survivor
/// after a backend is removed, and return when it is re-added.
#[test]
fn membership_changes_reroute_without_restart() {
    // Separate ledgers per backend: which node served each call is the
    // whole point here.
    let ledger_a = Arc::new(Ledger::default());
    let ledger_b = Arc::new(Ledger::default());
    let (orb_a, ep_a) = spawn_backend(&ledger_a);
    let (orb_b, ep_b) = spawn_backend(&ledger_b);
    let source = Arc::new(SharedBackends::with_endpoints([ep_a.clone(), ep_b.clone()]));
    let router = Router::builder(Arc::clone(&source) as Arc<dyn BackendSource>)
        .start("127.0.0.1:0")
        .unwrap();
    let target = router.service_ref(1, REC_TYPE_ID);
    let client = Orb::new();

    for i in 0..4 {
        invoke(&client, &target, "poke", i, RetryClass::IfIdempotent).unwrap();
    }
    let a_before = ledger_a.pokes.lock().len();
    assert!(a_before > 0, "backend A saw traffic while in membership");

    source.remove(&ep_a);
    let gen_after_remove = source.generation();
    for i in 4..10 {
        invoke(&client, &target, "poke", i, RetryClass::IfIdempotent).unwrap();
    }
    assert_eq!(ledger_a.pokes.lock().len(), a_before, "a removed backend gets no further calls");

    source.add(ep_a.clone());
    assert!(source.generation() > gen_after_remove);
    for i in 10..16 {
        invoke(&client, &target, "poke", i, RetryClass::IfIdempotent).unwrap();
    }
    assert!(ledger_a.pokes.lock().len() > a_before, "a re-added backend serves again");

    client.shutdown();
    router.shutdown();
    orb_a.shutdown();
    orb_b.shutdown();
}

// ---- exactly-once through the router -------------------------------------

/// Client-side reply loss end to end: the client's retry re-sends the
/// same token through the router; the sticky backend's replay cache
/// answers without re-executing. Ledger and `_metrics` agree.
#[test]
fn seeded_client_reply_loss_replays_from_backend_cache() {
    let seed: u64 =
        std::env::var("HEIDL_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(1);
    const CALLS: i64 = 30;
    let ledger = Arc::new(Ledger::default());
    let (backend, backend_ep) = spawn_backend(&ledger);
    let source = Arc::new(SharedBackends::with_endpoints([backend_ep.clone()]));
    let router = Router::builder(source).start("127.0.0.1:0").unwrap();
    let target = router.service_ref(1, REC_TYPE_ID);

    // Drop the client<->router connection on reads, sometimes: replies
    // are lost *after* the backend executed and the router relayed.
    let plan = Arc::new(FaultPlan::new(seed));
    plan.add_rule(
        FaultRule::always(FaultOp::Recv, Fault::DropConnection)
            .at(router.endpoint().socket_addr())
            .when(Trigger::Probability(0.35)),
    );
    let client = Orb::builder()
        .connector(Arc::new(FaultyConnector::over_tcp(plan)))
        .retry_policy(
            RetryPolicy::default()
                .with_max_attempts(12)
                .with_backoff(Duration::from_millis(1), Duration::from_millis(5))
                .with_jitter_seed(seed),
        )
        .build();

    for i in 0..CALLS {
        assert_eq!(
            invoke(&client, &target, "put", i, RetryClass::ExactlyOnce).unwrap(),
            i,
            "call {i} (seed {seed})"
        );
    }

    let puts = ledger.puts.lock();
    assert_eq!(puts.len() as i64, CALLS);
    for (arg, count) in puts.iter() {
        assert_eq!(*count, 1, "seed {seed}: invocation {arg} executed {count} times");
    }
    assert!(client.metrics().get(Counter::Retries) >= 1, "seed {seed}: the sweep never bit");
    // The dedup is observable from the backend's remote _metrics, not
    // just the in-process ledger.
    let probe = Orb::new();
    assert!(
        remote_counter(&probe, &backend_ep, Counter::DedupReplays) >= 1,
        "seed {seed}: at least one retried token was answered from the reply cache"
    );

    probe.shutdown();
    client.shutdown();
    router.shutdown();
    backend.shutdown();
}

/// A mid-call failure on an unannotated call is answered with the
/// `RouterForward` system exception — the router must not guess. The
/// ledger proves the call was never silently re-sent to another backend.
#[test]
fn untokened_mid_call_failure_is_surfaced_never_resent() {
    let ledger = Arc::new(Ledger::default());
    let (backend_a, ep_a) = spawn_backend(&ledger);
    let (backend_b, ep_b) = spawn_backend(&ledger);

    // The router's *own* backend legs eat every reply read: the backend
    // executes, the router never sees the reply.
    let plan = Arc::new(FaultPlan::new(7));
    plan.add_rule(FaultRule::always(FaultOp::Recv, Fault::DropConnection).at(ep_a.socket_addr()));
    plan.add_rule(FaultRule::always(FaultOp::Recv, Fault::DropConnection).at(ep_b.socket_addr()));
    let source = Arc::new(SharedBackends::with_endpoints([ep_a, ep_b]));
    let router = Router::builder(source)
        .connector(Arc::new(FaultyConnector::over_tcp(plan)))
        .start("127.0.0.1:0")
        .unwrap();
    let target = router.service_ref(1, REC_TYPE_ID);

    let client = Orb::new();
    let err = invoke(&client, &target, "poke", 42, RetryClass::IfIdempotent).unwrap_err();
    match &err {
        RmiError::Remote { repo_id, .. } => {
            assert_eq!(repo_id, ROUTER_FORWARD_REPO_ID, "{err}");
        }
        other => panic!("expected the RouterForward system exception, got {other}"),
    }
    assert_eq!(
        classify(&err),
        RetryClass::Never,
        "the exception class forbids automatic client retry"
    );
    // The drop may have severed the leg before the backend even read the
    // request (0 executions) or just before the reply came back (1) — but
    // the router must never have re-sent it, to either backend.
    let pokes = ledger.pokes.lock();
    let count = pokes.get(&42).copied().unwrap_or(0);
    assert!(count <= 1, "unannotated call executed {count} times — it was silently re-sent");

    client.shutdown();
    router.shutdown();
    backend_a.shutdown();
    backend_b.shutdown();
}

// ---- the chaos harness ---------------------------------------------------

/// The acceptance scenario. Three backends behind the router; backend 0
/// is permanently in membership but its router legs are partitioned with
/// seeded probability (reads and writes dropped mid-call); backends 1 and
/// 2 take turns leaving membership, draining, restarting on a fresh port
/// and re-joining. Four client threads hammer the routed reference with
/// tokened `put`s (unique argument each) and unannotated `poke`s.
///
/// Invariants, all from counters:
/// * every tokened invocation returned Ok and executed exactly once;
/// * every unannotated invocation executed at most once, exactly once
///   when it returned Ok;
/// * p99 latency of tokened calls stays bounded (a healthy backend
///   existed throughout);
/// * the partitioned backend's replay cache really dedup'd (remote
///   `_metrics`), so the run proved recovery rather than fair weather.
#[test]
fn seeded_partition_and_rolling_restart_lose_no_exactly_once_calls() {
    let seed: u64 =
        std::env::var("HEIDL_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(1);
    const CLIENTS: usize = 4;
    const PUTS_PER_CLIENT: i64 = 40;
    const POKES_PER_CLIENT: i64 = 20;

    let ledger = Arc::new(Ledger::default());
    // Backend 0: the partition victim — never restarted, always in
    // membership, so sticky tokens always find its replay cache.
    let (backend0, ep0) = spawn_backend(&ledger);
    let (backend1, ep1) = spawn_backend(&ledger);
    let (backend2, ep2) = spawn_backend(&ledger);

    let source = Arc::new(SharedBackends::with_endpoints([ep0.clone(), ep1.clone(), ep2.clone()]));

    // Partition plan: only backend 0's legs are faulted. Restarting
    // backends leave gracefully (drain first), so their replies are never
    // lost — reply loss is confined to the leg whose membership is stable,
    // which is exactly the regime where sticky routing guarantees dedup.
    let plan = Arc::new(FaultPlan::new(seed));
    plan.add_rule(
        FaultRule::always(FaultOp::Recv, Fault::DropConnection)
            .at(ep0.socket_addr())
            .when(Trigger::Probability(0.25)),
    );
    plan.add_rule(
        FaultRule::always(FaultOp::Send, Fault::DropConnection)
            .at(ep0.socket_addr())
            .when(Trigger::Probability(0.10)),
    );
    let router = Router::builder(Arc::clone(&source) as Arc<dyn BackendSource>)
        .connector(Arc::new(FaultyConnector::over_tcp(plan)))
        .breaker_config(BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_millis(150),
            probe_budget: 1,
            success_threshold: 1,
        })
        .start("127.0.0.1:0")
        .unwrap();
    let target = router.service_ref(1, REC_TYPE_ID);

    // The roller: backends 1 and 2 alternately leave membership, drain,
    // restart on a fresh port and re-join — the membership is edited
    // exactly like a deploy would.
    let stop_rolling = Arc::new(AtomicBool::new(false));
    let roller = {
        let source = Arc::clone(&source);
        let ledger = Arc::clone(&ledger);
        let stop = Arc::clone(&stop_rolling);
        let mut slots = vec![(backend1, ep1), (backend2, ep2)];
        std::thread::Builder::new()
            .name("roller".to_owned())
            .spawn(move || {
                let mut which = 0usize;
                while !stop.load(Ordering::SeqCst) {
                    let (old_orb, old_ep) = slots[which].clone();
                    source.remove(&old_ep);
                    // Grace: in-flight forwards picked their candidate
                    // before the removal; let them finish before draining.
                    std::thread::sleep(Duration::from_millis(120));
                    old_orb.shutdown_and_drain();
                    let fresh = spawn_backend(&ledger);
                    source.add(fresh.1.clone());
                    slots[which] = fresh;
                    which = 1 - which;
                    std::thread::sleep(Duration::from_millis(80));
                }
                slots
            })
            .expect("spawn roller")
    };

    // Client fleet: each thread its own ORB (own session, own tokens).
    let results: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let target = target.clone();
            std::thread::Builder::new()
                .name(format!("client-{c}"))
                .spawn(move || {
                    let orb = Orb::builder()
                        .retry_policy(
                            RetryPolicy::default()
                                .with_max_attempts(40)
                                .with_backoff(Duration::from_millis(2), Duration::from_millis(25))
                                .with_jitter_seed(seed ^ c as u64),
                        )
                        .build();
                    let base = (c as i64 + 1) * 1_000_000;
                    let mut latencies = Vec::new();
                    let mut poke_outcomes = Vec::new();
                    let mut i = 0i64;
                    let mut p = 0i64;
                    while i < PUTS_PER_CLIENT || p < POKES_PER_CLIENT {
                        if i < PUTS_PER_CLIENT {
                            let arg = base + i;
                            let started = Instant::now();
                            let got = invoke(&orb, &target, "put", arg, RetryClass::ExactlyOnce)
                                .unwrap_or_else(|e| {
                                    panic!("seed {seed}: exactly-once call {arg} was LOST: {e}")
                                });
                            assert_eq!(got, arg);
                            latencies.push(started.elapsed());
                            i += 1;
                        }
                        if p < POKES_PER_CLIENT && p * PUTS_PER_CLIENT <= i * POKES_PER_CLIENT {
                            let arg = base + 500_000 + p;
                            let outcome =
                                invoke(&orb, &target, "poke", arg, RetryClass::IfIdempotent)
                                    .is_ok();
                            poke_outcomes.push((arg, outcome));
                            p += 1;
                        }
                    }
                    orb.shutdown();
                    (latencies, poke_outcomes)
                })
                .expect("spawn client")
        })
        .collect();

    let mut latencies = Vec::new();
    let mut poke_outcomes = Vec::new();
    for handle in results {
        let (lat, pok) = handle.join().expect("client thread survives");
        latencies.extend(lat);
        poke_outcomes.extend(pok);
    }
    stop_rolling.store(true, Ordering::SeqCst);
    let slots = roller.join().expect("roller survives");

    // 1. Exactly-once: every tokened invocation executed exactly once,
    //    cluster-wide, restarts and partitions notwithstanding.
    let puts = ledger.puts.lock();
    assert_eq!(
        puts.len(),
        CLIENTS * PUTS_PER_CLIENT as usize,
        "seed {seed}: every tokened invocation reached a servant"
    );
    for (arg, count) in puts.iter() {
        assert_eq!(
            *count, 1,
            "seed {seed}: tokened invocation {arg} executed {count} times — exactly-once violated"
        );
    }

    // 2. Unannotated calls: never silently re-sent. At most one
    //    execution each; exactly one when the client saw Ok.
    let pokes = ledger.pokes.lock();
    for (arg, ok) in &poke_outcomes {
        let count = pokes.get(arg).copied().unwrap_or(0);
        assert!(count <= 1, "seed {seed}: unannotated {arg} executed {count} times — re-sent");
        if *ok {
            assert_eq!(count, 1, "seed {seed}: Ok implies exactly one execution for {arg}");
        }
    }

    // 3. Bounded latency while >= 1 backend is healthy: generous bound,
    //    far under the retry policy's worst case, well over chaos noise.
    latencies.sort();
    let p99 = latencies[(latencies.len() * 99) / 100 - 1];
    assert!(
        p99 < Duration::from_secs(3),
        "seed {seed}: p99 {p99:?} unbounded despite healthy backends"
    );

    // 4. The run actually exercised recovery (not fair weather), provable
    //    from remote _metrics: the partitioned backend replayed at least
    //    one retried token from its cache, and the router retried/redialed.
    let probe = Orb::new();
    let dedups = remote_counter(&probe, &ep0, Counter::DedupReplays);
    assert!(
        dedups >= 1,
        "seed {seed}: no token was ever deduped on the partitioned backend — \
         the partition never bit an in-flight call"
    );
    assert!(
        router.metrics().get(Counter::Retries) + router.metrics().get(Counter::Reconnects) >= 1,
        "seed {seed}: the router never saw a mid-call failure"
    );

    probe.shutdown();
    router.shutdown();
    backend0.shutdown();
    for (orb, _) in slots {
        orb.shutdown();
    }
}
