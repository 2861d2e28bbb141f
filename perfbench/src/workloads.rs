//! The seven workloads: seeded inputs, set-up (ORBs, servers, first
//! connect, warm-up), the timed window, and the invariants checked after it.
//! All servers are in-process and all traffic is TCP loopback.

use crate::schedule::{self, Arrival, Clock, Op, Outcome, WallClock};
use crate::servants::{self, bench, BlockStreamer, Catalog, EchoSkel, ShopLedger, ShopSkel};
use crate::spans::span;
use crate::{rng::Rng, stats};
use heidl_rmi::{
    trace, BackendSource, CallOptions, Counter, DispatchKind, ObjectRef, Orb, RetryClass, RingSink,
    Router, ServerPolicy, SharedBackends, Skeleton, TraceLevel, TransportMode,
};
use heidl_wire::{CdrProtocol, Decoder, Encoder, Protocol, TextProtocol};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};

/// Every workload, in the order the suite runs them.
pub const WORKLOADS: [&str; 7] = [
    "echo_seq",
    "storm_threaded",
    "storm_reactor",
    "struct_cdr",
    "struct_text",
    "stream_bulk",
    "mix_open",
];

/// CPUs the process was allowed before it pinned itself to one.
static CORES: OnceLock<usize> = OnceLock::new();

pub fn set_cores(cores: usize) {
    CORES.get_or_init(|| cores.max(1));
}

/// Generator threads (and client connections) a workload may use:
/// `min(nproc, 4)`.
pub fn callers() -> usize {
    CORES.get().copied().unwrap_or(1).min(4)
}

// ---- sizes and rates (the workload parameters) ----------------------------

pub const ECHO_BYTES: usize = 96;
/// Distinct seeded payloads a caller cycles through.
const PAYLOAD_POOL: usize = 64;
/// Records in the struct workloads' clip table. Sized (not the thresholds)
/// so the layer-separation check holds: marshal + unmarshal is at least a
/// quarter of a struct call on both protocols.
pub const CLIP_RECORDS: usize = 512;
const CLIP_TITLE_BYTES: usize = 24;
const CLIP_TABLES: usize = 16;
pub const STREAM_TOTAL: usize = 64 << 20;
pub const STREAM_WINDOW: usize = 1 << 20;
pub const STREAM_CHUNK: usize = 256 << 10;
const QUOTE_KEYS: u32 = 16;
const QUOTE_TTL: Duration = Duration::from_millis(200);
/// `mix_open` offered rate R in calls per second: the nearest 1-2-5 value to
/// 40% of the same mix's closed-loop capacity on the reference sandbox
/// (`bench --calibrate`, 2 free-running callers on one CPU: 17.4k, 17.7k,
/// 17.3k, 17.7k calls/s on four seeds, so 40% is 7.0k).
pub const MIX_RATE: f64 = 5_000.0;
/// The latency limit `max_rate_ok` holds p99 against.
pub const MIX_P99_LIMIT_US: f64 = 5_000.0;
/// A generator that starts a call this far behind schedule was late.
const LATE_NS: u64 = 1_000_000;

/// The timed window is cut into this many slices, of which the quietest
/// `KEPT_SLICES` are read.
const SLICES: usize = 20;
const KEPT_SLICES: usize = 4;

const WARMUP_ECHO: usize = 2_000;
const WARMUP_STRUCT: usize = 300;
const WARMUP_STREAM: usize = 2;
const WARMUP_MIX_PER_CLIENT: usize = 500;

// ---- what a timed window produces -----------------------------------------

#[derive(Debug)]
pub enum Failure {
    /// An error, `Busy`, deadline or missing reply.
    Refused(String),
    /// A reply arrived and was not the right one.
    Wrong(String),
}

fn refused(e: impl std::fmt::Display) -> Failure {
    Failure::Refused(e.to_string())
}

/// One thread's record of a window; merged into a [`Window`].
#[derive(Debug)]
pub struct Log {
    clock: WallClock,
    /// `(completion time, latency)` of every verified two-way call.
    lat: Vec<(u64, u64)>,
    /// `(time, calls completed, payload bytes delivered)`; a streamed call
    /// completes in fractions, one per chunk.
    progress: Vec<(u64, f64, f64)>,
    attempted: u64,
    failed: u64,
    wrong: u64,
    first_error: Option<String>,
}

impl Log {
    fn new(clock: WallClock) -> Log {
        Log {
            clock,
            lat: Vec::with_capacity(1 << 20),
            progress: Vec::with_capacity(1 << 20),
            attempted: 0,
            failed: 0,
            wrong: 0,
            first_error: None,
        }
    }

    fn delivered(&mut self, calls: f64, payload_bytes: usize) {
        self.progress.push((self.clock.now_ns(), calls, payload_bytes as f64));
    }

    fn fail(&mut self, failure: Failure) {
        self.failed += 1;
        let text = match failure {
            Failure::Refused(t) => t,
            Failure::Wrong(t) => {
                self.wrong += 1;
                format!("WRONG REPLY: {t}")
            }
        };
        self.first_error.get_or_insert(text);
    }
}

/// A timed window, all threads merged.
#[derive(Debug, Default)]
pub struct Window {
    pub start_ns: u64,
    pub end_ns: u64,
    /// `(completion time, latency)`, one per verified two-way call.
    pub lat: Vec<(u64, u64)>,
    pub progress: Vec<(u64, f64, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    pub first_error: Option<String>,
    /// Printed, not gated: per-step numbers, tail percentile, sample count.
    pub info: Vec<(String, f64, &'static str)>,
}

impl Window {
    fn merge(start_ns: u64, end_ns: u64, logs: Vec<Log>) -> Window {
        let mut w = Window { start_ns, end_ns, ..Window::default() };
        for log in logs {
            w.lat.extend(log.lat);
            w.progress.extend(log.progress);
            w.attempted += log.attempted;
            w.failed += log.failed;
            w.wrong += log.wrong;
            if w.first_error.is_none() {
                w.first_error = log.first_error;
            }
        }
        w
    }

    /// The quietest fifth of the window (see [`stats::QuietSlices`]): every
    /// end-to-end number is read there.
    pub fn quiet(&self) -> stats::QuietSlices {
        stats::QuietSlices::pick(&self.lat, self.start_ns, self.end_ns, SLICES, KEPT_SLICES)
    }

    /// Verified calls per second over the quiet slices.
    pub fn calls_per_s(&self, quiet: &stats::QuietSlices) -> f64 {
        quiet.rate(self.progress.iter().map(|&(t, calls, _)| (t, calls)))
    }

    /// Payload megabytes (10^6 bytes) per second over the quiet slices.
    pub fn mb_per_s(&self, quiet: &stats::QuietSlices) -> f64 {
        quiet.rate(self.progress.iter().map(|&(t, _, bytes)| (t, bytes))) / 1e6
    }

    /// Latency percentile in microseconds over the quiet slices.
    pub fn percentile_us(&self, quiet: &stats::QuietSlices, q: f64) -> f64 {
        quiet.percentile(&self.lat, q) / 1e3
    }

    /// Adds the informational tail, over the whole window: the sample count
    /// and the highest percentile the sample supports (`p999_us` when it
    /// reaches that far).
    fn note_tail(&mut self) {
        let mut all: Vec<u64> = self.lat.iter().map(|&(_, ns)| ns).collect();
        all.sort_unstable();
        self.info.push(("samples".to_owned(), all.len() as f64, "count"));
        if let Some(q) = stats::highest_supported_percentile(all.len()) {
            let whole = |q| stats::percentile(&all, q) as f64 / 1e3;
            self.info.push(("highest_supported_percentile".to_owned(), q * 100.0, "%"));
            self.info.push(("highest_supported_us".to_owned(), whole(q), "us"));
            if q >= 0.999 {
                self.info.push(("p999_us".to_owned(), whole(0.999), "us"));
            }
        }
    }
}

/// How several closed-loop callers pace each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pace {
    /// Every caller sends one call; the next round starts when every reply
    /// of this one was verified.
    Lockstep,
    /// Each caller sends its next call as soon as its own reply is verified
    /// (capacity calibration only).
    Free,
}

/// Runs `threads` closed-loop callers for `seconds`. `make_call(thread)`
/// builds the thread's call function, which reports delivery itself (a
/// stream delivers per chunk) and gets `(log, call id)`.
///
/// The workloads run [`Pace::Lockstep`], because free-running callers that
/// share one CPU settle, anew each run, into one of two scheduling regimes:
/// they interleave (storm p50 34 us) or one runs alone for a timeslice while
/// the other starves (p50 17 us, p99 240 us), at the same throughput. In
/// lockstep all `threads` calls are in flight together every round, which is
/// also the most contention the callers can put on the shared connection.
fn closed_loop<F>(
    seconds: f64,
    threads: usize,
    pace: Pace,
    make_call: impl Fn(usize) -> F + Sync,
) -> Window
where
    F: FnMut(&mut Log, u64) -> Result<(), Failure>,
{
    let clock = WallClock { epoch: Instant::now() };
    let end_ns = (seconds * 1e9) as u64;
    let round = Barrier::new(threads);
    // The round at which everyone stops, written by caller 0 alone so that
    // no two callers can disagree about the clock and strand each other at
    // the barrier.
    let last_round = AtomicU64::new(u64::MAX);
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|thread| {
                let (make_call, round, last_round) = (&make_call, &round, &last_round);
                scope.spawn(move || {
                    let mut call = make_call(thread);
                    let mut log = Log::new(clock);
                    for n in 1u64.. {
                        let over = match pace {
                            Pace::Free => clock.now_ns() >= end_ns,
                            Pace::Lockstep => {
                                if thread == 0 && clock.now_ns() >= end_ns {
                                    last_round.store(n, Ordering::SeqCst);
                                }
                                round.wait();
                                last_round.load(Ordering::SeqCst) <= n
                            }
                        };
                        if over {
                            break;
                        }
                        let t0 = clock.now_ns();
                        log.attempted += 1;
                        match call(&mut log, ((thread as u64) << 48) | n) {
                            Ok(()) => {
                                let done = clock.now_ns();
                                log.lat.push((done, done - t0));
                            }
                            Err(failure) => log.fail(failure),
                        }
                    }
                    log
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("caller thread panicked")).collect()
    });
    let mut window = Window::merge(0, end_ns, logs);
    window.note_tail();
    window
}

// ---- the rig: one set-up system -------------------------------------------

/// Marshals one side of a representative call.
pub type Put = Box<dyn Fn(&mut dyn Encoder)>;
/// Unmarshals (and drops) one side of a representative call.
pub type Get = Box<dyn Fn(&mut dyn Decoder)>;

/// What the layer probes need to know about a workload's representative
/// call: its protocol, where the real server is, and how its request and
/// reply marshal.
pub struct Shape {
    pub protocol: Arc<dyn Protocol>,
    /// The real server's object, addressed directly (not through a router).
    pub target: ObjectRef,
    pub method: &'static str,
    /// Every method of the interface, as the skeleton's lookup table has it.
    pub methods: &'static [&'static str],
    /// The server-side skeleton, for in-memory dispatch; a stream servant
    /// has none.
    pub skeleton: Option<Arc<dyn Skeleton>>,
    pub put_args: Put,
    pub get_args: Get,
    pub put_results: Put,
    pub get_results: Get,
    /// The call carries `~tok`/`~ctx` suffixes and crosses a router.
    pub routed_with_suffixes: bool,
    /// The reply is a chunk frame of a stream.
    pub streamed: bool,
}

pub trait Rig {
    /// One timed window of `seconds`.
    fn run(&self, seconds: f64) -> Window;
    /// Invariants over the rig's whole life (warm-up and every window):
    /// each violation is one line.
    fn violations(&self) -> Vec<String>;
    /// Layer counters read from the ORBs' own observability hooks.
    fn counters(&self) -> Vec<(&'static str, f64)>;
    fn shape(&self) -> Shape;
    /// Sequential p50 of the representative call through the router and of
    /// the same call made directly, in ns; `None` for a workload with no
    /// router on its path.
    fn hop_probe(&self, _calls: usize) -> Option<(f64, f64)> {
        None
    }
    fn shutdown(self: Box<Self>);
}

/// Seeded inputs, generated once per run and outside `setup_s`: the ORB
/// sees only these.
pub struct Inputs {
    pub echo: Arc<Vec<String>>,
    pub tables: Arc<Vec<ClipTable>>,
    pub block: Arc<str>,
    pub names: Arc<Vec<String>>,
    pub schedule_rng: Rng,
}

#[derive(Debug, Clone)]
pub struct ClipTable {
    pub head: bench::Clip,
    pub titles: String,
    pub frames: Vec<i32>,
    pub statuses: Vec<i32>,
    pub rates: Vec<f64>,
    pub expected: Vec<f64>,
}

impl ClipTable {
    /// Application bytes a swap moves, both directions.
    pub fn payload_bytes(&self) -> usize {
        let head = self.head.title.len() + 4 + 4 + 8;
        head + self.titles.len() + self.frames.len() * (4 + 4 + 8) + self.expected.len() * 8
    }
}

impl Inputs {
    pub fn generate(seed: u64) -> Inputs {
        let root = Rng::new(seed);
        let mut r = root.fork(1);
        let echo = (0..PAYLOAD_POOL).map(|_| r.ascii(ECHO_BYTES)).collect();
        let mut r = root.fork(2);
        let tables = (0..CLIP_TABLES).map(|_| clip_table(&mut r)).collect();
        let block: Arc<str> = root.fork(3).ascii(STREAM_CHUNK).into();
        let mut r = root.fork(4);
        let names = (0..PAYLOAD_POOL).map(|_| r.ascii(CLIP_TITLE_BYTES)).collect();
        Inputs {
            echo: Arc::new(echo),
            tables: Arc::new(tables),
            block,
            names: Arc::new(names),
            schedule_rng: root.fork(5),
        }
    }
}

fn status_of(v: u64) -> bench::Status {
    match v % 3 {
        0 => bench::Status::Stopped,
        1 => bench::Status::Playing,
        _ => bench::Status::Paused,
    }
}

fn clip_table(r: &mut Rng) -> ClipTable {
    let rate = |r: &mut Rng| (r.below(48_000) + 1) as f64 / 1000.0;
    let head = bench::Clip {
        title: r.ascii(CLIP_TITLE_BYTES),
        frames: r.below(1 << 20) as i32,
        status: status_of(r.next_u64()),
        rate: rate(r),
    };
    let titles = r.ascii(CLIP_TITLE_BYTES * CLIP_RECORDS);
    let frames: Vec<i32> = (0..CLIP_RECORDS).map(|_| r.below(1 << 20) as i32).collect();
    let statuses: Vec<i32> = (0..CLIP_RECORDS).map(|_| status_of(r.next_u64()).to_long()).collect();
    let rates: Vec<f64> = (0..CLIP_RECORDS).map(|_| rate(r)).collect();
    let expected = servants::swap_expected(&head, &frames, &statuses, &rates);
    ClipTable { head, titles, frames, statuses, rates, expected }
}

/// Sets a workload up: ORBs (and router) built, served, exported, first
/// connect made, and a fixed count of warm-up calls done. The caller times
/// this as `setup_s`.
///
/// # Panics
///
/// On an unknown workload name (the CLI validates it first) and when the
/// loopback servers cannot start.
pub fn setup(name: &str, inputs: &Inputs) -> Box<dyn Rig> {
    match name {
        "echo_seq" => Box::new(EchoRig::setup(inputs, TransportMode::Threaded, 1)),
        "storm_threaded" => Box::new(EchoRig::setup(inputs, TransportMode::Threaded, callers())),
        "storm_reactor" => Box::new(EchoRig::setup(inputs, TransportMode::Reactor, callers())),
        "struct_cdr" => Box::new(StructRig::setup(inputs, Arc::new(CdrProtocol))),
        "struct_text" => Box::new(StructRig::setup(inputs, Arc::new(TextProtocol))),
        "stream_bulk" => Box::new(StreamRig::setup(inputs)),
        "mix_open" => Box::new(MixRig::setup(inputs)),
        other => panic!("unknown workload {other}"),
    }
}

fn orb(protocol: Arc<dyn Protocol>, mode: TransportMode) -> Orb {
    Orb::builder().protocol(protocol).transport_mode(mode).build()
}

/// The client-side invariants every direct workload shares: exactly the
/// expected connections were opened, and nothing was retried, replayed on
/// a fresh connection, or shed.
fn client_violations(client: &Orb, server: &Orb, expected_connections: u64) -> Vec<String> {
    let mut v = Vec::new();
    let opened = client.connections().opened_count();
    if opened != expected_connections {
        v.push(format!("client opened {opened} connections, expected {expected_connections}"));
    }
    if client.retry_count() != 0 {
        v.push(format!("client retried {} calls", client.retry_count()));
    }
    let reconnects = client.metrics().get(Counter::Reconnects);
    if reconnects != 0 {
        v.push(format!("{reconnects} unexpected reconnects"));
    }
    if let Some(h) = server.server_health() {
        if h.shed_requests + h.shed_connections != 0 {
            v.push(format!("server shed {} requests", h.shed_requests + h.shed_connections));
        }
    }
    v
}

fn server_counters(client: &Orb, server: &Orb) -> Vec<(&'static str, f64)> {
    let health = server.server_health().unwrap_or_default();
    vec![
        ("communicator.opened", client.connections().opened_count() as f64),
        ("orb.retries", client.retry_count() as f64),
        ("server.shed_requests", health.shed_requests as f64),
        ("server.in_flight", health.in_flight as f64),
    ]
}

// ---- echo_seq, storm_threaded, storm_reactor ------------------------------

struct EchoRig {
    server: Orb,
    client: Orb,
    objref: ObjectRef,
    payloads: Arc<Vec<String>>,
    callers: usize,
}

/// One echo through the hand-written stub path, each step into a layer
/// under its own span.
fn echo_call(client: &Orb, objref: &ObjectRef, payload: &str, id: u64) -> Result<(), Failure> {
    let _root = span("call", id);
    let mut call = {
        let _s = span("call.request", id);
        client.call(objref, "echo")
    };
    {
        let _s = span("wire.marshal", id);
        call.args().put_string(payload);
    }
    let mut reply = {
        let _s = span("orb.invoke", id);
        client.invoke(call)
    }
    .map_err(refused)?;
    let got = {
        let _s = span("wire.unmarshal", id);
        reply.results().get_string()
    }
    .map_err(refused)?;
    if got == payload {
        Ok(())
    } else {
        Err(Failure::Wrong(format!("echo of {payload:?} answered {got:?}")))
    }
}

impl EchoRig {
    fn setup(inputs: &Inputs, mode: TransportMode, callers: usize) -> EchoRig {
        let server = orb(Arc::new(CdrProtocol), mode);
        server.serve("127.0.0.1:0").expect("serve on loopback");
        let objref = server.export(EchoSkel::shared()).expect("export echo");
        let client = orb(Arc::new(CdrProtocol), mode);
        let rig = EchoRig { server, client, objref, payloads: Arc::clone(&inputs.echo), callers };
        for i in 0..WARMUP_ECHO {
            let payload = &rig.payloads[i % rig.payloads.len()];
            echo_call(&rig.client, &rig.objref, payload, 0).expect("warm-up echo");
        }
        rig
    }
}

impl Rig for EchoRig {
    fn run(&self, seconds: f64) -> Window {
        closed_loop(seconds, self.callers, Pace::Lockstep, |thread| {
            let payloads = &self.payloads;
            move |log: &mut Log, id: u64| {
                let payload = &payloads[(thread * 17 + id as usize) % payloads.len()];
                echo_call(&self.client, &self.objref, payload, id)?;
                log.delivered(1.0, 2 * payload.len());
                Ok(())
            }
        })
    }

    fn violations(&self) -> Vec<String> {
        client_violations(&self.client, &self.server, 1)
    }

    fn counters(&self) -> Vec<(&'static str, f64)> {
        server_counters(&self.client, &self.server)
    }

    fn shape(&self) -> Shape {
        let payload = self.payloads[0].clone();
        let reply = payload.clone();
        Shape {
            protocol: Arc::new(CdrProtocol),
            target: self.objref.clone(),
            method: "echo",
            methods: &["echo"],
            skeleton: Some(EchoSkel::shared()),
            put_args: Box::new(move |enc| enc.put_string(&payload)),
            get_args: Box::new(|dec| drop(dec.get_string().expect("echo arg"))),
            put_results: Box::new(move |enc| enc.put_string(&reply)),
            get_results: Box::new(|dec| drop(dec.get_string().expect("echo result"))),
            routed_with_suffixes: false,
            streamed: false,
        }
    }

    fn shutdown(self: Box<Self>) {
        self.client.shutdown();
        self.server.shutdown();
    }
}

// ---- struct_cdr, struct_text ----------------------------------------------

struct StructRig {
    server: Orb,
    client: Orb,
    stub: bench::CatalogStub,
    skeleton: Arc<dyn Skeleton>,
    protocol: Arc<dyn Protocol>,
    tables: Arc<Vec<ClipTable>>,
}

/// One swap through the generated stub; the reply is compared with the
/// locally recomputed column.
fn swap_call(stub: &bench::CatalogStub, table: &ClipTable, id: u64) -> Result<(), Failure> {
    let _root = span("call", id);
    let got = {
        let _s = span("orb.invoke", id);
        stub.swap(
            table.head.clone(),
            table.titles.clone(),
            table.frames.clone(),
            table.statuses.clone(),
            table.rates.clone(),
        )
    }
    .map_err(refused)?;
    if got == table.expected {
        Ok(())
    } else {
        Err(Failure::Wrong(format!("swap answered {} values that differ", got.len())))
    }
}

impl StructRig {
    fn setup(inputs: &Inputs, protocol: Arc<dyn Protocol>) -> StructRig {
        let mode = TransportMode::Threaded;
        let server = orb(Arc::clone(&protocol), mode);
        server.serve("127.0.0.1:0").expect("serve on loopback");
        let skeleton =
            bench::CatalogSkel::new(Arc::new(Catalog), server.clone(), DispatchKind::Hash);
        let objref = server.export(Arc::clone(&skeleton)).expect("export catalog");
        let client = orb(Arc::clone(&protocol), mode);
        let stub = bench::CatalogStub::new(client.clone(), objref);
        let rig = StructRig {
            server,
            client,
            stub,
            skeleton,
            protocol,
            tables: Arc::clone(&inputs.tables),
        };
        for i in 0..WARMUP_STRUCT {
            swap_call(&rig.stub, &rig.tables[i % rig.tables.len()], 0).expect("warm-up swap");
        }
        rig
    }
}

/// The marshaling the generated `CatalogStub::swap` does, repeated here so
/// the wire probe times the same puts on the same data.
fn put_swap_args(enc: &mut dyn Encoder, t: &ClipTable) {
    t.head.marshal(enc);
    enc.put_string(&t.titles);
    enc.put_len(t.frames.len() as u32);
    for x in &t.frames {
        enc.put_long(*x);
    }
    enc.put_len(t.statuses.len() as u32);
    for x in &t.statuses {
        enc.put_long(*x);
    }
    enc.put_len(t.rates.len() as u32);
    for x in &t.rates {
        enc.put_double(*x);
    }
}

fn get_longs(dec: &mut dyn Decoder) -> Vec<i32> {
    let n = dec.get_len().expect("sequence length");
    (0..n).map(|_| dec.get_long().expect("long element")).collect()
}

fn get_doubles(dec: &mut dyn Decoder) -> Vec<f64> {
    let n = dec.get_len().expect("sequence length");
    (0..n).map(|_| dec.get_double().expect("double element")).collect()
}

impl Rig for StructRig {
    fn run(&self, seconds: f64) -> Window {
        closed_loop(seconds, 1, Pace::Lockstep, |_| {
            move |log: &mut Log, id: u64| {
                let table = &self.tables[id as usize % self.tables.len()];
                swap_call(&self.stub, table, id)?;
                log.delivered(1.0, table.payload_bytes());
                Ok(())
            }
        })
    }

    fn violations(&self) -> Vec<String> {
        client_violations(&self.client, &self.server, 1)
    }

    fn counters(&self) -> Vec<(&'static str, f64)> {
        server_counters(&self.client, &self.server)
    }

    fn shape(&self) -> Shape {
        let (args, results) = (self.tables[0].clone(), self.tables[0].expected.clone());
        Shape {
            protocol: Arc::clone(&self.protocol),
            target: self.stub.object_ref().clone(),
            method: "swap",
            methods: &["swap"],
            skeleton: Some(Arc::clone(&self.skeleton)),
            put_args: Box::new(move |enc| put_swap_args(enc, &args)),
            get_args: Box::new(|dec| {
                drop(bench::Clip::unmarshal(dec).expect("head"));
                drop(dec.get_string().expect("titles"));
                drop((get_longs(dec), get_longs(dec), get_doubles(dec)));
            }),
            put_results: Box::new(move |enc| {
                enc.put_len(results.len() as u32);
                for x in &results {
                    enc.put_double(*x);
                }
            }),
            get_results: Box::new(|dec| drop(get_doubles(dec))),
            routed_with_suffixes: false,
            streamed: false,
        }
    }

    fn shutdown(self: Box<Self>) {
        self.client.shutdown();
        self.server.shutdown();
    }
}

// ---- stream_bulk -----------------------------------------------------------

struct StreamRig {
    server: Orb,
    client: Orb,
    objref: ObjectRef,
    block: Arc<str>,
    /// Byte sum of one whole stream.
    expected_sum: u64,
    /// Peak client-side buffering over every stream pulled.
    high_water: AtomicUsize,
    chunks: AtomicU64,
    streams: AtomicU64,
}

/// Order-free checksum: cheap enough (it vectorizes) not to bound the
/// throughput it checks; with the length it catches loss and duplication.
fn byte_sum(bytes: &[u8]) -> u64 {
    bytes.iter().map(|&b| u64::from(b)).sum()
}

impl StreamRig {
    fn setup(inputs: &Inputs) -> StreamRig {
        let mode = TransportMode::Threaded;
        let policy = ServerPolicy::default()
            .with_stream_chunk_bytes(STREAM_CHUNK)
            .with_stream_window_bytes(STREAM_WINDOW);
        let build = || {
            Orb::builder()
                .protocol(Arc::new(CdrProtocol))
                .transport_mode(mode)
                .server_policy(policy.clone())
                .build()
        };
        let server = build();
        server.serve("127.0.0.1:0").expect("serve on loopback");
        let block = Arc::clone(&inputs.block);
        let servant = BlockStreamer { block: Arc::clone(&block), total: STREAM_TOTAL };
        let objref = server.export_stream(Arc::new(servant)).expect("export blob");
        // The client's ServerPolicy doubles as its stream tuning: the credit
        // window it asks for rides in the request's chunk tail.
        let client = build();
        let whole = (STREAM_TOTAL / block.len()) as u64;
        let rest = &block.as_bytes()[..STREAM_TOTAL % block.len()];
        let rig = StreamRig {
            server,
            client,
            objref,
            expected_sum: whole * byte_sum(block.as_bytes()) + byte_sum(rest),
            block,
            high_water: Default::default(),
            chunks: Default::default(),
            streams: Default::default(),
        };
        for _ in 0..WARMUP_STREAM {
            rig.pull(None, 0).expect("warm-up stream");
        }
        rig
    }

    /// Pulls one whole stream, reporting each chunk as a fraction of a call.
    fn pull(&self, mut log: Option<&mut Log>, id: u64) -> Result<(), Failure> {
        let _root = span("call", id);
        let mut stream = {
            let _s = span("orb.invoke", id);
            self.client.invoke_stream(self.client.call(&self.objref, "pour"))
        }
        .map_err(refused)?;
        let (mut received, mut sum) = (0usize, 0u64);
        loop {
            let fragment = {
                let _s = span("stream.next_chunk", id);
                stream.next_chunk()
            }
            .map_err(refused)?;
            let Some(fragment) = fragment else { break };
            received += fragment.len();
            sum += byte_sum(fragment.as_bytes());
            if let Some(log) = log.as_deref_mut() {
                log.delivered(fragment.len() as f64 / STREAM_TOTAL as f64, fragment.len());
            }
        }
        self.high_water.fetch_max(stream.high_water_bytes(), Ordering::Relaxed);
        self.chunks.fetch_add(stream.chunks(), Ordering::Relaxed);
        self.streams.fetch_add(1, Ordering::Relaxed);
        if received != STREAM_TOTAL || sum != self.expected_sum {
            return Err(Failure::Wrong(format!(
                "stream delivered {received} bytes (sum {sum}), expected {STREAM_TOTAL} (sum {})",
                self.expected_sum
            )));
        }
        Ok(())
    }
}

impl Rig for StreamRig {
    fn run(&self, seconds: f64) -> Window {
        closed_loop(seconds, 1, Pace::Lockstep, |_| {
            move |log: &mut Log, id: u64| self.pull(Some(log), id)
        })
    }

    fn violations(&self) -> Vec<String> {
        let mut v = client_violations(&self.client, &self.server, 1);
        let high = self.high_water.load(Ordering::Relaxed);
        if high > STREAM_WINDOW + STREAM_CHUNK {
            v.push(format!("stream buffered {high} bytes, over window + chunk"));
        }
        v
    }

    fn counters(&self) -> Vec<(&'static str, f64)> {
        let mut c = server_counters(&self.client, &self.server);
        let streams = self.streams.load(Ordering::Relaxed).max(1) as f64;
        c.push(("stream.chunks", self.chunks.load(Ordering::Relaxed) as f64 / streams));
        c.push(("stream.high_water_bytes", self.high_water.load(Ordering::Relaxed) as f64));
        c
    }

    fn shape(&self) -> Shape {
        let block = Arc::clone(&self.block);
        Shape {
            protocol: Arc::new(CdrProtocol),
            target: self.objref.clone(),
            method: "pour",
            methods: &[],
            skeleton: None,
            put_args: Box::new(|_| ()),
            get_args: Box::new(|_| ()),
            put_results: Box::new(move |enc| enc.put_string(&block)),
            get_results: Box::new(|dec| drop(dec.get_string().expect("chunk fragment"))),
            routed_with_suffixes: false,
            streamed: true,
        }
    }

    fn shutdown(self: Box<Self>) {
        self.client.shutdown();
        self.server.shutdown();
    }
}

// ---- mix_open --------------------------------------------------------------

struct MixRig {
    backends: Vec<Orb>,
    router: Router,
    /// One client ORB, so one connection, per generator thread.
    clients: Vec<Orb>,
    target: ObjectRef,
    /// The same object on backend 0, addressed directly (router.hop_ns).
    direct: ObjectRef,
    ledger: Arc<ShopLedger>,
    payloads: Arc<Vec<String>>,
    names: Arc<Vec<String>>,
    schedule_rng: Rng,
    issued: MixIssued,
}

#[derive(Default)]
struct MixIssued {
    purchases: AtomicU64,
    oneways: AtomicU64,
    reads: AtomicU64,
}

impl MixRig {
    fn setup(inputs: &Inputs) -> MixRig {
        // `~ctx` rides only on Debug-traced calls; the ring keeps the few
        // Debug events off stderr.
        trace::set_sink(Arc::new(RingSink::new(256)));
        trace::set_level(TraceLevel::Debug);
        let ledger = Arc::new(ShopLedger::default());
        let mode = TransportMode::Threaded;
        let mut endpoints = Vec::new();
        let mut backends = Vec::new();
        for _ in 0..2 {
            let backend = orb(Arc::new(TextProtocol), mode);
            endpoints.push(backend.serve("127.0.0.1:0").expect("serve on loopback"));
            let objref =
                backend.export(ShopSkel::shared(Arc::clone(&ledger))).expect("export shop");
            // Every backend numbers from 1, so one routed reference
            // addresses the shop on any of them.
            assert_eq!(objref.object_id, 1);
            backends.push(backend);
        }
        let direct = ObjectRef::new(endpoints[0].clone(), 1, servants::SHOP_TYPE_ID);
        let source: Arc<dyn BackendSource> = Arc::new(SharedBackends::with_endpoints(endpoints));
        let router = Router::builder(source).start("127.0.0.1:0").expect("start router");
        let target = router.service_ref(1, servants::SHOP_TYPE_ID);
        let clients = (0..callers()).map(|_| orb(Arc::new(TextProtocol), mode)).collect();
        let rig = MixRig {
            backends,
            router,
            clients,
            target,
            direct,
            ledger,
            payloads: Arc::clone(&inputs.echo),
            names: Arc::clone(&inputs.names),
            schedule_rng: inputs.schedule_rng.clone(),
            issued: MixIssued::default(),
        };
        let mut warm = inputs.schedule_rng.fork(99);
        for client in &rig.clients {
            for _ in 0..WARMUP_MIX_PER_CLIENT {
                rig.issue(client, &schedule::draw(&mut warm, 0), 0).expect("warm-up mix call");
            }
        }
        rig
    }

    /// Issues one scheduled call and verifies its reply; returns the
    /// application payload bytes it moved.
    fn issue(&self, client: &Orb, arrival: &Arrival, id: u64) -> Result<usize, Failure> {
        let target = &self.target;
        let pick = arrival.pick as usize;
        // `echo_call` opens the root span itself.
        let _root = (arrival.op != Op::Echo).then(|| span("call", id));
        match arrival.op {
            Op::Echo => {
                let payload = &self.payloads[pick % self.payloads.len()];
                echo_call(client, target, payload, id)?;
                Ok(2 * payload.len())
            }
            Op::Read => {
                let key = (arrival.pick % QUOTE_KEYS) as i32;
                self.issued.reads.fetch_add(1, Ordering::Relaxed);
                let mut call = client.call(target, "quote");
                call.args().put_long(key);
                let options = CallOptions::builder().cached(QUOTE_TTL).build();
                let got = {
                    let _s = span("orb.invoke", id);
                    client.invoke_with(call, options)
                }
                .and_then(|mut r| Ok(r.results().get_string()?))
                .map_err(refused)?;
                if got != servants::quote_expected(key) {
                    return Err(Failure::Wrong(format!("quote({key}) answered {got:?}")));
                }
                Ok(4 + got.len())
            }
            Op::Purchase => {
                let name = &self.names[pick % self.names.len()];
                self.issued.purchases.fetch_add(1, Ordering::Relaxed);
                let mut call = client.call(target, "purchase");
                call.args().put_string(name);
                let options = CallOptions::builder().retry_class(RetryClass::ExactlyOnce).build();
                let got = {
                    let _s = span("orb.invoke", id);
                    client.invoke_with(call, options)
                }
                .and_then(|mut r| Ok(r.results().get_longlong()?))
                .map_err(refused)?;
                if got != servants::receipt_expected(name) {
                    return Err(Failure::Wrong(format!("purchase({name:?}) answered {got}")));
                }
                Ok(name.len() + 8)
            }
            Op::Oneway => {
                let payload = &self.payloads[pick % self.payloads.len()];
                self.issued.oneways.fetch_add(1, Ordering::Relaxed);
                let mut call = client.call_oneway(target, "notify");
                call.args().put_string(payload);
                let _s = span("orb.invoke", id);
                client.invoke_oneway(call).map_err(refused)?;
                Ok(payload.len())
            }
        }
    }

    fn cache_hits(&self) -> u64 {
        self.clients.iter().map(|c| c.metrics().get(Counter::CacheHits)).sum()
    }
}

/// Closed-loop capacity of the `mix_open` mix in calls per second: every
/// generator issues its next seeded call as soon as the previous returned.
/// `MIX_RATE` is calibrated from this (`bench --calibrate`).
pub fn mix_closed_loop_capacity(inputs: &Inputs, seconds: f64) -> f64 {
    let rig = MixRig::setup(inputs);
    let window = closed_loop(seconds, rig.clients.len(), Pace::Free, |thread| {
        let mut rng = inputs.schedule_rng.fork(1_000 + thread as u64);
        let rig = &rig;
        move |log: &mut Log, id: u64| {
            let bytes = rig.issue(&rig.clients[thread], &schedule::draw(&mut rng, 0), id)?;
            log.delivered(1.0, bytes);
            Ok(())
        }
    });
    let rate = window.calls_per_s(&window.quiet());
    Box::new(rig).shutdown();
    rate
}

/// One offered-load step's share of the window and multiple of R.
const MIX_STEPS: [(f64, f64); 3] = [(0.25, 0.5), (0.5, 1.0), (0.25, 2.0)];

impl Rig for MixRig {
    /// Open loop: three steps at R/2, R and 2R (a quarter, half and quarter
    /// of the window); the gated numbers are step R's.
    fn run(&self, seconds: f64) -> Window {
        let threads = self.clients.len();
        let total_ns = (seconds * 1e9) as u64;
        let mut rng = self.schedule_rng.clone();
        let mut bounds = Vec::new();
        let mut per_thread: Vec<Vec<Arrival>> = vec![Vec::new(); threads];
        let mut start = 0u64;
        for (share, multiple) in MIX_STEPS {
            let len = (total_ns as f64 * share) as u64;
            let slices = schedule::arrivals(&mut rng, MIX_RATE * multiple, start, len, threads);
            for (mine, slice) in per_thread.iter_mut().zip(slices) {
                mine.extend(slice);
            }
            bounds.push((start, start + len, MIX_RATE * multiple));
            start += len;
        }
        let clock = WallClock { epoch: Instant::now() };
        let results: Vec<(Vec<Outcome>, Vec<usize>, Log)> = std::thread::scope(|scope| {
            let handles: Vec<_> = per_thread
                .iter()
                .zip(&self.clients)
                .enumerate()
                .map(|(thread, (slice, client))| {
                    scope.spawn(move || {
                        let mut log = Log::new(clock);
                        let mut bytes = Vec::with_capacity(slice.len());
                        let mut n = 0u64;
                        let outcomes = schedule::drive(&clock, slice, |arrival| {
                            n += 1;
                            log.attempted += 1;
                            match self.issue(client, arrival, ((thread as u64) << 48) | n) {
                                Ok(b) => {
                                    bytes.push(b);
                                    true
                                }
                                Err(failure) => {
                                    bytes.push(0);
                                    log.fail(failure);
                                    false
                                }
                            }
                        });
                        (outcomes, bytes, log)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("generator thread panicked")).collect()
        });

        let mut all: Vec<(Outcome, usize)> = Vec::new();
        let mut logs = Vec::new();
        for (outcomes, bytes, log) in results {
            all.extend(outcomes.into_iter().zip(bytes));
            logs.push(log);
        }
        // Gated numbers: step R only.
        let (r_start, r_end, _) = bounds[1];
        let mut window = Window::merge(r_start, r_end, logs);
        let two_way = |o: &Outcome| o.ok && o.op != Op::Oneway;
        let mut highest_ok = 0.0;
        for (i, &(s, e, offered)) in bounds.iter().enumerate() {
            let step: Vec<&(Outcome, usize)> =
                all.iter().filter(|(o, _)| o.intended_ns >= s && o.intended_ns < e).collect();
            let mut lat: Vec<u64> =
                step.iter().filter(|(o, _)| two_way(o)).map(|(o, _)| o.latency_ns()).collect();
            lat.sort_unstable();
            let done = step.iter().filter(|(o, _)| o.ok && o.done_ns < e).count();
            let achieved = done as f64 / ((e - s) as f64 / 1e9);
            let late = step.iter().filter(|(o, _)| o.late_by_ns() > LATE_NS).count();
            let late_ratio = late as f64 / step.len().max(1) as f64;
            let p =
                |q| if lat.is_empty() { f64::NAN } else { stats::percentile(&lat, q) as f64 / 1e3 };
            let (p50, p99) = (p(0.5), p(0.99));
            let tag = ["half_r", "r", "two_r"][i];
            window.info.push((format!("step_{tag}.offered_per_s"), offered, "1/s"));
            window.info.push((format!("step_{tag}.achieved_per_s"), achieved, "1/s"));
            window.info.push((format!("step_{tag}.p50_us"), p50, "us"));
            window.info.push((format!("step_{tag}.p99_us"), p99, "us"));
            window.info.push((format!("step_{tag}.late_ratio"), late_ratio, "ratio"));
            let issued = step.len() as f64 / ((e - s) as f64 / 1e9);
            if p99 <= MIX_P99_LIMIT_US && achieved >= 0.99 * issued {
                highest_ok = offered;
            }
            if i == 1 {
                // Sliced by the time each call was due, so every call of the
                // step lands in one of its slices.
                window.lat = step
                    .iter()
                    .filter(|(o, _)| two_way(o))
                    .map(|(o, _)| (o.intended_ns, o.latency_ns()))
                    .collect();
                window.progress = step
                    .iter()
                    .filter(|(o, _)| two_way(o))
                    .map(|(o, b)| (o.done_ns, 1.0, *b as f64))
                    .collect();
                window.info.push(("late_ratio".to_owned(), late_ratio, "ratio"));
            }
        }
        window.info.push(("max_rate_ok".to_owned(), highest_ok, "1/s"));
        window.note_tail();
        window
    }

    fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        for (i, client) in self.clients.iter().enumerate() {
            let opened = client.connections().opened_count();
            if opened != 1 {
                v.push(format!("mix client {i} opened {opened} connections, expected 1"));
            }
            if client.retry_count() != 0 || client.metrics().get(Counter::Reconnects) != 0 {
                v.push(format!("mix client {i} retried or reconnected"));
            }
        }
        let issued = self.issued.purchases.load(Ordering::Relaxed);
        let executed = self.ledger.purchases.load(Ordering::Relaxed);
        if executed != issued {
            v.push(format!(
                "{issued} @exactly_once purchases issued, servants executed {executed}"
            ));
        }
        if self.cache_hits() == 0 {
            v.push("no @cached read was served from the result cache".to_owned());
        }
        // Oneways are fire-and-forget: give the last ones a moment to land.
        let sent = self.issued.oneways.load(Ordering::Relaxed);
        let deadline = Instant::now() + Duration::from_secs(2);
        while self.ledger.notified.load(Ordering::Relaxed) < sent && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let landed = self.ledger.notified.load(Ordering::Relaxed);
        if landed != sent {
            v.push(format!("{sent} oneways sent, {landed} delivered"));
        }
        for backend in &self.backends {
            if let Some(h) = backend.server_health() {
                if h.shed_requests + h.shed_connections != 0 {
                    v.push("a backend shed load".to_owned());
                }
            }
        }
        v
    }

    fn counters(&self) -> Vec<(&'static str, f64)> {
        let reads = self.issued.reads.load(Ordering::Relaxed).max(1) as f64;
        let router = self.router.metrics();
        vec![
            (
                "communicator.opened",
                self.clients.iter().map(|c| c.connections().opened_count()).sum::<u64>() as f64,
            ),
            ("orb.retries", self.clients.iter().map(Orb::retry_count).sum::<u64>() as f64),
            ("replay.executions", self.ledger.purchases.load(Ordering::Relaxed) as f64),
            ("result_cache.hit_ratio", self.cache_hits() as f64 / reads),
            (
                "router.forwarded",
                router.get(Counter::CallsOk) as f64 + router.get(Counter::Oneways) as f64,
            ),
            (
                "router.failed",
                router.get(Counter::CallsFailed) as f64 + router.get(Counter::ShedRequests) as f64,
            ),
            (
                "server.shed_requests",
                self.backends
                    .iter()
                    .filter_map(Orb::server_health)
                    .map(|h| h.shed_requests)
                    .sum::<u64>() as f64,
            ),
            (
                "server.in_flight",
                self.backends
                    .iter()
                    .filter_map(Orb::server_health)
                    .map(|h| h.in_flight)
                    .sum::<u64>() as f64,
            ),
        ]
    }

    fn shape(&self) -> Shape {
        let payload = self.payloads[0].clone();
        let reply = payload.clone();
        Shape {
            protocol: Arc::new(TextProtocol),
            target: self.direct.clone(),
            method: "echo",
            methods: &servants::SHOP_METHODS,
            skeleton: Some(ShopSkel::shared(Arc::new(ShopLedger::default()))),
            put_args: Box::new(move |enc| enc.put_string(&payload)),
            get_args: Box::new(|dec| drop(dec.get_string().expect("echo arg"))),
            put_results: Box::new(move |enc| enc.put_string(&reply)),
            get_results: Box::new(|dec| drop(dec.get_string().expect("echo result"))),
            routed_with_suffixes: true,
            streamed: false,
        }
    }

    /// Uses a client of its own, so the generators' one-connection
    /// invariant is left alone.
    fn hop_probe(&self, calls: usize) -> Option<(f64, f64)> {
        let probe = orb(Arc::new(TextProtocol), TransportMode::Threaded);
        let p50 = |target: &ObjectRef| {
            let mut lat: Vec<u64> = (0..calls)
                .filter_map(|_| {
                    let t = Instant::now();
                    echo_call(&probe, target, &self.payloads[0], 0).ok()?;
                    Some(t.elapsed().as_nanos() as u64)
                })
                .collect();
            lat.sort_unstable();
            if lat.is_empty() {
                f64::NAN
            } else {
                stats::percentile(&lat, 0.5) as f64
            }
        };
        // Interleave so drift in the box's load lands on both sides.
        let (warm_r, warm_d) = (p50(&self.target), p50(&self.direct));
        let (routed, direct) = (p50(&self.target), p50(&self.direct));
        probe.shutdown();
        Some(((warm_r + routed) / 2.0, (warm_d + direct) / 2.0))
    }

    fn shutdown(self: Box<Self>) {
        for client in &self.clients {
            client.shutdown();
        }
        self.router.shutdown();
        for backend in &self.backends {
            backend.shutdown();
        }
        trace::set_level(TraceLevel::Warn);
        trace::clear_sink();
    }
}
