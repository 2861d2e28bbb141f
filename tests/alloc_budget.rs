//! The exact allocation budget of one echo call, on the client's side and
//! on the servers' side, over each wire protocol on each connection
//! driver, with tracing off, and of one echo routed client -> `Router` ->
//! backend; and the caller's exact budget per chunk of a streamed reply. The test binary's global allocator counts every heap
//! allocation in the process against the thread that makes it (servers
//! and router are in-process), and each thread is put in a role by its
//! name: the caller, the threads that carry calls on a server, or a
//! background thread (the heartbeat, a lend watcher, an acceptor), each
//! with a budget of its own. So a change that adds one allocation per call
//! anywhere on the path fails here, and a background thread's allocation
//! cannot pass for a caller's.
//!
//! The budgets are exact, not ceilings: a change that removes an
//! allocation lowers its row in the same change. A few allocations in a
//! run depend on thread timing (a racing wake, a queue growing once), so
//! each role's count may differ from its budget times the calls by a
//! small fixed number, either way. A background thread's budget per call
//! is zero. The heartbeat rows run a client heartbeat probe beside the
//! calls: a busy connection is neither read nor pinged by it, so each of
//! the probe's scans must allocate nothing, and one allocation per scan
//! would break the remainder rule. A caller descheduled for a whole
//! interval leaves its connection idle, and the probe rightly pings it;
//! such a window measures an idle connection, not a busy one, so it is
//! measured again, at most [`TRIES`] times in all.

#![cfg(target_os = "linux")]

use heidl::rmi::{
    Counter, DispatchKind, DispatchOutcome, Orb, RmiResult, Router, ServerPolicy, SharedBackends,
    Skeleton, SkeletonBase, StreamBody, StreamServant, TransportMode,
};
use heidl::wire::{CdrProtocol, Decoder, Encoder, Protocol, TextProtocol};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Held by each test for its whole run: the count names threads by role,
/// so one test's server threads must not run beside another test's count.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

// ---- counting allocator, per thread -----------------------------------------

/// Threads the count tells apart; any past these share the last slot.
const SLOTS: usize = 1024;

/// One thread's allocations, and its kernel thread id, which names it
/// (`/proc/self/task/<tid>/comm`) when the counts are read.
struct Slot {
    allocs: AtomicU64,
    tid: AtomicI32,
}

static TABLE: [Slot; SLOTS] =
    [const { Slot { allocs: AtomicU64::new(0), tid: AtomicI32::new(0) } }; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's slot, `usize::MAX` before its first allocation.
    /// Const-initialised with no destructor, so reaching it allocates
    /// nothing, inside the allocator included.
    static MINE: Cell<usize> = const { Cell::new(usize::MAX) };
}

extern "C" {
    fn gettid() -> i32;
}

/// Counts one allocation against the calling thread.
fn count() {
    let _ = MINE.try_with(|mine| {
        if mine.get() == usize::MAX {
            let slot = NEXT_SLOT.fetch_add(1, Ordering::Relaxed).min(SLOTS - 1);
            // SAFETY: `gettid` takes nothing and cannot fail.
            TABLE[slot].tid.store(unsafe { gettid() }, Ordering::Relaxed);
            mine.set(slot);
        }
        TABLE[mine.get()].allocs.fetch_add(1, Ordering::Relaxed);
    });
}

/// The system allocator, counting every allocation and reallocation
/// against the thread that makes it.
struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counter touches no allocator state and allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Reads every slot's count into `into`, allocating nothing.
fn read_counts(into: &mut [u64]) {
    for (count, slot) in into.iter_mut().zip(&TABLE) {
        *count = slot.allocs.load(Ordering::Relaxed);
    }
}

/// Who a thread is, from its name. `client` is the test's own thread;
/// `server` is every thread that carries calls on a server (a router's
/// included); any other thread, the heartbeat's too, is a background
/// thread of its own, named without its port.
fn role(slot: usize, caller: usize) -> String {
    let tid = TABLE[slot].tid.load(Ordering::Relaxed);
    let name = std::fs::read_to_string(format!("/proc/self/task/{tid}/comm"))
        .map_or_else(|_| "exited".to_owned(), |name| name.trim_end().to_owned());
    let carriers = ["heidl-conn", "heidl-worker", "heidl-reactor", "heidl-overflow"];
    if slot == caller {
        "client".to_owned()
    } else if carriers.iter().any(|prefix| name.starts_with(prefix)) {
        "server".to_owned()
    } else {
        name.trim_end_matches(|c: char| c.is_ascii_digit() || c == '-').to_owned()
    }
}

// ---- servant ------------------------------------------------------------------

/// `string echo(in string s)`.
struct EchoSkel {
    base: SkeletonBase,
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
                let s = args.get_string()?;
                reply.put_string(&s);
                Ok(DispatchOutcome::Handled)
            }
            _ => self.base.dispatch_parents(method, args, reply),
        }
    }
}

// ---- measurement --------------------------------------------------------------

/// Calls warmed up before counting: connection, pools and caches settle.
const WARM_UP: usize = 500;
/// Fewest calls counted.
const CALLS: u64 = 2000;
/// Shortest span counted: forty ticks of a [`HEARTBEAT`] probe.
const SPAN: Duration = Duration::from_millis(200);
/// The heartbeat rows' interval, which the probe ticks at.
const HEARTBEAT: Duration = Duration::from_millis(5);
/// Windows measured for one row, the last counted even if a ping went out
/// in it: a probe that pinged busy connections would ping in every one.
const TRIES: usize = 3;
/// How far a role's allocations in a run may stray from its exact budget.
/// Thread timing accounts for up to seven; one more allocation per
/// heartbeat tick would make about forty.
const STRAY: u64 = 15;

/// Echoes of a 96-byte string, at least [`CALLS`] of them over at least
/// [`SPAN`], with client heartbeats every `heartbeat` when set, through a
/// router when `routed`: returns the allocations they made, by [`role`],
/// how many echoes there were, how long they took, and how many
/// heartbeat pings went out meanwhile.
fn allocs_for_echoes(
    protocol: Arc<dyn Protocol>,
    mode: TransportMode,
    heartbeat: Option<Duration>,
    routed: bool,
) -> (BTreeMap<String, u64>, u64, Duration, u64) {
    let builder = Orb::builder().protocol(Arc::clone(&protocol)).transport_mode(mode);
    let orb = match heartbeat {
        Some(interval) => builder.heartbeat(interval),
        None => builder,
    }
    .build();
    orb.serve("127.0.0.1:0").unwrap();
    let base = SkeletonBase::new("IDL:Bench/Echo:1.0", DispatchKind::Hash, ["echo"], vec![]);
    let mut objref = orb.export(Arc::new(EchoSkel { base })).unwrap();
    let router = routed.then(|| {
        let source = Arc::new(SharedBackends::with_endpoints([objref.endpoint.clone()]));
        Router::builder(source).protocol(protocol).start("127.0.0.1:0").unwrap()
    });
    if let Some(router) = &router {
        objref = router.service_ref(objref.object_id, &objref.type_id);
    }
    let payload = "x".repeat(96);
    let echo = || {
        let mut call = orb.call(&objref, "echo");
        call.args().put_string(&payload);
        let got = orb.invoke(call).unwrap().results().get_string().unwrap();
        assert_eq!(got, payload);
    };
    for _ in 0..WARM_UP {
        echo();
    }
    let (mut before, mut after) = (vec![0; SLOTS], vec![0; SLOTS]);
    let pinged = orb.metrics().get(Counter::HeartbeatsSent);
    read_counts(&mut before);
    let started = Instant::now();
    let mut calls = 0;
    while calls < CALLS || started.elapsed() < SPAN {
        echo();
        calls += 1;
    }
    read_counts(&mut after);
    let span = started.elapsed();
    let pings = orb.metrics().get(Counter::HeartbeatsSent) - pinged;
    // Named while every thread of the run is still alive.
    let caller = MINE.with(Cell::get);
    let mut by_role = BTreeMap::new();
    for (slot, (after, before)) in after.iter().zip(&before).enumerate() {
        if after > before {
            *by_role.entry(role(slot, caller)).or_default() += after - before;
        }
    }
    if let Some(router) = router {
        router.shutdown();
    }
    orb.shutdown();
    (by_role, calls, span, pings)
}

/// The threaded driver's overrun watcher. Its one allocation is the job
/// that rescues a reader lent for longer than its 1 ms tick, which only a
/// reader descheduled mid-call leaves behind: how often depends on the
/// host's load, not on the code. So its budget is not per call but per
/// tick: at most one allocation per 4 ms of the counted span, where
/// allocating on every tick would make four times that and more.
const LEND_WATCHER: &str = "heidl-lend";

/// A budget row: name, protocol, the client and backend's driver, whether
/// the echoes go through a router, and the allocations per call on the
/// client's side and on the servers' side. Every other role's is zero,
/// except a lend watcher's (see [`LEND_WATCHER`]).
type Row = (&'static str, Arc<dyn Protocol>, TransportMode, bool, u64, u64);

/// Every echo row in one test, run alone (see [`ONE_AT_A_TIME`]), so no
/// other test's allocations land in the count.
#[test]
fn echo_allocations_per_call_are_exact() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let mut wrong = Vec::new();
    for heartbeat in [None, Some(HEARTBEAT)] {
        let rows: [Row; 6] = [
            ("text threaded", Arc::new(TextProtocol), TransportMode::Threaded, false, 13, 12),
            ("cdr threaded", Arc::new(CdrProtocol), TransportMode::Threaded, false, 13, 12),
            ("text reactor", Arc::new(TextProtocol), TransportMode::Reactor, false, 13, 12),
            ("cdr reactor", Arc::new(CdrProtocol), TransportMode::Reactor, false, 13, 12),
            ("text routed", Arc::new(TextProtocol), TransportMode::Threaded, true, 13, 19),
            ("cdr routed", Arc::new(CdrProtocol), TransportMode::Threaded, true, 13, 19),
        ];
        for (name, protocol, mode, via_router, client, server) in rows {
            let mut tries = 0;
            let (mut by_role, calls, span) = loop {
                tries += 1;
                let (by_role, calls, span, pings) =
                    allocs_for_echoes(Arc::clone(&protocol), mode, heartbeat, via_router);
                if pings == 0 || tries == TRIES {
                    break (by_role, calls, span);
                }
            };
            for role in ["client", "server"] {
                by_role.entry(role.to_owned()).or_default();
            }
            let beat = if heartbeat.is_some() { " heartbeat" } else { "" };
            for (role, allocs) in by_role {
                let budget = match role.as_str() {
                    "client" => client,
                    "server" => server,
                    LEND_WATCHER => {
                        let cap = span.as_millis() as u64 / 4;
                        if allocs > cap {
                            wrong.push(format!(
                                "{name}{beat}, {role}: {allocs} allocations in {span:?}, more \
                                 than {cap}"
                            ));
                        }
                        continue;
                    }
                    _ => 0,
                };
                let off = allocs.abs_diff(budget * calls);
                if off > STRAY {
                    wrong.push(format!(
                        "{name}{beat}, {role}: {allocs} allocations in {calls} calls, {off} off \
                         its budget of {budget} per call"
                    ));
                }
            }
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("; "));
}

// ---- streamed replies -----------------------------------------------------------

/// `stream string pour()`: [`STREAM_CHUNKS`] chunks of [`STREAM_CHUNK`]
/// bytes, from one shared block.
struct Pour {
    block: Arc<str>,
}

impl StreamServant for Pour {
    fn type_id(&self) -> &str {
        "IDL:Bench/Pour:1.0"
    }

    fn open(&self, _method: &str, _args: &mut dyn Decoder) -> RmiResult<StreamBody> {
        let (block, mut left) = (Arc::clone(&self.block), STREAM_CHUNKS);
        Ok(StreamBody::from_fn(move |_| {
            left = left.checked_sub(1)?;
            Some(block.to_string())
        }))
    }
}

/// A stream's chunk: larger than the buffer pool retains and than one
/// read, as in perfbench's `stream_bulk`.
const STREAM_CHUNK: usize = 256 * 1024;
/// Chunks per stream.
const STREAM_CHUNKS: usize = 32;
/// Streams pulled before counting, and counted: few, since opening one
/// allocates up to two more when the buffer pool misses (see
/// [`stream_allocations_per_chunk_are_exact`]).
const STREAMS: u64 = 3;

/// A stream budget row: name, the client and server's driver, and the
/// caller's allocations per chunk and per stream.
type StreamRow = (&'static str, TransportMode, u64, u64);

/// The caller's allocations while it pulls whole streams over CDR, one
/// credit window of four chunks at a time: per chunk, its frame's body
/// (larger than the pool keeps); and per stream, opening it. The peeks at
/// a frame, for its id and for its text, lend decoders on the stack, the
/// fragment's text is read in place, and a credit ack allocates nothing.
/// Opening a stream takes 26 allocations (25 before its first chunk and
/// one more at it), and one more for each of its request's and its ack's
/// encoders that the buffer pool, which the server's threads share,
/// misses (27 in up to 4 of 40 streams measured): the budget is 26. Only
/// the caller is counted:
/// the server's side of a stream runs on a worker thread and its reader,
/// whose share of each chunk depends on where the credit wait falls.
#[test]
fn stream_allocations_per_chunk_are_exact() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let rows: [StreamRow; 2] = [
        ("cdr threaded", TransportMode::Threaded, 1, 26),
        ("cdr reactor", TransportMode::Reactor, 1, 26),
    ];
    let mut wrong = Vec::new();
    for (name, mode, per_chunk, per_stream) in rows {
        let policy = ServerPolicy::default()
            .with_stream_chunk_bytes(STREAM_CHUNK)
            .with_stream_window_bytes(4 * STREAM_CHUNK);
        let build = || {
            Orb::builder()
                .protocol(Arc::new(CdrProtocol))
                .transport_mode(mode)
                .server_policy(policy.clone())
                .build()
        };
        let (server, client) = (build(), build());
        server.serve("127.0.0.1:0").unwrap();
        let block: Arc<str> = "x".repeat(STREAM_CHUNK).into();
        let objref = server.export_stream(Arc::new(Pour { block })).unwrap();
        let pull = || {
            let mut stream = client.invoke_stream(client.call(&objref, "pour")).unwrap();
            let mut received = 0;
            while let Some(fragment) = stream.next_chunk().unwrap() {
                received += fragment.len();
            }
            assert_eq!(received, STREAM_CHUNK * STREAM_CHUNKS, "{name}");
        };
        for _ in 0..STREAMS {
            pull();
        }
        let caller = MINE.with(Cell::get);
        let before = TABLE[caller].allocs.load(Ordering::Relaxed);
        for _ in 0..STREAMS {
            pull();
        }
        let allocs = TABLE[caller].allocs.load(Ordering::Relaxed) - before;
        let chunks = STREAMS * STREAM_CHUNKS as u64;
        let budget = per_chunk * chunks + per_stream * STREAMS;
        let off = allocs.abs_diff(budget);
        if off > STRAY {
            wrong.push(format!(
                "{name}: the caller made {allocs} allocations in {STREAMS} streams of \
                 {STREAM_CHUNKS} chunks, {off} off its budget of {per_chunk} per chunk and \
                 {per_stream} per stream"
            ));
        }
        client.shutdown();
        server.shutdown();
    }
    assert!(wrong.is_empty(), "{}", wrong.join("; "));
}
