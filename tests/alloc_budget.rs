//! The exact allocation budget of one echo call, client and server
//! together, over each wire protocol on each connection driver, with
//! tracing off. The test binary's global allocator counts every heap
//! allocation in the process (the server is in-process), so a change that
//! adds one allocation per call anywhere on the path fails here.
//!
//! The budgets are exact, not ceilings: a change that removes an
//! allocation lowers its row in the same change. A few allocations in a
//! run depend on thread timing (a racing wake, a queue growing once), so
//! the count is the whole number of allocations per call, and the
//! remainder must stay under a small fixed number. The heartbeat rows run
//! a client heartbeat probe beside the calls: a busy connection is never
//! pinged, so each of the probe's scans must allocate nothing, and one
//! allocation per scan would break the remainder rule.

use heidl::rmi::{
    DispatchKind, DispatchOutcome, Orb, RmiResult, Skeleton, SkeletonBase, TransportMode,
};
use heidl::wire::{CdrProtocol, Decoder, Encoder, Protocol, TextProtocol};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---- counting allocator -----------------------------------------------------

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every allocation and reallocation.
struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

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
/// Allocations a run may make beyond its exact budget. Thread timing
/// accounts for up to six; one more allocation per heartbeat tick would
/// make about forty.
const STRAY: u64 = 15;

/// Echoes of a 96-byte string, at least [`CALLS`] of them over at least
/// [`SPAN`], with client heartbeats every `heartbeat` when set: returns
/// the allocations they made and how many there were.
fn allocs_for_echoes(
    protocol: Arc<dyn Protocol>,
    mode: TransportMode,
    heartbeat: Option<Duration>,
) -> (u64, u64) {
    let builder = Orb::builder().protocol(protocol).transport_mode(mode);
    let orb = match heartbeat {
        Some(interval) => builder.heartbeat(interval),
        None => builder,
    }
    .build();
    orb.serve("127.0.0.1:0").unwrap();
    let base = SkeletonBase::new("IDL:Bench/Echo:1.0", DispatchKind::Hash, ["echo"], vec![]);
    let objref = orb.export(Arc::new(EchoSkel { base })).unwrap();
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
    let before = ALLOCS.load(Ordering::Relaxed);
    let started = Instant::now();
    let mut calls = 0;
    while calls < CALLS || started.elapsed() < SPAN {
        echo();
        calls += 1;
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    orb.shutdown();
    (allocs, calls)
}

/// One test, so no other test's allocations land in the count.
#[test]
fn echo_allocations_per_call_are_exact() {
    let mut wrong = Vec::new();
    for heartbeat in [None, Some(HEARTBEAT)] {
        let rows: [(&str, Arc<dyn Protocol>, TransportMode, u64); 4] = [
            ("text threaded", Arc::new(TextProtocol), TransportMode::Threaded, 27),
            ("cdr threaded", Arc::new(CdrProtocol), TransportMode::Threaded, 27),
            ("text reactor", Arc::new(TextProtocol), TransportMode::Reactor, 28),
            ("cdr reactor", Arc::new(CdrProtocol), TransportMode::Reactor, 28),
        ];
        for (name, protocol, mode, budget) in rows {
            let (allocs, calls) = allocs_for_echoes(protocol, mode, heartbeat);
            let (per_call, stray) = (allocs / calls, allocs % calls);
            if per_call != budget || stray > STRAY {
                let beat = if heartbeat.is_some() { " heartbeat" } else { "" };
                wrong.push(format!(
                    "{name}{beat}: {per_call} allocations per call and {stray} more in {calls} \
                     calls, budget {budget}"
                ));
            }
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("; "));
}
