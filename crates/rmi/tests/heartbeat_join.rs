//! Regression: the heartbeat scan thread is *joined* — never abandoned —
//! when its ORB shuts down or is dropped, and the join completes within
//! the drain timeout even when the heartbeat interval is hours long (the
//! stop signal interrupts the sleep; the join does not wait out a tick).
//!
//! The same holds for a threaded server's overrun watcher
//! (`heidl-lend-{port}`): stopping the server, or a router, joins it.
//!
//! A client spawns no thread per pooled connection on either driver: its
//! callers read their own replies.
//!
//! These assertions count process-global things (the
//! [`live_heartbeat_threads`] gauge, the watcher threads), so they live in
//! their own test binary, one sequential test for each: parallel tests
//! elsewhere that build heartbeat ORBs or servers would make exact counts
//! racy.

use heidl_rmi::{
    live_heartbeat_threads, DispatchKind, DispatchOutcome, Orb, RmiResult, Router, ServerPolicy,
    SharedBackends, Skeleton, SkeletonBase, TransportMode,
};
use heidl_wire::{Decoder, Encoder};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The spawned thread bumps the gauge from inside its own stack frame, so
/// right after `build()` the count may still be catching up — wait for
/// the increment. (Decrements need no such grace: a join returning
/// guarantees the thread, and its RAII guard, are gone.)
fn wait_for_spawn(expected: usize) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while live_heartbeat_threads() != expected {
        assert!(
            Instant::now() < deadline,
            "scan thread never started: gauge stuck at {}",
            live_heartbeat_threads()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn heartbeat_threads_join_on_shutdown_and_on_drop() {
    assert_eq!(live_heartbeat_threads(), 0, "fresh process: no scan threads yet");

    // Explicit shutdown joins the thread, fast, despite a 1-hour interval.
    let client = Orb::builder().heartbeat(Duration::from_secs(3600)).build();
    wait_for_spawn(1);
    let started = Instant::now();
    client.shutdown();
    assert_eq!(
        live_heartbeat_threads(),
        0,
        "shutdown() must join the heartbeat thread, not abandon it"
    );
    assert!(
        started.elapsed() < ServerPolicy::default().drain_timeout,
        "join took {:?}, longer than the drain timeout, despite the stop signal",
        started.elapsed()
    );

    // Shutdown is idempotent about the (now absent) thread.
    client.shutdown();
    assert_eq!(live_heartbeat_threads(), 0);

    // Dropping the last handle without an explicit shutdown also joins —
    // no thread may outlive its ORB.
    let dropped = Orb::builder().heartbeat(Duration::from_secs(3600)).build();
    wait_for_spawn(1);
    drop(dropped);
    assert_eq!(live_heartbeat_threads(), 0, "drop must join the heartbeat thread");

    // A shutdown-then-drain ORB (the graceful server path) joins too.
    let drained = Orb::builder().heartbeat(Duration::from_millis(50)).build();
    wait_for_spawn(1);
    drained.shutdown_and_drain();
    assert_eq!(live_heartbeat_threads(), 0, "shutdown_and_drain must join the heartbeat thread");
}

/// Live threads of this process whose name starts with `prefix`.
fn threads_named(prefix: &str) -> usize {
    let tasks = std::fs::read_dir("/proc/self/task").expect("Linux /proc");
    let names =
        tasks.filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok());
    names.filter(|name| name.starts_with(prefix)).count()
}

/// Waits until this process has `expected` live overrun-watcher threads,
/// counted by name. A new thread names itself once it runs, and a joined
/// thread's `/proc` entry can outlive the join by a moment; a watcher that
/// was never stopped stays, and fails the wait.
fn wait_for_lend_watchers(expected: usize, why: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let live = threads_named("heidl-lend");
        if live == expected {
            return;
        }
        assert!(Instant::now() < deadline, "{why}: {live} watcher threads, expected {expected}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn lend_watcher_is_joined_by_shutdown_and_by_drain() {
    for drain in [false, true] {
        let server = Orb::builder().transport_mode(TransportMode::Threaded).build();
        server.serve("127.0.0.1:0").unwrap();
        wait_for_lend_watchers(1, "a threaded server runs one watcher");
        if drain {
            assert!(server.shutdown_and_drain());
        } else {
            server.shutdown();
        }
        wait_for_lend_watchers(0, "stopping the server must stop its watcher");
    }
    // A router is a server on the driver `HEIDL_TRANSPORT` selects.
    let router = Router::builder(Arc::new(SharedBackends::new())).start("127.0.0.1:0").unwrap();
    let watchers = usize::from(TransportMode::from_env() == TransportMode::Threaded);
    wait_for_lend_watchers(watchers, "a threaded router runs one watcher, a reactor none");
    router.shutdown();
    wait_for_lend_watchers(0, "stopping the router must stop its watcher");
}

/// `long hold(in long x)`: returns `x` once the test opens the gate.
struct Hold {
    base: SkeletonBase,
    open: Arc<(Mutex<bool>, Condvar)>,
}

impl Skeleton for Hold {
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
                let x = args.get_long()?;
                let (open, cv) = &*self.open;
                let mut open = open.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
                reply.put_long(x);
                Ok(DispatchOutcome::Handled)
            }
            _ => self.base.dispatch_parents(method, args, reply),
        }
    }
}

#[test]
fn client_connections_spawn_no_reader_threads() {
    const CALLERS: usize = 4;
    // A reactor server runs no overrun watcher for the test beside this
    // one to count.
    let server = Orb::builder().transport_mode(TransportMode::Reactor).build();
    server.serve("127.0.0.1:0").unwrap();
    let open = Arc::new((Mutex::new(false), Condvar::new()));
    let base = SkeletonBase::new("IDL:Test/Hold:1.0", DispatchKind::Hash, ["hold"], vec![]);
    let objref = server.export(Arc::new(Hold { base, open: Arc::clone(&open) })).unwrap();
    for mode in [TransportMode::Threaded, TransportMode::Reactor] {
        *open.0.lock().unwrap() = false;
        let client = Orb::builder().transport_mode(mode).build();
        client.connections().set_max_connections_per_endpoint(CALLERS);
        let callers: Vec<_> = (0..CALLERS as i32)
            .map(|x| {
                let (client, objref) = (client.clone(), objref.clone());
                std::thread::spawn(move || {
                    let mut call = client.call(&objref, "hold");
                    call.args().put_long(x);
                    let got = client.invoke(call).unwrap().results().get_long().unwrap();
                    assert_eq!(got, x);
                })
            })
            .collect();
        // Every caller is held in the servant, each on a connection of its own.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.server_health().unwrap().in_flight < CALLERS as u64 {
            assert!(Instant::now() < deadline, "{mode:?}: the callers never all arrived");
            std::thread::yield_now();
        }
        assert_eq!(client.connections().opened_count(), CALLERS as u64, "{mode:?}");
        assert_eq!(threads_named("heidl-demux"), 0, "{mode:?}: a reader thread per connection");
        *open.0.lock().unwrap() = true;
        open.1.notify_all();
        for caller in callers {
            caller.join().unwrap();
        }
        client.shutdown();
    }
    server.shutdown();
}
