//! Leader/Followers over one epoll set: the reactor engine's threads
//! (Schmidt, O'Ryan, Pyarali, Kircher and Buschmann, PLoP 2000).
//!
//! A server on the reactor engine registers its listener, every accepted
//! connection and one eventfd in a single [`EventSet`], each with
//! `EPOLLONESHOT`, and a fixed number of threads wait in `epoll_wait` on
//! it at once, taking one event per wait. The kernel hands each ready fd
//! to one waiter and then disarms it, so whoever takes a connection's
//! event owns its read side until it re-arms the fd with `EPOLL_CTL_MOD`
//! ([`EventSet::rearm`]); no token passes between the threads in user
//! space. Every path that lets go of an fd re-arms it: that is the
//! engine's one invariant. The eventfd ([`WAKE`]) announces queued work;
//! the thread that takes it re-arms it before running what it took.
//!
//! A periodic duty (the server's idle/stall sweep) runs from the wait
//! timeout: the first waiter that finds it due claims it with a CAS, so it
//! needs no thread or timer list of its own.

use epoll_shim::{Epoll, Event, EventFd};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub(crate) use epoll_shim::{EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLONESHOT, EPOLLOUT, EPOLLRDHUP};

/// The token of the set's eventfd; [`EventSet::token`] hands out the rest.
pub(crate) const WAKE: u64 = 0;

/// What the threads of one set serve.
pub(crate) trait Handler: Send + Sync {
    /// An event on `token`, which stays disarmed until re-armed.
    fn ready(&self, token: u64, events: u32);
    /// The eventfd fired (already re-armed): queued work to take.
    fn woken(&self);
    /// The periodic duty, when due.
    fn tick(&self);
}

/// One epoll set, its eventfd, and the periodic duty's clock.
pub(crate) struct EventSet {
    epoll: Epoll,
    wake: EventFd,
    next_token: AtomicU64,
    period: Option<Duration>,
    epoch: Instant,
    /// When the duty is next due, in nanoseconds since `epoch`.
    due: AtomicU64,
    stopping: AtomicBool,
}

impl EventSet {
    /// A set whose duty runs every `period` (never when `None`).
    pub(crate) fn new(period: Option<Duration>) -> io::Result<EventSet> {
        let set = EventSet {
            epoll: Epoll::new()?,
            wake: EventFd::new()?,
            next_token: AtomicU64::new(WAKE + 1),
            period,
            epoch: Instant::now(),
            due: AtomicU64::new(period.map_or(u64::MAX, |p| p.as_nanos() as u64)),
            stopping: AtomicBool::new(false),
        };
        set.epoll.add(set.wake.raw_fd(), EPOLLIN | EPOLLONESHOT, WAKE)?;
        Ok(set)
    }

    /// A fresh token, handed out before registration so a connection's
    /// writer knows it first.
    pub(crate) fn token(&self) -> u64 {
        self.next_token.fetch_add(1, Ordering::Relaxed)
    }

    /// Registers `fd`, armed for one event of `interest`.
    pub(crate) fn add(&self, fd: i32, token: u64, interest: u32) -> io::Result<()> {
        self.epoll.add(fd, interest | EPOLLONESHOT, token)
    }

    /// Re-arms `fd` for one event of `interest`. A deregistered fd is
    /// ignored.
    pub(crate) fn rearm(&self, fd: i32, token: u64, interest: u32) {
        let _ = self.epoll.modify(fd, interest | EPOLLONESHOT, token);
    }

    /// Deregisters `fd`.
    pub(crate) fn remove(&self, fd: i32) {
        let _ = self.epoll.del(fd);
    }

    /// Has one waiter take [`Handler::woken`].
    pub(crate) fn wake(&self) {
        self.wake.signal();
    }

    /// Has every thread leave once it is back in the wait.
    pub(crate) fn stop(&self) {
        self.stopping.store(true, Ordering::SeqCst);
        self.wake.signal();
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// How long a waiter may wait, in whole milliseconds rounded up.
    fn timeout_ms(&self) -> i32 {
        let due = self.due.load(Ordering::Relaxed);
        if due == u64::MAX {
            return -1;
        }
        let ms = due.saturating_sub(self.now()).div_ceil(1_000_000);
        ms.min(i32::MAX as u64) as i32
    }

    /// Whether this thread claimed a due duty. Its next run is scheduled
    /// from now, so a set stalled past several periods runs it once.
    fn claim_tick(&self) -> bool {
        let (due, now) = (self.due.load(Ordering::Relaxed), self.now());
        let Some(period) = self.period.filter(|_| now >= due) else { return false };
        let next = now + period.as_nanos() as u64;
        self.due.compare_exchange(due, next, Ordering::SeqCst, Ordering::Relaxed).is_ok()
    }
}

/// Starts `threads` threads named `name`, each leading and following on
/// `set` for `handler` until [`EventSet::stop`], and returns once all of
/// them run (a thread takes its name as it starts). They are detached:
/// the handler decides when the set stops.
pub(crate) fn spawn(
    name: &str,
    threads: usize,
    set: &Arc<EventSet>,
    handler: Arc<dyn Handler>,
) -> io::Result<()> {
    let (up, running) = std::sync::mpsc::channel();
    for _ in 0..threads {
        let (set, handler, up) = (Arc::clone(set), Arc::clone(&handler), up.clone());
        std::thread::Builder::new().name(name.to_owned()).spawn(move || {
            let _ = up.send(());
            drop(up);
            lead(&set, &*handler);
        })?;
    }
    drop(up);
    while running.recv().is_ok() {}
    Ok(())
}

fn lead(set: &EventSet, handler: &dyn Handler) {
    let mut events = [Event::default(); 1];
    let wake = |set: &EventSet| set.epoll.modify(set.wake.raw_fd(), EPOLLIN | EPOLLONESHOT, WAKE);
    loop {
        let Ok(n) = set.epoll.wait(&mut events, set.timeout_ms()) else { return };
        if set.claim_tick() {
            handler.tick();
        }
        // Copy out of the (packed) event before taking references.
        let (token, ready) = (events[0].data, events[0].events);
        match (n, token) {
            (0, _) => {}
            (_, WAKE) => {
                set.wake.drain();
                if set.stopping.load(Ordering::SeqCst) {
                    // Pass the stop on to the next waiter.
                    set.wake.signal();
                    let _ = wake(set);
                    return;
                }
                let _ = wake(set);
                handler.woken();
            }
            _ => handler.ready(token, ready),
        }
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::sync::mpsc;
    use std::sync::Mutex;

    /// Records who took each event, and re-arms only when told to.
    struct Recorder {
        set: Arc<EventSet>,
        fd: i32,
        rearm: AtomicBool,
        events: Mutex<mpsc::Sender<(u64, std::thread::ThreadId)>>,
    }

    impl Handler for Recorder {
        fn ready(&self, token: u64, _events: u32) {
            let _ = self.events.lock().unwrap().send((token, std::thread::current().id()));
            if self.rearm.load(Ordering::SeqCst) {
                self.set.rearm(self.fd, token, EPOLLIN);
            }
        }
        fn woken(&self) {
            let _ = self.events.lock().unwrap().send((WAKE, std::thread::current().id()));
        }
        fn tick(&self) {
            let _ = self.events.lock().unwrap().send((u64::MAX, std::thread::current().id()));
        }
    }

    /// A readable fd that nobody drains is reported once per arming, to
    /// one thread, however many wait; wakes and the periodic duty reach
    /// the threads too, and a stop ends all of them.
    #[test]
    fn one_event_per_arming_and_stop_ends_every_thread() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let set = Arc::new(EventSet::new(Some(Duration::from_millis(20))).unwrap());
        let (tx, rx) = mpsc::channel();
        let fd = listener.as_raw_fd();
        let recorder = Arc::new(Recorder {
            set: Arc::clone(&set),
            fd,
            rearm: AtomicBool::new(false),
            events: Mutex::new(tx),
        });
        let token = set.token();
        spawn("test-leaders", 3, &set, Arc::clone(&recorder) as Arc<dyn Handler>).unwrap();
        set.add(fd, token, EPOLLIN).unwrap();
        let next = || rx.recv_timeout(Duration::from_secs(2)).unwrap().0;
        let mut got = Vec::new();
        while got.iter().filter(|&&t| t == u64::MAX).count() < 3 {
            got.push(next());
        }
        assert_eq!(got.iter().filter(|&&t| t == token).count(), 1, "one event per arming");
        recorder.rearm.store(true, Ordering::SeqCst);
        set.rearm(fd, token, EPOLLIN);
        while next() != token {}
        set.wake();
        while next() != WAKE {}
        set.stop();
        // Every thread gone: the recorder's sender is the last reference.
        let deadline = Instant::now() + Duration::from_secs(2);
        while Arc::strong_count(&recorder) > 1 {
            assert!(Instant::now() < deadline, "a thread outlived the stop");
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}
