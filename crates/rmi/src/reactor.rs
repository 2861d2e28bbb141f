//! The epoll readiness loop that replaces thread-per-connection I/O.
//!
//! One reactor thread owns an epoll instance and every socket registered
//! with it: the server's listener, every accepted connection's read half,
//! and (on the process-wide client reactor) every pooled connection's
//! demultiplexer. Sources are level-triggered drivers of the same
//! connection state machines the blocking threads drive — each readiness
//! event drains the socket (until a short read or `EWOULDBLOCK`) through
//! `ObjectCommunicator::try_recv`, the nonblocking twin of the `recv` a
//! blocking reader calls, so wire behavior is byte-identical between the
//! two modes.
//!
//! Cross-thread control (registering a freshly accepted source, arming
//! `EPOLLOUT` for a queued reply, cancelling a timer, shutdown) goes
//! through a command queue plus an `eventfd` wakeup; the loop drains the
//! queue at the top of every iteration. Timers are an unsorted `Vec`
//! scanned for its earliest deadline to set the `epoll_wait` timeout: the
//! timer load is at most one idle/write-stall sweep per server plus one
//! heartbeat probe per ORB, so a scan of a handful beats any ordered
//! structure — and those run on the loop instead of dedicated threads.

use epoll_shim::{Epoll, Event, EventFd};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

pub(crate) use epoll_shim::{EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

/// Token reserved for the wakeup eventfd; source tokens start above it.
const WAKE_TOKEN: u64 = 0;

/// What a [`Source`] wants after handling a readiness event.
pub(crate) enum Action {
    /// Leave the registration as it is.
    Keep,
    /// Re-register with this interest mask (used to arm or clear
    /// `EPOLLOUT` around a pending write queue).
    Rearm(u32),
    /// Deregister and drop the source (EOF, error, or done).
    Drop,
}

/// A registered file descriptor plus the state machine behind it.
pub(crate) trait Source: Send {
    /// The fd to register with epoll. Must stay valid (and owned by the
    /// source) for the source's whole registered lifetime.
    fn fd(&self) -> i32;

    /// Handles a readiness event. Runs on the reactor thread; must not
    /// block.
    fn on_ready(&mut self, events: u32, reactor: &ReactorHandle) -> Action;
}

type TimerCallback = Box<dyn FnMut(&ReactorHandle) + Send>;

enum Command {
    Register {
        token: u64,
        interest: u32,
        source: Box<dyn Source>,
    },
    Rearm {
        token: u64,
        interest: u32,
    },
    Close {
        token: u64,
    },
    AddTimer {
        id: u64,
        period: Duration,
        cb: TimerCallback,
    },
    CancelTimer {
        id: u64,
    },
    /// Exit once every registered source is gone (listener closed, the
    /// server is winding down but established connections may finish).
    Retire,
    /// Exit now, dropping every source. Production paths prefer `Retire`
    /// so established connections finish; tests use this for teardown.
    #[allow(dead_code)]
    Shutdown,
}

struct ReactorShared {
    queue: Mutex<Vec<Command>>,
    wake: EventFd,
    next_id: AtomicU64,
    live: AtomicBool,
}

/// Cheap cloneable handle for queueing commands to a reactor from any
/// thread (including from source callbacks on the loop itself).
#[derive(Clone)]
pub(crate) struct ReactorHandle {
    shared: Arc<ReactorShared>,
}

impl ReactorHandle {
    fn push(&self, cmd: Command) {
        self.shared.queue.lock().push(cmd);
        self.shared.wake.signal();
    }

    /// Allocates a fresh id usable as a source token or timer id. Handing
    /// the id out *before* registration lets a connection's writer learn
    /// its token before the read source is registered.
    pub(crate) fn alloc_id(&self) -> u64 {
        self.shared.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Registers `source` under a pre-allocated token (see
    /// [`ReactorHandle::alloc_id`]).
    pub(crate) fn register(&self, token: u64, interest: u32, source: Box<dyn Source>) {
        self.push(Command::Register { token, interest, source });
    }

    /// Changes a registered source's interest mask. Unknown tokens (a
    /// source that already dropped) are ignored.
    pub(crate) fn rearm(&self, token: u64, interest: u32) {
        self.push(Command::Rearm { token, interest });
    }

    /// Deregisters and drops a source.
    pub(crate) fn close(&self, token: u64) {
        self.push(Command::Close { token });
    }

    /// Adds a periodic timer under a pre-allocated id; `cb` runs on the
    /// reactor thread every `period` until cancelled.
    pub(crate) fn add_timer(&self, id: u64, period: Duration, cb: TimerCallback) {
        self.push(Command::AddTimer { id, period, cb });
    }

    /// Cancels a timer (dropping its callback, and with it anything the
    /// callback owns).
    pub(crate) fn cancel_timer(&self, id: u64) {
        self.push(Command::CancelTimer { id });
    }

    /// Asks the loop to exit once its last source deregisters. Periodic
    /// timers keep running until then but do not keep the loop alive.
    pub(crate) fn retire(&self) {
        self.push(Command::Retire);
    }

    /// Asks the loop to exit now, dropping every source and timer.
    /// Production paths prefer [`ReactorHandle::retire`]; tests use this.
    #[allow(dead_code)]
    pub(crate) fn shutdown(&self) {
        self.push(Command::Shutdown);
    }

    /// Whether the loop is still running (false once it has exited).
    pub(crate) fn is_live(&self) -> bool {
        self.shared.live.load(Ordering::SeqCst)
    }
}

/// Spawns a reactor thread named `name`. The thread is detached: its
/// lifetime is governed by [`ReactorHandle::retire`] /
/// [`ReactorHandle::shutdown`], mirroring how the blocking transport's
/// per-connection threads outlive the handles that spawned them.
pub(crate) fn spawn(name: &str) -> io::Result<ReactorHandle> {
    let epoll = Epoll::new()?;
    let shared = Arc::new(ReactorShared {
        queue: Mutex::new(Vec::new()),
        wake: EventFd::new()?,
        next_id: AtomicU64::new(WAKE_TOKEN + 1),
        live: AtomicBool::new(true),
    });
    epoll.add(shared.wake.raw_fd(), EPOLLIN, WAKE_TOKEN)?;
    let handle = ReactorHandle { shared };
    let thread_handle = handle.clone();
    std::thread::Builder::new().name(name.to_owned()).spawn(move || run(epoll, thread_handle))?;
    Ok(handle)
}

/// The process-wide client reactor: drives every pooled client
/// connection's demultiplexer and the heartbeat timers when the ORB runs
/// in reactor mode. Spawned on first use, never retired — one thread per
/// process regardless of how many ORBs come and go. `None` when the
/// target has no epoll (callers then read their own replies).
pub(crate) fn client_reactor() -> Option<ReactorHandle> {
    static CLIENT: OnceLock<Option<ReactorHandle>> = OnceLock::new();
    CLIENT.get_or_init(|| spawn("heidl-reactor-client").ok()).clone()
}

struct Timer {
    id: u64,
    period: Duration,
    next: Instant,
    cb: TimerCallback,
}

fn run(epoll: Epoll, handle: ReactorHandle) {
    let mut sources: HashMap<u64, Box<dyn Source>> = HashMap::new();
    let mut timers: Vec<Timer> = Vec::new();
    let mut events = [Event::default(); 256];
    let mut retiring = false;
    'outer: loop {
        let commands = std::mem::take(&mut *handle.shared.queue.lock());
        for cmd in commands {
            match cmd {
                Command::Register { token, interest, source } => {
                    if epoll.add(source.fd(), interest, token).is_ok() {
                        sources.insert(token, source);
                    }
                    // On failure the source drops here, closing its fd.
                }
                Command::Rearm { token, interest } => {
                    if let Some(source) = sources.get(&token) {
                        let _ = epoll.modify(source.fd(), interest, token);
                    }
                }
                Command::Close { token } => {
                    if let Some(source) = sources.remove(&token) {
                        let _ = epoll.del(source.fd());
                    }
                }
                Command::AddTimer { id, period, cb } => {
                    timers.push(Timer { id, period, next: Instant::now() + period, cb });
                }
                Command::CancelTimer { id } => timers.retain(|t| t.id != id),
                Command::Retire => retiring = true,
                Command::Shutdown => break 'outer,
            }
        }
        if retiring && sources.is_empty() {
            break;
        }
        let timeout_ms = match timers.iter().map(|t| t.next).min() {
            None => -1,
            Some(next) => {
                let until = next.saturating_duration_since(Instant::now());
                // Round up so a timer never fires a loop iteration early.
                until.as_millis().min(i32::MAX as u128) as i32 + i32::from(!until.is_zero())
            }
        };
        let n = match epoll.wait(&mut events, timeout_ms) {
            Ok(n) => n,
            Err(_) => break,
        };
        for event in &events[..n] {
            // Copy out of the (packed) event before taking references.
            let token = event.data;
            let readiness = event.events;
            if token == WAKE_TOKEN {
                handle.shared.wake.drain();
                continue;
            }
            let Some(source) = sources.get_mut(&token) else { continue };
            match source.on_ready(readiness, &handle) {
                Action::Keep => {}
                Action::Rearm(interest) => {
                    let _ = epoll.modify(source.fd(), interest, token);
                }
                Action::Drop => {
                    let _ = epoll.del(source.fd());
                    sources.remove(&token);
                }
            }
        }
        if !timers.is_empty() {
            let now = Instant::now();
            // Callbacks can only touch the timer list via queued commands
            // (AddTimer/CancelTimer), so iterating in place is safe.
            for timer in &mut timers {
                if now >= timer.next {
                    // Schedule from *now*, not from the missed deadline: a
                    // loop stalled past several periods fires once, not in
                    // a burst.
                    timer.next = now + timer.period;
                    let mut cb = std::mem::replace(&mut timer.cb, Box::new(|_| {}));
                    cb(&handle);
                    timer.cb = cb;
                }
            }
            // A callback may have cancelled timers (including itself);
            // apply those commands on the next iteration.
        }
    }
    handle.shared.live.store(false, Ordering::SeqCst);
    drop(sources);
    drop(timers);
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::sync::mpsc;

    /// Reads everything available and forwards it to an mpsc channel.
    struct ChannelSource {
        stream: TcpStream,
        tx: mpsc::Sender<Vec<u8>>,
    }

    impl Source for ChannelSource {
        fn fd(&self) -> i32 {
            self.stream.as_raw_fd()
        }

        fn on_ready(&mut self, _events: u32, _reactor: &ReactorHandle) -> Action {
            let mut buf = Vec::new();
            loop {
                let mut chunk = [0u8; 1024];
                match epoll_shim::recv_nonblocking(self.stream.as_raw_fd(), &mut chunk) {
                    Ok(Some(0)) => {
                        if !buf.is_empty() {
                            let _ = self.tx.send(buf);
                        }
                        return Action::Drop;
                    }
                    Ok(Some(n)) => buf.extend_from_slice(&chunk[..n]),
                    Ok(None) => break,
                    Err(_) => return Action::Drop,
                }
            }
            if !buf.is_empty() {
                let _ = self.tx.send(buf);
            }
            Action::Keep
        }
    }

    #[test]
    fn source_receives_bytes_and_drops_on_eof() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();

        let reactor = spawn("test-reactor").unwrap();
        let (tx, rx) = mpsc::channel();
        let token = reactor.alloc_id();
        reactor.register(
            token,
            EPOLLIN | EPOLLRDHUP,
            Box::new(ChannelSource { stream: server, tx }),
        );

        client.write_all(b"hello reactor").unwrap();
        let got = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(got, b"hello reactor");

        drop(client); // EOF → source drops; retire → loop exits.
        reactor.retire();
        for _ in 0..200 {
            if !reactor.is_live() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(!reactor.is_live());
    }

    #[test]
    fn timer_fires_periodically_until_cancelled() {
        let reactor = spawn("test-timer").unwrap();
        let (tx, rx) = mpsc::channel();
        let id = reactor.alloc_id();
        reactor.add_timer(
            id,
            Duration::from_millis(10),
            Box::new(move |_| {
                let _ = tx.send(());
            }),
        );
        rx.recv_timeout(Duration::from_secs(2)).unwrap();
        rx.recv_timeout(Duration::from_secs(2)).unwrap();
        reactor.cancel_timer(id);
        // After cancellation the sender drops with the callback, so the
        // channel reports disconnect (possibly after in-flight ticks).
        while rx.recv_timeout(Duration::from_millis(500)).is_ok() {}
        reactor.shutdown();
    }

    #[test]
    fn shutdown_drops_sources_immediately() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        let reactor = spawn("test-shutdown").unwrap();
        let (tx, rx) = mpsc::channel();
        let token = reactor.alloc_id();
        let fd = server.as_raw_fd();
        // Keep `server` owned here; the source only borrows the fd value,
        // and the reactor exits before `server` drops.
        struct BorrowedFd(i32, mpsc::Sender<()>);
        impl Source for BorrowedFd {
            fn fd(&self) -> i32 {
                self.0
            }
            fn on_ready(&mut self, _e: u32, _r: &ReactorHandle) -> Action {
                Action::Keep
            }
        }
        impl Drop for BorrowedFd {
            fn drop(&mut self) {
                let _ = self.1.send(());
            }
        }
        reactor.register(token, EPOLLIN, Box::new(BorrowedFd(fd, tx)));
        reactor.shutdown();
        rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert!(!reactor.is_live());
        drop((client, server));
    }
}
