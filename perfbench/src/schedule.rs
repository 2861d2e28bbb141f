//! The open-loop side of the benchmark: a seeded arrival schedule and a
//! generator loop that charges every call from the time it was *due*, so a
//! stall delays — and is billed to — every arrival queued behind it.

use crate::rng::Rng;
use std::time::{Duration, Instant};

/// The operation kinds of the `mix_open` traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Two-way string echo (70%).
    Echo,
    /// `@cached(200 ms)` read of one of sixteen keys (10%).
    Read,
    /// `@exactly_once` purchase (10%).
    Purchase,
    /// Oneway notification (10%).
    Oneway,
}

/// One scheduled call: when it is due, what it is, and a seeded pick that
/// selects its payload or key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    pub at_ns: u64,
    pub op: Op,
    pub pick: u32,
}

/// Draws one call of the 70/10/10/10 mix, due at `at_ns`.
pub fn draw(rng: &mut Rng, at_ns: u64) -> Arrival {
    let op = match rng.below(10) {
        0..=6 => Op::Echo,
        7 => Op::Read,
        8 => Op::Purchase,
        _ => Op::Oneway,
    };
    Arrival { at_ns, op, pick: rng.next_u64() as u32 }
}

/// A Poisson arrival process at `rate_per_s` over `[start_ns, start_ns +
/// duration_ns)`, dealt round-robin to `threads` generator threads; each
/// thread owns its slice.
pub fn arrivals(
    rng: &mut Rng,
    rate_per_s: f64,
    start_ns: u64,
    duration_ns: u64,
    threads: usize,
) -> Vec<Vec<Arrival>> {
    let mut slices = vec![Vec::new(); threads.max(1)];
    let mean_gap_ns = 1e9 / rate_per_s;
    let mut t = start_ns as f64;
    let mut i = 0usize;
    loop {
        t += rng.exp(mean_gap_ns);
        if t >= (start_ns + duration_ns) as f64 {
            return slices;
        }
        slices[i % threads.max(1)].push(draw(rng, t as u64));
        i += 1;
    }
}

/// Time as the generator sees it; a fake in tests injects stalls.
pub trait Clock {
    fn now_ns(&self) -> u64;
    /// Returns once `now_ns() >= t_ns` (immediately when already past).
    fn wait_until(&self, t_ns: u64);
}

/// Monotonic wall time since `epoch`.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    pub epoch: Instant,
}

/// `thread::sleep` overshoots by about the kernel's timer slack: sleep up to
/// this far short of the target and yield the rest. Yielding, not spinning:
/// the servers share the generator's CPU, and a spin would hold them off
/// exactly when the previous call's reply is being written.
const YIELD_NS: u64 = 80_000;

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn wait_until(&self, t_ns: u64) {
        loop {
            let now = self.now_ns();
            if now >= t_ns {
                return;
            }
            if t_ns - now > YIELD_NS {
                std::thread::sleep(Duration::from_nanos(t_ns - now - YIELD_NS));
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// What happened to one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    pub op: Op,
    pub intended_ns: u64,
    pub started_ns: u64,
    pub done_ns: u64,
    pub ok: bool,
}

impl Outcome {
    /// Latency from the *intended* send time: queueing behind a stalled
    /// generator counts, exactly as it would for an independent user.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns - self.intended_ns
    }

    /// How far behind schedule the generator was when it started the call.
    pub fn late_by_ns(&self) -> u64 {
        self.started_ns - self.intended_ns
    }
}

/// Runs one generator thread's slice: waits for each arrival's due time
/// (never skipping one — a late generator catches up back to back), issues
/// the blocking call, and records the three timestamps.
pub fn drive(
    clock: &impl Clock,
    slice: &[Arrival],
    mut issue: impl FnMut(&Arrival) -> bool,
) -> Vec<Outcome> {
    let mut out = Vec::with_capacity(slice.len());
    for arrival in slice {
        clock.wait_until(arrival.at_ns);
        let started_ns = clock.now_ns();
        let ok = issue(arrival);
        let done_ns = clock.now_ns();
        out.push(Outcome { op: arrival.op, intended_ns: arrival.at_ns, started_ns, done_ns, ok });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn flat(slices: &[Vec<Arrival>]) -> Vec<Arrival> {
        let mut all: Vec<Arrival> = slices.iter().flatten().copied().collect();
        all.sort_by_key(|a| a.at_ns);
        all
    }

    #[test]
    fn equal_seeds_give_equal_schedules_and_different_seeds_differ() {
        let make = |seed| arrivals(&mut Rng::new(seed), 5_000.0, 1_000, 1_000_000_000, 3);
        assert_eq!(make(11), make(11));
        assert_ne!(make(11), make(12));
    }

    #[test]
    fn schedule_has_the_requested_rate_mix_and_split() {
        let slices = arrivals(&mut Rng::new(5), 20_000.0, 0, 2_000_000_000, 4);
        let all = flat(&slices);
        assert!((all.len() as f64 - 40_000.0).abs() < 1_000.0, "{} arrivals", all.len());
        assert!(all.iter().all(|a| a.at_ns < 2_000_000_000));
        for s in &slices {
            assert!((s.len() as f64 - 10_000.0).abs() < 300.0);
            assert!(s.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        }
        let share = |op| all.iter().filter(|a| a.op == op).count() as f64 / all.len() as f64;
        assert!((share(Op::Echo) - 0.7).abs() < 0.02);
        for op in [Op::Read, Op::Purchase, Op::Oneway] {
            assert!((share(op) - 0.1).abs() < 0.01);
        }
    }

    struct FakeClock(Cell<u64>);

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn wait_until(&self, t_ns: u64) {
            self.0.set(self.0.get().max(t_ns));
        }
    }

    #[test]
    fn a_stall_is_charged_to_every_arrival_queued_behind_it() {
        // Due every 100 ns, service 10 ns, but the second call stalls 350 ns.
        let slice: Vec<Arrival> =
            (0..6).map(|i| Arrival { at_ns: 100 * (i + 1), op: Op::Echo, pick: 0 }).collect();
        let clock = FakeClock(Cell::new(0));
        let out = drive(&clock, &slice, |a| {
            let service = if a.at_ns == 200 { 350 } else { 10 };
            clock.0.set(clock.0.get() + service);
            true
        });
        let lat: Vec<u64> = out.iter().map(Outcome::latency_ns).collect();
        // Call 2 ends at 550; calls 3..5 were due at 300, 400, 500 and run
        // back to back at 550, 560, 570; call 6 (due 600) is on time again.
        assert_eq!(lat, [10, 350, 260, 170, 80, 10]);
        let late: Vec<u64> = out.iter().map(Outcome::late_by_ns).collect();
        assert_eq!(late, [0, 0, 250, 160, 70, 0]);
        // Measuring from the actual start would have hidden the stall.
        assert!(out.iter().skip(2).all(|o| o.done_ns - o.started_ns == 10));
    }
}
