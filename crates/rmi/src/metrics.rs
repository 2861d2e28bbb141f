//! The per-ORB metrics registry: fixed counters plus log-bucket latency
//! histograms, sharded so the hot path stays allocation-free.
//!
//! Built on the same idioms as the PR 4 hot path: plain atomics for the
//! fixed [`Counter`] set, and per-operation stats in 8 hash-sharded maps
//! guarded by `parking_lot` mutexes — a steady-state recording is a shard
//! lock, a `&str` map lookup (no allocation), and three atomic adds. The
//! only allocation is the one-time insert the first time an operation
//! name is seen.
//!
//! Per-operation detail is **pay-for-use**: the fixed counters are always
//! maintained (a single relaxed atomic add), but the shard lookup and
//! histogram recording only happen once a consumer opts in with
//! [`Metrics::set_detail`] — e.g. before sampling latency distributions
//! through `_metrics.dump` or [`Metrics::client_op`].
//!
//! Every ORB owns one [`Metrics`] (`Orb::metrics()`), which doubles as
//! the backing store for the built-in `_metrics` object (see
//! `IDL:heidl/Metrics:1.0`: `snapshot` / `reset` / `dump`) — so the same
//! numbers are readable in-process, over RMI, or by a human telnetting
//! into the text protocol.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Number of shards in each per-operation map (power of two).
const SHARDS: usize = 8;

/// Number of log₂ latency buckets: bucket *i* counts samples in
/// `[2^i, 2^(i+1))` nanoseconds, with the last bucket open-ended.
pub const HIST_BUCKETS: usize = 32;

/// The fixed counter set. Wire encodings (`_metrics.snapshot`) and JSON
/// emitters iterate [`Counter::ALL`], so the declaration order here **is**
/// the wire order — append, never reorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Two-way client calls that returned a reply (Ok or user exception).
    CallsOk,
    /// Two-way client calls that failed with an [`RmiError`](crate::RmiError).
    CallsFailed,
    /// Oneway client calls sent.
    Oneways,
    /// Extra client attempts: policy retries, failovers, and
    /// stale-connection fast-path retries.
    Retries,
    /// Circuit-breaker transitions into Open.
    BreakerOpened,
    /// Circuit-breaker transitions into Half-Open.
    BreakerHalfOpened,
    /// Circuit-breaker transitions into Closed (recoveries).
    BreakerClosed,
    /// Requests shed server-side with `Busy` (admission or drain).
    ShedRequests,
    /// Connections refused server-side at the connection cap.
    ShedConnections,
    /// Request/reply body bytes received (client and server sides).
    BytesIn,
    /// Request/reply body bytes sent (client and server sides).
    BytesOut,
    /// `@cached` client calls served from the result cache (no wire
    /// round trip; not counted in [`Counter::CallsOk`]).
    CacheHits,
    /// Retried invocation tokens answered server-side from the reply
    /// cache instead of re-executing the servant (exactly-once replays).
    DedupReplays,
    /// Reply-cache entries evicted by the byte cap or TTL before any
    /// retry claimed them.
    ReplyCacheEvictions,
    /// Client heartbeat pings sent on idle pooled connections.
    HeartbeatsSent,
    /// Tokened calls transparently replayed on a fresh connection after a
    /// mid-call transport failure (instead of surfacing `Disconnected`).
    Reconnects,
}

impl Counter {
    /// Every counter, in wire order.
    pub const ALL: [Counter; 16] = [
        Counter::CallsOk,
        Counter::CallsFailed,
        Counter::Oneways,
        Counter::Retries,
        Counter::BreakerOpened,
        Counter::BreakerHalfOpened,
        Counter::BreakerClosed,
        Counter::ShedRequests,
        Counter::ShedConnections,
        Counter::BytesIn,
        Counter::BytesOut,
        Counter::CacheHits,
        Counter::DedupReplays,
        Counter::ReplyCacheEvictions,
        Counter::HeartbeatsSent,
        Counter::Reconnects,
    ];

    /// The counter's stable snake_case name, as shown in `_metrics.dump`.
    pub fn name(self) -> &'static str {
        match self {
            Counter::CallsOk => "calls_ok",
            Counter::CallsFailed => "calls_failed",
            Counter::Oneways => "oneways",
            Counter::Retries => "retries",
            Counter::BreakerOpened => "breaker_opened",
            Counter::BreakerHalfOpened => "breaker_half_opened",
            Counter::BreakerClosed => "breaker_closed",
            Counter::ShedRequests => "shed_requests",
            Counter::ShedConnections => "shed_connections",
            Counter::BytesIn => "bytes_in",
            Counter::BytesOut => "bytes_out",
            Counter::CacheHits => "cache_hits",
            Counter::DedupReplays => "dedup_replays",
            Counter::ReplyCacheEvictions => "reply_cache_evictions",
            Counter::HeartbeatsSent => "heartbeats_sent",
            Counter::Reconnects => "reconnects",
        }
    }
}

/// A log₂-bucket latency histogram over nanoseconds. Recording is three
/// relaxed atomic adds; no locks, no allocation.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    fn bucket_index(ns: u64) -> usize {
        (ns.max(1).ilog2() as usize).min(HIST_BUCKETS - 1)
    }

    /// Records one sample.
    pub fn record_ns(&self, ns: u64) {
        self.buckets[Self::bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples, in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }

    /// The non-empty buckets as `(lower_bound_ns, count)`, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        (0..HIST_BUCKETS)
            .filter_map(|i| {
                let n = self.buckets[i].load(Ordering::Relaxed);
                (n > 0).then_some((1u64 << i, n))
            })
            .collect()
    }

    /// An upper-bound estimate of quantile `q` (0.0–1.0): the exclusive
    /// upper edge of the bucket where the cumulative count crosses
    /// `q * count`. 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for i in 0..HIST_BUCKETS {
            seen += self.buckets[i].load(Ordering::Relaxed);
            if seen >= rank {
                return 1u64 << (i + 1).min(63);
            }
        }
        0
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_ns.store(0, Ordering::Relaxed);
    }
}

/// Per-operation statistics: call/failure counts plus a latency histogram.
#[derive(Debug, Default)]
pub struct OpStats {
    /// Latency distribution for this operation.
    pub latency: Histogram,
    calls: AtomicU64,
    failures: AtomicU64,
}

impl OpStats {
    fn record(&self, ns: u64, ok: bool) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.failures.fetch_add(1, Ordering::Relaxed);
        }
        self.latency.record_ns(ns);
    }

    /// Calls recorded for this operation.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Failed calls recorded for this operation.
    pub fn failures(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }
}

/// A point-in-time copy of one operation's stats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpSnapshot {
    /// Calls recorded.
    pub calls: u64,
    /// Failed calls recorded.
    pub failures: u64,
    /// Upper-bound p50 latency estimate, nanoseconds.
    pub p50_ns: u64,
    /// Upper-bound p99 latency estimate, nanoseconds.
    pub p99_ns: u64,
    /// Non-empty latency buckets as `(lower_bound_ns, count)`.
    pub buckets: Vec<(u64, u64)>,
}

/// A point-in-time copy of a whole registry.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Counter values, indexed in [`Counter::ALL`] order.
    pub counters: [u64; Counter::ALL.len()],
    /// Client-side per-operation stats, sorted by name.
    pub client_ops: Vec<(String, OpSnapshot)>,
    /// Server-side per-operation stats, sorted by name.
    pub server_ops: Vec<(String, OpSnapshot)>,
}

impl MetricsSnapshot {
    /// The value of `counter` in this snapshot.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }
}

type OpShard = Mutex<HashMap<String, Arc<OpStats>>>;

fn shard_for(name: &str) -> usize {
    // FNV-1a: stable, allocation-free, good enough to spread method names.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    (h as usize) & (SHARDS - 1)
}

fn shard_lookup(shards: &[OpShard; SHARDS], name: &str) -> Arc<OpStats> {
    let shard = &shards[shard_for(name)];
    let mut map = shard.lock();
    if let Some(stats) = map.get(name) {
        return Arc::clone(stats);
    }
    let stats = Arc::new(OpStats::default());
    map.insert(name.to_owned(), Arc::clone(&stats));
    stats
}

fn shard_snapshot(shards: &[OpShard; SHARDS]) -> Vec<(String, OpSnapshot)> {
    let mut out = Vec::new();
    for shard in shards {
        for (name, stats) in shard.lock().iter() {
            out.push((
                name.clone(),
                OpSnapshot {
                    calls: stats.calls(),
                    failures: stats.failures(),
                    p50_ns: stats.latency.quantile_ns(0.50),
                    p99_ns: stats.latency.quantile_ns(0.99),
                    buckets: stats.latency.nonzero_buckets(),
                },
            ));
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// The registry: one per ORB, shared by the client path, the server path,
/// the breakers, and the built-in `_metrics` object.
#[derive(Debug)]
pub struct Metrics {
    counters: [AtomicU64; Counter::ALL.len()],
    detail: AtomicBool,
    client_ops: [OpShard; SHARDS],
    server_ops: [OpShard; SHARDS],
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            detail: AtomicBool::new(false),
            client_ops: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            server_ops: std::array::from_fn(|_| Mutex::new(HashMap::new())),
        }
    }
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Adds `n` to `counter`.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1 to `counter`.
    #[inline]
    pub fn inc(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Reads `counter`.
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// Whether per-operation detail (the sharded name→stats maps and
    /// latency histograms) is being recorded. Off by default: the fixed
    /// counters are always maintained, but the per-call shard lock +
    /// histogram adds are pay-for-use.
    #[inline]
    pub fn detail_enabled(&self) -> bool {
        self.detail.load(Ordering::Relaxed)
    }

    /// Turns per-operation detail recording on or off. Flipping it off
    /// keeps whatever per-op stats were already collected (snapshots and
    /// live handles stay readable); flipping it on starts recording from
    /// the next call.
    pub fn set_detail(&self, enabled: bool) {
        self.detail.store(enabled, Ordering::Relaxed);
    }

    /// Records one client-side call of `method`: end-to-end latency
    /// (including retries/failover) and outcome. The per-op histogram is
    /// only touched when [`Metrics::detail_enabled`] — the outcome
    /// counters are unconditional.
    pub fn record_client_call(&self, method: &str, ns: u64, ok: bool) {
        self.inc(if ok { Counter::CallsOk } else { Counter::CallsFailed });
        self.record_client_op(method, ns, ok);
    }

    /// The per-op half of [`Metrics::record_client_call`], for calls
    /// counted elsewhere (oneways, under [`Counter::Oneways`]).
    pub(crate) fn record_client_op(&self, method: &str, ns: u64, ok: bool) {
        if self.detail_enabled() {
            shard_lookup(&self.client_ops, method).record(ns, ok);
        }
    }

    /// Records one server-side dispatch of `method`: servant execution
    /// latency and outcome. Per-op, so entirely gated on
    /// [`Metrics::detail_enabled`].
    pub fn record_server_dispatch(&self, method: &str, ns: u64, ok: bool) {
        if self.detail_enabled() {
            shard_lookup(&self.server_ops, method).record(ns, ok);
        }
    }

    /// The live stats handle for a client-side operation, if any calls
    /// have been recorded for it.
    pub fn client_op(&self, method: &str) -> Option<Arc<OpStats>> {
        self.client_ops[shard_for(method)].lock().get(method).cloned()
    }

    /// The live stats handle for a server-side operation, if any
    /// dispatches have been recorded for it.
    pub fn server_op(&self, method: &str) -> Option<Arc<OpStats>> {
        self.server_ops[shard_for(method)].lock().get(method).cloned()
    }

    /// Copies the whole registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: std::array::from_fn(|i| self.counters[i].load(Ordering::Relaxed)),
            client_ops: shard_snapshot(&self.client_ops),
            server_ops: shard_snapshot(&self.server_ops),
        }
    }

    /// Zeroes every counter and per-operation stat (operation entries are
    /// kept, so live `OpStats` handles stay valid).
    pub fn reset(&self) {
        for c in &self.counters {
            c.store(0, Ordering::Relaxed);
        }
        for shards in [&self.client_ops, &self.server_ops] {
            for shard in shards.iter() {
                for stats in shard.lock().values() {
                    stats.calls.store(0, Ordering::Relaxed);
                    stats.failures.store(0, Ordering::Relaxed);
                    stats.latency.reset();
                }
            }
        }
    }

    /// Renders the registry as the human-readable table `_metrics.dump`
    /// returns: counters, then `gauges` (live values the caller samples,
    /// e.g. pool occupancy), then per-op rows with latency buckets.
    pub fn dump_rows(&self, gauges: &[(&str, u64)]) -> Vec<String> {
        let snap = self.snapshot();
        let mut rows = Vec::new();
        rows.push("== heidl metrics ==".to_owned());
        for c in Counter::ALL {
            rows.push(format!("{:<24} {}", c.name(), snap.counter(c)));
        }
        if !gauges.is_empty() {
            rows.push("-- gauges --".to_owned());
            for (name, v) in gauges {
                rows.push(format!("{name:<24} {v}"));
            }
        }
        for (title, ops) in
            [("-- client ops --", &snap.client_ops), ("-- server ops --", &snap.server_ops)]
        {
            if ops.is_empty() {
                continue;
            }
            rows.push(title.to_owned());
            for (name, op) in ops {
                rows.push(format!(
                    "{:<16} calls={} failures={} p50={} p99={}",
                    name,
                    op.calls,
                    op.failures,
                    fmt_ns(op.p50_ns),
                    fmt_ns(op.p99_ns)
                ));
                for (lower, count) in &op.buckets {
                    rows.push(format!("  >= {:<12} {count}", fmt_ns(*lower)));
                }
            }
        }
        rows
    }
}

impl crate::breaker::BreakerObserver for Metrics {
    fn on_transition(&self, from: crate::breaker::BreakerState, to: crate::breaker::BreakerState) {
        use crate::breaker::BreakerState;
        self.inc(match to {
            BreakerState::Open => Counter::BreakerOpened,
            BreakerState::HalfOpen => Counter::BreakerHalfOpened,
            BreakerState::Closed => Counter::BreakerClosed,
        });
        crate::trace::emit_with(crate::trace::TraceLevel::Info, "breaker", || {
            format!("{from:?} -> {to:?}")
        });
    }
}

/// Formats nanoseconds with a human unit (`870ns`, `15.1us`, `2.3ms`, `1.0s`).
pub fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}us", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.1}s", ns as f64 / 1e9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_powers_of_two() {
        let h = Histogram::default();
        h.record_ns(0); // clamps into bucket 0
        h.record_ns(1);
        h.record_ns(1023); // bucket 9
        h.record_ns(1024); // bucket 10
        assert_eq!(h.count(), 4);
        assert_eq!(h.nonzero_buckets(), vec![(1, 2), (512, 1), (1024, 1)]);
    }

    #[test]
    fn histogram_quantiles_are_upper_bounds() {
        let h = Histogram::default();
        for _ in 0..99 {
            h.record_ns(1000); // bucket 9: [512, 1024)
        }
        h.record_ns(1 << 20); // one outlier
        assert_eq!(h.quantile_ns(0.50), 1024);
        assert_eq!(h.quantile_ns(0.99), 1024);
        assert_eq!(h.quantile_ns(1.0), 1 << 21);
        assert_eq!(Histogram::default().quantile_ns(0.5), 0);
    }

    #[test]
    fn counters_and_ops_record_and_reset() {
        let m = Metrics::new();
        m.set_detail(true);
        m.inc(Counter::Retries);
        m.add(Counter::BytesOut, 100);
        m.record_client_call("echo", 1500, true);
        m.record_client_call("echo", 2500, false);
        m.record_server_dispatch("echo", 800, true);

        let snap = m.snapshot();
        assert_eq!(snap.counter(Counter::Retries), 1);
        assert_eq!(snap.counter(Counter::BytesOut), 100);
        assert_eq!(snap.counter(Counter::CallsOk), 1);
        assert_eq!(snap.counter(Counter::CallsFailed), 1);
        let (name, echo) = &snap.client_ops[0];
        assert_eq!(name, "echo");
        assert_eq!((echo.calls, echo.failures), (2, 1));
        assert!(echo.p50_ns >= 1500);
        assert_eq!(snap.server_ops[0].1.calls, 1);

        // A live handle taken before reset stays valid and reads zero after.
        let live = m.client_op("echo").unwrap();
        m.reset();
        assert_eq!(live.calls(), 0);
        assert_eq!(m.snapshot().counter(Counter::Retries), 0);
    }

    #[test]
    fn detail_gate_skips_per_op_stats_but_not_counters() {
        let m = Metrics::new();
        assert!(!m.detail_enabled());
        m.record_client_call("echo", 1500, true);
        m.record_server_dispatch("echo", 800, true);
        assert_eq!(m.get(Counter::CallsOk), 1);
        assert!(m.client_op("echo").is_none());
        assert!(m.server_op("echo").is_none());

        m.set_detail(true);
        m.record_client_call("echo", 1500, true);
        assert_eq!(m.get(Counter::CallsOk), 2);
        assert_eq!(m.client_op("echo").unwrap().calls(), 1);

        // Turning detail back off freezes, but keeps, the collected stats.
        m.set_detail(false);
        m.record_client_call("echo", 9000, true);
        assert_eq!(m.get(Counter::CallsOk), 3);
        assert_eq!(m.client_op("echo").unwrap().calls(), 1);
    }

    #[test]
    fn dump_rows_are_human_readable() {
        let m = Metrics::new();
        m.set_detail(true);
        m.record_server_dispatch("echo", 15_000, true);
        m.inc(Counter::ShedRequests);
        let rows = m.dump_rows(&[("in_flight", 3)]);
        let text = rows.join("\n");
        assert!(text.contains("shed_requests            1"), "{text}");
        assert!(text.contains("in_flight                3"), "{text}");
        assert!(text.contains("echo"), "{text}");
        // 15µs lands in the [8192, 16384) bucket; the p50 upper bound is 16384ns.
        assert!(text.contains("p50=16.4us"), "{text}");
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(870), "870ns");
        assert_eq!(fmt_ns(15_100), "15.1us");
        assert_eq!(fmt_ns(2_300_000), "2.3ms");
        assert_eq!(fmt_ns(1_000_000_000), "1.0s");
    }
}
