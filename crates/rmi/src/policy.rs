//! Server-side overload policy: admission control caps, load-shedding
//! bounds, wire decode limits, slow-client timeouts, and drain semantics.
//!
//! The paper treats everything around the invocation path as
//! customization surface; [`ServerPolicy`] extends that to the *failure
//! boundary of the server itself*. Every bound defaults to "unlimited"
//! (the historical behavior) so existing deployments see no change; a
//! production server dials each knob on `Orb::builder()`:
//!
//! ```
//! use heidl_rmi::{Orb, ServerPolicy};
//! use std::time::Duration;
//!
//! let orb = Orb::builder()
//!     .server_policy(
//!         ServerPolicy::default()
//!             .with_max_connections(512)
//!             .with_max_in_flight(64)
//!             .with_max_in_flight_per_connection(8)
//!             .with_drain_timeout(Duration::from_secs(2)),
//!     )
//!     .build();
//! # drop(orb);
//! ```
//!
//! Shed requests are answered with a `Busy` reply (status `3`) before any
//! servant runs, which clients surface as `RmiError::ServerBusy` — an
//! always-safe-to-retry class, so the retry policy's backoff and failover
//! spread load away from the hot server instead of hammering it.

use heidl_wire::DecodeLimits;
use std::time::Duration;

/// Overload-protection configuration for one ORB's server side.
///
/// Defaults preserve the pre-policy behavior: effectively-unbounded caps,
/// no socket timeouts, permissive [`DecodeLimits`], and a 5 s drain
/// budget for [`Orb::shutdown_and_drain`](crate::Orb::shutdown_and_drain).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerPolicy {
    /// Maximum concurrently accepted connections; further accepts are
    /// closed immediately and counted as shed connections.
    pub max_connections: usize,
    /// Maximum requests dispatched concurrently across the whole server;
    /// excess two-way requests get a `Busy` reply, oneways are dropped.
    pub max_in_flight: usize,
    /// Maximum requests dispatched concurrently for any one connection,
    /// so a single aggressive client cannot monopolize the global cap.
    pub max_in_flight_per_connection: usize,
    /// Maximum transient overflow threads the worker pool may add beyond
    /// its resident workers; past the cap, requests are shed with `Busy`.
    pub max_overflow_threads: usize,
    /// Read timeout on accepted sockets: a connection idle longer than
    /// this is dropped, reclaiming readers from silent clients.
    pub read_idle_timeout: Option<Duration>,
    /// Write timeout on accepted sockets: a client too slow to consume
    /// replies gets disconnected instead of blocking a worker forever.
    pub write_timeout: Option<Duration>,
    /// How long [`Orb::shutdown_and_drain`](crate::Orb::shutdown_and_drain)
    /// waits for in-flight dispatches before force-closing connections.
    pub drain_timeout: Duration,
    /// Wire decode limits applied to every frame and body the server
    /// reads; a hostile 4 GB length prefix is an error, not an allocation.
    pub decode_limits: DecodeLimits,
    /// How long a completed reply stays in the exactly-once reply cache,
    /// available for replay to a retried invocation token. Also bounds how
    /// long a crashed in-flight token blocks its retries with `Busy`.
    pub reply_cache_ttl: Duration,
    /// Total bytes of cached reply bodies kept for exactly-once replay;
    /// past the cap the oldest completed entries are evicted (and a retry
    /// arriving after eviction re-executes — the client should keep its
    /// retry window well under both bounds).
    pub reply_cache_max_bytes: usize,
    /// Payload bytes per chunk of a streamed reply. Smaller chunks pace
    /// more smoothly; larger chunks cost fewer frames per megabyte.
    pub stream_chunk_bytes: usize,
    /// Upper bound on one stream's in-flight (sent but unacknowledged)
    /// bytes. A client may request a smaller window in its chunk-suffix
    /// opt-in; it never gets a larger one. This is what bounds peak
    /// buffering on both sides of a streamed transfer, independent of the
    /// total payload size.
    pub stream_window_bytes: usize,
    /// Server-wide pacing of streamed chunk emission, in payload bytes
    /// per second through one shared token bucket. `None` (the default)
    /// streams as fast as windows and sockets allow.
    pub stream_rate_bytes_per_sec: Option<u64>,
    /// Global budget on reply bytes accepted but not yet written to
    /// sockets across *all* connections: queued on the reactor engine,
    /// blocked in a write on the threaded one. One connection's unwritten
    /// replies are bounded only by its in-flight caps times the reply
    /// size, plus its stream windows, so this is the backstop against a
    /// fleet of slow readers inflating RSS. On exhaustion new two-way
    /// requests are shed with `Busy` before dispatch.
    pub max_reply_queue_bytes_global: usize,
}

impl Default for ServerPolicy {
    fn default() -> Self {
        ServerPolicy {
            max_connections: usize::MAX,
            max_in_flight: usize::MAX,
            max_in_flight_per_connection: usize::MAX,
            max_overflow_threads: 256,
            read_idle_timeout: None,
            write_timeout: None,
            drain_timeout: Duration::from_secs(5),
            decode_limits: DecodeLimits::default(),
            reply_cache_ttl: Duration::from_secs(30),
            reply_cache_max_bytes: 4 * 1024 * 1024,
            stream_chunk_bytes: 256 * 1024,
            stream_window_bytes: 1024 * 1024,
            stream_rate_bytes_per_sec: None,
            max_reply_queue_bytes_global: usize::MAX,
        }
    }
}

impl ServerPolicy {
    /// Caps concurrently accepted connections (clamped to ≥ 1).
    #[must_use]
    pub fn with_max_connections(mut self, max: usize) -> ServerPolicy {
        self.max_connections = max.max(1);
        self
    }

    /// Caps server-wide concurrent dispatches (clamped to ≥ 1).
    #[must_use]
    pub fn with_max_in_flight(mut self, max: usize) -> ServerPolicy {
        self.max_in_flight = max.max(1);
        self
    }

    /// Caps per-connection concurrent dispatches (clamped to ≥ 1).
    #[must_use]
    pub fn with_max_in_flight_per_connection(mut self, max: usize) -> ServerPolicy {
        self.max_in_flight_per_connection = max.max(1);
        self
    }

    /// Caps transient worker-pool overflow threads (0 disables overflow:
    /// when every resident worker is busy, requests shed immediately).
    #[must_use]
    pub fn with_max_overflow_threads(mut self, max: usize) -> ServerPolicy {
        self.max_overflow_threads = max;
        self
    }

    /// Drops connections idle longer than `timeout` (`None` = never).
    #[must_use]
    pub fn with_read_idle_timeout(mut self, timeout: Option<Duration>) -> ServerPolicy {
        self.read_idle_timeout = timeout;
        self
    }

    /// Disconnects clients too slow to consume replies (`None` = never).
    #[must_use]
    pub fn with_write_timeout(mut self, timeout: Option<Duration>) -> ServerPolicy {
        self.write_timeout = timeout;
        self
    }

    /// Sets the graceful-drain budget for `shutdown_and_drain`.
    #[must_use]
    pub fn with_drain_timeout(mut self, timeout: Duration) -> ServerPolicy {
        self.drain_timeout = timeout;
        self
    }

    /// Sets the wire decode limits enforced on everything the server reads.
    #[must_use]
    pub fn with_decode_limits(mut self, limits: DecodeLimits) -> ServerPolicy {
        self.decode_limits = limits;
        self
    }

    /// Sets how long cached replies stay replayable for retried tokens.
    #[must_use]
    pub fn with_reply_cache_ttl(mut self, ttl: Duration) -> ServerPolicy {
        self.reply_cache_ttl = ttl;
        self
    }

    /// Caps the bytes of reply bodies held in the exactly-once reply
    /// cache (clamped to ≥ 1 so a completed reply is always recordable).
    #[must_use]
    pub fn with_reply_cache_max_bytes(mut self, max: usize) -> ServerPolicy {
        self.reply_cache_max_bytes = max.max(1);
        self
    }

    /// Sets the payload bytes per streamed chunk (clamped to ≥ 1).
    #[must_use]
    pub fn with_stream_chunk_bytes(mut self, bytes: usize) -> ServerPolicy {
        self.stream_chunk_bytes = bytes.max(1);
        self
    }

    /// Caps one stream's in-flight (unacknowledged) bytes (clamped to
    /// ≥ 1; a window smaller than the chunk size still admits one chunk
    /// at a time).
    #[must_use]
    pub fn with_stream_window_bytes(mut self, bytes: usize) -> ServerPolicy {
        self.stream_window_bytes = bytes.max(1);
        self
    }

    /// Paces streamed chunk emission server-wide (`None` = unpaced).
    #[must_use]
    pub fn with_stream_rate_bytes_per_sec(mut self, rate: Option<u64>) -> ServerPolicy {
        self.stream_rate_bytes_per_sec = rate.map(|r| r.max(1));
        self
    }

    /// Caps reply bytes queued across every connection (clamped to ≥ 1);
    /// past it, new two-way requests are shed with `Busy`.
    #[must_use]
    pub fn with_max_reply_queue_bytes_global(mut self, max: usize) -> ServerPolicy {
        self.max_reply_queue_bytes_global = max.max(1);
        self
    }
}

/// A point-in-time snapshot of one server's health, as reported by the
/// built-in `_health` object and by [`Orb::server_health`](crate::Orb::server_health).
///
/// The shed counters are mirrored — from a single call site per kind, so
/// the two can never disagree — into the ORB's [`Metrics`](crate::Metrics)
/// registry ([`Counter::ShedRequests`](crate::Counter) /
/// [`Counter::ShedConnections`](crate::Counter)), where the built-in
/// `_metrics` object reports them alongside latency histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerHealth {
    /// True while the server accepts and dispatches new requests; false
    /// once a drain has begun.
    pub accepting: bool,
    /// Requests currently dispatched (or queued to workers).
    pub in_flight: u64,
    /// Connections currently open.
    pub connections: u64,
    /// Total requests shed with a `Busy` reply (or silently, for oneways)
    /// since the server started.
    pub shed_requests: u64,
    /// Total connections refused at accept time since the server started.
    pub shed_connections: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_effectively_unbounded() {
        let p = ServerPolicy::default();
        assert_eq!(p.max_connections, usize::MAX);
        assert_eq!(p.max_in_flight, usize::MAX);
        assert_eq!(p.max_in_flight_per_connection, usize::MAX);
        assert!(p.read_idle_timeout.is_none());
        assert!(p.write_timeout.is_none());
        assert_eq!(p.decode_limits, DecodeLimits::default());
        assert_eq!(p.max_reply_queue_bytes_global, usize::MAX);
        assert!(p.stream_rate_bytes_per_sec.is_none());
        assert!(p.stream_chunk_bytes <= p.stream_window_bytes);
    }

    #[test]
    fn builders_set_and_clamp() {
        let p = ServerPolicy::default()
            .with_max_connections(0)
            .with_max_in_flight(0)
            .with_max_in_flight_per_connection(0)
            .with_max_overflow_threads(0)
            .with_read_idle_timeout(Some(Duration::from_secs(30)))
            .with_write_timeout(Some(Duration::from_secs(5)))
            .with_drain_timeout(Duration::from_millis(250))
            .with_decode_limits(DecodeLimits::strict())
            .with_reply_cache_ttl(Duration::from_secs(60))
            .with_reply_cache_max_bytes(0)
            .with_stream_chunk_bytes(0)
            .with_stream_window_bytes(0)
            .with_stream_rate_bytes_per_sec(Some(0))
            .with_max_reply_queue_bytes_global(0);
        assert_eq!(p.max_connections, 1, "caps clamp to >= 1");
        assert_eq!(p.max_in_flight, 1);
        assert_eq!(p.max_in_flight_per_connection, 1);
        assert_eq!(p.max_overflow_threads, 0, "overflow may be disabled outright");
        assert_eq!(p.read_idle_timeout, Some(Duration::from_secs(30)));
        assert_eq!(p.write_timeout, Some(Duration::from_secs(5)));
        assert_eq!(p.drain_timeout, Duration::from_millis(250));
        assert_eq!(p.decode_limits, DecodeLimits::strict());
        assert_eq!(p.reply_cache_ttl, Duration::from_secs(60));
        assert_eq!(p.reply_cache_max_bytes, 1, "byte cap clamps to >= 1");
        assert_eq!(p.stream_chunk_bytes, 1);
        assert_eq!(p.stream_window_bytes, 1);
        assert_eq!(p.stream_rate_bytes_per_sec, Some(1), "zero rate clamps to >= 1");
        assert_eq!(p.max_reply_queue_bytes_global, 1);
    }

    #[test]
    fn health_snapshot_defaults_to_zeroed_not_accepting() {
        let h = ServerHealth::default();
        assert!(!h.accepting);
        assert_eq!(h.in_flight, 0);
        assert_eq!(h.shed_requests, 0);
    }
}
