//! The names this benchmark declares: every metric it prints, with its
//! unit. `BENCHMARK.json` lists the same names (a test compares them); the
//! regression bounds live only there.

/// End-to-end metrics `(name, unit)`: what a user of the ORB sees. Printed
/// by every workload on the untraced run, which also prints `p99_us` as an
/// informational line.
pub const END_TO_END: [(&str, &str); 4] =
    [("calls_per_s", "1/s"), ("p50_us", "us"), ("mb_per_s", "MB/s"), ("setup_s", "s")];

/// Per-layer metrics `(name, unit)`, printed by every workload on the
/// traced run; a layer that is not on a workload's call path reads 0.
pub const PER_LAYER: [(&str, &str); 39] = [
    // Demoted from the end-to-end list: on the shared box its ten-run
    // quartile spread reached 21% (`stream_bulk`) and 24% (`struct_text`),
    // which no bound of at most 25% can gate. Read from the traced run's
    // untraced window, like the process counters.
    ("p99_us", "us"),
    ("wire.marshal_ns", "ns"),
    ("wire.unmarshal_ns", "ns"),
    ("wire.frame_ns", "ns"),
    ("wire.pool_hit_ratio", "ratio"),
    ("wire.bytes_per_call", "B"),
    ("wire.suffix_ns", "ns"),
    ("call.envelope_ns", "ns"),
    ("dispatch.find_ns", "ns"),
    ("skeleton.dispatch_ns", "ns"),
    ("transport.rtt_ns", "ns"),
    ("transport.inproc_rtt_ns", "ns"),
    ("server.rtt_ns", "ns"),
    ("server.self_ns", "ns"),
    ("server.shed_requests", "count"),
    ("server.in_flight", "count"),
    ("communicator.call_ns", "ns"),
    ("communicator.opened", "count"),
    ("client.self_ns", "ns"),
    ("orb.invoke_ns", "ns"),
    ("orb.retries", "count"),
    ("replay.executions", "count"),
    ("result_cache.hit_ratio", "ratio"),
    ("router.hop_ns", "ns"),
    ("router.forwarded", "count"),
    ("router.failed", "count"),
    ("stream.chunk_ns", "ns"),
    ("stream.chunks", "count"),
    ("stream.high_water_bytes", "B"),
    ("servant_ns", "ns"),
    ("allocs_per_call", "count"),
    ("ctxsw_per_call", "count"),
    ("cpu_us_per_call", "us"),
    ("cpu_busy_ratio", "ratio"),
    ("codegen.compile_ms", "ms"),
    ("codegen.rust_loc", "count"),
    ("unaccounted_ns", "ns"),
    ("trace_overhead_ratio", "ratio"),
    ("layer_check_ok", "count"),
];
