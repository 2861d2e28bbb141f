//! `bench` — the heidl performance reference.
//!
//! ```text
//! bench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, result as the last line
//! bench [--seed n] [--seconds s] [--repeat N] [--trace]            the whole suite, as tables
//! ```
//!
//! One run of one workload prints, as the last line of standard output, a
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics untraced, the per-layer metrics traced. See
//! `perfbench/README.md`.

mod affinity;
mod alloc;
mod json;
mod layers;
mod procstat;
mod rng;
mod schedule;
mod servants;
mod spans;
mod spec;
mod stats;
mod workloads;

use json::Json;
use std::collections::HashMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Inputs, Window, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 7;

/// What one run of one workload reports.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)` in declaration order.
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|&(name, value, unit)| {
            (name, Json::obj([("value", Json::Num(value)), ("unit", Json::Str(unit.to_owned()))]))
        });
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    fn value(&self, name: &str) -> f64 {
        self.metrics.iter().find(|m| m.0 == name).map_or(f64::NAN, |m| m.1)
    }
}

fn print_window_notes(workload: &str, window: &Window, violations: &[String]) {
    for (name, value, unit) in &window.info {
        println!("  {workload} {name} = {value:.4} {unit}");
    }
    println!("  {workload} ops_attempted = {}  ops_failed = {}", window.attempted, window.failed);
    if let Some(e) = &window.first_error {
        println!("  {workload} first failure: {e}");
    }
    for v in violations {
        println!("  {workload} INVARIANT BROKEN: {v}");
    }
}

/// Sets the workload up [`SETUPS`] times (median -> `setup_s`), measures one
/// window on the last rig, and checks the rig's invariants.
fn run_untraced(workload: &str, seed: u64, seconds: f64) -> Report {
    let inputs = Inputs::generate(seed);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut set_up = || {
        let started = Instant::now();
        let rig = workloads::setup(workload, &inputs);
        setups.push(started.elapsed().as_secs_f64());
        rig
    };
    let mut rig = set_up();
    for _ in 1..SETUPS {
        rig.shutdown();
        rig = set_up();
    }
    let window = rig.run(seconds);
    let violations = rig.violations();
    rig.shutdown();
    print_window_notes(workload, &window, &violations);
    let quiet = window.quiet();
    println!("  {workload} p99_us = {:.4} us (not gated)", window.percentile_us(&quiet, 0.99));
    let values = [
        window.calls_per_s(&quiet),
        window.percentile_us(&quiet, 0.5),
        window.mb_per_s(&quiet),
        stats::median(&mut setups),
    ];
    Report {
        correct: window.wrong == 0 && violations.is_empty(),
        attempted: window.attempted.max(1),
        failed: window.failed + violations.len() as u64,
        metrics: spec::END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n, v, u)).collect(),
    }
}

fn trace_dir() -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| "perfbench/target".into(), std::path::PathBuf::from);
    target.join("bench")
}

/// The layer-separation self-check for one workload's traced numbers:
/// marshaling must dominate where the workload says it does and vanish
/// where it says it does not, and the suffix and router layers must be on
/// `mix_open`'s path only.
fn layer_check(workload: &str, m: &HashMap<&'static str, f64>) -> Result<(), String> {
    let wire_share = (m["wire.marshal_ns"] + m["wire.unmarshal_ns"]) / m["orb.invoke_ns"];
    match workload {
        "struct_cdr" | "struct_text" if wire_share < 0.25 => {
            return Err(format!("wire share {wire_share:.3} of a struct call is under 0.25"));
        }
        "echo_seq" if wire_share > 0.05 => {
            return Err(format!("wire share {wire_share:.3} of an echo call is over 0.05"));
        }
        _ => {}
    }
    let on_path = m["wire.suffix_ns"] > 0.0 && m["router.hop_ns"] != 0.0;
    if on_path != (workload == "mix_open") {
        return Err("suffix/router layers are on the wrong workload's path".to_owned());
    }
    Ok(())
}

/// The traced run: a short untraced window (process counters, overhead
/// base), the same window under spans, then the layer probes.
fn run_traced(workload: &str, seed: u64, seconds: f64) -> Report {
    let inputs = Inputs::generate(seed);
    let rig = workloads::setup(workload, &inputs);
    let pool_before = heidl_wire::pool::global().stats();

    let (alloc_before, proc_before) = (alloc::count(), procstat::snapshot());
    let plain = rig.run(seconds * 0.25);
    let (alloc_after, proc_after) = (alloc::count(), procstat::snapshot());
    let calls = (plain.attempted - plain.failed).max(1) as f64;
    let proc_delta = procstat::ProcDelta::between(&proc_before, &proc_after);

    spans::start();
    let traced = rig.run(seconds * 0.25);
    let (recorded, dropped) = spans::stop();
    let pool_after = heidl_wire::pool::global().stats();
    let summary = spans::summarize(&recorded);
    let span_p50 =
        |name: &str| summary.iter().find(|s| s.name == name).map_or(0.0, |s| s.p50_ns as f64);
    println!("  {workload} spans recorded = {}  dropped = {dropped}", recorded.len());
    for s in &summary {
        println!(
            "  {workload} span {:<18} n={:<8} p50={} ns  self_p50={} ns",
            s.name, s.count, s.p50_ns, s.self_p50_ns
        );
    }
    let dir = trace_dir();
    let path = dir.join(format!("trace-{workload}.json"));
    match std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(&path, spans::to_json(workload, &recorded, dropped).to_string())
    }) {
        Ok(()) => println!("  {workload} trace written to {}", path.display()),
        Err(e) => println!("  {workload} trace not written: {e}"),
    }
    drop(recorded);

    let invoke_ns = span_p50("call");
    let mut m: HashMap<&'static str, f64> =
        spec::PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect();
    m.extend(layers::probe(&rig.shape(), invoke_ns, Duration::from_secs_f64(seconds * 0.4)));
    if let Some((routed, direct)) = rig.hop_probe(2_000) {
        m.insert("router.hop_ns", routed - direct);
        // The hop is a measured self time too: take it out of the remainder.
        *m.get_mut("unaccounted_ns").expect("probe reports it") -= routed - direct;
    }
    m.extend(rig.counters());
    let violations = rig.violations();
    rig.shutdown();

    let pool_takes =
        (pool_after.hits - pool_before.hits) + (pool_after.misses - pool_before.misses);
    m.insert(
        "wire.pool_hit_ratio",
        (pool_after.hits - pool_before.hits) as f64 / pool_takes.max(1) as f64,
    );
    m.insert("orb.invoke_ns", invoke_ns);
    m.insert("stream.chunk_ns", span_p50("stream.next_chunk"));
    m.insert("allocs_per_call", (alloc_after - alloc_before) as f64 / calls);
    m.insert("ctxsw_per_call", proc_delta.ctxsw as f64 / calls);
    m.insert("cpu_us_per_call", proc_delta.cpu_ns as f64 / 1e3 / calls);
    // The process is pinned to one CPU: busy means that CPU was.
    m.insert("cpu_busy_ratio", proc_delta.busy_ratio(1));
    let p50 = |w: &Window| w.percentile_us(&w.quiet(), 0.5);
    m.insert("p99_us", plain.percentile_us(&plain.quiet(), 0.99));
    m.insert("trace_overhead_ratio", p50(&traced) / p50(&plain));
    let idl = include_str!("../idl/bench.idl");
    let compile = || heidl_codegen::compile("rust", idl, "bench").expect("bench.idl compiles");
    let rust_loc = compile().file("bench.rs").map_or(0, |f| f.lines().count());
    m.insert("codegen.rust_loc", rust_loc as f64);
    let mut compiles: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(compile());
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    m.insert("codegen.compile_ms", stats::median(&mut compiles));
    let check = layer_check(workload, &m);
    m.insert("layer_check_ok", f64::from(u8::from(check.is_ok())));

    print_window_notes(workload, &traced, &violations);
    println!("  {workload} callers = {} (pinned to one CPU)", workloads::callers());
    match &check {
        Ok(()) => println!("  {workload} layer check: PASS"),
        Err(why) => println!("  {workload} layer check: FAIL ({why})"),
    }
    Report {
        correct: plain.wrong + traced.wrong == 0 && violations.is_empty(),
        attempted: (plain.attempted + traced.attempted).max(1),
        failed: plain.failed + traced.failed + violations.len() as u64,
        metrics: spec::PER_LAYER.iter().map(|&(n, u)| (n, m[n], u)).collect(),
    }
}

// ---- the suite: every workload, repeated, judged against the bounds --------

/// The regression bound of each end-to-end metric, from `BENCHMARK.json`.
fn declared_bounds() -> Result<HashMap<String, f64>, String> {
    let text = ["BENCHMARK.json", "../BENCHMARK.json"]
        .iter()
        .find_map(|p| std::fs::read_to_string(p).ok())
        .ok_or("BENCHMARK.json not found in . or ..")?;
    let doc = Json::parse(&text)?;
    let mut bounds = HashMap::new();
    for metric in doc.get("end_to_end").map(Json::as_arr).unwrap_or_default() {
        let name = metric.get("name").and_then(Json::as_str).ok_or("metric without a name")?;
        let bound = metric.get("bound").and_then(Json::as_f64).ok_or("metric without a bound")?;
        bounds.insert(name.to_owned(), bound);
    }
    Ok(bounds)
}

fn print_report(workload: &str, report: &Report) {
    println!(
        "{workload}: correct={} ops_attempted={} ops_failed={}",
        report.correct, report.attempted, report.failed
    );
    for (name, value, unit) in &report.metrics {
        println!("  {name:<28} {value:>16.4} {unit}");
    }
}

/// Runs the suite `repeat` times on one seed and prints, per metric and
/// workload, min / median / max and the spread against the declared bound.
/// Returns false when a run was incorrect, a traced layer check failed, or
/// a gated pair spread wider than its bound.
fn suite(seed: u64, seconds: f64, repeat: usize, trace: bool) -> bool {
    let bounds = match declared_bounds() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("bench: {e}");
            return false;
        }
    };
    let mut ok = true;
    let mut runs: Vec<Vec<Report>> = Vec::new();
    for round in 0..repeat {
        println!("== round {} of {repeat}: seed {seed}, {seconds} s per workload ==", round + 1);
        let mut reports = Vec::new();
        for workload in WORKLOADS {
            let report = run_untraced(workload, seed, seconds);
            print_report(workload, &report);
            ok &= report.correct && report.failed == 0;
            reports.push(report);
        }
        runs.push(reports);
    }
    if trace {
        println!("== traced run: per-layer metrics ==");
        for workload in WORKLOADS {
            let report = run_traced(workload, seed, seconds);
            print_report(workload, &report);
            ok &= report.correct && report.value("layer_check_ok") == 1.0;
        }
    }
    println!("== {repeat} rounds: min / median / max, spread vs bound ==");
    println!(
        "{:<16} {:<12} {:>14} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "min", "median", "max", "spread", "bound"
    );
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (name, _) in spec::END_TO_END {
            let mut values: Vec<f64> = runs.iter().map(|round| round[w].value(name)).collect();
            let median = stats::median(&mut values); // sorts them
            let (min, max) = (values[0], values[values.len() - 1]);
            // Quartiles need four values to mean anything; below that the
            // whole range stands in.
            let spread = if values.len() >= 4 {
                stats::quartile_spread(&values)
            } else {
                (max - min) / median
            };
            let bound = bounds.get(name).copied().unwrap_or(f64::NAN);
            // Set-up time is bounded on its median between runs, not on its spread.
            let wide = name != "setup_s" && repeat > 1 && spread > bound;
            ok &= !wide;
            println!(
                "{workload:<16} {name:<12} {min:>14.3} {median:>14.3} {max:>14.3} {:>7.1}% {:>6.0}%{}",
                spread * 100.0,
                bound * 100.0,
                if wide { "  WIDER THAN BOUND" } else { "" }
            );
        }
    }
    ok
}

// ---- command line ------------------------------------------------------------

struct Args {
    calibrate: bool,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args =
        Args { calibrate: false, workload: None, seed: 1, seconds: 8.0, trace: false, repeat: 2 };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = argv.get(i + 1).map(String::as_str);
        let need = || value.ok_or(format!("{flag} needs a value"));
        match flag {
            "--workload" => args.workload = Some(need()?.to_owned()),
            "--seed" => args.seed = need()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = need()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--repeat" => args.repeat = need()?.parse().map_err(|e| format!("--repeat: {e}"))?,
            // `--trace` alone switches tracing on; `--trace 0|1` says which.
            "--trace" => match value {
                Some("0") => args.trace = false,
                Some("1") => args.trace = true,
                _ => {
                    args.trace = true;
                    i += 1;
                    continue;
                }
            },
            "--calibrate" => {
                args.calibrate = true;
                i += 1;
                continue;
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_owned());
    }
    if args.repeat == 0 {
        return Err("--repeat must be at least 1".to_owned());
    }
    if let Some(w) = &args.workload {
        if w != "all" && !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w}; one of {}", WORKLOADS.join(" ")));
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    // Before any ORB thread exists, so every one of them inherits the mask.
    workloads::set_cores(affinity::pin_to_one_cpu());
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.calibrate {
        let capacity =
            workloads::mix_closed_loop_capacity(&Inputs::generate(args.seed), args.seconds);
        println!(
            "mix closed-loop capacity = {capacity:.0} calls/s with {} callers",
            workloads::callers()
        );
        println!(
            "40% of it = {:.0} calls/s; MIX_RATE is {} calls/s",
            capacity * 0.4,
            workloads::MIX_RATE
        );
        return ExitCode::SUCCESS;
    }
    match args.workload.as_deref() {
        None | Some("all") => {
            if suite(args.seed, args.seconds, args.repeat, args.trace) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Some(workload) => {
            let report = if args.trace {
                run_traced(workload, args.seed, args.seconds)
            } else {
                run_untraced(workload, args.seed, args.seconds)
            };
            println!("{}", report.to_json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_parses_and_carries_every_declared_metric() {
        for table in [&spec::END_TO_END[..], &spec::PER_LAYER[..]] {
            let report = Report {
                correct: true,
                attempted: 1000,
                failed: 0,
                metrics: table
                    .iter()
                    .enumerate()
                    .map(|(i, &(n, u))| (n, 1.25 + i as f64, u))
                    .collect(),
            };
            let parsed = Json::parse(&report.to_json().to_string()).expect("result line is JSON");
            let Json::Obj(keys) = &parsed else { panic!("result is not an object") };
            let names: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(names, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(parsed.get("attempted"), Some(&Json::Num(1000.0)));
            for (i, (name, unit)) in table.iter().enumerate() {
                let metric = parsed
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .unwrap_or_else(|| panic!("{name} missing"));
                assert_eq!(metric.get("value").and_then(Json::as_f64), Some(1.25 + i as f64));
                assert_eq!(metric.get("unit").and_then(Json::as_str), Some(*unit));
            }
        }
    }

    /// `BENCHMARK.json` and `spec.rs` declare the same names and units.
    #[test]
    fn benchmark_json_declares_what_spec_declares() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_owned();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table.iter().map(|&(n, u)| (n.to_owned(), u.to_owned())).collect()
        };
        assert_eq!(declared("end_to_end"), own(&spec::END_TO_END));
        assert_eq!(declared("per_layer"), own(&spec::PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .map(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        for bound in declared_bounds().expect("bounds").values() {
            assert!(*bound > 0.0 && *bound <= 0.25);
        }
    }

    #[test]
    fn command_line_forms() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(str::to_owned).collect::<Vec<_>>());
        let a = parse("--workload echo_seq --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("echo_seq"), 7, 3.0, true)
        );
        assert!(!parse("--trace 0 --workload mix_open").unwrap().trace);
        let a = parse("--trace --repeat 5").unwrap();
        assert!(a.trace && a.repeat == 5 && a.workload.is_none());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--frobnicate").is_err());
    }

    #[test]
    fn layer_check_reads_the_wire_share() {
        let base = |marshal: f64, suffix: f64| -> HashMap<&'static str, f64> {
            HashMap::from([
                ("wire.marshal_ns", marshal),
                ("wire.unmarshal_ns", marshal),
                ("orb.invoke_ns", 100.0),
                ("wire.suffix_ns", suffix),
                ("router.hop_ns", suffix),
            ])
        };
        assert!(layer_check("struct_cdr", &base(20.0, 0.0)).is_ok());
        assert!(layer_check("struct_text", &base(10.0, 0.0)).is_err());
        assert!(layer_check("echo_seq", &base(2.0, 0.0)).is_ok());
        assert!(layer_check("echo_seq", &base(4.0, 0.0)).is_err());
        assert!(layer_check("mix_open", &base(1.0, 5.0)).is_ok());
        assert!(layer_check("mix_open", &base(1.0, 0.0)).is_err());
        assert!(layer_check("storm_reactor", &base(1.0, 5.0)).is_err());
    }
}
