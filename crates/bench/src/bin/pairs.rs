//! `pairs` — the verdict on a parent-vs-change comparison.
//!
//! ```text
//! pairs --base <bench> --change <bench> --workloads echo_seq,storm_threaded
//!       [--pairs 10] [--seconds 15] [--seed 1] [--benchmark BENCHMARK.json]
//! ```
//!
//! Runs two built perfbench binaries (`perfbench/`, binary `bench`) in
//! alternating pairs — which side runs first alternates from pair to pair,
//! so drift on the host cancels between neighbours, and pair `i` runs on
//! seed `seed + i` — reads each run's last JSON line, and prints, for each
//! workload and end-to-end metric of `BENCHMARK.json`: each side's median
//! and quartiles, the median pair ratio (change / parent) with its range,
//! the pairs the change won, a verdict (see `heidl_bench::pairs`), and
//! the parent's drift, its last quarter of runs over its first. A
//! workload whose runs report `max_rate_ok` (`mix_open`) gets a row for
//! it too, not gated. Then one short traced run per side and workload
//! gives the exact rows: `allocs_per_call` and `wire.bytes_per_call`,
//! `equal` or `differ`. Runs start from the current directory, which
//! should be the repository root.

use heidl_bench::pairs::{
    compare, drift, end_to_end, pair_seed, same_count, Comparison, Direction, Run, Verdict,
};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

struct Args {
    base: String,
    change: String,
    workloads: Vec<String>,
    pairs: usize,
    seconds: String,
    seed: u64,
    benchmark: String,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        base: String::new(),
        change: String::new(),
        workloads: Vec::new(),
        pairs: 10,
        seconds: "15".to_owned(),
        seed: 1,
        benchmark: "BENCHMARK.json".to_owned(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?.clone();
        match flag.as_str() {
            "--base" => args.base = value,
            "--change" => args.change = value,
            "--workloads" => args.workloads = value.split(',').map(str::to_owned).collect(),
            "--pairs" => args.pairs = value.parse().map_err(|e| format!("--pairs: {e}"))?,
            "--seconds" => args.seconds = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--benchmark" => args.benchmark = value,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.base.is_empty() || args.change.is_empty() || args.workloads.is_empty() {
        return Err("--base, --change and --workloads are required".to_owned());
    }
    if args.pairs < 2 {
        return Err("--pairs must be at least 2".to_owned());
    }
    Ok(args)
}

/// One run of `workload` by the perfbench binary `bench`.
fn run(bench: &str, workload: &str, seed: u64, seconds: &str, trace: &str) -> Result<Run, String> {
    let out = Command::new(bench)
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", seconds])
        .args(["--trace", trace])
        .output()
        .map_err(|e| format!("{bench}: {e}"))?;
    Run::from_output(&String::from_utf8_lossy(&out.stdout))
        .map_err(|e| format!("{bench} --workload {workload}: {e}"))
}

/// The metrics whose traced value is an exact count per call.
const EXACT: [&str; 2] = ["allocs_per_call", "wire.bytes_per_call"];

/// Informational values a workload may report, compared but not gated.
const INFO: [&str; 1] = ["max_rate_ok"];

fn print_row(workload: &str, metric: &str, cmp: &Comparison, verdict: &str, drift: f64) {
    let quart = |[q1, q2, q3]: [f64; 3]| format!("{q2:.3} [{q1:.3}, {q3:.3}]");
    let [ratio, lo, hi] = cmp.ratio;
    println!(
        "{workload:<15} {metric:<12} {:>28} {:>28} {:>22} {:>6} {verdict:<10} {drift:>6.3}",
        quart(cmp.base),
        quart(cmp.change),
        format!("{ratio:.3} ({lo:.3}-{hi:.3})"),
        format!("{}/{}", cmp.won, cmp.pairs),
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pairs: {e}");
            return ExitCode::FAILURE;
        }
    };
    let metrics = match std::fs::read_to_string(&args.benchmark)
        .map_err(|e| format!("{}: {e}", args.benchmark))
        .and_then(|text| end_to_end(&text))
    {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("pairs: {e}");
            return ExitCode::FAILURE;
        }
    };
    // runs[workload] = (parent's runs, change's runs), pair by pair.
    let mut runs: BTreeMap<&str, (Vec<Run>, Vec<Run>)> = BTreeMap::new();
    for pair in 0..args.pairs {
        let seed = pair_seed(args.seed, pair);
        for workload in &args.workloads {
            let base_first = pair % 2 == 0;
            let mut got = [None, None];
            for side in [!base_first, base_first].map(usize::from) {
                let bench = if side == 0 { &args.base } else { &args.change };
                match run(bench, workload, seed, &args.seconds, "0") {
                    Ok(result) => got[side] = Some(result),
                    Err(e) => {
                        eprintln!("pairs: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            let [base, change] = got.map(|r| r.expect("both sides ran"));
            eprintln!("pair {} of {} done: {workload}", pair + 1, args.pairs);
            let entry = runs.entry(workload.as_str()).or_default();
            entry.0.push(base);
            entry.1.push(change);
        }
    }
    let last_seed = pair_seed(args.seed, args.pairs - 1);
    println!(
        "{} pairs, {} s per run, seeds {}-{last_seed}; ratio = change / parent; drift = the \
         parent's last quarter of runs / its first",
        args.pairs, args.seconds, args.seed
    );
    println!(
        "{:<15} {:<12} {:>28} {:>28} {:>22} {:>6} {:<10} {:>6}",
        "workload",
        "metric",
        "parent median [q1, q3]",
        "change median [q1, q3]",
        "ratio (min-max)",
        "won",
        "verdict",
        "drift"
    );
    let mut verdicts_ok = true;
    for (workload, (base, change)) in &runs {
        let gated = metrics.iter().map(|m| (m.name.as_str(), m.better, Some(m.bound)));
        let info = INFO.iter().map(|&name| (name, Direction::Higher, None));
        for (name, better, bound) in gated.chain(info) {
            let values = |side: &[Run]| -> Option<Vec<f64>> {
                side.iter()
                    .map(|r| r.metrics.get(name).or_else(|| r.info.get(name)).copied())
                    .collect()
            };
            let (Some(b), Some(c)) = (values(base), values(change)) else {
                continue;
            };
            if b.iter().chain(&c).all(|v| *v == 0.0) {
                continue; // not a metric this workload measures
            }
            let cmp = compare(&b, &c, better, bound.unwrap_or(f64::INFINITY));
            let verdict = match bound {
                Some(_) => cmp.verdict.name(),
                None => "not gated",
            };
            print_row(workload, name, &cmp, verdict, drift(&b));
            verdicts_ok &= bound.is_none() || cmp.verdict != Verdict::Worse;
        }
        let tally = |side: &[Run]| {
            let correct = side.iter().filter(|r| r.correct).count();
            let failed: f64 = side.iter().map(|r| r.failed).sum();
            let attempted: f64 = side.iter().map(|r| r.attempted).sum();
            format!("correct {correct}/{}, failed {:.4}%", side.len(), 100.0 * failed / attempted)
        };
        println!("{workload:<15} parent: {}; change: {}", tally(base), tally(change));
    }
    println!("exact rows: one 1 s traced run per side, seed {}", args.seed);
    for workload in runs.keys() {
        let traced =
            [&args.base, &args.change].map(|bench| run(bench, workload, args.seed, "1", "1"));
        let (base, change) = match traced {
            [Ok(base), Ok(change)] => (base, change),
            [Err(e), _] | [_, Err(e)] => {
                eprintln!("pairs: {e}");
                return ExitCode::FAILURE;
            }
        };
        for name in EXACT {
            let (Some(&b), Some(&c)) = (base.metrics.get(name), change.metrics.get(name)) else {
                continue;
            };
            let same = if same_count(b, c) { "equal" } else { "differ" };
            println!("{workload:<15} {name:<20} {b:>14.2} {c:>14.2} {same}");
        }
    }
    if verdicts_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
