//! `pairs` — the verdict on a parent-vs-change comparison.
//!
//! ```text
//! pairs --base <bench> --change <bench> --workloads echo_seq,storm_threaded
//!       [--pairs 10] [--seconds 15] [--seed 1] [--benchmark BENCHMARK.json]
//! ```
//!
//! Runs two built perfbench binaries (`perfbench/`, binary `bench`) in
//! alternating pairs — which side runs first alternates from pair to pair,
//! so drift on the host cancels between neighbours — reads each run's
//! last JSON line, and prints, for each workload and end-to-end metric of
//! `BENCHMARK.json`: each side's median and quartiles, the median pair
//! ratio (change / parent) with its range, the pairs the change won, and
//! a verdict (see `heidl_bench::pairs`). Runs start from the current
//! directory, which should be the repository root.

use heidl_bench::pairs::{compare, end_to_end, Run, Verdict};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

struct Args {
    base: String,
    change: String,
    workloads: Vec<String>,
    pairs: usize,
    seconds: String,
    seed: String,
    benchmark: String,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        base: String::new(),
        change: String::new(),
        workloads: Vec::new(),
        pairs: 10,
        seconds: "15".to_owned(),
        seed: "1".to_owned(),
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
            "--seed" => args.seed = value,
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

/// One untraced run of `workload` by the perfbench binary `bench`.
fn run(bench: &str, workload: &str, args: &Args) -> Result<Run, String> {
    let out = Command::new(bench)
        .args(["--workload", workload, "--seed", &args.seed, "--seconds", &args.seconds])
        .args(["--trace", "0"])
        .output()
        .map_err(|e| format!("{bench}: {e}"))?;
    Run::from_output(&String::from_utf8_lossy(&out.stdout))
        .map_err(|e| format!("{bench} --workload {workload}: {e}"))
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
        for workload in &args.workloads {
            let base_first = pair % 2 == 0;
            let mut got = [None, None];
            for side in [!base_first, base_first].map(usize::from) {
                let bench = if side == 0 { &args.base } else { &args.change };
                match run(bench, workload, &args) {
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
    println!(
        "{} pairs, {} s per run, seed {}; ratio = change / parent",
        args.pairs, args.seconds, args.seed
    );
    println!(
        "{:<15} {:<12} {:>28} {:>28} {:>22} {:>6} {:<10}",
        "workload",
        "metric",
        "parent median [q1, q3]",
        "change median [q1, q3]",
        "ratio (min-max)",
        "won",
        "verdict"
    );
    let mut verdicts_ok = true;
    for (workload, (base, change)) in &runs {
        for metric in &metrics {
            let values = |side: &[Run]| -> Option<Vec<f64>> {
                side.iter().map(|r| r.metrics.get(&metric.name).copied()).collect()
            };
            let (Some(b), Some(c)) = (values(base), values(change)) else {
                continue;
            };
            if b.iter().chain(&c).all(|v| *v == 0.0) {
                continue; // not a metric this workload measures
            }
            let cmp = compare(&b, &c, metric.better, metric.bound);
            let quart = |[q1, q2, q3]: [f64; 3]| format!("{q2:.3} [{q1:.3}, {q3:.3}]");
            let [ratio, lo, hi] = cmp.ratio;
            println!(
                "{workload:<15} {:<12} {:>28} {:>28} {:>22} {:>6} {:<10}",
                metric.name,
                quart(cmp.base),
                quart(cmp.change),
                format!("{ratio:.3} ({lo:.3}-{hi:.3})"),
                format!("{}/{}", cmp.won, cmp.pairs),
                cmp.verdict.name()
            );
            verdicts_ok &= cmp.verdict != Verdict::Worse;
        }
        let tally = |side: &[Run]| {
            let correct = side.iter().filter(|r| r.correct).count();
            let failed: f64 = side.iter().map(|r| r.failed).sum();
            let attempted: f64 = side.iter().map(|r| r.attempted).sum();
            format!("correct {correct}/{}, failed {:.4}%", side.len(), 100.0 * failed / attempted)
        };
        println!("{workload:<15} parent: {}; change: {}", tally(base), tally(change));
    }
    if verdicts_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
