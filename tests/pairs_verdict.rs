//! The `pairs` driver's verdict: statistics, the four rules, and reading
//! perfbench's result line and `BENCHMARK.json`'s bounds.

use heidl_bench::pairs::{
    compare, drift, end_to_end, median, pair_seed, quartiles, same_count, spread, Direction, Json,
    Run, Verdict,
};

#[test]
fn quartiles_match_the_exclusive_method() {
    // Python: statistics.quantiles([1, 2, ..., 10], n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
    // statistics.quantiles([1, 3, 4, 9], n=4) == [1.5, 3.5, 7.75]
    assert_eq!(quartiles(&[9.0, 1.0, 4.0, 3.0]), [1.5, 3.5, 7.75]);
    assert_eq!(median(&mut [5.0, 1.0, 3.0]), 3.0);
    assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    assert!((spread(&ten) - 1.0).abs() < 1e-12, "(8.25 - 2.75) / 5.5");
    assert!((spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12, "below four runs: range / median");
}

/// Ten runs around `centre`, each within 1% of it.
fn tight(centre: f64) -> Vec<f64> {
    (0..10).map(|i| centre * (1.0 + (f64::from(i) - 4.5) / 1000.0)).collect()
}

#[test]
fn a_clear_latency_win_is_better() {
    let cmp = compare(&tight(16.0), &tight(11.0), Direction::Lower, 0.25);
    assert_eq!(cmp.verdict, Verdict::Better);
    assert_eq!((cmp.won, cmp.pairs), (10, 10));
    assert!((cmp.ratio[0] - 11.0 / 16.0).abs() < 1e-9);
}

#[test]
fn nine_wins_in_ten_are_needed() {
    let base = tight(100.0);
    let mut change = tight(130.0);
    change[3] = 50.0; // two losses in ten
    change[7] = 50.0;
    let cmp = compare(&base, &change, Direction::Higher, 0.2);
    assert_eq!(cmp.won, 8);
    assert_ne!(cmp.verdict, Verdict::Better);
    change[7] = 130.0; // one loss in ten
    assert_eq!(compare(&base, &change, Direction::Higher, 0.2).verdict, Verdict::Better);
}

#[test]
fn a_win_inside_the_parent_spread_is_not_better() {
    // The change wins every pair, but by less than the parent's own
    // interquartile distance.
    let base: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
    let change: Vec<f64> = base.iter().map(|v| v + 0.5).collect();
    let cmp = compare(&base, &change, Direction::Higher, 0.2);
    assert_eq!(cmp.won, 10);
    assert_eq!(cmp.verdict, Verdict::Inside);
}

#[test]
fn past_the_bound_is_worse_and_a_wide_spread_is_unresolved() {
    let cmp = compare(&tight(100.0), &tight(70.0), Direction::Higher, 0.2);
    assert_eq!(cmp.verdict, Verdict::Worse);
    assert_eq!(cmp.won, 0);
    assert_eq!(compare(&tight(10.0), &tight(13.0), Direction::Lower, 0.25).verdict, Verdict::Worse);
    assert_eq!(
        compare(&tight(10.0), &tight(12.0), Direction::Lower, 0.25).verdict,
        Verdict::Inside
    );
    let wide: Vec<f64> = (0..10).map(|i| if i % 2 == 0 { 50.0 } else { 150.0 }).collect();
    assert_eq!(compare(&wide, &tight(100.0), Direction::Higher, 0.2).verdict, Verdict::Unresolved);
    assert_eq!(compare(&tight(100.0), &wide, Direction::Higher, 0.2).verdict, Verdict::Unresolved);
}

#[test]
fn identical_sides_are_never_better_or_worse() {
    let runs = tight(42.0);
    for better in [Direction::Higher, Direction::Lower] {
        let cmp = compare(&runs, &runs, better, 0.2);
        assert_eq!(cmp.verdict, Verdict::Inside);
        assert_eq!(cmp.won, 0, "ties count for neither side");
    }
}

#[test]
fn reads_a_perfbench_result_line_and_the_declared_bounds() {
    let stdout = "  echo_seq calls_per_s = 1.0 1/s\n\
        {\"correct\": true, \"attempted\": 1000, \"failed\": 2, \"metrics\": \
        {\"calls_per_s\": {\"value\": 69220.5, \"unit\": \"1/s\"}, \
        \"p50_us\": {\"value\": 12.99, \"unit\": \"us\"}}}\n";
    let run = Run::from_output(stdout).unwrap();
    assert!(run.correct);
    assert_eq!((run.attempted, run.failed), (1000.0, 2.0));
    assert_eq!(run.metrics["calls_per_s"], 69220.5);
    assert_eq!(run.metrics["p50_us"], 12.99);
    assert!(Run::from_output("no json here").is_err());

    let declared = end_to_end(include_str!("../BENCHMARK.json")).unwrap();
    let names: Vec<&str> = declared.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(names, ["calls_per_s", "p50_us", "mb_per_s", "setup_s"]);
    assert_eq!(declared[1].better, Direction::Lower);
    assert_eq!(declared[0].better, Direction::Higher);
    assert_eq!(declared[1].bound, 0.25);
    assert_eq!(Json::parse("[1, \"a\\\"b\", null, {}]").unwrap().get("x"), None);
}

#[test]
fn drift_compares_the_last_quarter_of_runs_with_the_first() {
    let steady = tight(100.0);
    assert!((drift(&steady) - 1.0).abs() < 0.01, "{}", drift(&steady));
    // Ten runs: quarters of three. The host slowed by a fifth midway.
    let slowing: Vec<f64> = (0..10).map(|i| if i < 5 { 100.0 } else { 80.0 }).collect();
    assert!((drift(&slowing) - 0.8).abs() < 1e-12);
    assert_eq!(drift(&[4.0, 2.0]), 0.5, "a quarter is at least one run");
}

#[test]
fn exact_rows_compare_whole_counts_and_seeds_rotate() {
    assert!(same_count(27.0103, 27.0091), "background allocations are a fraction");
    assert!(!same_count(27.0, 26.0));
    assert!(!same_count(7214.2, 2109.6));
    assert!(same_count(306.0, 306.0));
    assert_eq!((0..3).map(|pair| pair_seed(41, pair)).collect::<Vec<_>>(), [41, 42, 43]);
}

#[test]
fn reads_the_informational_lines_of_a_run() {
    let stdout = "  mix_open step_r.p50_us = 70.8150 us\n\
        \x20 mix_open max_rate_ok = 10000.0000 1/s\n\
        \x20 mix_open ops_attempted = 11222  ops_failed = 0\n\
        \x20 mix_open first failure: connection refused\n\
        {\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {}}\n";
    let run = Run::from_output(stdout).unwrap();
    assert_eq!(run.info["max_rate_ok"], 10000.0);
    assert_eq!(run.info["step_r.p50_us"], 70.815);
    assert!(!run.info.contains_key("first"));
}
