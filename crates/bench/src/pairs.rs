//! The verdict on a parent-vs-change benchmark comparison: the statistics
//! and rules the `pairs` binary applies to alternating runs of two
//! perfbench builds.
//!
//! For each workload and end-to-end metric, with `n` pairs of runs:
//!
//! - `better`: the change wins at least nine tenths of the pairs (ties
//!   count for neither side), and its median differs from the parent's,
//!   in the metric's good direction, by more than the parent's
//!   interquartile distance;
//! - `unresolved`: otherwise, when either side's spread — interquartile
//!   distance over median, or range over median below four runs — is
//!   wider than the metric's bound;
//! - `worse`: otherwise, when the change's median is worse than the
//!   parent's by more than the bound;
//! - `inside`: the rest.
//!
//! The bounds and directions come from `BENCHMARK.json`, which this
//! module only reads.
//!
//! Beside the verdicts: a drift figure per metric, the parent's own last
//! quarter of runs against its first ([`drift`]), which says whether the
//! host moved under the comparison; and exact rows for the counts a
//! traced run reports, which a change either keeps or changes
//! ([`same_count`]).
//!
//! The JSON reader and the median and quartiles are perfbench's own
//! files, compiled in here as well, so the driver reads the result line
//! and judges spread exactly as perfbench's `--repeat` table does.

use std::collections::BTreeMap;

#[allow(dead_code, missing_docs)]
#[path = "../../../perfbench/src/json.rs"]
mod json;
#[allow(dead_code, missing_docs)]
#[path = "../../../perfbench/src/stats.rs"]
mod stats;

pub use json::Json;
pub use stats::{median, quartiles};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// More is better (throughput).
    Higher,
    /// Less is better (latency, set-up time).
    Lower,
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name in a run's `metrics` object.
    pub name: String,
    /// Which way it improves.
    pub better: Direction,
    /// How far, as a share of the parent's median, it may worsen.
    pub bound: f64,
}

/// The outcome for one workload and metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved, by the nine-in-ten rule.
    Better,
    /// Worse than the parent by more than the bound.
    Worse,
    /// Within the bound, and both sides spread less than it.
    Inside,
    /// A side spread wider than the bound, so the runs cannot tell.
    Unresolved,
}

impl Verdict {
    /// The verdict's name in the printed table.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Inside => "inside",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The comparison of one metric over `pairs` pairs of runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// The parent's first quartile, median and third quartile.
    pub base: [f64; 3],
    /// The change's first quartile, median and third quartile.
    pub change: [f64; 3],
    /// The median, least and greatest of the per-pair ratios change / parent.
    pub ratio: [f64; 3],
    /// Pairs in which the change read better than the parent.
    pub won: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// The verdict.
    pub verdict: Verdict,
}

/// How widely `values` spread, as a share of their median: the
/// interquartile distance from four values up, the whole range below.
///
/// # Panics
///
/// On an empty slice or a NaN.
pub fn spread(values: &[f64]) -> f64 {
    let mid = median(&mut values.to_vec());
    if values.len() >= 4 {
        let [q1, _, q3] = quartiles(values);
        (q3 - q1) / mid
    } else {
        let (lo, hi) = range(values);
        (hi - lo) / mid
    }
}

/// The least and greatest of `values`.
fn range(values: &[f64]) -> (f64, f64) {
    values.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)))
}

/// Compares the parent's runs `base` with the change's runs `change`,
/// paired by index, for a metric that improves in direction `better` and
/// may worsen by `bound`.
///
/// # Panics
///
/// When the two sides have different lengths or fewer than two runs, or
/// hold a NaN.
pub fn compare(base: &[f64], change: &[f64], better: Direction, bound: f64) -> Comparison {
    assert_eq!(base.len(), change.len(), "runs are compared in pairs");
    let gain = |parent: f64, changed: f64| match better {
        Direction::Higher => changed - parent,
        Direction::Lower => parent - changed,
    };
    let ratios: Vec<f64> = base.iter().zip(change).map(|(b, c)| c / b).collect();
    let (lo, hi) = range(&ratios);
    let ratio = [median(&mut ratios.clone()), lo, hi];
    let won = base.iter().zip(change).filter(|&(&b, &c)| gain(b, c) > 0.0).count();
    let (base_q, change_q) = (quartiles(base), quartiles(change));
    let pairs = base.len();
    let verdict = if won * 10 >= pairs * 9 && gain(base_q[1], change_q[1]) > base_q[2] - base_q[0] {
        Verdict::Better
    } else if spread(base) > bound || spread(change) > bound {
        Verdict::Unresolved
    } else if -gain(base_q[1], change_q[1]) > bound * base_q[1] {
        Verdict::Worse
    } else {
        Verdict::Inside
    };
    Comparison { base: base_q, change: change_q, ratio, won, pairs, verdict }
}

/// How far the runs drifted while they were made: the median of the last
/// quarter of `runs`, in the order they ran, over the median of the first
/// quarter (a quarter is at least one run). Near 1 when the host held
/// still; a drift larger than a claimed gain leaves the gain unproven.
///
/// # Panics
///
/// On an empty slice or a NaN.
pub fn drift(runs: &[f64]) -> f64 {
    let quarter = runs.len().div_ceil(4);
    median(&mut runs[runs.len() - quarter..].to_vec()) / median(&mut runs[..quarter].to_vec())
}

/// Whether two traced runs report the same count per call, for a count
/// the program makes exactly per call (allocations, wire bytes): compared
/// to the whole unit, since background threads add a fraction that varies
/// from run to run.
pub fn same_count(base: f64, change: f64) -> bool {
    base.round() == change.round()
}

/// The seed of pair `pair` (from 0) when the comparison starts at `seed`:
/// each pair runs on its own inputs, so no one seed's inputs decide it.
pub fn pair_seed(seed: u64, pair: usize) -> u64 {
    seed.wrapping_add(pair as u64)
}

/// The end-to-end metrics `BENCHMARK.json` declares, in its order.
///
/// # Errors
///
/// When the document is not JSON or a metric lacks a name, direction or
/// bound.
pub fn end_to_end(benchmark: &str) -> Result<Vec<Metric>, String> {
    let doc = Json::parse(benchmark)?;
    let Some(metrics) = doc.get("end_to_end").map(Json::as_arr).filter(|m| !m.is_empty()) else {
        return Err("no `end_to_end` list".to_owned());
    };
    metrics
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).ok_or("a metric without a name")?;
            let better = match m.get("better").and_then(Json::as_str) {
                Some("higher") => Direction::Higher,
                Some("lower") => Direction::Lower,
                _ => return Err(format!("{name}: `better` is neither higher nor lower")),
            };
            let bound = m.get("bound").and_then(Json::as_f64).ok_or(format!("{name}: no bound"))?;
            Ok(Metric { name: name.to_owned(), better, bound })
        })
        .collect()
}

/// What one perfbench run reported on its last line.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Whether every reply was right and no invariant broke.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: f64,
    /// Operations that failed.
    pub failed: f64,
    /// Each metric's value, by name.
    pub metrics: BTreeMap<String, f64>,
    /// The informational lines before the result line, `<workload>
    /// <name> = <value> <unit>`, by name: `mix_open`'s `max_rate_ok`, for
    /// one.
    pub info: BTreeMap<String, f64>,
}

impl Run {
    /// Reads a run's result from its standard output: the last non-empty
    /// line, a JSON object, and the informational lines.
    ///
    /// # Errors
    ///
    /// When there is no such line or it lacks a field.
    pub fn from_output(stdout: &str) -> Result<Run, String> {
        let info = stdout
            .lines()
            .filter_map(|line| {
                let (name, value) = line.trim().split_once(' ')?.1.split_once(" = ")?;
                let (value, _unit) = value.split_once(' ')?;
                Some((name.to_owned(), value.parse().ok()?))
            })
            .collect();
        let line = stdout.lines().rev().find(|l| !l.trim().is_empty()).ok_or("no output")?;
        let doc = Json::parse(line)?;
        let number = |key: &str| doc.get(key).and_then(Json::as_f64).ok_or(format!("no `{key}`"));
        let Some(Json::Bool(correct)) = doc.get("correct") else {
            return Err("no `correct`".to_owned());
        };
        let Some(Json::Obj(members)) = doc.get("metrics") else {
            return Err("no `metrics`".to_owned());
        };
        let metrics = members
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect();
        Ok(Run {
            correct: *correct,
            attempted: number("attempted")?,
            failed: number("failed")?,
            metrics,
            info,
        })
    }
}
