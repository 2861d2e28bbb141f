//! Order statistics for the report: nearest-rank percentiles, the highest
//! percentile a sample supports, the quiet-slice estimator every end-to-end
//! number goes through, and the quartile spread the acceptance rule is
//! written in.

/// Nearest-rank percentile of an ascending slice (`q` in 0..=1).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentiles a report may quote, ascending, each with the `k` of its
/// one-in-`k` tail.
const LADDER: [(f64, usize); 5] =
    [(0.5, 2), (0.9, 10), (0.99, 100), (0.999, 1_000), (0.9999, 10_000)];

/// The highest percentile of [`LADDER`] that still has at least ten of `n`
/// samples beyond it; quoting anything higher reads noise as tail.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    LADDER.iter().rev().find(|(_, k)| n / k >= 10).map(|(q, _)| *q)
}

pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in measurements"));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// A timed window cut into equal slices, of which only the quietest are
/// read.
///
/// The box is shared: for half a second to several seconds at a time a
/// neighbour slows everything down (sequential echo: 57k calls/s and 16.6 us
/// when quiet, 35-50k calls/s and up to 26 us when not), and never speeds
/// anything up. A mean, or a median over slices, moves with how much of the
/// window was disturbed. So every number is computed over the `keep` slices
/// with the **lowest median latency**: the part of the window the neighbours
/// left alone. A change to the ORB moves every slice, the kept ones included.
#[derive(Debug, Clone)]
pub struct QuietSlices {
    start_ns: u64,
    slice_ns: f64,
    /// Per slice: kept or not.
    kept: Vec<bool>,
}

impl QuietSlices {
    /// Ranks the `slices` equal slices of `[start_ns, end_ns)` by the median
    /// of the latencies (`(time, latency)`) that fall in each, and keeps the
    /// `keep` lowest. A slice with no sample ranks last.
    pub fn pick(
        lat: &[(u64, u64)],
        start_ns: u64,
        end_ns: u64,
        slices: usize,
        keep: usize,
    ) -> QuietSlices {
        assert!(end_ns > start_ns && slices > 0 && keep > 0);
        let mut quiet = QuietSlices {
            start_ns,
            slice_ns: (end_ns - start_ns) as f64 / slices as f64,
            kept: vec![true; slices],
        };
        let mut per_slice: Vec<Vec<u64>> = vec![Vec::new(); slices];
        for &(t, ns) in lat {
            if let Some(i) = quiet.slice_of(t) {
                per_slice[i].push(ns);
            }
        }
        let mut ranked: Vec<(u64, usize)> = per_slice
            .iter_mut()
            .enumerate()
            .map(|(i, v)| {
                v.sort_unstable();
                (if v.is_empty() { u64::MAX } else { percentile(v, 0.5) }, i)
            })
            .collect();
        ranked.sort_unstable();
        for &(_, i) in ranked.iter().skip(keep) {
            quiet.kept[i] = false;
        }
        quiet
    }

    fn slice_of(&self, t_ns: u64) -> Option<usize> {
        if t_ns < self.start_ns {
            return None;
        }
        let i = ((t_ns - self.start_ns) as f64 / self.slice_ns) as usize;
        (i < self.kept.len()).then_some(i)
    }

    pub fn keeps(&self, t_ns: u64) -> bool {
        self.slice_of(t_ns).is_some_and(|i| self.kept[i])
    }

    /// Seconds of the window that were kept.
    pub fn kept_seconds(&self) -> f64 {
        self.kept.iter().filter(|k| **k).count() as f64 * self.slice_ns / 1e9
    }

    /// Sum of the weights of the `(time, weight)` events in kept slices, per
    /// kept second.
    pub fn rate(&self, events: impl Iterator<Item = (u64, f64)>) -> f64 {
        events.filter(|&(t, _)| self.keeps(t)).map(|(_, w)| w).sum::<f64>() / self.kept_seconds()
    }

    /// Nearest-rank percentile over the samples in kept slices; NaN with none.
    pub fn percentile(&self, lat: &[(u64, u64)], q: f64) -> f64 {
        let mut pooled: Vec<u64> =
            lat.iter().filter(|&&(t, _)| self.keeps(t)).map(|&(_, ns)| ns).collect();
        if pooled.is_empty() {
            return f64::NAN;
        }
        pooled.sort_unstable();
        percentile(&pooled, q) as f64
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (exclusive method),
/// so `--repeat` judges spread by the same numbers the acceptance rule uses.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut data = values.to_vec();
    data.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in measurements"));
    let ld = data.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn picker_wants_ten_samples_beyond_the_percentile() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(999), Some(0.9));
        assert_eq!(highest_supported_percentile(1_000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
        assert_eq!(highest_supported_percentile(250_000), Some(0.9999));
    }

    /// Ten one-second slices at 100 calls/s and 50 us; in the slices of
    /// `slow` everything takes four times as long.
    #[allow(clippy::type_complexity)]
    fn window_with_slow_slices(slow: &[u64]) -> (Vec<(u64, u64)>, Vec<(u64, f64)>) {
        let (mut lat, mut events) = (Vec::new(), Vec::new());
        for s in 0..10u64 {
            let (calls, ns) = if slow.contains(&s) { (25, 200_000) } else { (100, 50_000) };
            for k in 0..calls {
                let t = s * 1_000_000_000 + k * (1_000_000_000 / calls);
                lat.push((t, ns + k));
                events.push((t, 1.0));
            }
        }
        (lat, events)
    }

    #[test]
    fn quiet_slices_read_the_undisturbed_part_of_the_window() {
        // Six of ten slices disturbed: a median over slices would read the
        // disturbance, the quietest three do not.
        let (lat, events) = window_with_slow_slices(&[0, 1, 4, 5, 6, 9]);
        let quiet = QuietSlices::pick(&lat, 0, 10_000_000_000, 10, 3);
        assert!((quiet.kept_seconds() - 3.0).abs() < 1e-9);
        assert!(!quiet.keeps(4_500_000_000) && quiet.keeps(2_500_000_000));
        assert!((quiet.rate(events.iter().copied()) - 100.0).abs() < 1e-9);
        assert_eq!(quiet.percentile(&lat, 0.5), 50_049.0);
        assert_eq!(quiet.percentile(&lat, 0.99), 50_098.0);
        // Undisturbed, every slice is as good as another and the rate is the rate.
        let (lat, events) = window_with_slow_slices(&[]);
        let quiet = QuietSlices::pick(&lat, 0, 10_000_000_000, 10, 3);
        assert!((quiet.rate(events.iter().copied()) - 100.0).abs() < 1e-9);
        // A change that slows every slice shows in the kept ones too.
        let (lat, events) = window_with_slow_slices(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let quiet = QuietSlices::pick(&lat, 0, 10_000_000_000, 10, 3);
        assert!((quiet.rate(events.iter().copied()) - 25.0).abs() < 1e-9);
        assert_eq!(quiet.percentile(&lat, 0.5), 200_012.0);
    }

    #[test]
    fn quiet_slices_ignore_what_is_outside_the_window_and_rank_empty_slices_last() {
        let lat = [(5, 9), (12, 7), (13, 9), (25, 1)];
        let quiet = QuietSlices::pick(&lat, 10, 20, 2, 1);
        assert!(quiet.keeps(12) && !quiet.keeps(17) && !quiet.keeps(5) && !quiet.keeps(25));
        assert_eq!(quiet.percentile(&lat, 1.0), 9.0);
        assert!(QuietSlices::pick(&[], 0, 10, 2, 1).percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
    }
}
