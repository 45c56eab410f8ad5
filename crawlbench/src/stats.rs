//! The benchmark's own arithmetic: medians and percentiles, the
//! "highest percentile with ten samples beyond it" rule, open-loop
//! latency from due times, and self time under overlapping child spans.

/// Samples that must lie beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// Percentiles the benchmark may report, lowest first.
const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Nearest-rank percentile `p` (0..=100) of `xs`; `None` when empty.
/// Infinite samples (failed requests) sort last, so they count as
/// missing every percentile they reach.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank(v.len(), p) - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest percentile of [`LADDER`] that still has at least
/// [`MIN_TAIL`] samples beyond it, or `None` when even the median has
/// too few.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| samples_beyond(n, p) >= MIN_TAIL)
}

/// Median of `xs` (mean of the middle two for even counts); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// First and third quartile by the exclusive method (Python's
/// `statistics.quantiles(xs, n=4)`); `None` below two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    // Python's formula with n = 4 cuts: j = k(n+1) div 4, clamped to
    // [1, n-1], interpolating (or extrapolating) by delta / 4.
    let q = |k: usize| {
        let m = k * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// One request of an open-loop generator, in seconds from the
/// generator's start.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopSample {
    /// When the schedule said to send it.
    pub due: f64,
    /// When the generator actually sent it.
    pub issued: f64,
    /// When it completed; `None` if it failed.
    pub done: Option<f64>,
}

/// Latencies measured from each request's due time (a failed request is
/// `f64::INFINITY`, so it misses every percentile), plus how late the
/// generator ran: the largest `issued - due`.
pub fn open_loop_latencies(samples: &[OpenLoopSample]) -> (Vec<f64>, f64) {
    let lat = samples
        .iter()
        .map(|s| s.done.map_or(f64::INFINITY, |d| d - s.due))
        .collect();
    let late = samples.iter().map(|s| s.issued - s.due).fold(0.0, f64::max);
    (lat, late)
}

/// A span in nanoseconds; `parent` is an index into the same slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Start time.
    pub start: u64,
    /// End time (≥ start).
    pub end: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
}

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children covers. Children may overlap each
/// other and may stick out of the parent; only the covered part of the
/// parent's own interval is subtracted.
pub fn self_times(spans: &[Interval]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_samples_beyond_picks_the_percentile() {
        // 19 samples: the median (rank 10) leaves 9 beyond — too few.
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        // p90 of 99 is rank 90, leaving 9; of 100 it is rank 90, leaving 10.
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(0, 50.0), 0);
    }

    #[test]
    fn nearest_rank_percentile_and_failures() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        // A failed request is infinite and lands in the tail.
        let mut ys = xs.clone();
        ys[0] = f64::INFINITY;
        assert_eq!(percentile(&ys, 100.0), Some(f64::INFINITY));
        assert_eq!(percentile(&ys, 50.0), Some(51.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0]), Some((2.0, 8.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn open_loop_latency_counts_from_due_time() {
        // A 50 ms schedule whose generator stalled: the second request
        // went out 120 ms late, the third 70 ms late, and the fourth
        // failed. Latency runs from the due time, so the stall shows in
        // every request it delayed.
        let s = [
            OpenLoopSample {
                due: 0.00,
                issued: 0.00,
                done: Some(0.01),
            },
            OpenLoopSample {
                due: 0.05,
                issued: 0.17,
                done: Some(0.18),
            },
            OpenLoopSample {
                due: 0.10,
                issued: 0.18,
                done: Some(0.19),
            },
            OpenLoopSample {
                due: 0.15,
                issued: 0.19,
                done: None,
            },
        ];
        let (lat, late) = open_loop_latencies(&s);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(close(lat[0], 0.01));
        assert!(close(lat[1], 0.13));
        assert!(close(lat[2], 0.09));
        assert_eq!(lat[3], f64::INFINITY);
        assert!(close(late, 0.12));
    }

    #[test]
    fn self_time_with_overlapping_children() {
        // Parent [0, 100); children [10, 40) and [30, 60) overlap, so
        // they cover [10, 60) = 50; a child [90, 130) sticks out and
        // covers only [90, 100) = 10. Parent self time: 100 - 60 = 40.
        let spans = [
            Interval {
                start: 0,
                end: 100,
                parent: None,
            },
            Interval {
                start: 10,
                end: 40,
                parent: Some(0),
            },
            Interval {
                start: 30,
                end: 60,
                parent: Some(0),
            },
            Interval {
                start: 90,
                end: 130,
                parent: Some(0),
            },
            // A grandchild reduces its own parent only.
            Interval {
                start: 15,
                end: 20,
                parent: Some(1),
            },
        ];
        assert_eq!(self_times(&spans), vec![40, 25, 30, 40, 5]);
    }

    #[test]
    fn self_time_with_nested_and_identical_children() {
        let spans = [
            Interval {
                start: 0,
                end: 10,
                parent: None,
            },
            Interval {
                start: 2,
                end: 8,
                parent: Some(0),
            },
            Interval {
                start: 3,
                end: 5,
                parent: Some(0),
            },
            Interval {
                start: 2,
                end: 8,
                parent: Some(0),
            },
        ];
        assert_eq!(self_times(&spans)[0], 4);
    }
}
