//! The harness's own arithmetic: nearest-rank percentiles with the
//! "ten samples beyond" rule, medians, and the run-to-run spread the
//! benchmark contract gates on.

/// A sorted sample of latencies (or any other non-negative measurements).
#[derive(Clone, Debug, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile: the smallest sample with at least `p`% of
    /// the samples at or below it. `0.0` for an empty sample.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let rank = ((p / 100.0) * self.sorted.len() as f64).ceil() as usize;
        self.sorted[rank.clamp(1, self.sorted.len()) - 1]
    }

    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Number of samples strictly beyond the `p`th percentile's rank. A
    /// tail percentile is only trustworthy with at least ten of them.
    pub fn beyond(&self, p: f64) -> usize {
        if self.sorted.is_empty() {
            return 0;
        }
        let rank = ((p / 100.0) * self.sorted.len() as f64).ceil() as usize;
        self.sorted.len() - rank.clamp(1, self.sorted.len())
    }
}

/// The highest of `candidates` (percentiles, any order) that leaves at
/// least ten samples beyond it in a sample of `n`; `None` if none does.
pub fn highest_trustworthy_percentile(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            n.saturating_sub(rank.max(1)) >= 10
        })
        .max_by(f64::total_cmp)
}

/// Median of a handful of values (even counts average the middle pair, as
/// `statistics.median` does).
pub fn median_of(values: &[f64]) -> f64 {
    let sorted = Samples::new(values.to_vec()).sorted;
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which the benchmark
/// contract uses for run-to-run spread. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let sorted = Samples::new(values.to_vec()).sorted;
    let n = sorted.len();
    assert!(n >= 2, "quartiles need at least two values");
    let at = |quarter: usize| {
        let position = quarter * (n + 1);
        let j = (position / 4).clamp(1, n - 1);
        let delta = position as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (at(1), at(3))
}

/// One completed op of a closed-loop client.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timed {
    /// When the request was sent, in seconds since the window opened.
    pub sent_s: f64,
    /// Client-observed latency in milliseconds.
    pub ms: f64,
}

/// The steadiest part of a timed window: see [`quietest_window`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Quiet {
    /// Lowest median latency (ms) of any sub-window.
    pub p50_ms: f64,
    /// Highest completion rate (1/s) of any sub-window.
    pub per_s: f64,
    /// Ops per sub-window, and how many sub-windows were looked at.
    pub window: usize,
    pub windows: usize,
}

/// How the ops of one class follow each other, which decides how few of
/// them a sub-window may hold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// Keys or op kinds are drawn at random: a sub-window needs
    /// [`MIN_DRAWN`] ops for its median to settle.
    Drawn,
    /// The same `n` requests repeat in order, the same work every time (a
    /// pass over three query templates: 3). A sub-window holds whole cycles,
    /// so each has the same mix, and [`MIN_REPEATING`] ops are enough.
    Every(usize),
}

/// Sub-windows aimed at per timed window, and the fewest ops one may hold
/// (unless the whole window has fewer than twice that).
const SUB_WINDOWS: usize = 128;
const MIN_DRAWN: usize = 24;
const MIN_REPEATING: usize = 8;

/// The median latency and the completion rate of the **quietest
/// sub-window** of `ops` (in send order).
///
/// The reference host is a small shared VM whose speed drops by a third or
/// more for seconds at a time (README, "The host"). That disturbance is
/// one-sided — a neighbour only ever slows the program — so, as with
/// `timeit`'s "take the minimum of the repeats", the program's own cost is
/// what the window shows when it is least disturbed: a whole-window median
/// reads the host's state, which no change to the program moves.
///
/// A sub-window is `max(n / 128, 24)` consecutive ops — `max(n / 128, 8)`
/// where the same requests repeat, rounded up to whole cycles — and at most
/// `n / 2`; sub-windows start a quarter of their length apart. Reported:
/// the lowest sub-window median and the highest sub-window rate — ops over
/// the time from the first send to the last reply — each taken over all
/// sub-windows on its own.
pub fn quietest_window(ops: &[Timed], mix: Mix) -> Quiet {
    let (cycle, fewest) = match mix {
        Mix::Drawn => (1, MIN_DRAWN),
        Mix::Every(cycle) => (cycle.max(1), MIN_REPEATING),
    };
    let n = ops.len();
    if n == 0 {
        return Quiet::default();
    }
    // Fewer ops than one cycle: the whole window is the one sub-window.
    let whole_cycles = if n >= cycle { n - n % cycle } else { n };
    let window = (n / SUB_WINDOWS)
        .max(fewest)
        .min(n / 2)
        .max(1)
        .next_multiple_of(cycle)
        .min(whole_cycles);
    let step = (window / 4 / cycle * cycle).max(cycle);
    let mut quiet = Quiet {
        p50_ms: f64::INFINITY,
        per_s: 0.0,
        window,
        windows: 0,
    };
    let mut start = 0;
    while start + window <= n {
        let sub = &ops[start..start + window];
        let median = Samples::new(sub.iter().map(|op| op.ms).collect()).median();
        let last_reply = sub
            .iter()
            .map(|op| op.sent_s + op.ms / 1e3)
            .fold(f64::MIN, f64::max);
        let span_s = last_reply - sub[0].sent_s;
        quiet.p50_ms = quiet.p50_ms.min(median);
        if span_s > 0.0 {
            quiet.per_s = quiet.per_s.max(window as f64 / span_s);
        }
        quiet.windows += 1;
        start += step;
    }
    quiet
}

/// Σ stage time / whole time: the share of an end-to-end interval the
/// named stages account for.
pub fn coverage(stage_totals: &[f64], whole_total: f64) -> f64 {
    if whole_total <= 0.0 {
        return 0.0;
    }
    stage_totals.iter().sum::<f64>() / whole_total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s = Samples::new((1..=100).map(f64::from).collect());
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.percentile(99.0), 99.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert_eq!(s.percentile(0.0), 1.0);
        let odd = Samples::new(vec![5.0, 1.0, 3.0]);
        assert_eq!(odd.median(), 3.0);
        assert_eq!(odd.percentile(90.0), 5.0);
        assert_eq!(Samples::default().percentile(50.0), 0.0);
    }

    #[test]
    fn the_ten_samples_beyond_rule() {
        let s = Samples::new((1..=200).map(f64::from).collect());
        assert_eq!(s.beyond(95.0), 10);
        assert_eq!(s.beyond(99.0), 2);
        // 200 samples: p95 is the highest trustworthy tail; 120: p90.
        let menu = [50.0, 75.0, 90.0, 95.0, 99.0];
        assert_eq!(highest_trustworthy_percentile(200, &menu), Some(95.0));
        assert_eq!(highest_trustworthy_percentile(120, &menu), Some(90.0));
        assert_eq!(highest_trustworthy_percentile(1100, &menu), Some(99.0));
        assert_eq!(highest_trustworthy_percentile(25, &menu), Some(50.0));
        assert_eq!(highest_trustworthy_percentile(12, &menu), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&values);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert_eq!(median_of(&values), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    /// `count` back-to-back ops of `ms` each, the first sent at `from_s`.
    fn back_to_back(from_s: f64, count: usize, ms: f64) -> Vec<Timed> {
        (0..count)
            .map(|i| Timed {
                sent_s: from_s + i as f64 * ms / 1e3,
                ms,
            })
            .collect()
    }

    #[test]
    fn the_quietest_window_ignores_a_disturbed_stretch() {
        // 400 ops at 10 ms, then the host slows down: 600 ops at 15 ms. The
        // whole-window median reads the slow state, the quietest window the
        // fast one — and its rate is the closed loop's 1 / latency.
        let mut ops = back_to_back(0.0, 400, 10.0);
        ops.extend(back_to_back(4.0, 600, 15.0));
        let whole = Samples::new(ops.iter().map(|op| op.ms).collect()).median();
        assert_eq!(whole, 15.0);
        let quiet = quietest_window(&ops, Mix::Drawn);
        assert_eq!(quiet.window, 24);
        assert_eq!(quiet.p50_ms, 10.0);
        assert!((quiet.per_s - 100.0).abs() < 1e-6, "{}", quiet.per_s);
        // An undisturbed window reads the same either way.
        let steady = quietest_window(&back_to_back(0.0, 1000, 10.0), Mix::Drawn);
        assert_eq!(steady.p50_ms, 10.0);
        assert!((steady.per_s - 100.0).abs() < 1e-6);
    }

    #[test]
    fn sub_windows_hold_whole_op_cycles() {
        // A stream rotating over three op classes of 1, 2 and 30 ms: every
        // sub-window must hold each class equally often, so its median is
        // the middle class wherever it starts.
        let mut ops = Vec::new();
        let mut at = 0.0;
        for i in 0..100 {
            let ms = [1.0, 2.0, 30.0][i % 3];
            ops.push(Timed { sent_s: at, ms });
            at += ms / 1e3;
        }
        let quiet = quietest_window(&ops, Mix::Every(3));
        assert_eq!(quiet.window, 9);
        assert_eq!(quiet.p50_ms, 2.0);
        // 3 cycles of 33 ms each.
        assert!((quiet.per_s - 9.0 / (3.0 * 0.033)).abs() < 1e-6);
        // Sub-windows start on cycle boundaries, three ops apart.
        assert_eq!(quiet.windows, (99 - 9) / 3 + 1);
    }

    #[test]
    fn short_windows_still_report() {
        assert_eq!(quietest_window(&[], Mix::Every(3)), Quiet::default());
        // Fewer ops than two sub-windows' worth: half-length sub-windows.
        let few = quietest_window(&back_to_back(0.0, 36, 300.0), Mix::Drawn);
        assert_eq!((few.window, few.p50_ms), (18, 300.0));
        // Fewer ops than one cycle: one sub-window, the whole.
        let two = quietest_window(&back_to_back(0.0, 2, 5.0), Mix::Every(3));
        assert_eq!((two.window, two.windows, two.p50_ms), (2, 1, 5.0));
    }

    #[test]
    fn stage_coverage() {
        assert!((coverage(&[3.0, 4.0, 2.0], 10.0) - 0.9).abs() < 1e-12);
        assert_eq!(coverage(&[1.0], 0.0), 0.0);
    }
}
