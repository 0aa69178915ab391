//! Order statistics over latency samples, and operation rates.

use std::time::Duration;

/// Latency samples of one operation kind, in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn with_capacity(n: usize) -> Samples {
        Samples(Vec::with_capacity(n))
    }

    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    pub fn extend(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn sum(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Nearest-rank percentile (`p` in 0..=1); 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.0.is_empty() {
            return 0;
        }
        let mut v = self.0.clone();
        v.sort_unstable();
        let rank = (p * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1]
    }

    pub fn median(&self) -> u64 {
        self.percentile(0.5)
    }

    /// The tail percentile `p` as a median over consecutive groups: the
    /// samples, in the order they were taken, are cut into as many groups of
    /// equal size as leave each ≥`MIN_BEYOND` samples beyond `p` (at most
    /// `MAX_GROUPS`), and the median of the groups' `p` percentiles is
    /// returned with the group count. A burst of host noise then moves the
    /// tail of the groups it falls in, not the reported figure.
    pub fn grouped_percentile(&self, p: f64) -> (u64, usize) {
        let n = self.0.len();
        let k = ((n as f64 * (1.0 - p)) as usize / MIN_BEYOND).clamp(1, MAX_GROUPS);
        let size = n / k;
        if size == 0 {
            return (self.percentile(p), 1);
        }
        let tails: Samples = Samples(
            self.0
                .chunks_exact(size)
                .take(k)
                .map(|g| Samples(g.to_vec()).percentile(p))
                .collect(),
        );
        (tails.median(), k)
    }
}

/// Operations per second over consecutive groups of about `RATE_GROUP` of
/// measured time. The median of the group rates is the reported rate, so a
/// stretch of host noise slows its own groups and not the figure.
#[derive(Debug, Default, Clone)]
pub struct Rates {
    rates: Vec<f64>,
    ops: u64,
    time: Duration,
}

/// Measured time per rate group.
const RATE_GROUP: Duration = Duration::from_millis(500);

impl Rates {
    /// Counts `ops` operations that completed in `time`, closing the group
    /// once it spans `RATE_GROUP`.
    pub fn add(&mut self, ops: u64, time: Duration) {
        self.ops += ops;
        self.time += time;
        if self.time >= RATE_GROUP {
            self.rates.push(self.ops as f64 / self.time.as_secs_f64());
            self.ops = 0;
            self.time = Duration::ZERO;
        }
    }

    /// Pools `other`'s closed groups with these, and its open group with
    /// this open group (whose rate stands in when no group has closed).
    pub fn merge(&mut self, other: &Rates) {
        self.rates.extend(&other.rates);
        self.ops += other.ops;
        self.time += other.time;
    }

    /// The median group rate (lower middle), or the rate of the open
    /// group when none has closed; and the count of closed groups.
    pub fn median(&self) -> (f64, usize) {
        if self.rates.is_empty() {
            return (self.ops as f64 / self.time.as_secs_f64().max(1e-9), 0);
        }
        let mut v = self.rates.clone();
        v.sort_unstable_by(f64::total_cmp);
        (v[(v.len() - 1) / 2], v.len())
    }
}

/// Samples a group must hold beyond its tail percentile.
const MIN_BEYOND: usize = 10;
/// At most this many groups: enough for a steady median, few enough that
/// each group's tail still rests on many samples.
const MAX_GROUPS: usize = 31;

/// `p` as a metric-name suffix: 0.99 → "p99", 0.999 → "p999".
pub fn pct_label(p: f64) -> String {
    let permille = (p * 1000.0).round() as u32;
    if permille.is_multiple_of(10) {
        format!("p{}", permille / 10)
    } else {
        format!("p{permille}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let mut s = Samples::default();
        for i in 1..=1000 {
            s.push(i);
        }
        assert_eq!(s.median(), 500);
        assert_eq!(s.percentile(0.99), 990);
        assert_eq!(pct_label(0.5), "p50");
        assert_eq!(pct_label(0.99), "p99");
        assert_eq!(pct_label(0.999), "p999");
    }

    #[test]
    fn grouped_tail_ignores_one_noisy_group() {
        // 31 groups of 1,000 samples; one group's tail is inflated.
        let mut s = Samples::default();
        for g in 0..31 {
            for i in 1..=1000 {
                s.push(if g == 7 && i > 900 { 1_000_000 } else { i });
            }
        }
        assert_eq!(s.grouped_percentile(0.99), (990, 31));
        // Too few samples for two groups: the plain percentile.
        let mut few = Samples::default();
        for i in 1..=100 {
            few.push(i);
        }
        assert_eq!(few.grouped_percentile(0.9), (90, 1));
    }

    #[test]
    fn rate_is_the_median_group() {
        let mut r = Rates::default();
        assert_eq!(r.median(), (0.0, 0));
        r.add(5, Duration::from_millis(100));
        assert_eq!(r.median(), (50.0, 0));
        r.add(5, Duration::from_millis(400)); // closes a group at 10 in 0.5 s
        for _ in 0..3 {
            r.add(50, Duration::from_millis(500));
        }
        r.add(1, Duration::from_secs(1)); // a stalled group
        assert_eq!(r.median(), (100.0, 5));
        let mut pooled = Rates::default();
        pooled.merge(&r);
        pooled.merge(&r);
        assert_eq!(pooled.median(), (100.0, 10));
        // Short stretches that close no group: their pooled rate.
        let (mut a, mut b) = (Rates::default(), Rates::default());
        a.add(10, Duration::from_millis(100));
        b.add(30, Duration::from_millis(300));
        a.merge(&b);
        assert_eq!(a.median(), (100.0, 0));
    }
}
