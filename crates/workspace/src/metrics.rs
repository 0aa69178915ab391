//! Workspace-level observability: a lock-free latency histogram and the
//! [`WorkspaceMetrics`] snapshot.
//!
//! The empirical-parser literature evaluates incremental parsers on two
//! axes — sustained throughput and *bounded per-edit latency* — so the
//! workspace records every reparse **cycle**'s service time (one cycle
//! incorporates every pending edit coalesced into its damage region) in a
//! log-bucketed histogram with 16 linear sub-buckets per octave (≤ ~6%
//! relative error), cheap enough to leave on in production: one relaxed
//! atomic increment per cycle.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Linear sub-buckets per power-of-two octave (resolution trade-off).
const SUB_BITS: u32 = 4;
const SUBS: usize = 1 << SUB_BITS; // 16
/// Octaves above the linear range; 2^(4+60) ns ≈ 36 years, plenty.
const OCTAVES: usize = 60;
const BUCKETS: usize = SUBS + OCTAVES * SUBS;

/// A concurrent log-linear histogram of durations.
pub struct LatencyHistogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }

    fn index(ns: u64) -> usize {
        if ns < SUBS as u64 {
            return ns as usize;
        }
        let msb = 63 - ns.leading_zeros(); // >= SUB_BITS
        let octave = (msb - SUB_BITS) as usize;
        let sub = ((ns >> octave) - SUBS as u64) as usize; // 0..16
        (SUBS + octave.min(OCTAVES - 1) * SUBS + sub).min(BUCKETS - 1)
    }

    /// Bucket midpoint for reconstruction, inverse of [`Self::index`].
    fn value(ix: usize) -> u64 {
        if ix < SUBS {
            return ix as u64;
        }
        let octave = (ix - SUBS) / SUBS;
        let sub = ((ix - SUBS) % SUBS) as u64;
        // Midpoint of [ (16+sub) << octave, (16+sub+1) << octave ).
        ((2 * (SUBS as u64 + sub) + 1) << octave) / 2
    }

    /// Records one observation.
    pub fn record(&self, d: Duration) {
        let ns = d.as_nanos().min(u64::MAX as u128) as u64;
        self.buckets[Self::index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean recorded duration (zero when empty).
    pub fn mean(&self) -> Duration {
        let n = self.count();
        if n == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.sum_ns.load(Ordering::Relaxed) / n)
    }

    /// The `p`-quantile (`0.0..=1.0`) of recorded durations, to bucket
    /// resolution. Zero when empty.
    pub fn percentile(&self, p: f64) -> Duration {
        let total = self.count();
        if total == 0 {
            return Duration::ZERO;
        }
        let target = ((p.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (ix, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return Duration::from_nanos(Self::value(ix));
            }
        }
        Duration::from_nanos(Self::value(BUCKETS - 1))
    }
}

/// A point-in-time snapshot of workspace health (gauges are racy reads;
/// counters are exact).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkspaceMetrics {
    /// Documents currently open (racy gauge: counts sessions alive on
    /// their worker shards, sampled without stopping them).
    pub docs_open: usize,
    /// Edits fed into sessions since the workspace started. With
    /// coalescing this is no longer the reparse count — see
    /// [`Self::reparses`] and [`Self::coalesced_edits`].
    pub edits_applied: u64,
    /// Reparse cycles run across all documents. Under coalescing many
    /// edits share one cycle, so `reparses <= edits_applied`.
    pub reparses: u64,
    /// Edits still refused by their tree when their service run finished
    /// (Section 4.3 recovery); retried by later cycles, so one edit can
    /// be counted refused more than once.
    pub edits_refused: u64,
    /// Edits that rode a reparse cycle started by an earlier edit — the
    /// work the coalescer elided: `edits_applied - reparses` in the
    /// steady state. A burst of self-cancelling edits shows up here.
    pub coalesced_edits: u64,
    /// Documents popped from a *foreign* shard's run-queue by an idle
    /// worker since startup (the scheduler-level event).
    pub steals: u64,
    /// Document ownership rebinds caused by steals (the document-level
    /// event: the mailbox's owner shard changed and its migration epoch
    /// was bumped).
    pub migrations: u64,
    /// Documents poisoned by a panicking operation and dropped.
    pub docs_poisoned: u64,
    /// Wall-clock since the workspace started.
    pub elapsed: Duration,
    /// `edits_applied / elapsed` — the sustained-throughput axis.
    pub edits_per_sec: f64,
    /// Commands queued in document mailboxes right now, summed over
    /// shards (racy gauge; documents already checked out by a worker
    /// contribute nothing). Equals `queue_depth_per_shard.iter().sum()`.
    pub queue_depth: usize,
    /// Mailbox commands charged to each document's current owner shard
    /// (racy gauge) — the live view of scheduling imbalance that
    /// stealing exists to flatten.
    pub queue_depth_per_shard: Vec<usize>,
    /// `busiest_shard_busy / elapsed`: 1.0 means one shard was busy the
    /// entire wall-clock (perfectly serial); with even load over S
    /// shards it approaches `busy_total / (S * elapsed)`. Note `elapsed`
    /// spans the workspace lifetime — benches computing a measured-window
    /// imbalance should difference `shard_busy` snapshots instead.
    pub imbalance: f64,
    /// Per-shard wall-clock spent executing commands.
    pub shard_busy: Vec<Duration>,
    /// Median per-**cycle** service latency (pending-edit batch + one
    /// reparse on the owning shard).
    pub p50: Duration,
    /// 95th-percentile per-cycle service latency.
    pub p95: Duration,
    /// 99th-percentile per-cycle service latency.
    pub p99: Duration,
    /// Semantic queries answered since the workspace started (refused
    /// queries — unknown, poisoned, or without semantics — not counted).
    pub queries: u64,
    /// Median semantic-query service latency (evaluation on the caller's
    /// thread; queries never queue).
    pub query_p50: Duration,
    /// 95th-percentile semantic-query service latency.
    pub query_p95: Duration,
    /// 99th-percentile semantic-query service latency.
    pub query_p99: Duration,
    /// Queries answered on the caller's thread from a published document
    /// snapshot — the read path that never enters a mailbox. Every
    /// answered query is one, so this equals `queries`; the two are kept
    /// apart so a read-share gauge (`snapshot_reads / queries`) stays
    /// defined.
    pub snapshot_reads: u64,
    /// Maximum staleness observed at any snapshot read, in apply
    /// commands: accepted-but-unpublished applies at the moment of the
    /// read (0 = every read saw the newest accepted write).
    pub snapshot_lag: u64,
    /// Dag versions currently pinned by live snapshots, summed over open
    /// documents (racy gauge, sampled per document at its last publish).
    /// Each pinned version holds that document's collector back from
    /// recycling the node slots the version can still see.
    pub pinned_versions: usize,
    /// Grammar updates installed through this workspace's registry
    /// ([`crate::Workspace::update_grammar`] calls that succeeded).
    pub grammar_updates: u64,
    /// Session-level table adoptions: reparse cycles (broadcast-triggered
    /// or organic) that picked up a new table epoch.
    pub grammar_swaps: u64,
    /// Highest table epoch installed by this workspace's grammar updates
    /// (0 until the first update).
    pub table_epoch: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_value_roundtrip_within_resolution() {
        for ns in [
            0u64,
            1,
            7,
            15,
            16,
            17,
            100,
            999,
            12_345,
            1 << 30,
            u64::MAX / 2,
        ] {
            let v = LatencyHistogram::value(LatencyHistogram::index(ns));
            let err = (v as f64 - ns as f64).abs() / (ns.max(1) as f64);
            assert!(err <= 0.07, "ns={ns} reconstructed as {v} (err {err:.3})");
        }
    }

    #[test]
    fn indexes_are_monotone() {
        let mut last = 0;
        for ns in (0..1_000_000u64).step_by(997) {
            let ix = LatencyHistogram::index(ns);
            assert!(ix >= last, "index must not decrease (ns={ns})");
            last = ix;
        }
    }

    #[test]
    fn percentiles_of_known_distribution() {
        let h = LatencyHistogram::new();
        // 90 fast ops at ~10µs, 10 slow ops at ~1ms.
        for _ in 0..90 {
            h.record(Duration::from_micros(10));
        }
        for _ in 0..10 {
            h.record(Duration::from_millis(1));
        }
        assert_eq!(h.count(), 100);
        let p50 = h.percentile(0.50).as_nanos() as f64;
        assert!((p50 - 10_000.0).abs() / 10_000.0 < 0.1, "p50 {p50}");
        let p99 = h.percentile(0.99).as_nanos() as f64;
        assert!((p99 - 1_000_000.0).abs() / 1_000_000.0 < 0.1, "p99 {p99}");
        assert!(h.mean() > Duration::from_micros(10));
        assert!(h.mean() < Duration::from_millis(1));
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.percentile(0.5), Duration::ZERO);
        assert_eq!(h.mean(), Duration::ZERO);
    }
}
