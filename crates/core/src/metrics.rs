//! Per-stage instrumentation of the reparse pipeline.
//!
//! Every [`crate::Session::reparse`] produces a [`ReparseReport`] breaking
//! the cycle into its stages (buffer mutation → relex → incremental GLR →
//! tree maintenance)
//! with monotonic timings and the parser's effort counters, and the session
//! accumulates them into a [`SessionMetrics`]. Everything here is plain
//! `std` — counters and [`std::time::Instant`] differences — so the
//! instrumentation adds no dependencies and negligible overhead.

use crate::parser::IglrRunStats;
use std::time::Duration;

/// Per-stage account of one [`crate::Session::reparse`] cycle.
///
/// Timings are wall-clock durations measured with [`std::time::Instant`];
/// `relex` and `parse` sum over every attempt of the prefix-retry loop,
/// `maintenance` covers periodic rebalancing and garbage collection.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReparseReport {
    /// Incorporation attempts made (1 when the full pending set parses).
    pub attempts: usize,
    /// Pending edits folded into the tree this cycle.
    pub incorporated_edits: usize,
    /// Time spent mutating the text buffer: the edits applied since the
    /// previous cycle plus any prefix rewind/replay done by the retry loop.
    /// Stays O(log N + edit sizes) now that the buffer is a chunked rope.
    pub buffer: Duration,
    /// Time spent in incremental relexing, over all attempts.
    pub relex: Duration,
    /// Time spent in the incremental GLR parser, over all attempts.
    pub parse: Duration,
    /// Time spent on dag maintenance (rebalancing, garbage collection).
    pub maintenance: Duration,
    /// Time spent in the attached incremental semantic pass (zero when no
    /// pass is attached or nothing was incorporated).
    pub sem: Duration,
    /// Wall-clock time of the whole cycle.
    pub total: Duration,
    /// Effort counters of the successful parse (zeroed when none succeeded).
    pub parser: IglrRunStats,
    /// Arena size after the cycle (a Section 5-style space metric).
    pub arena_nodes: usize,
    /// Whether this cycle ran the periodic full rebalance.
    pub rebalanced: bool,
    /// Whether this cycle collected arena garbage.
    pub gc_ran: bool,
    /// Node slots taken from the allocator this cycle (0 once the free
    /// list is warm — the zero-alloc steady-state regression metric).
    pub fresh_node_slots: u64,
    /// Node slots served from the free list this cycle.
    pub recycled_node_slots: u64,
    /// Bytes held by the arena's shared kid slab after the cycle (gauge).
    pub kid_slab_bytes: u64,
    /// Merge-table probe steps taken this cycle.
    pub merge_probes: u64,
    /// Merge-table key-storage heap allocations this cycle (0 once warm).
    pub merge_key_allocs: u64,
    /// Dag nodes the semantic pass (re)analyzed this cycle.
    pub sem_reanalyzed: u64,
    /// Scope contours the semantic pass reused without touching.
    pub sem_contours_reused: u64,
    /// Retained choice points whose selection flipped in place.
    pub sem_flips: u64,
    /// Whether the semantic pass fell back to a from-scratch rebuild.
    pub sem_full_rebuild: bool,
    /// Whether this cycle adopted a new table epoch from the registry (a
    /// grammar hot-swap: full-damage reparse of the retained token tape).
    pub grammar_swapped: bool,
    /// Previous-version nodes the cycle's successful parses retained
    /// instead of rebuilding (the paper's explicit node retention): the
    /// adoption parse of a grammar swap plus the incorporating reparse.
    pub nodes_retained: usize,
}

/// Cumulative pipeline metrics of one session.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionMetrics {
    /// Reparse cycles observed (successful or refused).
    pub reparses: u64,
    /// Incorporation attempts across all cycles.
    pub attempts: u64,
    /// Pending edits folded into the tree across all cycles.
    pub edits_incorporated: u64,
    /// Edits that shared a cycle with an earlier pending edit instead of
    /// paying their own: `edits_incorporated - cycles_that_incorporated`.
    /// Nonzero whenever the service layer (or a caller batching edits
    /// before calling reparse) coalesced a burst into one damage region.
    pub edits_coalesced: u64,
    /// Total buffer-mutation time.
    pub buffer: Duration,
    /// Total relex time.
    pub relex: Duration,
    /// Total incremental-parse time.
    pub parse: Duration,
    /// Total maintenance time.
    pub maintenance: Duration,
    /// Total semantic-pass time.
    pub sem: Duration,
    /// Total reparse wall-clock time.
    pub total: Duration,
    /// Full rebalances run.
    pub rebalances: u64,
    /// Garbage collections run.
    pub gcs: u64,
    /// Total node slots taken from the allocator.
    pub fresh_node_slots: u64,
    /// Total node slots served from the free list.
    pub recycled_node_slots: u64,
    /// Total merge-table probe steps.
    pub merge_probes: u64,
    /// Total merge-table key-storage heap allocations.
    pub merge_key_allocs: u64,
    /// Total dag nodes (re)analyzed by the semantic pass.
    pub sem_reanalyzed: u64,
    /// Total scope contours reused untouched by the semantic pass.
    pub sem_contours_reused: u64,
    /// Total in-place selection flips.
    pub sem_flips: u64,
    /// From-scratch semantic rebuilds (the incrementality escape hatch).
    pub sem_full_rebuilds: u64,
    /// Grammar hot-swaps adopted (table epoch changes).
    pub grammar_swaps: u64,
    /// Total previous-version nodes retained by successful parses.
    pub nodes_retained: u64,
}

impl SessionMetrics {
    /// Folds one cycle's report into the running totals.
    pub fn absorb(&mut self, r: &ReparseReport) {
        self.reparses += 1;
        self.attempts += r.attempts as u64;
        self.edits_incorporated += r.incorporated_edits as u64;
        self.edits_coalesced += (r.incorporated_edits.saturating_sub(1)) as u64;
        self.buffer += r.buffer;
        self.relex += r.relex;
        self.parse += r.parse;
        self.maintenance += r.maintenance;
        self.sem += r.sem;
        self.total += r.total;
        self.rebalances += u64::from(r.rebalanced);
        self.gcs += u64::from(r.gc_ran);
        self.fresh_node_slots += r.fresh_node_slots;
        self.recycled_node_slots += r.recycled_node_slots;
        self.merge_probes += r.merge_probes;
        self.merge_key_allocs += r.merge_key_allocs;
        self.sem_reanalyzed += r.sem_reanalyzed;
        self.sem_contours_reused += r.sem_contours_reused;
        self.sem_flips += r.sem_flips;
        self.sem_full_rebuilds += u64::from(r.sem_full_rebuild);
        self.grammar_swaps += u64::from(r.grammar_swapped);
        self.nodes_retained += r.nodes_retained as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_accumulates() {
        let mut m = SessionMetrics::default();
        let r = ReparseReport {
            attempts: 3,
            incorporated_edits: 4,
            buffer: Duration::from_micros(2),
            relex: Duration::from_micros(5),
            parse: Duration::from_micros(7),
            maintenance: Duration::from_micros(1),
            sem: Duration::from_micros(3),
            total: Duration::from_micros(20),
            rebalanced: true,
            fresh_node_slots: 4,
            recycled_node_slots: 9,
            merge_probes: 11,
            merge_key_allocs: 1,
            sem_reanalyzed: 6,
            sem_contours_reused: 5,
            sem_flips: 1,
            sem_full_rebuild: true,
            grammar_swapped: true,
            nodes_retained: 13,
            ..ReparseReport::default()
        };
        m.absorb(&r);
        m.absorb(&r);
        assert_eq!(m.reparses, 2);
        assert_eq!(m.attempts, 6);
        assert_eq!(m.edits_incorporated, 8);
        assert_eq!(m.edits_coalesced, 6);
        assert_eq!(m.buffer, Duration::from_micros(4));
        assert_eq!(m.relex, Duration::from_micros(10));
        assert_eq!(m.parse, Duration::from_micros(14));
        assert_eq!(m.sem, Duration::from_micros(6));
        assert_eq!(m.total, Duration::from_micros(40));
        assert_eq!(m.rebalances, 2);
        assert_eq!(m.gcs, 0);
        assert_eq!(m.fresh_node_slots, 8);
        assert_eq!(m.recycled_node_slots, 18);
        assert_eq!(m.merge_probes, 22);
        assert_eq!(m.merge_key_allocs, 2);
        assert_eq!(m.sem_reanalyzed, 12);
        assert_eq!(m.sem_contours_reused, 10);
        assert_eq!(m.sem_flips, 2);
        assert_eq!(m.sem_full_rebuilds, 2);
        assert_eq!(m.grammar_swaps, 2);
        assert_eq!(m.nodes_retained, 26);
    }
}
