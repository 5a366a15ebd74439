//! Serving statistics: per-analyst outcome counts and writer-queue
//! contention samples.

use pmw_obs::nearest_rank;

/// `samples` in ascending order, for [`nearest_rank`].
fn sorted(mut samples: Vec<u64>) -> Vec<u64> {
    samples.sort_unstable();
    samples
}

/// One analyst's (tenant's) serving record.
#[derive(Debug, Clone, Default)]
pub struct AnalystStats {
    /// Queries answered free from the hypothesis (SV `⊥`).
    pub free: u64,
    /// Queries that committed an MW update (SV `⊤`, oracle answered).
    pub updates: u64,
    /// `⊤` rounds whose commit failed (oracle/update error) — the round
    /// is burned, the analyst got the error.
    pub failed: u64,
    /// Requests refused up front because the tenant's privacy share
    /// could not cover another update.
    pub rejected: u64,
    /// Writer-queue wait of each of this analyst's requests, in
    /// nanoseconds (enqueue at the handle to dequeue by the writer) —
    /// the contention signal a saturated writer shows first.
    pub wait_ns: Vec<u64>,
}

impl AnalystStats {
    /// p99 writer-queue wait for this analyst, ns (0 when idle).
    pub fn wait_p99_ns(&self) -> u64 {
        nearest_rank(&sorted(self.wait_ns.clone()), 99.0)
    }

    /// Requests this analyst had answered (any outcome).
    pub fn requests(&self) -> u64 {
        self.free + self.updates + self.failed + self.rejected
    }
}

/// The writer thread's full serving record, returned at join.
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Per-analyst outcome counts and wait samples, indexed by analyst id.
    pub per_analyst: Vec<AnalystStats>,
    /// Batches the writer drained (each cost at most one SV noise draw
    /// before any `⊤` splits it).
    pub batches: u64,
    /// Requests dequeued in total.
    pub requests: u64,
    /// Writer-side re-screens of stale requests (screened against a
    /// snapshot older than the current hypothesis state).
    pub rescreens: u64,
    /// Requests answered `Halted` because the update budget was spent.
    pub halted_replies: u64,
}

impl ServeStats {
    /// p50 writer-queue wait across every request, ns.
    pub fn wait_p50_ns(&self) -> u64 {
        nearest_rank(&sorted(self.all_waits()), 50.0)
    }

    /// p99 writer-queue wait across every request, ns.
    pub fn wait_p99_ns(&self) -> u64 {
        nearest_rank(&sorted(self.all_waits()), 99.0)
    }

    fn all_waits(&self) -> Vec<u64> {
        self.per_analyst
            .iter()
            .flat_map(|a| a.wait_ns.iter().copied())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let waits = |wait_ns: Vec<u64>| AnalystStats {
            wait_ns,
            ..Default::default()
        };
        assert_eq!(waits(vec![]).wait_p99_ns(), 0);
        assert_eq!(waits(vec![7]).wait_p99_ns(), 7);
        assert_eq!(waits((1..=100).rev().collect()).wait_p99_ns(), 99);
        // 1..=100, unsorted and split across two analysts.
        let stats = ServeStats {
            per_analyst: vec![
                waits((51..=100).rev().collect()),
                waits((1..=50).rev().collect()),
            ],
            ..Default::default()
        };
        assert_eq!(stats.wait_p50_ns(), 50);
        assert_eq!(stats.wait_p99_ns(), 99);
    }

    #[test]
    fn stats_aggregate_across_analysts() {
        let mut stats = ServeStats::default();
        stats.per_analyst.push(AnalystStats {
            free: 3,
            wait_ns: vec![10, 20],
            ..Default::default()
        });
        stats.per_analyst.push(AnalystStats {
            updates: 1,
            wait_ns: vec![1000],
            ..Default::default()
        });
        assert_eq!(stats.per_analyst[0].requests(), 3);
        assert_eq!(stats.wait_p99_ns(), 1000);
        assert!(stats.wait_p50_ns() <= stats.wait_p99_ns());
    }
}
