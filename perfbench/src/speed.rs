//! The host's speed, measured inside each run so that timings can be
//! scaled to one nominal speed.
//!
//! On a shared VM the same binary can run about 1.8 times slower for
//! minutes at a time: every timing of every workload moves at once, and no
//! statistic of a single run absorbs it. So each run times a fixed
//! reference pass — the benchmark's own code, never the program's — between
//! its units of work, and divides its timings by how much slower than
//! nominal those passes ran. A change to the program cannot change the
//! reference pass, so it still moves the scaled timings by its full effect.

use std::hint::black_box;
use std::time::Instant;

/// Rows and columns of the reference pass's matrix: 80 KB, the size of the
/// point matrix a convex solve sweeps over |X| = 1024 points, so it fits
/// in the second-level cache but not the first, like the solvers' data.
const ROWS: usize = 1024;
const COLS: usize = 10;

/// One reference pass at nominal speed, ns: what a pass took on the
/// 2-vCPU Xeon VM the benchmark was tuned on, in its faster state. Scaled
/// timings read as that machine's would.
pub const NOMINAL_PASS_NS: f64 = 18_000.0;

/// Share of the slowest passes left out of the mean: a pass the scheduler
/// preempted says nothing about the core's speed.
const TRIM: f64 = 0.02;

/// Reference-pass timings of one thread.
pub struct Speed {
    x: Vec<f64>,
    w: [f64; COLS],
    /// ns per pass, one entry per pass.
    passes: Vec<u32>,
}

impl Default for Speed {
    fn default() -> Self {
        let x = (0..ROWS * COLS)
            .map(|i| (i * 7919 % 1000) as f64 / 1000.0 - 0.5)
            .collect();
        let w = std::array::from_fn(|j| j as f64 / 10.0 - 0.3);
        Self {
            x,
            w,
            passes: Vec::new(),
        }
    }
}

impl Speed {
    /// Time `n` reference passes after one untimed pass, and return their
    /// slowdown: the host's speed just then. The untimed pass brings the
    /// matrix back into cache, so a timed pass does not depend on how much
    /// of the cache the program's work just used.
    pub fn sample(&mut self, n: usize) -> f64 {
        self.pass();
        let mut total = 0;
        for _ in 0..n {
            let t = Instant::now();
            self.pass();
            let ns = u32::try_from(t.elapsed().as_nanos()).unwrap_or(u32::MAX);
            self.passes.push(ns);
            total += u64::from(ns);
        }
        total as f64 / n as f64 / NOMINAL_PASS_NS
    }

    /// One pass: the logistic-loss gradient over the matrix, the kind of
    /// work the convex solvers do.
    fn pass(&self) {
        let mut g = [0.0f64; COLS];
        for row in black_box(&self.x).chunks_exact(COLS) {
            let z: f64 = row.iter().zip(&self.w).map(|(a, b)| a * b).sum();
            let s = 1.0 / (1.0 + (-z).exp()) - 0.5;
            for (gi, xi) in g.iter_mut().zip(row) {
                *gi += s * xi;
            }
        }
        black_box(g);
    }

    pub fn merge(&mut self, other: Speed) {
        self.passes.extend(other.passes);
    }

    pub fn passes(&self) -> usize {
        self.passes.len()
    }

    /// Mean ns per pass, leaving out the slowest `TRIM` share; NaN
    /// without any pass.
    fn pass_ns(&self) -> f64 {
        let mut ns = self.passes.clone();
        ns.sort_unstable();
        let kept = &ns[..ns.len() - (ns.len() as f64 * TRIM) as usize];
        kept.iter().map(|&v| f64::from(v)).sum::<f64>() / kept.len() as f64
    }

    /// How many times slower than nominal the host ran: divide a timing by
    /// it, or multiply a rate by it, to scale it to nominal speed. NaN
    /// without any pass, which fails the run.
    pub fn slowdown(&self) -> f64 {
        self.pass_ns() / NOMINAL_PASS_NS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trimmed_mean_drops_preempted_passes() {
        let s = Speed {
            passes: (0..98)
                .map(|_| 18_000)
                .chain([1_000_000, 2_000_000])
                .collect(),
            ..Speed::default()
        };
        assert_eq!(s.pass_ns(), NOMINAL_PASS_NS);
        assert_eq!(s.slowdown(), 1.0);
        assert!(Speed::default().slowdown().is_nan());
    }

    #[test]
    fn sampling_records_every_pass() {
        let mut s = Speed::default();
        let local = s.sample(3);
        assert_eq!(s.passes(), 3);
        assert!(s.pass_ns() > 0.0);
        assert!((local - s.slowdown()).abs() <= 1e-9 * local);
    }
}
