//! What one run prints: context lines, every metric by name and unit with
//! the sample count behind it, the output checks, and — as the last line —
//! the JSON result.

use crate::gen::Gen;
use std::fmt::Write as _;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// What the value rests on, e.g. `n=1650 free answers`.
    pub basis: String,
}

#[derive(Default)]
pub struct Report {
    pub context: Vec<String>,
    pub metrics: Vec<Metric>,
    pub checks: Vec<(String, bool)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, basis: String) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            basis,
        });
    }

    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.context.push(line.into());
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok) && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Print the report; the JSON result is the last line of stdout.
    pub fn print(&self) {
        for line in &self.context {
            println!("# {line}");
        }
        for m in &self.metrics {
            println!("{:<40} {:>16} {:<15} {}", m.name, m.value, m.unit, m.basis);
        }
        for (name, ok) in &self.checks {
            println!("check {:<60} {}", name, if *ok { "ok" } else { "FAILED" });
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { -1.0 };
            write!(
                json,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
            .expect("writing to a String cannot fail");
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// Nearest-rank percentile of `samples` (sorted in place); `None` unless at
/// least ten samples lie beyond it on its tail (above it for `q` ≥ 0.5,
/// below it otherwise), the least a percentile can rest on.
pub fn percentile(samples: &mut [f64], q: f64) -> Option<f64> {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let rank = ((n as f64 * q).ceil() as usize).max(1);
    let beyond = if q < 0.5 {
        rank - 1
    } else {
        n.saturating_sub(rank)
    };
    (beyond >= 10).then(|| samples[rank - 1])
}

/// A uniform sample of at most `cap` values of a stream (Vitter's
/// Algorithm R), so a long serving run's per-answer latencies take memory
/// independent of its throughput.
pub struct Reservoir<T> {
    cap: usize,
    seen: u64,
    items: Vec<T>,
    gen: Gen,
}

impl<T> Reservoir<T> {
    pub fn new(cap: usize, gen: Gen) -> Self {
        Self {
            cap,
            seen: 0,
            items: Vec::with_capacity(cap),
            gen,
        }
    }

    pub fn push(&mut self, value: T) {
        self.seen += 1;
        if self.items.len() < self.cap {
            self.items.push(value);
        } else {
            let j = self.gen.below(self.seen as usize);
            if j < self.cap {
                self.items[j] = value;
            }
        }
    }

    pub fn into_items(self) -> Vec<T> {
        self.items
    }
}

/// Median of `values` (sorted in place).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), when the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The commit of the checkout under test, read from `.git` in the working
/// directory, or `unknown` in a source checkout without history.
pub fn commit_id() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let head = read(".git/HEAD");
    match head.as_deref().and_then(|h| h.strip_prefix("ref: ")) {
        Some(name) => read(&format!(".git/{name}")),
        None => head,
    }
    .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let mut s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut s, 0.5), Some(50.0));
        assert_eq!(percentile(&mut s, 0.9), Some(90.0));
        assert_eq!(percentile(&mut s, 0.99), None);
        // p10 of 100 samples has only nine below it; of 110, ten.
        assert_eq!(percentile(&mut s, 0.1), None);
        let mut more: Vec<f64> = (1..=110).map(f64::from).collect();
        assert_eq!(percentile(&mut more, 0.1), Some(11.0));
        let mut few: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&mut few, 0.5), Some(10.0));
        assert_eq!(percentile(&mut few, 0.9), None);
        assert_eq!(percentile(&mut few[..19], 0.5), None);
    }

    #[test]
    fn reservoir_keeps_a_bounded_uniform_sample() {
        let mut r = Reservoir::new(1000, Gen::new(1, 0));
        (0..100_000).for_each(|v| r.push(v));
        let mut items: Vec<f64> = r.into_items().into_iter().map(|v| v as f64).collect();
        assert_eq!(items.len(), 1000);
        let p50 = percentile(&mut items, 0.5).expect("enough samples");
        assert!((40_000.0..60_000.0).contains(&p50), "{p50}");
    }

    #[test]
    fn medians() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
