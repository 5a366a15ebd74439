//! The pool's cached log-weights with their self-normalized
//! importance-sampling (SNIS) weights as derived state.
//!
//! Between two writes the sketch reads its hypothesis many times — every
//! query and certificate mean of a round, every read radius and hypothesis
//! solve — and each read needs the same softmax of the same log-weights.
//! [`LogWeights`] normalizes once, on the first read after a write, and
//! hands every later read the same floats. Its fields are private to this
//! module: the log-weights change only through [`LogWeights::new`] and
//! [`LogWeights::values_mut`], and both leave the derived weights empty,
//! so no read can see the weights of an older state. A clone carries the
//! derived weights together with the log-weights they were computed from,
//! which is how published snapshots and the rollback checkpoint keep them.

use std::sync::OnceLock;

/// The normalized SNIS weights of a pool: `weights[i]` is the softmax of
/// the log-weights, `w_sq` the sum Σŵ² over the positive weights in slot
/// order (what every estimate's effective sample size reads),
/// `mean_shifted` the shifted normalizer mean
/// `B̂' = (1/m)Σ exp(log w_i − shift)` and `shift` the maximum log-weight.
#[derive(Debug, Clone)]
pub(crate) struct Snis {
    pub(crate) weights: Vec<f64>,
    pub(crate) w_sq: f64,
    pub(crate) mean_shifted: f64,
    pub(crate) shift: f64,
}

impl Snis {
    fn of(log_w: &[f64]) -> Self {
        let shift = log_w.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
        let mut total = 0.0;
        let mut weights = Vec::with_capacity(log_w.len());
        for &lw in log_w {
            let v = (lw - shift).exp();
            total += v;
            weights.push(v);
        }
        debug_assert!(total > 0.0 && total.is_finite());
        let mean_shifted = total / weights.len() as f64;
        let mut w_sq = 0.0;
        for v in &mut weights {
            *v /= total;
            if *v > 0.0 {
                w_sq += *v * *v;
            }
        }
        Self {
            weights,
            w_sq,
            mean_shifted,
            shift,
        }
    }
}

/// Unnormalized pool log-weights, one per slot, plus their [`Snis`]
/// weights computed at most once per state.
///
/// `OnceLock` rather than a `RefCell`, because published snapshots are
/// read from many threads at once.
#[derive(Debug, Clone)]
pub(crate) struct LogWeights {
    values: Vec<f64>,
    snis: OnceLock<Snis>,
}

impl LogWeights {
    pub(crate) fn new(values: Vec<f64>) -> Self {
        Self {
            values,
            snis: OnceLock::new(),
        }
    }

    pub(crate) fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Write access to the log-weights. Drops the derived weights, so the
    /// next read normalizes the new state.
    pub(crate) fn values_mut(&mut self) -> &mut [f64] {
        self.snis.take();
        &mut self.values
    }

    /// The SNIS weights of the current log-weights: computed by the first
    /// read after a write (`m` `exp`s and one normalization), shared by
    /// every read until the next write.
    pub(crate) fn snis(&self) -> &Snis {
        self.snis.get_or_init(|| Snis::of(&self.values))
    }
}
