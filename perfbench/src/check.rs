//! The output check every operation passes through: the histogram an
//! engine returns must equal, bin for bin, the reference implementation's
//! histogram over the same generated events (regular bins, underflow and
//! overflow, as `hepbench_core::validate::diff` compares them).
//!
//! This does **not** compare the running moments (`sum`/`sum2`) of a
//! `Histogram`: full equality is the determinism test of the repository's
//! own suite, and the benchmark does not gate it.

use hep_model::Event;
use hepbench_core::{reference, validate, QueryId, ALL_QUERIES};
use physics::Histogram;

/// Reference histograms of every output over one data set.
pub struct Oracle {
    expected: Vec<(QueryId, Histogram)>,
}

impl Oracle {
    /// Runs the reference implementation of every output over `events`.
    pub fn new(events: &[Event]) -> Oracle {
        Oracle {
            expected: ALL_QUERIES
                .iter()
                .map(|&q| (q, reference::run(q, events).hist))
                .collect(),
        }
    }

    /// Whether `got` matches the reference for `q`.
    pub fn matches(&self, q: QueryId, got: &Histogram) -> bool {
        let (_, expected) = self
            .expected
            .iter()
            .find(|(id, _)| *id == q)
            .expect("the oracle covers every output");
        histograms_match(q, got, expected)
    }
}

/// Bin-for-bin equality of counts, underflow and overflow.
pub fn histograms_match(q: QueryId, got: &Histogram, expected: &Histogram) -> bool {
    let v = validate::diff("perfbench", q, got, expected);
    v.exact && v.max_bin_delta == 0 && v.total_delta == 0
}

/// The histogram a compiled plan's bin indices describe.
pub fn histogram_of_bins(q: QueryId, bins: &[i64]) -> Histogram {
    let mut h = Histogram::new(q.hist_spec());
    for &b in bins {
        h.add_bin_count(b, 1);
    }
    h
}
