//! Self-tests of the benchmark: the output check catches a corrupted
//! histogram, the serving schedule is a pure function of its seed, and
//! the exact counts repeat.

use std::sync::Arc;

use hep_model::DatasetSpec;
use hepbench_core::adapters::ExecEnv;
use hepbench_core::engine_api::{engine_for_compiled, QuerySpec};
use hepbench_core::runner::System;
use hepbench_core::QueryId;
use hepquery_perfbench::check::{histogram_of_bins, Oracle};
use hepquery_perfbench::data;
use hepquery_perfbench::layers::{self, Checks};
use hepquery_perfbench::serving;

fn small() -> data::Dataset {
    let spec = DatasetSpec {
        n_events: 512,
        row_group_size: 4,
        seed: 0x5EED,
    };
    data::build(spec, None, None).0
}

#[test]
fn the_output_check_catches_a_corrupted_histogram() {
    let d = small();
    let oracle = Oracle::new(&d.events);
    let engine = engine_for_compiled(System::Presto, Arc::clone(&d.table));
    for q in [QueryId::Q1, QueryId::Q6a] {
        let run = engine
            .execute(&QuerySpec::benchmark(q), &ExecEnv::default())
            .expect("the query runs");
        assert!(oracle.matches(q, &run.histogram), "{} must match", q.name());

        // One extra entry in a regular bin.
        let mut extra = run.histogram.clone();
        extra.add_bin_count(3, 1);
        assert!(!oracle.matches(q, &extra));

        // An entry moved between bins: the total is unchanged.
        let bins: Vec<u64> = run.histogram.counts().to_vec();
        let from = bins.iter().position(|&n| n > 0).expect("a filled bin");
        let mut moved: Vec<i64> = Vec::new();
        for (b, &n) in bins.iter().enumerate() {
            let n = if b == from { n - 1 } else { n };
            moved.extend(std::iter::repeat_n(b as i64, n as usize));
        }
        moved.push(((from + 1) % bins.len()) as i64);
        moved.extend(std::iter::repeat_n(-1, run.histogram.underflow() as usize));
        moved.extend(std::iter::repeat_n(
            bins.len() as i64,
            run.histogram.overflow() as usize,
        ));
        let moved = histogram_of_bins(q, &moved);
        assert_eq!(moved.total(), run.histogram.total());
        assert!(!oracle.matches(q, &moved));

        // An entry moved into overflow.
        let mut over = run.histogram.clone();
        over.add_bin_count(q.hist_spec().bins as i64, 1);
        assert!(!oracle.matches(q, &over));
    }
}

#[test]
fn the_serving_schedule_digest_is_stable_for_a_seed() {
    let a = serving::schedule(42, 5.0);
    let b = serving::schedule(42, 5.0);
    assert_eq!(a.digest(), b.digest());
    assert_ne!(a.digest(), serving::schedule(43, 5.0).digest());
    // Pinned: a change here changes every serving measurement.
    assert_eq!(a.digest(), PINNED_DIGEST, "digest {:#x}", a.digest());
}

const PINNED_DIGEST: u64 = 0x9eed_7c5c_50f5_3dca;

#[test]
fn exact_counts_repeat_and_coverage_reads_eight() {
    let d = small();
    let mut checks = Checks::default();
    let (_, c1) = layers::trijet_probe(&d.events, None, &mut checks);
    let (_, c2) = layers::trijet_probe(&d.events, None, &mut checks);
    assert_eq!(c1, c2);
    assert!(c1 >= d.events.len() as u64);

    let oracle = Oracle::new(&d.events);
    let cov = layers::coverage(&d, &oracle, 2, None, &mut checks);
    assert_eq!(cov.compiled_pairs, 8);
    assert!(cov.lowering_agrees);
    assert_eq!(checks.failed, 0);
}
