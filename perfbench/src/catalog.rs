//! The benchmark's fixed vocabulary: workloads, their sizes and rates, and
//! every metric name with its unit and direction. `BENCHMARK.json` at the
//! repository root must list exactly these names (checked by
//! `test_contract.py`); the bounds live only there.

use std::time::Duration;

use hepbench_core::runner::System;
use hepbench_core::QueryId;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, costs).
    Lower,
    /// Larger is better (throughputs, coverage).
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Metric name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed by every untraced run of every workload.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", Lower),
    m("peak_rss_mb", "MB", Lower),
    m("query_geomean_ms", "ms", Lower),
    m("suite_pass_s", "s", Lower),
    m("scan_events_per_s", "events/s", Higher),
    m("combi_events_per_s", "events/s", Higher),
    m("goodput_qps", "1/s", Higher),
    m("latency_p50_ms", "ms", Lower),
    m("latency_p99_ms", "ms", Lower),
    m("usd_per_1k_queries", "USD", Lower),
];

/// Per-layer metrics, printed by every traced run of every workload.
pub const PER_LAYER: &[Metric] = &[
    m("hep_model.generate_s", "s", Lower),
    m("nf2_columnar.build_s", "s", Lower),
    m("nf2_columnar.scan_us", "us", Lower),
    m("nf2_columnar.bytes_scanned_per_event", "B/event", Lower),
    m("nf2_columnar.groups_pruned_frac", "ratio", Higher),
    m("nf2_columnar.select_ns_per_row", "ns/row", Lower),
    m("nf2_columnar.chunk_cache_hit_frac", "ratio", Higher),
    m("engine_api.compiled_pairs", "count", Higher),
    m("engine_sql.parse_plan_us", "us", Lower),
    m("engine_flwor.parse_plan_us", "us", Lower),
    m("engine_sql.interp_s", "s", Lower),
    m("engine_flwor.interp_s", "s", Lower),
    m("engine_rdf.eventloop_s", "s", Lower),
    m("physical_ir.exec_ns_per_event", "ns/event", Lower),
    m(
        "physical_ir.trijet_ns_per_combination",
        "ns/combination",
        Lower,
    ),
    m("physical_ir.trijet_combinations", "count", Lower),
    m("physical_ir.merge_us", "us", Lower),
    m("exec_par.speedup", "ratio", Higher),
    m("exec_par.busy_frac", "ratio", Higher),
    m("exec_par.morsels", "count", Lower),
    m("exec_par.steals", "count", Lower),
    m("exec_par.spawn_us", "us", Lower),
    m("query_service.queue_wait_ms_p50", "ms", Lower),
    m("query_service.queue_wait_ms_p99", "ms", Lower),
    m("query_service.exec_ms_p50", "ms", Lower),
    m("query_service.exec_ms_p99", "ms", Lower),
    m("query_service.rejected", "count", Lower),
    m("query_service.retried", "count", Lower),
    m("cloud_sim.qaas_usd_per_1k", "USD", Lower),
    m("cloud_sim.self_managed_usd_per_1k", "USD", Lower),
    m("loadgen.late_ms_p99", "ms", Lower),
    m("obs.tracing_overhead_frac", "ratio", Lower),
];

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One analyst, closed loop, every (frontend, output) pair.
    Interactive,
    /// Full-table compiled and event-loop queries, all cores per query.
    Batch,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Interactive, Workload::Batch];

    /// Name as passed to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Interactive => "interactive",
            Workload::Batch => "batch",
        }
    }

    /// Parses a `--workload` argument.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Events in the workload's table.
    pub fn events(self) -> usize {
        match self {
            Workload::Interactive => 4_096,
            Workload::Batch => 65_536,
        }
    }

    /// Events per row group: every workload table has [`ROW_GROUPS`]
    /// groups.
    pub fn row_group_size(self) -> usize {
        self.events() / ROW_GROUPS
    }
}

/// Row groups per table, as in the paper's data set.
pub const ROW_GROUPS: usize = 128;

/// Set-ups per run: at least [`SETUP_MIN_REPS`], more while the set-ups
/// so far took under [`SETUP_MIN_SECONDS`], at most [`SETUP_MAX_REPS`];
/// `setup_s` is their median.
pub const SETUP_MIN_REPS: usize = 3;
/// See [`SETUP_MIN_REPS`].
pub const SETUP_MIN_SECONDS: f64 = 1.5;
/// See [`SETUP_MIN_REPS`].
pub const SETUP_MAX_REPS: usize = 9;

/// Latency objective for `goodput_qps`.
pub const SLO: Duration = Duration::from_millis(250);

/// Table of the open-loop service probe: small, few row groups, as a
/// served table is.
pub const PROBE_EVENTS: usize = 1_024;
/// Events per row group of the service probe's table (8 groups).
pub const PROBE_ROW_GROUP: usize = 128;
/// Offered rate of the service probe (about 0.4 of its closed-loop
/// capacity on two cores). Fixed: never recalibrated per run.
pub const PROBE_QPS: f64 = 60.0;
/// Length of the service probe's schedule.
pub const PROBE_SECONDS: f64 = 8.0;
/// A probe whose generator's p99 lateness exceeds this is invalid.
pub const LATE_BOUND_MS: f64 = 25.0;

/// Events in the table of the 45-pair coverage pass and of
/// `exec_par.spawn_us` (the interactive table's size).
pub const SMALL_EVENTS: usize = 4_096;

/// Instance pricing self-managed wall time (the service's default).
pub const PRICING_INSTANCE: &str = "m5d.4xlarge";

/// The five frontends of the interactive workload.
pub const FRONTENDS: [System; 5] = [
    System::BigQuery,
    System::Presto,
    System::AthenaV2,
    System::Rumble,
    System::RDataFrame,
];

/// Outputs of the scan class; every other output is combinatoric.
pub fn is_scan_class(q: QueryId) -> bool {
    matches!(q, QueryId::Q1 | QueryId::Q2 | QueryId::Q3 | QueryId::Q4)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The name grammar of `BENCHMARK.json`: starts with a letter or digit,
    /// at most 64 of letters, digits, `_`, `.` and `-`.
    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// The unit grammar of `BENCHMARK.json`: at most 16 of letters, digits,
    /// `_`, `/`, `%`, `.` and `-`.
    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_follow_the_grammar_and_are_unique() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER).collect();
        for metric in &all {
            assert!(valid_name(metric.name), "bad name {}", metric.name);
            assert!(valid_unit(metric.unit), "bad unit {}", metric.unit);
        }
        let mut names: Vec<&str> = all.iter().map(|m| m.name).collect();
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn grammar_rejects_what_the_contract_forbids() {
        assert!(!valid_name("_leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(!valid_unit("µs"));
        assert!(!valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn every_table_has_the_same_row_group_count() {
        for w in Workload::ALL {
            assert_eq!(w.events() % ROW_GROUPS, 0);
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }
}
