//! One record per operation, and the end-to-end metrics derived from a
//! workload's records.
//!
//! Every end-to-end metric is computed from the workload's *best pass*:
//! each (frontend, output) pair's minimum latency over the run's passes
//! (best of k). On a shared host, neighbours slow single queries for a
//! moment and whole runs for minutes; the minimum drops the first kind
//! of noise, which the median keeps (on batch the median-based metrics
//! spread by 17–22 % over ten seeds, the best-of-k ones by 3.6–6.5 %). The
//! raw latency distribution (median and the highest percentile with ten
//! samples beyond it) is kept in the run's record.

use hepbench_core::runner::System;
use hepbench_core::QueryId;
use nf2_columnar::ExecStats;

use crate::catalog::{is_scan_class, PRICING_INSTANCE};
use crate::stats::{geomean, quantile};

/// One query execution as the client saw it.
#[derive(Clone, Debug)]
pub struct OpRecord {
    /// Frontend.
    pub system: System,
    /// Output.
    pub query: QueryId,
    /// Seconds from start (open loop: intended arrival) to answer or error.
    pub latency_s: f64,
    /// Seconds spent executing (latency minus queue wait).
    pub exec_s: f64,
    /// Events the query processed (the table's rows).
    pub events: u64,
    /// Price of the query (QaaS: bytes; self-managed: wall on the
    /// pricing instance).
    pub cost_usd: f64,
    /// Answered with the reference histogram.
    pub ok: bool,
}

/// The price the serving layer charges for an answered query: QaaS
/// systems bill scanned bytes, self-managed ones bill the engine's wall
/// seconds on [`PRICING_INSTANCE`].
pub fn price(system: System, stats: &ExecStats) -> f64 {
    match system {
        System::BigQuery | System::BigQueryExternal => cloud_sim::bigquery_cost_usd(&stats.scan),
        System::AthenaV2 | System::AthenaV1 => cloud_sim::athena_cost_usd(&stats.scan),
        _ => {
            let instance = cloud_sim::instances::by_name(PRICING_INSTANCE)
                .expect("the pricing instance exists in the catalog");
            cloud_sim::self_managed_cost_usd(stats.wall_seconds, instance)
        }
    }
}

/// End-to-end metric values of one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct EndToEnd {
    /// Geometric mean over pairs of each pair's best latency.
    pub query_geomean_ms: f64,
    /// The best pass: sum of the pairs' best latencies.
    pub suite_pass_s: f64,
    /// Scan-class events ÷ the class's seconds in the best pass.
    pub scan_events_per_s: f64,
    /// Combinatoric-class events ÷ the class's seconds in the best pass.
    pub combi_events_per_s: f64,
    /// Pairs answered within the SLO ÷ the best pass's seconds.
    pub goodput_qps: f64,
    /// Median over pairs of the best latency.
    pub latency_p50_ms: f64,
    /// 99th percentile (nearest rank) over pairs of the best latency.
    pub latency_p99_ms: f64,
    /// Mean price of the best pass's operations × 1000.
    pub usd_per_1k_queries: f64,
}

/// The best answered operation of each pair, in first-seen order; a pair
/// that never answered gets `None` (it misses every latency limit).
fn best_per_pair(ops: &[OpRecord]) -> Vec<((System, QueryId), Option<&OpRecord>)> {
    let mut best: Vec<((System, QueryId), Option<&OpRecord>)> = Vec::new();
    for o in ops {
        let key = (o.system, o.query);
        let i = match best.iter().position(|(k, _)| *k == key) {
            Some(i) => i,
            None => {
                best.push((key, None));
                best.len() - 1
            }
        };
        if o.ok && best[i].1.is_none_or(|b| o.latency_s < b.latency_s) {
            best[i].1 = Some(o);
        }
    }
    best
}

/// Derives the end-to-end metrics from a closed-loop run's operations.
pub fn end_to_end(ops: &[OpRecord], slo_s: f64) -> EndToEnd {
    let best = best_per_pair(ops);
    let answered: Vec<&OpRecord> = best.iter().filter_map(|(_, b)| *b).collect();
    let pass_s: f64 = answered.iter().map(|o| o.latency_s).sum();
    let latencies: Vec<f64> = best
        .iter()
        .map(|(_, b)| b.map_or(f64::INFINITY, |o| o.latency_s))
        .collect();
    let class_rate = |scan: bool| {
        let class: Vec<&&OpRecord> = answered
            .iter()
            .filter(|o| is_scan_class(o.query) == scan)
            .collect();
        let secs: f64 = class.iter().map(|o| o.latency_s).sum();
        let events: u64 = class.iter().map(|o| o.events).sum();
        if secs > 0.0 {
            events as f64 / secs
        } else {
            0.0
        }
    };
    let within = answered.iter().filter(|o| o.latency_s <= slo_s).count();
    let ms = |s: f64| if s.is_finite() { s * 1e3 } else { pass_s * 1e3 };
    EndToEnd {
        query_geomean_ms: geomean(&answered.iter().map(|o| o.latency_s).collect::<Vec<_>>()) * 1e3,
        suite_pass_s: pass_s,
        scan_events_per_s: class_rate(true),
        combi_events_per_s: class_rate(false),
        goodput_qps: if pass_s > 0.0 {
            within as f64 / pass_s
        } else {
            0.0
        },
        latency_p50_ms: ms(quantile(&latencies, 0.5)),
        latency_p99_ms: ms(quantile(&latencies, 0.99)),
        usd_per_1k_queries: cloud_sim::cost_per_1k_queries(
            answered.iter().map(|o| o.cost_usd).sum(),
            answered.len() as u64,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(system: System, query: QueryId, latency_s: f64, ok: bool) -> OpRecord {
        OpRecord {
            system,
            query,
            latency_s,
            exec_s: latency_s,
            events: 100,
            cost_usd: latency_s,
            ok,
        }
    }

    #[test]
    fn metrics_come_from_each_pairs_best_operation() {
        let (p, r) = (System::Presto, System::RDataFrame);
        let ops = vec![
            op(p, QueryId::Q1, 0.2, true),
            op(p, QueryId::Q1, 0.1, true),
            op(p, QueryId::Q6a, 0.4, true),
            op(p, QueryId::Q6a, 0.05, false),
            op(r, QueryId::Q2, 0.3, true),
        ];
        let e = end_to_end(&ops, 0.25);
        // Best pass: Q1 0.1 s, Q6a 0.4 s (the failed 0.05 s never counts),
        // Q2 0.3 s.
        assert!((e.suite_pass_s - 0.8).abs() < 1e-12);
        assert!((e.scan_events_per_s - 200.0 / 0.4).abs() < 1e-9);
        assert!((e.combi_events_per_s - 100.0 / 0.4).abs() < 1e-9);
        assert!((e.goodput_qps - 1.0 / 0.8).abs() < 1e-12);
        assert!((e.latency_p50_ms - 300.0).abs() < 1e-9);
        assert!((e.latency_p99_ms - 400.0).abs() < 1e-9);
        assert!((e.query_geomean_ms - (0.1f64 * 0.4 * 0.3).cbrt() * 1e3).abs() < 1e-9);
        assert!((e.usd_per_1k_queries - 0.8 / 3.0 * 1e3).abs() < 1e-9);
    }

    #[test]
    fn a_pair_that_never_answered_misses_every_limit() {
        let ops = vec![
            op(System::Presto, QueryId::Q1, 0.1, true),
            op(System::Presto, QueryId::Q2, 0.1, false),
        ];
        let e = end_to_end(&ops, 0.25);
        assert!(
            (e.latency_p99_ms - 100.0).abs() < 1e-9,
            "reported as the whole pass"
        );
        assert!((e.goodput_qps - 10.0).abs() < 1e-9);
    }
}
