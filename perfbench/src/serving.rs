//! The open-loop service probe of the traced runs: many tenants submit
//! to one `QueryService` at a fixed offered rate, whatever the service is
//! doing. It measures the serving layers (admission, queue, chunk cache,
//! pricing) and the load generator from outside.
//!
//! The schedule is `loadgen::Schedule::generate` (bounded-Pareto gaps,
//! Zipf tenants, the cheap→expensive Zipf query mix) from the workload
//! seed, stretched so its last arrival falls exactly `seconds` after the
//! first: the offered rate is then exactly [`PROBE_QPS`] while the bursts
//! keep their shape. Every request is sent `via_compiled()` and timed by
//! the service from its intended arrival, so a stall is charged to every
//! request it delays. One submitter thread sends at the intended
//! instants and records how late it ran; one collector thread waits for
//! the answers and checks each histogram.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use hepbench_bench::loadgen::{query_mix, LoadConfig, Schedule};
use hepbench_core::runner::System;
use hepbench_core::QueryId;
use nf2_columnar::CacheCounters;
use obs::SpanTree;
use query_service::{QueryRequest, QueryService, ServiceConfig, StatsSnapshot};

use crate::catalog::PROBE_QPS;
use crate::check::Oracle;
use crate::ops::OpRecord;
use crate::trace::Tracer;

/// Upper/lower bound ratio of the bounded-Pareto gaps. At the loadgen
/// default (1 000) a schedule can idle for seconds and then crowd its
/// requests into bursts far above the offered rate, overflowing the
/// admission queue; at 10 the gaps stay heavy-tailed (coefficient of
/// variation ≈ 0.7) and no request is refused.
pub const PARETO_SPREAD: f64 = 10.0;

/// The serving configuration: `ServiceConfig::default()` with the result
/// cache off (the 45-entry mix would otherwise turn into hash lookups
/// after one pass), one worker per core, and the service's own spans on.
pub fn config(nproc: usize) -> ServiceConfig {
    ServiceConfig {
        result_cache: false,
        n_workers: nproc,
        trace: true,
        ..ServiceConfig::default()
    }
}

/// The schedule of a `seconds`-long probe.
pub fn schedule(seed: u64, seconds: f64) -> Schedule {
    let n_requests = (PROBE_QPS * seconds).round().max(2.0) as usize;
    let mut s = Schedule::generate(&LoadConfig {
        seed,
        n_requests,
        offered_qps: PROBE_QPS,
        pareto_spread: PARETO_SPREAD,
        ..LoadConfig::default()
    });
    let first = s.arrivals[0].at_nanos as f64;
    let span = s.arrivals[n_requests - 1].at_nanos as f64 - first;
    let scale = seconds * 1e9 / span.max(1.0);
    for a in &mut s.arrivals {
        a.at_nanos = ((a.at_nanos as f64 - first) * scale).round() as u64;
    }
    s
}

/// What one open-loop run observed.
#[derive(Default)]
pub struct ServingRun {
    /// One record per scheduled request, in arrival order.
    pub ops: Vec<OpRecord>,
    /// Queue wait of each answered request, seconds.
    pub queue_s: Vec<f64>,
    /// How late the submitter sent each request, seconds.
    pub late_s: Vec<f64>,
    /// Operations attempted, warm-up included.
    pub attempted: u64,
    /// Failed, refused or wrong answers.
    pub failed: u64,
    /// Service counters over the timed schedule (after − before).
    pub stats: StatsSnapshot,
    /// Buffer-pool counters over the timed schedule (after − before).
    pub cache: CacheCounters,
    /// Client-side answers equal the service's completion count.
    pub counts_agree: bool,
}

enum Sent {
    Ticket(query_service::Ticket),
    Refused,
}

/// Replays `schedule` against `service` after one checked warm-up
/// request per mix entry. Each answered request's span tree is grafted
/// under a span of its own.
pub fn run(
    service: &QueryService,
    oracle: &Oracle,
    schedule: &Schedule,
    events: u64,
    tracer: &Tracer,
) -> ServingRun {
    let mut out = ServingRun::default();
    let mix = query_mix();
    for &(s, q) in &mix {
        let ok = service
            .execute(QueryRequest::new("warmup", s, q).via_compiled())
            .is_ok_and(|r| oracle.matches(q, &r.histogram));
        out.attempted += 1;
        out.failed += u64::from(!ok);
    }
    let before = (service.stats(), service.chunk_cache_counters());

    let epoch = Instant::now() + Duration::from_millis(20);
    let (tx, rx) = mpsc::channel::<(usize, Instant, f64, Sent)>();
    let collected = std::thread::scope(|scope| {
        let mix = &mix;
        scope.spawn(move || {
            for (i, a) in schedule.arrivals.iter().enumerate() {
                let target = epoch + Duration::from_nanos(a.at_nanos);
                while let Some(wait) = target.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let late = Instant::now()
                    .saturating_duration_since(target)
                    .as_secs_f64();
                let (system, query) = mix[a.slot as usize];
                let req = QueryRequest::new(format!("t{}", a.tenant), system, query)
                    .arriving_at(target)
                    .via_compiled();
                let sent = match service.submit(req) {
                    Ok(ticket) => Sent::Ticket(ticket),
                    Err(_) => Sent::Refused,
                };
                tx.send((i, target, late, sent))
                    .expect("the collector outlives the submitter");
            }
        });
        let collector = scope.spawn(move || {
            let mut got = Vec::with_capacity(schedule.arrivals.len());
            while let Ok((i, target, late, sent)) = rx.recv() {
                let answer = match sent {
                    Sent::Ticket(t) => t.wait().ok(),
                    Sent::Refused => None,
                };
                got.push((i, target, late, answer, Instant::now()));
            }
            got
        });
        collector.join().expect("collector thread")
    });

    let mut answered = 0u64;
    for (i, target, late, answer, answered_at) in collected {
        let (system, query) = mix[schedule.arrivals[i].slot as usize];
        let mut op = OpRecord {
            system,
            query,
            latency_s: answered_at.saturating_duration_since(target).as_secs_f64(),
            exec_s: 0.0,
            events,
            cost_usd: 0.0,
            ok: false,
        };
        if let Some(resp) = answer {
            answered += 1;
            op.ok = oracle.matches(query, &resp.histogram);
            op.latency_s = resp.total_seconds;
            op.exec_s = resp.total_seconds - resp.queue_seconds;
            op.cost_usd = resp.cost_usd;
            out.queue_s.push(resp.queue_seconds);
            if let Some(tree) = resp.trace {
                graft(tracer, &tree, i, system, query, target);
            }
        }
        out.late_s.push(late);
        out.attempted += 1;
        out.failed += u64::from(!op.ok);
        out.ops.push(op);
    }

    let after = (service.stats(), service.chunk_cache_counters());
    out.stats = delta(&before.0, &after.0);
    if let (Some(b), Some(a)) = (before.1, after.1) {
        out.cache = CacheCounters {
            hits: a.hits - b.hits,
            misses: a.misses - b.misses,
            evictions: a.evictions - b.evictions,
            insertions: a.insertions - b.insertions,
        };
    }
    out.counts_agree =
        out.stats.completed == answered && out.stats.submitted == schedule.arrivals.len() as u64;
    out
}

fn graft(t: &Tracer, tree: &SpanTree, i: usize, system: System, query: QueryId, arrival: Instant) {
    let request = i as u64 + 1;
    let span = t.open(
        format!("QueryService::submit {} {}", system.name(), query.name()),
        None,
        request,
    );
    let id = span.id;
    t.close(span);
    // The service's per-request trees count from the intended arrival.
    t.graft(tree, id, request, arrival);
}

fn delta(b: &StatsSnapshot, a: &StatsSnapshot) -> StatsSnapshot {
    StatsSnapshot {
        submitted: a.submitted - b.submitted,
        completed: a.completed - b.completed,
        rejected: a.rejected - b.rejected,
        shedded: a.shedded - b.shedded,
        timed_out: a.timed_out - b.timed_out,
        cancelled: a.cancelled - b.cancelled,
        failed: a.failed - b.failed,
        retried: a.retried - b.retried,
        ..*a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_stretched_to_the_probe_length_and_seeded() {
        let a = schedule(3, 10.0);
        assert_eq!(a.arrivals.len(), (PROBE_QPS * 10.0) as usize);
        assert_eq!(a.arrivals[0].at_nanos, 0);
        assert_eq!(a.arrivals.last().unwrap().at_nanos, 10_000_000_000);
        assert_eq!(a, schedule(3, 10.0));
        assert_ne!(a.digest(), schedule(4, 10.0).digest());
    }
}
