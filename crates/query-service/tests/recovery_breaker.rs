//! Breaker × morsel-recovery interplay (PR 10 satellite).
//!
//! Morsel-level fault recovery happens *inside* one engine attempt, so it
//! must be invisible to the service's whole-query machinery: a request
//! whose transient scan faults are absorbed by `exec-par`'s retry ladder
//! is one successful attempt — no `retried` tick in the service stats,
//! one *success* recorded by the per-system circuit breaker. These tests
//! pin that boundary from the public API, plus the seeded determinism of
//! the jittered whole-query backoff.

use std::sync::Arc;
use std::time::Duration;

use hep_model::generator::build_dataset;
use hep_model::DatasetSpec;
use hepbench_core::runner::System;
use hepbench_core::QueryId;
use nf2_columnar::{FaultClass, FaultConfig, FaultInjector, Table};
use query_service::breaker::BreakerState;
use query_service::{jittered_backoff, BreakerConfig, QueryRequest, QueryService, ServiceConfig};

fn table() -> Arc<Table> {
    Arc::new(
        build_dataset(DatasetSpec {
            n_events: 2_000,
            row_group_size: 256,
            seed: 41,
        })
        .1,
    )
}

/// A deterministic transient storm: each hit (group, leaf) site faults
/// once, then recovers — the canonical shape the morsel retry ladder is
/// built for. Probability stays below saturation so no single morsel
/// accumulates more faulting leaves than the default per-morsel retry
/// budget (probes fail fast, one leaf per attempt).
fn transient_io_storm(seed: u64) -> Option<Arc<FaultInjector>> {
    Some(Arc::new(FaultInjector::new(FaultConfig {
        transient_attempts: 1,
        ..FaultConfig::only(FaultClass::Io, 0.3, seed)
    })))
}

/// A hair-trigger breaker: a single recorded failure in the window opens
/// it. If morsel-level retries leaked into `breaker_record`, this breaker
/// could not stay closed through a transient storm.
fn hair_trigger() -> Option<BreakerConfig> {
    Some(BreakerConfig {
        window: 8,
        failure_threshold: 0.10,
        min_samples: 1,
        cooldown: Duration::from_secs(3600),
        half_open_probes: 1,
    })
}

// Q6 lowers structurally on every SQL dialect, so this request actually
// reaches the compiled-parallel morsel path.
fn compiled_parallel_q6(tenant: &str) -> QueryRequest {
    QueryRequest::new(tenant, System::Presto, QueryId::Q6a)
        .via_compiled()
        .with_parallel_workers(2)
}

#[test]
fn morsel_retries_are_invisible_to_breaker_and_retry_counter() {
    let table = table();
    // Fault-free oracle on the same deployment shape.
    let oracle = QueryService::start(
        table.clone(),
        ServiceConfig {
            n_workers: 1,
            result_cache: false,
            ..ServiceConfig::default()
        },
    )
    .execute(compiled_parallel_q6("oracle"))
    .unwrap();

    let service = QueryService::start(
        table,
        ServiceConfig {
            n_workers: 1,
            result_cache: false,
            morsel_recovery: true,
            fault_injector: transient_io_storm(0xB0_1DEA),
            breaker: hair_trigger(),
            ..ServiceConfig::default()
        },
    );
    let resp = service.execute(compiled_parallel_q6("t0")).unwrap();

    // The storm was absorbed below the attempt boundary…
    assert!(
        resp.stats.recovery.retried > 0,
        "transient faults must surface as morsel retries, got {:?}",
        resp.stats.recovery
    );
    assert!(resp.histogram.counts_equal(&oracle.histogram));
    // …so the service saw exactly one clean attempt: no whole-query
    // retries, and the hair-trigger breaker recorded only a success.
    assert_eq!(service.stats().retried, 0);
    assert_eq!(
        service.breaker_state(System::BigQuery),
        Some(BreakerState::Closed)
    );

    // A follow-up query (recovery-then-success again, or already-healed
    // sites) keeps recording successes: the breaker stays closed.
    let again = service.execute(compiled_parallel_q6("t1")).unwrap();
    assert!(again.histogram.counts_equal(&oracle.histogram));
    assert_eq!(service.stats().retried, 0);
    assert_eq!(
        service.breaker_state(System::BigQuery),
        Some(BreakerState::Closed)
    );
}

#[test]
fn without_morsel_recovery_the_same_storm_costs_whole_query_retries() {
    let table = table();
    let oracle = QueryService::start(
        table.clone(),
        ServiceConfig {
            n_workers: 1,
            result_cache: false,
            ..ServiceConfig::default()
        },
    )
    .execute(compiled_parallel_q6("oracle"))
    .unwrap();

    let service = QueryService::start(
        table,
        ServiceConfig {
            n_workers: 1,
            result_cache: false,
            morsel_recovery: false,
            fault_injector: transient_io_storm(0xB0_1DEA),
            // The billing pre-pass fails fast, so each whole-query retry
            // heals one faulting site: budget for all of them.
            max_retries: 64,
            retry_backoff: Duration::from_micros(10),
            ..ServiceConfig::default()
        },
    );
    let resp = service.execute(compiled_parallel_q6("t0")).unwrap();
    // Same answer in the end, but the transient faults escalated all the
    // way to the service retry loop — the cost morsel recovery removes.
    assert!(resp.histogram.counts_equal(&oracle.histogram));
    assert!(
        service.stats().retried > 0,
        "without morsel recovery a transient storm must retry the whole query"
    );
    assert_eq!(resp.stats.recovery.retried, 0);
}

#[test]
fn jittered_backoff_is_seeded_shrink_only_and_exact_at_zero_jitter() {
    let base = Duration::from_millis(1);
    for attempt in 1..=12u32 {
        let exp = base * (1u32 << (attempt - 1).min(8));
        // jitter = 0 reproduces the pure exponential schedule exactly.
        assert_eq!(jittered_backoff(base, attempt, 0.0, 7, 3), exp);
        for nonce in 0..16u64 {
            let a = jittered_backoff(base, attempt, 0.5, 42, nonce);
            let b = jittered_backoff(base, attempt, 0.5, 42, nonce);
            // Pure in its inputs: a fixed seed pins the schedule.
            assert_eq!(a, b);
            // Shrink-only: never above the exponential bound, never
            // below half of it at jitter = 0.5.
            assert!(a <= exp, "attempt {attempt} nonce {nonce}: {a:?} > {exp:?}");
            assert!(a >= exp.mul_f64(0.5));
        }
    }
    // Different seeds decorrelate: across a spread of nonces the two
    // schedules are not identical.
    let spread: Vec<Duration> = (0..32)
        .map(|n| jittered_backoff(base, 3, 0.5, 1, n))
        .collect();
    let other: Vec<Duration> = (0..32)
        .map(|n| jittered_backoff(base, 3, 0.5, 2, n))
        .collect();
    assert_ne!(spread, other);
}
