//! Differential query-fuzzing and fault-injection gate.
//!
//! Three modes, all deterministic from their seeds and watchdog-guarded
//! (a hung engine fails the run instead of wedging CI):
//!
//! * `--check` — generates `HEPQUERY_FUZZ_PLANS` (default 200) seeded
//!   random plans over the CMS schema and executes every one on all seven
//!   systems under test (BigQuery/Presto/Athena SQL, JSONiq, RDataFrame,
//!   the compiled physical-IR executor, and the compiled executor on the
//!   morsel-parallel worker pool with a plan-derived steal seed),
//!   comparing each histogram **bin-for-bin** against the interpreter
//!   oracle. Any divergence or fault-free failure exits non-zero — in
//!   particular, any parallel-vs-serial compiled divergence. A second
//!   pruning arm (`HEPQUERY_FUZZ_PRUNE_PLANS`, default 60) re-runs each
//!   plan with zone-map pruning forced off and on and requires both to
//!   match the oracle, so an unsound zone map cannot hide. A third,
//!   frontend-lowering arm sends each plan's BigQuery, Presto, Athena and
//!   JSONiq text through that frontend's `compile::lower`, which must
//!   reproduce the plan's direct lowering (filters as a set, compute,
//!   spec), and through the compiled engine, which must match the oracle.
//! * `--faults` — sweeps every fault class over a smaller plan budget
//!   (persistent faults must surface typed `ScanError`s, transient faults
//!   must converge to the oracle under bounded retry), then drives a
//!   [`query_service::QueryService`] with a transient injector across the
//!   (system × query) grid and asserts every request completes with the
//!   fault-free histogram while `retried > 0` shows the retry path ran.
//!   A third phase re-runs the storm against a service with **morsel
//!   recovery** on and asserts compiled-parallel requests absorb every
//!   fault below the attempt boundary: whole-query retries drop to zero
//!   while the per-response recovery counters show the morsel surface
//!   fired.
//! * default — both, with the same budgets.
//!
//! Scale knobs: `HEPQUERY_EVENTS`, `HEPQUERY_ROW_GROUP`,
//! `HEPQUERY_FUZZ_SEED`, `HEPQUERY_FUZZ_PLANS`,
//! `HEPQUERY_FUZZ_FAULT_PLANS`, `HEPQUERY_FUZZ_WATCHDOG`.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use chaos::{
    differential_fuzz, fault_sweep, lowering_differential_fuzz, pruning_differential_fuzz,
};
use hep_model::generator::build_dataset;
use hep_model::{DatasetSpec, Event};
use hepbench_core::adapters::ExecEnv;
use hepbench_core::runner::{execute_engine, System};
use hepbench_core::ALL_QUERIES;
use nf2_columnar::{FaultConfig, FaultInjector, Table};
use query_service::{QueryRequest, QueryService, ServiceConfig};

/// Systems the service-level fault phase drives (one per
/// language/dialect, like `serve_smoke`).
const SYSTEMS: &[System] = &[
    System::BigQuery,
    System::AthenaV2,
    System::Presto,
    System::Rumble,
    System::RDataFrame,
];

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn dataset() -> (Vec<Event>, Arc<Table>) {
    let (events, table) = build_dataset(DatasetSpec {
        n_events: env_u64("HEPQUERY_EVENTS", 2_000) as usize,
        row_group_size: env_u64("HEPQUERY_ROW_GROUP", 256) as usize,
        seed: env_u64("HEPQUERY_SEED", 0xAD1B70),
    });
    (events, Arc::new(table))
}

/// Differential phase: every plan × every engine vs the oracle.
fn run_diff(events: &[Event], table: &Arc<Table>) -> u32 {
    let seed = env_u64("HEPQUERY_FUZZ_SEED", 0x5EED);
    let n_plans = env_u64("HEPQUERY_FUZZ_PLANS", 200) as usize;
    eprintln!("# fuzz_diff --check: {n_plans} plans, seed {seed:#x}");
    let report = differential_fuzz(seed, n_plans, events, table);
    for d in &report.divergences {
        eprintln!("FAIL: {d}");
    }
    eprintln!(
        "  {} plans x {} engines = {} comparisons, {} divergences",
        report.plans,
        chaos::ALL_ENGINES.len(),
        report.checks,
        report.divergences.len()
    );
    if report.passed() {
        eprintln!("# differential fuzz OK");
        0
    } else {
        report.divergences.len() as u32
    }
}

/// Pruning arm of the differential phase: every plan × every engine with
/// zone-map pruning forced off and on — both runs must match the oracle
/// bin-for-bin, so a zone map that over-prunes cannot hide.
fn run_pruning_diff(events: &[Event], table: &Arc<Table>) -> u32 {
    let seed = env_u64("HEPQUERY_FUZZ_SEED", 0x5EED);
    let n_plans = env_u64("HEPQUERY_FUZZ_PRUNE_PLANS", 60) as usize;
    eprintln!("# fuzz_diff --check (pruning arm): {n_plans} plans, seed {seed:#x}");
    let report = pruning_differential_fuzz(seed, n_plans, events, table);
    for d in &report.divergences {
        eprintln!("FAIL: {d}");
    }
    eprintln!(
        "  {} plans x {} engines x 2 pruning modes, {} divergences",
        report.plans,
        chaos::ALL_ENGINES.len(),
        report.divergences.len()
    );
    if report.passed() {
        eprintln!("# pruning differential fuzz OK");
        0
    } else {
        report.divergences.len() as u32
    }
}

/// Frontend-lowering arm of the differential phase: the same seeded
/// plans' texts through each SQL dialect's and JSONiq's structural
/// lowering, which must reproduce the plan's direct lowering, and through
/// the compiled engines, which must match the oracle.
fn run_lowering_diff(events: &[Event], table: &Arc<Table>) -> u32 {
    let seed = env_u64("HEPQUERY_FUZZ_SEED", 0x5EED);
    let n_plans = env_u64("HEPQUERY_FUZZ_PLANS", 200) as usize;
    eprintln!("# fuzz_diff --check (lowering arm): {n_plans} plans, seed {seed:#x}");
    let report = lowering_differential_fuzz(seed, n_plans, events, table);
    for d in &report.divergences {
        eprintln!("FAIL: {d}");
    }
    eprintln!(
        "  {} plans x {} frontends = {} lowerings, {} divergences",
        report.plans,
        chaos::LOWERING_FRONTENDS.len(),
        report.checks,
        report.divergences.len()
    );
    if report.passed() {
        eprintln!("# lowering differential fuzz OK");
        0
    } else {
        report.divergences.len() as u32
    }
}

/// Fault phase 1: adapter-level sweep of every class on every engine.
fn run_fault_sweep(events: &[Event], table: &Arc<Table>) -> u32 {
    let seed = env_u64("HEPQUERY_FUZZ_SEED", 0x5EED);
    let n_plans = env_u64("HEPQUERY_FUZZ_FAULT_PLANS", 6) as usize;
    eprintln!("# fuzz_diff --faults: sweep over {n_plans} plans, seed {seed:#x}");
    let mut failures = 0;
    let mut injected = 0;
    for report in fault_sweep(seed, n_plans, events, table) {
        for v in &report.violations {
            eprintln!("FAIL: {v}");
        }
        eprintln!(
            "  {:<20} {} runs: {} clean, {} typed errors, {} retries",
            report.class.name(),
            report.runs,
            report.clean_results,
            report.typed_errors,
            report.retries
        );
        failures += report.violations.len() as u32;
        injected += report.typed_errors + report.retries;
    }
    if injected == 0 {
        eprintln!("FAIL: fault sweep never injected a fault — dead injector?");
        failures += 1;
    }
    failures
}

/// Fault phase 2: service-level retry. Every request across the
/// (system × query) grid must complete with the fault-free histogram,
/// and the retry counter must show the transient faults actually fired.
fn run_service_faults(table: &Arc<Table>) -> u32 {
    let seed = env_u64("HEPQUERY_FUZZ_SEED", 0x5EED);
    let injector = Arc::new(FaultInjector::new(FaultConfig {
        p_io: 0.04,
        p_checksum: 0.02,
        p_truncated: 0.02,
        transient_attempts: 1,
        ..FaultConfig::off(seed)
    }));
    let service = QueryService::start(
        table.clone(),
        ServiceConfig {
            n_workers: 4,
            result_cache: false,
            fault_injector: Some(injector.clone()),
            max_retries: 64,
            retry_backoff: Duration::from_micros(200),
            ..ServiceConfig::default()
        },
    );
    let mut failures = 0;
    for &system in SYSTEMS {
        for &query in ALL_QUERIES {
            let served = match service.execute(QueryRequest::new("chaos", system, query)) {
                Ok(resp) => resp,
                Err(e) => {
                    eprintln!(
                        "FAIL: {} {} did not survive transient faults: {e}",
                        system.name(),
                        query.name()
                    );
                    failures += 1;
                    continue;
                }
            };
            let clean =
                execute_engine(system, table, query, &ExecEnv::seed()).expect("fault-free run");
            if !served.histogram.counts_equal(&clean.histogram) {
                eprintln!(
                    "FAIL: {} {} served a wrong histogram under faults",
                    system.name(),
                    query.name()
                );
                failures += 1;
            }
        }
    }
    let snap = service.stats();
    let counters = injector.counters();
    eprintln!(
        "  service: {} completed, {} failed, {} retries; injector {} errors, {} recovered",
        snap.completed,
        snap.failed,
        snap.retried,
        counters.errors(),
        counters.recovered
    );
    if snap.retried == 0 {
        eprintln!("FAIL: service never retried — transient faults did not fire");
        failures += 1;
    }
    if failures == 0 {
        eprintln!("# fault injection OK");
    }
    failures
}

/// Fault phase 3: the same transient storm against a service with
/// **morsel recovery** on. Compiled-parallel requests must absorb every
/// fault below the attempt boundary: zero whole-query retries, recovery
/// counters > 0, fault-free histograms.
fn run_service_morsel_recovery(table: &Arc<Table>) -> u32 {
    let seed = env_u64("HEPQUERY_FUZZ_SEED", 0x5EED);
    let injector = Arc::new(FaultInjector::new(FaultConfig {
        p_io: 0.15,
        transient_attempts: 1,
        ..FaultConfig::off(seed ^ 0x4ec0)
    }));
    let service = QueryService::start(
        table.clone(),
        ServiceConfig {
            n_workers: 2,
            result_cache: false,
            morsel_recovery: true,
            fault_injector: Some(injector.clone()),
            ..ServiceConfig::default()
        },
    );
    let mut failures = 0;
    let mut interventions = 0;
    // Q6 — the heaviest of the queries every SQL dialect lowers — on two
    // dialects reaches the compiled-parallel morsel path with enough work
    // per morsel for the injected faults to land.
    for &system in &[System::Presto, System::AthenaV2] {
        for query in [hepbench_core::QueryId::Q6a, hepbench_core::QueryId::Q6b] {
            let req = QueryRequest::new("chaos", system, query)
                .via_compiled()
                .with_parallel_workers(4);
            let served = match service.execute(req) {
                Ok(resp) => resp,
                Err(e) => {
                    eprintln!(
                        "FAIL: {} {} compiled-parallel did not recover at morsel level: {e}",
                        system.name(),
                        query.name()
                    );
                    failures += 1;
                    continue;
                }
            };
            let clean =
                execute_engine(system, table, query, &ExecEnv::seed()).expect("fault-free run");
            if !served.histogram.counts_equal(&clean.histogram) {
                eprintln!(
                    "FAIL: {} {} served a wrong histogram under morsel recovery",
                    system.name(),
                    query.name()
                );
                failures += 1;
            }
            interventions += served.stats.recovery.interventions();
        }
    }
    let snap = service.stats();
    eprintln!(
        "  morsel recovery: {} completed, {} whole-query retries, {} morsel interventions",
        snap.completed, snap.retried, interventions
    );
    // The whole point: transient faults that previously cost whole-query
    // retries are absorbed per morsel on the compiled-parallel path.
    if snap.retried != 0 {
        eprintln!(
            "FAIL: {} whole-query retries despite morsel recovery",
            snap.retried
        );
        failures += 1;
    }
    if interventions == 0 {
        eprintln!("FAIL: morsel recovery never intervened — faults not routed to morsels?");
        failures += 1;
    }
    if failures == 0 {
        eprintln!("# morsel-recovery service phase OK");
    }
    failures
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let check = args.iter().any(|a| a == "--check");
    let faults = args.iter().any(|a| a == "--faults");
    let both = !check && !faults;
    let watchdog = Duration::from_secs(env_u64("HEPQUERY_FUZZ_WATCHDOG", 600));
    let (done_tx, done_rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let (events, table) = dataset();
        let mut failures = 0;
        if check || both {
            failures += run_diff(&events, &table);
            failures += run_pruning_diff(&events, &table);
            failures += run_lowering_diff(&events, &table);
        }
        if faults || both {
            failures += run_fault_sweep(&events, &table);
            failures += run_service_faults(&table);
            failures += run_service_morsel_recovery(&table);
        }
        let _ = done_tx.send(failures);
    });
    let failures = match done_rx.recv_timeout(watchdog) {
        Ok(f) => f,
        Err(_) => {
            eprintln!(
                "FAIL: fuzz_diff did not finish within {}s — hung engine?",
                watchdog.as_secs()
            );
            std::process::exit(1);
        }
    };
    worker.join().expect("fuzz worker");
    std::process::exit(if failures == 0 { 0 } else { 1 });
}
