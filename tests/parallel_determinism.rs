//! The parallel-execution contract: morsel-parallel compiled execution
//! is an *execution* optimization, never a semantic or a pricing one.
//! The same plan at 1, 2 or 8 workers — under adversarial seeded steal
//! orders — must produce byte-identical bin sequences, byte-identical
//! histograms through the engines, and identical `ScanStats` (scan
//! accounting is a serial pre-pass, so a stolen or re-queued morsel can
//! never be double-billed).

use std::sync::Arc;

use hepquery::bench::queries::Language;
use hepquery::bench::{adapters, ALL_QUERIES};
use hepquery::exec_par::{self, ParOptions};
use hepquery::physical_ir;
use hepquery::prelude::*;

fn table() -> Arc<Table> {
    Arc::new(
        hepquery::model::generator::build_dataset(DatasetSpec {
            n_events: 2_000,
            row_group_size: 128,
            seed: 0xDE7E12,
        })
        .1,
    )
}

/// The plan a text frontend lowers a benchmark query to, if any.
fn lowered(lang: Language, q: QueryId) -> Option<physical_ir::PhysPlan> {
    let text = hepquery::bench::queries::text(lang, q);
    match lang {
        Language::Jsoniq => {
            hepquery::jsoniq::compile::lower(&hepquery::jsoniq::parser::parse_module(&text).ok()?)
        }
        _ => hepquery::sql::compile::lower(&hepquery::sql::parser::parse_script(&text).ok()?),
    }
}

/// Every benchmark query that a text frontend (BigQuery, Presto, Athena,
/// JSONiq) lowers to the compiled IR: the raw bin sequence from the
/// parallel executor is byte-identical to the serial one at every worker
/// count and steal seed.
#[test]
fn parallel_bins_byte_identical_across_workers_and_steal_orders() {
    let table = table();
    let mut lowered_pairs = 0;
    for q in ALL_QUERIES {
        for lang in [
            Language::BigQuery,
            Language::Presto,
            Language::Athena,
            Language::Jsoniq,
        ] {
            let Some(plan) = lowered(lang, *q) else {
                continue;
            };
            lowered_pairs += 1;
            check_parallel_bins(&plan, &table, &format!("{} {}", lang.name(), q.name()));
        }
    }
    assert_eq!(
        lowered_pairs, 24,
        "expected Q1–Q4, Q6a and Q6b to lower on all four text frontends"
    );
}

/// Serial vs morsel-parallel execution of one plan at 1, 2 and 8
/// workers under several steal seeds.
fn check_parallel_bins(plan: &physical_ir::PhysPlan, table: &Table, label: &str) {
    let serial = physical_ir::execute(
        plan,
        table,
        None,
        &obs::TraceCtx::disabled(),
        &obs::CancelToken::none(),
    )
    .unwrap();
    for workers in [1, 2, 8] {
        for steal_seed in [0u64, 0x5EED, u64::MAX] {
            let (bins, stats) = exec_par::execute(
                plan,
                table,
                None,
                &obs::TraceCtx::disabled(),
                &obs::CancelToken::none(),
                None,
                &ParOptions {
                    workers,
                    steal_seed,
                    recovery: None,
                },
            )
            .unwrap();
            assert_eq!(
                bins, serial,
                "{label}: parallel bins diverged at workers={workers} seed={steal_seed:#x}"
            );
            // Exactly one morsel per row group: nothing lost, nothing
            // executed twice.
            assert_eq!(stats.morsels, table.row_groups().len() as u64);
            assert_eq!(stats.rows, table.n_rows() as u64);
        }
    }
}

/// Through the SQL engine: identical histograms AND identical ScanStats
/// at every worker count — parallelism must not perturb billing.
#[test]
fn engine_results_and_scan_billing_identical_at_any_worker_count() {
    let table = table();
    for q in ALL_QUERIES {
        let run = |workers: usize| {
            adapters::run_sql_env(
                Dialect::presto(),
                &table,
                *q,
                SqlOptions::default(),
                &adapters::ExecEnv {
                    parallel_workers: (workers > 0).then_some(workers),
                    ..adapters::ExecEnv::seed()
                },
            )
            .unwrap()
        };
        let serial = run(0);
        for workers in [2, 8] {
            let par = run(workers);
            assert!(
                par.histogram.counts_equal(&serial.histogram),
                "{}: histogram diverged at {workers} workers",
                q.name()
            );
            assert_eq!(
                par.stats.scan,
                serial.stats.scan,
                "{}: scan accounting perturbed by parallelism (double-billing?)",
                q.name()
            );
        }
    }
}

/// The JSONiq and RDataFrame compiled paths honor the same contract.
#[test]
fn flwor_and_rdf_parallel_results_match_serial() {
    let table = table();
    for q in ALL_QUERIES {
        let jq_serial =
            adapters::run_jsoniq_env(&table, *q, Default::default(), &adapters::ExecEnv::seed())
                .unwrap();
        let jq_par = adapters::run_jsoniq_env(
            &table,
            *q,
            Default::default(),
            &adapters::ExecEnv {
                parallel_workers: Some(4),
                ..adapters::ExecEnv::seed()
            },
        )
        .unwrap();
        assert!(
            jq_par.histogram.counts_equal(&jq_serial.histogram),
            "{}: JSONiq parallel diverged",
            q.name()
        );
        assert_eq!(jq_par.stats.scan, jq_serial.stats.scan);

        let rdf_serial =
            adapters::run_rdf_env(&table, *q, Default::default(), &adapters::ExecEnv::seed())
                .unwrap();
        let rdf_par = adapters::run_rdf_env(
            &table,
            *q,
            Default::default(),
            &adapters::ExecEnv {
                parallel_workers: Some(4),
                ..adapters::ExecEnv::seed()
            },
        )
        .unwrap();
        assert!(
            rdf_par.histogram.counts_equal(&rdf_serial.histogram),
            "{}: RDataFrame parallel diverged",
            q.name()
        );
        assert_eq!(rdf_par.stats.scan, rdf_serial.stats.scan);
    }
}

/// The paper simulation stays byte-identical with parallelism available:
/// `engine_for` pins compiled execution *and* parallel workers off, so
/// an environment requesting workers cannot perturb the calibrated
/// interpreters.
#[test]
fn engine_for_pins_parallelism_off() {
    let table = table();
    for system in [System::Presto, System::Rumble, System::RDataFrame] {
        let engine = engine_for(system, table.clone());
        let spec = QuerySpec::benchmark(QueryId::Q1);
        let base = engine.execute(&spec, &ExecEnv::seed()).unwrap();
        let with_workers = engine
            .execute(
                &spec,
                &ExecEnv {
                    parallel_workers: Some(8),
                    ..ExecEnv::seed()
                },
            )
            .unwrap();
        assert!(
            with_workers.histogram.counts_equal(&base.histogram),
            "{}: paper engine perturbed by parallel_workers",
            system.name()
        );
        assert_eq!(with_workers.stats.scan, base.stats.scan);
        assert_eq!(with_workers.stats.threads_used, base.stats.threads_used);
    }
}
