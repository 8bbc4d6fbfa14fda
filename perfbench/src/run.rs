//! One benchmark run: set up a workload, measure it, check it, and turn
//! what was measured into the catalog's metrics.

use std::collections::HashMap;
use std::time::Instant;

use hep_model::DatasetSpec;
use query_service::QueryService;

use crate::catalog::{
    Workload, END_TO_END, LATE_BOUND_MS, PER_LAYER, PROBE_EVENTS, PROBE_ROW_GROUP, PROBE_SECONDS,
    ROW_GROUPS, SETUP_MAX_REPS, SETUP_MIN_REPS, SETUP_MIN_SECONDS, SLO, SMALL_EVENTS,
};
use crate::check::Oracle;
use crate::closed::{self, ClosedRun, Tracing};
use crate::data::{self, BuildTimes, Dataset, Seeds};
use crate::layers::{self, Checks};
use crate::ops::{end_to_end, EndToEnd, OpRecord};
use crate::report::{self, Values};
use crate::serving::{self, ServingRun};
use crate::stats::{median, quantile, tail};
use crate::trace::Tracer;

/// Command-line parameters of one run.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
    /// Worker threads (`nproc`).
    pub nproc: usize,
}

/// Everything a run reports.
pub struct Outcome {
    /// Metric values, in catalog order.
    pub values: Values,
    /// Checked operations.
    pub attempted: u64,
    /// Failed operations.
    pub failed: u64,
    /// Every output matched.
    pub correct: bool,
    /// Extra JSON fields for the provenance record (`"key": value`).
    pub details: Vec<(String, String)>,
    /// The traced run's span store.
    pub tracer: Option<Tracer>,
}

/// A data set of `events` events in groups of `row_group_size` from the
/// workload's generator seed.
fn spec(events: usize, row_group_size: usize, seeds: &Seeds) -> DatasetSpec {
    DatasetSpec {
        n_events: events,
        row_group_size,
        seed: seeds.data,
    }
}

/// Sets a workload up several times (the previous copy is dropped
/// first) and returns the last set-up with each repetition's seconds and
/// layer times.
fn setup<T>(
    spec: DatasetSpec,
    tracer: Option<&Tracer>,
    deploy: impl Fn(&Dataset) -> T,
) -> (Dataset, T, Vec<f64>, Vec<BuildTimes>) {
    let mut last: Option<(Dataset, T)> = None;
    let (mut secs, mut layers) = (Vec::<f64>::new(), Vec::new());
    while secs.len() < SETUP_MIN_REPS
        || (secs.iter().sum::<f64>() < SETUP_MIN_SECONDS && secs.len() < SETUP_MAX_REPS)
    {
        drop(last.take());
        let span = tracer.map(|t| t.open(format!("setup {}", secs.len()), None, 0));
        let parent = span.as_ref().map(|s| s.id);
        let t0 = Instant::now();
        let (data, times) = data::build(spec, tracer, parent);
        let (deployed, _) = crate::trace::timed(tracer, "deploy", parent, || deploy(&data));
        secs.push(t0.elapsed().as_secs_f64());
        if let (Some(t), Some(s)) = (tracer, span) {
            t.close(s);
        }
        layers.push(times);
        last = Some((data, deployed));
    }
    let (data, deployed) = last.expect("at least one set-up");
    (data, deployed, secs, layers)
}

/// Runs one workload as `p` says.
pub fn run(p: Params) -> Outcome {
    let seeds = Seeds::derive(p.seed);
    let tracer = p.trace.then(Tracer::new);
    let pairs = closed::pairs(p.workload);
    let table_spec = spec(p.workload.events(), p.workload.row_group_size(), &seeds);
    let (data, engines, setup_s, build) =
        setup(table_spec, tracer.as_ref(), |d| closed::deploy(d, &pairs));
    let oracle = Oracle::new(&data.events);
    let env = closed::env_for(p.workload, p.nproc);
    let order = (p.workload == Workload::Interactive).then_some(seeds.order);
    let tracing = tracer.as_ref().map_or(Tracing::Off, Tracing::Alternate);
    let run = closed::run(
        &data, &oracle, &engines, &pairs, &env, order, p.seconds, tracing,
    );
    drop(engines);

    let mut details = vec![
        ("generator_seed".into(), seeds.data.to_string()),
        ("setup_reps".into(), setup_s.len().to_string()),
        ("passes".into(), run.passes.len().to_string()),
        ("pairs_per_pass".into(), pairs.len().to_string()),
        raw_latencies(&run.ops),
    ];
    let (mut attempted, mut failed) = (run.attempted, run.failed);
    let values = match &tracer {
        None => end_to_end_values(&end_to_end(&run.ops, SLO.as_secs_f64()), &setup_s),
        Some(t) => {
            let (values, checks, probe_valid) =
                layer_values(p, &seeds, t, &data, &oracle, &run, &build);
            attempted += checks.attempted;
            failed += checks.failed;
            details.push(("service_probe_valid".into(), probe_valid.to_string()));
            values
        }
    };
    Outcome {
        values,
        attempted,
        failed,
        correct: failed == 0,
        details,
        tracer,
    }
}

fn end_to_end_values(e: &EndToEnd, setup_s: &[f64]) -> Values {
    let v = |name: &str, x: f64| report::value(END_TO_END, name, x);
    vec![
        v("setup_s", median(setup_s)),
        v("peak_rss_mb", report::peak_rss_mb()),
        v("query_geomean_ms", e.query_geomean_ms),
        v("suite_pass_s", e.suite_pass_s),
        v("scan_events_per_s", e.scan_events_per_s),
        v("combi_events_per_s", e.combi_events_per_s),
        v("goodput_qps", e.goodput_qps),
        v("latency_p50_ms", e.latency_p50_ms),
        v("latency_p99_ms", e.latency_p99_ms),
        v("usd_per_1k_queries", e.usd_per_1k_queries),
    ]
}

/// The raw latency distribution of every timed operation, for the
/// record: the median and the highest percentile with ten samples beyond
/// it, with the sample count.
fn raw_latencies(ops: &[OpRecord]) -> (String, String) {
    let lat: Vec<f64> = ops
        .iter()
        .map(|o| {
            if o.ok {
                o.latency_s * 1e3
            } else {
                f64::INFINITY
            }
        })
        .collect();
    let t = tail(&lat);
    (
        "raw_latency_ms".into(),
        format!(
            "{{\"p50\": {}, \"tail_percentile\": {}, \"tail\": {}, \"n\": {}}}",
            report::num(median(&lat)),
            report::num(t.percentile),
            report::num(t.value),
            t.n
        ),
    )
}

/// Cost of answered operations per 1 000: (QaaS, self-managed).
fn cost_split(ops: &[OpRecord]) -> (f64, f64) {
    let per_1k = |qaas: bool| {
        let c: Vec<f64> = ops
            .iter()
            .filter(|o| o.ok && o.system.is_qaas() == qaas)
            .map(|o| o.cost_usd)
            .collect();
        cloud_sim::cost_per_1k_queries(c.iter().sum(), c.len() as u64)
    };
    (per_1k(true), per_1k(false))
}

/// The service layers as the open-loop probe saw them.
fn service_values(r: &ServingRun) -> Vec<(&'static str, f64)> {
    let exec: Vec<f64> = r
        .ops
        .iter()
        .filter(|o| o.ok)
        .map(|o| o.exec_s * 1e3)
        .collect();
    let queue: Vec<f64> = r.queue_s.iter().map(|s| s * 1e3).collect();
    let lookups = r.cache.hits + r.cache.misses;
    vec![
        ("query_service.queue_wait_ms_p50", quantile(&queue, 0.5)),
        ("query_service.queue_wait_ms_p99", quantile(&queue, 0.99)),
        ("query_service.exec_ms_p50", quantile(&exec, 0.5)),
        ("query_service.exec_ms_p99", quantile(&exec, 0.99)),
        (
            "query_service.rejected",
            (r.stats.rejected + r.stats.shedded) as f64,
        ),
        ("query_service.retried", r.stats.retried as f64),
        (
            "nf2_columnar.chunk_cache_hit_frac",
            if lookups == 0 {
                0.0
            } else {
                r.cache.hits as f64 / lookups as f64
            },
        ),
        ("loadgen.late_ms_p99", quantile(&r.late_s, 0.99) * 1e3),
    ]
}

/// Orders named values as the per-layer catalog does.
fn per_layer_values(named: Vec<(&'static str, f64)>) -> Values {
    let map: HashMap<&str, f64> = named.into_iter().collect();
    PER_LAYER
        .iter()
        .map(|m| {
            let v = *map
                .get(m.name)
                .unwrap_or_else(|| panic!("the traced run did not measure {}", m.name));
            (*m, v)
        })
        .collect()
}

/// Every per-layer metric of a traced run, the checks its probes made,
/// and whether the service probe's generator kept to its schedule.
fn layer_values(
    p: Params,
    seeds: &Seeds,
    tracer: &Tracer,
    data: &Dataset,
    oracle: &Oracle,
    run: &ClosedRun,
    build: &[BuildTimes],
) -> (Values, Checks, bool) {
    let t = Some(tracer);
    let mut checks = Checks::default();
    let walls = |traced: bool| -> Vec<f64> {
        run.passes
            .iter()
            .filter(|(_, tr)| *tr == traced)
            .map(|(w, _)| *w)
            .collect()
    };
    let overhead = median(&walls(true)) / median(&walls(false)) - 1.0;
    let own = layers::engine_spans(
        run.traces
            .iter()
            .map(|(i, tree)| (run.ops[*i].system, tree)),
    );

    // The coverage pass and the pool-overhead probe use an
    // interactive-size table from the same seed.
    let small_built = (data.table.n_rows() != SMALL_EVENTS).then(|| {
        data::build(
            spec(SMALL_EVENTS, SMALL_EVENTS / ROW_GROUPS, seeds),
            t,
            None,
        )
        .0
    });
    let small = small_built.as_ref().unwrap_or(data);
    let small_oracle = small_built.as_ref().map(|d| Oracle::new(&d.events));
    let small_oracle = small_oracle.as_ref().unwrap_or(oracle);
    let cov = layers::coverage(small, small_oracle, p.nproc, t, &mut checks);
    let fallback = layers::engine_spans(cov.traces.iter().map(|((s, _), tree)| (*s, tree)));
    let pick = |a: Option<f64>, b: Option<f64>| a.or(b).unwrap_or(0.0);

    let (scan_us, bytes_per_event, pruned_frac) = layers::scan_probe(&data.table, t, &mut checks);
    let select_ns = layers::select_probe(data, t, &mut checks);
    let plans = layers::lowered_q6();
    let exec_ns = layers::exec_probe(data, oracle, &plans, t, &mut checks);
    let (trijet_ns, combinations) = layers::trijet_probe(&data.events, t, &mut checks);
    let merge_us = layers::merge_probe(&data.table, &plans[0].1, t, &mut checks);
    let par = layers::par_probe(&data.table, &plans[0].1, p.nproc, t, &mut checks);
    let spawn_us = layers::spawn_probe(&small.table, p.nproc, t, &mut checks);

    // The open-loop service probe, on a small served table.
    let (svc_data, _) = data::build(spec(PROBE_EVENTS, PROBE_ROW_GROUP, seeds), None, None);
    let svc_oracle = Oracle::new(&svc_data.events);
    let service = QueryService::start(svc_data.table.clone(), serving::config(p.nproc));
    let schedule = serving::schedule(seeds.schedule, PROBE_SECONDS);
    let probe = serving::run(
        &service,
        &svc_oracle,
        &schedule,
        PROBE_EVENTS as u64,
        tracer,
    );
    drop(service);
    checks.attempted += probe.attempted;
    checks.failed += probe.failed;
    checks.record(probe.counts_agree);
    let late_p99_ms = quantile(&probe.late_s, 0.99) * 1e3;
    let probe_valid = late_p99_ms <= LATE_BOUND_MS;
    if !probe_valid {
        eprintln!(
            "perfbench: the service probe is invalid: its generator ran {late_p99_ms:.2} ms \
             late at p99 (bound {LATE_BOUND_MS} ms)"
        );
    }

    let gen: Vec<f64> = build.iter().map(|b| b.generate_s).collect();
    let bld: Vec<f64> = build.iter().map(|b| b.build_s).collect();
    let (qaas, self_managed) = cost_split(&run.ops);
    let mut named = vec![
        ("hep_model.generate_s", median(&gen)),
        ("nf2_columnar.build_s", median(&bld)),
        ("nf2_columnar.scan_us", scan_us),
        ("nf2_columnar.bytes_scanned_per_event", bytes_per_event),
        ("nf2_columnar.groups_pruned_frac", pruned_frac),
        ("nf2_columnar.select_ns_per_row", select_ns),
        ("engine_api.compiled_pairs", cov.compiled_pairs as f64),
        (
            "engine_sql.parse_plan_us",
            pick(own.sql_parse_plan_us, fallback.sql_parse_plan_us),
        ),
        (
            "engine_flwor.parse_plan_us",
            pick(own.flwor_parse_plan_us, fallback.flwor_parse_plan_us),
        ),
        (
            "engine_sql.interp_s",
            pick(own.sql_interp_s, fallback.sql_interp_s),
        ),
        (
            "engine_flwor.interp_s",
            pick(own.flwor_interp_s, fallback.flwor_interp_s),
        ),
        (
            "engine_rdf.eventloop_s",
            pick(own.rdf_eventloop_s, fallback.rdf_eventloop_s),
        ),
        ("physical_ir.exec_ns_per_event", exec_ns),
        ("physical_ir.trijet_ns_per_combination", trijet_ns),
        ("physical_ir.trijet_combinations", combinations as f64),
        ("physical_ir.merge_us", merge_us),
        ("exec_par.speedup", par.speedup),
        ("exec_par.busy_frac", par.busy_frac),
        ("exec_par.morsels", par.morsels),
        ("exec_par.steals", par.steals),
        ("exec_par.spawn_us", spawn_us),
        ("cloud_sim.qaas_usd_per_1k", qaas),
        ("cloud_sim.self_managed_usd_per_1k", self_managed),
        ("obs.tracing_overhead_frac", overhead),
    ];
    named.extend(service_values(&probe));
    (per_layer_values(named), checks, probe_valid)
}
