//! The closed-loop workloads: one client, one query in flight, every
//! query through `engine_for_compiled`.
//!
//! * `interactive` runs all 45 (frontend, output) pairs per pass in a
//!   seeded order on the small table, `parallel_workers = nproc`;
//! * `batch` runs the scan class (RDataFrame Q1–Q4) and the combinatoric
//!   class (Q6a/Q6b on Presto, Athena and JSONiq; RDataFrame Q5–Q8) per
//!   pass on the large table, with every core inside each query.

use std::collections::HashMap;
use std::time::Instant;

use hepbench_bench::loadgen::SplitMix64;
use hepbench_core::adapters::{AdapterError, EngineRun, ExecEnv};
use hepbench_core::engine_api::{engine_for_compiled, QueryEngine, QuerySpec};
use hepbench_core::runner::System;
use hepbench_core::{QueryId, ALL_QUERIES};
use obs::SpanTree;

use crate::catalog::{Workload, FRONTENDS};
use crate::check::Oracle;
use crate::data::Dataset;
use crate::ops::{price, OpRecord};
use crate::trace::Tracer;

/// A (frontend, output) pair.
pub type Pair = (System, QueryId);

/// The pairs one pass of a closed-loop workload runs.
pub fn pairs(workload: Workload) -> Vec<Pair> {
    match workload {
        Workload::Interactive => FRONTENDS
            .iter()
            .flat_map(|&s| ALL_QUERIES.iter().map(move |&q| (s, q)))
            .collect(),
        Workload::Batch => {
            let rdf = |qs: &[QueryId]| -> Vec<Pair> {
                qs.iter().map(|&q| (System::RDataFrame, q)).collect()
            };
            let mut v = rdf(&[QueryId::Q1, QueryId::Q2, QueryId::Q3, QueryId::Q4]);
            for s in [System::Presto, System::AthenaV2, System::Rumble] {
                v.push((s, QueryId::Q6a));
                v.push((s, QueryId::Q6b));
            }
            v.extend(rdf(&[QueryId::Q5, QueryId::Q7, QueryId::Q8]));
            v.push((System::RDataFrame, QueryId::Q6a));
            v.push((System::RDataFrame, QueryId::Q6b));
            v
        }
    }
}

/// The execution environment of a closed-loop workload.
pub fn env_for(workload: Workload, nproc: usize) -> ExecEnv {
    match workload {
        Workload::Batch => ExecEnv {
            parallel_workers: Some(nproc),
            intra_query_threads: Some(nproc),
            ..ExecEnv::default()
        },
        _ => ExecEnv {
            parallel_workers: Some(nproc),
            ..ExecEnv::default()
        },
    }
}

/// The compiled deployments of the systems `pairs` use.
pub fn deploy(data: &Dataset, pairs: &[Pair]) -> HashMap<System, Box<dyn QueryEngine>> {
    let mut engines = HashMap::new();
    for &(s, _) in pairs {
        engines
            .entry(s)
            .or_insert_with(|| engine_for_compiled(s, data.table.clone()));
    }
    engines
}

/// What a closed-loop run produced.
#[derive(Default)]
pub struct ClosedRun {
    /// Timed operations (warm-up excluded), in run order.
    pub ops: Vec<OpRecord>,
    /// Per pass: wall seconds and whether it was traced.
    pub passes: Vec<(f64, bool)>,
    /// Span trees of traced operations, with their index in `ops`.
    pub traces: Vec<(usize, SpanTree)>,
    /// Operations attempted, warm-up included.
    pub attempted: u64,
    /// Operations failed (engine error or wrong histogram).
    pub failed: u64,
}

/// Tracing of a closed-loop run: off, or every other pass traced (the
/// first untraced) so traced and untraced passes interleave.
#[derive(Clone, Copy)]
pub enum Tracing<'a> {
    /// No tracing.
    Off,
    /// Odd passes traced into the recorder.
    Alternate(&'a Tracer),
}

/// One loop over `pairs`: a warm-up pass, then passes until `seconds`
/// have elapsed (at least two). `order_seed` shuffles each pass's order.
#[allow(clippy::too_many_arguments)]
pub fn run(
    data: &Dataset,
    oracle: &Oracle,
    engines: &HashMap<System, Box<dyn QueryEngine>>,
    pairs: &[Pair],
    env: &ExecEnv,
    order_seed: Option<u64>,
    seconds: f64,
    tracing: Tracing<'_>,
) -> ClosedRun {
    let mut out = ClosedRun::default();
    let events = data.table.n_rows() as u64;
    // Warm-up: allocator, page cache and lazy state, checked but untimed.
    for &(s, q) in pairs {
        let ok = execute(engines, s, q, env).is_ok_and(|run| oracle.matches(q, &run.histogram));
        out.attempted += 1;
        out.failed += u64::from(!ok);
    }
    let epoch = Instant::now();
    let mut pass = 0;
    while pass < 2 || epoch.elapsed().as_secs_f64() < seconds {
        let tracer = match tracing {
            Tracing::Alternate(t) if pass % 2 == 1 => Some(t),
            _ => None,
        };
        let mut order = pairs.to_vec();
        if let Some(seed) = order_seed {
            shuffle(
                &mut order,
                seed ^ (pass as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
        }
        let pass_start = Instant::now();
        let pass_span = tracer.map(|t| t.open(format!("pass {pass}"), None, 0));
        for (s, q) in order {
            let request = out.ops.len() as u64 + 1;
            let op_span = tracer.map(|t| {
                let parent = pass_span.as_ref().map(|p| p.id);
                t.open(
                    format!("QueryEngine::execute {} {}", s.name(), q.name()),
                    parent,
                    request,
                )
            });
            let mut env = env.clone();
            if let Some(t) = tracer {
                env.trace = obs::TraceCtx::enabled_since(t.epoch());
            }
            let t0 = Instant::now();
            let result = execute(engines, s, q, &env);
            let latency_s = t0.elapsed().as_secs_f64();
            if let (Some(t), Some(span)) = (tracer, op_span) {
                let parent = span.id;
                t.close(span);
                if let Ok(run) = &result {
                    t.graft(&run.trace, parent, request, t.epoch());
                }
            }
            let (ok, cost_usd) = match &result {
                Ok(run) => (oracle.matches(q, &run.histogram), price(s, &run.stats)),
                Err(_) => (false, 0.0),
            };
            if let (Some(_), Ok(run)) = (tracer, result) {
                out.traces.push((out.ops.len(), run.trace));
            }
            out.attempted += 1;
            out.failed += u64::from(!ok);
            out.ops.push(OpRecord {
                system: s,
                query: q,
                latency_s,
                exec_s: latency_s,
                events,
                cost_usd,
                ok,
            });
        }
        if let (Some(t), Some(span)) = (tracer, pass_span) {
            t.close(span);
        }
        out.passes
            .push((pass_start.elapsed().as_secs_f64(), tracer.is_some()));
        pass += 1;
    }
    out
}

fn execute(
    engines: &HashMap<System, Box<dyn QueryEngine>>,
    s: System,
    q: QueryId,
    env: &ExecEnv,
) -> Result<EngineRun, AdapterError> {
    engines
        .get(&s)
        .expect("every pair's system is deployed")
        .execute(&QuerySpec::benchmark(q), env)
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(v: &mut [T], seed: u64) {
    let mut rng = SplitMix64::new(seed);
    for i in (1..v.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_sets_have_the_documented_sizes() {
        assert_eq!(pairs(Workload::Interactive).len(), 45);
        let batch = pairs(Workload::Batch);
        assert_eq!(batch.len(), 15);
        assert!(batch
            .iter()
            .all(|&(s, q)| s == System::RDataFrame || matches!(q, QueryId::Q6a | QueryId::Q6b)));
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..45).collect();
        let mut b = a.clone();
        shuffle(&mut a, 5);
        shuffle(&mut b, 5);
        assert_eq!(a, b);
        a.sort_unstable();
        assert_eq!(a, (0..45).collect::<Vec<_>>());
    }
}
