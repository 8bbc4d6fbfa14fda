//! Per-layer measurements, taken from outside the program: direct calls
//! into each crate's public functions, and self times derived from the
//! span trees the engines already record.

use std::time::Instant;

use hep_model::Event;
use hepbench_core::adapters::ExecEnv;
use hepbench_core::engine_api::QuerySpec;
use hepbench_core::queries::{self, Language};
use hepbench_core::runner::System;
use hepbench_core::{QueryId, ALL_QUERIES};
use nested_value::Path;
use nf2_columnar::{
    apply_predicates, Projection, ScalarPredicate, ScanRequest, SelCmp, SelValue, Table,
};
use obs::{CancelToken, SpanTree, Stage, TraceCtx};
use physical_ir::{
    ComputeNode, Exchange, GroupScratch, PartialAgg, PhysPlan, Provenance, TrijetScratch,
};

use crate::check::{histogram_of_bins, Oracle};
use crate::closed::{self, Pair};
use crate::data::Dataset;
use crate::stats::median;
use crate::trace::{ran_compiled, stage_self_ns, timed, Tracer};

/// Checked-operation accounting shared by every probe.
#[derive(Clone, Copy, Debug, Default)]
pub struct Checks {
    /// Outputs compared with the reference.
    pub attempted: u64,
    /// Outputs that differed (or calls that failed).
    pub failed: u64,
}

impl Checks {
    /// Counts one check.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Runs `f` at least `min_reps` times and for at least `min_secs`,
/// returning each call's seconds. When tracing, each call is a span.
fn repeat(
    tracer: Option<&Tracer>,
    name: &str,
    min_reps: usize,
    min_secs: f64,
    mut f: impl FnMut(),
) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_reps || start.elapsed().as_secs_f64() < min_secs {
        out.push(timed(tracer, name, None, &mut f).1);
    }
    out
}

/// The leaves each benchmark output reads.
fn projection(q: QueryId) -> Projection {
    const MUON: [&str; 5] = [
        "Muon.pt",
        "Muon.eta",
        "Muon.phi",
        "Muon.mass",
        "Muon.charge",
    ];
    const ELECTRON: [&str; 5] = [
        "Electron.pt",
        "Electron.eta",
        "Electron.phi",
        "Electron.mass",
        "Electron.charge",
    ];
    let cols: Vec<&str> = match q {
        QueryId::Q1 => vec!["MET.pt"],
        QueryId::Q2 => vec!["Jet.pt"],
        QueryId::Q3 => vec!["Jet.pt", "Jet.eta"],
        QueryId::Q4 => vec!["MET.pt", "Jet.pt"],
        QueryId::Q5 => [&["MET.pt"][..], &MUON].concat(),
        QueryId::Q6a | QueryId::Q6b => vec!["Jet.pt", "Jet.eta", "Jet.phi", "Jet.mass", "Jet.btag"],
        QueryId::Q7 => [
            &["Jet.pt", "Jet.eta", "Jet.phi"][..],
            &MUON[..3],
            &ELECTRON[..3],
        ]
        .concat(),
        QueryId::Q8 => [&["MET.pt", "MET.phi"][..], &MUON, &ELECTRON].concat(),
    };
    Projection::of(cols)
}

/// Scan accounting per output projection: `(µs per scan, bytes scanned
/// per event, fraction of row groups pruned)`. The outputs carry no
/// event-level scalar conjunct, so the pruning pass gets none.
pub fn scan_probe(table: &Table, tracer: Option<&Tracer>, checks: &mut Checks) -> (f64, f64, f64) {
    let mut per_query_us = Vec::new();
    let (mut bytes, mut pruned) = (0u64, 0u64);
    for &q in ALL_QUERIES {
        let proj = projection(q);
        let mut stats = None;
        let secs = repeat(tracer, "nf2_columnar::ScanRequest::run", 5, 0.05, || {
            stats = ScanRequest::new(table, &proj)
                .prune(&[])
                .run()
                .ok()
                .map(|r| r.stats);
        });
        per_query_us.push(median(&secs) * 1e6);
        let ok = stats.is_some_and(|s| s.rows == table.n_rows() as u64);
        checks.record(ok);
        if let Some(s) = stats {
            bytes += s.bytes_scanned;
            pruned += s.groups_pruned;
        }
    }
    let n = ALL_QUERIES.len() as f64;
    (
        per_query_us.iter().sum::<f64>() / n,
        bytes as f64 / (n * table.n_rows() as f64),
        pruned as f64 / (n * table.row_groups().len() as f64),
    )
}

/// The conjunct `select_ns_per_row` times: the scan-class outputs carry
/// no event-level scalar predicate, so this is a one-conjunct `MET.pt`
/// cut of the kind the selection kernels serve.
fn select_predicates() -> Vec<ScalarPredicate> {
    vec![ScalarPredicate {
        leaf: Path::parse("MET.pt"),
        cmp: SelCmp::Gt,
        value: SelValue::Float(25.0),
    }]
}

/// `apply_predicates` over every row group, in ns per row.
pub fn select_probe(data: &Dataset, tracer: Option<&Tracer>, checks: &mut Checks) -> f64 {
    let preds = select_predicates();
    let mut survivors = 0usize;
    let secs = repeat(
        tracer,
        "nf2_columnar::apply_predicates (every group)",
        5,
        0.2,
        || {
            survivors = data
                .table
                .row_groups()
                .iter()
                .map(|g| apply_predicates(g, &preds).map_or(usize::MAX, |s| s.len()))
                .fold(0usize, usize::saturating_add);
        },
    );
    let expected = data.events.iter().filter(|e| e.met.pt > 25.0).count();
    checks.record(survivors == expected);
    median(&secs) * 1e9 / data.table.n_rows() as f64
}

/// Q6a and Q6b as the Presto frontend lowers them.
pub fn lowered_q6() -> Vec<(QueryId, PhysPlan)> {
    [QueryId::Q6a, QueryId::Q6b]
        .into_iter()
        .map(|q| {
            let script = engine_sql::parser::parse_script(&queries::text(Language::Presto, q))
                .expect("the benchmark Q6 text parses");
            let plan = engine_sql::compile::lower(&script).expect("the benchmark Q6 text lowers");
            (q, plan)
        })
        .collect()
}

/// The Q1 plan (scalar fill of `MET.pt`), as RDataFrame lowers it.
fn q1_plan() -> PhysPlan {
    PhysPlan {
        filters: Vec::new(),
        compute: ComputeNode::ScalarFill {
            leaf: Path::parse("MET.pt"),
        },
        spec: QueryId::Q1.hist_spec(),
    }
}

fn serial(plan: &PhysPlan, table: &Table) -> Option<Vec<i64>> {
    let (trace, cancel) = (TraceCtx::disabled(), CancelToken::none());
    physical_ir::execute(plan, table, None, &trace, &cancel).ok()
}

fn parallel(
    plan: &PhysPlan,
    table: &Table,
    opts: &exec_par::ParOptions,
) -> Result<(Vec<i64>, exec_par::ParStats), physical_ir::PirError> {
    let (trace, cancel) = (TraceCtx::disabled(), CancelToken::none());
    exec_par::execute(plan, table, None, &trace, &cancel, None, opts)
}

/// Serial `physical_ir::execute` of the lowered Q6 plans, ns per event
/// (mean of Q6a and Q6b).
pub fn exec_probe(
    data: &Dataset,
    oracle: &Oracle,
    plans: &[(QueryId, PhysPlan)],
    tracer: Option<&Tracer>,
    checks: &mut Checks,
) -> f64 {
    let mut ns = Vec::new();
    for (q, plan) in plans {
        let mut bins = None;
        let secs = repeat(tracer, "physical_ir::execute", 3, 0.3, || {
            bins = serial(plan, &data.table);
        });
        checks.record(bins.is_some_and(|b| oracle.matches(*q, &histogram_of_bins(*q, &b))));
        ns.push(median(&secs) * 1e9 / data.table.n_rows() as f64);
    }
    ns.iter().sum::<f64>() / ns.len() as f64
}

/// `TrijetScratch::load` + `best` over every event's jets: `(ns per
/// combination, combinations)`, where an event of J jets counts
/// 1 + C(J,3) (Table 2's operations per event). The count repeats
/// exactly for a given seed.
pub fn trijet_probe(events: &[Event], tracer: Option<&Tracer>, checks: &mut Checks) -> (f64, u64) {
    let jets: Vec<[Vec<f64>; 5]> = events
        .iter()
        .map(|e| {
            let col = |f: fn(&hep_model::Jet) -> f64| e.jets.iter().map(f).collect::<Vec<f64>>();
            [
                col(|j| j.pt),
                col(|j| j.eta),
                col(|j| j.phi),
                col(|j| j.mass),
                col(|j| j.btag),
            ]
        })
        .collect();
    let combinations: u64 = events
        .iter()
        .map(|e| {
            let j = e.jets.len() as u64;
            1 + j * j.saturating_sub(1) * j.saturating_sub(2) / 6
        })
        .sum();
    let mut scratch = TrijetScratch::new();
    let mut best = Vec::with_capacity(events.len());
    let secs = repeat(
        tracer,
        "physical_ir::TrijetScratch::load+best (every event)",
        3,
        0.3,
        || {
            best.clear();
            for [pt, eta, phi, mass, btag] in &jets {
                scratch.load(pt, eta, phi, mass);
                best.push(scratch.best(btag, 172.5));
            }
            std::hint::black_box(&best);
        },
    );
    let agrees = events.iter().zip(&best).all(|(e, got)| {
        let want = hepbench_core::reference::best_trijet(&e.jets).map(|(pt, b, _)| (pt, b));
        *got == want
    });
    checks.record(agrees);
    (median(&secs) * 1e9 / combinations as f64, combinations)
}

/// `Exchange::push` of one partial per row group (in reverse group
/// order, as a pool might finish) + `merge`, in µs.
pub fn merge_probe(
    table: &Table,
    plan: &PhysPlan,
    tracer: Option<&Tracer>,
    checks: &mut Checks,
) -> f64 {
    let mut scratch = GroupScratch::new(plan);
    let partials: Vec<PartialAgg> = table
        .row_groups()
        .iter()
        .enumerate()
        .map(|(g, group)| {
            let mut bins = Vec::new();
            physical_ir::execute_group(plan, group, &mut scratch, &mut bins)
                .expect("a lowered plan executes on the benchmark table");
            PartialAgg {
                group: g,
                bins,
                rows: group.n_rows() as u64,
                provenance: Provenance::first(0),
            }
        })
        .collect();
    let mut secs = Vec::new();
    let mut merged = None;
    let start = Instant::now();
    while secs.len() < 5 || start.elapsed().as_secs_f64() < 0.2 {
        // Cloned outside the timed call: the pool hands partials over.
        let batch = partials.clone();
        let (m, s) = timed(tracer, "physical_ir::Exchange::push+merge", None, || {
            let mut ex = Exchange::new();
            for p in batch.into_iter().rev() {
                ex.push(p);
            }
            ex.merge(&CancelToken::none()).ok()
        });
        merged = m;
        secs.push(s);
    }
    checks.record(merged == serial(plan, table));
    median(&secs) * 1e6
}

/// `exec_par::execute` at `workers` against serial `physical_ir::execute`
/// on the same plan.
#[derive(Clone, Copy, Debug, Default)]
pub struct ParProbe {
    /// Serial wall ÷ parallel wall (medians).
    pub speedup: f64,
    /// Process CPU seconds ÷ (parallel wall × workers used).
    pub busy_frac: f64,
    /// Morsels per run.
    pub morsels: f64,
    /// Median steals per run.
    pub steals: f64,
}

/// See [`ParProbe`].
pub fn par_probe(
    table: &Table,
    plan: &PhysPlan,
    workers: usize,
    tracer: Option<&Tracer>,
    checks: &mut Checks,
) -> ParProbe {
    let mut want = None;
    let serial_s = repeat(tracer, "physical_ir::execute", 3, 0.3, || {
        want = serial(plan, table);
    });
    let opts = exec_par::ParOptions::new(workers);
    let mut runs = Vec::new();
    let cpu0 = process_cpu_s();
    let par_s = repeat(tracer, "exec_par::execute", 3, 0.5, || {
        runs.push(parallel(plan, table, &opts));
    });
    let cpu = process_cpu_s() - cpu0;
    let ok = want.is_some()
        && runs
            .iter()
            .all(|r| r.as_ref().is_ok_and(|(b, _)| Some(b) == want.as_ref()));
    checks.record(ok);
    let stats: Vec<exec_par::ParStats> = runs
        .into_iter()
        .filter_map(|r| r.ok().map(|(_, s)| s))
        .collect();
    let used = stats.first().map_or(workers, |s| s.workers).max(1);
    ParProbe {
        speedup: median(&serial_s) / median(&par_s),
        busy_frac: cpu / (par_s.iter().sum::<f64>() * used as f64),
        morsels: median(&stats.iter().map(|s| s.morsels as f64).collect::<Vec<_>>()),
        steals: median(&stats.iter().map(|s| s.steals as f64).collect::<Vec<_>>()),
    }
}

/// Pool overhead on a cheap plan: `exec_par::execute` minus serial
/// execute of the Q1 plan, µs (medians, interleaved).
pub fn spawn_probe(
    table: &Table,
    workers: usize,
    tracer: Option<&Tracer>,
    checks: &mut Checks,
) -> f64 {
    let plan = q1_plan();
    let opts = exec_par::ParOptions::new(workers);
    let (mut ser, mut par) = (Vec::new(), Vec::new());
    let mut ok = true;
    let start = Instant::now();
    while ser.len() < 20 || start.elapsed().as_secs_f64() < 0.3 {
        let (a, s) = timed(tracer, "physical_ir::execute", None, || {
            serial(&plan, table)
        });
        ser.push(s);
        let (b, s) = timed(tracer, "exec_par::execute", None, || {
            parallel(&plan, table, &opts)
        });
        par.push(s);
        ok &= a.is_some() && b.is_ok_and(|(bins, _)| Some(bins) == a);
    }
    checks.record(ok);
    (median(&par) - median(&ser)) * 1e6
}

/// Process CPU seconds (user + system) from `/proc/self/stat`, in clock
/// ticks of 1/100 s; `0.0` where unavailable.
fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    // Fields 14 and 15 of the stat line; `rest` starts at field 3.
    (tick(11) + tick(12)) / 100.0
}

/// The query family a system's frontend belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Family {
    /// BigQuery, Presto, Athena.
    Sql,
    /// Rumble (JSONiq).
    Flwor,
    /// RDataFrame.
    Rdf,
}

/// The family of a frontend.
fn family(s: System) -> Family {
    match s {
        System::Rumble => Family::Flwor,
        System::RDataFrame | System::RDataFrameDev => Family::Rdf,
        _ => Family::Sql,
    }
}

/// Self-time metrics of the engine layers, as per-operation means.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineSpans {
    /// Parse + plan self µs per SQL query.
    pub sql_parse_plan_us: Option<f64>,
    /// Parse + plan self µs per JSONiq query.
    pub flwor_parse_plan_us: Option<f64>,
    /// Aggregate + materialize self seconds per interpreted SQL query.
    pub sql_interp_s: Option<f64>,
    /// Aggregate + materialize self seconds per interpreted JSONiq query.
    pub flwor_interp_s: Option<f64>,
    /// Aggregate self seconds per RDataFrame event-loop query.
    pub rdf_eventloop_s: Option<f64>,
}

/// Derives [`EngineSpans`] from traced operations; a field is `None` when
/// no operation of that kind was traced.
pub fn engine_spans<'a>(traced: impl IntoIterator<Item = (System, &'a SpanTree)>) -> EngineSpans {
    let mut acc = [(0u64, 0u64); 5];
    for (s, tree) in traced {
        let compiled = ran_compiled(tree);
        let parse_plan = stage_self_ns(tree, &[Stage::Parse, Stage::Plan]);
        let interp = stage_self_ns(tree, &[Stage::Aggregate, Stage::Materialize]);
        let mut add = |i: usize, v: u64| {
            acc[i].0 += v;
            acc[i].1 += 1;
        };
        match family(s) {
            Family::Sql => {
                add(0, parse_plan);
                if !compiled {
                    add(2, interp);
                }
            }
            Family::Flwor => {
                add(1, parse_plan);
                if !compiled {
                    add(3, interp);
                }
            }
            Family::Rdf => {
                if !compiled {
                    add(4, stage_self_ns(tree, &[Stage::Aggregate]));
                }
            }
        }
    }
    let mean =
        |i: usize, scale: f64| (acc[i].1 > 0).then(|| acc[i].0 as f64 / acc[i].1 as f64 * scale);
    EngineSpans {
        sql_parse_plan_us: mean(0, 1e-3),
        flwor_parse_plan_us: mean(1, 1e-3),
        sql_interp_s: mean(2, 1e-9),
        flwor_interp_s: mean(3, 1e-9),
        rdf_eventloop_s: mean(4, 1e-9),
    }
}

/// The 45-pair coverage pass: every pair once, traced, through
/// `engine_for_compiled` with `parallel_workers = nproc`.
pub struct Coverage {
    /// Pairs whose span tree shows the compiled path.
    pub compiled_pairs: u64,
    /// For SQL and JSONiq pairs, the span tree and the frontend's own
    /// `compile::lower` agree on whether the pair compiles (recorded as
    /// one check).
    pub lowering_agrees: bool,
    /// Each pair's span tree.
    pub traces: Vec<(Pair, SpanTree)>,
}

/// Runs the coverage pass on `small` (an interactive-size table).
pub fn coverage(
    small: &Dataset,
    oracle: &Oracle,
    nproc: usize,
    tracer: Option<&Tracer>,
    checks: &mut Checks,
) -> Coverage {
    let pairs = closed::pairs(crate::catalog::Workload::Interactive);
    let engines = closed::deploy(small, &pairs);
    let mut out = Coverage {
        compiled_pairs: 0,
        lowering_agrees: true,
        traces: Vec::new(),
    };
    for (s, q) in pairs {
        let env = ExecEnv {
            parallel_workers: Some(nproc),
            trace: tracer.map_or_else(TraceCtx::enabled, |t| TraceCtx::enabled_since(t.epoch())),
            ..ExecEnv::default()
        };
        let span = tracer.map(|t| t.open(format!("coverage {} {}", s.name(), q.name()), None, 0));
        let run = engines[&s].execute(&QuerySpec::benchmark(q), &env);
        if let (Some(t), Some(span)) = (tracer, span) {
            let id = span.id;
            t.close(span);
            if let Ok(r) = &run {
                t.graft(&r.trace, id, 0, t.epoch());
            }
        }
        let Ok(run) = run else {
            checks.record(false);
            continue;
        };
        checks.record(oracle.matches(q, &run.histogram));
        let compiled = ran_compiled(&run.trace);
        out.compiled_pairs += u64::from(compiled);
        if let Some(lowers) = frontend_lowers(s, q) {
            out.lowering_agrees &= lowers == compiled;
        }
        out.traces.push(((s, q), run.trace));
    }
    checks.record(out.lowering_agrees);
    out
}

/// Whether the SQL or JSONiq frontend lowers the pair's text to a
/// physical plan; `None` for RDataFrame, whose lowering is not public.
fn frontend_lowers(s: System, q: QueryId) -> Option<bool> {
    let lang = match s {
        System::BigQuery | System::BigQueryExternal => Language::BigQuery,
        System::Presto => Language::Presto,
        System::AthenaV2 | System::AthenaV1 => Language::Athena,
        System::Rumble => Language::Jsoniq,
        System::RDataFrame | System::RDataFrameDev => return None,
    };
    let text = queries::text(lang, q);
    Some(if lang == Language::Jsoniq {
        engine_flwor::parser::parse_module(&text)
            .ok()
            .and_then(|m| engine_flwor::compile::lower(&m))
            .is_some()
    } else {
        engine_sql::parser::parse_script(&text)
            .ok()
            .and_then(|s| engine_sql::compile::lower(&s))
            .is_some()
    })
}
