//! `perfbench`: runs one workload of the benchmark and prints its result
//! line. Usually started through `run.py`, which builds it first.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

use hepquery_perfbench::catalog::{Workload, END_TO_END, PER_LAYER};
use hepquery_perfbench::report;
use hepquery_perfbench::run::{self, Params};

const USAGE: &str = "usage: perfbench --workload <interactive|batch> --seed <n> \
                     --seconds <n> --trace <0|1> [--out <dir>]\n       perfbench --catalog";

struct Cli {
    params: Params,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from("perfbench/out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out" => out = PathBuf::from(val),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(Cli {
        params: Params {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            nproc,
        },
        out,
    })
}

/// The metric catalog as JSON, for the contract test.
fn catalog_json() -> String {
    let list = |ms: &[hepquery_perfbench::catalog::Metric]| {
        ms.iter()
            .map(|m| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    m.better.as_str()
                )
            })
            .collect::<Vec<_>>()
            .join(", ")
    };
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| format!("\"{}\"", w.name()))
        .collect();
    format!(
        "{{\"workloads\": [{}], \"end_to_end\": [{}], \"per_layer\": [{}]}}",
        workloads.join(", "),
        list(END_TO_END),
        list(PER_LAYER)
    )
}

fn env_or_unknown(key: &str) -> String {
    std::env::var(key).unwrap_or_else(|_| "unknown".to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--catalog") {
        println!("{}", catalog_json());
        return ExitCode::SUCCESS;
    }
    let cli = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let p = cli.params;
    eprintln!(
        "perfbench: workload {} seed {} for {} s, trace {}, nproc {}",
        p.workload.name(),
        p.seed,
        p.seconds,
        u8::from(p.trace),
        p.nproc
    );
    let outcome = run::run(p);
    report::print_table(&outcome.values);

    let unix_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let spans_file = outcome.tracer.as_ref().map(|t| {
        let path = cli.out.join(format!(
            "spans-{}-seed{}-{unix_ms}.json",
            p.workload.name(),
            p.seed
        ));
        let written = std::fs::create_dir_all(&cli.out).and_then(|_| t.write_json(&path));
        match written {
            Ok(()) => eprintln!("perfbench: wrote {} spans to {}", t.len(), path.display()),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
        path
    });

    let mut fields = vec![
        ("unix_ms".to_string(), unix_ms.to_string()),
        ("workload".to_string(), report::string(p.workload.name())),
        ("seed".to_string(), p.seed.to_string()),
        ("seconds".to_string(), report::num(p.seconds)),
        ("trace".to_string(), p.trace.to_string()),
        ("nproc".to_string(), p.nproc.to_string()),
        (
            "commit".to_string(),
            report::string(&env_or_unknown("PERFBENCH_COMMIT")),
        ),
        (
            "source_digest".to_string(),
            report::string(&env_or_unknown("PERFBENCH_SOURCE_DIGEST")),
        ),
        (
            "rustc".to_string(),
            report::string(&env_or_unknown("PERFBENCH_RUSTC")),
        ),
        ("events".to_string(), p.workload.events().to_string()),
        (
            "row_group_size".to_string(),
            p.workload.row_group_size().to_string(),
        ),
        ("ops".to_string(), outcome.attempted.to_string()),
        ("ops_failed".to_string(), outcome.failed.to_string()),
        ("correct".to_string(), outcome.correct.to_string()),
        ("metrics".to_string(), report::metrics_json(&outcome.values)),
    ];
    fields.extend(outcome.details.iter().cloned());
    if let Some(path) = &spans_file {
        fields.push((
            "spans_file".to_string(),
            report::string(&path.display().to_string()),
        ));
    }
    let record: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    let record = format!("{{{}}}", record.join(", "));
    if let Err(e) = report::append_record(&cli.out.join("records.jsonl"), &record) {
        eprintln!("perfbench: could not append the record: {e}");
    }
    println!(
        "{}",
        report::result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.values
        )
    );
    ExitCode::SUCCESS
}
