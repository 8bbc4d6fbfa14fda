//! Output: the result line the caller parses, a readable table on stderr,
//! and an appended provenance record.

use std::io::Write;

use crate::catalog::Metric;

/// A metric value, keyed by catalog entry.
pub type Values = Vec<(Metric, f64)>;

/// Looks `name` up in `catalog` and pairs it with `value`.
///
/// # Panics
/// If `name` is not in the catalog — a metric the benchmark does not
/// declare must never be printed.
pub fn value(catalog: &[Metric], name: &str, value: f64) -> (Metric, f64) {
    let m = *catalog
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not a declared metric"));
    (m, value)
}

/// JSON number: finite values in full precision, anything else `null`
/// (never produced for a declared metric of a valid run).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// The `"metrics"` object.
pub fn metrics_json(values: &Values) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|(m, v)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(*v),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, values: &Values) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(values)
    )
}

/// Human-readable table of the metrics, to stderr.
pub fn print_table(values: &Values) {
    let mut err = std::io::stderr().lock();
    for (m, v) in values {
        let _ = writeln!(err, "  {:<40} {:>18.6} {}", m.name, v, m.unit);
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), `0.0` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Appends one JSON line to `path`, creating it if needed; earlier
/// records are never rewritten.
pub fn append_record(path: &std::path::Path, record: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    f.write_all(format!("{record}\n").as_bytes())?;
    f.sync_all()
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    format!("\"{}\"", obs::json_escape(s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::END_TO_END;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let values = vec![value(END_TO_END, "setup_s", 0.25)];
        let line = result_line(true, 3, 0, &values);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(1e-7), "1e-7");
    }

    #[test]
    #[should_panic(expected = "not a declared metric")]
    fn undeclared_metrics_are_refused() {
        value(END_TO_END, "made_up", 1.0);
    }
}
