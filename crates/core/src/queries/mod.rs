//! The benchmark query texts for every system under test.
//!
//! All SQL texts follow one output contract: the final relation has two
//! columns `(bin BIGINT, n BIGINT)` where `bin ∈ {-1} ∪ [0, 100]` (−1 =
//! underflow, 100 = overflow) for the query's [`HistSpec`]. JSONiq modules
//! return the flat sequence of bin indices (one per plotted value) — the
//! trivial final count is the adapter's job, mirroring how Rumble jobs
//! collect results from Spark.
//!
//! The floating-point formulas in the texts are written to execute the
//! **bit-identical** operation sequence of the reference kernels in
//! [`crate::reference`], enabling exact cross-engine validation.

pub mod athena;
pub mod bigquery;
pub mod jsoniq;
pub mod presto;
pub mod rdataframe_cpp;

use physics::HistSpec;

use crate::spec::QueryId;

/// Languages/dialects under test (Table 1 columns).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Language {
    /// Amazon Athena SQL.
    Athena,
    /// Google BigQuery SQL.
    BigQuery,
    /// PrestoDB SQL.
    Presto,
    /// JSONiq (Rumble).
    Jsoniq,
    /// ROOT RDataFrame (C++).
    RDataFrame,
}

impl Language {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Language::Athena => "Athena",
            Language::BigQuery => "BigQuery",
            Language::Presto => "Presto",
            Language::Jsoniq => "JSONiq",
            Language::RDataFrame => "RDataFrame",
        }
    }
}

/// All Table-1 languages.
pub const ALL_LANGUAGES: &[Language] = &[
    Language::Athena,
    Language::BigQuery,
    Language::Presto,
    Language::Jsoniq,
    Language::RDataFrame,
];

/// Returns the query text for a language (used for execution by the SQL /
/// JSONiq engines, and for Table-1 metrics for all five).
pub fn text(lang: Language, q: QueryId) -> String {
    match lang {
        Language::Athena => athena::text(q),
        Language::BigQuery => bigquery::text(q),
        Language::Presto => presto::text(q),
        Language::Jsoniq => jsoniq::text(q),
        Language::RDataFrame => rdataframe_cpp::text(q).to_string(),
    }
}

/// Formats an `f64` as a SQL/JSONiq literal that parses back to the same
/// bits (full precision, always with a decimal point).
pub fn flit(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{x:.1}")
    } else {
        // Shortest round-trip representation.
        format!("{x}")
    }
}

/// BigQuery bins inline (and groups by the select alias, its R2.4
/// extension) — no helper UDF needed, keeping its texts the most concise
/// of the SQL dialects like in the paper.
pub fn bq_binof_call(value: &str, spec: HistSpec) -> String {
    let lo = flit(spec.lo);
    let hi = flit(spec.hi);
    let n = spec.bins as i64;
    let nf = flit(spec.bins as f64);
    format!(
        "CASE WHEN {value} < {lo} THEN -1 WHEN {value} >= {hi} THEN {n} \
         ELSE LEAST(CAST(FLOOR(({value} - {lo}) / (({hi} - {lo}) / {nf})) AS INT64), {nm1}) END",
        nm1 = n - 1
    )
}

/// Presto/Athena have no usable scalar-UDF path for binning in Athena's
/// case (no UDFs at all), so both spell the CASE out; this builds the
/// final two-CTE binning tail over a CTE `plotted(x)`.
pub fn presto_hist_tail(spec: HistSpec) -> String {
    let lo = flit(spec.lo);
    let hi = flit(spec.hi);
    let n = spec.bins as i64;
    let nf = flit(spec.bins as f64);
    format!(
        "SELECT t.bin AS bin, COUNT(*) AS n\n\
         FROM (\n\
         \x20 SELECT CASE WHEN p.x < {lo} THEN -1\n\
         \x20             WHEN p.x >= {hi} THEN {n}\n\
         \x20             ELSE LEAST(CAST(FLOOR((p.x - {lo}) / (({hi} - {lo}) / {nf})) AS BIGINT), {nm1}) END AS bin\n\
         \x20 FROM plotted p) t\n\
         GROUP BY t.bin",
        nm1 = n - 1
    )
}

/// The JSONiq binning function declaration.
pub fn jq_bin_fn() -> &'static str {
    "declare function hep:bin($x, $lo, $hi, $n) {\n\
     \x20 if ($x < $lo) then -1\n\
     \x20 else if ($x ge $hi) then $n\n\
     \x20 else let $b := integer(floor(($x - $lo) div (($hi - $lo) div $n)))\n\
     \x20      return if ($b > $n - 1) then $n - 1 else $b\n\
     };\n"
}

/// Call to the JSONiq bin function. The bin count is an integer literal so
/// that the returned bin indices are integers (the `div` in the width
/// computation still promotes to double, keeping the width bits identical
/// to [`physics::HistSpec::width`]).
pub fn jq_bin_call(value: &str, spec: HistSpec) -> String {
    format!(
        "hep:bin({value}, {}, {}, {})",
        flit(spec.lo),
        flit(spec.hi),
        spec.bins
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ALL_QUERIES;

    #[test]
    fn every_language_has_every_query() {
        for lang in ALL_LANGUAGES {
            for q in ALL_QUERIES {
                let t = text(*lang, *q);
                assert!(!t.trim().is_empty(), "{:?} {}", lang, q.name());
            }
        }
    }

    #[test]
    fn sql_texts_parse_and_validate_in_their_dialect() {
        use engine_sql::dialect::Dialect;
        for q in ALL_QUERIES {
            for (lang, dialect) in [
                (Language::BigQuery, Dialect::bigquery()),
                (Language::Presto, Dialect::presto()),
                (Language::Athena, Dialect::athena()),
            ] {
                let t = text(lang, *q);
                let script = engine_sql::parser::parse_script(&t)
                    .unwrap_or_else(|e| panic!("{:?} {} parse: {e}\n{t}", lang, q.name()));
                dialect
                    .validate(&script)
                    .unwrap_or_else(|e| panic!("{:?} {} validate: {e}", lang, q.name()));
            }
        }
    }

    #[test]
    fn jsoniq_texts_parse() {
        for q in ALL_QUERIES {
            let t = text(Language::Jsoniq, *q);
            engine_flwor::parser::parse_module(&t)
                .unwrap_or_else(|e| panic!("JSONiq {} parse: {e}\n{t}", q.name()));
        }
    }

    /// The frontend's own `compile::lower` on a benchmark text.
    fn lowered(lang: Language, q: QueryId) -> Option<physical_ir::PhysPlan> {
        let t = text(lang, q);
        match lang {
            Language::Jsoniq => {
                engine_flwor::compile::lower(&engine_flwor::parser::parse_module(&t).unwrap())
            }
            _ => engine_sql::compile::lower(&engine_sql::parser::parse_script(&t).unwrap()),
        }
    }

    #[test]
    fn lowering_coverage_matrix() {
        use nested_value::Path;
        use nf2_columnar::SelCmp;
        use physical_ir::{ComputeNode, FilterNode, PhysPlan, TrijetCompute, TrijetPlot};

        // If recognition silently broke, results would stay correct
        // (interpreter fallback) but these pairs would run 10–1000×
        // slower.
        let frontends = [
            Language::BigQuery,
            Language::Presto,
            Language::Athena,
            Language::Jsoniq,
        ];
        for lang in frontends {
            for q in [
                QueryId::Q1,
                QueryId::Q2,
                QueryId::Q3,
                QueryId::Q4,
                QueryId::Q6a,
                QueryId::Q6b,
            ] {
                assert!(
                    lowered(lang, q).is_some(),
                    "{:?} {} must lower to the physical IR",
                    lang,
                    q.name()
                );
            }
            // Pair compute (Q5, Q8) and the ΔR veto (Q7) have no IR node.
            for q in [QueryId::Q5, QueryId::Q7, QueryId::Q8] {
                assert!(
                    lowered(lang, q).is_none(),
                    "{:?} {} lowered, but the IR cannot express it",
                    lang,
                    q.name()
                );
            }
        }
        // The Q6 plans the batch workload runs, written out so that a
        // lowering change cannot silently change what it measures.
        for (q, plot, hi) in [
            (QueryId::Q6a, TrijetPlot::Pt, 250.0),
            (QueryId::Q6b, TrijetPlot::MaxBtag, 1.0),
        ] {
            let sql = PhysPlan {
                filters: Vec::new(),
                compute: ComputeNode::Trijet(TrijetCompute {
                    pt: Path::parse("Jet.pt"),
                    eta: Path::parse("Jet.eta"),
                    phi: Path::parse("Jet.phi"),
                    mass: Path::parse("Jet.mass"),
                    btag: Path::parse("Jet.btag"),
                    top_mass: 172.5,
                    plot,
                }),
                spec: HistSpec {
                    bins: 100,
                    lo: 0.0,
                    hi,
                },
            };
            let jsoniq = PhysPlan {
                filters: vec![FilterNode::ListCount {
                    leaf: Path::parse("Jet.pt"),
                    elem: None,
                    cmp: SelCmp::Ge,
                    count: 3,
                }],
                ..sql.clone()
            };
            assert_eq!(
                lowered(Language::Presto, q).as_ref(),
                Some(&sql),
                "Presto {}",
                q.name()
            );
            assert_eq!(
                lowered(Language::Athena, q).as_ref(),
                Some(&sql),
                "Athena {}",
                q.name()
            );
            assert_eq!(
                lowered(Language::Jsoniq, q),
                Some(jsoniq),
                "JSONiq {}",
                q.name()
            );
        }
    }

    #[test]
    fn float_literals_roundtrip() {
        for x in [0.0, 200.0, 0.45, 91.2, 172.5, 1.0 / 3.0] {
            let lit = flit(x);
            assert_eq!(lit.parse::<f64>().unwrap(), x, "{lit}");
            assert!(lit.contains('.') || lit.contains('e'), "{lit}");
        }
    }
}
