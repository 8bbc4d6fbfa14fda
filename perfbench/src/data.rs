//! Inputs: the seeds derived from `--seed` and the timed data set build.
//!
//! The workload seed is the only source of randomness. It drives the
//! generator seed of the data set, the service probe's schedule and the
//! order of the interactive pairs; the program only ever sees the
//! generated events, the table and the requests.

use std::sync::Arc;

use hep_model::generator::{Generator, GeneratorConfig};
use hep_model::schema::{event_schema, TABLE_NAME};
use hep_model::to_value::event_to_value;
use hep_model::{DatasetSpec, Event};
use hepbench_bench::loadgen::SplitMix64;
use nested_value::Value;
use nf2_columnar::{Table, TableBuilder};

use crate::trace::{timed, Tracer};

/// Independent seeds derived from one workload seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Seeds {
    /// Event generator seed.
    pub data: u64,
    /// Service probe schedule seed.
    pub schedule: u64,
    /// Interactive pair-order seed.
    pub order: u64,
}

impl Seeds {
    /// Derives the three seeds from the `--seed` argument.
    pub fn derive(seed: u64) -> Seeds {
        let mut rng = SplitMix64::new(seed ^ 0x9E3C_5EED_0B5E_4C11);
        Seeds {
            data: rng.next_u64(),
            schedule: rng.next_u64(),
            order: rng.next_u64(),
        }
    }
}

/// Generated events and the table built from them.
pub struct Dataset {
    /// The generated events (the oracle's input).
    pub events: Vec<Event>,
    /// The columnar table (the engines' input).
    pub table: Arc<Table>,
}

/// Seconds spent in the two set-up layers of one build.
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildTimes {
    /// `Generator::generate`.
    pub generate_s: f64,
    /// `TableBuilder::append_all` + `finish` (encodings are chosen here).
    pub build_s: f64,
}

/// Generates the events of `spec` and builds their table, timing the
/// generator and the table build separately.
pub fn build(
    spec: DatasetSpec,
    tracer: Option<&Tracer>,
    parent: Option<u64>,
) -> (Dataset, BuildTimes) {
    let (events, generate_s) = timed(tracer, "hep_model::Generator::generate", parent, || {
        Generator::new(GeneratorConfig::default(), spec.seed).generate(spec.n_events)
    });
    let (rows, _) = timed(
        tracer,
        "hep_model::to_value::event_to_value",
        parent,
        || events.iter().map(event_to_value).collect::<Vec<Value>>(),
    );
    let (table, build_s) = timed(
        tracer,
        "nf2_columnar::TableBuilder::append_all+finish",
        parent,
        || {
            let schema = event_schema().expect("the event schema is valid");
            let mut b = TableBuilder::new(TABLE_NAME, schema, spec.row_group_size);
            b.append_all(&rows)
                .expect("generated events fit the schema");
            b.finish()
        },
    );
    let dataset = Dataset {
        events,
        table: Arc::new(table),
    };
    (
        dataset,
        BuildTimes {
            generate_s,
            build_s,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_pure_functions_of_the_workload_seed() {
        assert_eq!(Seeds::derive(7), Seeds::derive(7));
        assert_ne!(Seeds::derive(7), Seeds::derive(8));
        let s = Seeds::derive(1);
        assert!(s.data != s.schedule && s.schedule != s.order);
    }

    #[test]
    fn build_matches_the_repository_dataset_builder() {
        let spec = DatasetSpec {
            n_events: 256,
            row_group_size: 2,
            seed: 11,
        };
        let (ours, _) = build(spec, None, None);
        let (events, table) = hep_model::generator::build_dataset(spec);
        assert_eq!(ours.events, events);
        assert_eq!(ours.table.fingerprint(), table.fingerprint());
    }
}
