//! # physical-ir
//!
//! A batch-oriented physical plan shared by the three language engines.
//!
//! The frontends (engine-sql's script, engine-flwor's module, engine-rdf's
//! dataframe ops) each carry a *lowering pass* that maps the queries the
//! IR can express onto one plan shape:
//!
//! ```text
//! Scan → Filter* → Compute → Aggregate(histogram)
//! ```
//!
//! * **Scan** is implicit: [`PhysPlan::columns`] lists the leaf columns the
//!   plan touches; the caller remains responsible for scan accounting
//!   (`ScanStats`, cache, fault injection) so compiled execution is
//!   indistinguishable from interpretation in every ledger.
//! * **Filter** nodes reuse the typed predicate kernels of
//!   [`nf2_columnar::select`] ([`nf2_columnar::apply_predicates`]) to build
//!   a [`nf2_columnar::SelectionVector`] per row group, refined by
//!   list-cardinality predicates evaluated over the offsets array.
//! * **Compute** is either a scalar/list fill or the fused combinatoric
//!   trijet kernel ([`kernel`]): per-event pair/triple index enumeration
//!   ([`combi`]) over pre-decomposed four-momentum component vectors, with
//!   no per-row interpreter re-entry and no per-combination allocation.
//! * **Aggregate** maps each computed value through
//!   [`physics::HistSpec::bin_of`]; the executor returns the bin indices in
//!   event order so each engine can shape its own output (JSONiq item
//!   sequences, SQL `(bin, n)` relations, histograms).
//!
//! Lowering is structural and capability-gated. The SQL and JSONiq
//! frontends resolve their ASTs into the symbolic comprehension of
//! [`lower`] (leaves, element copies, counts, argmins and a bin
//! expression), and [`lower::histogram_plan`] builds the plan only when it
//! can prove the plan reproduces the interpreter's result: the binning
//! matches [`physics::HistSpec::bin_of`] piece by piece, and a trijet
//! argmin replays the reference kernel's float operation sequence op for
//! op. Everything else falls back to the interpreters, and so does a plan
//! whose leaves hold NaNs ([`PhysPlan::reads_nan`]), which the kernels
//! compare differently from the interpreters.

pub mod agg;
pub mod combi;
pub mod exec;
pub mod kernel;
pub mod lower;
pub mod plan;

pub use agg::{Exchange, PartialAgg, Provenance};
pub use combi::{for_each_pair, for_each_triple, CombiBuffer};
pub use exec::{execute, execute_group, GroupScratch, PirError};
pub use kernel::TrijetScratch;
pub use plan::{ComputeNode, ElemPredicate, FilterNode, PhysPlan, TrijetCompute, TrijetPlot};
