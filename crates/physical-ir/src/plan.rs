//! The physical plan node set.

use nested_value::Path;
use nf2_columnar::{ScalarPredicate, SelCmp, Table};
use physics::HistSpec;

/// An element-level predicate over one leaf of a repeated column
/// (`Jet.pt > 40.0`, or `ABS(Jet.eta) < 1.0` with `abs`). Comparisons are
/// plain IEEE comparisons, matching the per-element semantics of the
/// interpreters and the reference oracle on NaN-free data; engines decline
/// the compiled path for chunks that hold NaNs ([`PhysPlan::reads_nan`]).
#[derive(Clone, Debug, PartialEq)]
pub struct ElemPredicate {
    /// The repeated leaf the predicate reads.
    pub leaf: Path,
    /// Comparison operator.
    pub cmp: SelCmp,
    /// Literal to compare against.
    pub value: f64,
    /// Compare the element's absolute value (`f64::abs`, as the
    /// interpreters' `ABS`/`abs` builtins compute it).
    pub abs: bool,
}

impl ElemPredicate {
    /// Evaluates the predicate on one element value.
    pub fn matches(&self, x: f64) -> bool {
        let x = if self.abs { x.abs() } else { x };
        match self.cmp {
            SelCmp::Lt => x < self.value,
            SelCmp::Le => x <= self.value,
            SelCmp::Gt => x > self.value,
            SelCmp::Ge => x >= self.value,
            SelCmp::Eq => x == self.value,
            SelCmp::Ne => x != self.value,
        }
    }
}

/// One filter over the event rows of a row group.
#[derive(Clone, Debug, PartialEq)]
pub enum FilterNode {
    /// Scalar-leaf predicate, executed batch-at-a-time by
    /// [`nf2_columnar::apply_predicates`] (the typed selection kernels).
    Scalar(ScalarPredicate),
    /// Keep rows where the number of elements of a repeated column
    /// (optionally restricted to elements passing `elem`) compares to
    /// `count` under `cmp` — e.g. `size(Jet) >= 3`.
    ListCount {
        /// A leaf under the repeated column (its offsets define the
        /// per-row element ranges).
        leaf: Path,
        /// Optional element predicate; `None` counts all elements.
        elem: Option<ElemPredicate>,
        /// Comparison on the count.
        cmp: SelCmp,
        /// Count literal.
        count: i64,
    },
}

/// What the plot member of the best trijet is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrijetPlot {
    /// Transverse momentum of the three-jet system.
    Pt,
    /// Maximum b-tag discriminator among the three jets.
    MaxBtag,
}

/// The fused Q6-class kernel: enumerate all jet triples per event, pick
/// the one whose invariant mass is closest to `top_mass`, and plot one
/// member of the winning system. Events with fewer than three jets
/// produce no fill.
#[derive(Clone, Debug, PartialEq)]
pub struct TrijetCompute {
    /// `Jet.pt` leaf.
    pub pt: Path,
    /// `Jet.eta` leaf.
    pub eta: Path,
    /// `Jet.phi` leaf.
    pub phi: Path,
    /// `Jet.mass` leaf.
    pub mass: Path,
    /// `Jet.btag` leaf.
    pub btag: Path,
    /// The mass the candidate distance is measured from (172.5 GeV).
    pub top_mass: f64,
    /// Plotted member of the best system.
    pub plot: TrijetPlot,
}

/// The compute node: what value(s) each selected event contributes.
#[derive(Clone, Debug, PartialEq)]
pub enum ComputeNode {
    /// Plot a scalar leaf: one fill per selected event.
    ScalarFill {
        /// The plotted leaf.
        leaf: Path,
    },
    /// Plot each element of a repeated leaf (optionally filtered): zero
    /// or more fills per selected event, in element order.
    ListFill {
        /// The plotted repeated leaf.
        leaf: Path,
        /// Optional element predicate.
        elem: Option<ElemPredicate>,
    },
    /// The fused combinatoric trijet kernel: at most one fill per event.
    Trijet(TrijetCompute),
}

/// A complete physical plan: filters, compute, and the histogram spec
/// the computed values are binned into.
#[derive(Clone, Debug, PartialEq)]
pub struct PhysPlan {
    /// Conjunctive row filters.
    pub filters: Vec<FilterNode>,
    /// Value computation per selected row.
    pub compute: ComputeNode,
    /// Histogram the values are binned into ([`HistSpec::bin_of`]).
    pub spec: HistSpec,
}

impl PhysPlan {
    /// True when some chunk of a leaf the plan reads holds a NaN (its zone
    /// map's `has_nan`). The interpreters compare under a total order that
    /// puts NaN last, while element predicates and the trijet argmin
    /// compare with IEEE semantics, so engines interpret such tables
    /// instead.
    pub fn reads_nan(&self, table: &Table) -> bool {
        let cols = self.columns();
        table.row_groups().iter().any(|g| {
            cols.iter()
                .any(|c| g.column(c).is_ok_and(|chunk| chunk.zone.has_nan))
        })
    }

    /// Every distinct leaf column the plan reads — the implicit Scan node.
    pub fn columns(&self) -> Vec<Path> {
        let mut cols: Vec<Path> = Vec::new();
        let mut push = |p: &Path| {
            if !cols.contains(p) {
                cols.push(p.clone());
            }
        };
        for f in &self.filters {
            match f {
                FilterNode::Scalar(p) => push(&p.leaf),
                FilterNode::ListCount { leaf, elem, .. } => {
                    push(leaf);
                    if let Some(e) = elem {
                        push(&e.leaf);
                    }
                }
            }
        }
        match &self.compute {
            ComputeNode::ScalarFill { leaf } => push(leaf),
            ComputeNode::ListFill { leaf, elem } => {
                push(leaf);
                if let Some(e) = elem {
                    push(&e.leaf);
                }
            }
            ComputeNode::Trijet(t) => {
                for p in [&t.pt, &t.eta, &t.phi, &t.mass, &t.btag] {
                    push(p);
                }
            }
        }
        cols
    }
}
