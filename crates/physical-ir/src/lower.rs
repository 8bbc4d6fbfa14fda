//! Structural lowering: the frontend-independent half of every
//! frontend's `compile::lower`.
//!
//! A frontend walks its AST and describes the query as a
//! [`Comprehension`] over the event row (zero or more copies of one
//! repeated collection, under a conjunction of [`Cond`]s) plus one
//! symbolic binning expression ([`Sym`]) per comprehension row. Names,
//! CTEs, derived tables, `let` bindings, lambdas and declared functions
//! are resolved away by the frontend, so what reaches this module is
//! arithmetic over leaves, counts and argmins. [`histogram_plan`] then
//! proves each piece against the IR:
//!
//! * the binning expression against [`HistSpec::bin_of`], piece by piece
//!   (both the SQL `CASE … LEAST(CAST(FLOOR(…)))` and the JSONiq nested
//!   `if … let $b := integer(floor(…))` spellings);
//! * each condition as a scalar-leaf filter, a count-of-filtered-elements
//!   filter, or an element predicate on the filled collection;
//! * the filled value as a scalar leaf, an element leaf, or the trijet
//!   idiom: a first-minimum argmin over three ordinal-ordered copies of a
//!   collection whose key and value replay the reference kernel's float
//!   operation sequence op for op.
//!
//! Anything else declines with `None`, and the engine interprets.
//! Constant folding follows the interpreters' arithmetic exactly
//! (IEEE `f64` for any float operand, checked `i64` for integer `+ − ×`;
//! integer division is never folded because the SQL and JSONiq meanings
//! differ), so a folded literal has the bits the interpreter computes.

use std::rc::Rc;
use std::sync::OnceLock;

use nested_value::Path;
use nf2_columnar::{DataType, PhysicalType, ScalarPredicate, Schema, SelCmp, SelValue};
use physics::HistSpec;

use crate::plan::{ComputeNode, ElemPredicate, FilterNode, PhysPlan, TrijetCompute, TrijetPlot};

/// Binary arithmetic operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arith {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (SQL) or `div` (JSONiq).
    Div,
}

/// Builtin functions a lowered expression may call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Func {
    /// Unary minus.
    Neg,
    /// `SQRT` / `sqrt`.
    Sqrt,
    /// `COS` / `cos`.
    Cos,
    /// `SIN` / `sin`.
    Sin,
    /// `SINH` / `sinh`.
    Sinh,
    /// `ABS` / `abs`.
    Abs,
    /// `FLOOR` / `floor`.
    Floor,
    /// `CAST(… AS BIGINT)` / `integer(…)`: truncation to `i64`.
    ToInt,
    /// `GREATEST` / `max((…))`.
    Max,
    /// `LEAST` / `min((…))`.
    Min,
}

/// A symbolic per-row value. Subtrees are shared (`Rc`), so resolving
/// a name to a large column value clones a pointer, not the tree.
///
/// Element references are relative to the innermost enclosing
/// comprehension: a [`Sym::Count`]'s conditions and a [`Best`]'s inner
/// comprehension, key, value and context each number their own copies
/// from 0.
#[derive(Clone, Debug, PartialEq)]
pub enum Sym {
    /// A non-repeated leaf of the event row (`MET.pt`).
    Leaf(Path),
    /// A leaf of the current element of collection copy `.0` (`Jet.pt`).
    Elem(usize, Path),
    /// The position of the current element of collection copy `.0`.
    Ord(usize),
    /// Float literal.
    Num(f64),
    /// Integer literal.
    Int(i64),
    /// Binary arithmetic.
    Arith(Arith, Rc<Sym>, Rc<Sym>),
    /// Builtin call.
    Call(Func, Vec<Sym>),
    /// `CASE WHEN c THEN v … ELSE e END` / `if (c) then v else e`.
    Case(Vec<(Cond, Sym)>, Rc<Sym>),
    /// The number of elements of one collection passing `conds` (over
    /// copy 0 of the count's own scope). `leaf` is a leaf of the
    /// collection; its offsets give the per-event lengths.
    Count {
        /// A leaf of the counted collection.
        leaf: Path,
        /// Conjunctive element conditions.
        conds: Vec<Cond>,
    },
    /// A per-event first-minimum argmin.
    Best(Rc<Best>),
    /// A record of named values (struct or object constructors).
    Record(Vec<(String, Sym)>),
}

/// A comparison between two symbolic values.
#[derive(Clone, Debug, PartialEq)]
pub struct Cond {
    /// Left operand.
    pub lhs: Sym,
    /// Operator.
    pub cmp: SelCmp,
    /// Right operand.
    pub rhs: Sym,
}

/// Rows of a query: per event, one row per combination of the elements
/// of `copies` (the event row itself when there are none) passing every
/// condition in `conds`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Comprehension {
    /// Collections unnested per event, outermost first. Element
    /// combinations enumerate in nesting order.
    pub copies: Vec<Path>,
    /// Conjunctive conditions.
    pub conds: Vec<Cond>,
}

/// The per-event argmin: `value` of the first row of `inner`
/// (enumeration order) with the smallest `key`. Absent for events where
/// `inner` has no row.
#[derive(Clone, Debug, PartialEq)]
pub struct Best {
    /// The candidate rows.
    pub inner: Comprehension,
    /// The minimized key.
    pub key: Sym,
    /// The selected value.
    pub value: Sym,
    /// Every other value the candidate row carries. Lowering reads it
    /// only to name leaves the kernel needs but `value` does not mention
    /// (the b-tag leaf of a trijet whose pt is plotted).
    pub context: Vec<Sym>,
}

impl Sym {
    /// `a op b`, folded when both operands are literals.
    pub fn arith(op: Arith, a: Sym, b: Sym) -> Sym {
        if let (Sym::Int(x), Sym::Int(y)) = (&a, &b) {
            let folded = match op {
                Arith::Add => x.checked_add(*y),
                Arith::Sub => x.checked_sub(*y),
                Arith::Mul => x.checked_mul(*y),
                Arith::Div => None,
            };
            return match folded {
                Some(v) => Sym::Int(v),
                None => Sym::Arith(op, Rc::new(a), Rc::new(b)),
            };
        }
        match (a.literal(), b.literal()) {
            (Some(x), Some(y)) => Sym::Num(match op {
                Arith::Add => x + y,
                Arith::Sub => x - y,
                Arith::Mul => x * y,
                Arith::Div => x / y,
            }),
            _ => Sym::Arith(op, Rc::new(a), Rc::new(b)),
        }
    }

    /// `-a`, folded for literals.
    pub fn negate(a: Sym) -> Sym {
        match a {
            Sym::Int(x) if x != i64::MIN => Sym::Int(-x),
            Sym::Num(x) => Sym::Num(-x),
            other => Sym::Call(Func::Neg, vec![other]),
        }
    }

    /// A numeric literal as `f64`.
    pub(crate) fn literal(&self) -> Option<f64> {
        match self {
            Sym::Num(x) => Some(*x),
            Sym::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Member `name` of a record, or of the record an argmin selects.
    pub fn field(&self, name: &str) -> Option<Sym> {
        match self {
            Sym::Record(fields) => fields
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.clone()),
            Sym::Best(b) => Some(Sym::Best(Rc::new(Best {
                value: b.value.field(name)?,
                ..(**b).clone()
            }))),
            _ => None,
        }
    }

    /// True when the value reads an element or ordinal of its own
    /// scope (nested counts and argmins have theirs).
    pub fn mentions_elements(&self) -> bool {
        match self {
            Sym::Elem(..) | Sym::Ord(_) => true,
            Sym::Arith(_, a, b) => a.mentions_elements() || b.mentions_elements(),
            Sym::Call(_, args) => args.iter().any(Sym::mentions_elements),
            Sym::Case(whens, els) => {
                els.mentions_elements()
                    || whens.iter().any(|(c, v)| {
                        c.lhs.mentions_elements()
                            || c.rhs.mentions_elements()
                            || v.mentions_elements()
                    })
            }
            Sym::Record(fields) => fields.iter().any(|(_, v)| v.mentions_elements()),
            Sym::Leaf(_) | Sym::Num(_) | Sym::Int(_) | Sym::Count { .. } | Sym::Best(_) => false,
        }
    }

    /// Re-numbers the element copies this value references in its own
    /// scope (nested counts and argmins keep theirs).
    pub fn renumber(&self, f: &dyn Fn(usize) -> usize) -> Sym {
        match self {
            Sym::Elem(c, p) => Sym::Elem(f(*c), p.clone()),
            Sym::Ord(c) => Sym::Ord(f(*c)),
            Sym::Arith(op, a, b) => Sym::Arith(*op, Rc::new(a.renumber(f)), Rc::new(b.renumber(f))),
            Sym::Call(func, args) => Sym::Call(*func, args.iter().map(|a| a.renumber(f)).collect()),
            Sym::Case(whens, els) => Sym::Case(
                whens
                    .iter()
                    .map(|(c, v)| (c.renumber(f), v.renumber(f)))
                    .collect(),
                Rc::new(els.renumber(f)),
            ),
            Sym::Record(fields) => Sym::Record(
                fields
                    .iter()
                    .map(|(n, v)| (n.clone(), v.renumber(f)))
                    .collect(),
            ),
            Sym::Leaf(_) | Sym::Num(_) | Sym::Int(_) | Sym::Count { .. } | Sym::Best(_) => {
                self.clone()
            }
        }
    }
}

impl Cond {
    /// `lhs cmp rhs`.
    pub fn new(lhs: Sym, cmp: SelCmp, rhs: Sym) -> Cond {
        Cond { lhs, cmp, rhs }
    }

    /// The same condition with a literal operand moved to the right.
    pub(crate) fn normalized(&self) -> Cond {
        if self.lhs.literal().is_some() && self.rhs.literal().is_none() {
            Cond::new(self.rhs.clone(), flip(self.cmp), self.lhs.clone())
        } else {
            self.clone()
        }
    }

    /// See [`Sym::renumber`].
    pub fn renumber(&self, f: &dyn Fn(usize) -> usize) -> Cond {
        Cond::new(self.lhs.renumber(f), self.cmp, self.rhs.renumber(f))
    }
}

/// The operator with its operands swapped (`a < b` ⇔ `b > a`).
fn flip(cmp: SelCmp) -> SelCmp {
    match cmp {
        SelCmp::Lt => SelCmp::Gt,
        SelCmp::Le => SelCmp::Ge,
        SelCmp::Gt => SelCmp::Lt,
        SelCmp::Ge => SelCmp::Le,
        SelCmp::Eq => SelCmp::Eq,
        SelCmp::Ne => SelCmp::Ne,
    }
}

// ------------------------------------------------------------------ schema

/// What a dotted name denotes when resolved from the event row.
#[derive(Clone, Debug, PartialEq)]
pub enum RowName {
    /// A non-repeated scalar leaf.
    Leaf(Path),
    /// A repeated collection of structs.
    Collection(Path),
    /// A struct prefix (`MET`) that needs more segments.
    Struct(Path),
}

fn find_field<'a>(
    fields: &'a [nf2_columnar::Field],
    name: &str,
    ci: bool,
) -> Option<&'a nf2_columnar::Field> {
    fields.iter().find(|f| {
        if ci {
            f.name.eq_ignore_ascii_case(name)
        } else {
            f.name.as_ref() == name
        }
    })
}

/// Resolves `segs` from the event row (`ci`: case-insensitive, SQL
/// style), returning the path with the schema's spelling.
pub fn resolve_row(schema: &Schema, segs: &[&str], ci: bool) -> Option<RowName> {
    let mut fields = schema.fields();
    let mut path: Option<Path> = None;
    for (i, seg) in segs.iter().enumerate() {
        let f = find_field(fields, seg, ci)?;
        let p = match &path {
            Some(p) => p.child(&f.name),
            None => Path::root(&f.name),
        };
        let last = i + 1 == segs.len();
        match &f.dtype {
            DataType::Scalar(_) => return last.then_some(RowName::Leaf(p)),
            DataType::List(inner) => {
                return (last && matches!(**inner, DataType::Struct(_)))
                    .then_some(RowName::Collection(p))
            }
            DataType::Struct(inner) => {
                if last {
                    return Some(RowName::Struct(p));
                }
                fields = inner;
                path = Some(p);
            }
        }
    }
    None
}

/// The scalar leaves of one element of collection `coll`, in field order;
/// `None` unless every field is a scalar.
pub fn element_leaves(schema: &Schema, coll: &Path) -> Option<Vec<Path>> {
    let DataType::List(inner) = schema.type_at(coll)? else {
        return None;
    };
    let DataType::Struct(fields) = &**inner else {
        return None;
    };
    fields
        .iter()
        .map(|f| matches!(f.dtype, DataType::Scalar(_)).then(|| coll.child(&f.name)))
        .collect()
}

/// The leaf `name` of an element of collection `coll`.
pub fn element_leaf(schema: &Schema, coll: &Path, name: &str, ci: bool) -> Option<Path> {
    let DataType::List(inner) = schema.type_at(coll)? else {
        return None;
    };
    let DataType::Struct(fields) = &**inner else {
        return None;
    };
    let f = find_field(fields, name, ci)?;
    matches!(f.dtype, DataType::Scalar(_)).then(|| coll.child(&f.name))
}

/// The count of `coll`'s elements passing `conds`, its lengths read from
/// the collection's first leaf.
pub fn count(schema: &Schema, coll: &Path, conds: Vec<Cond>) -> Option<Sym> {
    let leaf = element_leaves(schema, coll)?.into_iter().next()?;
    Some(Sym::Count { leaf, conds })
}

/// True when `conds` contain a count over collection `coll` that proves
/// every surviving event has at least `n` elements.
pub fn guarantees_elements(conds: &[Cond], coll: &Path, n: i64) -> bool {
    conds.iter().any(|c| {
        let c = c.normalized();
        let (Sym::Count { leaf, .. }, Sym::Int(k)) = (&c.lhs, &c.rhs) else {
            return false;
        };
        leaf.len() == coll.len() + 1
            && leaf.starts_with(coll)
            && match c.cmp {
                SelCmp::Ge | SelCmp::Eq => *k >= n,
                SelCmp::Gt => *k >= n - 1,
                _ => false,
            }
    })
}

// -------------------------------------------------------------- assembly

/// Lowers one histogram query: rows `comp`, each binned by `bin`. The
/// plan reads only float leaves of `schema`.
pub fn histogram_plan(comp: &Comprehension, bin: &Sym, schema: &Schema) -> Option<PhysPlan> {
    let (spec, value) = match_bin(bin)?;
    let mut filters = Vec::new();
    let mut elem: Option<ElemPredicate> = None;
    for cond in &comp.conds {
        let c = cond.normalized();
        if let Some(f) = filter_node(&c) {
            filters.push(f);
        } else if comp.copies.len() == 1 && elem.is_none() {
            elem = Some(elem_predicate(&c)?);
        } else {
            return None;
        }
    }
    let compute = match (comp.copies.len(), value) {
        (0, Sym::Leaf(leaf)) => ComputeNode::ScalarFill { leaf },
        (0, Sym::Best(best)) => ComputeNode::Trijet(trijet(&best)?),
        (1, Sym::Elem(0, leaf)) => ComputeNode::ListFill { leaf, elem },
        _ => return None,
    };
    let plan = PhysPlan {
        filters,
        compute,
        spec,
    };
    let floats = plan.columns().iter().all(|c| {
        schema
            .leaf(c)
            .is_some_and(|l| matches!(l.ptype, PhysicalType::Float32 | PhysicalType::Float64))
    });
    floats.then_some(plan)
}

/// A row filter: a scalar leaf against a literal, or an element count
/// against an integer.
fn filter_node(c: &Cond) -> Option<FilterNode> {
    match (&c.lhs, &c.rhs) {
        (Sym::Leaf(leaf), rhs) => Some(FilterNode::Scalar(ScalarPredicate {
            leaf: leaf.clone(),
            cmp: c.cmp,
            value: SelValue::Float(rhs.literal()?),
        })),
        (Sym::Count { leaf, conds }, Sym::Int(count)) => {
            let (leaf, elem) = match &conds[..] {
                [] => (leaf.clone(), None),
                [e] => {
                    let e = elem_predicate(&e.normalized())?;
                    (e.leaf.clone(), Some(e))
                }
                _ => return None,
            };
            Some(FilterNode::ListCount {
                leaf,
                elem,
                cmp: c.cmp,
                count: *count,
            })
        }
        _ => None,
    }
}

/// `leaf cmp literal` or `ABS(leaf) cmp literal` over element copy 0.
fn elem_predicate(c: &Cond) -> Option<ElemPredicate> {
    let (leaf, abs) = match &c.lhs {
        Sym::Elem(0, leaf) => (leaf, false),
        Sym::Call(Func::Abs, args) => match &args[..] {
            [Sym::Elem(0, leaf)] => (leaf, true),
            _ => return None,
        },
        _ => return None,
    };
    Some(ElemPredicate {
        leaf: leaf.clone(),
        cmp: c.cmp,
        value: c.rhs.literal()?,
        abs,
    })
}

/// Splits a binning expression into its [`HistSpec`] and the binned
/// value, proving it computes [`HistSpec::bin_of`] for every non-NaN
/// value: `v < lo → −1`, `v ≥ hi → bins`, else
/// `min(trunc(floor((v − lo) / width)), bins − 1)` with `width` the exact
/// bits of [`HistSpec::width`]. Cases nested in `ELSE` position are
/// flattened, so the clamp may be `LEAST(b, n − 1)` or a third arm
/// `if (b > n − 1) then n − 1 else b`.
pub fn match_bin(bin: &Sym) -> Option<(HistSpec, Sym)> {
    let mut arms: Vec<&(Cond, Sym)> = Vec::new();
    let mut rest = bin;
    while let Sym::Case(whens, els) = rest {
        arms.extend(whens);
        rest = els;
    }
    let ((under, minus_one), (over, top_bin)) = (arms.first()?, arms.get(1)?);
    let (under, over) = (under.normalized(), over.normalized());
    if under.cmp != SelCmp::Lt || over.cmp != SelCmp::Ge || under.lhs != over.lhs {
        return None;
    }
    let value = under.lhs;
    let (lo, hi) = (under.rhs.literal()?, over.rhs.literal()?);
    let (Sym::Int(-1), Sym::Int(bins)) = (minus_one, top_bin) else {
        return None;
    };
    if *bins <= 0 || !(lo.is_finite() && hi.is_finite() && lo < hi) {
        return None;
    }
    let spec = HistSpec {
        bins: *bins as usize,
        lo,
        hi,
    };
    let last = Sym::Int(bins - 1);
    // trunc(floor((v − lo) / width))
    let raw = |b: &Sym| -> bool {
        let Sym::Call(Func::ToInt, a) = b else {
            return false;
        };
        let [Sym::Call(Func::Floor, a)] = &a[..] else {
            return false;
        };
        let [Sym::Arith(Arith::Div, num, width)] = &a[..] else {
            return false;
        };
        let Sym::Arith(Arith::Sub, v, lo2) = &**num else {
            return false;
        };
        **v == value
            && lo2.literal().map(f64::to_bits) == Some(lo.to_bits())
            && width.literal().map(f64::to_bits) == Some(spec.width().to_bits())
    };
    let clamped = match (&arms[2..], rest) {
        ([], Sym::Call(Func::Min, args)) => {
            matches!(&args[..], [b, l] if raw(b) && *l == last)
        }
        ([(c, l)], b) => {
            let c = c.normalized();
            raw(b) && c.lhs == *b && c.cmp == SelCmp::Gt && c.rhs == last && *l == last
        }
        _ => false,
    };
    clamped.then_some((spec, value))
}

// ---------------------------------------------------------------- trijet

/// The per-jet roles the trijet kernel reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Role {
    Pt,
    Eta,
    Phi,
    Mass,
    Btag,
}

/// A pattern over [`Sym`]: the reference kernel's float sequence with
/// the leaves and the reference mass left open.
#[derive(Clone, Debug)]
enum Pat {
    Role(usize, Role),
    Top,
    Zero,
    Arith(Arith, Box<Pat>, Box<Pat>),
    Call(Func, Vec<Pat>),
}

fn op(a: Arith, x: Pat, y: Pat) -> Pat {
    Pat::Arith(a, Box::new(x), Box::new(y))
}

fn call(f: Func, x: Pat) -> Pat {
    Pat::Call(f, vec![x])
}

/// Leaves and reference mass bound while unifying.
#[derive(Clone, Debug, Default)]
struct Bindings {
    roles: [Option<Path>; 5],
    top: Option<f64>,
}

fn unify(p: &Pat, s: &Sym, b: &mut Bindings) -> bool {
    match (p, s) {
        (Pat::Role(slot, role), Sym::Elem(copy, path)) if slot == copy => {
            match &b.roles[*role as usize] {
                Some(bound) => bound == path,
                None => {
                    b.roles[*role as usize] = Some(path.clone());
                    true
                }
            }
        }
        (Pat::Top, Sym::Num(x)) if x.is_finite() => match b.top {
            Some(t) => t.to_bits() == x.to_bits(),
            None => {
                b.top = Some(*x);
                true
            }
        },
        (Pat::Zero, Sym::Num(x)) => x.to_bits() == 0.0f64.to_bits(),
        (Pat::Arith(po, px, py), Sym::Arith(so, sx, sy)) => {
            po == so && unify(px, sx, b) && unify(py, sy, b)
        }
        (Pat::Call(pf, pa), Sym::Call(sf, sa)) => {
            pf == sf && pa.len() == sa.len() && pa.iter().zip(sa).all(|(p, s)| unify(p, s, b))
        }
        _ => false,
    }
}

/// `(px, py, pz, e)` of one jet, as the reference four-vector
/// constructor computes them.
fn four_vector(slot: usize) -> [Pat; 4] {
    let r = |role| Pat::Role(slot, role);
    let px = op(Arith::Mul, r(Role::Pt), call(Func::Cos, r(Role::Phi)));
    let py = op(Arith::Mul, r(Role::Pt), call(Func::Sin, r(Role::Phi)));
    let pz = op(Arith::Mul, r(Role::Pt), call(Func::Sinh, r(Role::Eta)));
    let sq = |x: &Pat| op(Arith::Mul, x.clone(), x.clone());
    let e = call(
        Func::Sqrt,
        op(
            Arith::Add,
            op(Arith::Add, op(Arith::Add, sq(&px), sq(&py)), sq(&pz)),
            sq(&r(Role::Mass)),
        ),
    );
    [px, py, pz, e]
}

/// The three-jet system's `(px, py, pz, e)`: left-associated sums in
/// slot order.
fn system() -> [Pat; 4] {
    let jets = [four_vector(0), four_vector(1), four_vector(2)];
    std::array::from_fn(|k| {
        op(
            Arith::Add,
            op(Arith::Add, jets[0][k].clone(), jets[1][k].clone()),
            jets[2][k].clone(),
        )
    })
}

fn sq(x: &Pat) -> Pat {
    op(Arith::Mul, x.clone(), x.clone())
}

/// `|√(max(0, e² − (px² + py² + pz²))) − top|`.
fn dist_pattern() -> Pat {
    let [px, py, pz, e] = system();
    let p2 = op(Arith::Add, op(Arith::Add, sq(&px), sq(&py)), sq(&pz));
    let mass = call(
        Func::Sqrt,
        Pat::Call(Func::Max, vec![Pat::Zero, op(Arith::Sub, sq(&e), p2)]),
    );
    call(Func::Abs, op(Arith::Sub, mass, Pat::Top))
}

/// `√(px² + py²)` of the system.
fn pt_pattern() -> Pat {
    let [px, py, _, _] = system();
    call(Func::Sqrt, op(Arith::Add, sq(&px), sq(&py)))
}

/// `max(b1, b2, b3)`.
fn btag_pattern() -> Pat {
    Pat::Call(
        Func::Max,
        (0..3).map(|slot| Pat::Role(slot, Role::Btag)).collect(),
    )
}

/// The distance, pt and b-tag patterns, built once.
fn trijet_patterns() -> &'static [Pat; 3] {
    static PATTERNS: OnceLock<[Pat; 3]> = OnceLock::new();
    PATTERNS.get_or_init(|| [dist_pattern(), pt_pattern(), btag_pattern()])
}

/// Recognizes the trijet idiom: three copies of one collection in
/// strict ordinal order `0 < 1 < 2` (so combinations enumerate exactly
/// like the kernel's `i < j < k`), no other condition, the candidate
/// distance as the argmin key, and the system pt or max b-tag as the
/// value.
fn trijet(best: &Best) -> Option<TrijetCompute> {
    let [c0, c1, c2] = &best.inner.copies[..] else {
        return None;
    };
    if c0 != c1 || c1 != c2 {
        return None;
    }
    let mut order: Vec<(usize, usize)> = best
        .inner
        .conds
        .iter()
        .map(|c| match (&c.lhs, c.cmp, &c.rhs) {
            (Sym::Ord(a), SelCmp::Lt, Sym::Ord(b)) => Some((*a, *b)),
            (Sym::Ord(a), SelCmp::Gt, Sym::Ord(b)) => Some((*b, *a)),
            _ => None,
        })
        .collect::<Option<_>>()?;
    order.sort_unstable();
    if order != [(0, 1), (1, 2)] {
        return None;
    }
    let mut b = Bindings::default();
    let [dist, pt, btag] = trijet_patterns();
    if !unify(dist, &best.key, &mut b) {
        return None;
    }
    let try_unify = |p: &Pat, s: &Sym, b: &mut Bindings| {
        let mut t = b.clone();
        let ok = unify(p, s, &mut t);
        if ok {
            *b = t;
        }
        ok
    };
    let plot = if try_unify(pt, &best.value, &mut b) {
        TrijetPlot::Pt
    } else if try_unify(btag, &best.value, &mut b) {
        TrijetPlot::MaxBtag
    } else {
        return None;
    };
    if b.roles[Role::Btag as usize].is_none() {
        best.context.iter().any(|s| try_unify(btag, s, &mut b));
    }
    let [Some(pt), Some(eta), Some(phi), Some(mass), Some(btag)] = b.roles else {
        return None;
    };
    Some(TrijetCompute {
        pt,
        eta,
        phi,
        mass,
        btag,
        top_mass: b.top?,
        plot,
    })
}
