//! Lowering SQL scripts to the shared vectorized physical IR.
//!
//! Lowering is **structural**: the script's AST is walked relation by
//! relation (CTEs, derived tables, `UNNEST` chains, correlated scalar
//! subqueries) and every column is resolved to a symbolic value over the
//! event row's leaves ([`physical_ir::lower::Sym`]). The final
//! `SELECT <bin> AS bin, COUNT(*) AS n … GROUP BY bin` is then handed to
//! [`physical_ir::lower::histogram_plan`], which proves the binning
//! expression, the filters and the filled value against the IR. The same
//! query therefore lowers however a dialect spells it: BigQuery's inline
//! `CASE` and correlated `(SELECT COUNT(*) FROM UNNEST …)`, Presto's
//! column-list `CROSS JOIN UNNEST` and `CARDINALITY(FILTER(…))`, Athena's
//! whole-struct aliases, the `plotted` CTE with its binning tail, and the
//! trijet argmin as `MIN_BY … GROUP BY` or `ORDER BY … LIMIT 1`.
//!
//! Any construct outside that vocabulary (UDFs, joins between relations,
//! `HAVING`, outer `ORDER BY`, unsupported functions) declines with
//! `None` and the engine interprets — fallback is always sound.

use std::rc::Rc;
use std::sync::OnceLock;

use nested_value::Path;
use nf2_columnar::{Schema, SelCmp};
use physical_ir::lower::{self, Arith, Best, Comprehension, Cond, Func, RowName, Sym};
use physical_ir::PhysPlan;

use crate::ast::{
    BinaryOp, Expr, FromItem, JoinKind, Query, Script, Select, SelectItem, TypeName, UnaryOp,
};

/// The base table compiled plans read.
pub(crate) const EVENTS: &str = "events";

/// The event row's unique id: the only key a `GROUP BY` may collapse
/// candidate rows on (one group per event).
const EVENT_KEY: &str = "event";

/// Lowers a parsed script against the benchmark's event schema
/// ([`hep_model::schema::event_schema`]). Returns `None` for any script
/// the IR cannot express — the caller falls back to the interpreter.
pub fn lower(script: &Script) -> Option<PhysPlan> {
    static SCHEMA: OnceLock<Option<Schema>> = OnceLock::new();
    let schema = SCHEMA.get_or_init(|| hep_model::schema::event_schema().ok());
    lower_with(script, schema.as_ref()?)
}

/// Lowers a parsed script against the schema of the registered
/// `events` table (positional `UNNEST` column lists bind by its field
/// order).
pub(crate) fn lower_with(script: &Script, schema: &Schema) -> Option<PhysPlan> {
    if !script.functions.is_empty() {
        return None;
    }
    let mut cx = Lowerer {
        schema,
        ctes: Vec::new(),
    };
    for (name, cte) in &script.query.ctes {
        let rel = cx.query(cte, &Scope::default());
        cx.ctes.push((name.to_ascii_lowercase(), rel));
    }
    cx.histogram(&script.query)
}

/// A relation: its rows and named output columns.
#[derive(Clone, Debug)]
struct Rel {
    comp: Comprehension,
    cols: Vec<Col>,
}

/// One output column. `nullable` marks values that are NULL when absent
/// (a correlated `ORDER BY … LIMIT 1` over no rows).
#[derive(Clone, Debug)]
struct Col {
    name: String,
    sym: Sym,
    nullable: bool,
}

/// What a FROM-clause name denotes.
#[derive(Clone, Debug)]
enum Binding {
    /// A row of the base table.
    Event,
    /// A row of a CTE or derived table.
    Row(Vec<Col>),
    /// An element of collection copy `copy` (a whole-struct alias).
    Elem { copy: usize, coll: Path },
    /// One value: a Presto column-list alias, an ordinality or an offset.
    Value(Sym),
}

/// Names in scope, innermost last.
#[derive(Clone, Debug, Default)]
struct Scope {
    names: Vec<(String, Binding)>,
}

impl Scope {
    fn bind(&mut self, name: &str, b: Binding) {
        self.names.push((name.to_ascii_lowercase(), b));
    }

    /// The bindings a correlated subquery or lambda may read: the event
    /// row (element and row bindings would cross comprehension scopes).
    fn events_only(&self) -> Scope {
        Scope {
            names: self
                .names
                .iter()
                .filter(|(_, b)| matches!(b, Binding::Event))
                .cloned()
                .collect(),
        }
    }

    /// Every value the scope's rows carry (an argmin's context).
    fn values(&self) -> Vec<Sym> {
        let mut out = Vec::new();
        for (_, b) in &self.names {
            match b {
                Binding::Row(cols) => out.extend(cols.iter().map(|c| c.sym.clone())),
                Binding::Value(s) => out.push(s.clone()),
                Binding::Event | Binding::Elem { .. } => {}
            }
        }
        out
    }
}

/// A translated expression: a scalar (with nullability) or a collection
/// of elements passing `conds` (over copy 0 of its own scope).
enum Val {
    Scalar(Sym, bool),
    Coll { path: Path, conds: Vec<Cond> },
}

struct Lowerer<'a> {
    schema: &'a Schema,
    /// CTEs in definition order; `None` for one that does not lower.
    ctes: Vec<(String, Option<Rel>)>,
}

impl Lowerer<'_> {
    /// The outer histogram query: `SELECT <bin> AS bin, COUNT(*) AS n
    /// FROM … [WHERE …] GROUP BY bin`.
    fn histogram(&self, q: &Query) -> Option<PhysPlan> {
        let sel = &q.select;
        if !q.order_by.is_empty() || q.limit.is_some() || sel.distinct || sel.having.is_some() {
            return None;
        }
        let [SelectItem::Expr {
            expr: bin,
            alias: Some(bin_alias),
        }, SelectItem::Expr {
            expr: Expr::CountStar,
            alias: Some(n_alias),
        }] = &sel.items[..]
        else {
            return None;
        };
        if !bin_alias.eq_ignore_ascii_case("bin") || !n_alias.eq_ignore_ascii_case("n") {
            return None;
        }
        let (comp, scope) = self.select_rel(sel, &Scope::default())?;
        let (bin_sym, false) = self.scalar(bin, &scope)? else {
            return None;
        };
        let [key] = &sel.group_by[..] else {
            return None;
        };
        let grouped_by_bin = match self.scalar(key, &scope) {
            Some((s, _)) => s == bin_sym,
            None => {
                matches!(key, Expr::Name(p) if p.len() == 1 && p[0].eq_ignore_ascii_case("bin"))
            }
        };
        if !grouped_by_bin {
            return None;
        }
        lower::histogram_plan(&comp, &bin_sym, self.schema)
    }

    /// A (sub)query as a relation. `outer` holds the event bindings a
    /// correlated subquery sees.
    fn query(&self, q: &Query, outer: &Scope) -> Option<Rel> {
        let sel = &q.select;
        if !q.ctes.is_empty()
            || !q.order_by.is_empty()
            || q.limit.is_some()
            || sel.distinct
            || sel.having.is_some()
        {
            return None;
        }
        let (comp, scope) = self.select_rel(sel, outer)?;
        if !sel.group_by.is_empty() {
            return self.grouped(sel, comp, &scope);
        }
        let cols = sel
            .items
            .iter()
            .map(|item| {
                let SelectItem::Expr { expr, alias } = item else {
                    return None;
                };
                let (sym, nullable) = self.scalar(expr, &scope)?;
                Some(Col {
                    name: column_name(expr, alias),
                    sym,
                    nullable,
                })
            })
            .collect::<Option<_>>()?;
        Some(Rel { comp, cols })
    }

    /// `SELECT key, MIN_BY(v, k) … GROUP BY key` over candidate rows,
    /// keyed on the event id: one row per event that has candidates,
    /// each `MIN_BY` a first-minimum argmin over them.
    fn grouped(&self, sel: &Select, comp: Comprehension, scope: &Scope) -> Option<Rel> {
        let [key] = &sel.group_by[..] else {
            return None;
        };
        let (key, false) = self.scalar(key, scope)? else {
            return None;
        };
        if key != Sym::Leaf(Path::root(EVENT_KEY)) || comp.copies.is_empty() {
            return None;
        }
        let context = scope.values();
        let cols = sel
            .items
            .iter()
            .map(|item| {
                let SelectItem::Expr { expr, alias } = item else {
                    return None;
                };
                let sym = match expr {
                    Expr::Call { name, args, .. } if name.eq_ignore_ascii_case("min_by") => {
                        let [value, by] = &args[..] else {
                            return None;
                        };
                        let ((value, false), (by, false)) =
                            (self.scalar(value, scope)?, self.scalar(by, scope)?)
                        else {
                            return None;
                        };
                        Sym::Best(Rc::new(Best {
                            inner: comp.clone(),
                            key: by,
                            value,
                            context: context.clone(),
                        }))
                    }
                    _ => {
                        let (s, _) = self.scalar(expr, scope)?;
                        if s != key {
                            return None;
                        }
                        s
                    }
                };
                Some(Col {
                    name: column_name(expr, alias),
                    sym,
                    nullable: false,
                })
            })
            .collect::<Option<_>>()?;
        Some(Rel {
            comp: Comprehension::default(),
            cols,
        })
    }

    /// The rows of a `FROM … WHERE …` block and the scope its select list
    /// reads: the base table or one CTE/derived table, followed by
    /// `UNNEST`s of the event row's collections.
    fn select_rel(&self, sel: &Select, outer: &Scope) -> Option<(Comprehension, Scope)> {
        let mut comp = Comprehension::default();
        let mut scope = outer.events_only();
        let mut sourced = false;
        let mut row_source = false;
        let mut items = Vec::new();
        for item in &sel.from {
            flatten_from(item, &mut items)?;
        }
        for item in items {
            match item {
                FromItem::Table { name, alias } => {
                    if sourced {
                        return None;
                    }
                    sourced = true;
                    let key = name.to_ascii_lowercase();
                    let bind = alias.as_deref().unwrap_or(name);
                    // A correlated subquery reads only its event's
                    // collections: a table there is a different row set.
                    if !outer.names.is_empty() {
                        return None;
                    }
                    if let Some((_, rel)) = self.ctes.iter().rev().find(|(n, _)| *n == key) {
                        let rel = rel.clone()?;
                        comp = rel.comp;
                        scope.bind(bind, Binding::Row(rel.cols));
                        row_source = true;
                    } else if key == EVENTS {
                        scope.bind(bind, Binding::Event);
                    } else {
                        return None;
                    }
                }
                FromItem::Subquery { query, alias } => {
                    if sourced {
                        return None;
                    }
                    sourced = true;
                    let rel = self.query(query, outer)?;
                    comp = rel.comp;
                    scope.bind(alias, Binding::Row(rel.cols));
                    row_source = true;
                }
                FromItem::Unnest(u) => {
                    if row_source {
                        return None;
                    }
                    let Val::Coll { path, conds } = self.val(&u.expr, &scope)? else {
                        return None;
                    };
                    let copy = comp.copies.len();
                    comp.copies.push(path.clone());
                    comp.conds
                        .extend(conds.iter().map(|c| c.renumber(&|_| copy)));
                    if !u.column_aliases.is_empty() {
                        let leaves = lower::element_leaves(self.schema, &path)?;
                        let n_data = u.column_aliases.len() - usize::from(u.with_ordinality);
                        if n_data != leaves.len() {
                            return None;
                        }
                        for (alias, leaf) in u.column_aliases.iter().zip(leaves) {
                            scope.bind(alias, Binding::Value(Sym::Elem(copy, leaf)));
                        }
                        if u.with_ordinality {
                            scope.bind(u.column_aliases.last()?, Binding::Value(Sym::Ord(copy)));
                        }
                    } else {
                        if u.with_ordinality {
                            return None;
                        }
                        scope.bind(u.alias.as_deref()?, Binding::Elem { copy, coll: path });
                    }
                    if let Some(off) = &u.with_offset {
                        scope.bind(off, Binding::Value(Sym::Ord(copy)));
                    }
                }
                FromItem::Join { .. } => return None,
            }
        }
        if let Some(w) = &sel.where_clause {
            let mut conjuncts = Vec::new();
            split_and(w, &mut conjuncts);
            for c in conjuncts {
                match c {
                    Expr::IsNull(e, true) => guard_not_null(e, &mut scope)?,
                    _ => comp.conds.extend(self.conds(c, &scope)?),
                }
            }
        }
        Some((comp, scope))
    }

    /// A boolean conjunction as conditions.
    fn conds(&self, e: &Expr, scope: &Scope) -> Option<Vec<Cond>> {
        let mut conjuncts = Vec::new();
        split_and(e, &mut conjuncts);
        conjuncts
            .into_iter()
            .map(|c| {
                let Expr::Binary(a, op, b) = c else {
                    return None;
                };
                let cmp = match op {
                    BinaryOp::Eq => SelCmp::Eq,
                    BinaryOp::Neq => SelCmp::Ne,
                    BinaryOp::Lt => SelCmp::Lt,
                    BinaryOp::Lte => SelCmp::Le,
                    BinaryOp::Gt => SelCmp::Gt,
                    BinaryOp::Gte => SelCmp::Ge,
                    _ => return None,
                };
                let ((a, false), (b, false)) = (self.scalar(a, scope)?, self.scalar(b, scope)?)
                else {
                    return None;
                };
                Some(Cond::new(a, cmp, b))
            })
            .collect()
    }

    /// A scalar expression.
    fn scalar(&self, e: &Expr, scope: &Scope) -> Option<(Sym, bool)> {
        match self.val(e, scope)? {
            Val::Scalar(s, nullable) => Some((s, nullable)),
            Val::Coll { .. } => None,
        }
    }

    fn val(&self, e: &Expr, scope: &Scope) -> Option<Val> {
        let scalar = |s: Sym| Some(Val::Scalar(s, false));
        match e {
            Expr::Int(i) => scalar(Sym::Int(*i)),
            Expr::Float(f) => scalar(Sym::Num(*f)),
            Expr::Name(parts) => self.name(parts, scope),
            Expr::Field(base, f) => {
                let (s, nullable) = self.scalar(base, scope)?;
                Some(Val::Scalar(s.field(&f.to_ascii_lowercase())?, nullable))
            }
            Expr::Unary(UnaryOp::Neg, x) => {
                let (s, nullable) = self.scalar(x, scope)?;
                Some(Val::Scalar(Sym::negate(s), nullable))
            }
            Expr::Binary(a, op, b) => {
                let op = match op {
                    BinaryOp::Add => Arith::Add,
                    BinaryOp::Sub => Arith::Sub,
                    BinaryOp::Mul => Arith::Mul,
                    BinaryOp::Div => Arith::Div,
                    _ => return None,
                };
                let (a, na) = self.scalar(a, scope)?;
                let (b, nb) = self.scalar(b, scope)?;
                Some(Val::Scalar(Sym::arith(op, a, b), na || nb))
            }
            Expr::Cast(x, TypeName::Int) => {
                let (s, nullable) = self.scalar(x, scope)?;
                Some(Val::Scalar(Sym::Call(Func::ToInt, vec![s]), nullable))
            }
            Expr::Case {
                whens,
                else_: Some(els),
            } => {
                let mut arms = Vec::new();
                let mut nullable = false;
                for (c, v) in whens {
                    let [c] = &self.conds(c, scope)?[..] else {
                        return None;
                    };
                    let (v, n) = self.scalar(v, scope)?;
                    nullable |= n;
                    arms.push((c.clone(), v));
                }
                let (els, n) = self.scalar(els, scope)?;
                Some(Val::Scalar(Sym::Case(arms, Rc::new(els)), nullable || n))
            }
            Expr::Call {
                name,
                args,
                distinct: false,
                order_by,
                limit: None,
            } if order_by.is_empty() => self.call(&name.to_ascii_lowercase(), args, scope),
            Expr::StructCtor {
                fields,
                declared: None,
            } => {
                let mut out = Vec::new();
                let mut nullable = false;
                for (name, v) in fields {
                    let (v, n) = self.scalar(v, scope)?;
                    nullable |= n;
                    out.push((name.as_deref()?.to_ascii_lowercase(), v));
                }
                Some(Val::Scalar(Sym::Record(out), nullable))
            }
            Expr::Subquery(q) => self.scalar_subquery(q, scope),
            _ => None,
        }
    }

    /// Builtin calls: the four-vector arithmetic, `GREATEST`/`LEAST`,
    /// `CARDINALITY`/`ARRAY_LENGTH` counts and `FILTER` lambdas.
    fn call(&self, name: &str, args: &[Expr], scope: &Scope) -> Option<Val> {
        let unary = match name {
            "sqrt" => Some(Func::Sqrt),
            "cos" => Some(Func::Cos),
            "sin" => Some(Func::Sin),
            "sinh" => Some(Func::Sinh),
            "abs" => Some(Func::Abs),
            "floor" => Some(Func::Floor),
            _ => None,
        };
        if let Some(f) = unary {
            let [x] = args else {
                return None;
            };
            let (s, nullable) = self.scalar(x, scope)?;
            return Some(Val::Scalar(Sym::Call(f, vec![s]), nullable));
        }
        match name {
            "greatest" | "least" if args.len() >= 2 => {
                let f = if name == "greatest" {
                    Func::Max
                } else {
                    Func::Min
                };
                let mut out = Vec::new();
                for a in args {
                    let (s, false) = self.scalar(a, scope)? else {
                        return None;
                    };
                    out.push(s);
                }
                Some(Val::Scalar(Sym::Call(f, out), false))
            }
            "cardinality" | "array_length" => {
                let [x] = args else {
                    return None;
                };
                let Val::Coll { path, conds } = self.val(x, scope)? else {
                    return None;
                };
                Some(Val::Scalar(lower::count(self.schema, &path, conds)?, false))
            }
            "filter" => {
                let [coll, Expr::Lambda(params, body)] = args else {
                    return None;
                };
                let Val::Coll { path, mut conds } = self.val(coll, scope)? else {
                    return None;
                };
                let [param] = &params[..] else {
                    return None;
                };
                let mut inner = scope.events_only();
                inner.bind(
                    param,
                    Binding::Elem {
                        copy: 0,
                        coll: path.clone(),
                    },
                );
                conds.extend(self.conds(body, &inner)?);
                Some(Val::Coll { path, conds })
            }
            _ => None,
        }
    }

    /// Correlated scalar subqueries over the event's collections:
    /// `(SELECT COUNT(*) FROM UNNEST(…) WHERE …)` and the first-minimum
    /// argmin `(SELECT v FROM … ORDER BY k LIMIT 1)`, which is NULL for
    /// an event without candidates.
    fn scalar_subquery(&self, q: &Query, scope: &Scope) -> Option<Val> {
        let sel = &q.select;
        if !q.ctes.is_empty() || !sel.group_by.is_empty() || sel.having.is_some() || sel.distinct {
            return None;
        }
        let (comp, inner) = self.select_rel(sel, &scope.events_only())?;
        let [SelectItem::Expr { expr, .. }] = &sel.items[..] else {
            return None;
        };
        match (expr, &q.order_by[..], q.limit) {
            (Expr::CountStar, [], None) => {
                let [coll] = &comp.copies[..] else {
                    return None;
                };
                Some(Val::Scalar(
                    lower::count(self.schema, coll, comp.conds)?,
                    false,
                ))
            }
            (_, [key], Some(1)) if !key.desc => {
                let ((value, false), (key, false)) =
                    (self.scalar(expr, &inner)?, self.scalar(&key.expr, &inner)?)
                else {
                    return None;
                };
                let mut context = inner.values();
                if let Sym::Record(fields) = &value {
                    context.extend(fields.iter().map(|(_, v)| v.clone()));
                }
                Some(Val::Scalar(
                    Sym::Best(Rc::new(Best {
                        inner: comp,
                        key,
                        value,
                        context,
                    })),
                    true,
                ))
            }
            _ => None,
        }
    }

    /// A (possibly qualified) name.
    fn name(&self, parts: &[String], scope: &Scope) -> Option<Val> {
        let first = parts[0].to_ascii_lowercase();
        if let Some((_, b)) = scope.names.iter().rev().find(|(n, _)| *n == first) {
            return self.bound(b, &parts[1..]);
        }
        // Unqualified: a column of exactly one row binding, or a field of
        // the event row.
        let mut found = scope.names.iter().filter_map(|(_, b)| match b {
            Binding::Row(cols) if cols.iter().any(|c| c.name == first) => self.bound(b, parts),
            Binding::Event => self.bound(b, parts),
            _ => None,
        });
        let v = found.next()?;
        found.next().is_none().then_some(v)
    }

    /// The value `rest` names inside binding `b`.
    fn bound(&self, b: &Binding, rest: &[String]) -> Option<Val> {
        match b {
            Binding::Event => {
                let segs: Vec<&str> = rest.iter().map(String::as_str).collect();
                match lower::resolve_row(self.schema, &segs, true)? {
                    RowName::Leaf(p) => Some(Val::Scalar(Sym::Leaf(p), false)),
                    RowName::Collection(path) => Some(Val::Coll {
                        path,
                        conds: Vec::new(),
                    }),
                    RowName::Struct(_) => None,
                }
            }
            Binding::Row(cols) => {
                let (name, rest) = rest.split_first()?;
                let name = name.to_ascii_lowercase();
                let col = cols.iter().find(|c| c.name == name)?;
                fields(col.sym.clone(), col.nullable, rest)
            }
            Binding::Elem { copy, coll } => {
                let [name] = rest else {
                    return None;
                };
                let leaf = lower::element_leaf(self.schema, coll, name, true)?;
                Some(Val::Scalar(Sym::Elem(*copy, leaf), false))
            }
            Binding::Value(s) => fields(s.clone(), false, rest),
        }
    }
}

/// Member accesses `rest` on a value.
fn fields(mut sym: Sym, nullable: bool, rest: &[String]) -> Option<Val> {
    for f in rest {
        sym = sym.field(&f.to_ascii_lowercase())?;
    }
    Some(Val::Scalar(sym, nullable))
}

/// `WHERE x IS NOT NULL` on a row column: the rows that survive are
/// exactly those where the value is present, so the column is no longer
/// nullable downstream.
fn guard_not_null(e: &Expr, scope: &mut Scope) -> Option<()> {
    let Expr::Name(parts) = e else {
        return None;
    };
    let [rel, col] = &parts[..] else {
        return None;
    };
    let (rel, col) = (rel.to_ascii_lowercase(), col.to_ascii_lowercase());
    let (_, Binding::Row(cols)) = scope.names.iter_mut().rev().find(|(n, _)| *n == rel)? else {
        return None;
    };
    let c = cols.iter_mut().find(|c| c.name == col)?;
    if !c.nullable {
        return None;
    }
    c.nullable = false;
    Some(())
}

/// The output name of a select item: its alias, else the implied name.
fn column_name(expr: &Expr, alias: &Option<String>) -> String {
    match (alias, expr) {
        (Some(a), _) => a.to_ascii_lowercase(),
        (None, Expr::Name(parts)) => parts
            .last()
            .map_or(String::new(), |p| p.to_ascii_lowercase()),
        (None, Expr::Field(_, f)) => f.to_ascii_lowercase(),
        _ => String::new(),
    }
}

/// The relations of a FROM clause in order; only cross joins flatten.
fn flatten_from<'a>(item: &'a FromItem, out: &mut Vec<&'a FromItem>) -> Option<()> {
    match item {
        FromItem::Join {
            left,
            right,
            kind: JoinKind::Cross,
            on: None,
        } => {
            flatten_from(left, out)?;
            flatten_from(right, out)
        }
        FromItem::Join { .. } => None,
        other => {
            out.push(other);
            Some(())
        }
    }
}

/// The conjuncts of a predicate.
fn split_and<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
    match e {
        Expr::Binary(a, BinaryOp::And, b) => {
            split_and(a, out);
            split_and(b, out);
        }
        other => out.push(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser;
    use nf2_columnar::{ScalarPredicate, SelValue};
    use physical_ir::{ComputeNode, ElemPredicate, FilterNode, TrijetPlot};
    use physics::HistSpec;

    const TAIL: &str = "SELECT t.bin AS bin, COUNT(*) AS n\n\
        FROM (SELECT CASE WHEN p.x < 0.0 THEN -1 WHEN p.x >= 200.0 THEN 100\n\
        ELSE LEAST(CAST(FLOOR((p.x - 0.0) / ((200.0 - 0.0) / 100.0)) AS BIGINT), 99) END AS bin\n\
        FROM plotted p) t\nGROUP BY t.bin";

    fn plan(sql: &str) -> Option<PhysPlan> {
        lower(&parser::parse_script(sql).unwrap())
    }

    fn spec() -> HistSpec {
        HistSpec::new(100, 0.0, 200.0)
    }

    #[test]
    fn scalar_fill_with_filters_lowers_in_both_binning_spellings() {
        let presto = plan(&format!(
            "WITH plotted AS (SELECT MET.pt AS x FROM events WHERE MET.sumet > 500.0)\n{TAIL}"
        ))
        .expect("Presto tail lowers");
        let bq = plan(
            "SELECT CASE WHEN ev.MET.pt < 0.0 THEN -1 WHEN ev.MET.pt >= 200.0 THEN 100 \
             ELSE LEAST(CAST(FLOOR((ev.MET.pt - 0.0) / ((200.0 - 0.0) / 100.0)) AS INT64), 99) END AS bin, \
             COUNT(*) AS n FROM events ev WHERE 500.0 < ev.MET.sumet GROUP BY bin",
        )
        .expect("BigQuery inline CASE lowers");
        let want = PhysPlan {
            filters: vec![FilterNode::Scalar(ScalarPredicate {
                leaf: Path::parse("MET.sumet"),
                cmp: SelCmp::Gt,
                value: SelValue::Float(500.0),
            })],
            compute: ComputeNode::ScalarFill {
                leaf: Path::parse("MET.pt"),
            },
            spec: spec(),
        };
        assert_eq!(presto, want);
        assert_eq!(bq, want);
    }

    #[test]
    fn element_fill_with_abs_predicate_and_counts() {
        let p = plan(&format!(
            "WITH plotted AS (SELECT j.pt AS x FROM events CROSS JOIN UNNEST(Jet) AS j \
             WHERE ABS(j.eta) < 1.0 AND CARDINALITY(FILTER(Jet, k -> k.pt > 40.0)) >= 2)\n{TAIL}"
        ))
        .expect("element fill lowers");
        let elem = |leaf: &str, cmp, value, abs| ElemPredicate {
            leaf: Path::parse(leaf),
            cmp,
            value,
            abs,
        };
        assert_eq!(
            p.filters,
            vec![FilterNode::ListCount {
                leaf: Path::parse("Jet.pt"),
                elem: Some(elem("Jet.pt", SelCmp::Gt, 40.0, false)),
                cmp: SelCmp::Ge,
                count: 2,
            }]
        );
        assert_eq!(
            p.compute,
            ComputeNode::ListFill {
                leaf: Path::parse("Jet.pt"),
                elem: Some(elem("Jet.eta", SelCmp::Lt, 1.0, true)),
            }
        );
    }

    #[test]
    fn binning_must_be_exactly_bin_of() {
        let base = format!("WITH plotted AS (SELECT MET.pt AS x FROM events)\n{TAIL}");
        assert!(plan(&base).is_some());
        for (from, to) in [
            ("THEN 100\n", "THEN 99\n"),
            ("p.x >= 200.0", "p.x > 200.0"),
            ("(200.0 - 0.0) / 100.0", "(200.0 - 0.0) / 50.0"),
            ("FLOOR", "SQRT"),
            ("), 99)", "), 98)"),
        ] {
            let text = base.replacen(from, to, 1);
            assert_ne!(text, base);
            assert!(plan(&text).is_none(), "{from} -> {to} must not lower");
        }
    }

    #[test]
    fn unsupported_shapes_decline() {
        for sql in [
            // A fill of an event leaf once per jet.
            format!("WITH plotted AS (SELECT MET.pt AS x FROM events CROSS JOIN UNNEST(Jet) AS j)\n{TAIL}"),
            // Integer leaf.
            format!("WITH plotted AS (SELECT run AS x FROM events)\n{TAIL}"),
            // A disjunction.
            format!("WITH plotted AS (SELECT MET.pt AS x FROM events WHERE MET.pt > 1.0 OR MET.pt < 0.5)\n{TAIL}"),
            // Two element predicates.
            format!("WITH plotted AS (SELECT j.pt AS x FROM events CROSS JOIN UNNEST(Jet) AS j WHERE j.eta < 1.0 AND j.phi > 0.0)\n{TAIL}"),
        ] {
            assert!(plan(&sql).is_none(), "must not lower:\n{sql}");
        }
    }

    #[test]
    fn trijet_argmin_spellings_lower_to_one_kernel() {
        let combos = "SELECT j1.pt * COS(j1.phi) AS px1, j1.pt * SIN(j1.phi) AS py1, j1.pt * SINH(j1.eta) AS pz1, j1.mass AS m1, j1.btag AS b1,\n\
             j2.pt * COS(j2.phi) AS px2, j2.pt * SIN(j2.phi) AS py2, j2.pt * SINH(j2.eta) AS pz2, j2.mass AS m2, j2.btag AS b2,\n\
             j3.pt * COS(j3.phi) AS px3, j3.pt * SIN(j3.phi) AS py3, j3.pt * SINH(j3.eta) AS pz3, j3.mass AS m3, j3.btag AS b3\n\
             FROM UNNEST(ev.Jet) j1 WITH OFFSET i1, UNNEST(ev.Jet) j2 WITH OFFSET i2, UNNEST(ev.Jet) j3 WITH OFFSET i3\n\
             WHERE i1 < i2 AND i2 < i3";
        let sums = "SELECT c.px1 + c.px2 + c.px3 AS px, c.py1 + c.py2 + c.py3 AS py, c.pz1 + c.pz2 + c.pz3 AS pz,\n\
             SQRT(c.px1 * c.px1 + c.py1 * c.py1 + c.pz1 * c.pz1 + c.m1 * c.m1)\n\
             + SQRT(c.px2 * c.px2 + c.py2 * c.py2 + c.pz2 * c.pz2 + c.m2 * c.m2)\n\
             + SQRT(c.px3 * c.px3 + c.py3 * c.py3 + c.pz3 * c.pz3 + c.m3 * c.m3) AS e,\n\
             GREATEST(c.b1, c.b2, c.b3) AS btag";
        let q = |member: &str, top: &str| {
            format!(
                "WITH sel AS (SELECT (SELECT AS STRUCT SQRT(t.px * t.px + t.py * t.py) AS pt, t.btag AS btag\n\
                 FROM (SELECT b.px, b.py, b.btag,\n\
                 ABS(SQRT(GREATEST(0.0, b.e * b.e - (b.px * b.px + b.py * b.py + b.pz * b.pz))) - {top}) AS dist\n\
                 FROM ({sums} FROM ({combos}) c) b) t ORDER BY t.dist LIMIT 1) AS best\n\
                 FROM events ev),\n\
                 plotted AS (SELECT s.best.{member} AS x FROM sel s WHERE s.best IS NOT NULL)\n{TAIL}"
            )
        };
        for (member, plot) in [("pt", TrijetPlot::Pt), ("btag", TrijetPlot::MaxBtag)] {
            let p = plan(&q(member, "172.5")).expect("trijet lowers");
            let ComputeNode::Trijet(t) = &p.compute else {
                panic!("expected the trijet kernel");
            };
            assert_eq!((t.plot, t.top_mass), (plot, 172.5));
            assert_eq!(t.btag, Path::parse("Jet.btag"));
            assert!(p.filters.is_empty());
        }
        assert_eq!(
            plan(&q("pt", "91.2")).map(|p| p.compute),
            Some(ComputeNode::Trijet(physical_ir::TrijetCompute {
                pt: Path::parse("Jet.pt"),
                eta: Path::parse("Jet.eta"),
                phi: Path::parse("Jet.phi"),
                mass: Path::parse("Jet.mass"),
                btag: Path::parse("Jet.btag"),
                top_mass: 91.2,
                plot: TrijetPlot::Pt,
            }))
        );
        // Semantic deviations fall back.
        for (from, to) in [
            ("i2 < i3", "i2 <= i3"),
            ("i2 < i3", "i3 < i2"),
            ("ORDER BY t.dist", "ORDER BY t.dist DESC"),
            ("WHERE s.best IS NOT NULL", ""),
            ("c.px1 + c.px2 + c.px3", "c.px1 + (c.px2 + c.px3)"),
            ("c.m1 * c.m1", "c.m1 * c.m2"),
        ] {
            let text = q("pt", "172.5").replacen(from, to, 1);
            assert!(plan(&text).is_none(), "{from} -> {to} must not lower");
        }
    }
}
