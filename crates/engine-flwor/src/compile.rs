//! Lowering JSONiq modules to the shared vectorized physical IR.
//!
//! Lowering is **structural**: the module's main FLWOR is walked clause
//! by clause as a comprehension over `parquet-file(…)` rows. `for`
//! clauses over a collection's members (`$e.Jet[]`, optionally filtered
//! by `[$$.pt > 40.0]` predicates) add element copies, `let` bindings and
//! declared functions are inlined, a nested `return for …` continues the
//! same comprehension, and every value is resolved to a symbolic
//! expression over the event row's leaves ([`physical_ir::lower::Sym`]).
//! The returned bin expression — usually a call to a declared `hep:bin`
//! function, whose body is checked like any other expression — then goes
//! to [`physical_ir::lower::histogram_plan`], which proves binning,
//! filters and the filled value against the IR. The trijet argmin is an
//! ordered candidate FLWOR (`for … for … for … where $i lt $j and $j lt
//! $k … order by … return {…}`) reduced by a `[1]` predicate.
//!
//! Anything outside that vocabulary declines with `None` and the engine
//! interprets — fallback is always sound.

use std::cell::Cell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::OnceLock;

use nested_value::Path;
use nf2_columnar::{Schema, SelCmp};
use physical_ir::lower::{self, Arith, Best, Comprehension, Cond, Func, RowName, Sym};
use physical_ir::PhysPlan;

use crate::ast::{ArithOp, Clause, CmpOp, Expr, Module, ObjectKey};

/// How deeply declared functions may be inlined (recursion declines).
const MAX_INLINE_DEPTH: usize = 16;

/// Lowers a parsed module against the benchmark's event schema
/// ([`hep_model::schema::event_schema`]). Returns `None` for any module
/// the IR cannot express — the caller falls back to the interpreter.
pub fn lower(module: &Module) -> Option<PhysPlan> {
    static SCHEMA: OnceLock<Option<Schema>> = OnceLock::new();
    let schema = SCHEMA.get_or_init(|| hep_model::schema::event_schema().ok());
    lower_with(module, schema.as_ref()?)
}

/// Lowers a parsed module against the schema of the table its
/// `parquet-file(…)` input names.
pub(crate) fn lower_with(module: &Module, schema: &Schema) -> Option<PhysPlan> {
    let Expr::Flwor { clauses, ret } = &module.body else {
        return None;
    };
    let (
        Clause::For {
            var,
            at: None,
            source: Expr::Call(input, args),
        },
        rest,
    ) = clauses.split_first()?
    else {
        return None;
    };
    if input != "parquet-file" || !matches!(&args[..], [Expr::Str(_)]) {
        return None;
    }
    let cx = Lowerer {
        schema,
        module,
        depth: Cell::new(0),
    };
    let mut env = Env::new();
    env.insert(var.clone(), Val::Event);
    let mut comp = Comprehension::default();
    let bin = cx.clauses(rest, ret, &mut comp, env)?;
    // The interpreter fails on an absent argmin (`integer(())` in the
    // binning function), where the kernel drops the event: the filters
    // must prove every surviving event has a candidate.
    if let Some((_, Sym::Best(best))) = lower::match_bin(&bin) {
        let coll = best.inner.copies.first()?;
        if !lower::guarantees_elements(&comp.conds, coll, best.inner.copies.len() as i64) {
            return None;
        }
    }
    lower::histogram_plan(&comp, &bin, schema)
}

/// What a variable or expression denotes.
#[derive(Clone, Debug)]
enum Val {
    /// The event row.
    Event,
    /// A struct of the event row (`$e.MET`).
    Struct(Path),
    /// A collection as an array value (`$e.Jet`).
    Array(Path),
    /// A collection's members as a sequence (`$e.Jet[]`), filtered by
    /// `conds` over copy 0 of their own scope.
    Members { path: Path, conds: Vec<Cond> },
    /// One member, bound by a `for` clause to element copy `copy`.
    Elem { copy: usize, coll: Path },
    /// A single value.
    Scalar(Sym),
    /// An ordered candidate sequence: the rows of `comp` sorted by `key`,
    /// each yielding `value`.
    Candidates {
        comp: Comprehension,
        key: Sym,
        value: Sym,
    },
}

type Env = HashMap<String, Val>;

/// The variable `$$` binds in a predicate (not a legal variable name).
const CONTEXT_ITEM: &str = "$$";

struct Lowerer<'a> {
    schema: &'a Schema,
    module: &'a Module,
    depth: Cell<usize>,
}

impl Lowerer<'_> {
    /// Runs `clauses` into `comp` and returns the value of `ret`; a
    /// nested FLWOR in `ret` continues the same comprehension.
    fn clauses(
        &self,
        clauses: &[Clause],
        ret: &Expr,
        comp: &mut Comprehension,
        mut env: Env,
    ) -> Option<Sym> {
        for clause in clauses {
            self.bind_clause(clause, comp, &mut env)?;
        }
        match ret {
            Expr::Flwor { clauses, ret } => self.clauses(clauses, ret, comp, env),
            other => self.scalar(other, &env),
        }
    }

    /// A FLWOR used as a value: a `let`-only block, or a candidate
    /// comprehension ordered by one ascending `order by` key (its last
    /// clause).
    fn flwor(&self, clauses: &[Clause], ret: &Expr, env: &Env) -> Option<Val> {
        let (body, key) = match clauses.split_last() {
            Some((Clause::OrderBy(keys), body)) => {
                let [(key, false)] = &keys[..] else {
                    return None;
                };
                (body, Some(key))
            }
            _ => (clauses, None),
        };
        // `for` clauses open a comprehension of their own, where the
        // enclosing one's elements are out of reach.
        let opens = body.iter().any(|c| matches!(c, Clause::For { .. }));
        let mut env = if opens { scope_free(env) } else { env.clone() };
        let mut comp = Comprehension::default();
        for clause in body {
            self.bind_clause(clause, &mut comp, &mut env)?;
        }
        if comp.copies.is_empty() {
            if key.is_some() || !comp.conds.is_empty() {
                return None;
            }
            return self.eval(ret, &env);
        }
        Some(Val::Candidates {
            key: self.scalar(key?, &env)?,
            value: self.scalar(ret, &env)?,
            comp,
        })
    }

    /// One `for`, `let` or `where` clause.
    fn bind_clause(&self, clause: &Clause, comp: &mut Comprehension, env: &mut Env) -> Option<()> {
        match clause {
            Clause::For { var, at, source } => {
                let Val::Members { path, conds } = self.eval(source, env)? else {
                    return None;
                };
                let copy = comp.copies.len();
                comp.copies.push(path.clone());
                comp.conds
                    .extend(conds.iter().map(|c| c.renumber(&|_| copy)));
                env.insert(var.clone(), Val::Elem { copy, coll: path });
                if let Some(at) = at {
                    env.insert(at.clone(), Val::Scalar(Sym::Ord(copy)));
                }
            }
            Clause::Let { var, value } => {
                let v = self.eval(value, env)?;
                env.insert(var.clone(), v);
            }
            Clause::Where(p) => comp.conds.extend(self.conds(p, env)?),
            Clause::GroupBy(_) | Clause::OrderBy(_) | Clause::Count(_) => return None,
        }
        Some(())
    }

    /// A boolean conjunction of comparisons.
    fn conds(&self, e: &Expr, env: &Env) -> Option<Vec<Cond>> {
        match e {
            Expr::And(a, b) => {
                let mut out = self.conds(a, env)?;
                out.extend(self.conds(b, env)?);
                Some(out)
            }
            Expr::Cmp(a, op, b) => {
                let cmp = match op {
                    CmpOp::Eq => SelCmp::Eq,
                    CmpOp::Ne => SelCmp::Ne,
                    CmpOp::Lt => SelCmp::Lt,
                    CmpOp::Le => SelCmp::Le,
                    CmpOp::Gt => SelCmp::Gt,
                    CmpOp::Ge => SelCmp::Ge,
                };
                Some(vec![Cond::new(
                    self.scalar(a, env)?,
                    cmp,
                    self.scalar(b, env)?,
                )])
            }
            _ => None,
        }
    }

    fn scalar(&self, e: &Expr, env: &Env) -> Option<Sym> {
        match self.eval(e, env)? {
            Val::Scalar(s) => Some(s),
            _ => None,
        }
    }

    fn eval(&self, e: &Expr, env: &Env) -> Option<Val> {
        let scalar = |s: Sym| Some(Val::Scalar(s));
        match e {
            Expr::Int(i) => scalar(Sym::Int(*i)),
            Expr::Float(f) => scalar(Sym::Num(*f)),
            Expr::Neg(x) => scalar(Sym::negate(self.scalar(x, env)?)),
            Expr::Var(v) => env.get(v).cloned(),
            Expr::ContextItem => env.get(CONTEXT_ITEM).cloned(),
            Expr::Member(base, name) => self.member(self.eval(base, env)?, name),
            Expr::Unbox(base) => match self.eval(base, env)? {
                Val::Array(path) => Some(Val::Members {
                    path,
                    conds: Vec::new(),
                }),
                _ => None,
            },
            Expr::Predicate(base, p) => match self.eval(base, env)? {
                Val::Members { path, mut conds } => {
                    let mut inner = scope_free(env);
                    inner.insert(
                        CONTEXT_ITEM.to_string(),
                        Val::Elem {
                            copy: 0,
                            coll: path.clone(),
                        },
                    );
                    conds.extend(self.conds(p, &inner)?);
                    Some(Val::Members { path, conds })
                }
                Val::Candidates { comp, key, value } if **p == Expr::Int(1) => {
                    let context = match &value {
                        Sym::Record(fields) => fields.iter().map(|(_, v)| v.clone()).collect(),
                        _ => Vec::new(),
                    };
                    scalar(Sym::Best(Rc::new(Best {
                        inner: comp,
                        key,
                        value,
                        context,
                    })))
                }
                _ => None,
            },
            Expr::Call(name, args) => self.call(name, args, env),
            Expr::Arith(a, op, b) => {
                let op = match op {
                    ArithOp::Add => Arith::Add,
                    ArithOp::Sub => Arith::Sub,
                    ArithOp::Mul => Arith::Mul,
                    ArithOp::Div => Arith::Div,
                    ArithOp::IDiv | ArithOp::Mod => return None,
                };
                scalar(Sym::arith(op, self.scalar(a, env)?, self.scalar(b, env)?))
            }
            Expr::If { cond, then, els } => {
                let [c] = &self.conds(cond, env)?[..] else {
                    return None;
                };
                scalar(Sym::Case(
                    vec![(c.clone(), self.scalar(then, env)?)],
                    Rc::new(self.scalar(els, env)?),
                ))
            }
            Expr::ObjectCtor(fields) => {
                let mut out = Vec::new();
                for (key, v) in fields {
                    let ObjectKey::Name(key) = key else {
                        return None;
                    };
                    out.push((key.clone(), self.scalar(v, env)?));
                }
                scalar(Sym::Record(out))
            }
            Expr::Flwor { clauses, ret } => self.flwor(clauses, ret, env),
            _ => None,
        }
    }

    /// `.name` on a value.
    fn member(&self, base: Val, name: &str) -> Option<Val> {
        let in_row = |segs: Vec<&str>| match lower::resolve_row(self.schema, &segs, false)? {
            RowName::Leaf(p) => Some(Val::Scalar(Sym::Leaf(p))),
            RowName::Collection(p) => Some(Val::Array(p)),
            RowName::Struct(p) => Some(Val::Struct(p)),
        };
        match base {
            Val::Event => in_row(vec![name]),
            Val::Struct(p) => {
                let mut segs: Vec<&str> = p.segments().iter().map(String::as_str).collect();
                segs.push(name);
                in_row(segs)
            }
            Val::Elem { copy, coll } => {
                let leaf = lower::element_leaf(self.schema, &coll, name, false)?;
                Some(Val::Scalar(Sym::Elem(copy, leaf)))
            }
            Val::Scalar(s) => Some(Val::Scalar(s.field(name)?)),
            _ => None,
        }
    }

    /// Builtins (which shadow declared functions, as in the interpreter),
    /// then declared functions, inlined over their arguments.
    fn call(&self, name: &str, args: &[Expr], env: &Env) -> Option<Val> {
        let unary = match name {
            "sqrt" => Some(Func::Sqrt),
            "cos" => Some(Func::Cos),
            "sin" => Some(Func::Sin),
            "sinh" => Some(Func::Sinh),
            "abs" => Some(Func::Abs),
            "floor" => Some(Func::Floor),
            "integer" => Some(Func::ToInt),
            _ => None,
        };
        match (name, args) {
            (_, [x]) if unary.is_some() => {
                Some(Val::Scalar(Sym::Call(unary?, vec![self.scalar(x, env)?])))
            }
            ("max" | "min", [Expr::Sequence(items)]) if items.len() >= 2 => {
                let f = if name == "max" { Func::Max } else { Func::Min };
                let items = items
                    .iter()
                    .map(|x| self.scalar(x, env))
                    .collect::<Option<_>>()?;
                Some(Val::Scalar(Sym::Call(f, items)))
            }
            ("count", [x]) => match self.eval(x, env)? {
                Val::Members { path, conds } => {
                    Some(Val::Scalar(lower::count(self.schema, &path, conds)?))
                }
                _ => None,
            },
            ("size", [x]) => match self.eval(x, env)? {
                Val::Array(path) => {
                    Some(Val::Scalar(lower::count(self.schema, &path, Vec::new())?))
                }
                _ => None,
            },
            _ if unary.is_some() || builtin_name(name) => None,
            _ => {
                let f = self
                    .module
                    .functions
                    .iter()
                    .rev()
                    .find(|f| f.name == name && f.params.len() == args.len())?;
                let mut inner = Env::new();
                for (p, a) in f.params.iter().zip(args) {
                    inner.insert(p.clone(), self.eval(a, env)?);
                }
                let depth = self.depth.get();
                if depth >= MAX_INLINE_DEPTH {
                    return None;
                }
                self.depth.set(depth + 1);
                let out = self.eval(&f.body, &inner);
                self.depth.set(depth);
                out
            }
        }
    }
}

/// Builtins the lowering does not model: calls to them decline rather
/// than resolving to a declared function of the same name.
fn builtin_name(name: &str) -> bool {
    crate::builtins::eval_builtin(name, &[]).is_some() || name == "parquet-file"
}

/// The bindings a nested scope (a predicate or a candidate FLWOR) may
/// read: everything except values tied to the enclosing comprehension's
/// elements.
fn scope_free(env: &Env) -> Env {
    env.iter()
        .filter(|(_, v)| match v {
            Val::Elem { .. } => false,
            Val::Scalar(s) => !s.mentions_elements(),
            _ => true,
        })
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser;
    use nf2_columnar::{ScalarPredicate, SelValue};
    use physical_ir::{ComputeNode, ElemPredicate, FilterNode, TrijetCompute, TrijetPlot};
    use physics::HistSpec;

    const BIN_FN: &str = "declare function hep:bin($x, $lo, $hi, $n) {\n\
        if ($x < $lo) then -1\n\
        else if ($x ge $hi) then $n\n\
        else let $b := integer(floor(($x - $lo) div (($hi - $lo) div $n)))\n\
        return if ($b > $n - 1) then $n - 1 else $b\n\
        };\n";

    fn plan(body: &str) -> Option<PhysPlan> {
        lower(&parser::parse_module(&format!("{BIN_FN}{body}")).unwrap())
    }

    #[test]
    fn scalar_and_element_fills_lower() {
        let p = plan(
            "for $e in parquet-file(\"events\")\n\
             where $e.MET.sumet gt 500.0 and count($e.Jet[][$$.pt > 40.0]) ge 2\n\
             return hep:bin($e.MET.pt, 0.0, 200.0, 100)",
        )
        .expect("scalar fill lowers");
        assert_eq!(
            p,
            PhysPlan {
                filters: vec![
                    FilterNode::Scalar(ScalarPredicate {
                        leaf: Path::parse("MET.sumet"),
                        cmp: SelCmp::Gt,
                        value: SelValue::Float(500.0),
                    }),
                    FilterNode::ListCount {
                        leaf: Path::parse("Jet.pt"),
                        elem: Some(ElemPredicate {
                            leaf: Path::parse("Jet.pt"),
                            cmp: SelCmp::Gt,
                            value: 40.0,
                            abs: false,
                        }),
                        cmp: SelCmp::Ge,
                        count: 2,
                    },
                ],
                compute: ComputeNode::ScalarFill {
                    leaf: Path::parse("MET.pt"),
                },
                spec: HistSpec::new(100, 0.0, 200.0),
            }
        );
        // A nested `return for` and a flat second `for` with a `where`
        // are the same comprehension.
        let nested = plan(
            "for $e in parquet-file(\"events\")\n\
             return for $j in $e.Jet[][abs($$.eta) < 1.0] return hep:bin($j.pt, 15.0, 60.0, 100)",
        )
        .expect("element fill lowers");
        let flat = plan(
            "for $e in parquet-file(\"events\") for $j in $e.Jet[]\n\
             where abs($j.eta) < 1.0 return hep:bin($j.pt, 15.0, 60.0, 100)",
        )
        .expect("flat element fill lowers");
        assert_eq!(nested, flat);
        assert_eq!(
            nested.compute,
            ComputeNode::ListFill {
                leaf: Path::parse("Jet.pt"),
                elem: Some(ElemPredicate {
                    leaf: Path::parse("Jet.eta"),
                    cmp: SelCmp::Lt,
                    value: 1.0,
                    abs: true,
                }),
            }
        );
    }

    #[test]
    fn altered_binning_function_declines() {
        let body = "for $e in parquet-file(\"events\") return hep:bin($e.MET.pt, 0.0, 200.0, 100)";
        assert!(plan(body).is_some());
        for (from, to) in [
            ("then -1", "then -2"),
            ("$x ge $hi", "$x gt $hi"),
            ("then $n - 1 else", "then $n else"),
            ("floor", "sqrt"),
        ] {
            let text = format!("{}{body}", BIN_FN.replacen(from, to, 1));
            let module = parser::parse_module(&text).unwrap();
            assert!(lower(&module).is_none(), "{from} -> {to} must not lower");
        }
    }

    #[test]
    fn trijet_candidates_lower_only_with_an_existence_guard() {
        let module = |guard: &str, member: &str, cmp: &str| {
            format!(
                "declare function hep:best($jets) {{\n\
                 let $c := (for $j1 at $i in $jets for $j2 at $j in $jets for $j3 at $k in $jets\n\
                 where $i lt $j and $j {cmp} $k\n\
                 let $px1 := $j1.pt * cos($j1.phi) let $py1 := $j1.pt * sin($j1.phi) let $pz1 := $j1.pt * sinh($j1.eta)\n\
                 let $px2 := $j2.pt * cos($j2.phi) let $py2 := $j2.pt * sin($j2.phi) let $pz2 := $j2.pt * sinh($j2.eta)\n\
                 let $px3 := $j3.pt * cos($j3.phi) let $py3 := $j3.pt * sin($j3.phi) let $pz3 := $j3.pt * sinh($j3.eta)\n\
                 let $e := sqrt($px1 * $px1 + $py1 * $py1 + $pz1 * $pz1 + $j1.mass * $j1.mass)\n\
                 + sqrt($px2 * $px2 + $py2 * $py2 + $pz2 * $pz2 + $j2.mass * $j2.mass)\n\
                 + sqrt($px3 * $px3 + $py3 * $py3 + $pz3 * $pz3 + $j3.mass * $j3.mass)\n\
                 let $px := $px1 + $px2 + $px3 let $py := $py1 + $py2 + $py3 let $pz := $pz1 + $pz2 + $pz3\n\
                 let $m := sqrt(max((0.0, $e * $e - ($px * $px + $py * $py + $pz * $pz))))\n\
                 order by abs($m - 91.2)\n\
                 return {{ \"pt\": sqrt($px * $px + $py * $py), \"btag\": max(($j1.btag, $j2.btag, $j3.btag)) }})\n\
                 return $c[1]\n\
                 }};\n\
                 for $e in parquet-file(\"events\") {guard}\n\
                 return hep:bin(hep:best($e.Jet[]).{member}, 15.0, 40.0, 100)"
            )
        };
        let p = plan(&module("where size($e.Jet) ge 3", "btag", "lt")).expect("trijet lowers");
        assert_eq!(
            p.compute,
            ComputeNode::Trijet(TrijetCompute {
                pt: Path::parse("Jet.pt"),
                eta: Path::parse("Jet.eta"),
                phi: Path::parse("Jet.phi"),
                mass: Path::parse("Jet.mass"),
                btag: Path::parse("Jet.btag"),
                top_mass: 91.2,
                plot: TrijetPlot::MaxBtag,
            })
        );
        assert!(plan(&module("where size($e.Jet) ge 3", "pt", "lt")).is_some());
        // Without the guard the interpreter errors on events with fewer
        // than three jets; a weaker guard is not enough either.
        assert!(plan(&module("", "pt", "lt")).is_none());
        assert!(plan(&module("where size($e.Jet) ge 2", "pt", "lt")).is_none());
        // Non-strict ordinals enumerate different combinations.
        assert!(plan(&module("where size($e.Jet) ge 3", "pt", "le")).is_none());
    }
}
