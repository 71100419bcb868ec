//! Optimizer demo: Section 4.4's equivalences as measured rewrites.
//!
//! Generates workloads, optimizes the paper's example queries with the
//! genericity/parametricity-justified rules, prints the rewrite traces
//! (each step cites the licensing fact), and compares engine work
//! counters between the original and optimized plans — including the
//! key-aware `Π(R − S)` push that is only sound on keyed data.
//!
//! Run with: `cargo run --example optimizer_demo`

use genpar::optimizer::{optimize, Constraints, RuleSet};
use genpar_algebra::{Pred, Query, ValueFn};
use genpar_engine::workload::{generate_keyed_pair, generate_table, WorkloadSpec};
use genpar_engine::{lower, Catalog};
use genpar_exec::{EvalParallel, ExecConfig};
use genpar_value::Value;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn run_both(name: &str, q: &Query, rules: &RuleSet, catalog: &Catalog) {
    let (opt, trace) = optimize(q, rules, catalog);
    println!("── {name}");
    println!("   original : {q}");
    println!("   optimized: {opt}");
    if trace.steps.is_empty() {
        println!("   (no rule fired)");
    } else {
        print!("{trace}");
    }
    let base = lower(q).and_then(|p| p.eval_parallel(catalog, &ExecConfig::serial()).ok());
    let fast = lower(&opt).and_then(|p| p.eval_parallel(catalog, &ExecConfig::serial()).ok());
    if let (Some((rows_a, sa)), Some((rows_b, sb))) = (base, fast) {
        assert_eq!(rows_a, rows_b, "rewrite changed semantics!");
        println!(
            "   work: {} → {} rows processed ({:.2}× less), result {} rows\n",
            sa.rows_processed,
            sb.rows_processed,
            sa.rows_processed as f64 / sb.rows_processed.max(1) as f64,
            sa.rows_out
        );
    }
}

fn main() {
    println!("=== Section 4.4: optimization from genericity & parametricity ===\n");
    let mut rng = StdRng::seed_from_u64(4242);

    // duplicated-heavy tables make projection pushing pay off
    let spec = WorkloadSpec {
        rows: 20_000,
        arity: 3,
        value_range: 60,
        key_on_first: false,
    };
    let catalog = Catalog::new()
        .with(generate_table(&mut rng, "R", spec))
        .with(generate_table(&mut rng, "S", spec));

    let rules = RuleSet::standard();

    run_both(
        "Π₁(R ∪ S) — parametricity of ∪ (Cor 4.15)",
        &Query::rel("R").union(Query::rel("S")).project([0]),
        &rules,
        &catalog,
    );

    run_both(
        "map(f)(R ∪ S) for opaque f — full genericity of ∪",
        &Query::rel("R")
            .union(Query::rel("S"))
            .map(ValueFn::custom(|v| {
                Value::tuple([v.project(0).cloned().unwrap_or(Value::Int(0))])
            })),
        &rules,
        &catalog,
    );

    run_both(
        "σ₁₌₃(R ∪ S) then Π — rule pipeline",
        &Query::rel("R")
            .union(Query::rel("S"))
            .select(Pred::eq_const(0, Value::Int(3)))
            .project([0, 1]),
        &rules,
        &catalog,
    );

    // The key-aware difference push: employees/students of §4.4
    println!("── Π₁(R − S) with and without the key constraint");
    let (r, s) = generate_keyed_pair(&mut rng, 20_000, 3, 0.5);
    let keyed = Catalog::new().with(r).with(s);
    let q = Query::rel("R").difference(Query::rel("S")).project([0]);

    let (no_key_opt, no_key_trace) = optimize(&q, &RuleSet::standard(), &keyed);
    println!(
        "   without constraint: {} rewrite steps (must be 0 — unsound otherwise): {}",
        no_key_trace.steps.len(),
        no_key_opt
    );

    let with_key = RuleSet::with_constraints(
        Constraints::none().with_union_key(["R".to_string(), "S".to_string()], [0]),
    );
    run_both(
        "Π₁(R − S) with key on c₀ for R ∪ S (§4.4's SSN example)",
        &q,
        &with_key,
        &keyed,
    );
}
