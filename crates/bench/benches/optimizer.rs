//! Bench `optimizer` — Section 4.4 end to end: wall-clock of original vs
//! rewritten plans over a parameter sweep (relation size, duplication),
//! and the rewrite engine's own cost.
//!
//! The *shape* result this regenerates: pushed plans win wherever the
//! pushed operator shrinks its input (duplication high / selective σ);
//! the key-aware difference push crosses over with tuple width (see the
//! `experiments-report` binary for the series, and EXPERIMENTS.md).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use genpar_algebra::Query;
use genpar_engine::workload::{generate_keyed_pair, generate_table, WorkloadSpec};
use genpar_engine::{lower, Catalog};
use genpar_exec::{EvalParallel, ExecConfig};
use genpar_optimizer::{optimize, Constraints, RuleSet};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn dup_catalog(rows: usize, value_range: i64) -> Catalog {
    let mut rng = StdRng::seed_from_u64(1);
    let spec = WorkloadSpec {
        rows,
        arity: 3,
        value_range,
        key_on_first: false,
    };
    Catalog::new()
        .with(generate_table(&mut rng, "R", spec))
        .with(generate_table(&mut rng, "S", spec))
}

fn bench_union_projection_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimizer/pi_union");
    group.sample_size(10);
    for rows in [1_000usize, 10_000, 50_000] {
        let catalog = dup_catalog(rows, 50);
        let q = Query::rel("R").union(Query::rel("S")).project([0]);
        let (opt, _) = optimize(&q, &RuleSet::standard(), &catalog);
        let base_plan = lower(&q).unwrap();
        let serial = ExecConfig::serial();
        let opt_plan = lower(&opt).unwrap();
        group.bench_with_input(BenchmarkId::new("original", rows), &rows, |b, _| {
            b.iter(|| black_box(base_plan.eval_parallel(&catalog, &serial).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("rewritten", rows), &rows, |b, _| {
            b.iter(|| black_box(opt_plan.eval_parallel(&catalog, &serial).unwrap()))
        });
    }
    group.finish();
}

fn bench_duplication_sweep(c: &mut Criterion) {
    // higher duplication (smaller value range) ⇒ bigger win
    let mut group = c.benchmark_group("optimizer/duplication");
    group.sample_size(10);
    for range in [10i64, 100, 1000] {
        let catalog = dup_catalog(20_000, range);
        let q = Query::rel("R").union(Query::rel("S")).project([0]);
        let (opt, _) = optimize(&q, &RuleSet::standard(), &catalog);
        let base_plan = lower(&q).unwrap();
        let serial = ExecConfig::serial();
        let opt_plan = lower(&opt).unwrap();
        group.bench_with_input(BenchmarkId::new("original", range), &range, |b, _| {
            b.iter(|| black_box(base_plan.eval_parallel(&catalog, &serial).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("rewritten", range), &range, |b, _| {
            b.iter(|| black_box(opt_plan.eval_parallel(&catalog, &serial).unwrap()))
        });
    }
    group.finish();
}

fn bench_keyed_difference(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimizer/keyed_difference");
    group.sample_size(10);
    for arity in [2usize, 4, 8] {
        let mut rng = StdRng::seed_from_u64(2);
        let (r, s) = generate_keyed_pair(&mut rng, 20_000, arity, 0.5);
        let catalog = Catalog::new().with(r).with(s);
        let q = Query::rel("R").difference(Query::rel("S")).project([0]);
        let rules = RuleSet::with_constraints(
            Constraints::none().with_union_key(["R".to_string(), "S".to_string()], [0]),
        );
        let (opt, _) = optimize(&q, &rules, &catalog);
        let base_plan = lower(&q).unwrap();
        let serial = ExecConfig::serial();
        let opt_plan = lower(&opt).unwrap();
        group.bench_with_input(BenchmarkId::new("original", arity), &arity, |b, _| {
            b.iter(|| black_box(base_plan.eval_parallel(&catalog, &serial).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("rewritten", arity), &arity, |b, _| {
            b.iter(|| black_box(opt_plan.eval_parallel(&catalog, &serial).unwrap()))
        });
    }
    group.finish();
}

fn bench_rewrite_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimizer/rewrite_cost");
    let catalog = dup_catalog(100, 10);
    // a deep pipeline for the engine to chew on
    let mut q = Query::rel("R");
    for _ in 0..20 {
        q = q
            .union(Query::rel("S"))
            .project([0, 1])
            .select(genpar_algebra::Pred::True);
    }
    group.bench_function("deep_pipeline", |b| {
        b.iter(|| black_box(optimize(&q, &RuleSet::standard(), &catalog)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_union_projection_sweep,
    bench_duplication_sweep,
    bench_keyed_difference,
    bench_rewrite_engine
);
criterion_main!(benches);
