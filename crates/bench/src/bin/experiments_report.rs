//! `experiments-report` — regenerate every checkable claim of the paper
//! and print a paper-vs-measured table, followed by the Section 4.4
//! optimization series (the data behind EXPERIMENTS.md).
//!
//! Run with: `cargo run --release -p genpar-bench --bin experiments-report`

use genpar_algebra::catalog;
use genpar_algebra::Query;
use genpar_core::check::{check_invariance, AlgebraQuery, CheckConfig};
use genpar_core::hierarchy::equality_usage;
use genpar_core::infer_requirements;
use genpar_core::witness;
use genpar_engine::workload::{generate_keyed_pair, generate_table, WorkloadSpec};
use genpar_engine::{lower, Catalog, ExecStats};
use genpar_exec::{EvalParallel, ExecConfig};
use genpar_lambda::stdlib;
use genpar_mapping::extend::{relates, ExtensionMode};
use genpar_mapping::{MappingClass, MappingFamily};
use genpar_optimizer::{optimize, Constraints, RuleSet};
use genpar_parametricity::free_theorems::parametric;
use genpar_parametricity::relation::RelConfig;
use genpar_parametricity::transfer;
use genpar_value::parse::parse_value;
use genpar_value::{BaseType, CvType, DomainId, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rel2() -> CvType {
    CvType::relation(BaseType::Domain(DomainId(0)), 2)
}

struct Row {
    id: &'static str,
    claim: &'static str,
    verdict: String,
}

/// Per-experiment obs metrics: the counters recorded between two
/// [`capture`] calls, i.e. during one experiment block.
struct Metrics {
    label: &'static str,
    micros: u64,
    counters: Vec<(String, u64)>,
}

/// Snapshot the global obs registry into a labelled metrics record and
/// reset it, so the next experiment starts from zero.
fn capture(metrics: &mut Vec<Metrics>, label: &'static str) {
    let snap = genpar_obs::snapshot();
    metrics.push(Metrics {
        label,
        micros: snap.uptime_micros,
        counters: snap.counters.into_iter().collect(),
    });
    genpar_obs::reset();
}

fn check(rows: &mut Vec<Row>, id: &'static str, claim: &'static str, ok: bool, detail: String) {
    rows.push(Row {
        id,
        claim,
        verdict: format!("{} {}", if ok { "REPRODUCED" } else { "FAILED" }, detail),
    });
}

/// Run a relational query on the row executor at one worker.
fn execute(q: &Query, cat: &Catalog) -> (Vec<Vec<Value>>, ExecStats) {
    lower(q)
        .expect("relational query lowers")
        .eval_parallel(cat, &ExecConfig::serial())
        .expect("query executes")
}

fn main() {
    let mut rows: Vec<Row> = Vec::new();
    let mut metrics: Vec<Metrics> = Vec::new();
    genpar_obs::reset();

    // ---------- Section 2 ----------
    {
        let h = MappingFamily::atoms(&[(4, 0), (8, 0), (5, 1), (9, 1), (6, 2)]);
        let r1 = parse_value("{(e, f), (i, f), (e, j), (i, j), (f, g), (j, g)}").unwrap();
        let r2 = parse_value("{(a, b), (b, c)}").unwrap();
        let r3 = parse_value("{(e, j), (i, j), (f, g)}").unwrap();
        let q1 = AlgebraQuery::new(catalog::q1());
        use genpar_core::check::QueryFn;
        let ok = relates(
            &h,
            &rel2(),
            ExtensionMode::Rel,
            &q1.apply(&r1).unwrap(),
            &q1.apply(&r2).unwrap(),
        ) && !relates(
            &h,
            &rel2(),
            ExtensionMode::Rel,
            &q1.apply(&r3).unwrap(),
            &q1.apply(&r2).unwrap(),
        );
        check(
            &mut rows,
            "E2.2",
            "Q1 commutes with h on r1 but not r3",
            ok,
            String::new(),
        );

        let ok = relates(&h, &rel2(), ExtensionMode::Rel, &r1, &r2)
            && relates(&h, &rel2(), ExtensionMode::Strong, &r1, &r2)
            && relates(&h, &rel2(), ExtensionMode::Rel, &r3, &r2)
            && !relates(&h, &rel2(), ExtensionMode::Strong, &r3, &r2);
        check(
            &mut rows,
            "E2.6",
            "rel/strong split on (r1,r2) vs (r3,r2)",
            ok,
            String::new(),
        );
    }
    capture(&mut metrics, "E2.2+E2.6");
    {
        let q4 = AlgebraQuery::new(catalog::q4());
        let fail = check_invariance(
            &q4,
            &rel2(),
            &rel2(),
            &MappingClass::all(),
            &CheckConfig::default(),
        );
        let hold = check_invariance(
            &q4,
            &rel2(),
            &rel2(),
            &MappingClass::injective(),
            &CheckConfig::default(),
        );
        check(
            &mut rows,
            "E2.9",
            "Q4 fails for all mappings, holds for injective",
            !fail.is_invariant() && hold.is_invariant(),
            String::new(),
        );
    }
    capture(&mut metrics, "E2.9");
    {
        let cx = witness::lemma_2_12_even(&[0, 1, 2]);
        check(
            &mut rows,
            "E2.12",
            "even is not strictly C-generic (any finite C)",
            cx.output1 != cx.output2,
            format!("witness family {}", cx.family),
        );
    }
    capture(&mut metrics, "E2.12");

    // ---------- Section 3 ----------
    {
        let q = Query::rel("R")
            .product(Query::rel("R"))
            .project([0, 2])
            .union(Query::Empty);
        let inf = infer_requirements(&q);
        check(
            &mut rows,
            "E3.1/3.2",
            "×/Π/∪/∅̂/R sub-language fully generic (both modes)",
            inf.rel.is_fully_generic() && inf.strong.is_fully_generic(),
            String::new(),
        );
    }
    {
        let cx = witness::prop_3_4_difference(&[]);
        check(
            &mut rows,
            "E3.4",
            "− not rel-fully generic",
            cx.mode == ExtensionMode::Rel,
            String::new(),
        );
        let cx = witness::prop_3_5_eq_adom_strong();
        check(
            &mut rows,
            "E3.5",
            "eq_adom rel-fully but not strong-fully generic",
            cx.mode == ExtensionMode::Strong,
            String::new(),
        );
    }
    {
        let hat = AlgebraQuery::new(catalog::q4_hat());
        let out1 = CvType::set(CvType::tuple([CvType::domain(0)]));
        let strong = check_invariance(
            &hat,
            &rel2(),
            &out1,
            &MappingClass::all(),
            &CheckConfig::default().with_mode(ExtensionMode::Strong),
        );
        check(
            &mut rows,
            "E3.6",
            "σ̂ is strong-fully generic (Chandra)",
            strong.is_invariant(),
            String::new(),
        );
    }
    {
        let levels: Vec<String> = catalog::all_named()
            .iter()
            .map(|(n, q)| format!("{n}: {}", equality_usage(q)))
            .collect();
        check(
            &mut rows,
            "E3.2-h",
            "four equality sub-languages realized",
            true,
            format!("[{}]", levels.join("; ")),
        );
    }

    capture(&mut metrics, "E3.*");

    // ---------- Section 4 ----------
    {
        let mut all_ok = true;
        let mut names = Vec::new();
        for (name, term, _) in stdlib::expected_types() {
            let cfg = RelConfig {
                max_list: 2,
                ..Default::default()
            };
            let ok = parametric(&term, cfg).is_ok();
            all_ok &= ok;
            names.push(format!("{name}:{}", if ok { "✓" } else { "✗" }));
        }
        check(
            &mut rows,
            "E4.4",
            "parametricity theorem for the stdlib",
            all_ok,
            names.join(" "),
        );
    }
    {
        let catalog_cls = transfer::example_4_14_catalog();
        let ok = catalog_cls
            .iter()
            .all(|(_, t, expect)| t.classify() == *expect);
        check(
            &mut rows,
            "E4.14",
            "σ LtoS, ext not, fold LtoS, …",
            ok,
            String::new(),
        );
    }
    {
        let (d2, d3) = witness::prop_4_16_depth_pair();
        let np = AlgebraQuery::new(catalog::np());
        let ty = CvType::set(CvType::set(CvType::domain(0)));
        let generic = check_invariance(
            &np,
            &ty,
            &CvType::bool(),
            &MappingClass::all(),
            &CheckConfig::default(),
        )
        .is_invariant();
        let not_parametric = d2.set_nesting_depth() % 2 != d3.set_nesting_depth() % 2;
        check(
            &mut rows,
            "E4.16",
            "np fully generic but not parametric",
            generic && not_parametric,
            String::new(),
        );
    }

    capture(&mut metrics, "E4.*");

    // ---------- tightest-class ladder (the §1 closing question) ----------
    {
        use genpar_core::check::CheckConfig;
        use genpar_core::probe::probe_tightest;
        let out1 = CvType::set(CvType::tuple([CvType::domain(0)]));
        let ladder: Vec<(&str, genpar_algebra::Query, CvType)> = vec![
            ("Q3 = π1(R)", catalog::q3(), out1.clone()),
            ("Q4 = σ(1=2)(R)", catalog::q4(), rel2()),
            ("Q4^ = σ̂(1=2)(R)", catalog::q4_hat(), out1),
            ("Q1 = π13(R ⋈ R)", catalog::q1(), rel2()),
        ];
        let mut lines = Vec::new();
        for (name, q, out_ty) in ladder {
            let aq = AlgebraQuery::new(q);
            let cfg = CheckConfig {
                families: 30,
                inputs_per_family: 20,
                ..Default::default()
            };
            let report = probe_tightest(&aq, &rel2(), &out_ty, &cfg);
            lines.push(format!(
                "{name}: {}",
                report
                    .tightest()
                    .map(|r| format!("generic w.r.t. {r} mappings"))
                    .unwrap_or_else(|| "below classical".into())
            ));
        }
        check(
            &mut rows,
            "§1-probe",
            "tightest genericity class per query (rel mode)",
            true,
            format!("[{}]", lines.join("; ")),
        );
    }
    capture(&mut metrics, "§1-probe");

    // ---------- print the claim table ----------
    println!("==================================================================");
    println!(" On Genericity and Parametricity (PODS'96) — experiment report");
    println!("==================================================================\n");
    println!("{:<9} {:<55} verdict", "exp", "paper claim");
    println!("{}", "-".repeat(110));
    for r in &rows {
        println!("{:<9} {:<55} {}", r.id, r.claim, r.verdict);
    }

    // ---------- Section 4.4 series ----------
    println!("\n==================================================================");
    println!(" Section 4.4 — optimization series (engine work counters)");
    println!("==================================================================\n");

    println!("Series A: Π₁(R ∪ S) vs pushed, sweep over rows (value_range=50, arity=3)");
    println!(
        "{:>10} {:>16} {:>16} {:>8}",
        "rows", "base cells", "rewritten cells", "speedup"
    );
    for rows_n in [1_000usize, 5_000, 20_000, 50_000] {
        let mut rng = StdRng::seed_from_u64(1);
        let spec = WorkloadSpec {
            rows: rows_n,
            arity: 3,
            value_range: 50,
            key_on_first: false,
        };
        let cat = Catalog::new()
            .with(generate_table(&mut rng, "R", spec))
            .with(generate_table(&mut rng, "S", spec));
        let q = Query::rel("R").union(Query::rel("S")).project([0]);
        let (opt, _) = optimize(&q, &RuleSet::standard(), &cat);
        let (_, sa) = execute(&q, &cat);
        let (_, sb) = execute(&opt, &cat);
        println!(
            "{:>10} {:>16} {:>16} {:>7.2}×",
            rows_n,
            sa.cells_processed,
            sb.cells_processed,
            sa.cells_processed as f64 / sb.cells_processed.max(1) as f64
        );
    }

    capture(&mut metrics, "Series A");

    println!("\nSeries B: Π₁(R ∪ S), sweep over duplication (rows=20000, arity=3)");
    println!(
        "{:>12} {:>16} {:>16} {:>8}",
        "value_range", "base cells", "rewritten cells", "speedup"
    );
    for range in [10i64, 50, 200, 1000] {
        let mut rng = StdRng::seed_from_u64(2);
        let spec = WorkloadSpec {
            rows: 20_000,
            arity: 3,
            value_range: range,
            key_on_first: false,
        };
        let cat = Catalog::new()
            .with(generate_table(&mut rng, "R", spec))
            .with(generate_table(&mut rng, "S", spec));
        let q = Query::rel("R").union(Query::rel("S")).project([0]);
        let (opt, _) = optimize(&q, &RuleSet::standard(), &cat);
        let (_, sa) = execute(&q, &cat);
        let (_, sb) = execute(&opt, &cat);
        println!(
            "{:>12} {:>16} {:>16} {:>7.2}×",
            range,
            sa.cells_processed,
            sb.cells_processed,
            sa.cells_processed as f64 / sb.cells_processed.max(1) as f64
        );
    }

    capture(&mut metrics, "Series B");

    println!("\nSeries C: Π₁(R − S) key-aware push, sweep over tuple width");
    println!("(the crossover: pushing pays only once rows are wide enough)");
    println!(
        "{:>8} {:>16} {:>16} {:>8}",
        "arity", "base cells", "rewritten cells", "speedup"
    );
    for arity in [2usize, 3, 4, 6, 8, 12] {
        let mut rng = StdRng::seed_from_u64(3);
        let (r, s) = generate_keyed_pair(&mut rng, 20_000, arity, 0.5);
        let cat = Catalog::new().with(r).with(s);
        let q = Query::rel("R").difference(Query::rel("S")).project([0]);
        let rules = RuleSet::with_constraints(
            Constraints::none().with_union_key(["R".to_string(), "S".to_string()], [0]),
        );
        let (opt, _) = optimize(&q, &rules, &cat);
        let (ra, sa) = execute(&q, &cat);
        let (rb, sb) = execute(&opt, &cat);
        assert_eq!(ra, rb, "rewrite must preserve semantics");
        println!(
            "{:>8} {:>16} {:>16} {:>7.2}×",
            arity,
            sa.cells_processed,
            sb.cells_processed,
            sa.cells_processed as f64 / sb.cells_processed.max(1) as f64
        );
    }

    capture(&mut metrics, "Series C");

    // the law holds for any f; the executor runs row-shaped maps only,
    // so the measured f is the column map t ↦ (t.0)
    println!("\nSeries D: map(f)(R ∪ S), f = t ↦ (t.0) — full-genericity law");
    println!(
        "{:>10} {:>16} {:>16} {:>8}",
        "rows", "base rows", "rewritten rows", "speedup"
    );
    for rows_n in [1_000usize, 10_000, 50_000] {
        let mut rng = StdRng::seed_from_u64(4);
        let spec = WorkloadSpec {
            rows: rows_n,
            arity: 2,
            value_range: 40,
            key_on_first: false,
        };
        let cat = Catalog::new()
            .with(generate_table(&mut rng, "R", spec))
            .with(generate_table(&mut rng, "S", spec));
        let q = Query::rel("R")
            .union(Query::rel("S"))
            .map(genpar_algebra::ValueFn::Cols(vec![0]));
        let (opt, _) = optimize(&q, &RuleSet::standard(), &cat);
        let (_, sa) = execute(&q, &cat);
        let (_, sb) = execute(&opt, &cat);
        println!(
            "{:>10} {:>16} {:>16} {:>7.2}×",
            rows_n,
            sa.rows_processed,
            sb.rows_processed,
            sa.rows_processed as f64 / sb.rows_processed.max(1) as f64
        );
    }

    capture(&mut metrics, "Series D");

    // ---------- per-experiment metrics ----------
    println!("\n==================================================================");
    println!(" Per-experiment metrics (genpar-obs counters)");
    println!("==================================================================\n");
    for m in &metrics {
        let line = m
            .counters
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ");
        println!(
            "{:<10} {:>9.1}ms  {}",
            m.label,
            m.micros as f64 / 1e3,
            if line.is_empty() {
                "(no counters)"
            } else {
                &line
            }
        );
    }

    let failed = rows
        .iter()
        .filter(|r| r.verdict.starts_with("FAILED"))
        .count();
    println!(
        "\n{} claims checked, {} reproduced, {} failed",
        rows.len(),
        rows.len() - failed,
        failed
    );
    if failed > 0 {
        std::process::exit(1);
    }
}
