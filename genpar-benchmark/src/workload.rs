//! Seeded workload generation: the `.gdb` database the server loads and
//! the `run` request lines the client sends. The server receives only
//! these.
//!
//! Every query list alternates `"workers":1` and `"workers":2`, so both
//! the algebra walker and the morsel executor carry load on every
//! workload.

use crate::json::quote;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// One traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Small relations, cheap queries: fixed per-request costs dominate.
    Point,
    /// Large relations, tiny answers: the executors dominate.
    Scan,
    /// Chain reachability fixpoints: the round machinery dominates.
    Closure,
}

/// Every workload, in the order a full suite runs them.
pub const WORKLOADS: [Workload; 3] = [Workload::Point, Workload::Scan, Workload::Closure];

impl Workload {
    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Point => "point",
            Workload::Scan => "scan",
            Workload::Closure => "closure",
        }
    }

    /// The workload named `name`, if any.
    pub fn from_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }
}

/// One `run` request of a workload's stream; its answer is
/// byte-compared against the serial walker's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Query text.
    pub query: String,
    /// Worker-count hint, 1 or 2.
    pub workers: usize,
}

/// The tenant every request names.
const TENANT: &str = "t0";

impl Request {
    /// The request as one protocol line, without the trailing newline.
    pub fn line(&self) -> String {
        format!(
            "{{\"op\":\"run\",\"query\":{},\"tenant\":{},\"workers\":{}}}",
            quote(&self.query),
            quote(TENANT),
            self.workers
        )
    }
}

/// Data sizes. [`Sizes::full`] is what the benchmark measures;
/// [`Sizes::tiny`] keeps the same shapes small enough for tests.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// `point`'s R and S each hold `2 * point_domain` pairs over
    /// `0..point_domain`.
    pub point_domain: u64,
    /// Rows in each of `scan`'s R and S.
    pub scan_rows: usize,
    /// `scan`'s R values lie in `0..scan_domain`.
    pub scan_domain: u64,
    /// Nodes on `closure`'s chain `0 -> 1 -> ...`.
    pub chain_nodes: u64,
    /// Nodes in `closure`'s disjoint random component.
    pub component_nodes: u64,
    /// Edges inside that component.
    pub component_edges: usize,
}

impl Sizes {
    /// The measured sizes.
    pub fn full() -> Sizes {
        Sizes {
            point_domain: 32,
            scan_rows: 20_000,
            scan_domain: 5_000,
            chain_nodes: 32,
            component_nodes: 512,
            component_edges: 1_024,
        }
    }

    /// Test-sized shapes.
    pub fn tiny() -> Sizes {
        Sizes {
            point_domain: 4,
            scan_rows: 200,
            scan_domain: 50,
            chain_nodes: 16,
            component_nodes: 32,
            component_edges: 64,
        }
    }
}

/// A generated workload: the database text and the request stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Generated {
    /// Which workload.
    pub workload: Workload,
    /// The `.gdb` file contents.
    pub gdb: String,
    /// The request stream; the client and the replay cycle through it.
    pub requests: Vec<Request>,
}

/// SplitMix64: a tiny, fixed generator, so a seed means the same inputs
/// whatever the program's own random-number code does.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// `count` distinct pairs with both values in `0..domain`.
fn distinct_pairs(rng: &mut Rng, count: usize, domain: u64) -> BTreeSet<(u64, u64)> {
    assert!(
        (count as u64) <= domain * domain,
        "{count} distinct pairs do not fit in {domain}x{domain}"
    );
    let mut pairs = BTreeSet::new();
    while pairs.len() < count {
        pairs.insert((rng.below(domain), rng.below(domain)));
    }
    pairs
}

fn relation_line(out: &mut String, name: &str, pairs: &BTreeSet<(u64, u64)>) {
    let body: Vec<String> = pairs.iter().map(|(a, b)| format!("({a}, {b})")).collect();
    let _ = writeln!(out, "{name} = {{{}}}", body.join(", "));
}

/// Each query once at `workers` 1 and once at 2, alternating.
fn alternate_workers(queries: &[String]) -> Vec<Request> {
    queries
        .iter()
        .flat_map(|q| {
            [1, 2].map(|workers| Request {
                query: q.clone(),
                workers,
            })
        })
        .collect()
}

/// `point`'s queries: the `bench-serve` shapes without `fix`.
fn point_queries() -> Vec<String> {
    [
        "pi[$1](R)",
        "select[$1=$2](R)",
        "union(R, S)",
        "diff(R, S)",
        "pi[$1,$4](join[$2=$1](R, S))",
        "count(R)",
        "sum[$2](R)",
    ]
    .map(String::from)
    .to_vec()
}

/// A uniformly random permutation of `0..n`.
fn permutation(rng: &mut Rng, n: u64) -> Vec<u64> {
    let mut p: Vec<u64> = (0..n).collect();
    for i in (1..p.len()).rev() {
        p.swap(i, rng.below(i as u64 + 1) as usize);
    }
    p
}

/// `2 * n` distinct pairs over `0..n` in which every value occurs exactly
/// twice in each column: the graphs of two permutations that differ
/// everywhere. Fixed degrees keep every `point` answer nearly the same
/// size whatever the seed, so the response bytes a seed brings do not
/// move the latency between runs.
fn two_regular(rng: &mut Rng, n: u64) -> BTreeSet<(u64, u64)> {
    assert!(
        n >= 2,
        "two permutations of {n} value(s) cannot differ everywhere"
    );
    let first = permutation(rng, n);
    let second = loop {
        let p = permutation(rng, n);
        if p.iter().zip(&first).all(|(a, b)| a != b) {
            break p;
        }
    };
    (0..n)
        .flat_map(|i| [(i, first[i as usize]), (i, second[i as usize])])
        .collect()
}

/// Generate `workload` from `seed`: the same seed gives byte-identical
/// data and requests.
pub fn generate(workload: Workload, seed: u64, sizes: &Sizes) -> Generated {
    // mix the workload into the stream so workloads sharing a seed do
    // not share data by accident
    let mut rng = Rng(seed ^ (workload as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
    let (gdb, requests) = match workload {
        Workload::Point => {
            let mut gdb = String::new();
            relation_line(&mut gdb, "R", &two_regular(&mut rng, sizes.point_domain));
            relation_line(&mut gdb, "S", &two_regular(&mut rng, sizes.point_domain));
            (gdb, alternate_workers(&point_queries()))
        }
        Workload::Scan => {
            let mut gdb = String::new();
            relation_line(
                &mut gdb,
                "R",
                &distinct_pairs(&mut rng, sizes.scan_rows, sizes.scan_domain),
            );
            // S is keyed on $1 over a range that covers R's $2 values, so
            // every R row joins exactly one S row
            let s: BTreeSet<(u64, u64)> = (0..sizes.scan_rows as u64)
                .map(|k| (k, rng.below(sizes.scan_domain)))
                .collect();
            relation_line(&mut gdb, "S", &s);
            let c: Vec<u64> = (0..5).map(|_| rng.below(sizes.scan_domain)).collect();
            // twelve atoms under &, | and !. Fully parenthesised, as the
            // predicate grammar has no precedence; a `$i=c` atom must be
            // followed by `&` or `|`, which end its value literal.
            let twelve = format!(
                "((($1={} | (lt($1,$2) & even($1))) | ($2={} & (even($2) & lt($2,$1)))) \
                 | ($1={} | $2={} & !(even($1)))) & ($2={} | !(($1=$2) | lt($2,$1)))",
                c[0], c[1], c[2], c[3], c[4]
            );
            let queries = vec![
                "count(R)".to_string(),
                "sum[$2](R)".to_string(),
                "count(select[$1=$2](R))".to_string(),
                format!("count(select[{twelve}](R))"),
                "count(union(R, S))".to_string(),
                "count(diff(R, S))".to_string(),
                "count(pi[$1,$4](join[$2=$1](R, S)))".to_string(),
            ];
            (gdb, alternate_workers(&queries))
        }
        Workload::Closure => {
            let chain: BTreeSet<(u64, u64)> =
                (0..sizes.chain_nodes - 1).map(|i| (i, i + 1)).collect();
            // the component's node ids start past the chain, so no seed
            // reaches it and it only adds join work to every round
            let base = sizes.chain_nodes;
            let mut component = BTreeSet::new();
            while component.len() < sizes.component_edges {
                component.insert((
                    base + rng.below(sizes.component_nodes),
                    base + rng.below(sizes.component_nodes),
                ));
            }
            let mut edges = chain;
            edges.extend(component);
            let mut gdb = String::new();
            relation_line(&mut gdb, "E", &edges);
            let queries: Vec<String> = (0..4)
                .map(|i| {
                    let k = i * sizes.chain_nodes / 4;
                    format!("fix[X](select[$1={k}](E), pi[$1,$4](join[$2=$1](X, E)))")
                })
                .collect();
            (gdb, alternate_workers(&queries))
        }
    };
    Generated {
        workload,
        gdb,
        requests,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(g: &Generated) -> String {
        let lines: Vec<String> = g.requests.iter().map(Request::line).collect();
        format!("{}\n{}", g.gdb, lines.join("\n"))
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for w in WORKLOADS {
            for sizes in [Sizes::tiny(), Sizes::full()] {
                let a = fingerprint(&generate(w, 11, &sizes));
                let b = fingerprint(&generate(w, 11, &sizes));
                let c = fingerprint(&generate(w, 12, &sizes));
                assert_eq!(a, b, "{}: same seed must give the same inputs", w.name());
                assert_ne!(a, c, "{}: another seed must give other inputs", w.name());
            }
        }
    }

    #[test]
    fn streams_alternate_workers() {
        for w in WORKLOADS {
            let g = generate(w, 3, &Sizes::tiny());
            assert!(g.requests.windows(2).all(|p| p[0].workers != p[1].workers));
        }
    }

    #[test]
    fn point_relations_are_two_regular() {
        let mut rng = Rng(9);
        let r = two_regular(&mut rng, 32);
        assert_eq!(r.len(), 64);
        for v in 0..32 {
            assert_eq!(r.iter().filter(|(a, _)| *a == v).count(), 2);
            assert_eq!(r.iter().filter(|(_, b)| *b == v).count(), 2);
        }
    }

    #[test]
    fn full_sizes_match_the_documented_shapes() {
        let scan = generate(Workload::Scan, 5, &Sizes::full());
        let r = scan.gdb.lines().next().unwrap();
        assert_eq!(r.matches('(').count(), 20_000);
        let twelve = &scan.requests[6].query;
        let atoms = twelve.matches('=').count()
            + twelve.matches("lt(").count()
            + twelve.matches("even(").count();
        assert_eq!(atoms, 12, "{twelve}");
        let closure = generate(Workload::Closure, 5, &Sizes::full());
        assert_eq!(closure.gdb.matches('(').count(), 31 + 1_024);
        assert!(closure.requests[6].query.contains("select[$1=24]"));
    }

    #[test]
    fn request_lines_are_json() {
        let r = &generate(Workload::Point, 1, &Sizes::tiny()).requests[1];
        let j = crate::json::Json::parse(&r.line()).unwrap();
        assert_eq!(j.get("op").and_then(|v| v.as_str()), Some("run"));
        assert_eq!(
            j.get("query").and_then(|v| v.as_str()),
            Some(r.query.as_str())
        );
        assert_eq!(
            j.get("workers").and_then(|v| v.as_f64()),
            Some(r.workers as f64)
        );
    }
}
