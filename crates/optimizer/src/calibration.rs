//! Measured calibration of the parallel cost model.
//!
//! [`crate::estimate_parallel`] used to price coordination with a
//! hard-coded 3%/worker guess. A [`Calibration`] makes that constant a
//! *measurement*: [`Calibration::fit_from_bench`] reads the
//! `BENCH_parallel.json` emitted by the `parallel_speedup` bench and
//! solves the model against the observed speedups, and the
//! `genpar calibrate` CLI subcommand writes the result to a calibration
//! file (`CALIBRATION.json`) that `--calibration` loads back. The
//! checked-in default file holds [`Calibration::default`], which
//! reproduces the historical constant exactly — calibrating is opt-in.
//!
//! ## The model
//!
//! For a partition-safe query with serial cost `C` (cells) on `w > 1`
//! workers:
//!
//! ```text
//! parallel_cost(C, w) = C · (1/w + c·(w−1)) + s·(w−1)
//! ```
//!
//! where `c` = [`Calibration::overhead_per_worker`] (per-worker
//! coordination as a fraction of serial cost: morsel dispatch, canonical
//! merge) and `s` = [`Calibration::startup_cost_cells`] (fixed
//! per-extra-worker cost in cell units: thread spawn, deque setup).
//! Setting the partial derivative against the serial cost to zero gives
//! the **crossover**: parallel wins exactly when
//!
//! ```text
//! C > s·(w−1) / (1 − 1/w − c·(w−1))
//! ```
//!
//! ([`Calibration::crossover_cost_cells`]; `None` when the denominator
//! is ≤ 0, i.e. coordination alone already eats the whole speedup and
//! the parallel route can never win at that width).
//!
//! ## Fitting
//!
//! A single-workload bench varies only `w`, so the two parameters are
//! colinear (both scale with `w−1`) and only their combined slope is
//! identifiable. The bench therefore tags each result with its workload
//! `shape` and serial model cost `model_cost_cells`, and with **two or
//! more** distinct shapes present the fit separates the parameters:
//! dividing the model by `C` gives
//!
//! ```text
//! 1/speedup_w − 1/w  =  (w−1)·(c + s/C_shape)
//! ```
//!
//! i.e. a two-regressor least-squares problem with `x₁ = w−1` and
//! `x₂ = (w−1)/C_shape`, solved by the 2×2 normal equations. A
//! scan-heavy shape (large `C`, slope ≈ `c`) and a fixpoint shape (many
//! small rounds, slope dominated by `s/C`) pull the regressors apart.
//! With fewer than two costed shapes — or an ill-conditioned system —
//! the fit falls back to attributing the whole slope to `c` (least
//! squares over `1/speedup_w − 1/w = c·(w−1)`) and leaves `s` as
//! configured, exactly the historical behaviour.
//!
//! A machine with fewer than two hardware threads cannot produce real
//! contention, so `genpar calibrate` marks the result
//! [`Calibration::unreliable`] — the flag rides along in
//! `CALIBRATION.json` and consumers may warn or refuse.

use crate::cost::Estimate;
use genpar_algebra::Query;
use genpar_engine::Catalog;
use genpar_obs::Json;

/// Schema version written into calibration files.
pub const CALIBRATION_SCHEMA_VERSION: i64 = 2;

/// The historical hard-coded per-worker overhead fraction.
pub const DEFAULT_OVERHEAD_PER_WORKER: f64 = 0.03;

/// Measured parameters of the parallel cost model. See the module docs
/// for the model and the fitting procedure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Per-worker coordination overhead as a fraction of serial cost.
    pub overhead_per_worker: f64,
    /// Fixed per-extra-worker cost, in cell units.
    pub startup_cost_cells: f64,
    /// Was this calibration measured under conditions that cannot
    /// reflect real parallel contention (fewer than two hardware
    /// threads)? Persisted in `CALIBRATION.json`; consumers should warn
    /// loudly when it is set.
    pub unreliable: bool,
}

impl Default for Calibration {
    /// The uncalibrated model: the historical 3%/worker constant and no
    /// startup term — byte-identical cost estimates to the pre-calibration
    /// code.
    fn default() -> Calibration {
        Calibration {
            overhead_per_worker: DEFAULT_OVERHEAD_PER_WORKER,
            startup_cost_cells: 0.0,
            unreliable: false,
        }
    }
}

impl Calibration {
    /// Predicted cost of running `serial_cost_cells` worth of work on
    /// `workers` workers (the module-level model). `workers <= 1` is the
    /// serial cost unchanged.
    pub fn parallel_cost(&self, serial_cost_cells: f64, workers: usize) -> f64 {
        if workers <= 1 {
            return serial_cost_cells;
        }
        let w = workers as f64;
        serial_cost_cells * (1.0 / w + self.overhead_per_worker * (w - 1.0))
            + self.startup_cost_cells * (w - 1.0)
    }

    /// The serial cost (cells) above which the parallel route at
    /// `workers` is predicted cheaper than serial. `None` when
    /// coordination overhead alone exceeds the ideal speedup — the
    /// parallel route can never win at that width.
    pub fn crossover_cost_cells(&self, workers: usize) -> Option<f64> {
        if workers <= 1 {
            return None;
        }
        let w = workers as f64;
        let denom = 1.0 - 1.0 / w - self.overhead_per_worker * (w - 1.0);
        if denom <= 0.0 {
            return None;
        }
        Some(self.startup_cost_cells * (w - 1.0) / denom)
    }

    /// Fit the model from a `BENCH_parallel.json` document (schema:
    /// `{"results": [{"workers": N, "speedup": S, "shape": "scan",
    /// "model_cost_cells": C, ...}, ...]}`).
    ///
    /// With two or more distinct `shape`s carrying a positive
    /// `model_cost_cells`, both `overhead_per_worker` **and**
    /// `startup_cost_cells` are fit via the 2×2 normal equations (see
    /// module docs). Otherwise — legacy single-shape documents, or an
    /// ill-conditioned system — least squares attributes the slope to
    /// the overhead fraction alone and the startup term is carried over
    /// from `self`. Errors when the document has no usable points.
    pub fn fit_from_bench(&self, bench: &Json) -> Result<Calibration, String> {
        let results = bench
            .get("results")
            .and_then(|r| r.as_arr())
            .ok_or_else(|| "bench JSON has no \"results\" array".to_string())?;
        // usable point: (w, y = 1/speedup − 1/w, serial model cost, shape)
        let mut points: Vec<(f64, f64, Option<f64>, Option<String>)> = Vec::new();
        for r in results {
            let w = match r.get("workers").and_then(|v| v.as_int()) {
                Some(w) if w > 1 => w as f64,
                _ => continue,
            };
            let s = match r.get("speedup") {
                Some(Json::Num(s)) if *s > 0.0 => *s,
                Some(Json::Int(s)) if *s > 0 => *s as f64,
                _ => continue,
            };
            let cost = match r.get("model_cost_cells") {
                Some(Json::Num(c)) if *c > 0.0 => Some(*c),
                Some(Json::Int(c)) if *c > 0 => Some(*c as f64),
                _ => None,
            };
            let shape = r
                .get("shape")
                .and_then(|v| v.as_str())
                .map(|s| s.to_string());
            points.push((w, 1.0 / s - 1.0 / w, cost, shape));
        }
        if points.is_empty() {
            return Err("no multi-worker points with positive speedup in bench JSON".to_string());
        }
        // the two-parameter fit needs at least two distinct costed shapes
        let costed_shapes: std::collections::BTreeSet<&str> = points
            .iter()
            .filter(|(_, _, c, _)| c.is_some())
            .filter_map(|(_, _, _, sh)| sh.as_deref())
            .collect();
        if costed_shapes.len() >= 2 {
            // regressors: x1 = w−1 (coordination), x2 = (w−1)/C (startup)
            let (mut a11, mut a12, mut a22, mut b1, mut b2) = (0.0, 0.0, 0.0, 0.0, 0.0);
            for (w, y, cost, _) in points.iter().filter(|(_, _, c, _)| c.is_some()) {
                let x1 = w - 1.0;
                let x2 = (w - 1.0) / cost.unwrap_or(1.0);
                a11 += x1 * x1;
                a12 += x1 * x2;
                a22 += x2 * x2;
                b1 += x1 * y;
                b2 += x2 * y;
            }
            let det = a11 * a22 - a12 * a12;
            // conditioning guard: identical costs across "shapes" make
            // the columns colinear again — fall through to the 1-D fit
            if det > 1e-12 * a11 * a22 {
                return Ok(Calibration {
                    // negative fits are noise (a machine beating the
                    // model); clamp both at zero
                    overhead_per_worker: ((b1 * a22 - b2 * a12) / det).max(0.0),
                    startup_cost_cells: ((b2 * a11 - b1 * a12) / det).max(0.0),
                    unreliable: self.unreliable,
                });
            }
        }
        // 1-D fallback: model 1/speedup_w − 1/w = c·(w−1)
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        for (w, y, _, _) in &points {
            let x = w - 1.0;
            num += x * y;
            den += x * x;
        }
        Ok(Calibration {
            // a machine faster in parallel than the model allows fits a
            // negative c; clamp — negative coordination cost is noise
            overhead_per_worker: (num / den).max(0.0),
            startup_cost_cells: self.startup_cost_cells,
            unreliable: self.unreliable,
        })
    }

    /// The calibration as a JSON document (what `genpar calibrate`
    /// writes).
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "schema_version",
                Json::Int(CALIBRATION_SCHEMA_VERSION as i128),
            ),
            ("overhead_per_worker", Json::Num(self.overhead_per_worker)),
            ("startup_cost_cells", Json::Num(self.startup_cost_cells)),
            ("unreliable", Json::Bool(self.unreliable)),
        ])
    }

    /// Parse a calibration document (inverse of [`Calibration::to_json`];
    /// unknown keys are ignored, missing keys fall back to the default).
    pub fn from_json(j: &Json) -> Result<Calibration, String> {
        let field = |key: &str, default: f64| -> Result<f64, String> {
            match j.get(key) {
                None => Ok(default),
                Some(Json::Num(n)) => Ok(*n),
                Some(Json::Int(n)) => Ok(*n as f64),
                Some(other) => Err(format!(
                    "calibration field {key:?} is not a number: {other}"
                )),
            }
        };
        let d = Calibration::default();
        let unreliable = match j.get("unreliable") {
            None => false,
            Some(Json::Bool(b)) => *b,
            Some(other) => {
                return Err(format!(
                    "calibration field \"unreliable\" is not a bool: {other}"
                ))
            }
        };
        let cal = Calibration {
            overhead_per_worker: field("overhead_per_worker", d.overhead_per_worker)?,
            startup_cost_cells: field("startup_cost_cells", d.startup_cost_cells)?,
            unreliable,
        };
        let valid = |x: f64| x.is_finite() && x >= 0.0;
        if !valid(cal.overhead_per_worker) || !valid(cal.startup_cost_cells) {
            return Err(format!(
                "calibration parameters must be non-negative, got c={} s={}",
                cal.overhead_per_worker, cal.startup_cost_cells
            ));
        }
        Ok(cal)
    }

    /// Load a calibration file from disk, verifying the crash-safety
    /// checksum when present (see [`crate::persist`]). Unlike stats, a
    /// **missing** file is an error — the user asked for a specific
    /// calibration; silently falling back to defaults would misprice
    /// every route.
    pub fn from_file(path: &str) -> Result<Calibration, String> {
        let text = match crate::persist::read_payload(path) {
            Ok(Some(t)) => t,
            Ok(None) => {
                return Err(format!(
                    "cannot read calibration file {path}: file not found"
                ))
            }
            Err(e) => return Err(e),
        };
        let j = Json::parse(&text).map_err(|e| format!("calibration file {path}: {e}"))?;
        Calibration::from_json(&j)
    }
}

/// Both routes the executor could take for a query, costed side by side
/// — what `explain` prints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteCosts {
    /// The serial route's estimate.
    pub serial: Estimate,
    /// The parallel route's estimate at `workers` (equals `serial` when
    /// the gate refuses or `workers <= 1`).
    pub parallel: Estimate,
    /// Worker width the parallel route was costed at.
    pub workers: usize,
    /// Did the partition-safety gate find *any* parallel route — plain
    /// partitioning, per-round fixpoint evaluation, or a combiner?
    pub safe: bool,
    /// Is the parallel route predicted cheaper?
    pub choose_parallel: bool,
    /// `serial.cost − parallel.cost`: positive means the parallel route
    /// saves this many cells.
    pub margin_cells: f64,
    /// Serial cost above which parallel wins at this width (`None` when
    /// it never can, or when serial was requested).
    pub crossover_cost_cells: Option<f64>,
}

/// Cost both executor routes for `q` under a calibration. The parallel
/// route honours the partition-safety gate exactly as the executor does:
/// a refused query's "parallel" cost is its serial cost and the choice
/// is serial, while the per-round fixpoint and combiner verdicts get the
/// same route-specific pricing as
/// [`estimate_parallel_with_stats`](crate::estimate_parallel_with_stats).
///
/// With a catalog's **observed statistics** (see
/// [`crate::estimate_with_stats`]; `None` is the static model) both
/// routes are costed under the observed cardinality overrides, so
/// harvested feedback can move a query across the crossover and flip the
/// route `explain` recommends. The answer cannot change — both routes
/// compute the same `Value` by the partition-safety guarantee; only the
/// choice does.
pub fn route_costs_with_stats(
    q: &Query,
    catalog: &Catalog,
    workers: usize,
    cal: &Calibration,
    obs: Option<&crate::stats::CatalogStats>,
) -> RouteCosts {
    let serial = crate::estimate_with_stats(q, catalog, obs);
    let eligible = genpar_core::partition_safety(q).parallel_eligible();
    let parallel = if workers > 1 && eligible {
        crate::estimate_parallel_with_stats(q, catalog, workers, cal, obs)
    } else {
        serial
    };
    let choose_parallel = workers > 1 && eligible && parallel.cost < serial.cost;
    // Every route's parallel cost is affine in the serial cost C:
    // parallel = a·C + b with a = 1/w + c·(w−1) and a route-specific
    // constant b (plain: s·(w−1); fixpoint: rounds·s·(w−1); combiner:
    // s·(w−1) + w). Solving a·C + b < C gives the crossover for the
    // route actually taken; for the plain route this reduces exactly to
    // [`Calibration::crossover_cost_cells`].
    let crossover_cost_cells = if workers > 1 && eligible {
        let w = workers as f64;
        let a = 1.0 / w + cal.overhead_per_worker * (w - 1.0);
        let b = parallel.cost - serial.cost * a;
        if 1.0 - a > 0.0 {
            Some((b / (1.0 - a)).max(0.0))
        } else {
            None
        }
    } else {
        None
    };
    RouteCosts {
        serial,
        parallel,
        workers,
        safe: eligible,
        choose_parallel,
        margin_cells: serial.cost - parallel.cost,
        crossover_cost_cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::estimate;
    use genpar_engine::workload::generate_keyed_pair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keyed_catalog() -> Catalog {
        let mut rng = StdRng::seed_from_u64(9);
        let (r, s) = generate_keyed_pair(&mut rng, 2_000, 3, 0.5);
        Catalog::new().with(r).with(s)
    }

    #[test]
    fn default_calibration_reproduces_the_historical_constant() {
        let cal = Calibration::default();
        let cat = keyed_catalog();
        let q = Query::rel("R")
            .join_on(Query::rel("S"), [(0, 0)])
            .project([0]);
        for w in [1usize, 2, 4, 8, 1000] {
            let legacy = crate::estimate_parallel(&q, &cat, w);
            let base = estimate(&q, &cat);
            assert_eq!(
                cal.parallel_cost(base.cost, w),
                legacy.cost,
                "default must be byte-identical at w={w}"
            );
        }
    }

    #[test]
    fn json_round_trip() {
        let cal = Calibration {
            overhead_per_worker: 0.0125,
            startup_cost_cells: 340.5,
            unreliable: false,
        };
        let j = cal.to_json();
        assert_eq!(
            j.get("schema_version").and_then(|v| v.as_int()),
            Some(CALIBRATION_SCHEMA_VERSION as i128)
        );
        let text = j.to_string();
        let back = Calibration::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, cal);
    }

    #[test]
    fn from_json_rejects_negative_parameters() {
        let j = Json::parse(r#"{"overhead_per_worker": -0.5}"#).unwrap();
        assert!(Calibration::from_json(&j).is_err());
    }

    #[test]
    fn fit_recovers_a_known_overhead() {
        // synthesize a bench with exactly c = 0.05, s = 0:
        // 1/speedup_w = 1/w + 0.05 (w−1)
        let c = 0.05;
        let mk = |w: f64| 1.0 / (1.0 / w + c * (w - 1.0));
        let bench = Json::parse(&format!(
            r#"{{"results": [
                {{"workers": 1, "speedup": 1.0}},
                {{"workers": 2, "speedup": {}}},
                {{"workers": 4, "speedup": {}}},
                {{"workers": 8, "speedup": {}}}
            ]}}"#,
            mk(2.0),
            mk(4.0),
            mk(8.0)
        ))
        .unwrap();
        let fitted = Calibration::default().fit_from_bench(&bench).unwrap();
        assert!(
            (fitted.overhead_per_worker - c).abs() < 1e-9,
            "fit {} != {c}",
            fitted.overhead_per_worker
        );
    }

    #[test]
    fn two_shape_fit_separates_overhead_from_startup() {
        // synthesize two workload shapes from exact model output with
        // c = 0.02, s = 200: 1/speedup = 1/w + (w−1)·(c + s/C_shape).
        // A scan-heavy shape (C large, slope ≈ c) and a fixpoint shape
        // (C small, slope dominated by s/C) make both identifiable.
        let (c, s) = (0.02, 200.0);
        let mk = |w: f64, cost: f64| 1.0 / (1.0 / w + (w - 1.0) * (c + s / cost));
        let mut rows = String::new();
        for (shape, cost) in [("scan", 100_000.0), ("fixpoint", 2_000.0)] {
            for w in [2.0, 4.0, 8.0] {
                rows.push_str(&format!(
                    r#"{{"workers": {w}, "speedup": {}, "shape": "{shape}", "model_cost_cells": {cost}}},"#,
                    mk(w, cost)
                ));
            }
        }
        rows.pop(); // trailing comma
        let bench = Json::parse(&format!(r#"{{"results": [{rows}]}}"#)).unwrap();
        let fitted = Calibration::default().fit_from_bench(&bench).unwrap();
        assert!(
            (fitted.overhead_per_worker - c).abs() < 1e-6,
            "c: fit {} != {c}",
            fitted.overhead_per_worker
        );
        assert!(
            (fitted.startup_cost_cells - s).abs() < 1e-3,
            "s: fit {} != {s}",
            fitted.startup_cost_cells
        );
        assert!(!fitted.unreliable);
    }

    #[test]
    fn single_shape_fit_keeps_the_legacy_behaviour() {
        // one costed shape cannot separate the parameters: the fit must
        // attribute the whole slope to c and carry s over from self.
        let (c, s_true) = (0.03, 500.0);
        let cost = 10_000.0;
        let mk = |w: f64| 1.0 / (1.0 / w + (w - 1.0) * (c + s_true / cost));
        let bench = Json::parse(&format!(
            r#"{{"results": [
                {{"workers": 2, "speedup": {}, "shape": "scan", "model_cost_cells": {cost}}},
                {{"workers": 4, "speedup": {}, "shape": "scan", "model_cost_cells": {cost}}}
            ]}}"#,
            mk(2.0),
            mk(4.0)
        ))
        .unwrap();
        let prior = Calibration {
            overhead_per_worker: 0.0,
            startup_cost_cells: 123.0,
            unreliable: false,
        };
        let fitted = prior.fit_from_bench(&bench).unwrap();
        // slope absorbed into c (c + s/C = 0.08), startup untouched
        assert!(
            (fitted.overhead_per_worker - (c + s_true / cost)).abs() < 1e-9,
            "colinear slope should land on c, got {}",
            fitted.overhead_per_worker
        );
        assert_eq!(fitted.startup_cost_cells, 123.0);
    }

    #[test]
    fn unreliable_flag_survives_fit_and_json() {
        let prior = Calibration {
            unreliable: true,
            ..Calibration::default()
        };
        let bench = Json::parse(r#"{"results": [{"workers": 4, "speedup": 2.0}]}"#).unwrap();
        let fitted = prior.fit_from_bench(&bench).unwrap();
        assert!(fitted.unreliable, "fit must carry the unreliable flag");
        let back =
            Calibration::from_json(&Json::parse(&fitted.to_json().to_string()).unwrap()).unwrap();
        assert!(back.unreliable);
        // absent flag parses as reliable (additive schema field)
        let legacy = Json::parse(
            r#"{"schema_version": 2, "overhead_per_worker": 0.01, "startup_cost_cells": 0.0}"#,
        )
        .unwrap();
        assert!(!Calibration::from_json(&legacy).unwrap().unreliable);
    }

    #[test]
    fn fit_clamps_superlinear_machines_to_zero() {
        // speedup better than ideal fits c < 0 → clamped
        let bench = Json::parse(r#"{"results": [{"workers": 4, "speedup": 5.0}]}"#).unwrap();
        let fitted = Calibration::default().fit_from_bench(&bench).unwrap();
        assert_eq!(fitted.overhead_per_worker, 0.0);
    }

    #[test]
    fn fit_errors_without_usable_points() {
        let bench = Json::parse(r#"{"results": [{"workers": 1, "speedup": 1.0}]}"#).unwrap();
        assert!(Calibration::default().fit_from_bench(&bench).is_err());
        assert!(Calibration::default()
            .fit_from_bench(&Json::parse("{}").unwrap())
            .is_err());
    }

    #[test]
    fn crossover_separates_the_routes() {
        let cal = Calibration {
            overhead_per_worker: 0.03,
            startup_cost_cells: 100.0,
            unreliable: false,
        };
        let cross = cal.crossover_cost_cells(4).unwrap();
        assert!(cross > 0.0);
        // just below: serial wins; just above: parallel wins
        assert!(cal.parallel_cost(cross * 0.9, 4) > cross * 0.9);
        assert!(cal.parallel_cost(cross * 1.1, 4) < cross * 1.1);
        // overhead so high the denominator goes non-positive: no crossover
        let hopeless = Calibration {
            overhead_per_worker: 0.5,
            startup_cost_cells: 100.0,
            unreliable: false,
        };
        assert_eq!(hopeless.crossover_cost_cells(4), None);
        // zero startup: any certified work benefits (crossover at 0)
        assert_eq!(Calibration::default().crossover_cost_cells(4), Some(0.0));
    }

    #[test]
    fn route_costs_respect_the_gate() {
        let cat = keyed_catalog();
        let cal = Calibration::default();
        let safe = Query::rel("R")
            .join_on(Query::rel("S"), [(0, 0)])
            .project([0]);
        let rc = route_costs_with_stats(&safe, &cat, 4, &cal, None);
        assert!(rc.safe && rc.choose_parallel);
        assert!(rc.parallel.cost < rc.serial.cost);
        assert!(rc.margin_cells > 0.0);
        assert_eq!(rc.crossover_cost_cells, Some(0.0));

        let unsafe_q = Query::Powerset(Box::new(Query::rel("R")));
        let rc = route_costs_with_stats(&unsafe_q, &cat, 4, &cal, None);
        assert!(!rc.safe && !rc.choose_parallel);
        assert_eq!(rc.serial, rc.parallel);
        assert_eq!(rc.margin_cells, 0.0);
        assert_eq!(rc.crossover_cost_cells, None);

        let rc = route_costs_with_stats(&safe, &cat, 1, &cal, None);
        assert!(!rc.choose_parallel, "serial request never picks parallel");
    }

    #[test]
    fn route_costs_price_the_combiner_and_fixpoint_routes() {
        let cat = keyed_catalog();
        let cal = Calibration {
            overhead_per_worker: 0.01,
            startup_cost_cells: 500.0,
            unreliable: false,
        };
        // combiner verdict: eligible, discounted, crossover shifted up by
        // the combine constant relative to the plain route
        let even = Query::Even(Box::new(Query::rel("R")));
        let rc = route_costs_with_stats(&even, &cat, 4, &cal, None);
        assert!(rc.safe, "root `even` is combiner-eligible now");
        assert!(rc.choose_parallel && rc.parallel.cost < rc.serial.cost);
        let plain = route_costs_with_stats(&Query::rel("R"), &cat, 4, &cal, None);
        let (even_cross, plain_cross) = (
            rc.crossover_cost_cells.expect("combiner crossover"),
            plain.crossover_cost_cells.expect("plain crossover"),
        );
        assert!(
            even_cross > plain_cross,
            "serial combine costs extra, so the combiner crossover \
             ({even_cross}) must sit above the plain one ({plain_cross})"
        );

        // per-round fixpoint verdict: eligible, and the crossover pays
        // the startup term once per expected round
        let step = Query::rel("X")
            .join_on(Query::rel("R"), [(1, 0)])
            .project([0, 3]);
        let fix = Query::fixpoint("X", Query::rel("R"), step);
        let rc = route_costs_with_stats(&fix, &cat, 4, &cal, None);
        assert!(rc.safe, "distributive-body fixpoint is round-safe");
        assert!(
            rc.crossover_cost_cells.expect("fixpoint crossover") > plain_cross,
            "per-round startup raises the fixpoint crossover"
        );
    }

    #[test]
    fn from_file_reports_missing_files() {
        let err = Calibration::from_file("/nonexistent/calibration.json").unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
    }
}
