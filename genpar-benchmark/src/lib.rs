//! # genpar-benchmark
//!
//! The benchmark of `genpar serve`. An untraced run spawns the release
//! server on a seeded workload and drives it closed-loop over real
//! sockets, measuring what a client sees. A traced run adds an
//! in-process replay of the same request stream that times each layer
//! of the served path. See `README.md` beside this crate for the
//! metrics, the workloads and the reasons for both.

pub mod json;
pub mod metrics;
pub mod replay;
pub mod run;
pub mod stats;
pub mod trace;
pub mod wire;
pub mod workload;

use wire::Expected;
use workload::Generated;

/// Every query's expected answer, computed in-process the way the
/// one-shot CLI's serial path does: the algebra walker over the parsed
/// `.gdb`, rendered as `format!("{v}\n")`.
pub fn expected_outputs(gen: &Generated) -> Result<Expected, String> {
    let db = genpar_cli::dbfile::parse_db(&gen.gdb).map_err(|e| e.message)?;
    let mut expected = Expected::new();
    for req in &gen.requests {
        if expected.contains_key(&req.query) {
            continue;
        }
        let q = genpar_algebra::parse::parse_query(&req.query)
            .map_err(|e| format!("{}: {e}", req.query))?;
        let v = genpar_algebra::eval::eval(&q, &db).map_err(|e| format!("{}: {e}", req.query))?;
        expected.insert(req.query.clone(), format!("{v}\n"));
    }
    Ok(expected)
}
