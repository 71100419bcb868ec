//! Closed-loop load generator for `genpar bench-serve`.
//!
//! `clients` threads each hold one real TCP connection and drive it
//! closed-loop for `duration`: send a request, wait for the response,
//! record the latency, send the next. Queries cycle round-robin per
//! client (offset by client index so concurrent clients hit different
//! queries). Every `ok` response's `output` is compared byte-for-byte
//! against the expected one-shot CLI text supplied with the query —
//! the serve path must be indistinguishable from `genpar run` on the
//! wire. `overloaded` responses count as sheds and back off briefly;
//! `budget_exceeded` is counted separately (it is quota backpressure,
//! not an error).

use crate::protocol;
use genpar_obs::Json;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Load-run parameters.
pub struct BenchSpec {
    /// Server address, e.g. `127.0.0.1:7401`.
    pub addr: String,
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// How long each client keeps issuing requests.
    pub duration: Duration,
    /// Tenant names; client `i` drives tenant `i % tenants.len()`, so a
    /// multi-tenant run exercises the server's per-tenant roll-ups and
    /// the report can split latency distributions per tenant.
    pub tenants: Vec<String>,
    /// `(query, expected one-shot output)` pairs; each `ok` response is
    /// asserted byte-identical to the expectation.
    pub queries: Vec<(String, String)>,
}

/// Aggregated result of one load run.
#[derive(Debug, Default)]
pub struct BenchReport {
    /// Requests sent.
    pub offered: u64,
    /// `ok` responses.
    pub completed: u64,
    /// `overloaded` responses (admission-control sheds).
    pub shed: u64,
    /// `budget_exceeded` responses.
    pub budget_exceeded: u64,
    /// `error` responses plus transport failures.
    pub errors: u64,
    /// `ok` responses whose output differed from the one-shot CLI text.
    pub mismatches: u64,
    /// A sample mismatch, for diagnostics.
    pub first_mismatch: Option<String>,
    /// Latency of every `ok` response, microseconds, sorted ascending.
    pub latencies_us: Vec<u64>,
    /// Per-tenant splits of the same run (schema v2 `tenants` map).
    pub tenants: BTreeMap<String, TenantStats>,
    /// Wall time of the whole run.
    pub elapsed: Duration,
}

/// One tenant's slice of a load run.
#[derive(Debug, Default, Clone)]
pub struct TenantStats {
    /// Requests sent under this tenant.
    pub offered: u64,
    /// `ok` responses.
    pub completed: u64,
    /// `overloaded` responses.
    pub shed: u64,
    /// `budget_exceeded` responses.
    pub budget_exceeded: u64,
    /// `error` responses plus transport failures.
    pub errors: u64,
    /// Latencies of this tenant's `ok` responses, sorted ascending.
    pub latencies_us: Vec<u64>,
}

impl TenantStats {
    /// The `p`-th latency percentile for this tenant (0 when empty).
    pub fn percentile_us(&self, p: f64) -> u64 {
        percentile(&self.latencies_us, p)
    }
}

/// Nearest-rank percentile over an ascending-sorted slice.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p / 100.0) * (sorted.len() - 1) as f64;
    sorted[(rank.round() as usize).min(sorted.len() - 1)]
}

impl BenchReport {
    /// The `p`-th latency percentile (0–100) in microseconds; 0 when no
    /// request completed.
    pub fn percentile_us(&self, p: f64) -> u64 {
        percentile(&self.latencies_us, p)
    }

    /// Completed requests per second of wall time.
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.completed as f64 / secs
    }

    fn merge(&mut self, tenant: &str, other: BenchReport) {
        self.offered += other.offered;
        self.completed += other.completed;
        self.shed += other.shed;
        self.budget_exceeded += other.budget_exceeded;
        self.errors += other.errors;
        self.mismatches += other.mismatches;
        if self.first_mismatch.is_none() {
            self.first_mismatch = other.first_mismatch;
        }
        let t = self.tenants.entry(tenant.to_string()).or_default();
        t.offered += other.offered;
        t.completed += other.completed;
        t.shed += other.shed;
        t.budget_exceeded += other.budget_exceeded;
        t.errors += other.errors;
        t.latencies_us.extend(other.latencies_us.iter().copied());
        self.latencies_us.extend(other.latencies_us);
    }
}

/// Run the closed loop and aggregate across clients (flat totals plus
/// per-tenant splits).
pub fn run_bench(spec: &BenchSpec) -> Result<BenchReport, String> {
    if spec.queries.is_empty() {
        return Err("bench-serve: no queries to issue".to_string());
    }
    if spec.tenants.is_empty() {
        return Err("bench-serve: no tenants to drive".to_string());
    }
    let mut report = BenchReport::default();
    let t0 = Instant::now();
    std::thread::scope(|s| -> Result<(), String> {
        let mut handles = Vec::new();
        for client_idx in 0..spec.clients.max(1) {
            let tenant = spec.tenants[client_idx % spec.tenants.len()].as_str();
            handles.push((
                tenant,
                s.spawn(move || client_loop(spec, client_idx, tenant)),
            ));
        }
        for (tenant, h) in handles {
            let client_report = h
                .join()
                .map_err(|_| "bench-serve: client thread panicked".to_string())??;
            report.merge(tenant, client_report);
        }
        Ok(())
    })?;
    report.elapsed = t0.elapsed();
    report.latencies_us.sort_unstable();
    for t in report.tenants.values_mut() {
        t.latencies_us.sort_unstable();
    }
    Ok(report)
}

fn client_loop(spec: &BenchSpec, client_idx: usize, tenant: &str) -> Result<BenchReport, String> {
    let stream = TcpStream::connect(&spec.addr)
        .map_err(|e| format!("bench-serve: cannot connect to {}: {e}", spec.addr))?;
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| format!("bench-serve: cannot set read timeout: {e}"))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("bench-serve: cannot clone stream: {e}"))?;
    let mut reader = BufReader::new(stream);

    let mut report = BenchReport::default();
    let deadline = Instant::now() + spec.duration;
    let mut line = String::new();
    let mut i = client_idx; // offset so clients start on different queries
    while Instant::now() < deadline {
        let (query, expected) = &spec.queries[i % spec.queries.len()];
        i += 1;
        let request = Json::obj([
            ("op", Json::str("run")),
            ("query", Json::str(query.as_str())),
            ("tenant", Json::str(tenant)),
        ]);
        report.offered += 1;
        let sent = Instant::now();
        if protocol::write_line(&mut writer, &request).is_err() {
            report.errors += 1;
            break; // connection is gone; this client is done
        }
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => {
                report.errors += 1;
                break;
            }
            Ok(_) => {}
            Err(_) => {
                report.errors += 1;
                break;
            }
        }
        let latency_us = sent.elapsed().as_micros().min(u64::MAX as u128) as u64;
        let response = match Json::parse(line.trim()) {
            Ok(j) => j,
            Err(_) => {
                report.errors += 1;
                continue;
            }
        };
        match response.get("status").and_then(|v| v.as_str()) {
            Some("ok") => {
                report.completed += 1;
                report.latencies_us.push(latency_us);
                let output = response
                    .get("output")
                    .and_then(|v| v.as_str())
                    .unwrap_or("");
                if output != expected {
                    report.mismatches += 1;
                    if report.first_mismatch.is_none() {
                        report.first_mismatch = Some(format!(
                            "query {query:?}: serve output {output:?} != one-shot {expected:?}"
                        ));
                    }
                }
            }
            Some("overloaded") => {
                report.shed += 1;
                // shed means the queue was full: ease off briefly
                std::thread::sleep(Duration::from_millis(1));
            }
            Some("budget_exceeded") => report.budget_exceeded += 1,
            Some("shutting_down") => break,
            _ => report.errors += 1,
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_read_the_sorted_tail() {
        let r = BenchReport {
            completed: 100,
            latencies_us: (1..=100).collect(),
            elapsed: Duration::from_secs(2),
            ..BenchReport::default()
        };
        assert_eq!(r.percentile_us(50.0), 51);
        assert_eq!(r.percentile_us(95.0), 95);
        assert_eq!(r.percentile_us(99.0), 99);
        assert_eq!(r.percentile_us(100.0), 100);
        assert!((r.throughput_rps() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn empty_report_is_all_zeroes() {
        let r = BenchReport::default();
        assert_eq!(r.percentile_us(99.0), 0);
        assert_eq!(r.throughput_rps(), 0.0);
    }
}
