//! The served side: spawning `genpar serve`, driving it closed-loop over
//! real sockets, and reading its counters and memory.
//!
//! The client is the benchmark's own (not `genpar_serve::loadgen`), so a
//! change to the serve crate cannot move the yardstick it is judged by.

use crate::json::{quote, Json};
use crate::workload::Request;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a spawned server may take to print its readiness line.
const READY_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a drained server may take to exit before it is killed.
const EXIT_TIMEOUT: Duration = Duration::from_secs(20);
/// A reply slower than this is a transport failure.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);
/// Stderr lines kept for diagnostics.
const STDERR_TAIL: usize = 20;

/// A running `genpar serve` child. Dropping it kills the process and
/// waits for it, so no error path leaves a server behind.
pub struct Server {
    child: Child,
    /// `127.0.0.1:PORT` from the readiness line.
    pub addr: String,
    /// From spawn to reading the `listening on` line.
    pub setup: Duration,
    stderr: Option<JoinHandle<Vec<String>>>,
    exited: bool,
}

/// Names of the environment variables removed from the server's
/// environment: every `GENPAR_*`, so ambient settings cannot change
/// what is measured.
pub fn scrubbed_env_vars() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("GENPAR_"))
        .collect()
}

/// The address in a `genpar serve: listening on ADDR (...)` line.
fn ready_addr(line: &str) -> Option<String> {
    let rest = line.split("listening on ").nth(1)?;
    rest.split_whitespace().next().map(str::to_string)
}

impl Server {
    /// Spawn `bin args...` with `GENPAR_*` removed and wait for its
    /// readiness line on the piped stderr.
    pub fn spawn(bin: &Path, args: &[String]) -> Result<Server, String> {
        let mut cmd = Command::new(bin);
        cmd.args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        for k in scrubbed_env_vars() {
            cmd.env_remove(k);
        }
        let t0 = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let Some(stderr) = child.stderr.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("server stderr was not piped".to_string());
        };
        let (tx, rx) = mpsc::channel();
        // the reader timestamps the readiness line as it arrives, then
        // keeps draining so the server never blocks on a full pipe
        let reader = std::thread::spawn(move || {
            let mut tail = Vec::new();
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = ready_addr(&line) {
                    let _ = tx.send((Instant::now(), addr));
                }
                if tail.len() == STDERR_TAIL {
                    tail.remove(0);
                }
                tail.push(line);
            }
            tail
        });
        let mut server = Server {
            child,
            addr: String::new(),
            setup: Duration::ZERO,
            stderr: Some(reader),
            exited: false,
        };
        match rx.recv_timeout(READY_TIMEOUT) {
            Ok((at, addr)) => {
                server.addr = addr;
                server.setup = at.duration_since(t0);
                Ok(server)
            }
            Err(_) => {
                let tail = server.kill_and_wait();
                Err(format!(
                    "server did not print its readiness line; stderr: {}",
                    tail.join(" | ")
                ))
            }
        }
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().strip_suffix("kB"))
            .and_then(|kb| kb.trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM line in {path}"))
    }

    /// Drain the server through the `shutdown` op and wait for it to
    /// exit 0; kill it if it does not.
    pub fn shutdown(mut self) -> Result<(), String> {
        let sent = request(&self.addr, "{\"op\":\"shutdown\"}");
        let deadline = Instant::now() + EXIT_TIMEOUT;
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => break None,
            }
        };
        let tail = self.kill_and_wait();
        sent?;
        match status {
            Some(s) if s.success() => Ok(()),
            Some(s) => Err(format!(
                "server exited with {s}; stderr: {}",
                tail.join(" | ")
            )),
            None => Err("server did not exit after shutdown; killed".to_string()),
        }
    }

    fn kill_and_wait(&mut self) -> Vec<String> {
        if !self.exited {
            let _ = self.child.kill();
            let _ = self.child.wait();
            self.exited = true;
        }
        self.stderr
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill_and_wait();
    }
}

/// Send one line on a fresh connection and return the response line.
pub fn request(addr: &str, line: &str) -> Result<String, String> {
    let mut conn = Conn::open(addr)?;
    conn.exchange(line).map(|r| r.line)
}

/// `degrade_steps` and `shed` from the server's `stats` op.
pub fn server_counters(addr: &str) -> Result<(f64, f64), String> {
    let line = request(addr, "{\"op\":\"stats\"}")?;
    let j = Json::parse(&line).map_err(|e| format!("stats response: {e}"))?;
    let field = |k: &str| {
        j.get(k)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("stats response lacks {k}: {line}"))
    };
    Ok((field("degrade_steps")?, field("shed")?))
}

struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// One response as the client saw it.
struct Reply {
    line: String,
    first_byte: Duration,
    last_byte: Duration,
    bytes: usize,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(REPLY_TIMEOUT)))
            .map_err(|e| format!("cannot configure the socket: {e}"))?;
        Ok(Conn {
            stream,
            buf: vec![0; 64 * 1024],
        })
    }

    /// Write `line` and read one response line, timing the first and the
    /// last byte from the start of the write.
    fn exchange(&mut self, line: &str) -> Result<Reply, String> {
        let sent = Instant::now();
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        self.stream
            .write_all(&framed)
            .map_err(|e| format!("write failed: {e}"))?;
        let mut response = Vec::new();
        let mut first_byte = None;
        loop {
            let n = self
                .stream
                .read(&mut self.buf)
                .map_err(|e| format!("read failed: {e}"))?;
            if n == 0 {
                return Err("server closed the connection".to_string());
            }
            first_byte.get_or_insert_with(|| sent.elapsed());
            response.extend_from_slice(&self.buf[..n]);
            if self.buf[..n].contains(&b'\n') {
                break;
            }
        }
        let last_byte = sent.elapsed();
        let bytes = response.len();
        let text = String::from_utf8(response).map_err(|_| "response is not UTF-8".to_string())?;
        Ok(Reply {
            line: text.trim_end().to_string(),
            first_byte: first_byte.unwrap_or(last_byte),
            last_byte,
            bytes,
        })
    }
}

/// Expected answers of the `run` queries, keyed by query text.
pub type Expected = BTreeMap<String, String>;

/// Check one `run` answer: it must equal the expected text byte for
/// byte.
pub fn check_output(query: &str, output: &str, expected: &Expected) -> Result<(), String> {
    if expected.get(query).is_some_and(|e| e == output) {
        Ok(())
    } else {
        Err(format!(
            "{query}: unexpected output {:?}",
            output.chars().take(200).collect::<String>()
        ))
    }
}

fn check_response(req: &Request, line: &str, expected: &Expected) -> Result<f64, String> {
    let j = Json::parse(line).map_err(|e| format!("{}: bad response: {e}", req.query))?;
    let status = j.get("status").and_then(Json::as_str).unwrap_or("?");
    if status != "ok" {
        return Err(format!("{}: status {status}: {line}", req.query));
    }
    let output = j.get("output").and_then(Json::as_str).unwrap_or_default();
    check_output(&req.query, output, expected)?;
    j.get("elapsed_us")
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{}: no elapsed_us", req.query))
}

/// One correct `ok` response inside the measured window.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index into the request stream.
    pub request: usize,
    /// When the request was sent, from the window's start.
    pub sent: Duration,
    /// Write start to last response byte, µs.
    pub latency_us: f64,
    /// Write start to first response byte, µs.
    pub first_byte_us: f64,
    /// The server's `elapsed_us`: time in the query handler.
    pub handler_us: f64,
    /// Response bytes including the newline.
    pub bytes: usize,
}

/// What a measured window produced.
#[derive(Debug, Default)]
pub struct Window {
    /// Correct `ok` responses to requests sent inside the window.
    pub samples: Vec<Sample>,
    /// Requests sent inside the window.
    pub offered: u64,
    /// Requests sent in the warm-up and the window; every one is checked.
    pub checked: u64,
    /// Checked requests that failed: a non-`ok` status, a wrong answer
    /// or a transport failure.
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
    /// From the window's start to the last response of a request sent
    /// inside it.
    pub wall: Duration,
}

/// Drive one closed-loop connection through `requests`, in order and
/// round and round, for `warmup`, which is discarded, then for `window`,
/// which is measured.
pub fn drive(
    addr: &str,
    requests: &[Request],
    expected: &Expected,
    warmup: Duration,
    window: Duration,
) -> Result<Window, String> {
    if requests.is_empty() {
        return Err("no requests to send".to_string());
    }
    let lines: Vec<String> = requests.iter().map(Request::line).collect();
    let measure_from = Instant::now() + warmup;
    let stop_at = measure_from + window;
    let mut w = Window::default();
    let mut last = measure_from;
    let mut conn = Conn::open(addr)?;
    let mut i = 0;
    loop {
        let sent = Instant::now();
        if sent >= stop_at {
            break;
        }
        let in_window = sent >= measure_from;
        let idx = i % requests.len();
        i += 1;
        let req = &requests[idx];
        w.checked += 1;
        if in_window {
            w.offered += 1;
        }
        let reply = match conn.exchange(&lines[idx]) {
            Ok(r) => r,
            Err(e) => {
                // the connection is unusable; the window ends here
                w.failed += 1;
                w.failures.push(format!("{}: {e}", req.query));
                break;
            }
        };
        match check_response(req, &reply.line, expected) {
            Ok(handler_us) if in_window => {
                last = last.max(sent + reply.last_byte);
                w.samples.push(Sample {
                    request: idx,
                    sent: sent.duration_since(measure_from),
                    latency_us: reply.last_byte.as_secs_f64() * 1e6,
                    first_byte_us: reply.first_byte.as_secs_f64() * 1e6,
                    handler_us,
                    bytes: reply.bytes,
                });
            }
            Ok(_) => {}
            Err(e) => {
                w.failed += 1;
                if w.failures.len() < 5 {
                    w.failures.push(e);
                }
            }
        }
    }
    w.wall = last.duration_since(measure_from);
    Ok(w)
}

/// A command line as a shell would show it, for the report.
pub fn command_line(bin: &Path, args: &[String]) -> String {
    std::iter::once(bin.display().to_string())
        .chain(args.iter().map(|a| {
            if a.chars()
                .all(|c| c.is_ascii_alphanumeric() || "-_./:".contains(c))
            {
                a.clone()
            } else {
                quote(a)
            }
        }))
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readiness_line_names_the_address() {
        assert_eq!(
            ready_addr(
                "genpar serve: listening on 127.0.0.1:4321 (2 worker slots, 4 in-flight, queue 16)"
            ),
            Some("127.0.0.1:4321".to_string())
        );
        assert_eq!(ready_addr("genpar serve: warning: x"), None);
    }

    #[test]
    fn answers_are_compared_byte_for_byte() {
        let mut expected = Expected::new();
        expected.insert("count(R)".into(), "3\n".into());
        assert!(check_output("count(R)", "3\n", &expected).is_ok());
        assert!(check_output("count(R)", "3", &expected).is_err());
        assert!(check_output("sum[$2](R)", "3\n", &expected).is_err());
    }
}
