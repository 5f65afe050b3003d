//! The `latencyd` child process and the keep-alive HTTP client.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lt_core::json::{self, JsonValue};
use lt_service::http::{read_response, ParsedResponse};

/// Largest response body the client accepts.
const MAX_BODY: usize = 64 << 20;
/// How long the client waits for one answer before calling it failed.
const READ_TIMEOUT: Duration = Duration::from_secs(30);
/// How long set-up may take before the run fails.
const SETUP_LIMIT: Duration = Duration::from_secs(20);

/// Build `latencyd` (release) from the checkout in the current directory
/// and return the path of the binary.
pub fn build_latencyd() -> Result<PathBuf, String> {
    if !Path::new("crates/service/Cargo.toml").is_file() {
        return Err("run from the repository root: crates/service/Cargo.toml not found".into());
    }
    let out = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "-p",
            "lt-service",
            "--bin",
            "latencyd",
            "--message-format=json-render-diagnostics",
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("building latencyd failed ({})", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|line| json::parse(line).ok())
        .filter_map(|msg| msg.get("executable")?.as_str().map(PathBuf::from))
        .find(|p| p.file_name().is_some_and(|n| n == "latencyd"))
        .ok_or_else(|| "cargo reported no latencyd executable".into())
}

/// A running `latencyd`, killed and reaped on drop.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
    drain: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Spawn `latencyd` on `127.0.0.1:0` and wait until `/healthz`
    /// answers 200. Returns the daemon and the set-up time.
    pub fn start(bin: &Path, extra: &[String]) -> Result<(Daemon, Duration), String> {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let read = stderr.read_line(&mut line);
        // Keep draining so the daemon never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            let _ = io::copy(&mut stderr, &mut io::sink());
        });
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            drain: Some(drain),
        };
        read.map_err(|e| format!("reading latencyd's banner: {e}"))?;
        daemon.addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected latencyd banner: {line:?}"))?;
        loop {
            let healthy = Client::new(daemon.addr)
                .exchange(b"GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n")
                .is_ok_and(|r| r.status == 200);
            if healthy {
                return Ok((daemon, started.elapsed()));
            }
            if started.elapsed() > SETUP_LIMIT {
                return Err("latencyd did not become healthy".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn proc_file(&self, name: &str) -> Result<String, String> {
        let path = format!("/proc/{}/{name}", self.child.id());
        std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))
    }

    /// The daemon's user + system CPU time so far, in clock ticks.
    pub fn cpu_ticks(&self) -> Result<u64, String> {
        let stat = self.proc_file("stat")?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| -> Result<u64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse().ok())
                .ok_or_else(|| "malformed /proc stat".to_string())
        };
        Ok(tick(11)? + tick(12)?)
    }

    /// The daemon's peak resident set (`VmHWM`), in kB.
    pub fn rss_peak_kb(&self) -> Result<u64, String> {
        self.proc_file("status")?
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next()?.parse().ok())
            .ok_or_else(|| "no VmHWM in /proc status".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// The host's CPU time so far as `(total, stolen)` ticks over all CPUs,
/// from the first line of `/proc/stat`. Stolen time is time the
/// hypervisor ran something else while this machine wanted to run.
pub fn host_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((ticks.iter().sum(), *ticks.get(7)?))
}

/// One keep-alive connection, reopened after a transport error.
pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client { addr, conn: None }
    }

    /// Send one request and read its response.
    pub fn exchange(&mut self, request: &[u8]) -> Result<ParsedResponse, String> {
        let result = self.try_exchange(request);
        if result.is_err() {
            self.conn = None;
        }
        result
    }

    fn try_exchange(&mut self, request: &[u8]) -> Result<ParsedResponse, String> {
        if self.conn.is_none() {
            let s = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
            s.set_nodelay(true).map_err(|e| e.to_string())?;
            s.set_read_timeout(Some(READ_TIMEOUT))
                .map_err(|e| e.to_string())?;
            self.conn = Some(BufReader::new(s));
        }
        let conn = self.conn.as_mut().expect("connected above");
        conn.get_mut()
            .write_all(request)
            .map_err(|e| format!("write: {e}"))?;
        let resp = read_response(conn, MAX_BODY).map_err(|e| format!("read: {e:?}"))?;
        if resp
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
        {
            self.conn = None;
        }
        Ok(resp)
    }
}

/// Parse a JSON response body.
pub fn body_json(body: &[u8]) -> Option<JsonValue> {
    json::parse(std::str::from_utf8(body).ok()?).ok()
}

/// A counter from a `/metrics` document by its path, e.g. `["cache", "hits"]`.
pub fn counter(doc: &JsonValue, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(doc, |v, k| v.get(k))
        .and_then(JsonValue::as_f64)
        .unwrap_or(f64::NAN)
}

/// Requests counted over every endpoint of a `/metrics` document.
pub fn requests_counted(doc: &JsonValue) -> f64 {
    doc.get("endpoints")
        .and_then(JsonValue::as_object)
        .map(|eps| {
            eps.iter()
                .filter_map(|(_, e)| e.get("requests")?.as_f64())
                .sum()
        })
        .unwrap_or(f64::NAN)
}
