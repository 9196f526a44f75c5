//! The live telemetry plane behind `dgl serve`: shared counters, the
//! streaming metrics documents, a hand-rolled HTTP metrics listener,
//! and post-mortem artifact plumbing.
//!
//! Everything here is host-side observability — it reads simulator
//! outputs and never feeds anything back in, so simulated results stay
//! byte-identical with telemetry on or off. The wire formats:
//!
//! * `dgl-serve-metrics` v1 — one JSON line per tick on the serve
//!   output stream (`--metrics-interval`), carrying a full snapshot
//!   under `host` and the change since the previous tick under
//!   `delta`, both in the registry's JSON encoding;
//! * `GET /metrics` on `--metrics-listen` — the same snapshot in the
//!   Prometheus text exposition; `/metrics.json` and `/metrics/delta`
//!   serve the JSON forms. Both encodings are views of one snapshot,
//!   so every counter value agrees between them.

use crate::ckptstore::CheckpointStore;
use dgl_stats::{log, prom, Histogram, Json, MetricsRegistry};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Longest request line or header line the metrics listener reads, in
/// bytes; a longer one is answered `414` / `431` without reading on.
const MAX_HTTP_LINE: usize = 8 * 1024;
/// Most header lines the metrics listener reads before answering `431`.
const MAX_HTTP_HEADERS: usize = 64;
/// Most unread request bytes drained after an error status.
const LINGER_BYTES: u64 = 64 * 1024;
/// How long one metrics connection may take to send its request and
/// accept the response. The listener serves connections one at a time,
/// so this bounds how long one peer can delay every later scrape.
const HTTP_DEADLINE: Duration = Duration::from_secs(2);

/// Schema identifier of a streaming metrics line.
pub const SERVE_METRICS_SCHEMA: &str = "dgl-serve-metrics";
/// Streaming metrics schema version.
pub const SERVE_METRICS_VERSION: u64 = 1;

/// Live counters for a serve process, shared by every connection, the
/// stdout metrics ticker, and the HTTP metrics listener. Cheap atomics
/// on the job path; registries are materialized only when a consumer
/// asks for a snapshot.
#[derive(Debug)]
pub struct ServeTelemetry {
    start: Instant,
    accepted: AtomicU64,
    started: AtomicU64,
    finished: AtomicU64,
    jobs_done: AtomicU64,
    errors: AtomicU64,
    queue_us: Mutex<Histogram>,
    /// Most recent per-worker throughput, kilo-instructions per second.
    worker_kips: Mutex<Vec<f64>>,
    /// Previous snapshot for the stdout ticker's `delta` field.
    prev: Mutex<MetricsRegistry>,
}

impl Default for ServeTelemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeTelemetry {
    /// Fresh telemetry; `t_us` on metric lines counts from here.
    pub fn new() -> Self {
        Self {
            start: Instant::now(),
            accepted: AtomicU64::new(0),
            started: AtomicU64::new(0),
            finished: AtomicU64::new(0),
            jobs_done: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            queue_us: Mutex::new(Histogram::new()),
            worker_kips: Mutex::new(Vec::new()),
            prev: Mutex::new(MetricsRegistry::new()),
        }
    }

    /// Microseconds since construction.
    pub fn t_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// A job line was accepted into the queue.
    pub fn job_accepted(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// A worker picked a job up after `queue_us` in the queue.
    pub fn job_started(&self, queue_us: u64) {
        self.started.fetch_add(1, Ordering::Relaxed);
        self.queue_us
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .record(queue_us);
    }

    /// A job finished; `ok` says whether it produced a manifest.
    pub fn job_finished(&self, ok: bool) {
        self.finished.fetch_add(1, Ordering::Relaxed);
        if ok {
            self.jobs_done.fetch_add(1, Ordering::Relaxed);
        } else {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A non-job error (malformed line) was answered.
    pub fn line_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Latest observed throughput for `worker`.
    pub fn set_worker_kips(&self, worker: usize, kips: f64) {
        let mut v = self.worker_kips.lock().unwrap_or_else(|e| e.into_inner());
        if v.len() <= worker {
            v.resize(worker + 1, 0.0);
        }
        v[worker] = kips;
    }

    /// Completed-job count so far.
    pub fn jobs(&self) -> u64 {
        self.jobs_done.load(Ordering::Relaxed)
    }

    /// Error count so far (failed jobs + malformed lines).
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Accepted minus picked-up: jobs sitting in the bounded queue.
    pub fn queue_depth(&self) -> u64 {
        self.accepted
            .load(Ordering::Relaxed)
            .saturating_sub(self.started.load(Ordering::Relaxed))
    }

    /// Picked-up minus finished: jobs currently simulating.
    pub fn in_flight(&self) -> u64 {
        self.started
            .load(Ordering::Relaxed)
            .saturating_sub(self.finished.load(Ordering::Relaxed))
    }

    /// A copy of the queue-latency histogram.
    pub fn queue_histogram(&self) -> Histogram {
        self.queue_us
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Materializes the full metrics snapshot: the checkpoint store's
    /// counters plus serve's own job totals, queue/in-flight gauges,
    /// queue-latency histogram, and per-worker KIPS gauges.
    pub fn snapshot(&self, store: &CheckpointStore) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        store.publish(&mut reg);
        reg.counter("serve.jobs", self.jobs());
        reg.counter("serve.errors", self.errors());
        reg.gauge("serve.queue_depth", self.queue_depth() as f64);
        reg.gauge("serve.inflight", self.in_flight() as f64);
        reg.histogram("serve.queue_us", self.queue_histogram());
        let kips = self.worker_kips.lock().unwrap_or_else(|e| e.into_inner());
        for (i, v) in kips.iter().enumerate() {
            reg.gauge(&format!("serve.worker.{i}.kips"), *v);
        }
        reg
    }

    /// One `dgl-serve-metrics` v1 line: `host` is the full snapshot,
    /// `delta` the change since this method's previous call.
    pub fn metrics_doc(&self, store: &CheckpointStore) -> Json {
        let snap = self.snapshot(store);
        let delta = {
            let mut prev = self.prev.lock().unwrap_or_else(|e| e.into_inner());
            let delta = snap.delta(&prev);
            *prev = snap.clone();
            delta
        };
        Json::object()
            .field("schema", Json::str(SERVE_METRICS_SCHEMA))
            .field("version", Json::uint(SERVE_METRICS_VERSION))
            .field("t_us", Json::uint(self.t_us()))
            .field("host", snap.to_json())
            .field("delta", delta.to_json())
    }
}

/// Binds `addr` and serves metrics over HTTP/1.0 on a detached thread
/// for the life of the process. Routes:
///
/// * `GET /metrics` — Prometheus text exposition of the snapshot,
/// * `GET /metrics.json` — the registry's JSON encoding,
/// * `GET /metrics/delta` — JSON delta since the previous `/delta`
///   request (independent of the stdout ticker's delta baseline).
///
/// Returns the bound address (so `--metrics-listen 127.0.0.1:0` can
/// report its ephemeral port).
///
/// Requests are bounded: 8 KiB per line, 64 headers, and 2 s per
/// connection. A peer that breaks a bound gets an error status (or,
/// past the deadline, a closed connection) and the next connection is
/// served.
///
/// # Errors
///
/// Propagates the bind error; per-connection errors are logged and
/// dropped.
pub fn spawn_metrics_listener(
    addr: &str,
    store: Arc<CheckpointStore>,
    telemetry: Arc<ServeTelemetry>,
) -> std::io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    std::thread::spawn(move || {
        let mut prev = MetricsRegistry::new();
        for conn in listener.incoming() {
            let stream = match conn {
                Ok(s) => s,
                Err(e) => {
                    log::warn(
                        "metrics",
                        "accept failed",
                        &[("error", Json::str(e.to_string()))],
                    );
                    continue;
                }
            };
            if let Err(e) = answer_metrics_request(stream, &store, &telemetry, &mut prev) {
                log::warn(
                    "metrics",
                    "request failed",
                    &[("error", Json::str(e.to_string()))],
                );
            }
        }
    });
    Ok(bound)
}

/// A connection's read half that fails with `TimedOut` once `until`
/// passes, however slowly the peer trickles bytes in.
struct DeadlineReader {
    stream: TcpStream,
    until: Instant,
}

impl Read for DeadlineReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.until.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

/// Reads one line of at most `MAX_HTTP_LINE` bytes plus its newline;
/// `None` when it is longer (the rest stays unread). A line cut short
/// by end of input is returned as it is.
fn read_http_line(reader: &mut impl BufRead) -> std::io::Result<Option<String>> {
    let mut buf = Vec::new();
    reader
        .take(MAX_HTTP_LINE as u64 + 1)
        .read_until(b'\n', &mut buf)?;
    if buf.len() > MAX_HTTP_LINE && buf.last() != Some(&b'\n') {
        return Ok(None);
    }
    Ok(Some(String::from_utf8_lossy(&buf).into_owned()))
}

/// The path of a bounded `GET` request, or the error status to answer.
fn read_request_path(reader: &mut impl BufRead) -> std::io::Result<Result<String, &'static str>> {
    let Some(request_line) = read_http_line(reader)? else {
        return Ok(Err("414 URI Too Long"));
    };
    // Drain headers; HTTP/1.0, no bodies on GET.
    let mut headers = 0;
    loop {
        match read_http_line(reader)? {
            None => return Ok(Err("431 Request Header Fields Too Large")),
            Some(line) if line.trim().is_empty() => break,
            Some(_) if headers == MAX_HTTP_HEADERS => {
                return Ok(Err("431 Request Header Fields Too Large"))
            }
            Some(_) => headers += 1,
        }
    }
    let path = request_line.split_whitespace().nth(1).unwrap_or("");
    Ok(Ok(path.to_owned()))
}

fn answer_metrics_request(
    stream: TcpStream,
    store: &CheckpointStore,
    telemetry: &ServeTelemetry,
    prev: &mut MetricsRegistry,
) -> std::io::Result<()> {
    let until = Instant::now() + HTTP_DEADLINE;
    stream.set_write_timeout(Some(HTTP_DEADLINE))?;
    let mut reader = BufReader::new(DeadlineReader {
        stream: stream.try_clone()?,
        until,
    });
    let request = read_request_path(&mut reader)?;
    let (status, content_type, body) = match request.as_deref() {
        Err(&status) => (
            status,
            "text/plain; charset=utf-8",
            format!("request over {MAX_HTTP_LINE} bytes per line or {MAX_HTTP_HEADERS} headers\n"),
        ),
        Ok("/metrics") => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            prom::to_prometheus(&telemetry.snapshot(store)),
        ),
        Ok("/metrics.json") => (
            "200 OK",
            "application/json",
            telemetry.snapshot(store).to_json().to_string_pretty(),
        ),
        Ok("/metrics/delta") => {
            let snap = telemetry.snapshot(store);
            let delta = snap.delta(prev);
            *prev = snap;
            (
                "200 OK",
                "application/json",
                delta.to_json().to_string_pretty(),
            )
        }
        Ok(_) => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "try /metrics, /metrics.json, or /metrics/delta\n".to_owned(),
        ),
    };
    let mut stream = stream;
    write!(
        stream,
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;
    if request.is_err() {
        // Closing with request bytes unread resets the connection,
        // which can discard the error status before the peer reads it.
        // Drain a bounded amount first; the deadline still applies.
        stream.shutdown(Shutdown::Write)?;
        let _ = std::io::copy(&mut reader.take(LINGER_BYTES), &mut std::io::sink());
    }
    Ok(())
}

/// Writes a post-mortem artifact as `<dir>/<id>.postmortem.jsonl`
/// (creating `dir` if needed) and returns the path.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_postmortem(dir: &Path, id: &str, text: &str) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{id}.postmortem.jsonl"));
    std::fs::write(&path, text)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauges_track_the_job_lifecycle() {
        let t = ServeTelemetry::new();
        t.job_accepted();
        t.job_accepted();
        assert_eq!(t.queue_depth(), 2);
        t.job_started(120);
        assert_eq!(t.queue_depth(), 1);
        assert_eq!(t.in_flight(), 1);
        t.job_finished(true);
        t.job_started(40);
        t.job_finished(false);
        t.line_error();
        assert_eq!(t.in_flight(), 0);
        assert_eq!(t.jobs(), 1);
        assert_eq!(t.errors(), 2);
        assert_eq!(t.queue_histogram().count(), 2);
    }

    #[test]
    fn snapshot_and_metrics_doc_cover_every_series() {
        let t = ServeTelemetry::new();
        let store = CheckpointStore::new(4);
        t.job_accepted();
        t.job_started(10);
        t.job_finished(true);
        t.set_worker_kips(1, 512.0);
        let reg = t.snapshot(&store);
        assert_eq!(reg.counter_value("serve.jobs"), Some(1));
        assert_eq!(reg.counter_value("ckptstore.hits"), Some(0));
        assert!(reg.get("serve.worker.0.kips").is_some(), "padded to len");
        assert!(reg.get("serve.worker.1.kips").is_some());
        let doc = t.metrics_doc(&store);
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(SERVE_METRICS_SCHEMA)
        );
        let line = doc.to_string();
        Json::parse(&line).expect("metrics line parses strictly");
        // Second tick: the delta for an unchanged counter is zero.
        let doc2 = t.metrics_doc(&store);
        let delta_jobs = doc2
            .get("delta")
            .and_then(|d| d.get("serve.jobs"))
            .and_then(Json::as_u64);
        assert_eq!(delta_jobs, Some(0));
    }

    #[test]
    fn listener_serves_both_encodings_and_404s() {
        use std::io::Read as _;
        let t = Arc::new(ServeTelemetry::new());
        let store = Arc::new(CheckpointStore::new(4));
        t.job_accepted();
        t.job_started(5);
        t.job_finished(true);
        let addr =
            spawn_metrics_listener("127.0.0.1:0", Arc::clone(&store), Arc::clone(&t)).unwrap();
        let fetch = |path: &str| -> (String, String) {
            let mut s = std::net::TcpStream::connect(addr).unwrap();
            write!(s, "GET {path} HTTP/1.0\r\nHost: x\r\n\r\n").unwrap();
            let mut text = String::new();
            s.read_to_string(&mut text).unwrap();
            let (head, body) = text.split_once("\r\n\r\n").unwrap();
            (head.to_owned(), body.to_owned())
        };
        let (head, body) = fetch("/metrics");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        assert!(body.contains("# TYPE serve_jobs counter\nserve_jobs 1\n"));
        let (_, body) = fetch("/metrics.json");
        let doc = Json::parse(body.trim_end()).expect("json endpoint parses");
        assert_eq!(doc.get("serve.jobs").and_then(Json::as_u64), Some(1));
        // The two encodings agree on every counter.
        let (_, prom_body) = fetch("/metrics");
        for (name, value) in prom::parse_counters(&prom_body) {
            let json_value = doc
                .entries()
                .unwrap()
                .iter()
                .find(|(k, _)| prom::sanitize_name(k) == name)
                .and_then(|(_, v)| v.as_u64());
            assert_eq!(json_value, Some(value), "{name}");
        }
        let (_, delta1) = fetch("/metrics/delta");
        assert!(Json::parse(delta1.trim_end()).is_ok());
        t.job_accepted();
        t.job_started(9);
        t.job_finished(true);
        let (_, delta2) = fetch("/metrics/delta");
        let d = Json::parse(delta2.trim_end()).unwrap();
        assert_eq!(d.get("serve.jobs").and_then(Json::as_u64), Some(1));
        let (head, _) = fetch("/nope");
        assert!(head.starts_with("HTTP/1.0 404"), "{head}");
    }

    /// `GET path` on a fresh connection: the status line and the body.
    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "GET {path} HTTP/1.0\r\nHost: x\r\n\r\n").unwrap();
        let mut text = String::new();
        s.read_to_string(&mut text).unwrap();
        let (head, body) = text.split_once("\r\n\r\n").unwrap();
        (head.lines().next().unwrap().to_owned(), body.to_owned())
    }

    fn listener() -> SocketAddr {
        let t = Arc::new(ServeTelemetry::new());
        let store = Arc::new(CheckpointStore::new(4));
        spawn_metrics_listener("127.0.0.1:0", store, t).unwrap()
    }

    #[test]
    fn an_endless_line_is_refused_and_the_next_scrape_is_served() {
        let addr = listener();
        // One MiB with no newline, from a peer that keeps the
        // connection open: the listener stops after one capped line.
        let mut hostile = TcpStream::connect(addr).unwrap();
        let flood = std::thread::spawn(move || {
            let _ = hostile.write_all(&vec![b'a'; 1 << 20]);
            hostile
        });
        let started = Instant::now();
        let (status, body) = get(addr, "/metrics");
        assert_eq!(status, "HTTP/1.0 200 OK");
        assert!(body.contains("serve_jobs"), "{body}");
        assert!(
            started.elapsed() < HTTP_DEADLINE,
            "served without waiting out the deadline"
        );
        drop(flood.join());
    }

    #[test]
    fn oversized_requests_get_an_error_status() {
        let addr = listener();
        let (status, _) = get(addr, &"x".repeat(MAX_HTTP_LINE));
        assert_eq!(status, "HTTP/1.0 414 URI Too Long");
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"GET /metrics HTTP/1.0\r\n").unwrap();
        for i in 0..=MAX_HTTP_HEADERS {
            write!(s, "X-{i}: y\r\n").unwrap();
        }
        let mut text = String::new();
        s.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.0 431"), "{text}");
        // A request line of exactly the cap (CRLF aside) is served.
        let (status, _) = get(addr, &format!("/{}", "x".repeat(MAX_HTTP_LINE - 15)));
        assert_eq!(status, "HTTP/1.0 404 Not Found");
    }

    #[test]
    fn a_silent_peer_delays_the_next_scrape_by_at_most_the_deadline() {
        let addr = listener();
        let _silent = TcpStream::connect(addr).unwrap();
        let started = Instant::now();
        let (status, _) = get(addr, "/metrics");
        assert_eq!(status, "HTTP/1.0 200 OK");
        assert!(started.elapsed() < HTTP_DEADLINE * 2);
    }

    #[test]
    fn postmortem_writer_names_the_artifact_after_the_job() {
        let dir = std::env::temp_dir().join(format!("dgl-pm-test-{}", std::process::id()));
        let path = write_postmortem(&dir, "j1", "{\"schema\":\"dgl-postmortem\"}\n").unwrap();
        assert!(path.ends_with("j1.postmortem.jsonl"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("dgl-postmortem"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
