//! `dgl serve`: a batch simulation service over JSON-lines.
//!
//! The service reads one job per line (`dgl-serve-job` v1), schedules
//! jobs on a bounded worker pool — the bounded queue gives natural
//! backpressure: the reader blocks instead of buffering an unbounded
//! batch — and streams back one result per completed job
//! (`dgl-serve-result` v1) in completion order. All workers share one
//! [`CheckpointStore`], so a sweep over the same workload windows
//! fast-forwards once and every later job starts from stored
//! snapshots.
//!
//! ## Protocol
//!
//! A job line (unknown keys are rejected by the strict parser; every
//! field except `workload` is optional):
//!
//! ```json
//! {"schema":"dgl-serve-job","version":1,"id":"j1","workload":"hmmer_like",
//!  "insts":12000,"scheme":"dom","ap":true,"vp":false,
//!  "sample":{"interval":3000,"warmup":800,"window":400,"max_windows":256,"threads":1}}
//! ```
//!
//! A result line wraps the **byte-identical** manifest the one-shot
//! CLI would have produced (`dgl run ... --stats-json`) in a `host`
//! envelope carrying queue/run wall times — host-side quantities stay
//! outside the manifest so the manifest remains a pure function of the
//! simulated run:
//!
//! ```json
//! {"schema":"dgl-serve-result","version":1,"id":"j1","ok":true,
//!  "host":{"queue_us":12,"run_us":90210},"manifest":{...}}
//! ```
//!
//! A failed job reports `"ok":false` and an `error` string instead of
//! a manifest; a malformed line — including one that is not UTF-8 or
//! is longer than [`MAX_LINE_BYTES`], or asks for more than
//! [`MAX_JOB_INSTS`] instructions — gets an error result echoing its
//! line number, and serving continues with the next line. The control
//! line `{"control":"stats"}` (and the `--stats` flag, at end of
//! input) emits a `dgl-serve-stats` v1 document whose counters all
//! live under a top-level `host` object, so `dgl compare` treats them
//! as report-only — never gating.

use crate::ckptstore::CheckpointStore;
use crate::experiments::{panic_message, ConfigId};
use crate::sampling::SamplingConfig;
use crate::telemetry::{write_postmortem, ServeTelemetry};
use crate::SimBuilder;
use dgl_stats::span::spans_to_json;
use dgl_stats::{log, Histogram, Json, MetricsRegistry, SpanCollector};
use dgl_trace::SharedFlightRecorder;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// Schema identifier of a job line.
pub const SERVE_JOB_SCHEMA: &str = "dgl-serve-job";
/// Schema identifier of a result line.
pub const SERVE_RESULT_SCHEMA: &str = "dgl-serve-result";
/// Schema identifier of a stats document.
pub const SERVE_STATS_SCHEMA: &str = "dgl-serve-stats";
/// Current protocol version (job, result, and stats schemas move
/// together).
pub const SERVE_VERSION: u64 = 1;

/// Longest job line `serve` reads, in bytes, newline excluded. A
/// longer line is answered with one error result and skipped to its
/// newline without ever being buffered whole.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Largest `insts` budget a job may ask for. A job above it is refused
/// at parse time, so one line cannot keep a worker busy for hours.
pub const MAX_JOB_INSTS: u64 = 100_000_000;

/// Service configuration (CLI flags).
pub struct ServeOptions {
    /// Worker threads simulating jobs.
    pub workers: usize,
    /// Bounded job-queue depth (backpressure threshold).
    pub queue: usize,
    /// When set, each completed job's manifest is also written to
    /// `<dir>/<id>.json`, byte-identical to `dgl run --stats-json`.
    pub manifest_dir: Option<PathBuf>,
    /// Emit a `dgl-serve-stats` document after the input is drained.
    pub stats: bool,
    /// Emit a `dgl-serve-metrics` snapshot+delta line on the output
    /// stream every this-many milliseconds (plus a final flush at
    /// shutdown). `None` keeps the output stream results-only.
    pub metrics_interval_ms: Option<u64>,
    /// Capacity of a failed job's post-mortem ring: serve replays the
    /// job with a flight recorder of this many events attached and
    /// dumps its tail. A job that succeeds records no trace. `0`
    /// writes no post-mortem.
    pub flight_recorder: usize,
    /// Where post-mortem artifacts for failed jobs are written
    /// (falls back to `manifest_dir`; with neither set, failures are
    /// logged but no artifact is produced).
    pub postmortem_dir: Option<PathBuf>,
    /// Write each job's span timings to `<manifest_dir>/<id>.spans.json`
    /// (requires `manifest_dir`); `dgl explain --spans` renders them.
    pub spans: bool,
    /// Honour a job's test-only `fault` field. Off by default: a job
    /// carrying one gets an error result and is not run.
    pub allow_fault_injection: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            workers: 2,
            queue: 4,
            manifest_dir: None,
            stats: false,
            metrics_interval_ms: None,
            flight_recorder: 256,
            postmortem_dir: None,
            spans: false,
            allow_fault_injection: false,
        }
    }
}

/// What a completed `serve` session did (exit reporting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Jobs that completed with a manifest.
    pub jobs: u64,
    /// Jobs or lines that produced an error result.
    pub errors: u64,
}

/// One parsed simulation job.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Caller-chosen identifier echoed into the result line (defaults
    /// to `job-<line index>`).
    pub id: String,
    /// Workload name (see `dgl suite`).
    pub workload: String,
    /// Instruction budget, as `dgl run --insts`.
    pub insts: u64,
    /// Secure-speculation scheme.
    pub scheme: dgl_core::SchemeKind,
    /// Doppelganger address prediction.
    pub ap: bool,
    /// Value prediction.
    pub vp: bool,
    /// Sampled-mode parameters; `None` runs the whole program in
    /// detail.
    pub sample: Option<SamplingConfig>,
    /// Fault injection for telemetry tests: `"panic"` panics the worker
    /// *after* the simulation finishes, so the post-mortem's replay
    /// records a full event tail before it fails the same way. `None` (the
    /// only production value) runs normally. `serve` refuses a job
    /// with a fault unless [`ServeOptions::allow_fault_injection`] is
    /// set.
    pub fault: Option<String>,
}

fn as_bool(node: &Json) -> Option<bool> {
    match node {
        Json::Bool(b) => Some(*b),
        _ => None,
    }
}

fn opt_u64(doc: &Json, key: &str, default: u64) -> Result<u64, String> {
    match doc.get(key) {
        None => Ok(default),
        Some(node) => node
            .as_u64()
            .ok_or_else(|| format!("field `{key}` must be a non-negative integer")),
    }
}

fn opt_bool(doc: &Json, key: &str) -> Result<bool, String> {
    match doc.get(key) {
        None => Ok(false),
        Some(node) => as_bool(node).ok_or_else(|| format!("field `{key}` must be a boolean")),
    }
}

impl JobSpec {
    /// Parses one job line (already JSON-parsed into `doc`); `index`
    /// names anonymous jobs. Errors name the offending field or value.
    pub fn parse(doc: &Json, index: usize) -> Result<JobSpec, String> {
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("job line lacks a `schema` field")?;
        if schema != SERVE_JOB_SCHEMA {
            return Err(format!(
                "unsupported schema `{schema}` (expected {SERVE_JOB_SCHEMA})"
            ));
        }
        let version = doc
            .get("version")
            .and_then(Json::as_u64)
            .ok_or("job line lacks a `version` field")?;
        if version != SERVE_VERSION {
            return Err(format!(
                "unsupported version {version} (expected {SERVE_VERSION})"
            ));
        }
        let id = match doc.get("id") {
            None => format!("job-{index}"),
            Some(node) => {
                let id = node.as_str().ok_or("field `id` must be a string")?;
                if id.is_empty()
                    || !id
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
                {
                    return Err(format!(
                        "bad job id `{id}` (use ASCII letters, digits, `-`, `_`, `.`)"
                    ));
                }
                id.to_owned()
            }
        };
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("job line lacks a `workload` field")?
            .to_owned();
        let scheme = match doc.get("scheme") {
            None => dgl_core::SchemeKind::Baseline,
            Some(node) => {
                let name = node.as_str().ok_or("field `scheme` must be a string")?;
                name.parse().map_err(|e| format!("{e}"))?
            }
        };
        let sample = match doc.get("sample") {
            None => None,
            Some(node) => {
                if node.entries().is_none() {
                    return Err("field `sample` must be an object".into());
                }
                let d = SamplingConfig::default();
                let cfg = SamplingConfig {
                    interval_insts: opt_u64(node, "interval", d.interval_insts)?,
                    warmup_insts: opt_u64(node, "warmup", d.warmup_insts)?,
                    window_insts: opt_u64(node, "window", d.window_insts)?,
                    max_windows: opt_u64(node, "max_windows", d.max_windows as u64)? as usize,
                    // Window parallelism defaults to 1 under serve: the
                    // worker pool is the parallel axis. Results are
                    // identical for every value.
                    threads: opt_u64(node, "threads", 1)? as usize,
                };
                if cfg.interval_insts == 0 || cfg.window_insts == 0 || cfg.max_windows == 0 {
                    return Err("sampling interval, window, and max-windows must be > 0".into());
                }
                Some(cfg)
            }
        };
        let fault = match doc.get("fault") {
            None => None,
            Some(node) => {
                let kind = node.as_str().ok_or("field `fault` must be a string")?;
                if kind != "panic" {
                    return Err(format!("bad fault `{kind}` (only `panic` is supported)"));
                }
                Some(kind.to_owned())
            }
        };
        let insts = opt_u64(doc, "insts", 25_000)?;
        if insts > MAX_JOB_INSTS {
            return Err(format!(
                "field `insts` is {insts}, above the per-job cap of {MAX_JOB_INSTS}"
            ));
        }
        Ok(JobSpec {
            id,
            workload,
            insts,
            scheme,
            ap: opt_bool(doc, "ap")?,
            vp: opt_bool(doc, "vp")?,
            sample,
            fault,
        })
    }

    /// Serializes the job back into its line form (round-trip tests,
    /// batch generators).
    pub fn to_json(&self) -> Json {
        let doc = Json::object()
            .field("schema", Json::str(SERVE_JOB_SCHEMA))
            .field("version", Json::uint(SERVE_VERSION))
            .field("id", Json::str(self.id.clone()))
            .field("workload", Json::str(self.workload.clone()))
            .field("insts", Json::uint(self.insts))
            .field("scheme", Json::str(self.scheme.name()))
            .field("ap", Json::Bool(self.ap))
            .field("vp", Json::Bool(self.vp));
        let doc = match &self.fault {
            None => doc,
            Some(kind) => doc.field("fault", Json::str(kind.clone())),
        };
        match &self.sample {
            None => doc,
            Some(cfg) => doc.field(
                "sample",
                Json::object()
                    .field("interval", Json::uint(cfg.interval_insts))
                    .field("warmup", Json::uint(cfg.warmup_insts))
                    .field("window", Json::uint(cfg.window_insts))
                    .field("max_windows", Json::uint(cfg.max_windows as u64))
                    .field("threads", Json::uint(cfg.threads as u64)),
            ),
        }
    }

    /// Runs the job and builds its manifest — through exactly the same
    /// [`crate::run_manifest`]/[`crate::sampled_manifest`] calls the
    /// one-shot CLI uses, so the document is byte-identical to `dgl
    /// run` with the same parameters. Every job takes its built
    /// workload from `store`'s workload tier; sampled jobs also consult
    /// its snapshots.
    pub fn run(&self, store: &CheckpointStore) -> Result<Json, String> {
        self.run_instrumented(store, None, None).map(|(m, _)| m)
    }

    /// [`run`](Self::run) with the telemetry hooks serve workers use:
    /// an optional span collector (+ track) timing the builder's
    /// phases, and an optional flight recorder receiving the trace
    /// tail (attached only when a failed job is replayed for its
    /// post-mortem). Returns the manifest plus the number of instructions
    /// simulated in detail (for per-worker KIPS gauges). Telemetry is
    /// host-side only — the manifest is byte-identical to [`run`](Self::run).
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run).
    ///
    /// # Panics
    ///
    /// Panics after the simulation when `fault` is `"panic"` (the
    /// injected failure the telemetry CI smoke uses).
    pub fn run_instrumented(
        &self,
        store: &CheckpointStore,
        spans: Option<(&SpanCollector, u32)>,
        recorder: Option<SharedFlightRecorder>,
    ) -> Result<(Json, u64), String> {
        let w = store
            .workload(&self.workload, self.insts)
            .ok_or_else(|| format!("unknown workload `{}` (try `dgl suite`)", self.workload))?;
        let config = ConfigId::new(self.scheme, self.ap);
        let mut b = SimBuilder::new();
        b.scheme(self.scheme)
            .address_prediction(self.ap)
            .value_prediction(self.vp);
        if let Some((collector, track)) = spans {
            b.with_spans(collector.clone(), track);
        }
        if let Some(rec) = recorder {
            b.flight_recorder(rec);
        }
        let (manifest, insts) = match &self.sample {
            Some(cfg) => {
                let run = b
                    .run_sampled_with_store(&w, cfg, Some(store))
                    .map_err(|e| e.to_string())?;
                let insts = run.measured_insts();
                (crate::sampled_manifest(&w, config, self.vp, &run), insts)
            }
            None => {
                let report = b.run_workload(&w).map_err(|e| e.to_string())?;
                let insts = report.committed;
                (crate::run_manifest(&w, config, self.vp, &report), insts)
            }
        };
        if self.fault.as_deref() == Some("panic") {
            panic!("injected fault: panic (job {})", self.id);
        }
        Ok((manifest, insts))
    }
}

/// Runs `spec` under `catch_unwind`. A failure comes back as
/// `(reason, message)`: reason `panic` for a caught panic, `job_error`
/// for an error result.
fn run_caught(
    spec: &JobSpec,
    store: &CheckpointStore,
    spans: Option<(&SpanCollector, u32)>,
    recorder: Option<SharedFlightRecorder>,
) -> Result<(Json, u64), (&'static str, String)> {
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        spec.run_instrumented(store, spans, recorder)
    }));
    match caught {
        Ok(Ok(done)) => Ok(done),
        Ok(Err(e)) => Err(("job_error", e)),
        Err(payload) => Err(("panic", panic_message(payload))),
    }
}

/// Renders the post-mortem of a failed job: replays it once with a
/// flight recorder of `capacity` events attached and dumps the
/// replay's trace tail under `stack`, the failed run's span stack.
/// The simulator is deterministic and the store never changes a
/// result, so the tail is the one a recorder attached to the failed
/// run would have held; the header's `detail` says whether the replay
/// ended with the same failure.
fn replay_postmortem(
    spec: &JobSpec,
    store: &CheckpointStore,
    capacity: usize,
    reason: &str,
    error: &str,
    stack: &[String],
) -> String {
    let recorder = SharedFlightRecorder::new(capacity);
    let verdict = match run_caught(spec, store, None, Some(recorder.clone())) {
        Err((r, e)) if r == reason && e == error => "replay reproduced the failure".to_owned(),
        Err((r, e)) => format!("replay ended differently ({r}: {e})"),
        Ok(_) => "replay did not reproduce the failure (it succeeded)".to_owned(),
    };
    let detail = format!("job {}: {error}; {verdict}", spec.id);
    recorder.postmortem(reason, &detail, stack)
}

fn result_doc(id: &str, queue_us: u64, run_us: u64, outcome: Result<Json, String>) -> Json {
    let doc = Json::object()
        .field("schema", Json::str(SERVE_RESULT_SCHEMA))
        .field("version", Json::uint(SERVE_VERSION))
        .field("id", Json::str(id))
        .field("ok", Json::Bool(outcome.is_ok()))
        .field(
            "host",
            Json::object()
                .field("queue_us", Json::uint(queue_us))
                .field("run_us", Json::uint(run_us)),
        );
    match outcome {
        Ok(manifest) => doc.field("manifest", manifest),
        Err(e) => doc.field("error", Json::str(e)),
    }
}

/// Builds the `dgl-serve-stats` v1 document: store counters, residency,
/// job totals, and the queue-latency histogram, all under a top-level
/// `host` object so `dgl compare` reports them without ever gating.
pub fn stats_doc(store: &CheckpointStore, queue_us: &Histogram, summary: ServeSummary) -> Json {
    let mut reg = MetricsRegistry::new();
    store.publish(&mut reg);
    reg.counter("serve.jobs", summary.jobs);
    reg.counter("serve.errors", summary.errors);
    reg.histogram("serve.queue_us", queue_us.clone());
    Json::object()
        .field("schema", Json::str(SERVE_STATS_SCHEMA))
        .field("version", Json::uint(SERVE_VERSION))
        .field("host", reg.to_json())
}

/// `dgl explain`-style rendering of a stats document (the `--stats`
/// flag prints this next to the JSON line).
pub fn render_stats(
    store: &CheckpointStore,
    queue_us: &Histogram,
    summary: ServeSummary,
) -> String {
    use std::fmt::Write as _;
    let c = store.counters();
    let mut out = String::new();
    let _ = writeln!(out, "checkpoint store:");
    for (name, value) in [
        ("hits", c.hits),
        ("misses", c.misses),
        ("partial hits", c.partial_hits),
        ("inserts", c.inserts),
        ("evictions", c.evictions),
        ("disk hits", c.disk_hits),
        ("disk writes", c.disk_writes),
        ("disk rejects", c.disk_rejects),
        ("totals hits", c.totals_hits),
        ("workload hits", c.workload_hits),
        ("workload misses", c.workload_misses),
        ("workload evictions", c.workload_evictions),
        ("resident", store.resident() as u64),
    ] {
        let _ = writeln!(out, "  {name:18} {value:>10}");
    }
    let _ = writeln!(
        out,
        "jobs: {} completed, {} errors",
        summary.jobs, summary.errors
    );
    if queue_us.count() > 0 {
        let _ = writeln!(
            out,
            "queue latency: mean {:.0} us, p95 {} us, max {} us over {} jobs",
            queue_us.mean(),
            queue_us.quantile(0.95).unwrap_or(0),
            queue_us.max(),
            queue_us.count()
        );
    }
    out
}

/// Reads one line of at most `cap` bytes, newline excluded, and strips
/// its line ending as [`BufRead::lines`] does. Returns `Ok(None)` at end
/// of input and `Ok(Some(Err(reason)))` for a line that is too long or
/// not UTF-8; either way the whole line is consumed, so the next call
/// starts on the following one.
fn read_line_capped<R: BufRead>(
    input: &mut R,
    cap: usize,
) -> std::io::Result<Option<Result<String, String>>> {
    let mut buf = Vec::new();
    let mut read_any = false;
    let mut too_long = false;
    let mut newline = false;
    while !newline {
        let available = match input.fill_buf() {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            break;
        }
        read_any = true;
        let end = available.iter().position(|&b| b == b'\n');
        newline = end.is_some();
        let text = &available[..end.unwrap_or(available.len())];
        if !too_long {
            too_long = buf.len() + text.len() > cap;
            if too_long {
                buf = Vec::new();
            } else {
                buf.extend_from_slice(text);
            }
        }
        let used = text.len() + usize::from(newline);
        input.consume(used);
    }
    if !read_any {
        return Ok(None);
    }
    if too_long {
        return Ok(Some(Err(format!("line exceeds {cap} bytes"))));
    }
    if newline && buf.last() == Some(&b'\r') {
        buf.pop();
    }
    Ok(Some(
        String::from_utf8(buf).map_err(|_| "line is not valid UTF-8".to_owned()),
    ))
}

/// Writes `doc` as one compact JSON line (the protocol framing).
fn emit_line<W: Write>(output: &Mutex<W>, doc: &Json) {
    let mut out = output.lock().unwrap_or_else(|e| e.into_inner());
    let _ = writeln!(out, "{doc}");
    let _ = out.flush();
}

/// The shared worker-pool backend: feeds `jobs` through a bounded
/// queue to `workers` threads, each calling `handler(job, enqueued)`.
/// The bounded queue gives natural backpressure — the producing
/// iterator is pulled lazily on the calling thread and blocks when
/// every worker is busy and the queue is full. Returns when the
/// iterator is exhausted and every job has been handled.
///
/// Both the `serve` service and the `dgl fuzz` fleet run on this; the
/// handler is responsible for its own panic isolation (see
/// `experiments::panic_message`).
pub fn run_pool<J, I, F>(jobs: I, workers: usize, queue: usize, handler: F)
where
    J: Send,
    I: IntoIterator<Item = J>,
    F: Fn(J, Instant) + Sync,
{
    run_pool_indexed(jobs, workers, queue, |_, job, enqueued| {
        handler(job, enqueued)
    });
}

/// [`run_pool`] with the worker's index (0-based, `< workers`) passed
/// to the handler, so per-worker telemetry — KIPS gauges, span tracks —
/// has a stable axis to hang off.
pub fn run_pool_indexed<J, I, F>(jobs: I, workers: usize, queue: usize, handler: F)
where
    J: Send,
    I: IntoIterator<Item = J>,
    F: Fn(usize, J, Instant) + Sync,
{
    let (tx, rx) = mpsc::sync_channel::<(J, Instant)>(queue.max(1));
    let rx = Mutex::new(rx);
    std::thread::scope(|scope| {
        for worker in 0..workers.max(1) {
            let rx = &rx;
            let handler = &handler;
            scope.spawn(move || loop {
                // Take one job; release the receiver lock before
                // working so other workers can pick up jobs.
                let job = rx.lock().unwrap_or_else(|e| e.into_inner()).recv();
                let Ok((job, enqueued)) = job else { break };
                handler(worker, job, enqueued);
            });
        }
        for job in jobs {
            // Blocks when the queue is full: backpressure.
            if tx.send((job, Instant::now())).is_err() {
                break;
            }
        }
        drop(tx);
    });
}

/// `f` over `items` on [`run_pool_indexed`] with `workers` threads (0
/// means one per core; never more threads than items), results in
/// `items` order. One worker is the calling thread itself: a pool
/// thread would only add a spawn and a wake-up per item. A panic in
/// `f` is re-raised here once every item has run, so it never strands
/// the pool.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    let workers = match workers {
        0 => std::thread::available_parallelism().map_or(4, |n| n.get()),
        n => n,
    }
    .min(items.len());
    let caught = |item: &T| catch_unwind(AssertUnwindSafe(|| f(item)));
    let results: Vec<_> = if workers <= 1 {
        items.iter().map(caught).collect()
    } else {
        let (tx, rx) = mpsc::channel();
        run_pool_indexed(
            items.iter().enumerate(),
            workers,
            workers,
            move |_, (i, item), _| {
                let _ = tx.send((i, caught(item)));
            },
        );
        let mut results: Vec<_> = rx.into_iter().collect();
        results.sort_by_key(|&(i, _)| i);
        results.into_iter().map(|(_, r)| r).collect()
    };
    results
        .into_iter()
        .map(|r| r.unwrap_or_else(|p| resume_unwind(p)))
        .collect()
}

/// Reads job lines from `input`, runs them on `opts.workers` worker
/// threads sharing `store`, and writes result lines to `output` in
/// completion order. Returns when the input is exhausted and every
/// accepted job has been answered.
///
/// # Errors
///
/// Propagates the first read error from `input`; job failures are
/// reported in-band as error results, never as an `Err`.
pub fn serve_lines<R: BufRead, W: Write + Send>(
    input: R,
    output: W,
    store: &CheckpointStore,
    opts: &ServeOptions,
) -> std::io::Result<ServeSummary> {
    serve_lines_with(input, output, store, opts, &ServeTelemetry::new(), None)
}

/// [`serve_lines`] against caller-owned telemetry: `serve_tcp` shares
/// one [`ServeTelemetry`] across connections (and with the
/// `--metrics-listen` HTTP thread), and `peer` tags every per-job log
/// record with the connection's remote address. The returned summary
/// counts only this call's own jobs and errors, so totals summed over
/// connections stay correct against the shared counters.
///
/// # Errors
///
/// As [`serve_lines`].
pub fn serve_lines_with<R: BufRead, W: Write + Send>(
    mut input: R,
    output: W,
    store: &CheckpointStore,
    opts: &ServeOptions,
    telemetry: &ServeTelemetry,
    peer: Option<&str>,
) -> std::io::Result<ServeSummary> {
    let output = Mutex::new(output);
    let jobs_at_entry = telemetry.jobs();
    let errors_at_entry = telemetry.errors();
    let mut read_error = None;
    let mut index = 0usize;
    // True once the input is exhausted: jobs handled after this are
    // the queue being drained for shutdown.
    let eof_seen = AtomicBool::new(false);
    let drained_ok = AtomicU64::new(0);
    let drained_err = AtomicU64::new(0);
    // Pull one accepted job per call, answering malformed and control
    // lines inline; `None` ends the batch (input exhausted or a read
    // error, recorded for the caller).
    let jobs = std::iter::from_fn(|| loop {
        let line = match read_line_capped(&mut input, MAX_LINE_BYTES) {
            Ok(Some(line)) => line,
            Ok(None) => {
                eof_seen.store(true, Ordering::Relaxed);
                return None;
            }
            Err(e) => {
                read_error = Some(e);
                eof_seen.store(true, Ordering::Relaxed);
                return None;
            }
        };
        index += 1;
        let parsed = match line {
            Ok(text) if text.trim().is_empty() => continue,
            Ok(text) => Json::parse(&text).map_err(|e| e.to_string()),
            Err(e) => Err(e),
        }
        .map_err(|e| format!("line {index}: {e}"));
        let doc = match parsed {
            Ok(doc) => doc,
            Err(e) => {
                telemetry.line_error();
                log::warn(
                    "serve",
                    "malformed line",
                    &[("error", Json::str(e.clone()))],
                );
                emit_line(&output, &result_doc(&format!("line-{index}"), 0, 0, Err(e)));
                continue;
            }
        };
        if doc.get("control").and_then(Json::as_str) == Some("stats") {
            // A point-in-time snapshot: jobs still in flight are
            // not yet counted. Process-wide under a shared
            // telemetry; the wire format is unchanged.
            let summary = ServeSummary {
                jobs: telemetry.jobs(),
                errors: telemetry.errors(),
            };
            let hist = telemetry.queue_histogram();
            emit_line(&output, &stats_doc(store, &hist, summary));
            continue;
        }
        let spec = JobSpec::parse(&doc, index).and_then(|spec| match spec.fault {
            Some(_) if !opts.allow_fault_injection => {
                Err("field `fault` needs serve's --allow-fault-injection".to_owned())
            }
            _ => Ok(spec),
        });
        match spec {
            Ok(spec) => {
                telemetry.job_accepted();
                return Some(spec);
            }
            Err(e) => {
                telemetry.line_error();
                log::warn("serve", "bad job line", &[("error", Json::str(e.clone()))]);
                emit_line(
                    &output,
                    &result_doc(
                        &format!("line-{index}"),
                        0,
                        0,
                        Err(format!("line {index}: {e}")),
                    ),
                );
            }
        }
    });
    let handler = |worker: usize, spec: JobSpec, enqueued: Instant| {
        let queue_us = enqueued.elapsed().as_micros() as u64;
        telemetry.job_started(queue_us);
        let track = worker as u32;
        let spans = SpanCollector::new();
        spans.record(track, "queue", 0, queue_us, &spec.id);
        let started = Instant::now();
        // The job guard lives outside `catch_unwind`: on a panic the
        // guards *inside* the run unwind onto the collector's unwound
        // list while this one stays open, so the post-mortem stack
        // shows both the failing frames and the surrounding job.
        let mut job_guard = spans.begin(track, "job");
        job_guard.detail(&spec.workload);
        let caught = run_caught(&spec, store, Some((&spans, track)), None);
        let run_us = started.elapsed().as_micros() as u64;
        match &caught {
            Ok((manifest, insts)) => {
                if let Some(dir) = &opts.manifest_dir {
                    let _guard = spans.begin(track, "manifest_write");
                    // Same bytes `write_manifest` in the CLI
                    // produces for `dgl run --stats-json`.
                    let mut text = manifest.to_string_pretty();
                    text.push('\n');
                    let _ = std::fs::create_dir_all(dir);
                    let _ = std::fs::write(dir.join(format!("{}.json", spec.id)), text);
                }
                if *insts > 0 && run_us > 0 {
                    telemetry.set_worker_kips(worker, *insts as f64 * 1000.0 / run_us as f64);
                }
            }
            Err((reason, e)) => {
                // The post-mortem pairs the failed run's span stack —
                // the active stack plus (reversed) whatever unwound
                // during the panic — with the trace tail of a replay.
                let mut stack = spans.active_stack(track);
                let mut unwound = spans.take_unwound();
                unwound.reverse();
                stack.extend(unwound);
                let mut fields = vec![
                    ("job", Json::str(spec.id.clone())),
                    ("reason", Json::str(*reason)),
                    ("error", Json::str(e.clone())),
                ];
                let dir = opts.postmortem_dir.as_ref().or(opts.manifest_dir.as_ref());
                if let Some(dir) = dir.filter(|_| opts.flight_recorder > 0) {
                    let text =
                        replay_postmortem(&spec, store, opts.flight_recorder, reason, e, &stack);
                    match write_postmortem(dir, &spec.id, &text) {
                        Ok(path) => {
                            fields.push(("artifact", Json::str(path.display().to_string())));
                        }
                        Err(io) => {
                            fields.push(("artifact_error", Json::str(io.to_string())));
                        }
                    }
                }
                log::error("serve", "job failed", &fields);
            }
        }
        drop(job_guard);
        let outcome = caught.map(|(manifest, _)| manifest).map_err(|(_, e)| e);
        if opts.spans && outcome.is_ok() {
            if let Some(dir) = &opts.manifest_dir {
                let mut text = spans_to_json(&spans.finish()).to_string_pretty();
                text.push('\n');
                let _ = std::fs::write(dir.join(format!("{}.spans.json", spec.id)), text);
            }
        }
        let ok = outcome.is_ok();
        telemetry.job_finished(ok);
        if eof_seen.load(Ordering::Relaxed) {
            let counter = if ok { &drained_ok } else { &drained_err };
            counter.fetch_add(1, Ordering::Relaxed);
        }
        let mut fields = vec![
            ("job", Json::str(spec.id.clone())),
            ("worker", Json::uint(worker as u64)),
            ("queue_us", Json::uint(queue_us)),
            ("run_us", Json::uint(run_us)),
            ("ok", Json::Bool(ok)),
        ];
        if let Some(peer) = peer {
            fields.push(("peer", Json::str(peer)));
        }
        log::info("serve", "job done", &fields);
        emit_line(&output, &result_doc(&spec.id, queue_us, run_us, outcome));
    };
    let ticker_stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        if let Some(period_ms) = opts.metrics_interval_ms {
            let period = Duration::from_millis(period_ms.max(1));
            let nap = Duration::from_millis(period_ms.clamp(1, 50));
            let output = &output;
            let stop = &ticker_stop;
            scope.spawn(move || {
                let mut last = Instant::now();
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(nap);
                    if last.elapsed() >= period {
                        emit_line(output, &telemetry.metrics_doc(store));
                        last = Instant::now();
                    }
                }
            });
        }
        run_pool_indexed(jobs, opts.workers, opts.queue, handler);
        ticker_stop.store(true, Ordering::Relaxed);
    });
    let summary = ServeSummary {
        jobs: telemetry.jobs() - jobs_at_entry,
        errors: telemetry.errors() - errors_at_entry,
    };
    // Shutdown observability: how many queued jobs were drained (vs
    // answered before EOF), then one final metrics flush so scrapers
    // see the end state.
    let mut fields = vec![
        ("jobs", Json::uint(summary.jobs)),
        ("errors", Json::uint(summary.errors)),
        ("drained_ok", Json::uint(drained_ok.load(Ordering::Relaxed))),
        (
            "drained_err",
            Json::uint(drained_err.load(Ordering::Relaxed)),
        ),
        ("aborted", Json::Bool(read_error.is_some())),
    ];
    if let Some(peer) = peer {
        fields.push(("peer", Json::str(peer)));
    }
    log::info("serve", "input drained", &fields);
    if opts.metrics_interval_ms.is_some() {
        emit_line(&output, &telemetry.metrics_doc(store));
    }
    if opts.stats {
        let totals = ServeSummary {
            jobs: telemetry.jobs(),
            errors: telemetry.errors(),
        };
        let hist = telemetry.queue_histogram();
        emit_line(&output, &stats_doc(store, &hist, totals));
        eprint!("{}", render_stats(store, &hist, totals));
    }
    match read_error {
        Some(e) => Err(e),
        None => Ok(summary),
    }
}

/// Binds `addr` and serves connections sequentially, each speaking the
/// same JSON-lines protocol as stdin mode; the checkpoint store (and
/// its warmed snapshots) persists across connections. `max_conns`
/// bounds the number of accepted connections (tests; `None` serves
/// forever).
///
/// # Errors
///
/// Propagates bind/accept errors; per-connection I/O errors end that
/// connection only.
pub fn serve_tcp(
    addr: &str,
    store: &CheckpointStore,
    opts: &ServeOptions,
    max_conns: Option<usize>,
) -> std::io::Result<ServeSummary> {
    serve_tcp_with(addr, store, opts, max_conns, &ServeTelemetry::new())
}

/// [`serve_tcp`] against caller-owned telemetry, so the process's
/// `--metrics-listen` endpoint and stdout ticker see one set of
/// counters across every connection.
///
/// # Errors
///
/// As [`serve_tcp`].
pub fn serve_tcp_with(
    addr: &str,
    store: &CheckpointStore,
    opts: &ServeOptions,
    max_conns: Option<usize>,
    telemetry: &ServeTelemetry,
) -> std::io::Result<ServeSummary> {
    let listener = std::net::TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    log::info(
        "serve",
        "listening",
        &[("addr", Json::str(bound.to_string()))],
    );
    let mut total = ServeSummary::default();
    for (accepted, conn) in listener.incoming().enumerate() {
        let stream = conn?;
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "unknown".to_owned());
        let reader = BufReader::new(stream.try_clone()?);
        match serve_lines_with(reader, stream, store, opts, telemetry, Some(&peer)) {
            Ok(summary) => {
                total.jobs += summary.jobs;
                total.errors += summary.errors;
            }
            Err(e) => log::error(
                "serve",
                "connection error",
                &[
                    ("peer", Json::str(peer.clone())),
                    ("error", Json::str(e.to_string())),
                ],
            ),
        }
        if max_conns.is_some_and(|n| accepted + 1 >= n) {
            break;
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sampled_job(id: &str, scheme: &str, ap: bool) -> String {
        format!(
            "{{\"schema\":\"dgl-serve-job\",\"version\":1,\"id\":\"{id}\",\
             \"workload\":\"hmmer_like\",\"insts\":6000,\"scheme\":\"{scheme}\",\
             \"ap\":{ap},\"sample\":{{\"interval\":2000,\"warmup\":500,\"window\":300}}}}"
        )
    }

    #[test]
    fn par_map_keeps_input_order() {
        let items: Vec<u64> = (0..40).collect();
        for workers in [0, 1, 3] {
            let squares = par_map(&items, workers, |&i| i * i);
            assert_eq!(squares, items.iter().map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_with_one_worker_runs_on_the_calling_thread() {
        let me = std::thread::current().id();
        let ids = par_map(&[(); 8], 1, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == me));
    }

    #[test]
    fn par_map_reraises_a_panic_after_every_other_item_ran() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::AtomicUsize;
        let items: Vec<usize> = (0..24).collect();
        for workers in [0, 1] {
            let ran = AtomicUsize::new(0);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                par_map(&items, workers, |&i| {
                    assert_ne!(i, 0, "item zero fails");
                    ran.fetch_add(1, Ordering::SeqCst);
                })
            }));
            let payload = caught.expect_err("the panic must reach the caller");
            assert!(panic_message(payload).contains("item zero fails"));
            assert_eq!(ran.load(Ordering::SeqCst), items.len() - 1);
        }
    }

    #[test]
    fn job_round_trips_through_json() {
        let doc = Json::parse(&sampled_job("a", "dom", true)).unwrap();
        let spec = JobSpec::parse(&doc, 1).unwrap();
        assert_eq!(spec.id, "a");
        assert_eq!(spec.insts, 6000);
        assert!(spec.ap && !spec.vp);
        let reparsed = JobSpec::parse(&spec.to_json(), 2).unwrap();
        assert_eq!(reparsed.id, spec.id);
        assert_eq!(reparsed.sample.unwrap(), spec.sample.unwrap());
    }

    #[test]
    fn parse_rejects_bad_fields_by_name() {
        let doc = Json::parse(r#"{"schema":"dgl-serve-job","version":1}"#).unwrap();
        assert!(JobSpec::parse(&doc, 1).unwrap_err().contains("workload"));
        let doc = Json::parse(r#"{"schema":"nope","version":1,"workload":"x"}"#).unwrap();
        assert!(JobSpec::parse(&doc, 1).unwrap_err().contains("nope"));
        let doc =
            Json::parse(r#"{"schema":"dgl-serve-job","version":1,"workload":"x","id":"../evil"}"#)
                .unwrap();
        assert!(JobSpec::parse(&doc, 1).unwrap_err().contains("../evil"));
        let doc =
            Json::parse(r#"{"schema":"dgl-serve-job","version":1,"workload":"x","insts":"many"}"#)
                .unwrap();
        assert!(JobSpec::parse(&doc, 1).unwrap_err().contains("insts"));
    }

    #[test]
    fn capped_reader_strips_endings_and_skips_bad_lines() {
        let data = b"ab\r\nlong-line\n\xff\xfe\n\nend\r";
        // A 2-byte buffer splits every line across several refills.
        let mut input = BufReader::with_capacity(2, &data[..]);
        let mut next = || read_line_capped(&mut input, 4).unwrap();
        assert_eq!(next(), Some(Ok("ab".to_owned())));
        assert_eq!(next(), Some(Err("line exceeds 4 bytes".to_owned())));
        assert_eq!(next(), Some(Err("line is not valid UTF-8".to_owned())));
        assert_eq!(next(), Some(Ok(String::new())));
        assert_eq!(
            next(),
            Some(Ok("end\r".to_owned())),
            "no newline, no stripping"
        );
        assert_eq!(next(), None);
    }

    #[test]
    fn bad_lines_get_one_error_each_and_serving_continues() {
        let mut batch = b"\xff\xfe\n".to_vec();
        batch.extend(std::iter::repeat_n(b' ', MAX_LINE_BYTES + 1));
        batch.extend(
            b"\n{\"schema\":\"dgl-serve-job\",\"version\":1,\"id\":\"after\",\
                       \"workload\":\"hmmer_like\",\"insts\":2000}\n",
        );
        let mut out = Vec::new();
        let summary = serve_lines(
            &batch[..],
            &mut out,
            &CheckpointStore::new(4),
            &ServeOptions::default(),
        )
        .unwrap();
        assert_eq!(summary, ServeSummary { jobs: 1, errors: 2 });
        let text = String::from_utf8(out).unwrap();
        let docs: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        let field = |id: &str, key: &str| {
            docs.iter()
                .find(|d| d.get("id").and_then(Json::as_str) == Some(id))
                .and_then(|d| d.get(key).cloned())
        };
        assert_eq!(docs.len(), 3, "{text}");
        assert_eq!(
            field("line-1", "error"),
            Some(Json::str("line 1: line is not valid UTF-8"))
        );
        assert_eq!(
            field("line-2", "error"),
            Some(Json::str(format!(
                "line 2: line exceeds {MAX_LINE_BYTES} bytes"
            )))
        );
        assert_eq!(field("after", "ok"), Some(Json::Bool(true)), "{text}");
    }

    #[test]
    fn batch_shares_the_store_and_results_match_one_shot() {
        // Four sampled jobs over one workload: the first fast-forwards,
        // the rest hit the shared store; every manifest must equal the
        // one-shot run's.
        let batch: String = ["baseline", "dom", "stt", "nda-p"]
            .iter()
            .enumerate()
            .map(|(i, s)| sampled_job(&format!("j{i}"), s, true) + "\n")
            .collect();
        let store = CheckpointStore::new(16);
        let mut out = Vec::new();
        let summary = serve_lines(
            batch.as_bytes(),
            &mut out,
            &store,
            &ServeOptions {
                workers: 2,
                ..ServeOptions::default()
            },
        )
        .unwrap();
        assert_eq!(summary, ServeSummary { jobs: 4, errors: 0 });
        let c = store.counters();
        assert!(c.hits > 0, "batch must reuse stored windows: {c:?}");
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 4);
        for line in text.lines() {
            let doc = Json::parse(line).unwrap();
            assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
            let id = doc.get("id").and_then(Json::as_str).unwrap();
            let spec_line = match id {
                "j0" => sampled_job("j0", "baseline", true),
                "j1" => sampled_job("j1", "dom", true),
                "j2" => sampled_job("j2", "stt", true),
                _ => sampled_job("j3", "nda-p", true),
            };
            let spec = JobSpec::parse(&Json::parse(&spec_line).unwrap(), 0).unwrap();
            // One-shot, storeless manifest: must be byte-identical.
            let solo = spec.run(&CheckpointStore::new(1)).unwrap();
            let served = doc.get("manifest").expect("result carries manifest");
            assert_eq!(
                served.to_string_pretty(),
                solo.to_string_pretty(),
                "served manifest for {id} differs from one-shot"
            );
        }
    }

    #[test]
    fn workload_tier_stays_bounded_and_skips_unknown_names() {
        // Five distinct budgets through a two-entry store: the tier
        // evicts down to its capacity, no manifest changes, and an
        // unknown name is answered once and never cached.
        let budgets = [2_000u64, 2_500, 3_000, 3_500, 4_000];
        let job = |id: &str, workload: &str, insts: u64| {
            format!(
                "{{\"schema\":\"dgl-serve-job\",\"version\":1,\"id\":\"{id}\",\
                 \"workload\":\"{workload}\",\"insts\":{insts},\"scheme\":\"dom\",\"ap\":true}}\n"
            )
        };
        let mut batch: String = budgets
            .iter()
            .map(|&n| job(&format!("n{n}"), "hmmer_like", n))
            .collect();
        batch += &job("ghost", "no_such_workload", 2_000);
        let store = CheckpointStore::new(2);
        let mut out = Vec::new();
        let summary =
            serve_lines(batch.as_bytes(), &mut out, &store, &ServeOptions::default()).unwrap();
        assert_eq!(summary, ServeSummary { jobs: 5, errors: 1 });
        let resident = store.resident_workloads();
        assert!(
            resident.len() <= 2,
            "tier exceeds its capacity: {resident:?}"
        );
        assert!(resident.iter().all(|(name, _)| name == "hmmer_like"));
        let c = store.counters();
        assert_eq!(c.workload_misses, 5, "{c:?}");
        assert_eq!(c.workload_evictions, 3, "{c:?}");
        let text = String::from_utf8(out).unwrap();
        for line in text.lines() {
            let doc = Json::parse(line).unwrap();
            let id = doc.get("id").and_then(Json::as_str).unwrap();
            if id == "ghost" {
                assert_eq!(doc.get("ok"), Some(&Json::Bool(false)));
                let error = doc.get("error").and_then(Json::as_str).unwrap();
                assert!(error.contains("unknown workload `no_such_workload`"));
                continue;
            }
            let insts: u64 = id[1..].parse().unwrap();
            let spec_line = job(id, "hmmer_like", insts);
            let spec = JobSpec::parse(&Json::parse(spec_line.trim()).unwrap(), 0).unwrap();
            let solo = spec.run(&CheckpointStore::new(2)).unwrap();
            assert_eq!(
                doc.get("manifest").map(Json::to_string_pretty),
                Some(solo.to_string_pretty()),
                "served manifest for {id} differs from a fresh store's"
            );
        }
        assert_eq!(text.lines().count(), 6, "{text}");
    }

    #[test]
    fn injected_panic_dumps_a_postmortem_artifact() {
        let dir = std::env::temp_dir().join(format!("dgl-serve-pm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let batch = "{\"schema\":\"dgl-serve-job\",\"version\":1,\"id\":\"boom\",\
                     \"workload\":\"hmmer_like\",\"insts\":3000,\"fault\":\"panic\"}\n";
        let store = CheckpointStore::new(4);
        let mut out = Vec::new();
        let summary = serve_lines_with(
            batch.as_bytes(),
            &mut out,
            &store,
            &ServeOptions {
                workers: 1,
                postmortem_dir: Some(dir.clone()),
                flight_recorder: 64,
                allow_fault_injection: true,
                ..ServeOptions::default()
            },
            &ServeTelemetry::new(),
            None,
        )
        .unwrap();
        assert_eq!(summary, ServeSummary { jobs: 0, errors: 1 });
        let text = String::from_utf8(out).unwrap();
        let result = Json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(result.get("ok"), Some(&Json::Bool(false)));
        assert!(result
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("injected fault"));
        let artifact = std::fs::read_to_string(dir.join("boom.postmortem.jsonl")).unwrap();
        let mut lines = artifact.lines();
        let header = Json::parse(lines.next().unwrap()).unwrap();
        assert_eq!(
            header.get("schema").and_then(Json::as_str),
            Some("dgl-postmortem")
        );
        assert_eq!(header.get("reason").and_then(Json::as_str), Some("panic"));
        let stack = header.get("span_stack").and_then(Json::as_array).unwrap();
        assert!(
            stack.iter().any(|s| s.as_str() == Some("job")),
            "active job span in the failure stack: {header}"
        );
        let events = header
            .get("events_retained")
            .and_then(Json::as_u64)
            .unwrap();
        assert!(events > 0, "recorder held a trace tail");
        assert!(
            header
                .get("detail")
                .and_then(Json::as_str)
                .unwrap()
                .ends_with("; replay reproduced the failure"),
            "{header}"
        );
        // Every event line round-trips through the strict parser.
        let replayed: Vec<&str> = lines.collect();
        for line in &replayed {
            Json::parse(line).expect("post-mortem event line parses");
        }
        assert_eq!(replayed.len() as u64, events);
        // The replayed tail is the one a recorder of the same capacity
        // attached to the failed run itself holds.
        let spec = JobSpec::parse(&Json::parse(batch.trim()).unwrap(), 1).unwrap();
        let whole_run = SharedFlightRecorder::new(64);
        let failed = run_caught(
            &spec,
            &CheckpointStore::new(4),
            None,
            Some(whole_run.clone()),
        );
        assert!(matches!(failed, Err(("panic", _))));
        let reference = whole_run.postmortem("panic", "", &[]);
        assert_eq!(replayed, reference.lines().skip(1).collect::<Vec<_>>());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_interval_streams_parseable_lines_and_spans_sidecar() {
        let dir = std::env::temp_dir().join(format!("dgl-serve-spans-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let batch = sampled_job("m0", "dom", true) + "\n";
        let store = CheckpointStore::new(8);
        let mut out = Vec::new();
        let summary = serve_lines_with(
            batch.as_bytes(),
            &mut out,
            &store,
            &ServeOptions {
                workers: 1,
                manifest_dir: Some(dir.clone()),
                metrics_interval_ms: Some(1),
                spans: true,
                ..ServeOptions::default()
            },
            &ServeTelemetry::new(),
            None,
        )
        .unwrap();
        assert_eq!(summary, ServeSummary { jobs: 1, errors: 0 });
        let text = String::from_utf8(out).unwrap();
        let docs: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        let metrics: Vec<&Json> = docs
            .iter()
            .filter(|d| {
                d.get("schema").and_then(Json::as_str)
                    == Some(crate::telemetry::SERVE_METRICS_SCHEMA)
            })
            .collect();
        assert!(!metrics.is_empty(), "final flush guarantees one line");
        let last = metrics.last().unwrap();
        let host = last.get("host").expect("snapshot under host");
        assert_eq!(host.get("serve.jobs").and_then(Json::as_u64), Some(1));
        assert!(
            host.get("serve.worker.0.kips")
                .and_then(Json::as_f64)
                .is_some_and(|k| k > 0.0),
            "worker KIPS gauge set: {host}"
        );
        // The spans sidecar exists, parses strictly, and times the
        // builder's phases.
        let sidecar = std::fs::read_to_string(dir.join("m0.spans.json")).unwrap();
        let spans =
            dgl_stats::span::spans_from_json(&Json::parse(sidecar.trim_end()).unwrap()).unwrap();
        for name in ["queue", "job", "ckpt_plan", "simulate"] {
            assert!(
                spans.iter().any(|s| s.name == name),
                "span `{name}` recorded: {spans:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_lines_get_error_results_not_crashes() {
        let batch = "this is not json\n\
                     {\"schema\":\"dgl-serve-job\",\"version\":1,\"workload\":\"no_such\"}\n\
                     {\"control\":\"stats\"}\n";
        let store = CheckpointStore::new(4);
        let mut out = Vec::new();
        let summary =
            serve_lines(batch.as_bytes(), &mut out, &store, &ServeOptions::default()).unwrap();
        assert_eq!(summary.jobs, 0);
        assert_eq!(summary.errors, 2);
        let text = String::from_utf8(out).unwrap();
        let docs: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(docs.len(), 3);
        assert_eq!(docs[0].get("ok"), Some(&Json::Bool(false)));
        assert!(docs
            .iter()
            .any(|d| d.get("schema").and_then(Json::as_str) == Some(SERVE_STATS_SCHEMA)));
    }
}
