//! `serve-sampled`: a seeded stream of sampled job lines through one
//! `dgl_sim::serve::serve_lines` call with its default options — two
//! workers, the default queue depth and flight recorder — and one shared
//! in-memory `CheckpointStore` at the CLI's default capacity. The stream
//! is a run of batches, each every served catalog workload × the eight
//! configurations in a seeded order; feeding stops at a batch boundary
//! once the run's time is up.
//!
//! The benchmark feeds lines through a reader that stamps the moment
//! serve takes each line, and collects result lines through a writer
//! that stamps their arrival: a job's latency runs from hand-off to
//! result. Serve's bounded queue blocks the reader, so the loop is
//! closed: at most workers + queue jobs are outstanding. Between rounds
//! of [`ROUND_JOBS`] jobs the reader waits until every job taken so far
//! has its result, then probes the host's speed while serve's workers
//! are idle.

use crate::layers::{config_index, config_key, registry, Layers};
use crate::math::{median, mix, shuffle, Digest, Tally};
use crate::{calib, secs, timed, timed_setup, Args, EndToEnd, Outcome, MIN_SAMPLES, SETUP_REPEATS};
use dgl_isa::Emulator;
use dgl_sim::experiments::ConfigId;
use dgl_sim::serve::{serve_lines, JobSpec, ServeOptions, SERVE_RESULT_SCHEMA, SERVE_VERSION};
use dgl_sim::{sampled_manifest, CheckpointStore, SamplingConfig, SimBuilder, MANIFEST_SCHEMA};
use dgl_stats::{Json, SpanCollector};
use dgl_workloads::{by_name, catalog, Scale, WorkloadSpec};
use std::collections::BTreeMap;
use std::io::{BufRead, Read, Write};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Instruction budget of every job.
const JOB_INSTS: u64 = 30_000;
/// Every `CATALOG_STRIDE`-th catalog workload is served: a fixed,
/// diverse half of the suite, so a batch is above 100 jobs yet short.
const CATALOG_STRIDE: usize = 2;

/// The served workloads.
fn served() -> impl Iterator<Item = &'static WorkloadSpec> {
    catalog().iter().step_by(CATALOG_STRIDE)
}

/// Jobs per throughput round: half a batch.
const ROUND_JOBS: usize = 56;
/// Checkpoint-store capacity (the `dgl serve` default).
const STORE_CAPACITY: usize = 64;
/// Sensitivity of the served job throughput to the host's speed (see
/// `calib`): log-log slope of run throughput against the reference
/// slice over eight runs on the tuning host, 0.48 (0.40 over single
/// rounds). Serve waits on its queue, its workers' result writes and
/// the round barriers, none of which speed up with the host.
const HOST_SENSITIVITY: f64 = 0.5;
/// Longest wait for the results of a round before the next one starts;
/// a job that never answers is counted as failed afterwards.
const ROUND_WAIT: Duration = Duration::from_secs(60);

/// Sampling parameters of every job: the library defaults, one window
/// thread (the worker pool is the parallel axis).
fn sampling() -> SamplingConfig {
    SamplingConfig {
        threads: 1,
        ..SamplingConfig::default()
    }
}

/// One job of a batch.
#[derive(Debug, Clone)]
struct Job {
    batch: u64,
    id: String,
    workload: &'static str,
    config: ConfigId,
    line: String,
}

/// Batch `batch` of the run: every served workload × every config, in
/// a seeded order.
fn batch(seed: u64, batch: u64) -> Vec<Job> {
    let mut jobs: Vec<Job> = served()
        .flat_map(|spec| {
            ConfigId::ALL.into_iter().map(move |config| {
                let id = format!("b{batch}-{}-{}", spec.name, config_key(config));
                let line = JobSpec {
                    id: id.clone(),
                    workload: spec.name.to_owned(),
                    insts: JOB_INSTS,
                    scheme: config.scheme(),
                    ap: config.ap(),
                    vp: false,
                    sample: Some(sampling()),
                    fault: None,
                }
                .to_json()
                .to_string();
                Job {
                    batch,
                    id,
                    workload: spec.name,
                    config,
                    line,
                }
            })
        })
        .collect();
    shuffle(&mut jobs, mix(seed, batch));
    jobs
}

/// A round boundary: jobs taken before it, when the next round was
/// let go, and the reference slice seconds of the probe taken there.
#[derive(Debug, Clone, Copy)]
struct Mark {
    taken: usize,
    at: Instant,
    slice_s: f64,
}

/// Feeds batch after batch of job lines to serve until, at a batch
/// boundary, `seconds` have passed and [`MIN_SAMPLES`] jobs were taken;
/// stamps when each line is taken, and marks the round boundaries.
struct Feed {
    seed: u64,
    start: Instant,
    seconds: f64,
    batches: u64,
    pending: std::vec::IntoIter<Job>,
    buf: Vec<u8>,
    pos: usize,
    taken: Arc<Mutex<Vec<(Job, Instant)>>>,
    lines: Arc<Mutex<Vec<(Instant, String)>>>,
    marks: Arc<Mutex<Vec<Mark>>>,
    finished: bool,
}

impl Feed {
    fn taken(&self) -> usize {
        self.taken
            .lock()
            .expect("no thread panics holding the feed")
            .len()
    }

    /// Waits until every job taken has answered (or [`ROUND_WAIT`]
    /// passes), probes the host, and marks the boundary.
    fn boundary(&mut self) {
        let taken = self.taken();
        let deadline = Instant::now() + ROUND_WAIT;
        while Instant::now() < deadline
            && self
                .lines
                .lock()
                .expect("no thread panics holding the lines")
                .len()
                < taken
        {
            std::thread::sleep(Duration::from_micros(200));
        }
        let slice_s = calib::probe();
        let mark = Mark {
            taken,
            at: Instant::now(),
            slice_s,
        };
        self.marks
            .lock()
            .expect("no thread panics holding the marks")
            .push(mark);
    }

    fn next_job(&mut self) -> Option<Job> {
        if self.finished {
            return None;
        }
        // Called once per job taken, and again only after the end.
        let taken = self.taken();
        if taken.is_multiple_of(ROUND_JOBS) {
            self.boundary();
        }
        if self.pending.len() == 0 {
            if self.batches > 0 && secs(self.start) >= self.seconds && taken >= MIN_SAMPLES {
                if !taken.is_multiple_of(ROUND_JOBS) {
                    self.boundary();
                }
                self.finished = true;
                return None;
            }
            self.pending = batch(self.seed, self.batches).into_iter();
            self.batches += 1;
        }
        self.pending.next()
    }
}

impl Read for Feed {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(out.len());
        out[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for Feed {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos == self.buf.len() {
            if let Some(job) = self.next_job() {
                self.buf = format!("{}\n", job.line).into_bytes();
                self.pos = 0;
                self.taken
                    .lock()
                    .expect("no thread panics holding the feed")
                    .push((job, Instant::now()));
            }
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

/// Collects result lines with their arrival times.
struct Results {
    partial: Vec<u8>,
    lines: Arc<Mutex<Vec<(Instant, String)>>>,
}

impl Write for Results {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.partial.extend_from_slice(bytes);
        while let Some(end) = self.partial.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.partial.drain(..=end).collect();
            let text = String::from_utf8_lossy(&line[..end]).into_owned();
            self.lines
                .lock()
                .expect("no thread panics holding the result lines")
                .push((Instant::now(), text));
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One served job's result, validated.
struct Served {
    /// Position of the job in the order serve took the lines.
    index: usize,
    taken: Instant,
    done: Instant,
    queue_us: u64,
    run_us: u64,
    manifest: Json,
}

/// Checks a result line's schema and manifest; returns the job id and
/// what it carried.
fn validate(doc: &Json, jobs: &BTreeMap<&str, &Job>) -> Result<(String, u64, u64, Json), String> {
    let field = |k: &str| doc.get(k).ok_or_else(|| format!("result lacks `{k}`"));
    if field("schema")?.as_str() != Some(SERVE_RESULT_SCHEMA)
        || field("version")?.as_u64() != Some(SERVE_VERSION)
    {
        return Err("result schema or version is wrong".into());
    }
    let id = field("id")?.as_str().ok_or("result id is not a string")?;
    let job = jobs
        .get(id)
        .ok_or_else(|| format!("result for unknown job `{id}`"))?;
    if !matches!(field("ok")?, Json::Bool(true)) {
        let error = doc.get("error").and_then(Json::as_str).unwrap_or("");
        return Err(format!("job `{id}` failed: {error}"));
    }
    let host = field("host")?;
    let queue_us = host.get("queue_us").and_then(Json::as_u64);
    let run_us = host.get("run_us").and_then(Json::as_u64);
    let (Some(queue_us), Some(run_us)) = (queue_us, run_us) else {
        return Err(format!("job `{id}` lacks host.queue_us/run_us"));
    };
    let m = field("manifest")?;
    let ipc = m.get("ipc").and_then(Json::as_f64).unwrap_or(f64::NAN);
    let windows = m
        .get("windows")
        .and_then(Json::as_array)
        .map_or(0, <[Json]>::len);
    let ok = m.get("schema").and_then(Json::as_str) == Some(MANIFEST_SCHEMA)
        && m.get("mode").and_then(Json::as_str) == Some("sampled")
        && m.get("workload").and_then(Json::as_str) == Some(job.workload)
        && m.get("config").and_then(Json::as_str) == Some(job.config.label().as_str())
        && matches!(m.get("halted"), Some(Json::Bool(true)))
        && ipc.is_finite()
        && ipc > 0.0
        && windows > 0;
    if !ok {
        return Err(format!("job `{id}` manifest fails validation (ipc {ipc})"));
    }
    Ok((id.to_owned(), queue_us, run_us, m.clone()))
}

/// What one stream did.
struct StreamRun {
    /// Served jobs, in the order serve took their lines.
    served: Vec<(Job, Served)>,
    /// Round boundaries, in order; the last follows the last job.
    marks: Vec<Mark>,
}

/// Serves one stream on one store; counts each taken job as one unit.
fn serve_stream(seed: u64, seconds: f64, tally: &mut Tally, layers: &mut Layers) -> StreamRun {
    let taken = Arc::new(Mutex::new(Vec::new()));
    let lines = Arc::new(Mutex::new(Vec::new()));
    let marks = Arc::new(Mutex::new(Vec::new()));
    let feed = Feed {
        seed,
        start: Instant::now(),
        seconds,
        batches: 0,
        pending: Vec::new().into_iter(),
        buf: Vec::new(),
        pos: 0,
        taken: Arc::clone(&taken),
        lines: Arc::clone(&lines),
        marks: Arc::clone(&marks),
        finished: false,
    };
    let results = Results {
        partial: Vec::new(),
        lines: Arc::clone(&lines),
    };
    let store = CheckpointStore::new(STORE_CAPACITY);
    if let Err(e) = serve_lines(feed, results, &store, &ServeOptions::default()) {
        eprintln!("perfbench: serve_lines: {e}");
    }
    let c = store.counters();
    layers.store.hits += c.hits;
    layers.store.misses += c.misses;
    layers.store.evictions += c.evictions;
    let taken = std::mem::take(&mut *taken.lock().expect("serve returned"));
    let by_id: BTreeMap<&str, &Job> = taken.iter().map(|(j, _)| (j.id.as_str(), j)).collect();
    let mut answers = BTreeMap::new();
    for (done, text) in lines.lock().expect("serve returned").iter() {
        let parsed = Json::parse(text).map_err(|e| format!("unparsable result: {e}"));
        match parsed.and_then(|doc| validate(&doc, &by_id)) {
            Ok((id, queue_us, run_us, manifest)) => {
                if answers
                    .insert(id.clone(), (*done, queue_us, run_us, manifest))
                    .is_some()
                {
                    eprintln!("perfbench: job `{id}` answered twice");
                    tally.fail_attempted(false);
                }
            }
            Err(e) => eprintln!("perfbench: {e}"),
        }
    }
    let mut served = Vec::with_capacity(taken.len());
    for (index, (job, taken)) in taken.into_iter().enumerate() {
        let answer = answers.remove(&job.id);
        tally.record(answer.is_some());
        if let Some((done, queue_us, run_us, manifest)) = answer {
            let s = Served {
                index,
                taken,
                done,
                queue_us,
                run_us,
                manifest,
            };
            served.push((job, s));
        }
    }
    let marks = std::mem::take(&mut *marks.lock().expect("serve returned"));
    StreamRun { served, marks }
}

/// One set-up: the first batch's lines, every catalog workload built
/// and run to `halt` on the emulator, and one warm-up job.
struct Inputs {
    build_s: f64,
    emu_s: f64,
    emu_insts: u64,
}

fn setup(seed: u64) -> Result<Inputs, String> {
    let jobs = batch(seed, 0);
    let (workloads, build_s) = timed(|| {
        served()
            .map(|spec| spec.build(Scale::Custom(JOB_INSTS)))
            .collect::<Vec<_>>()
    });
    let (mut emu_s, mut emu_insts) = (0.0, 0);
    for w in &workloads {
        let mut emu = Emulator::new(&w.program, w.memory.clone());
        let budget = w.max_cycles.saturating_mul(16);
        let (run, dt) = timed(|| emu.run(budget));
        let run = run.map_err(|e| format!("`{}` faults on the emulator: {e}", w.name))?;
        if !run.halted {
            return Err(format!("`{}` does not halt within {budget} steps", w.name));
        }
        emu_s += dt;
        emu_insts += run.instructions;
    }
    // The warm-up job is the same for every seed, so set-up time does
    // not depend on which job the shuffle puts first.
    let first = served().next().map(|spec| spec.name);
    let warm = jobs
        .iter()
        .find(|j| Some(j.workload) == first && j.config == ConfigId::Baseline)
        .expect("every batch holds each served workload's baseline job");
    let warm = JobSpec::parse(
        &Json::parse(&warm.line).map_err(|e| format!("job line: {e}"))?,
        0,
    )?;
    warm.run(&CheckpointStore::new(STORE_CAPACITY))?;
    Ok(Inputs {
        build_s,
        emu_s,
        emu_insts,
    })
}

/// What a pass measured.
#[derive(Default)]
struct Pass {
    e2e: EndToEnd,
    /// Manifests of the first batch by (workload, config label).
    first: BTreeMap<(String, String), String>,
}

fn pass(
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
    layers: &mut Layers,
    spans: Option<&SpanCollector>,
) -> Pass {
    let mut out = Pass::default();
    // Job spans are recorded after the fact from instants; anchor them
    // to the collector's clock so they share a timeline with the replay.
    let origin = (Instant::now(), spans.map_or(0, SpanCollector::now_us));
    let run = serve_stream(seed, seconds, tally, layers);
    // Each round: its jobs' instructions, latencies and last result.
    let rounds = run.marks.len().saturating_sub(1);
    let mut insts = vec![0u64; rounds];
    let mut latencies_s = vec![Vec::new(); rounds];
    let mut last = vec![None::<Instant>; rounds];
    for (track, (job, s)) in run.served.iter().enumerate() {
        let round = run.marks.iter().skip(1).position(|m| s.index < m.taken);
        if let Some(r) = round {
            let n = s.manifest.get("measured_insts").and_then(Json::as_u64);
            insts[r] += n.unwrap_or(0);
            latencies_s[r].push(s.done.duration_since(s.taken).as_secs_f64());
            last[r] = last[r].max(Some(s.done));
        }
        layers.queue_wait_ms.push(s.queue_us as f64 / 1e3);
        layers.run_ms.push(s.run_us as f64 / 1e3);
        let windows = s.manifest.get("windows").and_then(Json::as_array);
        layers.sampling_windows += windows.map_or(0, |w| w.len() as u64);
        let text = s.manifest.to_string();
        let key = (job.workload.to_owned(), job.config.label());
        if job.batch == 0 {
            out.first.insert(key, text);
        } else if out.first.get(&key) != Some(&text) {
            eprintln!("perfbench: job `{}` manifest differs from batch 0", job.id);
            tally.fail_attempted(false);
        }
        if let Some(spans) = spans {
            record_job(spans, origin, track as u32, &job.id, s);
        }
    }
    for (r, pair) in run.marks.windows(2).enumerate() {
        let Some(last) = last[r] else { continue };
        let slice_s = (pair[0].slice_s + pair[1].slice_s) / 2.0;
        let nominal = |dt| calib::nominal(dt, slice_s, HOST_SENSITIVITY);
        let host_s = last.duration_since(pair[0].at).as_secs_f64();
        let e2e = &mut out.e2e;
        e2e.round(latencies_s[r].len(), insts[r], nominal(host_s), slice_s);
        e2e.latencies_ms
            .extend(latencies_s[r].iter().map(|&dt| nominal(dt) * 1e3));
    }
    out
}

/// Records a served job's spans: hand-off to result, split into the
/// queue wait and run time its result line reports.
fn record_job(spans: &SpanCollector, origin: (Instant, u64), track: u32, id: &str, s: &Served) {
    let at = |t: Instant| origin.1 + t.duration_since(origin.0).as_micros() as u64;
    let (start, end) = (at(s.taken), at(s.done));
    spans.record(track, "job", start, end - start, id);
    let queue_end = (start + s.queue_us).min(end);
    spans.record(track, "serve.queue", start, queue_end - start, id);
    let run_end = (queue_end + s.run_us).min(end);
    spans.record(track, "serve.run", queue_end, run_end - queue_end, id);
}

/// Replays the first batch's jobs on one thread through the layers'
/// public functions with the profiler on: `Json::parse` and
/// `JobSpec::parse`, the workload build, one timed `build_core`, the
/// sampled run on a store of its own, and manifest encoding. Each
/// manifest must match the served one byte for byte.
fn replay(
    seed: u64,
    first: &BTreeMap<(String, String), String>,
    layers: &mut Layers,
    spans: &SpanCollector,
    tally: &mut Tally,
) {
    let reg = registry();
    let store = CheckpointStore::new(STORE_CAPACITY);
    let track0 = 1_000_000u32;
    for (i, job) in batch(seed, 0).iter().enumerate() {
        let track = track0 + i as u32;
        let mut guard = spans.begin(track, "replay");
        guard.detail(&job.id);
        let (spec, dt) = timed(|| {
            let _s = spans.begin(track, "stats.json_parse");
            Json::parse(&job.line).and_then(|doc| JobSpec::parse(&doc, i))
        });
        layers.json_parse_s += dt;
        let spec = spec.expect("the benchmark's own job lines parse");
        let (w, _) = timed(|| {
            let _s = spans.begin(track, "workloads.build");
            by_name(&spec.workload, Scale::Custom(spec.insts))
        });
        let w = w.expect("catalog workloads exist");
        let mut b = SimBuilder::new();
        b.scheme(spec.scheme).address_prediction(spec.ap);
        let (_, build_s) = timed(|| {
            let _s = spans.begin(track, "pipeline.build_core");
            b.build_core()
        });
        b.profiling(reg.clone());
        let cfg = spec.sample.expect("every job is sampled");
        let (run, dt) = timed(|| {
            let _s = spans.begin(track, "sim.sampling");
            b.run_sampled_with_store(&w, &cfg, Some(&store))
        });
        let ok = match run {
            Ok(run) => {
                for win in &run.windows {
                    layers.sim.add(&win.report);
                }
                layers.config_s[config_index(job.config)] += dt;
                // One core per window plus the warming template.
                layers.build_core_s += build_s * (run.windows.len() + 1) as f64;
                layers.timing_s += dt;
                let (text, enc) = timed(|| {
                    let _s = spans.begin(track, "stats.json_encode");
                    sampled_manifest(&w, job.config, false, &run).to_string()
                });
                layers.json_encode_s += enc;
                first.get(&(job.workload.to_owned(), job.config.label())) == Some(&text)
            }
            Err(e) => {
                eprintln!("perfbench: replay of `{}`: {e}", job.id);
                false
            }
        };
        tally.record(ok);
    }
    layers.prof = Some(reg.snapshot());
}

/// IPC(scheme + AP) / IPC(baseline) per workload and protected scheme.
fn norm_ipc(first: &BTreeMap<(String, String), String>) -> Vec<f64> {
    let ipc = |w: &str, c: ConfigId| {
        first
            .get(&(w.to_owned(), c.label()))
            .and_then(|t| Json::parse(t).ok())
            .and_then(|m| m.get("ipc").and_then(Json::as_f64))
    };
    let mut out = Vec::new();
    for spec in served() {
        for c in [ConfigId::NdaAp, ConfigId::SttAp, ConfigId::DomAp] {
            if let (Some(x), Some(base)) = (ipc(spec.name, c), ipc(spec.name, ConfigId::Baseline)) {
                out.push(x / base);
            }
        }
    }
    out
}

/// Runs `serve-sampled`.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut setups_s = Vec::new();
    let mut build_s = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPEATS {
        let (i, host_s, nominal_s) = timed_setup(|| setup(args.seed));
        let i = i?;
        setups_s.push(nominal_s);
        build_s.push(i.build_s * nominal_s / host_s);
        inputs = Some(i);
    }
    let inputs = inputs.expect("at least one set-up ran");
    let mut out = Outcome::default();
    let mut tally = Tally::default();
    let first = if args.trace {
        let mut scratch = Layers::default();
        let reference = pass(
            args.seed,
            args.seconds / 2.0,
            &mut tally,
            &mut scratch,
            None,
        );
        let spans = SpanCollector::new();
        let mut layers = Layers::default();
        let traced = pass(
            args.seed,
            args.seconds,
            &mut tally,
            &mut layers,
            Some(&spans),
        );
        layers.tracing_overhead_frac = 1.0 - traced.e2e.rate() / reference.e2e.rate();
        replay(args.seed, &traced.first, &mut layers, &spans, &mut tally);
        layers.emu_s = inputs.emu_s;
        layers.emu_insts = inputs.emu_insts;
        layers.workloads_build_s = median(&build_s);
        layers.setup_s = median(&setups_s);
        out.layers = layers;
        out.spans = spans.finish();
        traced
    } else {
        pass(
            args.seed,
            args.seconds,
            &mut tally,
            &mut Layers::default(),
            None,
        )
    };
    let mut d = Digest::default();
    for ((w, c), text) in &first.first {
        d.eat(w.as_bytes());
        d.eat(c.as_bytes());
        d.eat(text.as_bytes());
    }
    out.digest = d.value();
    out.e2e = first.e2e;
    out.e2e.norm_ipc = norm_ipc(&first.first);
    out.e2e.setups_s = setups_s;
    out.tally = tally;
    Ok(out)
}
