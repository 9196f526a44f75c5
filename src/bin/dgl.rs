//! `dgl` — the Doppelganger Loads command-line interface.
//!
//! ```text
//! dgl suite                          list the bundled workloads
//! dgl schemes                        list the registered secure-speculation schemes
//! dgl run <workload> [opts]          simulate one workload
//! dgl explain <workload> [opts]      attribution + occupancy for a scheme pair
//! dgl asm <file.dasm> [opts]         assemble + simulate a program
//! dgl attack [--secret BYTE]         run the Spectre laboratory
//! dgl figures [--fig N] [--insts N]  print a figure or table (default Figure 1)
//! dgl trace --workload NAME [opts]   record a structured pipeline trace
//! dgl pin [FILE]                     check simulated behaviour against the pin table
//!                                    (default baselines/bench-quick.json)
//! dgl compare <a.json> <b.json>      diff two run manifests
//! dgl serve [--stdin|--listen ADDR]  batch simulation service (JSON-lines jobs)
//! dgl fuzz [--seed N] [--iters N]    differential + two-secret fuzzing
//!
//! options: --scheme NAME                     (default baseline; see `dgl schemes`)
//!          --ap                              enable doppelganger loads
//!          --vp                              enable value prediction
//!          --insts N                         instruction budget (default 25000)
//!          --prof                            host time by pipeline stage (explain)
//!          --cpi                             per-config cycle-loss stacks + scheme delay
//!                                            provenance + overhead decomposition (explain)
//!          --out FILE                        write the trace (trace) / rewrite the table (pin)
//!          --max-ipc-delta X                 allowed relative drift (compare, default 0)
//!          --fig 1|6|7|8|all|table1|ablation|vp|nda|sample-error
//!                                            report to print (figures, default 1)
//!          --json                            machine-readable output (compare; figures 1/6/7)
//!          --csv                             the evaluation matrix as CSV (figures 1/6/7/8/all)
//!          --stats-json FILE                 write a versioned run manifest (run)
//!          --occupancy N                     sample occupancy every N cycles (run/explain)
//!          --top N                           load sites shown by `explain` (default 10)
//!          --workload NAME                   workload to trace (trace) / the only one
//!                                            to run (figures --fig sample-error)
//!          --format chrome|konata|jsonl      trace export format (default chrome)
//!          --sample                          sampled simulation (fast-forward + windows)
//!          --sample-interval N               instructions between window starts (default 10000)
//!          --sample-warmup N                 detailed warmup commits per window (default 2000)
//!          --sample-window N                 measured commits per window (default 1000)
//!          --sample-max-windows N            window cap (default 256)
//!          --sample-threads N                worker threads (default 0 = all cores)
//!          --ckpt-dir DIR                    on-disk checkpoint store (run --sample/serve)
//!          --store-cap N                     in-memory checkpoint entries (default 64)
//!          --stdin                           serve jobs from stdin (the default)
//!          --listen ADDR                     serve jobs over TCP (e.g. 127.0.0.1:9310)
//!          --workers N                       serve worker threads (default 2)
//!          --queue N                         serve queue depth = backpressure (default 4)
//!          --manifest-dir DIR                also write each job's manifest (serve)
//!          --stats                           emit a dgl-serve-stats document at end (serve)
//!          --max-conns N                     stop after N connections (serve --listen)
//!          --metrics-listen ADDR             HTTP metrics endpoint: /metrics, /metrics.json,
//!                                            /metrics/delta (serve)
//!          --metrics-interval SECS           stream dgl-serve-metrics lines every SECS (serve)
//!          --flight-recorder N               events in a failed job's post-mortem, recorded
//!                                            by replaying the job; 0 = none (serve, default 256)
//!          --postmortem-dir DIR              post-mortem artifacts for failed jobs (serve;
//!                                            falls back to --manifest-dir)
//!          --spans                           serve: write <id>.spans.json span sidecars;
//!                                            explain: render a spans/manifest file, or every
//!                                            sidecar in a manifest directory
//!          --allow-fault-injection           serve: honour a job's test-only `fault` field
//!                                            (refused with an error result otherwise)
//!          --seed N                          fuzzing base seed (default 1)
//!          --iters N                         fuzzing cases to run (default 200)
//!          --corpus DIR                      save minimized reproducers to DIR (fuzz)
//!
//! Malformed flag values and unknown commands/flags exit 2 with a
//! message naming the offending value; runtime failures exit 1.
//! ```

use doppelganger_loads::figures::{self, Form};
use doppelganger_loads::isa::asm::assemble;
use doppelganger_loads::sim::security::{LeakOutcome, SpectreV1Lab};
use doppelganger_loads::sim::SamplingConfig;
use doppelganger_loads::workloads::{by_name, suite, Scale};
use doppelganger_loads::{SchemeKind, SimBuilder, SparseMemory, REGISTRY};
use std::process::ExitCode;

/// `println!` that ignores broken pipes (`dgl ... | head` must not
/// panic).
macro_rules! out {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}

struct Opts {
    scheme: SchemeKind,
    ap: bool,
    vp: bool,
    insts: u64,
    secret: u8,
    workload: Option<String>,
    format: String,
    out: Option<String>,
    sample: bool,
    sampling: SamplingConfig,
    stats_json: Option<String>,
    occupancy: u64,
    top: usize,
    prof: bool,
    cpi: bool,
    json: bool,
    csv: bool,
    fig: String,
    max_ipc_delta: f64,
    ckpt_dir: Option<String>,
    store_cap: usize,
    stdin: bool,
    listen: Option<String>,
    workers: usize,
    queue: usize,
    manifest_dir: Option<String>,
    stats: bool,
    max_conns: Option<usize>,
    metrics_listen: Option<String>,
    metrics_interval: Option<u64>,
    flight_recorder: usize,
    postmortem_dir: Option<String>,
    spans: bool,
    allow_fault_injection: bool,
    seed: u64,
    iters: u64,
    corpus: Option<String>,
    positional: Vec<String>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        scheme: SchemeKind::Baseline,
        ap: false,
        vp: false,
        insts: 25_000,
        secret: 0x42,
        workload: None,
        format: "chrome".to_owned(),
        out: None,
        sample: false,
        sampling: SamplingConfig::default(),
        stats_json: None,
        occupancy: 0,
        top: 10,
        prof: false,
        cpi: false,
        json: false,
        csv: false,
        fig: "1".to_owned(),
        max_ipc_delta: 0.0,
        ckpt_dir: None,
        store_cap: 64,
        stdin: false,
        listen: None,
        workers: 2,
        queue: 4,
        manifest_dir: None,
        stats: false,
        max_conns: None,
        metrics_listen: None,
        metrics_interval: None,
        flight_recorder: 256,
        postmortem_dir: None,
        spans: false,
        allow_fault_injection: false,
        seed: 1,
        iters: 200,
        corpus: None,
        positional: Vec::new(),
    };
    fn num<T: std::str::FromStr>(
        it: &mut std::slice::Iter<String>,
        flag: &str,
    ) -> Result<T, String> {
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        v.parse().map_err(|_| format!("bad value `{v}` for {flag}"))
    }
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scheme" => {
                let v = it.next().ok_or("--scheme needs a value")?;
                o.scheme = v.parse().map_err(|e| format!("{e}"))?;
            }
            "--ap" => o.ap = true,
            "--vp" => o.vp = true,
            "--insts" => o.insts = num(&mut it, a)?,
            "--secret" => {
                let v = it.next().ok_or("--secret needs a value")?;
                // `0x`-prefixed values are hex, everything else decimal
                // (`--secret 42` means forty-two, not 0x42).
                o.secret = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
                    Some(hex) => u8::from_str_radix(hex, 16),
                    None => v.parse(),
                }
                .map_err(|_| format!("bad value `{v}` for --secret"))?;
            }
            "--workload" => {
                let v = it.next().ok_or("--workload needs a value")?;
                o.workload = Some(v.clone());
            }
            "--format" => {
                let v = it.next().ok_or("--format needs a value")?;
                if !matches!(v.as_str(), "chrome" | "konata" | "jsonl") {
                    return Err(format!("bad format `{v}` (chrome|konata|jsonl)"));
                }
                o.format = v.clone();
            }
            "--out" => {
                let v = it.next().ok_or("--out needs a value")?;
                o.out = Some(v.clone());
            }
            "--stats-json" => {
                let v = it.next().ok_or("--stats-json needs a file path")?;
                o.stats_json = Some(v.clone());
            }
            "--occupancy" => {
                o.occupancy = num(&mut it, a)?;
                if o.occupancy == 0 {
                    return Err("--occupancy interval must be > 0 cycles".into());
                }
            }
            "--top" => o.top = num(&mut it, a)?,
            "--prof" => o.prof = true,
            "--cpi" => o.cpi = true,
            "--json" => o.json = true,
            "--csv" => o.csv = true,
            "--fig" => {
                let v = it.next().ok_or("--fig needs a value")?;
                if !figures::has_form(v, Form::Text) {
                    return Err(format!(
                        "bad value `{v}` for --fig (1|6|7|8|all|table1|ablation|vp|nda|sample-error)"
                    ));
                }
                o.fig = v.clone();
            }
            "--max-ipc-delta" => {
                o.max_ipc_delta = num(&mut it, a)?;
                if !o.max_ipc_delta.is_finite() || o.max_ipc_delta < 0.0 {
                    return Err("--max-ipc-delta must be a finite non-negative number".into());
                }
            }
            "--sample" => o.sample = true,
            "--sample-interval" => o.sampling.interval_insts = num(&mut it, a)?,
            "--sample-warmup" => o.sampling.warmup_insts = num(&mut it, a)?,
            "--sample-window" => o.sampling.window_insts = num(&mut it, a)?,
            "--sample-max-windows" => o.sampling.max_windows = num(&mut it, a)?,
            "--sample-threads" => o.sampling.threads = num(&mut it, a)?,
            "--ckpt-dir" => {
                let v = it.next().ok_or("--ckpt-dir needs a directory")?;
                o.ckpt_dir = Some(v.clone());
            }
            "--store-cap" => {
                o.store_cap = num(&mut it, a)?;
                if o.store_cap == 0 {
                    return Err("--store-cap must be > 0 entries".into());
                }
            }
            "--stdin" => {
                // Stdin is the default transport; the flag documents
                // intent in scripts and forbids mixing with --listen.
                if o.listen.is_some() {
                    return Err("--stdin and --listen are mutually exclusive".into());
                }
                o.stdin = true;
            }
            "--listen" => {
                if o.stdin {
                    return Err("--stdin and --listen are mutually exclusive".into());
                }
                let v = it.next().ok_or("--listen needs an address (host:port)")?;
                o.listen = Some(v.clone());
            }
            "--workers" => {
                o.workers = num(&mut it, a)?;
                if o.workers == 0 {
                    return Err("--workers must be > 0 threads".into());
                }
            }
            "--queue" => {
                o.queue = num(&mut it, a)?;
                if o.queue == 0 {
                    return Err("--queue must be > 0 jobs".into());
                }
            }
            "--manifest-dir" => {
                let v = it.next().ok_or("--manifest-dir needs a directory")?;
                o.manifest_dir = Some(v.clone());
            }
            "--stats" => o.stats = true,
            "--max-conns" => o.max_conns = Some(num(&mut it, a)?),
            "--metrics-listen" => {
                let v = it
                    .next()
                    .ok_or("--metrics-listen needs an address (host:port)")?;
                // Validated at parse time, not bind time: a typo'd
                // address is a usage error (exit 2), not a runtime
                // failure after workers have spun up. Hostnames are
                // fine — only the shape (host:port, port in u16) is
                // checked here.
                let well_formed = v
                    .rsplit_once(':')
                    .is_some_and(|(host, port)| !host.is_empty() && port.parse::<u16>().is_ok());
                if !well_formed {
                    return Err(format!(
                        "bad value `{v}` for --metrics-listen (need host:port)"
                    ));
                }
                o.metrics_listen = Some(v.clone());
            }
            "--metrics-interval" => {
                let v: u64 = num(&mut it, a)?;
                if v == 0 {
                    return Err("--metrics-interval must be > 0 seconds".into());
                }
                o.metrics_interval = Some(v);
            }
            "--flight-recorder" => o.flight_recorder = num(&mut it, a)?,
            "--postmortem-dir" => {
                let v = it.next().ok_or("--postmortem-dir needs a directory")?;
                o.postmortem_dir = Some(v.clone());
            }
            "--spans" => o.spans = true,
            "--allow-fault-injection" => o.allow_fault_injection = true,
            "--seed" => o.seed = num(&mut it, a)?,
            "--iters" => {
                o.iters = num(&mut it, a)?;
                if o.iters == 0 {
                    return Err("--iters must be > 0 cases".into());
                }
            }
            "--corpus" => {
                let v = it.next().ok_or("--corpus needs a directory")?;
                o.corpus = Some(v.clone());
            }
            other if other.starts_with("--") => return Err(format!("unknown flag `{other}`")),
            other => o.positional.push(other.to_owned()),
        }
    }
    if o.json && o.csv {
        return Err("--json and --csv are mutually exclusive".into());
    }
    for (set, form, flag) in [(o.json, Form::Json, "--json"), (o.csv, Form::Csv, "--csv")] {
        if set && !figures::has_form(&o.fig, form) {
            return Err(format!("bad value `{}` for --fig with {flag}", o.fig));
        }
    }
    if let (Some(w), "sample-error") = (&o.workload, o.fig.as_str()) {
        if by_name(w, Scale::Custom(1)).is_none() {
            return Err(format!("bad value `{w}` for --workload (try `dgl suite`)"));
        }
    }
    Ok(o)
}

fn print_report(label: &str, report: &doppelganger_loads::RunReport) {
    use std::io::Write as _;
    let _ = write!(
        std::io::stdout(),
        "{}",
        doppelganger_loads::sim::render_report(label, report)
    );
}

fn cmd_suite(o: &Opts) -> Result<(), String> {
    out!("{:18} {:5} description", "name", "suite");
    for w in suite(Scale::Custom(o.insts)) {
        out!("{:18} {:5} {}", w.name, w.suite, w.description);
    }
    Ok(())
}

fn cmd_schemes() -> Result<(), String> {
    out!("{:12} {:20} description", "name", "aliases");
    for e in &REGISTRY {
        out!(
            "{:12} {:20} {}",
            e.kind.name(),
            e.aliases.join(", "),
            e.summary
        );
    }
    Ok(())
}

/// Writes a manifest document to `path` and confirms on stdout.
fn write_manifest(path: &str, doc: &doppelganger_loads::stats::Json) -> Result<(), String> {
    let text = doppelganger_loads::pin::manifest_text(doc);
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
    out!("  manifest: {path}");
    Ok(())
}

fn cmd_run(o: &Opts) -> Result<(), String> {
    let name = o.positional.first().ok_or("run needs a workload name")?;
    let w = by_name(name, Scale::Custom(o.insts))
        .ok_or_else(|| format!("unknown workload `{name}` (try `dgl suite`)"))?;
    let config = doppelganger_loads::sim::ConfigId::new(o.scheme, o.ap);
    let mut b = SimBuilder::new();
    b.scheme(o.scheme)
        .address_prediction(o.ap)
        .value_prediction(o.vp);
    if o.occupancy > 0 {
        b.occupancy_sampling(o.occupancy);
    }
    let label = format!(
        "{name} under {}{}{}",
        o.scheme,
        if o.ap { "+ap" } else { "" },
        if o.vp { "+vp" } else { "" }
    );
    if o.sample {
        let cfg = &o.sampling;
        if cfg.interval_insts == 0 || cfg.window_insts == 0 || cfg.max_windows == 0 {
            return Err("sampling interval, window, and max-windows must be > 0".into());
        }
        // With `--ckpt-dir`, fast-forward snapshots persist on disk:
        // repeat runs (other schemes, other flags) skip the functional
        // walk. The store never changes the result — the manifest is
        // byte-identical with or without it.
        let store = o.ckpt_dir.as_ref().map(|dir| {
            doppelganger_loads::sim::CheckpointStore::with_disk(
                o.store_cap,
                std::path::PathBuf::from(dir),
            )
        });
        let run = b
            .run_sampled_with_store(&w, cfg, store.as_ref())
            .map_err(|e| e.to_string())?;
        out!("{label} (sampled)");
        out!(
            "  windows          {:>12}  (interval {}, warmup {}, window {})",
            run.windows.len(),
            cfg.interval_insts,
            cfg.warmup_insts,
            cfg.window_insts
        );
        out!("  measured insts   {:>12}", run.measured_insts());
        out!("  measured cycles  {:>12}", run.measured_cycles());
        out!("  total insts      {:>12}  (functional)", run.total_insts);
        out!("  estimated cycles {:>12.0}", run.estimated_cycles());
        out!("  sampled IPC      {:>12.4}", run.ipc());
        if !run.halted {
            out!("  warning: the functional run hit its step budget before `halt`");
        }
        if let Some(store) = &store {
            let c = store.counters();
            out!(
                "  checkpoint store {:>12}  ({} hits, {} misses, {} disk hits, {} writes)",
                format!("{} resident", store.resident()),
                c.hits,
                c.misses,
                c.disk_hits,
                c.disk_writes
            );
        }
        if let Some(path) = &o.stats_json {
            let doc = doppelganger_loads::sim::sampled_manifest(&w, config, o.vp, &run);
            write_manifest(path, &doc)?;
        }
        return Ok(());
    }
    let report = b.run_workload(&w).map_err(|e| e.to_string())?;
    print_report(&label, &report);
    if let Some(path) = &o.stats_json {
        let doc = doppelganger_loads::sim::run_manifest(&w, config, o.vp, &report);
        write_manifest(path, &doc)?;
    }
    Ok(())
}

/// `dgl explain <workload>`: run the chosen scheme with doppelganger
/// loads off and on, then show where the doppelgangers came from (the
/// per-PC attribution table) and how the machine filled up over time
/// (occupancy sparklines).
fn cmd_explain(o: &Opts) -> Result<(), String> {
    use doppelganger_loads::sim::render_occupancy;
    if o.spans {
        return cmd_explain_spans(o);
    }
    if o.cpi {
        return cmd_explain_cpi(o);
    }
    let name = o
        .positional
        .first()
        .ok_or("explain needs a workload name")?;
    let w = by_name(name, Scale::Custom(o.insts))
        .ok_or_else(|| format!("unknown workload `{name}` (try `dgl suite`)"))?;
    // Value prediction is mutually exclusive with address prediction,
    // so `explain` — which is about doppelgangers — ignores `--vp`.
    let interval = if o.occupancy > 0 { o.occupancy } else { 256 };
    let prof_reg = o
        .prof
        .then(|| std::sync::Arc::new(doppelganger_loads::pipeline::core_prof_registry()));
    let started = std::time::Instant::now();
    let mut reports = Vec::new();
    for ap in [false, true] {
        let mut b = SimBuilder::new();
        b.scheme(o.scheme)
            .address_prediction(ap)
            .occupancy_sampling(interval);
        if let Some(reg) = &prof_reg {
            b.profiling(std::sync::Arc::clone(reg));
        }
        let report = b.run_workload(&w).map_err(|e| e.to_string())?;
        reports.push(report);
    }
    let wall = started.elapsed();
    let (base, with_ap) = (&reports[0], &reports[1]);
    let scheme = o.scheme.name();
    out!("{name}: {scheme} vs {scheme}+ap");
    out!(
        "  {:12} IPC {:.3}  ({} instructions, {} cycles)",
        scheme,
        base.ipc(),
        base.committed,
        base.cycles
    );
    out!(
        "  {:12} IPC {:.3}  ({} instructions, {} cycles)",
        format!("{scheme}+ap"),
        with_ap.ipc(),
        with_ap.committed,
        with_ap.cycles
    );
    if base.ipc() > 0.0 {
        out!("  doppelganger speedup {:.3}x", with_ap.ipc() / base.ipc());
    }
    out!(
        "  doppelgangers: {} issued, {} propagated; coverage {:.1}%, accuracy {:.1}%",
        with_ap.stats.dgl_issued,
        with_ap.stats.dgl_propagated,
        100.0 * with_ap.stats.dgl_coverage(),
        100.0 * with_ap.stats.dgl_accuracy(),
    );
    out!("");
    out!(
        "top {} load sites under {scheme}+ap:",
        o.top.min(with_ap.load_sites.len())
    );
    out!("{}", with_ap.load_sites.render_top(o.top));
    for (label, report) in [(scheme.to_owned(), base), (format!("{scheme}+ap"), with_ap)] {
        let series = report
            .occupancy
            .as_ref()
            .expect("explain always enables sampling");
        if series.is_empty() {
            out!("{label}: run too short for occupancy samples (interval {interval} cycles)");
        } else {
            out!("{label}:");
            out!("{}", render_occupancy(series));
        }
    }
    if let Some(reg) = &prof_reg {
        out!("");
        out!("host time by stage (both runs):");
        out!("{}", reg.snapshot().render(wall));
        out!("");
        out!("skip-ahead elision (simulated cycles fast-forwarded, results byte-identical):");
        for (label, report) in [(scheme.to_owned(), base), (format!("{scheme}+ap"), with_ap)] {
            let pct = if report.cycles > 0 {
                100.0 * report.elided_cycles as f64 / report.cycles as f64
            } else {
                0.0
            };
            out!(
                "  {:12} {:>12} of {:>12} cycles elided ({pct:.1}%)",
                label,
                report.elided_cycles,
                report.cycles
            );
        }
    }
    Ok(())
}

/// `dgl explain --cpi <workload>`: run the paper's full 8-config
/// matrix and render every configuration's cycle-loss stack side by
/// side (grouped CPI stacked bars), the per-scheme delay provenance
/// (which scheme rule parked which loads for how long, and how those
/// episodes ended), and a Figure-6-style overhead decomposition
/// derived from the stacks.
fn cmd_explain_cpi(o: &Opts) -> Result<(), String> {
    use doppelganger_loads::core::DelayCause;
    use doppelganger_loads::sim::ConfigId;
    use doppelganger_loads::stats::StackedBarChart;
    let name = o
        .positional
        .first()
        .ok_or("explain --cpi needs a workload name")?;
    let w = by_name(name, Scale::Custom(o.insts))
        .ok_or_else(|| format!("unknown workload `{name}` (try `dgl suite`)"))?;
    // Coarse display groups. Every component's dotted name falls under
    // exactly one prefix, so the grouped bars inherit the exactness
    // invariant: segment sums equal total cycles.
    const GROUPS: [&str; 6] = ["commit", "frontend", "bad_spec", "mem", "backend", "scheme"];
    let group_of = |component: &str| -> usize {
        GROUPS
            .iter()
            .position(|g| component == *g || component.starts_with(&format!("{g}.")))
            .expect("every CPI component belongs to a display group")
    };
    let mut runs = Vec::new();
    for cfg in ConfigId::ALL {
        let mut b = SimBuilder::new();
        b.scheme(cfg.scheme()).address_prediction(cfg.ap());
        let report = b.run_workload(&w).map_err(|e| e.to_string())?;
        let stack = report.cpi.expect("every core reports a CPI stack");
        runs.push((cfg, report.committed, stack));
    }
    out!("{name}: cycle-loss stacks across the 8-config matrix");
    let mut chart = StackedBarChart::new(
        "CPI stack by configuration (cycles per committed instruction):",
        &GROUPS,
    );
    for (cfg, committed, stack) in &runs {
        let mut groups = [0.0f64; GROUPS.len()];
        for (component, cycles) in stack.iter() {
            groups[group_of(component.name())] += cycles as f64;
        }
        let insts = (*committed).max(1) as f64;
        for g in &mut groups {
            *g /= insts;
        }
        chart.bar(&cfg.label(), &groups);
    }
    out!("{}", chart);
    out!("scheme delay provenance (cycles charged to policy rules):");
    let mut any = false;
    for (cfg, _, stack) in &runs {
        for cause in DelayCause::ALL {
            let r = stack.rule(cause);
            if r.cycles == 0 && r.parks == 0 {
                continue;
            }
            any = true;
            out!(
                "  {:11} {:14} {:>9} cycles, {:>6} parks ({} parked cycles): \
                 {} delayed, {} doppelgangered, {} woken, {} squashed",
                cfg.label(),
                cause.label(),
                r.cycles,
                r.parks,
                r.park_cycles,
                r.delayed,
                r.doppelgangered,
                r.woken,
                r.squashed,
            );
        }
    }
    if !any {
        out!("  (no scheme-attributed cycles: baseline-like configs only)");
    }
    out!("");
    // Figure-6-style decomposition: execution-time overhead versus the
    // unrestricted baseline, next to each configuration's own
    // scheme-attributed share. Both columns are derived from the same
    // exact stacks rather than measured separately.
    let base_cycles = runs[0].2.total().max(1) as f64;
    out!("overhead decomposition vs {}:", runs[0].0.label());
    out!(
        "  {:11} {:>12} {:>8} {:>12} {:>13} {:>13}",
        "config",
        "cycles",
        "CPI",
        "overhead",
        "scheme cyc",
        "scheme share"
    );
    for (cfg, committed, stack) in &runs {
        let cycles = stack.total();
        let scheme_cycles: u64 = stack
            .iter()
            .filter(|(c, _)| c.name().starts_with("scheme."))
            .map(|(_, v)| v)
            .sum();
        out!(
            "  {:11} {:>12} {:>8.3} {:>+11.1}% {:>13} {:>12.1}%",
            cfg.label(),
            cycles,
            cycles as f64 / (*committed).max(1) as f64,
            100.0 * (cycles as f64 / base_cycles - 1.0),
            scheme_cycles,
            100.0 * scheme_cycles as f64 / cycles.max(1) as f64,
        );
    }
    Ok(())
}

/// `dgl explain --spans FILE|DIR`: render the span timing table for a
/// telemetry-enabled serve job. Accepts the `<id>.spans.json` sidecar
/// directly, the job's manifest path (the sibling sidecar is derived),
/// or a manifest directory (every sidecar in it is rendered). With
/// `--format chrome --out FILE`, also exports the spans as a Chrome
/// trace for the Perfetto UI.
fn cmd_explain_spans(o: &Opts) -> Result<(), String> {
    use doppelganger_loads::stats::span::{render_spans, spans_from_json};
    use doppelganger_loads::stats::Json;
    let path = o
        .positional
        .first()
        .ok_or("explain --spans needs a spans sidecar (or manifest) path")?;
    let load = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(text.trim_end()).map_err(|e| format!("{p}: {e}"))
    };
    if std::path::Path::new(path).is_dir() {
        let mut sidecars: Vec<std::path::PathBuf> = std::fs::read_dir(path)
            .map_err(|e| format!("{path}: {e}"))?
            .filter_map(Result::ok)
            .map(|entry| entry.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.ends_with(".spans.json"))
            })
            .collect();
        sidecars.sort();
        if sidecars.is_empty() {
            // Not an error: the directory is simply from a run without
            // span telemetry. Say what was scanned and how to get one.
            out!("no span sidecars (*.spans.json) found in {path}");
            out!("  spans are recorded per job by `dgl serve --spans --manifest-dir {path}`,");
            out!("  which writes an <id>.spans.json sidecar next to each manifest");
            return Ok(());
        }
        for sidecar in &sidecars {
            let p = sidecar.display().to_string();
            let spans = spans_from_json(&load(&p)?).map_err(|e| format!("{p}: {e}"))?;
            out!("{p}:");
            out!("{}", render_spans(&spans).trim_end());
        }
        return Ok(());
    }
    let spans = match spans_from_json(&load(path)?) {
        Ok(spans) => spans,
        Err(e) if !path.ends_with(".spans.json") && path.ends_with(".json") => {
            // A manifest path: look for the sibling sidecar a
            // `dgl serve --spans` run writes next to it.
            let sibling = format!("{}.spans.json", path.trim_end_matches(".json"));
            let doc = load(&sibling)
                .map_err(|se| format!("{path}: {e}; sidecar fallback failed: {se}"))?;
            spans_from_json(&doc).map_err(|se| format!("{sibling}: {se}"))?
        }
        Err(e) => return Err(format!("{path}: {e}")),
    };
    out!("{}", render_spans(&spans).trim_end());
    if let Some(out_path) = &o.out {
        if o.format != "chrome" {
            return Err(format!(
                "bad format `{}` for explain --spans --out (only chrome)",
                o.format
            ));
        }
        let host_spans: Vec<doppelganger_loads::trace::chrome::HostSpan> = spans
            .iter()
            .map(|s| doppelganger_loads::trace::chrome::HostSpan {
                name: s.name.clone(),
                track: s.track,
                start_us: s.start_us,
                dur_us: s.dur_us,
                detail: s.detail.clone(),
            })
            .collect();
        let text = doppelganger_loads::trace::chrome::export_with_spans(&[], &host_spans);
        std::fs::write(out_path, text).map_err(|e| format!("{out_path}: {e}"))?;
        out!("  chrome trace: {out_path}");
    }
    Ok(())
}

fn cmd_asm(o: &Opts) -> Result<(), String> {
    let path = o.positional.first().ok_or("asm needs a .dasm file path")?;
    let source = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let program = assemble(path, &source).map_err(|e| e.to_string())?;
    let mut b = SimBuilder::new();
    b.scheme(o.scheme)
        .address_prediction(o.ap)
        .value_prediction(o.vp);
    let report = b
        .run_program(&program, SparseMemory::new(), o.insts.max(1) * 1_000)
        .map_err(|e| e.to_string())?;
    print_report(path, &report);
    for i in 1..8 {
        let r = doppelganger_loads::Reg::new(i);
        out!("  {r} = {}", report.reg(r));
    }
    Ok(())
}

fn cmd_attack(o: &Opts) -> Result<(), String> {
    if o.secret == 0 {
        return Err("--secret must be nonzero (0 aliases the training line)".into());
    }
    let lab = SpectreV1Lab::new(o.secret);
    out!("planted secret {:#04x}", o.secret);
    for entry in &REGISTRY {
        let scheme = entry.kind;
        for ap in [false, true] {
            let (outcome, _) = lab.run(scheme, ap).map_err(|e| e.to_string())?;
            out!(
                "  {:12}{}  {}",
                scheme.name(),
                if ap { "+ap" } else { "   " },
                match outcome {
                    LeakOutcome::Leaked(v) => format!("LEAKED {v:#04x}"),
                    LeakOutcome::NoLeak => "no leak".into(),
                }
            );
        }
    }
    Ok(())
}

fn cmd_trace(o: &Opts) -> Result<(), String> {
    use doppelganger_loads::trace as tr;
    let name = o
        .workload
        .as_deref()
        .or_else(|| o.positional.first().map(String::as_str))
        .ok_or("trace needs a workload (`--workload NAME`; try `dgl suite`)")?;
    let w = by_name(name, Scale::Custom(o.insts))
        .ok_or_else(|| format!("unknown workload `{name}` (try `dgl suite`)"))?;
    let (events, report) = doppelganger_loads::pin::trace(&w, o.scheme, o.ap, o.vp)?;
    let text = match o.format.as_str() {
        "chrome" => tr::chrome::export(&events),
        "konata" => tr::konata::export(&events),
        _ => tr::jsonl::export(&events),
    };
    match &o.out {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("{path}: {e}"))?;
            out!(
                "traced {} events over {} cycles ({} instructions) -> {path}",
                events.len(),
                report.cycles,
                report.committed,
            );
        }
        None => {
            use std::io::Write as _;
            let _ = std::io::stdout().write_all(text.as_bytes());
        }
    }
    Ok(())
}

/// `dgl figures`: print one report (see [`figures`]). Rows of the
/// evaluation matrix that failed to measure are named on stderr, the
/// rest still print, and the command exits 1.
fn cmd_figures(o: &Opts) -> Result<(), String> {
    let form = match (o.json, o.csv) {
        (true, _) => Form::Json,
        (_, true) => Form::Csv,
        _ => Form::Text,
    };
    let (text, failures) =
        figures::render(&o.fig, Scale::Custom(o.insts), form, o.workload.as_deref())?;
    for failure in &failures {
        eprintln!("dgl figures: warning: {failure}");
    }
    {
        use std::io::Write as _;
        let _ = write!(std::io::stdout(), "{text}");
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!("{} workload(s) failed to measure", failures.len()))
    }
}

/// `dgl pin [FILE]`: rebuild every pinned artifact and check its hash
/// against the table, naming each cell that moved (exit 1); with
/// `--out FILE`, rewrite the table instead.
fn cmd_pin(o: &Opts) -> Result<(), String> {
    use doppelganger_loads::pin;
    if let Some(path) = &o.out {
        let cells = pin::collect()?;
        std::fs::write(path, pin::to_text(&cells)).map_err(|e| format!("{path}: {e}"))?;
        out!("pin: wrote {} cells to {path}", cells.len());
        return Ok(());
    }
    let path = o.positional.first().map_or(pin::DEFAULT_TABLE, |p| p);
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let table = pin::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let drift = pin::diff(&table, &pin::collect()?);
    for d in &drift {
        out!("  {d}");
    }
    if !drift.is_empty() {
        return Err(format!("{} cell(s) differ from {path}", drift.len()));
    }
    out!("pin: all {} cells match {path}", table.len());
    Ok(())
}

/// `dgl compare <a.json> <b.json>`: per-metric deltas between two run
/// manifests. Simulated drift beyond
/// `--max-ipc-delta` exits 1; unreadable or mismatched documents exit 2.
/// Host metrics are report-only.
fn cmd_compare(o: &Opts) -> Result<ExitCode, String> {
    use doppelganger_loads::sim::{compare, CompareOptions};
    use doppelganger_loads::stats::Json;
    let [path_a, path_b] = o.positional.as_slice() else {
        return Err("compare needs exactly two result files".into());
    };
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let a = load(path_a)?;
    let b = load(path_b)?;
    let options = CompareOptions {
        max_rel_delta: o.max_ipc_delta,
    };
    let cmp = match compare(&a, &b, options) {
        Ok(cmp) => cmp,
        Err(e) => {
            // Mismatched schemas/versions are a usage error, not drift.
            eprintln!("dgl: {e}");
            return Ok(ExitCode::from(2));
        }
    };
    if o.json {
        out!("{}", cmp.to_json().to_string_pretty());
    } else {
        out!("{}", cmp.render());
    }
    Ok(if cmp.has_drift() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// `dgl serve`: run the batch simulation service over stdin (default)
/// or a TCP socket, sharing one checkpoint store across every worker
/// and connection.
fn cmd_serve(o: &Opts) -> Result<(), String> {
    use doppelganger_loads::sim::serve::{serve_lines_with, serve_tcp_with, ServeOptions};
    use doppelganger_loads::sim::{spawn_metrics_listener, CheckpointStore, ServeTelemetry};
    use doppelganger_loads::stats::{log, Json};
    use std::sync::Arc;
    let store = Arc::new(match &o.ckpt_dir {
        Some(dir) => CheckpointStore::with_disk(o.store_cap, std::path::PathBuf::from(dir)),
        None => CheckpointStore::new(o.store_cap),
    });
    let telemetry = Arc::new(ServeTelemetry::new());
    if let Some(addr) = &o.metrics_listen {
        let bound = spawn_metrics_listener(addr, Arc::clone(&store), Arc::clone(&telemetry))
            .map_err(|e| format!("--metrics-listen {addr}: {e}"))?;
        log::info(
            "serve",
            "metrics listening",
            &[("addr", Json::str(bound.to_string()))],
        );
    }
    let opts = ServeOptions {
        workers: o.workers,
        queue: o.queue,
        manifest_dir: o.manifest_dir.as_ref().map(std::path::PathBuf::from),
        stats: o.stats,
        metrics_interval_ms: o.metrics_interval.map(|s| s.saturating_mul(1_000)),
        flight_recorder: o.flight_recorder,
        postmortem_dir: o.postmortem_dir.as_ref().map(std::path::PathBuf::from),
        spans: o.spans,
        allow_fault_injection: o.allow_fault_injection,
    };
    let summary = match &o.listen {
        Some(addr) => serve_tcp_with(addr, &store, &opts, o.max_conns, &telemetry),
        None => serve_lines_with(
            std::io::stdin().lock(),
            std::io::stdout(),
            &store,
            &opts,
            &telemetry,
            None,
        ),
    }
    .map_err(|e| e.to_string())?;
    log::info(
        "serve",
        "exit",
        &[
            ("jobs", Json::uint(summary.jobs)),
            ("errors", Json::uint(summary.errors)),
        ],
    );
    Ok(())
}

fn cmd_fuzz(o: &Opts) -> Result<ExitCode, String> {
    use doppelganger_loads::fuzz::{fuzz, FuzzOptions};
    let opts = FuzzOptions {
        seed: o.seed,
        iters: o.iters,
        workers: o.workers,
        corpus_dir: o.corpus.as_ref().map(std::path::PathBuf::from),
        progress_every: 50,
    };
    let summary = fuzz(&opts);
    out!(
        "dgl fuzz: {} case(s), seed {}, {:.1}s ({:.0} cases/hour)",
        summary.cases,
        o.seed,
        summary.elapsed.as_secs_f64(),
        summary.iters_per_hour()
    );
    out!(
        "  two-secret gadgets: {} ({} distinguished by the unsafe baseline)",
        summary.gadget_cases,
        summary.baseline_distinguished
    );
    if summary.gadget_cases > 0 && summary.baseline_distinguished == 0 {
        out!(
            "  WARNING: baseline never distinguished the secrets — two-secret oracle ran vacuously"
        );
    }
    if summary.bugs.is_empty() {
        out!("  divergences: none");
        return Ok(ExitCode::SUCCESS);
    }
    out!("  divergences: {}", summary.bugs.len());
    for bug in &summary.bugs {
        out!(
            "    case {} (gen seed {:#018x}): {} [{} -> {} insts]{}",
            bug.case,
            bug.gen_seed,
            bug.detail,
            bug.original_len,
            bug.minimized_len,
            bug.saved
                .as_ref()
                .map(|p| format!(" saved {}", p.display()))
                .unwrap_or_default()
        );
    }
    Ok(ExitCode::FAILURE)
}

fn main() -> ExitCode {
    // Exit-code convention: malformed flag values, unknown flags, and
    // unknown commands are usage errors and exit 2; runtime failures
    // (simulation errors, unreadable files) exit 1.
    const USAGE: u8 = 2;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!(
            "usage: dgl <suite|schemes|run|explain|asm|attack|figures|trace|pin|compare|serve\
             |fuzz> [options]"
        );
        return ExitCode::from(USAGE);
    };
    let o = match parse_opts(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("dgl: {e}");
            return ExitCode::from(USAGE);
        }
    };
    let result = match cmd.as_str() {
        "suite" => cmd_suite(&o).map(|()| ExitCode::SUCCESS),
        "schemes" => cmd_schemes().map(|()| ExitCode::SUCCESS),
        "run" => cmd_run(&o).map(|()| ExitCode::SUCCESS),
        "explain" => cmd_explain(&o).map(|()| ExitCode::SUCCESS),
        "asm" => cmd_asm(&o).map(|()| ExitCode::SUCCESS),
        "attack" => cmd_attack(&o).map(|()| ExitCode::SUCCESS),
        "figures" => cmd_figures(&o).map(|()| ExitCode::SUCCESS),
        "trace" => cmd_trace(&o).map(|()| ExitCode::SUCCESS),
        "pin" => cmd_pin(&o).map(|()| ExitCode::SUCCESS),
        "compare" => cmd_compare(&o),
        "serve" => cmd_serve(&o).map(|()| ExitCode::SUCCESS),
        "fuzz" => cmd_fuzz(&o),
        other => {
            eprintln!("dgl: unknown command `{other}`");
            return ExitCode::from(USAGE);
        }
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("dgl: {e}");
            ExitCode::FAILURE
        }
    }
}
