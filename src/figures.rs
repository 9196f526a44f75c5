//! Every report `dgl figures --fig NAME` prints.
//!
//! | `--fig` | reproduces |
//! |---------|------------|
//! | `1`, `6`, `7`, `8`, `all` | the paper's figures, from one evaluation matrix |
//! | `table1` | Table 1 (system configuration), from the live defaults |
//! | `ablation` | design-choice sweeps (predictor size, threshold, bandwidth, ...) |
//! | `vp` | the §2.3 motivation: DoM with value vs address prediction |
//! | `nda` | every NDA-family scheme with and without AP (extension) |
//! | `sample-error` | sampled-vs-detailed IPC error and speedup |
//!
//! [`render`] returns the exact text the command writes to stdout, so
//! [`crate::pin`] hashes the same bytes a user sees.

use crate::sim::experiments::RowFailure;
use crate::sim::{
    figure1_from, figure6_from, figure7_from, CheckpointStore, ConfigId, Evaluation, Figure8,
    SamplingConfig, SimBuilder,
};
use crate::stats::{geomean, Align, Table};
use crate::workloads::{by_name, suite, Scale, Workload};
use crate::{CoreConfig, RunReport, SchemeKind, REGISTRY};
use std::fmt::Write as _;
use std::time::Instant;

/// How a paper figure is printed: `--json` covers figures 1, 6 and 7,
/// `--csv` prints the evaluation matrix behind any of the paper's
/// figures. The other reports are text only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Form {
    /// The rendered table or chart.
    Text,
    /// The figure's JSON document.
    Json,
    /// The evaluation matrix as CSV.
    Csv,
}

/// Whether report `fig` exists in `form`: every report prints as
/// text.
pub fn has_form(fig: &str, form: Form) -> bool {
    match form {
        Form::Text => matches!(
            fig,
            "1" | "6" | "7" | "8" | "all" | "table1" | "ablation" | "vp" | "nda" | "sample-error"
        ),
        Form::Json => matches!(fig, "1" | "6" | "7"),
        Form::Csv => matches!(fig, "1" | "6" | "7" | "8" | "all"),
    }
}

/// Renders report `fig` at `scale` in `form`; `workload` restricts
/// `sample-error` to one workload. Returns stdout's text and the rows of
/// the evaluation matrix that failed to measure (the paper's figures
/// render the rest; every other report fails as a whole).
///
/// # Errors
///
/// The first failed run of a non-matrix report, an unknown `workload`,
/// or a matrix with no measurable row.
pub fn render(
    fig: &str,
    scale: Scale,
    form: Form,
    workload: Option<&str>,
) -> Result<(String, Vec<RowFailure>), String> {
    let text = match fig {
        "table1" => table1(),
        "ablation" => ablation(scale)?,
        "vp" => motivation_vp(scale)?,
        "nda" => nda_variants(scale)?,
        "sample-error" => sample_error(scale, workload)?,
        _ => return paper(fig, scale, form),
    };
    Ok((text, Vec::new()))
}

/// Figures 1, 6, 7 and 8 from one evaluation matrix. Figure 7 needs
/// only the baseline and DoM+AP columns, so `7` runs just those two
/// configurations.
fn paper(fig: &str, scale: Scale, form: Form) -> Result<(String, Vec<RowFailure>), String> {
    let configs: &[ConfigId] = if fig == "7" {
        &[ConfigId::Baseline, ConfigId::DomAp]
    } else {
        &ConfigId::ALL
    };
    let mut eval = Evaluation::run(scale, configs).map_err(|e| e.to_string())?;
    let failures = std::mem::take(&mut eval.failures);
    if form == Form::Csv {
        return Ok((eval.to_csv(), failures));
    }
    let mut out = String::new();
    let mut show = |text: String, json: crate::stats::Json| {
        let shown = if form == Form::Json {
            json.to_string_pretty()
        } else {
            text
        };
        let _ = writeln!(out, "{shown}");
    };
    let all = fig == "all";
    if all || fig == "1" {
        let f = figure1_from(&eval);
        show(f.render(), f.to_json());
    }
    if all || fig == "6" {
        let f = figure6_from(&eval);
        show(f.render(), f.to_json());
    }
    if all || fig == "7" {
        let f = figure7_from(&eval);
        show(f.render(), f.to_json());
    }
    if all || fig == "8" {
        let _ = writeln!(out, "{}", Figure8 { eval }.render());
    }
    Ok((out, failures))
}

/// Runs `w` under `scheme` (+AP per `ap`) on the core `cfg`; the error
/// names the workload and the configuration.
fn run(w: &Workload, scheme: SchemeKind, ap: bool, cfg: CoreConfig) -> Result<RunReport, String> {
    let mut b = SimBuilder::new();
    b.scheme(scheme).address_prediction(ap).config(cfg);
    b.run_workload(w)
        .map_err(|e| format!("{} ({}): {e}", w.name, ConfigId::new(scheme, ap)))
}

/// `f` over every workload of the suite at `scale` on the shared
/// worker pool; results in suite order, the error the first failure in
/// suite order.
fn over_suite<T: Send>(
    scale: Scale,
    f: impl Fn(&Workload) -> Result<T, String> + Sync,
) -> Result<Vec<T>, String> {
    crate::par_map(&suite(scale), f).into_iter().collect()
}

/// Workload names in suite order, matching [`over_suite`]'s results.
fn suite_names() -> impl Iterator<Item = &'static str> {
    crate::workloads::catalog().iter().map(|spec| spec.name)
}

/// Normalizes `ipc` to the baseline's, 0 when the baseline made no
/// progress.
fn normalized(ipc: f64, base: f64) -> f64 {
    if base > 0.0 {
        ipc / base
    } else {
        0.0
    }
}

/// A table whose columns after the first are right-aligned.
fn numeric_table<S: AsRef<str>>(header: &[S]) -> Table {
    let mut t = Table::new(header.iter().map(|h| h.as_ref().to_owned()).collect());
    for c in 1..header.len() {
        t.align(c, Align::Right);
    }
    t
}

/// Table 1: the system configuration, printed from the live defaults so
/// the table can never drift from the code.
pub fn table1() -> String {
    let c = CoreConfig::default();
    let (h, d) = (c.hierarchy, c.doppelganger);
    const MIB: usize = 1024 * 1024;
    let rows = [
        (
            "Decode width",
            format!("{} instructions", c.decode_width),
            "5 instructions",
        ),
        (
            "Issue / Commit width",
            format!("{} instructions", c.issue_width),
            "8 instructions",
        ),
        (
            "Instruction queue",
            format!("{} entries", c.iq_entries),
            "160 entries",
        ),
        (
            "Reorder buffer",
            format!("{} entries", c.rob_entries),
            "352 entries",
        ),
        (
            "Load queue",
            format!("{} entries", c.lq_entries),
            "128 entries",
        ),
        (
            "Store queue/buffer",
            format!("{} entries", c.sq_entries),
            "72 entries",
        ),
        (
            "Address predictor/prefetcher",
            format!(
                "{} entries, {}-way, {:.1} KiB",
                d.table.entries,
                d.table.ways,
                d.table.storage_bits() as f64 / 8.0 / 1024.0
            ),
            "1024 entries, 8-way, 13.5 KiB",
        ),
        (
            "L1 D cache",
            format!("{} KiB, {} ways", h.l1.size_bytes / 1024, h.l1.ways),
            "48 KiB, 12 ways",
        ),
        (
            "  access latency",
            format!("{} cycles roundtrip", h.l1.latency),
            "5 cycles",
        ),
        ("  MSHRs", format!("{}", h.mshrs), "16"),
        (
            "Private L2 cache",
            format!("{} MiB, {} ways", h.l2.size_bytes / MIB, h.l2.ways),
            "2 MiB, 8 ways",
        ),
        (
            "  access latency",
            format!("{} cycles roundtrip", h.l2.latency),
            "15 cycles",
        ),
        (
            "Shared L3 cache",
            format!("{} MiB, {} ways", h.l3.size_bytes / MIB, h.l3.ways),
            "16 MiB, 16 ways",
        ),
        (
            "  access latency",
            format!("{} cycles roundtrip", h.l3.latency),
            "40 cycles",
        ),
        (
            "Memory access time",
            format!(
                "{} cycles (~13.5 ns at the documented 2.5 GHz)",
                h.mem_latency
            ),
            "13.5 ns",
        ),
        (
            "DRAM bandwidth model",
            format!("1 line / {} cycles", h.dram_service_interval),
            "(substitution; see DESIGN.md)",
        ),
    ];
    let mut t = Table::new(vec![
        "parameter".into(),
        "value".into(),
        "paper (Table 1)".into(),
    ]);
    for (k, v, p) in rows {
        t.row(vec![k.into(), v, p.into()]);
    }
    format!("Table 1 — system configuration\n{t}\n")
}

/// Geomean normalized IPC of `scheme` (+AP per `ap`) over the suite,
/// with both it and the baseline on the core `cfg`.
fn gmean_with(scale: Scale, scheme: SchemeKind, ap: bool, cfg: CoreConfig) -> Result<f64, String> {
    let normalized = over_suite(scale, |w| {
        let base = run(w, SchemeKind::Baseline, false, cfg)?.ipc();
        Ok(normalized(run(w, scheme, ap, cfg)?.ipc(), base))
    })?;
    Ok(geomean(&normalized))
}

/// One `scheme`+AP run of `name` on the core `cfg`, with the baseline
/// IPC of the same core: the single-workload columns of ablations 2, 4
/// and 5.
fn probe(
    name: &str,
    scale: Scale,
    scheme: SchemeKind,
    cfg: CoreConfig,
) -> Result<(RunReport, f64), String> {
    let w = by_name(name, scale).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let base = run(&w, SchemeKind::Baseline, false, cfg)?.ipc();
    Ok((run(&w, scheme, true, cfg)?, base))
}

/// The ablations for the design choices DESIGN.md calls out: predictor
/// capacity, confidence threshold, DRAM bandwidth, in-flight instance
/// compensation, the stride-table update policy, and the cache
/// replacement policy.
pub fn ablation(scale: Scale) -> Result<String, String> {
    let mut out = String::new();

    // 1. Predictor capacity: does the "free" prefetcher-sized table
    // suffice?
    let mut t = numeric_table(&["predictor entries", "nda-p+ap", "stt+ap", "dom+ap"]);
    for entries in [64usize, 256, 1024, 4096] {
        let mut cfg = CoreConfig::default();
        cfg.doppelganger.table.entries = entries;
        cfg.doppelganger.table.ways = 8.min(entries);
        let vals = [SchemeKind::NdaP, SchemeKind::Stt, SchemeKind::DoM]
            .iter()
            .map(|&s| gmean_with(scale, s, true, cfg))
            .collect::<Result<Vec<f64>, String>>()?;
        t.row_f64(&format!("{entries}"), &vals, 3);
    }
    let _ = writeln!(
        out,
        "Ablation 1 — shared stride-table capacity (geomean normalized IPC)\n{t}"
    );

    // 2. Confidence threshold: eagerness vs accuracy of doppelganger
    // issue, coverage/accuracy sampled on one representative workload.
    let mut t = numeric_table(&[
        "confidence threshold",
        "dom+ap gmean",
        "dom+ap coverage",
        "dom+ap accuracy",
    ]);
    for thr in [1u8, 2, 4, 6] {
        let mut cfg = CoreConfig::default();
        cfg.doppelganger.table.confidence_threshold = thr;
        let g = gmean_with(scale, SchemeKind::DoM, true, cfg)?;
        let (rep, _) = probe("xalancbmk_like", scale, SchemeKind::DoM, cfg)?;
        t.row(vec![
            format!("{thr}"),
            format!("{g:.3}"),
            format!("{:.1}%", 100.0 * rep.ap.coverage()),
            format!("{:.1}%", 100.0 * rep.ap.accuracy()),
        ]);
    }
    let _ = writeln!(
        out,
        "Ablation 2 — confidence threshold (xalancbmk_like cov/acc)\n{t}"
    );

    // 3. DRAM bandwidth: how the substituted bandwidth model (the
    // paper's testbed does not publish one) shifts the schemes.
    let mut t = numeric_table(&["cycles per DRAM line", "dom", "dom+ap", "recovered"]);
    for interval in [1u64, 4, 8, 16] {
        let mut cfg = CoreConfig::default();
        cfg.hierarchy.dram_service_interval = interval;
        let without = gmean_with(scale, SchemeKind::DoM, false, cfg)?;
        let with = gmean_with(scale, SchemeKind::DoM, true, cfg)?;
        let rec = if without < 1.0 {
            100.0 * (with - without) / (1.0 - without)
        } else {
            0.0
        };
        t.row(vec![
            format!("{interval}"),
            format!("{without:.3}"),
            format!("{with:.3}"),
            format!("{rec:.0}%"),
        ]);
    }
    let _ = writeln!(out, "Ablation 3 — DRAM bandwidth model\n{t}");

    // 4. In-flight instance compensation (EXPERIMENTS.md deviation 1):
    // the paper's literal `last + stride` rule vs the deep-window
    // correction, across window depths.
    let mut t = numeric_table(&[
        "rob entries / rule",
        "stt+ap gmean",
        "libquantum accuracy",
        "libquantum stt+ap",
    ]);
    for (rob, comp) in [(64usize, true), (352, true), (64, false), (352, false)] {
        let mut cfg = CoreConfig::default();
        cfg.rob_entries = rob;
        cfg.iq_entries = cfg.iq_entries.min(rob);
        cfg.lq_entries = cfg.lq_entries.min(rob / 2);
        cfg.sq_entries = cfg.sq_entries.min(rob / 2);
        cfg.doppelganger.inflight_compensation = comp;
        let g = gmean_with(scale, SchemeKind::Stt, true, cfg)?;
        let (rep, base) = probe("libquantum_like", scale, SchemeKind::Stt, cfg)?;
        t.row(vec![
            format!("{rob} / {}", if comp { "compensated" } else { "plain" }),
            format!("{g:.3}"),
            format!("{:.1}%", 100.0 * rep.ap.accuracy()),
            format!("{:.3}", rep.ipc() / base),
        ]);
    }
    let _ = writeln!(
        out,
        "Ablation 4 — in-flight compensation vs the paper's plain rule\n{t}"
    );

    // 5. Update policy: plain stride vs two-delta (the paper's "more
    // advanced address predictor" future-work direction).
    let mut t = numeric_table(&[
        "update policy",
        "dom+ap gmean",
        "xalancbmk acc",
        "xalancbmk dom+ap",
    ]);
    for two_delta in [false, true] {
        let mut cfg = CoreConfig::default();
        cfg.doppelganger.table.two_delta = two_delta;
        let g = gmean_with(scale, SchemeKind::DoM, true, cfg)?;
        let (rep, base) = probe("xalancbmk_like", scale, SchemeKind::DoM, cfg)?;
        t.row(vec![
            if two_delta { "two-delta" } else { "stride" }.into(),
            format!("{g:.3}"),
            format!("{:.1}%", 100.0 * rep.ap.accuracy()),
            format!("{:.3}", rep.ipc() / base),
        ]);
    }
    let _ = writeln!(
        out,
        "Ablation 5 — stride-table update policy (future work, paper §9)\n{t}"
    );

    // 6. Cache replacement policy. The paper's gem5 uses LRU; DoM's
    // delayed replacement update is recency-defined, so alternatives
    // shift DoM more than the others.
    let mut t = numeric_table(&["replacement", "baseline ipc gmean", "dom", "dom+ap"]);
    for policy in [
        crate::mem::Replacement::Lru,
        crate::mem::Replacement::Fifo,
        crate::mem::Replacement::Random,
    ] {
        let mut cfg = CoreConfig::default();
        cfg.hierarchy.l1.replacement = policy;
        cfg.hierarchy.l2.replacement = policy;
        cfg.hierarchy.l3.replacement = policy;
        let dom = gmean_with(scale, SchemeKind::DoM, false, cfg)?;
        let dom_ap = gmean_with(scale, SchemeKind::DoM, true, cfg)?;
        // Absolute baseline IPC geomean to show the policy's raw cost.
        let ipcs = over_suite(scale, |w| {
            Ok(run(w, SchemeKind::Baseline, false, cfg)?.ipc())
        })?;
        t.row(vec![
            format!("{policy:?}"),
            format!("{:.3}", geomean(&ipcs)),
            format!("{dom:.3}"),
            format!("{dom_ap:.3}"),
        ]);
    }
    let _ = writeln!(out, "Ablation 6 — cache replacement policy\n{t}");
    Ok(out)
}

/// The paper's §2.3 motivation: DoM with **value prediction** (the
/// prior approach) recovers far less of DoM's slowdown than DoM with
/// **address prediction** (doppelganger loads), because values are
/// harder to predict than addresses and validation is effectively
/// in-order.
pub fn motivation_vp(scale: Scale) -> Result<String, String> {
    let cfg = CoreConfig::default();
    let rows = over_suite(scale, |w| {
        let base = run(w, SchemeKind::Baseline, false, cfg)?.ipc();
        let dom = run(w, SchemeKind::DoM, false, cfg)?.ipc();
        let ap = run(w, SchemeKind::DoM, true, cfg)?.ipc();
        let vp = SimBuilder::new()
            .scheme(SchemeKind::DoM)
            .value_prediction(true)
            .run_workload(w)
            .map_err(|e| format!("{} (dom+vp): {e}", w.name))?;
        let vp_ipc = normalized(vp.ipc(), base);
        Ok((normalized(dom, base), vp_ipc, normalized(ap, base), vp))
    })?;

    let mut t = numeric_table(&[
        "benchmark",
        "dom",
        "dom+vp",
        "dom+ap",
        "vp cov",
        "vp acc",
        "vp squashes",
    ]);
    let (mut dom_all, mut vp_all, mut ap_all) = (Vec::new(), Vec::new(), Vec::new());
    for (w, (dom, vp, ap, vp_rep)) in suite_names().zip(&rows) {
        dom_all.push(*dom);
        vp_all.push(*vp);
        ap_all.push(*ap);
        t.row(vec![
            w.to_owned(),
            format!("{dom:.3}"),
            format!("{vp:.3}"),
            format!("{ap:.3}"),
            format!("{:.0}%", 100.0 * vp_rep.vp.coverage()),
            format!("{:.0}%", 100.0 * vp_rep.vp.accuracy()),
            format!("{}", vp_rep.stats.vp_squashes),
        ]);
    }
    let (dom, vp, ap) = (geomean(&dom_all), geomean(&vp_all), geomean(&ap_all));
    let gmeans = [format!("{dom:.3}"), format!("{vp:.3}"), format!("{ap:.3}")];
    t.row(
        [
            vec!["GMEAN".into()],
            gmeans.to_vec(),
            vec![String::new(); 3],
        ]
        .concat(),
    );
    Ok(format!(
        "§2.3 motivation — DoM optimized with value vs address prediction\n{t}\n\
         recovery of DoM's slowdown: VP {:.0}%, AP {:.0}% (the paper's point: \
         VP \"did not yield significant improvement in MLP\")\n",
        100.0 * (vp - dom) / (1.0 - dom),
        100.0 * (ap - dom) / (1.0 - dom),
    ))
}

/// NDA strategy comparison (an extension beyond the paper's
/// evaluation): every scheme in the registry's `nda` family, with and
/// without doppelganger loads. NDA-S makes the cost of blocking ILP
/// explicit, NDA-P is the variant the paper optimizes, and NDA-P-eager
/// shows how much of the remaining gap is branch-resolution delay. The
/// variant list comes from [`REGISTRY`], so a new `nda`-family scheme
/// adds its columns here with no edits.
pub fn nda_variants(scale: Scale) -> Result<String, String> {
    let cfg = CoreConfig::default();
    let variants: Vec<ConfigId> = REGISTRY
        .iter()
        .filter(|e| e.family == "nda")
        .flat_map(|e| [ConfigId::new(e.kind, false), ConfigId::new(e.kind, true)])
        .collect();
    let rows = over_suite(scale, |w| {
        let base = run(w, SchemeKind::Baseline, false, cfg)?.ipc();
        variants
            .iter()
            .map(|v| Ok(normalized(run(w, v.scheme(), v.ap(), cfg)?.ipc(), base)))
            .collect::<Result<Vec<f64>, String>>()
    })?;

    let mut header = vec!["benchmark".to_owned()];
    header.extend(variants.iter().map(|v| v.label()));
    let mut t = numeric_table(&header);
    for (name, values) in suite_names().zip(&rows) {
        t.row_f64(name, values, 3);
    }
    let gmeans: Vec<f64> = (0..variants.len())
        .map(|i| geomean(&rows.iter().map(|r| r[i]).collect::<Vec<f64>>()))
        .collect();
    t.row_f64("GMEAN", &gmeans, 3);
    Ok(format!(
        "NDA strategies — geomean normalized IPC (baseline = 1.0)\n{t}\n\
         NDA-S pays for blocking ILP as well as MLP; the paper optimizes \
         NDA-P, and doppelganger loads recover most of that security cost.\n"
    ))
}

/// Validates the sampled-simulation methodology: every workload (or
/// just `only`) under the paper's eight configurations in full detail
/// and sampled, with the per-cell IPC error, the geomean absolute
/// error and the wall-clock speedup. The sampling interval scales with
/// the run length so about 30 windows cover the program at any scale.
///
/// Runs one cell at a time: the speedup column is host timing, and one
/// checkpoint store shared across the eight config rows of a workload
/// reports deterministic hit and miss counts.
pub fn sample_error(scale: Scale, only: Option<&str>) -> Result<String, String> {
    let workloads = match only {
        Some(name) => {
            vec![by_name(name, scale).ok_or_else(|| format!("unknown workload `{name}`"))?]
        }
        None => suite(scale),
    };
    let cfg = SamplingConfig {
        interval_insts: (scale.target_insts() / 30).max(5_000),
        warmup_insts: 1_500,
        window_insts: 500,
        ..SamplingConfig::default()
    };

    let mut out = format!(
        "{:18} {:12} {:>9} {:>9} {:>8} {:>9}\n",
        "workload", "config", "full", "sampled", "err%", "speedup"
    );
    let mut log_err_sum = 0.0f64;
    let mut cells = 0usize;
    let (mut full_secs, mut sampled_secs) = (0.0f64, 0.0f64);
    // The eight configs of a workload differ only in scheme/ap, so the
    // functional fast-forward is shared instead of redone per row
    // (results are byte-identical either way).
    let store = CheckpointStore::new(256);
    for w in &workloads {
        for id in ConfigId::ALL {
            let t0 = Instant::now();
            let full = run(w, id.scheme(), id.ap(), CoreConfig::default())?;
            let t_full = t0.elapsed().as_secs_f64();

            let t1 = Instant::now();
            let sampled = SimBuilder::new()
                .scheme(id.scheme())
                .address_prediction(id.ap())
                .run_sampled_with_store(w, &cfg, Some(&store))
                .map_err(|e| format!("{} (sampled): {e}", w.name))?;
            let t_sampled = t1.elapsed().as_secs_f64();

            let full_ipc = full.ipc();
            let sampled_ipc = sampled.ipc();
            let err = if full_ipc > 0.0 {
                (sampled_ipc - full_ipc) / full_ipc * 100.0
            } else {
                0.0
            };
            if full_ipc > 0.0 && sampled_ipc > 0.0 {
                log_err_sum += (sampled_ipc / full_ipc).ln().abs();
                cells += 1;
            }
            full_secs += t_full;
            sampled_secs += t_sampled;
            let _ = writeln!(
                out,
                "{:18} {:12} {:>9.4} {:>9.4} {:>+7.2}% {:>8.1}x",
                w.name,
                id.label(),
                full_ipc,
                sampled_ipc,
                err,
                t_full / t_sampled.max(1e-9)
            );
        }
    }
    let geomean_err = ((log_err_sum / cells.max(1) as f64).exp() - 1.0) * 100.0;
    let c = store.counters();
    let _ = writeln!(
        out,
        "\ngeomean |IPC error| {:.2}% over {} cells; aggregate wall-clock speedup {:.1}x \
         (full {:.2}s, sampled {:.2}s)",
        geomean_err,
        cells,
        full_secs / sampled_secs.max(1e-9),
        full_secs,
        sampled_secs
    );
    let _ = writeln!(
        out,
        "checkpoint store: {} hits, {} misses, {} partial hits, {} totals hits \
         ({} resident)",
        c.hits,
        c.misses,
        c.partial_hits,
        c.totals_hits,
        store.resident()
    );
    Ok(out)
}
