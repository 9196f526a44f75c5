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

use crate::sim::experiments::{MatrixRow, RowFailure};
use crate::sim::{
    figure1_from, figure6_from, figure7_from, BuiltSuite, CheckpointStore, ConfigId, Evaluation,
    Figure8, SamplingConfig, SimBuilder,
};
use crate::stats::{geomean, Align, Table};
use crate::workloads::{by_name, suite, Scale};
use crate::{CoreConfig, REGISTRY};
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
/// render the rest; every other report fails as a whole). A sweep
/// builds the suite once and runs every one of its matrices on it.
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
        "ablation" => ablation(&BuiltSuite::build(scale))?,
        "vp" => motivation_vp(&BuiltSuite::build(scale))?,
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
    let mut eval =
        Evaluation::run(&SimBuilder::new(), scale, configs).map_err(|e| e.to_string())?;
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

/// The matrix behind one row of a sweep. Unlike the paper's figures, a
/// sweep fails as a whole, on its first failed row.
fn whole(eval: Result<Evaluation, RowFailure>) -> Result<Evaluation, String> {
    let eval = eval.map_err(|f| f.to_string())?;
    match eval.failures.first() {
        Some(f) => Err(f.to_string()),
        None => Ok(eval),
    }
}

/// The baseline, then `configs`: the columns of a normalized sweep.
fn with_baseline(configs: &[ConfigId]) -> Vec<ConfigId> {
    [&[ConfigId::Baseline], configs].concat()
}

/// The baseline and `configs` over `suite` on the core `cfg`.
fn on_core(
    cfg: CoreConfig,
    suite: &BuiltSuite,
    configs: &[ConfigId],
) -> Result<Evaluation, String> {
    whole(Evaluation::run_on(
        SimBuilder::new().config(cfg),
        suite,
        &with_baseline(configs),
    ))
}

/// The row of workload `name` in `eval`: the single-workload columns
/// of ablations 2, 4 and 5.
fn row<'a>(eval: &'a Evaluation, name: &str) -> Result<&'a MatrixRow, String> {
    eval.rows
        .iter()
        .find(|r| r.workload == name)
        .ok_or_else(|| format!("unknown workload `{name}`"))
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

/// The ablations for the design choices DESIGN.md calls out: predictor
/// capacity, confidence threshold, DRAM bandwidth, in-flight instance
/// compensation, the stride-table update policy, and the cache
/// replacement policy.
pub fn ablation(suite: &BuiltSuite) -> Result<String, String> {
    let mut out = String::new();

    // 1. Predictor capacity: does the "free" prefetcher-sized table
    // suffice?
    let mut t = numeric_table(&["predictor entries", "nda-p+ap", "stt+ap", "dom+ap"]);
    for entries in [64usize, 256, 1024, 4096] {
        let mut cfg = CoreConfig::default();
        cfg.doppelganger.table.entries = entries;
        cfg.doppelganger.table.ways = 8.min(entries);
        let aps = [ConfigId::NdaAp, ConfigId::SttAp, ConfigId::DomAp];
        let eval = on_core(cfg, suite, &aps)?;
        let vals: Vec<f64> = aps.iter().map(|&c| eval.gmean_normalized(c)).collect();
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
        let eval = on_core(cfg, suite, &[ConfigId::DomAp])?;
        let x = row(&eval, "xalancbmk_like")?.cells[&ConfigId::DomAp];
        t.row(vec![
            format!("{thr}"),
            format!("{:.3}", eval.gmean_normalized(ConfigId::DomAp)),
            format!("{:.1}%", 100.0 * x.coverage),
            format!("{:.1}%", 100.0 * x.accuracy),
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
        let eval = on_core(cfg, suite, &[ConfigId::Dom, ConfigId::DomAp])?;
        let without = eval.gmean_normalized(ConfigId::Dom);
        let with = eval.gmean_normalized(ConfigId::DomAp);
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
        let eval = on_core(cfg, suite, &[ConfigId::SttAp])?;
        let lq = row(&eval, "libquantum_like")?;
        t.row(vec![
            format!("{rob} / {}", if comp { "compensated" } else { "plain" }),
            format!("{:.3}", eval.gmean_normalized(ConfigId::SttAp)),
            format!("{:.1}%", 100.0 * lq.cells[&ConfigId::SttAp].accuracy),
            format!("{:.3}", lq.normalized_ipc(ConfigId::SttAp)),
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
        let eval = on_core(cfg, suite, &[ConfigId::DomAp])?;
        let x = row(&eval, "xalancbmk_like")?;
        t.row(vec![
            if two_delta { "two-delta" } else { "stride" }.into(),
            format!("{:.3}", eval.gmean_normalized(ConfigId::DomAp)),
            format!("{:.1}%", 100.0 * x.cells[&ConfigId::DomAp].accuracy),
            format!("{:.3}", x.normalized_ipc(ConfigId::DomAp)),
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
        let eval = on_core(cfg, suite, &[ConfigId::Dom, ConfigId::DomAp])?;
        // Absolute baseline IPC geomean to show the policy's raw cost.
        let ipcs: Vec<f64> = eval
            .rows
            .iter()
            .map(|r| r.cells[&ConfigId::Baseline].ipc)
            .collect();
        t.row(vec![
            format!("{policy:?}"),
            format!("{:.3}", geomean(&ipcs)),
            format!("{:.3}", eval.gmean_normalized(ConfigId::Dom)),
            format!("{:.3}", eval.gmean_normalized(ConfigId::DomAp)),
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
pub fn motivation_vp(suite: &BuiltSuite) -> Result<String, String> {
    let eval = on_core(
        CoreConfig::default(),
        suite,
        &[ConfigId::Dom, ConfigId::DomAp],
    )?;
    let vp_eval = whole(Evaluation::run_on(
        SimBuilder::new().value_prediction(true),
        suite,
        &[ConfigId::Dom],
    ))?;

    let mut t = numeric_table(&[
        "benchmark",
        "dom",
        "dom+vp",
        "dom+ap",
        "vp cov",
        "vp acc",
        "vp squashes",
    ]);
    let mut vp_all = Vec::new();
    for (row, vp_row) in eval.rows.iter().zip(&vp_eval.rows) {
        let (dom, ap) = (
            row.normalized_ipc(ConfigId::Dom),
            row.normalized_ipc(ConfigId::DomAp),
        );
        // DoM+VP against the baseline without value prediction.
        let vp_cell = vp_row.cells[&ConfigId::Dom];
        let base = row.cells[&ConfigId::Baseline].ipc;
        let vp = if base > 0.0 { vp_cell.ipc / base } else { 0.0 };
        vp_all.push(vp);
        t.row(vec![
            row.workload.clone(),
            format!("{dom:.3}"),
            format!("{vp:.3}"),
            format!("{ap:.3}"),
            format!("{:.0}%", 100.0 * vp_cell.vp_coverage),
            format!("{:.0}%", 100.0 * vp_cell.vp_accuracy),
            format!("{}", vp_cell.vp_squashes),
        ]);
    }
    let dom = eval.gmean_normalized(ConfigId::Dom);
    let (vp, ap) = (geomean(&vp_all), eval.gmean_normalized(ConfigId::DomAp));
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
    let variants: Vec<ConfigId> = REGISTRY
        .iter()
        .filter(|e| e.family == "nda")
        .flat_map(|e| [ConfigId::new(e.kind, false), ConfigId::new(e.kind, true)])
        .collect();
    // One matrix, so each row builds and drops its own workload.
    let eval = whole(Evaluation::run(
        &SimBuilder::new(),
        scale,
        &with_baseline(&variants),
    ))?;

    let mut header = vec!["benchmark".to_owned()];
    header.extend(variants.iter().map(|v| v.label()));
    let mut t = numeric_table(&header);
    for row in &eval.rows {
        let values: Vec<f64> = variants.iter().map(|&v| row.normalized_ipc(v)).collect();
        t.row_f64(&row.workload, &values, 3);
    }
    let gmeans: Vec<f64> = variants.iter().map(|&v| eval.gmean_normalized(v)).collect();
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
            let mut b = SimBuilder::new();
            b.scheme(id.scheme()).address_prediction(id.ap());
            let t0 = Instant::now();
            let full = b
                .run_workload(w)
                .map_err(|e| format!("{} ({id}): {e}", w.name))?;
            let t_full = t0.elapsed().as_secs_f64();

            let t1 = Instant::now();
            let sampled = b
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
