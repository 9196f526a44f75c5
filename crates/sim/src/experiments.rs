//! Reproduction of the paper's evaluation (Figures 1, 6, 7, 8).
//!
//! Everything is derived from one *evaluation matrix*: each suite
//! workload run under each of the eight configurations the paper
//! evaluates (§6). The figure types embed the paper's reported values
//! so reports can print paper-vs-measured side by side; absolute
//! numbers are not expected to match (different substrate, synthetic
//! workloads) but the shape — who wins, roughly by how much, where the
//! outliers are — should.

use crate::builder::SimBuilder;
use dgl_core::{SchemeKind, REGISTRY};
use dgl_pipeline::RunError;
use dgl_stats::{geomean, Align, Json, ProfRegistry, Table};
use dgl_workloads::{catalog, Scale, Workload};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// One evaluated configuration: a scheme from the scheme registry, with
/// doppelganger address prediction on or off.
///
/// The paper's eight configurations are provided as named constants
/// ([`ConfigId::Baseline`], [`ConfigId::NdaAp`], ...);
/// [`ConfigId::full_matrix`] enumerates every registered scheme — new
/// schemes added to `dgl_core::policy::REGISTRY` appear there with no
/// changes here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConfigId {
    scheme: SchemeKind,
    ap: bool,
}

#[allow(non_upper_case_globals)]
impl ConfigId {
    /// Unsafe out-of-order baseline.
    pub const Baseline: ConfigId = ConfigId::new(SchemeKind::Baseline, false);
    /// Baseline + address prediction (§7 "Unsafe Baseline + AP").
    pub const BaselineAp: ConfigId = ConfigId::new(SchemeKind::Baseline, true);
    /// NDA-P (permissive propagation).
    pub const Nda: ConfigId = ConfigId::new(SchemeKind::NdaP, false);
    /// NDA-P + doppelganger loads.
    pub const NdaAp: ConfigId = ConfigId::new(SchemeKind::NdaP, true);
    /// Speculative Taint Tracking.
    pub const Stt: ConfigId = ConfigId::new(SchemeKind::Stt, false);
    /// STT + doppelganger loads.
    pub const SttAp: ConfigId = ConfigId::new(SchemeKind::Stt, true);
    /// Delay-on-Miss.
    pub const Dom: ConfigId = ConfigId::new(SchemeKind::DoM, false);
    /// DoM + doppelganger loads.
    pub const DomAp: ConfigId = ConfigId::new(SchemeKind::DoM, true);

    /// The paper's eight configurations in presentation order (§6).
    pub const ALL: [ConfigId; 8] = [
        ConfigId::Baseline,
        ConfigId::BaselineAp,
        ConfigId::Nda,
        ConfigId::NdaAp,
        ConfigId::Stt,
        ConfigId::SttAp,
        ConfigId::Dom,
        ConfigId::DomAp,
    ];

    /// A configuration for any registered scheme.
    pub const fn new(scheme: SchemeKind, ap: bool) -> Self {
        Self { scheme, ap }
    }

    /// Every registered scheme × {AP off, AP on}, registry order. This
    /// is how extra variants (NDA-S, NDA-P-eager) enter the evaluation
    /// without touching the paper's [`ALL`](Self::ALL) matrix.
    pub fn full_matrix() -> Vec<ConfigId> {
        REGISTRY
            .iter()
            .flat_map(|e| [ConfigId::new(e.kind, false), ConfigId::new(e.kind, true)])
            .collect()
    }

    /// The underlying scheme.
    pub fn scheme(self) -> SchemeKind {
        self.scheme
    }

    /// Whether doppelganger address prediction is on.
    pub fn ap(self) -> bool {
        self.ap
    }

    /// Display label (`nda-p+ap`, ...).
    pub fn label(self) -> String {
        if self.ap {
            format!("{}+ap", self.scheme.name())
        } else {
            self.scheme.name().to_owned()
        }
    }
}

impl fmt::Display for ConfigId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Measurements from one (workload, config) run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunCell {
    /// Instructions per cycle.
    pub ipc: f64,
    /// Predictor coverage (meaningful for +AP configs).
    pub coverage: f64,
    /// Predictor accuracy (meaningful for +AP configs).
    pub accuracy: f64,
    /// L1 data-cache accesses.
    pub l1_accesses: u64,
    /// L2 accesses.
    pub l2_accesses: u64,
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
}

/// All configurations' measurements for one workload.
#[derive(Debug, Clone)]
pub struct MatrixRow {
    /// Workload name.
    pub workload: String,
    /// `2006` / `2017`.
    pub suite: &'static str,
    /// Per-configuration cells.
    pub cells: BTreeMap<ConfigId, RunCell>,
}

impl MatrixRow {
    /// IPC of a config normalized to the unsafe baseline.
    pub fn normalized_ipc(&self, cfg: ConfigId) -> f64 {
        let base = self.cells[&ConfigId::Baseline].ipc;
        if base > 0.0 {
            self.cells[&cfg].ipc / base
        } else {
            0.0
        }
    }
}

/// A workload row that could not be measured: the [`RunError`] (or
/// converted worker panic) that sank it. The rest of the matrix is
/// still collected.
#[derive(Debug, Clone)]
pub struct RowFailure {
    /// Workload name.
    pub workload: String,
    /// What went wrong.
    pub error: RunError,
}

impl fmt::Display for RowFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.workload, self.error)
    }
}

/// The full evaluation matrix.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// One row per successfully measured workload, suite order.
    pub rows: Vec<MatrixRow>,
    /// Workloads that failed (simulation error or worker panic). Empty
    /// on a healthy run.
    pub failures: Vec<RowFailure>,
    /// Scale the matrix was collected at.
    pub scale: Scale,
}

fn run_one(
    w: &Workload,
    cfg: ConfigId,
    prof: Option<&Arc<ProfRegistry>>,
    elide: bool,
) -> Result<RunCell, RunError> {
    let mut builder = SimBuilder::new();
    builder
        .scheme(cfg.scheme())
        .address_prediction(cfg.ap())
        .elision(elide);
    if let Some(reg) = prof {
        builder.profiling(Arc::clone(reg));
    }
    let report = builder.run_workload(w)?;
    let (l1, l2, _) = report.caches;
    Ok(RunCell {
        ipc: report.ipc(),
        coverage: report.ap.coverage(),
        accuracy: report.ap.accuracy(),
        l1_accesses: l1.accesses,
        l2_accesses: l2.accesses,
        cycles: report.cycles,
        committed: report.committed,
    })
}

pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_owned()
    }
}

impl Evaluation {
    /// Runs `configs` over the whole suite at `scale`, in parallel
    /// across workloads. Each workload is built **once** per matrix row
    /// and shared across all of that row's configurations.
    ///
    /// A failing row — a simulation [`RunError`] or a worker panic
    /// (converted to [`RunError::Internal`]) — lands in
    /// [`failures`](Self::failures); the remaining rows are still
    /// collected.
    ///
    /// # Errors
    ///
    /// Only when *no* row could be measured at all; the first failure
    /// is returned.
    pub fn run(scale: Scale, configs: &[ConfigId]) -> Result<Self, RunError> {
        Self::run_with_opts(scale, configs, None, true)
    }

    /// [`run`](Self::run) with optional host-side self-profiling and
    /// control over the event-driven skip-ahead kernel (`elide`).
    ///
    /// When `prof` carries a registry (built by
    /// [`dgl_pipeline::core_prof_registry`]), every core of the matrix
    /// accumulates its host time into the shared atomic slots, so one
    /// snapshot after the call profiles the whole matrix. Simulated
    /// results are byte-identical with profiling and elision each off
    /// and on — the knobs exist so `prof_identical` and
    /// `elision_identical` (and anyone debugging the kernel) can prove
    /// it.
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run).
    pub fn run_with_opts(
        scale: Scale,
        configs: &[ConfigId],
        prof: Option<Arc<ProfRegistry>>,
        elide: bool,
    ) -> Result<Self, RunError> {
        let specs = catalog();
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(specs.len());
        let results: Vec<Result<MatrixRow, RowFailure>> = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for chunk in specs.chunks(specs.len().div_ceil(threads)) {
                let prof = prof.clone();
                handles.push((
                    chunk,
                    scope.spawn(move || {
                        let prof = prof.as_ref();
                        chunk
                            .iter()
                            .map(|spec| {
                                // A panicking simulator bug poisons only
                                // this row, not the whole matrix.
                                let row =
                                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                        // Build once; every config of the
                                        // row shares the same program.
                                        let w = spec.build(scale);
                                        let mut cells = BTreeMap::new();
                                        for &cfg in configs {
                                            cells.insert(cfg, run_one(&w, cfg, prof, elide)?);
                                        }
                                        Ok(MatrixRow {
                                            workload: w.name.to_owned(),
                                            suite: w.suite,
                                            cells,
                                        })
                                    }));
                                match row {
                                    Ok(r) => r.map_err(|error| RowFailure {
                                        workload: spec.name.to_owned(),
                                        error,
                                    }),
                                    Err(payload) => Err(RowFailure {
                                        workload: spec.name.to_owned(),
                                        error: RunError::Internal {
                                            message: panic_message(payload),
                                        },
                                    }),
                                }
                            })
                            .collect::<Vec<_>>()
                    }),
                ));
            }
            handles
                .into_iter()
                .flat_map(|(chunk, h)| match h.join() {
                    Ok(rows) => rows,
                    // The catch_unwind above should make this
                    // unreachable; cover it anyway so one lost thread
                    // cannot sink the matrix.
                    Err(payload) => {
                        let message = panic_message(payload);
                        chunk
                            .iter()
                            .map(|spec| {
                                Err(RowFailure {
                                    workload: spec.name.to_owned(),
                                    error: RunError::Internal {
                                        message: message.clone(),
                                    },
                                })
                            })
                            .collect()
                    }
                })
                .collect()
        });
        let mut rows = Vec::new();
        let mut failures = Vec::new();
        for r in results {
            match r {
                Ok(row) => rows.push(row),
                Err(f) => failures.push(f),
            }
        }
        if rows.is_empty() {
            if let Some(f) = failures.first() {
                return Err(f.error.clone());
            }
        }
        Ok(Self {
            rows,
            failures,
            scale,
        })
    }

    /// Geometric-mean normalized IPC of one configuration.
    pub fn gmean_normalized(&self, cfg: ConfigId) -> f64 {
        let values: Vec<f64> = self.rows.iter().map(|r| r.normalized_ipc(cfg)).collect();
        geomean(&values)
    }

    /// Exports the matrix as CSV (one row per workload × configuration)
    /// for external plotting. Columns: workload, suite, config, ipc,
    /// normalized_ipc, coverage, accuracy, l1_accesses, l2_accesses,
    /// cycles, committed.
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from(
            "workload,suite,config,ipc,normalized_ipc,coverage,accuracy,\
             l1_accesses,l2_accesses,cycles,committed\n",
        );
        for row in &self.rows {
            for (cfg, cell) in &row.cells {
                let _ = writeln!(
                    out,
                    "{},{},{},{:.6},{:.6},{:.6},{:.6},{},{},{},{}",
                    row.workload,
                    row.suite,
                    cfg.label(),
                    cell.ipc,
                    row.normalized_ipc(*cfg),
                    cell.coverage,
                    cell.accuracy,
                    cell.l1_accesses,
                    cell.l2_accesses,
                    cell.cycles,
                    cell.committed,
                );
            }
        }
        out
    }

    /// Exports the full matrix as JSON: one object per workload with
    /// per-configuration cells (IPC, normalized IPC, predictor
    /// coverage/accuracy, cache accesses, cycles, committed), plus the
    /// failures list. Pure simulated data in fixed order, so the
    /// document is byte-identical across hosts and thread counts.
    pub fn to_json(&self) -> Json {
        let mut rows = Json::array();
        for row in &self.rows {
            let mut cells = Json::object();
            for (cfg, cell) in &row.cells {
                cells = cells.field(
                    &cfg.label(),
                    Json::object()
                        .field("ipc", Json::num(cell.ipc))
                        .field("normalized_ipc", Json::num(row.normalized_ipc(*cfg)))
                        .field("coverage", Json::num(cell.coverage))
                        .field("accuracy", Json::num(cell.accuracy))
                        .field("l1_accesses", Json::uint(cell.l1_accesses))
                        .field("l2_accesses", Json::uint(cell.l2_accesses))
                        .field("cycles", Json::uint(cell.cycles))
                        .field("committed", Json::uint(cell.committed)),
                );
            }
            rows = rows.push(
                Json::object()
                    .field("workload", Json::str(row.workload.as_str()))
                    .field("suite", Json::str(row.suite))
                    .field("configs", cells),
            );
        }
        let mut failures = Json::array();
        for f in &self.failures {
            failures = failures.push(
                Json::object()
                    .field("workload", Json::str(f.workload.as_str()))
                    .field("error", Json::str(f.error.to_string())),
            );
        }
        Json::object()
            .field("scale_insts", Json::uint(self.scale.target_insts()))
            .field("rows", rows)
            .field("failures", failures)
    }
}

/// A single line of Figure 1 / the headline claim.
#[derive(Debug, Clone, Copy)]
pub struct SchemeSummary {
    /// The scheme configuration (without AP).
    pub base_cfg: ConfigId,
    /// Measured geomean normalized IPC without AP.
    pub without_ap: f64,
    /// Measured geomean normalized IPC with AP.
    pub with_ap: f64,
    /// Paper's reported value without AP.
    pub paper_without: f64,
    /// Paper's reported value with AP.
    pub paper_with: f64,
}

impl SchemeSummary {
    /// Fraction of the slowdown recovered by AP (the paper's headline
    /// "reduce the geometric mean slowdown by 42/48/30 %").
    pub fn slowdown_reduction(&self) -> f64 {
        let before = 1.0 - self.without_ap;
        let after = 1.0 - self.with_ap;
        if before <= 0.0 {
            0.0
        } else {
            (before - after) / before
        }
    }

    /// The paper's slowdown reduction for comparison.
    pub fn paper_slowdown_reduction(&self) -> f64 {
        let before = 1.0 - self.paper_without;
        let after = 1.0 - self.paper_with;
        (before - after) / before
    }
}

/// Figure 1: headline geomean performance of the three schemes ± AP,
/// plus the baseline+AP sanity result.
#[derive(Debug, Clone)]
pub struct Figure1 {
    /// NDA-P, STT, DoM summaries.
    pub schemes: Vec<SchemeSummary>,
    /// Measured geomean of baseline+AP (paper: ≈ 1.005).
    pub baseline_ap: f64,
}

impl Figure1 {
    /// Renders a paper-vs-measured table.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "scheme".into(),
            "measured".into(),
            "measured+ap".into(),
            "slowdown cut".into(),
            "paper".into(),
            "paper+ap".into(),
            "paper cut".into(),
        ]);
        for c in 1..7 {
            t.align(c, Align::Right);
        }
        for s in &self.schemes {
            t.row(vec![
                s.base_cfg.label(),
                format!("{:.3}", s.without_ap),
                format!("{:.3}", s.with_ap),
                format!("{:.0}%", 100.0 * s.slowdown_reduction()),
                format!("{:.3}", s.paper_without),
                format!("{:.3}", s.paper_with),
                format!("{:.0}%", 100.0 * s.paper_slowdown_reduction()),
            ]);
        }
        format!(
            "Figure 1 — geomean normalized IPC (unsafe baseline = 1.0)\n{}\nbaseline+ap: {:.3} (paper: ~1.005)\n",
            t, self.baseline_ap
        )
    }

    /// Exports the figure through the shared [`Json`] builder: one
    /// object per scheme pair with measured/paper geomeans and the
    /// slowdown reduction, plus the baseline+AP sanity value. The
    /// emitter `dgl figures --fig 1 --json` prints, pretty-printed
    /// and newline-terminated.
    pub fn to_json(&self) -> Json {
        let mut schemes = Json::array();
        for s in &self.schemes {
            schemes = schemes.push(
                Json::object()
                    .field("scheme", Json::str(s.base_cfg.label()))
                    .field("without_ap", Json::num(s.without_ap))
                    .field("with_ap", Json::num(s.with_ap))
                    .field("slowdown_reduction", Json::num(s.slowdown_reduction()))
                    .field("paper_without", Json::num(s.paper_without))
                    .field("paper_with", Json::num(s.paper_with)),
            );
        }
        Json::object()
            .field("figure", Json::str("figure1"))
            .field("schemes", schemes)
            .field("baseline_ap", Json::num(self.baseline_ap))
    }
}

/// Derives Figure 1 from an existing evaluation matrix.
pub fn figure1_from(eval: &Evaluation) -> Figure1 {
    let paper = [
        (ConfigId::Nda, ConfigId::NdaAp, 0.887, 0.935),
        (ConfigId::Stt, ConfigId::SttAp, 0.905, 0.951),
        (ConfigId::Dom, ConfigId::DomAp, 0.818, 0.873),
    ];
    Figure1 {
        schemes: paper
            .iter()
            .map(|&(base, ap, pw, pa)| SchemeSummary {
                base_cfg: base,
                without_ap: eval.gmean_normalized(base),
                with_ap: eval.gmean_normalized(ap),
                paper_without: pw,
                paper_with: pa,
            })
            .collect(),
        baseline_ap: eval.gmean_normalized(ConfigId::BaselineAp),
    }
}

/// Figure 6: per-workload normalized IPC for the six secure configs.
#[derive(Debug, Clone)]
pub struct Figure6 {
    /// The matrix the figure is derived from.
    pub eval: Evaluation,
}

impl Figure6 {
    /// The configurations Figure 6 plots.
    pub const CONFIGS: [ConfigId; 6] = [
        ConfigId::Nda,
        ConfigId::NdaAp,
        ConfigId::Stt,
        ConfigId::SttAp,
        ConfigId::Dom,
        ConfigId::DomAp,
    ];

    /// Renders the per-benchmark table plus the GMEAN row.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            std::iter::once("benchmark".to_owned())
                .chain(Self::CONFIGS.iter().map(|c| c.label().to_owned()))
                .collect(),
        );
        for c in 1..=Self::CONFIGS.len() {
            t.align(c, Align::Right);
        }
        for row in &self.eval.rows {
            let values: Vec<f64> = Self::CONFIGS
                .iter()
                .map(|&c| row.normalized_ipc(c))
                .collect();
            t.row_f64(&row.workload, &values, 3);
        }
        let gmeans: Vec<f64> = Self::CONFIGS
            .iter()
            .map(|&c| self.eval.gmean_normalized(c))
            .collect();
        t.row_f64("GMEAN", &gmeans, 3);
        format!("Figure 6 — normalized IPC per benchmark (baseline = 1.0)\n{t}")
    }

    /// Exports the figure through the shared [`Json`] builder: the
    /// per-benchmark normalized-IPC matrix for the six secure configs
    /// plus the GMEAN row. The emitter for `dgl figures --fig 6
    /// --json`.
    pub fn to_json(&self) -> Json {
        let mut rows = Json::array();
        for row in &self.eval.rows {
            let mut configs = Json::object();
            for &c in &Self::CONFIGS {
                configs = configs.field(&c.label(), Json::num(row.normalized_ipc(c)));
            }
            rows = rows.push(
                Json::object()
                    .field("workload", Json::str(row.workload.as_str()))
                    .field("normalized_ipc", configs),
            );
        }
        let mut gmean = Json::object();
        for &c in &Self::CONFIGS {
            gmean = gmean.field(&c.label(), Json::num(self.eval.gmean_normalized(c)));
        }
        Json::object()
            .field("figure", Json::str("figure6"))
            .field("rows", rows)
            .field("gmean", gmean)
    }
}

/// Derives Figure 6 from an existing evaluation matrix (which must
/// contain every config in [`Figure6::CONFIGS`] plus the baseline).
pub fn figure6_from(eval: &Evaluation) -> Figure6 {
    Figure6 { eval: eval.clone() }
}

/// Figure 7: predictor coverage and accuracy per workload (DoM+AP as
/// the representative configuration, as in the paper).
#[derive(Debug, Clone)]
pub struct Figure7 {
    /// `(workload, coverage, accuracy)` rows.
    pub rows: Vec<(String, f64, f64)>,
}

impl Figure7 {
    /// Geometric-mean coverage.
    pub fn gmean_coverage(&self) -> f64 {
        geomean(&self.rows.iter().map(|r| r.1).collect::<Vec<_>>())
    }

    /// Geometric-mean accuracy.
    pub fn gmean_accuracy(&self) -> f64 {
        geomean(&self.rows.iter().map(|r| r.2).collect::<Vec<_>>())
    }

    /// Renders the coverage/accuracy table.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "benchmark".into(),
            "coverage".into(),
            "accuracy".into(),
        ]);
        t.align(1, Align::Right).align(2, Align::Right);
        for (name, cov, acc) in &self.rows {
            t.row(vec![
                name.clone(),
                format!("{:.1}%", 100.0 * cov),
                format!("{:.1}%", 100.0 * acc),
            ]);
        }
        t.row(vec![
            "GMEAN".into(),
            format!("{:.1}%", 100.0 * self.gmean_coverage()),
            format!("{:.1}%", 100.0 * self.gmean_accuracy()),
        ]);
        format!(
            "Figure 7 — address prediction under DoM+AP (paper gmean: coverage ~35%, accuracy ~90%)\n{t}"
        )
    }

    /// Exports the figure through the shared [`Json`] builder: one
    /// object per workload with predictor coverage/accuracy, plus the
    /// geomeans. The emitter `dgl figures --fig 7 --json` prints,
    /// pretty-printed.
    pub fn to_json(&self) -> Json {
        let mut rows = Json::array();
        for (name, cov, acc) in &self.rows {
            rows = rows.push(
                Json::object()
                    .field("workload", Json::str(name.as_str()))
                    .field("coverage", Json::num(*cov))
                    .field("accuracy", Json::num(*acc)),
            );
        }
        Json::object()
            .field("figure", Json::str("figure7"))
            .field("rows", rows)
            .field("gmean_coverage", Json::num(self.gmean_coverage()))
            .field("gmean_accuracy", Json::num(self.gmean_accuracy()))
    }
}

/// Derives Figure 7 from an existing evaluation matrix (which must
/// contain [`ConfigId::DomAp`]).
pub fn figure7_from(eval: &Evaluation) -> Figure7 {
    Figure7 {
        rows: eval
            .rows
            .iter()
            .map(|r| {
                let c = &r.cells[&ConfigId::DomAp];
                (r.workload.clone(), c.coverage, c.accuracy)
            })
            .collect(),
    }
}

/// Figure 8: L1 and L2 access counts of each +AP configuration,
/// normalized to the same scheme without AP.
#[derive(Debug, Clone)]
pub struct Figure8 {
    /// The matrix the figure is derived from.
    pub eval: Evaluation,
}

impl Figure8 {
    /// Scheme pairs plotted: `(without AP, with AP)`.
    pub const PAIRS: [(ConfigId, ConfigId); 3] = [
        (ConfigId::Nda, ConfigId::NdaAp),
        (ConfigId::Stt, ConfigId::SttAp),
        (ConfigId::Dom, ConfigId::DomAp),
    ];

    /// Normalized access count for a workload row at a cache level.
    /// `level` is 1 (L1) or 2 (L2).
    pub fn normalized(&self, row: &MatrixRow, pair: (ConfigId, ConfigId), level: u8) -> f64 {
        let pick = |c: &RunCell| {
            if level == 1 {
                c.l1_accesses
            } else {
                c.l2_accesses
            }
        };
        let base = pick(&row.cells[&pair.0]);
        let with = pick(&row.cells[&pair.1]);
        if base == 0 {
            // No accesses at all without AP (e.g. every load forwarded):
            // report 1.0 when AP adds none either.
            if with == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            with as f64 / base as f64
        }
    }

    /// Renders both the L1 and L2 tables.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for level in [1u8, 2u8] {
            let mut t = Table::new(
                std::iter::once("benchmark".to_owned())
                    .chain(
                        Self::PAIRS
                            .iter()
                            .map(|(_, ap)| format!("{} L{level}", ap.label())),
                    )
                    .collect(),
            );
            for c in 1..=Self::PAIRS.len() {
                t.align(c, Align::Right);
            }
            for row in &self.eval.rows {
                let values: Vec<f64> = Self::PAIRS
                    .iter()
                    .map(|&pair| self.normalized(row, pair, level))
                    .collect();
                t.row_f64(&row.workload, &values, 3);
            }
            out.push_str(&format!(
                "Figure 8 — L{level} accesses with AP, normalized to the scheme without AP\n{t}\n"
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_ids_cover_schemes() {
        assert_eq!(ConfigId::ALL.len(), 8);
        assert_eq!(ConfigId::NdaAp.scheme(), SchemeKind::NdaP);
        assert!(ConfigId::NdaAp.ap());
        assert!(!ConfigId::Nda.ap());
        assert_eq!(ConfigId::DomAp.label(), "dom+ap");
    }

    #[test]
    fn full_matrix_enumerates_the_registry() {
        let full = ConfigId::full_matrix();
        assert_eq!(full.len(), dgl_core::REGISTRY.len() * 2);
        // Every paper config is in the full matrix, plus the extra
        // registered variants.
        for cfg in ConfigId::ALL {
            assert!(full.contains(&cfg), "{cfg} missing from full matrix");
        }
        let labels: Vec<String> = full.iter().map(|c| c.label()).collect();
        assert!(labels.contains(&"nda-p-eager".to_owned()), "{labels:?}");
        assert!(labels.contains(&"nda-p-eager+ap".to_owned()));
    }

    #[test]
    fn row_failure_renders_workload_and_error() {
        let f = RowFailure {
            workload: "hmmer_like".to_owned(),
            error: RunError::Internal {
                message: "index out of bounds".to_owned(),
            },
        };
        assert_eq!(
            f.to_string(),
            "hmmer_like: internal simulator failure: index out of bounds"
        );
    }

    #[test]
    fn scheme_summary_slowdown_reduction() {
        let s = SchemeSummary {
            base_cfg: ConfigId::Nda,
            without_ap: 0.887,
            with_ap: 0.935,
            paper_without: 0.887,
            paper_with: 0.935,
        };
        assert!((s.slowdown_reduction() - 0.4248).abs() < 1e-3);
        assert!((s.paper_slowdown_reduction() - 0.4248).abs() < 1e-3);
    }

    #[test]
    fn csv_export_is_rectangular() {
        let eval = Evaluation::run(Scale::Custom(1_000), &[ConfigId::Baseline, ConfigId::DomAp])
            .expect("matrix");
        let csv = eval.to_csv();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        let cols = header.split(',').count();
        assert_eq!(cols, 11);
        let mut n = 0;
        for line in lines {
            assert_eq!(line.split(',').count(), cols, "ragged row: {line}");
            n += 1;
        }
        assert_eq!(n, eval.rows.len() * 2);
        assert!(csv.contains("dom+ap"));
    }

    #[test]
    fn tiny_evaluation_runs_and_renders() {
        // A very small matrix to keep the test fast.
        let eval = Evaluation::run(
            Scale::Custom(1_500),
            &[ConfigId::Baseline, ConfigId::Dom, ConfigId::DomAp],
        )
        .expect("matrix");
        assert_eq!(eval.rows.len(), dgl_workloads::suite(Scale::Quick).len());
        assert!(eval.failures.is_empty(), "{:?}", eval.failures);
        for row in &eval.rows {
            assert!(row.cells[&ConfigId::Baseline].ipc > 0.0, "{}", row.workload);
            assert!(
                row.normalized_ipc(ConfigId::Dom) <= 1.08,
                "{}: dom {:.3}",
                row.workload,
                row.normalized_ipc(ConfigId::Dom)
            );
        }
        let g = eval.gmean_normalized(ConfigId::Dom);
        assert!(g > 0.1 && g <= 1.05, "gmean {g}");
    }
}
