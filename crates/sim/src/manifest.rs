//! Machine-readable run manifests.
//!
//! A manifest is a versioned JSON document capturing *everything a
//! later analysis needs* to interpret one simulation: the
//! configuration (scheme, address/value prediction), the workload and
//! its program fingerprint, the full metric set, the per-PC
//! doppelganger attribution, and the occupancy time series when
//! sampling was on.
//!
//! `seed` is [`workload_fingerprint`], FNV-1a-64 since version 2
//! (version 1 hashed it with the wrong FNV prime).
//!
//! Two invariants the tests enforce:
//!
//! * **Determinism** — a manifest is a pure function of the simulated
//!   run. Host-side quantities (wall-clock, thread counts) are never
//!   serialized, and every collection is emitted in a fixed order, so
//!   the same simulation produces byte-identical text no matter where
//!   or how (e.g. with how many worker threads) it ran.
//! * **Round-trip** — [`dgl_stats::Json::parse`] of an emitted
//!   manifest reproduces the document exactly.

use crate::experiments::ConfigId;
use crate::sampling::SampledRun;
use dgl_isa::hash::{fnv1a64, fnv1a64_continue};
use dgl_pipeline::RunReport;
use dgl_stats::Json;
use dgl_workloads::Workload;

/// Schema identifier stamped into every manifest.
pub const MANIFEST_SCHEMA: &str = "dgl-run-manifest";

/// Current schema version. Bump when the manifest layout changes
/// incompatibly or a field changes meaning; consumers must check it
/// before reading further.
pub const MANIFEST_VERSION: u64 = 2;

/// A deterministic fingerprint of a workload's program text and cycle
/// budget: [`fnv1a64`] over the name, the disassembly and the
/// little-endian `max_cycles`, in turn.
///
/// The synthetic workloads are generated from seeds baked into their
/// kernels rather than carried on the [`Workload`] struct, so the
/// manifest records this fingerprint in the `seed` role: two manifests
/// with equal fingerprints simulated the same program.
pub fn workload_fingerprint(w: &Workload) -> u64 {
    let h = fnv1a64(w.name.as_bytes());
    let h = fnv1a64_continue(h, w.program.disassemble().as_bytes());
    fnv1a64_continue(h, &w.max_cycles.to_le_bytes())
}

fn header(w: &Workload, config: ConfigId, value_prediction: bool) -> Json {
    Json::object()
        .field("schema", Json::str(MANIFEST_SCHEMA))
        .field("version", Json::uint(MANIFEST_VERSION))
        .field("config", Json::str(config.label()))
        .field("scheme", Json::str(config.scheme().name()))
        .field("address_prediction", Json::Bool(config.ap()))
        .field("value_prediction", Json::Bool(value_prediction))
        .field("workload", Json::str(w.name))
        .field("suite", Json::str(w.suite))
        .field("seed", Json::uint(workload_fingerprint(w)))
}

fn report_body(doc: Json, report: &RunReport) -> Json {
    let doc = doc
        .field("halted", Json::Bool(report.halted))
        .field("committed", Json::uint(report.committed))
        .field("cycles", Json::uint(report.cycles))
        .field("ipc", Json::num(report.ipc()))
        .field("metrics", report.metrics().to_json())
        .field("load_sites", report.load_sites.to_json());
    let doc = match &report.occupancy {
        Some(series) => doc.field("occupancy", series.to_json()),
        None => doc.field("occupancy", Json::Null),
    };
    // The cycle-loss stack lives in its own versioned section (not in
    // `metrics`); `dgl compare` gates on it when both sides carry one.
    match &report.cpi {
        Some(stack) => doc.field("cpi", stack.to_json()),
        None => doc.field("cpi", Json::Null),
    }
}

/// Builds the manifest for a whole-program detailed run.
pub fn run_manifest(
    w: &Workload,
    config: ConfigId,
    value_prediction: bool,
    report: &RunReport,
) -> Json {
    report_body(
        header(w, config, value_prediction).field("mode", Json::str("full")),
        report,
    )
}

/// Builds the stitched manifest for a sampled run: the whole-program
/// estimate plus one full metric snapshot per measurement window.
///
/// Windows are emitted in program order with their own committed /
/// cycle counts, metric sets, attribution tables, and occupancy
/// series, so the document is identical for every worker-thread count
/// ([`SamplingConfig::threads`](crate::SamplingConfig) is deliberately
/// *not* recorded).
pub fn sampled_manifest(
    w: &Workload,
    config: ConfigId,
    value_prediction: bool,
    run: &SampledRun,
) -> Json {
    let mut windows = Json::array();
    for win in &run.windows {
        windows = windows.push(report_body(
            Json::object()
                .field("index", Json::uint(win.index as u64))
                .field("checkpoint_inst", Json::uint(win.checkpoint_inst)),
            &win.report,
        ));
    }
    header(w, config, value_prediction)
        .field("mode", Json::str("sampled"))
        .field("halted", Json::Bool(run.halted))
        .field("total_insts", Json::uint(run.total_insts))
        .field("measured_insts", Json::uint(run.measured_insts()))
        .field("measured_cycles", Json::uint(run.measured_cycles()))
        .field("estimated_cycles", Json::num(run.estimated_cycles()))
        .field("ipc", Json::num(run.ipc()))
        .field(
            "sampling",
            Json::object()
                .field("interval_insts", Json::uint(run.config.interval_insts))
                .field("warmup_insts", Json::uint(run.config.warmup_insts))
                .field("window_insts", Json::uint(run.config.window_insts)),
        )
        .field("windows", windows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimBuilder;
    use dgl_core::SchemeKind;
    use dgl_workloads::{by_name, Scale};

    fn workload() -> Workload {
        by_name("hmmer_like", Scale::Custom(3_000)).unwrap()
    }

    #[test]
    fn fingerprint_is_stable_and_distinguishes_programs() {
        let w = workload();
        assert_eq!(workload_fingerprint(&w), workload_fingerprint(&w));
        let other = by_name("mcf_like", Scale::Custom(3_000)).unwrap();
        assert_ne!(workload_fingerprint(&w), workload_fingerprint(&other));
    }

    #[test]
    fn full_manifest_round_trips_and_carries_schema() {
        let w = workload();
        let mut b = SimBuilder::new();
        b.scheme(SchemeKind::DoM).address_prediction(true);
        let report = b.run_workload(&w).unwrap();
        let doc = run_manifest(&w, ConfigId::DomAp, false, &report);
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(MANIFEST_SCHEMA)
        );
        assert_eq!(doc.get("version").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("config").and_then(Json::as_str), Some("dom+ap"));
        assert!(doc.get("cycles").and_then(Json::as_u64).unwrap() > 0);
        let text = doc.to_string_pretty();
        assert_eq!(Json::parse(&text).unwrap(), doc);
        // Host wall-clock must not leak into the manifest.
        assert!(!text.contains("wall"), "manifest is host-independent");
    }

    #[test]
    fn manifest_is_deterministic_across_runs() {
        let w = workload();
        let mut b = SimBuilder::new();
        b.scheme(SchemeKind::NdaP).address_prediction(true);
        let m1 = run_manifest(&w, ConfigId::NdaAp, false, &b.run_workload(&w).unwrap())
            .to_string_pretty();
        let m2 = run_manifest(&w, ConfigId::NdaAp, false, &b.run_workload(&w).unwrap())
            .to_string_pretty();
        assert_eq!(m1, m2);
    }
}
