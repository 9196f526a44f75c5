//! The pin: one committed table that fixes simulated behaviour byte for
//! byte.
//!
//! Each cell names one artifact the CLI writes — a `dgl run
//! --stats-json` manifest (detailed, sampled or value-predicted), a
//! `dgl trace --format jsonl` trace, or the `dgl figures --fig all`
//! text — and records the FNV-1a hash of its bytes plus its simulated
//! IPC. [`collect`] rebuilds every artifact through the functions those
//! commands call, so a cell's hash matches the file the command writes.
//! `dgl pin` checks the table (by default [`DEFAULT_TABLE`]) and names
//! every cell that moved; `dgl pin --out FILE` rewrites it after a
//! deliberate behaviour change, and `git diff` of the table, one cell
//! per line, names the cells that change touched.

use crate::figures::{self, Form};
use crate::sim::serve::JobSpec;
use crate::sim::{CheckpointStore, SamplingConfig, SimBuilder};
use crate::stats::Json;
use crate::trace::{jsonl, SharedSink, TraceEvent, TraceSink as _};
use crate::workloads::{catalog, Scale, Workload};
use crate::{RunReport, SchemeKind, REGISTRY};
use std::collections::BTreeMap;

/// Schema identifier of a pin table.
pub const PIN_SCHEMA: &str = "dgl-pin";

/// Current pin table version.
pub const PIN_VERSION: u64 = 1;

/// The committed table `dgl pin` checks by default.
pub const DEFAULT_TABLE: &str = "baselines/bench-quick.json";

/// 64-bit FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The bytes `dgl run --stats-json` writes for a manifest.
pub fn manifest_text(doc: &Json) -> String {
    doc.to_string_pretty() + "\n"
}

/// Runs `w` with a recording trace sink, as `dgl trace` does, and
/// returns the events with the run's report.
///
/// # Errors
///
/// The simulation's error, rendered.
pub fn trace(
    w: &Workload,
    scheme: SchemeKind,
    ap: bool,
    vp: bool,
) -> Result<(Vec<TraceEvent>, RunReport), String> {
    let mut sink = SharedSink::recording();
    let report = SimBuilder::new()
        .scheme(scheme)
        .address_prediction(ap)
        .value_prediction(vp)
        .with_trace(sink.clone())
        .run_workload(w)
        .map_err(|e| e.to_string())?;
    Ok((sink.drain(), report))
}

/// The command that writes a cell's artifact.
#[derive(Debug, Clone, Copy)]
enum Artifact {
    /// `dgl run --stats-json`, detailed.
    Run(SchemeKind),
    /// `dgl run --sample --stats-json`, default sampling options.
    Sampled(SchemeKind),
    /// `dgl trace --format jsonl --out`.
    Trace(SchemeKind),
    /// `dgl figures --fig <workload>` stdout.
    Figures,
}

/// What one cell runs.
#[derive(Debug, Clone)]
struct Key {
    artifact: Artifact,
    workload: &'static str,
    ap: bool,
    vp: bool,
    insts: u64,
}

impl Key {
    /// The cell's identity in the table: kind, workload, scheme, AP, VP
    /// and budget.
    fn to_json(&self) -> Json {
        let (kind, scheme) = match self.artifact {
            Artifact::Run(s) => ("run", s.name()),
            Artifact::Sampled(s) => ("sampled", s.name()),
            Artifact::Trace(s) => ("trace", s.name()),
            Artifact::Figures => ("figures", ""),
        };
        Json::object()
            .field("kind", Json::str(kind))
            .field("workload", Json::str(self.workload))
            .field("scheme", Json::str(scheme))
            .field("ap", Json::Bool(self.ap))
            .field("vp", Json::Bool(self.vp))
            .field("insts", Json::uint(self.insts))
    }

    /// Builds the artifact; returns its bytes and, where the run has
    /// one, its IPC.
    fn build(&self, store: &CheckpointStore) -> Result<(String, Option<f64>), String> {
        let job = |scheme, sample| JobSpec {
            id: String::new(),
            workload: self.workload.to_owned(),
            insts: self.insts,
            scheme,
            ap: self.ap,
            vp: self.vp,
            sample,
            fault: None,
        };
        let doc = match self.artifact {
            Artifact::Run(s) => job(s, None).run(store)?,
            // The pool is the parallel axis; window threads never change
            // the result.
            Artifact::Sampled(s) => {
                let cfg = SamplingConfig {
                    threads: 1,
                    ..SamplingConfig::default()
                };
                job(s, Some(cfg)).run(store)?
            }
            Artifact::Trace(s) => {
                let w = store
                    .workload(self.workload, self.insts)
                    .ok_or("unknown workload")?;
                let (events, report) = trace(&w, s, self.ap, self.vp)?;
                return Ok((jsonl::export(&events), Some(report.ipc())));
            }
            Artifact::Figures => {
                let scale = Scale::Custom(self.insts);
                let (text, failures) = figures::render(self.workload, scale, Form::Text, None)?;
                return match failures.first() {
                    Some(f) => Err(f.to_string()),
                    None => Ok((text, None)),
                };
            }
        };
        Ok((manifest_text(&doc), doc.get("ipc").and_then(Json::as_f64)))
    }
}

/// Every cell of the pin, in table order:
///
/// * each workload × each registered scheme × AP off/on, detailed,
///   10 000 instructions;
/// * each workload × {NDA-P, DoM} × AP off/on, sampled, 60 000;
/// * each workload under DoM with value prediction, 10 000;
/// * `mcf_like` and `hmmer_like` × each scheme with AP, jsonl traces,
///   3 000;
/// * the text of every paper figure at 2 000.
fn keys() -> Vec<Key> {
    let key = |artifact, workload, ap, vp, insts| Key {
        artifact,
        workload,
        ap,
        vp,
        insts,
    };
    let names = || catalog().iter().map(|spec| spec.name);
    let schemes = || REGISTRY.iter().map(|e| e.kind);
    let mut keys = Vec::new();
    for w in names() {
        for s in schemes() {
            keys.push(key(Artifact::Run(s), w, false, false, 10_000));
            keys.push(key(Artifact::Run(s), w, true, false, 10_000));
        }
    }
    for w in names() {
        for s in [SchemeKind::NdaP, SchemeKind::DoM] {
            keys.push(key(Artifact::Sampled(s), w, false, false, 60_000));
            keys.push(key(Artifact::Sampled(s), w, true, false, 60_000));
        }
    }
    keys.extend(names().map(|w| key(Artifact::Run(SchemeKind::DoM), w, false, true, 10_000)));
    for w in ["mcf_like", "hmmer_like"] {
        keys.extend(schemes().map(|s| key(Artifact::Trace(s), w, true, false, 3_000)));
    }
    keys.push(key(Artifact::Figures, "all", false, false, 2_000));
    keys
}

/// Builds every cell on one worker per core, sharing one checkpoint
/// store: each cell's identity plus its `fnv1a` hash and `ipc`.
///
/// # Errors
///
/// The first cell, in table order, whose artifact could not be built,
/// named with the error.
pub fn collect() -> Result<Vec<Json>, String> {
    let store = CheckpointStore::new(64);
    crate::par_map(&keys(), |key| {
        let (bytes, ipc) = key
            .build(&store)
            .map_err(|e| format!("{}: {e}", key.to_json()))?;
        let hash = format!("{:016x}", fnv1a(bytes.as_bytes()));
        let cell = key.to_json().field("fnv1a", Json::str(hash));
        Ok(match ipc {
            Some(ipc) => cell.field("ipc", Json::num(ipc)),
            None => cell,
        })
    })
    .into_iter()
    .collect()
}

/// Renders a table: the schema header, then one cell per line, so a
/// `git diff` of two tables lists exactly the cells that moved.
pub fn to_text(cells: &[Json]) -> String {
    let lines: Vec<String> = cells.iter().map(Json::to_string).collect();
    format!(
        "{{\"schema\":\"{PIN_SCHEMA}\",\"version\":{PIN_VERSION},\"cells\":[\n{}\n]}}\n",
        lines.join(",\n")
    )
}

/// Parses a table written by [`to_text`] into its cells.
///
/// # Errors
///
/// Names the schema or version when either is wrong.
pub fn parse(text: &str) -> Result<Vec<Json>, String> {
    let doc = Json::parse(text)?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(PIN_SCHEMA) => {}
        other => return Err(format!("not a {PIN_SCHEMA} table (schema = {other:?})")),
    }
    match doc.get("version").and_then(Json::as_u64) {
        Some(PIN_VERSION) => {}
        other => return Err(format!("unsupported {PIN_SCHEMA} version {other:?}")),
    }
    doc.get("cells")
        .and_then(Json::as_array)
        .map(<[Json]>::to_vec)
        .ok_or_else(|| "table lacks a `cells` array".to_owned())
}

/// Cells by identity: every field but `fnv1a` and `ipc`, rendered.
fn index(cells: &[Json]) -> BTreeMap<String, &Json> {
    cells
        .iter()
        .map(|cell| {
            let key = cell.entries().unwrap_or_default().iter();
            let key = key.filter(|(k, _)| k != "fnv1a" && k != "ipc").cloned();
            (Json::Obj(key.collect()).to_string(), cell)
        })
        .collect()
}

/// One line per cell that differs between `table` and `fresh`: a
/// changed hash (with the IPC delta), a cell the table lacks, or a
/// table cell the code no longer builds.
pub fn diff(table: &[Json], fresh: &[Json]) -> Vec<String> {
    let (table, fresh) = (index(table), index(fresh));
    let ipc = |cell: &Json| cell.get("ipc").and_then(Json::as_f64);
    let mut lines = Vec::new();
    for (key, t) in &table {
        match fresh.get(key) {
            None => lines.push(format!("extra    {key}: no longer built")),
            Some(f) if f.get("fnv1a") != t.get("fnv1a") => lines.push(match (ipc(t), ipc(f)) {
                (Some(a), Some(b)) => {
                    format!("changed  {key}: IPC {a:.4} -> {b:.4} ({:+.4})", b - a)
                }
                _ => format!("changed  {key}"),
            }),
            Some(_) => {}
        }
    }
    let missing = fresh.keys().filter(|key| !table.contains_key(*key));
    lines.extend(missing.map(|key| format!("missing  {key}: not in the table")));
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The table's `i`th cell with the given hash and IPC.
    fn cell(i: usize, hash: &str, ipc: f64) -> Json {
        let key = keys()[i].to_json();
        key.field("fnv1a", Json::str(hash))
            .field("ipc", Json::num(ipc))
    }

    fn table() -> Vec<Json> {
        (0..3).map(|i| cell(i, "01", 1.25)).collect()
    }

    #[test]
    fn a_table_round_trips_one_cell_per_line() {
        let text = to_text(&table());
        assert_eq!(text.lines().count(), table().len() + 2);
        assert_eq!(parse(&text).unwrap(), table());
        assert!(diff(&table(), &parse(&text).unwrap()).is_empty());
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c, "the FNV-1a test vector");
    }

    #[test]
    fn a_flipped_hash_names_its_cell_and_ipc_delta() {
        let mut fresh = table();
        fresh[1] = cell(1, "ff", 1.5);
        let drift = diff(&table(), &fresh);
        assert_eq!(drift.len(), 1, "{drift:?}");
        assert!(drift[0].starts_with("changed"), "{drift:?}");
        assert!(drift[0].contains(r#""workload":"bzip2_like","scheme":"baseline","ap":true"#));
        assert!(
            drift[0].contains("IPC 1.2500 -> 1.5000 (+0.2500)"),
            "{drift:?}"
        );
    }

    #[test]
    fn a_cell_missing_from_the_table_is_named() {
        let mut t = table();
        t.remove(2);
        let drift = diff(&t, &table());
        assert_eq!(drift.len(), 1, "{drift:?}");
        assert!(drift[0].starts_with("missing"), "{drift:?}");
        assert!(drift[0].contains(r#""workload":"bzip2_like","scheme":"nda-p","ap":false"#));
    }

    #[test]
    fn an_extra_table_cell_is_named() {
        let mut fresh = table();
        fresh.remove(0);
        let drift = diff(&table(), &fresh);
        assert_eq!(drift.len(), 1, "{drift:?}");
        assert!(drift[0].starts_with("extra"), "{drift:?}");
        assert!(drift[0].contains(r#""workload":"bzip2_like","scheme":"baseline","ap":false"#));
    }

    #[test]
    fn a_wrong_schema_or_version_is_an_error() {
        let text = to_text(&table());
        let err = parse(&text.replace(PIN_SCHEMA, "dgl-bench-trajectory")).unwrap_err();
        assert!(err.contains("dgl-bench-trajectory"), "{err}");
        let err = parse(&text.replace("\"version\":1", "\"version\":2")).unwrap_err();
        assert!(err.contains("version Some(2)"), "{err}");
    }
}
