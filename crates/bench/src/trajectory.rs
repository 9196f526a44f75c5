//! Bench trajectory records: one schema-versioned JSON document per
//! benchmarking run, written as `BENCH_<seq>.json` at the repo root so
//! a sequence of commits leaves a machine-readable performance
//! trajectory behind.
//!
//! A record captures the quick evaluation matrix (every workload ×
//! every scheme±AP config) together with the figure-1/6/7 projections
//! built from it — per-(workload, config) simulated IPC, geomean
//! normalized IPC per scheme pair, and predictor coverage/accuracy —
//! plus workload fingerprints so two records are known to have
//! simulated the same programs.
//!
//! The record is the simulated pin: it carries no host timing. Host
//! speed is measured by `perfbench/`, which reports it per layer and
//! with a noise band. The only host-dependent fields are the git SHA
//! and working-tree dirtiness, under a top-level `"host"` object that
//! [`dgl_sim::compare()`] treats as report-only, so comparing two
//! records gates exclusively on simulated results.

use dgl_pipeline::RunError;
use dgl_sim::experiments::{
    figure1_from, figure6_from, figure7_from, ConfigId, Evaluation, Figure1, Figure6, Figure7,
};
use dgl_sim::workload_fingerprint;
use dgl_stats::Json;
use dgl_workloads::{suite, Scale};
use std::path::{Path, PathBuf};

/// Schema identifier stamped into every trajectory record.
pub const TRAJECTORY_SCHEMA: &str = "dgl-bench-trajectory";

/// Current trajectory schema version.
pub const TRAJECTORY_VERSION: u64 = 1;

/// One benchmarking run: the full evaluation matrix and its figure
/// projections.
#[derive(Debug, Clone)]
pub struct Trajectory {
    /// The full (workload × config) matrix.
    pub eval: Evaluation,
    /// Geomean normalized-IPC summary per scheme pair.
    pub figure1: Figure1,
    /// Per-benchmark normalized IPC.
    pub figure6: Figure6,
    /// Predictor coverage/accuracy.
    pub figure7: Figure7,
}

impl Trajectory {
    /// Runs the evaluation matrix (all eight configs) once and derives
    /// every figure projection from that single run.
    ///
    /// # Errors
    ///
    /// When no matrix row could be measured ([`Evaluation::run`]).
    pub fn collect(scale: Scale) -> Result<Self, RunError> {
        let eval = Evaluation::run(scale, &ConfigId::ALL)?;
        Ok(Self {
            figure1: figure1_from(&eval),
            figure6: figure6_from(&eval),
            figure7: figure7_from(&eval),
            eval,
        })
    }

    /// Builds the schema-versioned record. `git_sha` identifies the
    /// commit benchmarked (use [`git_head_sha`]) and `git_dirty`
    /// whether the working tree carried uncommitted changes on top of
    /// it (use [`git_tree_dirty`]) — without the flag, a record taken
    /// from a dirty tree would silently attribute its numbers to a
    /// commit that never produced them. Both land under `host`, so
    /// they never gate a comparison.
    pub fn to_json(&self, git_sha: &str, git_dirty: bool) -> Json {
        let mut workloads = Json::array();
        for w in suite(self.eval.scale) {
            workloads = workloads.push(
                Json::object()
                    .field("name", Json::str(w.name))
                    .field("suite", Json::str(w.suite))
                    .field("fingerprint", Json::uint(workload_fingerprint(&w))),
            );
        }
        Json::object()
            .field("schema", Json::str(TRAJECTORY_SCHEMA))
            .field("version", Json::uint(TRAJECTORY_VERSION))
            .field("scale_insts", Json::uint(self.eval.scale.target_insts()))
            .field("workloads", workloads)
            .field("figure1", self.figure1.to_json())
            .field("figure6", self.figure6.to_json())
            .field("figure7", self.figure7.to_json())
            .field("matrix", self.eval.to_json())
            .field(
                "host",
                Json::object()
                    .field("git_sha", Json::str(git_sha))
                    .field("git_dirty", Json::Bool(git_dirty)),
            )
    }
}

/// Checks that `doc` is a trajectory record this version of the tool
/// can read.
///
/// # Errors
///
/// Names the offending field when the schema identifier or version
/// does not match.
pub fn validate(doc: &Json) -> Result<(), String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some(TRAJECTORY_SCHEMA) => {}
        other => {
            return Err(format!(
                "not a {TRAJECTORY_SCHEMA} document (schema = {other:?})"
            ))
        }
    }
    match doc.get("version").and_then(Json::as_u64) {
        Some(TRAJECTORY_VERSION) => Ok(()),
        other => Err(format!(
            "unsupported {TRAJECTORY_SCHEMA} version {other:?} (tool reads v{TRAJECTORY_VERSION})"
        )),
    }
}

/// The sequence number the next record in `dir` should use: one past
/// the highest existing `BENCH_<n>.json`, starting at 1.
pub fn next_seq(dir: &Path) -> u64 {
    let mut max = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            if let Some(n) = entry.file_name().to_str().and_then(parse_seq) {
                max = max.max(n);
            }
        }
    }
    max + 1
}

fn parse_seq(name: &str) -> Option<u64> {
    name.strip_prefix("BENCH_")?
        .strip_suffix(".json")?
        .parse()
        .ok()
}

/// Writes `doc` as the next `BENCH_<seq>.json` in `dir` (created if
/// absent) and returns the path written.
///
/// # Errors
///
/// Propagates the I/O error when the directory or file cannot be
/// written.
pub fn write_record(dir: &Path, doc: &Json) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("BENCH_{}.json", next_seq(dir)));
    std::fs::write(&path, doc.to_string_pretty() + "\n")?;
    Ok(path)
}

/// The current git HEAD SHA of the working directory, or `"unknown"`
/// when git is unavailable (e.g. running from an exported tarball).
pub fn git_head_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Whether the working directory carries uncommitted changes (staged,
/// unstaged, or untracked) on top of [`git_head_sha`]. `false` when
/// git is unavailable, matching the `"unknown"` SHA fallback.
pub fn git_tree_dirty() -> bool {
    std::process::Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .is_some_and(|o| !o.stdout.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_parsing_accepts_only_bench_records() {
        assert_eq!(parse_seq("BENCH_1.json"), Some(1));
        assert_eq!(parse_seq("BENCH_42.json"), Some(42));
        assert_eq!(parse_seq("BENCH_.json"), None);
        assert_eq!(parse_seq("BENCH_7.json.bak"), None);
        assert_eq!(parse_seq("bench_7.json"), None);
        assert_eq!(parse_seq("MANIFEST_7.json"), None);
    }

    #[test]
    fn next_seq_scans_the_directory() {
        let dir = std::env::temp_dir().join(format!("dgl-traj-seq-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(next_seq(&dir), 1);
        std::fs::write(dir.join("BENCH_1.json"), "{}").unwrap();
        std::fs::write(dir.join("BENCH_3.json"), "{}").unwrap();
        std::fs::write(dir.join("notes.txt"), "").unwrap();
        assert_eq!(next_seq(&dir), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn record_validates_and_round_trips() {
        let traj = Trajectory::collect(Scale::Custom(1_000)).expect("matrix");
        assert!(traj.eval.failures.is_empty(), "{:?}", traj.eval.failures);
        let doc = traj.to_json("deadbeef", true);
        validate(&doc).expect("fresh record validates");
        assert_eq!(doc.get("scale_insts").and_then(Json::as_u64), Some(1_000));
        let host = doc.get("host").expect("host section");
        assert_eq!(host.get("git_sha").and_then(Json::as_str), Some("deadbeef"));
        assert_eq!(host.get("git_dirty"), Some(&Json::Bool(true)));
        for gone in ["kips", "prof", "wall_ms"] {
            assert!(host.get(gone).is_none(), "host.{gone} is perfbench's job");
        }
        assert!(doc.get("matrix").is_some());
        assert!(doc.get("figure6").is_some());
        let text = doc.to_string_pretty();
        assert_eq!(Json::parse(&text).unwrap(), doc);

        // With no host timing left, a back-to-back record of the same
        // tree is byte-identical, so it compares clean.
        let again = Trajectory::collect(Scale::Custom(1_000)).expect("matrix");
        let again = again.to_json("deadbeef", true);
        assert_eq!(again.to_string_pretty(), text);
        let cmp = dgl_sim::compare(&doc, &again, dgl_sim::CompareOptions::default()).unwrap();
        assert!(!cmp.has_drift(), "{}", cmp.render());

        // Wrong schema / version are named in the error.
        let bogus = Json::object().field("schema", Json::str("nope"));
        assert!(validate(&bogus).unwrap_err().contains("nope"));
        let old = Json::object()
            .field("schema", Json::str(TRAJECTORY_SCHEMA))
            .field("version", Json::uint(99));
        assert!(validate(&old).unwrap_err().contains("99"));
    }
}
