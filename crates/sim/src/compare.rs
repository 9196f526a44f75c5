//! Run-to-run diffing with regression gates: `dgl compare`.
//!
//! Takes two machine-readable result documents — [`run
//! manifests`](crate::manifest) or `dgl serve` stats documents —
//! flattens every numeric leaf into a [`MetricsRegistry`] under its
//! dotted JSON path, and reports per-metric absolute and relative
//! deltas. Simulated metrics gate: any relative move beyond the
//! configured threshold (default 0 — the matrix is supposed to be
//! byte-identical run to run) makes [`Comparison::has_drift`] true and
//! the CLI exit nonzero. Everything under a `host` object (wall-clock,
//! KIPS, stage profiles) is machine-dependent and reports without
//! gating.
//!
//! String leaves outside `host` are identity: a changed workload name,
//! scheme label, or schema field is reported as a mismatch and gates
//! like a drifted metric (comparing results of two different
//! experiments should fail loudly, not diff meaningless numbers).

use dgl_stats::{Json, Metric, MetricsRegistry};
use std::collections::BTreeMap;

/// Gate configuration for [`compare`].
#[derive(Debug, Clone, Copy)]
pub struct CompareOptions {
    /// Maximum allowed relative delta (`|b - a| / |a|`) for a
    /// *simulated* metric before the comparison counts as drift. The
    /// default 0 demands byte-identical simulated results. A metric
    /// appearing on only one side always drifts. Host metrics never
    /// gate.
    pub max_rel_delta: f64,
}

impl Default for CompareOptions {
    fn default() -> Self {
        Self { max_rel_delta: 0.0 }
    }
}

/// One metric's movement between the two documents.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Dotted JSON path (`metrics.core.cycles`, `figure6.gmean.dom+ap`,
    /// `rows[3].configs.stt.ipc`, ...).
    pub name: String,
    /// Value in the first document (`None` when the metric is new).
    pub a: Option<f64>,
    /// Value in the second document (`None` when it disappeared).
    pub b: Option<f64>,
    /// Whether the path lies under a `host` object (report-only).
    pub host: bool,
}

impl MetricDelta {
    /// Signed absolute delta `b - a` (missing sides count as 0).
    pub fn delta(&self) -> f64 {
        self.b.unwrap_or(0.0) - self.a.unwrap_or(0.0)
    }

    /// Relative delta `|b - a| / |a|`; infinite when `a` is 0 (or
    /// absent) and the value moved.
    pub fn rel(&self) -> f64 {
        let d = self.delta().abs();
        match self.a {
            Some(a) if a != 0.0 => d / a.abs(),
            _ if d == 0.0 => 0.0,
            _ => f64::INFINITY,
        }
    }
}

/// A changed identity (string) field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdentityMismatch {
    /// Dotted JSON path.
    pub name: String,
    /// Value in the first document (`None` when absent).
    pub a: Option<String>,
    /// Value in the second document (`None` when absent).
    pub b: Option<String>,
}

/// The result of comparing two documents.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Shared schema of the two documents.
    pub schema: String,
    /// Total numeric metrics compared (union of both sides).
    pub compared: usize,
    /// Metrics that moved, sorted by descending relative delta (ties
    /// by descending absolute delta, then name).
    pub deltas: Vec<MetricDelta>,
    /// Identity fields that differ.
    pub identity: Vec<IdentityMismatch>,
    /// The gate the comparison ran under.
    pub options: CompareOptions,
}

/// Flattened numeric and string leaves of one document.
struct Flat {
    metrics: MetricsRegistry,
    host: BTreeMap<String, bool>,
    strings: BTreeMap<String, String>,
}

fn flatten(doc: &Json) -> Flat {
    let mut flat = Flat {
        metrics: MetricsRegistry::new(),
        host: BTreeMap::new(),
        strings: BTreeMap::new(),
    };
    walk(doc, String::new(), false, &mut flat);
    flat
}

fn walk(node: &Json, path: String, host: bool, flat: &mut Flat) {
    match node {
        Json::Null => {}
        Json::Bool(b) => {
            flat.metrics.counter(&path, u64::from(*b));
            flat.host.insert(path, host);
        }
        Json::UInt(v) => {
            flat.metrics.counter(&path, *v);
            flat.host.insert(path, host);
        }
        Json::Num(v) => {
            flat.metrics.gauge(&path, *v);
            flat.host.insert(path, host);
        }
        Json::Str(s) => {
            flat.strings.insert(path, s.clone());
        }
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                walk(item, format!("{path}[{i}]"), host, flat);
            }
        }
        Json::Obj(fields) => {
            for (key, value) in fields {
                let sub = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                // Everything under a `host` object is machine-dependent
                // (wall-clock, KIPS, profiles, git provenance): report,
                // never gate.
                walk(value, sub, host || key == "host", flat);
            }
        }
    }
}

fn as_f64(m: &Metric) -> Option<f64> {
    match m {
        Metric::Counter(v) => Some(*v as f64),
        Metric::Gauge(v) => Some(*v),
        Metric::Histogram(_) => None,
    }
}

/// Compares two parsed documents.
///
/// # Errors
///
/// When either document lacks a `schema` field or the schemas/versions
/// differ — comparing a manifest against a stats document is a usage
/// error, not drift.
pub fn compare(a: &Json, b: &Json, options: CompareOptions) -> Result<Comparison, String> {
    let schema_of = |doc: &Json, which: &str| -> Result<(String, u64), String> {
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{which} document has no `schema` field"))?;
        let version = doc
            .get("version")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{which} document has no `version` field"))?;
        Ok((schema.to_owned(), version))
    };
    let (sa, va) = schema_of(a, "first")?;
    let (sb, vb) = schema_of(b, "second")?;
    if (sa.as_str(), va) != (sb.as_str(), vb) {
        return Err(format!(
            "schema mismatch: first is `{sa}` v{va}, second is `{sb}` v{vb}"
        ));
    }

    let fa = flatten(a);
    let fb = flatten(b);

    // Both directions through MetricsRegistry::delta: counters
    // saturate at zero, so a lone direction loses decreases and a
    // metric present on one side only passes through whole. The union
    // of non-zero names in either direction is exactly the changed
    // set.
    let forward = fb.metrics.delta(&fa.metrics);
    let backward = fa.metrics.delta(&fb.metrics);
    let mut changed: Vec<&str> = Vec::new();
    for (name, m) in forward.iter().chain(backward.iter()) {
        let moved = match m {
            Metric::Counter(v) => *v != 0,
            Metric::Gauge(v) => *v != 0.0,
            Metric::Histogram(h) => h.count() != 0,
        };
        // A metric on one side only "passes through" delta even when
        // its value is 0 there; presence asymmetry is always a change.
        let one_sided = fa.metrics.get(name).is_none() != fb.metrics.get(name).is_none();
        if (moved || one_sided) && !changed.contains(&name) {
            changed.push(name);
        }
    }

    let mut deltas: Vec<MetricDelta> = changed
        .into_iter()
        .map(|name| MetricDelta {
            name: name.to_owned(),
            a: fa.metrics.get(name).and_then(as_f64),
            b: fb.metrics.get(name).and_then(as_f64),
            host: *fa
                .host
                .get(name)
                .or_else(|| fb.host.get(name))
                .unwrap_or(&false),
        })
        .collect();
    deltas.sort_by(|x, y| {
        y.rel()
            .total_cmp(&x.rel())
            .then(y.delta().abs().total_cmp(&x.delta().abs()))
            .then(x.name.cmp(&y.name))
    });

    let mut identity = Vec::new();
    let names: Vec<&String> = fa.strings.keys().chain(fb.strings.keys()).collect();
    for name in names {
        let va = fa.strings.get(name);
        let vb = fb.strings.get(name);
        if va != vb && !identity.iter().any(|m: &IdentityMismatch| &m.name == name) {
            // Host-side strings (git SHA, hostnames) are provenance,
            // not identity.
            if name.starts_with("host.") || name.contains(".host.") {
                continue;
            }
            identity.push(IdentityMismatch {
                name: name.clone(),
                a: va.cloned(),
                b: vb.cloned(),
            });
        }
    }

    let compared = {
        let mut names: Vec<&str> = fa.metrics.iter().map(|(n, _)| n).collect();
        for (n, _) in fb.metrics.iter() {
            if fa.metrics.get(n).is_none() {
                names.push(n);
            }
        }
        names.len()
    };

    Ok(Comparison {
        schema: sa,
        compared,
        deltas,
        identity,
        options,
    })
}

impl Comparison {
    /// The simulated deltas that exceed the gate (host metrics never
    /// appear here).
    pub fn drifted(&self) -> Vec<&MetricDelta> {
        self.deltas
            .iter()
            .filter(|d| {
                // A metric present on one side only is structural
                // drift even when its value is 0 there.
                !d.host && (d.a.is_none() || d.b.is_none() || d.rel() > self.options.max_rel_delta)
            })
            .collect()
    }

    /// Whether the comparison should fail a gate: any simulated metric
    /// beyond the threshold, or any identity mismatch.
    pub fn has_drift(&self) -> bool {
        !self.identity.is_empty() || !self.drifted().is_empty()
    }

    /// Renders the human-readable delta table (sorted by descending
    /// relative delta; host rows marked report-only) plus a verdict
    /// line.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "compare: schema {} — {} metrics, {} differ, {} beyond gate (max rel delta {})",
            self.schema,
            self.compared,
            self.deltas.len(),
            self.drifted().len(),
            self.options.max_rel_delta,
        );
        for m in &self.identity {
            let _ = writeln!(
                out,
                "  identity {}: {} -> {}",
                m.name,
                m.a.as_deref().unwrap_or("<absent>"),
                m.b.as_deref().unwrap_or("<absent>"),
            );
        }
        if !self.deltas.is_empty() {
            let _ = writeln!(
                out,
                "  {:<48} {:>16} {:>16} {:>12} {:>9}",
                "metric", "a", "b", "delta", "rel"
            );
            let fmt_side = |v: Option<f64>| match v {
                Some(v) => format!("{v:.6}"),
                None => "<absent>".to_owned(),
            };
            for d in &self.deltas {
                let _ = writeln!(
                    out,
                    "  {:<48} {:>16} {:>16} {:>+12.6} {:>8.3}%{}",
                    d.name,
                    fmt_side(d.a),
                    fmt_side(d.b),
                    d.delta(),
                    100.0 * d.rel(),
                    if d.host { "  (host, report-only)" } else { "" },
                );
            }
        }
        let _ = writeln!(
            out,
            "verdict: {}",
            if self.has_drift() {
                "DRIFT — simulated results differ"
            } else if self.deltas.is_empty() {
                "IDENTICAL"
            } else {
                "OK — only host/report-only metrics moved"
            }
        );
        out
    }

    /// Exports the comparison as JSON.
    pub fn to_json(&self) -> Json {
        let mut deltas = Json::array();
        for d in &self.deltas {
            let side = |v: Option<f64>| v.map(Json::num).unwrap_or(Json::Null);
            deltas = deltas.push(
                Json::object()
                    .field("metric", Json::str(d.name.as_str()))
                    .field("a", side(d.a))
                    .field("b", side(d.b))
                    .field("delta", Json::num(d.delta()))
                    .field("rel", Json::num(d.rel()))
                    .field("host", Json::Bool(d.host)),
            );
        }
        let mut identity = Json::array();
        for m in &self.identity {
            let side = |v: &Option<String>| match v {
                Some(s) => Json::str(s.as_str()),
                None => Json::Null,
            };
            identity = identity.push(
                Json::object()
                    .field("field", Json::str(m.name.as_str()))
                    .field("a", side(&m.a))
                    .field("b", side(&m.b)),
            );
        }
        Json::object()
            .field("schema", Json::str(self.schema.as_str()))
            .field("compared", Json::uint(self.compared as u64))
            .field("max_rel_delta", Json::num(self.options.max_rel_delta))
            .field("deltas", deltas)
            .field("identity", identity)
            .field("drift", Json::Bool(self.has_drift()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(ipc: f64, cycles: u64, kips: f64) -> Json {
        Json::object()
            .field("schema", Json::str("dgl-run-manifest"))
            .field("version", Json::uint(1))
            .field("workload", Json::str("hmmer_like"))
            .field("ipc", Json::num(ipc))
            .field(
                "metrics",
                Json::object().field("core.cycles", Json::uint(cycles)),
            )
            .field("host", Json::object().field("kips", Json::num(kips)))
    }

    #[test]
    fn identical_documents_do_not_drift() {
        let a = doc(1.5, 1000, 80.0);
        let cmp = compare(&a, &a, CompareOptions::default()).unwrap();
        assert!(!cmp.has_drift());
        assert!(cmp.deltas.is_empty());
        assert!(cmp.render().contains("IDENTICAL"));
    }

    #[test]
    fn host_only_movement_reports_but_does_not_gate() {
        let a = doc(1.5, 1000, 80.0);
        let b = doc(1.5, 1000, 95.0);
        let cmp = compare(&a, &b, CompareOptions::default()).unwrap();
        assert!(!cmp.has_drift(), "host kips must not gate");
        assert_eq!(cmp.deltas.len(), 1);
        assert!(cmp.deltas[0].host);
        assert!(cmp.render().contains("report-only"));
    }

    #[test]
    fn simulated_movement_gates_in_both_directions() {
        let a = doc(1.5, 1000, 80.0);
        let b = doc(1.5, 900, 80.0); // counter *decrease*: saturating
                                     // delta would hide this one-way
        let cmp = compare(&a, &b, CompareOptions::default()).unwrap();
        assert!(cmp.has_drift());
        let drifted = cmp.drifted();
        assert_eq!(drifted.len(), 1);
        assert_eq!(drifted[0].name, "metrics.core.cycles");
        assert_eq!(drifted[0].delta(), -100.0);
    }

    #[test]
    fn threshold_tolerates_small_relative_moves() {
        let a = doc(1.50, 1000, 80.0);
        let b = doc(1.51, 1000, 80.0);
        let strict = compare(&a, &b, CompareOptions::default()).unwrap();
        assert!(strict.has_drift());
        let loose = compare(
            &a,
            &b,
            CompareOptions {
                max_rel_delta: 0.05,
            },
        )
        .unwrap();
        assert!(!loose.has_drift());
        assert_eq!(loose.deltas.len(), 1, "still reported, just not gated");
    }

    #[test]
    fn one_sided_metrics_always_drift() {
        let a = doc(1.5, 1000, 80.0);
        let mut fields = match a.clone() {
            Json::Obj(f) => f,
            _ => unreachable!(),
        };
        fields.push(("extra".to_owned(), Json::uint(0)));
        let b = Json::Obj(fields);
        let cmp = compare(&a, &b, CompareOptions::default()).unwrap();
        assert!(cmp.has_drift(), "added metric (even zero) is drift");
        assert!(cmp
            .deltas
            .iter()
            .any(|d| d.name == "extra" && d.a.is_none()));
    }

    #[test]
    fn cpi_section_movement_gates() {
        let with_cpi = |commit: u64| match doc(1.5, 1000, 80.0) {
            Json::Obj(f) => Json::Obj(f).field(
                "cpi",
                Json::object()
                    .field("schema", Json::str("dgl-cpi"))
                    .field("cycles", Json::uint(1000))
                    .field(
                        "components",
                        Json::object().field("commit", Json::uint(commit)),
                    ),
            ),
            _ => unreachable!(),
        };
        let a = with_cpi(600);
        let b = with_cpi(590);
        let cmp = compare(&a, &b, CompareOptions::default()).unwrap();
        assert!(cmp.has_drift(), "cpi components are simulated-side");
        assert!(cmp
            .drifted()
            .iter()
            .any(|d| d.name == "cpi.components.commit"));
        // Accounting on one side only is structural drift, not noise.
        let off = doc(1.5, 1000, 80.0).field("cpi", Json::Null);
        let cmp = compare(&a, &off, CompareOptions::default()).unwrap();
        assert!(cmp.has_drift(), "one-sided cpi section must gate");
    }

    #[test]
    fn identity_mismatch_gates() {
        let a = doc(1.5, 1000, 80.0);
        let b = match doc(1.5, 1000, 80.0) {
            Json::Obj(mut f) => {
                if let Some((_, v)) = f.iter_mut().find(|(k, _)| k == "workload") {
                    *v = Json::str("mcf_like");
                }
                Json::Obj(f)
            }
            _ => unreachable!(),
        };
        let cmp = compare(&a, &b, CompareOptions::default()).unwrap();
        assert!(cmp.has_drift());
        assert_eq!(cmp.identity.len(), 1);
        assert!(cmp.render().contains("identity workload"));
    }

    #[test]
    fn schema_mismatch_is_an_error_not_drift() {
        let a = doc(1.5, 1000, 80.0);
        let b = Json::object()
            .field("schema", Json::str("dgl-bench-trajectory"))
            .field("version", Json::uint(1));
        let err = compare(&a, &b, CompareOptions::default()).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
    }

    #[test]
    fn comparison_json_round_trips() {
        let a = doc(1.5, 1000, 80.0);
        let b = doc(1.6, 1100, 90.0);
        let cmp = compare(&a, &b, CompareOptions::default()).unwrap();
        let text = cmp.to_json().to_string_pretty();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.get("drift"), Some(&Json::Bool(true)));
        assert!(back.get("deltas").and_then(Json::as_array).unwrap().len() >= 3);
    }
}
