//! End-to-end tests of the `dgl` command-line interface, driving the
//! real binary via `CARGO_BIN_EXE_dgl`.

use std::process::Command;

fn dgl(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_dgl"))
        .args(args)
        .output()
        .expect("spawn dgl")
}

#[test]
fn suite_lists_all_workloads() {
    let out = dgl(&["suite"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let workloads =
        doppelganger_loads::workloads::suite(doppelganger_loads::workloads::Scale::Custom(500));
    for w in &workloads {
        assert!(text.contains(w.name), "missing {}", w.name);
    }
}

#[test]
fn schemes_lists_the_registry() {
    let out = dgl(&["schemes"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for e in &doppelganger_loads::REGISTRY {
        let name = e.kind.name();
        assert!(text.contains(name), "missing {name}");
        assert!(text.contains(e.summary), "missing summary for {name}");
    }
}

#[test]
fn run_reports_ipc_and_doppelgangers() {
    let out = dgl(&[
        "run",
        "hmmer_like",
        "--scheme",
        "stt",
        "--ap",
        "--insts",
        "3000",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("IPC"));
    assert!(text.contains("doppelgangers"));
}

#[test]
fn run_rejects_unknown_workload() {
    let out = dgl(&["run", "doom_like"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown workload"));
}

#[test]
fn attack_reports_the_leak_matrix() {
    let out = dgl(&["attack", "--secret", "0x5a", "--insts", "1000"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("LEAKED 0x5a"), "baseline must leak: {text}");
    // The matrix covers every registered scheme, including variants
    // outside the paper's 8-config evaluation.
    assert!(
        text.contains("nda-p-eager"),
        "registry drives attack: {text}"
    );
    // Every secure line reports no leak.
    for line in text.lines() {
        if line.contains("nda") || line.contains("stt") || line.contains("dom") {
            assert!(line.contains("no leak"), "line: {line}");
        }
    }
}

#[test]
fn attack_rejects_zero_secret() {
    let out = dgl(&["attack", "--secret", "0"]);
    assert!(!out.status.success());
}

#[test]
fn asm_runs_the_bundled_gcd_program() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/programs/gcd.dasm");
    let out = dgl(&["asm", path]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("r3 = 21"), "gcd(1071, 462) = 21: {text}");
}

#[test]
fn unknown_flag_and_command_fail_cleanly() {
    assert!(!dgl(&["run", "hmmer_like", "--bogus"]).status.success());
    assert!(!dgl(&["frobnicate"]).status.success());
    assert!(!dgl(&[]).status.success());
}

#[test]
fn vp_flag_reports_value_prediction() {
    let out = dgl(&[
        "run",
        "hmmer_like",
        "--scheme",
        "dom",
        "--vp",
        "--insts",
        "3000",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("value prediction"), "{text}");
}

#[test]
fn secret_flag_parses_decimal_and_hex() {
    // `0x`-prefixed = hex, bare = decimal: 90 and 0x5a are the same
    // byte; a bare 42 means forty-two (0x2a), not 0x42.
    for (arg, rendered) in [("90", "0x5a"), ("0x5a", "0x5a"), ("42", "0x2a")] {
        let out = dgl(&["attack", "--secret", arg, "--insts", "500"]);
        assert!(
            out.status.success(),
            "--secret {arg}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(
            text.contains(&format!("planted secret {rendered}")),
            "--secret {arg} must plant {rendered}: {text}"
        );
    }
    assert!(!dgl(&["attack", "--secret", "pony"]).status.success());
    assert!(!dgl(&["attack", "--secret", "0x1z"]).status.success());
}

/// The PR's acceptance bar for the tracer: on a stride-friendly kernel
/// under NDA with address prediction, the Chrome export is well-formed
/// trace-event JSON containing fetch→commit stage spans and at least
/// one complete doppelganger lifecycle (predicted → issued →
/// propagated) for a single load.
#[test]
fn trace_chrome_export_shows_full_doppelganger_lifecycles() {
    let dir = std::env::temp_dir().join("dgl-cli-trace-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("hmmer.trace.json");
    let out = dgl(&[
        "trace",
        "--workload",
        "hmmer_like",
        "--scheme",
        "nda-p",
        "--ap",
        "--insts",
        "2000",
        "--format",
        "chrome",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("traced "));
    let json = std::fs::read_to_string(&path).unwrap();
    doppelganger_loads::stats::Json::parse(&json).expect("well-formed JSON");
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.contains("\"ph\":\"X\""), "stage spans present");
    for stage in ["fetch", "decode", "issue", "writeback", "commit"] {
        assert!(
            json.contains(&format!("\"name\":\"{stage}\"")),
            "stage track `{stage}` missing"
        );
    }
    // At least one load walks the full predicted → issued → propagated
    // arc (all three events share the `dgl i<seq> <name>` label).
    let full_lifecycle = json.split("dgl i").skip(1).any(|chunk| {
        let Some(seq) = chunk.split(' ').next() else {
            return false;
        };
        chunk.starts_with(&format!("{seq} propagated"))
            && json.contains(&format!("dgl i{seq} predicted"))
            && json.contains(&format!("dgl i{seq} issued"))
    });
    assert!(
        full_lifecycle,
        "no doppelganger shows predicted→issued→propagated"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn trace_rejects_bad_format_and_missing_workload() {
    let out = dgl(&["trace", "--workload", "hmmer_like", "--format", "bogus"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad format"));
    let out = dgl(&["trace", "--format", "chrome"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("needs a workload"));
}

#[test]
fn trace_konata_and_jsonl_write_to_stdout() {
    let out = dgl(&[
        "trace",
        "--workload",
        "hmmer_like",
        "--insts",
        "500",
        "--format",
        "konata",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("Kanata\t0004"), "Konata header: {text}");
    let out = dgl(&[
        "trace",
        "--workload",
        "hmmer_like",
        "--insts",
        "500",
        "--format",
        "jsonl",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for line in text.lines().take(50) {
        doppelganger_loads::stats::Json::parse(line).expect("each line is JSON");
    }
}

#[test]
fn run_stats_json_writes_a_parseable_versioned_manifest() {
    use doppelganger_loads::stats::Json;
    let dir = std::env::temp_dir().join("dgl-cli-manifest-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.json");
    let out = dgl(&[
        "run",
        "hmmer_like",
        "--scheme",
        "dom",
        "--ap",
        "--insts",
        "3000",
        "--occupancy",
        "64",
        "--stats-json",
        path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("manifest: "));
    let text = std::fs::read_to_string(&path).unwrap();
    let doc = Json::parse(&text).expect("manifest parses");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some(doppelganger_loads::sim::MANIFEST_SCHEMA)
    );
    assert_eq!(
        doc.get("version").and_then(Json::as_u64),
        Some(doppelganger_loads::sim::MANIFEST_VERSION)
    );
    assert!(doc.get("cycles").and_then(Json::as_u64).unwrap() > 0);
    assert_eq!(doc.get("mode").and_then(Json::as_str), Some("full"));
    assert!(
        doc.get("occupancy").and_then(|o| o.get("cycle")).is_some(),
        "--occupancy puts the series in the manifest"
    );
    let _ = std::fs::remove_file(&path);

    // The sampled path writes a stitched manifest with windows.
    let path = dir.join("sampled.json");
    let out = dgl(&[
        "run",
        "hmmer_like",
        "--scheme",
        "dom",
        "--ap",
        "--insts",
        "20000",
        "--sample",
        "--sample-interval",
        "3000",
        "--sample-warmup",
        "800",
        "--sample-window",
        "400",
        "--stats-json",
        path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).unwrap();
    let doc = Json::parse(&text).expect("sampled manifest parses");
    assert_eq!(doc.get("mode").and_then(Json::as_str), Some("sampled"));
    assert!(!doc
        .get("windows")
        .and_then(Json::as_array)
        .unwrap()
        .is_empty());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn explain_prints_attribution_table_and_occupancy() {
    let out = dgl(&[
        "explain",
        "hmmer_like",
        "--scheme",
        "dom",
        "--insts",
        "8000",
        "--top",
        "5",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("dom vs dom+ap"), "{text}");
    assert!(text.contains("doppelganger speedup"), "{text}");
    assert!(text.contains("top 5 load sites"), "{text}");
    for header in ["pc", "issued", "useful", "lat p95"] {
        assert!(text.contains(header), "table header `{header}`: {text}");
    }
    assert!(text.contains("occupancy ("), "{text}");
    assert!(text.contains("rob"), "{text}");
    let out = dgl(&["explain"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("needs a workload"));
}

#[test]
fn explain_prof_prints_host_time_by_stage() {
    let out = dgl(&[
        "explain",
        "hmmer_like",
        "--scheme",
        "dom",
        "--insts",
        "3000",
        "--prof",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("host time by stage"), "{text}");
    for stage in ["fetch_decode", "issue", "commit", "mem.hierarchy"] {
        assert!(text.contains(stage), "stage `{stage}` missing: {text}");
    }
    assert!(text.contains("stages sum"), "{text}");
    // Without --prof the table must not appear.
    let out = dgl(&[
        "explain",
        "hmmer_like",
        "--scheme",
        "dom",
        "--insts",
        "3000",
    ]);
    assert!(out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("host time by stage"));
}

/// `dgl explain --cpi` renders the per-config cycle-loss stacks, the
/// per-scheme delay provenance, and the Figure-6-style overhead
/// decomposition derived from them.
#[test]
fn explain_cpi_prints_stacks_and_decomposition() {
    let out = dgl(&["explain", "mcf_like", "--cpi", "--insts", "3000"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("CPI stack by configuration"), "{text}");
    for group in ["commit", "frontend", "bad_spec", "mem", "backend", "scheme"] {
        assert!(text.contains(group), "legend group `{group}`: {text}");
    }
    for cfg in ["baseline", "baseline+ap", "nda-p", "stt", "dom", "dom+ap"] {
        assert!(text.contains(cfg), "config `{cfg}` missing: {text}");
    }
    assert!(text.contains("scheme delay provenance"), "{text}");
    assert!(text.contains("dom_delay"), "{text}");
    assert!(text.contains("doppelgangered"), "{text}");
    assert!(
        text.contains("overhead decomposition vs baseline"),
        "{text}"
    );
    assert!(text.contains("scheme share"), "{text}");
    let out = dgl(&["explain", "--cpi"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("needs a workload"));
}

/// `dgl explain --spans DIR` scans for `*.spans.json` sidecars; a
/// directory with none says what was scanned and how to record spans
/// instead of failing.
#[test]
fn explain_spans_scans_a_manifest_directory() {
    let dir = std::env::temp_dir().join("dgl-cli-spans-dir-test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = dgl(&["explain", "--spans", dir.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "an empty directory is not an error: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("no span sidecars"), "{text}");
    assert!(
        text.contains(dir.to_str().unwrap()),
        "must name the scanned directory: {text}"
    );
    assert!(
        text.contains("dgl serve --spans"),
        "must say how to record spans: {text}"
    );
    // Drop a sidecar in and the same invocation renders it.
    let sidecar = dir.join("job1.spans.json");
    std::fs::write(
        &sidecar,
        r#"{"schema":"dgl-spans","version":1,"spans":[
            {"name":"simulate","track":0,"start_us":0,"dur_us":900,"depth":0,"detail":"w=hmmer"}
        ]}"#,
    )
    .expect("write sidecar");
    let out = dgl(&["explain", "--spans", dir.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("job1.spans.json"), "{text}");
    assert!(text.contains("simulate"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `dgl figures --fig N` prints exactly what the library's figure
/// emitters derive from one evaluation matrix.
#[test]
fn figures_print_the_library_emitters() {
    use doppelganger_loads::sim::{figure1_from, figure6_from, figure7_from, ConfigId, Evaluation};
    use doppelganger_loads::stats::Json;
    use doppelganger_loads::workloads::Scale;
    let eval = Evaluation::run(Scale::Custom(800), &ConfigId::ALL).expect("matrix");
    let figures = |args: &[&str]| {
        let out = dgl(&[&["figures", "--insts", "800"], args].concat());
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf-8 stdout")
    };
    for (fig, want) in [
        ("1", figure1_from(&eval).to_json()),
        ("6", figure6_from(&eval).to_json()),
        ("7", figure7_from(&eval).to_json()),
    ] {
        let text = figures(&["--fig", fig, "--json"]);
        assert_eq!(
            Json::parse(&text).expect("--json parses"),
            want,
            "figure {fig}"
        );
    }
    let text = figures(&["--fig", "8"]);
    assert!(text.contains("Figure 8 — L1 accesses"), "{text}");
    assert!(text.contains("Figure 8 — L2 accesses"), "{text}");
    assert_eq!(figures(&["--csv"]), eval.to_csv());

    // The tables and sweeps print their library render verbatim.
    use doppelganger_loads::figures;
    assert_eq!(figures(&["--fig", "table1"]), figures::table1());
    assert_eq!(
        figures(&["--fig", "nda"]),
        figures::nda_variants(Scale::Custom(800)).expect("nda sweep")
    );
}

#[test]
fn compare_gates_on_simulated_drift_but_not_host_metrics() {
    use std::os::unix::process::ExitStatusExt as _;
    let dir = std::env::temp_dir().join("dgl-cli-compare-test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let write = |name: &str, text: &str| {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path
    };
    let a = write(
        "a.json",
        r#"{"schema": "dgl-run-manifest", "version": 1, "ipc": 0.5, "host": {"kips": 100.0}}"#,
    );
    let b = write(
        "b.json",
        r#"{"schema": "dgl-run-manifest", "version": 1, "ipc": 0.6, "host": {"kips": 900.0}}"#,
    );
    let host_only = write(
        "c.json",
        r#"{"schema": "dgl-run-manifest", "version": 1, "ipc": 0.5, "host": {"kips": 900.0}}"#,
    );
    let other_schema = write(
        "d.json",
        r#"{"schema": "dgl-serve-stats", "version": 1, "ipc": 0.5}"#,
    );

    // Simulated drift: nonzero exit, delta table names the metric.
    let out = dgl(&["compare", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "drift must exit 1");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("DRIFT"), "{text}");
    assert!(text.contains("ipc"), "{text}");

    // A loose gate admits the same move.
    let out = dgl(&[
        "compare",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--max-ipc-delta",
        "0.25",
    ]);
    assert!(out.status.success(), "20% move under a 25% gate passes");

    // Host metrics report but never gate.
    let out = dgl(&["compare", a.to_str().unwrap(), host_only.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("report-only"), "{text}");

    // --json emits a parseable document with the same verdict.
    let out = dgl(&[
        "compare",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--json",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let doc = doppelganger_loads::stats::Json::parse(&String::from_utf8_lossy(&out.stdout))
        .expect("--json output parses");
    assert_eq!(
        doc.get("drift"),
        Some(&doppelganger_loads::stats::Json::Bool(true))
    );

    // Mismatched schemas are a usage error (exit 2), not drift.
    let out = dgl(&[
        "compare",
        a.to_str().unwrap(),
        other_schema.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "schema mismatch exits 2");
    assert!(String::from_utf8_lossy(&out.stderr).contains("schema"));
    assert_eq!(out.status.signal(), None);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fuzz_smoke_is_clean_and_reports_the_seed() {
    let out = dgl(&["fuzz", "--seed", "7", "--iters", "3", "--workers", "2"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("dgl fuzz: 3 case(s), seed 7"), "{text}");
    assert!(text.contains("divergences: none"), "{text}");
}

#[test]
fn asm_runs_recursive_fibonacci() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/programs/fib_rec.dasm"
    );
    let out = dgl(&["asm", path, "--scheme", "stt", "--ap"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("r4 = 144"),
        "fib(12) = 144"
    );
}

#[test]
fn usage_errors_exit_2_and_name_the_value() {
    // Malformed flag values are usage errors: exit 2, message names
    // both the value and the flag. Runtime failures stay at exit 1.
    let cases: &[&[&str]] = &[
        &["run", "hmmer_like", "--insts", "notanumber"],
        &["run", "hmmer_like", "--sample", "--sample-interval", "x"],
        &["explain", "hmmer_like", "--top", "many"],
        &["compare", "a.json", "b.json", "--max-ipc-delta", "wat"],
        &["serve", "--workers", "several"],
        &["serve", "--metrics-interval", "0"],
        &["serve", "--metrics-listen", "nonsense"],
        &["serve", "--metrics-listen", "127.0.0.1:999999"],
        &["fuzz", "--seed", "notaseed"],
        &["fuzz", "--iters", "lots"],
        &["figures", "--fig", "5"],
        &["figures", "--fig", "8", "--json"],
        &["figures", "--fig", "table1", "--json"],
        &["figures", "--fig", "sample-error", "--csv"],
        &[
            "figures",
            "--fig",
            "sample-error",
            "--workload",
            "doom_like",
        ],
    ];
    for args in cases {
        let out = dgl(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        let err = String::from_utf8_lossy(&out.stderr);
        let (flag, value) = (args[args.len() - 2], args[args.len() - 1]);
        assert!(
            err.contains(value) && err.contains(flag),
            "{args:?} stderr must name `{value}` and {flag}: {err}"
        );
    }
    let out = dgl(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2), "unknown command exits 2");
    let out = dgl(&["run", "hmmer_like", "--frobnicate"]);
    assert_eq!(out.status.code(), Some(2), "unknown flag exits 2");
    let out = dgl(&["serve", "--stdin", "--listen", "127.0.0.1:0"]);
    assert_eq!(out.status.code(), Some(2), "conflicting transports exit 2");
    let out = dgl(&["fuzz", "--iters", "0"]);
    assert_eq!(out.status.code(), Some(2), "zero iterations exits 2");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--iters"),
        "zero-iteration error must name --iters"
    );
    let out = dgl(&["fuzz", "--corpus"]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "--corpus without a value exits 2"
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--corpus"),
        "missing-value error must name --corpus"
    );
    let out = dgl(&["run", "doom_like"]);
    assert_eq!(out.status.code(), Some(1), "runtime errors exit 1");
}

#[test]
fn serve_answers_a_deeply_nested_line_and_keeps_serving() {
    use doppelganger_loads::stats::Json;
    use std::io::Write as _;
    let batch = format!(
        "{}\n{}\n",
        "[".repeat(1_000_000),
        r#"{"schema":"dgl-serve-job","version":1,"id":"next","workload":"hmmer_like","insts":2000}"#
    );
    let mut child = Command::new(env!("CARGO_BIN_EXE_dgl"))
        .args(["serve", "--stdin"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn dgl serve");
    child
        .stdin
        .take()
        .expect("child stdin")
        .write_all(batch.as_bytes())
        .expect("write batch");
    let out = child.wait_with_output().expect("serve exits");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let docs: Vec<Json> = text
        .lines()
        .map(|l| Json::parse(l).expect("result line parses"))
        .collect();
    assert_eq!(docs.len(), 2, "{text}");
    let ok = |id: &str| {
        docs.iter()
            .find(|d| d.get("id").and_then(|s| s.as_str()) == Some(id))
            .and_then(|d| d.get("ok").cloned())
    };
    assert_eq!(ok("line-1"), Some(Json::Bool(false)), "{text}");
    assert_eq!(ok("next"), Some(Json::Bool(true)), "{text}");
}

/// A job asking for more than `MAX_JOB_INSTS` instructions is refused
/// with one error result naming the cap instead of pinning a worker.
#[test]
fn serve_refuses_a_job_over_the_instruction_cap_and_keeps_serving() {
    use doppelganger_loads::sim::serve::MAX_JOB_INSTS;
    use doppelganger_loads::stats::Json;
    use std::io::Write as _;
    let mut child = Command::new(env!("CARGO_BIN_EXE_dgl"))
        .args(["serve", "--stdin"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn dgl serve");
    child
        .stdin
        .take()
        .expect("child stdin")
        .write_all(
            b"{\"schema\":\"dgl-serve-job\",\"version\":1,\"id\":\"huge\",\
              \"workload\":\"mcf_like\",\"insts\":1000000000000}\n\
              {\"schema\":\"dgl-serve-job\",\"version\":1,\"id\":\"b\",\
              \"workload\":\"hmmer_like\",\"insts\":2000}\n",
        )
        .expect("write batch");
    let out = child.wait_with_output().expect("serve exits");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let docs: Vec<Json> = text
        .lines()
        .map(|l| Json::parse(l).expect("result line parses"))
        .collect();
    assert_eq!(docs.len(), 2, "{text}");
    let by_id = |id: &str| {
        docs.iter()
            .find(|d| d.get("id").and_then(|s| s.as_str()) == Some(id))
            .unwrap_or_else(|| panic!("no result for {id}: {text}"))
    };
    let refused = by_id("line-1");
    assert_eq!(refused.get("ok"), Some(&Json::Bool(false)), "{text}");
    let error = refused.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(error.contains(&MAX_JOB_INSTS.to_string()), "{error}");
    assert_eq!(by_id("b").get("ok"), Some(&Json::Bool(true)), "{text}");
}

#[test]
fn serve_honours_fault_injection_only_behind_its_flag() {
    use doppelganger_loads::stats::Json;
    use std::io::Write as _;
    let batch = b"{\"schema\":\"dgl-serve-job\",\"version\":1,\"id\":\"boom\",\
                  \"workload\":\"hmmer_like\",\"insts\":2000,\"fault\":\"panic\"}\n\
                  {\"schema\":\"dgl-serve-job\",\"version\":1,\"id\":\"b\",\
                  \"workload\":\"hmmer_like\",\"insts\":2000}\n";
    let serve = |extra: &[&str]| {
        let mut child = Command::new(env!("CARGO_BIN_EXE_dgl"))
            .args(["serve", "--stdin", "--workers", "1"])
            .args(extra)
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn dgl serve");
        child
            .stdin
            .take()
            .expect("child stdin")
            .write_all(batch)
            .expect("write batch");
        let out = child.wait_with_output().expect("serve exits");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        let docs: Vec<Json> = text
            .lines()
            .map(|l| Json::parse(l).expect("result line parses"))
            .collect();
        assert_eq!(docs.len(), 2, "{text}");
        docs
    };
    let result = |docs: &[Json], id: &str| {
        let doc = docs
            .iter()
            .find(|d| d.get("id").and_then(|s| s.as_str()) == Some(id))
            .unwrap_or_else(|| panic!("no result for {id}"));
        let error = doc.get("error").and_then(Json::as_str).map(str::to_owned);
        (doc.get("ok") == Some(&Json::Bool(true)), error)
    };
    // Without the flag the fault line is refused before it runs.
    let docs = serve(&[]);
    let (ok, error) = result(&docs, "line-1");
    assert!(!ok);
    assert!(error.unwrap().contains("--allow-fault-injection"));
    assert!(result(&docs, "b").0);
    // With it, the job runs and its injected panic fails only that job.
    let docs = serve(&["--allow-fault-injection"]);
    let (ok, error) = result(&docs, "boom");
    assert!(!ok);
    assert!(error.unwrap().contains("injected fault"));
    assert!(result(&docs, "b").0);
}

#[test]
fn serve_answers_a_non_utf8_line_and_keeps_serving() {
    use doppelganger_loads::stats::Json;
    use std::io::Write as _;
    let mut child = Command::new(env!("CARGO_BIN_EXE_dgl"))
        .args(["serve", "--stdin"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn dgl serve");
    child
        .stdin
        .take()
        .expect("child stdin")
        .write_all(
            b"\xff\xfe\n{\"schema\":\"dgl-serve-job\",\"version\":1,\"id\":\"b\",\
              \"workload\":\"hmmer_like\",\"insts\":2000}\n",
        )
        .expect("write batch");
    let out = child.wait_with_output().expect("serve exits");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let docs: Vec<Json> = text
        .lines()
        .map(|l| Json::parse(l).expect("result line parses"))
        .collect();
    assert_eq!(docs.len(), 2, "{text}");
    let ok = |id: &str| {
        docs.iter()
            .find(|d| d.get("id").and_then(|s| s.as_str()) == Some(id))
            .and_then(|d| d.get("ok").cloned())
    };
    assert_eq!(ok("line-1"), Some(Json::Bool(false)), "{text}");
    assert_eq!(ok("b"), Some(Json::Bool(true)), "{text}");
}

#[test]
fn serve_batch_matches_one_shot_manifests() {
    use std::io::Write as _;
    let dir = std::env::temp_dir().join("dgl-cli-serve-test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let manifests = dir.join("manifests");
    let sample = r#""sample":{"interval":2000,"warmup":500,"window":300}"#;
    let batch = format!(
        "{}\n{}\n{}\nnot json at all\n",
        format_args!(
            r#"{{"schema":"dgl-serve-job","version":1,"id":"dom","workload":"hmmer_like","insts":8000,"scheme":"dom","ap":true,{sample}}}"#
        ),
        format_args!(
            r#"{{"schema":"dgl-serve-job","version":1,"id":"stt","workload":"hmmer_like","insts":8000,"scheme":"stt","ap":true,{sample}}}"#
        ),
        format_args!(
            r#"{{"schema":"dgl-serve-job","version":1,"id":"base","workload":"hmmer_like","insts":8000,{sample}}}"#
        ),
    );
    let mut child = Command::new(env!("CARGO_BIN_EXE_dgl"))
        .args([
            "serve",
            "--stdin",
            "--workers",
            "2",
            "--manifest-dir",
            manifests.to_str().unwrap(),
            "--stats",
        ])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn dgl serve");
    child
        .stdin
        .take()
        .expect("child stdin")
        .write_all(batch.as_bytes())
        .expect("write batch");
    let out = child.wait_with_output().expect("serve exits");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let docs: Vec<doppelganger_loads::stats::Json> = text
        .lines()
        .map(|l| doppelganger_loads::stats::Json::parse(l).expect("result line parses"))
        .collect();
    // 3 job results + 1 parse-error result + 1 stats document.
    assert_eq!(docs.len(), 5, "{text}");
    let oks = docs
        .iter()
        .filter(|d| d.get("ok") == Some(&doppelganger_loads::stats::Json::Bool(true)))
        .count();
    assert_eq!(oks, 3, "{text}");
    let stats = docs
        .iter()
        .find(|d| d.get("schema").and_then(|s| s.as_str()) == Some("dgl-serve-stats"))
        .expect("stats document");
    let host = stats.get("host").expect("stats live under host");
    assert_eq!(host.get("serve.jobs").and_then(|j| j.as_u64()), Some(3));
    assert_eq!(host.get("serve.errors").and_then(|j| j.as_u64()), Some(1));
    assert!(host.get("ckptstore.hits").is_some(), "{text}");
    // All three jobs run one workload: the first lookup builds it and
    // the other two take it from the store's workload tier.
    let counter = |name: &str| host.get(name).and_then(|j| j.as_u64());
    assert_eq!(counter("ckptstore.workload_hits"), Some(2), "{text}");
    assert_eq!(counter("ckptstore.workload_misses"), Some(1), "{text}");
    assert_eq!(counter("ckptstore.workload_evictions"), Some(0), "{text}");
    // The served manifest must be byte-identical to the one-shot CLI's.
    let oneshot = dir.join("oneshot.json");
    let run = dgl(&[
        "run",
        "hmmer_like",
        "--scheme",
        "dom",
        "--ap",
        "--insts",
        "8000",
        "--sample",
        "--sample-interval",
        "2000",
        "--sample-warmup",
        "500",
        "--sample-window",
        "300",
        "--stats-json",
        oneshot.to_str().unwrap(),
    ]);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let served = std::fs::read(manifests.join("dom.json")).expect("served manifest");
    let solo = std::fs::read(&oneshot).expect("one-shot manifest");
    assert_eq!(served, solo, "served manifest must be byte-identical");
    let _ = std::fs::remove_dir_all(&dir);
}
