//! Integration tests for the content-addressed checkpoint store:
//! determinism, byte-identical manifests with and without the store,
//! concurrent reuse, and corrupted on-disk entries degrading to clean
//! misses.

use dgl_isa::{Emulator, ProgramBuilder, Reg, SparseMemory};
use dgl_sim::{sampled_manifest, CheckpointStore, ConfigId, SamplingConfig, SimBuilder};
use dgl_workloads::{by_name, Scale, Workload};

fn workload() -> Workload {
    by_name("hmmer_like", Scale::Custom(8_000)).expect("bundled workload")
}

fn cfg() -> SamplingConfig {
    SamplingConfig {
        interval_insts: 2_000,
        warmup_insts: 500,
        window_insts: 300,
        max_windows: 64,
        threads: 1,
    }
}

fn builder(scheme: dgl_core::SchemeKind, ap: bool) -> SimBuilder {
    let mut b = SimBuilder::new();
    b.scheme(scheme).address_prediction(ap);
    b
}

/// Unique-but-deterministic scratch directory per test.
fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dgl-ckpt-it-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn same_key_stores_bit_identical_state() {
    // Two independent runs over the same workload and warm config must
    // store byte-identical snapshots at every window offset.
    let w = workload();
    let fingerprints = |store: &CheckpointStore| {
        let mut keys = store.resident_keys();
        keys.sort_by_key(|k| k.retired);
        keys.iter()
            .map(|&k| (k.retired, store.entry_fingerprint(k).unwrap()))
            .collect::<Vec<_>>()
    };
    let store_a = CheckpointStore::new(64);
    builder(dgl_core::SchemeKind::DoM, true)
        .run_sampled_with_store(&w, &cfg(), Some(&store_a))
        .expect("first run");
    let store_b = CheckpointStore::new(64);
    builder(dgl_core::SchemeKind::DoM, true)
        .run_sampled_with_store(&w, &cfg(), Some(&store_b))
        .expect("second run");
    let (a, b) = (fingerprints(&store_a), fingerprints(&store_b));
    assert!(!a.is_empty(), "sampled run must populate the store");
    assert_eq!(a, b, "same key must map to bit-identical stored state");
}

#[test]
fn store_reuse_yields_byte_identical_manifests() {
    let w = workload();
    let store = CheckpointStore::new(64);
    let schemes = [
        (dgl_core::SchemeKind::Baseline, true),
        (dgl_core::SchemeKind::DoM, true),
        (dgl_core::SchemeKind::Stt, true),
    ];
    for (scheme, ap) in schemes {
        let plain = builder(scheme, ap)
            .run_sampled(&w, &cfg())
            .expect("storeless run");
        let stored = builder(scheme, ap)
            .run_sampled_with_store(&w, &cfg(), Some(&store))
            .expect("stored run");
        let config = ConfigId::new(scheme, ap);
        assert_eq!(
            sampled_manifest(&w, config, false, &plain).to_string_pretty(),
            sampled_manifest(&w, config, false, &stored).to_string_pretty(),
            "store must never change the manifest ({scheme:?} ap={ap})"
        );
    }
    let c = store.counters();
    // All configurations share a warm fingerprint, so the second and
    // third hit windows the first one inserted.
    assert!(c.hits > 0, "sweep must reuse stored windows: {c:?}");
    assert!(c.totals_hits > 0, "program totals must be reused: {c:?}");
}

#[test]
fn all_eight_configs_share_one_warm_key() {
    // Warming is independent of the scheme and of the address-prediction
    // flag, so the first configuration of a sweep inserts every window
    // and the other seven, AP on or off, hit them and insert nothing.
    let w = workload();
    let store = CheckpointStore::new(64);
    for (i, config) in ConfigId::ALL.into_iter().enumerate() {
        let b = builder(config.scheme(), config.ap());
        let plain = b.run_sampled(&w, &cfg()).expect("storeless run");
        let before = store.counters();
        let stored = b
            .run_sampled_with_store(&w, &cfg(), Some(&store))
            .expect("stored run");
        assert_eq!(
            sampled_manifest(&w, config, false, &plain).to_string_pretty(),
            sampled_manifest(&w, config, false, &stored).to_string_pretty(),
            "store must never change the manifest ({config:?})"
        );
        let after = store.counters();
        let inserted = after.inserts - before.inserts;
        if i == 0 {
            assert!(inserted > 0, "first configuration populates the store");
        } else {
            // A warm run hits every window and stops planning at the
            // known program end: the boundary past it is never looked
            // up, so the run misses nothing.
            assert_eq!(inserted, 0, "{config:?} must reuse the shared windows");
            assert_eq!(after.misses, before.misses, "{config:?}: {after:?}");
            assert_eq!(
                after.totals_hits - before.totals_hits,
                1,
                "{config:?} reads the totals once: {after:?}"
            );
        }
    }
    let warm: std::collections::BTreeSet<u64> =
        store.resident_keys().iter().map(|k| k.warm).collect();
    assert_eq!(warm.len(), 1, "one warm key for all eight configurations");
}

#[test]
fn concurrent_workers_share_one_store() {
    let w = workload();
    let store = CheckpointStore::new(64);
    // Warm the store once, then hammer it from scoped threads.
    let reference = builder(dgl_core::SchemeKind::DoM, true)
        .run_sampled_with_store(&w, &cfg(), Some(&store))
        .expect("warming run");
    let before = store.counters();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (w, store) = (&w, &store);
                scope.spawn(move || {
                    builder(dgl_core::SchemeKind::DoM, true)
                        .run_sampled_with_store(w, &cfg(), Some(store))
                        .expect("concurrent run")
                        .ipc()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().expect("worker"), reference.ipc());
        }
    });
    let after = store.counters();
    assert!(
        after.hits >= before.hits + 4,
        "every concurrent run must hit the warmed store: {after:?}"
    );
    assert_eq!(after.inserts, before.inserts, "no new inserts expected");
}

#[test]
fn corrupted_disk_entry_is_a_clean_miss() {
    let w = workload();
    let dir = scratch("corrupt");
    let reference = {
        let store = CheckpointStore::with_disk(4, &dir);
        let run = builder(dgl_core::SchemeKind::DoM, true)
            .run_sampled_with_store(&w, &cfg(), Some(&store))
            .expect("seeding run");
        assert!(
            store.counters().disk_writes > 0,
            "disk tier must be written"
        );
        sampled_manifest(
            &w,
            ConfigId::new(dgl_core::SchemeKind::DoM, true),
            false,
            &run,
        )
        .to_string_pretty()
    };
    // Flip one digit inside every stored word stream.
    let mut corrupted = 0;
    for entry in std::fs::read_dir(&dir).expect("checkpoint dir") {
        let path = entry.expect("dir entry").path();
        let text = std::fs::read_to_string(&path).expect("checkpoint file");
        let marker = text.find("\"checkpoint\"").expect("checkpoint field");
        let digit = text[marker..]
            .char_indices()
            .find(|(_, c)| c.is_ascii_digit())
            .map(|(i, _)| marker + i)
            .expect("digit after checkpoint field");
        let mut bytes = text.into_bytes();
        bytes[digit] = if bytes[digit] == b'9' {
            b'0'
        } else {
            bytes[digit] + 1
        };
        std::fs::write(&path, bytes).expect("rewrite checkpoint");
        corrupted += 1;
    }
    assert!(corrupted > 0);
    // A fresh store over the corrupted directory must reject every
    // entry (no panic, no wrong state) and still produce the same
    // manifest by re-deriving the windows.
    let store = CheckpointStore::with_disk(4, &dir);
    let run = builder(dgl_core::SchemeKind::DoM, true)
        .run_sampled_with_store(&w, &cfg(), Some(&store))
        .expect("run over corrupted disk tier");
    let c = store.counters();
    assert!(c.disk_rejects > 0, "corruption must be detected: {c:?}");
    assert_eq!(c.disk_hits, 0, "no corrupted entry may be served: {c:?}");
    assert_eq!(
        sampled_manifest(
            &w,
            ConfigId::new(dgl_core::SchemeKind::DoM, true),
            false,
            &run
        )
        .to_string_pretty(),
        reference,
        "recovery from corruption must reproduce the manifest"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_metrics_appear_in_registry_snapshots() {
    let w = workload();
    let store = CheckpointStore::new(64);
    builder(dgl_core::SchemeKind::DoM, true)
        .run_sampled_with_store(&w, &cfg(), Some(&store))
        .expect("run");
    let mut reg = dgl_stats::MetricsRegistry::new();
    store.publish(&mut reg);
    let doc = reg.to_json();
    for metric in [
        "ckptstore.misses",
        "ckptstore.inserts",
        "ckptstore.resident",
    ] {
        assert!(
            doc.get(metric).is_some(),
            "{metric} missing from registry snapshot: {}",
            doc.to_string_pretty()
        );
    }
}

#[test]
fn a_window_boundary_on_the_program_end_is_not_planned() {
    // A countdown loop retiring exactly 2 * 1399 + 2 = 2800 instructions
    // (halt included), sampled so that the fourth window's warmup
    // starts on instruction 2800: the walk to it halts, so no plan,
    // cold or warm, may contain it, and a warm run must not look it up.
    let mut p = ProgramBuilder::new("ends_on_a_boundary");
    p.imm(Reg::new(1), 1399)
        .label("loop")
        .subi(Reg::new(1), Reg::new(1), 1)
        .bne(Reg::new(1), Reg::ZERO, "loop")
        .halt();
    let w = Workload {
        name: "ends_on_a_boundary",
        suite: "test",
        description: "countdown loop whose retired count is a window boundary",
        program: p.build().expect("program"),
        memory: SparseMemory::new(),
        max_cycles: 100_000,
        warm_ranges: Vec::new(),
    };
    let end = Emulator::new(&w.program, w.memory.clone())
        .run(10_000)
        .expect("golden run");
    assert!(end.halted);
    assert_eq!(end.instructions, 2_800);
    let cfg = SamplingConfig {
        interval_insts: 1_000,
        warmup_insts: 200,
        window_insts: 300,
        max_windows: 64,
        threads: 1,
    };
    let b = builder(dgl_core::SchemeKind::DoM, true);
    let config = ConfigId::new(dgl_core::SchemeKind::DoM, true);
    let plain = b.run_sampled(&w, &cfg).expect("storeless run");
    assert_eq!(plain.windows.len(), 3, "warmups at 0, 800 and 1800 only");
    assert_eq!(plain.total_insts, 2_800);
    let expected = sampled_manifest(&w, config, false, &plain).to_string_pretty();
    let store = CheckpointStore::new(64);
    for pass in ["cold", "warm"] {
        let before = store.counters();
        let run = b
            .run_sampled_with_store(&w, &cfg, Some(&store))
            .expect("stored run");
        assert_eq!(
            sampled_manifest(&w, config, false, &run).to_string_pretty(),
            expected,
            "{pass} store must not change the manifest"
        );
        let after = store.counters();
        let (misses, inserts) = (after.misses - before.misses, after.inserts - before.inserts);
        if pass == "cold" {
            // Three window misses plus the boundary at the end, which
            // the cold walk reaches only to find the program halted.
            assert_eq!((misses, inserts), (4, 3), "{after:?}");
        } else {
            assert_eq!((misses, inserts), (0, 0), "{after:?}");
            assert_eq!(after.hits - before.hits, 3, "{after:?}");
            assert_eq!(after.totals_hits - before.totals_hits, 1, "{after:?}");
        }
    }
}
