//! The telemetry plane is write-only: attaching a span collector and
//! a flight recorder to a run must not perturb any
//! simulated result. The full 8-config matrix is run bare and
//! instrumented and compared byte for byte — metrics registry, stats
//! block, cycle count, architectural registers, and the occupancy
//! series — mirroring `elision_identical.rs` for the PR 7 kernel.

use dgl_sim::experiments::ConfigId;
use dgl_sim::SimBuilder;
use dgl_stats::SpanCollector;
use dgl_trace::SharedFlightRecorder;
use dgl_workloads::{by_name, Scale};

#[test]
fn full_matrix_is_byte_identical_with_telemetry_on() {
    let w = by_name("mcf_like", Scale::Custom(3_000)).expect("suite workload");
    for cfg in ConfigId::ALL {
        let run = |telemetry: bool| {
            let mut b = SimBuilder::new();
            b.scheme(cfg.scheme())
                .address_prediction(cfg.ap())
                .occupancy_sampling(64);
            let hooks = telemetry.then(|| {
                let spans = SpanCollector::new();
                let recorder = SharedFlightRecorder::new(256);
                b.with_spans(spans.clone(), 0)
                    .flight_recorder(recorder.clone());
                (spans, recorder)
            });
            (b.run_workload(&w).expect("run"), hooks)
        };
        let (bare, _) = run(false);
        let (instrumented, hooks) = run(true);
        let (spans, recorder) = hooks.expect("telemetry attached");
        // The telemetry side actually observed the run…
        assert!(
            !spans.finish().is_empty(),
            "{cfg:?}: span collector saw the run"
        );
        assert!(
            recorder.total() > 0,
            "{cfg:?}: flight recorder saw trace events"
        );
        // …and the simulated side never noticed.
        assert_eq!(
            bare.metrics().to_json().to_string_pretty(),
            instrumented.metrics().to_json().to_string_pretty(),
            "{cfg:?}: metrics registry must be byte-identical"
        );
        assert_eq!(bare.stats, instrumented.stats, "{cfg:?}: stats");
        assert_eq!(bare.cycles, instrumented.cycles, "{cfg:?}: cycle count");
        assert_eq!(
            bare.regs, instrumented.regs,
            "{cfg:?}: architectural registers"
        );
        let (bo, io) = (
            bare.occupancy.as_ref().expect("sampled"),
            instrumented.occupancy.as_ref().expect("sampled"),
        );
        assert_eq!(
            format!("{bo:?}"),
            format!("{io:?}"),
            "{cfg:?}: occupancy series must be byte-identical"
        );
    }
}

#[test]
fn sampled_runs_are_identical_with_telemetry_on() {
    // The serve path: a sampled run with checkpoint store, spans, and
    // recorder attached must produce the same windows as a bare run.
    use dgl_sim::{CheckpointStore, SamplingConfig};
    let w = by_name("hmmer_like", Scale::Custom(6_000)).expect("suite workload");
    let cfg = SamplingConfig {
        interval_insts: 2_000,
        warmup_insts: 500,
        window_insts: 300,
        ..SamplingConfig::default()
    };
    let bare = SimBuilder::new()
        .scheme(dgl_core::SchemeKind::DoM)
        .address_prediction(true)
        .run_sampled_with_store(&w, &cfg, Some(&CheckpointStore::new(8)))
        .expect("bare sampled run");
    let spans = SpanCollector::new();
    let recorder = SharedFlightRecorder::new(128);
    let mut b = SimBuilder::new();
    b.scheme(dgl_core::SchemeKind::DoM)
        .address_prediction(true)
        .with_spans(spans.clone(), 3)
        .flight_recorder(recorder.clone());
    let instrumented = b
        .run_sampled_with_store(&w, &cfg, Some(&CheckpointStore::new(8)))
        .expect("instrumented sampled run");
    // Compare through the manifest (the serialized contract): window
    // reports carry host wall-clock, which legitimately differs.
    let config = ConfigId::new(dgl_core::SchemeKind::DoM, true);
    assert_eq!(
        dgl_sim::sampled_manifest(&w, config, false, &bare).to_string_pretty(),
        dgl_sim::sampled_manifest(&w, config, false, &instrumented).to_string_pretty(),
        "sampled manifests must be byte-identical"
    );
    let recorded = spans.finish();
    for name in ["ckpt_plan", "simulate"] {
        assert!(
            recorded.iter().any(|s| s.name == name && s.track == 3),
            "span `{name}` on the caller's track: {recorded:?}"
        );
    }
}
