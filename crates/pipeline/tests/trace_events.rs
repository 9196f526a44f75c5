//! Replays short programs through a [`RecordingSink`] and asserts the
//! exact doppelganger lifecycle orderings the tracer must produce:
//!
//! * a correctly predicted doppelganger walks
//!   `Predicted → Issued → Verified(correct) [→ Deferred] → Propagated`;
//! * a mispredicted doppelganger walks
//!   `Predicted [→ Issued] → Verified(mispredicted) → Discarded(address_mismatch)`
//!   and — the paper's central no-rollback property (§4.3) — is **not**
//!   accompanied by a pipeline squash of that load.

use dgl_core::SchemeKind;
use dgl_isa::{ProgramBuilder, Reg, SparseMemory};
use dgl_pipeline::{Core, CoreConfig, RunReport};
use dgl_trace::{DglEvent, RecordingSink, Stage, TraceEvent};

fn r(i: u8) -> Reg {
    Reg::new(i)
}

/// Runs `build` with a recording sink installed; returns the report and
/// the drained event list.
fn record(
    scheme: SchemeKind,
    build: impl FnOnce(&mut ProgramBuilder),
    mem: SparseMemory,
) -> (RunReport, Vec<TraceEvent>) {
    let mut b = ProgramBuilder::new("trace-replay");
    build(&mut b);
    let p = b.build().unwrap();
    let mut core = Core::new(CoreConfig::tiny(), scheme, true);
    core.set_trace_sink(Box::new(RecordingSink::new()));
    let mut rep = core.run(&p, mem, 1_000_000).expect("run");
    let events = rep.trace_sink.as_mut().expect("sink installed").drain();
    (rep, events)
}

/// The doppelganger event names for `seq`, in emission order.
fn dgl_names(events: &[TraceEvent], seq: u64) -> Vec<&'static str> {
    events
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::Dgl {
                seq: s, ref event, ..
            } if s == seq => Some(event.name()),
            _ => None,
        })
        .collect()
}

fn squashed_seqs(events: &[TraceEvent]) -> Vec<u64> {
    events
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::Squash { seq, .. } => Some(seq),
            _ => None,
        })
        .collect()
}

/// A stride-friendly kernel: every iteration loads the next 8-byte
/// element, so the address predictor covers the loads after warm-up.
fn stride_kernel(b: &mut ProgramBuilder, iters: i64) {
    b.imm(r(1), 0x8000)
        .imm(r(2), iters)
        .label("top")
        .load(r(3), r(1), 0)
        .addi(r(1), r(1), 8)
        .subi(r(2), r(2), 1)
        .bne(r(2), Reg::ZERO, "top")
        .halt();
}

/// Trains the stride on 12 loads at `0x8000 + 8i`, then moves the base
/// register to `0x20000` and runs the same load PC 4 more times, so the
/// next prediction follows the old stride and mispredicts.
fn stride_break_kernel(b: &mut ProgramBuilder) {
    b.imm(r(1), 0x8000)
        .imm(r(2), 12)
        .imm(r(5), 0)
        .label("top")
        .load(r(3), r(1), 0)
        .addi(r(1), r(1), 8)
        .subi(r(2), r(2), 1)
        .bne(r(2), Reg::ZERO, "top")
        .bne(r(5), Reg::ZERO, "done")
        .imm(r(5), 1)
        .imm(r(1), 0x20000)
        .imm(r(2), 4)
        .jmp("top")
        .label("done")
        .halt();
}

fn stride_memory() -> SparseMemory {
    let mut mem = SparseMemory::new();
    for i in 0..64u64 {
        mem.write_u64(0x8000 + 8 * i, i + 1);
        mem.write_u64(0x20000 + 8 * i, 100 + i);
    }
    mem
}

#[test]
fn correct_doppelganger_full_lifecycle_in_order() {
    let (rep, events) = record(SchemeKind::NdaP, |b| stride_kernel(b, 32), stride_memory());
    assert!(rep.halted);
    assert!(
        rep.stats.dgl_propagated > 0,
        "kernel must use doppelgangers"
    );

    // At least one load must show the complete, exactly-ordered
    // lifecycle. `Deferred` is legitimate in the middle (NDA holds the
    // preload until the visibility point) but nothing else is.
    let mut found = false;
    for seq in events.iter().filter_map(|e| e.seq()) {
        let names = dgl_names(&events, seq);
        if names.is_empty() {
            continue;
        }
        let ok = names.as_slice() == ["predicted", "issued", "verified", "propagated"]
            || names.as_slice() == ["predicted", "issued", "verified", "deferred", "propagated"];
        if ok {
            found = true;
            break;
        }
    }
    assert!(
        found,
        "no load showed the exact predicted→issued→verified→propagated lifecycle"
    );
}

#[test]
fn mispredicted_doppelganger_discards_without_squash() {
    // Pass 1 trains the stride (12 iterations at 0x8000 + 8i); then the
    // base register jumps to 0x20000 and the same load PC runs again —
    // its next instance is predicted at the old stride and MUST
    // mispredict.
    let (rep, events) = record(SchemeKind::NdaP, stride_break_kernel, stride_memory());
    assert!(rep.halted);
    assert!(
        rep.stats.dgl_discard_mispredict > 0,
        "the stride break must cause at least one misprediction"
    );
    // The run still computes the right values via the conventional path.
    assert_eq!(rep.reg(r(3)), 103, "last load reads 0x20018");

    let squashes = squashed_seqs(&events);
    let mut found = false;
    for seq in events.iter().filter_map(|e| e.seq()) {
        let names = dgl_names(&events, seq);
        let Some(v) = names.iter().position(|&n| n == "verified") else {
            continue;
        };
        // Must be a *mispredict* verification for this seq.
        let mispredicted = events.iter().any(|e| {
            matches!(
                *e,
                TraceEvent::Dgl {
                    seq: s,
                    event: DglEvent::Verified { correct: false, .. },
                    ..
                } if s == seq
            )
        });
        if !mispredicted {
            continue;
        }
        // Exact ordering: the discard follows the verification
        // immediately, and the lifecycle started with the prediction.
        assert_eq!(names.first(), Some(&"predicted"));
        assert_eq!(
            names.get(v + 1),
            Some(&"discarded"),
            "discard must directly follow the failed verification (seq {seq}: {names:?})"
        );
        assert!(
            events.iter().any(|e| matches!(
                *e,
                TraceEvent::Dgl {
                    seq: s,
                    event: DglEvent::Discarded {
                        reason: dgl_trace::DiscardReason::AddressMismatch,
                    },
                    ..
                } if s == seq
            )),
            "discard reason must be address_mismatch"
        );
        // The paper's key property: no rollback. The load itself is
        // never squashed by its own misprediction.
        assert!(
            !squashes.contains(&seq),
            "mispredicted doppelganger seq {seq} must not be squashed"
        );
        found = true;
        break;
    }
    assert!(found, "no mispredicted doppelganger found in the trace");
}

#[test]
fn stage_stamps_are_monotone_fetch_to_commit() {
    let (rep, events) = record(SchemeKind::NdaP, |b| stride_kernel(b, 8), stride_memory());
    assert!(rep.halted);
    let squashes = squashed_seqs(&events);
    let mut checked = 0;
    for seq in events.iter().filter_map(|e| e.seq()) {
        if squashes.contains(&seq) {
            continue;
        }
        let mut stamps: Vec<(Stage, u64)> = events
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::Stage {
                    seq: s,
                    stage,
                    cycle,
                    ..
                } if s == seq => Some((stage, cycle)),
                _ => None,
            })
            .collect();
        if stamps.is_empty() {
            continue;
        }
        stamps.sort_by_key(|&(stage, _)| stage);
        for w in stamps.windows(2) {
            assert!(
                w[0].1 <= w[1].1,
                "seq {seq}: {:?} at {} after {:?} at {}",
                w[0].0,
                w[0].1,
                w[1].0,
                w[1].1
            );
        }
        // Committed instructions must span fetch → commit.
        if stamps.iter().any(|&(s, _)| s == Stage::Commit) {
            assert!(stamps.iter().any(|&(s, _)| s == Stage::Fetch));
            checked += 1;
        }
    }
    assert!(checked > 10, "expected many committed, fully-stamped lanes");
}

#[test]
fn discard_reason_counters_partition_the_outcomes() {
    let (rep, _) = record(SchemeKind::NdaP, |b| stride_kernel(b, 32), stride_memory());
    // Every prediction handed out ends in exactly one terminal outcome:
    // commit (correct or mispredicted-then-replayed), squash, or an
    // unsafe-discard. The counters must stay consistent with the
    // predictor's own accounting.
    let s = rep.stats;
    assert_eq!(s.dgl_discard_mispredict, 0, "pure stride never mispredicts");
    assert!(
        s.dgl_discard_squash <= rep.ap.predictions_issued,
        "squash discards cannot exceed predictions"
    );
    assert!(rep.ap.predictions_issued > 0);
}

#[test]
fn address_prediction_off_emits_no_doppelganger_events() {
    let mut b = ProgramBuilder::new("trace-replay");
    stride_kernel(&mut b, 32);
    let p = b.build().unwrap();
    let mut core = Core::new(CoreConfig::tiny(), SchemeKind::NdaP, false);
    core.set_trace_sink(Box::new(RecordingSink::new()));
    let mut rep = core.run(&p, stride_memory(), 1_000_000).expect("run");
    let events = rep.trace_sink.as_mut().expect("sink installed").drain();
    assert!(rep.halted);
    assert!(!events.is_empty(), "stage events are still traced");
    assert!(
        !events.iter().any(|e| matches!(e, TraceEvent::Dgl { .. })),
        "no prediction, no doppelganger event"
    );
}

#[test]
fn failed_verification_carries_the_predicted_and_real_address() {
    let (_, events) = record(SchemeKind::NdaP, stride_break_kernel, stride_memory());
    let predicted_at = |seq: u64| {
        events.iter().find_map(|e| match *e {
            TraceEvent::Dgl {
                seq: s,
                event: DglEvent::Predicted { predicted },
                ..
            } if s == seq => Some(predicted),
            _ => None,
        })
    };
    let mut failed = 0;
    for e in &events {
        if let TraceEvent::Dgl {
            seq,
            event:
                DglEvent::Verified {
                    predicted,
                    actual,
                    correct: false,
                },
            ..
        } = *e
        {
            // The verdict reports the prediction as it was before the
            // resolve reset it, next to the address the AGU produced.
            assert_eq!(Some(predicted), predicted_at(seq), "seq {seq}");
            assert!(predicted < 0x20000, "old-stride prediction {predicted:#x}");
            assert!(
                (0x20000..0x20020).contains(&actual) && actual % 8 == 0,
                "real address {actual:#x}"
            );
            failed += 1;
        }
    }
    assert!(failed > 0, "the stride break must fail a verification");
}
