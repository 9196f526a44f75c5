//! The security harness treats the observation trace as "everything
//! the memory side-channel can reveal", so the toggle must be airtight:
//! recording off yields nothing, recording never perturbs timing, and
//! re-enabling starts from a clean slate. Also covers the structured
//! `dgl-trace` sink that `request` and `advance_into` take: it sees the
//! observation trace event for event, cycle-stamped, plus DRAM lookups.

use dgl_mem::{AccessKind, HierarchyConfig, MemRequest, MemResponse, MemorySystem};
use dgl_trace::{MemEvent, MemLevel, RecordingSink, TraceEvent, TraceSink};

/// The responses ready at `now`, with `sink` watching the fills.
fn advance(
    mem: &mut MemorySystem,
    now: u64,
    sink: Option<&mut (dyn TraceSink + '_)>,
) -> Vec<MemResponse> {
    let mut out = Vec::new();
    mem.advance_into(now, sink, &mut out);
    out
}

/// A deterministic little request mix covering hits, misses, merges,
/// blocked DoM probes, and prefetches.
fn workload() -> Vec<(MemRequest, u64)> {
    let mut reqs = Vec::new();
    let mut now = 0u64;
    for i in 0..24u64 {
        let addr = (i % 6) * 0x1000 + (i / 6) * 8;
        reqs.push((MemRequest::load(addr), now));
        now += 1;
        if i % 5 == 0 {
            reqs.push((
                MemRequest {
                    addr: 0x8_0000 + i * 0x40,
                    kind: AccessKind::Load,
                    l1_only: true,
                    update_replacement: false,
                },
                now,
            ));
            now += 1;
        }
        if i % 7 == 0 {
            reqs.push((MemRequest::prefetch(0x4_0000 + i * 0x40), now));
            now += 1;
        }
    }
    reqs
}

/// Run the workload with `sink` watching every request and advance,
/// returning every (response, cycle) pair.
fn run(
    mem: &mut MemorySystem,
    mut sink: Option<&mut (dyn TraceSink + '_)>,
) -> Vec<(u64, MemResponse)> {
    let mut out = Vec::new();
    let mut last = 0;
    for (req, at) in workload() {
        for r in advance(mem, at, sink.as_deref_mut()) {
            out.push((at, r));
        }
        let _ = mem.request(req, at, sink.as_deref_mut());
        last = at;
    }
    for c in last + 1..last + 10_000 {
        for r in advance(mem, c, sink.as_deref_mut()) {
            out.push((c, r));
        }
    }
    out
}

#[test]
fn recording_off_yields_empty_trace() {
    let mut mem = MemorySystem::new(HierarchyConfig::tiny());
    run(&mut mem, None);
    assert!(mem.trace().is_empty(), "no events without set_trace(true)");
}

#[test]
fn recording_does_not_perturb_timing() {
    let mut plain = MemorySystem::new(HierarchyConfig::tiny());
    let mut traced = MemorySystem::new(HierarchyConfig::tiny());
    traced.set_trace(true);
    let a = run(&mut plain, None);
    let b = run(&mut traced, None);
    assert_eq!(a, b, "observation recording must be timing-invisible");
    assert!(!traced.trace().is_empty());
}

#[test]
fn reenabling_does_not_resurrect_stale_entries() {
    let mut mem = MemorySystem::new(HierarchyConfig::tiny());
    mem.set_trace(true);
    mem.request(MemRequest::load(0x1000), 0, None);
    for c in 0..200 {
        advance(&mut mem, c, None);
    }
    let first = mem.trace().len();
    assert!(first > 0, "first window must record events");

    mem.set_trace(false);
    mem.request(MemRequest::load(0x2000), 200, None);
    for c in 200..400 {
        advance(&mut mem, c, None);
    }
    assert!(mem.trace().is_empty(), "disabled: nothing retained");

    mem.set_trace(true);
    assert!(
        mem.trace().is_empty(),
        "re-enabling must start from a clean slate, not resurrect old entries"
    );
    mem.request(MemRequest::load(0x3000), 400, None);
    for c in 400..600 {
        advance(&mut mem, c, None);
    }
    let reenabled = mem.trace();
    assert!(!reenabled.is_empty());
    assert!(
        reenabled.iter().all(|&(line, _)| line == 0x3000),
        "only the post-re-enable request may appear"
    );
}

#[test]
fn structured_sink_mirrors_observation_trace_with_cycles() {
    let mut mem = MemorySystem::new(HierarchyConfig::tiny());
    mem.set_trace(true);
    let mut sink = RecordingSink::new();
    mem.request(MemRequest::load(0x1000), 5, Some(&mut sink));
    for c in 5..200 {
        advance(&mut mem, c, Some(&mut sink));
    }
    let events = sink.drain();
    // Sink sees the observation-trace events plus the DRAM access.
    assert_eq!(events.len(), mem.trace().len() + 1);
    assert!(events.iter().all(|e| matches!(e, TraceEvent::Mem { .. })));
    assert!(events.iter().any(|e| matches!(
        e,
        TraceEvent::Mem {
            event: MemEvent::Lookup {
                level: MemLevel::Dram,
                ..
            },
            ..
        }
    )));
    // Lookup stamped at request time, fills at their ready cycle.
    assert!(events.first().unwrap().cycle() == 5);
    assert!(events.last().unwrap().cycle() > 5);
}

#[test]
fn traced_and_untraced_requests_have_identical_timing() {
    let mut plain = MemorySystem::new(HierarchyConfig::tiny());
    let mut traced = MemorySystem::new(HierarchyConfig::tiny());
    let mut sink = RecordingSink::new();
    let mut a = Vec::new();
    let mut b = Vec::new();
    for (req, at) in workload() {
        let _ = plain.request(req, at, None);
        let _ = traced.request(req, at, Some(&mut sink));
    }
    for c in 0..10_000 {
        a.extend(advance(&mut plain, c, None));
        b.extend(advance(&mut traced, c, Some(&mut sink)));
    }
    assert_eq!(a, b, "sink must be observation-only");
    assert!(sink.len() > 0);
}

#[test]
fn sink_without_dram_lookups_is_the_observation_trace() {
    let mut mem = MemorySystem::new(HierarchyConfig::tiny());
    mem.set_trace(true);
    let mut sink = RecordingSink::new();
    run(&mut mem, Some(&mut sink));
    let seen: Vec<(u64, MemEvent)> = sink
        .drain()
        .into_iter()
        .filter_map(|e| match e {
            TraceEvent::Mem {
                event:
                    MemEvent::Lookup {
                        level: MemLevel::Dram,
                        ..
                    },
                ..
            } => None,
            TraceEvent::Mem { line, event, .. } => Some((line, event)),
            other => panic!("the hierarchy emitted a non-memory event: {other:?}"),
        })
        .collect();
    assert!(
        seen.contains(&(0x8_0000, MemEvent::Blocked)),
        "covers DoM probes"
    );
    assert_eq!(seen, mem.trace(), "event for event, in order");
}
