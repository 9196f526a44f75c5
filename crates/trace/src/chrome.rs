//! Chrome trace-event JSON exporter.
//!
//! The output loads in [Perfetto](https://ui.perfetto.dev) or
//! `chrome://tracing`. Layout:
//!
//! - **pid 1 "pipeline"** — one named thread per pipeline stage; each
//!   instruction contributes one complete (`"ph":"X"`) slice per stage
//!   it crossed, lasting until its next stage crossing.
//! - **pid 1, tid 90 "squash"** — instant events for squashed
//!   instructions.
//! - **pid 2 "doppelgangers"** — one async (`"b"`/`"n"`/`"e"`) track
//!   per doppelganger lifecycle, keyed by the load's sequence number.
//! - **pid 3 "memory"** — instant events for cache hits/misses/fills
//!   and DRAM accesses.
//!
//! Timestamps are simulator cycles reported as microseconds (Chrome's
//! native unit), so "1 µs" in the viewer is one core cycle.

use crate::event::{DglEvent, Stage, TraceEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Append a JSON-escaped string literal (with quotes).
pub(crate) fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_event(out: &mut String, first: &mut bool, body: &str) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push('\n');
    out.push('{');
    out.push_str(body);
    out.push('}');
}

fn thread_meta(out: &mut String, first: &mut bool, pid: u32, tid: u32, name: &str) {
    let mut body = format!(
        "\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":"
    );
    push_json_str(&mut body, name);
    body.push('}'); // closes args; push_event adds the outer braces
    push_event(out, first, &body);
}

const PID_PIPELINE: u32 = 1;
const PID_DGL: u32 = 2;
const PID_MEM: u32 = 3;
/// Host-side spans (serve job lifecycle) get their own process so the
/// wall-clock timeline sits next to the simulated-cycle tracks in one
/// Perfetto view.
const PID_HOST: u32 = 4;
const TID_SQUASH: u32 = 90;
const TID_DGL: u32 = 1;
const TID_MEM: u32 = 1;

/// A host-side wall-clock span (one phase of a serve job's lifecycle),
/// as exported next to the simulated-cycle tracks. Kept as a plain
/// struct here so `dgl-trace` stays dependency-free; `dgl-stats`'s
/// span records convert into this trivially.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostSpan {
    /// Phase name (`queue`, `ckpt_plan`, `simulate`, ...).
    pub name: String,
    /// Track (worker index) — one thread row per track.
    pub track: u32,
    /// Start in microseconds (host wall clock).
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Free-form detail shown in the slice's args.
    pub detail: String,
}

/// Render `events` as a Chrome trace-event JSON document.
pub fn export(events: &[TraceEvent]) -> String {
    export_with_spans(events, &[])
}

/// [`export`], plus host-side wall-clock spans as complete (`"X"`)
/// slices under a separate `host` process (pid 4, one thread per
/// track). Host timestamps are microseconds — the same unit the
/// simulated tracks use for cycles — so both open in one Perfetto UI;
/// they are different clocks, so compare within a process, not across.
pub fn export_with_spans(events: &[TraceEvent], spans: &[HostSpan]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 256);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;

    thread_meta(&mut out, &mut first, PID_PIPELINE, TID_SQUASH, "squash");
    for stage in Stage::ALL {
        thread_meta(
            &mut out,
            &mut first,
            PID_PIPELINE,
            stage.index() as u32,
            stage.name(),
        );
    }
    thread_meta(&mut out, &mut first, PID_DGL, TID_DGL, "doppelgangers");
    thread_meta(&mut out, &mut first, PID_MEM, TID_MEM, "memory");
    let mut host_tracks: Vec<u32> = spans.iter().map(|s| s.track).collect();
    host_tracks.sort_unstable();
    host_tracks.dedup();
    for track in host_tracks {
        thread_meta(
            &mut out,
            &mut first,
            PID_HOST,
            track,
            &format!("worker {track}"),
        );
    }

    // Group stage stamps per instruction so each stage slice can last
    // until the instruction's next stage crossing.
    #[allow(clippy::type_complexity)]
    let mut per_inst: BTreeMap<u64, (u64, &'static str, Vec<(Stage, u64)>)> = BTreeMap::new();
    for ev in events {
        if let TraceEvent::Stage {
            seq,
            pc,
            kind,
            stage,
            cycle,
        } = *ev
        {
            let entry = per_inst.entry(seq).or_insert((pc, kind.name(), Vec::new()));
            entry.2.push((stage, cycle));
        }
    }

    for (seq, (pc, kind, mut stamps)) in per_inst {
        stamps.sort_by_key(|&(stage, cycle)| (cycle, stage));
        for (i, &(stage, cycle)) in stamps.iter().enumerate() {
            let end = stamps
                .get(i + 1)
                .map(|&(_, c)| c.max(cycle + 1))
                .unwrap_or(cycle + 1);
            let mut body = String::new();
            body.push_str("\"name\":");
            push_json_str(&mut body, &format!("i{seq} pc={pc} {kind}"));
            let _ = write!(
                body,
                ",\"cat\":\"pipeline\",\"ph\":\"X\",\"pid\":{PID_PIPELINE},\"tid\":{},\"ts\":{cycle},\"dur\":{},\"args\":{{\"seq\":{seq},\"pc\":{pc},\"kind\":\"{kind}\"}}",
                stage.index(),
                end - cycle,
            );
            push_event(&mut out, &mut first, &body);
        }
    }

    for ev in events {
        match *ev {
            TraceEvent::Squash { seq, pc, cycle } => {
                let mut body = String::new();
                body.push_str("\"name\":");
                push_json_str(&mut body, &format!("squash i{seq}"));
                let _ = write!(
                    body,
                    ",\"cat\":\"squash\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{PID_PIPELINE},\"tid\":{TID_SQUASH},\"ts\":{cycle},\"args\":{{\"seq\":{seq},\"pc\":{pc}}}"
                );
                push_event(&mut out, &mut first, &body);
            }
            TraceEvent::Dgl {
                seq,
                pc,
                cycle,
                event,
            } => {
                // Async begin on Predicted, async end on a terminal
                // event, instants in between — all share id = seq so
                // the viewer draws one arc per doppelganger.
                let ph = match event {
                    DglEvent::Predicted { .. } => "b",
                    e if e.is_terminal() => "e",
                    _ => "n",
                };
                let mut body = String::new();
                body.push_str("\"name\":");
                push_json_str(&mut body, &format!("dgl i{seq} {}", event.name()));
                let _ = write!(
                    body,
                    ",\"cat\":\"dgl\",\"ph\":\"{ph}\",\"id\":{seq},\"pid\":{PID_DGL},\"tid\":{TID_DGL},\"ts\":{cycle},\"args\":{{\"seq\":{seq},\"pc\":{pc},\"event\":\"{}\"",
                    event.name()
                );
                match event {
                    DglEvent::Predicted { predicted } | DglEvent::Issued { predicted } => {
                        let _ = write!(body, ",\"predicted\":{predicted}");
                    }
                    DglEvent::Verified {
                        predicted,
                        actual,
                        correct,
                    } => {
                        let _ = write!(
                            body,
                            ",\"predicted\":{predicted},\"actual\":{actual},\"correct\":{correct}"
                        );
                    }
                    DglEvent::Propagated { addr } => {
                        let _ = write!(body, ",\"addr\":{addr},\"safe\":true");
                    }
                    DglEvent::Deferred => body.push_str(",\"safe\":false"),
                    DglEvent::Discarded { reason } => {
                        let _ = write!(body, ",\"reason\":\"{reason}\"");
                    }
                    DglEvent::Squashed => {}
                }
                body.push('}'); // closes args
                push_event(&mut out, &mut first, &body);
            }
            TraceEvent::Mem { cycle, line, event } => {
                let label = match event {
                    crate::event::MemEvent::Lookup { level, hit } => {
                        format!("{level} {}", if hit { "hit" } else { "miss" })
                    }
                    crate::event::MemEvent::Fill { level } => format!("{level} fill"),
                    crate::event::MemEvent::Blocked => "L1 blocked".to_owned(),
                };
                let mut body = String::new();
                body.push_str("\"name\":");
                push_json_str(&mut body, &label);
                let _ = write!(
                    body,
                    ",\"cat\":\"mem\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{PID_MEM},\"tid\":{TID_MEM},\"ts\":{cycle},\"args\":{{\"line\":{line}}}"
                );
                push_event(&mut out, &mut first, &body);
            }
            TraceEvent::Stage { .. } => {}
        }
    }

    for span in spans {
        let mut body = String::new();
        body.push_str("\"name\":");
        push_json_str(&mut body, &span.name);
        let _ = write!(
            body,
            ",\"cat\":\"host\",\"ph\":\"X\",\"pid\":{PID_HOST},\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"detail\":",
            span.track, span.start_us, span.dur_us,
        );
        push_json_str(&mut body, &span.detail);
        body.push('}'); // closes args
        push_event(&mut out, &mut first, &body);
    }

    out.push_str("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"source\":\"dgl-trace\",\"time_unit\":\"cycles\"}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DiscardReason, InstKind, MemEvent, MemLevel};
    use dgl_stats::Json;

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Stage {
                seq: 1,
                pc: 0,
                kind: InstKind::Load,
                stage: Stage::Fetch,
                cycle: 0,
            },
            TraceEvent::Stage {
                seq: 1,
                pc: 0,
                kind: InstKind::Load,
                stage: Stage::Dispatch,
                cycle: 2,
            },
            TraceEvent::Dgl {
                seq: 1,
                pc: 0,
                cycle: 2,
                event: DglEvent::Predicted { predicted: 0x100 },
            },
            TraceEvent::Dgl {
                seq: 1,
                pc: 0,
                cycle: 3,
                event: DglEvent::Issued { predicted: 0x100 },
            },
            TraceEvent::Mem {
                cycle: 3,
                line: 0x100,
                event: MemEvent::Lookup {
                    level: MemLevel::L1,
                    hit: false,
                },
            },
            TraceEvent::Dgl {
                seq: 1,
                pc: 0,
                cycle: 9,
                event: DglEvent::Verified {
                    predicted: 0x100,
                    actual: 0x100,
                    correct: true,
                },
            },
            TraceEvent::Dgl {
                seq: 1,
                pc: 0,
                cycle: 10,
                event: DglEvent::Propagated { addr: 0x100 },
            },
            TraceEvent::Stage {
                seq: 1,
                pc: 0,
                kind: InstKind::Load,
                stage: Stage::Commit,
                cycle: 12,
            },
            TraceEvent::Dgl {
                seq: 2,
                pc: 4,
                cycle: 13,
                event: DglEvent::Discarded {
                    reason: DiscardReason::AddressMismatch,
                },
            },
            TraceEvent::Squash {
                seq: 3,
                pc: 5,
                cycle: 14,
            },
        ]
    }

    #[test]
    fn output_is_well_formed_json() {
        let json = export(&sample());
        Json::parse(&json).expect("chrome export must be valid JSON");
    }

    #[test]
    fn output_has_expected_structure() {
        let json = export(&sample());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""), "complete stage slices");
        assert!(json.contains("\"ph\":\"b\""), "async dgl begin");
        assert!(json.contains("\"ph\":\"e\""), "async dgl end");
        assert!(json.contains("\"thread_name\""), "track metadata");
        assert!(json.contains("\"correct\":true"));
        assert!(json.contains("address_mismatch"));
        assert!(json.contains("L1 miss"));
    }

    #[test]
    fn empty_input_still_valid() {
        let json = export(&[]);
        Json::parse(&json).expect("empty export must still be valid JSON");
    }

    #[test]
    fn host_spans_render_on_their_own_process() {
        let spans = vec![
            HostSpan {
                name: "simulate".to_owned(),
                track: 0,
                start_us: 10,
                dur_us: 50,
                detail: "windows=3".to_owned(),
            },
            HostSpan {
                name: "queue".to_owned(),
                track: 2,
                start_us: 0,
                dur_us: 4,
                detail: String::new(),
            },
        ];
        let json = export_with_spans(&sample(), &spans);
        Json::parse(&json).expect("span export must be valid JSON");
        assert!(json.contains("\"cat\":\"host\""), "host slices present");
        assert!(json.contains("\"worker 0\""), "track metadata");
        assert!(json.contains("\"worker 2\""), "track metadata");
        assert!(json.contains("windows=3"));
        // Plain export stays byte-identical to the span-free call.
        assert_eq!(export(&sample()), export_with_spans(&sample(), &[]));
    }

    #[test]
    fn span_export_round_trips_counts_tracks_and_time_order() {
        // Synthetic span set: two workers, three phases each, started
        // in wall-clock order.
        let spans: Vec<HostSpan> = (0..6)
            .map(|i| HostSpan {
                name: format!("phase{}", i % 3),
                track: (i % 2) as u32,
                start_us: (i as u64) * 100,
                dur_us: 40,
                detail: format!("case {i}"),
            })
            .collect();
        let json = export_with_spans(&[], &spans);
        Json::parse(&json).expect("span export must be valid JSON");
        // Exactly one complete slice per span.
        assert_eq!(json.matches("\"cat\":\"host\"").count(), spans.len());
        // Exactly one thread row per distinct track, named for its
        // worker.
        for name in ["\"worker 0\"", "\"worker 1\""] {
            assert_eq!(json.matches(name).count(), 1, "{name}");
        }
        // Slices keep input order, so start timestamps are monotone
        // non-decreasing within each track.
        let mut per_track: std::collections::BTreeMap<u64, Vec<u64>> = Default::default();
        for chunk in json.split('{').filter(|c| c.contains("\"cat\":\"host\"")) {
            let field = |key: &str| -> u64 {
                let rest = &chunk[chunk.find(key).expect(key) + key.len()..];
                rest[..rest.find([',', '}']).expect(key)]
                    .parse()
                    .expect(key)
            };
            per_track
                .entry(field("\"tid\":"))
                .or_default()
                .push(field("\"ts\":"));
        }
        assert_eq!(per_track.len(), 2, "one entry per worker track");
        for (track, ts) in per_track {
            assert_eq!(ts.len(), 3, "track {track} carries its three spans");
            assert!(
                ts.windows(2).all(|w| w[0] <= w[1]),
                "track {track} timestamps must be monotone: {ts:?}"
            );
        }
    }

    #[test]
    fn strings_are_escaped() {
        let mut s = String::new();
        push_json_str(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }
}
