//! JSON-lines exporter: one self-describing object per event, in
//! emission order — the friendliest format for ad-hoc `jq`/scripting.

use crate::event::{DglEvent, MemEvent, TraceEvent};
use std::fmt::Write as _;

/// Render `events` as JSON lines.
pub fn export(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 80);
    for ev in events {
        write_event(&mut out, ev);
    }
    out
}

/// Append one event as a single self-describing JSON line (with the
/// trailing newline) — the unit the flight recorder's post-mortem
/// dumps are built from.
pub fn write_event(out: &mut String, ev: &TraceEvent) {
    match *ev {
        TraceEvent::Stage {
            seq,
            pc,
            kind,
            stage,
            cycle,
        } => {
            let _ = writeln!(
                    out,
                    "{{\"type\":\"stage\",\"cycle\":{cycle},\"seq\":{seq},\"pc\":{pc},\"kind\":\"{kind}\",\"stage\":\"{stage}\"}}",
                    kind = kind.name(),
                );
        }
        TraceEvent::Squash { seq, pc, cycle } => {
            let _ = writeln!(
                out,
                "{{\"type\":\"squash\",\"cycle\":{cycle},\"seq\":{seq},\"pc\":{pc}}}"
            );
        }
        TraceEvent::Dgl {
            seq,
            pc,
            cycle,
            event,
        } => {
            let _ = write!(
                out,
                "{{\"type\":\"dgl\",\"cycle\":{cycle},\"seq\":{seq},\"pc\":{pc},\"event\":\"{}\"",
                event.name()
            );
            match event {
                DglEvent::Predicted { predicted } | DglEvent::Issued { predicted } => {
                    let _ = write!(out, ",\"predicted\":{predicted}");
                }
                DglEvent::Verified {
                    predicted,
                    actual,
                    correct,
                } => {
                    let _ = write!(
                        out,
                        ",\"predicted\":{predicted},\"actual\":{actual},\"correct\":{correct}"
                    );
                }
                DglEvent::Propagated { addr } => {
                    let _ = write!(out, ",\"addr\":{addr},\"safe\":true");
                }
                DglEvent::Deferred => out.push_str(",\"safe\":false"),
                DglEvent::Discarded { reason } => {
                    let _ = write!(out, ",\"reason\":\"{reason}\"");
                }
                DglEvent::Squashed => {}
            }
            out.push_str("}\n");
        }
        TraceEvent::Mem { cycle, line, event } => {
            let _ = write!(
                out,
                "{{\"type\":\"mem\",\"cycle\":{cycle},\"line\":{line},\"event\":\"{}\"",
                event.name()
            );
            match event {
                MemEvent::Lookup { level, .. } | MemEvent::Fill { level } => {
                    let _ = write!(out, ",\"level\":\"{level}\"");
                }
                MemEvent::Blocked => {}
            }
            out.push_str("}\n");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{InstKind, MemLevel, Stage};
    use dgl_stats::Json;

    #[test]
    fn every_line_is_valid_json() {
        let events = vec![
            TraceEvent::Stage {
                seq: 1,
                pc: 2,
                kind: InstKind::Load,
                stage: Stage::Issue,
                cycle: 3,
            },
            TraceEvent::Dgl {
                seq: 1,
                pc: 2,
                cycle: 4,
                event: DglEvent::Verified {
                    predicted: 8,
                    actual: 16,
                    correct: false,
                },
            },
            TraceEvent::Mem {
                cycle: 5,
                line: 64,
                event: MemEvent::Fill {
                    level: MemLevel::L2,
                },
            },
            TraceEvent::Squash {
                seq: 9,
                pc: 1,
                cycle: 6,
            },
        ];
        let text = export(&events);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), events.len());
        for line in lines {
            Json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        assert!(text.contains("\"correct\":false"));
    }
}
