//! Completion order within one cycle. A younger multiply issues ahead
//! of an older add that waits on a two-add chain; both complete in the
//! same cycle, and their results must reach writeback oldest first, as
//! a commit-order machine would see them. Checked from the JSON-lines
//! trace, with the registers checked against the golden emulator.

use dgl_core::SchemeKind;
use dgl_isa::{Emulator, Program, ProgramBuilder, Reg, SparseMemory};
use dgl_pipeline::{Core, CoreConfig};
use dgl_stats::Json;
use dgl_trace::RecordingSink;

fn r(i: u8) -> Reg {
    Reg::new(i)
}

fn kernel() -> Program {
    let mut b = ProgramBuilder::new("same-cycle-completions");
    b.imm(r(1), 5)
        .imm(r(2), 7)
        // Let the immediates land before the interesting group.
        .nop()
        .nop()
        .nop()
        .nop()
        .nop()
        .nop()
        .nop()
        .nop()
        .add(r(3), r(1), r(1))
        .add(r(3), r(3), r(1))
        // Older add: issues two cycles after the multiply below.
        .add(r(4), r(3), r(1))
        // Younger multiply: independent, issues at once, 3 cycles.
        .mul(r(5), r(1), r(2))
        .halt();
    b.build().unwrap()
}

/// `(cycle, seq, stage, pc)` of every stage stamp, in emission order.
fn stamps(jsonl: &str) -> Vec<(u64, u64, String, u64)> {
    jsonl
        .lines()
        .map(|l| Json::parse(l).expect("one JSON object per line"))
        .filter(|j| j.get("type").and_then(Json::as_str) == Some("stage"))
        .map(|j| {
            let num = |k| j.get(k).and_then(Json::as_u64).expect(k);
            let stage = j.get("stage").and_then(Json::as_str).expect("stage");
            (num("cycle"), num("seq"), stage.to_owned(), num("pc"))
        })
        .collect()
}

#[test]
fn same_cycle_writebacks_follow_age_order() {
    let p = kernel();
    let mut emu = Emulator::new(&p, SparseMemory::new());
    emu.run(1_000).unwrap();
    let (add_pc, mul_pc) = (12u64 << 2, 13u64 << 2);
    for (name, cfg) in [
        ("default", CoreConfig::default()),
        ("tiny", CoreConfig::tiny()),
    ] {
        let mut core = Core::new(cfg, SchemeKind::Baseline, false);
        core.set_trace_sink(Box::new(RecordingSink::new()));
        let mut rep = core.run(&p, SparseMemory::new(), 100_000).expect("run");
        assert!(rep.halted, "{name}");
        for i in 1..=5 {
            assert_eq!(rep.reg(r(i)), emu.reg(r(i)), "{name} r{i}");
        }
        let events = rep.trace_sink.as_mut().expect("sink").drain();
        let all = stamps(&dgl_trace::jsonl::export(&events));
        let at = |pc, stage: &str| {
            all.iter()
                .find(|s| s.3 == pc && s.2 == stage)
                .map(|s| (s.0, s.1))
                .unwrap_or_else(|| panic!("{name}: no {stage} stamp for pc {pc}"))
        };
        let (add_issue, add_seq) = at(add_pc, "issue");
        let (mul_issue, mul_seq) = at(mul_pc, "issue");
        assert!(add_seq < mul_seq, "{name}: program order");
        assert!(
            mul_issue < add_issue,
            "{name}: the multiply must issue first"
        );
        let (add_wb, _) = at(add_pc, "writeback");
        let (mul_wb, _) = at(mul_pc, "writeback");
        assert_eq!(add_wb, mul_wb, "{name}: both must complete in one cycle");
        let order: Vec<u64> = all
            .iter()
            .filter(|s| s.0 == add_wb && s.2 == "writeback")
            .map(|s| s.1)
            .collect();
        assert!(
            order.windows(2).all(|w| w[0] < w[1]),
            "{name}: writebacks of cycle {add_wb} out of age order: {order:?}"
        );
    }
}
