//! `detailed-ilp` and `detailed-memory`: seeded kernels × the paper's
//! eight configurations in detailed mode, on one thread, through
//! `SimBuilder::run_workload`. Every cell is checked against one golden
//! `Emulator::run` per program, outside the timed call.

use crate::layers::{config_index, registry, Layers};
use crate::math::{median, mix, Digest, Tally};
use crate::{calib, secs, timed, timed_setup, Args, EndToEnd, Outcome, MIN_SAMPLES, SETUP_REPEATS};
use dgl_isa::{Emulator, SparseMemory};
use dgl_pipeline::{CoreConfig, RunReport};
use dgl_sim::experiments::ConfigId;
use dgl_sim::{run_manifest, SimBuilder};
use dgl_stats::{Json, SpanCollector};
use dgl_workloads::kernels::{self, REGION_A, REGION_B, REGION_C};
use dgl_workloads::Workload;
use std::time::Instant;

/// Committed-instruction target of each kernel.
const TARGET_INSTS: u64 = 25_000;
/// Emulator step budget for the golden run of one kernel.
const GOLDEN_BUDGET: u64 = 50_000_000;
/// Sensitivity of one-thread detailed-mode throughput to the host's
/// speed (see `calib`): log-log slope against the reference slice over
/// one-second rounds on the tuning host, 1.18-1.29 on `detailed-ilp` and
/// 1.26 on `detailed-memory`.
const HOST_SENSITIVITY: f64 = 1.25;

/// Which detailed workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// L1/L2-resident kernels: high IPC, few idle cycles.
    Ilp,
    /// DRAM-bound kernels: low IPC, long idle gaps, DoM reissue.
    Memory,
}

fn iters(insts_per_iter: u64) -> i64 {
    (TARGET_INSTS / insts_per_iter).max(64) as i64
}

fn workload(
    name: &'static str,
    (program, memory): (dgl_isa::Program, SparseMemory),
    warm_ranges: Vec<(u64, u64)>,
) -> Workload {
    Workload {
        name,
        suite: "perfbench",
        description: "seeded benchmark kernel",
        program,
        memory,
        max_cycles: TARGET_INSTS * 60 + 200_000,
        warm_ranges,
    }
}

/// Hot node ranges of a chase, one per lane (payloads stay cold).
fn chase_warm(nodes: u64, node_stride: u64, lanes: u8) -> Vec<(u64, u64)> {
    let per_lane = (nodes / u64::from(lanes)) * node_stride;
    (0..lanes)
        .map(|l| (kernels::chase_lane_region(l) as u64, per_lane))
        .collect()
}

/// The kernels of a workload, with data generated from `seed`.
fn build(kind: Kind, seed: u64) -> Vec<Workload> {
    let (ra, rb, rc) = (REGION_A as u64, REGION_B as u64, REGION_C as u64);
    let s = |i| mix(seed, i);
    match kind {
        Kind::Ilp => vec![
            workload(
                "compute",
                kernels::compute("compute", iters(41), 6, 512, s(0)),
                Vec::new(),
            ),
            workload(
                "indirect_stream_wrapped",
                kernels::indirect_stream_wrapped(
                    "indirect_stream_wrapped",
                    iters(41),
                    2 * 1024,
                    Some(1),
                    6,
                    1,
                    Some(16 * 1024),
                    s(1),
                ),
                vec![(rb, 2 * 1024 * 8), (ra, 16 * 1024)],
            ),
            workload(
                "stencil",
                kernels::stencil("stencil", iters(28), 24_000, 4, s(2)),
                vec![(ra, 24_000 * 8), (rb, 24_000 * 8), (rc, 24_000 * 8)],
            ),
            workload(
                "interpreter",
                kernels::interpreter("interpreter", iters(17), 6, 8 * 1024, s(3)),
                vec![(ra, iters(17) as u64 * 8), (rb, 8 * 1024 * 8), (rc, 64)],
            ),
        ],
        Kind::Memory => vec![
            workload(
                "pointer_chase",
                kernels::pointer_chase("pointer_chase", iters(33), 24_000, 0x140, 2, 6, s(0)),
                {
                    let mut w = chase_warm(24_000, 0x140, 2);
                    w.push((rb, iters(34) as u64 * 8));
                    w
                },
            ),
            workload(
                "chase_with_churn",
                kernels::chase_with_churn("chase_with_churn", iters(14), 24_000, 48 * 1024, s(1)),
                {
                    let mut w = chase_warm(24_000, 0x140, 1);
                    w.push((rc, 48 * 1024 * 8));
                    w
                },
            ),
            // A pure stream has no data to seed: its memory starts zero.
            workload(
                "streaming",
                kernels::streaming("streaming", iters(22), 8, 2, Some(1), 3),
                Vec::new(),
            ),
        ],
    }
}

/// The golden model's final state of one program.
struct Golden {
    regs: [i64; dgl_isa::reg::NUM_REGS],
    memory: SparseMemory,
    retired: u64,
}

fn golden(w: &Workload) -> Result<Golden, String> {
    let mut emu = Emulator::new(&w.program, w.memory.clone());
    let run = emu
        .run(GOLDEN_BUDGET)
        .map_err(|e| format!("kernel `{}` faults on the emulator: {e}", w.name))?;
    if !run.halted {
        return Err(format!(
            "kernel `{}` does not halt within {GOLDEN_BUDGET} emulator steps",
            w.name
        ));
    }
    Ok(Golden {
        regs: emu.regs(),
        retired: emu.retired(),
        memory: emu.into_memory(),
    })
}

fn builder(c: ConfigId) -> SimBuilder {
    let mut b = SimBuilder::new();
    b.scheme(c.scheme()).address_prediction(c.ap());
    b
}

/// Final state matches the golden model.
fn matches(r: &RunReport, g: &Golden) -> bool {
    r.halted && r.committed == g.retired && r.regs == g.regs && r.memory == g.memory
}

/// Digest of one cell's simulated counters and CPI stack.
fn cell_digest(w: &Workload, c: ConfigId, r: &RunReport) -> u64 {
    let mut d = Digest::default();
    d.eat(w.name.as_bytes());
    d.eat(c.label().as_bytes());
    d.eat(&r.committed.to_le_bytes());
    d.eat(&r.cycles.to_le_bytes());
    d.eat(r.metrics().to_json().to_string().as_bytes());
    if let Some(cpi) = &r.cpi {
        d.eat(cpi.to_json().to_string().as_bytes());
    }
    d.value()
}

/// One set-up: kernel generation, golden runs and one warm-up cell.
struct Inputs {
    programs: Vec<(Workload, Golden)>,
    build_s: f64,
    emu_s: f64,
    emu_insts: u64,
}

fn setup(kind: Kind, seed: u64) -> Result<Inputs, String> {
    let (workloads, build_s) = timed(|| build(kind, seed));
    let mut programs = Vec::new();
    let (mut emu_s, mut emu_insts) = (0.0, 0);
    for w in workloads {
        let (g, dt) = timed(|| golden(&w));
        let g = g?;
        emu_s += dt;
        emu_insts += g.retired;
        programs.push((w, g));
    }
    let (w, g) = &programs[0];
    let warm = builder(ConfigId::Baseline)
        .run_workload(w)
        .map_err(|e| format!("warm-up cell: {e}"))?;
    if !matches(&warm, g) {
        return Err(format!(
            "warm-up cell `{}` diverged from the golden model",
            w.name
        ));
    }
    Ok(Inputs {
        programs,
        build_s,
        emu_s,
        emu_insts,
    })
}

/// What one pass over the cells measured.
#[derive(Default)]
struct Pass {
    e2e: EndToEnd,
    /// Cell digests of the first round, in cell order.
    digests: Vec<u64>,
    /// IPC of each first-round cell, in cell order.
    ipc: Vec<f64>,
}

/// Runs rounds over every (program, config) cell for `seconds` and at
/// least [`MIN_SAMPLES`] cells, each cell after a reference slice that
/// gauges the host's speed. Traced passes split each cell into its
/// layer calls with the profiler on and record spans.
fn pass(
    inputs: &Inputs,
    seconds: f64,
    tally: &mut Tally,
    mut traced: Option<(&mut Layers, &SpanCollector)>,
) -> Pass {
    let reg = registry();
    let cells: Vec<(usize, ConfigId)> = (0..inputs.programs.len())
        .flat_map(|p| ConfigId::ALL.into_iter().map(move |c| (p, c)))
        .collect();
    let mut out = Pass::default();
    let start = Instant::now();
    let mut round = 0usize;
    while round == 0 || secs(start) < seconds || out.e2e.latencies_ms.len() < MIN_SAMPLES {
        let (mut insts, mut busy, mut slices) = (0u64, 0.0, 0.0);
        let mut latencies_s = Vec::with_capacity(cells.len());
        for (i, &(p, c)) in cells.iter().enumerate() {
            slices += calib::slice();
            let (w, g) = &inputs.programs[p];
            let mut b = builder(c);
            let (result, dt) = match traced.as_mut() {
                None => timed(|| b.run_workload(w)),
                Some((layers, spans)) => {
                    b.profiling(reg.clone());
                    let track = (round * cells.len() + i) as u32;
                    let id = format!("{}/{}#{round}", w.name, c.label());
                    let (r, dt) = traced_cell(&b, w, layers, spans, track, &id);
                    layers.config_s[config_index(c)] += dt;
                    (r, dt)
                }
            };
            busy += dt;
            latencies_s.push(dt);
            let ok = match &result {
                Ok(r) => {
                    insts += r.committed;
                    let digest = cell_digest(w, c, r);
                    if round == 0 {
                        out.digests.push(digest);
                        out.ipc.push(r.ipc());
                    }
                    let stats_ok = match traced.as_mut() {
                        None => true,
                        Some((layers, spans)) => {
                            layers.sim.add(r);
                            let track = (round * cells.len() + i) as u32;
                            encode_manifest(layers, spans, track, w, c, r)
                        }
                    };
                    matches(r, g) && digest == out.digests[i] && stats_ok
                }
                Err(e) => {
                    eprintln!("perfbench: {}/{}: {e}", w.name, c.label());
                    if round == 0 {
                        out.digests.push(0);
                        out.ipc.push(f64::NAN);
                    }
                    false
                }
            };
            tally.record(ok);
        }
        let slice_s = slices / cells.len() as f64;
        let nominal = |dt| calib::nominal(dt, slice_s, HOST_SENSITIVITY);
        let e2e = &mut out.e2e;
        e2e.round(cells.len(), insts, nominal(busy), slice_s);
        e2e.latencies_ms
            .extend(latencies_s.iter().map(|&dt| nominal(dt) * 1e3));
        round += 1;
    }
    if let Some((layers, _)) = traced {
        layers.prof = Some(reg.snapshot());
    }
    out
}

/// `run_workload` split into its layer calls — `build_core`, warming
/// the declared hot ranges at the L1 line size, `Core::run` — each in
/// its own span under the cell's.
fn traced_cell(
    b: &SimBuilder,
    w: &Workload,
    layers: &mut Layers,
    spans: &SpanCollector,
    track: u32,
    id: &str,
) -> (Result<RunReport, dgl_pipeline::RunError>, f64) {
    let t = Instant::now();
    let mut cell = spans.begin(track, "cell");
    cell.detail(id);
    let (mut core, build_s) = timed(|| {
        let _s = spans.begin(track, "pipeline.build_core");
        b.build_core()
    });
    {
        let _s = spans.begin(track, "pipeline.warm");
        let l1 = CoreConfig::default().hierarchy.l1;
        for &(start, bytes) in &w.warm_ranges {
            let mut addr = start & l1.line_mask();
            while addr < start + bytes {
                core.warm_line(addr);
                addr += l1.line_bytes as u64;
            }
        }
    }
    let result = {
        let _s = spans.begin(track, "pipeline.run");
        core.run(&w.program, w.memory.clone(), w.max_cycles)
    };
    drop(cell);
    let dt = secs(t);
    layers.build_core_s += build_s;
    layers.timing_s += dt;
    (result, dt)
}

/// Encodes the cell's manifest and parses it back (the stats layer);
/// false unless the round trip reproduces the text.
fn encode_manifest(
    layers: &mut Layers,
    spans: &SpanCollector,
    track: u32,
    w: &Workload,
    c: ConfigId,
    r: &RunReport,
) -> bool {
    let (text, enc) = timed(|| {
        let _s = spans.begin(track, "stats.json_encode");
        run_manifest(w, c, false, r).to_string()
    });
    let (parsed, dec) = timed(|| {
        let _s = spans.begin(track, "stats.json_parse");
        Json::parse(&text)
    });
    layers.json_encode_s += enc;
    layers.json_parse_s += dec;
    parsed.is_ok_and(|doc| doc.to_string() == text)
}

/// Geomean inputs: IPC(scheme + AP) / IPC(baseline) per program and
/// protected scheme, from the first round.
fn norm_ipc(programs: usize, ipc: &[f64]) -> Vec<f64> {
    let at = |p: usize, c: ConfigId| ipc[p * ConfigId::ALL.len() + config_index(c)];
    let mut out = Vec::new();
    for p in 0..programs {
        for c in [ConfigId::NdaAp, ConfigId::SttAp, ConfigId::DomAp] {
            out.push(at(p, c) / at(p, ConfigId::Baseline));
        }
    }
    out
}

/// Runs one detailed workload.
pub fn run(kind: Kind, args: &Args) -> Result<Outcome, String> {
    let (mut setups_s, mut build_s) = (Vec::new(), Vec::new());
    let mut inputs = None;
    for _ in 0..SETUP_REPEATS {
        // The previous set-up's inputs are dropped first, so peak
        // memory holds one copy.
        drop(inputs.take());
        let (i, host_s, nominal_s) = timed_setup(|| setup(kind, args.seed));
        let i = i?;
        setups_s.push(nominal_s);
        build_s.push(i.build_s * nominal_s / host_s);
        inputs = Some(i);
    }
    let inputs = inputs.expect("at least one set-up ran");
    let mut out = Outcome::default();
    let mut tally = Tally::default();
    let first = if args.trace {
        // Untraced reference pass for the tracing overhead, then the
        // traced pass.
        let reference = pass(&inputs, args.seconds / 2.0, &mut tally, None);
        let spans = SpanCollector::new();
        let mut layers = Layers::default();
        let traced = pass(
            &inputs,
            args.seconds,
            &mut tally,
            Some((&mut layers, &spans)),
        );
        layers.tracing_overhead_frac = 1.0 - traced.e2e.rate() / reference.e2e.rate();
        layers.emu_s = inputs.emu_s;
        layers.emu_insts = inputs.emu_insts;
        layers.workloads_build_s = median(&build_s);
        layers.setup_s = median(&setups_s);
        if traced.digests != reference.digests {
            tally.fail_attempted(false);
        }
        out.layers = layers;
        out.spans = spans.finish();
        traced
    } else {
        pass(&inputs, args.seconds, &mut tally, None)
    };
    let mut d = Digest::default();
    for cell in &first.digests {
        d.eat(&cell.to_le_bytes());
    }
    out.digest = d.value();
    out.e2e = first.e2e;
    out.e2e.norm_ipc = norm_ipc(inputs.programs.len(), &first.ipc);
    out.e2e.setups_s.append(&mut setups_s);
    out.tally = tally;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norm_ipc_pairs_each_protected_ap_config_with_the_baseline() {
        // Two programs; IPC of cell (p, c) is (p + 1) * (index + 1).
        let ipc: Vec<f64> = (0..2)
            .flat_map(|p| (0..8).map(move |c| ((p + 1) * (c + 1)) as f64))
            .collect();
        let expect: Vec<f64> = [0usize, 1]
            .iter()
            .flat_map(|&p| {
                [ConfigId::NdaAp, ConfigId::SttAp, ConfigId::DomAp]
                    .map(|c| ((p + 1) * (config_index(c) + 1)) as f64 / (p + 1) as f64)
            })
            .collect();
        assert_eq!(norm_ipc(2, &ipc), expect);
        assert_eq!(expect, [4.0, 6.0, 8.0, 4.0, 6.0, 8.0]);
    }
}
