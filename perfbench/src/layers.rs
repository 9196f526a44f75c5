//! Per-layer accounting for the traced run.
//!
//! Everything here is read from outside the program: counters the
//! layers already expose ([`RunReport`], [`CpiStack`], the stage slots
//! of a shared [`ProfRegistry`], [`StoreCounters`], serve result lines)
//! and times of the benchmark's own calls into public functions.

use crate::math::ratio;
use crate::Metric;
use dgl_pipeline::{core_prof_registry, RunReport};
use dgl_sim::experiments::ConfigId;
use dgl_sim::StoreCounters;
use dgl_stats::{ProfRegistry, ProfReport};
use std::sync::Arc;

/// Pipeline stage slots of [`core_prof_registry`], as reported.
const STAGES: [&str; 8] = [
    "fetch_decode",
    "dispatch",
    "issue",
    "execute",
    "memory",
    "writeback",
    "commit",
    "recovery",
];

/// Metric-name suffix of each configuration (`+` is not a name letter).
pub fn config_key(c: ConfigId) -> String {
    c.label().replace('+', "-")
}

/// Index of `c` in [`ConfigId::ALL`].
pub fn config_index(c: ConfigId) -> usize {
    ConfigId::ALL
        .iter()
        .position(|&x| x == c)
        .expect("every benchmark configuration is one of the paper's eight")
}

/// Simulated counters summed over timing-core runs.
#[derive(Debug, Default, Clone)]
pub struct SimCounters {
    cycles: u64,
    elided: u64,
    committed: u64,
    squashed: u64,
    dgl_issued: u64,
    dgl_propagated: u64,
    ap_loads: u64,
    ap_predicted: u64,
    predictions: u64,
    mispredictions: u64,
    l1_accesses: u64,
    l1_misses: u64,
    l3_misses: u64,
    scheme_cycles: u64,
}

impl SimCounters {
    /// Adds one run's counters.
    pub fn add(&mut self, r: &RunReport) {
        self.cycles += r.cycles;
        self.elided += r.elided_cycles;
        self.committed += r.committed;
        self.squashed += r.stats.squashed;
        self.dgl_issued += r.stats.dgl_issued;
        self.dgl_propagated += r.stats.dgl_propagated;
        self.ap_loads += r.ap.committed_loads;
        self.ap_predicted += r.ap.predicted_loads;
        self.predictions += r.bpred.0;
        self.mispredictions += r.bpred.1;
        self.l1_accesses += r.caches.0.accesses;
        self.l1_misses += r.caches.0.misses;
        self.l3_misses += r.caches.2.misses;
        if let Some(cpi) = &r.cpi {
            self.scheme_cycles += cpi
                .iter()
                .filter(|(c, _)| c.name().starts_with("scheme."))
                .map(|(_, n)| n)
                .sum::<u64>();
        }
    }
}

/// Everything the traced run measures, one workload at a time. Layers
/// a workload does not exercise stay zero.
#[derive(Debug, Default)]
pub struct Layers {
    /// Counters of the profiled timing-core runs.
    pub sim: SimCounters,
    /// Stage profile of the profiled runs.
    pub prof: Option<ProfReport>,
    /// Seconds in `SimBuilder::build_core` calls.
    pub build_core_s: f64,
    /// Seconds of the profiled timing-core work (construction, warming
    /// and running): the base of `pipeline.build_core_frac`.
    pub timing_s: f64,
    /// Seconds of timing-core runs per configuration.
    pub config_s: [f64; 8],
    /// Checkpoint-store counters.
    pub store: StoreCounters,
    /// Sampled measurement windows simulated.
    pub sampling_windows: u64,
    /// Per-unit queue wait on the serve layer's pool, in ms.
    pub queue_wait_ms: Vec<f64>,
    /// Per-unit run time on the serve layer's pool, in ms.
    pub run_ms: Vec<f64>,
    /// Instructions retired by timed `Emulator::run` calls.
    pub emu_insts: u64,
    /// Seconds in those calls.
    pub emu_s: f64,
    /// Seconds in `Json::parse`.
    pub json_parse_s: f64,
    /// Seconds in `Json` encoding.
    pub json_encode_s: f64,
    /// Self seconds of `dgl_fuzz::generate` calls.
    pub fuzz_generate_s: f64,
    /// Self seconds of `dgl_fuzz::check_cosim` calls.
    pub fuzz_cosim_s: f64,
    /// Self seconds of `dgl_fuzz::check_two_secret` calls.
    pub fuzz_two_secret_s: f64,
    /// Seconds of whole fuzz cases (the base of the `fuzz.*_frac`).
    pub fuzz_case_s: f64,
    /// Fuzz cases checked in the traced pass.
    pub fuzz_cases: u64,
    /// Of which carried a two-secret gadget.
    pub fuzz_gadgets: u64,
    /// Of which the unsafe baseline distinguished the secrets.
    pub fuzz_distinguished: u64,
    /// Median seconds of `dgl_workloads` builds per set-up.
    pub workloads_build_s: f64,
    /// Median set-up seconds (the base of `workloads.build_frac`).
    pub setup_s: f64,
    /// 1 - traced throughput / untraced throughput.
    pub tracing_overhead_frac: f64,
}

/// A profiling registry with the core's stage slots.
pub fn registry() -> Arc<ProfRegistry> {
    Arc::new(core_prof_registry())
}

fn slot(prof: Option<&ProfReport>, name: &str) -> (f64, u64) {
    prof.and_then(|p| p.entries.iter().find(|e| e.name == name))
        .map_or((0.0, 0), |e| (e.ns as f64 * 1e-9, e.calls))
}

impl Layers {
    /// The per-layer metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let prof = self.prof.as_ref();
        let mut m = Vec::new();
        let mut stage_total = 0.0;
        for stage in STAGES {
            let (s, _) = slot(prof, stage);
            if stage != "recovery" {
                stage_total += s;
            }
            m.push(Metric::new(format!("pipeline.{stage}_s"), s, "s"));
        }
        let c = &self.sim;
        // Every stage slot is entered once per ticked cycle. Sampled
        // windows reset their cycle counters after warm-up but not the
        // elided count, so both shares below are taken over the
        // profiled core lifetimes: ticked + elided cycles.
        let (_, ticks) = slot(prof, "commit");
        m.push(Metric::new("pipeline.ticks", ticks as f64, "count"));
        m.push(Metric::new(
            "pipeline.host_ns_per_tick",
            ratio(stage_total * 1e9, ticks as f64),
            "ns",
        ));
        m.push(Metric::new(
            "pipeline.memory_frac",
            ratio(slot(prof, "memory").0, stage_total),
            "ratio",
        ));
        m.push(Metric::new(
            "pipeline.elided_frac",
            ratio(c.elided as f64, (ticks + c.elided) as f64),
            "ratio",
        ));
        m.push(Metric::new(
            "pipeline.squash_frac",
            ratio(c.squashed as f64, (c.committed + c.squashed) as f64),
            "ratio",
        ));
        m.push(Metric::new("pipeline.build_core_s", self.build_core_s, "s"));
        m.push(Metric::new(
            "pipeline.build_core_frac",
            ratio(self.build_core_s, self.timing_s),
            "ratio",
        ));
        for (i, config) in ConfigId::ALL.iter().enumerate() {
            m.push(Metric::new(
                format!("sim.config_s.{}", config_key(*config)),
                self.config_s[i],
                "s",
            ));
        }
        let (hier_s, hier_calls) = slot(prof, "mem.hierarchy");
        m.push(Metric::new("mem.hierarchy_s", hier_s, "s"));
        m.push(Metric::new(
            "mem.hierarchy_calls",
            hier_calls as f64,
            "count",
        ));
        m.push(Metric::new(
            "mem.l1_miss_rate",
            ratio(c.l1_misses as f64, c.l1_accesses as f64),
            "ratio",
        ));
        m.push(Metric::new("mem.l3_misses", c.l3_misses as f64, "count"));
        m.push(Metric::new("core.dgl_issued", c.dgl_issued as f64, "count"));
        m.push(Metric::new(
            "core.dgl_accuracy",
            ratio(c.dgl_propagated as f64, c.dgl_issued as f64),
            "ratio",
        ));
        m.push(Metric::new(
            "core.ap_coverage",
            ratio(c.ap_predicted as f64, c.ap_loads as f64),
            "ratio",
        ));
        m.push(Metric::new(
            "core.scheme_delay_frac",
            ratio(c.scheme_cycles as f64, c.cycles as f64),
            "ratio",
        ));
        m.push(Metric::new(
            "predictor.mispredict_rate",
            ratio(c.mispredictions as f64, c.predictions as f64),
            "ratio",
        ));
        let st = &self.store;
        m.push(Metric::new(
            "sim.ckptstore.hit_rate",
            ratio(st.hits as f64, (st.hits + st.misses) as f64),
            "ratio",
        ));
        m.push(Metric::new(
            "sim.ckptstore.evictions",
            st.evictions as f64,
            "count",
        ));
        m.push(Metric::new(
            "sim.sampling.windows",
            self.sampling_windows as f64,
            "count",
        ));
        let queue: f64 = self.queue_wait_ms.iter().sum();
        let run: f64 = self.run_ms.iter().sum();
        m.push(Metric::new(
            "sim.serve.queue_wait_frac",
            ratio(queue, queue + run),
            "ratio",
        ));
        m.push(Metric::new(
            "isa.emu_kips",
            ratio(self.emu_insts as f64 / 1e3, self.emu_s),
            "kinst/s",
        ));
        m.push(Metric::new("stats.json_parse_s", self.json_parse_s, "s"));
        m.push(Metric::new("stats.json_encode_s", self.json_encode_s, "s"));
        let case_s = self.fuzz_case_s;
        m.push(Metric::new(
            "fuzz.generate_frac",
            ratio(self.fuzz_generate_s, case_s),
            "ratio",
        ));
        m.push(Metric::new(
            "fuzz.cosim_frac",
            ratio(self.fuzz_cosim_s, case_s),
            "ratio",
        ));
        m.push(Metric::new(
            "fuzz.two_secret_frac",
            ratio(self.fuzz_two_secret_s, case_s),
            "ratio",
        ));
        m.push(Metric::new(
            "fuzz.gadget_frac",
            ratio(self.fuzz_gadgets as f64, self.fuzz_cases as f64),
            "ratio",
        ));
        m.push(Metric::new(
            "fuzz.distinguished_frac",
            ratio(self.fuzz_distinguished as f64, self.fuzz_gadgets as f64),
            "ratio",
        ));
        m.push(Metric::new(
            "workloads.build_frac",
            ratio(self.workloads_build_s, self.setup_s),
            "ratio",
        ));
        m.push(Metric::new(
            "tracing_overhead_frac",
            self.tracing_overhead_frac,
            "ratio",
        ));
        m
    }
}
