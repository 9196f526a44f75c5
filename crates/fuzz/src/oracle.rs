//! The two fuzzing oracles, each run across the paper's
//! eight-configuration matrix.
//!
//! **Co-simulation**: for every [`ConfigId`] the timing core's retired
//! architectural state — registers, memory image, instruction count,
//! and the commit-order event stream of load/store addresses and
//! resolved control flow — must match the in-order golden emulator
//! exactly. Any mismatch is a simulator bug by definition
//! ([`dgl_sim::Golden::check`] produces the first-divergence detail).
//! The golden model is walked once per program and every configuration
//! is checked against that one walk.
//!
//! **Two-secret noninterference**: a gadget program is run twice,
//! identical except for the secret byte planted at
//! [`crate::gen::G_SECRET`]. The secret is read architecturally into a
//! dead register and read *usefully* only on transient paths, which
//! puts it inside the threat model of every protected scheme (NDA-P
//! and STT protect speculatively-accessed memory secrets; DoM protects
//! those and more). Each protected configuration must therefore
//! produce the same attacker observation — the filtered L2/L3
//! lookup-and-fill trace of [`dgl_sim::security::observation`] — *and*
//! the same cycle count for both secrets. The unsafe baseline is
//! expected to distinguish the secrets on at least some programs;
//! [`TwoSecretOutcome::baseline_distinguished`] feeds the harness-wide
//! vacuity check that proves the oracle has teeth.
//!
//! Each oracle call builds one [`Core`] and resets it between runs
//! ([`SimBuilder::reset_core`]) instead of building one per run; a
//! reset core is in exactly the state a fresh one is.

use crate::gen::{fuzz_memory, SECRET_A, SECRET_B};
use dgl_core::SchemeKind;
use dgl_isa::{Program, SparseMemory};
use dgl_pipeline::Core;
use dgl_sim::experiments::ConfigId;
use dgl_sim::security::observation;
use dgl_sim::{Golden, SimBuilder};

/// Cycle budget per simulated run; generated programs retire within a
/// small fraction of this.
pub const MAX_CYCLES: u64 = 2_000_000;

/// Which oracle flagged a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleKind {
    /// Timing core diverged from the golden emulator.
    CoSim,
    /// A protected scheme's observable behavior depended on the secret.
    TwoSecret,
}

impl std::fmt::Display for OracleKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            OracleKind::CoSim => "cosim",
            OracleKind::TwoSecret => "two-secret",
        })
    }
}

/// One oracle failure on one configuration.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The configuration that failed.
    pub config: ConfigId,
    /// Which oracle failed.
    pub kind: OracleKind,
    /// First-divergence description.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {}: {}",
            self.kind,
            self.config.label(),
            self.detail
        )
    }
}

/// Runs the co-simulation oracle over all eight configurations.
/// Returns the first divergence, if any.
pub fn check_cosim(program: &Program) -> Option<Divergence> {
    let memory = fuzz_memory(SECRET_A);
    let diverged = |config: ConfigId, detail: String| Divergence {
        config,
        kind: OracleKind::CoSim,
        detail,
    };
    let golden = match Golden::walk(program, memory.clone(), MAX_CYCLES) {
        Ok(golden) => golden,
        Err(e) => return Some(diverged(ConfigId::ALL[0], e.to_string())),
    };
    let mut b = SimBuilder::new();
    let mut core = b.build_core();
    ConfigId::ALL.into_iter().find_map(|config| {
        b.scheme(config.scheme()).address_prediction(config.ap());
        b.run_verified_on(&mut core, &golden, program, memory.clone(), MAX_CYCLES)
            .err()
            .map(|e| diverged(config, e.to_string()))
    })
}

/// One run of `program` on `memory` under `config` with the
/// observation trace on, on `core` (reset first).
pub(crate) fn traced_run(
    core: &mut Core,
    config: ConfigId,
    program: &Program,
    memory: SparseMemory,
) -> Result<dgl_pipeline::RunReport, dgl_pipeline::RunError> {
    SimBuilder::new()
        .scheme(config.scheme())
        .address_prediction(config.ap())
        .trace(true)
        .reset_core(core);
    core.run_in_place(program, memory, MAX_CYCLES)
}

/// Result of the two-secret oracle on one program.
#[derive(Debug, Clone, Default)]
pub struct TwoSecretOutcome {
    /// Noninterference violations: protected configurations whose
    /// observation or cycle count depended on the secret.
    pub violations: Vec<Divergence>,
    /// Whether the unsafe baseline (either ±AP variant) distinguished
    /// the two secrets — the non-vacuity signal.
    pub baseline_distinguished: bool,
}

/// Runs the two-secret noninterference oracle over all eight
/// configurations with the standard secret pair.
pub fn check_two_secret(program: &Program) -> Result<TwoSecretOutcome, String> {
    let mut out = TwoSecretOutcome::default();
    let (mem_a, mem_b) = (fuzz_memory(SECRET_A), fuzz_memory(SECRET_B));
    let mut core = SimBuilder::new().build_core();
    for config in ConfigId::ALL {
        let mut run = |memory: &SparseMemory| {
            traced_run(&mut core, config, program, memory.clone())
                .map_err(|e| format!("{}: {e}", config.label()))
        };
        let ra = run(&mem_a)?;
        let rb = run(&mem_b)?;
        let (oa, ob) = (observation(&ra), observation(&rb));
        let same = oa == ob && ra.cycles == rb.cycles;
        if config.scheme() == SchemeKind::Baseline {
            if !same {
                out.baseline_distinguished = true;
            }
            continue;
        }
        if !same {
            let detail = if ra.cycles != rb.cycles {
                format!(
                    "cycle count depends on the secret: {} vs {}",
                    ra.cycles, rb.cycles
                )
            } else {
                let at = oa
                    .iter()
                    .zip(ob.iter())
                    .position(|(a, b)| a != b)
                    .unwrap_or_else(|| oa.len().min(ob.len()));
                format!(
                    "observable trace depends on the secret: \
                     first difference at event {at} ({} vs {} events)",
                    oa.len(),
                    ob.len()
                )
            };
            out.violations.push(Divergence {
                config,
                kind: OracleKind::TwoSecret,
                detail,
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;

    /// A fixed gadget seed: keep scanning until the generator yields a
    /// gadget program (the mix is seeded, so this is deterministic).
    fn gadget_seed() -> u64 {
        (0..64)
            .find(|&s| generate(s).has_gadget)
            .expect("gadget in first 64 seeds")
    }

    #[test]
    fn cosim_is_clean_on_a_gadget_program() {
        let g = generate(gadget_seed());
        assert_eq!(check_cosim(&g.program).map(|d| d.to_string()), None);
    }

    #[test]
    fn two_secret_gadget_leaks_on_baseline_only() {
        let g = generate(gadget_seed());
        let out = check_two_secret(&g.program).unwrap();
        assert!(
            out.baseline_distinguished,
            "unsafe baseline failed to distinguish the secrets — oracle is vacuous"
        );
        assert!(
            out.violations.is_empty(),
            "protected scheme distinguished the secrets: {}",
            out.violations[0]
        );
    }

    #[test]
    fn non_gadget_program_is_secret_independent_everywhere() {
        let seed = (0..64).find(|&s| !generate(s).has_gadget).unwrap();
        let g = generate(seed);
        let out = check_two_secret(&g.program).unwrap();
        assert!(!out.baseline_distinguished);
        assert!(out.violations.is_empty());
    }
}
