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
//!
//! **The secret-A runs are simulated once.** Co-simulation runs every
//! configuration on the secret-A image, which is the first half of
//! the two-secret pair. The commit log and the observation trace are
//! both write-only observers, so [`check_cosim`] runs with both on.
//! When all eight configurations match the golden model, it leaves
//! each one's observation and cycle count in a one-entry slot of the
//! calling thread, keyed by the program. [`check_two_secret`] takes
//! the slot when it holds an equal program and then simulates only the
//! eight secret-B runs. Otherwise (another program, a co-simulation
//! divergence, a direct call) it runs both secrets itself. Taking the
//! slot empties it, and the next [`check_cosim`] clears it, so an
//! entry never outlives the case it came from. A caller that runs the
//! two oracles in that order on one thread, as the runner does,
//! simulates 16 runs per gadget case instead of 24; outcomes and error
//! texts are the same either way.

use crate::gen::{fuzz_memory, SECRET_A, SECRET_B};
use dgl_core::SchemeKind;
use dgl_isa::Program;
use dgl_pipeline::{Core, RunReport};
use dgl_sim::experiments::ConfigId;
use dgl_sim::security::observation;
use dgl_sim::{Golden, SimBuilder};
use dgl_trace::MemEvent;
use std::cell::RefCell;

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

/// What the two-secret oracle compares of one run: the attacker's
/// observation ([`observation`]) and the cycle count.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Observed {
    events: Vec<(u64, MemEvent)>,
    cycles: u64,
}

impl Observed {
    fn of(report: &RunReport) -> Self {
        Self {
            events: observation(report),
            cycles: report.cycles,
        }
    }
}

/// The secret-A runs of the last program [`check_cosim`] verified on
/// this thread, one per configuration in [`ConfigId::ALL`] order.
struct SecretARuns {
    program: Program,
    runs: Vec<Observed>,
}

thread_local! {
    static SECRET_A_RUNS: RefCell<Option<SecretARuns>> = const { RefCell::new(None) };
}

/// Empties this thread's slot, returning its runs if they are
/// `program`'s.
fn take_secret_a_runs(program: &Program) -> Option<Vec<Observed>> {
    SECRET_A_RUNS
        .take()
        .filter(|slot| slot.program == *program)
        .map(|slot| slot.runs)
}

/// Runs the co-simulation oracle over all eight configurations.
/// Returns the first divergence, if any. A clean program's secret-A
/// runs are kept for [`check_two_secret`] (see the module docs).
pub fn check_cosim(program: &Program) -> Option<Divergence> {
    SECRET_A_RUNS.set(None);
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
    b.trace(true);
    let mut core = b.build_core();
    let mut runs = Vec::with_capacity(ConfigId::ALL.len());
    for config in ConfigId::ALL {
        b.scheme(config.scheme()).address_prediction(config.ap());
        match b.run_verified_on(&mut core, &golden, program, memory.clone(), MAX_CYCLES) {
            Ok(report) => runs.push(Observed::of(&report)),
            Err(e) => return Some(diverged(config, e.to_string())),
        }
    }
    SECRET_A_RUNS.set(Some(SecretARuns {
        program: program.clone(),
        runs,
    }));
    None
}

/// One run of `program` on the `secret` image under `config` with the
/// observation trace on, on `core` (reset first). A run that fails or
/// does not halt within [`MAX_CYCLES`] is an error naming `config`.
pub(crate) fn observe(
    core: &mut Core,
    config: ConfigId,
    program: &Program,
    secret: u8,
) -> Result<Observed, String> {
    SimBuilder::new()
        .scheme(config.scheme())
        .address_prediction(config.ap())
        .trace(true)
        .reset_core(core);
    let label = config.label();
    match core.run_in_place(program, fuzz_memory(secret), MAX_CYCLES) {
        Ok(report) if report.halted => Ok(Observed::of(&report)),
        Ok(_) => Err(format!("{label}: did not halt within {MAX_CYCLES} cycles")),
        Err(e) => Err(format!("{label}: {e}")),
    }
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
/// configurations with the standard secret pair. The secret-A runs
/// come from this thread's last [`check_cosim`] when it checked an
/// equal program, and are simulated here otherwise. The first run
/// that fails or does not halt is the error; no further run is made.
pub fn check_two_secret(program: &Program) -> Result<TwoSecretOutcome, String> {
    let mut out = TwoSecretOutcome::default();
    let mut shared = take_secret_a_runs(program).map(Vec::into_iter);
    let mut core = SimBuilder::new().build_core();
    for config in ConfigId::ALL {
        let mut run = |secret: u8| observe(&mut core, config, program, secret);
        let a = match shared.as_mut().and_then(Iterator::next) {
            Some(a) => a,
            None => run(SECRET_A)?,
        };
        let b = run(SECRET_B)?;
        if a == b {
            continue;
        }
        if config.scheme() == SchemeKind::Baseline {
            out.baseline_distinguished = true;
            continue;
        }
        let detail = if a.cycles != b.cycles {
            format!(
                "cycle count depends on the secret: {} vs {}",
                a.cycles, b.cycles
            )
        } else {
            let (oa, ob) = (&a.events, &b.events);
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

    /// The program this thread's slot holds runs for, and how many.
    fn slot() -> Option<(Program, usize)> {
        SECRET_A_RUNS.with_borrow(|s| s.as_ref().map(|s| (s.program.clone(), s.runs.len())))
    }

    #[test]
    fn the_slot_lives_from_a_clean_cosim_to_the_next_oracle_call() {
        let g = generate(gadget_seed());
        assert!(check_cosim(&g.program).is_none());
        assert_eq!(slot(), Some((g.program.clone(), ConfigId::ALL.len())));
        check_two_secret(&g.program).unwrap();
        assert_eq!(slot(), None, "taking the runs empties the slot");

        // A golden walk that never halts: co-simulation rejects the
        // program and clears the slot the clean call filled.
        assert!(check_cosim(&g.program).is_none());
        let mut b = dgl_isa::ProgramBuilder::new("spins");
        b.label("top").jmp("top").halt();
        let spins = b.build().unwrap();
        let rejected = check_cosim(&spins).expect("a program that never halts");
        assert!(rejected.detail.contains("did not halt"), "{rejected}");
        assert_eq!(slot(), None);
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
