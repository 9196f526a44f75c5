//! The attack laboratory: in-simulator transient-execution attacks and
//! the observation model used to judge leakage.
//!
//! Two experiment families:
//!
//! * [`SpectreV1Lab`] — the classic bounds-check-bypass gadget
//!   (paper Figure 1(a)): a transient out-of-bounds load reads a secret
//!   and a dependent load encodes it in the cache. The unsafe baseline
//!   must leak; NDA-P, STT, and DoM — with and without doppelganger
//!   loads — must not.
//! * [`DomImplicitLab`] — the Figure 4(b) scenario: a secret residing
//!   in a register selects between two loads inside a mispredicted
//!   region. Under DoM(+AP) the observable memory traffic must be
//!   *identical for any secret value* (noninterference), because
//!   branches resolve in order and doppelganger addresses come from
//!   committed history only.
//!
//! The observation model ([`observation`]) is everything the memory
//! side-channel can reveal: lookups that reach L2/L3 and every line
//! fill. L1 hits with delayed replacement update are invisible (DoM's
//! premise); blocked DoM probes never leave the core.

use crate::builder::SimBuilder;
use dgl_core::SchemeKind;
use dgl_isa::{Program, ProgramBuilder, Reg, SparseMemory};
use dgl_mem::{Level, MemorySystem};
use dgl_pipeline::{CoreConfig, RunError, RunReport};
use dgl_trace::{MemEvent, MemLevel};

fn r(i: u8) -> Reg {
    Reg::new(i)
}

/// Outcome of a leak probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeakOutcome {
    /// The cache state encodes this secret byte.
    Leaked(u8),
    /// No probe line beyond the legitimate ones was cached.
    NoLeak,
}

/// Memory layout of the Spectre gadget.
const A1: i64 = 0x0010_0000; // array1 (8 in-bounds elements, all zero)
const XS: i64 = 0x0011_0000; // per-iteration x values
const PROBE: i64 = 0x0020_0000; // probe array, 512-byte stride
const SECRET: i64 = 0x0030_0000; // the secret byte's qword
const CHAIN: i64 = 0x0040_0000; // pointer chase supplying `size`

/// The bounds-check-bypass laboratory.
///
/// # Examples
///
/// ```
/// use dgl_sim::security::{LeakOutcome, SpectreV1Lab};
/// use dgl_core::SchemeKind;
///
/// let lab = SpectreV1Lab::new(42);
/// let (outcome, _) = lab.run(SchemeKind::Baseline, false)?;
/// assert_eq!(outcome, LeakOutcome::Leaked(42), "baseline must leak");
/// let (outcome, _) = lab.run(SchemeKind::Stt, true)?;
/// assert_eq!(outcome, LeakOutcome::NoLeak, "STT+AP must not leak");
/// # Ok::<(), dgl_pipeline::RunError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SpectreV1Lab {
    program: Program,
    memory: SparseMemory,
    secret: u8,
    train_iters: u64,
}

impl SpectreV1Lab {
    /// Builds the gadget around a secret byte (must be nonzero: zero is
    /// the training value and cannot be distinguished).
    ///
    /// # Panics
    ///
    /// Panics if `secret == 0`.
    pub fn new(secret: u8) -> Self {
        assert_ne!(secret, 0, "secret 0 aliases the training probe line");
        let train_iters: u64 = 14;
        let total = train_iters + 1;

        // The victim:
        //
        //   for j in 0..=TRAIN {
        //       size_node = *size_node;          // cold, unpredictable
        //       size      = size_node[8];        // arrives ~2 misses later
        //       x         = xs[j];
        //       if (x < size) {                  // trained not-to-skip
        //           v = array1[x];               // transient on last iter
        //           probe[v * 512];              // transmitter
        //       }
        //   }
        let mut b = ProgramBuilder::new("spectre_v1");
        b.imm(r(1), A1)
            .imm(r(2), CHAIN) // size-node cursor
            .imm(r(3), PROBE)
            .imm(r(4), XS)
            .imm(r(5), total as i64) // loop counter
            .imm(r(9), SECRET)
            .load(r(9), r(9), 0) // victim's own use: warms the secret line
            .label("top")
            .load(r(2), r(2), 0) // chase: next size node (always cold)
            .load(r(6), r(2), 8) // size value (cold line)
            .load(r(7), r(4), 0) // x = xs[j] (warm after first iter)
            .bge(r(7), r(6), "skip") // bounds check
            .shli(r(8), r(7), 3)
            .add(r(8), r(8), r(1))
            .load(r(8), r(8), 0) // v = array1[x] — reads SECRET when OOB
            .shli(r(8), r(8), 9)
            .add(r(8), r(8), r(3))
            .load(Reg::ZERO, r(8), 0) // probe[v*512]: the transmitter
            .label("skip")
            .addi(r(4), r(4), 8)
            .subi(r(5), r(5), 1)
            .bne(r(5), Reg::ZERO, "top")
            .halt();
        let program = b.build().expect("gadget builds");

        let mut memory = SparseMemory::new();
        // array1: 8 zero elements (so training probes line 0 only).
        for i in 0..8u64 {
            memory.write_u64((A1 as u64) + 8 * i, 0);
        }
        memory.write_u64(SECRET as u64, secret as u64);
        // x values: in-bounds zeros, then the out-of-bounds index that
        // aliases array1[x] onto the secret.
        let oob = ((SECRET - A1) / 8) as u64;
        for j in 0..train_iters {
            memory.write_u64((XS as u64) + 8 * j, 0);
        }
        memory.write_u64((XS as u64) + 8 * train_iters, oob);
        // The size chain: a scattered linked list, value 8 at +8.
        let mut node = CHAIN as u64;
        let mut state = 0xdead_beefu64;
        for _ in 0..=total {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let next = CHAIN as u64 + (state % 4096) * 0x1000;
            memory.write_u64(node, next);
            memory.write_u64(node + 8, 8); // size = 8
            node = next;
        }
        Self {
            program,
            memory,
            secret,
            train_iters,
        }
    }

    /// The secret planted in memory.
    pub fn secret(&self) -> u8 {
        self.secret
    }

    /// Training iterations before the malicious access.
    pub fn train_iters(&self) -> u64 {
        self.train_iters
    }

    /// Runs the gadget under a configuration and probes the cache.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn run(&self, scheme: SchemeKind, ap: bool) -> Result<(LeakOutcome, RunReport), RunError> {
        let mut core = SimBuilder::new()
            .scheme(scheme)
            .address_prediction(ap)
            .config(CoreConfig::default())
            .build_core();
        let report = core.run_in_place(&self.program, self.memory.clone(), 2_000_000)?;
        Ok((self.probe(core.memory_system()), report))
    }

    /// Attacker's flush+reload equivalent: which probe line (other than
    /// the training line 0) is resident anywhere in the hierarchy left
    /// by a run ([`Core::memory_system`](dgl_pipeline::Core::memory_system))?
    pub fn probe(&self, mem: &MemorySystem) -> LeakOutcome {
        for v in 1..=255u64 {
            let addr = (PROBE as u64) + v * 512;
            if mem.contains(Level::L3, addr)
                || mem.contains(Level::L2, addr)
                || mem.contains(Level::L1, addr)
            {
                return LeakOutcome::Leaked(v as u8);
            }
        }
        LeakOutcome::NoLeak
    }
}

/// Filters a run's trace down to the attacker-observable events: L2/L3
/// lookups and every fill, as `(line, event)` pairs. See the module
/// docs for the rationale.
pub fn observation(report: &RunReport) -> Vec<(u64, MemEvent)> {
    report
        .mem_trace
        .iter()
        .copied()
        .filter(|(_, e)| match e {
            MemEvent::Lookup { level, .. } => *level != MemLevel::L1,
            MemEvent::Fill { .. } => true,
            MemEvent::Blocked => false,
        })
        .collect()
}

/// Figure 4(b): a register-resident secret selects between two loads in
/// a mispredicted region. The noninterference check runs the gadget
/// with two different secrets and compares observations.
#[derive(Debug, Clone)]
pub struct DomImplicitLab {
    program: Program,
}

/// Layout for [`DomImplicitLab`].
const D_SECRET: i64 = 0x0050_0000;
const D_CHAIN: i64 = 0x0060_0000;
const D_X: i64 = 0x0070_0000; // load X target (then/else arms)
const D_Y: i64 = 0x0078_0000; // load Y target

impl DomImplicitLab {
    /// Builds the gadget.
    pub fn new() -> Self {
        // r9 = secret, loaded *non-speculatively* (this is the register
        // secret DoM's threat model protects; NDA-P and STT explicitly
        // do not — §3). The guarded region is **never executed
        // architecturally**: the guard is always taken, but the cold
        // predictor mispredicts it not-taken on early iterations, and
        // its operand comes from a cold pointer chase, so the region
        // runs transiently for ~150 cycles. Inside, the secret's parity
        // picks load X or load Y — the implicit channel of Figure 4(b).
        let mut b = ProgramBuilder::new("dom_implicit");
        b.imm(r(9), D_SECRET)
            .load(r(9), r(9), 0) // architectural secret load
            .imm(r(2), D_CHAIN)
            .imm(r(5), 6) // iterations
            .label("top")
            .load(r(2), r(2), 0) // slow chase: guard operand (cold miss)
            .load(r(7), r(2), 8) // always 1
            .bne(r(7), Reg::ZERO, "after") // always taken; cold-mispredicted
            // --- transient-only region ---
            .andi(r(8), r(9), 1)
            .beq(r(8), Reg::ZERO, "even")
            .imm(r(10), D_X)
            .load(Reg::ZERO, r(10), 0) // load X (odd secrets)
            .jmp("after")
            .label("even")
            .imm(r(11), D_Y)
            .load(Reg::ZERO, r(11), 0) // load Y (even secrets)
            .label("after")
            .subi(r(5), r(5), 1)
            .bne(r(5), Reg::ZERO, "top")
            .halt();
        Self {
            program: b.build().expect("gadget builds"),
        }
    }

    /// The gadget program (shared by every secret value).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Builds the memory image for a given secret value.
    pub fn memory(&self, secret: u64) -> SparseMemory {
        let mut m = SparseMemory::new();
        m.write_u64(D_SECRET as u64, secret);
        let mut node = D_CHAIN as u64;
        let mut state = 0x1234_5678u64;
        for _ in 0..8u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let next = D_CHAIN as u64 + (state % 4096) * 0x1000;
            m.write_u64(node, next);
            m.write_u64(node + 8, 1); // guard: always taken
            node = next;
        }
        m
    }

    /// Runs with the given secret and returns the observable trace.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn observe(
        &self,
        scheme: SchemeKind,
        ap: bool,
        secret: u64,
    ) -> Result<Vec<(u64, MemEvent)>, RunError> {
        let report = SimBuilder::new()
            .scheme(scheme)
            .address_prediction(ap)
            .trace(true)
            .config(CoreConfig::default())
            .run_program(&self.program, self.memory(secret), 2_000_000)?;
        Ok(observation(&report))
    }

    /// Whether the run's *final* state or trace distinguishes two
    /// secrets under a configuration: the noninterference check.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn distinguishes(&self, scheme: SchemeKind, ap: bool) -> Result<bool, RunError> {
        let a = self.observe(scheme, ap, 1)?; // odd: would pick load X
        let b = self.observe(scheme, ap, 2)?; // even: would pick load Y
        Ok(a != b)
    }
}

impl Default for DomImplicitLab {
    fn default() -> Self {
        Self::new()
    }
}

/// Addresses of the two secret-selected loads, for direct cache probes
/// in tests: `(X, Y)`.
pub fn dom_implicit_targets() -> (u64, u64) {
    (D_X as u64, D_Y as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_leaks_the_secret() {
        let lab = SpectreV1Lab::new(0x5A);
        let (outcome, report) = lab.run(SchemeKind::Baseline, false).unwrap();
        assert!(report.halted);
        assert_eq!(outcome, LeakOutcome::Leaked(0x5A));
    }

    #[test]
    #[should_panic(expected = "aliases the training")]
    fn zero_secret_rejected() {
        let _ = SpectreV1Lab::new(0);
    }

    #[test]
    fn nda_blocks_the_leak() {
        let lab = SpectreV1Lab::new(0x5A);
        let (outcome, _) = lab.run(SchemeKind::NdaP, false).unwrap();
        assert_eq!(outcome, LeakOutcome::NoLeak);
    }

    #[test]
    fn dom_implicit_lab_runs() {
        let lab = DomImplicitLab::new();
        // The architectural outcome itself must differ by secret (the
        // final iteration executes the region for real) — so the
        // *baseline* trace must distinguish.
        assert!(lab.distinguishes(SchemeKind::Baseline, false).unwrap());
    }
}
