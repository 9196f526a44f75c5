//! The two-secret oracle takes its secret-A runs from the co-simulation
//! pass that checked the same program on the same thread. Whatever it
//! takes, its outcome must be the one it computes on a thread of its
//! own, which holds no co-simulation runs: the same violations
//! (configuration, oracle and detail), the same vacuity signal and the
//! same error text.

use dgl_fuzz::{check_cosim, check_two_secret, generate, OracleKind, TwoSecretOutcome, MAX_CYCLES};
use dgl_isa::{Program, ProgramBuilder, Reg};
use dgl_sim::experiments::ConfigId;
use std::sync::OnceLock;

/// Generator seeds checked, gadget and non-gadget programs alike.
const SEEDS: u64 = 64;

/// Everything a caller of the oracle can see of its outcome.
type Verdict = Result<(bool, Vec<(ConfigId, OracleKind, String)>), String>;

fn verdict(out: Result<TwoSecretOutcome, String>) -> Verdict {
    out.map(|o| {
        let violations = o.violations.into_iter();
        let violations = violations.map(|d| (d.config, d.kind, d.detail));
        (o.baseline_distinguished, violations.collect())
    })
}

/// A loop that jumps off the program: both oracles fail on it, the
/// two-secret one with a run error.
fn jumps_off_the_end() -> Program {
    let r1 = Reg::new(1);
    let mut b = ProgramBuilder::new("jumps-off");
    b.imm(r1, 3)
        .label("top")
        .subi(r1, r1, 1)
        .bne(r1, Reg::ZERO, "top")
        .imm(r1, 1_000_000)
        .jr(r1)
        .halt();
    b.build().unwrap()
}

/// A loop that never halts: both oracles refuse it, the two-secret one
/// because its first run hits the cycle budget.
fn spins() -> Program {
    let mut b = ProgramBuilder::new("spins");
    b.label("top").jmp("top").halt();
    b.build().unwrap()
}

/// The generated programs, then two that fail.
fn programs() -> &'static [Program] {
    static PROGRAMS: OnceLock<Vec<Program>> = OnceLock::new();
    PROGRAMS.get_or_init(|| {
        let generated = (0..SEEDS).map(|seed| generate(seed).program);
        generated.chain([jumps_off_the_end(), spins()]).collect()
    })
}

/// Each program's verdict from a thread that ran no co-simulation.
fn fresh() -> &'static [Verdict] {
    static FRESH: OnceLock<Vec<Verdict>> = OnceLock::new();
    FRESH.get_or_init(|| {
        std::thread::spawn(|| {
            programs()
                .iter()
                .map(|p| verdict(check_two_secret(p)))
                .collect()
        })
        .join()
        .unwrap()
    })
}

#[test]
fn the_mix_has_both_kinds_of_program() {
    let gadgets = (0..SEEDS).filter(|&s| generate(s).has_gadget).count();
    assert!((8..SEEDS as usize - 8).contains(&gadgets), "{gadgets}");
    let fresh = fresh();
    assert!(fresh.iter().any(|v| matches!(v, Ok((true, _)))));
    assert_eq!(fresh.iter().filter(|v| v.is_err()).count(), 2);
}

#[test]
fn a_program_that_never_halts_is_refused_at_its_first_run() {
    // The first configuration's secret-A run is the first run the
    // oracle simulates: an error naming it means no other run was.
    let first = ConfigId::ALL[0].label();
    let want = format!("{first}: did not halt within {MAX_CYCLES} cycles");
    assert_eq!(programs().last(), Some(&spins()));
    assert_eq!(fresh().last(), Some(&Err(want)));
}

#[test]
fn runs_taken_from_cosim_give_the_fresh_outcome() {
    for (p, fresh) in programs().iter().zip(fresh()) {
        let clean = check_cosim(p).is_none();
        assert_eq!(clean, fresh.is_ok(), "{}", p.name());
        assert_eq!(&verdict(check_two_secret(p)), fresh, "{}", p.name());
    }
}

#[test]
fn runs_of_another_program_are_not_taken() {
    let (programs, fresh) = (programs(), fresh());
    for i in 0..programs.len() {
        let j = (i + 1) % programs.len();
        check_cosim(&programs[i]);
        assert_eq!(
            verdict(check_two_secret(&programs[j])),
            fresh[j],
            "{} after {}",
            programs[j].name(),
            programs[i].name()
        );
    }
}
