//! The secure speculation schemes the paper evaluates.
//!
//! `SchemeKind` is only a *tag*: every behavioural question ("does this
//! scheme track taint?", "may this value propagate?") is answered by a
//! `match` in [`crate::rules`], and the registry metadata (aliases,
//! summary, family) lives in [`crate::policy::REGISTRY`].

use std::fmt;
use std::str::FromStr;

/// Which secure speculation scheme the core runs.
///
/// The four baselines of the paper's evaluation (§6) plus two extra
/// variants (NDA-S, NDA-P-eager); each can additionally be combined with
/// address prediction (doppelganger loads). Behaviour lives in the
/// [`crate::rules`] truth table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum SchemeKind {
    /// Unprotected out-of-order execution: speculative load values
    /// propagate freely, so secrets can leak through explicit and
    /// implicit channels.
    #[default]
    Baseline,
    /// Non-speculative Data Access, permissive propagation (NDA-P):
    /// speculative loads may issue and complete, but their *results* are
    /// not propagated to dependents until the load is non-speculative
    /// (Weisse et al., MICRO 2019).
    NdaP,
    /// Non-speculative Data Access, **strict** data propagation (NDA-S):
    /// *no* speculative instruction's result propagates until it is
    /// non-speculative — the most conservative of NDA's strategies
    /// (paper §2.1: it "blocks ILP" too). Not part of the paper's
    /// evaluation; included to show why NDA-P is the one worth
    /// optimizing.
    NdaS,
    /// Speculative Taint Tracking: speculative load outputs are tainted;
    /// taint propagates through dependents; *transmitters* (loads,
    /// stores, branch resolution) with tainted operands are delayed
    /// until the taint's root load reaches the visibility point (Yu et
    /// al., MICRO 2019).
    Stt,
    /// Delay-on-Miss: speculative loads issue but must hit in the L1;
    /// misses are delayed and reissued when the load becomes
    /// non-speculative, and replacement updates for speculative hits are
    /// applied retroactively (Sakalis et al., ISCA 2019).
    DoM,
    /// NDA-P with **eager branch resolution**: branch-like instructions
    /// (conditional branches, indirect jumps, returns) may issue reading
    /// operands that are *ready* but not yet *propagated*, so a C-shadow
    /// fed by a locked load resolves without waiting for the visibility
    /// point. Load/store address operands still require propagation, so
    /// the explicit Spectre-v1 cache channel stays closed; the trade-off
    /// is that a transient value can steer branch *resolution* early,
    /// i.e. the implicit branch channel NDA-P already leaves open (§3)
    /// is reachable slightly sooner. Added as the registry's
    /// proof-of-extensibility: one arm per rule, no stage edits.
    NdaPEager,
}

impl SchemeKind {
    /// All schemes, in the paper's presentation order (plus the NDA
    /// variants).
    pub const ALL: [SchemeKind; 6] = [
        SchemeKind::Baseline,
        SchemeKind::NdaP,
        SchemeKind::NdaS,
        SchemeKind::NdaPEager,
        SchemeKind::Stt,
        SchemeKind::DoM,
    ];

    /// The three secure schemes the paper evaluates.
    pub const SECURE: [SchemeKind; 3] = [SchemeKind::NdaP, SchemeKind::Stt, SchemeKind::DoM];

    /// Short name used in reports (`baseline`, `nda-p`, `stt`, `dom`).
    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::Baseline => "baseline",
            SchemeKind::NdaP => "nda-p",
            SchemeKind::NdaS => "nda-s",
            SchemeKind::NdaPEager => "nda-p-eager",
            SchemeKind::Stt => "stt",
            SchemeKind::DoM => "dom",
        }
    }
}

impl fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing a scheme name fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSchemeError {
    text: String,
}

impl fmt::Display for ParseSchemeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = crate::policy::REGISTRY
            .iter()
            .map(|e| e.kind.name())
            .collect();
        write!(
            f,
            "unknown scheme `{}` (expected one of: {})",
            self.text,
            names.join(", ")
        )
    }
}

impl std::error::Error for ParseSchemeError {}

impl FromStr for SchemeKind {
    type Err = ParseSchemeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        crate::policy::lookup(s)
            .map(|e| e.kind)
            .ok_or_else(|| ParseSchemeError { text: s.to_owned() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for s in SchemeKind::ALL {
            assert_eq!(s.name().parse::<SchemeKind>().unwrap(), s);
        }
    }

    #[test]
    fn aliases_parse() {
        assert_eq!("NDA".parse::<SchemeKind>().unwrap(), SchemeKind::NdaP);
        assert_eq!(
            "delay-on-miss".parse::<SchemeKind>().unwrap(),
            SchemeKind::DoM
        );
        assert_eq!(
            "nda-p-eager".parse::<SchemeKind>().unwrap(),
            SchemeKind::NdaPEager
        );
        let err = "spectre".parse::<SchemeKind>().unwrap_err();
        assert!(err.to_string().contains("nda-p-eager"), "{err}");
    }

    #[test]
    fn secure_excludes_baseline_and_variants() {
        assert!(!SchemeKind::SECURE.contains(&SchemeKind::Baseline));
        assert!(!SchemeKind::SECURE.contains(&SchemeKind::NdaS));
        assert!(!SchemeKind::SECURE.contains(&SchemeKind::NdaPEager));
        assert_eq!(SchemeKind::SECURE.len(), 3);
    }
}
