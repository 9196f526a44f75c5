//! Core configuration (defaults = the paper's Table 1).

use dgl_core::DoppelgangerConfig;
use dgl_mem::HierarchyConfig;
use dgl_predictor::BranchPredictorConfig;

/// Out-of-order core parameters.
///
/// [`Default`] reproduces Table 1's IceLake-like configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Decode (and rename) width per cycle (Table 1: 5).
    pub decode_width: usize,
    /// Issue width per cycle (Table 1: 8).
    pub issue_width: usize,
    /// Commit width per cycle (Table 1: 8).
    pub commit_width: usize,
    /// Instruction queue entries (Table 1: 160).
    pub iq_entries: usize,
    /// Reorder buffer entries (Table 1: 352).
    pub rob_entries: usize,
    /// Load queue entries (Table 1: 128).
    pub lq_entries: usize,
    /// Store queue entries (Table 1: 72).
    pub sq_entries: usize,
    /// Store buffer entries draining committed stores.
    pub store_buffer_entries: usize,
    /// Physical integer registers.
    pub phys_regs: usize,
    /// Fetch-to-rename depth in cycles (front-end pipeline length).
    pub frontend_depth: u64,
    /// Extra cycles of redirect penalty after a squash.
    pub squash_penalty: u64,
    /// Demand-load memory ports per cycle.
    pub load_ports: usize,
    /// Store (buffer drain) ports per cycle.
    pub store_ports: usize,
    /// Maximum prefetches issued per cycle.
    pub prefetch_ports: usize,
    /// Cap on queued (not yet issued) prefetch candidates.
    pub prefetch_queue: usize,
    /// Abort threshold: cycles without a commit before declaring
    /// deadlock (simulator bug guard, not a microarchitectural feature).
    pub deadlock_cycles: u64,
    /// Branch predictor configuration.
    pub branch: BranchPredictorConfig,
    /// Memory hierarchy configuration.
    pub hierarchy: HierarchyConfig,
    /// Doppelganger / prefetcher configuration. Address prediction is
    /// switched by the `address_prediction` argument of
    /// [`Core::new`](crate::Core::new) and [`Core::reset`](crate::Core::reset).
    pub doppelganger: DoppelgangerConfig,
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self {
            decode_width: 5,
            issue_width: 8,
            commit_width: 8,
            iq_entries: 160,
            rob_entries: 352,
            lq_entries: 128,
            sq_entries: 72,
            store_buffer_entries: 56,
            phys_regs: 512,
            frontend_depth: 6,
            squash_penalty: 4,
            load_ports: 3,
            store_ports: 1,
            prefetch_ports: 1,
            prefetch_queue: 8,
            deadlock_cycles: 50_000,
            branch: BranchPredictorConfig::default(),
            hierarchy: HierarchyConfig::default(),
            doppelganger: DoppelgangerConfig::default(),
        }
    }
}

impl CoreConfig {
    /// A scaled-down configuration for fast unit tests: small windows,
    /// tiny caches, same mechanism semantics.
    pub fn tiny() -> Self {
        Self {
            iq_entries: 16,
            rob_entries: 32,
            lq_entries: 8,
            sq_entries: 8,
            store_buffer_entries: 8,
            phys_regs: 80,
            hierarchy: HierarchyConfig::tiny(),
            ..Self::default()
        }
    }

    /// Validates structural invariants.
    ///
    /// # Panics
    ///
    /// Panics when the physical register file cannot cover the ROB plus
    /// architectural state, or widths are zero.
    pub fn validate(&self) {
        assert!(self.decode_width > 0 && self.issue_width > 0 && self.commit_width > 0);
        assert!(
            self.phys_regs >= self.rob_entries / 2 + 33,
            "phys_regs too small for the ROB"
        );
        assert!(self.lq_entries > 0 && self.sq_entries > 0 && self.rob_entries > 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1() {
        let c = CoreConfig::default();
        assert_eq!(c.decode_width, 5);
        assert_eq!(c.issue_width, 8);
        assert_eq!(c.commit_width, 8);
        assert_eq!(c.iq_entries, 160);
        assert_eq!(c.rob_entries, 352);
        assert_eq!(c.lq_entries, 128);
        assert_eq!(c.sq_entries, 72);
        c.validate();
    }

    #[test]
    fn tiny_validates() {
        CoreConfig::tiny().validate();
    }

    #[test]
    #[should_panic(expected = "phys_regs")]
    fn undersized_prf_panics() {
        let c = CoreConfig {
            phys_regs: 10,
            ..CoreConfig::default()
        };
        c.validate();
    }
}
