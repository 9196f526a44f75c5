//! Configuration of the doppelganger mechanism.

use dgl_predictor::StrideTableConfig;

/// Configuration for [`AddressPredictor`](crate::AddressPredictor).
///
/// The default reproduces the paper's setup: a 1024-entry, 8-way stride
/// structure shared between prefetching and address prediction, with
/// prefetching always enabled (every evaluated design "features a
/// PC-based stride prefetcher", §6). Address prediction is toggled per
/// experiment ("+AP" configurations), so it is not a field here: it is
/// the flag [`AddressPredictor::new`](crate::AddressPredictor::new) and
/// the core take beside this configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DoppelgangerConfig {
    /// Whether prefetching mode is enabled.
    pub prefetch: bool,
    /// Whether predictions compensate for in-flight instances of the
    /// same load PC (`last_committed + stride × (inflight + 1)` instead
    /// of the paper's literal `last + stride`). Defaults to on; turning
    /// it off reproduces the plain rule for the ablation study, where
    /// accuracy collapses on deep-window strided code.
    pub inflight_compensation: bool,
    /// Geometry of the shared stride table.
    pub table: StrideTableConfig,
}

impl Default for DoppelgangerConfig {
    fn default() -> Self {
        Self {
            prefetch: true,
            inflight_compensation: true,
            table: StrideTableConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_prefetches_through_the_paper_table() {
        let c = DoppelgangerConfig::default();
        assert!(c.prefetch);
        assert!(c.inflight_compensation);
        assert_eq!(c.table.entries, 1024);
        assert_eq!(c.table.ways, 8);
    }
}
