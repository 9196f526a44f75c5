//! Per-static-load doppelganger attribution.
//!
//! Aggregate counters ([`CoreStats`](crate::CoreStats)) say *how many*
//! doppelgangers propagated or were discarded; this table says *which
//! load instructions* they came from. The core's doppelganger event
//! fold writes both from the same lifecycle event, so the table's
//! column sums equal the aggregate counters exactly — a property the
//! test suite pins.
//!
//! Sites are keyed by [`Core::pc_addr`](crate::Core::pc_addr), the
//! same byte-address-like key the predictors are trained with.

use dgl_stats::{Align, Histogram, Json, Table};
use dgl_trace::{DglEvent, DiscardReason};
use std::collections::BTreeMap;

/// Doppelganger lifecycle counters and observed latency for one static
/// load (one program counter).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadSiteStats {
    /// Doppelganger requests issued to memory from this PC.
    pub issued: u64,
    /// Doppelganger preloads that propagated (useful doppelgangers).
    pub propagated: u64,
    /// Discards at address verification (predicted ≠ resolved).
    pub discard_mispredict: u64,
    /// Doppelgangers thrown away by a branch/memory-order squash.
    pub discard_squash: u64,
    /// Discards because the preload could not safely stand in
    /// (store conflicts, snooped invalidations).
    pub discard_unsafe: u64,
    /// Dynamic loads committed from this PC.
    pub committed: u64,
    /// Dispatch-to-propagation latency of this PC's loads, in cycles.
    pub latency: Histogram,
}

impl LoadSiteStats {
    /// Total discards, all reasons.
    pub fn discarded(&self) -> u64 {
        self.discard_mispredict + self.discard_squash + self.discard_unsafe
    }

    /// Merges another site's counters into this one.
    pub fn merge(&mut self, other: &LoadSiteStats) {
        self.issued += other.issued;
        self.propagated += other.propagated;
        self.discard_mispredict += other.discard_mispredict;
        self.discard_squash += other.discard_squash;
        self.discard_unsafe += other.discard_unsafe;
        self.committed += other.committed;
        self.latency.merge(&other.latency);
    }
}

/// A PC-indexed table of [`LoadSiteStats`], ordered by PC.
///
/// The [`BTreeMap`] keeps every iteration (and therefore every export)
/// deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadSiteTable {
    sites: BTreeMap<u64, LoadSiteStats>,
}

impl LoadSiteTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    fn site(&mut self, pc_addr: u64) -> &mut LoadSiteStats {
        self.sites.entry(pc_addr).or_default()
    }

    /// Folds one doppelganger lifecycle event into `pc_addr`'s matching
    /// column. Events without a column (predicted, verified, deferred)
    /// leave the table untouched.
    pub fn record(&mut self, pc_addr: u64, event: &DglEvent) {
        let column: fn(&mut LoadSiteStats) -> &mut u64 = match event {
            DglEvent::Issued { .. } => |s| &mut s.issued,
            DglEvent::Propagated { .. } => |s| &mut s.propagated,
            DglEvent::Discarded {
                reason: DiscardReason::AddressMismatch,
            } => |s| &mut s.discard_mispredict,
            DglEvent::Discarded { .. } => |s| &mut s.discard_unsafe,
            DglEvent::Squashed => |s| &mut s.discard_squash,
            DglEvent::Predicted { .. } | DglEvent::Verified { .. } | DglEvent::Deferred => return,
        };
        *column(self.site(pc_addr)) += 1;
    }

    /// Records a committed load at `pc_addr`.
    pub fn record_committed(&mut self, pc_addr: u64) {
        self.site(pc_addr).committed += 1;
    }

    /// Records one load's dispatch-to-propagation latency at `pc_addr`.
    pub fn record_latency(&mut self, pc_addr: u64, cycles: u64) {
        self.site(pc_addr).latency.record(cycles);
    }

    /// Looks a site up by PC key.
    pub fn get(&self, pc_addr: u64) -> Option<&LoadSiteStats> {
        self.sites.get(&pc_addr)
    }

    /// Number of distinct load sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Whether no load site has been observed.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Iterates `(pc_addr, site)` in PC order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &LoadSiteStats)> {
        self.sites.iter().map(|(&pc, s)| (pc, s))
    }

    /// Column sums over every site — by construction these must equal
    /// the aggregate [`CoreStats`](crate::CoreStats) counters (the
    /// `latency` histogram likewise matches the aggregate load-latency
    /// histogram).
    pub fn totals(&self) -> LoadSiteStats {
        let mut t = LoadSiteStats::default();
        for s in self.sites.values() {
            t.merge(s);
        }
        t
    }

    /// The `n` sites with the most doppelganger activity (issued, then
    /// committed loads as a tiebreak, then PC ascending so ranking is
    /// total).
    pub fn top_n(&self, n: usize) -> Vec<(u64, &LoadSiteStats)> {
        let mut v: Vec<(u64, &LoadSiteStats)> = self.iter().collect();
        v.sort_by(|a, b| (b.1.issued, b.1.committed, a.0).cmp(&(a.1.issued, a.1.committed, b.0)));
        v.truncate(n);
        v
    }

    /// Merges another table into this one, site by site.
    pub fn merge(&mut self, other: &LoadSiteTable) {
        for (&pc, s) in &other.sites {
            self.site(pc).merge(s);
        }
    }

    /// Renders the top-`n` load sites as an ASCII table.
    pub fn render_top(&self, n: usize) -> String {
        let mut t = Table::new(
            [
                "pc", "issued", "useful", "mispred", "squash", "unsafe", "commits", "lat p50",
                "lat p95",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        );
        for c in 1..9 {
            t.align(c, Align::Right);
        }
        for (pc, s) in self.top_n(n) {
            t.row(vec![
                format!("{pc:#x}"),
                s.issued.to_string(),
                s.propagated.to_string(),
                s.discard_mispredict.to_string(),
                s.discard_squash.to_string(),
                s.discard_unsafe.to_string(),
                s.committed.to_string(),
                s.latency
                    .quantile(0.5)
                    .map_or("-".into(), |v| v.to_string()),
                s.latency
                    .quantile(0.95)
                    .map_or("-".into(), |v| v.to_string()),
            ]);
        }
        t.to_string()
    }

    /// Exports every site as a JSON array ordered by PC.
    pub fn to_json(&self) -> Json {
        let mut arr = Json::array();
        for (pc, s) in self.iter() {
            arr = arr.push(
                Json::object()
                    .field("pc", Json::uint(pc))
                    .field("issued", Json::uint(s.issued))
                    .field("propagated", Json::uint(s.propagated))
                    .field("discard_mispredict", Json::uint(s.discard_mispredict))
                    .field("discard_squash", Json::uint(s.discard_squash))
                    .field("discard_unsafe", Json::uint(s.discard_unsafe))
                    .field("committed", Json::uint(s.committed))
                    .field("latency_count", Json::uint(s.latency.count()))
                    .field("latency_mean", Json::num(s.latency.mean()))
                    .field(
                        "latency_p95",
                        Json::uint(s.latency.quantile(0.95).unwrap_or(0)),
                    ),
            );
        }
        arr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn discard(reason: DiscardReason) -> DglEvent {
        DglEvent::Discarded { reason }
    }

    fn sample() -> LoadSiteTable {
        let mut t = LoadSiteTable::new();
        let issued = DglEvent::Issued { predicted: 0 };
        for _ in 0..3 {
            t.record(0x10, &issued);
        }
        t.record(0x10, &DglEvent::Propagated { addr: 0 });
        t.record(0x10, &discard(DiscardReason::AddressMismatch));
        t.record(0x10, &discard(DiscardReason::Invalidation));
        t.record(0x20, &issued);
        t.record(0x20, &DglEvent::Squashed);
        t.record_committed(0x10);
        t.record_committed(0x20);
        t.record_latency(0x10, 4);
        t.record_latency(0x20, 200);
        t
    }

    #[test]
    fn totals_sum_columns() {
        let t = sample();
        let totals = t.totals();
        assert_eq!(totals.issued, 4);
        assert_eq!(totals.propagated, 1);
        assert_eq!(totals.discard_mispredict, 1);
        assert_eq!(totals.discard_squash, 1);
        assert_eq!(totals.discard_unsafe, 1);
        assert_eq!(totals.committed, 2);
        assert_eq!(totals.latency.count(), 2);
        assert_eq!(totals.discarded(), 3);
    }

    #[test]
    fn events_without_a_column_add_no_site() {
        let mut t = LoadSiteTable::new();
        t.record(0x10, &DglEvent::Predicted { predicted: 0 });
        t.record(0x10, &DglEvent::Deferred);
        assert!(t.is_empty());
    }

    #[test]
    fn top_n_ranks_by_issued() {
        let t = sample();
        let top = t.top_n(1);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].0, 0x10, "site with the most issues wins");
        assert_eq!(t.top_n(10).len(), 2, "truncates to available sites");
    }

    #[test]
    fn top_n_tiebreak_is_deterministic() {
        let mut t = LoadSiteTable::new();
        t.record(0x30, &DglEvent::Issued { predicted: 0 });
        t.record(0x10, &DglEvent::Issued { predicted: 0 });
        let top = t.top_n(2);
        assert_eq!(top[0].0, 0x10, "equal activity breaks ties by PC");
        assert_eq!(top[1].0, 0x30);
    }

    #[test]
    fn merge_adds_sites() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.totals().issued, 8);
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(0x10).unwrap().issued, 6);
    }

    #[test]
    fn render_includes_hex_pcs() {
        let t = sample();
        let s = t.render_top(10);
        assert!(s.contains("0x10"), "rendered: {s}");
        assert!(s.contains("issued"));
    }

    #[test]
    fn json_export_is_pc_ordered() {
        let t = sample();
        let doc = t.to_json();
        let arr = doc.as_array().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("pc").and_then(Json::as_u64), Some(0x10));
        assert_eq!(arr[1].get("pc").and_then(Json::as_u64), Some(0x20));
        let text = doc.to_string_pretty();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }
}
