//! The per-GPU hardware model: TLB hierarchy, L2 cache, local DRAM.

use oasis_engine::{Channel, Duration};
use oasis_mem::cache::Cache;
use oasis_mem::tlb::Tlb;
use oasis_mem::types::{PageSize, Va, Vpn};

use crate::config::SystemConfig;

/// One GPU's on-chip memory-system state.
#[derive(Debug)]
pub struct GpuModel {
    /// CU-side L1 TLB (Table I: 32-entry, 32-way).
    pub l1_tlb: Tlb,
    /// GPU-shared L2 TLB (Table I: 512-entry, 16-way).
    pub l2_tlb: Tlb,
    /// GPU-shared L2 data cache (Table I: 256 KB, 16-way).
    pub l2_cache: Cache,
    /// Local DRAM modelled as a bandwidth-serialized channel.
    pub dram: Channel,
}

/// The latencies of a TLB lookup at each level, converted from Table I's
/// cycle counts once per system rather than once per access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbLatencies {
    /// An L1 TLB lookup.
    pub l1: Duration,
    /// An L2 TLB lookup after an L1 miss.
    pub l2: Duration,
    /// A page walk after an L2 miss.
    pub walk: Duration,
}

impl TlbLatencies {
    /// The configuration's latencies.
    pub fn of(config: &SystemConfig) -> Self {
        TlbLatencies {
            l1: config.l1_tlb_latency(),
            l2: config.l2_tlb_latency(),
            walk: config.page_walk_latency(),
        }
    }
}

/// The translation outcome of one access, for timing and stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbOutcome {
    /// Latency of the TLB/walk portion.
    pub latency: Duration,
    /// Whether the access missed the L2 TLB (a "L2 TLB miss request",
    /// the population of Fig. 23).
    pub l2_miss: bool,
}

impl GpuModel {
    /// Builds a GPU per the system configuration.
    pub fn new(config: &SystemConfig) -> Self {
        GpuModel {
            l1_tlb: Tlb::new(config.l1_tlb.0, config.l1_tlb.1),
            l2_tlb: Tlb::new(config.l2_tlb.0, config.l2_tlb.1),
            l2_cache: Cache::new(config.l2_cache.0, config.l2_cache.1, config.l2_cache.2),
            dram: Channel::new(config.dram_bytes_per_sec, config.dram_latency),
        }
    }

    /// Walks the TLB hierarchy for `vpn`, filling on the way back. A level
    /// is filled only after its lookup missed, so the fill skips the set
    /// scan.
    pub fn translate(&mut self, vpn: Vpn, latency: &TlbLatencies) -> TlbOutcome {
        if self.l1_tlb.access(vpn) {
            return TlbOutcome {
                latency: latency.l1,
                l2_miss: false,
            };
        }
        if self.l2_tlb.access(vpn) {
            self.l1_tlb.fill_missed(vpn);
            return TlbOutcome {
                latency: latency.l1 + latency.l2,
                l2_miss: false,
            };
        }
        self.l2_tlb.fill_missed(vpn);
        self.l1_tlb.fill_missed(vpn);
        TlbOutcome {
            latency: latency.l1 + latency.l2 + latency.walk,
            l2_miss: true,
        }
    }

    /// Drops the translation and cached data for `vpn` (a shootdown).
    pub fn invalidate(&mut self, vpn: Vpn, page: PageSize) {
        self.l1_tlb.invalidate(vpn);
        self.l2_tlb.invalidate(vpn);
        self.l2_cache.invalidate_page(vpn, page);
    }

    /// Charges a local data access: L2 cache hit, or miss + DRAM.
    pub fn local_access(
        &mut self,
        now: oasis_engine::Time,
        va: Va,
        bytes: u64,
        config: &SystemConfig,
    ) -> Duration {
        if self.l2_cache.access(va) {
            config.l2_cache_latency
        } else {
            let t = self.dram.reserve(now, bytes);
            config.l2_cache_latency + t.latency_from(now)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_engine::Time;

    #[test]
    fn translate_latencies_escalate() {
        let cfg = SystemConfig::default();
        let lat = TlbLatencies::of(&cfg);
        let mut g = GpuModel::new(&cfg);
        let cold = g.translate(Vpn(7), &lat);
        assert!(cold.l2_miss);
        assert_eq!(cold.latency, Duration::from_ns(511)); // 1 + 10 + 500
        let warm = g.translate(Vpn(7), &lat);
        assert!(!warm.l2_miss);
        assert_eq!(warm.latency, Duration::from_ns(1));
    }

    #[test]
    fn l1_miss_l2_hit_path() {
        let cfg = SystemConfig::default();
        let lat = TlbLatencies::of(&cfg);
        let mut g = GpuModel::new(&cfg);
        g.translate(Vpn(7), &lat);
        g.l1_tlb.invalidate(Vpn(7));
        let o = g.translate(Vpn(7), &lat);
        assert!(!o.l2_miss);
        assert_eq!(o.latency, Duration::from_ns(11));
    }

    #[test]
    fn invalidate_clears_both_tlbs_and_cache() {
        let cfg = SystemConfig::default();
        let lat = TlbLatencies::of(&cfg);
        let mut g = GpuModel::new(&cfg);
        g.translate(Vpn(7), &lat);
        g.l2_cache.access(Va(7 << 12));
        g.invalidate(Vpn(7), PageSize::Small4K);
        assert!(g.translate(Vpn(7), &lat).l2_miss);
        assert!(!g.l2_cache.access(Va(7 << 12))); // miss again
    }

    #[test]
    fn local_access_cache_hit_vs_dram() {
        let cfg = SystemConfig::default();
        let mut g = GpuModel::new(&cfg);
        let miss = g.local_access(Time::ZERO, Va(0x1000), 64, &cfg);
        assert!(miss >= cfg.dram_latency);
        let hit = g.local_access(Time::ZERO, Va(0x1000), 64, &cfg);
        assert_eq!(hit, cfg.l2_cache_latency);
    }
}
