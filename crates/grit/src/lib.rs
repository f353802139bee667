//! GRIT: fine-grained per-page dynamic page placement (HPCA 2024),
//! reimplemented as the comparison baseline of Section VI-C.
//!
//! GRIT learns a management policy for every *page* (rather than OASIS's
//! objects). Per the OASIS paper's description, it comprises:
//!
//! * a **Fault-Aware Initiator** (FAI) — a page's policy is re-evaluated
//!   after it accumulates four faults;
//! * **Policy Decision Selection** (PDS) — picks the new policy from the
//!   page's observed sharers and read/write mix (the same decision rules
//!   OASIS uses, so the comparison isolates granularity);
//! * **Neighboring-Aware Prediction** (NAP) — when a page's policy is
//!   decided, the same policy is predicted for its spatially neighboring
//!   pages and applied on their first fault;
//! * a **PA-Cache** — a 352-byte on-chip cache over the 48-bit-per-page
//!   in-memory attribute store; a miss adds a memory access to the fault
//!   path.
//!
//! The implementation plugs into the same [`oasis_uvm::UvmDriver`] as
//! OASIS, via [`oasis_uvm::PolicyEngine`].

use oasis_engine::codec::{ByteReader, CodecError, Encoder, Restore, Snapshot};
use oasis_engine::digest::{entry_hash, DigestMap, StateHasher};
use oasis_engine::Duration;
use oasis_mem::tlb::Tlb;
use oasis_mem::types::{AccessKind, DeviceId, Vpn};
use oasis_uvm::driver::MemState;
use oasis_uvm::fault::PageFault;
use oasis_uvm::policy::{Decision, PolicyEngine, Resolution};

/// A page's learned policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
enum GritPolicy {
    /// Migrate on touch (the initial policy).
    #[default]
    OnTouch,
    /// Remote-map and let access counters migrate.
    AccessCounter,
    /// Read-duplicate.
    Duplication,
}

/// GRIT tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GritConfig {
    /// Faults per page before FAI re-evaluates its policy (the paper:
    /// "GRIT requires four faults to trigger a policy change for a single
    /// page").
    pub fault_trigger: u8,
    /// Pages ahead of a decided page that NAP predicts for.
    pub neighbor_window: u64,
    /// PA-Cache capacity in entries (352 B at 64 bits/entry → 44).
    pub pa_cache_entries: usize,
    /// Memory latency charged when the PA-Cache misses and the page's
    /// attributes are fetched from GPU memory.
    pub attribute_fetch: Duration,
}

impl Default for GritConfig {
    fn default() -> Self {
        GritConfig {
            fault_trigger: 4,
            neighbor_window: 4,
            pa_cache_entries: 44,
            attribute_fetch: Duration::from_ns(250),
        }
    }
}

/// Behaviour counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GritStats {
    /// Faults processed.
    pub faults: u64,
    /// FAI re-evaluations performed.
    pub evaluations: u64,
    /// Policy changes applied by PDS.
    pub policy_changes: u64,
    /// First-fault pages that used a NAP prediction.
    pub predictions_used: u64,
    /// PA-Cache hits.
    pub pa_hits: u64,
    /// PA-Cache misses (paid `attribute_fetch`).
    pub pa_misses: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct PageMeta {
    readers: u16,
    writers: u16,
    faults: u8,
    policy: GritPolicy,
    predicted: Option<GritPolicy>,
    ever_faulted: bool,
}

impl PageMeta {
    /// Wire byte of the NAP prediction (`0xFF` = none).
    fn predicted_byte(&self) -> u8 {
        self.predicted.map_or(0xFF, policy_to_byte)
    }

    /// Digest hash of the page's metadata.
    fn hash(vpn: &Vpn, m: &PageMeta) -> u64 {
        let packed = u64::from(m.readers)
            | u64::from(m.writers) << 16
            | u64::from(m.faults) << 32
            | u64::from(policy_to_byte(m.policy)) << 40
            | u64::from(m.predicted_byte()) << 48
            | u64::from(m.ever_faulted) << 56;
        entry_hash([vpn.0, packed])
    }
}

/// The GRIT policy engine.
///
/// # Example
///
/// ```
/// use oasis_grit::GritEngine;
///
/// let engine = GritEngine::new();
/// // Pages start under on-touch until four faults trigger the FAI.
/// assert_eq!(engine.config().fault_trigger, 4);
/// ```
#[derive(Debug)]
pub struct GritEngine {
    config: GritConfig,
    pages: DigestMap<Vpn, PageMeta>,
    pa_cache: Tlb,
    stats: GritStats,
}

impl GritEngine {
    /// Creates a GRIT engine with the paper's defaults.
    pub fn new() -> Self {
        Self::with_config(GritConfig::default())
    }

    /// Creates a GRIT engine with explicit parameters.
    pub fn with_config(config: GritConfig) -> Self {
        GritEngine {
            pa_cache: Tlb::new(config.pa_cache_entries, config.pa_cache_entries),
            config,
            pages: DigestMap::new(PageMeta::hash),
            stats: GritStats::default(),
        }
    }

    /// Behaviour counters.
    pub fn stats(&self) -> GritStats {
        self.stats
    }

    /// The configuration in use.
    pub fn config(&self) -> GritConfig {
        self.config
    }

    /// In-memory metadata footprint per the paper's accounting
    /// (48 bits/page of faulted pages).
    pub fn metadata_bits(&self) -> u64 {
        self.pages.iter().filter(|(_, m)| m.ever_faulted).count() as u64 * 48
    }

    /// The behaviour counters as checkpoint and digest words.
    fn stats_words(&self) -> [u64; 6] {
        [
            self.stats.faults,
            self.stats.evaluations,
            self.stats.policy_changes,
            self.stats.predictions_used,
            self.stats.pa_hits,
            self.stats.pa_misses,
        ]
    }

    /// Policy Decision Selection: sharers and read/write mix to policy.
    fn pds(meta: &PageMeta) -> GritPolicy {
        let sharers = (meta.readers | meta.writers).count_ones();
        if sharers <= 1 {
            GritPolicy::OnTouch
        } else if meta.writers == 0 {
            GritPolicy::Duplication
        } else {
            GritPolicy::AccessCounter
        }
    }
}

impl Default for GritEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl PolicyEngine for GritEngine {
    fn name(&self) -> &str {
        "grit"
    }

    fn resolve(&mut self, fault: &PageFault, state: &MemState) -> Decision {
        self.stats.faults += 1;
        // PA-Cache: the page's attribute word must be on chip to proceed.
        let metadata_latency = if self.pa_cache.access(fault.vpn) {
            self.stats.pa_hits += 1;
            Duration::ZERO
        } else {
            self.stats.pa_misses += 1;
            self.pa_cache.fill(fault.vpn);
            self.config.attribute_fetch
        };

        let trigger = self.config.fault_trigger;
        let stats = &mut self.stats;
        let (policy, decided) = self.pages.update(fault.vpn, PageMeta::default(), |meta| {
            match fault.kind {
                AccessKind::Read => meta.readers |= 1 << fault.gpu.0,
                AccessKind::Write => meta.writers |= 1 << fault.gpu.0,
            }
            if !meta.ever_faulted {
                meta.ever_faulted = true;
                if let Some(p) = meta.predicted.take() {
                    meta.policy = p;
                    stats.predictions_used += 1;
                }
            }
            meta.faults += 1;

            let mut decided: Option<GritPolicy> = None;
            if meta.faults >= trigger {
                meta.faults = 0;
                let new_policy = Self::pds(meta);
                stats.evaluations += 1;
                if new_policy != meta.policy {
                    stats.policy_changes += 1;
                }
                meta.policy = new_policy;
                // Start a fresh observation window so the page can adapt
                // to later phases.
                meta.readers = 0;
                meta.writers = 0;
                decided = Some(new_policy);
            }
            (meta.policy, decided)
        });

        // NAP: propagate the freshly decided policy to spatial neighbors.
        if let Some(p) = decided {
            for i in 1..=self.config.neighbor_window {
                let neighbor = Vpn(fault.vpn.0 + i);
                self.pages.update(neighbor, PageMeta::default(), |m| {
                    if !m.ever_faulted {
                        m.predicted = Some(p);
                    }
                });
            }
        }

        let owner = state
            .host_table
            .get(fault.vpn)
            .map(|e| e.owner)
            .unwrap_or(DeviceId::Host);
        let resolution = match policy {
            GritPolicy::OnTouch => Resolution::Migrate,
            GritPolicy::AccessCounter => {
                if owner == DeviceId::Host || owner == DeviceId::Gpu(fault.gpu) {
                    Resolution::Migrate
                } else {
                    Resolution::RemoteMap
                }
            }
            GritPolicy::Duplication => Resolution::Duplicate,
        };
        Decision {
            resolution,
            metadata_latency,
        }
    }

    /// Serializes the per-page attribute store, the PA-Cache, and the
    /// behaviour counters. Configuration comes from construction.
    fn snapshot_state(&self, w: &mut dyn Encoder) {
        let mut pages: Vec<(Vpn, PageMeta)> = self.pages.iter().map(|(k, v)| (*k, *v)).collect();
        pages.sort_unstable_by_key(|(v, _)| v.0);
        w.u64(pages.len() as u64);
        for (vpn, m) in pages {
            w.u64(vpn.0);
            w.u16(m.readers);
            w.u16(m.writers);
            w.u8(m.faults);
            w.u8(policy_to_byte(m.policy));
            w.u8(m.predicted_byte());
            w.bool(m.ever_faulted);
        }
        self.pa_cache.snapshot(w);
        for v in self.stats_words() {
            w.u64(v);
        }
    }

    /// The per-page map by its running sum, so no epoch sorts or walks
    /// it; the PA-Cache and counters word by word.
    fn digest(&self, h: &mut StateHasher) {
        self.pages.digest_into(h, format_args!("grit page map"));
        self.pa_cache.snapshot(h);
        for v in self.stats_words() {
            h.word(v);
        }
    }

    fn restore_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        let n = r.usize()?;
        self.pages.clear();
        for _ in 0..n {
            let vpn = Vpn(r.u64()?);
            let readers = r.u16()?;
            let writers = r.u16()?;
            let faults = r.u8()?;
            let policy_byte = r.u8()?;
            let predicted_byte = r.u8()?;
            let meta = PageMeta {
                readers,
                writers,
                faults,
                policy: policy_from_byte(r, policy_byte)?,
                predicted: match predicted_byte {
                    0xFF => None,
                    b => Some(policy_from_byte(r, b)?),
                },
                ever_faulted: r.bool()?,
            };
            if self.pages.insert(vpn, meta).is_some() {
                return Err(r.malformed(format!("duplicate page metadata for vpn {}", vpn.0)));
            }
        }
        self.pa_cache.restore(r)?;
        for field in [
            &mut self.stats.faults,
            &mut self.stats.evaluations,
            &mut self.stats.policy_changes,
            &mut self.stats.predictions_used,
            &mut self.stats.pa_hits,
            &mut self.stats.pa_misses,
        ] {
            *field = r.u64()?;
        }
        Ok(())
    }
}

fn policy_to_byte(p: GritPolicy) -> u8 {
    match p {
        GritPolicy::OnTouch => 0,
        GritPolicy::AccessCounter => 1,
        GritPolicy::Duplication => 2,
    }
}

fn policy_from_byte(r: &ByteReader<'_>, b: u8) -> Result<GritPolicy, CodecError> {
    match b {
        0 => Ok(GritPolicy::OnTouch),
        1 => Ok(GritPolicy::AccessCounter),
        2 => Ok(GritPolicy::Duplication),
        _ => Err(r.malformed(format!("invalid GRIT policy byte {b:#04x}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_engine::codec::ByteWriter;
    use oasis_mem::page::HostEntry;
    use oasis_mem::types::{GpuId, PageSize, Va};

    fn state_with_owner(vpn: Vpn, owner: DeviceId) -> MemState {
        let mut s = MemState::new(4, PageSize::Small4K, None);
        s.host_table
            .register(vpn, HostEntry::new_at(owner))
            .expect("fresh page");
        s
    }

    fn far(gpu: u8, vpn: u64, kind: AccessKind) -> PageFault {
        PageFault::far(GpuId(gpu), Va(vpn << 12), Vpn(vpn), kind)
    }

    #[test]
    fn starts_on_touch() {
        let mut g = GritEngine::new();
        let s = state_with_owner(Vpn(1), DeviceId::Host);
        let d = g.resolve(&far(0, 1, AccessKind::Read), &s);
        assert_eq!(d.resolution, Resolution::Migrate);
    }

    #[test]
    fn four_read_shared_faults_switch_to_duplication() {
        let mut g = GritEngine::new();
        let s = state_with_owner(Vpn(1), DeviceId::Gpu(GpuId(3)));
        for gpu in 0..4 {
            g.resolve(&far(gpu, 1, AccessKind::Read), &s);
        }
        assert_eq!(g.stats().evaluations, 1);
        assert_eq!(g.stats().policy_changes, 1);
        // The 5th fault applies duplication.
        let d = g.resolve(&far(1, 1, AccessKind::Read), &s);
        assert_eq!(d.resolution, Resolution::Duplicate);
    }

    #[test]
    fn write_shared_faults_switch_to_access_counter() {
        let mut g = GritEngine::new();
        let s = state_with_owner(Vpn(1), DeviceId::Gpu(GpuId(3)));
        for gpu in 0..4 {
            g.resolve(&far(gpu, 1, AccessKind::Write), &s);
        }
        // The 5th fault applies access-counter: a remote map to GPU 3.
        let d = g.resolve(&far(0, 1, AccessKind::Write), &s);
        assert_eq!(d.resolution, Resolution::RemoteMap);
    }

    #[test]
    fn single_sharer_stays_on_touch() {
        let mut g = GritEngine::new();
        let s = state_with_owner(Vpn(1), DeviceId::Gpu(GpuId(0)));
        for _ in 0..8 {
            g.resolve(&far(0, 1, AccessKind::Write), &s);
        }
        // Two evaluations, both keeping on-touch.
        assert_eq!(g.stats().evaluations, 2);
        assert_eq!(g.stats().policy_changes, 0);
    }

    #[test]
    fn nap_predicts_neighbors() {
        let mut g = GritEngine::new();
        let s = state_with_owner(Vpn(1), DeviceId::Gpu(GpuId(3)));
        for gpu in 0..4 {
            g.resolve(&far(gpu, 1, AccessKind::Read), &s);
        }
        // Page 2 was predicted; its very first fault uses duplication.
        let s2 = state_with_owner(Vpn(2), DeviceId::Gpu(GpuId(3)));
        let d = g.resolve(&far(0, 2, AccessKind::Read), &s2);
        assert_eq!(d.resolution, Resolution::Duplicate);
        assert_eq!(g.stats().predictions_used, 1);
    }

    #[test]
    fn without_nap_neighbors_start_on_touch() {
        let mut g = GritEngine::with_config(GritConfig {
            neighbor_window: 0,
            ..GritConfig::default()
        });
        let s = state_with_owner(Vpn(1), DeviceId::Gpu(GpuId(3)));
        for gpu in 0..4 {
            g.resolve(&far(gpu, 1, AccessKind::Read), &s);
        }
        let s2 = state_with_owner(Vpn(2), DeviceId::Gpu(GpuId(3)));
        let d = g.resolve(&far(0, 2, AccessKind::Read), &s2);
        assert_eq!(d.resolution, Resolution::Migrate);
        assert_eq!(g.stats().predictions_used, 0);
    }

    #[test]
    fn pa_cache_charges_only_on_miss() {
        let mut g = GritEngine::new();
        let s = state_with_owner(Vpn(1), DeviceId::Host);
        let d1 = g.resolve(&far(0, 1, AccessKind::Read), &s);
        assert_eq!(d1.metadata_latency, Duration::from_ns(250));
        let d2 = g.resolve(&far(1, 1, AccessKind::Read), &s);
        assert_eq!(d2.metadata_latency, Duration::ZERO);
        assert_eq!(g.stats().pa_misses, 1);
        assert_eq!(g.stats().pa_hits, 1);
    }

    #[test]
    fn pa_cache_capacity_evicts() {
        let mut g = GritEngine::new();
        let mut s = MemState::new(4, PageSize::Small4K, None);
        for i in 0..100 {
            s.host_table
                .register(Vpn(i), HostEntry::new_on_host())
                .expect("fresh page");
        }
        for i in 0..50 {
            g.resolve(&far(0, i, AccessKind::Read), &s);
        }
        // Revisiting page 0 misses again (44-entry cache, 50 pages).
        let d = g.resolve(&far(1, 0, AccessKind::Read), &s);
        assert_eq!(d.metadata_latency, Duration::from_ns(250));
    }

    #[test]
    fn observation_window_resets_allow_adaptation() {
        let mut g = GritEngine::new();
        let s = state_with_owner(Vpn(1), DeviceId::Gpu(GpuId(3)));
        // Phase 1: read-shared -> duplication, applied from the fault that
        // triggers the evaluation.
        let mut last = None;
        for gpu in 0..4 {
            last = Some(g.resolve(&far(gpu, 1, AccessKind::Read), &s).resolution);
        }
        assert_eq!(last, Some(Resolution::Duplicate));
        // Phase 2: write-shared -> access-counter after 4 more faults, so a
        // non-owner's next fault is a remote map.
        for gpu in 0..4 {
            g.resolve(&far(gpu, 1, AccessKind::Write), &s);
        }
        assert_eq!(g.stats().policy_changes, 2);
        let d = g.resolve(&far(0, 1, AccessKind::Write), &s);
        assert_eq!(d.resolution, Resolution::RemoteMap);
    }

    #[test]
    fn metadata_accounting_counts_faulted_pages() {
        let mut g = GritEngine::new();
        let s = state_with_owner(Vpn(1), DeviceId::Host);
        g.resolve(&far(0, 1, AccessKind::Read), &s);
        assert_eq!(g.metadata_bits(), 48);
        assert_eq!(g.name(), "grit");
    }

    #[test]
    fn snapshot_round_trips_page_attributes_and_pa_cache() {
        let mut g = GritEngine::new();
        let s = state_with_owner(Vpn(1), DeviceId::Gpu(GpuId(3)));
        // Learn duplication on page 1 (predicting neighbors 2..=5) and
        // leave page 7 mid-observation.
        for gpu in 0..4 {
            g.resolve(&far(gpu, 1, AccessKind::Read), &s);
        }
        let s7 = state_with_owner(Vpn(7), DeviceId::Gpu(GpuId(3)));
        g.resolve(&far(0, 7, AccessKind::Write), &s7);
        let mut w = ByteWriter::new();
        g.snapshot_state(&mut w);
        let buf = w.into_vec();

        let mut fresh = GritEngine::new();
        let mut r = ByteReader::new("policy", &buf);
        fresh.restore_state(&mut r).expect("valid grit state");
        assert!(r.is_empty(), "payload fully consumed");
        assert_eq!(fresh.stats(), g.stats());
        // Restored predictions still fire: page 2's first fault duplicates.
        let s2 = state_with_owner(Vpn(2), DeviceId::Gpu(GpuId(3)));
        let a = g.resolve(&far(0, 2, AccessKind::Read), &s2);
        let b = fresh.resolve(&far(0, 2, AccessKind::Read), &s2);
        assert_eq!(a, b);
        assert_eq!(b.resolution, Resolution::Duplicate);
        // PA-Cache warmth and page 1's learned duplication carried over.
        let a = g.resolve(&far(1, 1, AccessKind::Read), &s);
        let b = fresh.resolve(&far(1, 1, AccessKind::Read), &s);
        assert_eq!(a, b);
        assert_eq!(b.resolution, Resolution::Duplicate);
    }

    #[test]
    fn restore_rejects_invalid_policy_byte() {
        let g = GritEngine::new();
        let mut w = ByteWriter::new();
        g.snapshot_state(&mut w);
        let mut buf = w.into_vec();
        // One page entry with a bogus policy byte.
        let mut w = ByteWriter::new();
        w.u64(1); // page count
        w.u64(9); // vpn
        w.u16(0);
        w.u16(0);
        w.u8(0);
        w.u8(7); // invalid policy
        w.u8(0xFF);
        w.bool(false);
        let mut patched = w.into_vec();
        patched.extend_from_slice(&buf.split_off(8)); // keep pa_cache + stats
        let mut fresh = GritEngine::new();
        let mut r = ByteReader::new("policy", &patched);
        let err = fresh.restore_state(&mut r).expect_err("bogus policy byte");
        assert!(err.to_string().contains("invalid GRIT policy byte"));
    }
}
