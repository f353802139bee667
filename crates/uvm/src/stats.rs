//! Counters collected by the UVM driver.

use oasis_engine::codec::{ByteReader, CodecError, Encoder, Restore, Snapshot};

/// Event counters accumulated while the driver resolves faults.
///
/// These feed the paper's Fig. 24 (total GPU page faults) and the
/// per-policy activity breakdowns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UvmStats {
    /// Far faults (translation misses) delivered to the driver.
    pub far_faults: u64,
    /// Page-protection (write) faults delivered to the driver.
    pub protection_faults: u64,
    /// Pages migrated by fault resolution (on-touch style).
    pub migrations: u64,
    /// Pages migrated because a hardware access counter hit its threshold.
    pub counter_migrations: u64,
    /// Read-only duplicates created.
    pub duplications: u64,
    /// Write-collapses performed (all duplicates of a page invalidated).
    pub collapses: u64,
    /// Remote mappings installed.
    pub remote_maps: u64,
    /// Writable "ideal" copies created (Ideal policy only).
    pub ideal_copies: u64,
    /// Pages evicted to the host under oversubscription.
    pub evictions: u64,
    /// Faults resolved by *pinning* a thrashing page (remote mapping
    /// instead of yet another migration/duplication) — the driver's
    /// thrashing mitigation.
    pub thrash_pins: u64,
    /// Pages pulled in by the neighborhood prefetcher (extension; disabled
    /// in the paper-faithful baseline).
    pub prefetches: u64,
    /// PTE/TLB invalidations sent to remote devices.
    pub invalidations: u64,
    /// Frames retired after an ECC poison event (hardware-fault model).
    pub ecc_quarantines: u64,
    /// Replayed fault-service attempts while recovering a poisoned page.
    pub fault_retries: u64,
}

impl UvmStats {
    /// Total GPU page faults (far + protection) — the Fig. 24 metric.
    pub fn total_faults(&self) -> u64 {
        self.far_faults + self.protection_faults
    }

    /// Cheap change detector: counters only ever increase, so the wrapping
    /// sum of all fields changes iff any counter changed. Lets the run
    /// loop's progress watchdog compare one word instead of copying the
    /// whole struct on every access.
    #[inline]
    pub fn progress_token(&self) -> u64 {
        self.far_faults
            .wrapping_add(self.protection_faults)
            .wrapping_add(self.migrations)
            .wrapping_add(self.counter_migrations)
            .wrapping_add(self.duplications)
            .wrapping_add(self.collapses)
            .wrapping_add(self.remote_maps)
            .wrapping_add(self.ideal_copies)
            .wrapping_add(self.evictions)
            .wrapping_add(self.thrash_pins)
            .wrapping_add(self.prefetches)
            .wrapping_add(self.invalidations)
            .wrapping_add(self.ecc_quarantines)
            .wrapping_add(self.fault_retries)
    }

    /// Field-wise difference `self - earlier`, for per-epoch rollups over
    /// a pair of cumulative snapshots. Saturates at zero (counters never
    /// decrease in a well-formed run).
    pub fn minus(&self, earlier: &UvmStats) -> UvmStats {
        UvmStats {
            far_faults: self.far_faults.saturating_sub(earlier.far_faults),
            protection_faults: self
                .protection_faults
                .saturating_sub(earlier.protection_faults),
            migrations: self.migrations.saturating_sub(earlier.migrations),
            counter_migrations: self
                .counter_migrations
                .saturating_sub(earlier.counter_migrations),
            duplications: self.duplications.saturating_sub(earlier.duplications),
            collapses: self.collapses.saturating_sub(earlier.collapses),
            remote_maps: self.remote_maps.saturating_sub(earlier.remote_maps),
            ideal_copies: self.ideal_copies.saturating_sub(earlier.ideal_copies),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            thrash_pins: self.thrash_pins.saturating_sub(earlier.thrash_pins),
            prefetches: self.prefetches.saturating_sub(earlier.prefetches),
            invalidations: self.invalidations.saturating_sub(earlier.invalidations),
            ecc_quarantines: self.ecc_quarantines.saturating_sub(earlier.ecc_quarantines),
            fault_retries: self.fault_retries.saturating_sub(earlier.fault_retries),
        }
    }
}

impl Snapshot for UvmStats {
    fn snapshot<E: Encoder + ?Sized>(&self, w: &mut E) {
        for v in [
            self.far_faults,
            self.protection_faults,
            self.migrations,
            self.counter_migrations,
            self.duplications,
            self.collapses,
            self.remote_maps,
            self.ideal_copies,
            self.evictions,
            self.thrash_pins,
            self.prefetches,
            self.invalidations,
            self.ecc_quarantines,
            self.fault_retries,
        ] {
            w.u64(v);
        }
    }
}

impl Restore for UvmStats {
    fn restore(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        for field in [
            &mut self.far_faults,
            &mut self.protection_faults,
            &mut self.migrations,
            &mut self.counter_migrations,
            &mut self.duplications,
            &mut self.collapses,
            &mut self.remote_maps,
            &mut self.ideal_copies,
            &mut self.evictions,
            &mut self.thrash_pins,
            &mut self.prefetches,
            &mut self.invalidations,
            &mut self.ecc_quarantines,
            &mut self.fault_retries,
        ] {
            *field = r.u64()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let s = UvmStats {
            far_faults: 10,
            protection_faults: 3,
            migrations: 5,
            counter_migrations: 2,
            duplications: 4,
            collapses: 1,
            remote_maps: 7,
            ideal_copies: 1,
            evictions: 2,
            thrash_pins: 0,
            prefetches: 0,
            invalidations: 9,
            ecc_quarantines: 2,
            fault_retries: 1,
        };
        assert_eq!(s.total_faults(), 13);
    }

    #[test]
    fn default_is_zeroed() {
        assert_eq!(UvmStats::default().total_faults(), 0);
    }
}
