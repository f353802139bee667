//! The O-Table: OASIS's on-chip object-policy store (Fig. 11).
//!
//! Each entry conceptually occupies 12 bits: a 4-bit Obj_ID, a 1-bit policy
//! (0 = duplication, 1 = access counter-based migration), a 3-bit page
//! fault counter, and 4 LRU bits. The table holds 16 entries; when more
//! live objects exist than entries (possible with wider Obj_ID encodings),
//! LRU replacement applies. On-touch migration is *not* representable here
//! because it is the default policy handled by the host-page-table filter;
//! the O-Table only ever chooses between duplication and access-counter.

use oasis_engine::codec::{ByteReader, CodecError, Encoder, Restore, Snapshot};
use oasis_engine::error::{SimError, SimResult};

/// The single policy bit of an O-Table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PolicyChoice {
    /// Bit value 0: page duplication (learned from a shared *read* fault).
    #[default]
    Duplication,
    /// Bit value 1: access counter-based migration (learned from a shared
    /// *write* fault).
    AccessCounter,
}

impl PolicyChoice {
    /// The raw policy bit.
    pub const fn bit(self) -> u8 {
        match self {
            PolicyChoice::Duplication => 0,
            PolicyChoice::AccessCounter => 1,
        }
    }

    /// Learns the policy from a shared fault's W bit (Section V-D): reads
    /// choose duplication, writes choose access-counter migration.
    pub fn learn(is_write: bool) -> Self {
        if is_write {
            PolicyChoice::AccessCounter
        } else {
            PolicyChoice::Duplication
        }
    }
}

/// One O-Table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OTableEntry {
    /// The object index (matches the Obj_ID bits in the pointer).
    pub obj: u16,
    /// The learned policy bit.
    pub policy: PolicyChoice,
    /// Shared page-fault counter (3 bits at the default reset threshold of
    /// 8; stored wider here so the Fig. 16 threshold sweep up to 32 works).
    pub pf_count: u8,
    lru_stamp: u64,
}

impl OTableEntry {
    fn new(obj: u16, stamp: u64) -> Self {
        OTableEntry {
            obj,
            policy: PolicyChoice::default(),
            pf_count: 0,
            lru_stamp: stamp,
        }
    }
}

/// The 16-entry, LRU-managed O-Table.
///
/// # Example
///
/// ```
/// use oasis_core::otable::{OTable, PolicyChoice};
///
/// let mut table = OTable::new(); // 16 entries, 24 bytes (Section V-E)
/// let entry = table.lookup_or_insert(3);
/// assert_eq!(entry.pf_count, 0); // fresh entry: policy must be learned
/// entry.policy = PolicyChoice::learn(/* is_write */ false);
/// assert_eq!(entry.policy, PolicyChoice::Duplication);
/// ```
#[derive(Debug, Clone)]
pub struct OTable {
    entries: Vec<OTableEntry>,
    capacity: usize,
    stamp: u64,
    evictions: u64,
}

/// The paper's O-Table capacity (2^4 entries, 24 bytes total).
pub const DEFAULT_CAPACITY: usize = 16;

impl OTable {
    /// Creates an O-Table with the paper's default 16 entries.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// Creates an O-Table with a custom capacity (for ablations).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "O-Table needs at least one entry");
        OTable {
            entries: Vec::with_capacity(capacity),
            capacity,
            stamp: 0,
            evictions: 0,
        }
    }

    /// Looks up the entry for `obj`, refreshing its LRU position; inserts a
    /// fresh entry (policy 0, PF count 0) if absent, evicting the LRU entry
    /// when the table is full.
    pub fn lookup_or_insert(&mut self, obj: u16) -> &mut OTableEntry {
        self.stamp += 1;
        let stamp = self.stamp;
        if let Some(pos) = self.entries.iter().position(|e| e.obj == obj) {
            self.entries[pos].lru_stamp = stamp;
            return &mut self.entries[pos];
        }
        if self.entries.len() == self.capacity {
            // Capacity is validated > 0, so a full table has a minimum.
            if let Some((lru_pos, _)) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.lru_stamp)
            {
                self.entries.swap_remove(lru_pos);
                self.evictions += 1;
            }
        }
        self.entries.push(OTableEntry::new(obj, stamp));
        let last = self.entries.len() - 1;
        &mut self.entries[last]
    }

    /// Initializes an entry for a newly allocated object ("when an object
    /// is allocated, its corresponding entry in the O-Table is
    /// initialized"). Equivalent to `lookup_or_insert` but also resets an
    /// aliased pre-existing entry.
    pub fn init(&mut self, obj: u16) {
        let e = self.lookup_or_insert(obj);
        e.policy = PolicyChoice::default();
        e.pf_count = 0;
    }

    /// Read-only view of the entry for `obj` (no LRU refresh).
    pub fn peek(&self, obj: u16) -> Option<&OTableEntry> {
        self.entries.iter().find(|e| e.obj == obj)
    }

    /// Resets every entry's PF count to zero — the explicit-phase reset
    /// performed at kernel launch (Section V-D). Learned policy bits are
    /// retained; the next shared fault per object relearns.
    pub fn reset_all_pf_counts(&mut self) {
        for e in &mut self.entries {
            e.pf_count = 0;
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// LRU evictions performed (a proxy for object-set pressure).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Storage footprint in bits, per the paper's 12-bits-per-entry
    /// accounting (4 Obj_ID + 1 policy + 3 PF + 4 LRU).
    pub fn storage_bits(&self) -> usize {
        self.capacity * 12
    }

    /// Validates the table's LRU well-formedness for the sim-guard runtime
    /// checker: occupancy within capacity, no duplicate object ids, no
    /// duplicate LRU stamps, and no stamp from the future.
    pub fn check_invariants(&self) -> SimResult<()> {
        if self.entries.len() > self.capacity {
            return Err(SimError::invariant(
                "otable-capacity",
                format!(
                    "{} entries exceed capacity {}",
                    self.entries.len(),
                    self.capacity
                ),
            ));
        }
        for (i, e) in self.entries.iter().enumerate() {
            if e.lru_stamp > self.stamp {
                return Err(SimError::invariant(
                    "otable-lru",
                    format!(
                        "entry for obj {} stamped {} > clock {}",
                        e.obj, e.lru_stamp, self.stamp
                    ),
                ));
            }
            for other in &self.entries[i + 1..] {
                if other.obj == e.obj {
                    return Err(SimError::invariant(
                        "otable-lru",
                        format!("obj {} appears in two entries", e.obj),
                    ));
                }
                if other.lru_stamp == e.lru_stamp {
                    return Err(SimError::invariant(
                        "otable-lru",
                        format!(
                            "objs {} and {} share LRU stamp {} (victim selection ambiguous)",
                            e.obj, other.obj, e.lru_stamp
                        ),
                    ));
                }
            }
        }
        Ok(())
    }
}

impl Default for OTable {
    fn default() -> Self {
        Self::new()
    }
}

impl Snapshot for OTable {
    fn snapshot<E: Encoder + ?Sized>(&self, w: &mut E) {
        w.u64(self.stamp);
        w.u64(self.evictions);
        // Entry order is part of replacement behaviour (`swap_remove` ties
        // on position), so serialize it verbatim; it is deterministic,
        // being driven only by the fault stream.
        w.u16(self.entries.len() as u16);
        for e in &self.entries {
            w.u16(e.obj);
            w.u8(e.policy.bit());
            w.u8(e.pf_count);
            w.u64(e.lru_stamp);
        }
    }
}

impl Restore for OTable {
    fn restore(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        // Capacity is configuration and stays as constructed.
        self.stamp = r.u64()?;
        self.evictions = r.u64()?;
        let n = r.u16()? as usize;
        if n > self.capacity {
            return Err(r.malformed(format!(
                "{n} entries exceed O-Table capacity {}",
                self.capacity
            )));
        }
        self.entries.clear();
        for _ in 0..n {
            let obj = r.u16()?;
            let policy = match r.u8()? {
                0 => PolicyChoice::Duplication,
                1 => PolicyChoice::AccessCounter,
                b => return Err(r.malformed(format!("invalid policy bit {b}"))),
            };
            let pf_count = r.u8()?;
            let lru_stamp = r.u64()?;
            self.entries.push(OTableEntry {
                obj,
                policy,
                pf_count,
                lru_stamp,
            });
        }
        self.check_invariants()
            .map_err(|e| r.malformed(format!("restored O-Table fails invariants: {e}")))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_engine::codec::ByteWriter;

    #[test]
    fn policy_choice_bits_and_learning() {
        assert_eq!(PolicyChoice::Duplication.bit(), 0);
        assert_eq!(PolicyChoice::AccessCounter.bit(), 1);
        assert_eq!(PolicyChoice::learn(false), PolicyChoice::Duplication);
        assert_eq!(PolicyChoice::learn(true), PolicyChoice::AccessCounter);
    }

    #[test]
    fn new_entries_initialized_per_paper() {
        let mut t = OTable::new();
        let e = t.lookup_or_insert(5);
        assert_eq!(e.obj, 5);
        assert_eq!(e.policy.bit(), 0, "policy bit initialized to 0");
        assert_eq!(e.pf_count, 0, "PF count initialized to 000");
    }

    #[test]
    fn lookup_preserves_state() {
        let mut t = OTable::new();
        {
            let e = t.lookup_or_insert(3);
            e.policy = PolicyChoice::AccessCounter;
            e.pf_count = 5;
        }
        let e = t.lookup_or_insert(3);
        assert_eq!(e.policy, PolicyChoice::AccessCounter);
        assert_eq!(e.pf_count, 5);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn lru_eviction_when_full() {
        let mut t = OTable::with_capacity(2);
        t.lookup_or_insert(0);
        t.lookup_or_insert(1);
        t.lookup_or_insert(0); // refresh 0; 1 becomes LRU
        t.lookup_or_insert(2); // evicts 1
        assert!(t.peek(0).is_some());
        assert!(t.peek(1).is_none());
        assert!(t.peek(2).is_some());
        assert_eq!(t.evictions(), 1);
    }

    #[test]
    fn capacity_matches_paper_defaults() {
        let t = OTable::new();
        assert_eq!(t.capacity(), 16);
        assert_eq!(t.storage_bits(), 192); // 24 bytes
    }

    #[test]
    fn reset_all_pf_counts_keeps_policies() {
        let mut t = OTable::new();
        for i in 0..4 {
            let e = t.lookup_or_insert(i);
            e.policy = PolicyChoice::AccessCounter;
            e.pf_count = 7;
        }
        t.reset_all_pf_counts();
        for i in 0..4 {
            let e = t.peek(i).unwrap();
            assert_eq!(e.pf_count, 0);
            assert_eq!(e.policy, PolicyChoice::AccessCounter);
        }
    }

    #[test]
    fn init_resets_aliased_entry() {
        let mut t = OTable::new();
        {
            let e = t.lookup_or_insert(4);
            e.policy = PolicyChoice::AccessCounter;
            e.pf_count = 3;
        }
        // A new object aliasing to tag 4 (e.g. the 20th allocation with
        // 4-bit ids) must start fresh.
        t.init(4);
        let e = t.peek(4).unwrap();
        assert_eq!(e.policy, PolicyChoice::Duplication);
        assert_eq!(e.pf_count, 0);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        OTable::with_capacity(0);
    }

    #[test]
    fn snapshot_round_trips_lru_and_learned_policies() {
        let mut t = OTable::with_capacity(4);
        for i in 0..10u16 {
            let e = t.lookup_or_insert(i % 6);
            if i % 2 == 0 {
                e.policy = PolicyChoice::AccessCounter;
            }
            e.pf_count = (i % 8) as u8;
        }
        let mut w = ByteWriter::new();
        t.snapshot(&mut w);

        let mut fresh = OTable::with_capacity(4);
        let buf = w.into_vec();
        let mut r = ByteReader::new("otable", &buf);
        fresh.restore(&mut r).expect("valid O-Table state");
        assert!(r.is_empty());
        assert_eq!(fresh.len(), t.len());
        assert_eq!(fresh.evictions(), t.evictions());
        fresh
            .check_invariants()
            .expect("restored table well-formed");
        // Identical next eviction decision.
        fresh.lookup_or_insert(40);
        t.lookup_or_insert(40);
        for i in 0..7u16 {
            assert_eq!(fresh.peek(i).is_some(), t.peek(i).is_some(), "obj {i}");
        }
    }

    #[test]
    fn restore_rejects_overfull_snapshot() {
        let mut big = OTable::with_capacity(16);
        for i in 0..10 {
            big.lookup_or_insert(i);
        }
        let mut w = ByteWriter::new();
        big.snapshot(&mut w);
        let buf = w.into_vec();
        let mut small = OTable::with_capacity(4);
        let mut r = ByteReader::new("otable", &buf);
        assert!(small.restore(&mut r).is_err());
    }

    #[test]
    fn invariants_hold_through_churn_and_catch_corruption() {
        let mut t = OTable::with_capacity(4);
        for i in 0..40 {
            t.lookup_or_insert(i % 7);
            t.check_invariants().expect("well-formed through churn");
        }
        // Corrupt: duplicate object id.
        let mut bad = t.clone();
        let obj = bad.lookup_or_insert(0).obj;
        bad.entries.push(OTableEntry::new(obj, 1));
        assert!(bad.check_invariants().is_err());
    }
}
