//! Page tables: per-GPU local tables and the centralized host table.
//!
//! The PTE carries two policy bits (Fig. 12 of the paper): `00` on-touch
//! (default), `01` access-counter migration, `11` duplication. The host
//! (centralized) table is the UVM driver's source of truth: it records which
//! device currently owns each page, which GPUs hold read-only duplicates,
//! and the policy bits mirrored from the O-Table decision.
//!
//! Both tables are slot arenas: a compact `Vpn -> slot` index (FxHash, no
//! per-instance random state) plus dense parallel vectors holding the
//! actual entries. Lookups on the access fast path hash once and land in a
//! contiguous slot. In a local table, invalidated pages leave a tombstone
//! whose slot (and index entry) is reused if the page is mapped again, so
//! the arena never churns allocation on migration ping-pong; the host
//! table never drops a page. Iteration and snapshots walk the dense
//! vectors instead of hash buckets.
//!
//! Each table also keeps a running [`SetDigest`] of its live entries,
//! updated by every mutation, so the per-epoch state digest never walks or
//! sorts a table. That is why [`HostPageTable`] hands out no `&mut`
//! entry: writes go through [`HostPageTable::update`], which sees the
//! entry before and after.

use std::collections::hash_map::Entry;
use std::fmt;

use oasis_engine::codec::{ByteReader, CodecError, Encoder, Restore, Snapshot};
use oasis_engine::digest::{entry_hash, SetDigest, StateHasher};
use oasis_engine::error::TableError;
use oasis_engine::FxHashMap;

use crate::types::{DeviceId, GpuId, Vpn};

/// One-byte wire encoding of a [`DeviceId`]: `0xFF` is the host, anything
/// else a GPU index. Shared by every checkpoint section that names devices.
pub fn device_to_byte(dev: DeviceId) -> u8 {
    match dev {
        DeviceId::Host => 0xFF,
        DeviceId::Gpu(g) => g.0,
    }
}

/// Inverse of [`device_to_byte`].
pub fn device_from_byte(b: u8) -> DeviceId {
    if b == 0xFF {
        DeviceId::Host
    } else {
        DeviceId::Gpu(GpuId(b))
    }
}

/// The two policy bits stored in a PTE (Fig. 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PolicyBits {
    /// `00` — on-touch migration (the default).
    #[default]
    OnTouch,
    /// `01` — access counter-based migration.
    AccessCounter,
    /// `11` — page duplication.
    Duplication,
}

impl PolicyBits {
    /// Raw two-bit encoding.
    pub const fn bits(self) -> u8 {
        match self {
            PolicyBits::OnTouch => 0b00,
            PolicyBits::AccessCounter => 0b01,
            PolicyBits::Duplication => 0b11,
        }
    }

    /// Decodes the two-bit encoding. `0b10` is reserved and returns `None`.
    pub const fn from_bits(bits: u8) -> Option<Self> {
        match bits {
            0b00 => Some(PolicyBits::OnTouch),
            0b01 => Some(PolicyBits::AccessCounter),
            0b11 => Some(PolicyBits::Duplication),
            _ => None,
        }
    }
}

/// A local page-table entry as seen by one GPU's GMMU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pte {
    /// Device whose memory this translation targets. A GPU can map a page
    /// living in a peer GPU's memory (remote mapping, used by the
    /// access-counter policy).
    pub location: DeviceId,
    /// Whether stores are permitted. Read-only duplicates clear this; a
    /// store then raises a page-protection fault (write-collapse path).
    pub writable: bool,
    /// Policy bits mirrored into the PTE so GMMU/UVM know how to handle
    /// faults on this page without consulting the O-Table.
    pub policy: PolicyBits,
}

/// One GPU's local page table (walked by its GMMU).
#[derive(Debug, Clone, Default)]
pub struct LocalPageTable {
    /// `Vpn -> slot`. An index entry outlives invalidation (tombstone slot
    /// reuse), so presence here does not imply a valid translation.
    index: FxHashMap<Vpn, u32>,
    vpns: Vec<Vpn>,
    ptes: Vec<Option<Pte>>,
    live: usize,
    /// Running digest of the valid translations.
    sum: SetDigest,
    /// Count of inserts + successful invalidations. Observational only:
    /// excluded from snapshots/digests (metrics must not perturb replay).
    updates: u64,
}

impl LocalPageTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The entry for `vpn`, if a valid translation exists.
    #[inline]
    pub fn get(&self, vpn: Vpn) -> Option<&Pte> {
        self.index
            .get(&vpn)
            .and_then(|&i| self.ptes[i as usize].as_ref())
    }

    /// Installs (or replaces) the translation for `vpn`.
    pub fn insert(&mut self, vpn: Vpn, pte: Pte) {
        let new = pte_hash(vpn, &pte);
        match self.index.get(&vpn) {
            Some(&i) => {
                let slot = &mut self.ptes[i as usize];
                match slot {
                    Some(old) => self.sum.replace(pte_hash(vpn, old), new),
                    None => {
                        self.live += 1;
                        self.sum.add(new);
                    }
                }
                *slot = Some(pte);
            }
            None => {
                let i = self.vpns.len() as u32;
                self.index.insert(vpn, i);
                self.vpns.push(vpn);
                self.ptes.push(Some(pte));
                self.live += 1;
                self.sum.add(new);
            }
        }
        self.updates += 1;
    }

    /// Invalidates the translation for `vpn`. Returns the removed entry.
    pub fn invalidate(&mut self, vpn: Vpn) -> Option<Pte> {
        let removed = self
            .index
            .get(&vpn)
            .and_then(|&i| self.ptes[i as usize].take());
        if let Some(pte) = &removed {
            self.live -= 1;
            self.updates += 1;
            self.sum.remove(pte_hash(vpn, pte));
        }
        removed
    }

    /// Folds the table into a state digest under `name`: the running sum
    /// of its translations, or a recomputation for a reference hasher.
    pub fn digest_into(&self, h: &mut StateHasher, name: fmt::Arguments<'_>) {
        h.table(name, self.live, self.sum, || {
            self.iter().map(|(vpn, pte)| pte_hash(*vpn, pte)).collect()
        });
    }

    /// Total PTE mutations (inserts + removals). Not snapshotted — feeds
    /// the metrics registry only.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Number of valid translations.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no translations are installed.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterates over all valid translations (dense slot order).
    pub fn iter(&self) -> impl Iterator<Item = (&Vpn, &Pte)> {
        self.vpns
            .iter()
            .zip(self.ptes.iter())
            .filter_map(|(vpn, pte)| pte.as_ref().map(|p| (vpn, p)))
    }

    fn clear(&mut self) {
        self.index.clear();
        self.vpns.clear();
        self.ptes.clear();
        self.live = 0;
        self.sum = SetDigest::default();
    }
}

/// Digest hash of one translation.
fn pte_hash(vpn: Vpn, pte: &Pte) -> u64 {
    let flags = u64::from(device_to_byte(pte.location))
        | u64::from(pte.writable) << 8
        | u64::from(pte.policy.bits()) << 16;
    entry_hash([vpn.0, flags])
}

impl Snapshot for LocalPageTable {
    fn snapshot<E: Encoder + ?Sized>(&self, w: &mut E) {
        // Sort by VPN: slot order is insertion history, which is not part
        // of the semantic state, and the bytes feed both checkpoints and
        // the golden snapshot digest.
        let mut entries: Vec<(&Vpn, &Pte)> = self.iter().collect();
        entries.sort_by_key(|(vpn, _)| **vpn);
        w.u64(entries.len() as u64);
        for (vpn, pte) in entries {
            w.u64(vpn.0);
            w.u8(device_to_byte(pte.location));
            w.bool(pte.writable);
            w.u8(pte.policy.bits());
        }
    }
}

impl Restore for LocalPageTable {
    fn restore(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        self.clear();
        let n = r.usize()?;
        for _ in 0..n {
            let vpn = Vpn(r.u64()?);
            let location = device_from_byte(r.u8()?);
            let writable = r.bool()?;
            let bits = r.u8()?;
            let policy = PolicyBits::from_bits(bits)
                .ok_or_else(|| r.malformed(format!("reserved policy bits {bits:#04b}")))?;
            let i = self.vpns.len() as u32;
            if self.index.insert(vpn, i).is_some() {
                return Err(r.malformed(format!("page {vpn:?} mapped twice")));
            }
            let pte = Pte {
                location,
                writable,
                policy,
            };
            self.vpns.push(vpn);
            self.ptes.push(Some(pte));
            self.live += 1;
            self.sum.add(pte_hash(vpn, &pte));
        }
        Ok(())
    }
}

/// Centralized (host) page-table entry: the UVM driver's view of one page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostEntry {
    /// Device holding the authoritative copy.
    pub owner: DeviceId,
    /// GPUs holding read-only duplicates (excluding the owner).
    pub copy_mask: u32,
    /// GPUs holding *remote* mappings to the owner's copy (the
    /// access-counter policy's mode of sharing). These GPUs have a valid
    /// local PTE pointing at the owner's memory but hold no data.
    pub mapper_mask: u32,
    /// Policy bits recorded for the page.
    pub policy: PolicyBits,
    /// Historical bitmask of GPUs that ever touched the page (bit per GPU;
    /// used by the characterization pass, not by hardware).
    pub touched_by: u32,
}

impl HostEntry {
    /// A fresh host-resident page with default policy.
    pub fn new_on_host() -> Self {
        HostEntry {
            owner: DeviceId::Host,
            copy_mask: 0,
            mapper_mask: 0,
            policy: PolicyBits::OnTouch,
            touched_by: 0,
        }
    }

    /// A fresh page initially placed on `dev` (Fig. 21's striped placement).
    pub fn new_at(dev: DeviceId) -> Self {
        HostEntry {
            owner: dev,
            copy_mask: 0,
            mapper_mask: 0,
            policy: PolicyBits::OnTouch,
            touched_by: 0,
        }
    }

    /// GPUs holding duplicates (excluding the owner).
    pub fn duplicate_holders(&self) -> impl Iterator<Item = GpuId> + '_ {
        (0..32u8)
            .filter(move |g| self.copy_mask & (1 << g) != 0)
            .map(GpuId)
    }

    /// GPUs holding remote mappings to the owner's copy.
    pub fn remote_mappers(&self) -> impl Iterator<Item = GpuId> + '_ {
        (0..32u8)
            .filter(move |g| self.mapper_mask & (1 << g) != 0)
            .map(GpuId)
    }

    /// True if `gpu` holds a remote mapping to this page.
    pub fn maps_remotely(&self, gpu: GpuId) -> bool {
        self.mapper_mask & (1 << gpu.0) != 0
    }

    /// Records that `gpu` touched the page (characterization metadata).
    pub fn mark_touched(&mut self, gpu: GpuId) {
        self.touched_by |= 1 << gpu.0;
    }
}

/// The centralized page table maintained by the UVM driver on the host.
/// A page is registered when its object is allocated and stays for the
/// run, so the table only grows.
#[derive(Debug, Clone, Default)]
pub struct HostPageTable {
    /// `Vpn -> slot`.
    index: FxHashMap<Vpn, u32>,
    vpns: Vec<Vpn>,
    entries: Vec<HostEntry>,
    /// Running digest of the registered entries.
    sum: SetDigest,
}

impl HostPageTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The entry for `vpn`, if the page has been allocated.
    #[inline]
    pub fn get(&self, vpn: Vpn) -> Option<&HostEntry> {
        self.index.get(&vpn).map(|&i| &self.entries[i as usize])
    }

    /// Applies `f` to the entry for `vpn` and returns its result, or
    /// `None` if the page is not registered. The only way to change an
    /// entry in place, so the table's digest sees every write.
    #[inline]
    pub fn update<R>(&mut self, vpn: Vpn, f: impl FnOnce(&mut HostEntry) -> R) -> Option<R> {
        let &i = self.index.get(&vpn)?;
        let e = &mut self.entries[i as usize];
        let old = host_entry_hash(vpn, e);
        let r = f(e);
        self.sum.replace(old, host_entry_hash(vpn, e));
        Some(r)
    }

    /// Registers a freshly allocated page.
    ///
    /// Refuses a page that is already registered (overlapping allocation)
    /// without modifying the existing entry.
    pub fn register(&mut self, vpn: Vpn, entry: HostEntry) -> Result<(), TableError> {
        match self.index.entry(vpn) {
            Entry::Occupied(_) => Err(TableError::DoubleRegistration { vpn: vpn.0 }),
            Entry::Vacant(slot) => {
                slot.insert(self.vpns.len() as u32);
                self.vpns.push(vpn);
                self.sum.add(host_entry_hash(vpn, &entry));
                self.entries.push(entry);
                Ok(())
            }
        }
    }

    /// Folds the table into a state digest: the running sum of its
    /// entries, or a recomputation for a reference hasher.
    pub fn digest_into(&self, h: &mut StateHasher) {
        let pages = self.len();
        h.table(format_args!("host page table"), pages, self.sum, || {
            self.iter()
                .map(|(vpn, e)| host_entry_hash(*vpn, e))
                .collect()
        });
    }

    /// Number of registered pages.
    pub fn len(&self) -> usize {
        self.vpns.len()
    }

    /// True if no pages are registered.
    pub fn is_empty(&self) -> bool {
        self.vpns.is_empty()
    }

    /// Iterates over all registered pages (registration order).
    pub fn iter(&self) -> impl Iterator<Item = (&Vpn, &HostEntry)> {
        self.vpns.iter().zip(&self.entries)
    }

    fn clear(&mut self) {
        self.index.clear();
        self.vpns.clear();
        self.entries.clear();
        self.sum = SetDigest::default();
    }
}

/// Digest hash of one host-table entry.
fn host_entry_hash(vpn: Vpn, e: &HostEntry) -> u64 {
    let masks = u64::from(e.copy_mask) | u64::from(e.mapper_mask) << 32;
    let rest = u64::from(device_to_byte(e.owner))
        | u64::from(e.policy.bits()) << 8
        | u64::from(e.touched_by) << 32;
    entry_hash([vpn.0, masks, rest])
}

impl Snapshot for HostPageTable {
    fn snapshot<E: Encoder + ?Sized>(&self, w: &mut E) {
        let mut entries: Vec<(&Vpn, &HostEntry)> = self.iter().collect();
        entries.sort_by_key(|(vpn, _)| **vpn);
        w.u64(entries.len() as u64);
        for (vpn, e) in entries {
            w.u64(vpn.0);
            w.u8(device_to_byte(e.owner));
            w.u32(e.copy_mask);
            w.u32(e.mapper_mask);
            w.u8(e.policy.bits());
            w.u32(e.touched_by);
        }
    }
}

impl Restore for HostPageTable {
    fn restore(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        self.clear();
        let n = r.usize()?;
        for _ in 0..n {
            let vpn = Vpn(r.u64()?);
            let owner = device_from_byte(r.u8()?);
            let copy_mask = r.u32()?;
            let mapper_mask = r.u32()?;
            let bits = r.u8()?;
            let policy = PolicyBits::from_bits(bits)
                .ok_or_else(|| r.malformed(format!("reserved policy bits {bits:#04b}")))?;
            let touched_by = r.u32()?;
            let i = self.vpns.len() as u32;
            if self.index.insert(vpn, i).is_some() {
                return Err(r.malformed(format!("page {vpn:?} registered twice")));
            }
            let entry = HostEntry {
                owner,
                copy_mask,
                mapper_mask,
                policy,
                touched_by,
            };
            self.vpns.push(vpn);
            self.sum.add(host_entry_hash(vpn, &entry));
            self.entries.push(entry);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_engine::codec::ByteWriter;

    #[test]
    fn policy_bits_round_trip() {
        for p in [
            PolicyBits::OnTouch,
            PolicyBits::AccessCounter,
            PolicyBits::Duplication,
        ] {
            assert_eq!(PolicyBits::from_bits(p.bits()), Some(p));
        }
        assert_eq!(PolicyBits::from_bits(0b10), None);
        assert_eq!(PolicyBits::default(), PolicyBits::OnTouch);
    }

    #[test]
    fn local_table_insert_get_invalidate() {
        let mut pt = LocalPageTable::new();
        let pte = Pte {
            location: DeviceId::Gpu(GpuId(1)),
            writable: true,
            policy: PolicyBits::OnTouch,
        };
        assert!(pt.get(Vpn(9)).is_none());
        pt.insert(Vpn(9), pte);
        assert_eq!(pt.get(Vpn(9)), Some(&pte));
        assert_eq!(pt.len(), 1);
        assert_eq!(pt.invalidate(Vpn(9)), Some(pte));
        assert!(pt.is_empty());
        assert_eq!(pt.invalidate(Vpn(9)), None);
    }

    #[test]
    fn local_table_reuses_tombstoned_slots() {
        let mut pt = LocalPageTable::new();
        let pte = Pte {
            location: DeviceId::Host,
            writable: true,
            policy: PolicyBits::OnTouch,
        };
        // Map/unmap the same page repeatedly (migration ping-pong): the
        // arena must not grow a slot per round.
        for _ in 0..100 {
            pt.insert(Vpn(5), pte);
            assert!(pt.invalidate(Vpn(5)).is_some());
        }
        assert!(pt.is_empty());
        assert_eq!(pt.vpns.len(), 1);
        assert_eq!(pt.updates(), 200);
    }

    #[test]
    fn duplicate_holders_exclude_the_owner() {
        let mut e = HostEntry::new_on_host();
        assert_eq!(e.duplicate_holders().count(), 0);
        e.owner = DeviceId::Gpu(GpuId(0));
        e.copy_mask = 0b0110;
        let holders: Vec<_> = e.duplicate_holders().collect();
        assert_eq!(holders, vec![GpuId(1), GpuId(2)]);
    }

    #[test]
    fn touched_tracking() {
        let mut e = HostEntry::new_on_host();
        assert_eq!(e.touched_by, 0);
        e.mark_touched(GpuId(0));
        assert_eq!(e.touched_by, 0b1);
        e.mark_touched(GpuId(0));
        assert_eq!(e.touched_by, 0b1);
        e.mark_touched(GpuId(3));
        assert_eq!(e.touched_by, 0b1001);
    }

    #[test]
    fn host_table_register_and_lookup() {
        let mut ht = HostPageTable::new();
        ht.register(Vpn(1), HostEntry::new_on_host()).unwrap();
        ht.register(Vpn(2), HostEntry::new_at(DeviceId::Gpu(GpuId(2))))
            .unwrap();
        assert_eq!(ht.len(), 2);
        assert_eq!(ht.get(Vpn(2)).unwrap().owner, DeviceId::Gpu(GpuId(2)));
        ht.update(Vpn(1), |e| e.policy = PolicyBits::Duplication)
            .unwrap();
        assert_eq!(ht.get(Vpn(1)).unwrap().policy, PolicyBits::Duplication);
        assert!(ht.get(Vpn(3)).is_none());
        // A second registration is refused and leaves the entry alone.
        assert!(ht.register(Vpn(1), HostEntry::new_on_host()).is_err());
        assert_eq!(ht.get(Vpn(1)).unwrap().policy, PolicyBits::Duplication);
        assert_eq!(ht.len(), 2);
    }

    #[test]
    fn device_byte_encoding_round_trips() {
        for dev in [
            DeviceId::Host,
            DeviceId::Gpu(GpuId(0)),
            DeviceId::Gpu(GpuId(31)),
        ] {
            assert_eq!(device_from_byte(device_to_byte(dev)), dev);
        }
    }

    #[test]
    fn tables_snapshot_deterministically_and_round_trip() {
        let mut ht = HostPageTable::new();
        let mut lt = LocalPageTable::new();
        // Insert in descending order; snapshots must still sort by VPN.
        for i in (0..40u64).rev() {
            let mut e = HostEntry::new_at(DeviceId::Gpu(GpuId((i % 4) as u8)));
            e.copy_mask = (i as u32) & 0b1111;
            e.policy = PolicyBits::Duplication;
            e.mark_touched(GpuId((i % 3) as u8));
            ht.register(Vpn(i), e).unwrap();
            lt.insert(
                Vpn(i),
                Pte {
                    location: DeviceId::Host,
                    writable: i % 2 == 0,
                    policy: PolicyBits::AccessCounter,
                },
            );
        }
        let mut w1 = ByteWriter::new();
        ht.snapshot(&mut w1);
        lt.snapshot(&mut w1);
        let buf = w1.into_vec();

        let mut ht2 = HostPageTable::new();
        let mut lt2 = LocalPageTable::new();
        let mut r = ByteReader::new("tables", &buf);
        ht2.restore(&mut r).unwrap();
        lt2.restore(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(ht2.len(), ht.len());
        assert_eq!(lt2.len(), lt.len());
        for i in 0..40u64 {
            assert_eq!(ht2.get(Vpn(i)), ht.get(Vpn(i)));
            assert_eq!(lt2.get(Vpn(i)), lt.get(Vpn(i)));
        }
        // Re-snapshot of the restored tables is bit-identical.
        let mut w2 = ByteWriter::new();
        ht2.snapshot(&mut w2);
        lt2.snapshot(&mut w2);
        assert_eq!(w2.into_vec(), buf);
    }

    #[test]
    fn snapshot_skips_tombstones() {
        let mut lt = LocalPageTable::new();
        let pte = Pte {
            location: DeviceId::Host,
            writable: true,
            policy: PolicyBits::OnTouch,
        };
        lt.insert(Vpn(1), pte);
        lt.insert(Vpn(2), pte);
        lt.invalidate(Vpn(1));
        let mut w = ByteWriter::new();
        lt.snapshot(&mut w);
        let buf = w.into_vec();
        let mut fresh = LocalPageTable::new();
        let mut r = ByteReader::new("local-table", &buf);
        fresh.restore(&mut r).unwrap();
        assert_eq!(fresh.len(), 1);
        assert!(fresh.get(Vpn(1)).is_none());
        assert_eq!(fresh.get(Vpn(2)), Some(&pte));
    }

    #[test]
    fn reserved_policy_bits_fail_restore() {
        let mut w = ByteWriter::new();
        w.u64(1); // one entry
        w.u64(7); // vpn
        w.u8(0xFF); // host
        w.u32(0);
        w.u32(0);
        w.u8(0b10); // reserved encoding
        w.u32(0);
        let buf = w.into_vec();
        let mut ht = HostPageTable::new();
        let mut r = ByteReader::new("host-table", &buf);
        assert!(ht.restore(&mut r).is_err());
    }

    #[test]
    fn double_register_is_a_typed_error() {
        let mut ht = HostPageTable::new();
        ht.register(Vpn(1), HostEntry::new_on_host()).unwrap();
        assert_eq!(
            ht.register(Vpn(1), HostEntry::new_on_host()),
            Err(TableError::DoubleRegistration { vpn: 1 })
        );
        assert_eq!(ht.len(), 1, "failed registration must not clobber");
    }
}
