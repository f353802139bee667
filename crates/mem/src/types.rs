//! Base value types used throughout the simulator.

use std::fmt;

/// Identifies one GPU in the system (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GpuId(pub u8);

impl GpuId {
    /// Index into per-GPU vectors.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for GpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GPU{}", self.0)
    }
}

/// A device that can hold physical pages: the host CPU or one of the GPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DeviceId {
    /// The host CPU's system memory (where managed pages start out).
    Host,
    /// A GPU's local HBM/GDDR memory.
    Gpu(GpuId),
}

impl DeviceId {
    /// True if this device is the host CPU.
    pub fn is_host(self) -> bool {
        matches!(self, DeviceId::Host)
    }

    /// The GPU id if this device is a GPU.
    pub fn gpu(self) -> Option<GpuId> {
        match self {
            DeviceId::Host => None,
            DeviceId::Gpu(g) => Some(g),
        }
    }
}

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceId::Host => write!(f, "Host"),
            DeviceId::Gpu(g) => write!(f, "{g}"),
        }
    }
}

impl From<GpuId> for DeviceId {
    fn from(g: GpuId) -> Self {
        DeviceId::Gpu(g)
    }
}

/// A 64-bit virtual address. Only the low 48 bits address memory; the upper
/// bits are available for OASIS pointer tagging (Fig. 9 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Va(pub u64);

/// Number of pointer bits that actually address memory.
pub const ADDR_BITS: u32 = 48;

/// Mask selecting the addressable low 48 bits of a pointer.
pub const ADDR_MASK: u64 = (1u64 << ADDR_BITS) - 1;

impl Va {
    /// The canonical (untagged) address: upper tag bits stripped, as done by
    /// TBI/LAM/UAI hardware on dereference.
    pub fn canonical(self) -> Va {
        Va(self.0 & ADDR_MASK)
    }

    /// Virtual page number under the given page size.
    pub fn vpn(self, size: PageSize) -> Vpn {
        Vpn((self.0 & ADDR_MASK) >> size.shift())
    }
}

impl fmt::Display for Va {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:012x}", self.0)
    }
}

/// A virtual page number (address divided by page size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Vpn(pub u64);

impl Vpn {
    /// The base virtual address of this page.
    pub fn base(self, size: PageSize) -> Va {
        Va(self.0 << size.shift())
    }

    /// The next page number.
    pub fn next(self) -> Vpn {
        Vpn(self.0 + 1)
    }
}

impl fmt::Display for Vpn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vpn:{:#x}", self.0)
    }
}

/// Identifies a data object (one `cudaMallocManaged` allocation).
///
/// The hardware O-Table only encodes the low 4 bits in the pointer, but the
/// software side (and OASIS-InMem) supports up to 2^16 objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ObjectId(pub u16);

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj{}", self.0)
    }
}

/// Whether a memory access reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store. Corresponds to the "W" bit in the page-fault error code that
    /// the OP-Controller inspects to learn an object's policy.
    Write,
}

impl AccessKind {
    /// True for writes (the fault error code's W bit).
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => write!(f, "R"),
            AccessKind::Write => write!(f, "W"),
        }
    }
}

/// Supported translation granularities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PageSize {
    /// Standard 4 KiB pages (the paper's baseline).
    #[default]
    Small4K,
    /// 2 MiB large pages (studied in Fig. 19).
    Large2M,
}

impl PageSize {
    /// Page size in bytes.
    pub const fn bytes(self) -> u64 {
        match self {
            PageSize::Small4K => 4 * 1024,
            PageSize::Large2M => 2 * 1024 * 1024,
        }
    }

    /// log2 of the page size.
    pub const fn shift(self) -> u32 {
        match self {
            PageSize::Small4K => 12,
            PageSize::Large2M => 21,
        }
    }

    /// Number of pages needed to hold `bytes`, rounding up.
    pub fn pages_for(self, bytes: u64) -> u64 {
        bytes.div_ceil(self.bytes())
    }
}

impl fmt::Display for PageSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageSize::Small4K => write!(f, "4KB"),
            PageSize::Large2M => write!(f, "2MB"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn va_tag_and_canonical() {
        let raw = Va(0xABCD_0000_1234_5678);
        assert_eq!(raw.canonical(), Va(0x0000_0000_1234_5678));
    }

    #[test]
    fn vpn_round_trips_through_base() {
        for size in [PageSize::Small4K, PageSize::Large2M] {
            let va = Va(7 * size.bytes() + 123);
            let vpn = va.vpn(size);
            assert_eq!(vpn, Vpn(7));
            assert_eq!(vpn.base(size), Va(7 * size.bytes()));
        }
    }

    #[test]
    fn tagged_pointer_translates_like_untagged() {
        let tagged = Va((0b1_0001u64 << ADDR_BITS) | 0x42_0000);
        let untagged = Va(0x42_0000);
        assert_eq!(
            tagged.vpn(PageSize::Small4K),
            untagged.vpn(PageSize::Small4K)
        );
    }

    #[test]
    fn page_size_math() {
        assert_eq!(PageSize::Small4K.bytes(), 4096);
        assert_eq!(PageSize::Large2M.bytes(), 2 * 1024 * 1024);
        assert_eq!(PageSize::Small4K.pages_for(1), 1);
        assert_eq!(PageSize::Small4K.pages_for(4096), 1);
        assert_eq!(PageSize::Small4K.pages_for(4097), 2);
        assert_eq!(PageSize::Large2M.pages_for(32 << 20), 16);
        assert_eq!(PageSize::Small4K.pages_for(0), 0);
    }

    #[test]
    fn device_id_helpers() {
        assert!(DeviceId::Host.is_host());
        assert_eq!(DeviceId::Host.gpu(), None);
        let d: DeviceId = GpuId(3).into();
        assert!(!d.is_host());
        assert_eq!(d.gpu(), Some(GpuId(3)));
        assert_eq!(GpuId(3).index(), 3);
    }

    #[test]
    fn displays_are_informative() {
        assert_eq!(GpuId(2).to_string(), "GPU2");
        assert_eq!(DeviceId::Host.to_string(), "Host");
        assert_eq!(ObjectId(5).to_string(), "obj5");
        assert_eq!(AccessKind::Read.to_string(), "R");
        assert_eq!(AccessKind::Write.to_string(), "W");
        assert_eq!(PageSize::Small4K.to_string(), "4KB");
        assert!(Vpn(16).to_string().contains("10"));
    }

    #[test]
    fn access_kind_write_bit() {
        assert!(AccessKind::Write.is_write());
        assert!(!AccessKind::Read.is_write());
    }
}
