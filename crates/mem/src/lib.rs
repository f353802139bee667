//! Memory-hierarchy building blocks shared by the OASIS simulator.
//!
//! This crate provides the hardware structures that both the per-GPU model
//! and the UVM driver are assembled from:
//!
//! * base value types ([`types`]): GPU/device identifiers, virtual
//!   addresses, page numbers, object identifiers, access kinds;
//! * set-associative [`tlb::Tlb`] and [`cache::Cache`] models with LRU
//!   replacement;
//! * page tables ([`page`]): per-GPU local page tables with policy bits in
//!   the PTE (Fig. 12 of the paper) and the centralized host page table
//!   tracking page residency and read-duplicate copy sets;
//! * a per-device physical [`frames::FrameAllocator`] with LRU residency
//!   tracking for oversubscription eviction;
//! * the virtual address-space [`layout::AddressSpace`] mapping data objects
//!   (`cudaMallocManaged` allocations) to contiguous VA ranges.

pub mod cache;
pub mod frames;
pub mod layout;
pub mod page;
pub mod tlb;
pub mod types;

pub use cache::Cache;
pub use frames::FrameAllocator;
pub use layout::{AddressSpace, ObjectAllocation};
pub use page::{HostEntry, HostPageTable, LocalPageTable, PolicyBits, Pte};
pub use tlb::Tlb;
pub use types::{AccessKind, DeviceId, GpuId, ObjectId, PageSize, Va, Vpn};
