//! Virtual address-space layout: objects to VA ranges.
//!
//! An *object* is one `cudaMallocManaged` allocation — the granularity at
//! which OASIS learns page-management policies. The [`AddressSpace`] hands
//! out contiguous, 2 MiB-aligned VA ranges in allocation order (matching the
//! paper's "Obj_ID initialized based on the order of allocation"). Nothing
//! maps a page back to its object through it: the trace compiler resolves
//! every access from its object id, the characterization pass reads object
//! ids off the trace, and OASIS-InMem keeps its own shadow map.

use crate::types::{ObjectId, Va, ADDR_MASK};

/// Base VA of the managed heap. Arbitrary but nonzero so null pointers are
/// never valid, and 2 MiB-aligned so 4 KiB and 2 MiB runs see the same
/// object-to-page alignment.
pub const HEAP_BASE: u64 = 0x1000_0000;

/// Alignment of every object base (the 2 MiB large-page size).
pub const OBJECT_ALIGN: u64 = 2 * 1024 * 1024;

/// One managed allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectAllocation {
    /// Identifier, assigned in allocation order.
    pub id: ObjectId,
    /// Human-readable name (e.g. `"MT_Input"`), used in figures.
    pub name: String,
    /// Base virtual address (untagged).
    pub base: Va,
    /// Size in bytes.
    pub size: u64,
}

/// The managed virtual address space of one application run.
#[derive(Debug, Clone, Default)]
pub struct AddressSpace {
    objects: Vec<ObjectAllocation>,
    next_base: u64,
}

impl AddressSpace {
    /// Creates an empty address space.
    pub fn new() -> Self {
        AddressSpace {
            objects: Vec::new(),
            next_base: HEAP_BASE,
        }
    }

    /// Allocates `bytes` for a new object named `name`, returning its id.
    /// Objects live until the run ends.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero or if the heap would exceed the 48-bit
    /// addressable range.
    pub fn alloc(&mut self, name: impl Into<String>, bytes: u64) -> ObjectId {
        assert!(bytes > 0, "zero-sized allocation");
        let id =
            ObjectId(u16::try_from(self.objects.len()).expect("more than 2^16 objects allocated"));
        let base = self.next_base;
        let padded = bytes.div_ceil(OBJECT_ALIGN) * OBJECT_ALIGN;
        self.next_base = base + padded;
        assert!(self.next_base <= ADDR_MASK, "managed heap exhausted");
        self.objects.push(ObjectAllocation {
            id,
            name: name.into(),
            base: Va(base),
            size: bytes,
        });
        id
    }

    /// The allocation record for `id`.
    pub fn object(&self, id: ObjectId) -> &ObjectAllocation {
        &self.objects[id.0 as usize]
    }

    /// All allocations, in allocation order.
    pub fn objects(&self) -> &[ObjectAllocation] {
        &self.objects
    }

    /// True if nothing was ever allocated.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_is_sequential_and_aligned() {
        let mut a = AddressSpace::new();
        let x = a.alloc("x", 10);
        let y = a.alloc("y", 3 * 1024 * 1024);
        let z = a.alloc("z", 1);
        assert_eq!(x, ObjectId(0));
        assert_eq!(y, ObjectId(1));
        assert_eq!(z, ObjectId(2));
        for o in a.objects() {
            assert_eq!(o.base.0 % OBJECT_ALIGN, 0);
        }
        assert_eq!(a.object(y).base.0, HEAP_BASE + OBJECT_ALIGN);
        assert_eq!(a.object(z).base.0, HEAP_BASE + 3 * OBJECT_ALIGN);
    }

    #[test]
    #[should_panic(expected = "zero-sized")]
    fn zero_alloc_panics() {
        AddressSpace::new().alloc("x", 0);
    }
}
