//! The Object Tracker: pointer tagging at allocation time.
//!
//! OASIS identifies the object behind every memory access by encoding the
//! object index (`Obj_ID`) and a configuration bit into the unused upper
//! bits of the pointer returned by the managed allocator (Figs. 9–10):
//!
//! ```text
//!  63        49   48   47                                   0
//! | Object Index | Cfg |        Object Virtual Address       |
//!    (4 bits)     (1)               (48 bits)
//! ```
//!
//! The configuration bit distinguishes hardware OASIS (`1`, Obj_ID is in
//! the pointer) from OASIS-InMem (`0`, Obj_ID comes from the shadow map).
//! Dereferencing tagged pointers is safe thanks to Top-Byte-Ignore-style
//! hardware (ARM TBI, Intel LAM, AMD UAI), which the simulator mirrors by
//! masking tags off before translation ([`Va::canonical`]).
//!
//! [`Va::canonical`]: oasis_mem::types::Va::canonical

use oasis_engine::codec::{ByteReader, CodecError, Encoder, Restore, Snapshot};
use oasis_mem::types::{ObjectId, Va, ADDR_BITS, ADDR_MASK};

/// Default number of Obj_ID bits in the pointer (the paper's choice; most
/// evaluated applications have fewer than 2^4 live objects).
pub const DEFAULT_ID_BITS: u32 = 4;

/// Maximum number of Obj_ID bits that fit above the config bit in a 64-bit
/// pointer (Section V-B).
pub const MAX_ID_BITS: u32 = 15;

/// Encodes `obj`'s low `id_bits` and the configuration bit into the upper
/// bits of `ptr`, exactly as the wrapper around `cudaMallocManaged` does in
/// Fig. 10.
///
/// # Panics
///
/// Panics if `id_bits` exceeds [`MAX_ID_BITS`].
pub fn encode(ptr: Va, obj: ObjectId, id_bits: u32, hardware: bool) -> Va {
    assert!(id_bits <= MAX_ID_BITS, "at most {MAX_ID_BITS} Obj_ID bits");
    let id_mask = (1u64 << id_bits) - 1;
    let tag = ((obj.0 as u64 & id_mask) << 1) | u64::from(hardware);
    // ptr_temp = ptr & MASK; ptr = ptr_temp | (tag << ADDR_BITS)
    Va((ptr.0 & ADDR_MASK) | (tag << ADDR_BITS))
}

/// Decodes `(raw Obj_ID, config bit)` from a tagged pointer, assuming
/// `id_bits` of Obj_ID.
pub fn decode(ptr: Va, id_bits: u32) -> (u16, bool) {
    let tag = ptr.0 >> ADDR_BITS;
    let hardware = tag & 1 == 1;
    let id = (tag >> 1) & ((1 << id_bits) - 1);
    (id as u16, hardware)
}

/// The runtime wrapper around the managed allocation APIs: assigns object
/// IDs in allocation order and tags returned pointers.
///
/// # Example
///
/// ```
/// use oasis_core::tracker::ObjectTracker;
/// use oasis_mem::types::Va;
///
/// let mut tracker = ObjectTracker::hardware();
/// let tagged = tracker.on_alloc(Va(0x1000_0000));
/// assert_eq!(tagged.canonical(), Va(0x1000_0000));
/// // Obj_ID 0, config bit set.
/// assert_eq!(oasis_core::decode(tagged, tracker.id_bits()), (0, true));
/// ```
#[derive(Debug, Clone)]
pub struct ObjectTracker {
    id_bits: u32,
    hardware: bool,
    next_id: u16,
}

impl ObjectTracker {
    /// Tracker for hardware OASIS (config bit 1, Obj_ID in the pointer).
    pub fn hardware() -> Self {
        ObjectTracker {
            id_bits: DEFAULT_ID_BITS,
            hardware: true,
            next_id: 0,
        }
    }

    /// Tracker for OASIS-InMem (config bit 0, Obj_ID via shadow map).
    pub fn in_mem() -> Self {
        ObjectTracker {
            id_bits: DEFAULT_ID_BITS,
            hardware: false,
            next_id: 0,
        }
    }

    /// Overrides the number of Obj_ID bits (up to [`MAX_ID_BITS`]).
    ///
    /// # Panics
    ///
    /// Panics if `bits` exceeds [`MAX_ID_BITS`].
    pub fn with_id_bits(mut self, bits: u32) -> Self {
        assert!(bits <= MAX_ID_BITS, "at most {MAX_ID_BITS} Obj_ID bits");
        self.id_bits = bits;
        self
    }

    /// Number of Obj_ID bits in use.
    pub fn id_bits(&self) -> u32 {
        self.id_bits
    }

    /// Called when a new object is allocated at `base`; returns the tagged
    /// pointer handed back to the application. IDs are assigned in
    /// allocation order ("the first allocated object is assigned 0000, the
    /// second 0001, and so forth") and wrap modulo `2^id_bits` in the
    /// pointer encoding.
    pub fn on_alloc(&mut self, base: Va) -> Va {
        let id = ObjectId(self.next_id);
        self.next_id = self.next_id.wrapping_add(1);
        if self.hardware {
            encode(base, id, self.id_bits, true)
        } else {
            encode(base, ObjectId(0), 0, false)
        }
    }

    /// Tags an *existing* object id onto a pointer (used when replaying
    /// allocation traces where ids are pre-assigned).
    pub fn tag(&self, obj: ObjectId, ptr: Va) -> Va {
        if self.hardware {
            encode(ptr, obj, self.id_bits, true)
        } else {
            encode(ptr, ObjectId(0), 0, false)
        }
    }
}

impl Snapshot for ObjectTracker {
    fn snapshot<E: Encoder + ?Sized>(&self, w: &mut E) {
        w.u32(self.id_bits);
        w.bool(self.hardware);
        w.u16(self.next_id);
    }
}

impl Restore for ObjectTracker {
    fn restore(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        // id_bits and mode are configuration; a mismatch means the
        // checkpoint was taken under a different policy setup.
        let id_bits = r.u32()?;
        if id_bits != self.id_bits {
            return Err(r.malformed(format!(
                "checkpoint tracker uses {id_bits} Obj_ID bits, this run uses {}",
                self.id_bits
            )));
        }
        let hardware = r.bool()?;
        if hardware != self.hardware {
            return Err(r.malformed(format!(
                "checkpoint tracker hardware={hardware}, this run hardware={}",
                self.hardware
            )));
        }
        self.next_id = r.u16()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_engine::codec::ByteWriter;

    #[test]
    fn encode_decode_round_trip() {
        let ptr = Va(0x0000_7fff_dead_b000);
        for id in [0u16, 1, 7, 15] {
            let tagged = encode(ptr, ObjectId(id), 4, true);
            assert_eq!(decode(tagged, 4), (id, true));
            assert_eq!(tagged.canonical(), ptr.canonical());
        }
    }

    #[test]
    fn config_bit_distinguishes_modes() {
        let ptr = Va(0x1000);
        let hw = encode(ptr, ObjectId(3), 4, true);
        let sw = encode(ptr, ObjectId(0), 0, false);
        assert!(decode(hw, 4).1);
        assert!(!decode(sw, 4).1);
    }

    #[test]
    fn id_wraps_at_bit_width() {
        let ptr = Va(0x1000);
        let tagged = encode(ptr, ObjectId(16), 4, true); // 16 mod 2^4 = 0
        assert_eq!(decode(tagged, 4).0, 0);
        let tagged = encode(ptr, ObjectId(17), 4, true);
        assert_eq!(decode(tagged, 4).0, 1);
    }

    #[test]
    fn encode_clears_preexisting_tag() {
        let dirty = Va(0xFFFF_0000_0000_1000);
        let tagged = encode(dirty, ObjectId(2), 4, true);
        assert_eq!(decode(tagged, 4), (2, true));
        assert_eq!(tagged.canonical(), Va(0x1000));
    }

    #[test]
    fn wide_ids_up_to_15_bits() {
        let ptr = Va(0x2000);
        let tagged = encode(ptr, ObjectId(0x7ABC & 0x7FFF), 15, true);
        assert_eq!(decode(tagged, 15).0, 0x7ABC);
    }

    #[test]
    #[should_panic(expected = "at most 15")]
    fn sixteen_bits_rejected() {
        encode(Va(0), ObjectId(0), 16, true);
    }

    #[test]
    fn tracker_assigns_ids_in_allocation_order() {
        let mut t = ObjectTracker::hardware();
        let a = t.on_alloc(Va(0x1000));
        let b = t.on_alloc(Va(0x2000));
        let c = t.on_alloc(Va(0x3000));
        assert_eq!(decode(a, t.id_bits()), (0, true));
        assert_eq!(decode(b, t.id_bits()), (1, true));
        assert_eq!(decode(c, t.id_bits()), (2, true));
    }

    #[test]
    fn in_mem_tracker_leaves_upper_bits_unused() {
        let mut t = ObjectTracker::in_mem();
        let p = t.on_alloc(Va(0x1234_5000));
        assert_eq!(p.0 >> 49, 0, "only the config bit may be set");
        // No Obj_ID: the id must come from the shadow map.
        assert_eq!(decode(p, t.id_bits()), (0, false));
    }

    #[test]
    fn tracker_snapshot_resumes_id_assignment() {
        let mut t = ObjectTracker::hardware();
        t.on_alloc(Va(0x1000));
        t.on_alloc(Va(0x2000));
        let mut w = ByteWriter::new();
        t.snapshot(&mut w);

        let mut fresh = ObjectTracker::hardware();
        let buf = w.into_vec();
        let mut r = ByteReader::new("tracker", &buf);
        fresh.restore(&mut r).expect("valid tracker state");
        let next = fresh.on_alloc(Va(0x3000));
        assert_eq!(decode(next, fresh.id_bits()), (2, true));

        // A checkpoint from a different tracker mode is rejected.
        let mut inmem = ObjectTracker::in_mem();
        let mut r = ByteReader::new("tracker", &buf);
        assert!(inmem.restore(&mut r).is_err());
    }

    #[test]
    fn tracker_id_bits_configurable() {
        let t = ObjectTracker::hardware().with_id_bits(8);
        assert_eq!(t.id_bits(), 8);
        let tagged = t.tag(ObjectId(200), Va(0x1000));
        assert_eq!(decode(tagged, 8).0, 200);
    }
}
