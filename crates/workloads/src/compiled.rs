//! Access resolution: a trace access bound to a concrete address space.
//!
//! A [`Trace`] names each access by (object, offset); the simulator needs
//! the tagged virtual address and its page number. Once objects are
//! placed, [`CompiledAccess::resolve`] derives both from the object's
//! tagged base with one bounds check. `System` resolves every access as it
//! simulates it, against the binding `load` or `resume` built, so it holds
//! no copy of the trace. [`CompiledTrace::compile`] maps the same rule over
//! a whole trace, for callers that want the resolved stream as a buffer.
//!
//! Resolution is semantically invisible: an invalid access (unknown
//! object, out-of-range offset) resolves to a marked entry so the
//! simulator raises the *same* typed error at the *same* step it always
//! did, and a compiled trace keeps the per-phase / per-GPU stream shapes
//! so barrier indices keep their meaning.

use oasis_mem::types::{AccessKind, ObjectId, PageSize, Va, Vpn};

use crate::trace::{Access, Trace};

/// One fully resolved memory transaction.
///
/// For a valid access, `va`/`vpn` are the final (tagged) virtual address
/// and page number — the simulator consumes them directly. For an invalid
/// access (`valid == false`) they are zero and the original `obj`/`offset`
/// coordinates are used to reconstruct the typed trace error.
#[derive(Debug, Clone, Copy)]
pub struct CompiledAccess {
    /// Tagged virtual address (base of the owning object + offset).
    pub va: Va,
    /// Virtual page number of `va` under the compiling page size.
    pub vpn: Vpn,
    /// Original intra-object byte offset (error reporting).
    pub offset: u64,
    /// Transaction size in bytes.
    pub bytes: u32,
    /// Original object id (error reporting).
    pub obj: ObjectId,
    /// Read or write.
    pub kind: AccessKind,
    /// Whether the access resolved (known object, in-range offset).
    pub valid: bool,
}

/// One trace phase's streams, pre-resolved. Stream lengths and ordering
/// match the source [`Phase::per_gpu`](crate::trace::Phase::per_gpu)
/// exactly, so the phase's barrier indices apply unchanged.
#[derive(Debug, Clone)]
pub struct CompiledPhase {
    /// Per-GPU resolved access streams.
    pub per_gpu: Vec<Vec<CompiledAccess>>,
}

/// A [`Trace`] compiled against one address-space binding (object bases
/// and sizes) and page size. Valid only for the system that produced the
/// binding; a different placement of objects needs a fresh compile.
#[derive(Debug, Clone)]
pub struct CompiledTrace {
    /// Pre-resolved phases, index-aligned with the source trace's.
    pub phases: Vec<CompiledPhase>,
}

impl CompiledAccess {
    /// Resolves `a` against the object binding: `bases[i]`/`sizes[i]` are
    /// the tagged base address and byte size of object `i`. An access
    /// naming an object outside `bases` or an offset at/past its size
    /// resolves to an invalid entry.
    #[inline]
    pub fn resolve(a: &Access, bases: &[Va], sizes: &[u64], page: PageSize) -> Self {
        let i = a.obj.0 as usize;
        let (va, vpn, valid) = match bases.get(i) {
            Some(base) if a.offset < sizes[i] => {
                let va = Va(base.0 + a.offset);
                (va, va.vpn(page), true)
            }
            _ => (Va(0), Vpn(0), false),
        };
        CompiledAccess {
            va,
            vpn,
            offset: a.offset,
            bytes: a.bytes,
            obj: a.obj,
            kind: a.kind,
            valid,
        }
    }
}

impl CompiledTrace {
    /// Resolves every access of `trace` with [`CompiledAccess::resolve`].
    pub fn compile(trace: &Trace, bases: &[Va], sizes: &[u64], page: PageSize) -> Self {
        CompiledTrace {
            phases: trace
                .phases
                .iter()
                .map(|phase| CompiledPhase {
                    per_gpu: phase
                        .per_gpu
                        .iter()
                        .map(|stream| {
                            stream
                                .iter()
                                .map(|a| CompiledAccess::resolve(a, bases, sizes, page))
                                .collect()
                        })
                        .collect(),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{App, WorkloadParams};

    #[test]
    fn compile_preserves_stream_shapes_and_resolves_addresses() {
        let trace = crate::generate(App::Mm, &WorkloadParams::small(App::Mm, 4));
        let n_objects = trace.objects.len();
        // A synthetic dense binding: object i based at i * 1 GiB.
        let bases: Vec<Va> = (0..n_objects).map(|i| Va((i as u64) << 30)).collect();
        let sizes: Vec<u64> = trace.objects.iter().map(|o| o.bytes).collect();
        let page = PageSize::Small4K;
        let compiled = CompiledTrace::compile(&trace, &bases, &sizes, page);
        assert_eq!(compiled.phases.len(), trace.phases.len());
        for (cp, p) in compiled.phases.iter().zip(trace.phases.iter()) {
            assert_eq!(cp.per_gpu.len(), p.per_gpu.len());
            for (cs, s) in cp.per_gpu.iter().zip(p.per_gpu.iter()) {
                assert_eq!(cs.len(), s.len());
                for (ca, a) in cs.iter().zip(s.iter()) {
                    assert!(ca.valid);
                    assert_eq!(ca.va.0, bases[a.obj.0 as usize].0 + a.offset);
                    assert_eq!(ca.vpn, ca.va.vpn(page));
                    assert_eq!(ca.bytes, a.bytes);
                    assert_eq!(ca.kind, a.kind);
                }
            }
        }
    }

    #[test]
    fn out_of_binding_accesses_compile_to_invalid_entries() {
        let mut trace = crate::generate(App::Mt, &WorkloadParams::small(App::Mt, 4));
        trace.phases[0].per_gpu[0][0].obj = ObjectId(999); // unknown object
        trace.phases[0].per_gpu[1][2].offset = u64::MAX / 2; // out of range
        let bases: Vec<Va> = trace
            .objects
            .iter()
            .enumerate()
            .map(|(i, _)| Va((i as u64) << 30))
            .collect();
        let sizes: Vec<u64> = trace.objects.iter().map(|o| o.bytes).collect();
        let c = CompiledTrace::compile(&trace, &bases, &sizes, PageSize::Small4K);
        let bad = &c.phases[0].per_gpu[0][0];
        assert!(!bad.valid);
        assert_eq!(bad.obj, ObjectId(999));
        let bad2 = &c.phases[0].per_gpu[1][2];
        assert!(!bad2.valid);
        assert_eq!(bad2.offset, u64::MAX / 2);
        // Everything else still resolves.
        assert!(c.phases[0].per_gpu[0][1].valid);
    }
}
