//! Object/page access-pattern characterization (Section IV).
//!
//! Implements the paper's terminology on top of raw traces: private vs
//! shared pages, read-only / write-only / rw-mix pages, the 90 % dominance
//! rule for object patterns, non-uniform objects, and interval/phase
//! scoping. Feeds Figs. 3–7 and 20.

use std::collections::HashMap;

use oasis_mem::types::{ObjectId, PageSize};
use oasis_workloads::trace::Trace;

/// Read/write classification of a page or object over a scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RwPattern {
    /// Only read.
    ReadOnly,
    /// Only written.
    WriteOnly,
    /// Both read and written.
    RwMix,
}

/// Sharing classification of a page or object over a scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SharePattern {
    /// Touched by exactly one GPU.
    Private,
    /// Touched by more than one GPU.
    Shared,
}

/// Raw per-page counters over a scope.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageStats {
    /// Bitmask of GPUs that read the page.
    pub readers: u32,
    /// Bitmask of GPUs that wrote the page.
    pub writers: u32,
    /// Read transactions.
    pub reads: u64,
    /// Write transactions.
    pub writes: u64,
}

impl PageStats {
    /// True if any GPU touched the page in the scope.
    pub fn touched(&self) -> bool {
        self.readers | self.writers != 0
    }

    /// Read/write classification (`None` if untouched).
    pub fn rw(&self) -> Option<RwPattern> {
        match (self.reads > 0, self.writes > 0) {
            (false, false) => None,
            (true, false) => Some(RwPattern::ReadOnly),
            (false, true) => Some(RwPattern::WriteOnly),
            (true, true) => Some(RwPattern::RwMix),
        }
    }

    /// Sharing classification (`None` if untouched).
    pub fn share(&self) -> Option<SharePattern> {
        match (self.readers | self.writers).count_ones() {
            0 => None,
            1 => Some(SharePattern::Private),
            _ => Some(SharePattern::Shared),
        }
    }
}

/// The scope a profile is computed over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// The entire trace ("overall object pattern").
    Whole,
    /// One explicit phase (kernel launch), by index.
    Phase(usize),
    /// Interval `index` of `of` equal chunks of every stream — the
    /// time-interval axis of Figs. 4 and 7 (approximates implicit phases).
    Interval {
        /// Which chunk.
        index: usize,
        /// Total chunks.
        of: usize,
    },
}

/// Pattern summary for one object over a scope.
#[derive(Debug, Clone)]
pub struct ObjectProfile {
    /// The object.
    pub obj: ObjectId,
    /// Allocation name.
    pub name: String,
    /// Pages the object spans.
    pub pages: u64,
    /// Total transactions to the object in scope.
    pub accesses: u64,
    /// Per-page counters (indexed by page-within-object).
    pub page_stats: Vec<PageStats>,
}

/// The paper's dominance threshold: an object takes a pattern when at
/// least 90 % of its touched pages agree.
pub const DOMINANCE: f64 = 0.90;

impl ObjectProfile {
    /// Dominant read/write pattern under the 90 % rule; `None` if the
    /// object was untouched, `Some(RwMix)` if no pattern dominates.
    pub fn rw_pattern(&self) -> Option<RwPattern> {
        let touched: Vec<RwPattern> = self.page_stats.iter().filter_map(PageStats::rw).collect();
        if touched.is_empty() {
            return None;
        }
        for candidate in [RwPattern::ReadOnly, RwPattern::WriteOnly, RwPattern::RwMix] {
            let n = touched.iter().filter(|p| **p == candidate).count();
            if n as f64 >= DOMINANCE * touched.len() as f64 {
                return Some(candidate);
            }
        }
        Some(RwPattern::RwMix)
    }

    /// Dominant sharing pattern under the 90 % rule; `None` if untouched.
    /// A mixed object ("private-shared-mix") reports `Shared`.
    pub fn share_pattern(&self) -> Option<SharePattern> {
        let touched: Vec<SharePattern> = self
            .page_stats
            .iter()
            .filter_map(PageStats::share)
            .collect();
        if touched.is_empty() {
            return None;
        }
        for candidate in [SharePattern::Private, SharePattern::Shared] {
            let n = touched.iter().filter(|p| **p == candidate).count();
            if n as f64 >= DOMINANCE * touched.len() as f64 {
                return Some(candidate);
            }
        }
        Some(SharePattern::Shared)
    }

    /// The paper's *non-uniform object*: at least one touched page differs
    /// from the object's dominant classification in **both** dimensions.
    pub fn is_non_uniform(&self) -> bool {
        let (Some(rw), Some(share)) = (self.rw_pattern(), self.share_pattern()) else {
            return false;
        };
        self.page_stats.iter().any(|p| {
            matches!((p.rw(), p.share()), (Some(prw), Some(psh))
                if prw != rw && psh != share)
        })
    }
}

/// Profiles every object of `trace` over `scope` at the given page size.
pub fn profile(trace: &Trace, page: PageSize, scope: Scope) -> Vec<ObjectProfile> {
    // Page-within-object indexing: offsets are object-relative, so page
    // index = offset / page_bytes (object bases are 2 MiB-aligned in the
    // simulator, preserving this alignment for both page sizes).
    let mut profiles: Vec<ObjectProfile> = trace
        .objects
        .iter()
        .enumerate()
        .map(|(i, o)| {
            let pages = page.pages_for(o.bytes).max(1);
            ObjectProfile {
                obj: ObjectId(i as u16),
                name: o.name.clone(),
                pages,
                accesses: 0,
                page_stats: vec![PageStats::default(); pages as usize],
            }
        })
        .collect();

    let phases: Box<dyn Iterator<Item = &oasis_workloads::trace::Phase>> = match scope {
        Scope::Phase(i) => Box::new(trace.phases.get(i).into_iter()),
        _ => Box::new(trace.phases.iter()),
    };
    for ph in phases {
        for (g, stream) in ph.per_gpu.iter().enumerate() {
            let (start, end) = match scope {
                Scope::Interval { index, of } => {
                    assert!(index < of, "interval index out of range");
                    let chunk = stream.len().div_ceil(of.max(1));
                    let s = (index * chunk).min(stream.len());
                    (s, (s + chunk).min(stream.len()))
                }
                _ => (0, stream.len()),
            };
            for a in &stream[start..end] {
                let p = &mut profiles[a.obj.0 as usize];
                let idx = (a.offset / page.bytes()) as usize;
                let stats = &mut p.page_stats[idx];
                if a.kind.is_write() {
                    stats.writers |= 1 << g;
                    stats.writes += 1;
                } else {
                    stats.readers |= 1 << g;
                    stats.reads += 1;
                }
                p.accesses += 1;
            }
        }
    }
    profiles
}

/// Aggregate page-type percentages across an app (Fig. 20): returns
/// `(read-only, write-only, rw-mix)` and `(private, shared)` fractions of
/// touched pages.
pub fn page_type_mix(trace: &Trace, page: PageSize) -> ((f64, f64, f64), (f64, f64)) {
    let profiles = profile(trace, page, Scope::Whole);
    let mut rw = HashMap::new();
    let mut share = HashMap::new();
    let mut touched = 0u64;
    for p in &profiles {
        for s in &p.page_stats {
            if let (Some(r), Some(sh)) = (s.rw(), s.share()) {
                *rw.entry(r).or_insert(0u64) += 1;
                *share.entry(sh).or_insert(0u64) += 1;
                touched += 1;
            }
        }
    }
    if touched == 0 {
        return ((0.0, 0.0, 0.0), (0.0, 0.0));
    }
    let f = |n: u64| n as f64 / touched as f64;
    (
        (
            f(*rw.get(&RwPattern::ReadOnly).unwrap_or(&0)),
            f(*rw.get(&RwPattern::WriteOnly).unwrap_or(&0)),
            f(*rw.get(&RwPattern::RwMix).unwrap_or(&0)),
        ),
        (
            f(*share.get(&SharePattern::Private).unwrap_or(&0)),
            f(*share.get(&SharePattern::Shared).unwrap_or(&0)),
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_workloads::{generate, App, WorkloadParams};

    fn mt() -> Trace {
        generate(App::Mt, &WorkloadParams::small(App::Mt, 4))
    }

    #[test]
    fn mt_input_is_shared_read_only_output_private_write_only() {
        let profiles = profile(&mt(), PageSize::Small4K, Scope::Whole);
        let input = &profiles[0];
        assert_eq!(input.rw_pattern(), Some(RwPattern::ReadOnly));
        assert_eq!(input.share_pattern(), Some(SharePattern::Shared));
        let output = &profiles[1];
        assert_eq!(output.rw_pattern(), Some(RwPattern::WriteOnly));
        assert_eq!(output.share_pattern(), Some(SharePattern::Private));
        assert!(!input.is_non_uniform());
        assert!(!output.is_non_uniform());
    }

    #[test]
    fn mt_pattern_is_stable_across_intervals() {
        // Fig. 4's time axis: the pattern holds in all 8 intervals.
        let t = mt();
        for i in 0..8 {
            let profiles = profile(&t, PageSize::Small4K, Scope::Interval { index: i, of: 8 });
            let input = &profiles[0];
            if input.accesses > 0 {
                assert_eq!(input.rw_pattern(), Some(RwPattern::ReadOnly));
            }
            let output = &profiles[1];
            if output.accesses > 0 {
                assert_eq!(output.rw_pattern(), Some(RwPattern::WriteOnly));
            }
        }
    }

    #[test]
    fn st_buffers_are_shared_rw_mix_overall_but_clean_per_interval() {
        let t = generate(App::St, &WorkloadParams::small(App::St, 4));
        let whole = profile(&t, PageSize::Small4K, Scope::Whole);
        assert_eq!(whole[0].rw_pattern(), Some(RwPattern::RwMix));
        assert_eq!(whole[1].rw_pattern(), Some(RwPattern::RwMix));
        // Halo pages make the buffers shared.
        assert_eq!(whole[0].share_pattern(), Some(SharePattern::Shared));
    }

    #[test]
    fn c2d_intermediates_private_per_phase_shared_overall() {
        let t = generate(App::C2d, &WorkloadParams::small(App::C2d, 4));
        let whole = profile(&t, PageSize::Small4K, Scope::Whole);
        // Im2col_Output (obj 1): shared over the run...
        assert_eq!(whole[1].share_pattern(), Some(SharePattern::Shared));
        // ...but private within the im2col phase alone.
        let phase0 = profile(&t, PageSize::Small4K, Scope::Phase(0));
        assert_eq!(phase0[1].share_pattern(), Some(SharePattern::Private));
    }

    #[test]
    fn large_pages_increase_sharing() {
        // Fig. 20: 2 MB pages merge private 4 KB pages into shared ones.
        let t = generate(App::St, &WorkloadParams::small(App::St, 4));
        let (_, (private4k, _)) = page_type_mix(&t, PageSize::Small4K);
        let (_, (private2m, _)) = page_type_mix(&t, PageSize::Large2M);
        assert!(
            private2m <= private4k + 1e-9,
            "2MB private share {private2m} vs 4KB {private4k}"
        );
    }

    #[test]
    fn page_type_mix_fractions_sum_to_one() {
        let t = mt();
        let ((ro, wo, rw), (pr, sh)) = page_type_mix(&t, PageSize::Small4K);
        assert!((ro + wo + rw - 1.0).abs() < 1e-9);
        assert!((pr + sh - 1.0).abs() < 1e-9);
    }

    #[test]
    fn untouched_object_has_no_pattern() {
        let t = mt();
        let profiles = profile(&t, PageSize::Small4K, Scope::Whole);
        // MT_Params is allocated but never accessed by the generator.
        let params = &profiles[2];
        if params.accesses == 0 {
            assert_eq!(params.rw_pattern(), None);
            assert_eq!(params.share_pattern(), None);
            assert!(!params.page_stats.iter().any(PageStats::touched));
        }
    }
}
