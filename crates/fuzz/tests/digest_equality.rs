//! The per-epoch digest and the serialized-state digest it replaced must
//! induce the same equality classes: two states get equal
//! `System::digest`s exactly when they get equal
//! `System::snapshot_digest`s. Otherwise a replay or kill/resume oracle
//! could call diverged runs equal, or equal runs diverged.
//!
//! The states compared are every epoch boundary of every app under the
//! four core policies at a small footprint, of C2D under the two engines
//! with per-page or per-object state of their own (GRIT, OASIS-InMem), and
//! of the committed fuzz corpus repros; and a clean run against the same
//! run perturbed at an epoch boundary by fault injection's
//! counter-corruption and policy-flip hooks, where both digests must name
//! the same first divergent epoch.

use std::collections::HashMap;

use oasis_engine::{SimError, SimRng};
use oasis_fuzz::load_dir;
use oasis_mem::page::PolicyBits;
use oasis_mem::types::{GpuId, Vpn};
use oasis_mgpu::{Policy, RunReport, System, SystemConfig};
use oasis_uvm::driver::UvmDriver;
use oasis_workloads::{generate, App, Trace, WorkloadParams, ALL_APPS};

/// A run's report plus its trail of snapshot digests.
struct Trails {
    report: RunReport,
    snapshot_trail: Vec<u64>,
}

impl Trails {
    /// The report with its digest trail swapped for the snapshot trail.
    fn legacy_report(&self) -> RunReport {
        RunReport {
            digest_trail: self.snapshot_trail.clone(),
            ..self.report.clone()
        }
    }
}

/// Runs `trace` one epoch at a time, taking both digests at every epoch
/// boundary and checking the running digest against its reference.
fn run_with_trails(sys: &mut System, trace: &Trace) -> Trails {
    let mut snapshot_trail = Vec::new();
    for epoch in 1..=trace.phases.len() as u64 {
        sys.run_prefix(trace, epoch).expect("epoch runs");
        assert_eq!(sys.reference_digest(), sys.digest(), "epoch {epoch}");
        snapshot_trail.push(sys.snapshot_digest());
    }
    let report = sys.run(trace).expect("run completes");
    Trails {
        report,
        snapshot_trail,
    }
}

/// Records digest pairs and fails on the first one that breaks the
/// one-to-one relation.
#[derive(Default)]
struct Relation {
    old_to_new: HashMap<u64, u64>,
    new_to_old: HashMap<u64, u64>,
}

impl Relation {
    fn record(&mut self, what: &str, trails: &Trails) {
        let pairs = trails
            .snapshot_trail
            .iter()
            .zip(&trails.report.digest_trail);
        for (epoch, (&old, &new)) in pairs.enumerate() {
            let seen_new = *self.old_to_new.entry(old).or_insert(new);
            assert_eq!(
                seen_new, new,
                "{what} epoch {epoch}: one old digest, two new"
            );
            let seen_old = *self.new_to_old.entry(new).or_insert(old);
            assert_eq!(
                seen_old, old,
                "{what} epoch {epoch}: one new digest, two old"
            );
        }
    }
}

#[test]
fn both_digests_induce_the_same_equality_classes() {
    let mut relation = Relation::default();
    for app in ALL_APPS {
        let params = WorkloadParams {
            footprint_mb: 1,
            ..WorkloadParams::small(app, 4)
        };
        let trace = generate(app, &params);
        for policy in Policy::core() {
            let mut sys = System::new(SystemConfig::default(), &policy);
            let trails = run_with_trails(&mut sys, &trace);
            relation.record(&format!("{app}/{}", policy.name()), &trails);
        }
    }
    // GRIT overrides the policy digest hook; OASIS-InMem hashes its
    // snapshot, which sorts its ranges and warm sets.
    let trace = generate(App::C2d, &WorkloadParams::small(App::C2d, 4));
    for policy in [Policy::grit(), Policy::oasis_inmem()] {
        let mut sys = System::new(SystemConfig::default(), &policy);
        let trails = run_with_trails(&mut sys, &trace);
        relation.record(&format!("C2D/{}", policy.name()), &trails);
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
    let corpus = load_dir(&dir).expect("corpus directory is readable");
    assert!(!corpus.is_empty(), "the corpus holds the seed scenarios");
    for entry in &corpus.entries {
        let trace = entry.scenario.trace();
        for policy in Policy::core() {
            let mut sys = System::new(entry.scenario.config(), &policy);
            let trails = run_with_trails(&mut sys, &trace);
            let what = format!("{}/{}", entry.path.display(), policy.name());
            relation.record(&what, &trails);
        }
    }
    // Distinct states really were compared, not a handful of repeats.
    assert!(
        relation.old_to_new.len() > 1000,
        "{}",
        relation.old_to_new.len()
    );
}

/// The first epoch at which `run` diverges from `clean`.
fn divergence(run: &RunReport, clean: &RunReport) -> Option<u64> {
    match run.check_digests_against(clean) {
        Ok(()) => None,
        Err(SimError::Divergence { epoch, .. }) => Some(epoch),
        Err(e) => panic!("unexpected error {e}"),
    }
}

/// A perturbation applied at every epoch boundary from `FROM` on.
type Hook = fn(&mut SimRng, &[Vpn], &mut UvmDriver);

const FROM: u64 = 3;

fn corrupt_counters(rng: &mut SimRng, pages: &[Vpn], driver: &mut UvmDriver) {
    for _ in 0..8 {
        let vpn = pages[rng.gen_below(pages.len())];
        let gpu = GpuId(rng.gen_range(0..4) as u8);
        driver.poke_counter(gpu, vpn, rng.gen_range(0..u64::from(u32::MAX)) as u32);
    }
}

/// Corrupts counters of a group past the end of the trace's pages, which
/// no access ever reaches: only the counter map records the change, so
/// only a digest that covers it can see the divergence.
fn corrupt_idle_counters(rng: &mut SimRng, pages: &[Vpn], driver: &mut UvmDriver) {
    let idle = Vpn(pages.iter().map(|v| v.0).max().expect("pages") + 4096);
    let gpu = GpuId(rng.gen_range(0..4) as u8);
    driver.poke_counter(gpu, idle, rng.gen_range(1..1000) as u32);
}

fn flip_policies(rng: &mut SimRng, pages: &[Vpn], driver: &mut UvmDriver) {
    for _ in 0..8 {
        let vpn = pages[rng.gen_below(pages.len())];
        let bits = match rng.gen_range(0..3) {
            0 => PolicyBits::OnTouch,
            1 => PolicyBits::AccessCounter,
            _ => PolicyBits::Duplication,
        };
        driver.set_page_policy(vpn, bits).expect("registered page");
    }
}

#[test]
fn both_digests_name_the_same_first_divergent_epoch() {
    let app = App::C2d;
    let trace = generate(app, &WorkloadParams::small(app, 4));
    let cases: [(Policy, Hook); 4] = [
        (Policy::AccessCounter, corrupt_counters),
        (Policy::OnTouch, corrupt_idle_counters),
        (Policy::oasis(), flip_policies),
        (Policy::grit(), flip_policies),
    ];
    for (policy, hook) in cases {
        let clean = run_with_trails(&mut System::new(SystemConfig::default(), &policy), &trace);
        let mut sys = System::new(SystemConfig::default(), &policy);
        sys.run_prefix(&trace, 0).expect("trace loads");
        let pages: Vec<Vpn> = sys
            .driver()
            .state
            .host_table
            .iter()
            .map(|(v, _)| *v)
            .collect();
        let mut rng = SimRng::seed_from_u64(0x00D1_6E57);
        sys.set_epoch_hook(move |epoch, driver| {
            if epoch >= FROM {
                hook(&mut rng, &pages, driver);
            }
        });
        let perturbed = run_with_trails(&mut sys, &trace);
        let new = divergence(&perturbed.report, &clean.report);
        let old = divergence(&perturbed.legacy_report(), &clean.legacy_report());
        assert_eq!(new, old, "{}", policy.name());
        assert_eq!(new, Some(FROM), "{}", policy.name());
    }
}
