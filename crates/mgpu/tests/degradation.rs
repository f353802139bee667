//! Graceful degradation under injected hardware faults: permanent NVLink
//! failures reroute over PCIe, ECC frame poisoning is re-serviced through
//! the driver's bounded-retry path, retry exhaustion is a typed error,
//! and every degraded run stays deterministic — including across a
//! kill/resume taken in the middle of a degraded window.

use oasis_engine::error::{ErrorPolicy, SimError};
use oasis_mgpu::{kill_and_resume, simulate, try_simulate, FaultPlan, Policy, SystemConfig};
use oasis_uvm::ECC_RETRY_BUDGET;
use oasis_workloads::{generate, App, WorkloadParams};

fn trace() -> oasis_workloads::Trace {
    // C2D is multi-phase (9 epochs) with neighbor halo exchange, so
    // link-down windows land mid-run and cross-GPU traffic is guaranteed.
    let mut params = WorkloadParams::small(App::C2d, 4);
    params.footprint_mb = 4;
    generate(App::C2d, &params)
}

fn degraded_config(spec: &str) -> SystemConfig {
    SystemConfig {
        fault_plan: FaultPlan::parse(spec).expect("valid fault plan"),
        ..SystemConfig::default()
    }
}

#[test]
fn link_down_run_completes_over_pcie_for_every_policy() {
    let trace = trace();
    for policy in Policy::core() {
        let cfg = degraded_config("seed:5,down:0-1@2");
        let r = simulate(&cfg, policy.clone(), &trace);
        assert_eq!(
            r.accesses as usize,
            trace.total_accesses(),
            "{}: degraded run must retire every access",
            policy.name()
        );
        assert_eq!(r.faults.link_faults, 1, "{}", policy.name());
        assert!(
            r.faults.reroutes > 0,
            "{}: traffic over the dead pair must take the PCIe fallback",
            policy.name()
        );
        assert_eq!(r.faults.rerouted_bytes > 0, r.faults.reroutes > 0);
        assert_eq!(r.errors_recorded, 0, "{}", policy.name());
    }
}

#[test]
fn degraded_runs_replay_digest_identical() {
    let trace = trace();
    let cfg = degraded_config("seed:9,down:0-1@2,flaky:2-3@1-6:1/4,ecc:0@3x2");
    let a = simulate(&cfg, Policy::oasis(), &trace);
    let b = simulate(&cfg, Policy::oasis(), &trace);
    assert_eq!(a.digest_trail, b.digest_trail);
    assert!(
        a.same_simulation(&b),
        "same plan + seed must replay exactly"
    );
    assert!(a.faults.link_faults > 0);
}

#[test]
fn kill_and_resume_mid_degradation_window_is_bit_identical() {
    // The link goes down at epoch 2 and the glitch window spans epochs
    // 1..6; the kill lands at epoch 4 — inside both — so the checkpoint
    // must carry the degraded link health, the fault RNG mid-stream, and
    // the recovery counters.
    let trace = trace();
    let spec = "seed:13,down:0-1@2,flaky:2-3@1-6:1/4,ecc:1@3x2";
    for policy in Policy::core() {
        let cfg = degraded_config(spec);
        let straight = simulate(&cfg, policy.clone(), &trace);
        let replayed = kill_and_resume(&cfg, &policy, &trace, 4)
            .expect("kill/resume leg runs degraded")
            .report;
        replayed
            .check_digests_against(&straight)
            .unwrap_or_else(|e| panic!("{}: {e}", policy.name()));
        assert!(
            replayed.same_simulation(&straight),
            "{}: kill/resume inside the degraded window diverged",
            policy.name()
        );
        assert_eq!(replayed.faults, straight.faults, "{}", policy.name());
    }
}

#[test]
fn ecc_poisoning_quarantines_and_reservices() {
    let trace = trace();
    let cfg = degraded_config("seed:3,ecc:0@2x3");
    let r = simulate(&cfg, Policy::oasis(), &trace);
    assert_eq!(r.accesses as usize, trace.total_accesses());
    assert!(
        r.uvm.ecc_quarantines > 0,
        "resident frames must be struck at epoch 2"
    );
    assert!(
        r.uvm.fault_retries > 0,
        "lost pages are re-serviced via replayed far faults"
    );
    assert_eq!(r.errors_recorded, 0);
}

#[test]
fn flaky_link_pays_crc_latency_but_completes() {
    let trace = trace();
    let clean = simulate(&SystemConfig::default(), Policy::AccessCounter, &trace);
    let cfg = degraded_config("seed:7,flaky:0-1@0-9:1/2");
    let flaky = simulate(&cfg, Policy::AccessCounter, &trace);
    assert_eq!(flaky.accesses, clean.accesses);
    assert!(
        flaky.faults.crc_retries > 0,
        "the window must tax transfers"
    );
    assert!(
        flaky.total_time > clean.total_time,
        "CRC retransmissions cost real latency ({} vs {})",
        flaky.total_time,
        clean.total_time
    );
}

#[test]
fn dead_links_demote_duplication_in_the_oasis_controller() {
    // With every NVLink pair down, any duplicate served from a GPU owner
    // crosses a dead link and the controller demotes the object's policy.
    let trace = trace();
    let cfg = SystemConfig {
        metrics: true,
        ..degraded_config(
            "seed:2,down:0-1@0,down:0-2@0,down:0-3@0,down:1-2@0,down:1-3@0,down:2-3@0",
        )
    };
    let r = simulate(&cfg, Policy::oasis(), &trace);
    assert_eq!(r.faults.link_faults, 6);
    assert!(
        r.metrics.counter("oasis.link_demotions") > 0,
        "duplication across dead links must be demoted"
    );
    assert_eq!(
        r.metrics.counter("uvm.link_demotions"),
        r.metrics.counter("oasis.link_demotions"),
        "driver notifications and controller demotions must agree"
    );
}

#[test]
fn retry_exhaustion_is_a_typed_error_never_a_panic() {
    // One frame per GPU: the ECC strike quarantines GPU 0's only frame,
    // so re-servicing can never find a destination and the bounded retry
    // loop must surface the typed exhaustion error (fail-fast aborts the
    // run with it; it is never a panic).
    let mut params = WorkloadParams::small(App::C2d, 4);
    params.footprint_mb = 2;
    let trace = generate(App::C2d, &params);
    let cfg = SystemConfig {
        gpu_capacity_pages: Some(1),
        ..degraded_config("seed:1,ecc:0@1x1")
    };
    let err = try_simulate(&cfg, Policy::OnTouch, &trace)
        .expect_err("a frame-starved GPU cannot absorb an ECC strike");
    match err.error {
        SimError::HardwareExhausted { gpu, retries, .. } => {
            assert_eq!(gpu, 0);
            assert_eq!(retries, ECC_RETRY_BUDGET);
        }
        other => panic!("expected HardwareExhausted, got {other}"),
    }
}

#[test]
fn record_and_continue_survives_retry_exhaustion() {
    let mut params = WorkloadParams::small(App::C2d, 4);
    params.footprint_mb = 2;
    let trace = generate(App::C2d, &params);
    let cfg = SystemConfig {
        gpu_capacity_pages: Some(1),
        error_policy: ErrorPolicy::RecordAndContinue,
        ..degraded_config("seed:1,ecc:0@1x1")
    };
    let r = try_simulate(&cfg, Policy::OnTouch, &trace).expect("lenient run limps through");
    assert!(r.errors_recorded > 0);
    assert!(
        r.error_samples.iter().any(|s| s.contains("unrecoverable")),
        "samples: {:?}",
        r.error_samples
    );
}
