//! Cross-layer observability guarantees: tracing/metrics must never
//! perturb the simulation, and traces must be deterministic artifacts.

use oasis_engine::chrome_trace_json;
use oasis_mgpu::{simulate, Policy, SystemConfig};
use oasis_workloads::{generate, App, WorkloadParams};

fn trace_with_seed(app: App, seed: u64) -> oasis_workloads::Trace {
    let mut params = WorkloadParams::small(app, 4);
    params.seed = seed;
    generate(app, &params)
}

fn observed_config() -> SystemConfig {
    SystemConfig {
        trace_capacity: 1 << 16,
        metrics: true,
        ..SystemConfig::default()
    }
}

#[test]
fn same_seed_runs_produce_byte_identical_chrome_traces() {
    let trace = trace_with_seed(App::C2d, 7);
    let cfg = observed_config();
    let a = simulate(&cfg, Policy::oasis(), &trace);
    let b = simulate(&cfg, Policy::oasis(), &trace);
    let ja = chrome_trace_json(&a.trace_events);
    let jb = chrome_trace_json(&b.trace_events);
    assert!(!a.trace_events.is_empty(), "an observed run records events");
    assert_eq!(ja, jb, "same seed must give a byte-identical trace");
    assert!(ja.starts_with("[\n"), "chrome trace is a JSON array");
    assert!(ja.ends_with("\n]\n"));
}

#[test]
fn different_seeds_produce_different_traces() {
    // BFS is a random-pattern app, so its trace actually varies by seed
    // (the stencil apps are seed-independent by construction).
    let cfg = observed_config();
    let a = simulate(&cfg, Policy::oasis(), &trace_with_seed(App::Bfs, 7));
    let b = simulate(&cfg, Policy::oasis(), &trace_with_seed(App::Bfs, 8));
    assert_ne!(
        chrome_trace_json(&a.trace_events),
        chrome_trace_json(&b.trace_events),
        "different seeds must not collide"
    );
}

#[test]
fn observability_never_perturbs_the_simulation() {
    // The core non-interference invariant: a fully observed run is
    // bit-identical (digest trail, every counter) to a dark one.
    let trace = trace_with_seed(App::Mm, 3);
    let dark = simulate(&SystemConfig::default(), Policy::oasis(), &trace);
    let observed = simulate(&observed_config(), Policy::oasis(), &trace);
    assert_eq!(dark.digest_trail, observed.digest_trail);
    assert!(
        dark.same_simulation(&observed),
        "tracing/metrics changed simulated behavior"
    );
    assert!(dark.trace_events.is_empty(), "dark run records nothing");
    assert_eq!(dark.metrics.counters().count(), 0);
}

#[test]
fn epoch_rollups_cover_the_whole_run() {
    let trace = trace_with_seed(App::C2d, 5);
    let r = simulate(&observed_config(), Policy::oasis(), &trace);
    assert_eq!(r.epoch_rollups.len(), trace.phases.len());
    let accesses: u64 = r.epoch_rollups.iter().map(|e| e.accesses).sum();
    assert_eq!(accesses, r.accesses, "rollup deltas must sum to the totals");
    let faults: u64 = r.epoch_rollups.iter().map(|e| e.uvm.total_faults()).sum();
    assert_eq!(faults, r.uvm.total_faults());
    let sim: u64 = r.epoch_rollups.iter().map(|e| e.sim_time.as_ps()).sum();
    assert_eq!(sim, r.total_time.as_ps(), "epoch times partition the run");
    for (i, e) in r.epoch_rollups.iter().enumerate() {
        assert_eq!(e.epoch, i as u64);
    }
}

#[test]
fn metrics_registry_carries_fault_attribution_and_rollups() {
    let trace = trace_with_seed(App::Mm, 11);
    let r = simulate(&observed_config(), Policy::oasis(), &trace);
    let m = &r.metrics;
    // Phase attribution: every far fault lands one service-time sample.
    let service = m.histogram("uvm.fault.service_ns").expect("service hist");
    assert_eq!(service.count(), r.uvm.total_faults());
    assert!(service.sum_ns() > 0);
    // Access-path counters agree with the report's own totals.
    assert_eq!(m.counter("access.local"), r.local_accesses);
    assert_eq!(m.counter("access.remote"), r.remote_accesses);
    assert_eq!(m.counter("uvm.fault.far"), r.uvm.far_faults);
    // Report-time rollups: fabric links and policy internals are present.
    assert!(m.counter("fabric.nvlink0.bytes") > 0);
    assert!(
        m.counters().any(|(k, _)| k.starts_with("otable.")),
        "OASIS publishes O-Table counters"
    );
    // TLB walks were observed for every L2 miss.
    let walks = m.histogram("tlb.walk_ns").expect("walk hist");
    assert_eq!(walks.count(), r.l2_tlb.1);
}

#[test]
fn verify_replay_holds_with_tracing_enabled() {
    // Kill/resume under full observability: the resumed run must match
    // the straight run exactly (obs state is rebuilt from config, not
    // restored, and must not leak into checkpoints).
    let trace = trace_with_seed(App::C2d, 2);
    let cfg = observed_config();
    let straight = simulate(&cfg, Policy::oasis(), &trace);
    let replayed = oasis_mgpu::kill_and_resume(&cfg, &Policy::oasis(), &trace, 4)
        .expect("kill/resume leg")
        .report;
    assert!(replayed.same_simulation(&straight));
    // Rollups restart at the resume point: only post-checkpoint epochs.
    assert_eq!(
        replayed.epoch_rollups.len(),
        trace.phases.len() - 4,
        "a resumed run only rolls up what it executed"
    );
}
