//! The traced pass: one cell stepped epoch by epoch through the public
//! `System` API, with a span around every call, followed by replays of the
//! cell's own access and fault streams through each lower layer's public
//! API. Every span name is `<layer>.<call>`; [`LayerTotals`] sums what the
//! per-layer metrics need.

use std::hint::black_box;
use std::path::Path;

use oasis_core::OTable;
use oasis_engine::journal::{AdjudicatedOutcome, JournalWriter};
use oasis_engine::{fnv1a, Duration, EventQueue, Time};
use oasis_interconnect::Fabric;
use oasis_mem::{
    AddressSpace, Cache, DeviceId, FrameAllocator, GpuId, LocalPageTable, ObjectId, PolicyBits,
    Pte, Tlb,
};
use oasis_mgpu::{Policy, RunReport, System, SystemConfig};
use oasis_serve::{CacheRead, CachedResult, ResultCache};
use oasis_uvm::fault::PageFault;
use oasis_uvm::UvmDriver;
use oasis_workloads::{CompiledAccess, CompiledTrace, Trace};

use crate::spans::Spans;

/// The span of the benchmark's own `System::digest()` call at each epoch
/// boundary. `System::run_prefix` already digests inside `mgpu.epoch`, so
/// this second digest belongs to no layer: it is kept out of every
/// `<layer>.self_ms` and out of the pass time behind
/// `bench.unattributed_share`.
pub const DIGEST_PROBE: &str = "probe.digest";

/// Sums over the cells of one traced pass.
#[derive(Debug, Default, Clone)]
pub struct LayerTotals {
    pub accesses: u64,
    pub retired_steps: u64,
    pub epochs: u64,
    pub l1_tlb: (u64, u64),
    pub l2_tlb: (u64, u64),
    pub l2_cache: (u64, u64),
    pub faults: u64,
    pub migrations: u64,
    pub duplications: u64,
    pub evictions: u64,
    pub nvlink_bytes: u64,
    pub pcie_bytes: u64,
    pub checkpoint_bytes: u64,
    /// Operation counts of the replays, the bases of the ns-per-op metrics.
    pub tlb_ops: u64,
    pub cache_ops: u64,
    pub pt_gets: u64,
    pub frame_ops: u64,
    pub replayed_faults: u64,
    pub otable_lookups: u64,
    pub transfers: u64,
    pub queue_ops: u64,
    pub journal_pairs: u64,
    pub cache_entries: u64,
}

impl LayerTotals {
    fn add_report(&mut self, r: &RunReport) {
        self.accesses += r.accesses;
        self.retired_steps += r.instrumentation.retired_steps;
        self.epochs += r.phases as u64;
        add2(&mut self.l1_tlb, r.l1_tlb);
        add2(&mut self.l2_tlb, r.l2_tlb);
        add2(&mut self.l2_cache, r.l2_cache);
        self.faults += r.uvm.far_faults + r.uvm.protection_faults;
        self.migrations += r.uvm.migrations + r.uvm.counter_migrations;
        self.duplications += r.uvm.duplications;
        self.evictions += r.uvm.evictions;
        self.nvlink_bytes += r.nvlink_bytes;
        self.pcie_bytes += r.pcie_bytes;
    }
}

fn add2(acc: &mut (u64, u64), x: (u64, u64)) {
    acc.0 += x.0;
    acc.1 += x.1;
}

/// Steps one cell through `System` with a span around each public call,
/// then probes the finished system and replays its streams. Returns the
/// final report, which must match an untraced run of the same cell.
pub fn probe_cell(
    sp: &mut Spans,
    totals: &mut LayerTotals,
    generate: impl FnOnce() -> Trace,
    config: &SystemConfig,
    policy: &Policy,
) -> Result<RunReport, String> {
    let cell = sp.enter("bench.cell");
    let trace = sp.time("workloads.generate", generate);
    let id = sp.enter("mgpu.load_compile");
    let mut sys = System::new(config.clone(), policy);
    let loaded = sys.run_prefix(&trace, 0);
    sp.exit(id);
    loaded.map_err(|e| format!("load: {e}"))?;
    for epoch in 1..=trace.phases.len() as u64 {
        sp.time("mgpu.epoch", || sys.run_prefix(&trace, epoch))
            .map_err(|e| format!("epoch {epoch}: {e}"))?;
        // The same call the simulator makes at this boundary, timed here.
        sp.time(DIGEST_PROBE, || black_box(sys.digest()));
    }
    let report = sp
        .time("mgpu.report", || sys.run(&trace))
        .map_err(|e| format!("report: {e}"))?;
    sp.exit(cell);

    sp.time("mgpu.guard", || sys.validate())
        .map_err(|e| format!("guard: {e}"))?;
    let mut bytes = Vec::new();
    sp.time("engine.checkpoint_encode", || sys.checkpoint(&mut bytes))
        .map_err(|e| format!("checkpoint: {e}"))?;
    let resumed = sp
        .time("engine.checkpoint_decode", || {
            System::resume(&mut bytes.as_slice(), &trace)
        })
        .map_err(|e| format!("resume: {e}"))?;
    if resumed.next_epoch() != sys.next_epoch() {
        return Err("resumed system is at a different epoch".to_string());
    }
    sp.time("engine.fnv1a", || black_box(fnv1a(&bytes)));
    totals.checkpoint_bytes += bytes.len() as u64;
    drop(resumed);

    let stream = compiled_stream(sp, &sys, &trace, policy);
    replay_mem(sp, totals, &stream, config);
    replay_faults(sp, totals, &stream, &trace, config, policy)?;
    replay_queue(sp, totals, report.accesses, config);
    totals.add_report(&report);
    Ok(report)
}

/// The cell's accesses, compiled against the system's own object binding
/// and flattened phase by phase, GPU by GPU: `(gpu, access)`.
fn compiled_stream(
    sp: &mut Spans,
    sys: &System,
    trace: &Trace,
    policy: &Policy,
) -> Vec<(u8, CompiledAccess)> {
    let tracker = policy.tracker();
    let objects = sys.address_space().objects();
    let bases: Vec<_> = objects.iter().map(|o| tracker.tag(o.id, o.base)).collect();
    let sizes: Vec<u64> = objects.iter().map(|o| o.size).collect();
    let page = sys.config().page_size;
    let compiled = sp.time("workloads.compile", || {
        CompiledTrace::compile(trace, &bases, &sizes, page)
    });
    let mut out = Vec::new();
    for phase in &compiled.phases {
        for (g, s) in phase.per_gpu.iter().enumerate() {
            out.extend(s.iter().filter(|a| a.valid).map(|a| (g as u8, *a)));
        }
    }
    out
}

/// TLB, L2 cache, page table, and frame allocator at Table I geometry.
fn replay_mem(
    sp: &mut Spans,
    totals: &mut LayerTotals,
    stream: &[(u8, CompiledAccess)],
    config: &SystemConfig,
) {
    let gpus = config.gpu_count;
    let mut l1: Vec<Tlb> = (0..gpus)
        .map(|_| Tlb::new(config.l1_tlb.0, config.l1_tlb.1))
        .collect();
    let mut l2: Vec<Tlb> = (0..gpus)
        .map(|_| Tlb::new(config.l2_tlb.0, config.l2_tlb.1))
        .collect();
    sp.time("mem.tlb", || {
        for &(g, a) in stream {
            let g = g as usize;
            if !l1[g].access(a.vpn) {
                if !l2[g].access(a.vpn) {
                    l2[g].fill(a.vpn);
                }
                l1[g].fill(a.vpn);
            }
        }
    });
    totals.tlb_ops += stream.len() as u64;

    let (bytes, ways, line) = config.l2_cache;
    let mut caches: Vec<Cache> = (0..gpus).map(|_| Cache::new(bytes, ways, line)).collect();
    sp.time("mem.cache", || {
        for &(g, a) in stream {
            black_box(caches[g as usize].access(a.va));
        }
    });
    totals.cache_ops += stream.len() as u64;

    let mut tables: Vec<LocalPageTable> = (0..gpus).map(|_| LocalPageTable::new()).collect();
    sp.time("mem.page_table_insert", || {
        for &(g, a) in stream {
            tables[g as usize].insert(
                a.vpn,
                Pte {
                    location: DeviceId::Gpu(GpuId(g)),
                    writable: true,
                    policy: PolicyBits::OnTouch,
                },
            );
        }
    });
    sp.time("mem.page_table", || {
        for &(g, a) in stream {
            black_box(tables[g as usize].get(a.vpn));
        }
    });
    totals.pt_gets += stream.len() as u64;

    let mut frames: Vec<FrameAllocator> = (0..gpus)
        .map(|_| FrameAllocator::new(config.gpu_capacity_pages))
        .collect();
    sp.time("mem.frames", || {
        for &(g, a) in stream {
            let f = &mut frames[g as usize];
            if f.contains(a.vpn) {
                f.touch(a.vpn);
            } else {
                black_box(f.insert(a.vpn));
            }
        }
    });
    totals.frame_ops += stream.len() as u64;
}

/// First-touch far faults of the stream, replayed through a fresh UVM
/// driver and fabric; their object ids through an O-Table; and one page
/// transfer per fault from the page's last owner.
fn replay_faults(
    sp: &mut Spans,
    totals: &mut LayerTotals,
    stream: &[(u8, CompiledAccess)],
    trace: &Trace,
    config: &SystemConfig,
    policy: &Policy,
) -> Result<(), String> {
    let mut seen = std::collections::HashSet::new();
    let faults: Vec<(PageFault, ObjectId)> = stream
        .iter()
        .filter(|(g, a)| seen.insert((*g, a.vpn)))
        .map(|&(g, a)| (PageFault::far(GpuId(g), a.va, a.vpn, a.kind), a.obj))
        .collect();

    let mut driver = UvmDriver::new(
        config.gpu_count,
        config.page_size,
        config.gpu_capacity_pages,
        policy.build(),
        config.uvm_costs,
        config.counter_threshold,
    );
    driver.counter_weight = config.counter_weight;
    let mut space = AddressSpace::new();
    sp.time("uvm.alloc_object", || {
        for obj in &trace.objects {
            let id = space.alloc(obj.name.clone(), obj.bytes);
            driver.alloc_object(id, space.object(id).base, obj.bytes, |_| DeviceId::Host)?;
        }
        Ok::<(), oasis_engine::SimError>(())
    })
    .map_err(|e| format!("fault replay alloc: {e}"))?;
    let mut fabric = Fabric::with_plan(config.gpu_count, config.fabric, config.fault_plan.clone());
    let mut errors = 0u64;
    sp.time("uvm.handle_fault", || {
        let mut now = Time::ZERO;
        for (f, _) in &faults {
            match driver.handle_fault(now, f, &mut fabric) {
                Ok(out) => now += out.latency,
                Err(_) => errors += 1,
            }
        }
    });
    if errors > 0 {
        return Err(format!("{errors} replayed first-touch fault(s) failed"));
    }
    totals.replayed_faults += faults.len() as u64;

    let mut otable = OTable::new();
    sp.time("core.otable_lookup", || {
        for (_, obj) in &faults {
            black_box(otable.lookup_or_insert(obj.0));
        }
    });
    totals.otable_lookups += faults.len() as u64;

    let mut fabric = Fabric::with_plan(config.gpu_count, config.fabric, config.fault_plan.clone());
    let page_bytes = config.page_size.bytes();
    let mut owner = std::collections::HashMap::new();
    sp.time("interconnect.transfer", || {
        let mut now = Time::ZERO;
        for (f, _) in &faults {
            let to = DeviceId::Gpu(f.gpu);
            let from = owner.insert(f.vpn, to).unwrap_or(DeviceId::Host);
            let t = fabric.transfer(now, from, to, page_bytes);
            now = t.start.max(now) + Duration::from_ns(100);
        }
    });
    totals.transfers += faults.len() as u64;
    Ok(())
}

/// Push+pop pairs on an event queue held at lanes x GPUs occupancy, one
/// pair per retired access of the cell.
fn replay_queue(sp: &mut Spans, totals: &mut LayerTotals, ops: u64, config: &SystemConfig) {
    let mut q: EventQueue<usize> = EventQueue::new();
    let occupancy = (config.lanes_per_gpu * config.gpu_count) as u64;
    for i in 0..occupancy {
        q.push(Time::from_ps(i * 997), i as usize);
    }
    sp.time("engine.queue", || {
        for i in 0..ops {
            let ev = q.pop().expect("queue holds lanes x GPUs events");
            q.push(
                ev.time + Duration::from_ps(1_000 + (i % 7) * 131),
                ev.payload,
            );
        }
    });
    totals.queue_ops += ops;
}

/// Journal appends (enqueued + adjudicated, as the server makes per job)
/// and result-cache writes and reads, on fresh files under `dir`.
pub fn probe_persistence(
    sp: &mut Spans,
    totals: &mut LayerTotals,
    dir: &Path,
) -> Result<(), String> {
    const PAIRS: u64 = 16;
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut journal = JournalWriter::create(&dir.join("probe.jnl"), 0x5EED, "perfbench")
        .map_err(|e| format!("journal create: {e}"))?;
    let payload = vec![b'x'; 512];
    for job in 0..PAIRS {
        let id = sp.enter("engine.journal_append");
        let r = journal
            .enqueued(job, &payload)
            .and_then(|()| journal.adjudicated(job, AdjudicatedOutcome::Completed, 1, b"clean"));
        sp.exit(id);
        r.map_err(|e| format!("journal append: {e}"))?;
    }
    totals.journal_pairs += PAIRS;

    let cache = ResultCache::open(&dir.join("cache"))?;
    let entry = CachedResult {
        outcome: AdjudicatedOutcome::Completed,
        attempts: 1,
        verdict: "clean".to_string(),
    };
    for digest in 0..PAIRS {
        sp.time("serve.cache_write", || cache.write(digest, &entry))?;
    }
    for digest in 0..PAIRS {
        let read = sp.time("serve.cache_read", || cache.read(digest));
        if !matches!(read, CacheRead::Hit(ref c) if c.verdict == entry.verdict) {
            return Err(format!("cache entry {digest} did not read back"));
        }
    }
    totals.cache_entries += PAIRS;
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}

/// Every per-layer metric, in report order: (name, unit).
pub const PER_LAYER: [(&str, &str); 53] = [
    ("workloads.generate_ms", "ms"),
    ("workloads.accesses", "count"),
    ("workloads.self_ms", "ms"),
    ("mgpu.load_compile_ms", "ms"),
    ("mgpu.epochs", "count"),
    ("mgpu.epoch_ms", "ms"),
    ("mgpu.digest_ms", "ms"),
    ("mgpu.digest_share", "ratio"),
    ("mgpu.ns_per_step", "ns"),
    ("mgpu.guard_ms", "ms"),
    ("mgpu.report_ms", "ms"),
    ("mgpu.self_ms", "ms"),
    ("engine.checkpoint_encode_ms", "ms"),
    ("engine.checkpoint_kb", "KiB"),
    ("engine.checkpoint_decode_ms", "ms"),
    ("engine.fnv1a_ms", "ms"),
    ("engine.queue_ns_per_op", "ns"),
    ("engine.journal_append_us", "us"),
    ("engine.self_ms", "ms"),
    ("mem.tlb_ns_per_access", "ns"),
    ("mem.cache_ns_per_access", "ns"),
    ("mem.page_table_ns_per_get", "ns"),
    ("mem.frames_ns_per_op", "ns"),
    ("mem.l1_tlb_hit_ratio", "ratio"),
    ("mem.l2_tlb_hit_ratio", "ratio"),
    ("mem.l2_cache_hit_ratio", "ratio"),
    ("mem.self_ms", "ms"),
    ("uvm.fault_ns", "ns"),
    ("uvm.faults", "count"),
    ("uvm.migrations", "count"),
    ("uvm.duplications", "count"),
    ("uvm.evictions", "count"),
    ("uvm.faults_per_kstep", "1/kstep"),
    ("uvm.self_ms", "ms"),
    ("core.otable_ns_per_lookup", "ns"),
    ("core.self_ms", "ms"),
    ("interconnect.transfer_ns", "ns"),
    ("interconnect.nvlink_mb", "MiB"),
    ("interconnect.pcie_mb", "MiB"),
    ("interconnect.self_ms", "ms"),
    ("fuzz.oracle_ms", "ms"),
    ("fuzz.self_ms", "ms"),
    ("serve.hit_rtt_ms", "ms"),
    ("serve.miss_rtt_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.cache_hits", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_read_us", "us"),
    ("serve.cache_write_us", "us"),
    ("serve.rejected", "count"),
    ("serve.self_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
    ("bench.unattributed_share", "ratio"),
];

/// The layers whose self time is reported (`<layer>.self_ms`).
pub const LAYERS: [&str; 9] = [
    "workloads",
    "mgpu",
    "engine",
    "mem",
    "uvm",
    "core",
    "interconnect",
    "fuzz",
    "serve",
];

/// Per-layer values of one traced pass whose spans start at `mark`.
/// Metrics the pass did not exercise are absent (reported as 0).
pub fn pass_values(
    sp: &Spans,
    mark: usize,
    t: &LayerTotals,
) -> std::collections::BTreeMap<&'static str, f64> {
    let ms = |name: &str| sp.total_ms(mark, name);
    let per = |total_ms: f64, n: u64, scale: f64| {
        if n == 0 {
            0.0
        } else {
            total_ms * scale / n as f64
        }
    };
    let ratio = |(h, m): (u64, u64)| {
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    };
    let run_ms = ms("mgpu.load_compile") + ms("mgpu.epoch") + ms("mgpu.report");
    let digest_ms = ms(DIGEST_PROBE);
    let mut v = std::collections::BTreeMap::new();
    v.insert("workloads.generate_ms", ms("workloads.generate"));
    v.insert("workloads.accesses", t.accesses as f64);
    v.insert("mgpu.load_compile_ms", ms("mgpu.load_compile"));
    v.insert("mgpu.epochs", t.epochs as f64);
    v.insert("mgpu.epoch_ms", per(ms("mgpu.epoch"), t.epochs, 1.0));
    v.insert("mgpu.digest_ms", digest_ms);
    v.insert(
        "mgpu.digest_share",
        if run_ms > 0.0 {
            digest_ms / run_ms
        } else {
            0.0
        },
    );
    v.insert(
        "mgpu.ns_per_step",
        per(ms("mgpu.epoch") - digest_ms, t.retired_steps, 1e6),
    );
    v.insert("mgpu.guard_ms", ms("mgpu.guard"));
    v.insert("mgpu.report_ms", ms("mgpu.report"));
    v.insert(
        "engine.checkpoint_encode_ms",
        ms("engine.checkpoint_encode"),
    );
    v.insert("engine.checkpoint_kb", t.checkpoint_bytes as f64 / 1024.0);
    v.insert(
        "engine.checkpoint_decode_ms",
        ms("engine.checkpoint_decode"),
    );
    v.insert("engine.fnv1a_ms", ms("engine.fnv1a"));
    v.insert(
        "engine.queue_ns_per_op",
        per(ms("engine.queue"), t.queue_ops, 1e6),
    );
    v.insert(
        "engine.journal_append_us",
        per(ms("engine.journal_append"), t.journal_pairs, 1e3),
    );
    v.insert("mem.tlb_ns_per_access", per(ms("mem.tlb"), t.tlb_ops, 1e6));
    v.insert(
        "mem.cache_ns_per_access",
        per(ms("mem.cache"), t.cache_ops, 1e6),
    );
    v.insert(
        "mem.page_table_ns_per_get",
        per(ms("mem.page_table"), t.pt_gets, 1e6),
    );
    v.insert(
        "mem.frames_ns_per_op",
        per(ms("mem.frames"), t.frame_ops, 1e6),
    );
    v.insert("mem.l1_tlb_hit_ratio", ratio(t.l1_tlb));
    v.insert("mem.l2_tlb_hit_ratio", ratio(t.l2_tlb));
    v.insert("mem.l2_cache_hit_ratio", ratio(t.l2_cache));
    v.insert(
        "uvm.fault_ns",
        per(ms("uvm.handle_fault"), t.replayed_faults, 1e6),
    );
    v.insert("uvm.faults", t.faults as f64);
    v.insert("uvm.migrations", t.migrations as f64);
    v.insert("uvm.duplications", t.duplications as f64);
    v.insert("uvm.evictions", t.evictions as f64);
    v.insert(
        "uvm.faults_per_kstep",
        per(t.faults as f64, t.retired_steps, 1e3),
    );
    v.insert(
        "core.otable_ns_per_lookup",
        per(ms("core.otable_lookup"), t.otable_lookups, 1e6),
    );
    v.insert(
        "interconnect.transfer_ns",
        per(ms("interconnect.transfer"), t.transfers, 1e6),
    );
    v.insert(
        "interconnect.nvlink_mb",
        t.nvlink_bytes as f64 / (1u64 << 20) as f64,
    );
    v.insert(
        "interconnect.pcie_mb",
        t.pcie_bytes as f64 / (1u64 << 20) as f64,
    );
    v.insert(
        "serve.cache_read_us",
        per(ms("serve.cache_read"), t.cache_entries, 1e3),
    );
    v.insert(
        "serve.cache_write_us",
        per(ms("serve.cache_write"), t.cache_entries, 1e3),
    );
    let by_layer = sp.self_ms_by_layer(mark);
    for layer in LAYERS {
        let key: &'static str = match layer {
            "workloads" => "workloads.self_ms",
            "mgpu" => "mgpu.self_ms",
            "engine" => "engine.self_ms",
            "mem" => "mem.self_ms",
            "uvm" => "uvm.self_ms",
            "core" => "core.self_ms",
            "interconnect" => "interconnect.self_ms",
            "fuzz" => "fuzz.self_ms",
            _ => "serve.self_ms",
        };
        v.insert(key, by_layer.get(layer).copied().unwrap_or(0.0));
    }
    let pass_ms = ms("bench.pass") - digest_ms;
    let bench_self = by_layer.get("bench").copied().unwrap_or(0.0);
    v.insert(
        "bench.unattributed_share",
        if pass_ms > 0.0 {
            bench_self / pass_ms
        } else {
            0.0
        },
    );
    v
}
