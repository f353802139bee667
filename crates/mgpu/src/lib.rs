//! Multi-GPU system assembly and simulation driver.
//!
//! This crate plays MGPUSim's "platform" role: it builds the simulated
//! system of Table I — GPUs with L1/L2 TLBs, an L2 cache and local DRAM,
//! an NVLink/PCIe fabric, and the UVM driver with a chosen page-management
//! policy — then drives a workload [`Trace`](oasis_workloads::Trace)
//! through it with bounded per-GPU concurrency and reports simulated time
//! plus every counter the paper's figures need.
//!
//! ```
//! use oasis_mgpu::{Policy, SystemConfig};
//! use oasis_workloads::{generate, App, WorkloadParams};
//!
//! let trace = generate(App::Mt, &WorkloadParams::small(App::Mt, 4));
//! let report = oasis_mgpu::simulate(&SystemConfig::default(), Policy::OnTouch, &trace);
//! assert!(report.total_time.as_us() > 0.0);
//! ```

pub mod characterize;
pub mod config;
pub mod gpu;
pub mod inject;
pub mod replay;
pub mod report;
pub mod system;

pub use config::{GuardMode, Placement, Policy, SystemConfig};
pub use inject::{
    run_campaign, run_campaign_supervised, CampaignReport, InjectionOutcome, Perturbation,
};
pub use oasis_interconnect::{FaultCounters, FaultPlan};
pub use replay::{kill_and_resume, run_verify_replay, ReplayAudit, ResumeError, Resumed};
pub use report::{EpochRollup, RunInstrumentation, RunReport};
pub use system::{simulate, try_simulate, RunError, System};
