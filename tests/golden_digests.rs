//! Pinned golden digest trails: the bit-identity contract for simulation
//! semantics, across versions.
//!
//! Each trail is the per-epoch [`System::snapshot_digest`], FNV-1a over the
//! full serialized state (tracker, fabric, fault state, TLBs, caches, DRAM
//! channels, driver tables, policy state), collected by stepping the run
//! one epoch at a time. The trails below were captured before the
//! pre-resolved access pipeline landed and are asserted byte-for-byte
//! since; `ci_fixture_runs_keep_their_legacy_trails` pins what the CI
//! golden fixtures held before the run's own digest changed format, and
//! the last two tests pin every app's final state at both page sizes. Any
//! change to simulation semantics (an extra fault, a different eviction
//! victim, a reordered shootdown) shows up here by name. Performance work
//! must keep every one green.

use oasis::mgpu::{Policy, System, SystemConfig};
use oasis::workloads::{generate, App, Trace, WorkloadParams, ALL_APPS};

/// The snapshot digest after each epoch of `trace`.
fn snapshot_trail(trace: &Trace, policy: Policy) -> Vec<u64> {
    let mut sys = System::new(SystemConfig::default(), &policy);
    (1..=trace.phases.len() as u64)
        .map(|epoch| {
            sys.run_prefix(trace, epoch).expect("epoch runs");
            sys.snapshot_digest()
        })
        .collect()
}

fn trail(app: App, policy: Policy) -> Vec<u64> {
    snapshot_trail(&generate(app, &WorkloadParams::small(app, 4)), policy)
}

#[test]
fn c2d_on_touch_trail_is_pinned() {
    assert_eq!(
        trail(App::C2d, Policy::OnTouch),
        vec![
            0x40b96e601bd36c95,
            0x3ea16853d151722f,
            0xad8c45b05a0db0f1,
            0x66d55e065be71f3a,
            0xb8c9700e6fbe7755,
            0x7c9f710eec461662,
            0xe71d643219203298,
            0x5c6ad647bb250c4d,
            0x61e7fb49f621ba43,
        ]
    );
}

#[test]
fn c2d_access_counter_trail_is_pinned() {
    assert_eq!(
        trail(App::C2d, Policy::AccessCounter),
        vec![
            0x32a292a51fa43759,
            0x57f15cd8df0dd9c0,
            0xccb25dc477b643ab,
            0xf8127348dbbd2d4e,
            0x5f63319abc84ab14,
            0xe970528867fb196c,
            0x099e880c951b8e32,
            0xdb7792c8ccb6f0d7,
            0x109bc2b5f64d10fe,
        ]
    );
}

#[test]
fn c2d_duplication_trail_is_pinned() {
    assert_eq!(
        trail(App::C2d, Policy::Duplication),
        vec![
            0x2247f4b65a83e6df,
            0x029b99288e8f001e,
            0xdbb5d95b13c7d4cc,
            0x863b14422a60844f,
            0x62a375c7e8fcd9cc,
            0xd781aae41c308800,
            0x70e821b75f71588c,
            0xf6543f798193e71e,
            0xa322f3dde7485ac4,
        ]
    );
}

#[test]
fn c2d_oasis_trail_is_pinned() {
    assert_eq!(
        trail(App::C2d, Policy::oasis()),
        vec![
            0xed1264e858b97900,
            0xbae9807e83af2b1c,
            0x1e2683a92fa83443,
            0xfb9bfd7938cde3e1,
            0x6d478187a7e39218,
            0x981b5af1b19a7727,
            0xdf52ff9164b7c876,
            0xf2e4e3ebf4a0812d,
            0x7b7861cb80f1773b,
        ]
    );
}

#[test]
fn mm_trails_are_pinned_for_all_four_policies() {
    assert_eq!(trail(App::Mm, Policy::OnTouch), vec![0x640657b856e6a885]);
    assert_eq!(
        trail(App::Mm, Policy::AccessCounter),
        vec![0x0f7ed771fdf07d5d]
    );
    assert_eq!(
        trail(App::Mm, Policy::Duplication),
        vec![0x11dc90e309892a4f]
    );
    assert_eq!(trail(App::Mm, Policy::oasis()), vec![0xb137fa2e4e5e3050]);
}

/// The trails of the two runs the CI golden step makes
/// (`run --app C2D --policy oasis --footprint-mb 4` and
/// `run --app MM --policy duplication --footprint-mb 4`), as
/// `tests/golden/*.digests` held them before the per-epoch digest changed
/// format.
#[test]
fn ci_fixture_runs_keep_their_legacy_trails() {
    let cli_trail = |app: App, policy: Policy| {
        let params = WorkloadParams {
            footprint_mb: 4,
            ..WorkloadParams::paper(app, 4)
        };
        snapshot_trail(&generate(app, &params), policy)
    };
    assert_eq!(
        cli_trail(App::C2d, Policy::oasis()),
        vec![
            0xd5fe78bfd06473b1,
            0x49ae106535418300,
            0x817a2182ea069b4d,
            0xe6baa45dc6637036,
            0xa69a04b1f6c86495,
            0x95e8742102de8aa1,
            0x72ec9922fbfc0fb6,
            0xbf100d0c7089de10,
            0xfe0f13d11e72f89d,
        ]
    );
    assert_eq!(
        cli_trail(App::Mm, Policy::Duplication),
        vec![0x11dc90e309892a4f]
    );
}

/// The final [`System::snapshot_digest`] of every app under every core
/// policy at a 1 MB footprint, in [`ALL_APPS`] and [`Policy::core`] order:
/// one pinned state per (app, policy) pair, so semantic drift in any
/// generator or policy path is caught by name.
const FINAL_STATES: [(App, [u64; 4]); 11] = [
    (
        App::Bfs,
        [
            0x2d570d17fef5195e,
            0xece5ad4c4375ae87,
            0xbb45dfc6e535d2a8,
            0x403003ed2199282d,
        ],
    ),
    (
        App::C2d,
        [
            0x52ae718f3646e1ae,
            0xaed31a782a19e70a,
            0x56d546c3700ef0d6,
            0xc8478437d24dd501,
        ],
    ),
    (
        App::Fft,
        [
            0x02e8141818ba233f,
            0x3b6a0afdf00dc2a3,
            0x5b693583bee19459,
            0x7610eec805f23dac,
        ],
    ),
    (
        App::I2c,
        [
            0x533c6cfafcf3f8b2,
            0x4726fc8197015eca,
            0x580adad8c7233a86,
            0x3ee1dccba18fc580,
        ],
    ),
    (
        App::Mm,
        [
            0xd6217ce684c35b8a,
            0x72210eec24327f33,
            0x482cf62b6fc3753d,
            0xf162d072e66ccaf3,
        ],
    ),
    (
        App::Mt,
        [
            0x630935f9600216fe,
            0x6beb10fe2433021a,
            0xf4d327fb17c789a8,
            0xc89eb4364addce8c,
        ],
    ),
    (
        App::Pr,
        [
            0x4de1132ef54e71e1,
            0x2cfb9bd63e954085,
            0xddd95d3b605ad9b4,
            0x4a38d8b1aaf49208,
        ],
    ),
    (
        App::St,
        [
            0x1a7385fd469f0fc5,
            0x0d49f2ab85053caf,
            0xd16a87f454cee880,
            0x2e6c0e797348b0b1,
        ],
    ),
    (
        App::LeNet,
        [
            0x46682f94e5913a6e,
            0xeb34c4647c1d74fd,
            0x9191b208973e7f90,
            0x8e68aeb07ac49eba,
        ],
    ),
    (
        App::Vgg16,
        [
            0x937eb059e246cce2,
            0xd56f6dc965a09911,
            0x7142ddfcff5f0c97,
            0x4a58f133ba12cc63,
        ],
    ),
    (
        App::ResNet18,
        [
            0xefb4940b509e5f25,
            0x5be5b588c9d6295c,
            0xa8546b697bae8485,
            0xaef2f37a539c81bd,
        ],
    ),
];

/// The same runs as [`FINAL_STATES`] under [`SystemConfig::with_large_pages`]:
/// a 2 MiB page spans 32,768 lines of Table I's 256-set L2 cache, so a
/// shootdown drops many lines from each set, and the order it drops them
/// in decides the order of the set's other lines, which the snapshot
/// records. With 4 KiB pages no set ever holds two lines of one page, so
/// only these values pin that order.
const LARGE_PAGE_FINAL_STATES: [(App, [u64; 4]); 11] = [
    (
        App::Bfs,
        [
            0x4914e7431085c901,
            0x068a4f30f77707af,
            0x6474eed6f78a673f,
            0x3e828a0f874466f4,
        ],
    ),
    (
        App::C2d,
        [
            0x08f9bb6d1323a669,
            0xe29663b8670ea619,
            0x922a06633a1fedd7,
            0x3f51f47e02553a5b,
        ],
    ),
    (
        App::Fft,
        [
            0xf383d40f5d0a737f,
            0x0671587e2f07e2dd,
            0xfcafe4efb33df04a,
            0x840a6a0c16e8f51c,
        ],
    ),
    (
        App::I2c,
        [
            0xa683d1fa656b48bc,
            0x260e66b698b470eb,
            0xea310d8252b62383,
            0xd4161a74d1fd7d2c,
        ],
    ),
    (
        App::Mm,
        [
            0xa0cec9c54d1bc343,
            0xe0de35d415996119,
            0x2c3311c287e477b6,
            0xf8571750c8160cbe,
        ],
    ),
    (
        App::Mt,
        [
            0x1c3a905eaa7f6d4c,
            0xe1d3bed7f50a8668,
            0x10e9d1741689e77b,
            0x7281f6b4f9f04cba,
        ],
    ),
    (
        App::Pr,
        [
            0x460ca5607768e607,
            0xc5989c6ff720b2ad,
            0x05a3fa3150ce7e6e,
            0xbc1d978fb510389f,
        ],
    ),
    (
        App::St,
        [
            0x2fda1b29ca96e8d6,
            0x85c1b8f6377dd4ec,
            0xc6e1dea0d0406bec,
            0xbcbfdafd5ec18556,
        ],
    ),
    (
        App::LeNet,
        [
            0x3d4f2882fdd50788,
            0xf76d90aded5a980a,
            0xd14f1815d7aea695,
            0x4ba8293481d8be04,
        ],
    ),
    (
        App::Vgg16,
        [
            0x77813ebca21eb722,
            0x11330aa630eb69d0,
            0x7340e08743dbc9e0,
            0xc3f70d93f95bd7ab,
        ],
    ),
    (
        App::ResNet18,
        [
            0xe8377f07f31e57fd,
            0xdc89722f6dfa0696,
            0x7a588c2a0d5fcbfd,
            0xebd279f422d7d5dc,
        ],
    ),
];

/// Runs every app under every core policy at a 1 MB footprint on `config`
/// and checks each final [`System::snapshot_digest`] against `pinned`,
/// listing every mismatching row in the table's own syntax.
fn check_final_states(config: &SystemConfig, pinned: &[(App, [u64; 4]); 11]) {
    let apps: Vec<App> = pinned.iter().map(|&(app, _)| app).collect();
    assert_eq!(apps, ALL_APPS, "one row per app, in order");
    let mut mismatches = Vec::new();
    for &(app, expected) in pinned {
        let params = WorkloadParams {
            footprint_mb: 1,
            ..WorkloadParams::small(app, 4)
        };
        let trace = generate(app, &params);
        let finals = Policy::core().map(|policy| {
            let mut sys = System::new(config.clone(), &policy);
            sys.run(&trace).expect("run completes");
            sys.snapshot_digest()
        });
        if finals != expected {
            mismatches.push(format!("(App::{app:?}, {finals:#018x?})"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join(",\n"));
}

#[test]
fn every_app_final_state_is_pinned_under_every_core_policy() {
    check_final_states(&SystemConfig::default(), &FINAL_STATES);
}

#[test]
fn every_app_final_state_is_pinned_with_large_pages() {
    check_final_states(&SystemConfig::with_large_pages(), &LARGE_PAGE_FINAL_STATES);
}
