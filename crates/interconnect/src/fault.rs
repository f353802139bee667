//! Deterministic hardware-fault plans for the interconnect and memory.
//!
//! A [`FaultPlan`] is *configuration*: a declarative schedule of hardware
//! misbehaviour (permanent NVLink link-down events, transient CRC-glitch
//! windows, ECC frame-poisoning events) plus the seed for the RNG that
//! resolves every probabilistic draw. The plan travels with
//! `SystemConfig` through the checkpoint codec, so a resumed run sees the
//! same schedule as the original.
//!
//! [`FaultState`] is the *mutable* counterpart: which links are currently
//! down, the RNG mid-stream state, and the recovery counters. It is part
//! of the simulation state proper — serialized into state digests and the
//! checkpoint's `"platform"` section — so same seed + same plan replays
//! bit-identically even across a kill/resume.

use std::collections::BTreeSet;
use std::fmt;

use oasis_engine::codec::{ByteReader, ByteWriter, CodecError, Encoder, Restore, Snapshot};
use oasis_engine::SimRng;

/// A typed fault-plan spec failure, naming the offending clause or token.
///
/// Produced by [`FaultPlan::parse`] (lexical/structural problems, clause
/// semantics, overlapping flaky windows) and [`FaultPlan::validate_for`]
/// (GPU indices outside the system being built).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultSpecError {
    /// A clause is missing a required separator or field.
    MissingSeparator {
        /// The clause as written.
        clause: String,
        /// What the clause needed (e.g. `"'@<epoch>'"`).
        missing: &'static str,
    },
    /// A numeric token failed to parse.
    BadNumber {
        /// The clause as written.
        clause: String,
        /// The offending token.
        token: String,
        /// What the token was supposed to be.
        what: &'static str,
    },
    /// A link clause names the same GPU for both endpoints.
    SameEndpoints {
        /// The clause as written.
        clause: String,
    },
    /// A flaky clause has a zero glitch-probability denominator.
    ZeroDenominator {
        /// The clause as written.
        clause: String,
    },
    /// A flaky clause's window covers no epochs (`to <= from`).
    EmptyWindow {
        /// The clause as written.
        clause: String,
    },
    /// An ecc clause poisons zero frames.
    ZeroFrames {
        /// The clause as written.
        clause: String,
    },
    /// The clause kind before the first `:` is not recognized.
    UnknownKind {
        /// The clause as written.
        clause: String,
        /// The unrecognized kind token.
        kind: String,
    },
    /// Two flaky windows on the same link pair overlap in time, making
    /// the glitch probability of the shared epochs ambiguous.
    OverlappingWindows {
        /// The earlier clause, re-rendered in spec grammar.
        first: String,
        /// The overlapping clause, re-rendered in spec grammar.
        second: String,
    },
    /// The plan names a GPU the system being validated does not have.
    GpuOutOfRange {
        /// The offending clause, re-rendered in spec grammar.
        clause: String,
        /// The out-of-range GPU index.
        gpu: u8,
        /// GPUs actually present.
        gpu_count: usize,
    },
}

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultSpecError::MissingSeparator { clause, missing } => {
                write!(f, "clause '{clause}' needs {missing}")
            }
            FaultSpecError::BadNumber {
                clause,
                token,
                what,
            } => write!(f, "bad {what} '{token}' in clause '{clause}'"),
            FaultSpecError::SameEndpoints { clause } => {
                write!(f, "link endpoints must differ in clause '{clause}'")
            }
            FaultSpecError::ZeroDenominator { clause } => {
                write!(f, "flaky denominator must be positive in clause '{clause}'")
            }
            FaultSpecError::EmptyWindow { clause } => {
                write!(f, "flaky window is empty in clause '{clause}'")
            }
            FaultSpecError::ZeroFrames { clause } => {
                write!(f, "ecc frame count must be positive in clause '{clause}'")
            }
            FaultSpecError::UnknownKind { clause, kind } => {
                write!(f, "unknown fault clause kind '{kind}' in clause '{clause}'")
            }
            FaultSpecError::OverlappingWindows { first, second } => write!(
                f,
                "flaky windows '{first}' and '{second}' overlap on the same link pair"
            ),
            FaultSpecError::GpuOutOfRange {
                clause,
                gpu,
                gpu_count,
            } => write!(
                f,
                "clause '{clause}' names GPU {gpu} but only {gpu_count} GPUs exist"
            ),
        }
    }
}

impl std::error::Error for FaultSpecError {}

/// Maximum CRC retransmissions per transfer through a flaky window. The
/// link-level retry is bounded and always eventually succeeds (real NVLink
/// CRC replay is transparent); only the *latency* of the retries is
/// observable.
pub const MAX_CRC_RETRIES: u32 = 4;

/// A permanent NVLink failure between GPUs `a` and `b`, effective from the
/// start of `epoch` to the end of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkDown {
    /// One endpoint GPU index.
    pub a: u8,
    /// The other endpoint GPU index.
    pub b: u8,
    /// Epoch at whose start the link goes down.
    pub epoch: u64,
}

/// A transient-glitch window on the NVLink pair `(a, b)`: while the
/// current epoch is in `[from_epoch, to_epoch)`, every transfer over the
/// pair suffers a CRC retransmission with probability `num/den` per
/// attempt (bounded by [`MAX_CRC_RETRIES`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlakyWindow {
    /// One endpoint GPU index.
    pub a: u8,
    /// The other endpoint GPU index.
    pub b: u8,
    /// First epoch (inclusive) the window covers.
    pub from_epoch: u64,
    /// First epoch past the window (exclusive).
    pub to_epoch: u64,
    /// Glitch probability numerator.
    pub num: u64,
    /// Glitch probability denominator.
    pub den: u64,
}

/// An ECC event poisoning `frames` resident physical frames on `gpu` at
/// the start of `epoch`. Victim frames are drawn with the plan RNG from
/// the GPU's resident set in deterministic (stamp) order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EccEvent {
    /// GPU whose memory is struck.
    pub gpu: u8,
    /// Epoch at whose start the frames are poisoned.
    pub epoch: u64,
    /// Number of resident frames to poison.
    pub frames: u32,
}

/// A deterministic, seed-driven schedule of hardware faults.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed for the fault RNG (glitch draws, ECC victim selection).
    pub seed: u64,
    /// Permanent link-down events.
    pub link_down: Vec<LinkDown>,
    /// Transient CRC-glitch windows.
    pub flaky: Vec<FlakyWindow>,
    /// ECC frame-poisoning events.
    pub ecc: Vec<EccEvent>,
}

impl FaultPlan {
    /// Whether the plan schedules nothing (the zero-fault fast path).
    pub fn is_empty(&self) -> bool {
        self.link_down.is_empty() && self.flaky.is_empty() && self.ecc.is_empty()
    }

    /// Largest GPU index any scheduled event names, if any.
    pub fn max_gpu(&self) -> Option<u8> {
        let links = self
            .link_down
            .iter()
            .flat_map(|l| [l.a, l.b])
            .chain(self.flaky.iter().flat_map(|f| [f.a, f.b]));
        links.chain(self.ecc.iter().map(|e| e.gpu)).max()
    }

    /// Parses the CLI spec: comma-separated clauses of
    /// `seed:<n>`, `down:<a>-<b>@<epoch>`,
    /// `flaky:<a>-<b>@<from>-<to>:<num>/<den>`, and
    /// `ecc:<gpu>@<epoch>x<count>`.
    ///
    /// # Errors
    ///
    /// Returns a typed [`FaultSpecError`] naming the first malformed
    /// clause or token, including overlapping flaky windows on the same
    /// link pair (the glitch probability of the shared epochs would be
    /// ambiguous).
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultSpecError> {
        fn pair(clause: &str, s: &str) -> Result<(u8, u8), FaultSpecError> {
            let (a, b) = s.split_once('-').ok_or(FaultSpecError::MissingSeparator {
                clause: clause.to_string(),
                missing: "'<a>-<b>' endpoints",
            })?;
            let a: u8 = num(clause, a, "GPU index")?;
            let b: u8 = num(clause, b, "GPU index")?;
            if a == b {
                return Err(FaultSpecError::SameEndpoints {
                    clause: clause.to_string(),
                });
            }
            Ok((a, b))
        }
        fn num<T: std::str::FromStr>(
            clause: &str,
            s: &str,
            what: &'static str,
        ) -> Result<T, FaultSpecError> {
            s.parse().map_err(|_| FaultSpecError::BadNumber {
                clause: clause.to_string(),
                token: s.to_string(),
                what,
            })
        }
        fn sep(clause: &str, missing: &'static str) -> FaultSpecError {
            FaultSpecError::MissingSeparator {
                clause: clause.to_string(),
                missing,
            }
        }

        let mut plan = FaultPlan::default();
        for clause in spec.split(',').filter(|c| !c.is_empty()) {
            let (kind, body) = clause
                .split_once(':')
                .ok_or_else(|| sep(clause, "a ':' after the clause kind"))?;
            match kind {
                "seed" => plan.seed = num(clause, body, "seed")?,
                "down" => {
                    let (ends, epoch) = body
                        .split_once('@')
                        .ok_or_else(|| sep(clause, "'@<epoch>'"))?;
                    let (a, b) = pair(clause, ends)?;
                    plan.link_down.push(LinkDown {
                        a,
                        b,
                        epoch: num(clause, epoch, "epoch")?,
                    });
                }
                "flaky" => {
                    let (ends, rest) = body
                        .split_once('@')
                        .ok_or_else(|| sep(clause, "'@<from>-<to>'"))?;
                    let (a, b) = pair(clause, ends)?;
                    let (window, prob) = rest
                        .split_once(':')
                        .ok_or_else(|| sep(clause, "':<num>/<den>'"))?;
                    let (from, to) = window
                        .split_once('-')
                        .ok_or_else(|| sep(clause, "'<from>-<to>' window bounds"))?;
                    let (n, d) = prob
                        .split_once('/')
                        .ok_or_else(|| sep(clause, "'<num>/<den>' probability"))?;
                    let w = FlakyWindow {
                        a,
                        b,
                        from_epoch: num(clause, from, "epoch")?,
                        to_epoch: num(clause, to, "epoch")?,
                        num: num(clause, n, "probability numerator")?,
                        den: num(clause, d, "probability denominator")?,
                    };
                    if w.den == 0 {
                        return Err(FaultSpecError::ZeroDenominator {
                            clause: clause.to_string(),
                        });
                    }
                    if w.to_epoch <= w.from_epoch {
                        return Err(FaultSpecError::EmptyWindow {
                            clause: clause.to_string(),
                        });
                    }
                    if let Some(prev) = plan.flaky.iter().find(|p| {
                        norm(p.a, p.b) == norm(w.a, w.b)
                            && p.from_epoch.max(w.from_epoch) < p.to_epoch.min(w.to_epoch)
                    }) {
                        return Err(FaultSpecError::OverlappingWindows {
                            first: flaky_clause(prev),
                            second: clause.to_string(),
                        });
                    }
                    plan.flaky.push(w);
                }
                "ecc" => {
                    let (gpu, rest) = body
                        .split_once('@')
                        .ok_or_else(|| sep(clause, "'@<epoch>x<count>'"))?;
                    let (epoch, count) = rest
                        .split_once('x')
                        .ok_or_else(|| sep(clause, "'<epoch>x<count>'"))?;
                    let e = EccEvent {
                        gpu: num(clause, gpu, "GPU index")?,
                        epoch: num(clause, epoch, "epoch")?,
                        frames: num(clause, count, "frame count")?,
                    };
                    if e.frames == 0 {
                        return Err(FaultSpecError::ZeroFrames {
                            clause: clause.to_string(),
                        });
                    }
                    plan.ecc.push(e);
                }
                other => {
                    return Err(FaultSpecError::UnknownKind {
                        clause: clause.to_string(),
                        kind: other.to_string(),
                    })
                }
            }
        }
        Ok(plan)
    }

    /// Checks that every GPU index the plan names fits a system of
    /// `gpu_count` GPUs.
    ///
    /// # Errors
    ///
    /// Returns [`FaultSpecError::GpuOutOfRange`] naming the first
    /// offending clause (in spec grammar) and its out-of-range index.
    pub fn validate_for(&self, gpu_count: usize) -> Result<(), FaultSpecError> {
        let bad = |clause: String, gpu: u8| FaultSpecError::GpuOutOfRange {
            clause,
            gpu,
            gpu_count,
        };
        for l in &self.link_down {
            if let Some(&g) = [l.a, l.b].iter().find(|&&g| g as usize >= gpu_count) {
                return Err(bad(down_clause(l), g));
            }
        }
        for w in &self.flaky {
            if let Some(&g) = [w.a, w.b].iter().find(|&&g| g as usize >= gpu_count) {
                return Err(bad(flaky_clause(w), g));
            }
        }
        for e in &self.ecc {
            if e.gpu as usize >= gpu_count {
                return Err(bad(ecc_clause(e), e.gpu));
            }
        }
        Ok(())
    }

    /// Renders the plan back into the spec grammar accepted by
    /// [`FaultPlan::parse`], `seed` clause first. Round-trips:
    /// `parse(&p.to_spec()) == Ok(p)` for any plan `parse` accepts.
    pub fn to_spec(&self) -> String {
        let mut out = format!("seed:{}", self.seed);
        for l in &self.link_down {
            out.push(',');
            out.push_str(&down_clause(l));
        }
        for w in &self.flaky {
            out.push(',');
            out.push_str(&flaky_clause(w));
        }
        for e in &self.ecc {
            out.push(',');
            out.push_str(&ecc_clause(e));
        }
        out
    }

    /// Serializes the plan into a config section.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.u64(self.seed);
        w.u64(self.link_down.len() as u64);
        for l in &self.link_down {
            w.u8(l.a);
            w.u8(l.b);
            w.u64(l.epoch);
        }
        w.u64(self.flaky.len() as u64);
        for fw in &self.flaky {
            w.u8(fw.a);
            w.u8(fw.b);
            w.u64(fw.from_epoch);
            w.u64(fw.to_epoch);
            w.u64(fw.num);
            w.u64(fw.den);
        }
        w.u64(self.ecc.len() as u64);
        for e in &self.ecc {
            w.u8(e.gpu);
            w.u64(e.epoch);
            w.u32(e.frames);
        }
    }

    /// Deserializes a plan written by [`FaultPlan::encode`].
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on a malformed payload.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<FaultPlan, CodecError> {
        let seed = r.u64()?;
        let n = r.usize()?;
        let mut link_down = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            link_down.push(LinkDown {
                a: r.u8()?,
                b: r.u8()?,
                epoch: r.u64()?,
            });
        }
        let n = r.usize()?;
        let mut flaky = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            flaky.push(FlakyWindow {
                a: r.u8()?,
                b: r.u8()?,
                from_epoch: r.u64()?,
                to_epoch: r.u64()?,
                num: r.u64()?,
                den: r.u64()?,
            });
        }
        let n = r.usize()?;
        let mut ecc = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            ecc.push(EccEvent {
                gpu: r.u8()?,
                epoch: r.u64()?,
                frames: r.u32()?,
            });
        }
        Ok(FaultPlan {
            seed,
            link_down,
            flaky,
            ecc,
        })
    }
}

/// Aggregate recovery counters, surfaced through the metrics registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounters {
    /// CRC retransmissions performed on glitched transfers.
    pub crc_retries: u64,
    /// GPU↔GPU transfers rerouted over the PCIe fallback path.
    pub reroutes: u64,
    /// Payload bytes that took the fallback path.
    pub rerouted_bytes: u64,
    /// Permanent link-down events applied so far.
    pub link_faults: u64,
}

/// Mutable hardware-fault state: current link health, the fault RNG, and
/// recovery counters. Part of the simulation state (digested and
/// checkpointed), unlike the [`FaultPlan`] which is configuration.
#[derive(Debug, Clone)]
pub struct FaultState {
    rng: SimRng,
    epoch: u64,
    down: BTreeSet<(u8, u8)>,
    counters: FaultCounters,
}

fn norm(a: u8, b: u8) -> (u8, u8) {
    (a.min(b), a.max(b))
}

fn down_clause(l: &LinkDown) -> String {
    format!("down:{}-{}@{}", l.a, l.b, l.epoch)
}

fn flaky_clause(w: &FlakyWindow) -> String {
    format!(
        "flaky:{}-{}@{}-{}:{}/{}",
        w.a, w.b, w.from_epoch, w.to_epoch, w.num, w.den
    )
}

fn ecc_clause(e: &EccEvent) -> String {
    format!("ecc:{}@{}x{}", e.gpu, e.epoch, e.frames)
}

impl FaultState {
    /// Fresh state for a plan: RNG seeded, all links healthy.
    pub fn new(plan: &FaultPlan) -> Self {
        FaultState {
            rng: SimRng::seed_from_u64(plan.seed),
            epoch: 0,
            down: BTreeSet::new(),
            counters: FaultCounters::default(),
        }
    }

    /// The epoch most recently announced via `begin_epoch`.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether the NVLink pair `(a, b)` is permanently down.
    pub fn is_down(&self, a: u8, b: u8) -> bool {
        !self.down.is_empty() && self.down.contains(&norm(a, b))
    }

    /// Number of link pairs currently down.
    pub fn links_down(&self) -> usize {
        self.down.len()
    }

    /// The aggregate recovery counters.
    pub fn counters(&self) -> FaultCounters {
        self.counters
    }

    pub(crate) fn mark_down(&mut self, a: u8, b: u8) -> bool {
        let fresh = self.down.insert(norm(a, b));
        if fresh {
            self.counters.link_faults += 1;
        }
        fresh
    }

    pub(crate) fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    pub(crate) fn note_reroute(&mut self, bytes: u64) {
        self.counters.reroutes += 1;
        self.counters.rerouted_bytes += bytes;
    }

    pub(crate) fn note_crc_retry(&mut self) {
        self.counters.crc_retries += 1;
    }

    pub(crate) fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }
}

impl Snapshot for FaultState {
    fn snapshot<E: Encoder + ?Sized>(&self, w: &mut E) {
        self.rng.snapshot(w);
        w.u64(self.epoch);
        w.u64(self.down.len() as u64);
        for (a, b) in &self.down {
            w.u8(*a);
            w.u8(*b);
        }
        for v in [
            self.counters.crc_retries,
            self.counters.reroutes,
            self.counters.rerouted_bytes,
            self.counters.link_faults,
        ] {
            w.u64(v);
        }
    }
}

impl Restore for FaultState {
    fn restore(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        self.rng.restore(r)?;
        self.epoch = r.u64()?;
        let n = r.usize()?;
        self.down.clear();
        for _ in 0..n {
            let (a, b) = (r.u8()?, r.u8()?);
            if a >= b {
                return Err(r.malformed(format!("down-link pair ({a},{b}) is not normalized")));
            }
            if !self.down.insert((a, b)) {
                return Err(r.malformed(format!("down-link pair ({a},{b}) appears twice")));
            }
        }
        self.counters.crc_retries = r.u64()?;
        self.counters.reroutes = r.u64()?;
        self.counters.rerouted_bytes = r.u64()?;
        self.counters.link_faults = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::default().is_empty());
        assert_eq!(FaultPlan::default().max_gpu(), None);
    }

    #[test]
    fn parse_full_spec() {
        let p = FaultPlan::parse("down:0-1@2,flaky:2-3@1-5:1/8,ecc:0@3x2,seed:7").expect("parse");
        assert_eq!(p.seed, 7);
        assert_eq!(
            p.link_down,
            vec![LinkDown {
                a: 0,
                b: 1,
                epoch: 2
            }]
        );
        assert_eq!(
            p.flaky,
            vec![FlakyWindow {
                a: 2,
                b: 3,
                from_epoch: 1,
                to_epoch: 5,
                num: 1,
                den: 8
            }]
        );
        assert_eq!(
            p.ecc,
            vec![EccEvent {
                gpu: 0,
                epoch: 3,
                frames: 2
            }]
        );
        assert_eq!(p.max_gpu(), Some(3));
        assert!(!p.is_empty());
    }

    #[test]
    fn parse_rejects_malformed_clauses() {
        for bad in [
            "frob:1",
            "down:0-0@1",
            "down:0-1",
            "flaky:0-1@3-3:1/8",
            "flaky:0-1@1-3:1/0",
            "ecc:0@1x0",
            "ecc:0@1",
            "seedless",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted '{bad}'");
        }
    }

    #[test]
    fn parse_reports_unknown_kind() {
        assert_eq!(
            FaultPlan::parse("frob:1"),
            Err(FaultSpecError::UnknownKind {
                clause: "frob:1".into(),
                kind: "frob".into()
            })
        );
    }

    #[test]
    fn parse_reports_missing_separators() {
        match FaultPlan::parse("seedless") {
            Err(FaultSpecError::MissingSeparator { clause, .. }) => assert_eq!(clause, "seedless"),
            other => panic!("expected MissingSeparator, got {other:?}"),
        }
        match FaultPlan::parse("down:0-1") {
            Err(FaultSpecError::MissingSeparator { clause, missing }) => {
                assert_eq!(clause, "down:0-1");
                assert!(missing.contains("@<epoch>"), "unhelpful hint: {missing}");
            }
            other => panic!("expected MissingSeparator, got {other:?}"),
        }
    }

    #[test]
    fn parse_reports_bad_numbers_with_the_offending_token() {
        match FaultPlan::parse("down:0-zap@1") {
            Err(FaultSpecError::BadNumber { token, what, .. }) => {
                assert_eq!(token, "zap");
                assert_eq!(what, "GPU index");
            }
            other => panic!("expected BadNumber, got {other:?}"),
        }
        // u8 range enforcement: 300 is not a valid GPU index token.
        match FaultPlan::parse("ecc:300@1x1") {
            Err(FaultSpecError::BadNumber { token, what, .. }) => {
                assert_eq!(token, "300");
                assert_eq!(what, "GPU index");
            }
            other => panic!("expected BadNumber, got {other:?}"),
        }
    }

    #[test]
    fn parse_reports_same_endpoints() {
        assert_eq!(
            FaultPlan::parse("down:2-2@1"),
            Err(FaultSpecError::SameEndpoints {
                clause: "down:2-2@1".into()
            })
        );
    }

    #[test]
    fn parse_reports_degenerate_flaky_and_ecc_clauses() {
        assert_eq!(
            FaultPlan::parse("flaky:0-1@1-3:1/0"),
            Err(FaultSpecError::ZeroDenominator {
                clause: "flaky:0-1@1-3:1/0".into()
            })
        );
        assert_eq!(
            FaultPlan::parse("flaky:0-1@3-3:1/8"),
            Err(FaultSpecError::EmptyWindow {
                clause: "flaky:0-1@3-3:1/8".into()
            })
        );
        assert_eq!(
            FaultPlan::parse("ecc:0@1x0"),
            Err(FaultSpecError::ZeroFrames {
                clause: "ecc:0@1x0".into()
            })
        );
    }

    #[test]
    fn parse_rejects_overlapping_flaky_windows() {
        // Same pair (order-insensitive), windows [1,5) and [4,8) share epoch 4.
        match FaultPlan::parse("flaky:0-1@1-5:1/8,flaky:1-0@4-8:1/4") {
            Err(FaultSpecError::OverlappingWindows { first, second }) => {
                assert_eq!(first, "flaky:0-1@1-5:1/8");
                assert_eq!(second, "flaky:1-0@4-8:1/4");
            }
            other => panic!("expected OverlappingWindows, got {other:?}"),
        }
        // Adjacent windows ([1,5) then [5,8)) do not overlap.
        assert!(FaultPlan::parse("flaky:0-1@1-5:1/8,flaky:0-1@5-8:1/4").is_ok());
        // Same epochs on a different pair is fine.
        assert!(FaultPlan::parse("flaky:0-1@1-5:1/8,flaky:2-3@1-5:1/4").is_ok());
    }

    #[test]
    fn validate_for_rejects_out_of_range_gpu_ids() {
        let p = FaultPlan::parse("seed:1,down:0-3@1,ecc:2@1x1").expect("parse");
        assert!(p.validate_for(4).is_ok());
        match p.validate_for(3) {
            Err(FaultSpecError::GpuOutOfRange {
                clause,
                gpu,
                gpu_count,
            }) => {
                assert_eq!(clause, "down:0-3@1");
                assert_eq!(gpu, 3);
                assert_eq!(gpu_count, 3);
                // The rendered message names the GPU for CLI surfacing.
                let msg = FaultSpecError::GpuOutOfRange {
                    clause,
                    gpu,
                    gpu_count,
                }
                .to_string();
                assert!(msg.contains("GPU 3"), "message lacks GPU id: {msg}");
            }
            other => panic!("expected GpuOutOfRange, got {other:?}"),
        }
        match p.validate_for(2) {
            Err(FaultSpecError::GpuOutOfRange { clause, gpu, .. }) => {
                assert_eq!(clause, "down:0-3@1");
                assert_eq!(gpu, 3);
            }
            other => panic!("expected GpuOutOfRange, got {other:?}"),
        }
        let ecc_only = FaultPlan::parse("ecc:2@1x1").expect("parse");
        match ecc_only.validate_for(2) {
            Err(FaultSpecError::GpuOutOfRange { clause, gpu, .. }) => {
                assert_eq!(clause, "ecc:2@1x1");
                assert_eq!(gpu, 2);
            }
            other => panic!("expected GpuOutOfRange, got {other:?}"),
        }
        // The empty plan fits any system, even a 0-GPU one.
        assert!(FaultPlan::default().validate_for(0).is_ok());
    }

    #[test]
    fn to_spec_round_trips_through_parse() {
        for spec in [
            "seed:0",
            "seed:7,down:0-1@2,flaky:2-3@1-5:1/8,ecc:0@3x2",
            "seed:9,down:0-1@0,down:1-2@3,flaky:0-1@1-5:1/8,flaky:0-1@5-9:3/4,ecc:1@2x1",
        ] {
            let p = FaultPlan::parse(spec).expect("parse");
            let rendered = p.to_spec();
            let q = FaultPlan::parse(&rendered).expect("re-parse rendered spec");
            assert_eq!(p, q, "round-trip changed the plan for '{spec}'");
        }
        assert_eq!(FaultPlan::default().to_spec(), "seed:0");
    }

    #[test]
    fn plan_round_trips_through_the_codec() {
        let p = FaultPlan::parse("down:0-1@2,flaky:2-3@1-5:1/8,ecc:1@3x2,seed:9").expect("parse");
        let mut w = ByteWriter::new();
        p.encode(&mut w);
        let buf = w.into_vec();
        let mut r = ByteReader::new("fault-plan", &buf);
        let q = FaultPlan::decode(&mut r).expect("decode");
        assert!(r.is_empty());
        assert_eq!(p, q);
    }

    #[test]
    fn state_round_trips_and_rejects_junk() {
        let plan = FaultPlan::parse("seed:3,down:0-2@0").expect("parse");
        let mut s = FaultState::new(&plan);
        s.set_epoch(4);
        assert!(s.mark_down(2, 0), "first mark is fresh");
        assert!(!s.mark_down(0, 2), "re-mark is idempotent");
        s.note_reroute(4096);
        s.note_crc_retry();
        let _ = s.rng().next_u64();

        let mut w = ByteWriter::new();
        s.snapshot(&mut w);
        let buf = w.into_vec();
        let mut t = FaultState::new(&plan);
        let mut r = ByteReader::new("faults", &buf);
        t.restore(&mut r).expect("valid state");
        assert!(r.is_empty());
        assert!(t.is_down(0, 2) && t.is_down(2, 0));
        assert_eq!(t.epoch(), 4);
        assert_eq!(t.counters(), s.counters());
        assert_eq!(t.counters().reroutes, 1);
        assert_eq!(t.counters().link_faults, 1);
        // The RNG stream continues from the snapshot point.
        assert_eq!(t.rng().next_u64(), s.rng().next_u64());

        // A non-normalized pair is rejected.
        let mut w = ByteWriter::new();
        s.rng().snapshot(&mut w);
        w.u64(0); // epoch
        w.u64(1); // one pair
        w.u8(2);
        w.u8(1); // (2,1) — not normalized
        for _ in 0..4 {
            w.u64(0);
        }
        let buf = w.into_vec();
        let mut r = ByteReader::new("faults", &buf);
        assert!(t.restore(&mut r).is_err());
    }
}
