//! Deterministic fault injection for the EDA tool and storage planes —
//! the `llm::faults` discipline applied to everything *below* the
//! model: tool invocations, the persistent disk cache, and checkpoint
//! logs.
//!
//! # Plan syntax (`AIVRIL_EDA_FAULTS`)
//!
//! The grammar of `AIVRIL_FAULTS`, shared through
//! [`aivril_obs::faultplan`]: `off` (default), a single rate (`0.1` =
//! 10 % on every class), or comma-separated `class=rate` pairs over the
//! classes below, plus two non-rate knobs:
//!
//! | class | plane | effect |
//! |---|---|---|
//! | `crash` | tool | the tool process dies before producing output |
//! | `hang` | tool | the tool wedges until the modeled watchdog kills it |
//! | `garbled` | tool | the run completes but its log is corrupted in place |
//! | `truncate` | tool | the run completes but its log is cut short |
//! | `spurious_exit` | tool | nonzero exit status with no diagnostics |
//! | `disk_short_write` | disk | a cache entry lands truncated on disk |
//! | `disk_probe_eio` | disk | reading a cache entry fails with an I/O error |
//! | `disk_stale_tmp` | disk | the writer dies between tempfile and rename |
//! | `ckpt_torn_tail` | checkpoint | an appended cell line is cut mid-write |
//! | `ckpt_checksum_flip` | checkpoint | an appended cell line's checksum is corrupted |
//!
//! `retry_max=<n>` bounds the tool plane's in-suite retries (default
//! 2) and `watchdog_s=<seconds>` is the modeled hang watchdog
//! (default 30).
//!
//! # Determinism
//!
//! Every decision is a pure function of the *request identity* — the
//! plane, the operation, the 128-bit content key of the invocation
//! (the EDA cache's own key), and the attempt number — hashed with
//! FNV-64 over a length-delimited encoding and mapped to `[0, 1)`.
//! No RNG state, no clocks, no thread identity. Consequently:
//!
//! * retries re-roll (the attempt number is part of the identity), so
//!   a transient fault can clear on a later attempt;
//! * the same invocation faults the same way however many workers run
//!   (`AIVRIL_THREADS`), whatever the cache mode, and however calls
//!   interleave — faulted artifacts are bit-identical by construction;
//! * storage faults perturb only the *diagnostic* planes (disk-tier
//!   counters, checkpoint replay coverage); corrupt entries degrade to
//!   misses and torn cells are recomputed, so canonical results stay
//!   bit-identical even under storage chaos.

use aivril_obs::codec::{fnv64, Writer};
use aivril_obs::faultplan::{self, pick};

/// The rate classes of the module-docs table, in [`EdaFaultPlan`]
/// field order.
const CLASSES: [&str; 10] = [
    "crash",
    "hang",
    "garbled",
    "truncate",
    "spurious_exit",
    "disk_short_write",
    "disk_probe_eio",
    "disk_stale_tmp",
    "ckpt_torn_tail",
    "ckpt_checksum_flip",
];

/// A fault rolled against one tool invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ToolFault {
    /// The tool process died before producing output; retryable.
    Crash,
    /// The tool wedged; the modeled watchdog killed it after
    /// [`EdaFaultPlan::watchdog_s`]; retryable.
    Hang,
    /// The tool ran to completion but its log is corrupted in place.
    Garbled,
    /// The tool ran to completion but its log is cut short.
    Truncate,
    /// Nonzero exit status with no diagnostics; retryable.
    SpuriousExit,
}

impl ToolFault {
    /// Stable label for metrics and logs.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ToolFault::Crash => "crash",
            ToolFault::Hang => "hang",
            ToolFault::Garbled => "garbled",
            ToolFault::Truncate => "truncate",
            ToolFault::SpuriousExit => "spurious_exit",
        }
    }

    /// `true` for faults worth retrying (the invocation produced
    /// nothing); log-mutation faults are completed invocations.
    #[must_use]
    pub fn is_transient(self) -> bool {
        matches!(
            self,
            ToolFault::Crash | ToolFault::Hang | ToolFault::SpuriousExit
        )
    }
}

/// A fault rolled against one disk-cache store operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskWriteFault {
    /// The entry lands truncated (a killed writer after a partial
    /// `write`): later loads fail the checksum and degrade to misses.
    ShortWrite,
    /// The writer dies between staging the tempfile and the rename,
    /// leaving a stale `.tmp-*` file and no entry.
    StaleTmp,
}

/// A fault rolled against one checkpoint append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkptFault {
    /// The cell line is cut mid-write (torn tail): replay drops it and
    /// everything after it in that log, and those cells recompute.
    TornTail,
    /// The line's checksum is corrupted: replay rejects the line.
    ChecksumFlip,
}

/// Deterministic EDA/storage fault plan. See the module docs for the
/// plan syntax and the hash discipline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdaFaultPlan {
    /// Tool-plane rate: process death before output.
    pub crash: f64,
    /// Tool-plane rate: hang until the modeled watchdog fires.
    pub hang: f64,
    /// Tool-plane rate: completed run, corrupted log.
    pub garbled: f64,
    /// Tool-plane rate: completed run, truncated log.
    pub truncate: f64,
    /// Tool-plane rate: nonzero exit with no diagnostics.
    pub spurious_exit: f64,
    /// Disk-plane rate: truncated entry on store.
    pub disk_short_write: f64,
    /// Disk-plane rate: I/O error on load.
    pub disk_probe_eio: f64,
    /// Disk-plane rate: stale tempfile left by a dead writer.
    pub disk_stale_tmp: f64,
    /// Checkpoint-plane rate: torn cell line on append.
    pub ckpt_torn_tail: f64,
    /// Checkpoint-plane rate: corrupted line checksum on append.
    pub ckpt_checksum_flip: f64,
    /// Retries per tool invocation before the fault surfaces as a
    /// failed report (`retry_max=<n>`, default 2).
    pub retry_max: u32,
    /// Modeled seconds a hung tool consumes before the watchdog kills
    /// it (`watchdog_s=<s>`, default 30).
    pub watchdog_s: f64,
}

impl Default for EdaFaultPlan {
    fn default() -> EdaFaultPlan {
        EdaFaultPlan::off()
    }
}

impl EdaFaultPlan {
    /// The all-off plan (every rate zero, default knobs).
    #[must_use]
    pub fn off() -> EdaFaultPlan {
        EdaFaultPlan::with_rates([0.0; CLASSES.len()])
    }

    /// A plan with the same `rate` on every fault class.
    #[must_use]
    pub fn uniform(rate: f64) -> EdaFaultPlan {
        EdaFaultPlan::with_rates([rate.clamp(0.0, 1.0); CLASSES.len()])
    }

    /// `rates` in [`CLASSES`] order, with the default knobs.
    fn with_rates(rates: [f64; CLASSES.len()]) -> EdaFaultPlan {
        EdaFaultPlan {
            crash: rates[0],
            hang: rates[1],
            garbled: rates[2],
            truncate: rates[3],
            spurious_exit: rates[4],
            disk_short_write: rates[5],
            disk_probe_eio: rates[6],
            disk_stale_tmp: rates[7],
            ckpt_torn_tail: rates[8],
            ckpt_checksum_flip: rates[9],
            retry_max: 2,
            watchdog_s: 30.0,
        }
    }

    /// `true` when every rate is zero — the fast path restores the
    /// exact pre-fault code path.
    #[must_use]
    pub fn is_off(&self) -> bool {
        self.rates().iter().all(|&r| r == 0.0)
    }

    /// `true` when any tool-plane class can fire.
    #[must_use]
    pub fn tools_on(&self) -> bool {
        self.crash > 0.0
            || self.hang > 0.0
            || self.garbled > 0.0
            || self.truncate > 0.0
            || self.spurious_exit > 0.0
    }

    /// `true` when any disk-plane class can fire.
    #[must_use]
    pub fn disk_on(&self) -> bool {
        self.disk_short_write > 0.0 || self.disk_probe_eio > 0.0 || self.disk_stale_tmp > 0.0
    }

    /// `true` when any checkpoint-plane class can fire.
    #[must_use]
    pub fn ckpt_on(&self) -> bool {
        self.ckpt_torn_tail > 0.0 || self.ckpt_checksum_flip > 0.0
    }

    fn rates(&self) -> [f64; CLASSES.len()] {
        [
            self.crash,
            self.hang,
            self.garbled,
            self.truncate,
            self.spurious_exit,
            self.disk_short_write,
            self.disk_probe_eio,
            self.disk_stale_tmp,
            self.ckpt_torn_tail,
            self.ckpt_checksum_flip,
        ]
    }

    /// Parses a plan string in the grammar of [`aivril_obs::faultplan`]
    /// over the classes in the module docs, plus the `retry_max` and
    /// `watchdog_s` knobs.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformation: unknown class,
    /// duplicate class, a rate outside `[0, 1]`, or a bad knob value.
    pub fn parse(s: &str) -> Result<EdaFaultPlan, String> {
        let (rates, knobs) = faultplan::parse(s, &CLASSES, &["retry_max", "watchdog_s"])?;
        let mut plan = EdaFaultPlan::with_rates(rates);
        for (knob, value) in knobs {
            if knob == "retry_max" {
                plan.retry_max = value.parse().map_err(|_| {
                    format!("retry_max wants a non-negative integer, got {value:?}")
                })?;
            } else {
                plan.watchdog_s = value
                    .parse()
                    .ok()
                    .filter(|v: &f64| v.is_finite() && *v >= 0.0)
                    .ok_or_else(|| {
                        format!("watchdog_s wants a finite non-negative number, got {value:?}")
                    })?;
            }
        }
        Ok(plan)
    }

    /// Rolls the tool plane for `(op, key, attempt)`. `op` is the
    /// invocation kind (`analyze`/`compile`/`simulate`), `key` the EDA
    /// cache's content key of the invocation, `attempt` the in-suite
    /// retry counter — retries re-roll.
    #[must_use]
    pub fn roll_tool(&self, op: &str, key: u128, attempt: u32) -> Option<ToolFault> {
        if !self.tools_on() {
            return None;
        }
        let u = unit("tool", op, key, attempt);
        pick(
            u,
            &[
                (self.crash, ToolFault::Crash),
                (self.hang, ToolFault::Hang),
                (self.garbled, ToolFault::Garbled),
                (self.truncate, ToolFault::Truncate),
                (self.spurious_exit, ToolFault::SpuriousExit),
            ],
        )
    }

    /// Rolls the disk plane's *load* side: `Some(())` injects an I/O
    /// error on the probe of `(op, key)`.
    #[must_use]
    pub fn roll_disk_probe(&self, op: &str, key: u128) -> bool {
        self.disk_probe_eio > 0.0 && unit("disk.probe", op, key, 0) < self.disk_probe_eio
    }

    /// Rolls the disk plane's *store* side for `(op, key)`.
    #[must_use]
    pub fn roll_disk_store(&self, op: &str, key: u128) -> Option<DiskWriteFault> {
        if self.disk_short_write == 0.0 && self.disk_stale_tmp == 0.0 {
            return None;
        }
        let u = unit("disk.store", op, key, 0);
        pick(
            u,
            &[
                (self.disk_short_write, DiskWriteFault::ShortWrite),
                (self.disk_stale_tmp, DiskWriteFault::StaleTmp),
            ],
        )
    }

    /// Rolls the checkpoint plane for one appended cell line,
    /// identified by the log's config fingerprint and the cell index.
    /// The fingerprint covers everything that changes a cell's bits, so
    /// the pair also pins the line's content: re-appending a cell
    /// re-rolls identically.
    #[must_use]
    pub fn roll_ckpt(&self, fingerprint: u64, cell: usize) -> Option<CkptFault> {
        if !self.ckpt_on() {
            return None;
        }
        let u = unit("ckpt", "append", u128::from(fingerprint), cell as u32);
        pick(
            u,
            &[
                (self.ckpt_torn_tail, CkptFault::TornTail),
                (self.ckpt_checksum_flip, CkptFault::ChecksumFlip),
            ],
        )
    }

    /// A deterministic sub-roll in `[0, 1)` for shaping an injected
    /// fault (mutation points, torn-tail cut positions) — same
    /// identity space as the class rolls, separated by `what`.
    #[must_use]
    pub fn shape(what: &str, op: &str, key: u128, attempt: u32) -> f64 {
        unit(what, op, key, attempt)
    }
}

/// Pure request-identity hash mapped to `[0, 1)`: FNV-64 over a
/// length-delimited encoding of `(plane, op, key, attempt)`. The top
/// 53 bits become the mantissa, so the mapping is exactly uniform over
/// the representable grid.
fn unit(plane: &str, op: &str, key: u128, attempt: u32) -> f64 {
    let mut w = Writer::new();
    w.str(plane);
    w.str(op);
    w.u64((key >> 64) as u64);
    w.u64(key as u64);
    w.u32(attempt);
    let h = mix(fnv64(w.payload().as_bytes()));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Murmur3-style finalizer. FNV-1a alone has weak trailing-byte
/// avalanche (the last byte passes through a single multiply, moving
/// only mid-order bits), which would make the attempt counter — the
/// payload's final token — nearly inert. The finalizer spreads every
/// input bit across the whole word.
fn mix(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_all_forms() {
        assert!(EdaFaultPlan::parse("off").unwrap().is_off());
        assert!(EdaFaultPlan::parse("").unwrap().is_off());
        assert!(EdaFaultPlan::parse("0").unwrap().is_off());
        let uniform = EdaFaultPlan::parse("0.25").unwrap();
        assert!((uniform.crash - 0.25).abs() < 1e-12);
        assert!((uniform.ckpt_checksum_flip - 0.25).abs() < 1e-12);
        let plan = EdaFaultPlan::parse(
            "crash=0.1, hang=0.2,disk_probe_eio=0.05,retry_max=5,watchdog_s=7.5",
        )
        .unwrap();
        assert!((plan.crash - 0.1).abs() < 1e-12);
        assert!((plan.hang - 0.2).abs() < 1e-12);
        assert!((plan.disk_probe_eio - 0.05).abs() < 1e-12);
        assert_eq!(plan.retry_max, 5);
        assert!((plan.watchdog_s - 7.5).abs() < 1e-12);
        assert_eq!(plan.garbled, 0.0);
        assert!(!plan.is_off());
        assert!(plan.tools_on() && plan.disk_on() && !plan.ckpt_on());
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "warp",
            "1.5",
            "-0.1",
            "crash=2",
            "crash=-1",
            "crash=lots",
            "warp=0.1",
            "crash=0.1,crash=0.2",
            "retry_max=-1",
            "watchdog_s=NaN",
            "watchdog_s=-3",
            "crash",
        ] {
            assert!(
                EdaFaultPlan::parse(bad).is_err(),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn off_never_faults() {
        let plan = EdaFaultPlan::off();
        for key in 0..100u128 {
            assert!(plan.roll_tool("compile", key, 0).is_none());
            assert!(!plan.roll_disk_probe("analyze", key));
            assert!(plan.roll_disk_store("simulate", key).is_none());
            assert!(plan.roll_ckpt(7, key as usize).is_none());
        }
    }

    #[test]
    fn rolls_are_deterministic_and_attempt_sensitive() {
        let plan = EdaFaultPlan::uniform(0.5);
        let a = plan.roll_tool("compile", 42, 0);
        assert_eq!(
            a,
            plan.roll_tool("compile", 42, 0),
            "same identity, same roll"
        );
        // Over many attempts, at least one decision differs — the
        // attempt number is part of the identity.
        let varies = (0..64)
            .map(|i| plan.roll_tool("compile", 42, i))
            .collect::<Vec<_>>();
        assert!(varies.iter().any(|r| r != &varies[0]), "attempts re-roll");
        // And ops are independent identity spaces.
        let by_op: Vec<_> = (0..64)
            .map(|k| {
                (
                    plan.roll_tool("analyze", k, 0),
                    plan.roll_tool("compile", k, 0),
                )
            })
            .collect();
        assert!(by_op.iter().any(|(a, c)| a != c), "ops roll independently");
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let plan = EdaFaultPlan::parse("crash=0.3").unwrap();
        let n = 4000;
        let fired = (0..n)
            .filter(|&k| plan.roll_tool("compile", k, 0).is_some())
            .count();
        let rate = fired as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.05, "observed {rate}");
        // A 100% class always fires.
        let always = EdaFaultPlan::parse("hang=1.0").unwrap();
        assert!((0..100u128).all(|k| always.roll_tool("simulate", k, 3) == Some(ToolFault::Hang)));
    }

    #[test]
    fn planes_roll_independently() {
        let plan = EdaFaultPlan::uniform(0.4);
        let tool: Vec<bool> = (0..64u128)
            .map(|k| plan.roll_tool("x", k, 0).is_some())
            .collect();
        let disk: Vec<bool> = (0..64u128).map(|k| plan.roll_disk_probe("x", k)).collect();
        let ckpt: Vec<bool> = (0..64u128)
            .map(|k| plan.roll_ckpt(1, k as usize).is_some())
            .collect();
        assert!(tool != disk && tool != ckpt, "planes must not alias");
    }

    #[test]
    fn transient_classification_matches_retry_semantics() {
        assert!(ToolFault::Crash.is_transient());
        assert!(ToolFault::Hang.is_transient());
        assert!(ToolFault::SpuriousExit.is_transient());
        assert!(!ToolFault::Garbled.is_transient());
        assert!(!ToolFault::Truncate.is_transient());
    }
}
