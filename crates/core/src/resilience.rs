//! Deterministic resilience: retry/backoff policy, circuit breaker and
//! per-run counters.
//!
//! Backend faults ([`aivril_llm::LlmError`]) are handled here, not in
//! the agents: the pipeline retries with capped exponential backoff,
//! opens a circuit breaker after repeated consecutive failures, and
//! degrades to its best-so-far output when the budget is exhausted.
//!
//! Everything runs on the **modeled clock** (the run trace's accumulated
//! latency), never the wall clock, and every backoff jitter is a pure
//! function of `(seed, operation, attempt)` — so a fault schedule and
//! its recovery replay bit-identically for any worker-thread count.

use aivril_obs::siphash::SipHasher13;
use std::hash::Hasher;

/// Retry/backoff/breaker knobs, configured per pipeline via
/// [`crate::Aivril2Config`] (the harness maps `AIVRIL_RETRY_MAX`,
/// `AIVRIL_BACKOFF_BASE_MS` and `AIVRIL_BREAKER_THRESHOLD` here).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResiliencePolicy {
    /// Retries after the first attempt (total attempts = `retry_max + 1`).
    pub retry_max: u32,
    /// Base backoff in modeled seconds; attempt `n` waits up to
    /// `base * 2^n`, capped at [`ResiliencePolicy::backoff_cap_s`].
    pub backoff_base_s: f64,
    /// Ceiling on a single backoff wait, in modeled seconds.
    pub backoff_cap_s: f64,
    /// Consecutive failures that open the circuit breaker.
    pub breaker_threshold: u32,
    /// Modeled seconds an open breaker rejects calls before allowing a
    /// half-open probe.
    pub breaker_cooldown_s: f64,
}

impl Default for ResiliencePolicy {
    fn default() -> ResiliencePolicy {
        ResiliencePolicy {
            retry_max: 3,
            backoff_base_s: 0.5,
            backoff_cap_s: 30.0,
            breaker_threshold: 4,
            breaker_cooldown_s: 120.0,
        }
    }
}

impl ResiliencePolicy {
    /// The backoff wait before retry `attempt` of `op`, in modeled
    /// seconds: capped exponential with *equal jitter* (half the window
    /// fixed, half seeded), the deterministic analogue of the usual
    /// randomized backoff. Pure function of its arguments.
    #[must_use]
    pub fn backoff_s(&self, seed: u64, op: &str, attempt: u32) -> f64 {
        let exp = 2f64.powi(attempt.min(16) as i32);
        let window = (self.backoff_base_s * exp).min(self.backoff_cap_s);
        let mut h = SipHasher13::new();
        h.write_u64(seed);
        h.write_str_pinned(op);
        h.write_u32(attempt);
        // Top 53 bits -> uniform in [0, 1): the same trick used for
        // `f64` generation everywhere else in the workspace.
        let unit = (h.finish() >> 11) as f64 / (1u64 << 53) as f64;
        window / 2.0 + unit * (window / 2.0)
    }
}

/// Breaker state. `Open` stores the modeled time until which calls are
/// rejected; `HalfOpen` tracks whether the single allowed probe is
/// already in flight.
#[derive(Debug, Clone, Copy, PartialEq)]
enum BreakerState {
    Closed,
    Open { until: f64 },
    HalfOpen { probing: bool },
}

/// Ceiling on [`CircuitBreaker::retry_after_s`] hints — one day.
/// Retry hints are serialized to clients, and a breaker configured
/// with an infinite (or absurd) cooldown must hand back a finite,
/// representable number, not `inf`.
pub const MAX_RETRY_AFTER_S: f64 = 86_400.0;

/// A per-run circuit breaker over the modeled clock.
///
/// After [`ResiliencePolicy::breaker_threshold`] consecutive failures
/// the breaker opens: calls are rejected without consuming retry budget
/// until [`ResiliencePolicy::breaker_cooldown_s`] modeled seconds pass,
/// after which a single half-open probe is allowed — while that probe
/// is outstanding (acquired but not yet reported), further
/// [`CircuitBreaker::try_acquire`] calls are rejected. A successful
/// probe closes the breaker; a failed one re-opens it.
///
/// The breaker is scoped to one pipeline run — workers process samples
/// in arbitrary order, so any cross-run state would break determinism.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitBreaker {
    threshold: u32,
    cooldown_s: f64,
    consecutive_failures: u32,
    state: BreakerState,
    opens: u32,
}

impl CircuitBreaker {
    /// A closed breaker with `policy`'s threshold and cooldown.
    #[must_use]
    pub fn new(policy: &ResiliencePolicy) -> CircuitBreaker {
        CircuitBreaker {
            threshold: policy.breaker_threshold.max(1),
            cooldown_s: policy.breaker_cooldown_s,
            consecutive_failures: 0,
            state: BreakerState::Closed,
            opens: 0,
        }
    }

    /// Whether a call may proceed at modeled time `now`. An expired
    /// `Open` transitions to `HalfOpen` and admits exactly one probe;
    /// further calls are rejected until that probe reports back via
    /// [`CircuitBreaker::on_success`] or [`CircuitBreaker::on_failure`].
    pub fn try_acquire(&mut self, now: f64) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::HalfOpen { probing: true } => false,
            BreakerState::HalfOpen { probing: false } => {
                self.state = BreakerState::HalfOpen { probing: true };
                true
            }
            BreakerState::Open { until } => {
                if now >= until {
                    self.state = BreakerState::HalfOpen { probing: true };
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a successful call: closes the breaker, clears the streak.
    pub fn on_success(&mut self) {
        self.consecutive_failures = 0;
        self.state = BreakerState::Closed;
    }

    /// Records a failed call at modeled time `now`. A failed half-open
    /// probe re-opens immediately; in the closed state the breaker opens
    /// once the consecutive-failure streak reaches the threshold.
    pub fn on_failure(&mut self, now: f64) {
        match self.state {
            BreakerState::HalfOpen { .. } => {
                self.state = BreakerState::Open {
                    until: now + self.cooldown_s,
                };
                self.opens += 1;
            }
            _ => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.threshold {
                    self.state = BreakerState::Open {
                        until: now + self.cooldown_s,
                    };
                    self.opens += 1;
                    self.consecutive_failures = 0;
                }
            }
        }
    }

    /// `true` while calls are rejected at modeled time `now`.
    #[must_use]
    pub fn is_open(&self, now: f64) -> bool {
        matches!(self.state, BreakerState::Open { until } if now < until)
    }

    /// Seconds until an open breaker admits its half-open probe;
    /// `None` when calls are not currently rejected. This is the
    /// `retry_after` an admission layer hands back to callers it turns
    /// away, so it is always a non-negative finite number: an infinite
    /// cooldown (a breaker configured to never recover on its own)
    /// clamps to [`MAX_RETRY_AFTER_S`] instead of serializing as `inf`.
    #[must_use]
    pub fn retry_after_s(&self, now: f64) -> Option<f64> {
        match self.state {
            BreakerState::Open { until } if now < until => {
                Some((until - now).clamp(0.0, MAX_RETRY_AFTER_S))
            }
            _ => None,
        }
    }

    /// How many times the breaker has opened (including re-opens after a
    /// failed half-open probe).
    #[must_use]
    pub fn opens(&self) -> u32 {
        self.opens
    }
}

/// Independently keyed circuit breakers sharing one
/// [`ResiliencePolicy`] — the *per-tenant* scope of the resilience
/// layer.
///
/// The breaker inside a pipeline run stays per-run (cross-run state
/// would break replay determinism — see [`CircuitBreaker`]); a job
/// *service* additionally needs fault isolation between tenants at the
/// admission boundary, where one tenant's fault storm must not trip
/// another tenant's breaker. A `BreakerBank` gives every key (tenant)
/// its own [`CircuitBreaker`], created lazily on first touch, behind
/// interior mutability so a shared admission path can consult it with
/// `&self`.
///
/// The bank's clock is whatever the caller feeds it — an admission
/// layer typically uses wall seconds since service start, because
/// admission verdicts are inherently schedule-dependent (they depend
/// on what else is in flight) and are therefore *outside* the
/// deterministic replay surface.
#[derive(Debug)]
pub struct BreakerBank {
    policy: ResiliencePolicy,
    slots: std::sync::Mutex<std::collections::HashMap<String, CircuitBreaker>>,
}

impl BreakerBank {
    /// An empty bank; every key's breaker starts closed with `policy`'s
    /// threshold and cooldown.
    #[must_use]
    pub fn new(policy: ResiliencePolicy) -> BreakerBank {
        BreakerBank {
            policy,
            slots: std::sync::Mutex::new(std::collections::HashMap::new()),
        }
    }

    /// The policy every keyed breaker is built from.
    #[must_use]
    pub fn policy(&self) -> &ResiliencePolicy {
        &self.policy
    }

    fn with<T>(&self, key: &str, f: impl FnOnce(&mut CircuitBreaker) -> T) -> T {
        let mut slots = self
            .slots
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let breaker = slots
            .entry(key.to_string())
            .or_insert_with(|| CircuitBreaker::new(&self.policy));
        f(breaker)
    }

    /// Whether `key` may proceed at time `now`
    /// ([`CircuitBreaker::try_acquire`] on `key`'s breaker).
    pub fn try_acquire(&self, key: &str, now: f64) -> bool {
        self.with(key, |b| b.try_acquire(now))
    }

    /// Records a success for `key` ([`CircuitBreaker::on_success`]).
    pub fn on_success(&self, key: &str) {
        self.with(key, CircuitBreaker::on_success);
    }

    /// Records a failure for `key` at time `now`
    /// ([`CircuitBreaker::on_failure`]).
    pub fn on_failure(&self, key: &str, now: f64) {
        self.with(key, |b| b.on_failure(now));
    }

    /// Seconds until `key`'s open breaker admits a probe; `None` while
    /// it accepts calls ([`CircuitBreaker::retry_after_s`]).
    #[must_use]
    pub fn retry_after_s(&self, key: &str, now: f64) -> Option<f64> {
        self.with(key, |b| b.retry_after_s(now))
    }

    /// How many times `key`'s breaker has opened.
    #[must_use]
    pub fn opens(&self, key: &str) -> u32 {
        self.with(key, |b| b.opens())
    }

    /// `true` while `key`'s breaker rejects calls at time `now`. Unlike
    /// the other accessors this never creates a slot — an unknown key
    /// is trivially closed.
    #[must_use]
    pub fn is_open(&self, key: &str, now: f64) -> bool {
        self.slots
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(key)
            .is_some_and(|b| b.is_open(now))
    }

    /// Drops `key`'s breaker slot (if any), forgetting its state. Used
    /// by admission layers that evict idle scopes to bound memory
    /// against unbounded key churn.
    pub fn remove(&self, key: &str) {
        self.slots
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .remove(key);
    }

    /// Number of keys that have touched the bank.
    #[must_use]
    pub fn scopes(&self) -> usize {
        self.slots
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }
}

/// Per-run resilience counters, surfaced on
/// [`RunResult`](crate::RunResult) and aggregated by the evaluation
/// harness. All-zero when no fault fired, so fault-free telemetry is
/// unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResilienceCounters {
    /// Transport faults observed (timeouts, rate limits).
    pub llm_faults: u32,
    /// Retry attempts performed after a transport fault.
    pub retries: u32,
    /// Modeled seconds spent in backoff waits.
    pub backoff_s: f64,
    /// Times the circuit breaker opened (incl. re-opens).
    pub breaker_opens: u32,
    /// Degradation events: exhausted retries, open-breaker rejections,
    /// or unusable generations the pipeline gave up on.
    pub degraded: u32,
    /// Simulations aborted by a kernel watchdog
    /// ([`aivril_eda::SimDiverged`]).
    pub sim_diverged: u32,
}

impl ResilienceCounters {
    /// `true` when any counter is nonzero.
    #[must_use]
    pub fn any(&self) -> bool {
        self.llm_faults > 0
            || self.retries > 0
            || self.backoff_s > 0.0
            || self.breaker_opens > 0
            || self.degraded > 0
            || self.sim_diverged > 0
    }

    /// Accumulates `other` into `self` (harness aggregation).
    pub fn merge(&mut self, other: &ResilienceCounters) {
        self.llm_faults += other.llm_faults;
        self.retries += other.retries;
        self.backoff_s += other.backoff_s;
        self.breaker_opens += other.breaker_opens;
        self.degraded += other.degraded;
        self.sim_diverged += other.sim_diverged;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pinned jitter: backoff waits reach the modeled clock and so
    /// every faulted run's latencies.
    #[test]
    fn golden_backoff_values() {
        let p = ResiliencePolicy::default();
        let got = [
            p.backoff_s(0, "generate testbench", 0).to_bits(),
            p.backoff_s(9, "revise RTL", 2).to_bits(),
            p.backoff_s(u64::MAX, "", 16).to_bits(),
        ];
        assert_eq!(
            got,
            [
                4602298320403618933,
                4609486205955813051,
                4625775785773121172
            ]
        );
    }

    #[test]
    fn backoff_is_deterministic_capped_and_growing() {
        let p = ResiliencePolicy::default();
        for attempt in 0..8 {
            let a = p.backoff_s(7, "generate RTL", attempt);
            let b = p.backoff_s(7, "generate RTL", attempt);
            assert_eq!(a.to_bits(), b.to_bits(), "attempt {attempt}");
            let window = (p.backoff_base_s * 2f64.powi(attempt as i32)).min(p.backoff_cap_s);
            assert!(a >= window / 2.0 && a <= window, "attempt {attempt}: {a}");
            assert!(a <= p.backoff_cap_s);
        }
        // Different seeds and ops jitter differently somewhere.
        let differs =
            (0..32).any(|s| p.backoff_s(s, "a", 1).to_bits() != p.backoff_s(s, "b", 1).to_bits());
        assert!(differs);
    }

    #[test]
    fn breaker_opens_after_threshold_and_probes_half_open() {
        let policy = ResiliencePolicy {
            breaker_threshold: 3,
            breaker_cooldown_s: 10.0,
            ..ResiliencePolicy::default()
        };
        let mut b = CircuitBreaker::new(&policy);
        for t in 0..3 {
            assert!(b.try_acquire(t as f64));
            b.on_failure(t as f64);
        }
        assert_eq!(b.opens(), 1);
        assert!(b.is_open(2.5));
        assert!(!b.try_acquire(5.0), "cooldown not elapsed");
        // After the cooldown, exactly one half-open probe is admitted.
        assert!(b.try_acquire(13.0));
        assert!(
            !b.try_acquire(13.5),
            "second acquire while the probe is in flight must be rejected"
        );
        b.on_failure(13.0);
        assert_eq!(b.opens(), 2, "failed probe re-opens");
        assert!(!b.try_acquire(20.0));
        assert!(b.try_acquire(24.0));
        b.on_success();
        assert!(b.try_acquire(24.0), "closed after successful probe");
        assert_eq!(b.opens(), 2);
    }

    /// Regression: an infinite (or enormous) cooldown used to leak
    /// `inf` out of `retry_after_s`, which serializers then printed as
    /// a non-JSON `inf` token. The hint must always be a non-negative
    /// finite number.
    #[test]
    fn retry_after_hints_are_finite_and_non_negative() {
        for cooldown in [f64::INFINITY, 1e300, 10.0] {
            let policy = ResiliencePolicy {
                breaker_threshold: 1,
                breaker_cooldown_s: cooldown,
                ..ResiliencePolicy::default()
            };
            let mut b = CircuitBreaker::new(&policy);
            b.on_failure(0.0);
            let hint = b.retry_after_s(1.0).expect("open breaker hints");
            assert!(hint.is_finite(), "cooldown {cooldown}: {hint}");
            assert!((0.0..=MAX_RETRY_AFTER_S).contains(&hint), "{hint}");
        }
        // A closed breaker still hints nothing.
        let b = CircuitBreaker::new(&ResiliencePolicy::default());
        assert_eq!(b.retry_after_s(0.0), None);
    }

    /// Regression (review): `HalfOpen` used to admit *every* call, so a
    /// burst arriving the moment a cooldown lapsed all went through
    /// before the first probe reported. Now the state admits one probe
    /// and rejects the rest until the probe's outcome arrives.
    #[test]
    fn half_open_admits_exactly_one_probe() {
        let policy = ResiliencePolicy {
            breaker_threshold: 1,
            breaker_cooldown_s: 10.0,
            ..ResiliencePolicy::default()
        };
        let mut b = CircuitBreaker::new(&policy);
        b.on_failure(0.0);
        assert!(b.try_acquire(15.0), "cooldown lapsed: probe admitted");
        for t in [15, 16, 17] {
            assert!(!b.try_acquire(t as f64), "burst behind the probe waits");
        }
        b.on_success();
        assert!(b.try_acquire(18.0), "successful probe closes the breaker");
        assert!(b.try_acquire(18.0), "closed state admits everyone again");
        // A failed probe re-opens and restarts the cycle.
        b.on_failure(20.0);
        assert!(b.try_acquire(31.0));
        assert!(!b.try_acquire(31.0));
        b.on_failure(31.0);
        assert!(!b.try_acquire(32.0), "failed probe re-opened the breaker");
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let policy = ResiliencePolicy {
            breaker_threshold: 2,
            ..ResiliencePolicy::default()
        };
        let mut b = CircuitBreaker::new(&policy);
        b.on_failure(0.0);
        b.on_success();
        b.on_failure(1.0);
        assert!(b.try_acquire(1.0), "streak was reset; still closed");
        assert_eq!(b.opens(), 0);
    }

    #[test]
    fn retry_after_tracks_the_open_window() {
        let policy = ResiliencePolicy {
            breaker_threshold: 1,
            breaker_cooldown_s: 10.0,
            ..ResiliencePolicy::default()
        };
        let mut b = CircuitBreaker::new(&policy);
        assert_eq!(b.retry_after_s(0.0), None, "closed breaker has no wait");
        b.on_failure(5.0);
        assert_eq!(b.retry_after_s(5.0), Some(10.0));
        assert_eq!(b.retry_after_s(12.0), Some(3.0));
        assert_eq!(b.retry_after_s(15.0), None, "cooldown elapsed");
    }

    #[test]
    fn breaker_bank_isolates_keys() {
        let bank = BreakerBank::new(ResiliencePolicy {
            breaker_threshold: 2,
            breaker_cooldown_s: 60.0,
            ..ResiliencePolicy::default()
        });
        // A fault storm on `noisy` opens only `noisy`'s breaker.
        bank.on_failure("noisy", 0.0);
        bank.on_failure("noisy", 1.0);
        assert!(!bank.try_acquire("noisy", 2.0));
        assert_eq!(bank.opens("noisy"), 1);
        assert!(bank.retry_after_s("noisy", 2.0).unwrap() > 0.0);
        assert!(bank.try_acquire("quiet", 2.0), "other tenants unaffected");
        assert_eq!(bank.opens("quiet"), 0);
        assert_eq!(bank.retry_after_s("quiet", 2.0), None);
        assert_eq!(bank.scopes(), 2);
        // `noisy` recovers through its own half-open probe.
        assert!(bank.try_acquire("noisy", 70.0));
        bank.on_success("noisy");
        assert!(bank.try_acquire("noisy", 70.0));
    }

    #[test]
    fn counters_merge_and_report_activity() {
        let mut a = ResilienceCounters::default();
        assert!(!a.any());
        let b = ResilienceCounters {
            retries: 2,
            backoff_s: 1.5,
            ..ResilienceCounters::default()
        };
        a.merge(&b);
        a.merge(&b);
        assert!(a.any());
        assert_eq!(a.retries, 4);
        assert!((a.backoff_s - 3.0).abs() < 1e-12);
    }
}
