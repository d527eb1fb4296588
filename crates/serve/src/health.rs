//! Per-shard health tracking: a circuit breaker in front of each
//! shard's forward pass.
//!
//! Workers report every forward attempt's outcome. After
//! [`BreakerConfig::failure_threshold`] *consecutive* failures the
//! breaker **opens**: attempts are denied (the engine degrades the
//! shard's rows instead of computing them) until
//! [`BreakerConfig::cooldown`] has elapsed, at which point exactly one
//! batch is admitted as a **half-open probe**. A successful probe
//! closes the breaker; a failed probe re-opens it for another
//! cooldown. Sporadic failures below the threshold never open the
//! breaker — each success resets the consecutive-failure count.
//!
//! ```text
//!            R consecutive failures
//!   Closed ───────────────────────────▶ Open (deny until t+cooldown)
//!     ▲                                   │ cooldown elapsed
//!     │ probe succeeds                    ▼
//!     └─────────────────────────────── HalfOpen (admit one probe)
//!                                         │ probe fails
//!                                         └────▶ Open again
//! ```

use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Circuit-breaker tuning.
#[derive(Clone, Copy, Debug)]
pub struct BreakerConfig {
    /// Consecutive forward failures that trip the breaker (R).
    pub failure_threshold: u32,
    /// How long an open breaker denies attempts before admitting a
    /// half-open probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self { failure_threshold: 3, cooldown: Duration::from_millis(250) }
    }
}

/// The verdict for one batch's forward attempt against a shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// The shard is believed healthy — run the forward pass.
    Allow,
    /// The breaker is open (or a probe is already in flight) — skip
    /// the forward pass and degrade the shard's rows.
    Deny,
}

#[derive(Clone, Copy, Debug)]
enum State {
    Closed {
        consecutive_failures: u32,
    },
    Open {
        until: Instant,
    },
    /// One probe admitted, result pending.
    HalfOpen,
}

/// One shard's breaker.
pub struct ShardHealth {
    cfg: BreakerConfig,
    state: Mutex<State>,
}

impl ShardHealth {
    /// A closed (healthy) breaker.
    pub fn new(cfg: BreakerConfig) -> Self {
        Self { cfg, state: Mutex::new(State::Closed { consecutive_failures: 0 }) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Decides whether a batch may attempt this shard's forward pass
    /// at time `now`. An expired open breaker admits exactly one
    /// caller as the half-open probe; concurrent batches are denied
    /// until that probe reports back.
    pub fn admit(&self, now: Instant) -> Admission {
        let mut state = self.lock();
        match *state {
            State::Closed { .. } => Admission::Allow,
            State::Open { until } if now >= until => {
                *state = State::HalfOpen;
                Admission::Allow
            }
            State::Open { .. } | State::HalfOpen => Admission::Deny,
        }
    }

    /// Reports a successful forward pass: closes the breaker and
    /// resets the consecutive-failure count.
    pub fn record_success(&self) {
        *self.lock() = State::Closed { consecutive_failures: 0 };
    }

    /// Reports a failed forward pass (panic or injected error).
    /// Returns `true` when this failure *opened* the breaker (for the
    /// `breaker_open` counter): the threshold was just reached, or a
    /// half-open probe failed.
    pub fn record_failure(&self, now: Instant) -> bool {
        let mut state = self.lock();
        match *state {
            State::Closed { consecutive_failures } => {
                let failures = consecutive_failures + 1;
                if failures >= self.cfg.failure_threshold {
                    *state = State::Open { until: now + self.cfg.cooldown };
                    true
                } else {
                    *state = State::Closed { consecutive_failures: failures };
                    false
                }
            }
            State::HalfOpen => {
                *state = State::Open { until: now + self.cfg.cooldown };
                true
            }
            // Late failure report while already open: extending the
            // cooldown would let a failure storm starve the probe.
            State::Open { .. } => false,
        }
    }

    /// True while the breaker denies regular traffic (open or probing).
    pub fn is_open(&self) -> bool {
        !matches!(*self.lock(), State::Closed { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn health(threshold: u32, cooldown_ms: u64) -> ShardHealth {
        ShardHealth::new(BreakerConfig {
            failure_threshold: threshold,
            cooldown: Duration::from_millis(cooldown_ms),
        })
    }

    #[test]
    fn failures_below_threshold_stay_closed() {
        let h = health(3, 10);
        let now = Instant::now();
        assert!(!h.record_failure(now));
        assert!(!h.record_failure(now));
        assert!(!h.is_open());
        assert_eq!(h.admit(now), Admission::Allow);
    }

    #[test]
    fn success_resets_the_streak() {
        let h = health(2, 10);
        let now = Instant::now();
        assert!(!h.record_failure(now));
        h.record_success();
        assert!(!h.record_failure(now), "streak must restart after a success");
        assert!(!h.is_open());
    }

    #[test]
    fn threshold_opens_then_cooldown_admits_one_probe() {
        let h = health(2, 50);
        let t0 = Instant::now();
        assert!(!h.record_failure(t0));
        assert!(h.record_failure(t0), "second consecutive failure trips the breaker");
        assert!(h.is_open());
        assert_eq!(h.admit(t0), Admission::Deny);
        let later = t0 + Duration::from_millis(60);
        assert_eq!(h.admit(later), Admission::Allow, "expired breaker admits a probe");
        assert_eq!(h.admit(later), Admission::Deny, "only one probe at a time");
        h.record_success();
        assert!(!h.is_open());
        assert_eq!(h.admit(later), Admission::Allow);
    }

    #[test]
    fn failed_probe_reopens() {
        let h = health(1, 50);
        let t0 = Instant::now();
        assert!(h.record_failure(t0));
        let later = t0 + Duration::from_millis(60);
        assert_eq!(h.admit(later), Admission::Allow);
        assert!(h.record_failure(later), "failed probe re-opens the breaker");
        assert_eq!(h.admit(later), Admission::Deny);
    }
}
