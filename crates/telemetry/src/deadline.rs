//! Cooperative job deadlines: a `Copy` wall-clock budget that rides
//! inside the stack's by-value option structs (`VcOptions`,
//! `LownerOptions`) exactly like [`crate::Tracer`] does.
//!
//! A [`Deadline`] is `Option<Instant>` behind a newtype. The default
//! ([`Deadline::NONE`]) never expires and costs one branch to check, so
//! un-deadlined verification pays nothing. Checks happen cooperatively
//! at statement and solver-obligation boundaries — there is no
//! preemption, only prompt voluntary unwinding into a structured
//! `TIMEOUT` verdict.
//!
//! `Debug` is deliberately constant (`"Deadline"`): the verdict cache
//! key hashes the solver options through their `Debug` rendering, and a
//! key that varied with each job's wall-clock budget would silently
//! partition the verdict cache per job.

use std::time::{Duration, Instant};

/// A `Copy` cooperative deadline; see the module docs.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct Deadline(Option<Instant>);

/// Constant rendering: cache context keys hash option structs through
/// `Debug`, and must not depend on a job's wall-clock budget.
impl std::fmt::Debug for Deadline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Deadline")
    }
}

impl Deadline {
    /// The never-expiring deadline (the `Default`).
    pub const NONE: Deadline = Deadline(None);

    /// A deadline `budget` from now.
    pub fn after(budget: Duration) -> Deadline {
        Deadline(Instant::now().checked_add(budget))
    }

    /// A deadline at an absolute instant.
    pub fn at(instant: Instant) -> Deadline {
        Deadline(Some(instant))
    }

    /// `true` when a budget is armed (even if already expired).
    pub fn armed(&self) -> bool {
        self.0.is_some()
    }

    /// `true` once the budget is exhausted. Never `true` for
    /// [`Deadline::NONE`].
    pub fn expired(&self) -> bool {
        self.0.is_some_and(|t| Instant::now() >= t)
    }

    /// Time left on the budget: `None` when unarmed, zero when expired.
    pub fn remaining(&self) -> Option<Duration> {
        self.0.map(|t| t.saturating_duration_since(Instant::now()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_expires_and_renders_constant() {
        let d = Deadline::NONE;
        assert!(!d.armed());
        assert!(!d.expired());
        assert_eq!(d.remaining(), None);
        assert_eq!(format!("{d:?}"), "Deadline");
        assert_eq!(Deadline::default(), Deadline::NONE);
    }

    #[test]
    fn armed_deadlines_expire_and_report_remaining() {
        let far = Deadline::after(Duration::from_secs(3600));
        assert!(far.armed());
        assert!(!far.expired());
        assert!(far.remaining().unwrap() > Duration::from_secs(3000));
        // Debug stays constant regardless of the instant.
        assert_eq!(format!("{far:?}"), "Deadline");

        let past = Deadline::at(Instant::now() - Duration::from_millis(1));
        assert!(past.expired());
        assert_eq!(past.remaining(), Some(Duration::ZERO));

        let zero = Deadline::after(Duration::ZERO);
        assert!(zero.expired());
    }
}
