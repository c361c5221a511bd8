//! Engine-level scheduling policies: who runs next.
//!
//! The executor treats the ready frontier as a policy question with one answer
//! per dispatch: which ready action a free worker takes next. Two policies ship:
//!
//! * [`Fifo`] — the default: one shared lane, dispatched in readiness order. This
//!   is the schedule the engine has always produced.
//! * [`WeightedFair`] — the multi-tenant policy: one FIFO lane per tenant and
//!   fair queuing across them (each dispatch advances the tenant's virtual
//!   clock by one; the lane with the lowest clock dispatches next), so one
//!   flooding tenant cannot monopolise the pool.
//!
//! Every tenant has the same weight. How *much* runs at once is not a policy
//! question either: the pool's width is the engine's worker count, and a
//! tenant's footprint is bounded at admission by
//! [`ServiceLimits`](crate::service::ServiceLimits).
//!
//! Policies change *when* actions run, never *what* they produce: artifacts stay
//! byte-identical under every policy (the schedule-independence property tests
//! cover this), and the chosen policy plus its observable effects — dispatch order,
//! per-kind and per-tenant queue-wait — are recorded in the run's
//! [`ActionTrace`](crate::engine::ActionTrace).

#![deny(clippy::unwrap_used, clippy::dbg_macro)]

/// The engine's scheduling policy: the dispatch order of its ready queue.
///
/// Callers pass the unit values [`Fifo`] or [`WeightedFair`], which convert
/// into it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SchedulingPolicy {
    /// One shared lane in readiness order (see [`Fifo`]).
    #[default]
    Fifo,
    /// One lane per tenant, fair queuing across them (see [`WeightedFair`]).
    WeightedFair,
}

impl SchedulingPolicy {
    /// Stable policy name, recorded in [`ActionTrace::policy`](crate::engine::ActionTrace::policy).
    pub fn name(self) -> &'static str {
        match self {
            SchedulingPolicy::Fifo => "fifo",
            SchedulingPolicy::WeightedFair => "weighted-fair",
        }
    }
}

/// The default policy: dispatch ready actions in readiness order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fifo;

impl From<Fifo> for SchedulingPolicy {
    fn from(_: Fifo) -> Self {
        SchedulingPolicy::Fifo
    }
}

/// Fair queuing across tenants.
///
/// The executor keeps one ready-queue lane per tenant and a virtual clock per
/// lane: each dispatched action advances its lane's clock by one, and a free
/// worker always dispatches from the lane with the lowest clock. Tenants with
/// work queued therefore take turns — a tenant that floods the queue cannot
/// starve the others, because its lane's clock races ahead. Idle tenants
/// re-enter at the current clock instead of replaying banked credit.
///
/// Like every policy, fairness changes *when* actions run, never what they
/// produce: images stay byte-identical under FIFO and fair scheduling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WeightedFair;

impl WeightedFair {
    /// Fair queuing across tenants.
    pub fn new() -> Self {
        Self
    }
}

impl From<WeightedFair> for SchedulingPolicy {
    fn from(_: WeightedFair) -> Self {
        SchedulingPolicy::WeightedFair
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_is_unbounded_and_unit_cost() {
        assert_eq!(SchedulingPolicy::default(), SchedulingPolicy::from(Fifo));
        assert_eq!(SchedulingPolicy::from(Fifo).name(), "fifo");
        assert_eq!(
            SchedulingPolicy::from(WeightedFair::new()).name(),
            "weighted-fair"
        );
    }
}
