//! Engine-level scheduling policies: who runs next.
//!
//! The executor treats the ready frontier as a policy question with one answer
//! per dispatch: which ready action a free worker takes next. Two policies ship:
//!
//! * [`Fifo`] — the default: one shared lane, dispatched in readiness order. This
//!   is the schedule the engine has always produced.
//! * [`WeightedFair`] — the multi-tenant policy: one FIFO lane per tenant and
//!   weighted fair queuing across them (each dispatch charges the tenant's
//!   virtual clock inversely to its weight; the lane with the lowest clock
//!   dispatches next), so one flooding tenant cannot monopolise the pool.
//!
//! How *much* runs at once is not a policy question: the pool's width is the
//! engine's worker count, and a tenant's footprint is bounded at admission by
//! [`ServiceLimits`](crate::service::ServiceLimits).
//!
//! Policies change *when* actions run, never *what* they produce: artifacts stay
//! byte-identical under every policy (the schedule-independence property tests
//! cover this), and the chosen policy plus its observable effects — dispatch order,
//! per-kind and per-tenant queue-wait — are recorded in the run's
//! [`ActionTrace`](crate::engine::ActionTrace).

#![deny(clippy::unwrap_used, clippy::dbg_macro)]
use std::collections::BTreeMap;
use std::fmt;

/// A pluggable scheduling policy for the engine's ready queue.
///
/// Implementations must be cheap: the executor consults the policy once per
/// tenant lane it opens and holds the ready lock while doing so.
pub trait SchedulingPolicy: Send + Sync + fmt::Debug {
    /// Stable policy name, recorded in [`ActionTrace::policy`](crate::engine::ActionTrace::policy).
    fn name(&self) -> &str;

    /// Whether the executor should keep one ready-queue lane per tenant and
    /// dispatch by weighted fair queuing across them (`true`), instead of one
    /// shared lane in submission order (`false`).
    fn fair_queuing(&self) -> bool {
        false
    }

    /// Relative scheduling weight of `tenant` under fair queuing (a tenant with
    /// weight 2 is dispatched from twice as often as one with weight 1 when both
    /// have work queued). `tenant` is `None` for untenanted submissions. A weight
    /// of **zero is invalid** ([`PolicyError::ZeroWeight`]); the executor clamps
    /// it to one rather than starve the lane.
    fn tenant_weight(&self, _tenant: Option<&str>) -> u64 {
        1
    }

    /// Check the policy for configurations the executor cannot honor (currently:
    /// zero tenant weights, which would starve a lane).
    fn validate(&self) -> Result<(), PolicyError> {
        Ok(())
    }
}

/// An invalid scheduling-policy configuration, surfaced as a typed error by the
/// orchestrator before any action runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyError {
    /// The policy assigns a tenant a fair-queuing weight of zero, which would
    /// starve the tenant's lane forever.
    ZeroWeight {
        /// The tenant with the zero weight (empty for the default weight).
        tenant: String,
    },
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyError::ZeroWeight { tenant } => {
                write!(
                    f,
                    "scheduling policy assigns tenant `{tenant}` a fair-queuing weight \
                     of zero; a weight must be at least 1"
                )
            }
        }
    }
}

impl std::error::Error for PolicyError {}

/// The default policy: dispatch ready actions in readiness order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fifo;

impl SchedulingPolicy for Fifo {
    fn name(&self) -> &str {
        "fifo"
    }
}

/// Weighted fair queuing across tenants.
///
/// The executor keeps one ready-queue lane per tenant and a virtual clock per
/// lane: each dispatched action advances its lane's clock by `1 / weight`, and a
/// free worker always dispatches from the lane with the lowest clock. A tenant
/// with weight 2 therefore receives twice the dispatch share of a weight-1 tenant
/// while both have work queued — and a tenant that floods the queue cannot starve
/// the others, because its lane's clock races ahead. Idle tenants re-enter at the
/// current clock instead of replaying banked credit.
///
/// Like every policy, fairness changes *when* actions run, never what they
/// produce: images stay byte-identical under FIFO and fair scheduling.
#[derive(Debug, Clone)]
pub struct WeightedFair {
    weights: BTreeMap<String, u64>,
    default_weight: u64,
}

impl WeightedFair {
    /// Fair queuing with every tenant at weight 1.
    pub fn new() -> Self {
        Self {
            weights: BTreeMap::new(),
            default_weight: 1,
        }
    }

    /// Give `tenant` a specific scheduling weight (higher = larger dispatch share).
    pub fn with_weight(mut self, tenant: impl Into<String>, weight: u64) -> Self {
        self.weights.insert(tenant.into(), weight);
        self
    }

    /// The weight of tenants without a [`with_weight`](Self::with_weight) entry
    /// (default 1).
    pub fn with_default_weight(mut self, weight: u64) -> Self {
        self.default_weight = weight;
        self
    }
}

impl Default for WeightedFair {
    fn default() -> Self {
        Self::new()
    }
}

impl SchedulingPolicy for WeightedFair {
    fn name(&self) -> &str {
        "weighted-fair"
    }

    fn fair_queuing(&self) -> bool {
        true
    }

    fn tenant_weight(&self, tenant: Option<&str>) -> u64 {
        tenant
            .and_then(|tenant| self.weights.get(tenant).copied())
            .unwrap_or(self.default_weight)
    }

    fn validate(&self) -> Result<(), PolicyError> {
        if self.default_weight == 0 {
            return Err(PolicyError::ZeroWeight {
                tenant: String::new(),
            });
        }
        for (tenant, &weight) in &self.weights {
            if weight == 0 {
                return Err(PolicyError::ZeroWeight {
                    tenant: tenant.clone(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn fifo_is_unbounded_and_unit_cost() {
        let policy = Fifo;
        assert_eq!(policy.name(), "fifo");
        assert!(!policy.fair_queuing());
        assert_eq!(policy.tenant_weight(Some("anyone")), 1);
        assert_eq!(policy.tenant_weight(None), 1);
        assert!(policy.validate().is_ok());
    }

    #[test]
    fn weighted_fair_reports_tenant_weights_and_quotas() {
        let policy = WeightedFair::new()
            .with_weight("gold", 4)
            .with_default_weight(2);
        assert_eq!(policy.name(), "weighted-fair");
        assert!(policy.fair_queuing());
        assert_eq!(policy.tenant_weight(Some("gold")), 4);
        assert_eq!(policy.tenant_weight(Some("anonymous")), 2);
        assert_eq!(policy.tenant_weight(None), 2);
        assert!(policy.validate().is_ok());
    }

    #[test]
    fn weighted_fair_zero_configurations_fail_validation() {
        let zero_weight = WeightedFair::new().with_weight("starved", 0);
        assert_eq!(
            zero_weight.validate().unwrap_err(),
            PolicyError::ZeroWeight {
                tenant: "starved".to_string()
            }
        );
        assert!(zero_weight
            .validate()
            .unwrap_err()
            .to_string()
            .contains("starved"));
        let zero_default = WeightedFair::new().with_default_weight(0);
        assert!(matches!(
            zero_default.validate().unwrap_err(),
            PolicyError::ZeroWeight { .. }
        ));
    }
}
