use pico_runtime::RuntimeError;
use pico_sim::RejectReason;

/// Why the serving front-end turned a request away or stopped.
///
/// `#[non_exhaustive]`: downstream matches need a wildcard arm so new
/// rejection kinds can be added without a breaking release.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// The tenant's bounded queue is full — backpressure, try later.
    QueueFull {
        /// Rejected tenant.
        tenant: usize,
        /// The queue bound that was hit.
        capacity: usize,
    },
    /// Admitting would exceed the tenant's in-flight budget.
    TenantOverBudget {
        /// Rejected tenant.
        tenant: usize,
        /// The budget that was hit.
        budget: usize,
    },
    /// The request names a tenant the front-end was not configured for.
    UnknownTenant {
        /// The offending tenant id.
        tenant: usize,
        /// How many tenants are configured.
        tenants: usize,
    },
    /// The submitted tensor does not have the model's input shape; the
    /// task was not admitted.
    BadInput {
        /// The submitting tenant.
        tenant: usize,
        /// The expected and the offered shape.
        detail: String,
    },
    /// A warm swap was refused by the switch-pair audit
    /// (PA305–PA307); serving continues on the current plan.
    SwapRejected {
        /// Messages of the blocking audit errors.
        errors: Vec<String>,
    },
    /// The serving configuration has violations (audit code PA401).
    InvalidConfig {
        /// One sentence per problem.
        violations: Vec<String>,
    },
    /// Building a plan for a scripted replay failed.
    Planning {
        /// The planner's error, rendered.
        detail: String,
    },
    /// The front-end has shut down (or is shutting down) and accepts
    /// no further work.
    Closed,
    /// The pipeline itself failed while executing a batch.
    Runtime(RuntimeError),
}

impl ServeError {
    /// Maps a policy-level [`RejectReason`] onto the tenant it hit.
    pub fn from_reject(tenant: usize, reason: RejectReason) -> Self {
        match reason {
            RejectReason::QueueFull { capacity } => ServeError::QueueFull { tenant, capacity },
            RejectReason::OverBudget { budget } => ServeError::TenantOverBudget { tenant, budget },
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull { tenant, capacity } => {
                write!(f, "tenant {tenant}: queue full ({capacity} waiting)")
            }
            ServeError::TenantOverBudget { tenant, budget } => {
                write!(f, "tenant {tenant}: in-flight budget {budget} exhausted")
            }
            ServeError::UnknownTenant { tenant, tenants } => {
                write!(f, "unknown tenant {tenant} (configured: 0..{tenants})")
            }
            ServeError::BadInput { tenant, detail } => {
                write!(f, "tenant {tenant}: bad input: {detail}")
            }
            ServeError::SwapRejected { errors } => {
                write!(f, "warm swap rejected by audit: {}", errors.join("; "))
            }
            ServeError::InvalidConfig { violations } => {
                write!(f, "invalid serve config: {}", violations.join("; "))
            }
            ServeError::Planning { detail } => write!(f, "replay planning failed: {detail}"),
            ServeError::Closed => write!(f, "serving front-end is closed"),
            ServeError::Runtime(e) => write!(f, "pipeline failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Runtime(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RuntimeError> for ServeError {
    fn from(e: RuntimeError) -> Self {
        ServeError::Runtime(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reject_reason_maps_to_typed_errors() {
        assert_eq!(
            ServeError::from_reject(2, RejectReason::QueueFull { capacity: 4 }),
            ServeError::QueueFull {
                tenant: 2,
                capacity: 4
            }
        );
        assert_eq!(
            ServeError::from_reject(0, RejectReason::OverBudget { budget: 9 }),
            ServeError::TenantOverBudget {
                tenant: 0,
                budget: 9
            }
        );
    }

    #[test]
    fn display_is_informative() {
        let e = ServeError::QueueFull {
            tenant: 1,
            capacity: 8,
        };
        assert!(e.to_string().contains("tenant 1"));
        assert!(e.to_string().contains('8'));
    }
}
