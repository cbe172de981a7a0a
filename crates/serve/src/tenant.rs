//! Multi-tenant configuration and per-tenant accounting for the
//! [`crate::FrontDoor`].
//!
//! A *tenant* is a named client population sharing quotas: a cap on
//! requests in flight, an optional per-execution memory carve-out, a
//! weighted-fair-queueing weight, and an optional latency SLO the
//! bench harness asserts isolation against. Tenants not explicitly
//! configured get [`TenancyConfig::default_tenant`].
//!
//! Tenancy can be disabled wholesale ([`TenancyConfig::disabled`]):
//! the front door then skips quota checks, fair queueing, and
//! per-tenant accounting, and the `overhead` bench gates that
//! disabled path at < 2% over calling the executor directly.

use matopt_obs::HistogramSnapshot;
use std::collections::HashMap;

/// Quotas and scheduling parameters for one tenant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantConfig {
    /// Requests (plan or execute) this tenant may have in flight at
    /// once — queued, batched, or running. The next one is rejected
    /// with [`crate::ServeError::QuotaExceeded`].
    pub max_inflight: usize,
    /// Per-execution memory carve-out in bytes (`None` = no explicit
    /// clamp beyond the shared pool lease).
    pub mem_bytes: Option<u64>,
    /// Weighted-fair-queueing weight: a tenant with weight 2 drains
    /// its queue twice as fast as a tenant with weight 1 under
    /// contention. Minimum 1.
    pub weight: u32,
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig {
            max_inflight: 64,
            mem_bytes: None,
            weight: 1,
        }
    }
}

/// Front-door tenancy configuration.
#[derive(Debug, Clone)]
pub struct TenancyConfig {
    /// `false` turns the whole tenancy layer off: no quotas, no fair
    /// queueing, no per-tenant bookkeeping (the < 2% overhead path).
    pub enabled: bool,
    /// Quotas for tenants not listed in [`TenancyConfig::tenants`].
    pub default_tenant: TenantConfig,
    /// Explicit per-tenant overrides.
    pub tenants: HashMap<String, TenantConfig>,
}

impl TenancyConfig {
    /// Tenancy off: every request is admitted as the anonymous tenant
    /// with no quota checks.
    #[must_use]
    pub fn disabled() -> Self {
        TenancyConfig {
            enabled: false,
            default_tenant: TenantConfig::default(),
            tenants: HashMap::new(),
        }
    }

    /// Tenancy on with the given default quotas.
    #[must_use]
    pub fn with_default(default_tenant: TenantConfig) -> Self {
        TenancyConfig {
            enabled: true,
            default_tenant,
            tenants: HashMap::new(),
        }
    }

    /// Adds or replaces one tenant's explicit quotas.
    #[must_use]
    pub fn tenant(mut self, name: &str, config: TenantConfig) -> Self {
        self.tenants.insert(name.to_string(), config);
        self
    }

    /// The effective config for `name`.
    #[must_use]
    pub fn for_tenant(&self, name: &str) -> TenantConfig {
        self.tenants
            .get(name)
            .copied()
            .unwrap_or(self.default_tenant)
    }
}

impl Default for TenancyConfig {
    fn default() -> Self {
        TenancyConfig::with_default(TenantConfig::default())
    }
}

/// Point-in-time accounting for one tenant, from
/// [`crate::FrontDoor::tenant_stats`].
#[derive(Debug, Clone)]
pub struct TenantStats {
    /// The tenant's name.
    pub name: String,
    /// The quotas it ran under.
    pub config: TenantConfig,
    /// Requests admitted past the quota check (plan + execute).
    pub requests: u64,
    /// Requests that completed successfully.
    pub ok: u64,
    /// Requests rejected with `QuotaExceeded`.
    pub quota_rejects: u64,
    /// Queued executions shed because their deadline passed.
    pub shed: u64,
    /// Requests that failed (optimizer or executor errors).
    pub errors: u64,
    /// Executions answered from another request's batched run.
    pub batched: u64,
    /// Requests currently in flight.
    pub inflight: usize,
    /// End-to-end latency distribution (microseconds).
    pub latency_us: HistogramSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overrides_fall_back_to_default() {
        let cfg = TenancyConfig::with_default(TenantConfig {
            max_inflight: 8,
            ..Default::default()
        })
        .tenant(
            "vip",
            TenantConfig {
                max_inflight: 128,
                weight: 4,
                ..Default::default()
            },
        );
        assert_eq!(cfg.for_tenant("vip").max_inflight, 128);
        assert_eq!(cfg.for_tenant("vip").weight, 4);
        assert_eq!(cfg.for_tenant("anyone-else").max_inflight, 8);
        assert!(cfg.enabled);
        assert!(!TenancyConfig::disabled().enabled);
    }
}
