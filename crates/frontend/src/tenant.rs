//! Per-tenant traffic contracts.

use afa_workload::ArrivalProcess;

use crate::slo::SloTarget;

/// One tenant's contract with the frontend: how its requests arrive,
/// how much it may send, how much may queue, its dequeue weight, and
/// the latency SLO it is judged against.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Short stable name used in reports ("latency", "bursty", …).
    pub name: &'static str,
    /// Open-loop arrival process.
    pub process: ArrivalProcess,
    /// Token-bucket admission rate, requests per second; `None`
    /// disables rate limiting for this tenant.
    pub rate_limit: Option<f64>,
    /// Token-bucket burst capacity (requests), when rate-limited.
    pub burst: f64,
    /// Bounded admission-queue capacity (requests).
    pub queue_cap: usize,
    /// Weighted-dequeue share relative to other tenants.
    pub weight: u32,
    /// Latency targets this tenant is judged against.
    pub slo: SloTarget,
}

impl TenantSpec {
    /// A tenant with the given name, arrival process and weight, no
    /// rate limit, a 64-deep queue, and the default SLO.
    pub fn new(name: &'static str, process: ArrivalProcess, weight: u32) -> Self {
        process.validate();
        assert!(weight > 0, "tenant weight must be positive");
        TenantSpec {
            name,
            process,
            rate_limit: None,
            burst: 1.0,
            queue_cap: 64,
            weight,
            slo: SloTarget::default_read(),
        }
    }

    /// Adds a token-bucket rate limit.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive rate or a burst below one request.
    pub fn rate_limited(mut self, rate_per_sec: f64, burst: f64) -> Self {
        assert!(rate_per_sec > 0.0, "rate limit must be positive");
        assert!(burst >= 1.0, "burst must allow at least one request");
        self.rate_limit = Some(rate_per_sec);
        self.burst = burst;
        self
    }

    /// Sets the admission-queue capacity.
    ///
    /// # Panics
    ///
    /// Panics if zero.
    pub fn queue_capacity(mut self, cap: usize) -> Self {
        assert!(cap > 0, "queue capacity must be positive");
        self.queue_cap = cap;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_composes() {
        let t = TenantSpec::new("latency", ArrivalProcess::Poisson { rate: 2_000.0 }, 4)
            .rate_limited(2_500.0, 8.0)
            .queue_capacity(32);
        assert_eq!(t.name, "latency");
        assert_eq!(t.weight, 4);
        assert_eq!(t.rate_limit, Some(2_500.0));
        assert_eq!(t.queue_cap, 32);
    }

    #[test]
    #[should_panic(expected = "weight")]
    fn zero_weight_rejected() {
        TenantSpec::new("x", ArrivalProcess::Poisson { rate: 1.0 }, 0);
    }
}
