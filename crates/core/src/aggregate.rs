//! The router transport.
//!
//! The paper's Mantra launched one expect session per router; its
//! conclusion announces work "to enhance Mantra such that it can not only
//! collect data from multiple routers concurrently, but also aggregate
//! different data sets and generate combined results in real-time".
//! [`ParallelAccess`] is the one transport every cycle captures through:
//! captures take `&self`, so one handle serves every router task of a
//! cycle, whether the cycle runs inline or fans routers out across
//! threads, for a [`Monitor`](crate::monitor::Monitor) and a
//! [`FleetMonitor`](crate::fleet::FleetMonitor) alike. The fleet is where
//! the announced aggregation lives: it merges its shards' per-router
//! outputs into one global view.

use mantra_net::SimTime;
use mantra_router_cli::TableKind;

use crate::collector::CaptureError;

/// Anything Mantra can collect router tables through. Captures take
/// `&self`: real deployments open one session per router in parallel, so
/// the access layer cannot be a single mutable session.
pub trait ParallelAccess: Sync {
    /// Captures the raw text of `table` from the named router.
    fn capture(&self, router: &str, table: TableKind, now: SimTime)
        -> Result<String, CaptureError>;
}

/// Shared references forward, so decorators like
/// [`FlakyAccess`](crate::collector::FlakyAccess) can wrap a borrowed
/// transport.
impl<P: ParallelAccess + ?Sized> ParallelAccess for &P {
    fn capture(
        &self,
        router: &str,
        table: TableKind,
        now: SimTime,
    ) -> Result<String, CaptureError> {
        (**self).capture(router, table, now)
    }
}

/// The simulator-backed transport: resolves router names against the
/// simulation's topology and renders the live CLI text. The simulator is
/// immutable during capture, so a shared reference is a parallel access.
impl ParallelAccess for mantra_sim::Simulation {
    fn capture(
        &self,
        router: &str,
        table: TableKind,
        now: SimTime,
    ) -> Result<String, CaptureError> {
        let id = self
            .net
            .topo
            .router_by_name(router)
            .map(|r| r.id)
            .ok_or_else(|| CaptureError::UnknownRouter(router.to_string()))?;
        if !self.net.topo.is_active(id) {
            // A churned-out router answers like one that is powered off:
            // the login never succeeds. Transient, so the retry policy
            // still runs (deterministically) and the cycle records a
            // missed router rather than an unknown one.
            return Err(CaptureError::LoginFailed(format!(
                "router {router} is offline"
            )));
        }
        Ok(mantra_router_cli::render(&self.net, id, table, now))
    }
}
