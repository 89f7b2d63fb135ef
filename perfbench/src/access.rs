//! The load generator's transport: captures rendered from the live world
//! before a cycle, served to the monitor through `ParallelAccess`.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

use mantra_core::aggregate::ParallelAccess;
use mantra_core::CaptureError;
use mantra_net::SimTime;
use mantra_router_cli::TableKind;
use mantra_sim::Simulation;

type Slot = Mutex<Option<Result<String, CaptureError>>>;

/// One cycle's captures, rendered ahead of time. A successful capture is
/// handed out once (moved, not copied); a failed one answers every
/// attempt, so retries behave as they would against the live world.
pub struct Prerendered {
    at: SimTime,
    index: HashMap<String, usize>,
    slots: Vec<[Slot; 5]>,
    /// Rendered text bytes.
    pub bytes: u64,
    /// CPU time the render workers spent.
    pub cpu: Duration,
}

impl Prerendered {
    /// Renders every table of every router in `routers` at `at`, through
    /// the world's own `ParallelAccess`, on `workers` threads.
    pub fn render(sim: &Simulation, routers: &[String], at: SimTime, workers: usize) -> Self {
        let chunk = routers.len().div_ceil(workers.max(1)).max(1);
        let mut cpu = Duration::ZERO;
        let mut slots: Vec<[Slot; 5]> = Vec::with_capacity(routers.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = routers
                .chunks(chunk)
                .map(|part| {
                    scope.spawn(move || {
                        let t0 = crate::cpu::thread();
                        let rendered = part
                            .iter()
                            .map(|r| {
                                TableKind::ALL
                                    .map(|kind| Mutex::new(Some(sim.capture(r, kind, at))))
                            })
                            .collect::<Vec<_>>();
                        (rendered, crate::cpu::thread() - t0)
                    })
                })
                .collect();
            for h in handles {
                let (rendered, spent) = h.join().expect("render worker panicked");
                slots.extend(rendered);
                cpu += spent;
            }
        });
        let bytes = slots
            .iter()
            .flatten()
            .map(|s| match &*s.lock().expect("fresh slot") {
                Some(Ok(text)) => text.len() as u64,
                _ => 0,
            })
            .sum();
        let index = routers
            .iter()
            .enumerate()
            .map(|(i, r)| (r.clone(), i))
            .collect();
        Prerendered {
            at,
            index,
            slots,
            bytes,
            cpu,
        }
    }

    /// Successful captures never handed out — nonzero means the monitor
    /// skipped a table the generator prepared.
    pub fn unclaimed(&self) -> usize {
        self.slots
            .iter()
            .flatten()
            .filter(|s| matches!(&*s.lock().expect("slot lock"), Some(Ok(_))))
            .count()
    }
}

impl ParallelAccess for Prerendered {
    fn capture(
        &self,
        router: &str,
        table: TableKind,
        now: SimTime,
    ) -> Result<String, CaptureError> {
        if now != self.at {
            return Err(CaptureError::LoginFailed(format!(
                "capture for {} asked of a cycle rendered at {}",
                now.iso8601(),
                self.at.iso8601()
            )));
        }
        let Some(&i) = self.index.get(router) else {
            return Err(CaptureError::UnknownRouter(router.to_string()));
        };
        let mut slot = self.slots[i][table.index()]
            .lock()
            .expect("capture slot poisoned");
        match slot.take() {
            Some(Ok(text)) => Ok(text),
            Some(Err(e)) => {
                *slot = Some(Err(e.clone()));
                Err(e)
            }
            None => Err(CaptureError::LoginFailed(format!(
                "{router} {} captured twice in one cycle",
                table.label()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::{World, DAEMON_REPLICA};

    #[test]
    fn captures_are_the_live_text_handed_out_once() {
        let mut world = World::build(&DAEMON_REPLICA, 5);
        let now = world.cycle_at(1);
        world.sc.sim.advance_to(now);
        let pre = Prerendered::render(&world.sc.sim, &world.routers, now, 2);
        assert!(pre.bytes > 0);
        for r in &world.routers {
            for kind in TableKind::ALL {
                let live = world.sc.sim.capture(r, kind, now);
                assert_eq!(pre.capture(r, kind, now), live, "{r} {kind:?}");
                // A second read of the same table is refused, loudly.
                assert!(pre.capture(r, kind, now).is_err());
            }
        }
        assert_eq!(pre.unclaimed(), 0);
        assert!(matches!(
            pre.capture("nowhere", TableKind::ALL[0], now),
            Err(CaptureError::UnknownRouter(_))
        ));
        assert!(pre
            .capture(&world.routers[0], TableKind::ALL[0], world.cycle_at(2))
            .is_err());
    }
}
