//! Harness-side interpretation of a scenario's [`FaultPlan`].
//!
//! The plan only *describes* misbehaviour; this module is where the
//! experiment harnesses act it out. Per quantum and per app, the runtime
//! answers two questions:
//!
//! * does the app **execute** this quantum? ([`FaultRuntime::executes`] —
//!   a crashed app stops running and drawing power, everything else keeps
//!   executing);
//! * what telemetry, if any, reaches the platform?
//!   ([`FaultRuntime::report`] — stalls and crashes report nothing,
//!   freezes replay the last pre-fault report, the rest corrupt the
//!   ground truth).
//!
//! The split matters for the metrics: the machine meter and the
//! goal-attainment accumulators always see *physical* truth (what was
//! actually drawn and done), while the coordinator sees only what the
//! faulty app chose to report — which is precisely the gap its watchdog
//! ladder has to detect from the outside.

use workloads::FaultPlan;

/// Interprets one scenario's [`FaultPlan`] over the run, tracking the
/// per-app frozen telemetry [`workloads::FaultKind::FreezeTelemetry`]
/// replays. Construct via [`FaultRuntime::for_plan`]. Under an empty plan
/// every app executes and every report passes through unchanged, so
/// fault-free scenarios need no separate path.
pub(crate) struct FaultRuntime<'a> {
    plan: &'a FaultPlan,
    /// Last pre-fault `(work, power)` report per app, captured while the
    /// app reports honestly and replayed verbatim during a freeze window.
    frozen: Vec<Option<(f64, f64)>>,
}

impl<'a> FaultRuntime<'a> {
    /// A runtime for `plan` over `apps` applications.
    pub(crate) fn for_plan(plan: &'a FaultPlan, apps: usize) -> Self {
        FaultRuntime {
            plan,
            frozen: vec![None; apps],
        }
    }

    /// Whether `app` physically executes (and draws power) at `quantum`.
    pub(crate) fn executes(&self, app: usize, quantum: usize) -> bool {
        self.plan
            .active_fault(app, quantum)
            .is_none_or(|kind| !kind.halts_execution())
    }

    /// The telemetry report the platform receives for `app` at `quantum`,
    /// given the physical `(work, power)` the quantum produced. `None`
    /// means no report arrives at all (stalled pipe, dead app).
    pub(crate) fn report(
        &mut self,
        app: usize,
        quantum: usize,
        work: f64,
        power: f64,
    ) -> Option<(f64, f64)> {
        match self.plan.active_fault(app, quantum) {
            None => {
                self.frozen[app] = Some((work, power));
                Some((work, power))
            }
            Some(kind) => kind.corrupt_telemetry(work, power, self.frozen[app]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{AppFault, FaultKind};

    #[test]
    fn an_empty_plan_executes_every_app_and_passes_reports_through() {
        let plan = FaultPlan::default();
        let mut runtime = FaultRuntime::for_plan(&plan, 3);
        let reports = [
            (10.0, 5.0),
            (0.0, -0.0),
            (f64::MIN_POSITIVE, 1e300),
            (0.1 + 0.2, 7.0 / 3.0),
        ];
        for quantum in [0, 1, 17, usize::MAX] {
            for app in 0..3 {
                assert!(runtime.executes(app, quantum));
                for (work, power) in reports {
                    let (reported_work, reported_power) = runtime
                        .report(app, quantum, work, power)
                        .expect("a fault-free app always reports");
                    assert_eq!(reported_work.to_bits(), work.to_bits());
                    assert_eq!(reported_power.to_bits(), power.to_bits());
                }
            }
        }
    }

    #[test]
    fn freeze_replays_the_last_honest_report() {
        let plan = FaultPlan {
            faults: vec![AppFault {
                app: 0,
                kind: FaultKind::FreezeTelemetry,
                from: 2,
                until: Some(4),
            }],
        };
        let mut runtime = FaultRuntime::for_plan(&plan, 2);
        assert_eq!(runtime.report(0, 0, 10.0, 5.0), Some((10.0, 5.0)));
        assert_eq!(runtime.report(0, 1, 12.0, 6.0), Some((12.0, 6.0)));
        // Frozen: the quantum-1 report replays regardless of ground truth.
        assert_eq!(runtime.report(0, 2, 99.0, 50.0), Some((12.0, 6.0)));
        assert_eq!(runtime.report(0, 3, 1.0, 1.0), Some((12.0, 6.0)));
        // Window closed: honest again, and the frozen value re-tracks.
        assert_eq!(runtime.report(0, 4, 7.0, 3.0), Some((7.0, 3.0)));
        // The untargeted app is untouched throughout.
        assert_eq!(runtime.report(1, 2, 4.0, 2.0), Some((4.0, 2.0)));
        assert!(runtime.executes(0, 2), "freezes keep executing");
    }

    #[test]
    fn crash_halts_execution_and_reports_nothing() {
        let plan = FaultPlan {
            faults: vec![AppFault {
                app: 1,
                kind: FaultKind::Crash,
                from: 1,
                until: None,
            }],
        };
        let mut runtime = FaultRuntime::for_plan(&plan, 2);
        assert!(runtime.executes(1, 0));
        assert!(!runtime.executes(1, 1));
        assert!(!runtime.executes(1, 100), "crashes never clear");
        assert_eq!(runtime.report(1, 1, 10.0, 5.0), None);
    }
}
