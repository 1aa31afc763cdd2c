//! Fleet fixtures shared by the coordinator's property suites: generated
//! application slots with arrival/departure windows, the declared-effect
//! synthetic platform, and the lifecycle driver that turns a window into
//! calls — each slot is registered at its arrival quantum and retired at
//! its departure quantum.

// Each suite compiles this module on its own and uses a different subset.
#![allow(dead_code)]

use coordinator::{
    AppHandle, ArbitrationPolicy, Coordinator, ManagedApp, PerformanceMarket, StaticShare,
    WeightedFair,
};
use seec::{ExplorationPolicy, SeecRuntime};
use workloads::{HeartbeatedWorkload, SplashBenchmark, Workload};

/// A small action space whose declared effects the synthetic platform
/// mirrors exactly: DVFS x cores, speedups 0.5..6x, powers 0.4..5.2x.
pub fn actuators() -> Vec<Box<dyn actuation::Actuator>> {
    use actuation::{ActuatorSpec, Axis, SettingSpec, TableActuator};
    let dvfs = ActuatorSpec::builder("dvfs")
        .setting(
            SettingSpec::new("slow")
                .effect(Axis::Performance, 0.5)
                .effect(Axis::Power, 0.4),
        )
        .setting(SettingSpec::new("nominal"))
        .setting(
            SettingSpec::new("fast")
                .effect(Axis::Performance, 2.0)
                .effect(Axis::Power, 2.6),
        )
        .nominal(1)
        .build()
        .unwrap();
    let cores = ActuatorSpec::builder("cores")
        .setting(SettingSpec::new("1"))
        .setting(
            SettingSpec::new("2")
                .effect(Axis::Performance, 1.9)
                .effect(Axis::Power, 2.0),
        )
        .build()
        .unwrap();
    vec![
        Box::new(TableActuator::new(dvfs)),
        Box::new(TableActuator::new(cores)),
    ]
}

/// Every shipped arbitration policy.
pub fn policies() -> Vec<Box<dyn ArbitrationPolicy>> {
    vec![
        Box::new(StaticShare),
        Box::new(WeightedFair),
        Box::new(PerformanceMarket::default()),
    ]
}

/// One generated application slot: who it is and when it is present
/// (`arrival ≤ quantum < departure`).
#[derive(Debug, Clone, Copy)]
pub struct Slot {
    pub seed: u64,
    pub weight: f64,
    pub target: f64,
    pub arrival: usize,
    pub departure: Option<usize>,
}

impl Slot {
    /// A slot present for the whole run.
    pub fn resident(seed: u64, weight: f64, target: f64) -> Self {
        Slot {
            seed,
            weight,
            target,
            arrival: 0,
            departure: None,
        }
    }

    /// Whether the slot is present at `quantum`.
    pub fn present(&self, quantum: usize) -> bool {
        quantum >= self.arrival && self.departure.is_none_or(|departure| quantum < departure)
    }
}

/// Decodes the parallel scalar vectors the vendored proptest generates
/// into slots: arrivals inside the run, and a departure scalar of 0 for
/// "stays forever", otherwise a half-open window of at least one quantum.
pub fn decode_slots(
    seeds: &[u64],
    weights: &[f64],
    targets: &[f64],
    arrivals: &[usize],
    departures: &[usize],
    quanta: usize,
) -> Vec<Slot> {
    seeds
        .iter()
        .enumerate()
        .map(|(i, &seed)| {
            let arrival = arrivals[i] % quanta;
            let departure =
                (departures[i] > 0).then(|| (arrival + 1 + departures[i] % quanta).min(quanta));
            Slot {
                seed,
                weight: weights[i],
                target: targets[i],
                arrival,
                departure,
            }
        })
        .collect()
}

/// Nominal-power hint every generated app registers with.
pub const POWER_HINT: f64 = 10.0;

/// The workload driver and SEEC runtime of one generated slot.
pub fn parts(slot: Slot, index: usize) -> (HeartbeatedWorkload, SeecRuntime) {
    let benchmark = SplashBenchmark::ALL[index % SplashBenchmark::ALL.len()];
    let driver = HeartbeatedWorkload::new(Workload::new(benchmark, slot.seed));
    driver.set_heart_rate_goal(slot.target);
    let runtime = SeecRuntime::builder(driver.monitor())
        .actuators(actuators())
        .exploration(ExplorationPolicy {
            epsilon: 0.0,
            ..ExplorationPolicy::default()
        })
        .seed(slot.seed)
        .build()
        .unwrap();
    (driver, runtime)
}

/// The [`ManagedApp`] a slot registers as.
pub fn managed(slot: Slot, index: usize) -> ManagedApp {
    let (driver, runtime) = parts(slot, index);
    ManagedApp::new(driver, runtime)
        .with_weight(slot.weight)
        .with_nominal_power_hint(POWER_HINT)
}

/// The (work, power) the declared-effect platform reports for one quantum
/// of `runtime`'s current configuration: 10 beats/s and 10 W at nominal,
/// scaled by the configuration's declared effects.
pub fn platform_outcome(runtime: &SeecRuntime) -> (f64, f64) {
    let effect = runtime
        .model()
        .table()
        .declared_effect(runtime.current_config_id());
    (10.0 * effect.performance, 10.0 * effect.power)
}

/// The lifecycle calls of `quantum`, in slot order: every slot arriving at
/// it registers (registration is its arrival) and every slot departing at
/// it retires (retirement is its departure). `handles[i]` is slot `i`'s
/// handle from its arrival on.
pub fn lifecycle(
    coordinator: &mut Coordinator,
    slots: &[Slot],
    handles: &mut [Option<AppHandle>],
    quantum: usize,
) {
    for (index, &slot) in slots.iter().enumerate() {
        if slot.arrival == quantum {
            handles[index] = Some(coordinator.register(managed(slot, index)));
        }
        if slot.departure == Some(quantum) {
            coordinator.retire(handles[index].expect("a departure follows its arrival"));
        }
    }
}

/// Reports one quantum of the declared-effect platform for every present
/// app of `coordinator` (apps it has retired report nothing).
pub fn advance_present(coordinator: &mut Coordinator, now: f64) {
    let quantum = coordinator.quantum();
    for index in 0..coordinator.len() {
        let handle = AppHandle::from_index(index);
        let app = coordinator.app(handle);
        if !app.active_at(quantum) {
            continue;
        }
        let (work, power) = platform_outcome(app.runtime());
        coordinator.advance(handle, now - 1.0, now, work, power);
    }
}

/// The first slot whose two award records disagree: the fresh award
/// ([`Coordinator::awards`]) and the envelope the app executed under
/// ([`ManagedApp::awarded_watts`]), compared bit for bit, as
/// `(slot, award, awarded_watts)`. After every successful step the two
/// agree for every registered slot; a length mismatch reports the first
/// slot one of them lacks (NaN for the missing side).
pub fn award_record_mismatch(coordinator: &Coordinator) -> Option<(usize, f64, f64)> {
    let (apps, awards) = (coordinator.apps(), coordinator.awards());
    (0..apps.len().max(awards.len())).find_map(|slot| {
        let award = awards.get(slot).copied().unwrap_or(f64::NAN);
        let awarded = apps.get(slot).map_or(f64::NAN, ManagedApp::awarded_watts);
        (award.to_bits() != awarded.to_bits()).then_some((slot, award, awarded))
    })
}
