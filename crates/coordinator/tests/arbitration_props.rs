//! Property tests for the arbitration policies.
//!
//! * **Budget conservation** — for every shipped policy and wrapper, arbitrary
//!   app mixes (activity, weights, urgencies, absorption ceilings) and an
//!   arbitrary ascending participant subset, the sum of awards never exceeds
//!   the budget, inactive apps are awarded exactly zero, and every award is
//!   non-negative, finite, and within the app's ceiling. The checks are the
//!   shared [`coordinator::invariants`] oracles — the same ones the scenario
//!   fuzzer asserts every quantum. Every row off the list is NaN, so a
//!   policy that reads one fails; the stateless policies must also award
//!   the participants exactly what a call over just their rows awards.
//! * **WeightedFair monotonicity** — raising one app's weight (all else
//!   fixed) never lowers that app's award.

use coordinator::invariants::{
    active_total, check_award_vector, check_budget_conservation, AwardedApp,
};
use coordinator::{
    AppRequest, ArbitrationPolicy, AwardHysteresis, PerformanceMarket, StarvationFloor,
    StaticShare, WeightedFair,
};
use proptest::prelude::*;

/// Decodes one app request from four generated scalars.
fn request(active: usize, weight: f64, urgency: f64, max_power: f64) -> AppRequest {
    AppRequest {
        active: active == 1,
        weight,
        urgency,
        max_power_watts: max_power,
    }
}

/// The three stateless policies, then the two wrappers.
fn policies() -> Vec<Box<dyn ArbitrationPolicy>> {
    vec![
        Box::new(StaticShare),
        Box::new(WeightedFair),
        Box::new(PerformanceMarket::default()),
        Box::new(AwardHysteresis::new(
            Box::new(PerformanceMarket::default()),
            0.05,
        )),
        Box::new(StarvationFloor::new(Box::new(WeightedFair), 0.2)),
    ]
}

/// The identity participant list over `n` slots.
fn every(n: usize) -> Vec<u32> {
    (0..n as u32).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_policy_conserves_the_budget(
        budget in 1.0..500.0f64,
        actives in proptest::collection::vec(0usize..2, 1..12),
        weights in proptest::collection::vec(0.1..8.0f64, 12),
        urgencies in proptest::collection::vec(0.01..20.0f64, 12),
        ceilings in proptest::collection::vec(0.5..400.0f64, 12),
        members in proptest::collection::vec(0usize..2, 12),
    ) {
        let participants: Vec<u32> =
            (0..actives.len() as u32).filter(|&slot| members[slot as usize] == 1).collect();
        // Rows off the list are NaN: reading one poisons the awards.
        let requests: Vec<AppRequest> = actives
            .iter()
            .enumerate()
            .map(|(i, &active)| {
                if members[i] == 1 {
                    request(active, weights[i], urgencies[i], ceilings[i])
                } else {
                    request(1, f64::NAN, f64::NAN, f64::NAN)
                }
            })
            .collect();
        let rows: Vec<AppRequest> =
            participants.iter().map(|&slot| requests[slot as usize]).collect();
        let apps: Vec<AwardedApp> = rows
            .iter()
            .map(|request| AwardedApp {
                active: request.active,
                ceiling: Some(request.max_power_watts),
            })
            .collect();
        let (mut awards, mut compacted) = (Vec::new(), Vec::new());
        for (index, mut policy) in policies().into_iter().enumerate() {
            // Twice: the second call exercises the hysteresis hold.
            for _ in 0..2 {
                policy.arbitrate(budget, &requests, &participants, &mut awards);
                prop_assert_eq!(awards.len(), participants.len());
                let violations = check_award_vector(&awards, &apps);
                prop_assert!(
                    violations.is_empty(),
                    "{}: award invariants violated: {violations:?}",
                    policy.name()
                );
                let total = active_total(&awards, &apps);
                prop_assert!(
                    check_budget_conservation(total, budget).is_none(),
                    "{}: awards {total} exceed budget {budget}",
                    policy.name()
                );
            }
            if index < 3 {
                let mut fresh = policies().swap_remove(index);
                fresh.arbitrate(budget, &rows, &every(rows.len()), &mut compacted);
                let bits = |awards: &[f64]| awards.iter().map(|a| a.to_bits()).collect::<Vec<_>>();
                prop_assert!(
                    bits(&awards) == bits(&compacted),
                    "{}: {awards:?} over the list vs {compacted:?} over its rows",
                    policy.name()
                );
            }
        }
    }

    #[test]
    fn weighted_fair_award_is_monotone_in_weight(
        budget in 1.0..500.0f64,
        actives in proptest::collection::vec(0usize..2, 2..10),
        weights in proptest::collection::vec(0.1..8.0f64, 10),
        ceilings in proptest::collection::vec(0.5..400.0f64, 10),
        subject in 0usize..10,
        raise in 0.1..8.0f64,
    ) {
        let subject = subject % actives.len();
        let mut requests: Vec<AppRequest> = actives
            .iter()
            .enumerate()
            .map(|(i, &active)| request(active, weights[i], 1.0, ceilings[i]))
            .collect();
        // The subject must be active for its award to be meaningful.
        requests[subject].active = true;

        let mut policy = WeightedFair;
        let mut before = Vec::new();
        policy.arbitrate(budget, &requests, &every(requests.len()), &mut before);

        requests[subject].weight += raise;
        let mut after = Vec::new();
        policy.arbitrate(budget, &requests, &every(requests.len()), &mut after);

        prop_assert!(
            after[subject] >= before[subject] - 1e-9,
            "raising weight lowered the award: {} -> {} (weights {:?})",
            before[subject],
            after[subject],
            requests.iter().map(|r| r.weight).collect::<Vec<_>>()
        );
    }
}
