//! Time-division actuation schedules.
//!
//! Actuator settings are discrete, but the speedup a goal requires is
//! continuous. SEEC closes the gap the way the underlying controller papers
//! do (Maggio et al., CDC 2010): it alternates between the two
//! configurations that bracket the required speedup, spending a fraction of
//! the time in each so that the *average* speedup matches the requirement
//! while the *average* power stays below running flat-out in the faster
//! configuration.

use actuation::ConfigId;

/// A two-configuration, time-division schedule over interned ids, built and
/// consumed inside one decision period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct IdSchedule {
    /// Configuration used for `upper_fraction` of the period.
    pub upper: ConfigId,
    /// Configuration used for the remaining time.
    pub lower: ConfigId,
    /// Fraction of the period spent in `upper`, in `[0, 1]`.
    pub upper_fraction: f64,
}

impl IdSchedule {
    /// A schedule that stays in a single configuration.
    pub fn steady(id: ConfigId) -> Self {
        IdSchedule {
            upper: id,
            lower: id,
            upper_fraction: 1.0,
        }
    }

    /// The schedule that meets `required_speedup` by dividing time between
    /// `upper` (believed speedup `upper_speedup`) and `lower` (believed
    /// speedup `lower_speedup`).
    ///
    /// Time-weighted *rate* averaging: running a fraction `f` of the time in
    /// the upper configuration yields average speedup
    /// `f * upper + (1 - f) * lower`. A requirement outside
    /// `[lower_speedup, upper_speedup]` saturates at the nearer end, and a
    /// degenerate bracket collapses to a steady `upper`.
    pub fn bracketing(
        upper: ConfigId,
        upper_speedup: f64,
        lower: ConfigId,
        lower_speedup: f64,
        required_speedup: f64,
    ) -> Self {
        if upper_speedup <= lower_speedup {
            return IdSchedule::steady(upper);
        }
        IdSchedule {
            upper,
            lower,
            upper_fraction: ((required_speedup - lower_speedup) / (upper_speedup - lower_speedup))
                .clamp(0.0, 1.0),
        }
    }

    /// The id to apply for this decision period, given a deterministic
    /// accumulator carried between periods (starting at 0.0). The
    /// accumulator spreads the upper/lower periods evenly instead of
    /// bunching them.
    pub fn id_for_period(&self, accumulator: &mut f64) -> ConfigId {
        *accumulator += self.upper_fraction;
        if *accumulator >= 1.0 - 1e-12 {
            *accumulator -= 1.0;
            self.upper
        } else {
            self.lower
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FAST: ConfigId = ConfigId(1);
    const SLOW: ConfigId = ConfigId(0);

    #[test]
    fn steady_schedule_never_splits() {
        let s = IdSchedule::steady(FAST);
        assert_eq!(s.upper_fraction, 1.0);
        let mut acc = 0.0;
        for _ in 0..5 {
            assert_eq!(s.id_for_period(&mut acc), FAST);
        }
    }

    #[test]
    fn bracketing_interpolates_the_required_speedup() {
        let s = IdSchedule::bracketing(FAST, 4.0, SLOW, 1.0, 2.5);
        assert!((s.upper_fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bracketing_saturates_outside_the_range() {
        let high = IdSchedule::bracketing(FAST, 4.0, SLOW, 1.0, 9.0);
        assert_eq!(high.upper_fraction, 1.0);
        let low = IdSchedule::bracketing(FAST, 4.0, SLOW, 1.0, 0.5);
        assert_eq!(low.upper_fraction, 0.0);
    }

    #[test]
    fn degenerate_bracket_collapses_to_steady() {
        let s = IdSchedule::bracketing(FAST, 2.0, SLOW, 2.0, 3.0);
        assert_eq!(s, IdSchedule::steady(FAST));
    }

    #[test]
    fn period_assignment_matches_the_fraction_in_the_long_run() {
        let s = IdSchedule::bracketing(FAST, 4.0, SLOW, 1.0, 3.0);
        let mut acc = 0.0;
        let periods = 1000;
        let upper_count = (0..periods)
            .filter(|_| s.id_for_period(&mut acc) == FAST)
            .count();
        let observed_fraction = upper_count as f64 / periods as f64;
        assert!((observed_fraction - s.upper_fraction).abs() < 0.01);
    }

    #[test]
    fn period_assignment_interleaves_rather_than_bunching() {
        let s = IdSchedule::bracketing(FAST, 2.0, SLOW, 1.0, 1.5);
        let mut acc = 0.0;
        let sequence: Vec<_> = (0..6).map(|_| s.id_for_period(&mut acc)).collect();
        // With a 0.5 fraction the schedule must alternate, not bunch.
        assert_ne!(sequence[0], sequence[1]);
        assert_ne!(sequence[2], sequence[3]);
    }
}
