//! Classical and adaptive control elements of the SEEC decision engine.
//!
//! At its lowest level SEEC acts as a classical control system: feedback in
//! the form of heartbeats is used to tune actuators to meet goals (DAC 2012
//! §3.3, citing the CDC 2010 controller). On top of that sits an adaptive
//! layer that keeps the controller calibrated when the application's
//! behaviour drifts: a one-dimensional Kalman filter tracks the heart rate
//! the application would achieve in the nominal configuration, so the
//! controller always reasons about *speedup relative to nominal* rather than
//! absolute rates.

use serde::{Deserialize, Serialize};

/// A discrete-time PI controller producing the speedup required to drive the
/// observed heart rate to the target.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PiController {
    /// Proportional gain.
    pub kp: f64,
    /// Integral gain.
    pub ki: f64,
    integral: f64,
    /// Per-period retention factor of the integral state (1.0 = a classical,
    /// perfectly-retaining integral). See [`PiController::with_leak`].
    leak: f64,
    /// Bounds on the speedup the controller may request.
    min_output: f64,
    max_output: f64,
}

impl PiController {
    /// Creates a controller with the given gains and output range
    /// `[min_output, max_output]`.
    ///
    /// # Panics
    ///
    /// Panics if the output range is empty or the bounds are not positive.
    pub fn new(kp: f64, ki: f64, min_output: f64, max_output: f64) -> Self {
        assert!(
            min_output > 0.0 && max_output >= min_output,
            "output range must be positive and non-empty"
        );
        PiController {
            kp,
            ki,
            integral: 0.0,
            leak: 1.0,
            min_output,
            max_output,
        }
    }

    /// Makes the integral *leaky*: each decision period the accumulated
    /// integral is multiplied by `leak` before the new error is added, so
    /// error mass absorbed during a transient decays geometrically (time
    /// constant `-1/ln(leak)` periods) instead of having to be unwound by
    /// errors of the opposite sign. The default of 1.0 is the classical
    /// perfectly-retaining integral and is **bit-for-bit** the historical
    /// behaviour (`x * 1.0` is an identity for every float, `-0.0` and
    /// `NaN` included), so existing figure outputs are unchanged unless a
    /// caller opts in.
    ///
    /// The steady-state trade-off: a leaky integral can no longer hold an
    /// arbitrary constant offset (its fixed point is `error / (1 - leak)`
    /// rather than unbounded), so `leak` should stay close to 1 — the
    /// controller here already carries the feed-forward `target/base_rate`
    /// term, leaving the integral only modelling residue to sweep up.
    ///
    /// # Panics
    ///
    /// Panics unless `leak` is in `(0, 1]`.
    pub fn with_leak(mut self, leak: f64) -> Self {
        assert!(
            leak > 0.0 && leak <= 1.0,
            "integral leak must be in (0, 1], got {leak}"
        );
        self.leak = leak;
        self
    }

    /// A tuning that works well for heart-rate tracking: unity proportional
    /// response with a slow integral term, allowed to request speedups
    /// between 1/64 and 64.
    pub fn default_tuning() -> Self {
        PiController::new(1.0, 0.2, 1.0 / 64.0, 64.0)
    }

    /// Advances the controller one decision period.
    ///
    /// `target` and `observed` are heart rates; `base_rate` is the current
    /// estimate of the rate the application achieves in the nominal
    /// configuration (from the adaptive layer). The return value is the
    /// speedup over nominal the next period should apply.
    pub fn next_speedup(&mut self, target: f64, observed: f64, base_rate: f64) -> f64 {
        if base_rate <= 0.0 || target <= 0.0 {
            return 1.0;
        }
        // Error in units of "speedups over nominal". The leak multiplies
        // first, so saturation's anti-windup undo below leaves exactly the
        // decayed prior state.
        let error = (target - observed) / base_rate;
        self.integral = self.integral * self.leak + error;
        // Feed-forward term: the speedup that would hit the target if the
        // model were perfect, plus PI correction of residual error.
        let feed_forward = target / base_rate;
        let output = feed_forward + self.kp * error * 0.0 + self.ki * self.integral;
        // (The proportional term is folded into the feed-forward: the error
        // is already the difference between the feed-forward and observed
        // speedups, so a separate kp term would double-count. kp is kept for
        // callers who tune the controller differently.)
        let clamped = output.clamp(self.min_output, self.max_output);
        if clamped != output {
            // Anti-windup: stop integrating when saturated.
            self.integral -= error;
        }
        clamped
    }
}

impl Default for PiController {
    fn default() -> Self {
        PiController::default_tuning()
    }
}

/// A one-dimensional Kalman filter estimating the application's heart rate
/// in the nominal configuration.
///
/// Observations are `observed_rate / applied_speedup`: what the application
/// would have achieved at nominal, according to the current action model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KalmanEstimator {
    estimate: f64,
    variance: f64,
    /// Process noise: how quickly the underlying application speed drifts.
    pub process_noise: f64,
    /// Measurement noise: how noisy individual heart-rate windows are.
    pub measurement_noise: f64,
    initialised: bool,
}

impl KalmanEstimator {
    /// Creates an estimator with the given noise parameters.
    pub fn new(process_noise: f64, measurement_noise: f64) -> Self {
        KalmanEstimator {
            estimate: 0.0,
            variance: 1.0,
            process_noise,
            measurement_noise,
            initialised: false,
        }
    }

    /// Noise settings suited to window-averaged heart rates.
    pub fn default_tuning() -> Self {
        KalmanEstimator::new(0.01, 0.1)
    }

    /// Whether at least one observation has been absorbed.
    pub fn is_initialised(&self) -> bool {
        self.initialised
    }

    /// Current estimate of the nominal-configuration heart rate.
    pub fn estimate(&self) -> f64 {
        self.estimate
    }

    /// Absorbs one observation of the nominal-equivalent heart rate.
    pub fn observe(&mut self, nominal_rate: f64) -> f64 {
        if !nominal_rate.is_finite() || nominal_rate <= 0.0 {
            return self.estimate;
        }
        if !self.initialised {
            self.estimate = nominal_rate;
            self.variance = self.measurement_noise;
            self.initialised = true;
            return self.estimate;
        }
        // Predict.
        let predicted_variance = self.variance + self.process_noise;
        // Update.
        let gain = predicted_variance / (predicted_variance + self.measurement_noise);
        self.estimate += gain * (nominal_rate - self.estimate);
        self.variance = (1.0 - gain) * predicted_variance;
        self.estimate
    }
}

impl Default for KalmanEstimator {
    fn default() -> Self {
        KalmanEstimator::default_tuning()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controller_requests_feed_forward_speedup_when_on_model() {
        let mut pi = PiController::default_tuning();
        // Base rate 10, target 20, currently observing exactly 20.
        let speedup = pi.next_speedup(20.0, 20.0, 10.0);
        assert!((speedup - 2.0).abs() < 1e-9);
    }

    #[test]
    fn controller_raises_request_when_underperforming() {
        let mut pi = PiController::default_tuning();
        let mut request = 0.0;
        for _ in 0..10 {
            request = pi.next_speedup(20.0, 12.0, 10.0);
        }
        assert!(request > 2.0, "persistent shortfall must raise the request");
    }

    #[test]
    fn controller_lowers_request_when_overshooting() {
        let mut pi = PiController::default_tuning();
        let mut request = f64::MAX;
        for _ in 0..10 {
            request = pi.next_speedup(20.0, 30.0, 10.0);
        }
        assert!(request < 2.0, "overshoot must lower the request");
    }

    #[test]
    fn controller_output_is_clamped_with_anti_windup() {
        let mut pi = PiController::new(1.0, 1.0, 0.5, 4.0);
        for _ in 0..100 {
            let out = pi.next_speedup(100.0, 1.0, 1.0);
            assert!(out <= 4.0);
        }
        // After the huge shortfall disappears the controller recovers quickly
        // because the integral did not wind up.
        let out = pi.next_speedup(2.0, 2.0, 1.0);
        assert!(out <= 4.0);
        pi.integral = 0.0;
        assert_eq!(pi.next_speedup(2.0, 2.0, 1.0), 2.0);
    }

    #[test]
    fn controller_handles_degenerate_inputs() {
        let mut pi = PiController::default_tuning();
        assert_eq!(pi.next_speedup(10.0, 5.0, 0.0), 1.0);
        assert_eq!(pi.next_speedup(0.0, 5.0, 10.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "output range")]
    fn empty_output_range_panics() {
        let _ = PiController::new(1.0, 1.0, 2.0, 1.0);
    }

    #[test]
    fn unit_leak_is_bit_identical_to_the_historical_integral() {
        let mut classic = PiController::default_tuning();
        let mut unit_leak = PiController::default_tuning().with_leak(1.0);
        // A jagged trace with saturation episodes: outputs must agree
        // bit-for-bit at every step.
        for step in 0..200 {
            let observed = 5.0 + 20.0 * ((step % 17) as f64 - 8.0).abs();
            let a = classic.next_speedup(40.0, observed, 10.0);
            let b = unit_leak.next_speedup(40.0, observed, 10.0);
            assert!(a.to_bits() == b.to_bits(), "step {step}: {a} vs {b}");
        }
    }

    #[test]
    fn leaky_integral_recovers_faster_after_a_transient() {
        // Both controllers absorb a long shortfall transient, then the
        // plant returns to the target. The classical integral must unwind
        // its accumulated mass through overshoot; the leaky one forgets it
        // geometrically and re-converges to the feed-forward request first.
        let run = |leak: f64| {
            let mut pi = PiController::new(1.0, 0.05, 1.0 / 64.0, 64.0).with_leak(leak);
            for _ in 0..40 {
                pi.next_speedup(20.0, 12.0, 10.0); // transient: 40% short
            }
            // Settled again: the right answer is the feed-forward 2.0.
            let mut settled_at = None;
            let mut request = 0.0;
            for step in 0..200 {
                request = pi.next_speedup(20.0, 20.0, 10.0);
                if settled_at.is_none() && (request - 2.0).abs() < 0.05 {
                    settled_at = Some(step);
                }
            }
            (settled_at.unwrap_or(usize::MAX), request)
        };
        let (classic_settle, _) = run(1.0);
        let (leaky_settle, leaky_final) = run(0.9);
        assert!(
            leaky_settle < classic_settle,
            "leaky should settle sooner: {leaky_settle} vs {classic_settle}"
        );
        assert!((leaky_final - 2.0).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "leak")]
    fn out_of_range_leak_panics() {
        let _ = PiController::default_tuning().with_leak(0.0);
    }

    #[test]
    fn kalman_converges_to_a_constant_signal() {
        let mut k = KalmanEstimator::default_tuning();
        assert!(!k.is_initialised());
        for _ in 0..50 {
            k.observe(42.0);
        }
        assert!(k.is_initialised());
        assert!((k.estimate() - 42.0).abs() < 1e-6);
    }

    #[test]
    fn kalman_tracks_a_phase_change() {
        let mut k = KalmanEstimator::default_tuning();
        for _ in 0..30 {
            k.observe(10.0);
        }
        for _ in 0..60 {
            k.observe(30.0);
        }
        assert!(
            (k.estimate() - 30.0).abs() < 2.0,
            "estimate must follow the new phase"
        );
    }

    #[test]
    fn kalman_smooths_noise() {
        let mut k = KalmanEstimator::default_tuning();
        let noisy = [9.0, 11.0, 10.5, 9.5, 10.0, 10.2, 9.8, 10.1, 9.9, 10.0];
        for value in noisy {
            k.observe(value);
        }
        assert!((k.estimate() - 10.0).abs() < 0.5);
    }

    #[test]
    fn kalman_ignores_invalid_observations() {
        let mut k = KalmanEstimator::default_tuning();
        k.observe(10.0);
        let before = k.estimate();
        k.observe(f64::NAN);
        k.observe(-5.0);
        k.observe(0.0);
        assert_eq!(k.estimate(), before);
    }
}
