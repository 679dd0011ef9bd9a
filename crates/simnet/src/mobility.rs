//! Train mobility.
//!
//! A [`Trajectory`] maps simulated time to position and speed along a 1-D
//! railway line. The default profile accelerates at a constant rate, cruises
//! (300 km/h for the Beijing–Tianjin line), and brakes symmetrically; short
//! routes that never reach cruise speed fall back to a triangular profile.

use crate::time::SimTime;

/// Converts km/h to m/s.
pub fn kmh_to_ms(kmh: f64) -> f64 {
    kmh / 3.6
}

/// Converts m/s to km/h.
pub fn ms_to_kmh(ms: f64) -> f64 {
    ms * 3.6
}

/// A 1-D train trajectory: accelerate, cruise, brake (or stand still).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Trajectory {
    route_m: f64,
    cruise_ms: f64,
    accel_ms2: f64,
    /// Position on the line where this ride starts (captures taken
    /// mid-journey start mid-route).
    start_m: f64,
    // Derived, cached at construction:
    t_accel: f64,
    d_accel: f64,
    t_cruise: f64,
    peak_ms: f64,
}

impl Trajectory {
    /// A train standing still at position 0 (stationary measurement
    /// scenario).
    pub fn stationary() -> Trajectory {
        Trajectory {
            route_m: 0.0,
            cruise_ms: 0.0,
            accel_ms2: 1.0,
            start_m: 0.0,
            t_accel: 0.0,
            d_accel: 0.0,
            t_cruise: 0.0,
            peak_ms: 0.0,
        }
    }

    /// Builds a trajectory.
    ///
    /// # Panics
    ///
    /// Panics if any argument is non-positive or not finite.
    pub fn new(route_km: f64, cruise_kmh: f64, accel_ms2: f64) -> Trajectory {
        assert!(
            route_km.is_finite() && route_km > 0.0,
            "invalid route length"
        );
        assert!(
            cruise_kmh.is_finite() && cruise_kmh > 0.0,
            "invalid cruise speed"
        );
        assert!(
            accel_ms2.is_finite() && accel_ms2 > 0.0,
            "invalid acceleration"
        );
        let route_m = route_km * 1_000.0;
        let v = kmh_to_ms(cruise_kmh);
        let mut t_accel = v / accel_ms2;
        let mut d_accel = 0.5 * accel_ms2 * t_accel * t_accel;
        let peak_ms;
        let t_cruise;
        if 2.0 * d_accel <= route_m {
            peak_ms = v;
            t_cruise = (route_m - 2.0 * d_accel) / v;
        } else {
            // Triangular profile: never reaches cruise speed.
            d_accel = route_m / 2.0;
            t_accel = (2.0 * d_accel / accel_ms2).sqrt();
            peak_ms = accel_ms2 * t_accel;
            t_cruise = 0.0;
        }
        Trajectory {
            route_m,
            cruise_ms: v,
            accel_ms2,
            start_m: 0.0,
            t_accel,
            d_accel,
            t_cruise,
            peak_ms,
        }
    }

    /// Shifts the ride to start `km` into the line (builder style): every
    /// reported position is offset by `km`, so cell layouts and coverage
    /// holes defined in absolute route coordinates apply to mid-journey
    /// captures.
    pub fn starting_at_km(mut self, km: f64) -> Trajectory {
        assert!(km.is_finite() && km >= 0.0, "invalid start offset");
        self.start_m = km * 1_000.0;
        self
    }

    /// The Beijing–Tianjin Intercity Railway profile used throughout the
    /// paper: 120 km at a steady 300 km/h (≈ 33-minute one-way trip with
    /// 0.5 m/s² acceleration).
    pub fn beijing_tianjin() -> Trajectory {
        Trajectory::new(120.0, 300.0, 0.5)
    }

    /// A constant-speed trajectory: the train is already cruising when the
    /// flow starts (the paper's per-flow captures are taken "when the
    /// train is running at a constant speed around 300 km/h").
    pub fn cruising(route_km: f64, kmh: f64) -> Trajectory {
        // A huge acceleration makes the ramp phases negligible (< 0.1 s).
        Trajectory::new(route_km, kmh, 1e6)
    }

    /// Total trip duration.
    pub fn duration(&self) -> SimTime {
        SimTime::from_secs_f64(2.0 * self.t_accel + self.t_cruise)
    }

    /// Route length in metres.
    pub fn route_m(&self) -> f64 {
        self.route_m
    }

    /// Position along the line at `t`, metres (including any start
    /// offset), clamped to the ride's end.
    pub fn position_m(&self, t: SimTime) -> f64 {
        if self.route_m == 0.0 {
            return self.start_m;
        }
        let s = t.as_secs_f64();
        let a = self.accel_ms2;
        let rel = if s <= self.t_accel {
            0.5 * a * s * s
        } else if s <= self.t_accel + self.t_cruise {
            self.d_accel + self.peak_ms * (s - self.t_accel)
        } else {
            let td = (s - self.t_accel - self.t_cruise).min(self.t_accel);
            let base = self.d_accel + self.peak_ms * self.t_cruise;
            (base + self.peak_ms * td - 0.5 * a * td * td).min(self.route_m)
        };
        self.start_m + rel
    }

    /// Speed at `t`, m/s (0 once arrived).
    pub fn speed_ms(&self, t: SimTime) -> f64 {
        if self.route_m == 0.0 {
            return 0.0;
        }
        let s = t.as_secs_f64();
        let a = self.accel_ms2;
        if s <= self.t_accel {
            a * s
        } else if s <= self.t_accel + self.t_cruise {
            self.peak_ms
        } else {
            let td = s - self.t_accel - self.t_cruise;
            (self.peak_ms - a * td).max(0.0)
        }
    }

    /// True once the train has reached the end of the route.
    pub fn arrived(&self, t: SimTime) -> bool {
        self.route_m == 0.0 || t >= self.duration()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions() {
        assert!((kmh_to_ms(300.0) - 83.333).abs() < 0.001);
        assert!((ms_to_kmh(kmh_to_ms(217.0)) - 217.0).abs() < 1e-9);
    }

    #[test]
    fn btr_duration_is_about_33_minutes() {
        let t = Trajectory::beijing_tianjin();
        let mins = t.duration().as_secs_f64() / 60.0;
        // 120 km at 300 km/h is 24 min in pure cruise; acceleration phases
        // stretch it. The paper quotes 33 min including station dwell; we
        // only require the same order.
        assert!((20.0..36.0).contains(&mins), "trip {mins} min");
        assert!((t.peak_ms - kmh_to_ms(300.0)).abs() < 1e-9);
    }

    #[test]
    fn position_monotone_and_bounded() {
        let t = Trajectory::beijing_tianjin();
        let mut last = -1.0;
        let end = t.duration().as_secs_f64() as u64 + 100;
        for s in (0..end).step_by(7) {
            let p = t.position_m(SimTime::from_secs(s));
            assert!(p >= last, "position went backwards at {s}s");
            assert!(p <= t.route_m() + 1e-6);
            last = p;
        }
        assert!(
            (t.position_m(t.duration() + crate::time::SimDuration::from_secs(60)) - t.route_m())
                .abs()
                < 1.0
        );
    }

    #[test]
    fn speed_profile_shape() {
        let t = Trajectory::beijing_tianjin();
        assert_eq!(t.speed_ms(SimTime::ZERO), 0.0);
        let mid = SimTime::from_secs_f64(t.duration().as_secs_f64() / 2.0);
        assert!((t.speed_ms(mid) - kmh_to_ms(300.0)).abs() < 1e-6);
        assert!(t.speed_ms(t.duration()) < 1.0);
    }

    #[test]
    fn short_route_triangular() {
        // 1 km at 300 km/h with 0.5 m/s^2 never reaches cruise speed.
        let t = Trajectory::new(1.0, 300.0, 0.5);
        assert!(t.peak_ms < kmh_to_ms(300.0));
        assert!((t.position_m(t.duration()) - 1000.0).abs() < 1.0);
    }

    #[test]
    fn stationary_never_moves() {
        let t = Trajectory::stationary();
        assert_eq!(t.position_m(SimTime::from_secs(1000)), 0.0);
        assert_eq!(t.speed_ms(SimTime::from_secs(1000)), 0.0);
        assert!(t.arrived(SimTime::ZERO));
    }

    #[test]
    fn consistency_position_integral_of_speed() {
        // Numerically integrate speed; should match position closely.
        let t = Trajectory::new(40.0, 250.0, 0.7);
        let dt = 0.05;
        let mut pos = 0.0;
        let mut s = 0.0;
        while s < t.duration().as_secs_f64() {
            pos += t.speed_ms(SimTime::from_secs_f64(s)) * dt;
            s += dt;
        }
        let expect = t.position_m(t.duration());
        assert!((pos - expect).abs() / expect < 0.01, "{pos} vs {expect}");
    }
}
