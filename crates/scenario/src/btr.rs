//! The Beijing–Tianjin Intercity Railway (BTR) — the measurement venue of
//! the paper: 120 km, ~33-minute one-way trips, steady 300 km/h cruise.

use hsm_simnet::mobility::Trajectory;

/// Route length, kilometres.
pub const ROUTE_KM: f64 = 120.0;

/// Steady cruise speed, km/h (the paper's "high-speed mobility scenario").
pub const CRUISE_KMH: f64 = 300.0;

/// Intermediate stations along the line (name, position in km from
/// Beijing South). Used by journey-style examples.
pub const STATIONS: [(&str, f64); 5] = [
    ("Beijing South", 0.0),
    ("Yizhuang", 12.2),
    ("Yongle", 39.3),
    ("Wuqing", 66.0),
    ("Tianjin", 120.0),
];

/// The full-route BTR trajectory.
pub fn trajectory() -> Trajectory {
    Trajectory::beijing_tianjin()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsm_simnet::mobility::kmh_to_ms;
    use hsm_simnet::time::SimTime;

    #[test]
    fn full_route_reaches_cruise_speed() {
        let t = trajectory();
        let mid = SimTime::from_secs_f64(t.duration().as_secs_f64() / 2.0);
        assert!((t.speed_ms(mid) - kmh_to_ms(CRUISE_KMH)).abs() < 1e-9);
        assert!((t.route_m() - ROUTE_KM * 1000.0).abs() < 1.0);
    }

    #[test]
    fn stations_ordered_along_route() {
        for pair in STATIONS.windows(2) {
            assert!(pair[0].1 < pair[1].1);
        }
        assert_eq!(STATIONS.last().unwrap().1, ROUTE_KM);
    }
}
