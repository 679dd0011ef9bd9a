//! Validated model parameters (Table II of the paper).

use std::fmt;

/// Error returned when a parameter is out of its valid domain.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidateParamsError {
    field: &'static str,
    value: f64,
    requirement: &'static str,
}

impl fmt::Display for ValidateParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "model parameter `{}` = {} violates requirement: {}",
            self.field, self.value, self.requirement
        )
    }
}

impl std::error::Error for ValidateParamsError {}

/// The inputs of both throughput models (paper Table II plus the two new
/// parameters `P_a` and `q` of Section IV-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelParams {
    /// Average round-trip time, seconds (`RTT`).
    pub rtt_s: f64,
    /// First retransmission timer value, seconds (`T`).
    pub t_rto_s: f64,
    /// Lifetime data loss rate (`p_d`).
    pub p_d: f64,
    /// Probability that *all* ACKs of a round are lost (`P_a`).
    pub p_a_burst: f64,
    /// Loss rate of retransmissions during timeout recovery (`q`). The
    /// paper recommends 0.25–0.4 when it cannot be measured.
    pub q: f64,
    /// Data segments acknowledged per ACK (`b`, delayed-ACK factor).
    pub b: f64,
    /// Receiver-advertised window limitation, segments (`W_m`).
    pub w_m: f64,
}

impl ModelParams {
    /// The paper's recommended default for `q` when unmeasurable.
    pub const DEFAULT_Q: f64 = 0.3;

    /// Validates every field's domain.
    ///
    /// # Errors
    ///
    /// Returns the first violated requirement.
    pub fn validate(&self) -> Result<(), ValidateParamsError> {
        let checks: [(&'static str, f64, bool, &'static str); 7] = [
            (
                "rtt_s",
                self.rtt_s,
                self.rtt_s.is_finite() && self.rtt_s > 0.0,
                "finite and > 0",
            ),
            (
                "t_rto_s",
                self.t_rto_s,
                self.t_rto_s.is_finite() && self.t_rto_s > 0.0,
                "finite and > 0",
            ),
            (
                "p_d",
                self.p_d,
                self.p_d > 0.0 && self.p_d < 1.0,
                "in (0, 1)",
            ),
            (
                "p_a_burst",
                self.p_a_burst,
                (0.0..1.0).contains(&self.p_a_burst),
                "in [0, 1)",
            ),
            ("q", self.q, (0.0..1.0).contains(&self.q), "in [0, 1)"),
            ("b", self.b, self.b >= 1.0 && self.b.is_finite(), ">= 1"),
            (
                "w_m",
                self.w_m,
                self.w_m >= 1.0 && self.w_m.is_finite(),
                ">= 1",
            ),
        ];
        for (field, value, ok, requirement) in checks {
            if !ok {
                return Err(ValidateParamsError {
                    field,
                    value,
                    requirement,
                });
            }
        }
        Ok(())
    }

    /// A stationary-scenario baseline: 60 ms RTT, light independent loss,
    /// no ACK-burst loss, recovery losses no worse than lifetime losses.
    pub fn stationary_example() -> ModelParams {
        ModelParams {
            rtt_s: 0.060,
            t_rto_s: 0.30,
            p_d: 0.002,
            p_a_burst: 0.0,
            q: 0.002,
            b: 2.0,
            w_m: 64.0,
        }
    }

    /// A high-speed-rail example matching the paper's headline numbers:
    /// `p_d ≈ 0.75 %`, heavy recovery losses (`q ≈ 0.27`), measurable ACK
    /// burst loss.
    pub fn high_speed_example() -> ModelParams {
        ModelParams {
            rtt_s: 0.065,
            t_rto_s: 0.60,
            p_d: 0.0075,
            p_a_burst: 0.02,
            q: 0.2726,
            b: 2.0,
            w_m: 64.0,
        }
    }

    /// Builder-style setter for `p_d`.
    pub fn with_p_d(mut self, p_d: f64) -> Self {
        self.p_d = p_d;
        self
    }

    /// Builder-style setter for `P_a`.
    pub fn with_p_a_burst(mut self, p_a: f64) -> Self {
        self.p_a_burst = p_a;
        self
    }

    /// Builder-style setter for `q`.
    pub fn with_q(mut self, q: f64) -> Self {
        self.q = q;
        self
    }

    /// Builder-style setter for `b`.
    pub fn with_b(mut self, b: f64) -> Self {
        self.b = b;
        self
    }

    /// Builder-style setter for `W_m`.
    pub fn with_w_m(mut self, w_m: f64) -> Self {
        self.w_m = w_m;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn examples_validate() {
        assert!(ModelParams::stationary_example().validate().is_ok());
        assert!(ModelParams::high_speed_example().validate().is_ok());
    }

    #[test]
    fn rejects_out_of_domain() {
        let base = ModelParams::stationary_example();
        assert!(base.with_p_d(0.0).validate().is_err(), "p_d must be > 0");
        assert!(base.with_p_d(1.0).validate().is_err());
        assert!(base.with_p_a_burst(1.0).validate().is_err());
        assert!(base.with_p_a_burst(-0.1).validate().is_err());
        assert!(base.with_q(1.0).validate().is_err());
        assert!(base.with_b(0.5).validate().is_err());
        assert!(base.with_w_m(0.0).validate().is_err());
        let mut bad = base;
        bad.rtt_s = 0.0;
        assert!(bad.validate().is_err());
        bad = base;
        bad.t_rto_s = f64::NAN;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn error_message_names_field() {
        let err = ModelParams::stationary_example()
            .with_q(2.0)
            .validate()
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains('q'), "{msg}");
        assert!(msg.contains("[0, 1)"), "{msg}");
    }

    #[test]
    fn builders_set_fields() {
        let p = ModelParams::stationary_example()
            .with_p_d(0.01)
            .with_p_a_burst(0.05)
            .with_q(0.33)
            .with_b(1.0)
            .with_w_m(32.0);
        assert_eq!(p.p_d, 0.01);
        assert_eq!(p.p_a_burst, 0.05);
        assert_eq!(p.q, 0.33);
        assert_eq!(p.b, 1.0);
        assert_eq!(p.w_m, 32.0);
    }
}
