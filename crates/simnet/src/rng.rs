//! Deterministic random-number streams.
//!
//! Every stochastic element of the simulator (loss models, jitter, flow
//! start offsets, …) draws from a [`SimRng`] derived from a single master
//! seed, so a simulation run is exactly reproducible from its seed alone.
//!
//! Streams are derived with [`RngFactory::stream`] using a label, so adding
//! a new consumer does not perturb the draws seen by existing consumers —
//! the classic "common random numbers" discipline for comparable
//! experiments (e.g. the Fig. 12 TCP-vs-MPTCP pairing).
//!
//! The generator is an inline xoshiro256++ (the same family `rand`'s
//! `SmallRng` uses on 64-bit targets) seeded through SplitMix64, so the
//! crate carries no external RNG dependency and the streams are identical
//! on every platform.

/// A seedable, splittable RNG stream used across the simulator.
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a stream directly from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut s = seed;
        SimRng {
            state: [
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
            ],
        }
    }

    /// Next raw 64 random bits (xoshiro256++ step).
    fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s = [s0, s1, s2, s3];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.state = s;
        result
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// Uniform draw in `[lo, hi)`; returns `lo` when the range is empty.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            lo
        } else {
            let x = lo + (hi - lo) * self.unit();
            // `unit() < 1` but the scaling can round up to `hi`.
            if x >= hi {
                lo
            } else {
                x
            }
        }
    }

    /// Uniform integer draw in `[lo, hi)`; returns `lo` when empty.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            lo
        } else {
            lo + self.next_u64() % (hi - lo)
        }
    }

    /// Uniform draw in `(0, 1]`, for logarithms.
    fn unit_open_low(&mut self) -> f64 {
        1.0 - self.unit()
    }

    /// Exponentially distributed draw with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not finite or not positive.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(
            mean.is_finite() && mean > 0.0,
            "invalid exponential mean: {mean}"
        );
        -mean * self.unit_open_low().ln()
    }

    /// Standard-normal draw via Box–Muller.
    pub fn standard_normal(&mut self) -> f64 {
        let u1 = self.unit_open_low();
        let u2 = self.unit();
        box_muller(u1, u2)
    }

    /// Normal draw with the given mean and standard deviation, truncated
    /// below at `floor`.
    pub fn normal_clamped(&mut self, mean: f64, sd: f64, floor: f64) -> f64 {
        (mean + sd * self.standard_normal()).max(floor)
    }

    /// `normal_clamped(0.0, sd, 0.0)` — the per-packet link jitter — bit
    /// for bit and draw for draw, but half the time without its `ln`,
    /// `sqrt` and `cos` (see the private `rectified`).
    pub fn rectified_normal(&mut self, sd: f64) -> f64 {
        let u1 = self.unit_open_low();
        let u2 = self.unit();
        rectified(sd, u1, u2)
    }

    /// Derives an independent child stream.
    pub fn fork(&mut self) -> SimRng {
        SimRng::seed_from_u64(self.next_u64())
    }
}

/// Box–Muller: a standard-normal deviate from `u1` in `(0, 1]` and `u2`
/// in `[0, 1)`.
fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// `(0.0 + sd * box_muller(u1, u2)).max(0.0)`, knowing its clamp: for
/// `0.25 < u2 <= 0.75` the cosine is not positive, so the value is
/// clamped to zero whatever `u1` is and nothing needs computing. The
/// interval is exact at both ends: `TAU * 0.25` is the double just *below*
/// π/2 (positive cosine, so 0.25 itself takes the full formula) and the
/// next `u2` already lands above π/2; `TAU * 0.75` is the double nearest
/// 3π/2, whose cosine is −1.8e−16.
fn rectified(sd: f64, u1: f64, u2: f64) -> f64 {
    if 0.25 < u2 && u2 <= 0.75 {
        return 0.0;
    }
    // `0.0 +` turns a −0.0 product into the +0.0 `normal_clamped` gives.
    (0.0 + sd * box_muller(u1, u2)).max(0.0)
}

/// Derives labelled, mutually independent [`SimRng`] streams from one
/// master seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RngFactory {
    master: u64,
}

impl RngFactory {
    /// Creates a factory for the given master seed.
    pub fn new(master_seed: u64) -> Self {
        RngFactory {
            master: master_seed,
        }
    }

    /// The master seed this factory was created with.
    pub fn master_seed(&self) -> u64 {
        self.master
    }

    /// Derives the stream for `label`. The same `(seed, label)` pair always
    /// yields an identical stream.
    pub fn stream(&self, label: &str) -> SimRng {
        // FNV-1a over the label, mixed with the master seed via
        // SplitMix64-style finalization. Stable across platforms & runs.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        let mut z = h ^ self.master.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        SimRng::seed_from_u64(z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.unit().to_bits(), b.unit().to_bits());
        }
    }

    #[test]
    fn labelled_streams_are_independent_and_stable() {
        let f = RngFactory::new(7);
        let mut x1 = f.stream("loss.data");
        let mut x2 = f.stream("loss.data");
        let mut y = f.stream("loss.ack");
        let a: Vec<u64> = (0..16).map(|_| (x1.unit() * 1e9) as u64).collect();
        let b: Vec<u64> = (0..16).map(|_| (x2.unit() * 1e9) as u64).collect();
        let c: Vec<u64> = (0..16).map(|_| (y.unit() * 1e9) as u64).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed_from_u64(1);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn chance_long_run_rate() {
        let mut r = SimRng::seed_from_u64(123);
        let n = 200_000;
        let hits = (0..n).filter(|_| r.chance(0.3)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn exponential_mean() {
        let mut r = SimRng::seed_from_u64(9);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.exponential(2.5)).sum::<f64>() / n as f64;
        assert!((mean - 2.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn normal_clamped_respects_floor() {
        let mut r = SimRng::seed_from_u64(5);
        for _ in 0..1000 {
            assert!(r.normal_clamped(0.0, 10.0, -1.0) >= -1.0);
        }
    }

    #[test]
    fn rectified_normal_is_normal_clamped_at_zero_bit_for_bit() {
        // Same values, same RNG state after every draw, at the jitter
        // magnitudes the path specs use.
        for (seed, sd) in [(1u64, 0.0005), (2, 0.002), (3, 0.010)] {
            let mut fast = SimRng::seed_from_u64(seed);
            let mut reference = fast.clone();
            let mut zeros = 0u32;
            for i in 0..1_000_000 {
                let (got, want) = (
                    fast.rectified_normal(sd),
                    reference.normal_clamped(0.0, sd, 0.0),
                );
                assert_eq!(got.to_bits(), want.to_bits(), "draw {i} at sd {sd}");
                assert_eq!(fast.state, reference.state, "stream diverged at draw {i}");
                zeros += u32::from(got == 0.0);
            }
            assert!((495_000..505_000).contains(&zeros), "{zeros} clamped draws");
        }
    }

    #[test]
    fn rectified_normal_shortcut_interval_is_exact_at_its_edges() {
        // The shortcut claims cos(TAU * u2) <= 0 on (0.25, 0.75]: check
        // both ends and their neighbours on the 2^-53 grid `unit` draws
        // from, against the cosine this platform actually computes.
        let ulp = 1.0 / (1u64 << 53) as f64;
        let cos = |u2: f64| (std::f64::consts::TAU * u2).cos();
        assert!(cos(0.25) > 0.0, "0.25 must take the full formula");
        assert!(cos(0.25 + ulp) < 0.0);
        assert!(cos(0.75 - ulp) < 0.0);
        assert!(cos(0.75) < 0.0, "0.75 is still clamped");
        for u2 in [0.25 - ulp, 0.25, 0.25 + ulp, 0.75 - ulp, 0.75, 0.75 + ulp] {
            for u1 in [ulp, 0.3, 1.0] {
                let want = (0.0 + 0.002 * box_muller(u1, u2)).max(0.0);
                let got = rectified(0.002, u1, u2);
                assert_eq!(got.to_bits(), want.to_bits(), "u1 {u1} u2 {u2}");
            }
        }
        assert!(
            rectified(0.002, 0.3, 0.25) > 0.0,
            "0.25 is outside the shortcut"
        );
    }

    #[test]
    fn fork_produces_distinct_stream() {
        let mut a = SimRng::seed_from_u64(11);
        let mut b = a.fork();
        let xs: Vec<u64> = (0..8).map(|_| (a.unit() * 1e9) as u64).collect();
        let ys: Vec<u64> = (0..8).map(|_| (b.unit() * 1e9) as u64).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn range_edges() {
        let mut r = SimRng::seed_from_u64(3);
        assert_eq!(r.range_f64(2.0, 2.0), 2.0);
        assert_eq!(r.range_u64(5, 5), 5);
        let v = r.range_u64(1, 10);
        assert!((1..10).contains(&v));
    }

    #[test]
    fn unit_stays_in_half_open_interval() {
        let mut r = SimRng::seed_from_u64(77);
        for _ in 0..100_000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u), "unit draw {u}");
        }
    }
}
