//! Golden-value regression fixtures for every model formula.
//!
//! Each constant below was derived *by hand* from the printed formulas
//! (paper Eqs. 1–21 and Padhye ToN 2000), following the algebra step by
//! step at full double precision, independently of the implementation in
//! `hsm-core`. The derivation chain is spelled out next to each fixture.
//!
//! These tests exist to catch silent drift: any future "refactor" of
//! `padhye::full`, `enhanced::breakdown`, `timeout_sequence_terms` or the
//! Table III `round_distribution` that changes a result — even in the
//! 12th digit — fails loudly here and must justify itself.

use hsm_core::enhanced::{breakdown, round_distribution, timeout_sequence_terms};
use hsm_core::padhye;
use hsm_core::params::ModelParams;

/// Relative tolerance for pinned values: well below any modelling
/// tolerance, well above f64 noise from association differences.
const TOL: f64 = 1e-12;

fn assert_pinned(actual: f64, golden: f64, what: &str) {
    let rel = (actual - golden).abs() / golden.abs().max(1e-300);
    assert!(
        rel <= TOL,
        "{what} drifted from its golden value: got {actual:.17}, pinned {golden:.17} (rel err {rel:.3e})"
    );
}

/// `padhye::full`, unlimited-window branch, at p = 1/2 where every term is
/// hand-checkable:
///
/// * `c = (2+b)/(3b) = 1` for `b = 1`
/// * `E[W] = 1 + sqrt(8·0.5/1.5 + 1) = 1 + sqrt(11/3) = 2.914854215512676`
/// * `Q = min(1, 3/E[W]) = 1` (E[W] < 3)
/// * `f(0.5) = 1 + 1/2 + 2/4 + 4/8 + 8/16 + 16/32 + 32/64 = 4`
/// * numerator `= (1−p)/p + E[W] + Q/(1−p) = 1 + 2.914854… + 2`
/// * denominator `= 0.1·(E[W]/2 + 1) + 1·0.4·4/0.5 = 0.2457427… + 3.2`
/// * `TP = 5.914854…/3.445742… = 1.7165687377109`
#[test]
fn padhye_full_unlimited_branch_pinned() {
    let params = ModelParams {
        rtt_s: 0.1,
        t_rto_s: 0.4,
        p_d: 0.5,
        p_a_burst: 0.0,
        q: 0.0,
        b: 1.0,
        w_m: 100.0,
    };
    assert_pinned(
        padhye::full(&params).unwrap(),
        1.716_568_737_710_9,
        "padhye::full (unlimited)",
    );
    assert_pinned(
        padhye::expected_window(0.5, 1.0),
        2.914_854_215_512_68,
        "expected_window(0.5, 1)",
    );
    assert_pinned(padhye::f_backoff(0.5), 4.0, "f_backoff(0.5)");
}

/// Same channel, `W_m = 2` forcing the window-limited branch:
///
/// * `Q = min(1, 3/2) = 1`
/// * numerator `= 1 + 2 + 2 = 5`
/// * denominator `= 0.1·(2/8 + 0.5/(0.5·2) + 2) + 1·0.4·4/0.5
///               = 0.1·2.75 + 3.2 = 3.475`
/// * `TP = 5/3.475 = 1.438848920863309…`
#[test]
fn padhye_full_window_limited_branch_pinned() {
    let params = ModelParams {
        rtt_s: 0.1,
        t_rto_s: 0.4,
        p_d: 0.5,
        p_a_burst: 0.0,
        q: 0.0,
        b: 1.0,
        w_m: 2.0,
    };
    assert_pinned(
        padhye::full(&params).unwrap(),
        5.0 / 3.475,
        "padhye::full (window-limited)",
    );
}

/// Timeout-sequence terms (Eqs. 11–14) at `q = 0.2`, `P_a = 0.25`,
/// `T = 0.4 s`:
///
/// * `p = 1 − (1−q)(1−P_a) = 1 − 0.8·0.75 = 0.4`
/// * `E[R] = 1/(1−p) = 5/3`
/// * `E[Y^TO] = 0.8^(5/3) = 0.689419100810203`
/// * `f(0.4)` by Horner: `16 + 0.4·32 = 28.8`; `8 + 0.4·28.8 = 19.52`;
///   `4 + 0.4·19.52 = 11.808`; `2 + 0.4·11.808 = 6.7232`;
///   `1 + 0.4·6.7232 = 3.68928`; `f = 1 + 0.4·3.68928 = 2.475712`
/// * `E[A^TO] = 0.4·2.475712/0.6 = 1.650474666666667`
#[test]
fn timeout_sequence_terms_pinned() {
    let params = ModelParams {
        rtt_s: 0.1,
        t_rto_s: 0.4,
        p_d: 0.01,
        p_a_burst: 0.25,
        q: 0.2,
        b: 2.0,
        w_m: 64.0,
    };
    let to = timeout_sequence_terms(&params);
    assert_pinned(to.p_fail, 0.4, "p_fail");
    assert_pinned(to.e_r, 5.0 / 3.0, "E[R]");
    assert_pinned(to.e_y_to, 0.689_419_100_810_203, "E[Y^TO]");
    assert_pinned(to.e_a_to, 1.650_474_666_666_667, "E[A^TO]");
}

/// The `q.max(p_d)` floor inside the timeout terms: a trace with no
/// measured retransmission loss must still price recovery at the ambient
/// data-loss rate, never cheaper.
#[test]
fn timeout_sequence_terms_q_floor_pinned() {
    let params = ModelParams {
        rtt_s: 0.1,
        t_rto_s: 0.4,
        p_d: 0.2,
        p_a_burst: 0.25,
        q: 0.0, // below p_d: the floor must lift it to 0.2
        b: 2.0,
        w_m: 64.0,
    };
    let to = timeout_sequence_terms(&params);
    assert_pinned(to.p_fail, 0.4, "p_fail with q floored at p_d");
}

/// Table III at `P_a = 0.2`, `X_P = 3`:
/// `P(X=k) = 0.8^(k−1)·0.2` for `k ≤ 3`, `P(X=4) = 0.8³ = 0.512`.
#[test]
fn table_iii_round_distribution_pinned() {
    let dist = round_distribution(0.2, 3.0);
    assert_eq!(dist.len(), 4);
    let golden = [(1, 0.2), (2, 0.16), (3, 0.128), (4, 0.512)];
    for (row, (k, p)) in dist.iter().zip(golden) {
        assert_eq!(row.rounds, k);
        assert_pinned(row.probability, p, "Table III P(X=k)");
    }
    let total: f64 = dist.iter().map(|r| r.probability).sum();
    assert_pinned(total, 1.0, "Table III total mass");
}

/// The enhanced model on one fully hand-derived point at the paper's
/// evaluation setting: `RTT = 0.1`, `T = 0.5`, `p_d = 0.02`, `P_a = 0.1`,
/// `q = 0.3`, `b = 2`, `W_m = 50`.
///
/// * `X_P = 2/3 + sqrt(4·0.98/0.06 + 4/9) = 8.77701670706429` (Eq. 1)
/// * `E[X] = (1 − 0.9^(X_P+1))/0.1 = 6.43032851288098` (Eq. 2)
/// * `E[W] = (2/b)·E[X] − 2 = 4.43032851288098` (Eq. 4)
/// * `p = 1 − 0.7·0.9 = 0.37`, `E[A^TO] = 0.5·f(0.37)/0.63
///   = 1.73761782245079` (Eqs. 13–14)
/// * `Q = 1 − (1 − 3/E[W])·0.9^(X_P) = 0.871948223984853` (Eq. 10)
/// * `E[Y] = E[W]/2·(3E[X]/2 − 1) = 19.1511865619156` (Eq. 6)
/// * `TP = (E[Y] + Q·E[Y^TO]) / (RTT·E[X] + Q·E[A^TO])
///   = 9.10327691098666` (Eq. 21)
#[test]
fn enhanced_model_pinned_at_b2() {
    let params = ModelParams {
        rtt_s: 0.1,
        t_rto_s: 0.5,
        p_d: 0.02,
        p_a_burst: 0.1,
        q: 0.3,
        b: 2.0,
        w_m: 50.0,
    };
    let bd = breakdown(&params).unwrap();
    assert_pinned(bd.x_p, 8.777_016_707_064_29, "X_P");
    assert_pinned(bd.e_x, 6.430_328_512_880_98, "E[X]");
    assert_pinned(bd.e_w, 4.430_328_512_880_98, "E[W]");
    assert_pinned(bd.q_timeout, 0.871_948_223_984_853, "Q");
    assert_pinned(bd.e_y, 19.151_186_561_915_6, "E[Y]");
    assert_pinned(bd.to.e_a_to, 1.737_617_822_450_79, "E[A^TO]");
    assert!(!bd.window_limited);
    assert_pinned(bd.throughput_sps, 9.103_276_910_986_66, "TP");
}

/// The same model at `b = 3`, where Eq. (4)'s printed first line
/// (`(b/2)·E[X] − 2 = 14.75`) and its derivation (`(2/b)·E[X] − 2`) part:
/// `RTT = 0.1`, `T = 0.5`, `p_d = 0.01`, `P_a = 0.05`, `q = 0.3`, `b = 3`,
/// `W_m = 50`.
///
/// * `c = (2+b)/6 = 5/6`; `X_P = c + sqrt(6·0.99/0.03 + c²)
///   = 5/6 + sqrt(198 + 25/36) = 14.9292350229892` (Eq. 1)
/// * `E[X] = (1 − 0.95^(X_P+1))/0.05 = (1 − 0.441727129595263)/0.05
///   = 11.1654574080947` (Eq. 2)
/// * `E[W] = (2/3)·E[X] − 2 = 5.44363827206316` (Eq. 4)
/// * `Q = 1 − (1 − 3/E[W])·0.95^(X_P) = 1 − (1 − 3/E[W])·0.464975925889751
///   = 0.791273242029441` (Eq. 10)
/// * `E[Y] = E[W]/2·(3E[X]/2 − 1) = 42.8637143178152` (Eq. 6)
/// * `p = 1 − 0.7·0.95 = 0.335`, `E[R] = 1/0.665`,
///   `E[Y^TO] = 0.7^(E[R]) = 0.584877240449725`; `f(0.335)` by Horner
///   `= 1.9233225514345`, `E[A^TO] = 0.5·f/0.665 = 1.4461071815297`
/// * `TP = (42.8637… + Q·0.584877…) / (0.1·11.16545… + Q·1.446107…)
///   = 43.3265120280551 / 2.26081165866054 = 19.164140392714` (Eq. 21)
///
/// The printed algebra would give `TP = 56.49` here: the slip this pin
/// guards against, invisible at `b = 2`.
#[test]
fn enhanced_model_pinned_at_b3() {
    let params = ModelParams {
        rtt_s: 0.1,
        t_rto_s: 0.5,
        p_d: 0.01,
        p_a_burst: 0.05,
        q: 0.3,
        b: 3.0,
        w_m: 50.0,
    };
    let bd = breakdown(&params).unwrap();
    assert_pinned(bd.x_p, 14.929_235_022_989_2, "X_P");
    assert_pinned(bd.e_x, 11.165_457_408_094_7, "E[X]");
    assert_pinned(bd.e_w, 5.443_638_272_063_16, "E[W]");
    assert_pinned(bd.q_timeout, 0.791_273_242_029_441, "Q");
    assert_pinned(bd.e_y, 42.863_714_317_815_2, "E[Y]");
    assert_pinned(bd.to.e_y_to, 0.584_877_240_449_725, "E[Y^TO]");
    assert_pinned(bd.to.e_a_to, 1.446_107_181_529_7, "E[A^TO]");
    assert!(!bd.window_limited);
    assert_pinned(bd.throughput_sps, 19.164_140_392_714, "TP");
}
