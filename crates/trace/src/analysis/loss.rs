//! Lifetime loss rates (the paper's `p_d` and `p_a`).

use crate::record::{FlowTrace, PacketRecord};

/// Data- and ACK-loss rates over a flow's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LossRates {
    /// Data packets sent (including retransmissions).
    pub data_sent: u64,
    /// Data packets lost.
    pub data_lost: u64,
    /// ACKs sent.
    pub ack_sent: u64,
    /// ACKs lost.
    pub ack_lost: u64,
}

impl LossRates {
    /// Lifetime data loss rate `p_d`.
    pub fn data_loss_rate(&self) -> f64 {
        ratio(self.data_lost, self.data_sent)
    }

    /// Lifetime ACK loss rate `p_a`.
    pub fn ack_loss_rate(&self) -> f64 {
        ratio(self.ack_lost, self.ack_sent)
    }

    /// Counts one transmission.
    #[inline]
    pub(crate) fn record(&mut self, rec: &PacketRecord) {
        let lost = u64::from(rec.lost());
        if rec.is_ack {
            self.ack_sent += 1;
            self.ack_lost += lost;
        } else {
            self.data_sent += 1;
            self.data_lost += lost;
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Computes lifetime loss rates for a flow.
pub fn loss_rates(trace: &FlowTrace) -> LossRates {
    let mut r = LossRates::default();
    for rec in &trace.records {
        r.record(rec);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{FlowMeta, PacketRecord};
    use hsm_simnet::time::SimTime;

    fn rec(seq: u64, is_ack: bool, lost: bool) -> PacketRecord {
        PacketRecord {
            id: seq,
            seq,
            is_ack,
            retransmit: false,
            acked_count: u32::from(is_ack),
            size_bytes: 1500,
            sent_at: SimTime::from_millis(seq),
            arrived_at: if lost {
                None
            } else {
                Some(SimTime::from_millis(seq + 30))
            },
        }
    }

    #[test]
    fn rates_count_by_direction() {
        let mut t = FlowTrace::new(0, FlowMeta::default());
        t.records = vec![
            rec(0, false, false),
            rec(1, false, true),
            rec(2, false, false),
            rec(3, false, false),
            rec(10, true, true),
            rec(11, true, false),
        ];
        let r = loss_rates(&t);
        assert_eq!(r.data_sent, 4);
        assert_eq!(r.data_lost, 1);
        assert_eq!(r.ack_sent, 2);
        assert_eq!(r.ack_lost, 1);
        assert!((r.data_loss_rate() - 0.25).abs() < 1e-12);
        assert!((r.ack_loss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_zero() {
        let t = FlowTrace::new(0, FlowMeta::default());
        let r = loss_rates(&t);
        assert_eq!(r.data_loss_rate(), 0.0);
        assert_eq!(r.ack_loss_rate(), 0.0);
    }
}
