//! Flow demultiplexing for shared-bottleneck wirings.
//!
//! The paper's measurements run multiple TCP flows through *one* phone —
//! one radio, one bottleneck. To model that, several connections share a
//! single radio link whose exit point is a [`Demux`] agent forwarding each
//! packet to its flow's endpoint over a zero-delay `internal.*` link. Each
//! forwarded copy is a new arena row tagged [`FORWARDED`], so a trace
//! reads the radio's rows by skipping those.

use hsm_simnet::engine::Ctx;
use hsm_simnet::link::LinkId;
use hsm_simnet::packet::Packet;
use hsm_simnet::prelude::Agent;
use std::collections::HashMap;

/// The [`Packet::tag`] of a copy a [`Demux`] forwards — the tag's one
/// value, and the shared-radio rig's capture its one reader.
pub const FORWARDED: u64 = 1;

/// Forwards packets to per-flow internal links by flow id.
#[derive(Debug, Default)]
pub struct Demux {
    routes: HashMap<u32, LinkId>,
    /// Packets whose flow had no route (dropped silently but counted).
    pub unrouted: u64,
}

impl Demux {
    /// Creates an empty demux; add routes with [`Demux::add_route`].
    pub fn new() -> Demux {
        Demux::default()
    }

    /// Routes `flow` to `link`.
    pub fn add_route(&mut self, flow: u32, link: LinkId) {
        self.routes.insert(flow, link);
    }
}

impl Agent for Demux {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: Packet) {
        match self.routes.get(&packet.flow.0) {
            Some(&link) => {
                ctx.send(link, packet.with_tag(FORWARDED));
            }
            None => self.unrouted += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsm_simnet::prelude::*;

    #[test]
    fn routes_by_flow_id() {
        let mut eng = Engine::new(1);
        let sink_a = eng.add_agent(Box::new(NullAgent::new()));
        let sink_b = eng.add_agent(Box::new(NullAgent::new()));
        let demux_id = eng.add_agent(Box::new(Demux::new()));
        let shared = eng.add_link(LinkSpec::new(demux_id, "shared"));
        let to_a = eng
            .add_link(LinkSpec::new(sink_a, "internal.a").prop_delay(SimDuration::from_micros(1)));
        let to_b = eng
            .add_link(LinkSpec::new(sink_b, "internal.b").prop_delay(SimDuration::from_micros(1)));
        {
            let demux = eng.agent_mut::<Demux>(demux_id).unwrap();
            demux.add_route(0, to_a);
            demux.add_route(1, to_b);
        }
        for (flow, seq) in [(0u32, 0u64), (1, 0), (0, 1), (2, 0)] {
            eng.inject(shared, Packet::data(FlowId(flow), SeqNo(seq), false));
        }
        eng.run_until_idle();
        assert_eq!(eng.agent_mut::<NullAgent>(sink_a).unwrap().received, 2);
        assert_eq!(eng.agent_mut::<NullAgent>(sink_b).unwrap().received, 1);
        assert_eq!(eng.agent_mut::<Demux>(demux_id).unwrap().unrouted, 1);
        // The four injected rows, then the three forwarded copies.
        let tags: Vec<u64> = eng.arena().iter().map(|(p, _)| p.tag).collect();
        assert_eq!(tags, [0, 0, 0, 0, FORWARDED, FORWARDED, FORWARDED]);
    }
}
