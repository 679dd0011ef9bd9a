//! Agents: the active entities of a simulation.
//!
//! An [`Agent`] is anything that reacts to packets and timers — TCP
//! senders, receivers, demultiplexers. Agents are registered with the
//! [`Engine`](crate::engine::Engine) and interact with the world only
//! through the [`Ctx`] handed to their callbacks, which
//! keeps ownership simple and the simulation deterministic.

use crate::engine::Ctx;
use crate::packet::Packet;
use std::any::Any;

/// Identity of a registered agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AgentId(u32);

impl AgentId {
    /// Builds an id from a raw index. Only the engine should mint these;
    /// exposed for tests and wiring code.
    pub fn from_raw(raw: u32) -> AgentId {
        AgentId(raw)
    }

    /// Raw index.
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

/// An active simulation entity.
///
/// The `Any` supertrait allows the engine to hand back concrete agent types
/// after a run (see [`Engine::agent_mut`](crate::engine::Engine::agent_mut)),
/// which is how experiments extract final metrics.
pub trait Agent: Any {
    /// Called once when the simulation starts, before any event fires.
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx;
    }

    /// A packet addressed to this agent arrived.
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: Packet);

    /// A timer previously scheduled by this agent fired.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        let _ = (ctx, tag);
    }
}

/// An agent that drops every packet and ignores timers; useful as a sink
/// endpoint in link-level tests.
#[derive(Debug, Default)]
pub struct NullAgent {
    /// Number of packets that reached this sink.
    pub received: u64,
}

impl NullAgent {
    /// Creates a sink agent.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Agent for NullAgent {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _packet: Packet) {
        self.received += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agent_id_round_trips() {
        let id = AgentId::from_raw(7);
        assert_eq!(id.as_usize(), 7);
        assert_eq!(id, AgentId::from_raw(7));
        assert!(AgentId::from_raw(1) < AgentId::from_raw(2));
    }
}
