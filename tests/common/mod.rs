//! Helpers shared by the integration suites.

use hsm::trace::prelude::FlowTrace;

/// FNV-1a of the serialized traces: the capture half of a bit pin.
pub fn trace_hash(traces: &[FlowTrace]) -> u64 {
    let json = serde_json::to_string(&traces).expect("traces serialize");
    hsm::scenario::fnv::fnv1a(json.as_bytes())
}
