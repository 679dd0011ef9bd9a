//! Transport-layer measurement analyses, mirroring the paper's §III
//! methodology: loss rates, one-way latencies, round segmentation /
//! ACK-burst detection, timeout classification, and throughput.

pub mod latency;
pub mod loss;
pub mod rounds;
pub mod throughput;
pub mod timeout;

/// How far the dense slab of a per-sequence-number fold may reach once it
/// has seen `records` records: sequence numbers count segments from zero,
/// so every seq of a real flow falls below it, and one far outside
/// (an arbitrary trace's) spills to a hash map instead of allocating.
pub(crate) fn dense_reach(records: usize) -> usize {
    records.saturating_mul(4).saturating_add(1024)
}
