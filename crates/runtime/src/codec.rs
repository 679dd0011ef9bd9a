//! Versioned, length-prefixed binary encoding of disk-tier cache entries
//! — the disk tier's only format.
//!
//! An entry decodes with a single forward pass over the buffer and
//! verifies integrity with a CRC-32 over the raw bytes (no re-encoding;
//! slice-by-8, so eight bytes a step on both the encode and decode side):
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"HSMF"
//! 4       1     format version (currently 1)
//! 5       4     body length, u32 LE (= number of bytes that follow)
//! 9       ...   body:
//!                 key              u64 LE (cache-key echo)
//!                 engine_version   varint length + UTF-8 bytes
//!                 flow summary     fixed-width fields in declaration
//!                                  order; strings varint-prefixed;
//!                                  f64 as IEEE-754 bits, LE
//!                 crc32            u32 LE over body[..len-4]
//! ```
//!
//! Integers are little-endian and fixed-width; variable-length sequences
//! (the two labels and the engine version) carry a LEB128 length prefix.
//! Floats round-trip bit-exactly, with no float formatting at all — which
//! is what makes a cache hit ≡ a fresh simulation.
//!
//! Decoding is zero-copy in the `s2n-codec` style: a `Reader` cursor
//! hands out sub-slices of the input buffer, and the only allocations on
//! a hit are the summary's two labels, one `Arc<str>` each, made by
//! `str_slice()?.into()`. Any
//! structural defect — short buffer, bad magic, unknown version, length
//! mismatch, CRC mismatch, invalid UTF-8, trailing bytes — decodes to
//! `None`, which the cache reports as a corrupt entry. So does an entry
//! stamped with another engine version: a tier written before an
//! [`ENGINE_VERSION`] bump is never read as current.
//!
//! [`decode_entry`] judges the buffer it is given, whole: the body length
//! in the header must equal what follows it exactly. A reader therefore
//! hands it the file read *to end of file* — reading only the announced
//! length would hide trailing bytes from the one check that rejects them.

use crate::cache::ENGINE_VERSION;
use hsm_trace::summary::FlowSummary;

/// File magic of a binary disk-tier entry.
pub const MAGIC: [u8; 4] = *b"HSMF";

/// Current binary format version.
pub const FORMAT_VERSION: u8 = 1;

/// Fixed bytes before the body: magic + version + body length.
const HEADER_LEN: usize = 9;

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) slice-by-8
/// lookup tables, built at compile time. `CRC_TABLES[0]` is the classic
/// one-byte table; `CRC_TABLES[k][b]` is the CRC state after byte `b`
/// followed by `k` zero bytes, which is what lets eight bytes be folded
/// in with eight independent lookups instead of a chain of eight.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Slice-by-8 CRC-32 over `bytes` (IEEE polynomial, `0xFFFFFFFF` initial
/// value and final XOR — the `cksum`/zlib convention): eight bytes a
/// step, the up-to-seven-byte tail one byte a step.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = u32::MAX;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Appends `v` as an unsigned LEB128 varint.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// Appends a varint-length-prefixed UTF-8 string.
fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Forward-only zero-copy cursor over an entry buffer. Every accessor
/// returns `None` instead of panicking when the buffer is too short, so
/// a truncated or bit-flipped entry can never crash the reader.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.buf.len() < n {
            return None;
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Some(head)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    fn varint(&mut self) -> Option<u64> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Some(v);
            }
        }
        None
    }

    /// Varint-length-prefixed UTF-8 string, borrowed from the buffer.
    fn str_slice(&mut self) -> Option<&'a str> {
        let len = self.varint()?;
        let len = usize::try_from(len).ok()?;
        std::str::from_utf8(self.take(len)?).ok()
    }

    fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Encodes one complete disk-tier entry (header, key echo, engine
/// version, summary payload, CRC) ready to publish atomically.
pub fn encode_entry(key: u64, summary: &FlowSummary) -> Vec<u8> {
    // Fixed-width fields are 4/8 bytes each; the varint prefixes and
    // labels are small. 256 bytes of headroom avoids regrowth.
    let mut out = Vec::with_capacity(
        HEADER_LEN
            + 8
            + ENGINE_VERSION.len()
            + summary.provider.len()
            + summary.scenario.len()
            + 256,
    );
    out.extend_from_slice(&MAGIC);
    out.push(FORMAT_VERSION);
    out.extend_from_slice(&[0u8; 4]); // body length, patched below
    let body_start = out.len();
    out.extend_from_slice(&key.to_le_bytes());
    put_str(&mut out, ENGINE_VERSION);
    put_summary(&mut out, summary);
    let crc = crc32(&out[body_start..]);
    out.extend_from_slice(&crc.to_le_bytes());
    let body_len = (out.len() - body_start) as u32;
    out[body_start - 4..body_start].copy_from_slice(&body_len.to_le_bytes());
    out
}

/// Serializes the summary fields in declaration order.
fn put_summary(out: &mut Vec<u8>, s: &FlowSummary) {
    out.extend_from_slice(&s.flow.to_le_bytes());
    put_str(out, &s.provider);
    put_str(out, &s.scenario);
    out.extend_from_slice(&s.rtt_s.to_bits().to_le_bytes());
    out.extend_from_slice(&s.p_d.to_bits().to_le_bytes());
    out.extend_from_slice(&s.data_sent.to_le_bytes());
    out.extend_from_slice(&s.p_a.to_bits().to_le_bytes());
    out.extend_from_slice(&s.p_a_burst.to_bits().to_le_bytes());
    out.extend_from_slice(&s.acks_per_round.to_bits().to_le_bytes());
    out.extend_from_slice(&s.q_hat.to_bits().to_le_bytes());
    out.extend_from_slice(&s.timeouts.to_le_bytes());
    out.extend_from_slice(&s.spurious_timeouts.to_le_bytes());
    out.extend_from_slice(&s.timeout_sequences.to_le_bytes());
    out.extend_from_slice(&s.mean_recovery_s.to_bits().to_le_bytes());
    out.extend_from_slice(&s.t_rto_s.to_bits().to_le_bytes());
    out.extend_from_slice(&s.loss_indications.to_le_bytes());
    out.extend_from_slice(&s.fast_retransmissions.to_le_bytes());
    out.extend_from_slice(&s.w_m.to_le_bytes());
    out.extend_from_slice(&s.b.to_le_bytes());
    out.extend_from_slice(&s.throughput_sps.to_bits().to_le_bytes());
    out.extend_from_slice(&s.goodput_sps.to_bits().to_le_bytes());
    out.extend_from_slice(&s.duration_s.to_bits().to_le_bytes());
}

/// Decodes and integrity-checks one binary entry, returning the echoed
/// cache key and the summary. `None` means the entry is corrupt, a
/// different format version, or was written by a different engine
/// version — in every case the caller treats it as a miss.
pub fn decode_entry(bytes: &[u8]) -> Option<(u64, FlowSummary)> {
    let mut r = Reader { buf: bytes };
    if r.take(MAGIC.len())? != MAGIC {
        return None;
    }
    if r.u8()? != FORMAT_VERSION {
        return None;
    }
    let body_len = r.u32()? as usize;
    if r.buf.len() != body_len || body_len < 4 {
        return None;
    }
    let body = &bytes[HEADER_LEN..];
    let (payload, crc_bytes) = body.split_at(body_len - 4);
    let stored_crc = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
    if crc32(payload) != stored_crc {
        return None;
    }
    let mut r = Reader { buf: payload };
    let key = r.u64()?;
    if r.str_slice()? != ENGINE_VERSION {
        return None;
    }
    let summary = take_summary(&mut r)?;
    if !r.is_empty() {
        return None;
    }
    Some((key, summary))
}

/// Deserializes the summary fields in declaration order.
fn take_summary(r: &mut Reader<'_>) -> Option<FlowSummary> {
    Some(FlowSummary {
        flow: r.u32()?,
        provider: r.str_slice()?.into(),
        scenario: r.str_slice()?.into(),
        rtt_s: r.f64()?,
        p_d: r.f64()?,
        data_sent: r.u64()?,
        p_a: r.f64()?,
        p_a_burst: r.f64()?,
        acks_per_round: r.f64()?,
        q_hat: r.f64()?,
        timeouts: r.u32()?,
        spurious_timeouts: r.u32()?,
        timeout_sequences: r.u32()?,
        mean_recovery_s: r.f64()?,
        t_rto_s: r.f64()?,
        loss_indications: r.u32()?,
        fast_retransmissions: r.u32()?,
        w_m: r.u32()?,
        b: r.u32()?,
        throughput_sps: r.f64()?,
        goodput_sps: r.f64()?,
        duration_s: r.f64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(flow: u32) -> FlowSummary {
        FlowSummary {
            flow,
            provider: "China Mobile".into(),
            scenario: "high-speed".into(),
            rtt_s: 0.065,
            p_d: 0.0075,
            data_sent: 123_456,
            p_a: 0.006,
            p_a_burst: 0.05,
            acks_per_round: 12.5,
            q_hat: 0.27,
            timeouts: 4,
            spurious_timeouts: 2,
            timeout_sequences: 3,
            mean_recovery_s: 5.0,
            t_rto_s: 0.8,
            loss_indications: 5,
            fast_retransmissions: 2,
            w_m: 48,
            b: 2,
            throughput_sps: 321.5,
            goodput_sps: 300.25,
            duration_s: 120.0,
        }
    }

    /// The textbook one-table, one-byte-a-step CRC-32: the oracle the
    /// slice-by-8 [`crc32`] must agree with on every input.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value of the standard test string.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Every length 0..=80 at every start offset 0..8: each count of
    /// whole 8-byte steps up to ten, each tail length, each alignment.
    #[test]
    fn crc32_equals_the_bytewise_oracle_at_every_length_and_offset() {
        let mut rng = hsm_simnet::rng::SimRng::seed_from_u64(32);
        let buf: Vec<u8> = (0..88).map(|_| rng.range_u64(0, 256) as u8).collect();
        for offset in 0..8 {
            for len in 0..=80 {
                let slice = &buf[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "offset {offset} len {len}"
                );
            }
        }
    }

    /// The exact bytes the parent commit (bytewise CRC) encoded for this
    /// entry, by length, FNV-1a digest and stored CRC: the disk format did
    /// not move, so tiers published before the slice-by-8 CRC keep hitting.
    #[test]
    fn encoded_entry_bytes_are_pinned() {
        let bytes = encode_entry(7, &summary(7));
        assert_eq!(bytes.len(), 187);
        assert_eq!(bytes[183..], 0x7E6B_87C2u32.to_le_bytes());
        let digest = crate::cache::fnv1a(&bytes);
        assert_eq!(digest, 0x7110_d3f6_7e74_8564, "got {digest:#018x}");
    }

    #[test]
    fn round_trips_bit_exactly() {
        let s = summary(7);
        let bytes = encode_entry(0xDEAD_BEEF, &s);
        let (key, back) = decode_entry(&bytes).expect("decodes");
        assert_eq!(key, 0xDEAD_BEEF);
        assert_eq!(back, s);
    }

    #[test]
    fn round_trips_extreme_values() {
        let s = FlowSummary {
            flow: u32::MAX,
            provider: "".into(),
            scenario: "αβγ — utf-8 labels".into(),
            rtt_s: f64::MIN_POSITIVE,
            p_d: -0.0,
            data_sent: u64::MAX,
            duration_s: 1e300,
            ..summary(0)
        };
        let bytes = encode_entry(u64::MAX, &s);
        let (key, back) = decode_entry(&bytes).expect("decodes");
        assert_eq!(key, u64::MAX);
        assert_eq!(back, s);
        // -0.0 must survive as -0.0, not 0.0.
        assert!(back.p_d.is_sign_negative());
    }

    #[test]
    fn every_truncation_is_rejected_not_panicking() {
        let bytes = encode_entry(42, &summary(1));
        for len in 0..bytes.len() {
            assert_eq!(decode_entry(&bytes[..len]), None, "truncated at {len}");
        }
        assert!(decode_entry(&bytes).is_some());
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let bytes = encode_entry(42, &summary(1));
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[i] ^= 1 << bit;
                assert_eq!(
                    decode_entry(&bad),
                    None,
                    "flip of byte {i} bit {bit} must not verify"
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_entry(42, &summary(1));
        bytes.push(0);
        assert_eq!(decode_entry(&bytes), None);
    }

    #[test]
    fn foreign_engine_version_is_rejected() {
        // Hand-build an entry whose version string differs; the CRC is
        // valid, so only the version check can reject it.
        let s = summary(3);
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.push(FORMAT_VERSION);
        out.extend_from_slice(&[0u8; 4]);
        let body_start = out.len();
        out.extend_from_slice(&7u64.to_le_bytes());
        put_str(&mut out, "hsm-runtime/999");
        put_summary(&mut out, &s);
        let crc = crc32(&out[body_start..]);
        out.extend_from_slice(&crc.to_le_bytes());
        let body_len = (out.len() - body_start) as u32;
        out[body_start - 4..body_start].copy_from_slice(&body_len.to_le_bytes());
        assert_eq!(decode_entry(&out), None);
    }

    #[test]
    fn unknown_format_version_is_rejected() {
        let mut bytes = encode_entry(42, &summary(1));
        bytes[4] = FORMAT_VERSION + 1;
        assert_eq!(decode_entry(&bytes), None);
    }

    #[test]
    fn varints_cover_multi_byte_lengths() {
        let mut out = Vec::new();
        for v in [0u64, 1, 127, 128, 300, 16_383, 16_384, u64::MAX] {
            out.clear();
            put_varint(&mut out, v);
            let mut r = Reader { buf: &out };
            assert_eq!(r.varint(), Some(v));
            assert!(r.is_empty());
        }
    }
}
