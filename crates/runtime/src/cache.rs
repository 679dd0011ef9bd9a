//! Content-addressed memoization of completed flows.
//!
//! A flow is a pure function of its [`ScenarioConfig`] and the engine
//! version, so its [`FlowSummary`] can be cached under a content hash of
//! exactly those inputs. The cache has two tiers:
//!
//! * an in-memory tier bounded by entry count, evicting in insertion
//!   order, and split into independently locked shards so campaign
//!   workers do not serialize on a single mutex, and
//! * an optional on-disk tier (one file per flow) that survives the
//!   process and powers warm `repro` reruns. Entries are published
//!   atomically (staged in a temp file, then renamed into place), so one
//!   directory can be shared by any number of concurrent writer threads
//!   *and OS processes* — sharded `repro run --shards N` campaigns point
//!   every shard at the same tier — while readers stay lock-free.
//!
//! Who sweeps, and when: staging files orphaned by killed writers are a
//! writer's by-product and no lookup ever reads them, so it is the
//! *writer* that collects them — once per cache, before its first publish,
//! in the same one-time step that creates the tier directory. Opening a
//! tier and looking entries up touches nothing but the entries asked for:
//! a process that only reads a tier never scans or sweeps it.
//!
//! Disk entries use the one CRC-protected binary format of
//! [`crate::codec`], which decodes in one allocation-light forward pass
//! and stores floats as raw bits, so a cache hit is *bit-identical* to a
//! fresh simulation. A lookup opens the entry once and reads it *to end of
//! file* into a stack buffer (spilling to the heap only when an entry
//! outgrows it) — never just the length its header announces, so bytes
//! trailing a CRC-valid entry are seen and rejected. An entry that fails
//! any check — magic, format version, length, CRC, engine version, key
//! echo, trailing bytes — is counted and transparently re-simulated: the
//! cache can never silently alter campaign results, and a tier written
//! under another [`ENGINE_VERSION`] (or by anything that is not this
//! codec) simply misses.
//!
//! A cache key is the FNV-1a digest of the configuration's canonical
//! identity encoding ([`ScenarioConfig::hash_into`]) followed by the
//! engine version — the same stream `hsm_scenario::spec::expansion_digest`
//! hashes per config — computed without allocating.

use crate::codec;
use crate::error::CacheError;
pub use hsm_scenario::fnv::fnv1a;
use hsm_scenario::fnv::Fnv1a;
use hsm_scenario::runner::ScenarioConfig;
use hsm_trace::summary::FlowSummary;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, Once};

/// Version tag mixed into every cache key.
///
/// Bump whenever simulation or analysis semantics — or the canonical
/// config encoding of [`ScenarioConfig::hash_into`] — change: old cached
/// flows then miss instead of resurfacing stale results.
pub const ENGINE_VERSION: &str = "hsm-runtime/2";

/// Content hash identifying one (configuration, engine-version) flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey(pub u64);

impl CacheKey {
    /// Computes the key for a scenario configuration under the current
    /// [`ENGINE_VERSION`]: FNV-1a over [`ScenarioConfig::hash_into`]'s
    /// stream followed by the version bytes. No heap allocation.
    pub fn of(config: &ScenarioConfig) -> CacheKey {
        let mut h = Fnv1a::default();
        config.hash_into(&mut h);
        h.write(ENGINE_VERSION.as_bytes());
        CacheKey(h.finish())
    }
}

/// The disk-tier path of `key`'s entry, `dir/flow-{key:016x}.hsmf` — the
/// one place that names an entry. One allocation, sized up front.
fn entry_path(dir: &Path, key: CacheKey) -> PathBuf {
    let mut name = *b"flow-0000000000000000.hsmf";
    for (i, digit) in name[5..21].iter_mut().enumerate() {
        *digit = b"0123456789abcdef"[(key.0 >> (60 - 4 * i)) as usize & 0xF];
    }
    let name = std::str::from_utf8(&name).expect("ASCII file name");
    let mut path = PathBuf::with_capacity(dir.as_os_str().len() + 1 + name.len());
    path.push(dir);
    path.push(name);
    path
}

/// Cache sizing and placement.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CacheConfig {
    /// Maximum entries held by the in-memory tier (`0` disables the
    /// memory tier entirely). The bound is enforced per shard, as
    /// `memory_entries / 8` rounded up, so each of the 8 shards evicts
    /// its oldest insert once over its share.
    pub memory_entries: usize,
    /// Directory of the on-disk tier (`None` disables it).
    pub disk_dir: Option<PathBuf>,
}

/// Independently locked memory-tier shards; a power of two, because a
/// key picks its shard by masking.
const SHARDS: usize = 8;

impl CacheConfig {
    /// A memory-only cache big enough for the full 255-flow dataset plus
    /// sweeps.
    pub fn memory_only() -> CacheConfig {
        CacheConfig {
            memory_entries: 4096,
            disk_dir: None,
        }
    }

    /// A two-tier cache persisting under `dir`.
    pub fn with_disk(dir: impl Into<PathBuf>) -> CacheConfig {
        CacheConfig {
            memory_entries: 4096,
            disk_dir: Some(dir.into()),
        }
    }
}

/// Counters describing how the cache behaved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups served from the memory tier.
    pub memory_hits: u64,
    /// Lookups served from the disk tier.
    pub disk_hits: u64,
    /// Lookups that found nothing valid.
    pub misses: u64,
    /// Disk entries rejected by the integrity check (see
    /// [`crate::codec::decode_entry`]) or echoing another key.
    pub corrupt_entries: u64,
    /// Entries evicted from the memory tier, oldest insert first.
    pub evictions: u64,
}

impl CacheStats {
    /// Total successful lookups across both tiers.
    pub fn hits(&self) -> u64 {
        self.memory_hits + self.disk_hits
    }

    fn absorb(&mut self, other: &CacheStats) {
        self.memory_hits += other.memory_hits;
        self.disk_hits += other.disk_hits;
        self.misses += other.misses;
        self.corrupt_entries += other.corrupt_entries;
        self.evictions += other.evictions;
    }
}

/// Hashes a shard-map key with one multiply. A [`CacheKey`] is already an
/// FNV-1a digest, so SipHashing it again buys nothing; the odd multiplier
/// only spreads it over the high bits the table's control bytes read.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("shard maps are keyed by u64 alone");
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[derive(Default)]
struct Shard {
    map: HashMap<u64, FlowSummary, BuildHasherDefault<KeyHasher>>,
    /// The resident keys in insertion order, oldest first: the eviction
    /// order. A hit never touches it.
    order: VecDeque<u64>,
    stats: CacheStats,
}

/// The two-tier memoization cache shared by campaign workers.
///
/// The memory tier is split into 8 shards, each behind its own mutex; a
/// lookup or insert locks only the shard its key hashes to, so workers
/// touching different keys proceed in parallel.
pub struct FlowCache {
    shards: [Mutex<Shard>; SHARDS],
    /// Per-shard entry bound derived from `config.memory_entries`.
    per_shard: usize,
    /// The writer's one-time disk-tier set-up — create the directory,
    /// sweep stale staging files — run before this cache's first publish.
    publish_setup: Once,
    config: CacheConfig,
}

impl std::fmt::Debug for FlowCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlowCache")
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Staging files older than this are considered orphaned by a killed
/// writer and swept before a cache's first publish. Generously above any
/// plausible write-and-rename window, so a concurrent live writer's
/// staging file is never touched.
const STALE_TEMP_AGE: std::time::Duration = std::time::Duration::from_secs(60);

impl FlowCache {
    /// Creates an empty cache with the given configuration.
    ///
    /// Opening a disk tier touches nothing on disk: the directory is
    /// created, and stale staging files swept, by the first
    /// [`insert`](FlowCache::insert).
    pub fn new(config: CacheConfig) -> FlowCache {
        FlowCache {
            shards: Default::default(),
            per_shard: config.memory_entries.div_ceil(SHARDS),
            publish_setup: Once::new(),
            config,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// A snapshot of the behaviour counters, aggregated across shards.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            total.absorb(&shard.lock().expect("cache lock").stats);
        }
        total
    }

    /// Number of entries currently in the memory tier.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache lock").map.len())
            .sum()
    }

    /// True when the memory tier holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard_for(&self, key: CacheKey) -> &Mutex<Shard> {
        // Fold the high half in before masking: FNV mixes new bytes into
        // the low bits last, so the high half carries most of the
        // avalanche for short inputs.
        let mixed = key.0 ^ (key.0 >> 32);
        &self.shards[(mixed as usize) & (SHARDS - 1)]
    }

    /// Looks a flow up, consulting the memory tier then the disk tier.
    ///
    /// Disk hits are promoted into the memory tier. Corrupt disk entries
    /// (anything [`codec::decode_entry`] rejects — bad magic, length, CRC,
    /// format or engine version — or a wrong key echo) count as misses
    /// and bump `corrupt_entries`.
    pub fn lookup(&self, key: CacheKey) -> Option<FlowSummary> {
        let lock = self.shard_for(key);
        {
            let mut guard = lock.lock().expect("cache lock");
            let shard = &mut *guard;
            if let Some(summary) = shard.map.get(&key.0) {
                shard.stats.memory_hits += 1;
                return Some(summary.clone());
            }
        }
        // The file is read, checked and decoded with the shard unlocked:
        // workers whose keys share a shard must not queue behind each
        // other's disk reads. Two of them may promote the same key; the
        // second promotion is a refresh.
        let found = self.disk_lookup(key);
        let mut guard = lock.lock().expect("cache lock");
        let shard = &mut *guard;
        match found {
            DiskLookup::Hit(summary) => {
                shard.stats.disk_hits += 1;
                Self::insert_memory(shard, self.per_shard, key, &summary);
                Some(summary)
            }
            DiskLookup::Corrupt => {
                shard.stats.corrupt_entries += 1;
                shard.stats.misses += 1;
                None
            }
            DiskLookup::Absent => {
                shard.stats.misses += 1;
                None
            }
        }
    }

    /// Memoizes a completed flow in both tiers.
    ///
    /// The first insert into a disk tier creates its directory and sweeps
    /// stale `.*.tmp` staging files left behind by writers that were
    /// killed between staging and renaming (only files older than
    /// `STALE_TEMP_AGE`, so live concurrent writers are unaffected).
    ///
    /// # Errors
    ///
    /// Returns [`CacheError`] when the disk tier cannot be written; the
    /// memory tier is updated regardless.
    pub fn insert(&self, key: CacheKey, summary: &FlowSummary) -> Result<(), CacheError> {
        {
            let mut guard = self.shard_for(key).lock().expect("cache lock");
            Self::insert_memory(&mut guard, self.per_shard, key, summary);
        }
        if let Some(dir) = &self.config.disk_dir {
            self.publish_setup.call_once(|| {
                // A directory that cannot be created fails the write
                // below, which reports it.
                let _ = std::fs::create_dir_all(dir);
                sweep_stale_temp_files(dir);
            });
            write_disk_entry(dir, key, summary)?;
        }
        Ok(())
    }

    /// Clones `summary` into the memory tier — only when there is one.
    fn insert_memory(shard: &mut Shard, per_shard: usize, key: CacheKey, summary: &FlowSummary) {
        if per_shard == 0 {
            return;
        }
        use std::collections::hash_map::Entry;
        match shard.map.entry(key.0) {
            // A re-insert refreshes the payload and keeps its place in line.
            Entry::Occupied(mut occupied) => occupied.get_mut().clone_from(summary),
            Entry::Vacant(vacant) => {
                vacant.insert(summary.clone());
                shard.order.push_back(key.0);
                if shard.order.len() > per_shard {
                    let oldest = shard.order.pop_front().expect("a full shard has a front");
                    shard.map.remove(&oldest);
                    shard.stats.evictions += 1;
                }
            }
        }
    }

    fn disk_lookup(&self, key: CacheKey) -> DiskLookup {
        let Some(dir) = &self.config.disk_dir else {
            return DiskLookup::Absent;
        };
        let Ok(mut file) = std::fs::File::open(entry_path(dir, key)) else {
            return DiskLookup::Absent;
        };
        // Read to end of file, not to the length the header announces:
        // trailing bytes must reach `decode_entry`, which rejects them.
        let mut stack = [0u8; ENTRY_BUF_LEN];
        let mut spill = Vec::new();
        let mut filled = 0;
        let bytes: &[u8] = loop {
            if filled == stack.len() {
                // Full before end of file: the entry outgrew the buffer.
                spill.extend_from_slice(&stack);
                if file.read_to_end(&mut spill).is_err() {
                    return DiskLookup::Absent;
                }
                break &spill;
            }
            match file.read(&mut stack[filled..]) {
                Ok(0) => break &stack[..filled],
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return DiskLookup::Absent,
            }
        };
        match codec::decode_entry(bytes) {
            Some((echoed, summary)) if echoed == key.0 => DiskLookup::Hit(summary),
            _ => DiskLookup::Corrupt,
        }
    }
}

/// Stack buffer a disk hit reads its entry into: five times the ≈ 190-byte
/// entry of a campaign flow, so only an entry with kilobyte labels spills.
const ENTRY_BUF_LEN: usize = 1024;

enum DiskLookup {
    Hit(FlowSummary),
    Corrupt,
    Absent,
}

/// Best-effort removal of orphaned `.*.tmp` staging files in `dir`. Only
/// files older than `STALE_TEMP_AGE` are removed; anything unreadable
/// is skipped (another process may be sweeping concurrently).
fn sweep_stale_temp_files(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let now = std::time::SystemTime::now();
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if !(name.starts_with('.') && name.ends_with(".tmp")) {
            continue;
        }
        let stale = entry
            .metadata()
            .and_then(|m| m.modified())
            .ok()
            .and_then(|mtime| now.duration_since(mtime).ok())
            .is_some_and(|age| age >= STALE_TEMP_AGE);
        if stale {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// Monotonic discriminator for temp-file names, so concurrent writers in
/// one process never collide on the same staging path.
static TEMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Writes one fully consistent disk-tier entry in the binary format of
/// [`crate::codec`] (key echo, current engine version, CRC-32 over the
/// payload bytes).
///
/// Publication is atomic: the entry is staged in a uniquely named temp
/// file (pid + in-process sequence number) and `rename`d into place, so
/// a concurrent reader — another thread *or another OS process* sharing
/// the directory — only ever observes a complete entry, never a torn
/// write. Writers never lock: because an entry's content is a pure
/// function of its key, losing a rename race to another writer leaves
/// the identical payload on disk and counts as success.
///
/// The directory is expected to exist (a cache creates it once, before
/// its first publish); a publish that finds it gone recreates it and
/// retries once.
fn write_disk_entry(dir: &Path, key: CacheKey, summary: &FlowSummary) -> Result<(), CacheError> {
    let bytes = codec::encode_entry(key.0, summary);
    let path = entry_path(dir, key);
    match publish_atomic(dir, &path, &bytes) {
        Err(_) if !dir.is_dir() => {
            std::fs::create_dir_all(dir).map_err(|e| CacheError::Io {
                path: dir.to_path_buf(),
                message: e.to_string(),
            })?;
            publish_atomic(dir, &path, &bytes)
        }
        result => result,
    }
}

/// Stages `bytes` in a unique temp file under `dir` and renames it onto
/// `path`. See [`write_disk_entry`] for the publication contract.
pub(crate) fn publish_atomic(dir: &Path, path: &Path, bytes: &[u8]) -> Result<(), CacheError> {
    let tmp = dir.join(format!(
        ".{}.{}.{}.tmp",
        path.file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "entry".to_owned()),
        std::process::id(),
        TEMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
    ));
    std::fs::write(&tmp, bytes).map_err(|e| CacheError::Io {
        path: tmp.clone(),
        message: e.to_string(),
    })?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            // Clean the staging file up; if the destination exists another
            // writer already published the (identical) entry, so the
            // failed rename is a lost race, not an error.
            let _ = std::fs::remove_file(&tmp);
            if path.exists() {
                Ok(())
            } else {
                Err(CacheError::Io {
                    path: path.to_path_buf(),
                    message: e.to_string(),
                })
            }
        }
    }
}

/// Bit-flips one byte of the stored disk-tier entry for `key` — the
/// `hsm-chaos` disk-corruption fault. The flip lands mid-buffer, inside
/// the CRC-protected body, so the integrity check must reject it.
/// Returns `false` when no entry exists for the key.
///
/// Test/`chaos`-feature builds only.
///
/// # Errors
///
/// Returns [`CacheError::Io`] when the entry cannot be rewritten.
#[cfg(any(test, feature = "chaos"))]
pub fn chaos_corrupt_disk_entry(dir: &Path, key: CacheKey) -> Result<bool, CacheError> {
    let path = entry_path(dir, key);
    let Ok(mut bytes) = std::fs::read(&path) else {
        return Ok(false);
    };
    if bytes.is_empty() {
        return Ok(false);
    }
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&path, bytes).map_err(|e| CacheError::Io {
        path: path.clone(),
        message: e.to_string(),
    })?;
    Ok(true)
}

/// Forges a *self-consistent* disk-tier entry: attacker-chosen summary,
/// matching CRC, current engine version — the `hsm-chaos`
/// stronger corruption fault. The integrity check cannot reject this by
/// construction; only the differential oracle's warm-vs-fresh comparison
/// can catch it, which is exactly what the harness proves.
///
/// Test/`chaos`-feature builds only.
///
/// # Errors
///
/// Returns [`CacheError::Io`] when the entry cannot be written.
#[cfg(any(test, feature = "chaos"))]
pub fn chaos_forge_disk_entry(
    dir: &Path,
    key: CacheKey,
    summary: &FlowSummary,
) -> Result<(), CacheError> {
    write_disk_entry(dir, key, summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsm_scenario::provider::Provider;
    use hsm_scenario::runner::Motion;
    use hsm_scenario::spec::expansion_digest;
    use hsm_simnet::time::SimDuration;
    use hsm_tcp::cc::Algorithm;
    use hsm_tcp::recovery::Recovery;

    fn summary(flow: u32) -> FlowSummary {
        FlowSummary {
            flow,
            provider: "China Mobile".into(),
            scenario: "high-speed".into(),
            rtt_s: 0.065,
            p_d: 0.0075,
            data_sent: 1000,
            p_a: 0.006,
            p_a_burst: 0.05,
            acks_per_round: 12.0,
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

    /// A fresh, empty scratch directory for one test.
    fn scratch_dir(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hsm_cache_{test}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A disk-only cache over `dir` (no memory tier).
    fn disk_only(dir: &Path) -> FlowCache {
        FlowCache::new(CacheConfig {
            memory_entries: 0,
            disk_dir: Some(dir.to_path_buf()),
        })
    }

    /// The congestion-control variants the key grid sweeps: the zoo's
    /// defaults, non-default parameters for each parameterised
    /// controller, and one seed-dependent parameter.
    fn cc_grid(seed: u64) -> [Algorithm; 9] {
        [
            Algorithm::Reno,
            Algorithm::Bbr,
            Algorithm::veno(),
            Algorithm::cubic(),
            Algorithm::compound(),
            Algorithm::Veno { beta: 2.5 },
            Algorithm::Cubic { c: 0.1, beta: 0.7 },
            Algorithm::Compound {
                alpha: 0.1,
                beta: 0.5,
                k: 0.75,
                gamma: 30.0,
            },
            Algorithm::Veno {
                beta: 1.0 + (seed % 7) as f64 / 10.0,
            },
        ]
    }

    /// One row of the identity table: the default config with one edit.
    fn variant(
        name: &'static str,
        edit: impl FnOnce(&mut ScenarioConfig),
    ) -> (&'static str, ScenarioConfig) {
        let mut config = ScenarioConfig::default();
        edit(&mut config);
        (name, config)
    }

    /// Flow identity, pinned three ways. (1) Starting from the default
    /// config, changing any single field — or a single parameter of a
    /// parameterised controller — moves both the cache key and the spec
    /// digest, and no two rows collide. (2) Across a 108 × 9 × 4 grid
    /// with extreme seeds and durations every key is distinct. (3) The
    /// default config's key is frozen, so an accidental change to the
    /// canonical encoding (field order, tags, widths) or the version
    /// fails here instead of silently orphaning disk tiers.
    #[test]
    fn flow_identity_covers_every_field_and_is_frozen() {
        // Each differs from its controller's defaults in one parameter.
        let [.., veno_beta, cubic_c, compound_alpha, _] = cc_grid(0);
        let table = [
            variant("default", |_| {}),
            variant("ChinaUnicom", |c| c.provider = Provider::ChinaUnicom),
            variant("ChinaTelecom", |c| c.provider = Provider::ChinaTelecom),
            variant("Stationary", |c| c.motion = Motion::Stationary),
            variant("seed", |c| c.seed = 2),
            variant("duration", |c| c.duration = SimDuration::from_secs(121)),
            variant("w_m", |c| c.w_m = 47),
            variant("b", |c| c.b = 3),
            variant("flow", |c| c.flow = 1),
            variant("Veno", |c| c.cc = Algorithm::veno()),
            variant("Cubic", |c| c.cc = Algorithm::cubic()),
            variant("Bbr", |c| c.cc = Algorithm::Bbr),
            variant("Compound", |c| c.cc = Algorithm::compound()),
            variant("Veno.beta", |c| c.cc = veno_beta),
            variant("Cubic.c", |c| c.cc = cubic_c),
            variant("Compound.alpha", |c| c.cc = compound_alpha),
            variant("RedundantRto", |c| c.recovery = Recovery::RedundantRto),
            variant("Frto", |c| c.recovery = Recovery::Frto),
            variant("AckRobust", |c| c.recovery = Recovery::AckRobust),
        ];
        for (i, (name_a, a)) in table.iter().enumerate() {
            for (name_b, b) in &table[i + 1..] {
                assert_ne!(a, b, "rows {name_a} and {name_b} are the same config");
                assert_ne!(CacheKey::of(a), CacheKey::of(b), "{name_a} / {name_b}");
                assert_ne!(
                    expansion_digest(std::slice::from_ref(a)),
                    expansion_digest(std::slice::from_ref(b)),
                    "{name_a} / {name_b}"
                );
            }
        }

        let mut keys = std::collections::HashSet::new();
        for provider in Provider::ALL {
            for motion in [Motion::HighSpeed, Motion::Stationary] {
                for seed in [0u64, 1, 9, 255, 1_000_000, u64::MAX] {
                    for duration in [
                        SimDuration::from_micros(1),
                        SimDuration::from_secs(120),
                        SimDuration::from_micros(u64::MAX),
                    ] {
                        for cc in cc_grid(seed) {
                            for recovery in Recovery::ALL {
                                let config = ScenarioConfig {
                                    provider,
                                    motion,
                                    seed,
                                    duration,
                                    w_m: (seed as u32 % 64).max(1),
                                    b: 1 + (seed as u32 % 4),
                                    flow: seed as u32 % 300,
                                    cc,
                                    recovery,
                                };
                                assert!(
                                    keys.insert(CacheKey::of(&config)),
                                    "key collision at {config:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(keys.len(), 108 * 9 * 4);

        let key = CacheKey::of(&ScenarioConfig::default()).0;
        assert_eq!(key, 0x4a53_8f66_c3f6_4352, "got {key:#018x}");
    }

    /// Keys 1, 9 and 17 share a shard (`key & 7 == 1`), and 16 entries
    /// give each of the 8 shards room for two.
    fn two_per_shard() -> (FlowCache, [CacheKey; 3]) {
        let cache = FlowCache::new(CacheConfig {
            memory_entries: 16,
            disk_dir: None,
        });
        (cache, [CacheKey(1), CacheKey(9), CacheKey(17)])
    }

    #[test]
    fn memory_tier_evicts_the_oldest_insert() {
        let (cache, [k1, k9, k17]) = two_per_shard();
        cache.insert(k1, &summary(1)).unwrap();
        cache.insert(k9, &summary(9)).unwrap();
        assert_eq!(cache.lookup(k1).unwrap().flow, 1); // a hit reorders nothing
        cache.insert(k17, &summary(17)).unwrap(); // evicts k1, the oldest insert
        assert!(cache.lookup(k1).is_none());
        assert_eq!(cache.lookup(k9).unwrap().flow, 9);
        assert_eq!(cache.lookup(k17).unwrap().flow, 17);
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.memory_hits, 3);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinsert_refreshes_payload_in_place() {
        let (cache, [k1, k9, k17]) = two_per_shard();
        cache.insert(k1, &summary(1)).unwrap();
        cache.insert(k9, &summary(9)).unwrap();
        // Re-inserting k1 updates its payload; k1 stays the oldest insert.
        cache.insert(k1, &summary(100)).unwrap();
        assert_eq!(cache.lookup(k1).unwrap().flow, 100);
        assert_eq!(cache.len(), 2);
        cache.insert(k17, &summary(17)).unwrap(); // evicts k1, not k9
        assert!(cache.lookup(k1).is_none());
        assert_eq!(cache.lookup(k9).unwrap().flow, 9);
        assert_eq!(cache.lookup(k17).unwrap().flow, 17);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn sharded_cache_keeps_lookup_semantics_and_aggregates() {
        let cache = FlowCache::new(CacheConfig {
            memory_entries: 256,
            disk_dir: None,
        });
        for i in 0..64u64 {
            cache
                .insert(CacheKey(i * 0x9e37_79b9), &summary(i as u32))
                .unwrap();
        }
        assert_eq!(cache.len(), 64);
        for i in 0..64u64 {
            assert_eq!(
                cache.lookup(CacheKey(i * 0x9e37_79b9)).unwrap().flow,
                i as u32
            );
        }
        assert!(cache.lookup(CacheKey(0xdead_beef_0001)).is_none());
        let stats = cache.stats();
        assert_eq!(stats.memory_hits, 64);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn disk_tier_round_trips_and_detects_corruption() {
        let dir = scratch_dir("test");
        let cache = disk_only(&dir);
        let key = CacheKey(0xabcd);
        let s = summary(9);
        cache.insert(key, &s).unwrap();
        assert_eq!(cache.lookup(key).as_ref(), Some(&s));

        // Corrupt payload bytes while keeping the structure (magic,
        // version, lengths) valid: only the CRC can catch this.
        let path = entry_path(&dir, key);
        let mut bytes = std::fs::read(&path).unwrap();
        let pos = bytes
            .windows(b"China Mobile".len())
            .position(|w| w == b"China Mobile")
            .expect("provider label is stored verbatim");
        bytes[pos..pos + b"China Mobbed".len()].copy_from_slice(b"China Mobbed");
        std::fs::write(&path, bytes).unwrap();
        assert!(cache.lookup(key).is_none());
        assert_eq!(cache.stats().corrupt_entries, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_path_is_the_published_file_name() {
        let dir = Path::new("/tier");
        for key in [0, 7, 0xabcd, 0x4a53_8f66_c3f6_4352, u64::MAX] {
            assert_eq!(
                entry_path(dir, CacheKey(key)),
                dir.join(format!("flow-{key:016x}.hsmf"))
            );
        }
    }

    /// Staging files are a writer's by-product: opening a tier and reading
    /// from it leaves them alone, the first publish collects the stale ones.
    #[test]
    fn the_first_publish_sweeps_stale_temp_files() {
        let dir = scratch_dir("sweep");
        std::fs::create_dir_all(&dir).unwrap();
        // Plant a staging file as a killed writer would leave it, aged
        // past the sweep threshold.
        let stale = dir.join(".flow-0000000000000001.hsmf.12345.0.tmp");
        std::fs::write(&stale, b"torn half-write").unwrap();
        let aged = std::time::SystemTime::now() - (STALE_TEMP_AGE + STALE_TEMP_AGE);
        std::fs::File::options()
            .write(true)
            .open(&stale)
            .unwrap()
            .set_modified(aged)
            .unwrap();
        // A fresh staging file (a live concurrent writer) must survive.
        let fresh = dir.join(".flow-0000000000000002.hsmf.12345.1.tmp");
        std::fs::write(&fresh, b"in flight").unwrap();
        // A real entry must never be swept.
        write_disk_entry(&dir, CacheKey(7), &summary(7)).unwrap();

        // A lookup-only session: hits and misses, no sweep.
        let reader = disk_only(&dir);
        assert!(reader.lookup(CacheKey(7)).is_some());
        assert!(reader.lookup(CacheKey(8)).is_none());
        drop(reader);
        assert!(stale.exists(), "a read-only session must not sweep");

        let writer = disk_only(&dir);
        assert!(stale.exists(), "opening a tier must not sweep");
        writer.insert(CacheKey(8), &summary(8)).unwrap();
        assert!(!stale.exists(), "the first publish must sweep");
        assert!(fresh.exists(), "fresh staging file must survive");
        assert_eq!(writer.lookup(CacheKey(7)), Some(summary(7)));
        assert_eq!(writer.lookup(CacheKey(8)), Some(summary(8)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The read reaches end of file: what follows a CRC-valid entry is
    /// seen, the entry counts as corrupt once, and re-publishing heals it.
    #[test]
    fn trailing_byte_and_empty_file_are_corrupt() {
        let dir = scratch_dir("edges");
        let cache = disk_only(&dir);
        let (padded, empty) = (CacheKey(1), CacheKey(2));
        cache.insert(padded, &summary(1)).unwrap();
        let mut bytes = std::fs::read(entry_path(&dir, padded)).unwrap();
        bytes.push(0);
        std::fs::write(entry_path(&dir, padded), bytes).unwrap();
        std::fs::write(entry_path(&dir, empty), b"").unwrap();

        assert!(cache.lookup(padded).is_none());
        let stats = cache.stats();
        assert_eq!((stats.corrupt_entries, stats.misses), (1, 1));
        assert!(cache.lookup(empty).is_none());
        let stats = cache.stats();
        assert_eq!((stats.corrupt_entries, stats.misses), (2, 2));

        // The campaign re-simulates a corrupt flow and inserts it again.
        cache.insert(padded, &summary(1)).unwrap();
        assert_eq!(cache.lookup(padded), Some(summary(1)));
        let stats = cache.stats();
        assert_eq!((stats.disk_hits, stats.corrupt_entries), (1, 2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Entries one byte short of the stack buffer, exactly filling it, one
    /// byte over and twice its size all round-trip — the last three
    /// through the heap spill.
    #[test]
    fn entries_larger_than_the_stack_buffer_round_trip() {
        let dir = scratch_dir("spill");
        let cache = disk_only(&dir);
        let small = codec::encode_entry(0, &summary(0)).len();
        for (key, entry_len) in [
            ENTRY_BUF_LEN - 1,
            ENTRY_BUF_LEN,
            ENTRY_BUF_LEN + 1,
            2 * ENTRY_BUF_LEN + small,
        ]
        .into_iter()
        .enumerate()
        {
            // A label this long takes a two-byte length prefix.
            let label = entry_len - (small - "China Mobile".len()) - 1;
            let big = FlowSummary {
                provider: "x".repeat(label).into(),
                ..summary(key as u32)
            };
            let key = CacheKey(key as u64);
            cache.insert(key, &big).unwrap();
            let on_disk = std::fs::metadata(entry_path(&dir, key)).unwrap().len();
            assert_eq!(on_disk, entry_len as u64);
            assert_eq!(cache.lookup(key), Some(big));
        }
        assert_eq!(cache.stats().disk_hits, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_directory_in_an_entrys_place_is_a_miss() {
        let dir = scratch_dir("dir_entry");
        let key = CacheKey(3);
        std::fs::create_dir_all(entry_path(&dir, key)).unwrap();
        let cache = disk_only(&dir);
        assert!(cache.lookup(key).is_none());
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.corrupt_entries), (1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The directory is created once per cache, not once per entry — so a
    /// publish that finds it gone must bring it back itself.
    #[test]
    fn a_tier_deleted_between_publishes_is_recreated() {
        let dir = scratch_dir("recreate");
        let cache = disk_only(&dir);
        cache.insert(CacheKey(1), &summary(1)).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        cache.insert(CacheKey(2), &summary(2)).unwrap();
        assert!(cache.lookup(CacheKey(1)).is_none());
        assert_eq!(cache.lookup(CacheKey(2)), Some(summary(2)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Concurrent writers racing on the *same* keys in one shared disk
    /// directory: every published entry must verify (no torn writes) and
    /// no staging temp file may survive. This is the single-process half
    /// of the multi-process guarantee sharded campaigns rely on.
    #[test]
    fn concurrent_disk_writers_never_tear_entries() {
        let dir = scratch_dir("race");
        const WRITERS: usize = 8;
        const KEYS: u64 = 24;
        std::thread::scope(|scope| {
            for _ in 0..WRITERS {
                let dir = dir.clone();
                scope.spawn(move || {
                    let cache = disk_only(&dir);
                    for _ in 0..4 {
                        for k in 0..KEYS {
                            // Same key → same payload, as in real campaigns.
                            cache.insert(CacheKey(k), &summary(k as u32)).unwrap();
                        }
                    }
                });
            }
        });
        let reader = disk_only(&dir);
        for k in 0..KEYS {
            let got = reader
                .lookup(CacheKey(k))
                .unwrap_or_else(|| panic!("entry {k} missing or corrupt after the race"));
            assert_eq!(got, summary(k as u32));
        }
        assert_eq!(reader.stats().corrupt_entries, 0);
        let leftovers: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "staging files leaked: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Readers racing on the *same* keys of a populated disk tier under a
    /// cold memory tier — reads happen outside the shard lock, so two may
    /// promote one key: every lookup must still hit, be counted once, and
    /// leave one memory entry per key.
    #[test]
    fn concurrent_disk_readers_promote_consistently() {
        let dir = scratch_dir("readers");
        const READERS: usize = 4;
        const KEYS: u64 = 64;
        let writer = disk_only(&dir);
        for k in 0..KEYS {
            writer.insert(CacheKey(k), &summary(k as u32)).unwrap();
        }
        let cache = FlowCache::new(CacheConfig::with_disk(&dir));
        let start = std::sync::Barrier::new(READERS);
        std::thread::scope(|scope| {
            for _ in 0..READERS {
                scope.spawn(|| {
                    start.wait();
                    for k in 0..KEYS {
                        assert_eq!(cache.lookup(CacheKey(k)), Some(summary(k as u32)));
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.memory_hits + stats.disk_hits, READERS as u64 * KEYS);
        assert!(stats.disk_hits >= KEYS, "{stats:?}");
        assert_eq!((stats.corrupt_entries, stats.misses), (0, 0));
        assert_eq!(cache.len(), KEYS as usize);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_capacity_disables_memory_tier() {
        let cache = FlowCache::new(CacheConfig {
            memory_entries: 0,
            disk_dir: None,
        });
        cache.insert(CacheKey(5), &summary(5)).unwrap();
        assert!(cache.is_empty());
        assert!(cache.lookup(CacheKey(5)).is_none());
    }
}
