//! # rai-wal — checksummed append-only write-ahead log
//!
//! Durability substrate for `rai-db` and `rai-store`: components append
//! framed logical records to a segment log and replay it after a crash
//! to reconstruct their in-memory state byte-for-byte.
//!
//! ## Record framing
//!
//! Every record is `[len: u32 LE][crc: u32 LE][payload]` where `crc` is
//! the CRC-32 (IEEE) of the length prefix concatenated with the
//! payload. Covering the length field means a bit flip in `len` cannot
//! redirect the checksum window and be silently accepted: a corrupt
//! length either fails the sanity bound ([`MAX_RECORD`]), runs past the
//! segment end (treated as a torn tail), or lands on bytes whose CRC
//! does not match.
//!
//! ## Segments, fsync batching, compaction
//!
//! Records append to numbered segments; a segment rotates once it
//! reaches `segment_bytes`. [`Wal::append`] batches `fsync` calls —
//! one per `fsync_every` records — and [`Wal::sync`] forces a batch
//! boundary at explicit durability points. [`Wal::open`] always starts
//! a *fresh* segment (max existing id + 1) so recovery never appends
//! after a possibly-torn tail.
//!
//! [`Wal::compact`] snapshots live state into new, higher-numbered
//! segments and then deletes every older segment. Replay order is by
//! segment id, so a snapshot followed by later appends replays in the
//! same order it was written. Compaction runs only at quiesced points
//! (between scenario rounds); crash injection never interleaves with
//! it.
//!
//! ## Recovery
//!
//! [`Wal::replay`] walks segments in id order. An incomplete header or
//! a length running past the segment end truncates the tail (a torn
//! write — expected on crash, counted in bytes). A failed CRC drops
//! that record, counts it, and resyncs at the claimed record boundary
//! so later intact records still replay. Replay never panics on
//! corrupt input.
//!
//! ## Backends
//!
//! [`LogBackend`] abstracts the disk: [`FileBackend`] uses real files
//! (bins, integration tests); [`MemDisk`] is a deterministic simulated
//! disk that tracks the synced prefix of each segment and can apply
//! seeded [`DiskFault`]s to the unsynced tail at a crash, which keeps
//! crash/recovery proptests byte-reproducible.
//!
//! ## Record payloads
//!
//! What goes *inside* a frame is the appender's business; [`codec`]
//! holds the primitive writers and the checked reader both journaling
//! crates build their logical records from.

#![forbid(unsafe_code)]

pub mod codec;

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub use rai_faults::{DiskFault, DiskFaultProfile};

/// Sanity bound on a single record payload. A decoded length above
/// this is treated as corruption, not allocation advice.
pub const MAX_RECORD: u32 = 64 << 20;

/// Bytes of framing overhead per record (`len` + `crc`).
pub const HEADER_BYTES: u64 = 8;

const CRC_TABLE: [u32; 256] = crc32_table();

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    let mut c = state;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

fn record_crc(len_le: [u8; 4], payload: &[u8]) -> u32 {
    crc32_update(crc32_update(0xFFFF_FFFF, &len_le), payload) ^ 0xFFFF_FFFF
}

/// Frame one payload as `[len][crc][payload]`.
pub fn encode_record(payload: &[u8]) -> Vec<u8> {
    assert!(payload.len() as u64 <= MAX_RECORD as u64, "record exceeds MAX_RECORD");
    let len_le = (payload.len() as u32).to_le_bytes();
    let crc = record_crc(len_le, payload);
    let mut out = Vec::with_capacity(payload.len() + HEADER_BYTES as usize);
    out.extend_from_slice(&len_le);
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// What replay recovered and what it discarded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Records decoded with a valid CRC.
    pub replayed: u64,
    /// Records dropped for a failed CRC or an insane length field.
    pub corrupt_dropped: u64,
    /// Trailing bytes truncated as torn writes (incomplete header or a
    /// length running past the segment end).
    pub torn_bytes: u64,
}

/// Decode one segment's bytes, appending intact payloads to `records`
/// and accounting damage in `stats`. Never panics: a torn tail
/// truncates, a corrupt record is dropped and decoding resyncs at the
/// boundary its length field claimed.
pub fn decode_segment(bytes: &[u8], records: &mut Vec<Vec<u8>>, stats: &mut ReplayStats) {
    let total = bytes.len();
    let mut off = 0usize;
    while off < total {
        let rem = total - off;
        if rem < HEADER_BYTES as usize {
            stats.torn_bytes += rem as u64;
            return;
        }
        let len_le = [bytes[off], bytes[off + 1], bytes[off + 2], bytes[off + 3]];
        let len = u32::from_le_bytes(len_le);
        if len > MAX_RECORD {
            // A length no writer could have produced: corruption, not a
            // torn write. Nothing after it can be trusted to align.
            stats.corrupt_dropped += 1;
            stats.torn_bytes += (rem - HEADER_BYTES as usize) as u64;
            return;
        }
        let len = len as usize;
        if len > rem - HEADER_BYTES as usize {
            // The record runs past the segment end: a torn write (or a
            // flipped length bit — indistinguishable, same handling).
            stats.torn_bytes += rem as u64;
            return;
        }
        let crc = u32::from_le_bytes([
            bytes[off + 4],
            bytes[off + 5],
            bytes[off + 6],
            bytes[off + 7],
        ]);
        let payload = &bytes[off + HEADER_BYTES as usize..off + HEADER_BYTES as usize + len];
        if record_crc(len_le, payload) == crc {
            records.push(payload.to_vec());
            stats.replayed += 1;
        } else {
            stats.corrupt_dropped += 1;
        }
        off += HEADER_BYTES as usize + len;
    }
}

/// Sizing of a [`Wal`], threaded from `SystemConfig` down into each
/// component's log. Whether a component journals at all is not decided
/// here: a component with a `Wal` attached does, one without does not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Rotate the active segment once it reaches this many bytes.
    pub segment_bytes: u64,
    /// Fsync once per this many appended records (1 = every record).
    /// Explicit [`Wal::sync`] calls at durability points force a batch
    /// boundary early.
    pub fsync_every: u64,
    /// Never compact while the log is smaller than this.
    pub compact_min_bytes: u64,
    /// Compact when the log exceeds this multiple of the last
    /// snapshot's size.
    pub compact_factor: u64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            segment_bytes: 256 << 10,
            fsync_every: 8,
            compact_min_bytes: 1 << 20,
            compact_factor: 4,
        }
    }
}

impl DurabilityConfig {
    /// The default sizing, named for the call sites that build a
    /// durable deployment.
    pub fn durable() -> Self {
        DurabilityConfig::default()
    }
}

/// Pluggable storage under a [`Wal`]: numbered append-only segments.
///
/// Implementations must tolerate ids they have never seen (`append`
/// creates, `read_segment`/`segment_len` of a missing id are empty/0,
/// `remove_segment`/`sync` of a missing id are no-ops).
pub trait LogBackend: Send + Sync {
    /// Existing segment ids, ascending.
    fn list_segments(&self) -> Vec<u64>;
    /// Current length of a segment in bytes (0 if absent).
    fn segment_len(&self, id: u64) -> u64;
    /// Full contents of a segment (empty if absent).
    fn read_segment(&self, id: u64) -> Vec<u8>;
    /// Append bytes to a segment, creating it if needed.
    fn append(&self, id: u64, bytes: &[u8]);
    /// Make everything appended to the segment so far durable.
    fn sync(&self, id: u64);
    /// Delete a segment.
    fn remove_segment(&self, id: u64);
}

#[derive(Default)]
struct SegmentBuf {
    data: Vec<u8>,
    /// Bytes guaranteed durable: a crash can only damage `data[synced..]`.
    synced: usize,
}

#[derive(Default)]
struct MemDiskInner {
    segments: BTreeMap<u64, SegmentBuf>,
    /// Fsync calls observed, for batching assertions in tests.
    syncs: u64,
}

/// Deterministic in-memory "disk". Tracks the synced prefix of every
/// segment so a simulated crash ([`MemDisk::crash_with`]) can damage
/// exactly the bytes a real power cut could: the unsynced tail of the
/// active segment.
#[derive(Clone, Default)]
pub struct MemDisk {
    inner: Arc<Mutex<MemDiskInner>>,
}

impl MemDisk {
    /// An empty disk.
    pub fn new() -> Self {
        MemDisk::default()
    }

    /// Total bytes across all segments.
    pub fn total_bytes(&self) -> u64 {
        self.inner.lock().segments.values().map(|s| s.data.len() as u64).sum()
    }

    /// Number of fsync calls the disk has served.
    pub fn sync_count(&self) -> u64 {
        self.inner.lock().syncs
    }

    /// Simulate a clean process kill: the OS survives, so even unsynced
    /// page-cache bytes reach the platter. The disk is unchanged.
    pub fn crash_clean(&self) {}

    /// Simulate a dirty crash: apply `profile`'s seeded faults for
    /// `crash_index` to the unsynced tail of the highest (active)
    /// segment. The synced prefix is durable by contract and is never
    /// damaged. Returns the faults applied.
    pub fn crash_with(&self, profile: &DiskFaultProfile, crash_index: u64) -> Vec<DiskFault> {
        let mut inner = self.inner.lock();
        let Some((_, seg)) = inner.segments.iter_mut().next_back() else {
            return Vec::new();
        };
        let tail_len = (seg.data.len() - seg.synced) as u64;
        let faults = profile.faults_for_crash(crash_index, tail_len);
        for &fault in &faults {
            let tail = seg.data.len() - seg.synced;
            if tail == 0 {
                break;
            }
            match fault {
                DiskFault::TornTail { drop_bytes } => {
                    let cut = (drop_bytes as usize).min(tail);
                    seg.data.truncate(seg.data.len() - cut);
                }
                DiskFault::BitFlip { offset, bit } => {
                    let idx = seg.synced + (offset % tail as u64) as usize;
                    seg.data[idx] ^= 1 << (bit & 7);
                }
                DiskFault::ShortRead { keep } => {
                    let keep = (keep as usize).min(tail);
                    seg.data.truncate(seg.synced + keep);
                }
            }
        }
        faults
    }
}

impl LogBackend for MemDisk {
    fn list_segments(&self) -> Vec<u64> {
        self.inner.lock().segments.keys().copied().collect()
    }

    fn segment_len(&self, id: u64) -> u64 {
        self.inner.lock().segments.get(&id).map_or(0, |s| s.data.len() as u64)
    }

    fn read_segment(&self, id: u64) -> Vec<u8> {
        self.inner.lock().segments.get(&id).map_or_else(Vec::new, |s| s.data.clone())
    }

    fn append(&self, id: u64, bytes: &[u8]) {
        self.inner.lock().segments.entry(id).or_default().data.extend_from_slice(bytes);
    }

    fn sync(&self, id: u64) {
        let mut inner = self.inner.lock();
        inner.syncs += 1;
        if let Some(seg) = inner.segments.get_mut(&id) {
            seg.synced = seg.data.len();
        }
    }

    fn remove_segment(&self, id: u64) {
        self.inner.lock().segments.remove(&id);
    }
}

/// Real-file backend: one `<id:016x>.wal` file per segment under a
/// directory. Used by bins and integration tests; the simulated
/// [`MemDisk`] is preferred wherever determinism matters.
pub struct FileBackend {
    dir: PathBuf,
}

impl FileBackend {
    /// Backend rooted at `dir`, which is created if missing.
    pub fn new(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(FileBackend { dir })
    }

    fn path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("{id:016x}.wal"))
    }
}

impl LogBackend for FileBackend {
    fn list_segments(&self) -> Vec<u64> {
        let mut ids = Vec::new();
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if let Some(hex) = name.strip_suffix(".wal") {
                    if let Ok(id) = u64::from_str_radix(hex, 16) {
                        ids.push(id);
                    }
                }
            }
        }
        ids.sort_unstable();
        ids
    }

    fn segment_len(&self, id: u64) -> u64 {
        std::fs::metadata(self.path(id)).map_or(0, |m| m.len())
    }

    fn read_segment(&self, id: u64) -> Vec<u8> {
        std::fs::read(self.path(id)).unwrap_or_default()
    }

    fn append(&self, id: u64, bytes: &[u8]) {
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(id))
            .expect("wal: open segment for append");
        file.write_all(bytes).expect("wal: append to segment");
    }

    fn sync(&self, id: u64) {
        if let Ok(file) = std::fs::File::open(self.path(id)) {
            let _ = file.sync_all();
        }
    }

    fn remove_segment(&self, id: u64) {
        let _ = std::fs::remove_file(self.path(id));
    }
}

struct WalState {
    /// Id of the segment currently receiving appends.
    active: u64,
    active_len: u64,
    /// Records appended since the last fsync batch.
    unsynced_records: u64,
    /// Total framed bytes across all live segments.
    log_bytes: u64,
    /// Framed bytes of the last compaction snapshot (0 before the
    /// first compaction).
    snapshot_bytes: u64,
}

#[derive(Default)]
struct WalCounters {
    appends: AtomicU64,
    bytes: AtomicU64,
    fsync_batches: AtomicU64,
    replayed: AtomicU64,
    corrupt_dropped: AtomicU64,
    torn_bytes: AtomicU64,
    compactions: AtomicU64,
}

/// Point-in-time counters for telemetry and reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended.
    pub appends: u64,
    /// Framed bytes appended.
    pub bytes: u64,
    /// Fsync batches issued.
    pub fsync_batches: u64,
    /// Records recovered across all [`Wal::replay`] calls.
    pub replayed: u64,
    /// Corrupt records dropped on replay.
    pub corrupt_dropped: u64,
    /// Torn-tail bytes truncated on replay.
    pub torn_bytes: u64,
    /// Compactions performed.
    pub compactions: u64,
    /// Live segments.
    pub segments: u64,
    /// Total framed bytes in live segments.
    pub log_bytes: u64,
    /// Framed bytes of the last compaction snapshot.
    pub snapshot_bytes: u64,
}

struct WalInner {
    backend: Arc<dyn LogBackend>,
    config: DurabilityConfig,
    state: Mutex<WalState>,
    counters: WalCounters,
}

/// Cheaply cloneable handle to one component's write-ahead log. All
/// clones share the active-segment cursor and counters.
#[derive(Clone)]
pub struct Wal {
    inner: Arc<WalInner>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.inner.state.lock();
        f.debug_struct("Wal")
            .field("active", &state.active)
            .field("log_bytes", &state.log_bytes)
            .finish_non_exhaustive()
    }
}

/// The outcome of [`Wal::replay`].
#[derive(Debug, Default)]
pub struct Replay {
    /// Intact record payloads, in append order.
    pub records: Vec<Vec<u8>>,
    /// What was recovered and what was discarded.
    pub stats: ReplayStats,
}

impl Wal {
    /// Open a log over `backend`. Appends always start a fresh segment
    /// (max existing id + 1) so recovery never writes after a
    /// possibly-torn tail.
    pub fn open(backend: Arc<dyn LogBackend>, config: DurabilityConfig) -> Self {
        let ids = backend.list_segments();
        let log_bytes = ids.iter().map(|&id| backend.segment_len(id)).sum();
        let active = ids.last().map_or(0, |&id| id + 1);
        Wal {
            inner: Arc::new(WalInner {
                backend,
                config,
                state: Mutex::new(WalState {
                    active,
                    active_len: 0,
                    unsynced_records: 0,
                    log_bytes,
                    snapshot_bytes: 0,
                }),
                counters: WalCounters::default(),
            }),
        }
    }

    /// The configuration this log runs under.
    pub fn config(&self) -> &DurabilityConfig {
        &self.inner.config
    }

    /// Append one framed record, rotating the segment and batching
    /// fsyncs per the config.
    pub fn append(&self, payload: &[u8]) {
        let framed = encode_record(payload);
        let mut state = self.inner.state.lock();
        let id = state.active;
        self.inner.backend.append(id, &framed);
        state.active_len += framed.len() as u64;
        state.log_bytes += framed.len() as u64;
        state.unsynced_records += 1;
        self.inner.counters.appends.fetch_add(1, Ordering::Relaxed);
        self.inner.counters.bytes.fetch_add(framed.len() as u64, Ordering::Relaxed);
        if state.unsynced_records >= self.inner.config.fsync_every.max(1) {
            self.sync_locked(&mut state);
        }
        if state.active_len >= self.inner.config.segment_bytes.max(1) {
            // Rotation is a durability point: seal the full segment.
            self.sync_locked(&mut state);
            state.active += 1;
            state.active_len = 0;
        }
    }

    /// Force an fsync batch boundary (a durability point: e.g. a
    /// submission intent must survive any later crash).
    pub fn sync(&self) {
        let mut state = self.inner.state.lock();
        self.sync_locked(&mut state);
    }

    fn sync_locked(&self, state: &mut WalState) {
        if state.unsynced_records == 0 {
            return;
        }
        self.inner.backend.sync(state.active);
        state.unsynced_records = 0;
        self.inner.counters.fsync_batches.fetch_add(1, Ordering::Relaxed);
    }

    /// Replay every live segment in id order, recovering intact records
    /// and accounting damage. Accumulates into the shared counters.
    pub fn replay(&self) -> Replay {
        let mut replay = Replay::default();
        for id in self.inner.backend.list_segments() {
            let bytes = self.inner.backend.read_segment(id);
            decode_segment(&bytes, &mut replay.records, &mut replay.stats);
        }
        let c = &self.inner.counters;
        c.replayed.fetch_add(replay.stats.replayed, Ordering::Relaxed);
        c.corrupt_dropped.fetch_add(replay.stats.corrupt_dropped, Ordering::Relaxed);
        c.torn_bytes.fetch_add(replay.stats.torn_bytes, Ordering::Relaxed);
        replay
    }

    /// True when the log has outgrown the last snapshot by the
    /// configured factor (and the minimum size).
    pub fn should_compact(&self) -> bool {
        let state = self.inner.state.lock();
        state.log_bytes >= self.inner.config.compact_min_bytes
            && state.log_bytes
                >= self.inner.config.compact_factor.max(1) * state.snapshot_bytes.max(1)
    }

    /// Replace the entire log with `snapshot` records: they are written
    /// (and synced) into fresh, higher-numbered segments, then every
    /// older segment is deleted. Replay order is preserved because
    /// segments replay in id order. Must run at a quiesced point — the
    /// caller guarantees no concurrent appends and no crash injection
    /// while compaction is in flight.
    pub fn compact(&self, snapshot: impl IntoIterator<Item = Vec<u8>>) {
        let mut state = self.inner.state.lock();
        let old_ids = self.inner.backend.list_segments();
        let mut id = state.active + 1;
        let mut seg_len = 0u64;
        let mut written = 0u64;
        for payload in snapshot {
            let framed = encode_record(&payload);
            if seg_len > 0 && seg_len + framed.len() as u64 > self.inner.config.segment_bytes.max(1)
            {
                self.inner.backend.sync(id);
                id += 1;
                seg_len = 0;
            }
            self.inner.backend.append(id, &framed);
            seg_len += framed.len() as u64;
            written += framed.len() as u64;
        }
        self.inner.backend.sync(id);
        for old in old_ids {
            self.inner.backend.remove_segment(old);
        }
        state.active = id + 1;
        state.active_len = 0;
        state.unsynced_records = 0;
        state.log_bytes = written;
        state.snapshot_bytes = written;
        self.inner.counters.compactions.fetch_add(1, Ordering::Relaxed);
    }

    /// Current counters plus log geometry.
    pub fn stats(&self) -> WalStats {
        let c = &self.inner.counters;
        let (segments, log_bytes, snapshot_bytes) = {
            let state = self.inner.state.lock();
            (
                self.inner.backend.list_segments().len() as u64,
                state.log_bytes,
                state.snapshot_bytes,
            )
        };
        WalStats {
            appends: c.appends.load(Ordering::Relaxed),
            bytes: c.bytes.load(Ordering::Relaxed),
            fsync_batches: c.fsync_batches.load(Ordering::Relaxed),
            replayed: c.replayed.load(Ordering::Relaxed),
            corrupt_dropped: c.corrupt_dropped.load(Ordering::Relaxed),
            torn_bytes: c.torn_bytes.load(Ordering::Relaxed),
            compactions: c.compactions.load(Ordering::Relaxed),
            segments,
            log_bytes,
            snapshot_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem_wal(config: DurabilityConfig) -> (Wal, MemDisk) {
        let disk = MemDisk::new();
        let wal = Wal::open(Arc::new(disk.clone()), config);
        (wal, disk)
    }

    #[test]
    fn append_replay_round_trip() {
        let (wal, _disk) = mem_wal(DurabilityConfig::durable());
        let payloads: Vec<Vec<u8>> = (0..100u32).map(|i| i.to_le_bytes().to_vec()).collect();
        for p in &payloads {
            wal.append(p);
        }
        let replay = wal.replay();
        assert_eq!(replay.records, payloads);
        assert_eq!(replay.stats.replayed, 100);
        assert_eq!(replay.stats.corrupt_dropped, 0);
        assert_eq!(replay.stats.torn_bytes, 0);
    }

    #[test]
    fn segments_rotate_and_reopen_starts_fresh() {
        let config = DurabilityConfig {
            segment_bytes: 64,
            fsync_every: 1,
            ..DurabilityConfig::default()
        };
        let (wal, disk) = mem_wal(config);
        for i in 0..20u64 {
            wal.append(&i.to_le_bytes());
        }
        assert!(disk.list_segments().len() > 1, "should have rotated");
        // Reopen: the new active segment is beyond every existing one.
        let reopened = Wal::open(Arc::new(disk.clone()), config);
        let before = disk.list_segments();
        reopened.append(b"post-recovery");
        let after = disk.list_segments();
        assert_eq!(after.len(), before.len() + 1);
        assert!(after.last() > before.last());
        // Replay still sees everything, in order.
        let replay = reopened.replay();
        assert_eq!(replay.records.len(), 21);
        assert_eq!(replay.records[20], b"post-recovery".to_vec());
    }

    #[test]
    fn fsync_batches_per_config() {
        let config = DurabilityConfig {
            fsync_every: 5,
            segment_bytes: 1 << 20,
            ..DurabilityConfig::default()
        };
        let (wal, disk) = mem_wal(config);
        for i in 0..10u64 {
            wal.append(&i.to_le_bytes());
        }
        assert_eq!(disk.sync_count(), 2);
        assert_eq!(wal.stats().fsync_batches, 2);
        // An explicit sync with nothing pending is a no-op.
        wal.sync();
        assert_eq!(disk.sync_count(), 2);
        wal.append(b"x");
        wal.sync();
        assert_eq!(disk.sync_count(), 3);
    }

    #[test]
    fn torn_tail_truncates_cleanly() {
        let (wal, disk) = mem_wal(DurabilityConfig::durable());
        wal.append(b"alpha");
        wal.append(b"beta");
        // Tear mid-record: chop 3 bytes off the active segment.
        let id = *disk.list_segments().last().unwrap();
        let mut bytes = disk.read_segment(id);
        bytes.truncate(bytes.len() - 3);
        disk.remove_segment(id);
        disk.append(id, &bytes);
        let replay = wal.replay();
        assert_eq!(replay.records, vec![b"alpha".to_vec()]);
        assert_eq!(replay.stats.replayed, 1);
        assert!(replay.stats.torn_bytes > 0);
    }

    #[test]
    fn bit_flip_drops_one_record_and_resyncs() {
        let (wal, disk) = mem_wal(DurabilityConfig::durable());
        wal.append(b"first");
        wal.append(b"second");
        wal.append(b"third");
        let id = *disk.list_segments().last().unwrap();
        let mut bytes = disk.read_segment(id);
        // Flip a payload bit of "second" (record 2's payload starts at
        // 8+5+8 = 21).
        bytes[21] ^= 0x10;
        disk.remove_segment(id);
        disk.append(id, &bytes);
        let replay = wal.replay();
        assert_eq!(replay.records, vec![b"first".to_vec(), b"third".to_vec()]);
        assert_eq!(replay.stats.corrupt_dropped, 1);
    }

    #[test]
    fn insane_length_stops_without_panicking() {
        let mut records = Vec::new();
        let mut stats = ReplayStats::default();
        let mut bytes = encode_record(b"ok");
        let mut bad = (MAX_RECORD + 1).to_le_bytes().to_vec();
        bad.extend_from_slice(&[0u8; 12]);
        bytes.extend_from_slice(&bad);
        decode_segment(&bytes, &mut records, &mut stats);
        assert_eq!(records, vec![b"ok".to_vec()]);
        assert_eq!(stats.corrupt_dropped, 1);
    }

    #[test]
    fn compaction_replaces_old_segments_and_preserves_order() {
        let config = DurabilityConfig {
            segment_bytes: 64,
            fsync_every: 1,
            compact_min_bytes: 1,
            compact_factor: 1,
        };
        let (wal, disk) = mem_wal(config);
        for i in 0..50u64 {
            wal.append(format!("record-{i}").as_bytes());
        }
        assert!(wal.should_compact());
        let live: Vec<Vec<u8>> = vec![b"snap-a".to_vec(), b"snap-b".to_vec()];
        wal.compact(live.clone());
        assert_eq!(wal.stats().compactions, 1);
        assert!(wal.stats().log_bytes < 100);
        // Post-compaction appends land after the snapshot in replay.
        wal.append(b"tail");
        let replay = wal.replay();
        assert_eq!(
            replay.records,
            vec![b"snap-a".to_vec(), b"snap-b".to_vec(), b"tail".to_vec()]
        );
        // Every pre-compaction segment is gone.
        assert!(disk.list_segments().len() <= 2);
    }

    #[test]
    fn crash_with_faults_damages_only_unsynced_tail() {
        let config = DurabilityConfig {
            fsync_every: 1000,
            segment_bytes: 1 << 20,
            ..DurabilityConfig::default()
        };
        let (wal, disk) = mem_wal(config);
        for i in 0..10u64 {
            wal.append(format!("durable-{i}").as_bytes());
        }
        wal.sync(); // everything so far is durable
        for i in 0..10u64 {
            wal.append(format!("volatile-{i}").as_bytes());
        }
        let profile = DiskFaultProfile::chaos(42);
        // Find a crash index that actually tears the tail.
        let crash_index = (0..100u64)
            .find(|&c| {
                profile
                    .faults_for_crash(c, 1)
                    .iter()
                    .any(|f| matches!(f, DiskFault::TornTail { .. }))
            })
            .expect("chaos profile tears some crash");
        disk.crash_with(&profile, crash_index);
        let recovered = Wal::open(Arc::new(disk.clone()), config);
        let replay = recovered.replay();
        // All synced records survive, in order; some volatile tail may
        // be gone but nothing is silently wrong.
        assert!(replay.records.len() >= 10);
        for (i, rec) in replay.records.iter().take(10).enumerate() {
            assert_eq!(rec, format!("durable-{i}").as_bytes());
        }
        assert!(replay.records.len() < 20 || replay.stats.corrupt_dropped > 0);
    }

    #[test]
    fn file_backend_round_trips() {
        let dir = std::env::temp_dir().join(format!("rai-wal-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let backend = Arc::new(FileBackend::new(&dir).expect("temp dir"));
        let config = DurabilityConfig {
            segment_bytes: 64,
            fsync_every: 2,
            ..DurabilityConfig::default()
        };
        let wal = Wal::open(backend.clone(), config);
        for i in 0..20u64 {
            wal.append(format!("file-{i}").as_bytes());
        }
        wal.sync();
        let reopened = Wal::open(backend, config);
        let replay = reopened.replay();
        assert_eq!(replay.records.len(), 20);
        assert_eq!(replay.stats.corrupt_dropped, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
