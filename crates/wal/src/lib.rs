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
//! length either fails the sanity bound (`MAX_RECORD`), runs past the
//! segment end (treated as a torn tail), or lands on bytes whose CRC
//! does not match.
//!
//! ## Segments, fsync batching, compaction
//!
//! Records append to numbered segments; a segment rotates once it
//! reaches `segment_bytes`. [`Wal::append`] batches `fsync` calls —
//! one per `FSYNC_EVERY` records — and [`Wal::sync`] forces a batch
//! boundary at explicit durability points. [`Wal::open`] always starts
//! a *fresh* segment (max existing id + 1) so recovery never appends
//! after a possibly-torn tail.
//!
//! [`Wal::compact`] snapshots live state into new, higher-numbered
//! segments and then deletes every older segment. Replay order is by
//! segment id, so a snapshot followed by later appends replays in the
//! same order it was written. Compaction runs under the state lock
//! every append is made under (the store's, the database's), so no
//! append interleaves with it; crash injection never does either.
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
//! ## The disk
//!
//! A log lies on a [`MemDisk`]: a deterministic simulated disk that
//! tracks the synced prefix of each segment and can apply seeded
//! [`DiskFault`]s to the unsynced tail at a crash, which keeps
//! crash/recovery proptests byte-reproducible.
//!
//! ## Record payloads
//!
//! What goes *inside* a frame is the appender's business; [`codec`]
//! holds the primitive writers and the checked reader both journaling
//! crates build their logical records from.

#![deny(unsafe_code)]

pub mod codec;

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rai_faults::{DiskFault, DiskFaultProfile};

/// Sanity bound on a single record payload. A decoded length above
/// this is treated as corruption, not allocation advice, so no writer
/// may frame a longer one: an appender whose state outgrows it splits
/// the state over several records.
pub const MAX_RECORD: u32 = 64 << 20;

/// Bytes of framing overhead per record (`len` + `crc`).
const HEADER_BYTES: usize = 8;

/// Slicing-by-8 tables for CRC-32 (IEEE, reflected polynomial
/// `0xEDB88320`): `CRC_TABLES[0]` is the classic byte-at-a-time table,
/// and `CRC_TABLES[k][b]` is what byte `b` contributes with `k` more
/// bytes behind it, so eight bytes fold in one step of eight lookups.
const CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

/// Fold `bytes` into a running CRC-32 state on the fastest kernel this
/// CPU runs for that length. Every kernel computes the same function.
fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    match Kernel::detect(bytes.len()) {
        Kernel::Table => crc32_table(state, bytes),
        // SAFETY: `Clmul` is only returned by `Kernel::detect`, after
        // `is_x86_feature_detected!` reported `pclmulqdq`, the one
        // feature `clmul::update` enables beyond the x86-64 baseline.
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        Kernel::Clmul => unsafe { clmul::update(state, bytes) },
    }
}

/// The CRC-32 (IEEE) of `bytes`: the checksum every record is framed
/// with, over `len || payload`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// Which fold a CRC update runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kernel {
    /// [`crc32_table`]: every CPU, every length.
    Table,
    /// [`clmul::update`]: on at least [`CLMUL_MIN_BYTES`], where the
    /// CPU has the carry-less multiplier.
    #[cfg(target_arch = "x86_64")]
    Clmul,
}

/// Shortest input the carry-less kernel takes: one step of its four
/// 16-byte lanes. From there up it beats the tables on the 2-core
/// reference host, ≈ 3× at 64 bytes and ≈ 13× at 64 KiB.
const CLMUL_MIN_BYTES: usize = 64;

impl Kernel {
    /// The kernel for `len` bytes on this CPU. `std` asks the CPU once
    /// per process and caches the answer, so this is a load and a test.
    #[inline]
    fn detect(len: usize) -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if len >= CLMUL_MIN_BYTES && is_x86_feature_detected!("pclmulqdq") {
            return Kernel::Clmul;
        }
        let _ = len;
        Kernel::Table
    }
}

/// Fold `bytes` into a running CRC-32 state through the tables: eight
/// bytes a step, the byte-at-a-time table for the tail.
fn crc32_table(state: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = state;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("eight bytes"));
        let lo = c ^ word as u32;
        let hi = (word >> 32) as u32;
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// The CRC on the carry-less multiplier (Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction",
/// Intel, 2009), for the reflected polynomial the tables are built
/// from. Four 128-bit lanes fold 64 bytes a step, each lane multiplied
/// forward by x^512 mod P; the lanes then fold into one by x^128 mod P,
/// the remaining 16-byte blocks fold into it the same way, the 128-bit
/// remainder reduces to 64 bits and a Barrett reduction takes it to the
/// 32-bit state. The tables take the last `len % 16` bytes.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use super::crc32_table;
    use std::arch::x86_64::*;

    /// x^(4·128+32) and x^(4·128−32) mod P, bit-reflected and shifted
    /// left by one, as are `K3`–`K5`: one fold across four lanes.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// x^(128+32) and x^(128−32) mod P: one fold across one lane.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// x^64 mod P: the 96-to-64-bit step.
    const K5: i64 = 0x1_63cd_6124;
    /// P itself and ⌊x^64 / P⌋, bit-reflected: Barrett's two constants.
    const P_X: i64 = 0x1_db71_0641;
    const U_PRIME: i64 = 0x1_f701_1641;

    /// `acc` multiplied forward by the distance `keys` encodes, into
    /// `next`.
    #[target_feature(enable = "pclmulqdq")]
    fn fold(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// One 16-byte block, least significant byte first.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn load(block: &[u8; 16]) -> __m128i {
        let (lo, hi) = block.split_at(8);
        let word = |half: &[u8]| i64::from_le_bytes(half.try_into().expect("eight bytes"));
        _mm_set_epi64x(word(hi), word(lo))
    }

    /// Fold `bytes`, at least [`super::CLMUL_MIN_BYTES`] of them, into a
    /// running CRC-32 state.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn update(state: u32, bytes: &[u8]) -> u32 {
        let (blocks, tail) = bytes.as_chunks::<16>();
        let (first, rest) = blocks.split_first_chunk::<4>().expect("at least 64 bytes");
        let mut lanes = first.map(|block| load(&block));
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(state as i32));
        let mut quads = rest.chunks_exact(4);
        let k1k2 = _mm_set_epi64x(K2, K1);
        for quad in &mut quads {
            for (lane, block) in lanes.iter_mut().zip(quad) {
                *lane = fold(*lane, load(block), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let [a, b, c, d] = lanes;
        let mut x = fold(fold(fold(a, b, k3k4), c, k3k4), d, k3k4);
        for block in quads.remainder() {
            x = fold(x, load(block), k3k4);
        }
        // 128 bits to 96, then 96 to 64.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett: T1 = (R mod x^32)·µ, T2 = (T1 mod x^32)·P, and the
        // state is bits 32..64 of R ⊕ T2 (reflected, so the high half).
        let pu = _mm_set_epi64x(U_PRIME, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let c = _mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(x, t2), 4)) as u32;
        crc32_table(c, tail)
    }
}

fn record_crc(len_le: [u8; 4], payload: &[u8]) -> u32 {
    crc32_update(crc32_update(0xFFFF_FFFF, &len_le), payload) ^ 0xFFFF_FFFF
}

/// Frame, at the end of `out`, the payload `write` appends there: an
/// 8-byte header is reserved first and patched with `len` and `crc`
/// once the payload is in place, so nothing is copied. The one framing
/// routine — [`Wal::append_with`] and [`Wal::compact`] both frame
/// through it. Returns the framed length.
fn frame_into(out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0; HEADER_BYTES]);
    write(out);
    let body = start + HEADER_BYTES;
    let len = out
        .len()
        .checked_sub(body)
        .and_then(|len| u32::try_from(len).ok())
        .filter(|&len| len <= MAX_RECORD)
        .expect("record exceeds MAX_RECORD");
    let len_le = len.to_le_bytes();
    let crc = record_crc(len_le, &out[body..]);
    out[start..start + 4].copy_from_slice(&len_le);
    out[start + 4..body].copy_from_slice(&crc.to_le_bytes());
    out.len() - start
}

/// What replay recovered and what it discarded.
#[derive(Debug, Default)]
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
/// and accounting damage in `stats` — [`Wal::replay`]'s loop, for one
/// segment. Never panics: a torn tail truncates, a corrupt record is
/// dropped and decoding resyncs at the boundary its length field
/// claimed.
pub fn decode_segment(bytes: &[u8], records: &mut Vec<Vec<u8>>, stats: &mut ReplayStats) {
    decode_each(bytes, stats, |payload| records.push(payload.to_vec()));
}

/// The decode loop: hand each intact payload of one segment to `each`
/// as a view into `bytes`, accounting damage in `stats`.
fn decode_each(bytes: &[u8], stats: &mut ReplayStats, mut each: impl FnMut(&[u8])) {
    let mut rest = bytes;
    while !rest.is_empty() {
        let Some((header, body)) = rest.split_first_chunk::<HEADER_BYTES>() else {
            stats.torn_bytes += rest.len() as u64;
            return;
        };
        let len_le = [header[0], header[1], header[2], header[3]];
        let len = u32::from_le_bytes(len_le);
        if len > MAX_RECORD {
            // A length no writer could have produced: corruption, not a
            // torn write. Nothing after it can be trusted to align.
            stats.corrupt_dropped += 1;
            stats.torn_bytes += body.len() as u64;
            return;
        }
        if len as usize > body.len() {
            // The record runs past the segment end: a torn write (or a
            // flipped length bit — indistinguishable, same handling).
            stats.torn_bytes += rest.len() as u64;
            return;
        }
        let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        let (payload, after) = body.split_at(len as usize);
        if record_crc(len_le, payload) == crc {
            each(payload);
            stats.replayed += 1;
        } else {
            stats.corrupt_dropped += 1;
        }
        rest = after;
    }
}

/// Records appended per `fsync` batch. Explicit [`Wal::sync`] calls at
/// durability points close a batch early.
pub(crate) const FSYNC_EVERY: u64 = 8;

/// Sizing of a [`Wal`], threaded from `SystemConfig` down into each
/// component's log. Whether a component journals at all is not decided
/// here: a component with a `Wal` attached does, one without does not.
#[derive(Debug, Clone, Copy)]
pub struct DurabilityConfig {
    /// Rotate the active segment once it reaches this many bytes.
    pub segment_bytes: u64,
    /// Never compact while the log is smaller than this.
    pub compact_min_bytes: u64,
    /// Compact when the log exceeds this multiple of the last
    /// snapshot's size.
    pub compact_factor: u64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig { segment_bytes: 256 << 10, compact_min_bytes: 1 << 20, compact_factor: 4 }
    }
}

impl DurabilityConfig {
    /// The default sizing, named for the call sites that build a
    /// durable deployment.
    pub fn durable() -> Self {
        DurabilityConfig::default()
    }
}

#[derive(Default)]
struct SegmentBuf {
    data: Vec<u8>,
    /// Bytes guaranteed durable: a crash can only damage `data[synced..]`.
    synced: usize,
}

/// Deterministic in-memory "disk". Tracks the synced prefix of every
/// segment so a simulated crash ([`MemDisk::crash_with`]) can damage
/// exactly the bytes a real power cut could: the unsynced tail of the
/// active segment.
///
/// Ids it has never seen are tolerated: `append` creates the segment,
/// `read_segment` / `segment_len` of a missing id are empty / 0, and
/// `remove_segment` / `sync` of one are no-ops.
#[derive(Clone, Default)]
pub struct MemDisk {
    segments: Arc<Mutex<BTreeMap<u64, SegmentBuf>>>,
}

impl MemDisk {
    /// An empty disk.
    pub fn new() -> Self {
        MemDisk::default()
    }

    /// Total bytes across all segments.
    pub fn total_bytes(&self) -> u64 {
        self.segments.lock().values().map(|s| s.data.len() as u64).sum()
    }

    /// Simulate a clean process kill: the OS survives, so even unsynced
    /// page-cache bytes reach the platter. The disk is unchanged.
    pub fn crash_clean(&self) {}

    /// Simulate a dirty crash: apply `profile`'s seeded faults for
    /// `crash_index` to the unsynced tail of the highest (active)
    /// segment. The synced prefix is durable by contract and is never
    /// damaged. Returns the faults applied.
    pub fn crash_with(&self, profile: &DiskFaultProfile, crash_index: u64) -> Vec<DiskFault> {
        let mut segments = self.segments.lock();
        let Some((_, seg)) = segments.iter_mut().next_back() else {
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

    /// Existing segment ids, ascending.
    pub fn list_segments(&self) -> Vec<u64> {
        self.segments.lock().keys().copied().collect()
    }

    /// Current length of a segment in bytes.
    fn segment_len(&self, id: u64) -> u64 {
        self.segments.lock().get(&id).map_or(0, |s| s.data.len() as u64)
    }

    /// Full contents of a segment.
    pub fn read_segment(&self, id: u64) -> Vec<u8> {
        self.segments.lock().get(&id).map_or_else(Vec::new, |s| s.data.clone())
    }

    /// Append bytes to a segment, creating it if needed.
    pub fn append(&self, id: u64, bytes: &[u8]) {
        self.segments.lock().entry(id).or_default().data.extend_from_slice(bytes);
    }

    /// Make everything appended to the segment so far durable.
    pub fn sync(&self, id: u64) {
        if let Some(seg) = self.segments.lock().get_mut(&id) {
            seg.synced = seg.data.len();
        }
    }

    /// Delete a segment.
    fn remove_segment(&self, id: u64) {
        self.segments.lock().remove(&id);
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
    /// The buffer every record is framed in, reused from one append to
    /// the next and dropped once it holds more than a segment's worth.
    frame: Vec<u8>,
}

#[derive(Default)]
struct WalCounters {
    appends: AtomicU64,
    bytes: AtomicU64,
    fsync_batches: AtomicU64,
    replayed: AtomicU64,
    compactions: AtomicU64,
}

/// Point-in-time counters for telemetry and reports.
#[derive(Debug)]
pub struct WalStats {
    /// Records appended.
    pub appends: u64,
    /// Framed bytes appended.
    pub bytes: u64,
    /// Fsync batches issued.
    pub fsync_batches: u64,
    /// Records recovered across all [`Wal::replay`] calls.
    pub replayed: u64,
    /// Compactions performed.
    pub compactions: u64,
    /// Total framed bytes in live segments.
    pub log_bytes: u64,
}

struct WalInner {
    disk: Arc<MemDisk>,
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

/// The outcome of [`Wal::replay`].
#[derive(Debug)]
pub struct Replay {
    /// Intact record payloads, in append order.
    pub records: Vec<Vec<u8>>,
    /// What was recovered and what was discarded.
    pub stats: ReplayStats,
}

impl Wal {
    /// Open a log on `disk`. Appends always start a fresh segment
    /// (max existing id + 1) so recovery never writes after a
    /// possibly-torn tail.
    pub fn open(disk: Arc<MemDisk>, config: DurabilityConfig) -> Self {
        let ids = disk.list_segments();
        let log_bytes = ids.iter().map(|&id| disk.segment_len(id)).sum();
        let active = ids.last().map_or(0, |&id| id + 1);
        Wal {
            inner: Arc::new(WalInner {
                disk,
                config,
                state: Mutex::new(WalState {
                    active,
                    active_len: 0,
                    unsynced_records: 0,
                    log_bytes,
                    snapshot_bytes: 0,
                    frame: Vec::new(),
                }),
                counters: WalCounters::default(),
            }),
        }
    }

    /// Append one framed record, rotating the segment and batching
    /// fsyncs every `FSYNC_EVERY` records.
    pub fn append(&self, payload: &[u8]) {
        self.append_with(|out| out.extend_from_slice(payload));
    }

    /// Append one record whose payload `write` appends to the buffer it
    /// is handed, as [`Wal::append`] does: the record is framed where
    /// it is encoded, in a buffer the log keeps for the next append, and
    /// reaches the disk in one call. `write` runs under the log's
    /// lock, so it must not use this log.
    pub fn append_with(&self, write: impl FnOnce(&mut Vec<u8>)) {
        let mut state = self.inner.state.lock();
        let state = &mut *state;
        state.frame.clear();
        let framed = frame_into(&mut state.frame, write) as u64;
        self.inner.disk.append(state.active, &state.frame);
        self.bound_frame(state);
        state.active_len += framed;
        state.log_bytes += framed;
        state.unsynced_records += 1;
        self.inner.counters.appends.fetch_add(1, Ordering::Relaxed);
        self.inner.counters.bytes.fetch_add(framed, Ordering::Relaxed);
        if state.unsynced_records >= FSYNC_EVERY {
            self.sync_locked(state);
        }
        if state.active_len >= self.inner.config.segment_bytes.max(1) {
            // Rotation is a durability point: seal the full segment.
            self.sync_locked(state);
            state.active += 1;
            state.active_len = 0;
        }
    }

    /// Drop the frame buffer once it holds more than a segment's worth,
    /// so one outsized record (a multi-MiB `Put`, a snapshot) does not
    /// pin its capacity for the life of the log.
    fn bound_frame(&self, state: &mut WalState) {
        if state.frame.capacity() as u64 > self.inner.config.segment_bytes {
            state.frame = Vec::new();
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
        self.inner.disk.sync(state.active);
        state.unsynced_records = 0;
        self.inner.counters.fsync_batches.fetch_add(1, Ordering::Relaxed);
    }

    /// Replay every live segment in id order, handing each intact
    /// record's payload to `each` as a view into the segment it lies in,
    /// and accounting damage as [`decode_segment`] does. Adds the
    /// records replayed to the shared `replayed` counter; the damage is
    /// the caller's to report.
    ///
    /// Segments are decoded in place, under the disk's lock, so `each`
    /// must not touch this log's disk: recovery rebuilds in-memory state
    /// before the service it rebuilds attaches the log.
    pub fn replay_each(&self, mut each: impl FnMut(&[u8])) -> ReplayStats {
        let mut stats = ReplayStats::default();
        for segment in self.inner.disk.segments.lock().values() {
            decode_each(&segment.data, &mut stats, &mut each);
        }
        self.inner.counters.replayed.fetch_add(stats.replayed, Ordering::Relaxed);
        stats
    }

    /// [`Wal::replay_each`], collecting a copy of every payload.
    pub fn replay(&self) -> Replay {
        let mut records = Vec::new();
        let stats = self.replay_each(|payload| records.push(payload.to_vec()));
        Replay { records, stats }
    }

    /// True when the log exceeds the configured multiple of the last
    /// snapshot (and the minimum size). A log just compacted is its
    /// snapshot, so at factor 1 it waits for the next append.
    pub fn should_compact(&self) -> bool {
        let state = self.inner.state.lock();
        state.log_bytes >= self.inner.config.compact_min_bytes
            && state.log_bytes
                > self.inner.config.compact_factor.max(1) * state.snapshot_bytes.max(1)
    }

    /// Replace the entire log with `snapshot` records: they are written
    /// (and synced) into fresh, higher-numbered segments, then every
    /// older segment is deleted. Replay order is preserved because
    /// segments replay in id order. Must run under the state lock every
    /// append is made under — the caller holds it from the snapshot
    /// through this call, so no append lands between the two — and with
    /// no crash while compacting.
    pub fn compact(&self, snapshot: impl IntoIterator<Item = Vec<u8>>) {
        let mut state = self.inner.state.lock();
        let state = &mut *state;
        let old_ids = self.inner.disk.list_segments();
        let mut id = state.active + 1;
        let mut seg_len = 0u64;
        let mut written = 0u64;
        for payload in snapshot {
            state.frame.clear();
            let framed = frame_into(&mut state.frame, |out| out.extend_from_slice(&payload)) as u64;
            if seg_len > 0 && seg_len + framed > self.inner.config.segment_bytes.max(1) {
                self.inner.disk.sync(id);
                id += 1;
                seg_len = 0;
            }
            self.inner.disk.append(id, &state.frame);
            seg_len += framed;
            written += framed;
        }
        self.bound_frame(state);
        self.inner.disk.sync(id);
        for old in old_ids {
            self.inner.disk.remove_segment(old);
        }
        state.active = id + 1;
        state.active_len = 0;
        state.unsynced_records = 0;
        state.log_bytes = written;
        state.snapshot_bytes = written;
        self.inner.counters.compactions.fetch_add(1, Ordering::Relaxed);
    }

    /// Current counters plus the live log's size.
    pub fn stats(&self) -> WalStats {
        let c = &self.inner.counters;
        WalStats {
            appends: c.appends.load(Ordering::Relaxed),
            bytes: c.bytes.load(Ordering::Relaxed),
            fsync_batches: c.fsync_batches.load(Ordering::Relaxed),
            replayed: c.replayed.load(Ordering::Relaxed),
            compactions: c.compactions.load(Ordering::Relaxed),
            log_bytes: self.inner.state.lock().log_bytes,
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

    /// `payload` framed as `[len][crc][payload]`, spelled out apart
    /// from the framing routine the log uses.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let len = (payload.len() as u32).to_le_bytes();
        [&len[..], &record_crc(len, payload).to_le_bytes(), payload].concat()
    }

    /// The fold the tables and the carry-less kernel replaced: one
    /// table lookup per byte.
    fn crc32_bytewise(state: u32, bytes: &[u8]) -> u32 {
        bytes.iter().fold(state, |c, &b| CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8))
    }

    #[test]
    fn every_crc_kernel_equals_the_bytewise_fold() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        let buf: Vec<u8> =
            (0..64 * 1024u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        // Every length 0–600 at every offset 0–15, from two states:
        // both sides of the switch at `CLMUL_MIN_BYTES`, and every count
        // of 64-byte steps, 16-byte blocks and tail bytes up to ten
        // steps.
        // The tables are called directly too, so they stay tested on a
        // CPU that would always pick the carry-less kernel here.
        for state in [0xFFFF_FFFF, 0x1234_5678] {
            for offset in 0..16 {
                for len in 0..=600 {
                    let bytes = &buf[offset..offset + len];
                    let expected = crc32_bytewise(state, bytes);
                    assert_eq!(crc32_table(state, bytes), expected, "table {offset}+{len}");
                    assert_eq!(crc32_update(state, bytes), expected, "{offset}+{len}");
                }
            }
            let expected = crc32_bytewise(state, &buf);
            assert_eq!(crc32_table(state, &buf), expected);
            assert_eq!(crc32_update(state, &buf), expected);
        }
    }

    #[test]
    fn a_record_framed_in_place_is_the_record_encoded_apart() {
        let config = DurabilityConfig { segment_bytes: 4096, ..DurabilityConfig::default() };
        let (wal, disk) = mem_wal(config);
        let payloads: Vec<Vec<u8>> = [0usize, 1, 7, 8, 9, 300, 5000]
            .iter()
            .map(|&n| (0..n).map(|i| i as u8).collect())
            .collect();
        let mut expected = Vec::new();
        for p in &payloads {
            wal.append_with(|out| {
                out.extend_from_slice(&p[..p.len() / 2]);
                out.extend_from_slice(&p[p.len() / 2..]);
            });
            expected.extend_from_slice(&framed(p));
        }
        let written: Vec<u8> =
            disk.list_segments().into_iter().flat_map(|id| disk.read_segment(id)).collect();
        assert_eq!(written, expected);
        // The 5 000-byte record outgrew a segment's worth of buffer, so
        // the log let the buffer go; a small record reuses one again.
        assert_eq!(wal.inner.state.lock().frame.capacity(), 0);
        wal.append(b"small");
        assert!((1..=4096).contains(&wal.inner.state.lock().frame.capacity()));
        // Replay hands out the payloads as written, views and copies alike.
        let mut viewed = Vec::new();
        let stats = wal.replay_each(|payload| viewed.push(payload.to_vec()));
        assert_eq!(stats.replayed, 8);
        assert_eq!(viewed[..7], payloads[..]);
        assert_eq!(wal.replay().records, viewed);
    }

    #[test]
    #[should_panic(expected = "record exceeds MAX_RECORD")]
    fn a_record_past_max_record_is_refused() {
        let (wal, _disk) = mem_wal(DurabilityConfig::durable());
        wal.append_with(|out| out.resize(out.len() + MAX_RECORD as usize + 1, 0));
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
        let config = DurabilityConfig { segment_bytes: 64, ..DurabilityConfig::default() };
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
    fn fsync_batches_every_eighth_record() {
        let config = DurabilityConfig { segment_bytes: 1 << 20, ..DurabilityConfig::default() };
        let (wal, _disk) = mem_wal(config);
        for i in 0..2 * FSYNC_EVERY {
            wal.append(&i.to_le_bytes());
        }
        assert_eq!(wal.stats().fsync_batches, 2);
        // An explicit sync with nothing pending is a no-op.
        wal.sync();
        assert_eq!(wal.stats().fsync_batches, 2);
        wal.append(b"x");
        wal.sync();
        assert_eq!(wal.stats().fsync_batches, 3);
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
        let mut bytes = framed(b"ok");
        let mut bad = (MAX_RECORD + 1).to_le_bytes().to_vec();
        bad.extend_from_slice(&[0u8; 12]);
        bytes.extend_from_slice(&bad);
        decode_segment(&bytes, &mut records, &mut stats);
        assert_eq!(records, vec![b"ok".to_vec()]);
        assert_eq!(stats.corrupt_dropped, 1);
    }

    #[test]
    fn compaction_replaces_old_segments_and_preserves_order() {
        let config =
            DurabilityConfig { segment_bytes: 64, compact_min_bytes: 1, compact_factor: 1 };
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
    fn a_log_compacts_only_once_it_exceeds_its_snapshot() {
        let config =
            DurabilityConfig { segment_bytes: 64, compact_min_bytes: 1, compact_factor: 1 };
        let (wal, _disk) = mem_wal(config);
        for i in 0..10u64 {
            wal.append(format!("record-{i}").as_bytes());
        }
        assert!(wal.should_compact());
        wal.compact(vec![b"snap-a".to_vec(), b"snap-b".to_vec()]);
        assert!(!wal.should_compact(), "a log just compacted is its snapshot, not past it");
        wal.append(b"tail");
        assert!(wal.should_compact(), "one append takes the log past its snapshot");
    }

    #[test]
    fn crash_with_faults_damages_only_unsynced_tail() {
        let config = DurabilityConfig { segment_bytes: 1 << 20, ..DurabilityConfig::default() };
        let (wal, disk) = mem_wal(config);
        for i in 0..10u64 {
            wal.append(format!("durable-{i}").as_bytes());
        }
        wal.sync(); // everything so far is durable

        // One record short of a batch: the whole volatile tail is unsynced.
        for i in 0..FSYNC_EVERY - 1 {
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
        assert!(
            replay.records.len() < 9 + FSYNC_EVERY as usize || replay.stats.corrupt_dropped > 0
        );
    }
}
