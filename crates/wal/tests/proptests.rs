//! Property tests for the WAL record codec: encode/decode round-trips,
//! and corruption detection under arbitrary truncation and single-bit
//! flips. The invariant throughout: a damaged log yields a *subset* of
//! the written records (in order) plus non-zero damage counters —
//! corruption is never silently accepted as different content.

use proptest::prelude::*;
use rai_wal::{decode_segment, encode_record, DurabilityConfig, MemDisk, ReplayStats, Wal};
use std::sync::Arc;

fn arb_payloads() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 1..20)
}

fn encode_all(payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut buf = Vec::new();
    for p in payloads {
        buf.extend_from_slice(&encode_record(p));
    }
    buf
}

fn decode_all(bytes: &[u8]) -> (Vec<Vec<u8>>, ReplayStats) {
    let mut records = Vec::new();
    let mut stats = ReplayStats::default();
    decode_segment(bytes, &mut records, &mut stats);
    (records, stats)
}

/// True when `sub` is an in-order subsequence of `full`.
fn is_subsequence(sub: &[Vec<u8>], full: &[Vec<u8>]) -> bool {
    let mut it = full.iter();
    sub.iter().all(|s| it.any(|f| f == s))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn encode_decode_round_trips(payloads in arb_payloads()) {
        let (records, stats) = decode_all(&encode_all(&payloads));
        prop_assert_eq!(records, payloads);
        prop_assert_eq!(stats.corrupt_dropped, 0);
        prop_assert_eq!(stats.torn_bytes, 0);
    }

    #[test]
    fn wal_replay_round_trips(payloads in arb_payloads(), fsync_every in 1u64..8) {
        let disk = MemDisk::new();
        let config = DurabilityConfig {
            segment_bytes: 128,
            fsync_every,
            ..DurabilityConfig::default()
        };
        let wal = Wal::open(Arc::new(disk.clone()), config);
        for p in &payloads {
            wal.append(p);
        }
        // Replay through a freshly opened handle, as recovery would.
        let replay = Wal::open(Arc::new(disk), config).replay();
        prop_assert_eq!(replay.records, payloads);
        prop_assert_eq!(replay.stats.corrupt_dropped, 0);
    }

    #[test]
    fn arbitrary_truncation_yields_clean_prefix(
        payloads in arb_payloads(),
        cut_seed in any::<u64>(),
    ) {
        let bytes = encode_all(&payloads);
        let keep = (cut_seed as usize) % (bytes.len() + 1);
        let (records, stats) = decode_all(&bytes[..keep]);
        // A truncated log replays an exact prefix of what was written.
        prop_assert!(records.len() <= payloads.len());
        prop_assert_eq!(&records[..], &payloads[..records.len()]);
        // Every surviving byte is accounted: decoded frames + torn tail.
        let consumed: u64 = records.iter().map(|r| 8 + r.len() as u64).sum();
        prop_assert_eq!(consumed + stats.torn_bytes, keep as u64);
        prop_assert_eq!(stats.corrupt_dropped, 0);
    }

    #[test]
    fn single_bit_flip_is_never_silently_accepted(
        payloads in arb_payloads(),
        flip_seed in any::<u64>(),
    ) {
        let mut bytes = encode_all(&payloads);
        let pos = (flip_seed as usize) % bytes.len();
        bytes[pos] ^= 1u8 << (flip_seed % 8);
        let (records, stats) = decode_all(&bytes);
        // Decoded records are an in-order subset of the originals —
        // the flip can only *remove* records, never invent or alter.
        prop_assert!(
            is_subsequence(&records, &payloads),
            "flip at byte {} produced content never written",
            pos
        );
        // And the damage is visible in the counters.
        if records != payloads {
            prop_assert!(stats.corrupt_dropped > 0 || stats.torn_bytes > 0);
        }
    }

    #[test]
    fn decode_never_panics_on_garbage(garbage in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode_all(&garbage);
    }
}
