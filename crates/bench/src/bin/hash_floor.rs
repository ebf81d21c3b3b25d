//! The **bulk path's hash floor** (DESIGN.md §10, EXPERIMENTS.md "The
//! bulk path at its hash floor"): every payload pass of the bulk path
//! should cost about one serial FNV-1a chain over the same bytes, since
//! the chains and the Gear hash it runs are independent and interleave.
//!
//! On one 2.5 MiB bulk-like tree (40 files of 64 KiB, alternately
//! source-like text and random bytes) the bin alternates one
//! `fnv::hash` over the tree's container with each pass — the fused
//! writer `write_container_chunked`, `write_container`, `chunk_shared`
//! and `restore_shared` (its row keeps the label
//! `read_container_shared`) — for 21 rounds, keeps each one's
//! fastest round and prints its ratio to the chain. It exits non-zero
//! if any pass costs more than `CEILING` chains. Each timed round
//! follows a pause and an untimed one, so the bin takes ≈ 3 s.
//!
//! It prices `hmac_sha256` over the same container the same way: the
//! MAC a request is signed and verified with. On a CPU with the SHA
//! extensions it runs on them at about half a chain, and a silent fall
//! back to the scalar kernel (≈ 2.7 chains) fails the bin; on any other
//! CPU the line is only printed.
//!
//! Its last row prices `rai_wal::crc32`, the checksum every journal
//! record is framed with, over the same container. On a CPU with the
//! carry-less multiplier it runs there at ≈ 0.04 chains, and a silent
//! fall back to the tables (≈ 0.5 chains) fails the bin against
//! `CRC_CEILING`; on any other CPU the line is only printed.
//!
//! A last row prices one integer key's hash under the hasher of the
//! tables every job probes (`rai_sim::IntMap`, the chunk index among
//! them) against std's SipHash-1-3 on the same keys, over `KEYS`
//! keys a round. The multiply-add-shift hash reads ≈ 0.12 SipHash
//! (0.9 against 7.3 ns a key on the 2-core reference host); a silent
//! fall back to SipHash (≈ 1) fails the bin against `KEY_CEILING`.
//!
//! ```text
//! cargo run --release -p rai-bench --bin hash_floor
//! ```

use rai_archive::{
    chunk_shared, fnv, restore_shared, write_container, write_container_chunked, Bytes,
    ChunkerParams, FileTree,
};
use rai_auth::hmac_sha256;
use rai_sim::IntMap;
use rai_wal::crc32;
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::hint::black_box;
use std::time::{Duration, Instant};

const FILES: usize = 40;
const FILE_BYTES: usize = 64 * 1024;
const ROUNDS: usize = 21;
/// Most a pass may cost, in chains over the same bytes.
const CEILING: f64 = 1.3;
/// Most the record checksum may cost, in chains, on the carry-less
/// multiplier.
const CRC_CEILING: f64 = 0.15;
/// Integer keys hashed per round by each of the two key hashers.
const KEYS: u64 = 1 << 16;
/// Most one integer key's hash in the product's tables may cost, in
/// SipHash-1-3 hashes of the same key.
const KEY_CEILING: f64 = 0.5;
/// The pause before each round. The fused writer runs near the most
/// instructions a core retires per cycle while one chain waits on its
/// multiplies, so load from other tenants of the machine slows the
/// writer more than the chain, and such load can outlast a burst of
/// back-to-back rounds; spread out, some rounds fall between it.
const PAUSE: Duration = Duration::from_millis(100);

/// `len` bytes of CUDA-ish source lines with pseudorandom numbers in
/// them.
fn source_like(len: usize, state: &mut u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 96);
    while out.len() < len {
        let r = rai_bench::pseudorandom(8, state);
        let (a, b) = (u32::from_le_bytes([r[0], r[1], r[2], 0]), u16::from_le_bytes([r[4], r[5]]));
        let line = match r[7] % 4 {
            0 => format!("    float acc_{a:x} = x[i * {b} + j] * k[{b}];\n"),
            1 => format!("__global__ void layer_{a:x}(float* y, const float* x) {{\n"),
            2 => format!("    for (int t = 0; t < {b}; ++t) y[t] += acc_{a:x};\n"),
            _ => format!("    // tile {a} of {b}: shared-memory staging\n"),
        };
        out.extend_from_slice(line.as_bytes());
    }
    out.truncate(len);
    out
}

fn bulk_like_tree() -> FileTree {
    let mut state = 2016;
    let mut tree = FileTree::new();
    for i in 0..FILES {
        let (path, data) = if i % 2 == 0 {
            (format!("src/layer_{i:02}.cu"), source_like(FILE_BYTES, &mut state))
        } else {
            (format!("data/blob_{i:02}.bin"), rai_bench::pseudorandom(FILE_BYTES, &mut state))
        };
        tree.insert(&path, data).expect("a generated path fits the tree");
    }
    tree
}

/// Whether this CPU has what `rai-auth`'s SHA-256 selects its SHA
/// extensions kernel on.
fn sha_extensions() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether this CPU has what `rai-wal`'s record checksum selects its
/// carry-less-multiply kernel on.
fn carry_less_multiplier() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("pclmulqdq")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Every key's hash under `hasher`, folded so none is optimised away.
fn hash_keys(hasher: &impl BuildHasher, keys: &[u64]) -> u64 {
    keys.iter().fold(0, |acc, k| acc ^ hasher.hash_one(k))
}

fn time(pass: impl FnOnce()) -> Duration {
    let start = Instant::now();
    pass();
    start.elapsed()
}

fn main() {
    rai_bench::args_or_usage("hash_floor", 0, &[]);
    let tree = bulk_like_tree();
    let container = Bytes::from(write_container(&tree));
    let params = ChunkerParams::for_len(container.len());

    let names = [
        "write_container_chunked",
        "write_container",
        "chunk_shared",
        "read_container_shared",
        "hmac_sha256",
        "crc32",
    ];
    let key = b"tU08PuKhtR9qozBNn33RcH7p5A";
    let keys: Vec<u64> = (1..=KEYS).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
    let (product, siphash) = (*IntMap::<u64, ()>::default().hasher(), RandomState::new());
    let round = || {
        [
            time(|| {
                black_box(fnv::hash(black_box(&container)));
            }),
            time(|| drop(black_box(write_container_chunked(black_box(&tree))))),
            time(|| drop(black_box(write_container(black_box(&tree))))),
            time(|| drop(black_box(chunk_shared(black_box(&container), params)))),
            time(|| drop(black_box(restore_shared(black_box(&container))))),
            time(|| {
                black_box(hmac_sha256(key, black_box(&container)));
            }),
            time(|| {
                black_box(crc32(black_box(&container)));
            }),
            time(|| {
                black_box(hash_keys(&siphash, black_box(&keys)));
            }),
            time(|| {
                black_box(hash_keys(&product, black_box(&keys)));
            }),
        ]
    };
    let mut best = [Duration::MAX; 9];
    for _ in 0..ROUNDS {
        // Each round is timed after a pause and an untimed warm-up
        // round, so the rounds spread over ≈ 2 s and start with the
        // tree and the container in cache.
        std::thread::sleep(PAUSE);
        round();
        for (b, t) in best.iter_mut().zip(round()) {
            *b = (*b).min(t);
        }
    }
    let [chain, passes @ .., siphash, product] = best;

    rai_bench::header(&format!(
        "hash floor — {} B container, fastest of {ROUNDS} rounds",
        container.len()
    ));
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    println!("  {:<26} {:>8.3} ms   1.00 chain", "fnv::hash", ms(chain));
    let mut over = Vec::new();
    let (sha_extensions, clmul) = (sha_extensions(), carry_less_multiplier());
    for (name, t) in names.iter().zip(passes) {
        let ratio = t.as_secs_f64() / chain.as_secs_f64();
        let ceiling = match *name {
            "hmac_sha256" if !sha_extensions => Err("no SHA extensions"),
            "crc32" if !clmul => Err("no carry-less multiplier"),
            "crc32" => Ok(CRC_CEILING),
            _ => Ok(CEILING),
        };
        let note = match ceiling {
            Ok(_) => String::new(),
            Err(why) => format!("   ({why}: not held to a ceiling)"),
        };
        println!("  {name:<26} {:>8.3} ms   {ratio:.2} chains{note}", ms(t));
        match ceiling {
            Ok(ceiling) if ratio > ceiling => {
                over.push(format!("{name} costs {ratio:.2} chains, over its {ceiling}"))
            }
            _ => {}
        }
    }
    let ratio = product.as_secs_f64() / siphash.as_secs_f64();
    let ns = |d: Duration| d.as_secs_f64() * 1e9 / KEYS as f64;
    println!(
        "  {:<26} {:>8.2} ns/key   {ratio:.2} SipHash-1-3 ({:.2} ns/key)",
        "IntMap key hash",
        ns(product),
        ns(siphash)
    );
    if ratio > KEY_CEILING {
        over.push(format!("IntMap key hash costs {ratio:.2} SipHash-1-3, over its {KEY_CEILING}"));
    }
    if !over.is_empty() {
        eprintln!("over the ceiling: {}", over.join(", "));
        std::process::exit(1);
    }
}
