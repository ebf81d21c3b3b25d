//! The host-speed reference: a fixed piece of work, timed beside every
//! timed region, by which the timed end-to-end metrics are normalised.
//!
//! This class of host (a few cores of a shared machine) runs the same
//! instructions 10-30% slower for seconds to minutes at a time, whenever
//! a neighbour contends for cache and memory. The slowdown is in user
//! time, not in steal or page faults, so no clock removes it; it hits
//! everything that misses cache by about the same factor. So the
//! benchmark times work that never changes next to the work under test
//! and reports the ratio, scaled back to seconds by [`NOMINAL_S`].
//!
//! The reference is benchmark code only: it calls nothing of the
//! program, so no change to the program can move it. Its three kernels
//! are the three kinds of work the workloads do: dependent cache-missing
//! loads, many small keyed allocations, and streaming bytes through a
//! chunker, a digest and a copy.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// What one [`Reference::sample`] takes on this class of host when it is
/// quiet. A host speed of 1 is a sample that takes this long, so on a
/// quiet host the normalised metrics read as the raw ones.
pub const NOMINAL_S: f64 = 0.075;

/// Entries of the pointer-chase table: 8 MiB, four times a core's L2.
const CHASE_ENTRIES: usize = 2 << 20;
const CHASE_STEPS: usize = 300_000;
/// Bytes the stream kernel chunks, digests and copies per pass: the
/// size of a bulk workload's tree.
const STREAM_BYTES: usize = 2 << 20;
const STREAM_PASSES: usize = 4;
const MAP_ROUNDS: u64 = 12;
const MAP_ENTRIES: u64 = 4000;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The reference's fixed inputs. The same on every run and every seed.
pub struct Reference {
    /// One cycle through every entry (Sattolo's shuffle), so each load
    /// depends on the last and the prefetcher cannot help.
    chase: Vec<u32>,
    stream: Vec<u8>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference::new()
    }
}

impl Reference {
    pub fn new() -> Reference {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut chase: Vec<u32> = (0..CHASE_ENTRIES as u32).collect();
        for i in (1..CHASE_ENTRIES).rev() {
            let j = (xorshift(&mut x) % i as u64) as usize;
            chase.swap(i, j);
        }
        let stream = (0..STREAM_BYTES).map(|_| xorshift(&mut x) as u8).collect();
        Reference { chase, stream }
    }

    fn chase(&self) -> u32 {
        let mut i = 0u32;
        for _ in 0..CHASE_STEPS {
            i = self.chase[i as usize];
        }
        i
    }

    /// Ordered maps of short strings and small buffers, built, scanned
    /// and dropped: allocator and cache traffic of KiB-size submissions.
    fn small_objects() -> usize {
        let mut seen = 0usize;
        for round in 0..MAP_ROUNDS {
            let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ round;
            let mut names: BTreeMap<String, String> = BTreeMap::new();
            let mut blobs: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
            for i in 0..MAP_ENTRIES {
                let r = xorshift(&mut x);
                names.insert(
                    format!("team-{:04}/job-{r:08x}", r % 97),
                    format!("rank {i} score {}", r % 1000),
                );
                blobs.insert(r, vec![r as u8; (r % 200) as usize + 16]);
            }
            seen += names
                .range("team-0040".to_string()..)
                .map(|(k, v)| k.len() + v.len())
                .sum::<usize>();
            seen += blobs.values().map(Vec::len).sum::<usize>();
        }
        seen
    }

    /// Content-defined chunks (~64 bytes) of the stream, each digested
    /// with FNV-1a and copied out: the byte work of a bulk upload.
    fn stream(&self) -> usize {
        let mut kept = 0usize;
        for _ in 0..STREAM_PASSES {
            let mut chunks: Vec<(u64, Vec<u8>)> = Vec::new();
            let mut roll = 0u32;
            let mut start = 0usize;
            for (i, &b) in self.stream.iter().enumerate() {
                roll = (roll << 1).wrapping_add(u32::from(b).wrapping_mul(0x9E37_79B1));
                if roll & 0x3f == 0 || i + 1 == self.stream.len() {
                    let chunk = &self.stream[start..=i];
                    let digest = chunk.iter().fold(0xcbf2_9ce4_8422_2325u64, |d, &y| {
                        (d ^ u64::from(y)).wrapping_mul(0x100_0000_01b3)
                    });
                    chunks.push((digest, chunk.to_vec()));
                    start = i + 1;
                }
            }
            kept += black_box(&chunks).len();
        }
        kept
    }

    /// Run the three kernels once; the seconds they took.
    pub fn sample(&self) -> f64 {
        let start = Instant::now();
        black_box(self.chase());
        black_box(Self::small_objects());
        black_box(self.stream());
        start.elapsed().as_secs_f64()
    }
}

/// How fast the host ran between two reference samples taken either
/// side of a timed region, as a share of the nominal host: below 1 the
/// host was slower, and a time measured there is scaled down by it.
pub fn host_speed(before_s: f64, after_s: f64) -> f64 {
    NOMINAL_S / ((before_s + after_s) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chase_table_is_one_cycle() {
        let r = Reference::new();
        let mut i = 0u32;
        let mut steps = 0usize;
        loop {
            i = r.chase[i as usize];
            steps += 1;
            if i == 0 {
                break;
            }
        }
        assert_eq!(steps, CHASE_ENTRIES);
    }

    #[test]
    fn kernels_do_the_same_work_every_time() {
        let (a, b) = (Reference::new(), Reference::new());
        assert_eq!(a.chase(), b.chase());
        assert_eq!(a.stream(), b.stream());
        assert_eq!(Reference::small_objects(), Reference::small_objects());
        // ~64-byte chunks, as the doc says.
        let chunks = a.stream() / STREAM_PASSES;
        assert!((STREAM_BYTES / 96..STREAM_BYTES / 40).contains(&chunks));
    }

    #[test]
    fn host_speed_scales_against_nominal() {
        assert_eq!(host_speed(NOMINAL_S, NOMINAL_S), 1.0);
        assert_eq!(host_speed(2.0 * NOMINAL_S, 2.0 * NOMINAL_S), 0.5);
        assert!(host_speed(NOMINAL_S, 3.0 * NOMINAL_S) == 0.5);
    }
}
