//! The **resident-memory census** (EXPERIMENTS.md, "Resident-memory
//! census"): what the live heap of a semester course consists of at
//! its fullest, by block size.
//!
//! A counting `#[global_allocator]` keeps the live blocks per requested
//! size (every size up to 4 KiB; the few larger blocks one by one). The
//! course runs twice on the same seed: the first
//! run finds the allocation at which the live heap peaks, the second
//! copies the per-size table at that allocation (the simulation is
//! single-threaded and deterministic, so the two runs allocate alike —
//! asserted). Sizes name their owners: DESIGN.md §10 "What a
//! submission leaves behind" lists which block is whose.
//!
//! ```text
//! cargo run --release -p rai-bench --bin heap_census [seed] [--paper]
//! ```

use rai_workload::semester::run_semester;
use rai_workload::SemesterConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// Sizes up to this are counted per size; the few larger blocks (hash
/// tables, queues, result vectors) are kept one by one.
const EXACT: usize = 4096;
const LARGE_SLOTS: usize = 256;

static CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
/// The allocation ordinal at which `PEAK` was reached, and the one to
/// copy the table at.
static PEAK_AT: AtomicU64 = AtomicU64::new(0);
static COPY_AT: AtomicU64 = AtomicU64::new(u64::MAX);
static BLOCKS: [AtomicU64; EXACT + 1] = [const { AtomicU64::new(0) }; EXACT + 1];
static COPY: [AtomicU64; EXACT + 1] = [const { AtomicU64::new(0) }; EXACT + 1];
/// The size of each live block over `EXACT`, zero for a free slot.
static LARGE: [AtomicU64; LARGE_SLOTS] = [const { AtomicU64::new(0) }; LARGE_SLOTS];
static COPY_LARGE: [AtomicU64; LARGE_SLOTS] = [const { AtomicU64::new(0) }; LARGE_SLOTS];

/// Set when a large block found no free slot: the table is then short.
static LARGE_OVERFLOWED: AtomicBool = AtomicBool::new(false);

/// Turn the first `LARGE` slot holding `from` into `to`: 0 → size takes
/// a slot for a new block, size → 0 gives one back.
fn swap_large(from: u64, to: u64) {
    let swapped = |slot: &AtomicU64| slot.compare_exchange(from, to, Relaxed, Relaxed).is_ok();
    if !LARGE.iter().any(swapped) {
        LARGE_OVERFLOWED.store(true, Relaxed);
    }
}

struct Census;

// SAFETY: every request is forwarded unchanged to `System`; the
// counters touch no memory the allocator hands out.
unsafe impl GlobalAlloc for Census {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let size = layout.size();
        let n = CALLS.fetch_add(1, Relaxed) + 1;
        if size <= EXACT {
            BLOCKS[size].fetch_add(1, Relaxed);
        } else {
            swap_large(0, size as u64);
        }
        let live = LIVE.fetch_add(size as u64, Relaxed) + size as u64;
        if live > PEAK.load(Relaxed) {
            PEAK.store(live, Relaxed);
            PEAK_AT.store(n, Relaxed);
        }
        if n == COPY_AT.load(Relaxed) {
            for (copy, blocks) in COPY.iter().zip(&BLOCKS).chain(COPY_LARGE.iter().zip(&LARGE)) {
                copy.store(blocks.load(Relaxed), Relaxed);
            }
        }
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let size = layout.size();
        if size <= EXACT {
            BLOCKS[size].fetch_sub(1, Relaxed);
        } else {
            swap_large(size as u64, 0);
        }
        LIVE.fetch_sub(size as u64, Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Census = Census;

/// Run the course from a clean slate; `(submissions, peak, peak_at)`.
fn course(config: &SemesterConfig) -> (u64, u64, u64) {
    let (base_calls, base_live) = (CALLS.load(Relaxed), LIVE.load(Relaxed));
    PEAK.store(base_live, Relaxed);
    let n = run_semester(config).total_submissions;
    (n, PEAK.load(Relaxed) - base_live, PEAK_AT.load(Relaxed) - base_calls)
}

fn main() {
    let args = rai_bench::args_or_usage("heap_census [seed] [--paper]", 1, &["--paper"]);
    let paper = !args.flags.is_empty();
    let seed = args.seeds.first().copied().unwrap_or(rai_bench::baselines::SEED);
    let config = if paper {
        SemesterConfig { seed, ..SemesterConfig::paper() }
    } else {
        SemesterConfig::scaled(12, 21, seed)
    };
    let (n, peak, at) = course(&config);
    // What was live before the course is not the course's.
    let before: Vec<u64> = BLOCKS.iter().map(|b| b.load(Relaxed)).collect();
    COPY_AT.store(CALLS.load(Relaxed) + at, Relaxed);
    assert_eq!(course(&config), (n, peak, at), "the two runs did not allocate alike");
    assert!(!LARGE_OVERFLOWED.load(Relaxed), "more than {LARGE_SLOTS} blocks over {EXACT} B were live");

    rai_bench::header(&format!("live heap at its peak, seed {seed}: {n} submissions"));
    println!("  {peak} B = {:.0} B per submission", peak as f64 / n as f64);
    println!("  {:>8} {:>10} {:>12} {:>8}", "size", "blocks", "per subm.", "share");
    let mut blocks_total = 0;
    for (size, (copy, before)) in COPY.iter().zip(&before).enumerate() {
        let blocks = copy.load(Relaxed).saturating_sub(*before);
        blocks_total += blocks;
        let bytes = blocks * size as u64;
        // Rows under half a percent of the peak are noise.
        if bytes * 200 >= peak {
            let (per, share) = (blocks as f64 / n as f64, 100.0 * bytes as f64 / peak as f64);
            println!("  {size:>8} {blocks:>10} {per:>12.2} {share:>7.1}%");
        }
    }
    let mut large: Vec<u64> = COPY_LARGE.iter().map(|s| s.load(Relaxed)).filter(|&s| s > 0).collect();
    large.sort_unstable_by(|a, b| b.cmp(a));
    blocks_total += large.len() as u64;
    let share = 100.0 * large.iter().sum::<u64>() as f64 / peak as f64;
    println!("  blocks over {EXACT} B ({share:.1}%): {large:?}");
    println!("  {blocks_total} blocks = {:.1} per submission", blocks_total as f64 / n as f64);
}
