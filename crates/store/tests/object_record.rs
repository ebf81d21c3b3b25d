//! What one object costs the store to keep (DESIGN.md §10 "What a
//! submission leaves behind"), counted in heap blocks. Its own test
//! binary with a single `#[test]`, so nothing else allocates while it
//! counts.

use rai_archive::chunk::{chunk_bytes, ChunkerParams};
use rai_sim::VirtualClock;
use rai_store::{LifecycleRule, ObjectStore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

/// Blocks handed out and not yet handed back.
static LIVE_BLOCKS: AtomicI64 = AtomicI64::new(0);

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`; the counter
// touches no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BLOCKS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BLOCKS.fetch_sub(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_semester_shaped_object_is_four_blocks_and_head_keeps_none() {
    let s = ObjectStore::new(VirtualClock::new());
    s.create_bucket("builds", LifecycleRule::Keep).unwrap();
    // A build archive as the semester uploads them: 14 chunks and the
    // worker's three metadata pairs.
    let body: Vec<u8> = (0..448u32).map(|i| (i * 31 % 251) as u8).collect();
    let (manifest, chunks) = chunk_bytes(&body, ChunkerParams { min: 32, avg: 32, max: 32 });
    assert_eq!(manifest.chunks.len(), 14);
    let meta = [("team", "team-07"), ("kind", "run"), ("source", "team-07/0000002a.tar.bz2")];
    // The first objects bring the chunks and the bucket's first map
    // node; the next one fits that node.
    for key in ["team-07/00000001-build.tar.bz2", "team-07/00000002-build.tar.bz2"] {
        s.put_delta("builds", key, &manifest, &chunks, meta).unwrap();
    }

    let before = LIVE_BLOCKS.load(Ordering::Relaxed);
    s.put_delta("builds", "team-07/0000002a-build.tar.bz2", &manifest, &[], meta).unwrap();
    let kept = LIVE_BLOCKS.load(Ordering::Relaxed) - before;
    assert!(kept <= 4, "key, packed metadata, chunk references, etag — and {} more", kept - 4);

    let before = LIVE_BLOCKS.load(Ordering::Relaxed);
    let head = s.head("builds", "team-07/0000002a-build.tar.bz2").unwrap();
    assert_eq!(head.user.len(), 3);
    assert_eq!(head.user["source"], "team-07/0000002a.tar.bz2");
    assert_eq!((head.size, &head.etag), (448, &manifest.etag));
    assert!(LIVE_BLOCKS.load(Ordering::Relaxed) > before, "the view owns its strings");
    drop(head);
    assert_eq!(LIVE_BLOCKS.load(Ordering::Relaxed), before, "head left something in the store");
}
