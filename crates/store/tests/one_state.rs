//! The store is one state machine behind one lock (DESIGN.md §12):
//! buckets, the chunk arena and the counters are fields of one
//! `StoreState`, every mutation is one transition on it, and replay
//! runs the same transitions. A second lock around any of that state
//! brings back a lock order to document, a window in which the parts
//! disagree, and a reason to spell each mutation twice.

const STORE: &str = include_str!("../src/store.rs");
const DEDUP: &str = include_str!("../src/dedup.rs");

#[test]
fn store_state_sits_behind_exactly_one_lock() {
    for (file, source) in [("store.rs", STORE), ("dedup.rs", DEDUP)] {
        for gone in ["ChunkArena", "RwLock<Counters>"] {
            assert!(!source.contains(gone), "{file} names `{gone}`");
        }
    }
    for lock in ["RwLock", "Mutex"] {
        assert!(!DEDUP.contains(lock), "dedup.rs names `{lock}`: the arena is guarded by the state lock");
    }
    // One lock around state; the other two guard write-once deployment
    // wiring (the fault injector and the log handle), not state.
    let declared =
        ["RwLock<StoreState>", "RwLock<Option<rai_faults::FaultInjector>>", "RwLock<Option<Wal>>"];
    for lock in declared {
        assert_eq!(STORE.matches(lock).count(), 1, "store.rs declares `{lock}` once");
    }
    let locks = STORE.matches("RwLock<").count() + STORE.matches("Mutex<").count();
    assert_eq!(locks, declared.len(), "store.rs holds a lock that is neither the state lock nor wiring");
}
