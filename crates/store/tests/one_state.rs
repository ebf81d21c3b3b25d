//! The store is one state machine behind one lock (DESIGN.md §12):
//! buckets, the chunk arena and the counters are fields of one
//! `StoreState`, every mutation is one transition on it, and replay
//! runs the same transitions. A second lock around any of that state
//! brings back a lock order to document, a window in which the parts
//! disagree, and a reason to spell each mutation twice.

const STORE: &str = include_str!("../src/store.rs");
const DEDUP: &str = include_str!("../src/dedup.rs");
const DATABASE: &str = include_str!("../../db/src/database.rs");
const BROKER: &str = include_str!("../../broker/src/broker.rs");

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
    // One lock, around state. Deployment wiring (the fault injector
    // and the log handle) is write-once: `OnceLock`, not a lock.
    assert_eq!(STORE.matches("RwLock<StoreState>").count(), 1, "store.rs declares the state lock once");
    let locks = STORE.matches("RwLock<").count() + STORE.matches("Mutex<").count();
    assert_eq!(locks, 1, "store.rs holds a lock that is not the state lock");
}

#[test]
fn deployment_wiring_is_write_once_not_an_option_in_a_lock() {
    for (file, source) in [("store.rs", STORE), ("database.rs", DATABASE), ("broker.rs", BROKER)] {
        for slot in ["RwLock<Option<", "Mutex<Option<"] {
            assert!(!source.contains(slot), "{file} names `{slot}`: wiring is a `OnceLock`");
        }
        assert!(source.contains("OnceLock<"), "{file} holds its wiring in a `OnceLock`");
    }
}
