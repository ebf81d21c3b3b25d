//! The scheduling round — claim tails, execute, commit in claim order,
//! settle — is spelled once, in `rai_core::RaiSystem::{run_round,
//! settle}` (DESIGN.md §12). The drivers in this crate only decide who
//! pops and what happens per commit; a driver that names a round phase
//! has started its own copy of the loop.

const DRIVERS: [(&str, &str); 3] = [
    ("semester.rs", include_str!("../src/semester.rs")),
    ("chaos.rs", include_str!("../src/chaos.rs")),
    ("recovery.rs", include_str!("../src/recovery.rs")),
];

#[test]
fn no_workload_driver_respells_the_round() {
    for (file, source) in DRIVERS {
        for phase in ["Worker::execute", "claim_popped", "reclaim_expired"] {
            assert!(
                !source.contains(phase),
                "{file} names `{phase}`: run the round through RaiSystem::run_round / settle"
            );
        }
    }
}
