//! `BENCH_store.json`: what the content-addressed store saves on the
//! semester and chaos courses — KiB-size containers — and on one
//! resubmitted 2.5 MiB tree (the paper's mean upload), the
//! large-payload regime where chunk size follows the payload
//! (DESIGN.md §10).

use super::{semester_config, Courses, DAYS, SEED, TEAMS};
use crate::pseudorandom;
use rai_archive::{write_container, FileTree};
use rai_core::delta::{DeltaReceipt, DeltaUploader};
use rai_sim::VirtualClock;
use rai_store::{LifecycleRule, ObjectStore, StoreUsage};
use rai_workload::semester::run_semester;

/// `num / den`, zero when there is nothing to divide by.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn usage_json(u: &StoreUsage, indent: &str) -> String {
    format!(
        "{indent}\"bytes_logical_resident\": {},\n\
         {indent}\"bytes_physical_resident\": {},\n\
         {indent}\"bytes_uploaded\": {},\n\
         {indent}\"bytes_wire\": {},\n\
         {indent}\"chunks_resident\": {},\n\
         {indent}\"chunks_dedup_total\": {},\n\
         {indent}\"puts\": {},\n\
         {indent}\"delta_puts\": {},\n\
         {indent}\"dedup_ratio\": {:.4},\n\
         {indent}\"wire_savings_ratio\": {:.4}",
        u.bytes_stored,
        u.bytes_physical,
        u.bytes_uploaded,
        u.bytes_wire,
        u.chunks,
        u.chunks_dedup_total,
        u.puts,
        u.delta_puts,
        ratio(u.bytes_stored, u.bytes_physical),
        ratio(u.bytes_uploaded, u.bytes_wire),
    )
}

/// One upload of the bulk scenario: its receipt, and the arena's
/// physical bytes once it landed.
pub struct BulkUpload {
    pub receipt: DeltaReceipt,
    pub bytes_physical: u64,
}

/// The large-payload regime: a 2.5 MiB tree of forty incompressible
/// 64 KiB files, uploaded through the delta protocol into an empty
/// store, then resubmitted with one file regenerated.
fn run_bulk() -> [BulkUpload; 2] {
    const FILES: usize = 40;
    const FILE: usize = 64 * 1024;
    let mut state = SEED;
    let mut tree = FileTree::new();
    for i in 0..FILES {
        tree.insert(&format!("data/part{i:02}.bin"), pseudorandom(FILE, &mut state))
            .expect("static path");
    }
    let store = ObjectStore::new(VirtualClock::new());
    store.create_bucket("uploads", LifecycleRule::Keep).expect("fresh store");
    let uploader = DeltaUploader::new();
    let upload = |tree: &FileTree, key: &str| {
        let receipt = uploader
            .upload(&store, "uploads", key, &write_container(tree), [])
            .expect("no faults injected");
        BulkUpload { receipt, bytes_physical: store.usage().bytes_physical }
    };
    let fresh = upload(&tree, "fresh");
    tree.insert("data/part17.bin", pseudorandom(FILE, &mut state)).expect("static path");
    [fresh, upload(&tree, "resubmit")]
}

fn bulk_json(b: &BulkUpload) -> String {
    format!(
        "{{ \"chunks_total\": {}, \"chunks_sent\": {}, \"bytes_wire\": {}, \"bytes_physical\": {} }}",
        b.receipt.chunks_total,
        b.receipt.chunks_sent,
        b.receipt.wire_bytes(),
        b.bytes_physical,
    )
}

/// Everything `BENCH_store.json` is rendered from.
pub struct Store {
    /// The semester course's file-server usage and submission count.
    pub semester: StoreUsage,
    pub submissions: u64,
    /// The chaos course's file-server usage and accepted count.
    pub chaos: StoreUsage,
    pub accepted: usize,
    /// The fresh upload, then the resubmission.
    pub bulk: [BulkUpload; 2],
}

impl Store {
    /// Read both courses' usage and run the bulk scenario. Panics if
    /// dedup collapses the semester's resident bytes less than 3× (the
    /// acceptance floor), or if a second semester on the same seed
    /// would render differently (the semester is the trajectory
    /// baseline; flapping numbers would poison every future comparison).
    pub fn measure(courses: &Courses) -> Self {
        let sem = &courses.semester;
        let dedup = ratio(sem.store.bytes_stored, sem.store.bytes_physical);
        assert!(
            dedup >= 3.0,
            "dedup ratio {dedup:.2}x below the 3x floor (physical {} vs logical {})",
            sem.store.bytes_physical,
            sem.store.bytes_stored
        );
        // Everything rendered about the semester is these two values.
        let again = run_semester(&semester_config());
        assert_eq!(
            (again.store, again.total_submissions),
            (sem.store, sem.total_submissions),
            "same-seed semester must render byte-identically"
        );
        Store {
            semester: sem.store,
            submissions: sem.total_submissions,
            chaos: courses.chaos.store,
            accepted: courses.chaos.accepted.len(),
            bulk: run_bulk(),
        }
    }

    /// The text of `BENCH_store.json`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"rai-store-bench/2\",\n");
        out.push_str(&format!("  \"seed\": {SEED},\n"));
        out.push_str("  \"semester\": {\n");
        out.push_str(&format!("    \"teams\": {TEAMS},\n"));
        out.push_str(&format!("    \"days\": {DAYS},\n"));
        out.push_str(&format!("    \"submissions\": {},\n", self.submissions));
        out.push_str(&usage_json(&self.semester, "    "));
        out.push_str("\n  },\n");
        out.push_str("  \"chaos\": {\n");
        out.push_str(&format!("    \"accepted\": {},\n", self.accepted));
        out.push_str("    \"audit\": \"pass\",\n");
        out.push_str(&usage_json(&self.chaos, "    "));
        out.push_str("\n  },\n");
        out.push_str("  \"bulk\": {\n");
        out.push_str(&format!("    \"payload_bytes\": {},\n", self.bulk[0].receipt.bytes_logical));
        out.push_str(&format!("    \"fresh\": {},\n", bulk_json(&self.bulk[0])));
        out.push_str(&format!("    \"resubmit\": {}\n", bulk_json(&self.bulk[1])));
        out.push_str("  }\n");
        out.push_str("}\n");
        out
    }
}
