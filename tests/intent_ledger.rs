//! What the intent ledger costs the db journal. A durable deployment
//! journals each accepted submission once, as `{job_id, req}`, before
//! it publishes; only a refused publish writes its intent again. Every
//! other db record of a submission is the row the pipeline keeps
//! anyway, so an uninterrupted course journals about two records per
//! accepted submission: its intent and its terminal row.

use rai::workload::chaos::ChaosConfig;
use rai::workload::recovery::{run_recovery, RecoveryConfig};
use rai_wal::DurabilityConfig;

/// db journal records allowed per accepted submission. An intent that
/// is marked again after every publish reads 3.02 on the course below.
const DB_RECORDS_PER_SUBMISSION: f64 = 2.1;

#[test]
fn an_accepted_submission_costs_the_db_journal_two_records() {
    let result = run_recovery(&RecoveryConfig {
        chaos: ChaosConfig::acceptance(2016),
        kill: None,
        disk_faults: None,
        durability: DurabilityConfig::durable(),
    });
    result.verify().expect("the course accounts for every submission");
    let (records, accepted) = (result.db_wal.appends, result.accepted.len());
    assert!(accepted > 0, "the course accepted nothing");
    let per_submission = records as f64 / accepted as f64;
    println!("{records} db records for {accepted} accepted submissions: {per_submission:.3} each");
    assert!(
        per_submission <= DB_RECORDS_PER_SUBMISSION,
        "{per_submission:.3} db records per accepted submission, over {DB_RECORDS_PER_SUBMISSION}"
    );
}
