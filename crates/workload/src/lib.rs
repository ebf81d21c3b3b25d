//! # rai-workload — course workload models (paper §VI–§VII)
//!
//! The paper's evaluation is one semester of real students: 176
//! students in 58 teams making >40 000 submissions, 30 782 of them in
//! the last two weeks, with a circadian daily rhythm and a strong
//! deadline ramp (Fig. 4), and a final-runtime distribution whose top
//! 30 teams cluster under one second with a two-minute straggler
//! (Fig. 2). We obviously cannot re-run the class, so this crate models
//! the students:
//!
//! * [`teams`] — team skill and the performance trajectory of their
//!   project over the five weeks (serial baseline → first CUDA version
//!   → tuned kernel), seeded and reproducible;
//! * [`circadian`] — a non-homogeneous Poisson submission process with
//!   a diurnal profile and a polynomial deadline ramp, thinned per
//!   team, calibrated so the last two weeks produce ≈30.8k submissions;
//! * [`competition`] — the Fig. 2 experiment: run every team's final
//!   submission through a real [`rai_core::RaiSystem`] and histogram
//!   the leaderboard;
//! * [`semester`] — the full five-week discrete-event simulation
//!   driving client → broker → worker → store end to end, with the
//!   paper's phase-scheduled fleet, producing the Fig. 4 timeline and
//!   the §VII resource-usage report;
//! * [`chaos`] — the fault-injected semester: store/db/broker faults,
//!   worker crashes and stalls, poison jobs, and instance deaths,
//!   audited for the no-lost-submissions guarantee;
//! * [`recovery`] — the restart-resume chaos audit: kill the whole
//!   process mid-semester (optionally with disk faults on the
//!   write-ahead logs' unsynced tails), recover from the logs, resume,
//!   and prove zero lost / zero duplicated submissions — byte-identical
//!   to an uninterrupted run when the crash is clean and fault-free.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod circadian;
pub mod competition;
pub mod recovery;
pub mod semester;
pub mod teams;

pub use chaos::ChaosConfig;
pub use circadian::CircadianModel;
pub use competition::run_competition;
pub use recovery::{run_recovery, KillPoint, RecoveryConfig};
pub use semester::{FleetPolicy, SemesterConfig};
pub use teams::TeamRoster;
