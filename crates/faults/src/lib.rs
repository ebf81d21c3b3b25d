//! # rai-faults — deterministic fault injection for the RAI pipeline
//!
//! A [`FaultPlan`] describes *what* can go wrong — per-operation fault
//! probabilities, a poison-job rule, and a schedule of instance deaths
//! — and a [`FaultInjector`] turns the plan into concrete, reproducible
//! decisions. Every decision is a pure function of the plan seed plus a
//! stable key (a per-kind draw counter, or a `(job_id, attempt)` pair
//! for crash decisions), so two runs with the same seed inject exactly
//! the same faults in exactly the same places regardless of wall-clock
//! timing.
//!
//! The injector is threaded through `ObjectStore`, `Database`,
//! `Broker`, and `Worker` the same way `Telemetry` is: a cheaply
//! cloneable handle sharing one set of counters, attached with a
//! `set_fault_injector` call and consulted at each instrumented
//! operation.
//!
//! [`retry`] is the recovery half: bounded attempts with
//! exponential backoff measured in [`SimDuration`] and deterministic
//! seeded jitter, so retries cost virtual time instead of wall time.

#![forbid(unsafe_code)]

use parking_lot::Mutex;
use rai_sim::SimDuration;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// SplitMix64 step — the single source of randomness in this crate.
fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mix an arbitrary list of key words into one draw value.
fn mix(words: &[u64]) -> u64 {
    let mut acc = 0x51_7C_C1_B7_27_22_0A_95u64;
    for &w in words {
        acc = splitmix64(acc ^ w);
    }
    acc
}

/// Map a draw to the unit interval `[0, 1)`.
fn to_unit(draw: u64) -> f64 {
    (draw >> 11) as f64 / (1u64 << 53) as f64
}

/// The operations a [`FaultInjector`] can make fail.
#[derive(Clone, Copy)]
pub enum FaultKind {
    /// `ObjectStore::put` returns `Unavailable`.
    StorePut,
    /// `ObjectStore::get` returns `Unavailable`.
    StoreGet,
    /// A database operation returns `Unavailable`.
    DbOp,
    /// `Broker::publish` is rejected.
    BrokerPublish,
    /// A worker dies mid-job at a [`CrashPoint`] (claims released).
    WorkerCrash,
    /// A worker freezes mid-job (claims held until reclaim timeout).
    WorkerStall,
    /// A fleet instance dies.
    InstanceDeath,
}

impl FaultKind {
    /// Stable label: the kind's key in
    /// [`FaultInjector::injected_counts`], which the chaos course
    /// reports by kind.
    pub(crate) fn label(self) -> &'static str {
        match self {
            FaultKind::StorePut => "store_put",
            FaultKind::StoreGet => "store_get",
            FaultKind::DbOp => "db_op",
            FaultKind::BrokerPublish => "broker_publish",
            FaultKind::WorkerCrash => "worker_crash",
            FaultKind::WorkerStall => "worker_stall",
            FaultKind::InstanceDeath => "instance_death",
        }
    }

    fn tag(self) -> u64 {
        match self {
            FaultKind::StorePut => 1,
            FaultKind::StoreGet => 2,
            FaultKind::DbOp => 3,
            FaultKind::BrokerPublish => 4,
            FaultKind::WorkerCrash => 5,
            FaultKind::WorkerStall => 6,
            FaultKind::InstanceDeath => 7,
        }
    }
}

/// Named points in a worker's job pipeline where a crash or stall can
/// be injected. Each sits at a boundary chosen to exercise a distinct
/// recovery path.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Before the project archive is fetched from the store.
    Fetch,
    /// After fetch, before the container runs.
    Build,
    /// After the run, before `/build` is uploaded.
    Upload,
    /// After upload and database record, before the broker ack — the
    /// idempotency stress case: redelivery reprocesses a job whose
    /// side effects already landed.
    Ack,
}

/// How an injected worker fault manifests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashKind {
    /// Process death: the subscription drops, in-flight claims are
    /// requeued immediately, and a supervisor restarts the worker.
    Crash,
    /// Freeze: the process hangs without releasing its claims; the
    /// broker's message timeout (`reclaim_expired`) redelivers.
    Stall,
}

/// A declarative, seeded description of the faults to inject over a
/// run. All probabilities are per-operation (or per job attempt for
/// crash/stall) in `[0, 1]`.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed from which every fault decision derives.
    pub seed: u64,
    /// Probability that an `ObjectStore::put` fails.
    pub store_put: f64,
    /// Probability that an `ObjectStore::get` fails.
    pub store_get: f64,
    /// Probability that a database operation fails.
    pub db_op: f64,
    /// Probability that a `Broker::publish` is rejected.
    pub broker_publish: f64,
    /// Probability that a job attempt dies at a crash point.
    pub worker_crash: f64,
    /// Probability that a job attempt stalls at a crash point.
    pub worker_stall: f64,
    /// Poison rule: job ids divisible by this crash on *every* attempt
    /// and can only leave the queue through the dead-letter topic.
    /// `None` disables poison jobs. A divisor of 0 is treated as
    /// `None`.
    pub poison_every: Option<u64>,
    /// Sim-time offsets (from run start) at which one fleet instance
    /// dies.
    pub instance_deaths: Vec<SimDuration>,
}

impl FaultPlan {
    /// A plan that injects nothing: its injector's `should_fail` and
    /// `crash_decision` answer before touching a draw counter. This is
    /// the one spelling of "no faults" below `SystemConfig` — a
    /// standalone `Worker` holds one until a deployment replaces it.
    pub fn none(seed: u64) -> Self {
        FaultPlan {
            seed,
            store_put: 0.0,
            store_get: 0.0,
            db_op: 0.0,
            broker_publish: 0.0,
            worker_crash: 0.0,
            worker_stall: 0.0,
            poison_every: None,
            instance_deaths: Vec::new(),
        }
    }

    /// The chaos profile used by the acceptance scenario: ≥5% worker
    /// crash rate, ≥2% store/db fault rate, a poison job, and one
    /// instance death mid-run.
    pub fn chaos(seed: u64) -> Self {
        FaultPlan {
            seed,
            store_put: 0.03,
            store_get: 0.03,
            db_op: 0.02,
            broker_publish: 0.01,
            worker_crash: 0.05,
            worker_stall: 0.02,
            poison_every: Some(97),
            instance_deaths: vec![SimDuration::from_hours(6)],
        }
    }

    /// True when a job id matches the poison rule.
    pub fn is_poison(&self, job_id: u64) -> bool {
        match self.poison_every {
            Some(n) if n > 0 => job_id.is_multiple_of(n),
            _ => false,
        }
    }
}

struct InjectorInner {
    plan: FaultPlan,
    /// Per-kind draw counters: each `should_fail` consult consumes one
    /// draw, so the decision stream is stable for a given call order.
    draws: [AtomicU64; 4],
    /// Injected-fault counts by kind label. `RaiSystem::report` stores
    /// their sum, unlabelled, as `rai_faults_injected_total`.
    injected: Mutex<BTreeMap<&'static str, u64>>,
}

/// Cheaply cloneable handle making deterministic fault decisions from a
/// [`FaultPlan`]. All clones share draw counters and injection counts.
#[derive(Clone)]
pub struct FaultInjector {
    inner: Arc<InjectorInner>,
}

impl FaultInjector {
    /// An injector executing `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            inner: Arc::new(InjectorInner {
                plan,
                draws: [const { AtomicU64::new(0) }; 4],
                injected: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// Decide whether the next operation of `kind` fails. Only the four
    /// probability-driven kinds (`StorePut`, `StoreGet`, `DbOp`,
    /// `BrokerPublish`) consume draws; worker faults go through
    /// [`FaultInjector::crash_decision`].
    pub fn should_fail(&self, kind: FaultKind) -> bool {
        let (p, slot) = match kind {
            FaultKind::StorePut => (self.inner.plan.store_put, 0),
            FaultKind::StoreGet => (self.inner.plan.store_get, 1),
            FaultKind::DbOp => (self.inner.plan.db_op, 2),
            FaultKind::BrokerPublish => (self.inner.plan.broker_publish, 3),
            _ => return false,
        };
        if p <= 0.0 {
            return false;
        }
        let n = self.inner.draws[slot].fetch_add(1, Ordering::Relaxed);
        let fail = to_unit(mix(&[self.inner.plan.seed, kind.tag(), n])) < p;
        if fail {
            self.note(kind.label());
        }
        fail
    }

    /// Decide whether attempt `attempt` of job `job_id` dies at
    /// `point`. The decision is a pure function of
    /// `(seed, job_id, attempt)` — it does not consume shared draws —
    /// so a job crashes at the same point on the same attempt no matter
    /// which worker picks it up. Poison jobs crash at `Build` on every
    /// attempt; for everything else a fresh attempt re-rolls, so a
    /// crashed job eventually completes (or hits the broker's attempt
    /// cap and dead-letters).
    pub fn crash_decision(
        &self,
        job_id: u64,
        attempt: u64,
        point: CrashPoint,
    ) -> Option<CrashKind> {
        let plan = &self.inner.plan;
        if plan.is_poison(job_id) {
            if point == CrashPoint::Build {
                self.note(FaultKind::WorkerCrash.label());
                return Some(CrashKind::Crash);
            }
            return None;
        }
        let p_crash = plan.worker_crash;
        let p_stall = plan.worker_stall;
        if p_crash <= 0.0 && p_stall <= 0.0 {
            return None;
        }
        let roll = to_unit(mix(&[plan.seed, 0xFA11, job_id, attempt]));
        let kind = if roll < p_crash {
            CrashKind::Crash
        } else if roll < p_crash + p_stall {
            CrashKind::Stall
        } else {
            return None;
        };
        // Pick which pipeline point the fault lands on.
        let points = [CrashPoint::Fetch, CrashPoint::Build, CrashPoint::Upload, CrashPoint::Ack];
        let pick = mix(&[plan.seed, 0xBEEF, job_id, attempt]) as usize % points.len();
        if points[pick] == point {
            self.note(
                match kind {
                    CrashKind::Crash => FaultKind::WorkerCrash,
                    CrashKind::Stall => FaultKind::WorkerStall,
                }
                .label(),
            );
            Some(kind)
        } else {
            None
        }
    }

    /// Record an externally injected fault (e.g. an instance death
    /// applied by the scenario driver) so it shows up in
    /// [`FaultInjector::injected_counts`].
    pub fn note_injected(&self, kind: FaultKind) {
        self.note(kind.label());
    }

    /// Cumulative injected-fault counts by kind label, sorted by label.
    pub fn injected_counts(&self) -> Vec<(&'static str, u64)> {
        self.inner.injected.lock().iter().map(|(k, v)| (*k, *v)).collect()
    }

    fn note(&self, label: &'static str) {
        *self.inner.injected.lock().entry(label).or_insert(0) += 1;
    }
}

/// A single corruption applied to the unsynced tail of a log segment
/// when a process dies mid-write. Produced by [`DiskFaultProfile`];
/// consumed by the WAL's simulated disk, which mutates the crashed
/// segment before recovery replays it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFault {
    /// The final `drop_bytes` of the segment never hit the platter.
    TornTail {
        /// Bytes cut from the end of the segment.
        drop_bytes: u64,
    },
    /// One bit of the segment is flipped (a misdirected or decayed
    /// write). Recovery must detect this via the record CRC.
    BitFlip {
        /// Byte offset of the flipped bit, modulo the segment length.
        offset: u64,
        /// Which bit (0–7) within that byte flips.
        bit: u8,
    },
    /// A short read: only the first `keep` bytes of the segment are
    /// returned to the recovering process.
    ShortRead {
        /// Bytes visible to the reader.
        keep: u64,
    },
}

/// Seeded profile deciding which [`DiskFault`]s a crash leaves behind.
///
/// Decisions are pure functions of `(seed, crash_index, tail_len)` —
/// they draw from their own key space and never touch the four shared
/// [`FaultInjector`] draw counters, so enabling disk faults does not
/// perturb the store/db/broker fault streams.
#[derive(Debug, Clone, Copy)]
pub struct DiskFaultProfile {
    /// Seed from which every disk-fault decision derives.
    pub seed: u64,
    /// Probability that a crash tears the unsynced tail.
    pub torn_tail: f64,
    /// Probability that a crash flips one bit somewhere in the segment.
    pub bit_flip: f64,
    /// Probability that recovery sees a short read of the segment.
    pub short_read: f64,
}

impl DiskFaultProfile {
    /// A profile that corrupts nothing: crashes lose only bytes that
    /// were never synced.
    pub fn none(seed: u64) -> Self {
        DiskFaultProfile { seed, torn_tail: 0.0, bit_flip: 0.0, short_read: 0.0 }
    }

    /// The chaos profile: most crashes tear the tail, a meaningful
    /// fraction flip a bit or short-read on top.
    pub fn chaos(seed: u64) -> Self {
        DiskFaultProfile { seed, torn_tail: 0.6, bit_flip: 0.25, short_read: 0.15 }
    }

    /// The faults left behind by crash number `crash_index` on a
    /// segment whose unsynced tail is `tail_len` bytes long (the synced
    /// prefix is durable by contract and never corrupted). Pure in
    /// `(self, crash_index, tail_len)`.
    pub fn faults_for_crash(&self, crash_index: u64, tail_len: u64) -> Vec<DiskFault> {
        let mut faults = Vec::new();
        if tail_len == 0 {
            return faults;
        }
        let s = self.seed;
        if to_unit(mix(&[s, 0xD15C_0001, crash_index])) < self.torn_tail {
            let drop_bytes = 1 + mix(&[s, 0xD15C_0002, crash_index]) % tail_len;
            faults.push(DiskFault::TornTail { drop_bytes });
        }
        if to_unit(mix(&[s, 0xD15C_0003, crash_index])) < self.bit_flip {
            let offset = mix(&[s, 0xD15C_0004, crash_index]);
            let bit = (mix(&[s, 0xD15C_0005, crash_index]) % 8) as u8;
            faults.push(DiskFault::BitFlip { offset, bit });
        }
        if to_unit(mix(&[s, 0xD15C_0006, crash_index])) < self.short_read {
            let keep = mix(&[s, 0xD15C_0007, crash_index]) % tail_len;
            faults.push(DiskFault::ShortRead { keep });
        }
        faults
    }
}

/// Most calls [`retry`] makes, the first included.
const RETRY_MAX_ATTEMPTS: u32 = 4;

/// Backoff before the second attempt; it doubles per attempt after.
const RETRY_BASE: SimDuration = SimDuration::from_millis(500);

/// Ceiling on any single backoff.
const RETRY_CAP: SimDuration = SimDuration::from_secs(30);

/// Outcome of [`retry`]: the final result plus what the retrying cost.
pub struct Retried<T, E> {
    /// Result of the last attempt.
    pub result: Result<T, E>,
    /// Attempts actually made (≥ 1).
    pub attempts: u32,
    /// Total backoff accrued between attempts, in sim time.
    pub backoff: SimDuration,
}

/// The deterministic backoff before attempt `attempt` (2-based:
/// attempt 2 is the first retry): `RETRY_BASE * 2^(attempt-2)` capped
/// at `RETRY_CAP`, the upper half of it a draw keyed by `seed` so
/// different call sites decorrelate.
fn backoff(seed: u64, attempt: u32) -> SimDuration {
    if attempt < 2 {
        return SimDuration::ZERO;
    }
    let exp = (attempt - 2).min(32);
    let raw = RETRY_BASE.as_millis().saturating_mul(1u64 << exp);
    let capped = raw.min(RETRY_CAP.as_millis());
    let fixed = capped / 2;
    let spread = capped - fixed;
    let draw = mix(&[seed, 0x08AC_C0FF, attempt as u64]);
    SimDuration::from_millis(fixed + draw % (spread + 1))
}

/// Run `op` with bounded retries: at most `RETRY_MAX_ATTEMPTS`
/// calls, exponential backoff between them in sim time. `op` receives
/// the 1-based attempt number. Backoff is *accrued* in the returned
/// [`Retried`], not slept — callers fold it into their virtual
/// service time.
pub fn retry<T, E>(seed: u64, mut op: impl FnMut(u32) -> Result<T, E>) -> Retried<T, E> {
    let mut backoff_total = SimDuration::ZERO;
    let mut attempt = 1;
    loop {
        match op(attempt) {
            Ok(value) => {
                return Retried { result: Ok(value), attempts: attempt, backoff: backoff_total };
            }
            Err(err) => {
                if attempt >= RETRY_MAX_ATTEMPTS {
                    return Retried { result: Err(err), attempts: attempt, backoff: backoff_total };
                }
                attempt += 1;
                backoff_total += backoff(seed, attempt);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_never_fires() {
        let injector = FaultInjector::new(FaultPlan::none(1));
        for _ in 0..1000 {
            assert!(!injector.should_fail(FaultKind::StorePut));
            assert!(!injector.should_fail(FaultKind::DbOp));
        }
        assert!(injector.crash_decision(42, 1, CrashPoint::Build).is_none());
        assert!(injector.injected_counts().is_empty());
    }

    #[test]
    fn fault_stream_is_deterministic() {
        let a = FaultInjector::new(FaultPlan::chaos(7));
        let b = FaultInjector::new(FaultPlan::chaos(7));
        let seq_a: Vec<bool> =
            (0..500).map(|_| a.should_fail(FaultKind::StoreGet)).collect();
        let seq_b: Vec<bool> =
            (0..500).map(|_| b.should_fail(FaultKind::StoreGet)).collect();
        assert_eq!(seq_a, seq_b);
        assert!(seq_a.iter().any(|&f| f), "3% over 500 draws should fire");
        assert_eq!(a.injected_counts(), b.injected_counts());
    }

    #[test]
    fn different_seeds_decorrelate() {
        let a = FaultInjector::new(FaultPlan::chaos(1));
        let b = FaultInjector::new(FaultPlan::chaos(2));
        let seq_a: Vec<bool> =
            (0..2000).map(|_| a.should_fail(FaultKind::StorePut)).collect();
        let seq_b: Vec<bool> =
            (0..2000).map(|_| b.should_fail(FaultKind::StorePut)).collect();
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn fault_rate_tracks_probability() {
        let injector = FaultInjector::new(FaultPlan {
            store_get: 0.10,
            ..FaultPlan::none(3)
        });
        let fails = (0..10_000).filter(|_| injector.should_fail(FaultKind::StoreGet)).count();
        assert!((800..1200).contains(&fails), "got {fails} failures at p=0.10");
    }

    #[test]
    fn crash_decision_is_stable_per_attempt_and_rerolls_across_attempts() {
        let injector = FaultInjector::new(FaultPlan {
            worker_crash: 0.5,
            worker_stall: 0.2,
            ..FaultPlan::none(11)
        });
        let points =
            [CrashPoint::Fetch, CrashPoint::Build, CrashPoint::Upload, CrashPoint::Ack];
        for job in 0..200u64 {
            // At most one point fires per (job, attempt), and repeat
            // queries agree.
            for attempt in 1..=3u64 {
                let hits: Vec<_> = points
                    .iter()
                    .filter(|&&p| injector.crash_decision(job, attempt, p).is_some())
                    .collect();
                assert!(hits.len() <= 1);
                for &p in &points {
                    assert_eq!(
                        injector.crash_decision(job, attempt, p).is_some(),
                        injector.crash_decision(job, attempt, p).is_some()
                    );
                }
            }
        }
        // With p=0.7 some job must eventually draw a clean attempt.
        let survives = |job: u64| {
            (1..=40u64).any(|attempt| {
                points.iter().all(|&p| injector.crash_decision(job, attempt, p).is_none())
            })
        };
        assert!((0..50).all(survives));
    }

    #[test]
    fn poison_jobs_crash_every_attempt() {
        let plan = FaultPlan { poison_every: Some(10), ..FaultPlan::none(5) };
        let injector = FaultInjector::new(plan.clone());
        for attempt in 1..=50 {
            assert_eq!(
                injector.crash_decision(40, attempt, CrashPoint::Build),
                Some(CrashKind::Crash)
            );
        }
        assert!(injector.crash_decision(41, 1, CrashPoint::Build).is_none());
        assert!(plan.is_poison(40));
        assert!(!plan.is_poison(41));
    }

    #[test]
    fn disk_faults_are_pure_and_disabled_profile_is_clean() {
        let profile = DiskFaultProfile::chaos(77);
        for crash in 0..50u64 {
            assert_eq!(
                profile.faults_for_crash(crash, 4096),
                profile.faults_for_crash(crash, 4096)
            );
        }
        let fired = (0..200u64).filter(|&c| !profile.faults_for_crash(c, 4096).is_empty()).count();
        assert!(fired > 100, "chaos profile should corrupt most crashes, got {fired}");
        let clean = DiskFaultProfile::none(77);
        assert!((0..200u64).all(|c| clean.faults_for_crash(c, 4096).is_empty()));
        // A zero-length tail has nothing to corrupt.
        assert!(profile.faults_for_crash(0, 0).is_empty());
        // Torn tails never drop more than the unsynced tail.
        for crash in 0..200u64 {
            for fault in profile.faults_for_crash(crash, 100) {
                if let DiskFault::TornTail { drop_bytes } = fault {
                    assert!((1..=100).contains(&drop_bytes));
                }
            }
        }
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        assert_eq!(backoff(0, 1), SimDuration::ZERO);
        for attempt in 2..12u32 {
            let nominal = (500u64 << (attempt - 2)).min(30_000);
            let got = backoff(0, attempt).as_millis();
            assert!(
                (nominal / 2..=nominal).contains(&got),
                "attempt {attempt}: {got} ms of {nominal}"
            );
        }
    }

    #[test]
    fn jittered_backoff_is_deterministic_and_bounded() {
        for attempt in 2..8 {
            assert_eq!(backoff(99, attempt), backoff(99, attempt));
            assert!(backoff(99, attempt) <= RETRY_CAP);
        }
        assert_ne!(backoff(1, 4), backoff(2, 4));
    }

    #[test]
    fn run_retries_until_success() {
        let mut calls = 0;
        let out = retry::<_, ()>(7, |attempt| {
            calls += 1;
            if attempt < 3 {
                Err(())
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(calls, 3);
        assert_eq!(out.attempts, 3);
        assert_eq!(out.result, Ok(3));
        assert!(out.backoff > SimDuration::ZERO);
    }

    #[test]
    fn run_gives_up_after_max_attempts() {
        let out = retry::<(), _>(7, |_| Err("down"));
        assert_eq!(out.attempts, RETRY_MAX_ATTEMPTS);
        assert_eq!(out.result, Err("down"));
    }
}
