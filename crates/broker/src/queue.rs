//! Per-channel queue state: a ready queue, an in-flight table keyed by
//! subscriber, and a condvar for blocking consumers.
//!
//! Delivery claims are stamped with [`SimTime`] from the broker's
//! shared [`VirtualClock`], so message-timeout redelivery
//! (`ChannelState::reclaim_expired`) is driven by the discrete-event
//! scheduler and fully deterministic — wall-clock `Instant`s never
//! enter the picture. Blocking receive timeouts remain wall-clock
//! (they bound how long a *thread* parks, not when a *message*
//! expires).

use crate::message::{Message, MessageId};
use parking_lot::{Condvar, Mutex};
use rai_sim::{SimDuration, SimTime, VirtualClock};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// Error from a blocking receive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecvError {
    /// No message arrived within the timeout.
    Timeout,
    /// The channel (or its topic) was deleted.
    Closed,
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Timeout => write!(f, "recv timed out"),
            RecvError::Closed => write!(f, "channel closed"),
        }
    }
}

impl std::error::Error for RecvError {}

/// Result of an operation that may both requeue messages and push some
/// over the attempt cap. Dead messages are handed back to the caller
/// (the broker), which owns routing them to the dead-letter topic.
#[derive(Debug, Default)]
pub(crate) struct Requeued {
    /// Messages returned to the ready queue.
    pub(crate) requeued: usize,
    /// Messages that exhausted their attempt cap.
    pub(crate) dead: Vec<Message>,
}

pub(crate) struct ChannelQueue {
    pub(crate) ready: VecDeque<Message>,
    /// message id → (subscriber id, message, delivery sim-time) awaiting
    /// ack. The timestamp drives NSQ-style message-timeout redelivery.
    pub(crate) in_flight: HashMap<MessageId, (u64, Message, SimTime)>,
    pub(crate) closed: bool,
}

pub(crate) struct ChannelState {
    pub(crate) name: String,
    pub(crate) queue: Mutex<ChannelQueue>,
    pub(crate) available: Condvar,
    pub(crate) subscribers: AtomicUsize,
    /// Clock stamping delivery claims (shared with the broker).
    pub(crate) clock: VirtualClock,
    /// Redeliveries allowed per message before it dead-letters;
    /// 0 disables the cap.
    pub(crate) max_attempts: u32,
    // Counters for stats.
    pub(crate) enqueued: AtomicU64,
    pub(crate) acked: AtomicU64,
    pub(crate) requeued: AtomicU64,
    pub(crate) dead_lettered: AtomicU64,
}

impl ChannelState {
    pub(crate) fn new(name: &str, clock: VirtualClock, max_attempts: u32) -> Self {
        ChannelState {
            name: name.to_string(),
            queue: Mutex::new(ChannelQueue {
                ready: VecDeque::new(),
                in_flight: HashMap::new(),
                closed: false,
            }),
            available: Condvar::new(),
            subscribers: AtomicUsize::new(0),
            clock,
            max_attempts,
            enqueued: AtomicU64::new(0),
            acked: AtomicU64::new(0),
            requeued: AtomicU64::new(0),
            dead_lettered: AtomicU64::new(0),
        }
    }

    /// Push a message to the ready queue and wake one consumer.
    pub(crate) fn enqueue(&self, msg: Message) {
        {
            let mut q = self.queue.lock();
            q.ready.push_back(msg);
        }
        self.enqueued.fetch_add(1, Ordering::Relaxed);
        self.available.notify_one();
    }

    /// Blocking pop with timeout; the popped message moves to the
    /// in-flight table under `subscriber`. The timeout bounds the
    /// wall-clock wait; the claim itself is stamped in sim time.
    pub(crate) fn recv_timeout(
        &self,
        subscriber: u64,
        timeout: Duration,
    ) -> Result<Message, RecvError> {
        let mut q = self.queue.lock();
        loop {
            if q.closed {
                return Err(RecvError::Closed);
            }
            if let Some(mut msg) = q.ready.pop_front() {
                msg.attempts += 1;
                q.in_flight.insert(msg.id, (subscriber, msg.clone(), self.clock.now()));
                return Ok(msg);
            }
            if self.available.wait_for(&mut q, timeout).timed_out() {
                return Err(RecvError::Timeout);
            }
        }
    }

    /// Non-blocking pop.
    pub(crate) fn try_recv(&self, subscriber: u64) -> Option<Message> {
        let mut q = self.queue.lock();
        if q.closed {
            return None;
        }
        let mut msg = q.ready.pop_front()?;
        msg.attempts += 1;
        q.in_flight.insert(msg.id, (subscriber, msg.clone(), self.clock.now()));
        Some(msg)
    }

    /// Acknowledge an in-flight message. Returns `false` if it was not
    /// in flight for this subscriber.
    pub(crate) fn ack(&self, subscriber: u64, id: MessageId) -> bool {
        let mut q = self.queue.lock();
        match q.in_flight.get(&id) {
            Some((owner, _, _)) if *owner == subscriber => {
                q.in_flight.remove(&id);
                self.acked.fetch_add(1, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// Whether a message at `attempts` deliveries has exhausted its
    /// redelivery budget.
    fn over_cap(&self, attempts: u32) -> bool {
        self.max_attempts > 0 && attempts >= self.max_attempts
    }

    /// Return an in-flight message to the back of the ready queue (a
    /// worker declining a job it has no capacity for), or dead-letter
    /// it if it has hit the attempt cap. Returns `None` if it was not
    /// in flight for this subscriber.
    pub fn requeue(&self, subscriber: u64, id: MessageId) -> Option<Requeued> {
        let mut q = self.queue.lock();
        match q.in_flight.get(&id) {
            Some((owner, _, _)) if *owner == subscriber => {
                let (_, msg, _) = q.in_flight.remove(&id).expect("checked above");
                let mut out = Requeued::default();
                if self.over_cap(msg.attempts) {
                    out.dead.push(msg);
                    drop(q);
                } else {
                    q.ready.push_back(msg);
                    out.requeued = 1;
                    drop(q);
                    self.requeued.fetch_add(1, Ordering::Relaxed);
                    self.available.notify_one();
                }
                Some(out)
            }
            _ => None,
        }
    }

    /// Requeue everything a dropped subscriber still had in flight, so a
    /// crashed worker's jobs are redelivered to surviving workers.
    /// Messages over the attempt cap come back in `dead` instead.
    /// Messages move in id order, so redelivery order is deterministic
    /// regardless of `HashMap` iteration order.
    pub(crate) fn requeue_all_for(&self, subscriber: u64) -> Requeued {
        let mut q = self.queue.lock();
        let mut ids: Vec<MessageId> = q
            .in_flight
            .iter()
            .filter(|(_, (owner, _, _))| *owner == subscriber)
            .map(|(id, _)| *id)
            .collect();
        ids.sort();
        self.requeue_ids(&mut q, &ids)
    }

    /// Requeue in-flight messages claimed at or before `now - timeout`
    /// (NSQ's message-timeout behaviour: a worker that stalls without
    /// crashing loses its claim). Expired messages over the attempt cap
    /// come back in `dead`. Deterministic: driven by sim time and
    /// processed in message-id order.
    pub(crate) fn reclaim_expired(&self, timeout: SimDuration) -> Requeued {
        let now = self.clock.now();
        let mut q = self.queue.lock();
        let mut ids: Vec<MessageId> = q
            .in_flight
            .iter()
            .filter(|(_, (_, _, taken))| now.duration_since(*taken) >= timeout)
            .map(|(id, _)| *id)
            .collect();
        ids.sort();
        self.requeue_ids(&mut q, &ids)
    }

    fn requeue_ids(&self, q: &mut ChannelQueue, ids: &[MessageId]) -> Requeued {
        let mut out = Requeued::default();
        for id in ids {
            let (_, msg, _) = q.in_flight.remove(id).expect("listed by caller");
            if self.over_cap(msg.attempts) {
                out.dead.push(msg);
            } else {
                q.ready.push_back(msg);
                out.requeued += 1;
            }
        }
        if out.requeued > 0 {
            self.requeued.fetch_add(out.requeued as u64, Ordering::Relaxed);
            self.available.notify_all();
        }
        out
    }

    /// Close the channel, waking all blocked consumers with `Closed`.
    pub(crate) fn close(&self) {
        let mut q = self.queue.lock();
        q.closed = true;
        drop(q);
        self.available.notify_all();
    }

    /// Ready-queue depth.
    pub(crate) fn depth(&self) -> usize {
        self.queue.lock().ready.len()
    }

    /// In-flight count.
    pub(crate) fn in_flight_count(&self) -> usize {
        self.queue.lock().in_flight.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(id: u64) -> Message {
        Message {
            id: MessageId(id),
            body: bytes::Bytes::from_static(b"x"),
            attempts: 0,
        }
    }

    fn chan(max_attempts: u32) -> (ChannelState, VirtualClock) {
        let clock = VirtualClock::new();
        (ChannelState::new("ch", clock.clone(), max_attempts), clock)
    }

    #[test]
    fn enqueue_recv_ack() {
        let (ch, _clock) = chan(0);
        ch.enqueue(msg(1));
        let m = ch.recv_timeout(7, Duration::from_millis(10)).unwrap();
        assert_eq!(m.id, MessageId(1));
        assert_eq!(m.attempts, 1);
        assert_eq!(ch.in_flight_count(), 1);
        assert!(ch.ack(7, m.id));
        assert!(!ch.ack(7, m.id), "double ack fails");
        assert_eq!(ch.in_flight_count(), 0);
    }

    #[test]
    fn ack_wrong_subscriber_rejected() {
        let (ch, _clock) = chan(0);
        ch.enqueue(msg(1));
        let m = ch.try_recv(1).unwrap();
        assert!(!ch.ack(2, m.id));
        assert!(ch.ack(1, m.id));
    }

    #[test]
    fn requeue_increments_attempts() {
        let (ch, _clock) = chan(0);
        ch.enqueue(msg(1));
        let m = ch.try_recv(1).unwrap();
        assert_eq!(m.attempts, 1);
        let r = ch.requeue(1, m.id).expect("owned");
        assert_eq!(r.requeued, 1);
        let m2 = ch.try_recv(1).unwrap();
        assert_eq!(m2.attempts, 2);
    }

    #[test]
    fn recv_times_out() {
        let (ch, _clock) = chan(0);
        assert_eq!(
            ch.recv_timeout(1, Duration::from_millis(5)),
            Err(RecvError::Timeout)
        );
    }

    #[test]
    fn close_wakes_blocked_consumer() {
        let (ch, _clock) = chan(0);
        let ch = std::sync::Arc::new(ch);
        let ch2 = ch.clone();
        let t = std::thread::spawn(move || ch2.recv_timeout(1, Duration::from_secs(10)));
        std::thread::sleep(Duration::from_millis(20));
        ch.close();
        assert_eq!(t.join().unwrap(), Err(RecvError::Closed));
    }

    #[test]
    fn reclaim_expired_requeues_stalled_deliveries() {
        let (ch, clock) = chan(0);
        ch.enqueue(msg(1));
        let taken = ch.try_recv(1).unwrap();
        let r = ch.reclaim_expired(SimDuration::from_secs(60));
        assert_eq!(r.requeued, 0, "fresh claim kept");
        clock.advance(SimDuration::from_secs(61));
        let r = ch.reclaim_expired(SimDuration::from_secs(60));
        assert_eq!(r.requeued, 1);
        assert!(r.dead.is_empty());
        let again = ch.try_recv(2).unwrap();
        assert_eq!(again.id, taken.id);
        assert_eq!(again.attempts, 2);
    }

    #[test]
    fn reclaim_is_sim_time_not_wall_time() {
        let (ch, _clock) = chan(0);
        ch.enqueue(msg(1));
        let _taken = ch.try_recv(1).unwrap();
        // Wall-clock time passes but sim time does not: no reclaim.
        std::thread::sleep(Duration::from_millis(15));
        let r = ch.reclaim_expired(SimDuration::from_millis(1));
        assert_eq!(r.requeued, 0);
        assert_eq!(ch.in_flight_count(), 1);
    }

    #[test]
    fn dropped_subscriber_requeues_its_messages_only() {
        let (ch, _clock) = chan(0);
        ch.enqueue(msg(1));
        ch.enqueue(msg(2));
        ch.enqueue(msg(3));
        let _a = ch.try_recv(1).unwrap();
        let _b = ch.try_recv(1).unwrap();
        let _c = ch.try_recv(2).unwrap();
        let r = ch.requeue_all_for(1);
        assert_eq!(r.requeued, 2);
        assert_eq!(ch.depth(), 2);
        assert_eq!(ch.in_flight_count(), 1);
    }

    #[test]
    fn attempt_cap_dead_letters_on_requeue() {
        let (ch, _clock) = chan(2);
        ch.enqueue(msg(1));
        let m = ch.try_recv(1).unwrap(); // attempt 1
        assert_eq!(ch.requeue(1, m.id).unwrap().requeued, 1);
        let m = ch.try_recv(1).unwrap(); // attempt 2 == cap
        let r = ch.requeue(1, m.id).unwrap();
        assert_eq!(r.requeued, 0);
        assert_eq!(r.dead.len(), 1);
        assert_eq!(r.dead[0].attempts, 2);
        assert_eq!(ch.depth(), 0);
        assert_eq!(ch.in_flight_count(), 0);
    }

    #[test]
    fn attempt_cap_applies_to_reclaim_and_drop_requeue() {
        let (ch, clock) = chan(1);
        ch.enqueue(msg(1));
        ch.enqueue(msg(2));
        let _a = ch.try_recv(1).unwrap();
        let _b = ch.try_recv(2).unwrap();
        clock.advance(SimDuration::from_secs(10));
        let r = ch.reclaim_expired(SimDuration::from_secs(5));
        assert_eq!(r.requeued, 0);
        assert_eq!(r.dead.len(), 2, "cap of 1 dead-letters on first expiry");
        assert_eq!(r.dead[0].id, MessageId(1), "dead letters in id order");
        assert_eq!(r.dead[1].id, MessageId(2));
    }
}
