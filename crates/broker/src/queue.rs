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
use std::sync::atomic::AtomicUsize;
use std::time::{Duration, Instant};

/// Result of an operation that may both requeue messages and push some
/// over the attempt cap. Dead messages are handed back to the caller
/// (the broker), which owns counting the requeues and routing the dead
/// to the dead-letter topic.
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
}

impl ChannelState {
    pub(crate) fn new(name: &str, clock: VirtualClock, max_attempts: u32) -> Self {
        ChannelState {
            name: name.to_string(),
            queue: Mutex::new(ChannelQueue {
                ready: VecDeque::new(),
                in_flight: HashMap::new(),
            }),
            available: Condvar::new(),
            subscribers: AtomicUsize::new(0),
            clock,
            max_attempts,
        }
    }

    /// Push a message to the ready queue and wake one consumer.
    pub(crate) fn enqueue(&self, msg: Message) {
        self.queue.lock().ready.push_back(msg);
        self.available.notify_one();
    }

    /// Pop the next ready message into the in-flight table under
    /// `subscriber`, stamped in sim time.
    fn claim(&self, q: &mut ChannelQueue, subscriber: u64) -> Option<Message> {
        let mut msg = q.ready.pop_front()?;
        msg.attempts += 1;
        q.in_flight.insert(msg.id, (subscriber, msg.clone(), self.clock.now()));
        Some(msg)
    }

    /// Blocking pop with timeout; `None` once the timeout runs out. The
    /// timeout bounds the wall-clock wait as a whole, however many
    /// wake-ups find the ready queue empty.
    pub(crate) fn recv_timeout(&self, subscriber: u64, timeout: Duration) -> Option<Message> {
        // When the first wait began; taken only once a wait is due.
        let mut started = None;
        let mut q = self.queue.lock();
        loop {
            if let Some(msg) = self.claim(&mut q, subscriber) {
                return Some(msg);
            }
            let now = Instant::now();
            let left = timeout.saturating_sub(now.duration_since(*started.get_or_insert(now)));
            if left.is_zero() || self.available.wait_for(&mut q, left).timed_out() {
                return None;
            }
        }
    }

    /// Non-blocking pop.
    pub(crate) fn try_recv(&self, subscriber: u64) -> Option<Message> {
        self.claim(&mut self.queue.lock(), subscriber)
    }

    /// Acknowledge an in-flight message. Returns `false` if it was not
    /// in flight for this subscriber.
    pub(crate) fn ack(&self, subscriber: u64, id: MessageId) -> bool {
        let mut q = self.queue.lock();
        match q.in_flight.get(&id) {
            Some((owner, _, _)) if *owner == subscriber => {
                q.in_flight.remove(&id);
                true
            }
            _ => false,
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
            if self.max_attempts > 0 && msg.attempts >= self.max_attempts {
                out.dead.push(msg);
            } else {
                q.ready.push_back(msg);
                out.requeued += 1;
            }
        }
        if out.requeued > 0 {
            self.available.notify_all();
        }
        out
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
    fn recv_times_out() {
        let (ch, _clock) = chan(0);
        assert!(ch.recv_timeout(1, Duration::from_millis(5)).is_none());
    }

    #[test]
    fn empty_wake_ups_do_not_restart_the_timeout() {
        // A message that another subscription takes first wakes the
        // parked receiver to an empty queue every 100 ms for 1 s; its
        // 300 ms timeout still runs out at 300 ms, not 300 ms after the
        // last wake-up.
        let (ch, _clock) = chan(0);
        let ch = std::sync::Arc::new(ch);
        let ch2 = ch.clone();
        let start = Instant::now();
        let t = std::thread::spawn(move || {
            let result = ch2.recv_timeout(1, Duration::from_millis(300));
            (result, start.elapsed())
        });
        for i in 0..10 {
            std::thread::sleep(Duration::from_millis(100));
            let mut q = ch.queue.lock();
            q.ready.push_back(msg(i));
            ch.available.notify_one();
            q.ready.pop_front();
        }
        let (result, waited) = t.join().unwrap();
        assert!(result.is_none());
        assert!(waited < Duration::from_millis(800), "parked {waited:?} on a 300 ms timeout");
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
        let _m = ch.try_recv(1).unwrap(); // attempt 1
        assert_eq!(ch.requeue_all_for(1).requeued, 1);
        let _m = ch.try_recv(1).unwrap(); // attempt 2 == cap
        let r = ch.requeue_all_for(1);
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
