//! A channel as plain data: its ready queue, its in-flight table and
//! its subscriber count. The broker's one lock guards every channel
//! (`broker.rs`), so nothing here locks or wakes anyone.
//!
//! Delivery claims are stamped with [`SimTime`] from the broker's
//! shared [`VirtualClock`], so message-timeout redelivery
//! ([`Channel::reclaim_expired`]) is driven by the discrete-event
//! scheduler and fully deterministic — wall-clock `Instant`s never
//! enter the picture. Blocking receive timeouts remain wall-clock
//! (they bound how long a *thread* parks, not when a *message*
//! expires).

use crate::message::{Message, MessageId};
use rai_sim::{IntMap, SimDuration, SimTime, VirtualClock};
use std::collections::VecDeque;

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

pub(crate) struct Channel {
    pub(crate) name: String,
    pub(crate) ready: VecDeque<Message>,
    /// message id → (subscriber id, message, delivery sim-time) awaiting
    /// ack. The timestamp drives NSQ-style message-timeout redelivery.
    pub(crate) in_flight: IntMap<MessageId, (u64, Message, SimTime)>,
    pub(crate) subscribers: usize,
}

impl Channel {
    /// A channel whose ready queue starts as `ready` (the topic's
    /// backlog, for its first channel).
    pub(crate) fn new(name: &str, ready: VecDeque<Message>) -> Self {
        Channel { name: name.to_string(), ready, in_flight: IntMap::default(), subscribers: 0 }
    }

    /// Pop the next ready message into the in-flight table under
    /// `subscriber`, stamped in sim time.
    pub(crate) fn claim(&mut self, subscriber: u64, clock: &VirtualClock) -> Option<Message> {
        let mut msg = self.ready.pop_front()?;
        msg.attempts += 1;
        self.in_flight.insert(msg.id, (subscriber, msg.clone(), clock.now()));
        Some(msg)
    }

    /// Acknowledge an in-flight message. Returns `false` if it was not
    /// in flight for this subscriber.
    pub(crate) fn ack(&mut self, subscriber: u64, id: MessageId) -> bool {
        match self.in_flight.get(&id) {
            Some((owner, _, _)) if *owner == subscriber => {
                self.in_flight.remove(&id);
                true
            }
            _ => false,
        }
    }

    /// Requeue everything a dropped subscriber still had in flight, so a
    /// crashed worker's jobs are redelivered to surviving workers.
    /// Messages at `max_attempts` (0: no cap) come back in `dead`
    /// instead. Messages move in id order, so redelivery order is
    /// deterministic regardless of `HashMap` iteration order.
    pub(crate) fn requeue_all_for(&mut self, subscriber: u64, max_attempts: u32) -> Requeued {
        let mut ids: Vec<MessageId> = self
            .in_flight
            .iter()
            .filter(|(_, (owner, _, _))| *owner == subscriber)
            .map(|(id, _)| *id)
            .collect();
        ids.sort();
        self.requeue_ids(&ids, max_attempts)
    }

    /// Requeue in-flight messages claimed at or before `now - timeout`
    /// (NSQ's message-timeout behaviour: a worker that stalls without
    /// crashing loses its claim). Expired messages at `max_attempts`
    /// come back in `dead`. Deterministic: driven by sim time and
    /// processed in message-id order.
    pub(crate) fn reclaim_expired(
        &mut self,
        now: SimTime,
        timeout: SimDuration,
        max_attempts: u32,
    ) -> Requeued {
        let mut ids: Vec<MessageId> = self
            .in_flight
            .iter()
            .filter(|(_, (_, _, taken))| now.duration_since(*taken) >= timeout)
            .map(|(id, _)| *id)
            .collect();
        ids.sort();
        self.requeue_ids(&ids, max_attempts)
    }

    fn requeue_ids(&mut self, ids: &[MessageId], max_attempts: u32) -> Requeued {
        let mut out = Requeued::default();
        for id in ids {
            let (_, msg, _) = self.in_flight.remove(id).expect("listed by caller");
            if max_attempts > 0 && msg.attempts >= max_attempts {
                out.dead.push(msg);
            } else {
                self.ready.push_back(msg);
                out.requeued += 1;
            }
        }
        out
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

    fn chan() -> (Channel, VirtualClock) {
        (Channel::new("ch", VecDeque::new()), VirtualClock::new())
    }

    #[test]
    fn enqueue_recv_ack() {
        let (mut ch, clock) = chan();
        ch.ready.push_back(msg(1));
        let m = ch.claim(7, &clock).unwrap();
        assert_eq!(m.id, MessageId(1));
        assert_eq!(m.attempts, 1);
        assert_eq!(ch.in_flight.len(), 1);
        assert!(ch.ack(7, m.id));
        assert!(!ch.ack(7, m.id), "double ack fails");
        assert_eq!(ch.in_flight.len(), 0);
    }

    #[test]
    fn ack_wrong_subscriber_rejected() {
        let (mut ch, clock) = chan();
        ch.ready.push_back(msg(1));
        let m = ch.claim(1, &clock).unwrap();
        assert!(!ch.ack(2, m.id));
        assert!(ch.ack(1, m.id));
    }

    #[test]
    fn reclaim_expired_requeues_stalled_deliveries() {
        let (mut ch, clock) = chan();
        ch.ready.push_back(msg(1));
        let taken = ch.claim(1, &clock).unwrap();
        let r = ch.reclaim_expired(clock.now(), SimDuration::from_secs(60), 0);
        assert_eq!(r.requeued, 0, "fresh claim kept");
        clock.advance(SimDuration::from_secs(61));
        let r = ch.reclaim_expired(clock.now(), SimDuration::from_secs(60), 0);
        assert_eq!(r.requeued, 1);
        assert!(r.dead.is_empty());
        let again = ch.claim(2, &clock).unwrap();
        assert_eq!(again.id, taken.id);
        assert_eq!(again.attempts, 2);
    }

    #[test]
    fn dropped_subscriber_requeues_its_messages_only() {
        let (mut ch, clock) = chan();
        ch.ready.extend([msg(1), msg(2), msg(3)]);
        let _a = ch.claim(1, &clock).unwrap();
        let _b = ch.claim(1, &clock).unwrap();
        let _c = ch.claim(2, &clock).unwrap();
        let r = ch.requeue_all_for(1, 0);
        assert_eq!(r.requeued, 2);
        assert_eq!(ch.ready.len(), 2);
        assert_eq!(ch.in_flight.len(), 1);
    }

    #[test]
    fn attempt_cap_dead_letters_on_requeue() {
        let (mut ch, clock) = chan();
        ch.ready.push_back(msg(1));
        let _m = ch.claim(1, &clock).unwrap(); // attempt 1
        assert_eq!(ch.requeue_all_for(1, 2).requeued, 1);
        let _m = ch.claim(1, &clock).unwrap(); // attempt 2 == cap
        let r = ch.requeue_all_for(1, 2);
        assert_eq!(r.requeued, 0);
        assert_eq!(r.dead.len(), 1);
        assert_eq!(r.dead[0].attempts, 2);
        assert_eq!(ch.ready.len(), 0);
        assert_eq!(ch.in_flight.len(), 0);
    }

    #[test]
    fn attempt_cap_applies_to_reclaim_and_drop_requeue() {
        let (mut ch, clock) = chan();
        ch.ready.extend([msg(1), msg(2)]);
        let _a = ch.claim(1, &clock).unwrap();
        let _b = ch.claim(2, &clock).unwrap();
        clock.advance(SimDuration::from_secs(10));
        let r = ch.reclaim_expired(clock.now(), SimDuration::from_secs(5), 1);
        assert_eq!(r.requeued, 0);
        assert_eq!(r.dead.len(), 2, "cap of 1 dead-letters on first expiry");
        assert_eq!(r.dead[0].id, MessageId(1), "dead letters in id order");
        assert_eq!(r.dead[1].id, MessageId(2));
    }
}
