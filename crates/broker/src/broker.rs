//! The broker proper: topic table, publish fan-out, subscriptions,
//! ephemeral-topic garbage collection, dead-letter routing, and
//! statistics.

use crate::message::{Message, MessageId};
use crate::queue::{ChannelState, RecvError, Requeued};
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use rai_faults::{FaultInjector, FaultKind};
use rai_sim::{SimDuration, VirtualClock};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Broker configuration.
#[derive(Clone, Debug)]
pub struct BrokerConfig {
    /// Maximum ready-queue depth per channel; publishing beyond this
    /// returns [`PublishError::ChannelFull`]. RAI uses this as crude
    /// back-pressure so a melting-down worker fleet surfaces as client
    /// errors instead of unbounded broker memory.
    pub max_channel_depth: usize,
    /// Maximum number of messages retained in a topic backlog while the
    /// topic has no channels yet.
    pub max_backlog: usize,
    /// Per-message delivery-attempt cap. A message requeued after its
    /// `max_attempts`-th delivery is routed to the channel's dead-letter
    /// topic ([`dead_letter_topic`]) instead of redelivered forever.
    /// 0 (the default) disables the cap.
    pub max_attempts: u32,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig {
            max_channel_depth: 100_000,
            max_backlog: 10_000,
            max_attempts: 0,
        }
    }
}

/// The dead-letter topic for `topic/channel`: the route reads
/// `topic/channel#dead` (so `rai/tasks` dead-letters to the topic named
/// `rai/tasks#dead`). It is an ordinary durable topic; subscribe to it
/// to audit poison messages.
pub fn dead_letter_topic(topic: &str, channel: &str) -> String {
    format!("{topic}/{channel}#dead")
}

/// Publish failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PublishError {
    /// A channel of the topic is at `max_channel_depth`.
    ChannelFull { topic: String, channel: String },
    /// The topic's no-channel backlog is full.
    BacklogFull { topic: String },
    /// The broker refused the publish (injected fault: connection
    /// dropped, node flapping). Retryable.
    Unavailable { topic: String },
}

impl std::fmt::Display for PublishError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PublishError::ChannelFull { topic, channel } => {
                write!(f, "channel {topic}/{channel} is full")
            }
            PublishError::BacklogFull { topic } => write!(f, "topic {topic} backlog is full"),
            PublishError::Unavailable { topic } => {
                write!(f, "broker unavailable publishing to {topic}")
            }
        }
    }
}

impl std::error::Error for PublishError {}

struct TopicState {
    name: String,
    ephemeral: bool,
    channels: Mutex<HashMap<String, Arc<ChannelState>>>,
    /// Messages published before the first channel existed.
    backlog: Mutex<VecDeque<Message>>,
    published: AtomicU64,
}

struct BrokerInner {
    config: BrokerConfig,
    clock: VirtualClock,
    /// Topic table. A `RwLock` so the hot paths — publish and
    /// subscription receives — share a read lock and contend only on
    /// the per-topic/per-channel locks; the write lock is taken once
    /// per topic lifetime (creation and GC).
    topics: RwLock<HashMap<String, Arc<TopicState>>>,
    next_message_id: AtomicU64,
    next_subscriber_id: AtomicU64,
    /// Deployment wiring: set at most once.
    injector: OnceLock<FaultInjector>,
    dead_lettered: AtomicU64,
}

impl BrokerInner {
    fn topic(&self, name: &str, ephemeral: bool) -> Arc<TopicState> {
        if let Some(t) = self.topics.read().get(name) {
            return t.clone();
        }
        let mut topics = self.topics.write();
        topics
            .entry(name.to_string())
            .or_insert_with(|| {
                Arc::new(TopicState {
                    name: name.to_string(),
                    ephemeral,
                    channels: Mutex::new(HashMap::new()),
                    backlog: Mutex::new(VecDeque::new()),
                    published: AtomicU64::new(0),
                })
            })
            .clone()
    }

    fn publish_raw(
        &self,
        topic: &str,
        body: Bytes,
        ephemeral: bool,
        faultable: bool,
    ) -> Result<MessageId, PublishError> {
        let fails = |inj: &FaultInjector| inj.should_fail(FaultKind::BrokerPublish);
        if faultable && self.injector.get().is_some_and(fails) {
            return Err(PublishError::Unavailable { topic: topic.to_string() });
        }
        let t = self.topic(topic, ephemeral);
        let id = MessageId(self.next_message_id.fetch_add(1, Ordering::Relaxed));
        let msg = Message {
            id,
            body,
            attempts: 0,
        };
        let channels = t.channels.lock();
        if channels.is_empty() {
            // Hold in the backlog until the first channel appears.
            let mut backlog = t.backlog.lock();
            if backlog.len() >= self.config.max_backlog {
                return Err(PublishError::BacklogFull {
                    topic: topic.to_string(),
                });
            }
            backlog.push_back(msg);
        } else {
            // NSQ semantics: every channel receives a copy — but the
            // "copy" is a shallow `Bytes` handle on one shared
            // allocation, so fan-out cost is per-channel bookkeeping,
            // never a payload memcpy (dead-letter republish rides the
            // same handle). Depth is checked across all channels first
            // so a publish is all-or-nothing.
            for ch in channels.values() {
                if ch.depth() >= self.config.max_channel_depth {
                    return Err(PublishError::ChannelFull {
                        topic: topic.to_string(),
                        channel: ch.name.clone(),
                    });
                }
            }
            for ch in channels.values() {
                ch.enqueue(msg.clone());
            }
        }
        t.published.fetch_add(1, Ordering::Relaxed);
        Ok(id)
    }

    /// Route messages that exhausted their attempt cap on
    /// `topic/channel` to the dead-letter topic. Internal publishes are
    /// never fault-injected and ignore back-pressure errors: losing a
    /// dead letter to a full queue is strictly worse than exceeding a
    /// depth limit.
    fn route_dead(&self, topic: &str, channel: &Arc<ChannelState>, requeued: &Requeued) {
        if requeued.dead.is_empty() {
            return;
        }
        let dead_topic = dead_letter_topic(topic, &channel.name);
        for msg in &requeued.dead {
            let _ = self.publish_raw(&dead_topic, msg.body.clone(), false, false);
        }
        let n = requeued.dead.len() as u64;
        channel.dead_lettered.fetch_add(n, Ordering::Relaxed);
        self.dead_lettered.fetch_add(n, Ordering::Relaxed);
    }
}

/// The message broker. Cheap to clone; clones share state.
#[derive(Clone)]
pub struct Broker {
    inner: Arc<BrokerInner>,
}

impl Default for Broker {
    fn default() -> Self {
        Self::new(BrokerConfig::default())
    }
}

impl Broker {
    /// Create a broker with a private clock (sim drivers should prefer
    /// [`Broker::with_clock`] so message timeouts advance with the
    /// simulation).
    pub fn new(config: BrokerConfig) -> Self {
        Self::with_clock(config, VirtualClock::new())
    }

    /// Create a broker whose delivery claims are stamped by `clock`.
    pub fn with_clock(config: BrokerConfig, clock: VirtualClock) -> Self {
        Broker {
            inner: Arc::new(BrokerInner {
                config,
                clock,
                topics: RwLock::new(HashMap::new()),
                next_message_id: AtomicU64::new(1),
                next_subscriber_id: AtomicU64::new(1),
                injector: OnceLock::new(),
                dead_lettered: AtomicU64::new(0),
            }),
        }
    }

    /// The clock stamping delivery claims.
    pub fn clock(&self) -> &VirtualClock {
        &self.inner.clock
    }

    /// Attach a fault injector: subsequent external publishes may be
    /// rejected with [`PublishError::Unavailable`] per the injector's
    /// plan. Internal dead-letter routing is exempt. Deployment wiring:
    /// a second injector panics.
    pub fn set_fault_injector(&self, injector: FaultInjector) {
        assert!(self.inner.injector.set(injector).is_ok(), "broker fault injector is wired once");
    }

    /// Publish to a durable topic (created on first use).
    pub fn publish(&self, topic: &str, body: impl Into<Bytes>) -> Result<MessageId, PublishError> {
        self.inner.publish_raw(topic, body.into(), false, true)
    }

    /// Publish to a durable topic bypassing fault injection. This is
    /// the crash-recovery path: re-publishing a journaled submission
    /// intent that already survived its fault roll when it was first
    /// accepted must not roll again (it would skew the deterministic
    /// draw sequence and could drop an accepted job).
    pub fn publish_durable(
        &self,
        topic: &str,
        body: impl Into<Bytes>,
    ) -> Result<MessageId, PublishError> {
        self.inner.publish_raw(topic, body.into(), false, false)
    }

    /// Publish to an ephemeral topic (created on first use; garbage
    /// collected once the last subscription drops). RAI's per-job
    /// `log_${job_id}` topics use this.
    pub fn publish_ephemeral(
        &self,
        topic: &str,
        body: impl Into<Bytes>,
    ) -> Result<MessageId, PublishError> {
        self.inner.publish_raw(topic, body.into(), true, true)
    }

    /// Subscribe to `topic/channel`, creating both as needed. Multiple
    /// subscriptions on the same channel load-balance; subscriptions on
    /// different channels of one topic each see every message.
    pub fn subscribe(&self, topic: &str, channel: &str) -> Subscription {
        self.subscribe_inner(topic, channel, false)
    }

    /// Subscribe to an ephemeral topic (see [`Broker::publish_ephemeral`]).
    pub fn subscribe_ephemeral(&self, topic: &str, channel: &str) -> Subscription {
        self.subscribe_inner(topic, channel, true)
    }

    fn subscribe_inner(&self, topic: &str, channel: &str, ephemeral: bool) -> Subscription {
        let t = self.inner.topic(topic, ephemeral);
        let ch = {
            let mut channels = t.channels.lock();
            let is_new_first_channel = channels.is_empty();
            let ch = channels
                .entry(channel.to_string())
                .or_insert_with(|| {
                    Arc::new(ChannelState::new(
                        channel,
                        self.inner.clock.clone(),
                        self.inner.config.max_attempts,
                    ))
                })
                .clone();
            if is_new_first_channel {
                // Drain the topic backlog into the first channel.
                let mut backlog = t.backlog.lock();
                while let Some(m) = backlog.pop_front() {
                    ch.enqueue(m);
                }
            }
            ch
        };
        ch.subscribers.fetch_add(1, Ordering::SeqCst);
        let id = self.inner.next_subscriber_id.fetch_add(1, Ordering::Relaxed);
        Subscription {
            broker: self.inner.clone(),
            topic: t,
            channel: ch,
            subscriber_id: id,
        }
    }

    /// Delete a topic outright, closing all its channels.
    pub fn delete_topic(&self, name: &str) -> bool {
        let Some(t) = self.inner.topics.write().remove(name) else {
            return false;
        };
        for ch in t.channels.lock().values() {
            ch.close();
        }
        true
    }

    /// Names of live topics.
    pub fn topic_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.inner.topics.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Whether a topic currently exists.
    pub fn has_topic(&self, name: &str) -> bool {
        self.inner.topics.read().contains_key(name)
    }

    /// Per-topic statistics snapshot.
    pub fn topic_stats(&self, name: &str) -> Option<TopicStats> {
        let t = self.inner.topics.read().get(name)?.clone();
        let mut depth = 0;
        let mut in_flight = 0;
        let mut acked = 0;
        let mut requeued = 0;
        let mut dead_lettered = 0;
        let channel_count;
        {
            let channels = t.channels.lock();
            channel_count = channels.len();
            for ch in channels.values() {
                depth += ch.depth();
                in_flight += ch.in_flight_count();
                acked += ch.acked.load(Ordering::Relaxed);
                requeued += ch.requeued.load(Ordering::Relaxed);
                dead_lettered += ch.dead_lettered.load(Ordering::Relaxed);
            }
        }
        let backlog_len = t.backlog.lock().len();
        Some(TopicStats {
            name: name.to_string(),
            channels: channel_count,
            published: t.published.load(Ordering::Relaxed),
            depth: depth + backlog_len,
            in_flight,
            acked,
            requeued,
            dead_lettered,
        })
    }

    /// Requeue every in-flight message claimed more than `timeout` of
    /// sim time ago (run periodically, like nsqd's message timeout).
    /// Messages over the attempt cap are routed to their dead-letter
    /// topic instead. The pass walks the live topic table and keeps the
    /// channels with a claim in flight — nothing else can hold an
    /// expired one — so it costs O(live topics) per pass and nothing
    /// per receive. Channels are visited in topic-name then
    /// channel-name order and messages in id order, so redelivery is
    /// deterministic. Returns how many messages went back to ready
    /// queues.
    pub fn reclaim_expired(&self, timeout: SimDuration) -> usize {
        // Collected first: dead-letter routing below publishes, which
        // takes the topic table again.
        let mut claimed: Vec<(Arc<TopicState>, Arc<ChannelState>)> = Vec::new();
        for t in self.inner.topics.read().values() {
            for ch in t.channels.lock().values() {
                if ch.in_flight_count() > 0 {
                    claimed.push((t.clone(), ch.clone()));
                }
            }
        }
        claimed.sort_by(|(ta, ca), (tb, cb)| (&ta.name, &ca.name).cmp(&(&tb.name, &cb.name)));
        let mut n = 0;
        for (t, ch) in claimed {
            let r = ch.reclaim_expired(timeout);
            self.inner.route_dead(&t.name, &ch, &r);
            n += r.requeued;
        }
        n
    }

    /// Whole-broker statistics snapshot.
    pub fn stats(&self) -> BrokerStats {
        let names = self.topic_names();
        let mut s = BrokerStats {
            topics: names.len(),
            ..Default::default()
        };
        for n in names {
            if let Some(t) = self.topic_stats(&n) {
                s.channels += t.channels;
                s.published += t.published;
                s.depth += t.depth;
                s.in_flight += t.in_flight;
                s.acked += t.acked;
                s.requeued += t.requeued;
            }
        }
        // Count from the broker-wide counter, not the per-channel sums:
        // dead letters outlive their source channel (e.g. a dropped
        // ephemeral topic).
        s.dead_lettered = self.inner.dead_lettered.load(Ordering::Relaxed);
        s
    }
}

/// Statistics for a single topic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TopicStats {
    /// Topic name.
    pub name: String,
    /// Channel count.
    pub channels: usize,
    /// Messages published to the topic.
    pub published: u64,
    /// Ready messages across channels (plus any backlog).
    pub depth: usize,
    /// Unacknowledged deliveries.
    pub in_flight: usize,
    /// Acknowledged messages.
    pub acked: u64,
    /// Requeue events.
    pub requeued: u64,
    /// Messages routed to this topic's dead-letter topics.
    pub dead_lettered: u64,
}

/// Whole-broker statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BrokerStats {
    /// Live topic count.
    pub topics: usize,
    /// Total channels.
    pub channels: usize,
    /// Total published messages.
    pub published: u64,
    /// Total ready depth.
    pub depth: usize,
    /// Total in flight.
    pub in_flight: usize,
    /// Total acked.
    pub acked: u64,
    /// Total requeue events.
    pub requeued: u64,
    /// Total messages routed to dead-letter topics.
    pub dead_lettered: u64,
}

/// A consumer's handle on `topic/channel`.
///
/// Dropping the subscription requeues its in-flight messages (crash
/// semantics) and garbage-collects ephemeral topics left without
/// subscribers — the paper's "deleted if there are no producers and
/// consumers".
pub struct Subscription {
    broker: Arc<BrokerInner>,
    topic: Arc<TopicState>,
    channel: Arc<ChannelState>,
    subscriber_id: u64,
}

impl Subscription {
    /// Blocking receive with timeout. The returned message is in flight
    /// until [`Subscription::ack`] or [`Subscription::requeue`].
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Message, RecvError> {
        self.channel.recv_timeout(self.subscriber_id, timeout)
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Message> {
        self.channel.try_recv(self.subscriber_id)
    }

    /// Acknowledge (complete) an in-flight message.
    pub fn ack(&self, id: MessageId) -> bool {
        self.channel.ack(self.subscriber_id, id)
    }

    /// Decline an in-flight message, returning it to the queue for
    /// another consumer (attempt counter increments on redelivery). A
    /// message that has hit the broker's attempt cap is routed to the
    /// dead-letter topic instead. Returns `false` if the message was
    /// not in flight for this subscription.
    pub fn requeue(&self, id: MessageId) -> bool {
        match self.channel.requeue(self.subscriber_id, id) {
            Some(r) => {
                self.broker.route_dead(&self.topic.name, &self.channel, &r);
                true
            }
            None => false,
        }
    }

    /// Ready depth of this subscription's channel.
    pub fn depth(&self) -> usize {
        self.channel.depth()
    }

    /// The queue route (`topic/channel`) this subscription consumes.
    pub fn route(&self) -> String {
        format!("{}/{}", self.topic.name, self.channel.name)
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        let r = self.channel.requeue_all_for(self.subscriber_id);
        self.broker.route_dead(&self.topic.name, &self.channel, &r);
        let remaining = self.channel.subscribers.fetch_sub(1, Ordering::SeqCst) - 1;
        if remaining == 0 && self.topic.ephemeral {
            // GC the ephemeral topic if *no channel* has subscribers.
            let any_subscribed = self
                .topic
                .channels
                .lock()
                .values()
                .any(|ch| ch.subscribers.load(Ordering::SeqCst) > 0);
            if !any_subscribed {
                let mut topics = self.broker.topics.write();
                // Re-check under the topics lock: a new subscriber may
                // have raced in via a fresh `subscribe` call.
                let still_unused = self
                    .topic
                    .channels
                    .lock()
                    .values()
                    .all(|ch| ch.subscribers.load(Ordering::SeqCst) == 0);
                if still_unused {
                    if let Some(t) = topics.get(&self.topic.name) {
                        if Arc::ptr_eq(t, &self.topic) {
                            topics.remove(&self.topic.name);
                            for ch in self.topic.channels.lock().values() {
                                ch.close();
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rai_faults::FaultPlan;

    #[test]
    fn single_publisher_single_consumer() {
        let b = Broker::default();
        let sub = b.subscribe("rai", "tasks");
        b.publish("rai", &b"job-1"[..]).unwrap();
        let m = sub.recv_timeout(Duration::from_millis(100)).unwrap();
        assert_eq!(m.body_str(), "job-1");
        assert!(sub.ack(m.id));
        let s = b.topic_stats("rai").unwrap();
        assert_eq!(s.published, 1);
        assert_eq!(s.acked, 1);
        assert_eq!(s.depth, 0);
    }

    #[test]
    fn channel_fanout_and_load_balance() {
        let b = Broker::default();
        // Two channels: both see every message.
        let cha = b.subscribe("t", "a");
        let chb = b.subscribe("t", "b");
        // Second consumer on channel a: load-balances with the first.
        let cha2 = b.subscribe("t", "a");
        for i in 0..10 {
            b.publish("t", format!("m{i}")).unwrap();
        }
        // Channel b alone sees all 10.
        let mut b_count = 0;
        while let Some(m) = chb.try_recv() {
            chb.ack(m.id);
            b_count += 1;
        }
        assert_eq!(b_count, 10);
        // Channel a's two consumers split 10 between them.
        let mut a_count = 0;
        while let Some(m) = cha.try_recv() {
            cha.ack(m.id);
            a_count += 1;
        }
        let mut a2_count = 0;
        while let Some(m) = cha2.try_recv() {
            cha2.ack(m.id);
            a2_count += 1;
        }
        assert_eq!(a_count + a2_count, 10);
    }

    #[test]
    fn backlog_drains_to_first_channel() {
        let b = Broker::default();
        // Worker publishes log lines before the client subscribes.
        b.publish_ephemeral("log_job1", &b"line 1"[..]).unwrap();
        b.publish_ephemeral("log_job1", &b"line 2"[..]).unwrap();
        let sub = b.subscribe_ephemeral("log_job1", "ch");
        let m1 = sub.recv_timeout(Duration::from_millis(100)).unwrap();
        let m2 = sub.recv_timeout(Duration::from_millis(100)).unwrap();
        assert_eq!(m1.body_str(), "line 1");
        assert_eq!(m2.body_str(), "line 2");
    }

    #[test]
    fn ephemeral_topic_gc_on_last_unsubscribe() {
        let b = Broker::default();
        let sub = b.subscribe_ephemeral("log_j", "ch");
        assert!(b.has_topic("log_j"));
        drop(sub);
        assert!(!b.has_topic("log_j"), "ephemeral topic should be GC'd");
    }

    #[test]
    fn durable_topic_survives_unsubscribe() {
        let b = Broker::default();
        let sub = b.subscribe("rai", "tasks");
        drop(sub);
        assert!(b.has_topic("rai"));
    }

    #[test]
    fn requeue_redelivers_to_other_consumer() {
        let b = Broker::default();
        let w1 = b.subscribe("rai", "tasks");
        let w2 = b.subscribe("rai", "tasks");
        b.publish("rai", &b"big-job"[..]).unwrap();
        // Worker 1 takes it but has no free capacity.
        let m = w1.try_recv().or_else(|| w2.try_recv()).expect("someone gets it");
        let (taker, other) = if w1.requeue(m.id) { (&w1, &w2) } else { (&w2, &w1) };
        let _ = taker;
        let m2 = other.recv_timeout(Duration::from_millis(100)).unwrap();
        assert_eq!(m2.attempts, 2);
        assert!(other.ack(m2.id));
    }

    #[test]
    fn dropped_subscription_requeues_in_flight() {
        let b = Broker::default();
        let w1 = b.subscribe("rai", "tasks");
        for i in 0..3 {
            b.publish("rai", format!("job-{i}")).unwrap();
        }
        let taken: Vec<Message> = std::iter::from_fn(|| w1.try_recv()).collect();
        assert_eq!(taken.len(), 3);
        assert!(w1.ack(taken[1].id));
        drop(w1); // crash: the two unacked claims return to the queue, in id order
        let w2 = b.subscribe("rai", "tasks");
        for body in ["job-0", "job-2"] {
            let m = w2.recv_timeout(Duration::from_millis(100)).unwrap();
            assert_eq!(m.body_str(), body);
            assert_eq!(m.attempts, 2, "redelivery bumps attempts");
        }
        assert!(w2.try_recv().is_none(), "the acked message stays gone");
    }

    #[test]
    fn backpressure_channel_full() {
        let b = Broker::new(BrokerConfig {
            max_channel_depth: 2,
            max_backlog: 2,
            ..Default::default()
        });
        let _sub = b.subscribe("t", "ch");
        b.publish("t", &b"1"[..]).unwrap();
        b.publish("t", &b"2"[..]).unwrap();
        assert!(matches!(
            b.publish("t", &b"3"[..]),
            Err(PublishError::ChannelFull { .. })
        ));
    }

    #[test]
    fn backpressure_backlog_full() {
        let b = Broker::new(BrokerConfig {
            max_channel_depth: 10,
            max_backlog: 1,
            ..Default::default()
        });
        b.publish("t", &b"1"[..]).unwrap();
        assert!(matches!(
            b.publish("t", &b"2"[..]),
            Err(PublishError::BacklogFull { .. })
        ));
    }

    #[test]
    fn delete_topic_closes_consumers() {
        let b = Broker::default();
        let sub = b.subscribe("t", "ch");
        let b2 = b.clone();
        let t = std::thread::spawn(move || sub.recv_timeout(Duration::from_secs(10)));
        std::thread::sleep(Duration::from_millis(20));
        assert!(b2.delete_topic("t"));
        assert_eq!(t.join().unwrap(), Err(RecvError::Closed));
        assert!(!b.delete_topic("t"), "second delete is a no-op");
    }

    #[test]
    fn stats_aggregate() {
        let b = Broker::default();
        let s1 = b.subscribe("rai", "tasks");
        let _s2 = b.subscribe("log_1", "ch");
        b.publish("rai", &b"a"[..]).unwrap();
        b.publish("rai", &b"b"[..]).unwrap();
        b.publish("log_1", &b"l"[..]).unwrap();
        let m = s1.try_recv().unwrap();
        s1.ack(m.id);
        let s = b.stats();
        assert_eq!(s.topics, 2);
        assert_eq!(s.published, 3);
        assert_eq!(s.acked, 1);
        assert_eq!(s.depth, 2);
    }

    #[test]
    fn route_formatting() {
        let b = Broker::default();
        let sub = b.subscribe("rai", "tasks");
        assert_eq!(sub.route(), "rai/tasks");
        assert_eq!(dead_letter_topic("rai", "tasks"), "rai/tasks#dead");
    }

    #[test]
    fn broker_wide_reclaim_is_sim_time_driven() {
        let clock = VirtualClock::new();
        let b = Broker::with_clock(BrokerConfig::default(), clock.clone());
        let sub = b.subscribe("t", "ch");
        b.publish("t", &b"stalls"[..]).unwrap();
        let _taken = sub.try_recv().unwrap();
        assert_eq!(b.reclaim_expired(SimDuration::from_secs(5)), 0, "no sim time elapsed");
        clock.advance(SimDuration::from_secs(6));
        assert_eq!(b.reclaim_expired(SimDuration::from_secs(5)), 1);
        let again = sub.recv_timeout(Duration::from_millis(100)).unwrap();
        assert_eq!(again.attempts, 2);
        sub.ack(again.id);
    }

    #[test]
    fn attempt_cap_routes_to_dead_letter_topic() {
        let b = Broker::new(BrokerConfig {
            max_attempts: 3,
            ..Default::default()
        });
        let dead = b.subscribe(&dead_letter_topic("rai", "tasks"), "audit");
        let sub = b.subscribe("rai", "tasks");
        b.publish("rai", &b"poison"[..]).unwrap();
        for _ in 0..2 {
            let m = sub.try_recv().unwrap();
            assert!(sub.requeue(m.id));
            assert!(dead.try_recv().is_none(), "under cap: stays in the queue");
        }
        let m = sub.try_recv().unwrap();
        assert_eq!(m.attempts, 3);
        assert!(sub.requeue(m.id));
        assert!(sub.try_recv().is_none(), "message left the work queue");
        let d = dead.try_recv().expect("dead letter delivered");
        assert_eq!(d.body_str(), "poison");
        assert!(dead.ack(d.id));
        let s = b.topic_stats("rai").unwrap();
        assert_eq!(s.dead_lettered, 1);
        assert_eq!(b.stats().dead_lettered, 1);
    }

    #[test]
    fn attempt_cap_applies_on_subscriber_crash() {
        let clock = VirtualClock::new();
        let b = Broker::with_clock(
            BrokerConfig {
                max_attempts: 1,
                ..Default::default()
            },
            clock,
        );
        let sub = b.subscribe("rai", "tasks");
        b.publish("rai", &b"one-shot"[..]).unwrap();
        let _taken = sub.try_recv().unwrap();
        drop(sub); // crash after the only allowed delivery
        assert!(b.has_topic(&dead_letter_topic("rai", "tasks")));
        let audit = b.subscribe(&dead_letter_topic("rai", "tasks"), "audit");
        let d = audit.recv_timeout(Duration::from_millis(100)).unwrap();
        assert_eq!(d.body_str(), "one-shot");
    }

    #[test]
    fn reclaim_requeues_only_expired_claims_in_topic_name_order() {
        let clock = VirtualClock::new();
        let config = BrokerConfig { max_attempts: 2, ..Default::default() };
        let b = Broker::with_clock(config, clock.clone());
        let timeout = SimDuration::from_secs(5);
        // A topic with traffic but no claim, and two topics that each
        // take one: "b" at t = 0, "a" at t = 3.
        let _ready = b.subscribe_ephemeral("log_0", "ch");
        b.publish_ephemeral("log_0", &b"line"[..]).unwrap();
        let claim = |topic: &str| {
            let sub = b.subscribe(topic, "ch");
            b.publish(topic, topic.as_bytes().to_vec()).unwrap();
            assert_eq!(sub.try_recv().unwrap().attempts, 1);
            sub
        };
        let sub_b = claim("b");
        clock.advance(SimDuration::from_secs(3));
        let sub_a = claim("a");
        assert_eq!(b.reclaim_expired(timeout), 0, "nothing has expired");
        // t = 6: only "b" is past the timeout; "a" keeps its claim
        // through this pass and loses it to the next one.
        clock.advance(SimDuration::from_secs(3));
        assert_eq!(b.reclaim_expired(timeout), 1);
        assert_eq!(sub_b.try_recv().unwrap().attempts, 2);
        assert!(sub_a.try_recv().is_none(), "an unexpired claim survives the pass");
        clock.advance(SimDuration::from_secs(3));
        assert_eq!(b.reclaim_expired(timeout), 1);
        assert_eq!(sub_a.try_recv().unwrap().attempts, 2);
        // t = 15: both second deliveries have expired at the attempt
        // cap. "b" was claimed first both times, yet "a" is visited
        // first: its dead letter gets the lower message id.
        clock.advance(SimDuration::from_secs(6));
        assert_eq!(b.reclaim_expired(timeout), 0, "dead letters are not requeues");
        let dead = |topic: &str| {
            let audit = b.subscribe(&dead_letter_topic(topic, "ch"), "audit");
            let m = audit.try_recv().expect("dead letter delivered");
            assert_eq!(m.body_str(), topic);
            m.id
        };
        assert!(dead("a") < dead("b"), "visit order is by topic name");
        // The ready-only topic was never touched.
        let s = b.topic_stats("log_0").unwrap();
        assert_eq!((s.depth, s.in_flight, s.requeued), (1, 0, 0));
    }

    #[test]
    fn a_drained_ephemeral_topic_is_freed_not_just_unlisted() {
        let b = Broker::default();
        let sub = b.subscribe_ephemeral("log_j", "ch");
        b.publish_ephemeral("log_j", &b"line"[..]).unwrap();
        let m = sub.try_recv().unwrap();
        assert!(sub.ack(m.id));
        let topic = Arc::downgrade(&b.inner.topics.read()["log_j"]);
        drop(sub);
        assert!(!b.has_topic("log_j"));
        assert!(topic.upgrade().is_none(), "something still holds the dead topic's state");
    }

    #[test]
    fn fanout_shares_one_body_allocation() {
        // NSQ semantics hand every channel "a copy"; ours is a shallow
        // `Bytes` handle, so all channels must see the same bytes at
        // the same address — fan-out never deep-copies the payload.
        let b = Broker::default();
        let subs: Vec<Subscription> = (0..3).map(|i| b.subscribe("t", &format!("ch{i}"))).collect();
        let payload: Vec<u8> = (0..4096u32).map(|i| i as u8).collect();
        b.publish("t", payload.clone()).unwrap();
        let bodies: Vec<Bytes> = subs
            .iter()
            .map(|s| {
                let m = s.try_recv().expect("every channel sees the message");
                s.ack(m.id);
                m.body
            })
            .collect();
        for body in &bodies {
            assert_eq!(body.as_ref(), &payload[..], "identical bytes on every channel");
            assert_eq!(
                body.as_ref().as_ptr(),
                bodies[0].as_ref().as_ptr(),
                "same allocation on every channel"
            );
        }
    }

    #[test]
    fn injected_publish_faults_reject_deterministically() {
        let mk = || {
            let b = Broker::default();
            b.set_fault_injector(FaultInjector::new(FaultPlan {
                broker_publish: 0.2,
                ..FaultPlan::none(21)
            }));
            let _keep = Box::leak(Box::new(b.subscribe("t", "ch")));
            (0..200)
                .map(|i| b.publish("t", format!("{i}")).is_err())
                .collect::<Vec<bool>>()
        };
        let a = mk();
        let c = mk();
        assert_eq!(a, c, "same plan, same rejections");
        let rejected = a.iter().filter(|&&e| e).count();
        assert!((20..60).contains(&rejected), "got {rejected} rejections at p=0.2");
    }

    #[test]
    fn concurrent_producers_consumers() {
        // 4 producers × 250 msgs, 4 consumers on one channel: every
        // message is consumed exactly once.
        let b = Broker::default();
        let total = std::sync::Arc::new(AtomicU64::new(0));
        let subs: Vec<Subscription> = (0..4).map(|_| b.subscribe("t", "work")).collect();
        let mut handles = Vec::new();
        for p in 0..4 {
            let b = b.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..250 {
                    b.publish("t", format!("{p}-{i}")).unwrap();
                }
            }));
        }
        for sub in subs {
            let total = total.clone();
            handles.push(std::thread::spawn(move || loop {
                match sub.recv_timeout(Duration::from_millis(200)) {
                    Ok(m) => {
                        assert!(sub.ack(m.id));
                        total.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(RecvError::Timeout) => break,
                    Err(RecvError::Closed) => break,
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 1000);
        let s = b.topic_stats("t").unwrap();
        assert_eq!(s.acked, 1000);
        assert_eq!(s.depth, 0);
        assert_eq!(s.in_flight, 0);
    }
}
