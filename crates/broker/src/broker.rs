//! The broker proper: topic table, publish fan-out, subscriptions,
//! ephemeral-topic garbage collection, dead-letter routing, and
//! statistics.

use crate::message::{Message, MessageId};
use crate::queue::{Channel, Requeued};
use bytes::Bytes;
use parking_lot::{Condvar, Mutex};
use rai_faults::{FaultInjector, FaultKind};
use rai_sim::{SimDuration, VirtualClock};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Maximum ready-queue depth per channel; publishing beyond this
/// returns [`PublishError::ChannelFull`]. RAI uses this as crude
/// back-pressure so a melting-down worker fleet surfaces as client
/// errors instead of unbounded broker memory.
const MAX_CHANNEL_DEPTH: usize = 100_000;

/// Maximum number of messages retained in a topic backlog while the
/// topic has no channels yet ([`PublishError::BacklogFull`]).
const MAX_BACKLOG: usize = 10_000;

/// Broker configuration.
#[derive(Debug, Default)]
pub struct BrokerConfig {
    /// Per-message delivery-attempt cap. A message requeued after its
    /// `max_attempts`-th delivery is routed to the channel's dead-letter
    /// topic ([`dead_letter_topic`]) instead of redelivered forever.
    /// 0 (the default) disables the cap.
    pub max_attempts: u32,
}

/// The dead-letter topic for `topic/channel`: the route reads
/// `topic/channel#dead` (so `rai/tasks` dead-letters to the topic named
/// `rai/tasks#dead`). It is an ordinary durable topic; subscribe to it
/// to audit poison messages.
pub fn dead_letter_topic(topic: &str, channel: &str) -> String {
    format!("{topic}/{channel}#dead")
}

/// Publish failure.
#[derive(Debug)]
pub enum PublishError {
    /// A channel of the topic is at its depth bound.
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

/// A topic: its channels and the backlog it holds until the first
/// channel appears. Channels are kept in creation order and never
/// removed (a topic is collected whole), so a subscription keeps its
/// channel's position.
struct Topic {
    ephemeral: bool,
    channels: Vec<Channel>,
    /// Messages published before the first channel existed.
    backlog: VecDeque<Message>,
}

impl Topic {
    fn new(ephemeral: bool) -> Self {
        // A log topic has one channel, and a durable topic a few.
        Topic { ephemeral, channels: Vec::with_capacity(1), backlog: VecDeque::new() }
    }

    /// Hand `msg` to every channel, or to the backlog while there is
    /// none.
    fn deliver(&mut self, name: &str, msg: Message) -> Result<(), PublishError> {
        if self.channels.is_empty() {
            if self.backlog.len() >= MAX_BACKLOG {
                return Err(PublishError::BacklogFull { topic: name.to_string() });
            }
            self.backlog.push_back(msg);
            return Ok(());
        }
        // NSQ semantics: every channel receives a copy — but the "copy"
        // is a shallow `Bytes` handle on one shared allocation, so
        // fan-out cost is per-channel bookkeeping, never a payload
        // memcpy (dead-letter republish rides the same handle). Depth
        // is checked across all channels first so a publish is
        // all-or-nothing.
        if let Some(ch) = self.channels.iter().find(|ch| ch.ready.len() >= MAX_CHANNEL_DEPTH) {
            return Err(PublishError::ChannelFull {
                topic: name.to_string(),
                channel: ch.name.clone(),
            });
        }
        for ch in &mut self.channels {
            ch.ready.push_back(msg.clone());
        }
        Ok(())
    }

    /// The live gauges: ready messages (backlog included) and
    /// unacknowledged deliveries.
    fn gauges(&self) -> TopicStats {
        let mut s = TopicStats { depth: self.backlog.len(), in_flight: 0 };
        for ch in &self.channels {
            s.depth += ch.ready.len();
            s.in_flight += ch.in_flight.len();
        }
        s
    }
}

/// Everything the broker holds, as plain data behind its one lock.
#[derive(Default)]
struct State {
    /// Topic table. A subscription shares its topic's key.
    topics: HashMap<Arc<str>, Topic>,
    /// The last message and subscriber ids handed out: ids start at 1.
    last_message_id: u64,
    last_subscriber_id: u64,
    /// Broker-wide counters. They outlive the topics that moved them
    /// (a collected log topic takes nothing with it), so they only
    /// count up.
    published: u64,
    acked: u64,
    requeued: u64,
    dead_lettered: u64,
}

impl State {
    /// Publish `body` to `topic`, creating it as a durable topic if it
    /// is not there. Every publish takes a message id, even one that is
    /// dropped or refused.
    fn publish(
        &mut self,
        topic: &str,
        body: Bytes,
        ephemeral: bool,
    ) -> Result<MessageId, PublishError> {
        self.last_message_id += 1;
        let id = MessageId(self.last_message_id);
        let msg = Message { id, body, attempts: 0 };
        match self.topics.get_mut(topic) {
            Some(t) => t.deliver(topic, msg)?,
            // Only a subscription creates an ephemeral topic: a frame
            // for a topic nobody reads (its client gone, or never
            // there) is dropped, not parked where nothing collects it.
            None if ephemeral => return Ok(id),
            None => {
                let mut t = Topic::new(false);
                t.deliver(topic, msg)?;
                self.topics.insert(topic.into(), t);
            }
        }
        self.published += 1;
        Ok(id)
    }

    /// Count the requeues of `topic`'s channel at `channel` and route
    /// the messages that exhausted their attempt cap to its dead-letter
    /// topic. Internal publishes are never fault-injected and ignore
    /// back-pressure errors: losing a dead letter to a full queue is
    /// strictly worse than exceeding a depth limit.
    fn settle(&mut self, topic: &str, channel: usize, r: Requeued) {
        self.requeued += r.requeued as u64;
        if r.dead.is_empty() {
            return;
        }
        let dead_topic = dead_letter_topic(topic, &self.topics[topic].channels[channel].name);
        self.dead_lettered += r.dead.len() as u64;
        for msg in r.dead {
            let _ = self.publish(&dead_topic, msg.body, false);
        }
    }
}

struct BrokerInner {
    config: BrokerConfig,
    clock: VirtualClock,
    /// Deployment wiring: set at most once.
    injector: OnceLock<FaultInjector>,
    /// The broker's one lock. Every public operation takes it once, so
    /// there is no lock order, and a subscription joins, and the last
    /// one leaves, a topic in one step.
    state: Mutex<State>,
    /// Wakes blocked receives, whatever their channel. Every notifier
    /// holds `state` and calls `notify_all`: a `notify_one` could wake
    /// a receiver of another channel and leave this one asleep.
    available: Condvar,
}

impl BrokerInner {
    /// Roll the publish fault (when `faultable`), then publish.
    fn publish(
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
        let mut state = self.state.lock();
        let id = state.publish(topic, body, ephemeral)?;
        self.available.notify_all();
        Ok(id)
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
                injector: OnceLock::new(),
                state: Mutex::default(),
                available: Condvar::new(),
            }),
        }
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
        self.inner.publish(topic, body.into(), false, true)
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
        self.inner.publish(topic, body.into(), false, false)
    }

    /// Publish to an ephemeral topic, which only
    /// [`Broker::subscribe_ephemeral`] creates: a publish to one that
    /// is not there (never subscribed, or collected when its last
    /// subscription dropped) rolls its fault, then is dropped and not
    /// counted. RAI's per-job `log_${job_id}` topics use this.
    pub fn publish_ephemeral(
        &self,
        topic: &str,
        body: impl Into<Bytes>,
    ) -> Result<MessageId, PublishError> {
        self.inner.publish(topic, body.into(), true, true)
    }

    /// Subscribe to `topic/channel`, creating both as needed. Multiple
    /// subscriptions on the same channel load-balance; subscriptions on
    /// different channels of one topic each see every message.
    pub fn subscribe(&self, topic: &str, channel: &str) -> Subscription {
        self.subscribe_inner(topic, channel, false)
    }

    /// Subscribe to an ephemeral topic, creating it as needed; it is
    /// garbage collected once its last subscription drops (see
    /// [`Broker::publish_ephemeral`]).
    pub fn subscribe_ephemeral(&self, topic: &str, channel: &str) -> Subscription {
        self.subscribe_inner(topic, channel, true)
    }

    fn subscribe_inner(&self, topic: &str, channel: &str, ephemeral: bool) -> Subscription {
        let mut guard = self.inner.state.lock();
        let state = &mut *guard;
        let key = match state.topics.get_key_value(topic) {
            Some((key, _)) => key.clone(),
            None => {
                let key: Arc<str> = topic.into();
                state.topics.insert(key.clone(), Topic::new(ephemeral));
                key
            }
        };
        let t = state.topics.get_mut(topic).expect("listed above");
        let channel = match t.channels.iter().position(|ch| ch.name == channel) {
            Some(i) => i,
            None => {
                // The backlog fills only while the topic has no
                // channel, so the first channel takes it whole.
                t.channels.push(Channel::new(channel, std::mem::take(&mut t.backlog)));
                t.channels.len() - 1
            }
        };
        t.channels[channel].subscribers += 1;
        state.last_subscriber_id += 1;
        let subscriber_id = state.last_subscriber_id;
        drop(guard);
        Subscription { broker: self.inner.clone(), topic: key, channel, subscriber_id }
    }

    /// Whether a topic currently exists.
    #[cfg(test)]
    fn has_topic(&self, name: &str) -> bool {
        self.inner.state.lock().topics.contains_key(name)
    }

    /// A live topic's gauges.
    pub fn topic_stats(&self, name: &str) -> Option<TopicStats> {
        Some(self.inner.state.lock().topics.get(name)?.gauges())
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
        let inner = &*self.inner;
        let now = inner.clock.now();
        let mut guard = inner.state.lock();
        let state = &mut *guard;
        // Listed first: dead-letter routing below publishes, which may
        // add a topic to the table.
        let mut claimed: Vec<(Arc<str>, usize)> = Vec::new();
        for (name, t) in &state.topics {
            for (i, ch) in t.channels.iter().enumerate() {
                if !ch.in_flight.is_empty() {
                    claimed.push((name.clone(), i));
                }
            }
        }
        let topics = &state.topics;
        claimed.sort_by(|(ta, ca), (tb, cb)| {
            (ta, &topics[ta].channels[*ca].name).cmp(&(tb, &topics[tb].channels[*cb].name))
        });
        let mut n = 0;
        for (topic, i) in claimed {
            let ch = &mut state.topics.get_mut(&topic).expect("listed above").channels[i];
            let r = ch.reclaim_expired(now, timeout, inner.config.max_attempts);
            n += r.requeued;
            state.settle(&topic, i, r);
        }
        inner.available.notify_all();
        n
    }

    /// Whole-broker statistics snapshot: the broker-wide counters and
    /// one pass over the live topics for the gauges.
    pub fn stats(&self) -> BrokerStats {
        let state = self.inner.state.lock();
        let mut s = BrokerStats {
            topics: state.topics.len(),
            published: state.published,
            acked: state.acked,
            requeued: state.requeued,
            dead_lettered: state.dead_lettered,
            ..Default::default()
        };
        for t in state.topics.values() {
            let live = t.gauges();
            s.channels += t.channels.len();
            s.depth += live.depth;
            s.in_flight += live.in_flight;
        }
        s
    }
}

/// A live topic's gauges.
#[derive(Debug)]
pub struct TopicStats {
    /// Ready messages across channels (plus any backlog).
    pub depth: usize,
    /// Unacknowledged deliveries.
    pub in_flight: usize,
}

/// Whole-broker statistics. The counters are broker-wide and include
/// the traffic of topics since collected; the gauges read the live
/// topics.
#[derive(Debug, Default)]
pub struct BrokerStats {
    /// Live topic count.
    pub topics: usize,
    /// Total channels.
    pub channels: usize,
    /// Messages published into a topic.
    pub published: u64,
    /// Total ready depth.
    pub depth: usize,
    /// Total in flight.
    pub in_flight: usize,
    /// Acknowledged deliveries.
    pub acked: u64,
    /// Requeue events.
    pub requeued: u64,
    /// Messages routed to dead-letter topics.
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
    /// The topic's key, shared with the table.
    topic: Arc<str>,
    /// The channel's position in its topic.
    channel: usize,
    subscriber_id: u64,
}

impl Subscription {
    /// This subscription's channel. Its topic is listed: it is
    /// collected only when its last subscription drops.
    fn channel<'s>(&self, state: &'s mut State) -> &'s mut Channel {
        let t = state.topics.get_mut(&self.topic).expect("a subscribed topic is listed");
        &mut t.channels[self.channel]
    }

    /// Blocking receive; `None` once `timeout` passes with nothing to
    /// deliver. The returned message is in flight until
    /// [`Subscription::ack`]. The timeout bounds the wall-clock wait as
    /// a whole, however many wake-ups find the channel empty.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Message> {
        let broker = &*self.broker;
        // When the first wait began; taken only once a wait is due.
        let mut started = None;
        let mut state = broker.state.lock();
        loop {
            if let Some(msg) = self.channel(&mut state).claim(self.subscriber_id, &broker.clock) {
                return Some(msg);
            }
            let now = Instant::now();
            let left = timeout.saturating_sub(now.duration_since(*started.get_or_insert(now)));
            if left.is_zero() || broker.available.wait_for(&mut state, left).timed_out() {
                return None;
            }
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Message> {
        self.channel(&mut self.broker.state.lock()).claim(self.subscriber_id, &self.broker.clock)
    }

    /// Acknowledge (complete) an in-flight message. Returns `false` if
    /// it was not in flight for this subscription.
    pub fn ack(&self, id: MessageId) -> bool {
        let mut state = self.broker.state.lock();
        let acked = self.channel(&mut state).ack(self.subscriber_id, id);
        state.acked += u64::from(acked);
        acked
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        let broker = &*self.broker;
        let mut guard = broker.state.lock();
        let state = &mut *guard;
        let t = state.topics.get_mut(&self.topic).expect("a subscribed topic is listed");
        let ch = &mut t.channels[self.channel];
        let r = ch.requeue_all_for(self.subscriber_id, broker.config.max_attempts);
        ch.subscribers -= 1;
        // An ephemeral topic goes once *no channel* has subscribers. A
        // channel nobody holds has no receiver to wake, so its messages
        // go with the topic.
        let unused = t.ephemeral && t.channels.iter().all(|ch| ch.subscribers == 0);
        let moved = r.requeued > 0 || !r.dead.is_empty();
        state.settle(&self.topic, self.channel, r);
        if unused {
            state.topics.remove(&self.topic);
        }
        if moved {
            broker.available.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rai_faults::FaultPlan;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn single_publisher_single_consumer() {
        let b = Broker::default();
        let sub = b.subscribe("rai", "tasks");
        b.publish("rai", &b"job-1"[..]).unwrap();
        let m = sub.recv_timeout(Duration::from_millis(100)).unwrap();
        assert_eq!(m.body_str(), "job-1");
        assert!(sub.ack(m.id));
        assert_eq!(b.topic_stats("rai").unwrap().depth, 0);
        let s = b.stats();
        assert_eq!((s.published, s.acked), (1, 1));
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
        // Jobs queued before any worker subscribes.
        b.publish("rai", &b"job 1"[..]).unwrap();
        b.publish("rai", &b"job 2"[..]).unwrap();
        assert_eq!(b.topic_stats("rai").unwrap().depth, 2, "held in the backlog");
        let sub = b.subscribe("rai", "tasks");
        let m1 = sub.recv_timeout(Duration::from_millis(100)).unwrap();
        let m2 = sub.recv_timeout(Duration::from_millis(100)).unwrap();
        assert_eq!(m1.body_str(), "job 1");
        assert_eq!(m2.body_str(), "job 2");
    }

    #[test]
    fn a_publish_to_a_collected_log_topic_leaves_nothing() {
        // The client stopped reading before the worker published: the
        // frame has no reader and is dropped, not parked in a topic
        // that nothing would ever collect.
        let b = Broker::default();
        drop(b.subscribe_ephemeral("log_j", "ch"));
        b.publish_ephemeral("log_j", &b"late line"[..]).unwrap();
        b.publish_ephemeral("log_never", &b"no reader"[..]).unwrap();
        assert!(!b.has_topic("log_j"));
        let s = b.stats();
        assert_eq!((s.topics, s.depth, s.published), (0, 0, 0));
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
        let b = Broker::default();
        let _sub = b.subscribe("t", "ch");
        for _ in 0..MAX_CHANNEL_DEPTH {
            b.publish("t", &b"1"[..]).unwrap();
        }
        assert!(matches!(
            b.publish("t", &b"3"[..]),
            Err(PublishError::ChannelFull { .. })
        ));
    }

    #[test]
    fn backpressure_backlog_full() {
        let b = Broker::default();
        for _ in 0..MAX_BACKLOG {
            b.publish("t", &b"1"[..]).unwrap();
        }
        assert!(matches!(
            b.publish("t", &b"2"[..]),
            Err(PublishError::BacklogFull { .. })
        ));
    }

    #[test]
    fn a_gated_wake_is_never_lost() {
        // Ping-pong: each message is published only once the previous
        // one was received, so the publish races the receiver parking
        // again. One lost wake-up would cost its 10 s timeout.
        const ROUNDS: u64 = 2_000;
        let b = Broker::default();
        let sub = b.subscribe("t", "ch");
        let (received, next) = std::sync::mpsc::channel();
        let start = std::time::Instant::now();
        let t = std::thread::spawn(move || {
            for _ in 0..ROUNDS {
                let m = sub.recv_timeout(Duration::from_secs(10)).expect("woken, not timed out");
                sub.ack(m.id);
                received.send(()).unwrap();
            }
        });
        for _ in 0..ROUNDS {
            b.publish("t", &b"ping"[..]).unwrap();
            next.recv().unwrap();
        }
        t.join().unwrap();
        assert!(start.elapsed() < Duration::from_secs(5), "took {:?}", start.elapsed());
    }

    #[test]
    fn a_wake_on_the_shared_condvar_reaches_its_channel() {
        // Two receivers park on different topics, and each message is
        // published only once the previous one was received, two to a
        // topic in turn: a publish often finds both parked with the
        // other topic's receiver first in line. A `notify_one` would
        // wake that one, and this message's receiver would sleep out
        // its 10 s timeout.
        const ROUNDS: usize = 1_000;
        let b = Broker::default();
        let (received, next) = std::sync::mpsc::channel();
        let receivers: Vec<_> = ["a", "b"]
            .into_iter()
            .map(|topic| {
                let sub = b.subscribe(topic, "ch");
                let received = received.clone();
                std::thread::spawn(move || {
                    for _ in 0..ROUNDS {
                        let m = sub.recv_timeout(Duration::from_secs(10)).expect("woken, not timed out");
                        sub.ack(m.id);
                        received.send(topic).unwrap();
                    }
                })
            })
            .collect();
        drop(received);
        let start = Instant::now();
        for i in 0..2 * ROUNDS {
            let topic = ["a", "b"][i / 2 % 2];
            b.publish(topic, &b"ping"[..]).unwrap();
            assert_eq!(next.recv().unwrap(), topic);
        }
        for r in receivers {
            r.join().unwrap();
        }
        assert!(start.elapsed() < Duration::from_secs(5), "took {:?}", start.elapsed());
    }

    #[test]
    fn recv_times_out() {
        let b = Broker::default();
        let sub = b.subscribe("t", "ch");
        assert!(sub.recv_timeout(Duration::from_millis(5)).is_none());
    }

    #[test]
    fn empty_wake_ups_do_not_restart_the_timeout() {
        // A publish to another topic wakes the parked receiver to an
        // empty channel every 100 ms for 1 s; its 300 ms timeout still
        // runs out at 300 ms, not 300 ms after the last wake-up.
        let b = Broker::default();
        let sub = b.subscribe("t", "ch");
        let _other = b.subscribe("u", "ch");
        let start = Instant::now();
        let t = std::thread::spawn(move || {
            let result = sub.recv_timeout(Duration::from_millis(300));
            (result.is_none(), start.elapsed())
        });
        for _ in 0..10 {
            std::thread::sleep(Duration::from_millis(100));
            b.publish("u", &b"elsewhere"[..]).unwrap();
        }
        let (timed_out, waited) = t.join().unwrap();
        assert!(timed_out);
        assert!(waited < Duration::from_millis(800), "parked {waited:?} on a 300 ms timeout");
    }

    #[test]
    fn reclaim_is_sim_time_not_wall_time() {
        let b = Broker::default();
        let sub = b.subscribe("t", "ch");
        b.publish("t", &b"x"[..]).unwrap();
        let _taken = sub.try_recv().unwrap();
        // Wall-clock time passes but sim time does not: no reclaim.
        std::thread::sleep(Duration::from_millis(15));
        assert_eq!(b.reclaim_expired(SimDuration::from_millis(1)), 0);
        assert_eq!(b.topic_stats("t").unwrap().in_flight, 1);
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
    fn counters_outlive_a_collected_topic() {
        let b = Broker::default();
        let sub = b.subscribe_ephemeral("log_j", "ch");
        for line in ["a", "b", "end"] {
            b.publish_ephemeral("log_j", line).unwrap();
        }
        while let Some(m) = sub.try_recv() {
            assert!(sub.ack(m.id));
        }
        drop(sub);
        let s = b.stats();
        assert_eq!((s.topics, s.channels), (0, 0), "the log topic is collected");
        assert_eq!((s.published, s.acked), (3, 3), "its traffic stays counted");
    }

    #[test]
    fn route_formatting() {
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
        let clock = VirtualClock::new();
        let b = Broker::with_clock(BrokerConfig { max_attempts: 3 }, clock.clone());
        let timeout = SimDuration::from_secs(5);
        let dead = b.subscribe(&dead_letter_topic("rai", "tasks"), "audit");
        let sub = b.subscribe("rai", "tasks");
        b.publish("rai", &b"poison"[..]).unwrap();
        for _ in 0..2 {
            let _m = sub.try_recv().unwrap();
            clock.advance(timeout);
            assert_eq!(b.reclaim_expired(timeout), 1);
            assert!(dead.try_recv().is_none(), "under cap: stays in the queue");
        }
        let m = sub.try_recv().unwrap();
        assert_eq!(m.attempts, 3);
        clock.advance(timeout);
        assert_eq!(b.reclaim_expired(timeout), 0);
        assert!(sub.try_recv().is_none(), "message left the work queue");
        let d = dead.try_recv().expect("dead letter delivered");
        assert_eq!(d.body_str(), "poison");
        assert!(dead.ack(d.id));
        let s = b.stats();
        assert_eq!((s.requeued, s.dead_lettered), (2, 1));
    }

    #[test]
    fn attempt_cap_applies_on_subscriber_crash() {
        let clock = VirtualClock::new();
        let b = Broker::with_clock(BrokerConfig { max_attempts: 1 }, clock);
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
        let config = BrokerConfig { max_attempts: 2 };
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
        assert_eq!(b.stats().requeued, 2, "one expiry each of \"b\" and \"a\"");
        let dead = |topic: &str| {
            let audit = b.subscribe(&dead_letter_topic(topic, "ch"), "audit");
            let m = audit.try_recv().expect("dead letter delivered");
            assert_eq!(m.body_str(), topic);
            m.id
        };
        assert!(dead("a") < dead("b"), "visit order is by topic name");
        // The ready-only topic was never touched.
        let s = b.topic_stats("log_0").unwrap();
        assert_eq!((s.depth, s.in_flight), (1, 0));
    }

    #[test]
    fn a_drained_ephemeral_topic_is_freed_not_just_unlisted() {
        let b = Broker::default();
        let sub = b.subscribe_ephemeral("log_j", "ch");
        b.publish_ephemeral("log_j", &b"line"[..]).unwrap();
        let m = sub.try_recv().unwrap();
        assert!(sub.ack(m.id));
        let topic = Arc::downgrade(b.inner.state.lock().topics.get_key_value("log_j").unwrap().0);
        drop(sub);
        assert!(!b.has_topic("log_j"));
        assert!(topic.upgrade().is_none(), "something still holds the dead topic's key");
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
            handles.push(std::thread::spawn(move || {
                while let Some(m) = sub.recv_timeout(Duration::from_millis(200)) {
                    assert!(sub.ack(m.id));
                    total.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 1000);
        assert_eq!(b.stats().acked, 1000);
        let s = b.topic_stats("t").unwrap();
        assert_eq!(s.depth, 0);
        assert_eq!(s.in_flight, 0);
    }
}
