//! Model-based property tests for the broker: a single
//! topic/channel/consumer must behave exactly like a FIFO queue with an
//! in-flight set, under any interleaving of operations.

use proptest::prelude::*;
use rai_broker::{dead_letter_topic, Broker, BrokerConfig, MessageId};
use rai_sim::{SimDuration, VirtualClock};
use std::collections::{HashMap, VecDeque};

#[derive(Clone, Debug)]
enum Op {
    Publish(u8),
    Recv,
    AckOldest,
    ExpireClaims,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            any::<u8>().prop_map(Op::Publish),
            Just(Op::Recv),
            Just(Op::AckOldest),
            Just(Op::ExpireClaims),
        ],
        0..120,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Reference model: `ready` is a FIFO of bodies, `in_flight` a FIFO
    /// of (id, body) in claim order; an expiry returns every claim to
    /// the back of `ready` in id order. The broker must match it op
    /// for op.
    #[test]
    fn single_channel_matches_fifo_model(ops in arb_ops()) {
        let clock = VirtualClock::new();
        let broker = Broker::with_clock(BrokerConfig::default(), clock.clone());
        let timeout = SimDuration::from_secs(60);
        let sub = broker.subscribe("t", "ch");
        let mut model_ready: VecDeque<u8> = VecDeque::new();
        let mut model_in_flight: VecDeque<(MessageId, u8)> = VecDeque::new();

        for op in ops {
            match op {
                Op::Publish(body) => {
                    broker.publish("t", vec![body]).expect("publish");
                    model_ready.push_back(body);
                }
                Op::Recv => {
                    let got = sub.try_recv();
                    match model_ready.pop_front() {
                        Some(expected) => {
                            let m = got.expect("model says a message is ready");
                            prop_assert_eq!(m.body.as_ref(), &[expected][..]);
                            model_in_flight.push_back((m.id, expected));
                        }
                        None => prop_assert!(got.is_none(), "broker had a surprise message"),
                    }
                }
                Op::AckOldest => match model_in_flight.pop_front() {
                    Some((id, _)) => prop_assert!(sub.ack(id)),
                    None => prop_assert!(!sub.ack(MessageId(u64::MAX))),
                },
                Op::ExpireClaims => {
                    clock.advance(timeout);
                    prop_assert_eq!(broker.reclaim_expired(timeout), model_in_flight.len());
                    let mut expired: Vec<_> = model_in_flight.drain(..).collect();
                    expired.sort();
                    model_ready.extend(expired.into_iter().map(|(_, body)| body));
                }
            }
            // Depth invariants hold after every operation.
            let stats = broker.topic_stats("t").expect("topic exists");
            prop_assert_eq!(stats.depth, model_ready.len());
            prop_assert_eq!(stats.in_flight, model_in_flight.len());
        }
    }

    /// Conservation: every published message is eventually delivered
    /// exactly once per channel when fully drained.
    #[test]
    fn fanout_conserves_messages(
        bodies in prop::collection::vec(any::<u8>(), 0..60),
        channels in 1usize..5,
    ) {
        let broker = Broker::default();
        let subs: Vec<_> = (0..channels)
            .map(|i| broker.subscribe("t", &format!("ch{i}")))
            .collect();
        for b in &bodies {
            broker.publish("t", vec![*b]).expect("publish");
        }
        for sub in &subs {
            let mut seen = Vec::new();
            while let Some(m) = sub.try_recv() {
                prop_assert!(sub.ack(m.id));
                seen.push(m.body[0]);
            }
            prop_assert_eq!(&seen, &bodies, "each channel sees every message in order");
        }
        let stats = broker.topic_stats("t").expect("topic exists");
        prop_assert_eq!(stats.depth, 0);
        prop_assert_eq!(stats.in_flight, 0);
        prop_assert_eq!(broker.stats().acked, (bodies.len() * channels) as u64);
    }

    /// Attempt counters increment exactly once per delivery.
    #[test]
    fn attempts_track_deliveries(requeues in 0u32..6) {
        let clock = VirtualClock::new();
        let broker = Broker::with_clock(BrokerConfig::default(), clock.clone());
        let timeout = SimDuration::from_secs(60);
        let sub = broker.subscribe("t", "ch");
        broker.publish("t", &b"x"[..]).expect("publish");
        for expected in 1..=requeues + 1 {
            let m = sub.try_recv().expect("redelivered");
            prop_assert_eq!(m.attempts, expected);
            if expected == requeues + 1 {
                sub.ack(m.id);
            } else {
                clock.advance(timeout);
                prop_assert_eq!(broker.reclaim_expired(timeout), 1);
            }
        }
        prop_assert!(sub.try_recv().is_none());
    }

    /// Attempt cap: a message whose every claim expires is delivered
    /// exactly `cap` times and then routed to the dead-letter topic —
    /// and exhaustion order is publish order, so the dead-letter
    /// channel replays the poison stream faithfully.
    #[test]
    fn attempt_cap_dead_letters_in_publish_order(
        bodies in prop::collection::vec(any::<u8>(), 1..40),
        cap in 1u32..5,
    ) {
        let clock = VirtualClock::new();
        let broker = Broker::with_clock(BrokerConfig { max_attempts: cap }, clock.clone());
        let timeout = SimDuration::from_secs(60);
        let sub = broker.subscribe("t", "ch");
        let audit = broker.subscribe(&dead_letter_topic("t", "ch"), "audit");
        for b in &bodies {
            broker.publish("t", vec![*b]).expect("publish");
        }

        let mut deliveries: HashMap<MessageId, u32> = HashMap::new();
        loop {
            let mut claimed = 0;
            while let Some(m) = sub.try_recv() {
                let d = deliveries.entry(m.id).or_insert(0);
                *d += 1;
                prop_assert_eq!(m.attempts, *d, "attempts counts deliveries");
                claimed += 1;
            }
            if claimed == 0 {
                break;
            }
            clock.advance(timeout);
            broker.reclaim_expired(timeout);
        }

        prop_assert_eq!(deliveries.len(), bodies.len());
        for d in deliveries.values() {
            prop_assert_eq!(*d, cap, "every message gets its full budget, no more");
        }
        let t = broker.topic_stats("t").expect("topic exists");
        prop_assert_eq!(t.depth, 0);
        prop_assert_eq!(t.in_flight, 0);
        prop_assert_eq!(broker.stats().dead_lettered, bodies.len() as u64);

        let mut dead = Vec::new();
        while let Some(m) = audit.try_recv() {
            prop_assert!(audit.ack(m.id));
            dead.push(m.body[0]);
        }
        prop_assert_eq!(&dead, &bodies, "dead letters arrive in publish order");
    }

    /// `reclaim_expired` is a pure function of sim time: two brokers
    /// driven through the same schedule reclaim the same messages and
    /// redeliver them in the same order, and a claim expires iff the
    /// clock advanced past the timeout.
    #[test]
    fn reclaim_expired_is_deterministic(
        bodies in prop::collection::vec(any::<u8>(), 1..30),
        claim in 0usize..30,
        advance_secs in 0u64..200,
    ) {
        let timeout = SimDuration::from_secs(60);
        let run = || {
            let clock = VirtualClock::new();
            let broker = Broker::with_clock(BrokerConfig::default(), clock.clone());
            let sub = broker.subscribe("t", "ch");
            for b in &bodies {
                broker.publish("t", vec![*b]).expect("publish");
            }
            let mut claimed_ids = Vec::new();
            for _ in 0..claim.min(bodies.len()) {
                claimed_ids.push(sub.try_recv().expect("ready").id);
            }
            clock.advance(SimDuration::from_secs(advance_secs));
            let reclaimed = broker.reclaim_expired(timeout);
            let mut trace = Vec::new();
            while let Some(m) = sub.try_recv() {
                trace.push((m.id, m.body[0], m.attempts));
                sub.ack(m.id);
            }
            (claimed_ids, reclaimed, trace)
        };
        let a = run();
        let b = run();
        prop_assert_eq!(&a, &b, "same schedule, same observable history");

        let claimed = claim.min(bodies.len());
        let expired = advance_secs >= 60;
        prop_assert_eq!(a.1, if expired { claimed } else { 0 });
        if expired {
            // Unclaimed backlog first (attempt 1), then the reclaimed
            // messages re-enqueued in id order (attempt 2).
            prop_assert_eq!(a.2.len(), bodies.len());
            let fresh = bodies.len() - claimed;
            for (i, (id, _, attempts)) in a.2.iter().enumerate() {
                prop_assert_eq!(*attempts, if i < fresh { 1 } else { 2 });
                if i >= fresh {
                    prop_assert_eq!(*id, a.0[i - fresh], "id order");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Fan-out shares one body allocation: every channel must see the
    /// exact bytes published, in publish order, and every delivered
    /// body must point at the same backing buffer (shallow `Bytes`
    /// clones, no deep copies).
    #[test]
    fn fanout_delivers_identical_shared_bytes(
        bodies in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 1..20),
        channels in 1usize..6,
    ) {
        let broker = Broker::default();
        let subs: Vec<_> = (0..channels)
            .map(|i| broker.subscribe("t", &format!("ch{i}")))
            .collect();
        for body in &bodies {
            broker.publish("t", body.clone()).expect("publish");
        }
        // per_channel_ptrs[i][j]: backing-buffer pointer of message j as
        // seen by channel i.
        let mut per_channel_ptrs: Vec<Vec<*const u8>> = Vec::new();
        for sub in &subs {
            let mut ptrs = Vec::new();
            for body in &bodies {
                let m = sub.try_recv().expect("one copy per channel");
                prop_assert_eq!(m.body.as_ref(), &body[..], "bytes must match the publish");
                ptrs.push(m.body.as_ref().as_ptr());
                prop_assert!(sub.ack(m.id));
            }
            prop_assert!(sub.try_recv().is_none(), "no extra messages");
            per_channel_ptrs.push(ptrs);
        }
        for ptrs in &per_channel_ptrs[1..] {
            prop_assert_eq!(
                ptrs, &per_channel_ptrs[0],
                "each message must share one buffer across all channels"
            );
        }
    }
}
