//! # rai-broker — the message broker (paper §IV, §V)
//!
//! RAI's clients and workers communicate exclusively through a message
//! broker "composed of multiple topics, each of which has multiple
//! channels", addressed as `topic_name/channel_name` (the *queue
//! route*). Publishing copies a message into every channel of the topic;
//! consumers subscribed to the *same* channel load-balance, consumers on
//! *different* channels each see every message — exactly NSQ's model,
//! which the original RAI deployment used.
//!
//! Reproduced semantics:
//!
//! * `rai/tasks` — job submissions; all workers subscribe to one shared
//!   channel and messages are load-balanced among them;
//! * `log_${job_id}` — per-job ephemeral topics for streaming
//!   stdout/stderr back to the client; "both the topic and channel are
//!   deleted if there are no producers and consumers";
//! * conditional consumption — a worker may *requeue* a message it
//!   cannot accept (resource constraints), which redelivers it with an
//!   incremented attempt counter;
//! * messages published before any channel exists are held in a topic
//!   backlog and drained into the first channel created (so log lines
//!   emitted before the client finishes subscribing are not lost).
//!
//! The broker is a live, thread-safe component (parking_lot mutexes +
//! condvars), exercised with real threads in its tests and benches, and
//! driven single-threaded from the discrete-event simulation.

#![forbid(unsafe_code)]

pub mod broker;
pub mod message;
pub mod queue;

pub use broker::{
    dead_letter_topic, Broker, BrokerConfig, BrokerStats, PublishError, Subscription, TopicStats,
};
pub use message::{Message, MessageId};
pub use queue::RecvError;
