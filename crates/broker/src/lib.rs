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
//!   deleted if there are no producers and consumers". Only the
//!   client's subscription creates one, and the client subscribes
//!   before it publishes its task, so no frame precedes its reader; a
//!   frame for a topic with no reader (its client gone) is dropped;
//! * redelivery — a consumer that drops its subscription (a crashed
//!   worker) or holds a claim past the message timeout loses it, and
//!   the message is redelivered with an incremented attempt counter,
//!   or dead-lettered once it reaches the attempt cap;
//! * messages published to a durable topic before any channel exists
//!   are held in a topic backlog and drained into the first channel
//!   created (NSQ's buffering: jobs queued before a worker subscribes,
//!   dead letters before an auditor does).
//!
//! The broker is a live, thread-safe component: all of its state sits
//! behind one mutex, and one condvar wakes its blocked receives. It is
//! exercised with real threads in its tests and benches, and driven
//! single-threaded from the discrete-event simulation.

#![forbid(unsafe_code)]

pub mod broker;
pub mod message;
mod queue;

pub use broker::{dead_letter_topic, Broker, BrokerConfig, PublishError, Subscription};
/// A message body: shared, so a consumer keeps one without copying it.
pub use bytes::Bytes;
pub use message::MessageId;
