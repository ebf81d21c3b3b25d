//! Message model.

use bytes::Bytes;

/// Broker-assigned unique message identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MessageId(pub u64);

impl std::fmt::Display for MessageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "msg-{:08x}", self.0)
    }
}

/// A message as delivered to a consumer.
#[derive(Clone, Debug)]
pub struct Message {
    /// Unique id (per broker).
    pub id: MessageId,
    /// Opaque payload. RAI serializes job requests and log lines here.
    pub body: Bytes,
    /// Delivery attempt count: 1 on first delivery, incremented on each
    /// requeue. Consumers use this to drop poison messages.
    pub attempts: u32,
}

impl Message {
    /// Body as UTF-8, lossily. Log-stream messages are plain text, so
    /// the body is validated first and decoded lossily only if that
    /// fails: the same result, without the lossy decoder's slow walk.
    pub fn body_str(&self) -> std::borrow::Cow<'_, str> {
        match std::str::from_utf8(&self.body) {
            Ok(text) => std::borrow::Cow::Borrowed(text),
            Err(_) => String::from_utf8_lossy(&self.body),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_text() {
        let m = Message {
            id: MessageId(0xAB),
            body: Bytes::from_static(b"Building project"),
            attempts: 1,
        };
        assert_eq!(m.id.to_string(), "msg-000000ab");
        assert_eq!(m.body_str(), "Building project");
    }
}
