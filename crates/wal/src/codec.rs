//! The primitive codec the logical records of `rai-db` and `rai-store`
//! are built from: little-endian integers and `u32`-length-prefixed
//! strings and byte strings. Writers append to a `Vec<u8>`; the
//! [`Reader`] is bounds-checked and answers `None` instead of panicking,
//! because what it reads is whatever survived a crash.

/// Append `v` as four little-endian bytes.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `v` as eight little-endian bytes.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `s` behind its `u32` byte length.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Append `b` behind its `u32` length.
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// Checked cursor over a record payload.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// The next `n` bytes, or `None` if fewer remain.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.bytes.len() {
            return None;
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Some(out)
    }

    /// One byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// A length-prefixed byte string ([`put_bytes`]).
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// A length-prefixed UTF-8 string ([`put_str`]), as a view of the
    /// payload.
    pub fn str(&mut self) -> Option<&'a str> {
        std::str::from_utf8(self.bytes()?).ok()
    }

    /// The bytes consumed since the cursor stood at `from` (a
    /// [`Reader::pos`]): a run of fields read and checked one by one,
    /// as one view.
    pub fn since(&self, from: usize) -> &'a [u8] {
        &self.bytes[from..self.pos]
    }

    /// The cursor's offset into the payload.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Whether every byte has been consumed.
    pub fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip_and_reads_are_checked() {
        let mut out = vec![7u8];
        put_u32(&mut out, 0xDEAD_BEEF);
        put_u64(&mut out, u64::MAX - 1);
        put_str(&mut out, "héllo");
        put_bytes(&mut out, b"\x00\xff");
        let mut r = Reader::new(&out);
        assert_eq!(r.u8(), Some(7));
        assert_eq!(r.u32(), Some(0xDEAD_BEEF));
        assert_eq!(r.u64(), Some(u64::MAX - 1));
        let from = r.pos();
        assert_eq!(r.str(), Some("héllo"));
        assert_eq!(r.bytes(), Some(&b"\x00\xff"[..]));
        assert_eq!(r.since(from), &out[13..]);
        assert!(r.done());
        assert_eq!(r.u8(), None, "reading past the end is None, not a panic");

        // A length prefix running past the payload, and invalid UTF-8.
        let mut long = Vec::new();
        put_u32(&mut long, u32::MAX);
        assert_eq!(Reader::new(&long).bytes(), None);
        let mut bad = Vec::new();
        put_bytes(&mut bad, &[0xff, 0xfe]);
        assert_eq!(Reader::new(&bad).str(), None);
    }
}
