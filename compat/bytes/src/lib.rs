//! Minimal, API-compatible subset of the `bytes` crate: a cheaply
//! cloneable, immutable view `(shared buffer, offset, len)` of a byte
//! buffer. Clones and [`Bytes::slice`]s share the buffer — no bytes are
//! copied — and the buffer is freed when its last view drops, so a
//! view of any size keeps the whole buffer it was cut from alive.
//! Safe code only.

#![forbid(unsafe_code)]

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::{Arc, Weak};

/// Cheaply cloneable contiguous slice of memory.
#[derive(Clone)]
pub struct Bytes {
    data: Repr,
}

#[derive(Clone)]
enum Repr {
    /// Static data is narrowed in place; there is no buffer to share.
    Static(&'static [u8]),
    /// `buf[off..off + len]`; the range is checked when the view is made.
    Shared { buf: Arc<Vec<u8>>, off: usize, len: usize },
}

impl Bytes {
    pub(crate) const fn new() -> Self {
        Bytes { data: Repr::Static(&[]) }
    }

    pub const fn from_static(bytes: &'static [u8]) -> Self {
        Bytes { data: Repr::Static(bytes) }
    }

    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    pub(crate) fn as_slice(&self) -> &[u8] {
        match &self.data {
            Repr::Static(s) => s,
            Repr::Shared { buf, off, len } => &buf[*off..*off + *len],
        }
    }

    pub fn len(&self) -> usize {
        match &self.data {
            Repr::Static(s) => s.len(),
            Repr::Shared { len, .. } => *len,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// A view of `range` within this one, sharing its buffer: O(1), no
    /// bytes copied. Panics if the range is decreasing or out of bounds.
    pub fn slice(&self, range: impl std::ops::RangeBounds<usize>) -> Bytes {
        use std::ops::Bound;
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(
            start <= end && end <= self.len(),
            "range {start}..{end} out of bounds of a {}-byte view",
            self.len()
        );
        let data = match &self.data {
            Repr::Static(s) => Repr::Static(&s[start..end]),
            Repr::Shared { buf, off, .. } => {
                Repr::Shared { buf: Arc::clone(buf), off: off + start, len: end - start }
            }
        };
        Bytes { data }
    }

    /// Shim-only probe, absent from the published crate: a weak handle
    /// on the buffer this view keeps alive (`None` for static data).
    /// Tests use it to tell which views share an allocation, how many
    /// bytes a view pins, and when the last view of a buffer is gone.
    #[doc(hidden)]
    pub fn buffer(&self) -> Option<Weak<Vec<u8>>> {
        match &self.data {
            Repr::Static(_) => None,
            Repr::Shared { buf, .. } => Some(Arc::downgrade(buf)),
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    /// Takes the vector as the shared buffer: no bytes are copied.
    fn from(v: Vec<u8>) -> Self {
        let len = v.len();
        Bytes { data: Repr::Shared { buf: Arc::new(v), off: 0, len } }
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(v: Box<[u8]>) -> Self {
        Bytes::from(v.into_vec())
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::from_static(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::from_static(s.as_bytes())
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(b: Bytes) -> Self {
        b.to_vec()
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Bytes> for [u8] {
    fn eq(&self, other: &Bytes) -> bool {
        self == other.as_slice()
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            if (b' '..=b'~').contains(&b) && b != b'"' && b != b'\\' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_and_compares() {
        let a = Bytes::from(vec![1u8, 2, 3]);
        let b = Bytes::from_static(&[1, 2, 3]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        assert_eq!(&a[1..], &[2, 3]);
        assert_eq!(a.to_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn clone_is_cheap_and_equal() {
        let a = Bytes::from("hello".to_string());
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(b.as_ref(), b"hello");
    }

    #[test]
    fn slice_extracts_range() {
        let a = Bytes::from_static(b"abcdef");
        assert_eq!(a.slice(1..4).as_ref(), b"bcd");
        assert_eq!(a.slice(..).as_ref(), b"abcdef");
        assert_eq!(a.slice(2..=3).as_ref(), b"cd");
        assert!(a.slice(6..).is_empty());
    }

    #[test]
    fn from_vec_and_slices_share_the_allocation() {
        let v = b"0123456789".to_vec();
        let ptr = v.as_ptr();
        let a = Bytes::from(v);
        assert_eq!(a.as_ptr(), ptr, "From<Vec<u8>> moves the vector");
        let mid = a.slice(2..8);
        assert_eq!(mid.as_ptr(), ptr.wrapping_add(2));
        // Nested slices compose: offsets are relative to the view.
        let inner = mid.slice(1..=3);
        assert_eq!(inner.as_ref(), b"345");
        assert_eq!(inner.as_ptr(), ptr.wrapping_add(3));
        assert_eq!(mid.slice(..2).as_ref(), b"23");
        let (a_buf, inner_buf) = (a.buffer().unwrap(), inner.buffer().unwrap());
        assert!(a_buf.ptr_eq(&inner_buf));
        assert_eq!(inner_buf.upgrade().unwrap().len(), 10, "a 3-byte view pins all 10 bytes");
        assert!(Bytes::from_static(b"abc").slice(1..).buffer().is_none());
    }

    #[test]
    fn buffer_is_freed_with_its_last_view() {
        let body = Bytes::from(vec![7u8; 64]);
        let probe = body.buffer().unwrap();
        let views: Vec<Bytes> = (0..4).map(|i| body.slice(i * 16..(i + 1) * 16)).collect();
        drop(body);
        assert!(probe.upgrade().is_some(), "views keep the buffer alive");
        let mut views = views.into_iter();
        let last = views.next().unwrap();
        drop(views);
        assert_eq!(last.as_ref(), &[7u8; 16]);
        assert!(probe.upgrade().is_some());
        drop(last);
        assert!(probe.upgrade().is_none(), "last view gone, buffer freed");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_past_the_view_panics() {
        // In range of the buffer, out of range of the view.
        Bytes::from(vec![0u8; 10]).slice(2..6).slice(..5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn decreasing_slice_panics() {
        let (start, end) = (4, 2);
        Bytes::from_static(b"abcdef").slice(start..end);
    }
}
