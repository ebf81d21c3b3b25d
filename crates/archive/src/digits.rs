//! Numbers written into names without the formatter: the one writer of
//! the hex (and decimal) digits in etags, object keys, log topics and
//! presigned URLs. Each writes the very text `format!` writes —
//! `{value:0width$x}` and `{value}` — into a buffer on the stack.

/// The digits of a number, on the stack.
pub struct Digits {
    buf: [u8; 20],
    start: usize,
}

impl Digits {
    /// The digits.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[self.start..]).expect("digits are ASCII")
    }
}

/// `value` in lowercase hex, zero-padded to at least `width` digits
/// (at most 16, the digits of a `u64`): the text
/// `format!("{value:0width$x}")` writes.
pub fn hex(value: u64, width: usize) -> Digits {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    assert!(width <= 16, "a u64 has at most 16 hex digits");
    let mut buf = [b'0'; 20];
    for (i, digit) in buf.iter_mut().rev().take(16).enumerate() {
        *digit = DIGITS[((value >> (4 * i)) & 0xF) as usize];
    }
    let significant = (64 - value.leading_zeros() as usize).div_ceil(4).max(1);
    Digits { buf, start: 20 - significant.max(width) }
}

/// `value` in decimal: the text `format!("{value}")` writes.
pub fn decimal(mut value: u64) -> Digits {
    let mut buf = [b'0'; 20];
    let mut start = buf.len();
    loop {
        start -= 1;
        buf[start] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    Digits { buf, start }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn edges_read_as_the_formatter_writes_them() {
        for value in [0, 1, 0xF, 0x10, 0xDEAD, 0xFFFF_FFFF, 0x1_0000_0000, u64::MAX] {
            for width in [0, 1, 8, 16] {
                assert_eq!(hex(value, width).as_str(), format!("{value:0width$x}"));
            }
            assert_eq!(decimal(value).as_str(), value.to_string());
        }
    }

    proptest! {
        #[test]
        fn digits_read_as_the_formatter_writes_them(
            wide in any::<u64>(),
            shift in 0u32..64,
            width in 0usize..=16,
        ) {
            // Every digit count, not only the wide values most draws are.
            for value in [wide, wide >> shift] {
                let (hex, decimal) = (hex(value, width), decimal(value));
                prop_assert_eq!(hex.as_str(), format!("{value:0width$x}"));
                prop_assert_eq!(decimal.as_str(), format!("{value}"));
            }
        }
    }
}
