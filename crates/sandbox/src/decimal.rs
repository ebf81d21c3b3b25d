//! How the interpreter prints numbers: from the integer they are
//! wherever that is exact, byte for byte what `format!` printed, and
//! through `format!` wherever it is not.
//!
//! Simulated time is whole milliseconds ([`rai_sim::SimDuration`]), so
//! a program's `elapsed = X.XXX s` is the integer's digits with a point
//! in them, and a declared accuracy is printed to four places. Exact
//! float formatting was the priciest thing a job did per line: `{:.3}`
//! and `{:.4}` can fall back to bignum arithmetic.

use std::fmt;

/// Digits of a `u64` and a point.
type DigitBuf = [u8; 21];

/// `scaled / 10^places` in decimal, with exactly `places` digits after
/// the point (and no point when `places` is 0), written into `buf`.
fn fixed_digits(buf: &mut DigitBuf, scaled: u64, places: usize) -> &str {
    let mut at = buf.len();
    let mut rest = scaled;
    for written in 0.. {
        if written == places && places > 0 {
            at -= 1;
            buf[at] = b'.';
        }
        at -= 1;
        buf[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 && written >= places {
            break;
        }
    }
    std::str::from_utf8(&buf[at..]).expect("ASCII digits")
}

/// Below this many milliseconds (2^52), `ms as f64 / 1000.0` is under
/// 2^43, where half an f64 ulp is under 0.0005: the quotient rounds to
/// three places as the exact `ms / 1000` does, which has three. (At
/// 2^53 half an ulp is 0.00098, and the two differ.)
const EXACT_MILLIS: u64 = 1 << 52;

/// Whole milliseconds printed as seconds to three places: exactly
/// `format!("{:.3}", ms as f64 / 1000.0)`.
pub(crate) struct Millis(pub(crate) u64);

impl fmt::Display for Millis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= EXACT_MILLIS {
            return write!(f, "{:.3}", self.0 as f64 / 1000.0);
        }
        f.write_str(fixed_digits(&mut DigitBuf::default(), self.0, 3))
    }
}

/// A scaled value within this of a rounding tie is printed by
/// `format!`. Below 2^32 an f64 product is within 2^-21 of the exact
/// one, so outside the margin both round the same way.
const TIE_MARGIN: f64 = 1e-6;

/// An f64 printed to four places: exactly `format!("{:.4}", v)`. For a
/// non-negative `v` with `v · 10⁴` under 2^32 and not within
/// [`TIE_MARGIN`] of a tie, that is `v · 10⁴` rounded, with a point;
/// anything else (NaN, infinities, -0.0, a near-tie) goes to
/// `format!`.
pub(crate) struct Fixed4(pub(crate) f64);

impl fmt::Display for Fixed4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.0;
        let scaled = v * 1e4;
        if v.is_sign_positive() && scaled < 4_294_967_296.0 {
            let whole = scaled.floor();
            let frac = scaled - whole;
            if (frac - 0.5).abs() > TIE_MARGIN {
                let digits = whole as u64 + u64::from(frac > 0.5);
                return f.write_str(fixed_digits(&mut DigitBuf::default(), digits, 4));
            }
        }
        write!(f, "{v:.4}")
    }
}

/// GNU time's elapsed field, `m:ss.ss`: whole minutes, then the seconds
/// past them to two places — carried into the minutes when they round
/// to 60, so 59.996 s is `1:00.00`, not `0:60.00`.
pub(crate) struct Clock(pub(crate) f64);

impl fmt::Display for Clock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let minutes = (self.0 as u64) / 60;
        let seconds = self.0 % 60.0;
        // `{:.2}` rounds up to 60.00 exactly above 59.995, which no f64
        // is; the nearest one lies below it and rounds down.
        if seconds > 59.995 {
            write!(f, "{}:00.00", minutes + 1)
        } else {
            write!(f, "{minutes}:{seconds:05.2}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// How `time` printed its elapsed field until [`Clock`] carried the
    /// rounding, with the carry put in: the oracle.
    fn reference_clock(secs: f64) -> String {
        let seconds = format!("{:05.2}", secs % 60.0);
        let minutes = (secs as u64) / 60;
        if seconds == "60.00" {
            format!("{}:00.00", minutes + 1)
        } else {
            format!("{minutes}:{seconds}")
        }
    }

    #[test]
    fn millis_print_as_format_did_below_a_million_and_at_the_edges() {
        for ms in 0..1_000_000u64 {
            assert_eq!(Millis(ms).to_string(), format!("{:.3}", ms as f64 / 1000.0), "{ms}");
        }
        let edges = [
            EXACT_MILLIS - 1,
            EXACT_MILLIS,
            EXACT_MILLIS + 1,
            (1 << 53) - 1,
            1 << 53,
            u64::MAX - 1,
            u64::MAX,
        ];
        let powers = (0..20).flat_map(|p| {
            let n = 10u64.pow(p);
            [n - 1, n, n + 1]
        });
        for ms in edges.into_iter().chain(powers) {
            assert_eq!(Millis(ms).to_string(), format!("{:.3}", ms as f64 / 1000.0), "{ms}");
        }
    }

    /// Every `ms` below 10⁸ (27.8 hours, past any job's lifetime):
    /// ≈ 30 s optimized, so not part of the default run
    /// (`cargo test --release -p rai-sandbox -- --ignored`).
    #[test]
    #[ignore]
    fn millis_print_as_format_did_below_a_hundred_million() {
        for ms in 0..100_000_000u64 {
            assert_eq!(Millis(ms).to_string(), format!("{:.3}", ms as f64 / 1000.0), "{ms}");
        }
    }

    #[test]
    fn four_places_print_as_format_did_around_every_tie() {
        for k in 0..10_000u32 {
            let tie = (f64::from(k) + 0.5) / 1e4;
            for ulps in -4i64..=4 {
                let v = f64::from_bits((tie.to_bits() as i64 + ulps) as u64);
                assert_eq!(Fixed4(v).to_string(), format!("{v:.4}"), "{v:e}");
            }
        }
        for v in [0.0, -0.0, 1.0, 0.93, 0.8714, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300] {
            assert_eq!(Fixed4(v).to_string(), format!("{v:.4}"), "{v:e}");
        }
    }

    #[test]
    fn the_elapsed_clock_carries_into_the_minutes() {
        assert_eq!(Clock(59.994).to_string(), "0:59.99");
        for ms in [59_996, 59_997, 59_998, 59_999] {
            assert_eq!(Clock(ms as f64 / 1000.0).to_string(), "1:00.00", "{ms} ms");
        }
        assert_eq!(Clock(119.996).to_string(), "2:00.00");
        assert_eq!(Clock(3_599.999).to_string(), "60:00.00");
        // Around every minute of a job's hour, and the hour past it.
        for minute in 0..=61u64 {
            for ms in (minute * 60_000).saturating_sub(50)..minute * 60_000 + 50 {
                let secs = ms as f64 / 1000.0;
                assert_eq!(Clock(secs).to_string(), reference_clock(secs), "{ms} ms");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn millis_equal_format(ms in 0u64..100_000_000, wide in 0u64..EXACT_MILLIS) {
            prop_assert_eq!(Millis(ms).to_string(), format!("{:.3}", ms as f64 / 1000.0));
            prop_assert_eq!(Millis(wide).to_string(), format!("{:.3}", wide as f64 / 1000.0));
        }

        #[test]
        fn four_places_equal_format(v in 0.0f64..1.0, bits in any::<u64>()) {
            prop_assert_eq!(Fixed4(v).to_string(), format!("{v:.4}"));
            let any = f64::from_bits(bits);
            prop_assert_eq!(Fixed4(any).to_string(), format!("{any:.4}"));
        }

        #[test]
        fn clock_equals_format_with_the_carry(ms in 0u64..7_200_000) {
            let secs = ms as f64 / 1000.0;
            prop_assert_eq!(Clock(secs).to_string(), reference_clock(secs));
        }
    }
}
