//! Property tests for authentication: MAC soundness over arbitrary
//! inputs, profile round-trips, roster round-trips.

use proptest::prelude::*;
use rai_auth::{
    hmac_sha256, sign_request, verify_request, Credentials, Roster,
};

/// Parser input with the right alphabet: printable ASCII plus what it
/// leaves out — line breaks, tabs and other control characters (NUL,
/// ESC, DEL, the C1 NEL, a byte-order mark), multi-byte characters and
/// the Unicode line and paragraph separators.
const TEXT: &str = "[ -~\\n\\r\\t\\0\u{1}\u{1b}\u{7f}\u{85}\u{feff}é漢🦀\u{2028}\u{2029}]{0,400}";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sign_verify_round_trips(
        secret in "[ -~]{1,40}",
        access in "[ -~]{1,40}",
        body in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        let sig = sign_request(&secret, &access, &body);
        prop_assert!(verify_request(&secret, &access, &body, &sig));
    }

    #[test]
    fn any_body_tamper_breaks_the_signature(
        secret in "[a-zA-Z0-9]{10,30}",
        body in prop::collection::vec(any::<u8>(), 1..100),
        flip in any::<u64>(),
    ) {
        let sig = sign_request(&secret, "AK", &body);
        let mut tampered = body.clone();
        let idx = (flip as usize) % tampered.len();
        tampered[idx] ^= 1 << (flip % 8);
        prop_assert!(!verify_request(&secret, "AK", &tampered, &sig));
    }

    #[test]
    fn different_secrets_never_collide(
        s1 in "[a-z]{8,20}",
        s2 in "[a-z]{8,20}",
        body in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        prop_assume!(s1 != s2);
        prop_assert_ne!(sign_request(&s1, "AK", &body), sign_request(&s2, "AK", &body));
    }

    #[test]
    fn hmac_incremental_key_lengths(key in prop::collection::vec(any::<u8>(), 0..200)) {
        // Keys shorter, equal to and longer than the block size all work
        // and are deterministic.
        let a = hmac_sha256(&key, b"msg");
        let b = hmac_sha256(&key, b"msg");
        prop_assert_eq!(a, b);
        prop_assert_ne!(hmac_sha256(&key, b"msg"), hmac_sha256(&key, b"other"));
    }

    #[test]
    fn profile_round_trips(
        user in "[a-zA-Z0-9_-]{1,20}",
        access in "[a-zA-Z0-9-]{1,30}",
        secret in "[a-zA-Z0-9-]{1,30}",
    ) {
        let creds = Credentials {
            user_name: user,
            access_key: access,
            secret_key: secret,
        };
        let parsed = Credentials::from_profile(&creds.to_profile()).expect("round trip");
        prop_assert_eq!(parsed, creds);
    }

    #[test]
    fn roster_round_trips(
        rows in prop::collection::vec(
            ("[A-Z][a-z]{1,8}", "[A-Z][a-z]{1,8}", "[a-z][a-z0-9]{1,10}"),
            0..20,
        )
    ) {
        // Unique user ids.
        let mut seen = std::collections::HashSet::new();
        let mut csv = String::new();
        let mut expected = 0;
        for (f, l, u) in &rows {
            if seen.insert(u.clone()) {
                csv.push_str(&format!("{f},{l},{u}\n"));
                expected += 1;
            }
        }
        let roster = Roster::parse(&csv).expect("valid roster");
        prop_assert_eq!(roster.len(), expected);
        let again = Roster::parse(&roster.to_csv()).expect("round trip");
        prop_assert_eq!(again, roster);
    }

    #[test]
    fn roster_parser_never_panics(csv in TEXT) {
        let _ = Roster::parse(&csv);
    }

    #[test]
    fn profile_parser_never_panics(text in TEXT) {
        let _ = Credentials::from_profile(&text);
    }
}
