//! HMAC-SHA256 request signing (RFC 2104 over [`crate::sha256`]).
//!
//! The RAI client authenticates each job message by signing a canonical
//! request string with `RAI_SECRET_KEY`; workers verify against the
//! registry before running anything.

use crate::sha256::{hex, push_hex, sha256, Sha256};

const BLOCK: usize = 64;

/// HMAC-SHA256 of `message` under `key`.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    let mut key_block = [0u8; BLOCK];
    if key.len() > BLOCK {
        key_block[..32].copy_from_slice(&sha256(key));
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    let mut ipad = [0x36u8; BLOCK];
    let mut opad = [0x5cu8; BLOCK];
    for i in 0..BLOCK {
        ipad[i] ^= key_block[i];
        opad[i] ^= key_block[i];
    }
    let mut inner = Sha256::new();
    inner.update(&ipad).update(message);
    let inner_digest = inner.finalize();
    let mut outer = Sha256::new();
    outer.update(&opad).update(&inner_digest);
    outer.finalize()
}

/// Sign a canonical request `access_key \n body-hash` with the secret;
/// returns a lowercase hex signature.
pub fn sign_request(secret_key: &str, access_key: &str, body: &[u8]) -> String {
    let canonical = canonical_request(access_key, body);
    hex(&hmac_sha256(secret_key.as_bytes(), canonical.as_bytes()))
}

/// Verify a signature produced by [`sign_request`]. Constant-time
/// comparison over the hex strings.
pub fn verify_request(secret_key: &str, access_key: &str, body: &[u8], signature: &str) -> bool {
    let expected = sign_request(secret_key, access_key, body);
    constant_time_eq(expected.as_bytes(), signature.as_bytes())
}

fn canonical_request(access_key: &str, body: &[u8]) -> String {
    const VERSION: &str = "rai-v1\n";
    let mut out = String::with_capacity(VERSION.len() + access_key.len() + 1 + 64);
    out.push_str(VERSION);
    out.push_str(access_key);
    out.push('\n');
    push_hex(&mut out, &sha256(body));
    out
}

fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc4231_test_case_1() {
        // RFC 4231 HMAC-SHA256 test case 1.
        let key = [0x0bu8; 20];
        let mac = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_test_case_2() {
        let mac = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_long_key() {
        // Test case 6: 131-byte key (forces the hash-the-key path).
        let key = [0xaau8; 131];
        let mac = hmac_sha256(&key, b"Test Using Larger Than Block-Size Key - Hash Key First");
        assert_eq!(
            hex(&mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn sign_verify_round_trip() {
        let sig = sign_request("tU08PuKhtR9qozBNn33RcH7p5A", "BsqJuFUI2ZtK4g1aLXf-OjmML6", b"job body");
        assert!(verify_request(
            "tU08PuKhtR9qozBNn33RcH7p5A",
            "BsqJuFUI2ZtK4g1aLXf-OjmML6",
            b"job body",
            &sig
        ));
        // Wrong secret, wrong body, wrong access key, truncated sig: all fail.
        assert!(!verify_request("wrong", "BsqJuFUI2ZtK4g1aLXf-OjmML6", b"job body", &sig));
        assert!(!verify_request("tU08PuKhtR9qozBNn33RcH7p5A", "BsqJuFUI2ZtK4g1aLXf-OjmML6", b"tampered", &sig));
        assert!(!verify_request("tU08PuKhtR9qozBNn33RcH7p5A", "other-key", b"job body", &sig));
        assert!(!verify_request("tU08PuKhtR9qozBNn33RcH7p5A", "BsqJuFUI2ZtK4g1aLXf-OjmML6", b"job body", &sig[..10]));
    }

    #[test]
    fn signature_is_hex64() {
        let sig = sign_request("s", "a", b"");
        assert_eq!(sig.len(), 64);
        assert!(sig.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
