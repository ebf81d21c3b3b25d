//! HMAC-SHA256 request signing (RFC 2104 over `crate::sha256`).
//!
//! The RAI client authenticates each job message by signing a canonical
//! request string with `RAI_SECRET_KEY`; workers verify against the
//! registry before running anything.

use crate::sha256::{hex, hex_digits, sha256, Sha256};

/// The canonical request's version line.
const VERSION: &str = "rai-v1\n";

const BLOCK: usize = 64;

/// A key scheduled for HMAC-SHA256: the hasher states after its inner
/// and outer padded blocks. Scheduling costs the two compressions (and,
/// for a key over 64 bytes, the hash of the key) that every MAC under
/// the key would otherwise repeat, so a signer that holds its secret
/// (the registry per credential, a client per team) schedules it once.
#[derive(Clone)]
pub struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl HmacKey {
    /// Schedule `key`.
    pub fn new(key: &[u8]) -> Self {
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
        let (mut inner, mut outer) = (Sha256::new(), Sha256::new());
        inner.update(&ipad);
        outer.update(&opad);
        HmacKey { inner, outer }
    }

    /// HMAC-SHA256 of the message `parts` make in order, under this
    /// key.
    fn mac_parts(&self, parts: &[&[u8]]) -> [u8; 32] {
        let mut inner = self.inner.clone();
        for part in parts {
            inner.update(part);
        }
        let inner_digest = inner.finalize();
        let mut outer = self.outer.clone();
        outer.update(&inner_digest);
        outer.finalize()
    }

    /// HMAC-SHA256 of `message` under this key.
    pub(crate) fn mac(&self, message: &[u8]) -> [u8; 32] {
        self.mac_parts(&[message])
    }

    /// [`sign_request`] under this key: the MAC of the canonical
    /// request `rai-v1 \n access_key \n body-hash`, fed to the hasher
    /// piece by piece.
    pub fn sign(&self, access_key: &str, body: &[u8]) -> String {
        let body_hash = hex_digits(&sha256(body));
        let parts = [VERSION.as_bytes(), access_key.as_bytes(), b"\n", &body_hash];
        hex(&self.mac_parts(&parts))
    }

    /// [`verify_request`] under this key.
    pub(crate) fn verify(&self, access_key: &str, body: &[u8], signature: &str) -> bool {
        constant_time_eq(self.sign(access_key, body).as_bytes(), signature.as_bytes())
    }
}

/// HMAC-SHA256 of `message` under `key`.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    HmacKey::new(key).mac(message)
}

/// Sign a canonical request `access_key \n body-hash` with the secret;
/// returns a lowercase hex signature.
pub fn sign_request(secret_key: &str, access_key: &str, body: &[u8]) -> String {
    HmacKey::new(secret_key.as_bytes()).sign(access_key, body)
}

/// Verify a signature produced by [`sign_request`]. Constant-time
/// comparison over the hex strings.
pub fn verify_request(secret_key: &str, access_key: &str, body: &[u8], signature: &str) -> bool {
    HmacKey::new(secret_key.as_bytes()).verify(access_key, body, signature)
}

/// The canonical request [`HmacKey::sign`] MACs, whole: the tests'
/// reference.
#[cfg(test)]
fn canonical_request(access_key: &str, body: &[u8]) -> String {
    use crate::sha256::push_hex;
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

    /// The MAC of `message` under `key` by the one-shot function and by
    /// a key scheduled once and used twice: all three the same.
    fn both_paths(key: &[u8], message: &[u8]) -> String {
        let once = hmac_sha256(key, message);
        let scheduled = HmacKey::new(key);
        assert_eq!(scheduled.mac(message), once);
        assert_eq!(scheduled.mac(message), once, "a scheduled key is not used up");
        hex(&once)
    }

    #[test]
    fn rfc4231_test_case_1() {
        // RFC 4231 HMAC-SHA256 test case 1.
        let key = [0x0bu8; 20];
        assert_eq!(
            both_paths(&key, b"Hi There"),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_test_case_2() {
        assert_eq!(
            both_paths(b"Jefe", b"what do ya want for nothing?"),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_long_key() {
        // Test case 6: 131-byte key (forces the hash-the-key path).
        let key = [0xaau8; 131];
        assert_eq!(
            both_paths(&key, b"Test Using Larger Than Block-Size Key - Hash Key First"),
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
    fn a_signature_is_the_mac_of_the_whole_canonical_request() {
        let key = HmacKey::new(b"tU08PuKhtR9qozBNn33RcH7p5A");
        for (access_key, body) in [("BsqJuFUI2ZtK4g1aLXf-OjmML6", &b"job body"[..]), ("", b""), ("a\nb", &[0xFF; 200])] {
            let whole = hex(&key.mac(canonical_request(access_key, body).as_bytes()));
            assert_eq!(key.sign(access_key, body), whole);
            assert_eq!(sign_request("tU08PuKhtR9qozBNn33RcH7p5A", access_key, body), whole);
        }
    }

    #[test]
    fn signature_is_hex64() {
        let sig = sign_request("s", "a", b"");
        assert_eq!(sig.len(), 64);
        assert!(sig.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
