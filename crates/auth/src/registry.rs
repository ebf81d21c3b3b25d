//! The server-side credential registry: workers look up the secret for
//! an access key to verify a job's signature, and the staff tooling
//! registers/revokes keys as the roster changes.

use crate::keys::Credentials;
use crate::signing::HmacKey;
use std::collections::HashMap;

/// Authentication failure.
#[derive(Debug, PartialEq, Eq)]
pub enum AuthError {
    /// Access key is not registered (not in the course).
    UnknownAccessKey(String),
    /// Key exists but the signature did not verify.
    BadSignature { access_key: String },
    /// Key was revoked (dropped the course, academic-integrity hold).
    Revoked { access_key: String },
}

impl std::fmt::Display for AuthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuthError::UnknownAccessKey(k) => write!(f, "unknown access key {k:?}"),
            AuthError::BadSignature { access_key } => {
                write!(f, "bad signature for access key {access_key:?}")
            }
            AuthError::Revoked { access_key } => write!(f, "revoked access key {access_key:?}"),
        }
    }
}

/// What the registry keeps of issued credentials, under their access
/// key: the user name `authenticate` answers with, and the secret
/// scheduled once into an HMAC key (the plaintext is not kept).
struct Entry {
    user_name: String,
    key: HmacKey,
    revoked: bool,
}

/// Registry of issued credentials.
#[derive(Default)]
pub struct CredentialRegistry {
    by_access_key: HashMap<String, Entry>,
}

impl CredentialRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register newly issued credentials (replacing any previous entry
    /// for the same access key).
    pub fn register(&mut self, creds: Credentials) {
        let Credentials { user_name, access_key, secret_key } = creds;
        let key = HmacKey::new(secret_key.as_bytes());
        self.by_access_key.insert(access_key, Entry { user_name, key, revoked: false });
    }

    /// Revoke an access key; returns whether it existed.
    pub fn revoke(&mut self, access_key: &str) -> bool {
        match self.by_access_key.get_mut(access_key) {
            Some(e) => {
                e.revoked = true;
                true
            }
            None => false,
        }
    }

    /// Verify a signed request; returns the authenticated user name.
    pub fn authenticate(
        &self,
        access_key: &str,
        body: &[u8],
        signature: &str,
    ) -> Result<&str, AuthError> {
        let entry = self
            .by_access_key
            .get(access_key)
            .ok_or_else(|| AuthError::UnknownAccessKey(access_key.to_string()))?;
        if entry.revoked {
            return Err(AuthError::Revoked {
                access_key: access_key.to_string(),
            });
        }
        if !entry.key.verify(access_key, body, signature) {
            return Err(AuthError::BadSignature {
                access_key: access_key.to_string(),
            });
        }
        Ok(&entry.user_name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyGenerator;
    use crate::signing::sign_request;

    fn setup() -> (CredentialRegistry, Credentials) {
        let mut reg = CredentialRegistry::new();
        let creds = KeyGenerator::from_seed(11).generate("team-x");
        reg.register(creds.clone());
        (reg, creds)
    }

    #[test]
    fn authenticate_valid_request() {
        let (reg, creds) = setup();
        let sig = sign_request(&creds.secret_key, &creds.access_key, b"payload");
        assert_eq!(
            reg.authenticate(&creds.access_key, b"payload", &sig).unwrap(),
            "team-x"
        );
    }

    #[test]
    fn unknown_key_rejected() {
        let (reg, creds) = setup();
        let sig = sign_request(&creds.secret_key, "ghost", b"p");
        assert!(matches!(
            reg.authenticate("ghost", b"p", &sig),
            Err(AuthError::UnknownAccessKey(_))
        ));
    }

    #[test]
    fn tampered_body_rejected() {
        let (reg, creds) = setup();
        let sig = sign_request(&creds.secret_key, &creds.access_key, b"payload");
        assert!(matches!(
            reg.authenticate(&creds.access_key, b"other", &sig),
            Err(AuthError::BadSignature { .. })
        ));
    }

    #[test]
    fn revocation() {
        let (mut reg, creds) = setup();
        assert!(reg.revoke(&creds.access_key));
        assert!(!reg.revoke("ghost"));
        let sig = sign_request(&creds.secret_key, &creds.access_key, b"p");
        assert!(matches!(
            reg.authenticate(&creds.access_key, b"p", &sig),
            Err(AuthError::Revoked { .. })
        ));
    }

    #[test]
    fn reregister_clears_revocation() {
        let (mut reg, creds) = setup();
        reg.revoke(&creds.access_key);
        reg.register(creds.clone());
        let sig = sign_request(&creds.secret_key, &creds.access_key, b"p");
        assert_eq!(reg.authenticate(&creds.access_key, b"p", &sig), Ok("team-x"));
    }
}
