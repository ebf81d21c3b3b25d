//! Credential generation and `.rai.profile` serialization.
//!
//! The paper's Listing 3 shows the delivered form:
//!
//! ```text
//! RAI_USER_NAME='myusername'
//! RAI_ACCESS_KEY='BsqJuFUI2ZtK4g1aLXf-OjmML6'
//! RAI_SECRET_KEY='tU08PuKhtR9qozBNn33RcH7p5A'
//! ```

use rand::distributions::Distribution;
use rand::SeedableRng;

/// Alphabet used for keys: URL-safe alphanumerics plus `-`, matching the
/// shape of the keys in the paper.
const KEY_ALPHABET: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-";
/// Key length from Listing 3.
const KEY_LEN: usize = 26;

/// A student's (or team's) credential triple.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Credentials {
    /// `RAI_USER_NAME`.
    pub user_name: String,
    /// `RAI_ACCESS_KEY` — public identifier sent with every request.
    pub access_key: String,
    /// `RAI_SECRET_KEY` — signing key, never sent on the wire.
    pub secret_key: String,
}

impl Credentials {
    /// Render as the `$HOME/.rai.profile` file contents.
    pub fn to_profile(&self) -> String {
        format!(
            "RAI_USER_NAME='{}'\nRAI_ACCESS_KEY='{}'\nRAI_SECRET_KEY='{}'\n",
            self.user_name, self.access_key, self.secret_key
        )
    }

    /// Parse a `.rai.profile` file (quoted `KEY='value'` lines; unknown
    /// lines are ignored, as students do edit these files).
    pub fn from_profile(text: &str) -> Option<Credentials> {
        let mut user = None;
        let mut access = None;
        let mut secret = None;
        for line in text.lines() {
            let line = line.trim();
            let Some((k, v)) = line.split_once('=') else {
                continue;
            };
            let v = v.trim().trim_matches('\'').trim_matches('"').to_string();
            match k.trim() {
                "RAI_USER_NAME" => user = Some(v),
                "RAI_ACCESS_KEY" => access = Some(v),
                "RAI_SECRET_KEY" => secret = Some(v),
                _ => {}
            }
        }
        Some(Credentials {
            user_name: user?,
            access_key: access?,
            secret_key: secret?,
        })
    }
}

/// Deterministic (seedable) key generator used by the staff tooling.
pub struct KeyGenerator {
    rng: rand::rngs::StdRng,
}

impl KeyGenerator {
    /// Seeded generator — deterministic for tests and reproducible runs.
    pub fn from_seed(seed: u64) -> Self {
        KeyGenerator {
            rng: rand::rngs::StdRng::seed_from_u64(seed),
        }
    }

    fn key(&mut self) -> String {
        let dist = rand::distributions::Uniform::new(0, KEY_ALPHABET.len());
        (0..KEY_LEN)
            .map(|_| KEY_ALPHABET[dist.sample(&mut self.rng)] as char)
            .collect()
    }

    /// Generate a credential triple for `user_name`.
    pub fn generate(&mut self, user_name: &str) -> Credentials {
        Credentials {
            user_name: user_name.to_string(),
            access_key: self.key(),
            secret_key: self.key(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn keys_have_paper_shape() {
        let mut g = KeyGenerator::from_seed(1);
        let c = g.generate("student1");
        assert_eq!(c.access_key.len(), KEY_LEN);
        assert_eq!(c.secret_key.len(), KEY_LEN);
        assert!(c
            .access_key
            .bytes()
            .all(|b| KEY_ALPHABET.contains(&b)));
        assert_ne!(c.access_key, c.secret_key);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = KeyGenerator::from_seed(42).generate("x");
        let b = KeyGenerator::from_seed(42).generate("x");
        assert_eq!(a, b);
        let c = KeyGenerator::from_seed(43).generate("x");
        assert_ne!(a, c);
    }

    #[test]
    fn no_collisions_across_class() {
        // 176 students, 2 keys each: all distinct.
        let mut g = KeyGenerator::from_seed(7);
        let mut seen = HashSet::new();
        for i in 0..176 {
            let c = g.generate(&format!("student{i}"));
            assert!(seen.insert(c.access_key));
            assert!(seen.insert(c.secret_key));
        }
    }

    #[test]
    fn profile_round_trip() {
        let c = KeyGenerator::from_seed(9).generate("myusername");
        let text = c.to_profile();
        assert!(text.contains("RAI_USER_NAME='myusername'"));
        let back = Credentials::from_profile(&text).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn profile_parse_tolerates_noise_and_double_quotes() {
        let text = "# my profile\nexport PATH=/bin\nRAI_USER_NAME=\"u\"\nRAI_ACCESS_KEY='a'\nRAI_SECRET_KEY='s'\n";
        let c = Credentials::from_profile(text).unwrap();
        assert_eq!(c.user_name, "u");
        assert_eq!(c.access_key, "a");
    }

    #[test]
    fn profile_parse_missing_field_fails() {
        assert!(Credentials::from_profile("RAI_USER_NAME='u'\n").is_none());
    }
}
