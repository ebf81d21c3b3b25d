//! # rai-auth — authentication and key delivery (paper §V, §VI)
//!
//! "To prevent RAI resources from being consumed by people who are not
//! registered for the course, each student is required to have an
//! authorization key." The teaching staff generate per-student
//! access/secret key pairs from the class roster and e-mail them with a
//! templated message (paper Listing 3); the client signs requests with
//! the secret key and the worker verifies them.
//!
//! * [`keys`] — credential generation in the paper's 26-character
//!   format, plus the `.rai.profile` serialization.
//! * [`sha256`] — from-scratch SHA-256 (FIPS 180-4).
//! * [`signing`] — HMAC-SHA256 request signing and verification.
//! * [`roster`] — the `{firstname,lastname,userid}` CSV the key-mailer
//!   tool consumes.
//! * [`email`] — the Listing 3 e-mail template.
//! * [`registry`] — the server-side credential registry used by workers
//!   to check submissions.

#![forbid(unsafe_code)]

pub mod email;
pub mod keys;
pub mod registry;
pub mod roster;
pub mod sha256;
pub mod signing;

pub use email::render_key_email;
pub use keys::{Credentials, KeyGenerator};
pub use registry::{AuthError, CredentialRegistry};
pub use roster::{Roster, RosterEntry, RosterError};
pub use signing::{hmac_sha256, sign_request, verify_request};
