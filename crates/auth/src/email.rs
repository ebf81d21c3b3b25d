//! The key-delivery e-mail (paper Listing 3).

use crate::keys::Credentials;
use crate::roster::RosterEntry;

/// A rendered e-mail ready for the (simulated) mailer.
pub struct KeyEmail {
    /// Recipient address.
    pub to: String,
    /// Subject line.
    pub subject: String,
    /// Body, rendered from the Listing 3 template.
    pub body: String,
}

/// Render the authentication e-mail for one student, matching the
/// paper's Listing 3 (abbreviated template plus download instructions).
pub fn render_key_email(entry: &RosterEntry, creds: &Credentials, email_domain: &str) -> KeyEmail {
    let body = format!(
        "Hello {full_name},\n\
         \n\
         For the Applied Parallel Programming project,\n\
         we will not be using WebGPU. The RAI submission\n\
         requires authentication tokens to be present\n\
         in your $HOME/.rai.profile (Linux/OSX) or\n\
         %HOME%/.rai.profile (Windows) file.\n\
         \n\
         The following are your tokens:\n\
         \n\
         {profile}\
         \n\
         Download the RAI client for your platform from the project\n\
         website and place the tokens above in your profile file before\n\
         running `rai submit`.\n",
        full_name = entry.full_name(),
        profile = creds.to_profile(),
    );
    KeyEmail {
        to: entry.email(email_domain),
        subject: "Your RAI credentials for the Applied Parallel Programming project".to_string(),
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyGenerator;

    fn sample() -> (RosterEntry, Credentials) {
        let entry = RosterEntry {
            first_name: "Ada".into(),
            last_name: "Lovelace".into(),
            user_id: "alovelace".into(),
        };
        let creds = KeyGenerator::from_seed(5).generate("alovelace");
        (entry, creds)
    }

    #[test]
    fn renders_listing3_shape() {
        let (entry, creds) = sample();
        let mail = render_key_email(&entry, &creds, "illinois.edu");
        assert_eq!(mail.to, "alovelace@illinois.edu");
        assert!(mail.body.starts_with("Hello Ada Lovelace,"));
        assert!(mail.body.contains("we will not be using WebGPU"));
        assert!(mail.body.contains("$HOME/.rai.profile"));
        assert!(mail.body.contains(&format!("RAI_ACCESS_KEY='{}'", creds.access_key)));
        assert!(mail.body.contains(&format!("RAI_SECRET_KEY='{}'", creds.secret_key)));
    }

    #[test]
    fn profile_in_email_parses_back() {
        let (entry, creds) = sample();
        let mail = render_key_email(&entry, &creds, "illinois.edu");
        let parsed = Credentials::from_profile(&mail.body).unwrap();
        assert_eq!(parsed, creds);
    }
}
