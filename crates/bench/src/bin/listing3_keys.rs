//! Regenerates **Listing 3**: the key-generation-and-delivery flow —
//! roster CSV in, per-student credentials out, templated e-mails
//! rendered.
//!
//! ```text
//! cargo run --release -p rai-bench --bin listing3_keys
//! ```

use rai_auth::{render_key_email, Credentials, KeyGenerator, Roster};

fn main() {
    let csv = "\
firstname,lastname,userid
Ada,Lovelace,alovelace
Alan,Turing,aturing
Grace,Hopper,ghopper
";
    let roster = Roster::parse(csv).expect("roster parses");
    let mut keygen = KeyGenerator::from_seed(2016);

    rai_bench::header("Listing 3 — authentication e-mails from the class roster");
    let mut first_email_body = String::new();
    for entry in &roster.entries {
        let creds = keygen.generate(&entry.user_id);
        let mail = render_key_email(entry, &creds, "illinois.edu");
        println!("To: {}\nSubject: {}\n", mail.to, mail.subject);
        if first_email_body.is_empty() {
            first_email_body = mail.body.clone();
            println!("{}", mail.body);
            println!("--- (remaining {} e-mails elided) ---\n", roster.len() - 1);
        }
    }

    rai_bench::header("paper vs measured");
    println!("  roster format   paper: {{firstname,lastname,userid}} CSV   measured: same");
    println!("  tokens          paper: RAI_USER_NAME / RAI_ACCESS_KEY / RAI_SECRET_KEY");
    let parsed = Credentials::from_profile(&first_email_body).expect("profile embedded in e-mail");
    println!("  e-mail profile parses back: access key {} chars", parsed.access_key.len());
    assert_eq!(parsed.access_key.len(), 26, "paper keys are 26 chars");
}
