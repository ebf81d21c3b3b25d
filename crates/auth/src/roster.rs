//! Class-roster parsing. "The tool takes as input the class roster, a
//! comma separated file of the form `{firstname,lastname,userid}`"
//! (paper §VI).

/// One roster row.
pub struct RosterEntry {
    /// Student's first name.
    pub(crate) first_name: String,
    /// Student's last name.
    pub(crate) last_name: String,
    /// Unique user id (e-mail local part at UIUC).
    pub user_id: String,
}

impl RosterEntry {
    /// `FirstName LastName` as used in the e-mail salutation.
    pub(crate) fn full_name(&self) -> String {
        format!("{} {}", self.first_name, self.last_name)
    }

    /// Delivery address (`userid@illinois.edu`-style).
    pub(crate) fn email(&self, domain: &str) -> String {
        format!("{}@{}", self.user_id, domain)
    }
}

/// A parsed class roster.
pub struct Roster {
    /// Entries in file order.
    pub entries: Vec<RosterEntry>,
}

/// Roster parse error.
#[derive(Debug)]
pub enum RosterError {
    /// A line did not have exactly three fields.
    BadLine { line: usize, content: String },
    /// Two rows shared a user id.
    DuplicateUserId { line: usize, user_id: String },
    /// A field was empty.
    EmptyField { line: usize, field: &'static str },
}

impl std::fmt::Display for RosterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RosterError::BadLine { line, content } => {
                write!(f, "roster line {line}: expected 3 comma-separated fields, got {content:?}")
            }
            RosterError::DuplicateUserId { line, user_id } => {
                write!(f, "roster line {line}: duplicate user id {user_id:?}")
            }
            RosterError::EmptyField { line, field } => {
                write!(f, "roster line {line}: empty {field}")
            }
        }
    }
}

impl Roster {
    /// Parse CSV text. Blank lines and `#` comments are skipped; an
    /// optional `firstname,lastname,userid` header row is skipped too.
    pub fn parse(csv: &str) -> Result<Roster, RosterError> {
        let mut entries = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for (i, raw) in csv.lines().enumerate() {
            let line_no = i + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if i == 0 && line.to_ascii_lowercase().replace(' ', "") == "firstname,lastname,userid" {
                continue;
            }
            let fields: Vec<&str> = line.split(',').map(str::trim).collect();
            if fields.len() != 3 {
                return Err(RosterError::BadLine {
                    line: line_no,
                    content: raw.to_string(),
                });
            }
            for (field, name) in fields.iter().zip(["firstname", "lastname", "userid"]) {
                if field.is_empty() {
                    return Err(RosterError::EmptyField {
                        line: line_no,
                        field: name,
                    });
                }
            }
            if !seen.insert(fields[2].to_string()) {
                return Err(RosterError::DuplicateUserId {
                    line: line_no,
                    user_id: fields[2].to_string(),
                });
            }
            entries.push(RosterEntry {
                first_name: fields[0].to_string(),
                last_name: fields[1].to_string(),
                user_id: fields[2].to_string(),
            });
        }
        Ok(Roster { entries })
    }

    /// Number of students.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the roster is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "firstname,lastname,userid\nAda,Lovelace,alovelace\nAlan,Turing,aturing\n";

    #[test]
    fn parses_with_header() {
        let r = Roster::parse(SAMPLE).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.entries[0].full_name(), "Ada Lovelace");
        assert_eq!(r.entries[1].email("illinois.edu"), "aturing@illinois.edu");
    }

    #[test]
    fn parses_without_header() {
        let r = Roster::parse("Ada,Lovelace,alovelace\n").unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn skips_blanks_and_comments() {
        let r = Roster::parse("# class of 2016\n\nAda,Lovelace,alovelace\n\n").unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn rejects_bad_lines() {
        assert!(matches!(
            Roster::parse("Ada,Lovelace\n"),
            Err(RosterError::BadLine { line: 1, .. })
        ));
        assert!(matches!(
            Roster::parse("Ada,,alovelace\n"),
            Err(RosterError::EmptyField { field: "lastname", .. })
        ));
        assert!(matches!(
            Roster::parse("A,B,x\nC,D,x\n"),
            Err(RosterError::DuplicateUserId { line: 2, .. })
        ));
    }
}
