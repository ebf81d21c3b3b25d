//! The qualitative feature model behind Table I (paper §III).
//!
//! "Existing programming and submission systems currently used do not
//! afford the reconfigurability, isolation, scalability, accessibility,
//! and uniformity needed for large open-ended programming exercises."

use std::fmt;

/// The five dimensions of Table I.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dimension {
    /// Can students reconfigure the environment (toolchains, build
    /// systems, profilers)?
    Configurability,
    /// Are student workloads isolated from each other?
    Isolation,
    /// Does the system scale to thousands of concurrent users?
    Scalability,
    /// Can remote (MOOC) students reach it with esoteric hardware?
    Accessibility,
    /// Is evaluation uniform across submissions?
    TestingUniformity,
}

/// All dimensions, in the paper's column order.
pub const DIMENSIONS: [Dimension; 5] = [
    Dimension::Configurability,
    Dimension::Isolation,
    Dimension::Scalability,
    Dimension::Accessibility,
    Dimension::TestingUniformity,
];

impl Dimension {
    /// Column header.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Dimension::Configurability => "Configurability",
            Dimension::Isolation => "Isolation",
            Dimension::Scalability => "Scalability",
            Dimension::Accessibility => "Accessibility",
            Dimension::TestingUniformity => "Testing Uniformity",
        }
    }
}

/// A row of Table I.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SystemProfile {
    /// System name.
    pub name: &'static str,
    /// Feature support, aligned with [`DIMENSIONS`].
    pub features: [bool; 5],
    /// One-line rationale, from the paper's §III discussion.
    pub(crate) rationale: &'static str,
}

impl SystemProfile {
    /// Whether the system supports a dimension.
    #[cfg(test)]
    fn supports(&self, d: Dimension) -> bool {
        let idx = DIMENSIONS.iter().position(|&x| x == d).expect("d is in DIMENSIONS");
        self.features[idx]
    }
}

/// Table I, row for row.
pub fn table1() -> Vec<SystemProfile> {
    vec![
        SystemProfile {
            name: "Student-Provided",
            features: [true, true, true, false, false],
            rationale: "students' own machines: fully flexible but 70% lacked a CUDA GPU, and environments diverge",
        },
        SystemProfile {
            name: "Torque/PBS",
            features: [true, true, true, true, false],
            rationale: "batch cluster queues oversubscribe near deadlines and leave evaluation uniformity to course staff",
        },
        SystemProfile {
            name: "WebGPU",
            features: [false, true, true, true, true],
            rationale: "web IDE for weekly labs; hides system configuration and advanced profiling/debugging tools",
        },
        SystemProfile {
            name: "Jenkins",
            features: [true, true, true, false, true],
            rationale: "CI servers run per-commit builds but are not student-facing and cannot run GPU/FPGA code",
        },
        SystemProfile {
            name: "QwikLabs",
            features: [false, true, true, true, false],
            rationale: "hosted lab sandboxes: accessible and isolated but fixed-configuration, no uniform grading hooks",
        },
        SystemProfile {
            name: "RAI",
            features: [true, true, true, true, true],
            rationale: "whitelisted containers give full configurability; broker+elastic workers scale; enforced final build file gives uniformity",
        },
    ]
}

/// Render the comparison as the paper's check/cross matrix.
pub fn render_table1() -> String {
    let rows = table1();
    let mut out = String::new();
    out.push_str(&format!("{:<18}", "System"));
    for d in DIMENSIONS {
        out.push_str(&format!(" {:<19}", d.label()));
    }
    out.push('\n');
    for row in &rows {
        out.push_str(&format!("{:<18}", row.name));
        for (i, _) in DIMENSIONS.iter().enumerate() {
            out.push_str(&format!(
                " {:<19}",
                if row.features[i] { "yes" } else { "no" }
            ));
        }
        out.push('\n');
    }
    out
}

impl fmt::Display for SystemProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.name, self.rationale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_rai_supports_everything() {
        let rows = table1();
        let full: Vec<&str> = rows
            .iter()
            .filter(|r| r.features.iter().all(|&f| f))
            .map(|r| r.name)
            .collect();
        assert_eq!(full, vec!["RAI"]);
    }

    #[test]
    fn matches_paper_cells() {
        let rows = table1();
        let get = |name: &str| rows.iter().find(|r| r.name == name).unwrap().clone();
        // Spot-check the ✓/✗ cells of Table I.
        assert!(!get("Student-Provided").supports(Dimension::Accessibility));
        assert!(!get("Student-Provided").supports(Dimension::TestingUniformity));
        assert!(get("Torque/PBS").supports(Dimension::Accessibility));
        assert!(!get("Torque/PBS").supports(Dimension::TestingUniformity));
        assert!(!get("WebGPU").supports(Dimension::Configurability));
        assert!(get("WebGPU").supports(Dimension::TestingUniformity));
        assert!(!get("Jenkins").supports(Dimension::Accessibility));
        assert!(!get("QwikLabs").supports(Dimension::Configurability));
        assert!(!get("QwikLabs").supports(Dimension::TestingUniformity));
    }

    #[test]
    fn render_has_all_rows_and_columns() {
        let t = render_table1();
        assert_eq!(t.lines().count(), 7, "header + six systems");
        for name in ["Student-Provided", "Torque/PBS", "WebGPU", "Jenkins", "QwikLabs", "RAI"] {
            assert!(t.contains(name));
        }
        for d in DIMENSIONS {
            assert!(t.contains(d.label()));
        }
    }
}
