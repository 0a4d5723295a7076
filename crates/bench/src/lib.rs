//! Shared helpers for the benchmark / figure-regeneration harness.
//!
//! The real content of this crate is its binaries (`src/bin/*.rs`), one per
//! table or figure of the paper, and its criterion benches (`benches/`).
//! README's "Reproducing the paper's artifacts" table maps each artifact
//! to its command.

/// Formats a floating period like the paper (one decimal).
pub fn fmt_period(p: f64) -> String {
    format!("{p:.1}")
}

/// Relative difference `|a − b| / max(|a|, |b|)`.
pub fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_matches_paper_style() {
        assert_eq!(fmt_period(215.8333), "215.8");
        assert_eq!(fmt_period(291.6666), "291.7");
    }

    #[test]
    fn rel_diff_symmetry() {
        assert_eq!(rel_diff(1.0, 2.0), rel_diff(2.0, 1.0));
        assert!(rel_diff(0.0, 0.0) == 0.0);
    }
}
