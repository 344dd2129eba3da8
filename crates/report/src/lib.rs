//! # hpcarbon-report
//!
//! Regenerates every table and figure of the paper's evaluation as
//! plain-text charts plus machine-readable CSV:
//!
//! | Artifact | Function | Paper section |
//! |----------|----------|---------------|
//! | Table 1–5 | [`tables::table1`] … [`tables::table5`] | §2 |
//! | Table 6 | [`tables::table6`] | §5 |
//! | Fig. 1–3 | [`figures::fig1`] … [`figures::fig3`] | §3 RQ1–2 |
//! | Fig. 4 | [`figures::fig4`] | §3 RQ3 |
//! | Fig. 5 | [`figures::fig5`] | §3 RQ4 |
//! | Fig. 6–7 | [`figures::fig6`], [`figures::fig7`] | §4 RQ5–6 |
//! | Fig. 8–9 | [`figures::fig8`], [`figures::fig9`] | §5 RQ7–8 |
//!
//! Each function returns an [`artifact::Artifact`] holding a rendered
//! text panel and CSV series; [`render_all`] produces the full set
//! (`hpcarbon figures` writes them to disk).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod charts;
pub mod emit;
pub mod figures;
pub mod tables;

pub use artifact::Artifact;

/// Renders every paper artifact (6 tables + 9 figures). `seed` drives the
/// grid simulation behind Figs. 6 and 7.
pub fn render_all(seed: u64) -> Vec<Artifact> {
    vec![
        tables::table1(),
        tables::table2(),
        tables::table3(),
        tables::table4(),
        tables::table5(),
        tables::table6(),
        figures::fig1(),
        figures::fig2(),
        figures::fig3(),
        figures::fig4(),
        figures::fig5(),
        figures::fig6(seed),
        figures::fig7(seed),
        figures::fig8(),
        figures::fig9(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_all_fifteen_artifacts() {
        let all = render_all(2021);
        assert_eq!(all.len(), 15);
        let mut ids: Vec<&str> = all.iter().map(|a| a.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 15, "artifact ids must be unique");
        for a in &all {
            assert!(!a.text.is_empty(), "{} has empty text", a.id);
            assert!(!a.csv.is_empty(), "{} has empty csv", a.id);
        }
    }
}
