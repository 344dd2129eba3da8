//! Life-cycle total — Eq. 1 of the paper.
//!
//! `C_total = C_em + C_op`. Embodied carbon is paid up front while
//! operational carbon accrues over the service life; the paper's RQ7/RQ8
//! upgrade analysis (implemented in `hpcarbon-upgrade`) weighs the two.
//! Like the paper, embodied carbon counts production only: transport and
//! end-of-life stages are not modeled.

use hpcarbon_units::CarbonMass;

/// Eq. 1: total carbon footprint.
pub fn total_carbon(embodied: CarbonMass, operational: CarbonMass) -> CarbonMass {
    embodied + operational
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq1_is_a_sum() {
        let t = total_carbon(CarbonMass::from_g(10_000.0), CarbonMass::from_g(5_000.0));
        assert_eq!(t.as_kg(), 15.0);
    }
}
