//! What-if composition analysis for system inventories.
//!
//! Fig. 5's discussion contrasts Frontier's HDD-heavy Orion with
//! Perlmutter's all-flash file system. This module makes such architecture
//! questions answerable quantitatively: take a system, apply a
//! transformation (swap the HDD tier for flash at equal capacity) and
//! compare embodied compositions before and after.

use crate::db::{PartId, PartSpec};
use crate::systems::HpcSystem;
use hpcarbon_units::CarbonMass;

/// Why a what-if transformation cannot be applied to a system.
///
/// Sweep engines batch thousands of (system, transformation) combinations;
/// an inapplicable combination (e.g. "swap the HDD tier" on all-flash
/// Perlmutter) must fail soft as an `Err` item rather than abort the whole
/// batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WhatIfError {
    /// The part does not declare a storage capacity, so "equal capacity"
    /// is undefined.
    MissingCapacity(PartId),
    /// The system holds no units of the source part.
    NoSourceUnits(PartId),
}

impl std::fmt::Display for WhatIfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WhatIfError::MissingCapacity(p) => {
                write!(f, "part {p:?} declares no capacity")
            }
            WhatIfError::NoSourceUnits(p) => write!(f, "system holds no {p:?}"),
        }
    }
}

impl std::error::Error for WhatIfError {}

/// A derived system plus the delta against its baseline.
#[derive(Debug, Clone)]
pub struct WhatIf {
    /// The transformed system.
    pub system: HpcSystem,
    /// Embodied total before.
    pub before: CarbonMass,
    /// Embodied total after.
    pub after: CarbonMass,
}

impl WhatIf {
    /// Absolute embodied change (positive = the variant embodies more).
    pub fn delta(&self) -> CarbonMass {
        self.after - self.before
    }

    /// Relative embodied change.
    pub fn relative_change(&self) -> f64 {
        self.delta() / self.before
    }
}

/// Replaces every unit of `from` with enough units of `to` to preserve
/// total capacity (both parts must declare capacities). Counts round up —
/// you cannot buy fractional drives.
///
/// The `from` capacity is read from the system's own inventory spec (so a
/// catalog-built system swaps at its catalog capacity); the replacement is
/// a resolved [`PartSpec`] so catalogs can supply their own flash numbers.
///
/// # Errors
/// If either part lacks a capacity, or the system holds no `from` units.
pub fn swap_storage_tier(
    base: &HpcSystem,
    from: PartId,
    to: PartSpec,
) -> Result<WhatIf, WhatIfError> {
    let count_from = base.count_of(from);
    if count_from == 0 {
        return Err(WhatIfError::NoSourceUnits(from));
    }
    let from_spec = base.spec_of(from).ok_or(WhatIfError::NoSourceUnits(from))?;
    let from_cap = from_spec
        .capacity
        .ok_or(WhatIfError::MissingCapacity(from))?;
    let to_cap = to.capacity.ok_or(WhatIfError::MissingCapacity(to.id))?;
    let total_gb = from_cap.as_gb() * count_from as f64;
    let count_to = (total_gb / to_cap.as_gb()).ceil() as u64;

    let mut inventory: Vec<(PartSpec, u64)> = base
        .inventory
        .iter()
        .filter(|(p, _)| p.id != from)
        .cloned()
        .collect();
    inventory.push((to, count_to));
    let system = HpcSystem {
        name: base.name,
        location: base.location,
        cores: base.cores,
        year: base.year,
        inventory,
    };
    Ok(WhatIf {
        before: base.embodied_total(),
        after: system.embodied_total(),
        system,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embodied::ComponentClass;

    #[test]
    fn all_flash_frontier_costs_embodied_carbon() {
        // The Fig. 5 discussion, quantified: converting Frontier's 695 PB
        // HDD tier to 3.2 TB flash at equal capacity REPLACES cheap
        // gCO2/GB storage (1.33) with expensive flash (6.21) — an all-
        // flash Orion would embody several times more storage carbon.
        let frontier = HpcSystem::frontier();
        let w = swap_storage_tier(&frontier, PartId::Hdd16tb, PartId::Ssd3_2tb.spec()).unwrap();
        assert!(w.after > w.before);

        // 43,438 HDDs x 16 TB = 695,008,000 GB -> 217,190 SSDs at 3.2 TB.
        assert_eq!(w.system.count_of(PartId::Ssd3_2tb), 23_438 + 217_190);
        assert_eq!(w.system.count_of(PartId::Hdd16tb), 0);
        // The composition flips: SSD becomes the dominant class.
        let shares = w.system.composition_shares();
        let ssd = shares
            .iter()
            .find(|(c, _)| *c == ComponentClass::Ssd)
            .unwrap()
            .1;
        let gpu = shares
            .iter()
            .find(|(c, _)| *c == ComponentClass::Gpu)
            .unwrap()
            .1;
        assert!(ssd > gpu, "ssd {ssd} vs gpu {gpu}");
        assert!(w.relative_change() > 0.5, "{}", w.relative_change());
    }

    #[test]
    fn capacity_is_preserved_up_to_rounding() {
        let frontier = HpcSystem::frontier();
        let w = swap_storage_tier(&frontier, PartId::Hdd16tb, PartId::Ssd3_2tb.spec()).unwrap();
        let before_gb = PartId::Hdd16tb.spec().capacity.unwrap().as_gb()
            * frontier.count_of(PartId::Hdd16tb) as f64;
        let after_gb = PartId::Ssd3_2tb.spec().capacity.unwrap().as_gb()
            * (w.system.count_of(PartId::Ssd3_2tb) - frontier.count_of(PartId::Ssd3_2tb)) as f64;
        assert!(after_gb >= before_gb);
        assert!(after_gb < before_gb + PartId::Ssd3_2tb.spec().capacity.unwrap().as_gb() * 2.0);
    }

    #[test]
    fn swap_requires_presence() {
        let p = HpcSystem::perlmutter(); // all-flash, no HDD
        let e = swap_storage_tier(&p, PartId::Hdd16tb, PartId::Ssd3_2tb.spec()).unwrap_err();
        assert_eq!(e, WhatIfError::NoSourceUnits(PartId::Hdd16tb));
        assert!(e.to_string().contains("holds no"));
    }

    #[test]
    fn swap_requires_capacities() {
        let f = HpcSystem::frontier();
        let e = swap_storage_tier(&f, PartId::Hdd16tb, PartId::CpuEpyc7763.spec()).unwrap_err();
        assert_eq!(e, WhatIfError::MissingCapacity(PartId::CpuEpyc7763));
    }
}
