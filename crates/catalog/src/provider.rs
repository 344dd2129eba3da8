//! The `EmbodiedSource` provider over a loaded catalog.

use crate::catalog::Catalog;
use crate::error::CatalogErrors;
use hpcarbon_api::providers::EmbodiedSource;
use hpcarbon_api::SystemId;
use hpcarbon_core::db::{PartId, PartSpec};
use hpcarbon_core::systems::HpcSystem;
use std::path::Path;
use std::sync::Arc;

/// An [`EmbodiedSource`] backed by a plain-text catalog directory.
///
/// Construction validates the whole directory (schema, links,
/// estimation-grade completeness), so a `CatalogSource` can always
/// answer for every [`SystemId`] and [`PartId`] the request schema can
/// name. Cloning is cheap (an [`Arc`] handle); the provider is a pure
/// function of the loaded files, preserving the batch determinism
/// contract of [`hpcarbon_api::providers`].
///
/// ```no_run
/// use hpcarbon_catalog::CatalogSource;
/// let source = CatalogSource::load("catalog")?;
/// let estimator = hpcarbon_api::Estimator::builder().embodied(source).build();
/// # Ok::<(), hpcarbon_catalog::CatalogErrors>(())
/// ```
#[derive(Debug, Clone)]
pub struct CatalogSource {
    catalog: Arc<Catalog>,
}

impl CatalogSource {
    /// Loads and validates the catalog at `dir`.
    ///
    /// # Errors
    /// Every validation diagnostic, line-numbered — see
    /// [`Catalog::load`].
    pub fn load(dir: impl AsRef<Path>) -> Result<CatalogSource, CatalogErrors> {
        let catalog = Arc::new(Catalog::load(dir)?);
        Ok(CatalogSource { catalog })
    }
}

impl EmbodiedSource for CatalogSource {
    fn build_system(&self, system: SystemId) -> HpcSystem {
        self.catalog
            .system(system.label())
            // lint: allow(panic-in-library) -- Catalog::load's completeness check rejects any catalog missing a required SystemId, so a constructed CatalogSource always resolves every label
            .expect("estimation-grade catalogs define every SystemId")
            .system
            .clone()
    }

    fn part_spec(&self, part: PartId) -> PartSpec {
        *self
            .catalog
            .part(part)
            // lint: allow(panic-in-library) -- Catalog::load's completeness check requires all 13 PartIds, so a constructed CatalogSource always resolves every part
            .expect("estimation-grade catalogs define every PartId")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export_builtin;

    #[test]
    fn provider_answers_for_every_request_nameable_id() {
        let dir =
            std::env::temp_dir().join(format!("hpcarbon-catalog-prov-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        export_builtin(&dir).unwrap();
        let s = CatalogSource::load(&dir).unwrap();
        for id in SystemId::ALL {
            let sys = s.build_system(id);
            assert!(!sys.inventory.is_empty(), "{id:?}");
        }
        for p in hpcarbon_core::db::all_parts() {
            assert_eq!(s.part_spec(p), p.spec());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
