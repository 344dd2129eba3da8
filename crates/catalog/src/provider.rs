//! The `EmbodiedSource` provider over a loaded catalog.

use crate::catalog::Catalog;
use crate::error::CatalogErrors;
use hpcarbon_api::providers::EmbodiedSource;
use hpcarbon_api::SystemId;
use hpcarbon_core::db::{PartId, PartSpec};
use hpcarbon_core::systems::HpcSystem;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Loaded catalogs, memoized per canonical directory path. Estimators,
/// sweeps, and server shards asking for the same `--catalog DIR` share
/// one parsed [`Catalog`] — loading is strict and eager, so the cost
/// is paid once and every later lookup is a map read. Ordered map by
/// policy (`hash-iteration-order`, docs/LINTS.md): deterministic crates
/// carry no hash-ordered collections.
static LOADED: OnceLock<Mutex<BTreeMap<PathBuf, Arc<Catalog>>>> = OnceLock::new();

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
    /// Loads (or reuses the memoized load of) the catalog at `dir`.
    ///
    /// # Errors
    /// Every validation diagnostic, line-numbered — see
    /// [`Catalog::load`]. Failed loads are not memoized, so a fixed
    /// catalog is picked up on the next call.
    pub fn load(dir: impl AsRef<Path>) -> Result<CatalogSource, CatalogErrors> {
        let dir = dir.as_ref();
        // Canonicalize so `./catalog` and an absolute spelling share one
        // cache slot; an unresolvable path falls through to `load`,
        // which reports it as a catalog error.
        let key = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
        // Poison recovery is sound for this map: entries are inserted
        // fully built (`Arc<Catalog>`), so a panicking peer can at worst
        // cost a redundant reload, never expose a partial catalog.
        let cache = LOADED.get_or_init(|| Mutex::new(BTreeMap::new()));
        if let Some(found) = cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            return Ok(CatalogSource {
                catalog: Arc::clone(found),
            });
        }
        let loaded = Arc::new(Catalog::load(dir)?);
        cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, Arc::clone(&loaded));
        Ok(CatalogSource { catalog: loaded })
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
    fn memoizes_per_directory() {
        let dir =
            std::env::temp_dir().join(format!("hpcarbon-catalog-memo-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        export_builtin(&dir).unwrap();
        let a = CatalogSource::load(&dir).unwrap();
        let b = CatalogSource::load(&dir).unwrap();
        assert!(Arc::ptr_eq(&a.catalog, &b.catalog));
        let _ = std::fs::remove_dir_all(&dir);
    }

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
