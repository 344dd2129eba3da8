//! The loader: directory walk → parse → validate → resolve.

use crate::entity::{
    validate_node, validate_part, validate_region, validate_system, PartEntity, ProcessNodeEntity,
    RawNode, RawPart, RawRegion, RawSystem, RegionEntity, SystemEntity,
};
use crate::error::{CatalogError, CatalogErrors};
use crate::intern::intern;
use crate::parse::RawEntity;
use crate::vocab;
use hpcarbon_core::db::EmbodiedInputs;
use hpcarbon_core::db::{PartId, PartSpec};
use hpcarbon_core::embodied::FabDensities;
use hpcarbon_core::systems::HpcSystem;
use hpcarbon_units::{
    Bandwidth, CarbonAreaDensity, CarbonPerCapacity, ComputeRate, DataCapacity, Power, SiliconArea,
};
use std::path::Path;

/// A loaded, fully validated catalog: every entity resolved into the
/// same in-memory types the built-in tables produce.
///
/// Construction goes through [`Catalog::load`], which is strict — a
/// `Catalog` value **is** the proof that the directory passed every
/// schema, cross-reference, and completeness check. Use
/// [`crate::CatalogSource`] for the provider form.
#[derive(Debug, Clone)]
pub struct Catalog {
    parts: Vec<PartEntity>,
    nodes: Vec<ProcessNodeEntity>,
    systems: Vec<SystemEntity>,
    regions: Vec<RegionEntity>,
}

impl Catalog {
    /// Loads and validates the catalog directory at `root`.
    ///
    /// # Errors
    /// Every diagnostic found, in deterministic order: per-entity
    /// errors by (directory, file, line), then cross-entity errors
    /// (dangling references, duplicate ids are reported inline), then
    /// directory-level completeness errors.
    ///
    /// ```
    /// use hpcarbon_catalog::{export_builtin, Catalog};
    ///
    /// let dir = std::env::temp_dir().join(format!("cat-load-doc-{}", std::process::id()));
    /// export_builtin(&dir).unwrap();
    /// let catalog = Catalog::load(&dir).unwrap();
    /// assert_eq!(catalog.parts().len(), 13);
    /// assert_eq!(catalog.systems().len(), 3);
    /// # std::fs::remove_dir_all(&dir).unwrap();
    /// ```
    pub fn load(root: impl AsRef<Path>) -> Result<Catalog, CatalogErrors> {
        let root = root.as_ref();
        if !root.is_dir() {
            return Err(CatalogErrors(vec![CatalogError::catalog(format!(
                "\"{}\" is not a catalog directory",
                root.display()
            ))]));
        }
        let mut errors: Vec<CatalogError> = Vec::new();

        let mut parts: Vec<RawPart> = Vec::new();
        let mut nodes: Vec<RawNode> = Vec::new();
        let mut systems: Vec<RawSystem> = Vec::new();
        let mut regions: Vec<RawRegion> = Vec::new();

        for raw in walk_kind(root, "parts", &mut errors) {
            if let Some(p) = validate_part(&raw, &mut errors) {
                if let Some(first) = parts.iter().find(|q| q.id == p.id) {
                    errors.push(CatalogError::entity(
                        &p.file,
                        p.id_line,
                        format!(
                            "duplicate id \"{}\" (first defined in {})",
                            vocab::part_slug(p.id),
                            first.file
                        ),
                    ));
                } else {
                    parts.push(p);
                }
            }
        }
        for raw in walk_kind(root, "nodes", &mut errors) {
            if let Some(n) = validate_node(&raw, &mut errors) {
                if let Some(first) = nodes.iter().find(|q| q.node == n.node) {
                    errors.push(CatalogError::entity(
                        &n.file,
                        n.id_line,
                        format!(
                            "duplicate id \"{}\" (first defined in {})",
                            vocab::slug_of(&vocab::NODE_SLUGS, n.node),
                            first.file
                        ),
                    ));
                } else {
                    nodes.push(n);
                }
            }
        }
        for raw in walk_kind(root, "systems", &mut errors) {
            if let Some(s) = validate_system(&raw, &mut errors) {
                if let Some(first) = systems.iter().find(|q| q.id == s.id) {
                    errors.push(CatalogError::entity(
                        &s.file,
                        s.id_line,
                        format!(
                            "duplicate id \"{}\" (first defined in {})",
                            s.id, first.file
                        ),
                    ));
                } else {
                    systems.push(s);
                }
            }
        }
        for raw in walk_kind(root, "regions", &mut errors) {
            if let Some(r) = validate_region(&raw, &mut errors) {
                if let Some(first) = regions.iter().find(|q| q.id == r.id) {
                    errors.push(CatalogError::entity(
                        &r.file,
                        r.id_line,
                        format!(
                            "duplicate id \"{}\" (first defined in {})",
                            vocab::slug_of(&vocab::REGION_SLUGS, r.id),
                            first.file
                        ),
                    ));
                } else {
                    regions.push(r);
                }
            }
        }

        // Cross-entity pass: every reference must land on an entity
        // *file* in this catalog — the id vocabularies were already
        // checked per entity, so these are specifically dangling links.
        for p in &parts {
            if let Some((line, node)) = p.node {
                if !nodes.iter().any(|n| n.node == node) {
                    errors.push(CatalogError::entity(
                        &p.file,
                        line,
                        format!(
                            "field \"node\" references process node \"{}\" which has no entity file in this catalog",
                            vocab::slug_of(&vocab::NODE_SLUGS, node)
                        ),
                    ));
                }
            }
        }
        for s in &systems {
            for l in &s.links {
                if !parts.iter().any(|p| p.id == l.part) {
                    errors.push(CatalogError::entity(
                        &s.file,
                        l.line,
                        format!(
                            "link references part \"{}\" which has no entity file in this catalog",
                            vocab::part_slug(l.part)
                        ),
                    ));
                }
            }
        }

        // Completeness: estimation reaches for every built-in part id,
        // node, Table 2 system, and operator — a catalog missing any of
        // them would fail at estimate time, so fail at load time instead.
        for (slug, id) in vocab::PART_SLUGS {
            if !parts.iter().any(|p| p.id == id) {
                errors.push(CatalogError::catalog(format!(
                    "catalog is missing part \"{slug}\" (an estimation-grade catalog defines all 13 built-in parts)"
                )));
            }
        }
        for (slug, node) in vocab::NODE_SLUGS {
            if !nodes.iter().any(|n| n.node == node) {
                errors.push(CatalogError::catalog(format!(
                    "catalog is missing process node \"{slug}\" (an estimation-grade catalog defines all 5 nodes)"
                )));
            }
        }
        for id in vocab::REQUIRED_SYSTEMS {
            if !systems.iter().any(|s| s.id == id) {
                errors.push(CatalogError::catalog(format!(
                    "catalog is missing system \"{id}\" (an estimation-grade catalog defines frontier, lumi, perlmutter)"
                )));
            }
        }
        for (slug, id) in vocab::REGION_SLUGS {
            if !regions.iter().any(|r| r.id == id) {
                errors.push(CatalogError::catalog(format!(
                    "catalog is missing region \"{slug}\" (an estimation-grade catalog defines all 7 grid operators)"
                )));
            }
        }

        if !errors.is_empty() {
            return Err(CatalogErrors(errors));
        }
        Ok(Catalog::resolve(parts, nodes, systems, regions))
    }

    /// Resolves validated raw entities into model types. Only reachable
    /// with zero diagnostics, so every cross-reference is present.
    fn resolve(
        parts: Vec<RawPart>,
        nodes: Vec<RawNode>,
        systems: Vec<RawSystem>,
        regions: Vec<RawRegion>,
    ) -> Catalog {
        let mut node_entities: Vec<ProcessNodeEntity> = nodes
            .into_iter()
            .map(|n| ProcessNodeEntity {
                node: n.node,
                label: n.label,
                densities: FabDensities {
                    fpa: CarbonAreaDensity::from_g_per_cm2(n.fpa),
                    gpa: CarbonAreaDensity::from_g_per_cm2(n.gpa),
                    mpa: CarbonAreaDensity::from_g_per_cm2(n.mpa),
                },
                source: n.file,
            })
            .collect();
        node_entities.sort_by_key(|n| slug_rank(&vocab::NODE_SLUGS, n.node));

        let mut part_entities: Vec<PartEntity> = parts
            .into_iter()
            .map(|p| {
                let embodied_inputs = match (p.die_area_mm2, p.node, p.epc_g_per_gb) {
                    (Some(mm2), Some((_, node)), None) => EmbodiedInputs::Processor {
                        die_area: SiliconArea::from_mm2(mm2),
                        node,
                        densities: node_entities
                            .iter()
                            .find(|n| n.node == node)
                            // lint: allow(panic-in-library) -- build_model runs after validate(), whose link check rejects any part whose node has no process-node entity
                            .expect("validated catalogs have no dangling node refs")
                            .densities,
                    },
                    (None, None, Some(epc)) => EmbodiedInputs::MemoryStorage {
                        epc: CarbonPerCapacity::from_g_per_gb(epc),
                    },
                    _ => unreachable!("the class schema admits exactly one input shape"),
                };
                PartEntity {
                    spec: PartSpec {
                        id: p.id,
                        class: p.class,
                        component: intern(&p.component),
                        part_name: intern(&p.part_name),
                        vendor: p.vendor,
                        release: p.release,
                        embodied_inputs,
                        packaging: p.packaging,
                        capacity: p.capacity_gb.map(DataCapacity::from_gb),
                        fp64_peak: p.fp64_gflops.map(ComputeRate::from_gflops),
                        bandwidth: p.bandwidth_gbps.map(Bandwidth::from_gbps),
                        tdp: p.tdp_w.map(Power::from_w),
                        idle_power: p.idle_w.map(Power::from_w),
                    },
                    source: p.file,
                }
            })
            .collect();
        part_entities.sort_by_key(|p| slug_rank(&vocab::PART_SLUGS, p.spec.id));

        let mut system_entities: Vec<SystemEntity> = systems
            .into_iter()
            .map(|s| SystemEntity {
                system: HpcSystem {
                    name: intern(&s.name),
                    location: intern(&s.location),
                    cores: s.cores,
                    year: s.year,
                    inventory: s
                        .links
                        .iter()
                        .map(|l| {
                            let spec = part_entities
                                .iter()
                                .find(|p| p.spec.id == l.part)
                                // lint: allow(panic-in-library) -- build_model runs after validate(), whose link check rejects any system link naming a part with no entity
                                .expect("validated catalogs have no dangling part links")
                                .spec;
                            (spec, l.count)
                        })
                        .collect(),
                },
                id: s.id,
                links: s.links,
                source: s.file,
            })
            .collect();
        system_entities.sort_by(|a, b| a.id.cmp(&b.id));

        let mut region_entities: Vec<RegionEntity> = regions
            .into_iter()
            .map(|r| RegionEntity {
                id: r.id,
                short: r.short,
                name: r.name,
                country: r.country,
                region: r.region,
                source: r.file,
            })
            .collect();
        region_entities.sort_by_key(|r| slug_rank(&vocab::REGION_SLUGS, r.id));

        Catalog {
            parts: part_entities,
            nodes: node_entities,
            systems: system_entities,
            regions: region_entities,
        }
    }

    /// The resolved spec of `part` (every valid catalog defines all 13).
    pub fn part(&self, part: PartId) -> Option<&PartSpec> {
        self.part_entity(part).map(|p| &p.spec)
    }

    /// The part entity (spec + source file) of `part`.
    pub fn part_entity(&self, part: PartId) -> Option<&PartEntity> {
        self.parts.iter().find(|p| p.spec.id == part)
    }

    /// All part entities, in the canonical Table 1 + Table 5 order.
    pub fn parts(&self) -> &[PartEntity] {
        &self.parts
    }

    /// All process-node entities, newest lithography last.
    pub fn nodes(&self) -> &[ProcessNodeEntity] {
        &self.nodes
    }

    /// The system entity with catalog id `id` (e.g. `"frontier"`).
    pub fn system(&self, id: &str) -> Option<&SystemEntity> {
        self.systems.iter().find(|s| s.id == id)
    }

    /// All system entities, sorted by id.
    pub fn systems(&self) -> &[SystemEntity] {
        &self.systems
    }

    /// All region entities, in Table 3 order.
    pub fn regions(&self) -> &[RegionEntity] {
        &self.regions
    }
}

/// Rank of an id in its canonical slug table (for stable listing order).
fn slug_rank<T: Copy + PartialEq>(table: &'static [(&'static str, T)], v: T) -> usize {
    table
        .iter()
        .position(|(_, x)| *x == v)
        // lint: allow(panic-in-library) -- the slug tables are exhaustive over their enums; vocab tests assert every variant round-trips
        .expect("every enum variant has a catalog slug")
}

/// Lists and parses `root/<dir>/*.ent` in filename order. A missing
/// kind directory yields no entities (completeness checks report what
/// that implies); stray non-`.ent` files are errors — a typo'd
/// filename must never silently drop an entity.
fn walk_kind(root: &Path, dir: &'static str, errors: &mut Vec<CatalogError>) -> Vec<RawEntity> {
    let kind_dir = root.join(dir);
    if !kind_dir.is_dir() {
        return Vec::new();
    }
    let mut names: Vec<String> = Vec::new();
    match std::fs::read_dir(&kind_dir) {
        Ok(entries) => {
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if entry.path().is_dir() {
                    continue;
                }
                if name.ends_with(".ent") {
                    names.push(name);
                } else {
                    errors.push(CatalogError::catalog(format!(
                        "unexpected file \"{dir}/{name}\" (entity files end in .ent)"
                    )));
                }
            }
        }
        Err(e) => {
            errors.push(CatalogError::catalog(format!(
                "cannot read directory \"{dir}\": {e}"
            )));
            return Vec::new();
        }
    }
    names.sort_unstable();
    let mut out = Vec::new();
    for name in names {
        let rel = format!("{dir}/{name}");
        match std::fs::read_to_string(kind_dir.join(&name)) {
            Ok(text) => out.push(RawEntity::parse(&rel, &text, errors)),
            Err(e) => errors.push(CatalogError::catalog(format!("cannot read \"{rel}\": {e}"))),
        }
    }
    out
}
