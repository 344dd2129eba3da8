//! # hpcarbon-catalog
//!
//! The plain-text hardware catalog: the embodied-carbon database
//! (Table 1 parts, process nodes, Table 2 systems, Table 3 regions) as
//! a directory of versioned entity files instead of hard-coded Rust
//! tables — "our parts table" becomes "any operator's fleet".
//!
//! ## Layout
//!
//! A catalog is a directory with four kind subdirectories, one entity
//! per `.ent` file:
//!
//! ```text
//! catalog/
//!   parts/gpu-a100-pcie-40.ent      kind: part
//!   nodes/n7.ent                    kind: process-node
//!   systems/frontier.ent            kind: system
//!   regions/eso.ent                 kind: region
//! ```
//!
//! Entity files are line-based `key: value` text (`#` comments, blank
//! lines ignored). Systems declare their bill of materials as repeated
//! `link: <part-id> <count>` lines, which is what lets reports cite BOM
//! provenance — every number traces to a file. The full format,
//! including every validator error with a line-numbered sample, is
//! specified in `docs/CATALOG.md` at the repository root.
//!
//! ## Pipeline
//!
//! Loading is strict — **load → validate**:
//!
//! 1. [`Catalog::load`] parses every entity file and validates field
//!    schemas, vocabularies, cross-entity links, and estimation-grade
//!    completeness, reporting *all* errors as line-numbered
//!    [`CatalogError`]s (the PR 4 vocabulary-listing idiom:
//!    `unknown class "gpuu" (valid values: gpu, cpu, dram, ssd, hdd)`).
//! 2. A valid catalog resolves into the same in-memory types the
//!    built-in tables produce ([`hpcarbon_core::db::PartSpec`],
//!    [`hpcarbon_core::systems::HpcSystem`]), so every model downstream
//!    runs unchanged.
//! 3. [`CatalogSource::load`] wraps a loaded catalog in an `Arc` and
//!    implements [`hpcarbon_api::providers::EmbodiedSource`], plugging
//!    a catalog into the estimator, the sweep engine, and the server.
//!
//! ## Byte-identity guarantee
//!
//! [`export_builtin`] writes the shipped tables as a canonical catalog
//! tree, printing every number in Rust's shortest round-trip `f64`
//! form. Reloading that tree reproduces the built-in specs **bit for
//! bit**, so estimates made through `--catalog <exported tree>` are
//! byte-identical to the hard-coded ones — CI diffs the two outputs
//! with `cmp`.
//!
//! ```
//! let dir = std::env::temp_dir().join("hpcarbon-doctest-catalog");
//! hpcarbon_catalog::export_builtin(&dir).unwrap();
//! let catalog = hpcarbon_catalog::Catalog::load(&dir).unwrap();
//! let builtin = hpcarbon_core::db::PartId::GpuA100Pcie40.spec();
//! assert_eq!(catalog.part(builtin.id), Some(&builtin));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod catalog;
mod entity;
mod error;
mod export;
mod intern;
mod parse;
mod provider;
mod vocab;

pub use catalog::Catalog;
pub use entity::{PartEntity, ProcessNodeEntity, RegionEntity, SystemEntity, SystemLink};
pub use error::{CatalogError, CatalogErrors};
pub use export::export_builtin;
pub use provider::CatalogSource;
pub use vocab::{node_slug, part_slug, region_slug};
