//! Leaked-string interning.
//!
//! The model layer uses `&'static str` for identity-like strings
//! (`PartSpec::component`, `HpcSystem::name`, …) because the built-in
//! tables are literals and `PartSpec` stays `Copy`. Catalog-loaded
//! strings get the same lifetime by interning: each distinct string is
//! leaked **once** into a process-wide table and reused forever after.
//! The leak is bounded by the distinct strings ever loaded: the table
//! deduplicates across loads, so loading the same catalog again (a
//! second [`crate::CatalogSource`], a `catalog` subcommand) allocates
//! nothing new.

use std::collections::BTreeSet;
use std::sync::{Mutex, OnceLock, PoisonError};

// An ordered set rather than a hash set: the table is never iterated
// today, but `hash-iteration-order` (docs/LINTS.md) bans hash-ordered
// collections from deterministic crates outright so one can never
// *start* being iterated.
static TABLE: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();

/// Returns a `'static` copy of `s`, allocating only on first sight.
pub(crate) fn intern(s: &str) -> &'static str {
    // Poison recovery is sound here: the only mutation is `insert` of a
    // fully-leaked string, so a panicking peer can never leave a
    // half-built entry behind.
    let mut table = TABLE
        .get_or_init(|| Mutex::new(BTreeSet::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    if let Some(found) = table.get(s) {
        return found;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    table.insert(leaked);
    leaked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_deduplicates() {
        let a = intern("hpcarbon-intern-test");
        let b = intern("hpcarbon-intern-test");
        assert!(std::ptr::eq(a, b));
        assert_eq!(a, "hpcarbon-intern-test");
    }
}
