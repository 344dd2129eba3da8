//! Grid sharding, shard manifests, and shard-output merging.
//!
//! A sweep over 10^6 scenarios wants to run on several machines at
//! once. The partition is deterministic and declarative: `--shard i/N`
//! evaluates the contiguous id range `[i·n/N, (i+1)·n/N)` of the grid,
//! so the N shards are pairwise disjoint and their union is exactly the
//! grid — properties the proptest suite checks for arbitrary `(n, N)`.
//!
//! Each shard run writes a **manifest** next to its outputs recording
//! what was swept (a grid fingerprint), which slice (`i/N` plus the row
//! range), and what came out (per-file byte counts and FNV-1a 64
//! digests). The manifest makes two operations safe:
//!
//! - **resume**: a rerun validates the existing manifest + file digests
//!   and skips recomputation when they match;
//! - **merge**: `hpcarbon sweep --merge` validates that the manifests
//!   form a complete, compatible partition and concatenates the
//!   fragment files into the canonical single-machine document —
//!   byte-identical to an unsharded run (`cmp`-enforced in CI).
//!
//! The manifest format (`hpcarbon-sweep-shard-v1`) is specified in
//! DESIGN.md §11; digests are hex strings because the JSON number space
//! (f64) cannot carry 64-bit integers exactly.

use crate::exec::SweepConfig;
use crate::grid::ScenarioGrid;
use hpcarbon_api::json::{self, Json};
use hpcarbon_sim::rng::fnv1a64;
use std::fmt;
use std::fs;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// The manifest format tag; bumped on any incompatible change.
pub const MANIFEST_FORMAT: &str = "hpcarbon-sweep-shard-v1";

/// File name of the manifest inside a shard output directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// One slice of an N-way deterministic grid partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Zero-based shard index.
    pub index: usize,
    /// Total shard count (≥ 1).
    pub count: usize,
}

impl ShardSpec {
    /// Parses the CLI's `i/N` syntax.
    pub fn parse(s: &str) -> Result<ShardSpec, String> {
        let (i, n) = s
            .split_once('/')
            .ok_or_else(|| format!("expected i/N, got `{s}`"))?;
        let index: usize = i.trim().parse().map_err(|_| format!("bad index `{i}`"))?;
        let count: usize = n.trim().parse().map_err(|_| format!("bad count `{n}`"))?;
        if count == 0 {
            return Err("shard count must be ≥ 1".to_string());
        }
        if index >= count {
            return Err(format!("shard index {index} out of range for /{count}"));
        }
        Ok(ShardSpec { index, count })
    }

    /// The contiguous id range this shard covers in an `n`-row grid:
    /// `[index·n/count, (index+1)·n/count)`. Ranges of consecutive
    /// shards abut; the union over all indices is exactly `0..n`, and
    /// sizes differ by at most one row.
    pub fn range(&self, n: usize) -> Range<usize> {
        debug_assert!(self.index < self.count);
        (self.index * n / self.count)..((self.index + 1) * n / self.count)
    }
}

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// Fingerprints the swept space: FNV-1a 64 over the grid's dimension
/// lists and the workload config. Two runs with equal fingerprints
/// evaluated the same scenarios in the same order, so their shards are
/// merge-compatible. (Debug formatting is stable: plain derived enums
/// and numbers, no addresses.)
pub fn grid_fingerprint(grid: &ScenarioGrid, config: &SweepConfig) -> u64 {
    fnv1a64(format!("{grid:?}|{config:?}").as_bytes())
}

/// Byte count + digest of one emitted output file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputDigest {
    /// File name relative to the shard directory (e.g. `sweep.csv`).
    pub path: String,
    /// Size in bytes.
    pub bytes: u64,
    /// FNV-1a 64 of the file contents.
    pub fnv64: u64,
}

/// What one shard run swept and emitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    /// Fingerprint of (grid, config) — see [`grid_fingerprint`].
    pub fingerprint: u64,
    /// The slice of the partition.
    pub shard: ShardSpec,
    /// Grid id range the shard evaluated.
    pub rows: Range<usize>,
    /// Rows that evaluated successfully.
    pub ok: usize,
    /// Rows that failed soft.
    pub errors: usize,
    /// Emitted files with digests, emission order.
    pub outputs: Vec<OutputDigest>,
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn hex64(v: u64) -> String {
    format!("{v:#018x}")
}

fn parse_hex64(s: &str) -> Option<u64> {
    u64::from_str_radix(s.strip_prefix("0x")?, 16).ok()
}

fn field<'a>(obj: &'a Json, key: &str, ctx: &str) -> io::Result<&'a Json> {
    obj.get(key)
        .ok_or_else(|| invalid(format!("manifest {ctx}: missing `{key}`")))
}

fn usize_field(obj: &Json, key: &str, ctx: &str) -> io::Result<usize> {
    match field(obj, key, ctx)? {
        Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 => Ok(*v as usize),
        other => Err(invalid(format!(
            "manifest {ctx}: `{key}` must be a non-negative integer, got {}",
            other.type_name()
        ))),
    }
}

fn str_field<'a>(obj: &'a Json, key: &str, ctx: &str) -> io::Result<&'a str> {
    match field(obj, key, ctx)? {
        Json::Str(s) => Ok(s),
        other => Err(invalid(format!(
            "manifest {ctx}: `{key}` must be a string, got {}",
            other.type_name()
        ))),
    }
}

fn hex_field(obj: &Json, key: &str, ctx: &str) -> io::Result<u64> {
    let s = str_field(obj, key, ctx)?;
    parse_hex64(s).ok_or_else(|| invalid(format!("manifest {ctx}: `{key}` is not 0x-hex: `{s}`")))
}

impl ShardManifest {
    /// Serializes to the `hpcarbon-sweep-shard-v1` JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"format\": {},\n", json::esc(MANIFEST_FORMAT)));
        out.push_str(&format!(
            "  \"grid_fingerprint\": {},\n",
            json::esc(&hex64(self.fingerprint))
        ));
        out.push_str(&format!(
            "  \"shard\": {{\"index\": {}, \"count\": {}}},\n",
            self.shard.index, self.shard.count
        ));
        out.push_str(&format!(
            "  \"rows\": {{\"start\": {}, \"end\": {}}},\n",
            self.rows.start, self.rows.end
        ));
        out.push_str(&format!("  \"ok\": {},\n", self.ok));
        out.push_str(&format!("  \"errors\": {},\n", self.errors));
        out.push_str("  \"outputs\": [");
        for (i, o) in self.outputs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"path\": {}, \"bytes\": {}, \"fnv64\": {}}}",
                json::esc(&o.path),
                o.bytes,
                json::esc(&hex64(o.fnv64))
            ));
        }
        if !self.outputs.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Parses and structurally validates a manifest document.
    pub fn from_json(src: &str) -> io::Result<ShardManifest> {
        let doc = json::parse(src).map_err(|e| invalid(format!("manifest: {e}")))?;
        let format = str_field(&doc, "format", "root")?;
        if format != MANIFEST_FORMAT {
            return Err(invalid(format!(
                "manifest format `{format}` is not `{MANIFEST_FORMAT}`"
            )));
        }
        let shard_obj = field(&doc, "shard", "root")?;
        let shard = ShardSpec {
            index: usize_field(shard_obj, "index", "shard")?,
            count: usize_field(shard_obj, "count", "shard")?,
        };
        if shard.count == 0 || shard.index >= shard.count {
            return Err(invalid(format!("manifest shard {shard} is inconsistent")));
        }
        let rows_obj = field(&doc, "rows", "root")?;
        let rows = usize_field(rows_obj, "start", "rows")?..usize_field(rows_obj, "end", "rows")?;
        if rows.start > rows.end {
            return Err(invalid(format!(
                "manifest row range {}..{} is inverted",
                rows.start, rows.end
            )));
        }
        let outputs = match field(&doc, "outputs", "root")? {
            Json::Arr(items) => items
                .iter()
                .map(|o| {
                    Ok(OutputDigest {
                        path: str_field(o, "path", "outputs")?.to_string(),
                        bytes: usize_field(o, "bytes", "outputs")? as u64,
                        fnv64: hex_field(o, "fnv64", "outputs")?,
                    })
                })
                .collect::<io::Result<Vec<_>>>()?,
            other => {
                return Err(invalid(format!(
                    "manifest `outputs` must be an array, got {}",
                    other.type_name()
                )))
            }
        };
        Ok(ShardManifest {
            fingerprint: hex_field(&doc, "grid_fingerprint", "root")?,
            shard,
            rows,
            ok: usize_field(&doc, "ok", "root")?,
            errors: usize_field(&doc, "errors", "root")?,
            outputs,
        })
    }

    /// Writes the manifest into `dir` as [`MANIFEST_FILE`].
    pub fn write(&self, dir: &Path) -> io::Result<()> {
        fs::write(dir.join(MANIFEST_FILE), self.to_json())
    }

    /// Loads the manifest from `dir` and verifies every recorded output
    /// file is present with matching length and digest. Returns the
    /// manifest when everything checks out.
    pub fn load_verified(dir: &Path) -> io::Result<ShardManifest> {
        let src = fs::read_to_string(dir.join(MANIFEST_FILE))?;
        let manifest = ShardManifest::from_json(&src)?;
        for o in &manifest.outputs {
            let bytes = fs::read(dir.join(&o.path))
                .map_err(|e| invalid(format!("{}: {e}", dir.join(&o.path).display())))?;
            if bytes.len() as u64 != o.bytes || fnv1a64(&bytes) != o.fnv64 {
                return Err(invalid(format!(
                    "{} does not match its manifest digest (expected {} bytes {}, \
                     found {} bytes {})",
                    dir.join(&o.path).display(),
                    o.bytes,
                    hex64(o.fnv64),
                    bytes.len(),
                    hex64(fnv1a64(&bytes)),
                )));
            }
        }
        Ok(manifest)
    }
}

/// Validates that `dirs` hold a complete shard partition (one manifest
/// per shard, same fingerprint and count, indices `0..N` exactly once,
/// abutting row ranges starting at 0) with intact output files, and
/// returns the manifests sorted by shard index.
pub fn validate_partition(dirs: &[PathBuf]) -> io::Result<Vec<(PathBuf, ShardManifest)>> {
    if dirs.is_empty() {
        return Err(invalid("no shard directories given".to_string()));
    }
    let mut shards: Vec<(PathBuf, ShardManifest)> = dirs
        .iter()
        .map(|d| Ok((d.clone(), ShardManifest::load_verified(d)?)))
        .collect::<io::Result<Vec<_>>>()?;
    shards.sort_by_key(|(_, m)| m.shard.index);
    let first = &shards[0].1;
    let count = first.shard.count;
    if shards.len() != count {
        return Err(invalid(format!(
            "partition declares {count} shards but {} directories were given",
            shards.len()
        )));
    }
    let mut next_row = 0;
    for (i, (dir, m)) in shards.iter().enumerate() {
        if m.fingerprint != first.fingerprint {
            return Err(invalid(format!(
                "{}: grid fingerprint {} differs from shard 0's {}",
                dir.display(),
                hex64(m.fingerprint),
                hex64(first.fingerprint)
            )));
        }
        if m.shard.count != count || m.shard.index != i {
            return Err(invalid(format!(
                "{}: expected shard {i}/{count}, found {}",
                dir.display(),
                m.shard
            )));
        }
        if m.rows.start != next_row {
            return Err(invalid(format!(
                "{}: rows start at {} but the previous shard ended at {next_row}",
                dir.display(),
                m.rows.start
            )));
        }
        next_row = m.rows.end;
    }
    Ok(shards)
}

/// Concatenates validated shard fragments of `file` (e.g. `sweep.csv`)
/// into `out`, prepending `prologue` and appending `epilogue` — the
/// canonical-document assembly for both emitters: CSV uses the header
/// line and an empty epilogue, JSON uses `[\n` and the closing bracket.
pub fn merge_fragments(
    shards: &[(PathBuf, ShardManifest)],
    file: &str,
    prologue: &[u8],
    epilogue: &[u8],
    out: &Path,
) -> io::Result<OutputDigest> {
    let mut merged = prologue.to_vec();
    for (dir, m) in shards {
        if !m.outputs.iter().any(|o| o.path == file) {
            return Err(invalid(format!(
                "{}: manifest has no `{file}` output",
                dir.display()
            )));
        }
        merged.extend_from_slice(&fs::read(dir.join(file))?);
    }
    merged.extend_from_slice(epilogue);
    fs::write(out, &merged)?;
    Ok(OutputDigest {
        path: file.to_string(),
        bytes: merged.len() as u64,
        fnv64: fnv1a64(&merged),
    })
}

/// Canonical CSV output file name (`hpcarbon sweep` and shard runs).
pub const CSV_FILE: &str = "sweep.csv";

/// Canonical JSON output file name.
pub const JSON_FILE: &str = "sweep.json";

/// Validates `dirs` as a complete shard partition and reassembles the
/// canonical single-machine [`CSV_FILE`] and [`JSON_FILE`] under
/// `out_dir`, byte-identical to an unsharded run. Returns the total
/// row count and the merged digests (CSV first).
pub fn merge_sweep_outputs(
    dirs: &[PathBuf],
    out_dir: &Path,
) -> io::Result<(usize, Vec<OutputDigest>)> {
    let shards = validate_partition(dirs)?;
    let rows = shards.last().map_or(0, |(_, m)| m.rows.end);
    fs::create_dir_all(out_dir)?;
    let csv = merge_fragments(
        &shards,
        CSV_FILE,
        crate::sink::csv_header().as_bytes(),
        b"",
        &out_dir.join(CSV_FILE),
    )?;
    let json_epilogue: &[u8] = if rows > 0 { b"\n]\n" } else { b"]\n" };
    let json = merge_fragments(
        &shards,
        JSON_FILE,
        b"[\n",
        json_epilogue,
        &out_dir.join(JSON_FILE),
    )?;
    Ok((rows, vec![csv, json]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_and_rejects() {
        assert_eq!(
            ShardSpec::parse("0/2"),
            Ok(ShardSpec { index: 0, count: 2 })
        );
        assert_eq!(
            ShardSpec::parse("3/4"),
            Ok(ShardSpec { index: 3, count: 4 })
        );
        assert!(ShardSpec::parse("2/2").is_err());
        assert!(ShardSpec::parse("0/0").is_err());
        assert!(ShardSpec::parse("1").is_err());
        assert!(ShardSpec::parse("a/b").is_err());
    }

    #[test]
    fn ranges_partition_exactly() {
        for n in [0usize, 1, 7, 16, 100, 504] {
            for count in [1usize, 2, 3, 5, 8, 17] {
                let mut next = 0;
                for index in 0..count {
                    let r = ShardSpec { index, count }.range(n);
                    assert_eq!(r.start, next, "n={n} count={count} index={index}");
                    assert!(r.end >= r.start);
                    next = r.end;
                }
                assert_eq!(next, n, "union must cover the grid");
            }
        }
    }

    mod partition_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// For every grid size and shard count: the shard ranges are
            /// disjoint, in order, exhaustive (union = `0..n`), and
            /// balanced to within one row.
            #[test]
            fn shards_partition_any_grid(n in 0usize..2_000_000, count in 1usize..64) {
                let mut covered = 0usize;
                let (mut smallest, mut largest) = (usize::MAX, 0usize);
                for index in 0..count {
                    let r = ShardSpec { index, count }.range(n);
                    prop_assert_eq!(r.start, covered);
                    prop_assert!(r.end >= r.start);
                    smallest = smallest.min(r.len());
                    largest = largest.max(r.len());
                    covered = r.end;
                }
                prop_assert_eq!(covered, n);
                prop_assert!(largest - smallest <= 1, "sizes within one row");
            }

            /// Every grid id belongs to exactly one shard.
            #[test]
            fn each_id_lands_in_exactly_one_shard(
                n in 1usize..100_000,
                count in 1usize..32,
                id_frac in 0.0f64..1.0,
            ) {
                let id = ((n as f64 * id_frac) as usize).min(n - 1);
                let owners = (0..count)
                    .filter(|&index| ShardSpec { index, count }.range(n).contains(&id))
                    .count();
                prop_assert_eq!(owners, 1);
            }
        }
    }

    #[test]
    fn fingerprint_tracks_grid_and_config() {
        let g = ScenarioGrid::quick();
        let cfg = SweepConfig::fast();
        assert_eq!(grid_fingerprint(&g, &cfg), grid_fingerprint(&g, &cfg));
        assert_ne!(
            grid_fingerprint(&g, &cfg),
            grid_fingerprint(&ScenarioGrid::shifting(), &cfg)
        );
        assert_ne!(
            grid_fingerprint(&g, &cfg),
            grid_fingerprint(&g, &SweepConfig::paper_default())
        );
    }

    #[test]
    fn manifest_roundtrips_through_json() {
        let m = ShardManifest {
            fingerprint: 0xdead_beef_0123_4567,
            shard: ShardSpec { index: 1, count: 3 },
            rows: 10..20,
            ok: 9,
            errors: 1,
            outputs: vec![
                OutputDigest {
                    path: "sweep.csv".to_string(),
                    bytes: 123,
                    fnv64: u64::MAX,
                },
                OutputDigest {
                    path: "sweep.json".to_string(),
                    bytes: 456,
                    fnv64: 7,
                },
            ],
        };
        let parsed = ShardManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(parsed, m);
    }

    #[test]
    fn manifest_parse_rejects_foreign_documents() {
        assert!(ShardManifest::from_json("{}").is_err());
        assert!(ShardManifest::from_json("[]").is_err());
        let wrong_format = ShardManifest {
            fingerprint: 1,
            shard: ShardSpec { index: 0, count: 1 },
            rows: 0..0,
            ok: 0,
            errors: 0,
            outputs: vec![],
        }
        .to_json()
        .replace(MANIFEST_FORMAT, "hpcarbon-sweep-shard-v0");
        assert!(ShardManifest::from_json(&wrong_format).is_err());
    }
}
