//! Reference outputs and the byte checks against them.
//!
//! Served bodies are checked against the CLI's serial estimate path and
//! sweep documents against a one-thread sweep of the same grid. The
//! references run outside every timed phase.

use std::path::Path;
use std::process::{Command, Stdio};

/// Requests per reference `hpcarbon estimate` call. A batch holds one
/// indexed trace (~1 MiB) per distinct region-year, so chunks bound the
/// reference processes' memory on novel-seed traffic.
const REF_CHUNK: usize = 64;

/// Splits a batch document — `[\n`, rows joined by `,\n`, `\n]\n`, the
/// framing of both `hpcarbon estimate` and `sweep.json` — into its row
/// texts.
pub fn split_rows(doc: &[u8]) -> Result<Vec<&[u8]>, String> {
    if doc == b"[]\n" {
        return Ok(Vec::new());
    }
    if !doc.starts_with(b"[\n") {
        return Err("batch document does not open with `[`".into());
    }
    let mut rows = Vec::new();
    let mut i = 2;
    loop {
        let start = i;
        let (mut depth, mut in_str, mut esc) = (0usize, false, false);
        loop {
            let Some(&b) = doc.get(i) else {
                return Err("batch document ends inside a row".into());
            };
            i += 1;
            if in_str {
                match b {
                    _ if esc => esc = false,
                    b'\\' => esc = true,
                    b'"' => in_str = false,
                    _ => {}
                }
                continue;
            }
            match b {
                b'"' => in_str = true,
                b'{' | b'[' => depth += 1,
                b'}' | b']' => {
                    depth = depth.checked_sub(1).ok_or("unbalanced row")?;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
        }
        rows.push(&doc[start..i]);
        match &doc[i..] {
            b"\n]\n" => return Ok(rows),
            rest if rest.starts_with(b",\n") => i += 2,
            _ => return Err("malformed row separator in batch document".into()),
        }
    }
}

/// The document the CLI emits for a one-request batch whose row is `row`.
pub fn single_doc(row: &[u8]) -> Vec<u8> {
    [b"[\n".as_slice(), row, b"\n]\n"].concat()
}

/// One reference document per body: `hpcarbon estimate --threads 1`
/// over the bodies in chunks, two processes at a time.
pub fn estimate_refs(bin: &Path, work: &Path, bodies: &[String]) -> Result<Vec<Vec<u8>>, String> {
    let chunks: Vec<&[String]> = bodies.chunks(REF_CHUNK).collect();
    let workers = crate::gen::CONNECTIONS;
    let mut answers: Vec<Option<Result<Vec<Vec<u8>>, String>>> = vec![None; chunks.len()];
    std::thread::scope(|s| {
        for (w, mine) in answers
            .chunks_mut(chunks.len().div_ceil(workers).max(1))
            .enumerate()
        {
            let first = w * chunks.len().div_ceil(workers).max(1);
            let chunks = &chunks;
            s.spawn(move || {
                for (i, slot) in mine.iter_mut().enumerate() {
                    *slot = Some(estimate_chunk(bin, work, first + i, chunks[first + i]));
                }
            });
        }
    });
    let mut refs = Vec::with_capacity(bodies.len());
    for answer in answers {
        refs.extend(answer.ok_or("a reference worker panicked")??);
    }
    Ok(refs)
}

fn estimate_chunk(
    bin: &Path,
    work: &Path,
    k: usize,
    bodies: &[String],
) -> Result<Vec<Vec<u8>>, String> {
    let request = work.join(format!("ref-{k}.request.json"));
    let answer = work.join(format!("ref-{k}.answer.json"));
    std::fs::write(&request, format!("[\n{}\n]\n", bodies.join(",\n")))
        .map_err(|e| format!("cannot write {}: {e}", request.display()))?;
    let out = Command::new(bin)
        .args(["estimate", "--threads", "1", "--request"])
        .arg(&request)
        .arg("--out")
        .arg(&answer)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run the reference estimate: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "reference estimate failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let doc =
        std::fs::read(&answer).map_err(|e| format!("cannot read {}: {e}", answer.display()))?;
    let rows = split_rows(&doc)?;
    if rows.len() != bodies.len() {
        return Err(format!(
            "reference answered {} of {} rows",
            rows.len(),
            bodies.len()
        ));
    }
    Ok(rows.into_iter().map(single_doc).collect())
}

/// A one-thread reference sweep of one seed's `paper_default` grid into
/// `dir`; returns its CSV and JSON documents.
pub fn sweep_ref(bin: &Path, dir: &Path, seed: u64) -> Result<(Vec<u8>, Vec<u8>), String> {
    let out = Command::new(bin)
        .args([
            "sweep",
            "--threads",
            "1",
            "--seed",
            &seed.to_string(),
            "--out",
        ])
        .arg(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run the reference sweep: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "reference sweep failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    read_sweep(dir)
}

/// The CSV and JSON documents a sweep wrote into `dir`.
pub fn read_sweep(dir: &Path) -> Result<(Vec<u8>, Vec<u8>), String> {
    let read = |name: &str| {
        std::fs::read(dir.join(name))
            .map_err(|e| format!("cannot read {}/{name}: {e}", dir.display()))
    };
    Ok((read("sweep.csv")?, read("sweep.json")?))
}

/// Rows of a sweep whose CSV line or JSON object differs from the
/// reference's; every row counts when a document's framing is broken.
pub fn sweep_row_mismatches(
    got: &(Vec<u8>, Vec<u8>),
    want: &(Vec<u8>, Vec<u8>),
    rows: usize,
) -> usize {
    let csv_rows = |doc: &[u8]| -> Option<Vec<Vec<u8>>> {
        let mut lines: Vec<Vec<u8>> = doc.split(|&b| b == b'\n').map(<[u8]>::to_vec).collect();
        (lines.pop() == Some(Vec::new())).then_some(lines)
    };
    let (Some(got_csv), Some(want_csv)) = (csv_rows(&got.0), csv_rows(&want.0)) else {
        return rows;
    };
    let (Ok(got_json), Ok(want_json)) = (split_rows(&got.1), split_rows(&want.1)) else {
        return rows;
    };
    if got_csv.first() != want_csv.first()
        || got_csv.len() != rows + 1
        || want_csv.len() != rows + 1
        || got_json.len() != rows
        || want_json.len() != rows
    {
        return rows;
    }
    (0..rows)
        .filter(|&r| got_csv[r + 1] != want_csv[r + 1] || got_json[r] != want_json[r])
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    const BATCH: &[u8] =
        b"[\n  {\"a\": \"x}\\\"\", \"b\": [1, {\"c\": 2}]},\n  {\"error\": \"no\"}\n]\n";

    #[test]
    fn split_rows_follows_json_nesting_and_strings() {
        let rows = split_rows(BATCH).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], b"  {\"a\": \"x}\\\"\", \"b\": [1, {\"c\": 2}]}");
        assert_eq!(rows[1], b"  {\"error\": \"no\"}");
        assert_eq!(single_doc(rows[1]), b"[\n  {\"error\": \"no\"}\n]\n");
        assert_eq!(split_rows(&single_doc(rows[0])).unwrap(), vec![rows[0]]);
        assert!(split_rows(b"[]\n").unwrap().is_empty());
        assert!(split_rows(b"[\n  {\"a\": 1}").is_err());
        assert!(split_rows(b"[\n  {\"a\": 1}\n]").is_err());
    }

    #[test]
    fn one_corrupted_reference_byte_is_a_failure() {
        let served = single_doc(split_rows(BATCH).unwrap()[0]);
        let reference = served.clone();
        assert!(!crate::body_failed(200, &served, &reference));
        for at in 0..reference.len() {
            let mut corrupt = reference.clone();
            corrupt[at] ^= 0x01;
            assert!(crate::body_failed(200, &served, &corrupt), "byte {at}");
        }
        assert!(crate::body_failed(500, &served, &reference));
    }

    fn sweep_docs(cell: &str) -> (Vec<u8>, Vec<u8>) {
        let csv = format!("id,v\n0,{cell}\n1,b\n").into_bytes();
        let json =
            format!("[\n  {{\"id\": 0, \"v\": \"{cell}\"}},\n  {{\"id\": 1, \"v\": \"b\"}}\n]\n")
                .into_bytes();
        (csv, json)
    }

    #[test]
    fn sweep_mismatches_count_rows_that_differ() {
        let want = sweep_docs("a");
        assert_eq!(sweep_row_mismatches(&want, &want, 2), 0);
        assert_eq!(sweep_row_mismatches(&sweep_docs("c"), &want, 2), 1);
        let mut corrupt = want.clone();
        corrupt.1[10] ^= 0x01;
        assert_eq!(sweep_row_mismatches(&want, &corrupt, 2), 1);
        let truncated = (want.0[..want.0.len() - 1].to_vec(), want.1.clone());
        assert_eq!(sweep_row_mismatches(&truncated, &want, 2), 2);
    }
}
