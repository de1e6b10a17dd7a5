//! Output checks. Each returns `Err` with a one-line reason.
//!
//! The reference outputs for seed 42 live in `expected/` and are compiled
//! into the binary, so a change that alters what the program computes
//! has to edit the benchmark to pass it.

use tsad_archive::contest::ContestResult;
use tsad_bench::experiments::catalog::CatalogRow;
use tsad_core::ckpt::digest64;
use tsad_stream::StreamingDetector;

use crate::gen::{Load, Points};
use crate::metrics::{DETECTOR_IDS, PANEL_IDS};
use crate::spawn_detector;

/// Committed outputs for seed 42 at full scale.
pub const EXPECTED_SCORES: &str = include_str!("../expected/score-http.seed42.tsv");
/// See [`EXPECTED_SCORES`].
pub const EXPECTED_WARM: &str = include_str!("../expected/ingest-durable.seed42.tsv");
/// See [`EXPECTED_SCORES`].
pub const EXPECTED_CATALOG: &str = include_str!("../expected/catalog-grid.seed42.tsv");
/// See [`EXPECTED_SCORES`].
pub const EXPECTED_CONTEST: &str = include_str!("../expected/archive-contest.seed42.tsv");

/// The data lines of an expectation file, split on tabs (the header and
/// `#` comments skipped).
pub fn rows(text: &str) -> Vec<Vec<&str>> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .skip(1)
        .map(|l| l.split('\t').collect())
        .collect()
}

/// One emitted score: `(batch index, series id, score)`.
pub type Score = (usize, u64, f64);

/// The scores the first `requests` requests of connection `conn` must
/// return, computed by driving one detector per series directly.
pub fn expected_scores(load: &Load, conn: usize, requests: usize) -> Vec<Vec<Score>> {
    let mut points = Points::new(load, conn);
    let mut detectors: Vec<Option<crate::Detector>> = Vec::new();
    (0..requests)
        .map(|_| {
            (0..load.batch)
                .filter_map(|i| {
                    let (id, v) = points.next_point();
                    let slot = (id / 2) as usize;
                    if slot >= detectors.len() {
                        detectors.resize_with(slot + 1, || None);
                    }
                    let det = detectors[slot].get_or_insert_with(|| spawn_detector(id));
                    det.push(v).map(|s| (i, id, s))
                })
                .collect()
        })
        .collect()
}

/// Parses the `"scores":[{"index":I,"id":N,"score":S},...]` array of a
/// `POST /score` response; a `null` score reads as `None`.
pub fn parse_scores(body: &[u8]) -> Result<Vec<(usize, u64, Option<f64>)>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "response body is not UTF-8".to_string())?;
    let start = text
        .find("\"scores\":[")
        .ok_or_else(|| format!("no scores array in {text:.80}"))?;
    let mut rest = &text[start + "\"scores\":[".len()..];
    let mut out = Vec::new();
    let field = |rest: &mut &str, name: &str| -> Result<String, String> {
        let tail = rest
            .strip_prefix(&format!("\"{name}\":"))
            .ok_or_else(|| format!("expected field {name} at {:.40}", *rest))?;
        let end = tail.find([',', '}']).ok_or("unterminated score record")?;
        let value = tail[..end].to_string();
        *rest = &tail[end + 1..];
        Ok(value)
    };
    while let Some(r) = rest.strip_prefix('{') {
        rest = r;
        let index = field(&mut rest, "index")?
            .parse()
            .map_err(|e| format!("index: {e}"))?;
        let id = field(&mut rest, "id")?
            .parse()
            .map_err(|e| format!("id: {e}"))?;
        let score = match field(&mut rest, "score")?.as_str() {
            "null" => None,
            s => Some(s.parse::<f64>().map_err(|e| format!("score {s}: {e}"))?),
        };
        out.push((index, id, score));
        rest = rest.strip_prefix(',').unwrap_or(rest);
    }
    if !rest.starts_with(']') {
        return Err(format!("malformed scores array near {rest:.40}"));
    }
    Ok(out)
}

/// Compares returned bodies with the reference bit for bit and returns a
/// digest of the reference.
pub fn check_scores(expected: &[Vec<Score>], bodies: &[Vec<u8>]) -> Result<u64, String> {
    if bodies.len() != expected.len() {
        return Err(format!(
            "{} bodies for {} expected requests",
            bodies.len(),
            expected.len()
        ));
    }
    let mut bytes = Vec::new();
    for (req, (want, body)) in expected.iter().zip(bodies).enumerate() {
        let got = parse_scores(body).map_err(|e| format!("request {req}: {e}"))?;
        if got.len() != want.len() {
            return Err(format!(
                "request {req}: {} scores returned, {} expected",
                got.len(),
                want.len()
            ));
        }
        for (&(wi, wid, ws), &(gi, gid, gs)) in want.iter().zip(&got) {
            let same_score = match gs {
                Some(g) => g.to_bits() == ws.to_bits(),
                None => !ws.is_finite(),
            };
            if (wi, wid) != (gi, gid) || !same_score {
                return Err(format!(
                    "request {req}: returned ({gi}, {gid}, {gs:?}), expected ({wi}, {wid}, {ws})"
                ));
            }
            bytes.extend_from_slice(&(wi as u32).to_le_bytes());
            bytes.extend_from_slice(&wid.to_le_bytes());
            bytes.extend_from_slice(&ws.to_bits().to_le_bytes());
        }
    }
    Ok(digest64(&bytes))
}

/// The recovered fleet's checkpoint must equal the live fleet's.
pub fn check_recovered(live: &[u8], recovered: &[u8]) -> Result<(), String> {
    if live == recovered {
        return Ok(());
    }
    let at = live
        .iter()
        .zip(recovered)
        .position(|(a, b)| a != b)
        .unwrap_or(live.len().min(recovered.len()));
    Err(format!(
        "recovered checkpoint differs from the live one at byte {at} \
         ({} vs {} bytes)",
        recovered.len(),
        live.len()
    ))
}

/// Looks up the committed value `key` (first column) of an expectation
/// file with two columns.
pub fn expected_value<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    rows(text)
        .into_iter()
        .find(|r| r.first() == Some(&key))
        .and_then(|r| r.get(1).copied())
}

/// Catalog hits as an expectation file: `(detector, family, hits,
/// series)` per cell.
pub fn catalog_tsv(rows: &[CatalogRow]) -> String {
    let mut out = String::from("detector\tfamily\thits\tseries\n");
    for r in rows {
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\n",
            r.detector, r.family, r.hits, r.series
        ));
    }
    out
}

/// Contest outcomes as an expectation file: `(panel id, dataset,
/// predicted, correct)` per outcome.
pub fn contest_tsv(results: &[ContestResult]) -> String {
    let mut out = String::from("panel\tdataset\tpredicted\tcorrect\n");
    for (r, id) in results.iter().zip(PANEL_IDS) {
        for o in &r.outcomes {
            out.push_str(&format!(
                "{id}\t{}\t{}\t{}\n",
                o.dataset, o.predicted, o.correct
            ));
        }
    }
    out
}

/// Every repetition must render like the first; with `committed`, the
/// first must equal it.
fn check_reps(tsvs: &[String], committed: Option<&str>) -> Result<(), String> {
    let first = tsvs.first().ok_or("no repetitions")?;
    if let Some(i) = tsvs.iter().position(|t| t != first) {
        return Err(format!("repetition {i} disagrees with repetition 0"));
    }
    match committed {
        Some(c) if rows(c) != rows(first) => Err(format!(
            "outputs differ from the committed ones; observed:\n{first}"
        )),
        _ => Ok(()),
    }
}

/// Catalog hits agree across repetitions (and with `committed`), and the
/// registry is the one this benchmark names.
pub fn check_catalog(reps: &[Vec<CatalogRow>], committed: Option<&str>) -> Result<(), String> {
    let first = reps.first().ok_or("no repetitions")?;
    let mut ids: Vec<&str> = first.iter().map(|r| r.detector.as_str()).collect();
    ids.dedup();
    if ids != DETECTOR_IDS {
        return Err(format!("registry ids changed: {ids:?}"));
    }
    let tsvs: Vec<String> = reps.iter().map(|r| catalog_tsv(r)).collect();
    check_reps(&tsvs, committed)
}

/// Contest outcomes agree across repetitions (and with `committed`).
pub fn check_contest(reps: &[Vec<ContestResult>], committed: Option<&str>) -> Result<(), String> {
    if let Some(r) = reps.iter().find(|r| r.len() != PANEL_IDS.len()) {
        return Err(format!(
            "{} panel results, {} expected",
            r.len(),
            PANEL_IDS.len()
        ));
    }
    let tsvs: Vec<String> = reps.iter().map(|r| contest_tsv(r)).collect();
    check_reps(&tsvs, committed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed seed-42 grid as the rows `catalog::run` returns.
    fn committed_grid() -> Vec<CatalogRow> {
        rows(EXPECTED_CATALOG)
            .iter()
            .map(|r| CatalogRow {
                detector: r[0].to_string(),
                family: r[1].to_string(),
                hits: r[2].parse().unwrap(),
                series: r[3].parse().unwrap(),
                wall_ns: 1,
            })
            .collect()
    }

    #[test]
    fn a_changed_hit_count_fails_the_catalog_check() {
        let grid = committed_grid();
        assert_eq!(
            check_catalog(&[grid.clone(), grid.clone()], Some(EXPECTED_CATALOG)),
            Ok(())
        );
        let mut changed = grid.clone();
        changed[3].hits += 1;
        assert!(check_catalog(&[changed.clone()], Some(EXPECTED_CATALOG)).is_err());
        assert!(check_catalog(&[grid, changed], None).is_err());
    }

    #[test]
    fn a_truncated_recovered_state_fails() {
        use tsad_fleet::{BatchOutput, Fleet, FleetConfig, SeriesId};
        let mut fleet = Fleet::new(crate::factory(), FleetConfig::default());
        let batch: Vec<(SeriesId, f64)> = (0..64).map(|i| (SeriesId(i % 8), i as f64)).collect();
        fleet.push_batch(&batch, &mut BatchOutput::new());
        let live = fleet.checkpoint().to_bytes();
        assert_eq!(check_recovered(&live, &live), Ok(()));
        assert!(check_recovered(&live, &live[..live.len() - 1]).is_err());
    }

    #[test]
    fn scores_parse_exactly_including_null() {
        let body = br#"{"points":2,"spawned":0,"quarantined":0,"evicted":0,"scores":[{"index":0,"id":4,"score":0.1},{"index":1,"id":6,"score":null}]}"#;
        let s = parse_scores(body).unwrap();
        assert_eq!(s, vec![(0, 4, Some(0.1)), (1, 6, None)]);
        assert!(parse_scores(b"{\"scores\":[{\"index\":0}]}").is_err());
        let empty = br#"{"points":2,"spawned":2,"quarantined":0,"evicted":0,"scores":[]}"#;
        assert_eq!(parse_scores(empty).unwrap(), vec![]);
    }

    #[test]
    fn expectation_files_parse() {
        assert_eq!(rows(EXPECTED_CATALOG).len(), DETECTOR_IDS.len() * 4);
        assert_eq!(rows(EXPECTED_CONTEST).len(), PANEL_IDS.len() * 3);
        assert!(expected_value(EXPECTED_SCORES, "conn0").is_some());
        assert!(expected_value(EXPECTED_WARM, "warm_checkpoint").is_some());
    }
}
