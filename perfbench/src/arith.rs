//! The benchmark's own arithmetic: order statistics, the derived layer
//! ratios, the paper-accuracy figure and the results digest. Pure
//! functions, unit-tested below.

use drs_harness::fnv1a64;

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads printed here match the ones a script computes from the
/// same values.
///
/// # Panics
///
/// Panics with fewer than two values or on a NaN.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    assert!(s.len() >= 2, "quartiles need at least two values");
    let n = 4usize;
    let m = s.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, s.len() - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median: the spread the
/// benchmark's bounds are judged against.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "order statistics of an empty sample");
    let mut s = values.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in timings"));
    s
}

/// Share of the pool's worker time not spent inside cells:
/// `1 − Σ cell time / (workers × wall time)`.
pub fn idle_frac(cell_s_sum: f64, workers: usize, wall_s: f64) -> f64 {
    1.0 - cell_s_sum / (workers as f64 * wall_s)
}

/// Host nanoseconds per simulated cycle; zero when nothing was simulated.
pub fn ns_per_cycle(host_s: f64, cycles: u64) -> f64 {
    if cycles == 0 {
        0.0
    } else {
        host_s * 1e9 / cycles as f64
    }
}

/// Throughput of one method over a set of cells, as the `report` mode
/// computes it: total rays over total cycles (clock and SM count cancel
/// in every ratio taken from it).
pub fn rate(rays: u64, cycles: u64) -> f64 {
    if cycles == 0 {
        0.0
    } else {
        rays as f64 / cycles as f64
    }
}

/// Percent deviation of a measured speedup from the paper's value:
/// `|measured − paper| / paper × 100`.
pub fn paper_err_pct(measured: f64, paper: f64) -> f64 {
    (measured - paper).abs() / paper * 100.0
}

/// The cell objects of a `stats_json` document, as raw text slices in
/// document order. The document is the harness's compact JSON: cell
/// objects sit in the top-level `"cells"` array; strings are scanned so
/// braces inside cell names cannot confuse the split.
pub fn cell_objects(doc: &str) -> Vec<&str> {
    let Some(start) = doc.find("\"cells\":[") else { return Vec::new() };
    let bytes = doc.as_bytes();
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut in_str = false;
    let mut escaped = false;
    let mut obj_start = 0;
    for (i, &b) in bytes.iter().enumerate().skip(start + "\"cells\":[".len()) {
        if in_str {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_str = true,
            b'{' | b'[' => {
                if depth == 0 {
                    obj_start = i;
                }
                depth += 1;
            }
            b'}' | b']' => {
                if depth == 0 {
                    break; // the closing bracket of the cells array
                }
                depth -= 1;
                if depth == 0 {
                    out.push(&doc[obj_start..=i]);
                }
            }
            _ => {}
        }
    }
    out
}

/// The `"cell"` name of one cell object.
fn cell_name(obj: &str) -> &str {
    let key = "\"cell\":\"";
    obj.find(key).map_or("", |at| {
        let rest = &obj[at + key.len()..];
        &rest[..rest.find('"').unwrap_or(rest.len())]
    })
}

/// FNV-1a digest over the cell objects of a `stats_json` document whose
/// `"cell"` name contains `filter` (every cell for `""`), joined by `,`.
/// Independent of the document's mode and of the cells filtered out, so
/// a benchmark workload's cells can be compared with the same cells
/// inside a larger `experiments --stats-dump` document.
pub fn cells_digest(doc: &str, filter: &str) -> u64 {
    let picked: Vec<&str> =
        cell_objects(doc).into_iter().filter(|c| cell_name(c).contains(filter)).collect();
    fnv1a64(picked.join(",").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        // Small samples extrapolate: quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        let share = iqr_share(&v);
        assert!((share - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn idle_frac_counts_unused_worker_time() {
        assert_eq!(idle_frac(10.0, 2, 5.0), 0.0);
        assert!((idle_frac(6.0, 2, 4.0) - 0.25).abs() < 1e-12);
        assert!((idle_frac(3.0, 1, 4.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn ns_per_cycle_and_rate() {
        assert!((ns_per_cycle(1.5, 1_000_000) - 1500.0).abs() < 1e-9);
        assert_eq!(ns_per_cycle(1.0, 0), 0.0);
        assert_eq!(rate(50, 100), 0.5);
        assert_eq!(rate(5, 0), 0.0);
    }

    #[test]
    fn paper_err_is_symmetric_percent() {
        assert!((paper_err_pct(1.38, 1.84) - 25.0).abs() < 1e-9);
        assert!((paper_err_pct(2.30, 1.84) - 25.0).abs() < 1e-9);
        assert_eq!(paper_err_pct(1.67, 1.67), 0.0);
    }

    #[test]
    fn digest_selects_cells_by_name() {
        let doc = r#"{"mode":"fig11","cells":[{"id":"1","cell":"conference room/Aila/b1/w48","stats":{"a":[1,2],"s":"}"}},{"id":"2","cell":"plants/Aila/b2/w48","stats":{}}]}"#;
        let cells = cell_objects(doc);
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[1], r#"{"id":"2","cell":"plants/Aila/b2/w48","stats":{}}"#);
        let only_conf = fnv1a64(cells[0].as_bytes());
        assert_eq!(cells_digest(doc, "conference room"), only_conf);
        assert_eq!(cells_digest(doc, ""), fnv1a64(format!("{},{}", cells[0], cells[1]).as_bytes()));
        // The mode is outside the cells, so it cannot change the digest.
        let other_mode = doc.replace("fig11", "bench");
        assert_eq!(cells_digest(&other_mode, "conference room"), only_conf);
        assert_eq!(cells_digest(doc, "/b1/"), only_conf);
        assert_ne!(cells_digest(doc, "plants"), only_conf);
    }
}
