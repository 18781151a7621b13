//! File-to-result pipeline: datasets written as the paper's raw text format
//! (`id,x,y` lines, the HDFS `textFile` input of Algorithm 5), read back and
//! joined.

use adaptive_spatial_join::core::AgreementPolicy;
use adaptive_spatial_join::data::{
    read_points_csv, read_points_csv_partitions, write_points_csv, Catalog,
};
use adaptive_spatial_join::engine::Dataset;
use adaptive_spatial_join::join::{adaptive_join, oracle, to_records, JoinSpec, Record};
use adaptive_spatial_join::prelude::*;
use proptest::prelude::*;
use std::path::{Path, PathBuf};

/// Writes `points` to `path` as `id,x,y` lines numbered from 0.
fn write_csv(path: &Path, points: &[Point]) {
    let mut text = Vec::new();
    write_points_csv(&mut text, 0, points.iter().copied()).unwrap();
    std::fs::write(path, text).unwrap();
}

#[test]
fn csv_loaded_inputs_join_identically() {
    let catalog = Catalog::new(1_500);
    let dir = std::env::temp_dir();
    let r_path = dir.join(format!("asj-e2e-r-{}.csv", std::process::id()));
    let s_path = dir.join(format!("asj-e2e-s-{}.csv", std::process::id()));
    let r_pts = catalog.s1.points();
    let s_pts = catalog.s2.points();
    write_csv(&r_path, &r_pts);
    write_csv(&s_path, &s_pts);

    // The CLI's `load_records`: `Record`s built by the reader itself, straight
    // into the join's input partitions.
    let load = |path: &std::path::Path| {
        let parts = read_points_csv_partitions(path, JoinSpec::INPUT_PARTITIONS, Record::new);
        Dataset::from_partitions(parts.unwrap())
    };
    let (r_parts, s_parts) = (load(&r_path), load(&s_path));
    std::fs::remove_file(&r_path).unwrap();
    std::fs::remove_file(&s_path).unwrap();
    let (r, s) = (
        r_parts.clone().into_partitions().concat(),
        s_parts.clone().into_partitions().concat(),
    );
    assert_eq!(r.len(), r_pts.len());

    let c = Cluster::new(ClusterConfig::new(4));
    let spec = JoinSpec::new(catalog.s1.bbox, 1.5).with_partitions(16);
    let from_csv =
        adaptive_join(&c, &spec, AgreementPolicy::Lpib, r_parts, s_parts).expect("join runs");
    let in_memory = adaptive_join(
        &c,
        &spec,
        AgreementPolicy::Lpib,
        to_records(&r_pts, 0),
        to_records(&s_pts, 0),
    )
    .expect("join runs");
    let mut a = from_csv.pairs.to_vec();
    let mut b = in_memory.pairs.to_vec();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b);
    // And both match the oracle.
    assert_eq!(a, oracle::rtree_pairs(&r, &s, spec.eps));
}

/// A file large enough (≥ 2 MiB) that the reader cuts it into more than one
/// split on any multi-core host: rows come back complete and in file order.
#[test]
fn multi_split_file_loads_in_file_order() {
    let pts = Catalog::new(60_000).s1.points();
    let path = std::env::temp_dir().join(format!("asj-e2e-big-{}.csv", std::process::id()));
    write_csv(&path, &pts);
    assert!(std::fs::metadata(&path).unwrap().len() >= 2 << 20);
    let whole = read_points_csv_partitions(&path, 1, Record::new).unwrap();
    let parts = read_points_csv_partitions(&path, 16, Record::new).unwrap();
    std::fs::remove_file(&path).unwrap();
    let records = to_records(&pts, 0);
    assert!(
        whole == [records.clone()],
        "rows differ or are out of order"
    );
    assert!(
        parts == Dataset::from_vec(records, 16).into_partitions(),
        "partitions are not laid out as from_vec lays them out"
    );
}

/// The sequential line-by-line reader, sharing no code with the library: the
/// rows, or the 1-based line of the first bad one.
fn reference(text: &str) -> Result<Vec<(u64, Point)>, usize> {
    let mut rows = Vec::new();
    for (n, line) in text.split('\n').enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.splitn(3, ',').map(str::trim).collect();
        let row = (|| {
            let id = fields.first()?.parse::<u64>().ok()?;
            let x = fields.get(1)?.parse::<f64>().ok()?;
            let y = fields.get(2)?.parse::<f64>().ok()?;
            (x.is_finite() && y.is_finite()).then_some((id, Point::new(x, y)))
        })();
        rows.push(row.ok_or(n + 1)?);
    }
    Ok(rows)
}

fn scratch_file(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("asj-csv-prop-{}-{tag}.csv", std::process::id()))
}

/// The 1-based line an error names.
fn error_line(e: &std::io::Error) -> usize {
    let msg = e.to_string();
    let line = msg.strip_prefix("line ").and_then(|m| m.split(':').next());
    line.and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("error names no line: {msg}"))
}

/// Reads `path` into `n` partitions, and checks the result against
/// `Dataset::from_vec(read_points_csv(..), n)` and the sequential reference.
fn check_partitioned_read(path: &Path, text: &str, n: usize) -> Result<(), TestCaseError> {
    let got = read_points_csv_partitions(path, n, |id, p| (id, p));
    let whole = read_points_csv(path);
    match (got, whole, reference(text)) {
        (Ok(parts), Ok(rows), Ok(expected)) => {
            prop_assert_eq!(&rows, &expected);
            prop_assert_eq!(parts, Dataset::from_vec(rows, n).into_partitions());
        }
        (Err(e), Err(whole_e), Err(line)) => {
            prop_assert_eq!(
                e.to_string(),
                whole_e.to_string(),
                "the same first bad line"
            );
            prop_assert_eq!(error_line(&e), line);
        }
        (got, whole, expected) => {
            let (got, whole) = (got.map(|_| ()), whole.map(|_| ()));
            prop_assert!(
                false,
                "{:?} / {:?} / {:?}",
                got,
                whole,
                expected.map(|_| ())
            );
        }
    }
    Ok(())
}

/// Fills the start of a file past one 256 KiB read block, or past 2 MiB
/// (two splits on any multi-core host), with plain rows.
fn filler(kind: u8) -> String {
    let bytes = [0, 300 << 10, (2 << 20) + (40 << 10)][kind as usize];
    "12,0.25,-7.5\n".repeat(bytes / 13)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The partitioned reader lays a file out exactly as
    /// `Dataset::from_vec(read_points_csv(..), n)` would, or fails on the same
    /// first bad line: over blank and whitespace-only lines, CRLF, a missing
    /// final newline, leading Unicode whitespace, files smaller than one
    /// read block and lines straddling block and split boundaries, and `n`
    /// up to beyond the row count.
    #[test]
    fn partitioned_reader_equals_from_vec_of_the_whole_file(
        lines in prop::collection::vec((0u8..7, 0u64..1000, -90.0f64..90.0, any::<bool>()), 0..60),
        filler_kind in 0u8..3,
        final_newline in any::<bool>(),
        bad in (any::<bool>(), 0usize..60, 0u8..4),
        n in 1usize..70,
    ) {
        let mut text = filler(filler_kind);
        let mut lines: Vec<String> = lines
            .iter()
            .map(|&(kind, id, x, crlf)| {
                let line = match kind {
                    0 => String::new(),
                    1 => " \t ".to_string(),
                    2 => format!("\u{3000}\u{a0}{id},{x},{}", x / 2.0),
                    3 => format!(" {id} , {x} ,{}\t", -x),
                    4 => "\u{2003}".to_string(),
                    _ => format!("{id},{x},{}", x * 3.0),
                };
                if crlf { line + "\r" } else { line }
            })
            .collect();
        if let (true, at, kind) = bad {
            let line = ["5,1.0", "5,x,2", "5,1,inf", "-5,1,2"][kind as usize];
            lines.insert(at.min(lines.len()), line.to_string());
        }
        text.push_str(&lines.join("\n"));
        if final_newline && !lines.is_empty() {
            text.push('\n');
        }
        let path = scratch_file(&format!("{filler_kind}-{n}"));
        std::fs::write(&path, &text).unwrap();
        let checked = check_partitioned_read(&path, &text, n);
        std::fs::remove_file(&path).unwrap();
        checked?;
    }
}
