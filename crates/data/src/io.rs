use asj_geom::Point;
use std::fmt::Display;
use std::io::{self, BufWriter, Write};
use std::panic::resume_unwind;
use std::path::Path;
use std::str::FromStr;

/// Writes points as `id,x,y` CSV lines — the raw text format the paper's
/// pipeline loads from HDFS (`sc.textFile(path).map(line → tup)`).
pub fn write_points_csv(path: &Path, points: &[Point]) -> io::Result<()> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for (id, p) in points.iter().enumerate() {
        writeln!(out, "{id},{},{}", p.x, p.y)?;
    }
    out.flush()
}

/// Reads `id,x,y` CSV lines back into `(id, point)` tuples.
///
/// Malformed lines are reported as errors with their line number — a corrupt
/// record should fail loudly rather than silently skew a join result.
pub fn read_points_csv(path: &Path) -> io::Result<Vec<(u64, Point)>> {
    read_points_csv_with(path, |id, p| (id, p))
}

/// Reads `id,x,y` CSV lines into rows built by `make`, in file order.
///
/// Like `textFile`, the read is split-parallel: the file is cut at newline
/// boundaries into one split per MiB (at most one per core), each split is
/// parsed on its own thread straight from the file's bytes, and `make` builds
/// the caller's row type in that same pass. Errors name the 1-based line in
/// the whole file; the earliest bad line wins.
pub fn read_points_csv_with<T: Send>(
    path: &Path,
    make: impl Fn(u64, Point) -> T + Sync,
) -> io::Result<Vec<T>> {
    let bytes = std::fs::read(path)?;
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    parse_splits(&bytes, cores.min(bytes.len() >> 20).max(1), &make)
}

fn parse_splits<T: Send>(
    bytes: &[u8],
    splits: usize,
    make: &(impl Fn(u64, Point) -> T + Sync),
) -> io::Result<Vec<T>> {
    // Split k ends after the first newline at or past byte k·len/splits − 1
    // (or past its own start, after a line longer than a split), so no line
    // straddles two splits; trailing splits may be empty.
    let mut starts = vec![0];
    for k in 1..splits {
        let from = (k * bytes.len() / splits).max(starts[k - 1] + 1) - 1;
        let newline = bytes[from..].iter().position(|&b| b == b'\n');
        starts.push(newline.map_or(bytes.len(), |at| from + at + 1));
    }
    starts.push(bytes.len());
    std::thread::scope(|scope| {
        let workers: Vec<_> = starts
            .windows(2)
            .map(|w| {
                // The other splits' rows are appended to the first one's, so
                // those are sized for the whole file here, not regrown later.
                let sized_for = if w[0] == 0 { bytes } else { &bytes[w[0]..w[1]] };
                scope.spawn(move || parse_split(&bytes[w[0]..w[1]], newlines(sized_for) + 1, make))
            })
            .collect();
        // Joined in file order, so the earliest bad line is the one reported;
        // a panic in `make` goes on unwinding here.
        let mut parts = workers.into_iter().zip(&starts).map(|(worker, &start)| {
            let part = worker.join().unwrap_or_else(|p| resume_unwind(p));
            part.map_err(|(line, what)| {
                let msg = format!("line {}: {what}", newlines(&bytes[..start]) + line + 1);
                io::Error::new(io::ErrorKind::InvalidData, msg)
            })
        });
        let mut rows = parts.next().transpose()?.unwrap_or_default();
        for part in parts {
            rows.append(&mut part?);
        }
        Ok(rows)
    })
}

/// Counts `\n` bytes; over 255-byte chunks the inner sums stay in `u8` lanes.
fn newlines(bytes: &[u8]) -> usize {
    let chunk = |c: &[u8]| c.iter().map(|&b| u8::from(b == b'\n')).sum::<u8>();
    bytes.chunks(255).map(|c| usize::from(chunk(c))).sum()
}

/// Parses one split line by line into a `Vec` of the given capacity; an error
/// carries the 0-based line within the split.
fn parse_split<T>(
    split: &[u8],
    capacity: usize,
    make: &impl Fn(u64, Point) -> T,
) -> Result<Vec<T>, (usize, String)> {
    let text = match std::str::from_utf8(split) {
        Ok(text) => text,
        Err(e) => {
            // The lines before the undecodable one are checked first, as a
            // line-by-line reader would.
            let valid = &split[..e.valid_up_to()];
            let tail = valid.rsplit(|&b| b == b'\n').next().map_or(0, <[u8]>::len);
            let before = &valid[..valid.len() - tail];
            parse_split(before, 0, make)?;
            return Err((newlines(before), "invalid UTF-8".into()));
        }
    };
    // Sized once: a growing `Vec` would fault in fresh pages at every doubling.
    let mut rows = Vec::with_capacity(capacity);
    for (n, line) in text.split('\n').enumerate() {
        if let Some((id, p)) = parse_line(line).map_err(|what| (n, what))? {
            rows.push(make(id, p));
        }
    }
    Ok(rows)
}

/// One `id,x,y` line; `None` for a blank one.
fn parse_line(line: &str) -> Result<Option<(u64, Point)>, String> {
    fn number<F: FromStr<Err = E>, E: Display>(
        text: Option<&str>,
        what: &str,
    ) -> Result<F, String> {
        let text = text.ok_or_else(|| format!("missing {what}"))?;
        // Fields are trimmed (which also drops the `\r` of a CRLF file), but
        // only when they do not parse as they are: trimming decodes chars
        // from both ends and costs as much as parsing the number.
        let parsed = text.parse().or_else(|_| text.trim().parse());
        parsed.map_err(|e| format!("bad {what}: {e}"))
    }
    if line.trim_start().is_empty() {
        return Ok(None);
    }
    let mut fields = line.splitn(3, ',');
    let id: u64 = number(fields.next(), "id")?;
    let x: f64 = number(fields.next(), "x")?;
    let y: f64 = number(fields.next(), "y")?;
    if !x.is_finite() || !y.is_finite() {
        return Err("non-finite coordinate".into());
    }
    Ok(Some((id, Point::new(x, y))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("asj-io-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn roundtrip() {
        let path = tmpfile("roundtrip.csv");
        let pts = vec![
            Point::new(1.5, -2.25),
            Point::new(0.0, 0.0),
            Point::new(-100.0, 49.0),
        ];
        write_points_csv(&path, &pts).unwrap();
        let back = read_points_csv(&path).unwrap();
        assert_eq!(back.len(), 3);
        for (i, (id, p)) in back.iter().enumerate() {
            assert_eq!(*id, i as u64);
            assert_eq!(*p, pts[i]);
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn empty_lines_are_skipped() {
        let path = tmpfile("blank.csv");
        std::fs::write(&path, "0,1.0,2.0\n\n1,3.0,4.0\n").unwrap();
        let back = read_points_csv(&path).unwrap();
        assert_eq!(back.len(), 2);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn malformed_line_reports_position() {
        let path = tmpfile("bad.csv");
        std::fs::write(&path, "0,1.0,2.0\n1,oops,4.0\n").unwrap();
        let err = read_points_csv(&path).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn non_finite_rejected() {
        let path = tmpfile("inf.csv");
        std::fs::write(&path, "0,inf,2.0\n").unwrap();
        assert!(read_points_csv(&path).is_err());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn missing_field_rejected() {
        let path = tmpfile("short.csv");
        std::fs::write(&path, "0,1.0\n").unwrap();
        let err = read_points_csv(&path).unwrap_err();
        assert!(err.to_string().contains("missing y"), "{err}");
        std::fs::remove_file(path).unwrap();
    }

    /// `Ok` rows, or the message of the error, of `text` cut into `splits`.
    fn parse(text: &[u8], splits: usize) -> Result<Vec<(u64, Point)>, String> {
        parse_splits(text, splits, &|id, p| (id, p)).map_err(|e| {
            assert_eq!(e.kind(), io::ErrorKind::InvalidData);
            e.to_string()
        })
    }

    #[test]
    fn ids_are_integers_not_floats() {
        let exact = parse(b"9007199254740993,1,2\n18446744073709551615,3,4\n", 1).unwrap();
        assert_eq!(exact[0].0, 9_007_199_254_740_993);
        assert_eq!(exact[1].0, u64::MAX);
        for id in ["-5", "nan", "1e3", "1.7", "18446744073709551616", ""] {
            let err = parse(format!("0,1,2\n{id},1,2\n").as_bytes(), 1).unwrap_err();
            assert!(err.starts_with("line 2: bad id: "), "{id}: {err}");
        }
    }

    #[test]
    fn invalid_utf8_names_its_line() {
        let text = b"0,1,2\n1,3,4\n2,\xff,6\n3,7,8\n";
        for splits in 1..=4 {
            assert_eq!(parse(text, splits).unwrap_err(), "line 3: invalid UTF-8");
        }
        // A malformed row above the undecodable one is still the first error.
        let err = parse(b"0,1,2\n1,oops,4\n2,\xff,6\n", 1).unwrap_err();
        assert!(err.starts_with("line 2: bad x"), "{err}");
    }

    #[test]
    fn line_endings_and_file_ends() {
        let rows = vec![(0, Point::new(1.0, 2.0)), (1, Point::new(3.0, 4.0))];
        for text in [
            "0,1,2\n1,3,4\n",
            "0,1,2\n1,3,4",
            "0,1,2\r\n1,3,4\r\n",
            "0,1,2\r\n1,3,4",
            "0,1,2\n1,3,4\n\n",
            "0,1,2\n1,3,4\n  \r\n",
            " 0 , 1 ,\t2 \n\n\n1,3,4\n",
        ] {
            for splits in 1..=3 {
                assert_eq!(parse(text.as_bytes(), splits).unwrap(), rows, "{text:?}");
            }
        }
        // CRLF does not hide a missing field, and blank lines still count.
        assert_eq!(
            parse(b"0,1,2\r\n\r\n1,3\r\n", 2).unwrap_err(),
            "line 3: missing y"
        );
    }

    #[test]
    fn empty_file_has_no_rows() {
        let path = tmpfile("empty.csv");
        std::fs::write(&path, "").unwrap();
        assert_eq!(read_points_csv(&path).unwrap(), vec![]);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn earliest_bad_line_wins_across_splits() {
        // 40 rows of 8 bytes; rows 13 and 31 are bad, in different splits.
        let text: String = (0..40)
            .map(|i| match i {
                12 => "12,x,1\n".to_string(),
                30 => "30,1\n".to_string(),
                _ => format!("{i:02},1.5,2\n"),
            })
            .collect();
        for splits in 1..=8 {
            let err = parse(text.as_bytes(), splits).unwrap_err();
            assert!(err.starts_with("line 13: bad x"), "{splits} splits: {err}");
        }
    }

    #[test]
    #[should_panic(expected = "row constructor panicked")]
    fn a_panicking_constructor_propagates() {
        let make = |id: u64, _: Point| assert!(id != 3, "row constructor panicked");
        let _ = parse_splits(b"0,1,2\n1,1,2\n2,1,2\n3,1,2\n", 2, &make);
    }

    /// The sequential line-by-line reader, as the oracle: the rows, or the
    /// 1-based line of the first bad one.
    fn reference(text: &[u8]) -> Result<Vec<(u64, Point)>, usize> {
        let mut rows = Vec::new();
        for (n, line) in io::BufRead::lines(text).enumerate() {
            let row = line.ok().and_then(|line| {
                if line.trim().is_empty() {
                    return Some(None);
                }
                let fields: Vec<&str> = line.splitn(3, ',').map(str::trim).collect();
                let id = fields.first()?.parse::<u64>().ok()?;
                let x = fields.get(1)?.parse::<f64>().ok()?;
                let y = fields.get(2)?.parse::<f64>().ok()?;
                (x.is_finite() && y.is_finite()).then_some(Some((id, Point::new(x, y))))
            });
            rows.extend(row.ok_or(n + 1)?);
        }
        Ok(rows)
    }

    /// Every split count agrees with the reference on rows and on the bad line.
    fn assert_matches_reference(text: &[u8]) -> Result<(), TestCaseError> {
        let expected = reference(text);
        for splits in 1..=8 {
            let got = parse(text, splits).map_err(|e| {
                let line = e.strip_prefix("line ").and_then(|e| e.split(':').next());
                line.and_then(|n| n.parse::<usize>().ok())
                    .expect("errors name a line")
            });
            let text = String::from_utf8_lossy(text);
            prop_assert_eq!(&got, &expected, "{} splits of {:?}", splits, text);
        }
        Ok(())
    }

    #[test]
    fn cuts_on_before_and_after_a_newline_and_inside_the_last_line() {
        // Padding the first id moves every newline across the fixed cut
        // points k·len/splits; the long last line catches the late cuts.
        let (mut on, mut before, mut after, mut in_last) = (false, false, false, false);
        for pad in 0..24 {
            let text = format!(
                "{}7,1.5,-2.5\n1,3,4\r\n\n2,5,6\n3,{},8",
                "0".repeat(pad),
                "9".repeat(30)
            );
            let text = text.as_bytes();
            assert_matches_reference(text).unwrap();
            let last_line = text.len() - 35;
            for splits in 2..=8 {
                for cut in (1..splits).map(|k| k * text.len() / splits) {
                    on |= text[cut] == b'\n';
                    before |= text[cut + 1] == b'\n';
                    after |= text[cut - 1] == b'\n';
                    in_last |= cut > last_line;
                }
            }
        }
        assert!(on && before && after && in_last);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn any_split_count_equals_the_sequential_reference(
            rows in prop::collection::vec((0u8..8, any::<u64>(), -180.0f64..180.0, any::<bool>()), 0..40),
            trailing_newline in any::<bool>(),
            malformed in (any::<bool>(), 0usize..40, 0usize..8),
        ) {
            const BAD: [&[u8]; 8] = [
                b"7,1.0", b"7", b"7,abc,2", b"7,1,inf", b"-7,1,2", b"7.5,1,2", b"7,\xc3,2", b",,",
            ];
            let mut lines: Vec<Vec<u8>> = rows
                .iter()
                .map(|&(kind, id, x, crlf)| {
                    let mut line = match kind {
                        0 => String::new(),
                        1 => format!(" {id} ,{x}, {}", -x / 2.0),
                        _ => format!("{id},{x},{}", x / 3.0),
                    };
                    if crlf {
                        line.push('\r');
                    }
                    line.into_bytes()
                })
                .collect();
            if malformed.0 {
                lines.insert(malformed.1.min(lines.len()), BAD[malformed.2].to_vec());
            }
            let mut text = lines.join(&b'\n');
            if trailing_newline && !text.is_empty() {
                text.push(b'\n');
            }
            assert_matches_reference(&text)?;
        }
    }
}
