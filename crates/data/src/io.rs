use asj_geom::Point;
use std::fmt::Display;
use std::fs::File;
use std::io::{self, Write};
use std::ops::{ControlFlow, Range};
use std::os::unix::fs::FileExt;
use std::panic::resume_unwind;
use std::path::Path;
use std::str::FromStr;

/// Writes `points` as `id,x,y` CSV lines numbered from `first`: the raw text
/// format the paper's pipeline loads (`sc.textFile(path).map(line → tup)`).
pub fn write_points_csv(
    out: &mut impl Write,
    first: usize,
    points: impl IntoIterator<Item = Point>,
) -> io::Result<()> {
    for (id, p) in (first..).zip(points) {
        writeln!(out, "{id},{},{}", p.x, p.y)?;
    }
    Ok(())
}

/// Reads `id,x,y` CSV lines back into `(id, point)` tuples: the
/// one-partition case of [`read_points_csv_partitions`].
///
/// Malformed lines are reported as errors with their line number — a corrupt
/// record should fail loudly rather than silently skew a join result.
pub fn read_points_csv(path: &Path) -> io::Result<Vec<(u64, Point)>> {
    let mut parts = read_points_csv_partitions(path, 1, |id, p| (id, p))?;
    Ok(parts.pop().expect("one partition"))
}

/// Bytes each split thread reads at a time.
const BLOCK: usize = 256 << 10;

/// Reads `id,x,y` CSV lines into `partitions` input partitions of rows built
/// by `make`, the way `sc.textFile` reads a file into RDD partitions. The
/// rows are in file order and laid out as `Dataset::from_vec(rows,
/// partitions)` lays them out: the first `rows % partitions` partitions hold
/// one row more than the others.
///
/// The read is split-parallel: the file is cut at newline boundaries into one
/// split per MiB (at most one per core), and each split's thread streams it
/// through one recycled 256 KiB buffer, twice. A counting pass fixes how many
/// rows each split holds, and with it the split each partition starts in;
/// in the parse pass each split's thread then has `make` build the rows of
/// the partitions starting in its split straight into vectors of their final
/// size, reading on past the split's end to finish the last one. No
/// whole-file buffer exists and no row is copied. Errors name the 1-based
/// line in the whole file; the earliest bad line wins.
///
/// Neither pass splits a block into lines first. The counting pass counts a
/// block's newlines and looks only at the lines that do not start with a
/// printable ASCII byte (blank, padded or not ASCII). The parse pass finds a
/// line's first two commas and its newline in one scan and parses the three
/// fields as they are; a line that does not parse that way (padded fields,
/// CRLF, a missing or extra field, a bad number) goes through the exact
/// trimming parser, which also words the error.
///
/// # Panics
/// Panics if `partitions == 0`.
pub fn read_points_csv_partitions<T: Send>(
    path: &Path,
    partitions: usize,
    make: impl Fn(u64, Point) -> T + Sync,
) -> io::Result<Vec<Vec<T>>> {
    let file = File::open(path)?;
    let len = file.metadata()?.len();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let splits = cores.min((len >> 20) as usize).max(1);
    read_partitions(&file, len, partitions, splits, BLOCK, &make)
}

/// Positional reads: from the file, or from bytes in memory in the tests.
trait ReadAt: Sync {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize>;

    /// Fills `buf` from `offset`; fewer bytes only at the end of the source.
    fn read_full(&self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        let mut got = 0;
        while got < buf.len() {
            match self.read_at(&mut buf[got..], offset + got as u64) {
                Ok(0) => break,
                Ok(n) => got += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(got)
    }
}

impl ReadAt for File {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        FileExt::read_at(self, buf, offset)
    }
}

fn changed() -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, "file changed while being read")
}

/// Why a split's parse pass stopped: a bad line (0-based within the split)
/// or an I/O error.
enum Failure {
    Line(usize, String),
    Io(io::Error),
}

impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Self {
        Failure::Io(e)
    }
}

/// What one split's counting pass found: rows, lines, and its buffer back.
type Counted = io::Result<(usize, usize, Vec<u8>)>;

fn read_partitions<T: Send>(
    src: &impl ReadAt,
    len: u64,
    partitions: usize,
    splits: usize,
    block: usize,
    make: &(impl Fn(u64, Point) -> T + Sync),
) -> io::Result<Vec<Vec<T>>> {
    assert!(partitions > 0, "need at least one partition");
    let mut buf = vec![0u8; block];
    let ranges = split_ranges(src, len, splits, &mut buf)?;
    // Counting pass.
    let counted: Vec<Counted> = std::thread::scope(|scope| {
        let workers: Vec<_> = ranges
            .iter()
            .map(|range| {
                let mut buf = vec![0u8; block];
                scope.spawn(move || {
                    let (mut rows, mut lines) = (0, 0);
                    for_each_block(src, range.clone(), &mut buf, |text| {
                        let (block_lines, block_rows) = count_lines(text);
                        lines += block_lines;
                        rows += block_rows;
                        Ok::<_, io::Error>(ControlFlow::Continue(()))
                    })?;
                    Ok((rows, lines, buf))
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|p| resume_unwind(p)))
            .collect()
    });
    let mut counts = Vec::with_capacity(splits);
    let mut first_lines = Vec::with_capacity(splits);
    let mut bufs = Vec::with_capacity(splits);
    let mut lines_before = 0;
    for split in counted {
        let (rows, lines, buf) = split?;
        counts.push(rows);
        first_lines.push(lines_before);
        bufs.push(buf);
        // A split's last line runs into the next split's first.
        lines_before += lines - 1;
    }

    // `Dataset::from_vec`'s layout: partition p holds rows
    // starts[p]..starts[p + 1]; split k holds rows first_rows[k].. .
    let total: usize = counts.iter().sum();
    let mut starts = vec![0];
    for p in 0..partitions {
        starts.push(starts[p] + total / partitions + usize::from(p < total % partitions));
    }
    let first_rows: Vec<usize> = counts
        .iter()
        .scan(0, |row, n| Some(std::mem::replace(row, *row + n)))
        .collect();

    // Parse pass: the thread of split k builds partitions lo..hi, those whose
    // first row is in split k. It skips the rows before them (the previous
    // thread's) and reads on into the next splits to finish partition hi - 1.
    let mut parts = std::thread::scope(|scope| {
        let workers: Vec<_> = ranges
            .iter()
            .zip(first_rows.iter().zip(&counts))
            .zip(bufs)
            .map(|((range, (&first, &count)), mut buf)| {
                let lo = starts.partition_point(|&start| start < first);
                let hi = starts.partition_point(|&start| start < first + count);
                let (starts, from) = (&starts, range.start);
                scope.spawn(move || {
                    parse_partitions(src, from..len, &mut buf, first, lo..hi, starts, make)
                })
            })
            .collect();
        // Joined in file order, so the earliest bad line is the one reported;
        // a panic in `make` goes on unwinding here.
        let mut parts = Vec::with_capacity(partitions);
        for (worker, first_line) in workers.into_iter().zip(&first_lines) {
            match worker.join().unwrap_or_else(|p| resume_unwind(p)) {
                Ok(built) => parts.extend(built),
                Err(Failure::Line(line, what)) => {
                    let msg = format!("line {}: {what}", first_line + line);
                    return Err(io::Error::new(io::ErrorKind::InvalidData, msg));
                }
                Err(Failure::Io(e)) => return Err(e),
            }
        }
        Ok(parts)
    })?;
    // Empty partitions after the last row start in no split.
    parts.resize_with(partitions, Vec::new);
    Ok(parts)
}

/// The parse pass of one split: builds partitions `owned` of the layout
/// `starts`, reading `range` from the split's first byte, where row `first`
/// begins. A bad line is named by its 1-based line in the split.
fn parse_partitions<T>(
    src: &impl ReadAt,
    range: Range<u64>,
    buf: &mut Vec<u8>,
    first: usize,
    owned: Range<usize>,
    starts: &[usize],
    make: &impl Fn(u64, Point) -> T,
) -> Result<Vec<Vec<T>>, Failure> {
    let mut parts: Vec<Vec<T>> = owned
        .clone()
        .map(|p| Vec::with_capacity(starts[p + 1] - starts[p]))
        .collect();
    let (begin, end) = (starts[owned.start], starts[owned.end]);
    if begin == end {
        return Ok(parts);
    }
    let (mut row, mut part, mut line_no) = (first, owned.start, 0);
    for_each_block(src, range, buf, |text| -> Result<_, Failure> {
        // Decoded once if the text is UTF-8 as a whole, else line by line,
        // so the lines before an undecodable one are still checked first.
        let whole = std::str::from_utf8(text).ok();
        let mut at = 0;
        while at <= text.len() {
            let (commas, len) = scan_line(&text[at..]);
            let bytes = &text[at..at + len];
            let line = match whole {
                Some(whole) => Some(&whole[at..at + len]),
                None => std::str::from_utf8(bytes).ok(),
            };
            at += len + 1;
            line_no += 1;
            if !starts_plain(bytes) && !is_row(line) {
                continue;
            }
            // Rows before `begin` are the previous split's to parse.
            if row >= begin {
                let parsed = match line {
                    Some(line) => commas
                        .and_then(|commas| parse_plain(line, commas))
                        .map_or_else(|| parse_row(line), Ok),
                    None => Err("invalid UTF-8".into()),
                };
                let (id, p) = parsed.map_err(|what| Failure::Line(line_no, what))?;
                // Empty partitions are all after the last row, so the next
                // partition holds this row.
                if row == starts[part + 1] {
                    part += 1;
                }
                parts[part - owned.start].push(make(id, p));
            }
            row += 1;
            if row == end {
                return Ok(ControlFlow::Break(()));
            }
        }
        Ok(ControlFlow::Continue(()))
    })?;
    if row < end {
        return Err(Failure::Io(changed()));
    }
    Ok(parts)
}

/// Whether a line holds a row: it is not blank (an undecodable line is a
/// row, to be reported as bad). Both passes ask only about a line that does
/// not [`starts_plain`].
fn is_row(line: Option<&str>) -> bool {
    line.is_none_or(|line| !line.trim_start().is_empty())
}

/// The splits' byte ranges. Split k starts after the first newline at or
/// past byte k·len/splits − 1 (or past its own start, after a line longer
/// than a split), so no line straddles two splits; trailing splits may be
/// empty.
fn split_ranges(
    src: &impl ReadAt,
    len: u64,
    splits: usize,
    buf: &mut [u8],
) -> io::Result<Vec<Range<u64>>> {
    let mut starts = vec![0];
    for k in 1..splits as u64 {
        let mut from = (k * len / splits as u64).max(starts[k as usize - 1] + 1) - 1;
        let start = loop {
            let want = (len - from).min(buf.len() as u64) as usize;
            let got = src.read_full(&mut buf[..want], from)?;
            if let Some(at) = buf[..got].iter().position(|&b| b == b'\n') {
                break from + at as u64 + 1;
            }
            from += got as u64;
            if got == 0 || from >= len {
                break len;
            }
        };
        starts.push(start);
    }
    starts.push(len);
    Ok(starts.windows(2).map(|w| w[0]..w[1]).collect())
}

/// Calls `f` on the text of `src[range]` one buffer-full at a time, in
/// order, until it breaks: each call gets the complete lines in the buffer —
/// up to its last newline, without that newline — or, at the end of the
/// range, all that is left (empty after a final newline). A text of `n`
/// newlines holds `n + 1` lines. Streamed through `buf`, which grows only to
/// hold a line longer than itself.
fn for_each_block<E: From<io::Error>>(
    src: &impl ReadAt,
    range: Range<u64>,
    buf: &mut Vec<u8>,
    mut f: impl FnMut(&[u8]) -> Result<ControlFlow<()>, E>,
) -> Result<(), E> {
    let (mut pos, mut held) = (range.start, 0);
    loop {
        if held == buf.len() {
            buf.resize(buf.len().max(1) * 2, 0);
        }
        let want = (buf.len() - held).min((range.end - pos) as usize);
        if src.read_full(&mut buf[held..held + want], pos)? < want {
            return Err(changed().into());
        }
        pos += want as u64;
        let (filled, last) = (held + want, pos == range.end);
        // Complete lines end at the last newline, or at the end of the range.
        let complete = if last {
            filled
        } else {
            buf[..filled]
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |at| at + 1)
        };
        // Without the final newline: it ends the last complete line.
        if (complete > 0 || last) && f(&buf[..complete - usize::from(!last)])?.is_break() {
            return Ok(());
        }
        if last {
            return Ok(());
        }
        buf.copy_within(complete..filled, 0);
        held = filled - complete;
    }
}

/// Whether a line starts with a printable ASCII byte, which makes it a row
/// (see [`is_row`]) without decoding it.
fn starts_plain(line: &[u8]) -> bool {
    line.first().is_some_and(u8::is_ascii_graphic)
}

/// The lines and the rows of a text of [`for_each_block`]. The text is
/// scanned once for newlines and for line starts that are not
/// [`starts_plain`]; only if it has such a line is each line looked at.
fn count_lines(text: &[u8]) -> (usize, usize) {
    // A line starts at the text's start and after each newline, and is
    // plain if the byte after the newline is: each byte is taken with the
    // next, 64 pairs at a time into byte-wide sums, which the compiler
    // vectorises. The empty line after a final newline is not plain.
    let (mut lines, mut plain) = (1, usize::from(starts_plain(text)));
    let next = text.get(1..).unwrap_or_default();
    for (bytes, nexts) in text.chunks(64).zip(next.chunks(64)) {
        let (mut chunk_lines, mut chunk_plain) = (0u8, 0u8);
        for (&byte, &next) in bytes.iter().zip(nexts) {
            let newline = byte == b'\n';
            chunk_lines += u8::from(newline);
            chunk_plain += u8::from(newline & next.is_ascii_graphic());
        }
        lines += usize::from(chunk_lines);
        plain += usize::from(chunk_plain);
    }
    lines += usize::from(text.last() == Some(&b'\n'));
    if plain == lines {
        return (lines, lines);
    }
    let rows = text
        .split(|&b| b == b'\n')
        .filter(|line| starts_plain(line) || is_row(std::str::from_utf8(line).ok()))
        .count();
    (lines, rows)
}

/// One forward scan of the line at the start of `text`, eight bytes at a
/// time: the positions of its first two commas, if it has two, and its
/// length up to its newline or the end of `text`.
fn scan_line(text: &[u8]) -> (Option<[usize; 2]>, usize) {
    let (mut commas, mut found) = ([0; 2], 0);
    let mut base = 0;
    while base < text.len() {
        // Zero bytes past the end of `text` are neither delimiter.
        let mut word = [0; 8];
        match text.get(base..base + 8) {
            Some(full) => word.copy_from_slice(full),
            None => word[..text.len() - base].copy_from_slice(&text[base..]),
        }
        let word = u64::from_le_bytes(word);
        let mut hits = zero_bytes(word ^ splat(b',')) | zero_bytes(word ^ splat(b'\n'));
        while hits != 0 {
            let at = base + hits.trailing_zeros() as usize / 8;
            hits &= hits - 1;
            if text[at] == b'\n' {
                return ((found == 2).then_some(commas), at);
            }
            if found < 2 {
                commas[found] = at;
                found += 1;
            }
        }
        base += 8;
    }
    ((found == 2).then_some(commas), text.len())
}

/// `byte` in each of a word's eight bytes.
const fn splat(byte: u8) -> u64 {
    u64::from_ne_bytes([byte; 8])
}

/// The top bit of each zero byte of `word`, exactly: no carry crosses from
/// one byte into the next.
const fn zero_bytes(word: u64) -> u64 {
    let low7 = splat(0x7f);
    // A byte's top bit is set in `(b & 0x7f) + 0x7f` or in `b` unless b = 0.
    !(((word & low7) + low7) | word | low7)
}

/// The row of a line whose first two commas are at `commas`, if its three
/// fields parse as they are into an id and finite coordinates: then it is
/// what [`parse_row`] returns, which handles every other line.
fn parse_plain(line: &str, [c1, c2]: [usize; 2]) -> Option<(u64, Point)> {
    let id = line[..c1].parse().ok()?;
    let x: f64 = line[c1 + 1..c2].parse().ok()?;
    let y: f64 = line[c2 + 1..].parse().ok()?;
    (x.is_finite() && y.is_finite()).then(|| (id, Point::new(x, y)))
}

/// One `id,x,y` row (a line that [`is_row`]).
fn parse_row(line: &str) -> Result<(u64, Point), String> {
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
    let mut fields = line.splitn(3, ',');
    let id: u64 = number(fields.next(), "id")?;
    let x: f64 = number(fields.next(), "x")?;
    let y: f64 = number(fields.next(), "y")?;
    if !x.is_finite() || !y.is_finite() {
        return Err("non-finite coordinate".into());
    }
    Ok((id, Point::new(x, y)))
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
        let pts = [
            Point::new(1.5, -2.25),
            Point::new(0.0, 0.0),
            Point::new(-100.0, 49.0),
        ];
        let mut text = Vec::new();
        write_points_csv(&mut text, 0, pts.iter().copied()).unwrap();
        std::fs::write(&path, text).unwrap();
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

    impl ReadAt for &[u8] {
        fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
            let rest = self.get(offset as usize..).unwrap_or_default();
            let n = buf.len().min(rest.len());
            buf[..n].copy_from_slice(&rest[..n]);
            Ok(n)
        }
    }

    /// `Ok` partitions, or the message of the error, of `text` read as
    /// `partitions` partitions by `splits` splits through `block`-byte
    /// buffers.
    fn parse_with(
        text: &[u8],
        partitions: usize,
        splits: usize,
        block: usize,
    ) -> Result<Vec<Vec<(u64, Point)>>, String> {
        let make = |id, p| (id, p);
        read_partitions(&text, text.len() as u64, partitions, splits, block, &make).map_err(|e| {
            assert_eq!(e.kind(), io::ErrorKind::InvalidData);
            e.to_string()
        })
    }

    /// `Ok` rows, or the message of the error, of `text` cut into `splits`.
    fn parse(text: &[u8], splits: usize) -> Result<Vec<(u64, Point)>, String> {
        parse_with(text, 1, splits, BLOCK).map(|mut parts| parts.pop().expect("one partition"))
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
        let text: &[u8] = b"0,1,2\n1,1,2\n2,1,2\n3,1,2\n";
        let _ = read_partitions(&text, text.len() as u64, 2, 2, BLOCK, &make);
    }

    /// Rows split into `partitions` the way `Dataset::from_vec` splits them.
    fn from_vec_layout<T: Clone>(rows: &[T], partitions: usize) -> Vec<Vec<T>> {
        let (base, extra) = (rows.len() / partitions, rows.len() % partitions);
        let mut rest = rows;
        (0..partitions)
            .map(|p| {
                let (head, tail) = rest.split_at(base + usize::from(p < extra));
                rest = tail;
                head.to_vec()
            })
            .collect()
    }

    #[test]
    fn partitions_take_the_from_vec_layout_across_splits_and_blocks() {
        let text: String = (0..23)
            .map(|i| {
                if i % 5 == 4 {
                    "\n".to_string()
                } else {
                    format!("{i},{i}.5,-{i}\r\n")
                }
            })
            .collect();
        let rows = parse(text.as_bytes(), 1).unwrap();
        assert_eq!(rows.len(), 19);
        for partitions in [1, 2, 3, 7, 19, 25] {
            for (splits, block) in [(1, BLOCK), (2, 3), (3, 16), (5, 1), (8, 64)] {
                let got = parse_with(text.as_bytes(), partitions, splits, block).unwrap();
                assert_eq!(
                    got,
                    from_vec_layout(&rows, partitions),
                    "{partitions} / {splits} / {block}"
                );
            }
        }
    }

    /// Partitions never come back short: a row the counting pass saw and the
    /// parse pass does not is an error.
    #[test]
    fn a_file_that_loses_rows_between_the_passes_is_an_error() {
        /// Serves the counting pass one text and the parse pass the other.
        struct Rewritten(&'static [u8], &'static [u8], std::sync::atomic::AtomicBool);
        impl ReadAt for Rewritten {
            fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
                let parsing = self.2.swap(true, std::sync::atomic::Ordering::Relaxed);
                (if parsing { &self.1 } else { &self.0 }).read_at(buf, offset)
            }
        }
        let src = Rewritten(b"0,1,2\n3,4,5\n", b"0,1,2\n     \n", Default::default());
        let err = read_partitions(&src, 12, 2, 1, BLOCK, &|id, p| (id, p)).unwrap_err();
        assert_eq!(err.to_string(), "file changed while being read");
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

    /// Every split count, block size and partition count agrees with the
    /// reference on rows and on the bad line.
    fn assert_matches_reference(text: &[u8]) -> Result<(), TestCaseError> {
        let expected = reference(text);
        for splits in 1..=8 {
            for (block, partitions) in [(1, 1), (6, 3), (17, 1), (BLOCK, 50)] {
                let got = parse_with(text, partitions, splits, block).map(|p| p.concat());
                let got = got.map_err(|e| {
                    let line = e.strip_prefix("line ").and_then(|e| e.split(':').next());
                    line.and_then(|n| n.parse::<usize>().ok())
                        .expect("errors name a line")
                });
                let text = String::from_utf8_lossy(text);
                prop_assert_eq!(
                    &got,
                    &expected,
                    "{} splits, {}-byte blocks, {} partitions of {:?}",
                    splits,
                    block,
                    partitions,
                    text
                );
            }
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

    /// Lines that a byte scanner must not take at face value: each goes
    /// through the exact path, as a row, a blank line or a bad line.
    const ODD: [&[u8]; 27] = [
        // Bad.
        b"7,1.0",
        b"7",
        b"7,abc,2",
        b"7,1,inf",
        b"7,NaN,2",
        b"-7,1,2",
        b"7.5,1,2",
        b"18446744073709551616,1,2",
        b"7,\xc3,2",
        b",,",
        b",1,2",
        b"7,,2",
        b"7,1,",
        b"7,1,2,3",
        // Rows.
        b"+7,1,2",
        b"18446744073709551615,1,2",
        b"0007,1,2",
        b"\t7\t,1,\t2",
        "\u{a0}7,1\u{a0},2\u{a0}".as_bytes(),
        "\u{3000}7,\u{3000}1,2\u{3000}".as_bytes(),
        b"7,1e3,-0.0",
        b"7,-0.0,1E-3",
        b"7 ,1,2",
        // Blank.
        b"\r",
        b" \t",
        "\u{a0}".as_bytes(),
        "\u{3000}\t\u{a0}\r".as_bytes(),
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// With the multi-byte chars of [`ODD`], the 1-, 6- and 17-byte
        /// blocks of [`assert_matches_reference`] end inside a char.
        #[test]
        fn any_split_count_equals_the_sequential_reference(
            rows in prop::collection::vec((0u8..8, any::<u64>(), -180.0f64..180.0, any::<bool>()), 0..40),
            trailing_newline in any::<bool>(),
            odd in prop::collection::vec((0usize..40, 0usize..ODD.len()), 0..4),
        ) {
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
            for (at, shape) in odd {
                lines.insert(at.min(lines.len()), ODD[shape].to_vec());
            }
            let mut text = lines.join(&b'\n');
            if trailing_newline && !text.is_empty() {
                text.push(b'\n');
            }
            assert_matches_reference(&text)?;
        }
    }
}
