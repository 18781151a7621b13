//! The workspace's one JSON codec: the trace exporters, the job-server
//! journal and the reproduction record write a [`Value`], and the journal
//! reads back through [`Object`].
//!
//! Every file is written by one rule: a string escapes `"` and `\` and
//! writes each char below U+0020 as `\u00XX`, leaving the rest raw UTF-8; a
//! `u64` is decimal; a finite `f64` is its `Display` form, a non-finite one
//! `null`; bytes are a string of lowercase hex digits.
//!
//! The reader accepts what the journal stores, one flat object of string
//! and `u64` values, decoding every escape. Anything else — a repeated key,
//! trailing bytes, a sign, a leading zero, a lone surrogate, a float or a
//! nested value — is an [`Error`] naming the column and the reason.

use std::fmt::{self, Write as _};

/// A value to write; its `Display` form is its JSON text.
#[derive(Debug, Clone)]
pub enum Value<'a> {
    Str(&'a str),
    U64(u64),
    F64(f64),
    /// Bytes, as a string of lowercase hex digits.
    Hex(&'a [u8]),
    Null,
    /// A fragment its owner renders itself: Chrome's microseconds, the
    /// record's checksum text.
    Raw(String),
    List(Vec<Value<'a>>),
    Object(Vec<(&'a str, Value<'a>)>),
}

impl fmt::Display for Value<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The one comma rule of objects and lists.
        let comma = |i: usize| if i == 0 { "" } else { "," };
        match self {
            Value::Str(s) => {
                f.write_char('"')?;
                for c in s.chars() {
                    match c {
                        '"' => f.write_str("\\\"")?,
                        '\\' => f.write_str("\\\\")?,
                        c if u32::from(c) < 0x20 => write!(f, "\\u{:04x}", u32::from(c))?,
                        c => f.write_char(c)?,
                    }
                }
                f.write_char('"')
            }
            Value::U64(n) => write!(f, "{n}"),
            Value::F64(x) if x.is_finite() => write!(f, "{x}"),
            Value::F64(_) | Value::Null => f.write_str("null"),
            Value::Hex(bytes) => {
                f.write_char('"')?;
                bytes.iter().try_for_each(|b| write!(f, "{b:02x}"))?;
                f.write_char('"')
            }
            Value::Raw(fragment) => f.write_str(fragment),
            Value::List(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    write!(f, "{}{item}", comma(i))?;
                }
                f.write_char(']')
            }
            Value::Object(members) => {
                f.write_char('{')?;
                for (i, (key, value)) in members.iter().enumerate() {
                    write!(f, "{}{}:{value}", comma(i), Value::Str(key))?;
                }
                f.write_char('}')
            }
        }
    }
}

/// Why the reader refused a line: the 1-based byte column and the reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    pub column: usize,
    pub reason: String,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "column {}: {}", self.column, self.reason)
    }
}

impl std::error::Error for Error {}

fn error(column: usize, reason: impl Into<String>) -> Error {
    let reason = reason.into();
    Error { column, reason }
}

#[derive(Debug)]
enum Scalar {
    Str(String),
    U64(u64),
}

/// One flat object. Each getter takes its member once, and
/// [`Object::finish`] refuses a member no getter took.
#[derive(Debug)]
pub struct Object {
    /// Each member's key, its value's column, and the value until taken.
    members: Vec<(String, usize, Option<Scalar>)>,
    /// Column of the closing `}`.
    end: usize,
}

impl Object {
    /// Parses `line` as one flat object of string and `u64` values.
    pub fn parse(line: &str) -> Result<Object, Error> {
        let mut p = Parser { line, pos: 0 };
        let mut members: Vec<(String, usize, Option<Scalar>)> = Vec::new();
        p.expect(b'{')?;
        while !p.eat(b'}') {
            if !members.is_empty() {
                p.expect(b',')?;
            }
            let key_column = p.token();
            let key = p.string()?;
            if members.iter().any(|m| m.0 == key) {
                return Err(error(key_column, format!("repeated key {key:?}")));
            }
            p.expect(b':')?;
            let column = p.token();
            let value = match p.peek() {
                Some(b'"') => Scalar::Str(p.string()?),
                Some(b'0'..=b'9') => Scalar::U64(p.u64()?),
                _ => return Err(p.error("expected a string or an unsigned integer")),
            };
            members.push((key, column, Some(value)));
        }
        let end = p.pos;
        if p.token() <= line.len() {
            return Err(p.error("trailing bytes after the object"));
        }
        Ok(Object { members, end })
    }

    /// Takes the string member `key`.
    pub fn str(&mut self, key: &str) -> Result<String, Error> {
        match self.take(key)? {
            (_, Scalar::Str(s)) => Ok(s),
            (column, _) => Err(error(column, format!("{key:?} must be a string"))),
        }
    }

    /// Takes the `u64` member `key`.
    pub fn u64(&mut self, key: &str) -> Result<u64, Error> {
        match self.take(key)? {
            (_, Scalar::U64(n)) => Ok(n),
            (column, _) => Err(error(column, format!("{key:?} must be a number"))),
        }
    }

    /// Takes the member `key`, a string of hex digit pairs, as bytes.
    pub fn hex(&mut self, key: &str) -> Result<Vec<u8>, Error> {
        let column = self.column(key);
        let digits = self.str(key)?;
        let digit = |b: &u8| char::from(*b).to_digit(16);
        let byte = |pair: &[u8]| Some(digit(&pair[0])? as u8 * 16 + digit(pair.get(1)?)? as u8);
        let bytes: Option<Vec<u8>> = digits.as_bytes().chunks(2).map(byte).collect();
        bytes.ok_or_else(|| error(column, format!("{key:?} must be pairs of hex digits")))
    }

    /// An error at the value of member `key`, or at the object's end.
    pub fn error(&self, key: &str, reason: impl Into<String>) -> Error {
        error(self.column(key), reason)
    }

    /// Refuses the first member no getter took.
    pub fn finish(self) -> Result<(), Error> {
        match self.members.into_iter().find(|m| m.2.is_some()) {
            Some((key, column, _)) => Err(error(column, format!("unknown field {key:?}"))),
            None => Ok(()),
        }
    }

    fn column(&self, key: &str) -> usize {
        let member = self.members.iter().find(|m| m.0 == key);
        member.map_or(self.end, |m| m.1)
    }

    fn take(&mut self, key: &str) -> Result<(usize, Scalar), Error> {
        let member = self.members.iter_mut().find(|m| m.0 == key);
        let taken = member.and_then(|m| Some((m.1, m.2.take()?)));
        taken.ok_or_else(|| error(self.end, format!("missing field {key:?}")))
    }
}

struct Parser<'a> {
    line: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.line.as_bytes().get(self.pos).copied()
    }

    fn error(&self, reason: &str) -> Error {
        error(self.pos + 1, reason)
    }

    /// Skips whitespace and returns the column of the token after it.
    fn token(&mut self) -> usize {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
        self.pos + 1
    }

    /// Consumes `byte`, after any whitespace, if it comes next.
    fn eat(&mut self, byte: u8) -> bool {
        self.token();
        let next = self.peek() == Some(byte);
        self.pos += usize::from(next);
        next
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.eat(byte) {
            return Ok(());
        }
        Err(self.error(&format!("expected '{}'", char::from(byte))))
    }

    /// The end of the run from `start` of chars that `keep` accepts.
    fn run(&self, start: usize, keep: impl Fn(char) -> bool) -> usize {
        let len = self.line[start..].find(|c| !keep(c));
        len.map_or(self.line.len(), |len| start + len)
    }

    /// A number token, accepted only as the decimal digits of a `u64`
    /// without a leading zero.
    fn u64(&mut self) -> Result<u64, Error> {
        let start = self.pos;
        self.pos = self.run(start, |c| "0123456789.eE+-".contains(c));
        let token = &self.line[start..self.pos];
        let canonical = token == "0" || !token.starts_with('0');
        let digits = canonical && token.bytes().all(|b| b.is_ascii_digit());
        let n = token.parse().ok().filter(|_| digits);
        n.ok_or_else(|| error(start + 1, format!("{token} is not a canonical u64")))
    }

    /// A string literal, its escapes decoded.
    fn string(&mut self) -> Result<String, Error> {
        let column = self.pos + 1;
        if self.peek() != Some(b'"') {
            return Err(self.error("expected a string"));
        }
        let mut units: Vec<u16> = Vec::new();
        loop {
            let start = self.pos + 1;
            self.pos = self.run(start, |c| c != '"' && c != '\\' && c >= ' ');
            units.extend(self.line[start..self.pos].encode_utf16());
            match self.peek() {
                Some(b'"') => break,
                Some(b'\\') => units.push(self.escape()?),
                Some(_) => return Err(self.error("unescaped control character")),
                None => return Err(self.error("unterminated string")),
            }
        }
        self.pos += 1;
        // An escaped surrogate must pair with the unit after it.
        String::from_utf16(&units).map_err(|_| error(column, "lone surrogate"))
    }

    /// The UTF-16 unit the escape at `pos` stands for; leaves `pos` on its
    /// last byte.
    fn escape(&mut self) -> Result<u16, Error> {
        let column = self.pos + 1;
        self.pos += 1;
        match self.peek().map(char::from) {
            Some('u') => {
                let digits = self.line.get(self.pos + 1..self.pos + 5);
                let hex = digits.filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()));
                self.pos += 4;
                let unit = hex.and_then(|d| u16::from_str_radix(d, 16).ok());
                unit.ok_or_else(|| error(column, "\\u needs four hex digits"))
            }
            Some(c) => match "\"\\/bfnrt".find(c) {
                Some(i) => Ok(u16::from(b"\"\\/\x08\x0c\n\r\t"[i])),
                None => Err(error(column, "unknown escape")),
            },
            None => Err(error(column, "unterminated string")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reader_decodes_every_escape() {
        let line = r#" { "s" : "q\"b\\s\/b\bf\fn\nr\rt\tuép😀" , "n" : 0 } "#;
        let mut o = Object::parse(line).expect("a flat object");
        let s = o.str("s").expect("a string");
        assert_eq!(s, "q\"b\\s/b\u{8}f\u{c}n\nr\rt\tu\u{e9}p\u{1F600}");
        assert_eq!(o.u64("n"), Ok(0));
        assert_eq!(o.finish(), Ok(()));
    }

    #[test]
    fn the_reader_refuses_all_but_a_flat_object_at_the_offending_column() {
        for (line, column) in [
            (r#"{"a":1,"a":2}"#, 8),
            (r#"{"a":1} x"#, 9),
            (r#"{"a":-1}"#, 6),
            (r#"{"a":+1}"#, 6),
            (r#"{"a":01}"#, 6),
            (r#"{"a":1.5}"#, 6),
            (r#"{"a":1e3}"#, 6),
            (r#"{"a":18446744073709551616}"#, 6),
            (r#"{"a":"\ud800"}"#, 6),
            (r#"{"a":"\udc00\ud800"}"#, 6),
            (r#"{"a":"\u12"}"#, 7),
            (r#"{"a":"\x"}"#, 7),
            ("{\"a\":\"\u{1}\"}", 7),
            (r#"{"a":"x}"#, 9),
            (r#"{"a":{"b":1}}"#, 6),
            (r#"{"a":[1]}"#, 6),
            (r#"{"a":null}"#, 6),
            (r#"{"a":1,}"#, 8),
            (r#"{"a" 1}"#, 6),
            (r#"["a"]"#, 1),
        ] {
            let err = Object::parse(line).expect_err(line);
            assert_eq!(err.column, column, "{line}: {err}");
        }
    }

    #[test]
    fn getters_take_each_member_once_and_finish_refuses_the_rest() {
        let mut o = Object::parse(r#"{"n":7,"s":"x","h":"0aff","odd":"abc","x":1}"#)
            .expect("a flat object");
        assert_eq!(o.u64("s").map_err(|e| e.column), Err(12));
        assert_eq!(o.u64("n"), Ok(7));
        assert_eq!(o.hex("h"), Ok(vec![0x0a, 0xff]));
        assert_eq!(o.hex("odd").map_err(|e| e.column), Err(33));
        assert_eq!(
            o.u64("n").map_err(|e| e.reason),
            Err("missing field \"n\"".into())
        );
        assert_eq!(
            o.finish().map_err(|e| e.reason),
            Err("unknown field \"x\"".into())
        );
    }

    #[test]
    fn values_write_by_one_rule() {
        let bytes = [0x00, 0xab];
        let v = Value::Object(vec![
            ("s\"", Value::Str("\\\u{1f}\u{7f}é")),
            (
                "l",
                Value::List(vec![Value::U64(3), Value::F64(0.5), Value::F64(f64::NAN)]),
            ),
            ("h", Value::Hex(&bytes)),
            ("e", Value::List(vec![])),
            ("r", Value::Raw("1.500".into())),
            ("z", Value::Null),
        ]);
        let want = r#"{"s\"":"\\\u001f"#.to_string()
            + "\u{7f}é\","
            + r#""l":[3,0.5,null],"h":"00ab","e":[],"r":1.500,"z":null}"#;
        assert_eq!(v.to_string(), want);
    }
}
