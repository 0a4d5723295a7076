//! The flat-record NDJSON codec shared by shard files and traces.
//!
//! Both on-disk formats of this workspace — campaign shards
//! (`repwf-shard/v1`, written and read by `repwf_dist::shard`) and traces
//! (`repwf-trace/v1`, written by the trace sink and read by
//! [`crate::report::read_trace`]) — are checksummed NDJSON files whose
//! records are *flat* one-line objects. This module is the one place that
//! knows how such a line is spelled:
//!
//! * [`Checksum`] — the FNV-1a/64 running checksum both footers carry;
//! * append-style encoders ([`begin`], [`put_u64`], [`put_u128`],
//!   [`put_str`], [`end`]) that write a record straight into a caller's
//!   buffer, one field at a time, with no intermediate `String`;
//! * a borrowed, allocation-free reader: [`fields`] walks a line once and
//!   yields its `(key, value)` pairs; [`Record`] validates a line and then
//!   looks fields up by key.
//!
//! # Grammar
//!
//! ```text
//! record := '{' [ field ( ',' field )* ] '}'
//! field  := string ':' ( digits | string )
//! digits := [0-9]+                      read as u128
//! string := '"' ( any char except '"', '\' and U+0000..U+001F )* '"'
//! ```
//!
//! No whitespace, escapes, nesting, signs, fractions or exponents: every
//! value a writer here emits is an identifier or an unsigned integer (f64
//! values travel as their u64 bit patterns). Keys may come in any order;
//! lookups take the first occurrence of a key. Every line the reader
//! accepts is also valid JSON, so the files stay readable by generic tools,
//! but the reader is stricter than JSON. That is safe because a reader
//! only ever sees lines these encoders wrote, and both footers checksum
//! the bytes of those lines: a line in any other spelling was not written
//! here, so it is a corrupt file whichever way it is rejected.

use std::fmt::{self, Write as _};

/// FNV-1a 64-bit running checksum over raw bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checksum(u64);

impl Checksum {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// The empty checksum (FNV offset basis).
    pub fn new() -> Checksum {
        Checksum(Self::OFFSET)
    }

    /// Folds bytes in.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(Self::PRIME);
        }
        self.0 = h;
    }

    /// Lower-case 16-digit hex rendering (the footer format).
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }

    /// The raw 64-bit state (for snapshotting mid-stream).
    pub fn state(&self) -> u64 {
        self.0
    }

    /// Restores a checksum from a [`state`](Checksum::state) snapshot.
    pub fn from_state(state: u64) -> Checksum {
        Checksum(state)
    }
}

impl Default for Checksum {
    fn default() -> Self {
        Checksum::new()
    }
}

/// Opens a record: appends `{"kind":"<kind>"`.
pub fn begin(out: &mut String, kind: &str) {
    out.push_str("{\"kind\":\"");
    out.push_str(kind);
    out.push('"');
}

/// Appends `,"<key>":<value>`.
pub fn put_u64(out: &mut String, key: &str, value: u64) {
    push_key(out, key);
    let _ = write!(out, "{value}");
}

/// Appends `,"<key>":<value>` for a value of up to 39 digits.
pub fn put_u128(out: &mut String, key: &str, value: u128) {
    push_key(out, key);
    let _ = write!(out, "{value}");
}

/// Appends `,"<key>":"<value>"`. The value must not need escaping (see
/// the grammar in the module docs); writers pass fixed identifiers.
pub fn put_str(out: &mut String, key: &str, value: &str) {
    push_key(out, key);
    out.push('"');
    out.push_str(value);
    out.push('"');
}

/// Closes a record and its line: appends `}` and a newline.
pub fn end(out: &mut String) {
    out.push_str("}\n");
}

fn push_key(out: &mut String, key: &str) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
}

/// A field value: a digit run or an escape-free string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value<'a> {
    /// An unsigned integer (a plain digit run).
    Uint(u128),
    /// A string, borrowed from the line.
    Str(&'a str),
}

/// What is wrong at a [`FlatError`]'s offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlatErrorKind {
    /// The line does not start with `{`.
    Open,
    /// A key's opening `"` is missing.
    Key,
    /// The `:` after a key is missing.
    Colon,
    /// A value is neither a digit run nor a string.
    Value,
    /// A string runs to the end of the line.
    Unterminated,
    /// A string holds a backslash or a control character.
    Escape,
    /// A digit run exceeds `u128::MAX`.
    Overflow,
    /// A field is followed by neither `,` nor `}`.
    Separator,
    /// Bytes follow the closing `}`.
    Trailing,
}

/// Why a line is not a flat record, and the byte offset where it stops
/// being one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlatError {
    /// Byte offset into the line.
    pub offset: usize,
    /// What was expected there.
    pub kind: FlatErrorKind,
}

impl fmt::Display for FlatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self.kind {
            FlatErrorKind::Open => "expected '{'",
            FlatErrorKind::Key => "expected '\"' starting a key",
            FlatErrorKind::Colon => "expected ':'",
            FlatErrorKind::Value => "expected a digit run or a quoted string",
            FlatErrorKind::Unterminated => "unterminated string",
            FlatErrorKind::Escape => "escape or control character in a string",
            FlatErrorKind::Overflow => "integer exceeds u128",
            FlatErrorKind::Separator => "expected ',' or '}'",
            FlatErrorKind::Trailing => "trailing bytes after '}'",
        };
        write!(f, "byte {}: {what}", self.offset)
    }
}

impl std::error::Error for FlatError {}

#[derive(Clone, Copy, PartialEq, Eq)]
enum State {
    Open,
    Separator,
    Done,
}

/// Iterator over the fields of one line; see [`fields`].
pub struct Fields<'a> {
    line: &'a str,
    pos: usize,
    state: State,
}

/// Walks `line` (without its newline) as a flat record, yielding each
/// field in order. The first grammar violation is yielded as an error
/// and ends the iteration; a well-formed line yields no error. Nothing
/// is allocated.
pub fn fields(line: &str) -> Fields<'_> {
    Fields { line, pos: 0, state: State::Open }
}

impl<'a> Fields<'a> {
    fn fail<T>(&mut self, offset: usize, kind: FlatErrorKind) -> Option<Result<T, FlatError>> {
        self.state = State::Done;
        Some(Err(FlatError { offset, kind }))
    }

    /// Consumes the closing `}` at `pos` and checks nothing follows it.
    fn close<T>(&mut self) -> Option<Result<T, FlatError>> {
        self.pos += 1;
        if self.pos != self.line.len() {
            return self.fail(self.pos, FlatErrorKind::Trailing);
        }
        self.state = State::Done;
        None
    }

    /// Reads the string whose opening quote is at `pos`.
    fn string(&mut self) -> Result<&'a str, FlatError> {
        let bytes = self.line.as_bytes();
        let start = self.pos + 1;
        let len = bytes[start..]
            .iter()
            .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
            .ok_or(FlatError { offset: self.pos, kind: FlatErrorKind::Unterminated })?;
        let end = start + len;
        if bytes[end] != b'"' {
            return Err(FlatError { offset: end, kind: FlatErrorKind::Escape });
        }
        self.pos = end + 1;
        // Both ends sit next to an ASCII quote, so they are char boundaries.
        Ok(&self.line[start..end])
    }

    /// Reads the digit run starting at `pos`.
    fn digits(&mut self) -> Result<u128, FlatError> {
        let bytes = self.line.as_bytes();
        let start = self.pos;
        let mut end = start;
        // 19 digits always fit a u64; only longer runs pay for u128.
        let mut small = 0u64;
        while end < bytes.len() && end - start < 19 && bytes[end].is_ascii_digit() {
            small = small * 10 + u64::from(bytes[end] - b'0');
            end += 1;
        }
        let mut n = u128::from(small);
        while end < bytes.len() && bytes[end].is_ascii_digit() {
            n = n
                .checked_mul(10)
                .and_then(|n| n.checked_add(u128::from(bytes[end] - b'0')))
                .ok_or(FlatError { offset: start, kind: FlatErrorKind::Overflow })?;
            end += 1;
        }
        self.pos = end;
        Ok(n)
    }
}

impl<'a> Iterator for Fields<'a> {
    type Item = Result<(&'a str, Value<'a>), FlatError>;

    fn next(&mut self) -> Option<Self::Item> {
        let bytes = self.line.as_bytes();
        match self.state {
            State::Done => return None,
            State::Open => {
                if bytes.first() != Some(&b'{') {
                    return self.fail(0, FlatErrorKind::Open);
                }
                self.pos = 1;
                if bytes.get(1) == Some(&b'}') {
                    return self.close();
                }
            }
            State::Separator => match bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => return self.close(),
                _ => return self.fail(self.pos, FlatErrorKind::Separator),
            },
        }
        if bytes.get(self.pos) != Some(&b'"') {
            return self.fail(self.pos, FlatErrorKind::Key);
        }
        let key = match self.string() {
            Ok(key) => key,
            Err(e) => return self.fail(e.offset, e.kind),
        };
        if bytes.get(self.pos) != Some(&b':') {
            return self.fail(self.pos, FlatErrorKind::Colon);
        }
        self.pos += 1;
        let value = match bytes.get(self.pos) {
            Some(b'"') => self.string().map(Value::Str),
            Some(c) if c.is_ascii_digit() => self.digits().map(Value::Uint),
            _ => return self.fail(self.pos, FlatErrorKind::Value),
        };
        match value {
            Ok(value) => {
                self.state = State::Separator;
                Some(Ok((key, value)))
            }
            Err(e) => self.fail(e.offset, e.kind),
        }
    }
}

/// A line validated as a flat record, with lookups by key.
///
/// Each lookup rescans the line, which suits readers that ask for a few
/// fields of a short record; a hot decoder that wants every field walks
/// [`fields`] once instead.
#[derive(Debug, Clone, Copy)]
pub struct Record<'a> {
    line: &'a str,
}

impl<'a> Record<'a> {
    /// Validates the whole line against the grammar.
    pub fn parse(line: &'a str) -> Result<Record<'a>, FlatError> {
        for field in fields(line) {
            field?;
        }
        Ok(Record { line })
    }

    /// The first value stored under `key`.
    pub fn get(&self, key: &str) -> Option<Value<'a>> {
        fields(self.line).map_while(Result::ok).find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// The string stored under `key`, if it is a string.
    pub fn str(&self, key: &str) -> Option<&'a str> {
        match self.get(key) {
            Some(Value::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// The integer stored under `key`, if it is one that fits a u64.
    pub fn u64(&self, key: &str) -> Option<u64> {
        match self.get(key) {
            Some(Value::Uint(n)) => u64::try_from(n).ok(),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Classic FNV-1a/64 test vectors.
        let mut c = Checksum::new();
        assert_eq!(c.hex(), "cbf29ce484222325");
        c.update(b"a");
        assert_eq!(c.hex(), "af63dc4c8601ec8c");
        let mut c2 = Checksum::new();
        c2.update(b"foobar");
        assert_eq!(c2.hex(), "85944171f73967e8");
        assert_eq!(Checksum::from_state(c2.state()), c2);
    }

    #[test]
    fn parses_flat_records() {
        let r = Record::parse("{\"kind\":\"span\",\"name\":\"solve\",\"tid\":3,\"dur_ns\":42}")
            .unwrap();
        assert_eq!(r.str("kind"), Some("span"));
        assert_eq!(r.str("name"), Some("solve"));
        assert_eq!(r.u64("tid"), Some(3));
        assert_eq!(r.u64("dur_ns"), Some(42));
        assert_eq!(r.u64("missing"), None);
        assert_eq!(r.u64("kind"), None, "a string is not an integer");
        assert_eq!(r.str("tid"), None, "an integer is not a string");
        // Any key order, first occurrence wins, empty records are records.
        let r = Record::parse("{\"b\":\"x\",\"a\":007,\"a\":9}").unwrap();
        assert_eq!((r.u64("a"), r.str("b")), (Some(7), Some("x")));
        assert_eq!(fields("{}").count(), 0);
        // Digit runs are exact up to u128; u64 lookups refuse wider values.
        let wide = format!("{{\"n\":{},\"m\":{}}}", u128::MAX, u64::MAX);
        let r = Record::parse(&wide).unwrap();
        assert_eq!(r.get("n"), Some(Value::Uint(u128::MAX)));
        assert_eq!((r.u64("n"), r.u64("m")), (None, Some(u64::MAX)));
        // Multibyte characters are fine anywhere in a string.
        assert_eq!(Record::parse("{\"k\":\"é✓\"}").unwrap().str("k"), Some("é✓"));
    }

    #[test]
    fn rejects_malformed_records() {
        use FlatErrorKind as K;
        let err = |line: &str| Record::parse(line).unwrap_err();
        let cases: [(&str, usize, K); 16] = [
            ("", 0, K::Open),
            ("{", 1, K::Key),
            ("{\"k\":}", 5, K::Value),
            ("{\"k\":1,}", 7, K::Key),
            ("{\"k\":1} trailing", 7, K::Trailing),
            ("{} ", 2, K::Trailing),
            ("{\"k\":-1}", 5, K::Value),
            ("{\"k\":1.5}", 6, K::Separator),
            ("{\"k\" :1}", 4, K::Colon),
            ("{ \"k\":1}", 1, K::Key),
            ("{\"k\":\"a\\\"b\"}", 7, K::Escape),
            ("{\"k\":\"a\tb\"}", 7, K::Escape),
            ("{\"k\":\"open}", 5, K::Unterminated),
            ("{\"k", 1, K::Unterminated),
            ("{\"k\":[1]}", 5, K::Value),
            ("{\"k\":340282366920938463463374607431768211456}", 5, K::Overflow),
        ];
        for (line, offset, kind) in cases {
            assert_eq!(err(line), FlatError { offset, kind }, "{line:?}");
        }
        assert_eq!(err("{\"k\":1,}").to_string(), "byte 7: expected '\"' starting a key");
        // The iterator stops after its first error.
        let mut it = fields("{\"a\":1,\"b\":x,\"c\":2}");
        assert!(matches!(it.next(), Some(Ok(("a", Value::Uint(1))))));
        assert!(matches!(it.next(), Some(Err(_))));
        assert!(it.next().is_none());
    }

    #[test]
    fn encoders_write_the_grammar_and_read_back() {
        let mut line = String::new();
        begin(&mut line, "outcome");
        for (k, n) in [("zero", 0u64), ("nine", 9), ("ten", 10), ("max", u64::MAX)] {
            put_u64(&mut line, k, n);
        }
        put_u128(&mut line, "wide", u128::MAX);
        put_u128(&mut line, "narrow", 1234);
        put_str(&mut line, "resolution", "exact");
        end(&mut line);
        assert_eq!(
            line,
            format!(
                "{{\"kind\":\"outcome\",\"zero\":0,\"nine\":9,\"ten\":10,\"max\":{},\
                 \"wide\":{},\"narrow\":1234,\"resolution\":\"exact\"}}\n",
                u64::MAX,
                u128::MAX
            )
        );
        let r = Record::parse(line.trim_end_matches('\n')).unwrap();
        assert_eq!(r.u64("max"), Some(u64::MAX));
        assert_eq!(r.get("wide"), Some(Value::Uint(u128::MAX)));
        assert_eq!(r.str("resolution"), Some("exact"));
    }
}
