//! Hand-rolled JSON: an ordered value model, a writer, and a parser.
//!
//! The sanctioned dependency set has no `serde`, so the harness carries its
//! own minimal JSON layer.  Two properties matter here:
//!
//! * **Determinism** — objects preserve insertion order (a `Vec` of pairs,
//!   not a hash map), so the same value always serializes to the same bytes.
//!   The cache-correctness tests compare artifacts byte-for-byte.
//! * **Exactness** — integers are kept as `u64`/`i64` (never bounced through
//!   `f64`), so counters like cycle counts survive a cache round-trip
//!   unchanged.  Full-range bit patterns (e.g. packed branch-outcome words)
//!   are stored as hex strings by the codec layer instead of numbers.

use std::fmt::Write as _;

/// A JSON value with insertion-ordered objects.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Field lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            Json::I64(v) => u64::try_from(v).ok(),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::F64(v) => Some(v),
            Json::U64(v) => Some(v as f64),
            Json::I64(v) => Some(v as f64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Compact serialization (no whitespace).
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty serialization with two-space indentation and a trailing
    /// newline — the on-disk artifact format.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => {
                if v.is_finite() {
                    // Rust's shortest-roundtrip float printing; force a
                    // fractional marker so the parser reads it back as f64.
                    let s = format!("{v}");
                    out.push_str(&s);
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting [`parse`] accepts.  The parser recurses
/// once per level, so without a cap a body of a few hundred thousand `[`
/// overflows a thread stack and aborts the process; with it, such input
/// is an ordinary `Err`.  Every document this workspace writes nests fewer
/// than ten levels deep.
pub const MAX_DEPTH: usize = 128;

/// Parse a JSON document (strict enough for round-tripping our own output;
/// rejects trailing garbage).  Runs in time linear in `src.len()`.
pub fn parse(src: &str) -> Result<Json, String> {
    let mut p = Parser {
        src,
        bytes: src.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    /// Parse one array or object one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(&mut self, inner: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = inner(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.pos += 1;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            pairs.push((k, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one slice.
            // Both are ASCII, so the run ends on a char boundary of the
            // already-valid `&str` input and needs no re-validation.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run;
            if self.bytes[self.pos] == b'"' {
                self.pos += 1;
                return Ok(out);
            }
            self.pos += 1;
            let c = match self.peek() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => self.unicode_escape()?,
                other => return Err(format!("bad escape {other:?}")),
            };
            out.push(c);
            self.pos += 1;
        }
    }

    /// Decode the `\uXXXX` escape whose `u` is at `pos` (plus the low half
    /// when it is a UTF-16 surrogate pair), leaving `pos` on its last hex
    /// digit.  A lone surrogate is an error: it is not a `char`.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            if !self.bytes[self.pos + 1..].starts_with(b"\\u") {
                return Err(format!("lone surrogate \\u{hi:04x}"));
            }
            self.pos += 2;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(format!("bad surrogate pair \\u{hi:04x}\\u{lo:04x}"));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| format!("lone surrogate \\u{code:04x}"))
    }

    /// The four hex digits after the `u` at `pos`; leaves `pos` on the last.
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos + 1..self.pos + 5)
            .ok_or("truncated \\u escape")?;
        let mut code = 0;
        for &b in hex {
            let digit = (b as char).to_digit(16).ok_or("bad \\u escape")?;
            code = code * 16 + digit;
        }
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = &self.src[start..self.pos];
        if float {
            text.parse::<f64>()
                .map(Json::F64)
                .map_err(|e| e.to_string())
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Json::I64)
                .map_err(|e| e.to_string())
        } else {
            text.parse::<u64>()
                .map(Json::U64)
                .map_err(|e| e.to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_structure_and_order() {
        let v = Json::obj(vec![
            ("zebra", Json::U64(u64::MAX)),
            (
                "alpha",
                Json::Arr(vec![Json::I64(-3), Json::F64(0.25), Json::Null]),
            ),
            ("s", Json::str("line\n\"quote\" \\ tab\t")),
            ("flag", Json::Bool(true)),
            ("empty", Json::Obj(Vec::new())),
        ]);
        for text in [v.to_compact(), v.to_pretty()] {
            assert_eq!(parse(&text).unwrap(), v, "failed on {text}");
        }
        // Key order is preserved, not sorted.
        assert!(v.to_compact().find("zebra").unwrap() < v.to_compact().find("alpha").unwrap());
    }

    #[test]
    fn u64_exactness() {
        for n in [0u64, 1, (1 << 53) + 1, u64::MAX] {
            let t = Json::U64(n).to_compact();
            assert_eq!(parse(&t).unwrap().as_u64(), Some(n));
        }
    }

    #[test]
    fn float_roundtrip_marker() {
        assert_eq!(Json::F64(2.0).to_compact(), "2.0");
        assert_eq!(parse("2.0").unwrap(), Json::F64(2.0));
        assert_eq!(parse("1e3").unwrap(), Json::F64(1000.0));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("123 456").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("\"trailing backslash\\").is_err());
        assert!(parse("\"\\x\"").is_err());
        assert!(parse("\"\\u12\"").is_err());
        assert!(parse("\"\\u+123\"").is_err());
    }

    #[test]
    fn every_escape_decodes() {
        let v = parse(r#""\"\\\/\b\f\n\r\t\u0041\u00e9\u20ac""#).unwrap();
        assert_eq!(v, Json::str("\"\\/\u{8}\u{c}\n\r\tA\u{e9}\u{20ac}"));
        // Raw multi-byte UTF-8 between escapes is copied through untouched.
        assert_eq!(
            parse("\"h\u{e9}\\n\u{1F600}\\t\u{20ac}\"").unwrap(),
            Json::str("h\u{e9}\n\u{1F600}\t\u{20ac}")
        );
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_halves_are_errors() {
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap(), Json::str("\u{1F600}"));
        assert_eq!(
            parse(r#""a\uD834\uDD1Eb""#).unwrap(),
            Json::str("a\u{1D11E}b")
        );
        for bad in [
            r#""\ud83d""#,       // high half at end of string
            r#""\ud83dx""#,      // high half, then a plain char
            r#""\ud83d\n""#,     // high half, then another escape
            r#""\ud83d\u0041""#, // high half, then a non-surrogate
            r#""\ud83d\ud83d""#, // two high halves
            r#""\ude00""#,       // low half alone
            r#""\ud83d\ude""#,   // truncated low half
        ] {
            assert!(parse(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn writer_output_is_unchanged_and_roundtrips() {
        let s = "\u{8}\u{c}\u{1}\u{1f}\u{1F600}\u{e9}\"\\\n\r\t/";
        let text = Json::str(s).to_compact();
        assert_eq!(
            text,
            "\"\\u0008\\u000c\\u0001\\u001f\u{1F600}\u{e9}\\\"\\\\\\n\\r\\t/\""
        );
        assert_eq!(parse(&text).unwrap(), Json::str(s));
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert!(parse(&nest(MAX_DEPTH + 1))
            .unwrap_err()
            .contains("nesting deeper"));
        let objs = format!(
            "{}1{}",
            "{\"k\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&objs).is_err());
        // One MiB of `[` used to overflow a 2 MiB thread stack and abort
        // the process.  Now it is an ordinary error on a thread that small.
        let deep = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let open = "[".repeat(1 << 20);
                let mixed = "[{\"a\":".repeat(1 << 18);
                (parse(&open).is_err(), parse(&mixed).is_err())
            })
            .unwrap()
            .join()
            .expect("deeply nested input must not crash the parsing thread");
        assert_eq!(deep, (true, true));
    }

    /// A string-heavy document of about `bytes` bytes: one long string of
    /// printed-IR-like lines (escaped newlines and tabs, a little non-ASCII)
    /// plus an array of short strings, the shape of a cached transform.
    fn string_heavy(bytes: usize) -> String {
        let mut program = String::new();
        let mut items = Vec::new();
        let mut i = 0u64;
        while program.len() < bytes / 2 {
            program.push_str(&format!("b{i}:\taddu r{} r2 \u{e9}{i}\n", i % 32));
            items.push(Json::str(format!("s{i} \"q\" \\ \u{1F600}")));
            i += 1;
        }
        Json::obj(vec![
            ("program", Json::str(program)),
            ("items", Json::Arr(items)),
        ])
        .to_compact()
    }

    #[test]
    fn parse_time_grows_linearly() {
        // Measured on a helper thread against a deadline, so a quadratic
        // regression fails in a minute instead of hanging the suite.  The
        // thread drops `done` when it ends, normally or by panicking.
        let (done_tx, done) = std::sync::mpsc::channel::<()>();
        let worker = std::thread::spawn(move || {
            let _done = done_tx;
            let small = string_heavy(1 << 20);
            let large = string_heavy(8 << 20);
            assert!(large.len() >= 7 * small.len());
            let time = |doc: &str| {
                (0..3)
                    .map(|_| {
                        let t0 = std::time::Instant::now();
                        let v = parse(doc).unwrap();
                        let dt = t0.elapsed().as_secs_f64();
                        drop(v);
                        dt
                    })
                    .fold(f64::INFINITY, f64::min)
            };
            (time(&small), time(&large))
        });
        if let Err(std::sync::mpsc::RecvTimeoutError::Timeout) =
            done.recv_timeout(std::time::Duration::from_secs(60))
        {
            panic!("parsing 1 MB and 8 MB documents took over a minute");
        }
        let (t1, t8) = worker.join().expect("the measuring thread panicked");
        // Linear parsing gives a ratio near 8; a quadratic scan gives ~64.
        assert!(
            t8 / t1 < 16.0,
            "1 MB parse {t1:.4} s, 8 MB parse {t8:.4} s: ratio {:.1}",
            t8 / t1
        );
    }
}
