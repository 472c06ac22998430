//! A tiny hand-rolled JSON writer *and reader*: exactly what the
//! exporters and the [`crate::analyze`] read side need, with
//! deterministic formatting (no registry access, no dependencies).
//!
//! The reader ([`parse`]) is total — malformed input yields `None`,
//! never a panic — and preserves object key order, which the analysis
//! layer relies on for byte-stable reports.

/// Escapes `s` for inclusion in a JSON string literal (no quotes).
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders a quoted JSON string literal.
#[must_use]
pub fn string(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// Renders an `f64` as a JSON number with fixed six-decimal precision —
/// the deterministic formatting every exporter uses. Non-finite values
/// (not representable in JSON) render as `null`.
#[must_use]
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:.6}")
    } else {
        "null".to_string()
    }
}

/// Renders an object from pre-rendered `key: value` fragments.
#[must_use]
pub fn object(fields: &[(&str, String)]) -> String {
    let inner: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", string(k)))
        .collect();
    format!("{{{}}}", inner.join(","))
}

/// A parsed JSON value. Object members keep their source order (the
/// exporters emit fixed field orders, and the analysis layer renders
/// reports in that same order for byte stability).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null` (also produced by the writer for non-finite numbers).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, as `f64`.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, members in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on objects; `None` for other variants or absent
    /// keys.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array; `None` otherwise.
    #[must_use]
    pub fn arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The text of a string; `None` otherwise.
    #[must_use]
    pub fn str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value of a number; `None` otherwise.
    #[must_use]
    pub fn num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value of a boolean; `None` otherwise.
    #[must_use]
    pub fn bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parses one JSON document. Total: `None` on any malformation
/// (trailing garbage included) — corrupt artifacts are data for the
/// analysis layer, never a panic.
#[must_use]
pub fn parse(text: &str) -> Option<Value> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    (p.pos == text.len()).then_some(v)
}

/// Nesting guard: the parser recurses per container, so a pathological
/// `[[[[…` input must be refused before it exhausts the stack.
const MAX_DEPTH: u32 = 128;

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: u32,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Option<()> {
        (self.peek() == Some(b)).then(|| self.pos += 1)
    }

    fn lit(&mut self, lit: &str) -> Option<()> {
        let end = self.pos + lit.len();
        (self.text.as_bytes().get(self.pos..end) == Some(lit.as_bytes())).then(|| self.pos = end)
    }

    fn value(&mut self) -> Option<Value> {
        match self.peek()? {
            b'n' => self.lit("null").map(|()| Value::Null),
            b't' => self.lit("true").map(|()| Value::Bool(true)),
            b'f' => self.lit("false").map(|()| Value::Bool(false)),
            b'"' => self.string().map(Value::Str),
            b'[' => self.array(),
            b'{' => self.object(),
            _ => self.number(),
        }
    }

    fn number(&mut self) -> Option<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        self.text[start..self.pos].parse().ok().map(Value::Num)
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek()? {
                b'"' => {
                    self.pos += 1;
                    return Some(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.peek()? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self.text.get(self.pos + 1..self.pos + 5)?;
                            let code = u32::from_str_radix(hex, 16).ok()?;
                            // Surrogates would need pairing; the
                            // exporters never emit them, so refuse.
                            out.push(char::from_u32(code)?);
                            self.pos += 4;
                        }
                        _ => return None,
                    }
                    self.pos += 1;
                }
                _ => {
                    // Copy the whole run up to the next quote, backslash
                    // or control byte. All three are ASCII, which never
                    // occurs inside a multi-byte UTF-8 sequence, so the
                    // run ends on a char boundary of the `&str` input.
                    let start = self.pos;
                    while self
                        .peek()
                        .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
                    {
                        self.pos += 1;
                    }
                    if self.pos == start {
                        return None; // raw control characters are invalid JSON
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn array(&mut self) -> Option<Value> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return None;
        }
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Some(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Some(Value::Arr(items));
                }
                _ => return None,
            }
        }
    }

    fn object(&mut self) -> Option<Value> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return None;
        }
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Some(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Some(Value::Obj(members));
                }
                _ => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn numbers_are_fixed_precision() {
        assert_eq!(number(1.5), "1.500000");
        assert_eq!(number(f64::NAN), "null");
    }

    #[test]
    fn objects_compose() {
        assert_eq!(
            object(&[("a", "1".to_string()), ("b", string("x"))]),
            "{\"a\":1,\"b\":\"x\"}"
        );
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let doc = object(&[
            ("s", string("a\"b\\c\nd\u{e9}")),
            ("n", number(1.5)),
            ("neg", "-2".to_string()),
            ("b", "true".to_string()),
            ("nul", "null".to_string()),
            ("arr", "[1,2,3]".to_string()),
            ("obj", object(&[("k", string("v"))])),
        ]);
        let v = parse(&doc).expect("writer output parses");
        assert_eq!(v.get("s").and_then(Value::str), Some("a\"b\\c\nd\u{e9}"));
        assert_eq!(v.get("n").and_then(Value::num), Some(1.5));
        assert_eq!(v.get("neg").and_then(Value::num), Some(-2.0));
        assert_eq!(v.get("b").and_then(Value::bool), Some(true));
        assert_eq!(v.get("nul"), Some(&Value::Null));
        assert_eq!(
            v.get("arr").and_then(Value::arr).map(<[Value]>::len),
            Some(3)
        );
        assert_eq!(
            v.get("obj").and_then(|o| o.get("k")).and_then(Value::str),
            Some("v")
        );
        // Key order is the source order.
        match &v {
            Value::Obj(m) => assert_eq!(m[0].0, "s"),
            other => panic!("not an object: {other:?}"),
        }
    }

    #[test]
    fn parse_is_total_on_malformed_input() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "nul",
            "\"abc",
            "\"\\u12\"",
            "1 2",
            "{\"a\":1} x",
            "[1 2]",
            "\"\\q\"",
            "--1",
            "0x10",
        ] {
            assert_eq!(parse(bad), None, "input {bad:?} must not parse");
        }
        // Deep nesting is refused, not a stack overflow.
        let deep = "[".repeat(100_000);
        assert_eq!(parse(&deep), None);
    }

    #[test]
    fn multi_megabyte_string_round_trips() {
        // Long unescaped runs between escapes and multi-byte scalars:
        // parsing must stay linear in the input (a `result` frame can
        // carry hundreds of kilobytes of RTL).
        let text = "module m; // \u{e9}\u{20ac} \"q\" \\ \t\n".repeat(100_000);
        assert!(text.len() > 2_000_000);
        let doc = format!("[{},{}]", string(&text), number(1.0));
        let v = parse(&doc).expect("writer output parses");
        let items = v.arr().expect("array");
        assert_eq!(items[0].str(), Some(text.as_str()));
        assert_eq!(items[1].num(), Some(1.0));
    }

    #[test]
    fn parse_accepts_whitespace_and_unicode_escapes() {
        let v = parse(" { \"k\" : [ 1 , \"\\u00e9\" ] } ").unwrap();
        let arr = v.get("k").and_then(Value::arr).unwrap();
        assert_eq!(arr[0].num(), Some(1.0));
        assert_eq!(arr[1].str(), Some("\u{e9}"));
    }
}
