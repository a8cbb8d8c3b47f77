//! A minimal JSON reader for the trace format this crate itself writes.
//!
//! The workspace has no external dependencies, so `smc profile report`
//! and the golden schema tests parse trace lines with this ~150-line
//! recursive-descent parser. It accepts standard JSON (objects, arrays,
//! strings with the common escapes, numbers, booleans, null); it is not
//! a validating general-purpose parser and rejects what it does not
//! understand by returning `None`.

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so an unbounded depth would let one hostile
/// line (`[[[[…`) overflow the reading thread's stack.
pub const MAX_JSON_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as f64; trace values are small integers).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document (surrounding whitespace allowed).
    /// `None` for malformed input and for arrays/objects nested deeper
    /// than [`MAX_JSON_DEPTH`].
    pub fn parse(text: &str) -> Option<Json> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos == p.bytes.len() {
            Some(v)
        } else {
            None
        }
    }

    /// Object field lookup (first occurrence).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// `s` with JSON string escaping: quotes, backslashes and control
/// characters (`\n`, `\r` and `\t` by name, the rest as `\u00XX`).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    esc(&mut out, s);
    out
}

/// Appends `s` to `out` with JSON string escaping (the writer-side dual
/// of [`Parser::string`]): the workspace's one escaper, behind every
/// JSON it writes. Runs of bytes that need no escape are copied whole,
/// since requests to `smc serve` carry whole model sources; every byte
/// that needs one is ASCII, so no run splits a character.
pub(crate) fn esc(out: &mut String, s: &str) {
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[plain..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => out.push_str(&format!("\\u{b:04x}")),
        }
        plain = i + 1;
    }
    out.push_str(&s[plain..]);
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Option<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Some(())
        } else {
            None
        }
    }

    fn lit(&mut self, word: &str, value: Json) -> Option<Json> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Some(value)
        } else {
            None
        }
    }

    fn value(&mut self) -> Option<Json> {
        match self.peek()? {
            b'{' => self.nested(Self::object),
            b'[' => self.nested(Self::array),
            b'"' => self.string().map(Json::Str),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'n' => self.lit("null", Json::Null),
            _ => self.number(),
        }
    }

    /// Parses one array or object a level deeper, refusing to go past
    /// [`MAX_JSON_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Option<Json>) -> Option<Json> {
        if self.depth == MAX_JSON_DEPTH {
            return None;
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Option<Json> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat(b'}').is_some() {
            return Some(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            if self.eat(b',').is_some() {
                continue;
            }
            self.eat(b'}')?;
            return Some(Json::Obj(fields));
        }
    }

    fn array(&mut self) -> Option<Json> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']').is_some() {
            return Some(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b',').is_some() {
                continue;
            }
            self.eat(b']')?;
            return Some(Json::Arr(items));
        }
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
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self.bytes.get(self.pos + 1..self.pos + 5)?;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            out.push(char::from_u32(code)?);
                            self.pos += 4;
                        }
                        _ => return None,
                    }
                    self.pos += 1;
                }
                _ => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // boundaries are well-formed).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..]).ok()?;
                    let c = rest.chars().next()?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Option<Json> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos]).ok()?.parse::<f64>().ok().map(Json::Num)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn parses_trace_shaped_objects() {
        let j = Json::parse(
            r#"{"v":1,"seq":0,"t_us":12,"kind":"span_start","span":1,"name":"reach","ok":true,"x":null,"arr":[1,2.5,-3]}"#,
        )
        .unwrap();
        assert_eq!(j.get("v").unwrap().as_u64(), Some(1));
        assert_eq!(j.get("kind").unwrap().as_str(), Some("span_start"));
        assert_eq!(j.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(j.get("x"), Some(&Json::Null));
        assert_eq!(
            j.get("arr"),
            Some(&Json::Arr(vec![Json::Num(1.0), Json::Num(2.5), Json::Num(-3.0)]))
        );
        assert_eq!(j.get("missing"), None);
    }

    #[test]
    fn escapes_control_characters_the_parser_reads_back() {
        let s = "q\"b\\n\nr\rt\tu\u{1}é€";
        assert_eq!(json_escape(s), r#"q\"b\\n\nr\rt\tu\u0001é€"#);
        let line = format!("{{\"s\":\"{}\"}}", json_escape(s));
        assert_eq!(Json::parse(&line).unwrap().get("s").unwrap().as_str(), Some(s));
    }

    #[test]
    fn parses_escapes() {
        let j = Json::parse(r#"{"s":"a\"b\\c\ndA"}"#).unwrap();
        assert_eq!(j.get("s").unwrap().as_str(), Some("a\"b\\c\nd\u{41}"));
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(Json::parse("{"), None);
        assert_eq!(Json::parse("{]"), None);
        assert_eq!(Json::parse("{\"a\":1} trailing"), None);
        assert_eq!(Json::parse(""), None);
    }

    #[test]
    fn bounds_the_nesting_depth() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nest(MAX_JSON_DEPTH)).is_some());
        assert_eq!(Json::parse(&nest(MAX_JSON_DEPTH + 1)), None);
        let objects = "{\"a\":".repeat(MAX_JSON_DEPTH + 1) + "1" + &"}".repeat(MAX_JSON_DEPTH + 1);
        assert_eq!(Json::parse(&objects), None);
        // Far past the limit: refused, not a stack overflow.
        assert_eq!(Json::parse(&"[".repeat(300_000)), None);
    }
}
