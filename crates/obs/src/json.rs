//! The workspace's one JSON: a value type with a strict
//! recursive-descent parser (the `matopt serve` request path and the
//! exporter tests' validator are the same code), string escaping and
//! number rendering for the exporters. No external dependencies — the
//! whole workspace builds offline, and the grammar is small enough
//! that a hand-rolled parser is the honest dependency.

/// A parsed JSON value (numbers are kept as `f64`, like JavaScript).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document (and nothing but it).
    ///
    /// # Errors
    /// A human-readable description of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing characters at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        (n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64).then_some(n as u64)
    }

    /// The array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while matches!(bytes.get(*pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", b as char))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_obj(bytes, pos),
        Some(b'[') => parse_arr(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_num(bytes, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

/// `-? digit+ (. digit+)? ([eE] [+-]? digit+)?`, then read by
/// `f64::from_str` — which alone would also take `1.`, `.5` and `+1`.
fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    let digits = |pos: &mut usize| {
        let from = *pos;
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
        *pos > from
    };
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut well_formed = digits(pos);
    if well_formed && bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        well_formed = digits(pos);
    }
    if well_formed && matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        well_formed = digits(pos);
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .filter(|_| well_formed)
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|n| n.is_finite())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = bytes.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        *pos += 4;
                        // Surrogates are rejected rather than paired —
                        // no request field needs astral characters.
                        out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                    }
                    other => return Err(format!("bad escape '\\{}'", *other as char)),
                }
            }
            Some(c) if *c < 0x20 => {
                return Err(format!("raw control character in string at byte {pos}"))
            }
            Some(_) => {
                // Advance one UTF-8 scalar, not one byte.
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|_| "invalid UTF-8")?;
                let c = rest.chars().next().ok_or("unterminated string")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

/// Escapes a string for embedding between the quotes of a JSON string
/// literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_chars(s, &mut out);
    out
}

/// Appends `s` to `out` as a JSON string literal, including the
/// surrounding quotes.
pub fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    escape_chars(s, out);
    out.push('"');
}

fn escape_chars(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Appends a finite float as a JSON number; non-finite values become
/// `null` (JSON has no NaN/Infinity).
pub fn number_into(v: f64, out: &mut String) {
    if v.is_finite() {
        // Rust's shortest-roundtrip Display for finite floats is valid
        // JSON except for integral values like `1` (still valid JSON).
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

/// Validates that `s` is one complete JSON value: [`Json::parse`] with
/// the value dropped.
///
/// # Errors
/// A description of the first syntax error.
pub fn validate(s: &str) -> Result<(), String> {
    Json::parse(s).map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_special_characters() {
        let mut out = String::new();
        escape_into("a\"b\\c\nd\te\u{1}", &mut out);
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
        assert!(validate(&out).is_ok());
    }

    #[test]
    fn numbers_handle_non_finite() {
        let mut out = String::new();
        number_into(1.5, &mut out);
        out.push(' ');
        number_into(f64::NAN, &mut out);
        out.push(' ');
        number_into(f64::INFINITY, &mut out);
        assert_eq!(out, "1.5 null null");
    }

    #[test]
    fn validator_accepts_good_json() {
        for good in [
            "{}",
            "[]",
            "null",
            "true",
            "-1.5e-3",
            r#"{"a":[1,2,{"b":"c\n"}],"d":null}"#,
            "  [ 1 , 2 ]  ",
        ] {
            assert!(validate(good).is_ok(), "{good}");
        }
    }

    #[test]
    fn validator_rejects_bad_json() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{'a':1}",
            "{\"a\":}",
            "01e",
            "1.",
            "nul",
            "[1] extra",
            "\"unterminated",
            "NaN",
            "+1",
            ".5",
            "-",
            "1e999",
            "\"raw\ttab\"",
        ] {
            assert!(validate(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn json_parses_the_request_grammar() {
        let doc = Json::parse(
            r#"{"id": "r1", "graph": {"sources": [{"rows": 4, "cols": 4}],
                "ops": [{"op": "mm", "in": [0, 0]}]}, "x": [true, null, -1.5e2]}"#,
        )
        .expect("parses");
        assert_eq!(doc.get("id").and_then(Json::as_str), Some("r1"));
        assert_eq!(
            doc.get("x").and_then(Json::as_arr).map(|a| a.len()),
            Some(3)
        );
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert_eq!(
            Json::parse(r#""aA\n""#).expect("escapes"),
            Json::Str("aA\n".into())
        );
    }

    #[test]
    fn escaping_round_trips_through_the_parser() {
        let nasty = "a\"b\\c\nd\te\u{1}";
        let doc = format!("{{\"s\": \"{}\"}}", json_escape(nasty));
        let parsed = Json::parse(&doc).expect("parses");
        assert_eq!(parsed.get("s").and_then(Json::as_str), Some(nasty));
    }
}
