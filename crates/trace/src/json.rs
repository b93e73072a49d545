//! A tiny, dependency-free JSON document type with deterministic
//! rendering.
//!
//! Used by the Chrome trace writer and by `experiments --json`.  Object
//! keys keep insertion order, floats render via Rust's shortest
//! round-trip formatting, and non-finite floats render as `null` — so
//! the same document always renders to the same bytes, which the golden
//! tests rely on.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer (covers every counter in this workspace).
    Int(i64),
    /// A float; NaN/infinities render as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion-ordered key/value pairs.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// Adds a field to an object (panics on non-objects) and returns
    /// `self` for chaining.
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Object(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("Json::with on non-object {other:?}"),
        }
        self
    }

    /// Renders the document as a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write_int(*i, out),
            Json::Float(f) => {
                if f.is_finite() {
                    // `{}` omits ".0" for integral floats; keep the type
                    // visible so consumers can parse a stable schema.
                    let mut s = format!("{f}");
                    if !s.contains(['.', 'e', 'E']) {
                        s.push_str(".0");
                    }
                    out.push_str(&s);
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends `i` in decimal, byte-identical to its `Display` output.
/// Integer arrays dominate large payloads, and formatting digits into a
/// stack buffer costs a fraction of a pass through `fmt::Write`.
fn write_int(i: i64, out: &mut String) {
    let mut buf = [0u8; 20]; // u64::MAX has 20 digits
    let mut at = buf.len();
    let mut n = i.unsigned_abs();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if i < 0 {
        out.push('-');
    }
    out.extend(buf[at..].iter().map(|&d| char::from(d)));
}

fn write_escaped(s: &str, out: &mut String) {
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

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<i64> for Json {
    fn from(i: i64) -> Json {
        Json::Int(i)
    }
}

impl From<u64> for Json {
    fn from(u: u64) -> Json {
        Json::Int(i64::try_from(u).expect("counter fits in i64"))
    }
}

impl From<u32> for Json {
    fn from(u: u32) -> Json {
        Json::Int(i64::from(u))
    }
}

impl From<usize> for Json {
    fn from(u: usize) -> Json {
        Json::Int(i64::try_from(u).expect("counter fits in i64"))
    }
}

impl From<f64> for Json {
    fn from(f: f64) -> Json {
        Json::Float(f)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Array(items.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_render_as_display() {
        for i in [
            0,
            1,
            -1,
            9,
            10,
            -10,
            99,
            100,
            12_345,
            i64::MAX,
            i64::MIN,
            i64::MIN + 1,
        ] {
            assert_eq!(Json::Int(i).render(), i.to_string());
        }
        for k in 0..19 {
            let p = 10i64.pow(k);
            for i in [p - 1, p, p + 1, -p + 1, -p, -p - 1] {
                assert_eq!(Json::Int(i).render(), i.to_string());
            }
        }
    }

    #[test]
    fn renders_scalars() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::Int(-7).render(), "-7");
        assert_eq!(Json::Float(1.5).render(), "1.5");
        assert_eq!(Json::Float(2.0).render(), "2.0");
        assert_eq!(Json::Float(f64::NAN).render(), "null");
        assert_eq!(
            Json::Str("a\"b\\c\nd".into()).render(),
            "\"a\\\"b\\\\c\\nd\""
        );
    }

    #[test]
    fn renders_nested_structures_in_order() {
        let doc = Json::object()
            .with("name", "e1")
            .with("cycles", 42u64)
            .with("pu", 0.75)
            .with("rows", vec![1i64, 2, 3]);
        assert_eq!(
            doc.render(),
            r#"{"name":"e1","cycles":42,"pu":0.75,"rows":[1,2,3]}"#
        );
    }

    #[test]
    fn escapes_control_characters() {
        assert_eq!(Json::Str("\u{1}".into()).render(), "\"\\u0001\"");
    }

    #[test]
    #[should_panic(expected = "non-object")]
    fn with_rejects_non_objects() {
        let _ = Json::Int(1).with("k", 2i64);
    }
}
