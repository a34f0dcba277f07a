//! Just enough JSON: string escaping, number rendering and a field
//! lookup for the flat, pretty-printed objects the fleet service
//! returns. The workspace is offline and carries no serde.

use std::fmt::Write;

/// `s` as a quoted JSON string.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// `v` with every digit Rust's shortest round-trip form gives it;
/// `null` for a non-finite value, which JSON cannot represent.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The raw value text of `"key": value` in a flat JSON object, with a
/// string value's quotes stripped.
pub fn field<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\":");
    let start = json.find(&pattern)? + pattern.len();
    let rest = json[start..].trim_start();
    if let Some(quoted) = rest.strip_prefix('"') {
        return quoted.find('"').map(|end| &quoted[..end]);
    }
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// A hexadecimal `0x...` value as `u64`.
pub fn hex(text: &str) -> Option<u64> {
    u64::from_str_radix(text.strip_prefix("0x")?, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_quotes_backslashes_and_controls() {
        assert_eq!(string("plain"), "\"plain\"");
        assert_eq!(string("a\"b"), "\"a\\\"b\"");
        assert_eq!(string("c:\\dir"), "\"c:\\\\dir\"");
        assert_eq!(string("l1\nl2\tx\r"), "\"l1\\nl2\\tx\\r\"");
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
        assert_eq!(string("µs"), "\"µs\"");
    }

    #[test]
    fn numbers_keep_all_digits_and_map_non_finite_to_null() {
        assert_eq!(number(1.2034), "1.2034");
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(number(3.0), "3.0");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn fields_are_found_in_pretty_printed_objects() {
        let json = "{\n  \"seed\": \"0x1f\",\n  \"devices\": 16,\n  \"failed\": 0\n}\n";
        assert_eq!(field(json, "devices"), Some("16"));
        assert_eq!(field(json, "failed"), Some("0"));
        assert_eq!(field(json, "seed").and_then(hex), Some(0x1f));
        assert_eq!(field(json, "missing"), None);
    }
}
