//! The little JSON the benchmark writes (the build has no serializer
//! crate to lean on).

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// keeps; non-finite values become `null`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn strings_escape_and_numbers_round_trip() {
        assert_eq!(super::string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(super::number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(super::number(3.0), "3");
        assert_eq!(super::number(f64::NAN), "null");
    }
}
