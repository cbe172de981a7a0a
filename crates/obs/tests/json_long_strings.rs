//! Long string values parse in time linear in their length (a `serve`
//! request line can carry one), and the string grammar's rejections
//! still fire when they sit next to a long run of plain characters.

use matopt_obs::json::{escape_into, Json};
use std::time::{Duration, Instant};

/// About `bytes` bytes of text mixing ASCII, a two-byte character and
/// newlines (which the escaper writes as `\n`).
fn mixed(bytes: usize) -> String {
    let mut s = String::with_capacity(bytes + 8);
    let mut i = 0usize;
    while s.len() < bytes {
        s.push(match i % 7 {
            0 | 3 => 'é',
            5 => '\n',
            _ => 'a',
        });
        i += 1;
    }
    s
}

#[test]
fn a_one_mebibyte_mixed_string_round_trips_in_under_a_second() {
    let value = mixed(1 << 20);
    let mut doc = String::from("{\"s\": ");
    escape_into(&value, &mut doc);
    doc.push('}');

    let started = Instant::now();
    let parsed = Json::parse(&doc).expect("parses");
    let took = started.elapsed();
    assert_eq!(parsed.get("s").and_then(Json::as_str), Some(value.as_str()));
    assert!(
        took < Duration::from_secs(1),
        "parsing {} bytes took {took:?}",
        doc.len()
    );
}

#[test]
fn rejections_still_fire_next_to_a_long_run() {
    let run = "aé".repeat(64 << 10);
    for (tail, why) in [
        ("\u{1}x\"", "raw control character"),
        ("\tx\"", "raw control character"),
        ("\\q\"", "bad escape"),
        ("\\ud800\"", "lone surrogate"),
        ("\\udfff\"", "lone surrogate"),
        ("\\u12\"", "truncated \\u escape"),
        ("\\", "unterminated escape"),
        ("", "unterminated string"),
    ] {
        let doc = format!("\"{run}{tail}");
        assert!(Json::parse(&doc).is_err(), "{why} accepted");
    }
    // The same run, terminated, is fine, and so is a run after an escape.
    let good = format!("\"{run}\\n{run}\"");
    assert_eq!(
        Json::parse(&good).expect("parses"),
        Json::Str(format!("{run}\n{run}"))
    );
}
