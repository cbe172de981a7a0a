//! Resource-governance helpers shared by the execution layer and the
//! CLI: parsing human-friendly byte budgets (`--mem-budget 512M`) and
//! resolving the scratch directory spilled buffers are written to.
//!
//! The [`Cluster`](crate::Cluster) model already *costs* scratch
//! (`worker_disk_bytes` is the paper's 300 GB NVMe budget and the
//! simulator fails plans that exceed it); this module is the runtime
//! counterpart for the laptop-scale executor — where the spill store of
//! a memory-governed run actually lives.

use std::path::PathBuf;

/// Parses a human-friendly byte size: a plain integer (`1048576`), a
/// decimal with a binary-suffix multiplier (`512K`, `64M`, `1.5G`,
/// `2T`), with an optional trailing `B` (`512MB`) in any case.
///
/// Suffixes are binary (`K` = 1024), matching how memory budgets are
/// usually reasoned about.
///
/// # Errors
/// A human-readable message naming the offending input.
pub fn parse_byte_size(s: &str) -> Result<u64, String> {
    let t = s.trim();
    if t.is_empty() {
        return Err("empty byte size".to_string());
    }
    let upper = t.to_ascii_uppercase();
    let body = upper.strip_suffix('B').unwrap_or(&upper);
    let (digits, mult): (&str, u64) = match body.chars().last() {
        Some('K') => (&body[..body.len() - 1], 1u64 << 10),
        Some('M') => (&body[..body.len() - 1], 1u64 << 20),
        Some('G') => (&body[..body.len() - 1], 1u64 << 30),
        Some('T') => (&body[..body.len() - 1], 1u64 << 40),
        _ => (body, 1),
    };
    let value: f64 = digits
        .trim()
        .parse()
        .map_err(|_| format!("bad byte size {s:?} (expected e.g. 1048576, 512M, 1.5G)"))?;
    if !value.is_finite() || value < 0.0 {
        return Err(format!(
            "byte size {s:?} must be a finite nonnegative number"
        ));
    }
    let bytes = value * mult as f64;
    if bytes > u64::MAX as f64 {
        return Err(format!("byte size {s:?} overflows 64 bits"));
    }
    Ok(bytes as u64)
}

/// The directory spilled buffers default to: `$MATOPT_SCRATCH` when
/// set, otherwise `matopt-scratch` under the system temp directory.
/// The engine keeps one unlinked store file open per scratch directory
/// and gives concurrent runs disjoint extents of it, so nothing is ever
/// named in the directory.
#[must_use]
pub fn default_scratch_dir() -> PathBuf {
    match std::env::var_os("MATOPT_SCRATCH") {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => std::env::temp_dir().join("matopt-scratch"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_plain_and_suffixed_sizes() {
        assert_eq!(parse_byte_size("0"), Ok(0));
        assert_eq!(parse_byte_size("1048576"), Ok(1 << 20));
        assert_eq!(parse_byte_size("512K"), Ok(512 << 10));
        assert_eq!(parse_byte_size("512k"), Ok(512 << 10));
        assert_eq!(parse_byte_size("64M"), Ok(64 << 20));
        assert_eq!(parse_byte_size("64MB"), Ok(64 << 20));
        assert_eq!(parse_byte_size("2G"), Ok(2u64 << 30));
        assert_eq!(parse_byte_size("1.5G"), Ok(3u64 << 29));
        assert_eq!(parse_byte_size(" 8m "), Ok(8 << 20));
        assert_eq!(parse_byte_size("1T"), Ok(1u64 << 40));
    }

    #[test]
    fn rejects_malformed_sizes() {
        for bad in ["", "  ", "M", "12Q", "-1", "NaN", "infG", "1..5M"] {
            assert!(parse_byte_size(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn scratch_dir_is_nonempty() {
        let d = default_scratch_dir();
        assert!(!d.as_os_str().is_empty());
    }
}
