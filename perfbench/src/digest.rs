//! Output digests: the figure CSVs a pass writes, pinned byte for byte.
//!
//! A digest set maps each CSV file name to the FNV-1a hash of its
//! bytes. FNV-1a changes its value for any single-byte change (each
//! step is a bijection of the running hash), which is all a
//! byte-identity check needs. The recorded sets live in
//! `perfbench/expected/*.digests`, one `<file> <hex>` line per CSV.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// File name -> FNV-1a hash of its bytes.
pub type Digests = BTreeMap<String, u64>;

/// FNV-1a over `bytes`.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest every `*.csv` file in `dir` whose name `keep` accepts.
pub fn digest_dir(dir: &Path, keep: impl Fn(&str) -> bool) -> io::Result<Digests> {
    let mut out = Digests::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".csv") && keep(&name) {
            out.insert(name, fnv64(&std::fs::read(entry.path())?));
        }
    }
    Ok(out)
}

/// One hash over a whole set (names and per-file hashes, in name
/// order), for printing a single number per pass.
pub fn combined(d: &Digests) -> u64 {
    let mut text = String::new();
    for (name, h) in d {
        text.push_str(&format!("{name} {h:016x}\n"));
    }
    fnv64(text.as_bytes())
}

/// Render a set in the recorded `<file> <hex>` form.
#[cfg(test)]
pub fn render(d: &Digests) -> String {
    d.iter().map(|(n, h)| format!("{n} {h:016x}\n")).collect()
}

/// Parse the recorded form (blank lines and `#` comments ignored).
pub fn parse(text: &str) -> Result<Digests, String> {
    let mut out = Digests::new();
    for line in text.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, hex) = line
            .split_once(' ')
            .ok_or_else(|| format!("bad digest line {line:?}"))?;
        let h = u64::from_str_radix(hex.trim(), 16)
            .map_err(|e| format!("bad digest {hex:?} for {name}: {e}"))?;
        out.insert(name.to_string(), h);
    }
    Ok(out)
}

/// Every difference between `expected` and `actual`, one line each;
/// empty when they match exactly.
pub fn diff(expected: &Digests, actual: &Digests) -> Vec<String> {
    let mut out = Vec::new();
    for (name, want) in expected {
        match actual.get(name) {
            None => out.push(format!("{name}: missing")),
            Some(got) if got != want => {
                out.push(format!("{name}: digest {got:016x}, expected {want:016x}"))
            }
            Some(_) => {}
        }
    }
    for (name, h) in actual.iter().filter(|(n, _)| !expected.contains_key(*n)) {
        out.push(format!("{name}: not in the recorded set (digest {h:016x})"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("perfbench-digest-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn a_one_byte_csv_change_fails_the_check() {
        let dir = temp_dir("flip");
        std::fs::write(dir.join("fig14.csv"), "workload,noop\nmcf,0.97\n").unwrap();
        std::fs::write(dir.join("fig15.csv"), "workload,noop\nmcf,1.10\n").unwrap();
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();
        let recorded = parse(&render(&digest_dir(&dir, |_| true).unwrap())).unwrap();
        assert_eq!(recorded.len(), 2, "only CSVs are digested");
        assert!(diff(&recorded, &digest_dir(&dir, |_| true).unwrap()).is_empty());

        // Flip one byte: 0.97 -> 0.98.
        std::fs::write(dir.join("fig14.csv"), "workload,noop\nmcf,0.98\n").unwrap();
        let now = digest_dir(&dir, |_| true).unwrap();
        let d = diff(&recorded, &now);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].starts_with("fig14.csv: digest"), "{d:?}");
        assert_ne!(combined(&recorded), combined(&now));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn missing_and_extra_files_fail_the_check() {
        let mut want = Digests::new();
        want.insert("a.csv".into(), 1);
        let mut got = Digests::new();
        got.insert("b.csv".into(), 1);
        let d = diff(&want, &got);
        assert_eq!(
            d,
            vec![
                "a.csv: missing",
                "b.csv: not in the recorded set (digest 0000000000000001)"
            ]
        );
    }

    #[test]
    fn every_single_byte_change_moves_the_hash() {
        let base = b"workload,rbmpki\nspec06/mcf_like,12.5\n".to_vec();
        let h = fnv64(&base);
        for i in 0..base.len() {
            let mut v = base.clone();
            v[i] ^= 1;
            assert_ne!(fnv64(&v), h, "byte {i}");
        }
    }

    #[test]
    fn parse_rejects_garbage_and_skips_comments() {
        assert!(parse("# header\n\nfig14.csv 00ff\n").is_ok());
        assert!(parse("fig14.csv").is_err());
        assert!(parse("fig14.csv zz").is_err());
    }
}
