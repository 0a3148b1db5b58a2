//! The `squid` binary's flag handling, run as a child process: a flag it
//! does not know is refused by name before any dataset is built, rather
//! than read as the dataset argument; the one-shot mode prints what its
//! golden file holds.

use std::process::Command;

#[test]
fn unknown_flags_are_refused_by_name() {
    for flag in ["--no-such-flag", "--k", "--Normalized"] {
        let out = Command::new(env!("CARGO_BIN_EXE_squid"))
            .args([flag, "3", "imdb", "Person 000121", "Person 000620"])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert!(
            stderr.starts_with(&format!("unknown flag {flag}\n")),
            "{flag}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{flag} ran anyway");
    }
}

/// The one-shot mode's whole stdout (decisions, rendered SQL, results)
/// against `tests/golden/oneshot_imdb.txt`, the discovery time masked. CI
/// diffs the same file, so renderer drift fails both.
#[test]
fn oneshot_output_matches_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_squid"))
        .args(["imdb", "Person 000121", "Person 000620"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let masked: String = stdout
        .lines()
        .map(|l| match l.starts_with("discovered in ") {
            true => "discovered in <elapsed>\n".to_string(),
            false => format!("{l}\n"),
        })
        .collect();
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/oneshot_imdb.txt");
    assert_eq!(masked, std::fs::read_to_string(golden).unwrap());
}
