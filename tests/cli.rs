//! The `squid` binary's flag handling, run as a child process: a flag it
//! does not know is refused by name before any dataset is built, rather
//! than read as the dataset argument.

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
