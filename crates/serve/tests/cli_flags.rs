//! The `squid-serve` binary's flag handling, run as a child process: a
//! flag it does not know is refused by name before anything is built or
//! bound, rather than read as the dataset argument.

use std::process::Command;

#[test]
fn unknown_flags_are_refused_by_name() {
    for args in [&["--no-such-flag", "mini"][..], &["--kill", "1", "mini"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_squid-serve"))
            .args(args)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        let flag = args.iter().find(|a| a.starts_with("--")).unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("unknown flag {flag}\n")),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} served anyway");
    }
}
