//! `silo-explorer`'s command line: a malformed numeric flag is rejected
//! with an error and exit status 2, never a panic.

use std::process::Command;

#[test]
fn malformed_numbers_exit_2_with_an_error() {
    for (flag, val) in [
        ("--budget", "ten"),
        ("--seed", "-1"),
        ("--duration-ms", "6o"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_silo-explorer"))
            .args(["search", flag, val])
            .output()
            .expect("run silo-explorer");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {val}: {stderr}");
        assert!(
            stderr.contains(&format!("error: {flag} takes a number, got \"{val}\"")),
            "{flag} {val}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{flag} {val}: {stderr}");
    }
}
