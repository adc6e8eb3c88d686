//! Exit-code tests of `repro`'s flag parsing: a malformed or missing flag
//! value is a usage error (exit 2 with a message naming the flag), never a
//! panic (exit 101).

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

fn assert_usage_error(args: &[&str], expected: &str) {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
    assert!(stderr.contains(expected), "{args:?}: stderr {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: stderr {stderr}");
}

#[test]
fn malformed_flag_value_is_a_usage_error() {
    assert_usage_error(
        &["--scale", "abc", "table3"],
        "--scale must be a number, got \"abc\"",
    );
}

#[test]
fn missing_flag_value_is_a_usage_error() {
    assert_usage_error(&["--seed"], "--seed needs a value");
}
