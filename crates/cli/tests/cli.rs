//! Process-level tests of the `vbp` binary: argument routing, exit codes
//! and the stdout/stderr split, observed the way a shell sees them.
//!
//! Std-only: each case spawns the built binary with
//! `std::process::Command` and inspects its `Output`.

use std::process::{Command, Output};

fn vbp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vbp"))
        .args(args)
        .output()
        .expect("spawn the vbp binary")
}

fn utf8(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn help_and_bare_invocation_print_usage_to_stdout() {
    for args in [&["help"][..], &[][..]] {
        let out = vbp(args);
        assert_eq!(out.status.code(), Some(0), "vbp {args:?}");
        let text = utf8(&out.stdout);
        assert!(
            text.starts_with("vbp — VariantDBSCAN command line"),
            "vbp {args:?} stdout: {text}"
        );
        assert!(
            text.contains("store inspect FILE"),
            "vbp {args:?} stdout: {text}"
        );
        assert!(
            out.stderr.is_empty(),
            "vbp {args:?} stderr: {}",
            utf8(&out.stderr)
        );
    }
    assert_eq!(vbp(&["help"]).stdout, vbp(&[]).stdout);
}

#[test]
fn unknown_command_fails_on_stderr() {
    let out = vbp(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty(), "stdout: {}", utf8(&out.stdout));
    let err = utf8(&out.stderr);
    assert!(
        err.starts_with("error: unknown command 'frobnicate'"),
        "{err}"
    );
}

#[test]
fn store_inspect_of_a_missing_file_fails() {
    let missing = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("no-such-file.vbpstore");
    assert!(!missing.exists());
    let out = vbp(&["store", "inspect", missing.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty(), "stdout: {}", utf8(&out.stdout));
    assert!(
        utf8(&out.stderr).starts_with("error: "),
        "{}",
        utf8(&out.stderr)
    );
}

/// `suggest` runs the k-nearest-neighbour path end to end
/// (`PackedRTree::kth_neighbor_dist` → `kdist::suggest_eps`).
#[test]
fn suggest_prints_the_k_distance_knee() {
    let out = vbp(&["suggest", "--dataset", "cF_10k_5N@2000"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", utf8(&out.stderr));
    let text = utf8(&out.stdout);
    assert!(text.contains("k-distance knee"), "{text}");
    assert!(out.stderr.is_empty(), "stderr: {}", utf8(&out.stderr));
}
