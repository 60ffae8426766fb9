//! Byte-for-byte golden tests of `nqpv verify` / `nqpv show` output.
//!
//! Every byte is pinned: outline layout, `VARk` numbering (shadowed
//! duplicate proofs and `show` between proofs included) and the "Order
//! relation not satisfied" text. The expected stdout lives in
//! `tests/golden/*.stdout` at the workspace root, next to the
//! `registry_order.nqpv` fixture. To refresh a file after an intended
//! output change, run the command below from the workspace root and
//! redirect stdout into it.

use std::path::{Path, PathBuf};
use std::process::Command;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Runs `nqpv ARGS` from the workspace root and compares stdout with
/// `tests/golden/GOLDEN.stdout`, and the exit code with `code`.
fn assert_golden(args: &[&str], golden: &str, code: i32) {
    let root = workspace_root();
    let out = Command::new(env!("CARGO_BIN_EXE_nqpv"))
        .current_dir(&root)
        .args(args)
        .output()
        .expect("nqpv runs");
    assert_eq!(
        out.status.code(),
        Some(code),
        "nqpv {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let path = root.join("tests/golden").join(format!("{golden}.stdout"));
    let want = std::fs::read(&path).expect("golden file");
    assert!(
        out.stdout == want,
        "nqpv {args:?} differs from {}:\n--- got ---\n{}\n--- want ---\n{}",
        path.display(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&want)
    );
}

#[test]
fn verify_examples_match_golden() {
    for name in ["deutsch", "err_corr", "qwalk"] {
        let file = format!("examples/nqpv_files/{name}.nqpv");
        assert_golden(&["verify", &file], &format!("verify_{name}"), 0);
    }
}

#[test]
fn show_qwalk_var0_matches_golden() {
    assert_golden(
        &["show", "examples/nqpv_files/qwalk.nqpv", "VAR0"],
        "show_qwalk_VAR0",
        0,
    );
}

#[test]
fn registry_order_fixture_matches_golden() {
    // Three proofs named `pf`: `show VAR1` runs between the first two,
    // and the second is shadowed by the third while still unrendered —
    // its `VAR6`–`VAR8` must still be allocated. Two proofs are rejected,
    // and `show bad` prints the violation text.
    let fixture = "tests/golden/registry_order.nqpv";
    assert_golden(&["verify", fixture], "verify_registry_order", 1);
    assert_golden(&["show", fixture, "VAR8"], "show_registry_order_VAR8", 1);
    assert_golden(&["show", fixture, "bad"], "show_registry_order_bad", 1);
}
