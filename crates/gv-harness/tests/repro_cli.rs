//! The `repro` binary turns malformed command lines, and flags the chosen
//! experiment would ignore, into a usage error (exit 2) instead of a panic
//! or a silently defaulted run.

use std::process::Command;

#[test]
fn malformed_command_lines_exit_2_without_panicking() {
    for args in [
        &["fig10", "--scale", "0"][..],
        &["nosuch"],
        &[],
        &["table3", "--analyze"],
        &["fig9", "--budget", "5"],
        &["all", "--quick", "--dump-trace"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .current_dir(env!("CARGO_TARGET_TMPDIR"))
            .output()
            .expect("run repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: repro"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed output");
    }
}
