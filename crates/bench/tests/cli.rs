//! Usage errors of the `fft_matvec` artifact binary exit with status 2 and
//! a message on stderr, never a panic.

use std::process::Command;

#[test]
fn fft_matvec_usage_errors_exit_2() {
    for args in [&["-nt", "0"][..], &["-prec", "dsxdd"], &["-nm", "many"], &["-nm"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_fft_matvec"))
            .args(args)
            .output()
            .expect("running fft_matvec");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(!stderr.trim().is_empty(), "{args:?}: no message");
    }
}
