//! The committed `bench/baseline*.json` documents re-render byte-identically
//! through `fftmatvec_bench::benchdoc`, and each still gates the rows it was
//! committed to gate.

use fftmatvec_bench::benchdoc::{
    format_document, gated_count, parse_document, AutotuneResult, BackendResult, BenchResult,
    MatvecResult, Row, ServiceResult, SimdResult, ToeplitzResult,
};

/// Parse `bench/{file}` as `R` rows, re-render it under its own envelope
/// mode, and compare bytes; `gated` is the committed gated-row count.
fn round_trip<R: Row>(file: &str, gated: usize) {
    let path = format!("{}/../../bench/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    let mode = text
        .split("\"mode\": \"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .unwrap_or_else(|| panic!("{file} has no envelope mode"));
    let rows = parse_document::<R>(&text);
    assert!(format_document(mode, &rows) == text, "{file} does not re-render byte-identically");
    assert_eq!(gated_count(&rows), gated, "{file} gated rows");
}

#[test]
fn committed_baselines_round_trip_byte_identically() {
    round_trip::<BenchResult>("baseline.json", 24);
    round_trip::<MatvecResult>("baseline_matvec.json", 12);
    round_trip::<SimdResult>("baseline_simd.json", 19);
    round_trip::<ServiceResult>("baseline_service.json", 1);
    round_trip::<AutotuneResult>("baseline_autotune.json", 4);
    round_trip::<ToeplitzResult>("baseline_toeplitz.json", 4);
    round_trip::<BackendResult>("baseline_backend.json", 8);
}
