//! `simtrace` as a user runs it: the built binary on a trace file.

use std::path::PathBuf;
use std::process::{Command, Output};

use bluedbm_trace::{binfmt, TraceCat, TraceConfig, TraceDoc, TraceName, TraceSink};

/// Five records offered to a sink of `capacity`, encoded to `file`.
fn write_trace(file: &str, capacity: u32) -> PathBuf {
    let mut sink = TraceSink::new(TraceConfig::on().with_capacity(capacity), 0);
    for t in 0..5 {
        sink.at(t)
            .instant(TraceCat::KvOp, TraceName::Submit, 0, t, 0);
    }
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(file);
    let mut bytes = Vec::new();
    binfmt::write(&TraceDoc::merge(vec![sink.take()]), &mut bytes).unwrap();
    std::fs::write(&path, bytes).unwrap();
    path
}

fn simtrace(args: &[&std::ffi::OsStr]) -> (Option<i32>, String, String) {
    let Output {
        status,
        stdout,
        stderr,
    } = Command::new(env!("CARGO_BIN_EXE_simtrace"))
        .args(args)
        .output()
        .unwrap();
    (
        status.code(),
        String::from_utf8(stdout).unwrap(),
        String::from_utf8(stderr).unwrap(),
    )
}

#[test]
fn dropped_records_fail_after_summary_and_export() {
    let bin = write_trace("dropped.bin", 2);
    let csv = bin.with_extension("csv");
    let json = bin.with_extension("json");
    let (code, stdout, stderr) = simtrace(&[
        bin.as_os_str(),
        "--csv".as_ref(),
        csv.as_os_str(),
        "--chrome".as_ref(),
        json.as_os_str(),
    ]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stdout.contains("2 records (3 dropped at capacity)"),
        "{stdout}"
    );
    assert!(stdout.contains("digest: full"), "{stdout}");
    assert!(
        stderr.contains("3 records dropped at capacity: digests are not comparable"),
        "{stderr}"
    );
    assert_eq!(std::fs::read_to_string(&csv).unwrap().lines().count(), 3);

    // The Chrome export carries the loss, so checking it alone fails too.
    let (code, stdout, stderr) = simtrace(&["--check".as_ref(), json.as_os_str()]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("3 dropped"), "{stdout}");
    assert!(stderr.contains("3 records dropped at capacity"), "{stderr}");
}

#[test]
fn a_whole_trace_passes() {
    let bin = write_trace("whole.bin", 64);
    let json = bin.with_extension("json");
    let (code, stdout, stderr) =
        simtrace(&[bin.as_os_str(), "--chrome".as_ref(), json.as_os_str()]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(
        stdout.contains("5 records (0 dropped at capacity)"),
        "{stdout}"
    );
    let (code, stdout, stderr) = simtrace(&["--check".as_ref(), json.as_os_str()]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(
        stdout.contains("OK") && stdout.contains("0 dropped"),
        "{stdout}"
    );
}

#[test]
fn a_version_1_file_exits_1_naming_its_version() {
    let bin = write_trace("v1.bin", 64);
    let mut bytes = std::fs::read(&bin).unwrap();
    bytes[..8].copy_from_slice(b"BDBMTRC1");
    std::fs::write(&bin, bytes).unwrap();
    let (code, stdout, stderr) = simtrace(&[bin.as_os_str()]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stderr.contains("version 1 (BDBMTRC1)"), "{stderr}");
}
