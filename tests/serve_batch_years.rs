//! `delta-serve` batch mode over day files that straddle New Year: each
//! file's year-less syslog stamps must resolve against that file's own
//! year, exactly as `delta-cli analyze` reads them. Scanned under one
//! year, the January line would land eleven months *behind* the December
//! one and be quarantined as out-of-order.

use servd::testutil::get_on;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const DEC_31: &str =
    "Dec 31 23:59:50 gpub001 kernel: NVRM: Xid (PCI:0000:07:00): 79, pid=11, GPU has fallen off the bus.\n";
const JAN_01: &str =
    "Jan  1 00:10:00 gpub002 kernel: NVRM: Xid (PCI:0000:46:00): 79, pid=12, GPU has fallen off the bus.\n";

/// A fresh directory holding the two day files.
fn corpus() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("serve-batch-years-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create corpus dir");
    std::fs::write(dir.join("syslog-20221231.log"), DEC_31).expect("write day file");
    std::fs::write(dir.join("syslog-20230101.log"), JAN_01).expect("write day file");
    dir
}

#[test]
fn batch_mode_resolves_each_day_file_under_its_own_year() {
    let dir = corpus();
    let mut child = Command::new(env!("CARGO_BIN_EXE_delta_serve"))
        .arg(&dir)
        .args([
            "--addr",
            "127.0.0.1:0",
            "--trace-capacity",
            "0",
            "--scrape-secs",
            "0",
            "--whatif-workers",
            "0",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("delta-serve spawns");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let deadline = Instant::now() + Duration::from_secs(60);
    let addr = loop {
        assert!(Instant::now() < deadline, "delta-serve never came up");
        let line = lines
            .next()
            .expect("delta-serve exited before serving")
            .expect("stdout is text");
        if let Some(rest) = line.split("serving on http://").nth(1) {
            break rest
                .split_whitespace()
                .next()
                .expect("address after scheme")
                .to_owned();
        }
    };

    let mut conn = TcpStream::connect(&addr).expect("connect to delta-serve");
    let errors = get_on(&mut conn, "/errors");
    drop(conn);
    child.kill().expect("SIGKILL delivered");
    child.wait().expect("child reaped");
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(errors.status, 200);
    let body = errors.text();
    let rows: Vec<&str> = body.lines().skip(1).collect();
    assert_eq!(rows.len(), 2, "both errors must be served: {body}");
    assert!(
        rows[0].starts_with("2022-12-31") && rows[0].contains(",gpub001,"),
        "December error resolved under 2022: {body}"
    );
    assert!(
        rows[1].starts_with("2023-01-01") && rows[1].contains(",gpub002,"),
        "January error resolved under 2023: {body}"
    );
}
