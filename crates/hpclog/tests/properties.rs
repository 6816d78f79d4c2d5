//! Property tests: log line and NVRM body round trips, pattern-engine
//! invariants, archive conservation, the merge kernel's determinism and
//! the byte scanner's chunking invariance — on the in-repo `propcheck`
//! harness.

use hpclog::archive::Archive;
use hpclog::extract::XidExtractor;
use hpclog::pattern::Pattern;
use hpclog::quarantine::QuarantineLedger;
use hpclog::shard;
use hpclog::stream::LenientScan;
use hpclog::{Duration, LogLine, PciAddr, Timestamp, XidEvent};
use propcheck::{run, Gen};
use xid::XidCode;

const ALNUM: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
const TEXT: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 _.:=/()-";
const LOWER: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
const LOWER_SPACE: &[u8] = b"abcdefghijklmnopqrstuvwxyz ";
const PRINTABLE: &[u8] =
    b" !\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`abcdefghijklmnopqrstuvwxyz{|}~";

/// Timestamps within the study window (2022-2025).
fn study_time(g: &mut Gen) -> Timestamp {
    Timestamp::from_unix(g.u64_in(1_640_995_200, 1_741_996_800))
}

/// Hostnames in Delta's convention.
fn hostname(g: &mut Gen) -> String {
    format!("gpub{:03}", g.u16_in(1, 999))
}

/// Printable body text: no newlines; starts alphanumeric (syslog
/// separators would eat leading whitespace); no trailing whitespace.
fn body_text(g: &mut Gen, max: usize) -> String {
    let mut s = String::new();
    s.push(g.choose(ALNUM) as char);
    s.push_str(&g.string_of(TEXT, 0, max + 1));
    s.trim_end().to_owned()
}

/// Any structurally valid log line round-trips through rendering.
#[test]
fn log_line_roundtrip() {
    run("log_line_roundtrip", 256, |g| {
        let (time, host) = (study_time(g), hostname(g));
        let body = body_text(g, 80);
        let line = LogLine::new(time, host, "kernel", body);
        let year = time.ymd().0;
        let parsed = LogLine::parse_with_year(&line.to_string(), year).unwrap();
        assert_eq!(parsed, line);
    });
}

/// Any XID event with well-formed detail text round-trips through the
/// NVRM body format.
#[test]
fn xid_event_roundtrip() {
    run("xid_event_roundtrip", 256, |g| {
        let (time, host) = (study_time(g), hostname(g));
        let gpu = g.u8_in(0, 8);
        let code = XidCode::new(g.u16_in(1, 200));
        let detail = body_text(g, 60);
        let event = XidEvent::new(time, host, PciAddr::for_gpu_index(gpu), code, detail);
        let line = event.to_log_line();
        let year = time.ymd().0;
        let reparsed = LogLine::parse_with_year(&line.to_string(), year).unwrap();
        let back = XidEvent::parse_body(reparsed.time, &reparsed.host, &reparsed.body)
            .expect("recognised")
            .expect("parses");
        assert_eq!(back, event);
    });
}

/// A pattern built by escaping arbitrary text always matches exactly
/// that text.
#[test]
fn escaped_literal_matches_itself() {
    run("escaped_literal_matches_itself", 256, |g| {
        let text = g.string_of(PRINTABLE, 0, 41);
        let escaped: String = text
            .chars()
            .flat_map(|c| match c {
                '*' | '{' | '\\' => vec!['\\', c],
                other => vec![other],
            })
            .collect();
        let p = Pattern::compile(&escaped).unwrap();
        assert!(p.matches(&text));
    });
}

/// `*text*` matches any string containing `text`.
#[test]
fn substring_pattern() {
    run("substring_pattern", 256, |g| {
        let hay = g.string_of(LOWER_SPACE, 0, 31);
        let needle = g.string_of(LOWER, 1, 7);
        let tail = g.string_of(LOWER_SPACE, 0, 31);
        let text = format!("{hay}{needle}{tail}");
        let p = Pattern::compile(&format!("*{needle}*")).unwrap();
        assert!(p.matches(&text));
    });
}

/// Digit captures always return digit-only, non-empty captures.
#[test]
fn digit_capture_is_digits() {
    run("digit_capture_is_digits", 256, |g| {
        let prefix = g.string_of(LOWER_SPACE, 0, 11);
        let n = g.u64_below(1_000_000);
        let suffix = g.string_of(LOWER_SPACE, 0, 11);
        let text = format!("{prefix}{n}#{suffix}");
        let p = Pattern::compile("*{d}#*").unwrap();
        let caps = p.captures(&text).expect("must match");
        assert!(!caps[0].is_empty());
        assert!(caps[0].chars().all(|c| c.is_ascii_digit()));
    });
}

/// The archive conserves lines: every push is visible, in time order.
#[test]
fn archive_conserves_lines() {
    run("archive_conserves_lines", 128, |g| {
        let times = g.vec_with(0, 50, study_time);
        let mut archive = Archive::new();
        for (i, &t) in times.iter().enumerate() {
            archive.push(LogLine::new(t, "gpub001", "kernel", format!("m{i}")));
        }
        assert_eq!(archive.line_count(), times.len());
        let replayed: Vec<Timestamp> = archive.iter().map(|l| l.time).collect();
        let mut sorted = replayed.clone();
        sorted.sort();
        assert_eq!(replayed, sorted);
    });
}

/// Generates one adversarial archive's worth of lines: a handful of hosts
/// (few enough that cross-host timestamp ties are common), a mix of noise,
/// studied XIDs and study-excluded XIDs, error bursts, exact duplicate
/// lines, and a push order scrambled away from time order — the regimes
/// that stress the shard boundary and the canonical merge.
fn gen_lines(g: &mut Gen) -> Vec<LogLine> {
    let hosts: Vec<String> = (1..=g.usize_in(1, 5)).map(|_| hostname(g)).collect();
    let mut t = study_time(g);
    let mut lines = Vec::new();
    for _ in 0..g.usize_in(0, 50) {
        // Zero advances keep same-second collisions (including across
        // hosts) common; larger jumps cross coalescing windows.
        t = t + Duration::from_secs(g.u64_below(90));
        let host = hosts[g.usize_in(0, hosts.len())].clone();
        let gpu = g.u8_in(0, 8);
        let line = match g.u8_in(0, 4) {
            0 => LogLine::new(t, &host, "kernel", "usb 3-2: new high-speed USB device"),
            1 => {
                // Study-excluded application XIDs (13, 43).
                let code = g.choose(&[13u16, 43]);
                XidEvent::new(
                    t,
                    &host,
                    PciAddr::for_gpu_index(gpu),
                    XidCode::new(code),
                    "app fault",
                )
                .to_log_line()
            }
            _ => {
                let code = g.choose(&[31u16, 63, 64, 74, 79, 92, 95, 119, 120]);
                XidEvent::new(
                    t,
                    &host,
                    PciAddr::for_gpu_index(gpu),
                    XidCode::new(code),
                    "pid=9, detail",
                )
                .to_log_line()
            }
        };
        // Bursts: the same line repeated at second offsets (the duplicate
        // storm regime).
        if g.bool_with(0.2) {
            for k in 1..=g.u64_in(1, 4) {
                let mut burst = line.clone();
                burst.time = t + Duration::from_secs(k);
                lines.push(burst);
            }
        }
        // Exact duplicates (identical bytes, identical second).
        if g.bool_with(0.15) {
            lines.push(line.clone());
        }
        lines.push(line);
    }
    // Scramble the push order: the archive's replay order (time, then
    // insertion index) must absorb out-of-order arrival.
    for _ in 0..g.usize_in(0, 10) {
        if lines.len() >= 2 {
            let i = g.usize_in(0, lines.len());
            let j = g.usize_in(0, lines.len());
            lines.swap(i, j);
        }
    }
    lines
}

fn build_archive(lines: &[LogLine]) -> Archive {
    let mut archive = Archive::new();
    for line in lines {
        archive.push(line.clone());
    }
    archive
}

/// The k-way merge kernel is independent of the order in which streams
/// are supplied when its key is unique: events tagged with their replay
/// index (a unique `(time, host, seq)` key, the shape of the serving
/// store's global row id), dealt at random over sorted streams, merge back
/// to the sorted whole under any permutation of the stream list.
#[test]
fn merge_is_stream_order_invariant() {
    run("merge_is_stream_order_invariant", 200, |g| {
        let archive = build_archive(&gen_lines(g));
        let mut ex = XidExtractor::studied_only(2024);
        let cmp = |a: &(u64, XidEvent), b: &(u64, XidEvent)| {
            (a.1.time, a.1.host.as_str(), a.0).cmp(&(b.1.time, b.1.host.as_str(), b.0))
        };
        let mut tagged: Vec<(u64, XidEvent)> = archive
            .iter()
            .enumerate()
            .filter_map(|(seq, line)| ex.extract(line).map(|ev| (seq as u64, ev)))
            .collect();
        tagged.sort_by(cmp);
        let k = g.usize_in(1, 9);
        let mut streams: Vec<Vec<(u64, XidEvent)>> = vec![Vec::new(); k];
        for item in &tagged {
            streams[g.usize_in(0, k)].push(item.clone());
        }
        let forward = shard::merge_sorted_by(streams.clone(), cmp);
        assert_eq!(forward, tagged);
        // A seeded Fisher-Yates permutation of the stream list.
        for i in (1..streams.len()).rev() {
            let j = g.usize_in(0, i + 1);
            streams.swap(i, j);
        }
        assert_eq!(shard::merge_sorted_by(streams, cmp), forward);
    });
}

/// The byte scanner is observationally independent of how its input is
/// chunked, under generated corruption: one read to the end and a feed at
/// random chunk boundaries give the same events, counters, ledger counts
/// and reservoir exemplars.
#[test]
fn chunked_lenient_scan_matches_one_read() {
    run("chunked_lenient_scan_matches_one_read", 64, |g| {
        use hpclog::chaos::{ChaosConfig, ChaosInjector};
        let archive = build_archive(&gen_lines(g));
        let rate = g.f64_in(0.0, 0.3);
        let mut chaos = ChaosInjector::new(ChaosConfig::uniform(rate, g.u64()));
        let corrupt = chaos.corrupt_archive(&archive);
        let mut whole = LenientScan::studied_only(2024);
        let mut whole_ledger = QuarantineLedger::new();
        let mut expect = Vec::new();
        whole.feed_reader(corrupt.as_slice(), &mut whole_ledger, &mut expect);
        let mut chunked = LenientScan::studied_only(2024);
        let mut ledger = QuarantineLedger::new();
        let mut events = Vec::new();
        let mut rest = corrupt.as_slice();
        while !rest.is_empty() {
            let (piece, tail) = rest.split_at(g.usize_in(1, 200).min(rest.len()));
            chunked.feed(piece, &mut ledger, &mut events);
            rest = tail;
        }
        chunked.finish(&mut ledger, &mut events);
        assert_eq!(events, expect);
        assert_eq!(chunked.stats(), whole.stats());
        assert_eq!(ledger.counts(), whole_ledger.counts());
        assert_eq!(ledger.exemplars(), whole_ledger.exemplars());
    });
}

/// Render → ingest preserves the archive byte-for-byte.
#[test]
fn archive_day_roundtrip() {
    run("archive_day_roundtrip", 128, |g| {
        let times = g.vec_with(1, 40, study_time);
        let mut archive = Archive::new();
        for (i, &t) in times.iter().enumerate() {
            archive.push(LogLine::new(t, "gpub002", "kernel", format!("event {i}")));
        }
        let mut back = Archive::new();
        for (day, _) in archive.days() {
            let text = archive.render_day(day).unwrap();
            let year = Timestamp::from_unix(day * 86_400).ymd().0;
            let (_, skipped) = back.ingest_day(&text, year);
            assert_eq!(skipped, 0);
        }
        let a: Vec<_> = archive.iter().cloned().collect();
        let b: Vec<_> = back.iter().cloned().collect();
        assert_eq!(a, b);
    });
}
