//! The Stage-I byte scanner: raw syslog bytes in, XID events and
//! quarantine records out.
//!
//! [`LenientScan`] is the one lenient scanner in the workspace. A batch
//! run hands it a whole reader ([`LenientScan::feed_reader`]); a
//! production ingester hands it the same bytes in arbitrary-sized chunks
//! — a `tail -f` pipe, a socket, a page of a memory-mapped day file — and
//! must survive process restarts between chunks. Both shapes go through
//! the same per-line rules, so any batching of one byte stream produces
//! exactly the same events, counters and quarantine records. All
//! cross-line state — the partial-line carry, the physical line counter,
//! and the out-of-order anchor — lives in the scanner and can be captured
//! as a plain-data [`ScanSnapshot`] for checkpointing.
//!
//! # Rules
//!
//! Physical lines end at `\n`; trailing `\r`s are trimmed, and lines that
//! are empty after trimming are skipped silently (they still consume a line
//! number). Every other line lands in exactly one quarantine category or
//! is accepted, checked in this order:
//!
//! 1. longer than the ledger's byte cap → `OversizedLine`
//! 2. not valid UTF-8 → `Encoding`
//! 3. syslog parse failed, missing fields → `Truncated`
//! 4. syslog parse failed, five fields but a bad stamp → `MalformedTimestamp`
//! 5. an `NVRM: Xid` body that does not parse → `BadXid`
//! 6. timestamp behind the last accepted line → `OutOfOrder`
//!
//! The monotonicity check (6) applies to *every* line, noise included:
//! consolidated day archives are globally time-ordered, so a regression
//! is corruption regardless of the line's content. The accepted-clock
//! anchor advances only on accepted lines (study-filter-excluded XID
//! events still count as accepted — the line itself was sound).

use crate::extract::{record_scan_metrics, ExtractStats, XidExtractor};
use crate::line::{LogLine, LogLineErrorKind};
use crate::nvrm::XidEvent;
use crate::quarantine::{QuarantineCategory, QuarantineLedger};
use simtime::Timestamp;

/// The resumable lenient Stage-I scanner.
///
/// # Example
///
/// ```
/// use hpclog::quarantine::QuarantineLedger;
/// use hpclog::stream::LenientScan;
///
/// let line = "Mar 14 03:22:07 gpub042 kernel: NVRM: Xid (PCI:0000:27:00): 79, GPU has fallen off the bus.\n";
/// let mut scan = LenientScan::studied_only(2024);
/// let mut ledger = QuarantineLedger::new();
/// let mut events = Vec::new();
/// // Feed the line one byte at a time: same result as one call.
/// for b in line.as_bytes() {
///     scan.feed(std::slice::from_ref(b), &mut ledger, &mut events);
/// }
/// scan.finish(&mut ledger, &mut events);
/// assert_eq!(events.len(), 1);
/// assert_eq!(scan.stats().extracted, 1);
/// ```
#[derive(Debug, Clone)]
pub struct LenientScan {
    extractor: XidExtractor,
    /// Bytes of the current, not-yet-terminated line.
    carry: Vec<u8>,
    /// Physical lines completed so far (1-based numbering of the next line
    /// is `line_no + 1`).
    line_no: u64,
    /// The monotonicity anchor: timestamp of the last accepted line.
    prev_accepted: Option<Timestamp>,
    /// Total bytes fed, including the carry (lets a resuming caller seek).
    bytes_fed: u64,
}

/// Plain-data image of a [`LenientScan`] mid-stream, for checkpointing.
///
/// Fields are public so downstream checkpoint codecs can serialise them
/// without this crate committing to a wire format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanSnapshot {
    /// Year used to resolve year-less syslog stamps.
    pub year: i32,
    /// Whether the study-inclusion filter is applied.
    pub studied_only: bool,
    /// Extraction counters accumulated so far.
    pub stats: ExtractStats,
    /// Bytes of the current partial line.
    pub carry: Vec<u8>,
    /// Physical lines completed so far.
    pub line_no: u64,
    /// The out-of-order anchor (last accepted timestamp).
    pub prev_accepted: Option<Timestamp>,
    /// Total bytes fed so far.
    pub bytes_fed: u64,
}

/// One line judged by the order-free rules 1–5 (see the module docs): a
/// reject category, or the line's timestamp plus its XID event when the
/// body was an `NVRM: Xid` message.
type Verdict = Result<(Timestamp, Option<XidEvent>), QuarantineCategory>;

/// Rules 1–5 over one trimmed, non-empty line.
fn verdict(raw: &[u8], year: i32, max_line_bytes: usize) -> Verdict {
    if raw.len() > max_line_bytes {
        return Err(QuarantineCategory::OversizedLine);
    }
    let text = std::str::from_utf8(raw).map_err(|_| QuarantineCategory::Encoding)?;
    let line = LogLine::parse_with_year(text, year).map_err(|err| match err.kind() {
        LogLineErrorKind::MissingField => QuarantineCategory::Truncated,
        LogLineErrorKind::BadTimestamp => QuarantineCategory::MalformedTimestamp,
    })?;
    match XidEvent::parse_body(line.time, &line.host, &line.body) {
        Some(Ok(ev)) => Ok((line.time, Some(ev))),
        Some(Err(_)) => Err(QuarantineCategory::BadXid),
        None => Ok((line.time, None)),
    }
}

impl LenientScan {
    /// A scanner keeping every XID code (no study filter).
    pub fn new(year: i32) -> Self {
        Self::with_extractor(XidExtractor::new(year))
    }

    /// A scanner applying the study-inclusion rule, like the pipeline's
    /// batch path.
    pub fn studied_only(year: i32) -> Self {
        Self::with_extractor(XidExtractor::studied_only(year))
    }

    fn with_extractor(extractor: XidExtractor) -> Self {
        LenientScan {
            extractor,
            carry: Vec::new(),
            line_no: 0,
            prev_accepted: None,
            bytes_fed: 0,
        }
    }

    /// Counters accumulated so far (the carry is not yet counted).
    pub fn stats(&self) -> ExtractStats {
        self.extractor.stats()
    }

    /// Re-anchors year-less syslog stamps for the lines completed from
    /// here on. Call it at a file boundary, after [`finish`](Self::finish),
    /// so a carried partial line is not resolved against the next file's
    /// year.
    pub fn set_year(&mut self, year: i32) {
        self.extractor.set_year(year);
    }

    /// Total bytes fed so far. A resuming caller can seek its source here
    /// and continue feeding.
    pub fn bytes_fed(&self) -> u64 {
        self.bytes_fed
    }

    /// Feeds the next chunk of the byte stream, in any size down to a
    /// single byte. Completed lines are classified by the rules in the
    /// module docs; accepted events are appended to `events` and rejects
    /// recorded in `ledger`. Bytes after the last newline are carried
    /// until the next call (or [`finish`](Self::finish)).
    pub fn feed(
        &mut self,
        bytes: &[u8],
        ledger: &mut QuarantineLedger,
        events: &mut Vec<XidEvent>,
    ) {
        let before = self.extractor.stats();
        self.bytes_fed += bytes.len() as u64;
        let mut rest = bytes;
        while let Some(pos) = rest.iter().position(|&b| b == b'\n') {
            if self.carry.is_empty() {
                // Fast path: the whole line sits in this chunk.
                self.line(&rest[..pos], ledger, events);
            } else {
                let mut line = std::mem::take(&mut self.carry);
                line.extend_from_slice(&rest[..pos]);
                self.line(&line, ledger, events);
            }
            rest = &rest[pos + 1..];
        }
        self.carry.extend_from_slice(rest);
        if obs::is_enabled() {
            obs::counter("hpclog_stream_chunks_total", &[]).inc();
            obs::counter("hpclog_stream_bytes_total", &[]).add(bytes.len() as u64);
            record_scan_metrics(&before, &self.extractor.stats());
        }
    }

    /// Flushes the trailing partial line, processing a final line with no
    /// terminator as a line of its own. Safe to call when the carry is
    /// empty (no-op), and feeding may continue afterwards — the stream
    /// then behaves like two concatenated files.
    pub fn finish(&mut self, ledger: &mut QuarantineLedger, events: &mut Vec<XidEvent>) {
        if self.carry.is_empty() {
            return;
        }
        let before = self.extractor.stats();
        let line = std::mem::take(&mut self.carry);
        self.line(&line, ledger, events);
        record_scan_metrics(&before, &self.extractor.stats());
    }

    /// Feeds everything `reader` yields, then [`finish`](Self::finish)es —
    /// the batch shape of a scan, timed as the `stage_scan` span.
    ///
    /// Never fails. An I/O error records one entry via
    /// [`QuarantineLedger::record_io_error`] and ends the scan, keeping
    /// every line completed before it; the partial line the failure
    /// interrupted is dropped, not finished. `Interrupted` reads are
    /// retried.
    pub fn feed_reader<R: std::io::Read>(
        &mut self,
        mut reader: R,
        ledger: &mut QuarantineLedger,
        events: &mut Vec<XidEvent>,
    ) {
        let seen_before = self.extractor.stats.lines_seen;
        let mut span = obs::span("stage_scan");
        let mut buf = vec![0u8; 64 * 1024];
        loop {
            match reader.read(&mut buf) {
                Ok(0) => {
                    self.finish(ledger, events);
                    break;
                }
                Ok(n) => self.feed(&buf[..n], ledger, events),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    ledger.record_io_error();
                    self.carry.clear();
                    break;
                }
            }
        }
        span.add_items(self.extractor.stats.lines_seen - seen_before);
    }

    /// One physical line, without its terminating `\n`; trailing `\r`s
    /// are trimmed here.
    fn line(&mut self, raw: &[u8], ledger: &mut QuarantineLedger, events: &mut Vec<XidEvent>) {
        self.line_no += 1;
        let mut raw = raw;
        while let [rest @ .., b'\r'] = raw {
            raw = rest;
        }
        if raw.is_empty() {
            return;
        }
        let stats = &mut self.extractor.stats;
        stats.lines_seen += 1;
        let (time, xid) = match verdict(raw, self.extractor.year, ledger.max_line_bytes()) {
            Ok(accepted) => accepted,
            Err(category) => {
                if category == QuarantineCategory::BadXid {
                    stats.xid_lines += 1;
                    stats.malformed += 1;
                }
                self.quarantine(ledger, category, raw);
                return;
            }
        };
        if xid.is_some() {
            stats.xid_lines += 1;
        }
        if self.prev_accepted.is_some_and(|prev| time < prev) {
            self.quarantine(ledger, QuarantineCategory::OutOfOrder, raw);
            return;
        }
        self.prev_accepted = Some(time);
        if let Some(ev) = xid {
            if self.extractor.studied_only && !ev.kind().is_studied() {
                self.extractor.stats.excluded += 1;
            } else {
                self.extractor.stats.extracted += 1;
                events.push(ev);
            }
        }
    }

    fn quarantine(
        &mut self,
        ledger: &mut QuarantineLedger,
        category: QuarantineCategory,
        raw: &[u8],
    ) {
        self.extractor.stats.quarantined.add(category);
        ledger.record(category, self.line_no, raw);
    }

    /// Captures the scanner's complete cross-line state as plain data.
    pub fn snapshot(&self) -> ScanSnapshot {
        ScanSnapshot {
            year: self.extractor.year,
            studied_only: self.extractor.studied_only,
            stats: self.extractor.stats,
            carry: self.carry.clone(),
            line_no: self.line_no,
            prev_accepted: self.prev_accepted,
            bytes_fed: self.bytes_fed,
        }
    }

    /// Rebuilds a scanner from a [`snapshot`](Self::snapshot); it continues
    /// the stream exactly where the captured one left off.
    pub fn from_snapshot(snapshot: ScanSnapshot) -> Self {
        LenientScan {
            extractor: XidExtractor {
                year: snapshot.year,
                studied_only: snapshot.studied_only,
                stats: snapshot.stats,
            },
            carry: snapshot.carry,
            line_no: snapshot.line_no,
            prev_accepted: snapshot.prev_accepted,
            bytes_fed: snapshot.bytes_fed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosConfig, ChaosInjector};
    use crate::quarantine::QuarantineCategory as Q;

    const XID_LINE: &str =
        "Mar 14 03:22:07 gpub042 kernel: NVRM: Xid (PCI:0000:27:00): 79, pid=1234, GPU has fallen off the bus.";
    const NOISE: &str = "Mar 14 03:22:08 gpub042 kernel: usb 3-2: new high-speed USB device";
    const SOFTWARE_XID: &str =
        "Mar 14 03:22:09 gpub042 kernel: NVRM: Xid (PCI:0000:27:00): 13, Graphics Exception";
    const REGRESSED: &str = "Mar 13 01:00:00 gpub042 kernel: late arrival";

    /// A stream exercising every classification outcome, with Windows line
    /// endings, blank lines, and a terminator-less final line.
    fn messy_stream() -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(XID_LINE.as_bytes());
        out.extend_from_slice(b"\r\n\n");
        out.extend_from_slice(NOISE.as_bytes());
        out.push(b'\n');
        out.extend_from_slice(SOFTWARE_XID.as_bytes());
        out.push(b'\n');
        out.extend_from_slice("Mar 14 03:2".as_bytes());
        out.push(b'\n');
        out.extend_from_slice(b"Mar 14 03:22:10 gpub042 kernel: bad \xFF utf8\n");
        out.extend_from_slice(REGRESSED.as_bytes());
        out.push(b'\n');
        // Final line without a newline: the scan still processes it.
        out.extend_from_slice(XID_LINE.as_bytes());
        out
    }

    /// The batch shape: one reader, scanned to the end.
    fn read_scan(
        scan: &mut LenientScan,
        input: impl std::io::Read,
    ) -> (Vec<XidEvent>, QuarantineLedger) {
        let mut ledger = QuarantineLedger::new();
        let mut events = Vec::new();
        scan.feed_reader(input, &mut ledger, &mut events);
        (events, ledger)
    }

    fn batch_scan(input: &[u8]) -> (Vec<XidEvent>, ExtractStats, QuarantineLedger) {
        let mut scan = LenientScan::studied_only(2024);
        let (events, ledger) = read_scan(&mut scan, input);
        (events, scan.stats(), ledger)
    }

    fn streamed_scan(
        input: &[u8],
        chunk: usize,
    ) -> (Vec<XidEvent>, ExtractStats, QuarantineLedger) {
        let mut scan = LenientScan::studied_only(2024);
        let mut ledger = QuarantineLedger::new();
        let mut events = Vec::new();
        for piece in input.chunks(chunk.max(1)) {
            scan.feed(piece, &mut ledger, &mut events);
        }
        scan.finish(&mut ledger, &mut events);
        assert_eq!(scan.bytes_fed(), input.len() as u64);
        (events, scan.stats(), ledger)
    }

    /// Yields one fixed chunk, then fails (or ends) on every later read.
    struct Flaky {
        chunk: Option<Vec<u8>>,
        fail: bool,
    }

    impl std::io::Read for Flaky {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.chunk.take() {
                Some(chunk) => {
                    buf[..chunk.len()].copy_from_slice(&chunk);
                    Ok(chunk.len())
                }
                None if self.fail => Err(std::io::Error::other("disk on fire")),
                None => Ok(0),
            }
        }
    }

    #[test]
    fn any_chunking_matches_the_batch_scan() {
        let input = messy_stream();
        let expect = batch_scan(&input);
        for chunk in [1, 2, 3, 7, 16, 64, input.len()] {
            let got = streamed_scan(&input, chunk);
            assert_eq!(got.0, expect.0, "chunk={chunk}: events");
            assert_eq!(got.1, expect.1, "chunk={chunk}: stats");
            assert_eq!(got.2.counts(), expect.2.counts(), "chunk={chunk}: counts");
            assert_eq!(
                got.2.exemplars(),
                expect.2.exemplars(),
                "chunk={chunk}: exemplars"
            );
        }
    }

    #[test]
    fn crlf_and_empty_lines_keep_their_line_numbers() {
        // Line 1 is "abc" plus CRs, lines 2 and 3 are empty (skipped but
        // numbered), line 4 has no terminator.
        let (_, stats, ledger) = batch_scan(b"abc\r\r\n\n\r\nxyz");
        assert_eq!(stats.lines_seen, 2);
        let lines: Vec<(u64, &str)> = ledger
            .exemplars()
            .iter()
            .map(|ex| (ex.line_no, ex.snippet.as_str()))
            .collect();
        assert_eq!(lines, [(1, "abc"), (4, "xyz")]);
        assert_eq!(ledger.counts().get(Q::Truncated), 2);
    }

    #[test]
    fn clean_input_matches_the_archive_extractor() {
        let later_xid =
            "Mar 14 03:25:00 gpub042 kernel: NVRM: Xid (PCI:0000:27:00): 79, pid=77, GPU has fallen off the bus.";
        let lines = [XID_LINE, NOISE, SOFTWARE_XID, later_xid];
        let mut archive = XidExtractor::new(2024);
        let expect: Vec<XidEvent> = lines
            .iter()
            .filter_map(|l| archive.extract_raw(l))
            .collect();
        let text = lines.join("\n");
        let mut scan = LenientScan::new(2024);
        let (events, ledger) = read_scan(&mut scan, text.as_bytes());
        assert_eq!(events, expect);
        assert!(ledger.is_empty());
        assert_eq!(scan.stats(), archive.stats());
    }

    #[test]
    fn rules_classify_each_category_in_order() {
        let oversized = format!("Mar 14 03:22:05 gpub042 kernel: {}", "x".repeat(9000));
        let mut bad_utf8 = NOISE.as_bytes().to_vec();
        bad_utf8[20] = 0xFF;
        // Rule order: an oversized line is not decoded, a line that is not
        // UTF-8 is not parsed, and a bad XID body is rejected as such even
        // though its stamp also regresses.
        let mut oversized_bad_utf8 = oversized.clone().into_bytes();
        oversized_bad_utf8[40] = 0xFF;
        let bad_stamp = "Mar 99 03:22:07 gpub042 kernel: body";
        let garbled = "Mar 14 03:22:11 gpub042 kernel: NVRM: Xid (PCI:0000:27:00): ??, huh";
        let garbled_late = "Mar 13 03:22:11 gpub042 kernel: NVRM: Xid (PCI:0000:27:00): ??, huh";
        // A mid-prefix cut: too few fields to even name a host. (A cut
        // that keeps all five syslog fields and loses only XID body
        // structure classifies as `BadXid` instead.)
        let cut_short = "Mar 14 03:2";
        let mut input = Vec::new();
        for chunk in [
            XID_LINE.as_bytes(),
            oversized.as_bytes(),
            &oversized_bad_utf8,
            &bad_utf8,
            cut_short.as_bytes(),
            bad_stamp.as_bytes(),
            garbled.as_bytes(),
            garbled_late.as_bytes(),
            REGRESSED.as_bytes(),
            NOISE.as_bytes(),
        ] {
            input.extend_from_slice(chunk);
            input.push(b'\n');
        }
        let mut scan = LenientScan::new(2024);
        let (events, ledger) = read_scan(&mut scan, input.as_slice());
        assert_eq!(events.len(), 1); // only XID_LINE survives
        let counts = ledger.counts();
        assert_eq!(counts.get(Q::OversizedLine), 2);
        assert_eq!(counts.get(Q::Encoding), 1);
        assert_eq!(counts.get(Q::Truncated), 1);
        assert_eq!(counts.get(Q::MalformedTimestamp), 1);
        assert_eq!(counts.get(Q::BadXid), 2);
        assert_eq!(counts.get(Q::OutOfOrder), 1);
        assert_eq!(counts.get(Q::BadRecord), 0);
        let stats = scan.stats();
        assert_eq!(stats.quarantined, counts);
        assert_eq!((stats.xid_lines, stats.malformed), (3, 2));
        // NOISE at the end is accepted: the anchor did not move on rejects.
        assert_eq!(stats.lines_seen, 10);
    }

    #[test]
    fn the_byte_cap_is_inclusive() {
        let ledger = QuarantineLedger::new();
        let cap = ledger.max_line_bytes();
        let prefix = "Mar 14 03:22:05 gpub042 kernel: ";
        for (len, rejected) in [(cap, 0), (cap + 1, 1)] {
            let line = format!("{prefix}{}\n", "x".repeat(len - prefix.len()));
            let (events, _, ledger) = batch_scan(line.as_bytes());
            assert!(events.is_empty());
            assert_eq!(ledger.counts().get(Q::OversizedLine), rejected, "len={len}");
        }
    }

    #[test]
    fn io_failure_keeps_complete_lines_and_drops_the_partial_one() {
        // One complete line plus the head of a second, then the disk dies.
        let mut chunk = format!("{XID_LINE}\n").into_bytes();
        chunk.extend_from_slice(b"Mar 14 03:2");
        let mut scan = LenientScan::new(2024);
        let flaky = Flaky {
            chunk: Some(chunk.clone()),
            fail: true,
        };
        let (events, ledger) = read_scan(&mut scan, flaky);
        assert_eq!(events.len(), 1);
        assert_eq!(ledger.io_errors(), 1);
        // The partial second line is dropped, not quarantined as truncated.
        assert_eq!(ledger.total(), 0);
        assert_eq!(scan.stats().lines_seen, 1);
        // The same bytes at a clean end of file finish the partial line.
        let mut scan = LenientScan::new(2024);
        let clean_end = Flaky {
            chunk: Some(chunk),
            fail: false,
        };
        let (_, ledger) = read_scan(&mut scan, clean_end);
        assert_eq!(ledger.counts().get(Q::Truncated), 1);
        assert_eq!(ledger.io_errors(), 0);
    }

    #[test]
    fn a_reader_that_fails_at_once_yields_one_io_error() {
        let mut scan = LenientScan::new(2024);
        let broken = Flaky {
            chunk: None,
            fail: true,
        };
        let (events, ledger) = read_scan(&mut scan, broken);
        assert!(events.is_empty());
        assert_eq!(ledger.io_errors(), 1);
        assert_eq!(scan.stats(), ExtractStats::default());
    }

    #[test]
    fn interrupted_reads_are_retried() {
        struct Interrupting<'a> {
            data: &'a [u8],
            interrupt_next: bool,
        }
        impl std::io::Read for Interrupting<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.interrupt_next = !self.interrupt_next;
                if self.interrupt_next {
                    return Err(std::io::ErrorKind::Interrupted.into());
                }
                let n = self.data.len().min(buf.len()).min(5);
                buf[..n].copy_from_slice(&self.data[..n]);
                self.data = &self.data[n..];
                Ok(n)
            }
        }
        let input = messy_stream();
        let expect = batch_scan(&input);
        let mut scan = LenientScan::studied_only(2024);
        let reader = Interrupting {
            data: &input,
            interrupt_next: false,
        };
        let (events, ledger) = read_scan(&mut scan, reader);
        assert_eq!(events, expect.0);
        assert_eq!(scan.stats(), expect.1);
        assert_eq!(ledger.counts(), expect.2.counts());
        assert_eq!(ledger.io_errors(), 0);
    }

    #[test]
    fn quarantine_total_matches_chaos_stats() {
        // A clean, time-ordered stream of mixed XID and noise lines.
        let mut input = Vec::new();
        let mut chaos =
            ChaosInjector::new(ChaosConfig::uniform_with_duplicates(0.35, 0.1, 0xDECAF));
        for i in 0..400u32 {
            let t =
                Timestamp::from_ymd_hms(2024, 3, 14, 6 + i / 3600, (i / 60) % 60, i % 60).unwrap();
            let body = if i % 3 == 0 {
                "NVRM: Xid (PCI:0000:27:00): 79, pid=9, GPU has fallen off the bus."
            } else {
                "usb 3-2: new high-speed USB device"
            };
            let line = LogLine::new(t, "gpub042", "kernel", body).to_string();
            chaos.corrupt_line(t, &line, &mut input);
        }
        let stats = chaos.stats();
        assert!(stats.quarantinable() > 0, "chaos produced no corruption");
        let mut scan = LenientScan::new(2024);
        let (events, ledger) = read_scan(&mut scan, input.as_slice());
        assert_eq!(
            ledger.total(),
            stats.quarantinable(),
            "ledger {:?} vs chaos {stats:?}",
            ledger.counts()
        );
        assert_eq!(ledger.io_errors(), 0);
        assert!(!events.is_empty());
        // Duplicates pass through un-quarantined (coalescing's problem).
        assert_eq!(scan.stats().lines_seen, stats.lines_out);
    }

    #[test]
    fn set_year_applies_to_lines_after_it() {
        let mut scan = LenientScan::new(2022);
        let mut ledger = QuarantineLedger::new();
        let mut events = Vec::new();
        scan.feed(format!("{XID_LINE}\n").as_bytes(), &mut ledger, &mut events);
        scan.set_year(2023);
        scan.feed(format!("{XID_LINE}\n").as_bytes(), &mut ledger, &mut events);
        let years: Vec<i32> = events.iter().map(|ev| ev.time.ymd().0).collect();
        assert_eq!(years, [2022, 2023]);
        assert!(ledger.is_empty());
    }

    #[test]
    fn finish_is_idempotent_and_optional_on_terminated_streams() {
        let mut scan = LenientScan::studied_only(2024);
        let mut ledger = QuarantineLedger::new();
        let mut events = Vec::new();
        scan.feed(format!("{XID_LINE}\n").as_bytes(), &mut ledger, &mut events);
        scan.finish(&mut ledger, &mut events);
        scan.finish(&mut ledger, &mut events);
        assert_eq!(events.len(), 1);
        assert_eq!(scan.stats().lines_seen, 1);
    }

    #[test]
    fn snapshot_round_trip_mid_line_continues_exactly() {
        let input = messy_stream();
        let expect = batch_scan(&input);
        // Cut at every byte offset, including mid-line and mid-UTF-8.
        for cut in 0..=input.len() {
            let mut scan = LenientScan::studied_only(2024);
            let mut ledger = QuarantineLedger::new();
            let mut events = Vec::new();
            scan.feed(&input[..cut], &mut ledger, &mut events);
            let mut resumed = LenientScan::from_snapshot(scan.snapshot());
            assert_eq!(resumed.bytes_fed(), cut as u64);
            resumed.feed(&input[cut..], &mut ledger, &mut events);
            resumed.finish(&mut ledger, &mut events);
            assert_eq!(events, expect.0, "cut={cut}: events");
            assert_eq!(resumed.stats(), expect.1, "cut={cut}: stats");
            assert_eq!(ledger.counts(), expect.2.counts(), "cut={cut}: counts");
        }
    }

    #[test]
    fn out_of_order_anchor_survives_the_snapshot() {
        let mut scan = LenientScan::studied_only(2024);
        let mut ledger = QuarantineLedger::new();
        let mut events = Vec::new();
        scan.feed(format!("{NOISE}\n").as_bytes(), &mut ledger, &mut events);
        let mut resumed = LenientScan::from_snapshot(scan.snapshot());
        // A regressed line right after restore must still be caught.
        resumed.feed(
            format!("{REGRESSED}\n").as_bytes(),
            &mut ledger,
            &mut events,
        );
        assert_eq!(ledger.counts().get(QuarantineCategory::OutOfOrder), 1);
    }
}
