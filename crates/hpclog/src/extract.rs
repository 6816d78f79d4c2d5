//! Stage-I extraction: raw log lines in, structured [`XidEvent`]s out.
//!
//! Mirrors the paper's Fig. 1 Stage I: per-day consolidated system logs are
//! filtered by pattern matching and the selected XID error-recovery events
//! are extracted. The extractor is deliberately forgiving — production logs
//! interleave XID lines with arbitrary noise and the occasional truncated
//! record — and it keeps counters so data-quality problems are visible
//! instead of silent.
//!
//! [`XidExtractor`] works on lines already split and parsed (the
//! [`crate::archive::Archive`] path). Raw byte streams go through
//! [`crate::stream::LenientScan`], which wraps an extractor and adds the
//! quarantine classification.

use crate::line::LogLine;
use crate::nvrm::XidEvent;
use crate::quarantine::{QuarantineCategory, QuarantineCounts};
use simtime::Timestamp;

/// Counters describing what an extractor has seen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExtractStats {
    /// Total lines offered.
    pub lines_seen: u64,
    /// Lines recognised as NVRM XID messages.
    pub xid_lines: u64,
    /// XID lines that failed to parse (truncated/corrupt).
    pub malformed: u64,
    /// Events produced (equals `xid_lines - malformed - excluded`).
    pub extracted: u64,
    /// XID events dropped by the study-inclusion filter (XID 13/43/etc.).
    pub excluded: u64,
    /// Per-category reject counts from the byte scanner
    /// ([`crate::stream::LenientScan`]); zero on the parsed-archive path,
    /// which folds every reject into `malformed`.
    pub quarantined: QuarantineCounts,
}

/// Extracts structured XID events from log lines.
///
/// # Example
///
/// ```
/// use hpclog::extract::XidExtractor;
///
/// let mut ex = XidExtractor::new(2023);
/// let ev = ex
///     .extract_raw("Jun  1 10:00:00 gpub005 kernel: NVRM: Xid (PCI:0000:2a:00): 31, MMU fault")
///     .expect("xid line");
/// assert_eq!(ev.code.value(), 31);
/// assert_eq!(ex.stats().extracted, 1);
/// ```
#[derive(Debug, Clone)]
pub struct XidExtractor {
    pub(crate) year: i32,
    pub(crate) studied_only: bool,
    pub(crate) stats: ExtractStats,
}

impl XidExtractor {
    /// Creates an extractor resolving year-less syslog stamps against
    /// `year`, keeping every XID code (no study filter).
    pub fn new(year: i32) -> Self {
        XidExtractor {
            year,
            studied_only: false,
            stats: ExtractStats::default(),
        }
    }

    /// Creates an extractor that additionally applies the study-inclusion
    /// rule, dropping application-triggered codes (XID 13, 43) and unknown
    /// codes, as §II-B of the paper does.
    pub fn studied_only(year: i32) -> Self {
        XidExtractor {
            year,
            studied_only: true,
            stats: ExtractStats::default(),
        }
    }

    /// The year used to resolve syslog timestamps.
    pub fn year(&self) -> i32 {
        self.year
    }

    /// Re-anchors timestamp resolution (call at day-file boundaries when a
    /// multi-year archive is replayed).
    pub fn set_year(&mut self, year: i32) {
        self.year = year;
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> ExtractStats {
        self.stats
    }

    /// Extracts from an already-parsed line.
    pub fn extract(&mut self, line: &LogLine) -> Option<XidEvent> {
        self.extract_parts(line.time, &line.host, &line.body)
    }

    /// Parses `raw` as a syslog line and extracts; returns `None` for
    /// unparseable or non-XID lines.
    pub fn extract_raw(&mut self, raw: &str) -> Option<XidEvent> {
        // Cheap pre-filter before paying for full line parsing: every XID
        // line contains this literal.
        if !raw.contains("NVRM: Xid") {
            self.stats.lines_seen += 1;
            return None;
        }
        match LogLine::parse_with_year(raw, self.year) {
            Ok(line) => self.extract(&line),
            Err(_) => {
                self.stats.lines_seen += 1;
                self.stats.xid_lines += 1;
                self.stats.malformed += 1;
                None
            }
        }
    }

    /// Extracts from pre-split line parts (used by the archive replayer to
    /// avoid re-rendering).
    pub fn extract_parts(&mut self, time: Timestamp, host: &str, body: &str) -> Option<XidEvent> {
        self.stats.lines_seen += 1;
        let parsed = XidEvent::parse_body(time, host, body)?;
        self.stats.xid_lines += 1;
        match parsed {
            Ok(ev) => {
                if self.studied_only && !ev.kind().is_studied() {
                    self.stats.excluded += 1;
                    None
                } else {
                    self.stats.extracted += 1;
                    Some(ev)
                }
            }
            Err(_) => {
                self.stats.malformed += 1;
                None
            }
        }
    }
}

/// Publishes the delta between two extractor-stats snapshots to the
/// global metrics registry.
///
/// Strictly write-only (nothing here feeds back into extraction), and
/// purely additive: both Stage-I paths — the parsed archive and the byte
/// scanner, batch or streamed — emit their deltas through this one
/// function, so the totals agree across execution modes whenever the
/// scanned bytes do.
pub fn record_scan_metrics(before: &ExtractStats, after: &ExtractStats) {
    if !obs::is_enabled() {
        return;
    }
    let d = |a: u64, b: u64| a.saturating_sub(b);
    obs::counter("hpclog_lines_scanned_total", &[]).add(d(after.lines_seen, before.lines_seen));
    obs::counter("hpclog_xid_lines_total", &[]).add(d(after.xid_lines, before.xid_lines));
    obs::counter("hpclog_lines_malformed_total", &[]).add(d(after.malformed, before.malformed));
    obs::counter("hpclog_events_extracted_total", &[]).add(d(after.extracted, before.extracted));
    obs::counter("hpclog_events_excluded_total", &[]).add(d(after.excluded, before.excluded));
    for category in QuarantineCategory::ALL {
        let delta = d(
            after.quarantined.get(category),
            before.quarantined.get(category),
        );
        if delta > 0 {
            obs::counter(
                "hpclog_lines_quarantined_total",
                &[("category", category.label())],
            )
            .add(delta);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nvrm::PciAddr;
    use xid::XidCode;

    const XID_LINE: &str =
        "Mar 14 03:22:07 gpub042 kernel: NVRM: Xid (PCI:0000:27:00): 79, pid=1234, GPU has fallen off the bus.";
    const NOISE: &str = "Mar 14 03:22:08 gpub042 kernel: usb 3-2: new high-speed USB device";
    const SOFTWARE_XID: &str =
        "Mar 14 03:22:09 gpub042 kernel: NVRM: Xid (PCI:0000:27:00): 13, Graphics Exception";
    const TRUNCATED: &str = "Mar 14 03:22:10 gpub042 kernel: NVRM: Xid (PCI:0000:27";

    #[test]
    fn extracts_xid_line() {
        let mut ex = XidExtractor::new(2024);
        let ev = ex.extract_raw(XID_LINE).unwrap();
        assert_eq!(ev.code, XidCode::FALLEN_OFF_BUS);
        assert_eq!(ev.host, "gpub042");
        assert_eq!(ev.pci, PciAddr::for_gpu_index(0));
        assert_eq!(ev.time.ymd(), (2024, 3, 14));
    }

    #[test]
    fn noise_is_ignored_cheaply() {
        let mut ex = XidExtractor::new(2024);
        assert!(ex.extract_raw(NOISE).is_none());
        let s = ex.stats();
        assert_eq!(s.lines_seen, 1);
        assert_eq!(s.xid_lines, 0);
    }

    #[test]
    fn study_filter_drops_software_codes() {
        let mut keep_all = XidExtractor::new(2024);
        assert!(keep_all.extract_raw(SOFTWARE_XID).is_some());
        let mut studied = XidExtractor::studied_only(2024);
        assert!(studied.extract_raw(SOFTWARE_XID).is_none());
        assert_eq!(studied.stats().excluded, 1);
        assert_eq!(studied.stats().extracted, 0);
    }

    #[test]
    fn truncated_lines_count_as_malformed() {
        let mut ex = XidExtractor::new(2024);
        assert!(ex.extract_raw(TRUNCATED).is_none());
        assert_eq!(ex.stats().malformed, 1);
    }

    #[test]
    fn mixed_stream_counters() {
        let mut ex = XidExtractor::new(2024);
        let lines = [XID_LINE, NOISE, SOFTWARE_XID, TRUNCATED, XID_LINE];
        let events: Vec<XidEvent> = lines.iter().filter_map(|l| ex.extract_raw(l)).collect();
        assert_eq!(events.len(), 3); // two hardware + one software XID
        let s = ex.stats();
        assert_eq!(s.lines_seen, 5);
        assert_eq!(s.xid_lines, 4);
        assert_eq!(s.extracted, 3);
        assert_eq!(s.malformed, 1);
    }

    #[test]
    fn set_year_changes_resolution() {
        let mut ex = XidExtractor::new(2022);
        let ev = ex.extract_raw(XID_LINE).unwrap();
        assert_eq!(ev.time.ymd(), (2022, 3, 14));
        ex.set_year(2025);
        assert_eq!(ex.year(), 2025);
        let ev = ex.extract_raw(XID_LINE).unwrap();
        assert_eq!(ev.time.ymd(), (2025, 3, 14));
    }

    #[test]
    fn stats_start_at_zero() {
        let ex = XidExtractor::new(2024);
        assert_eq!(ex.stats(), ExtractStats::default());
    }
}
