//! The differential proof layer for the streaming pipeline: incremental
//! ingestion at any batching, with or without checkpoint cuts, must equal
//! the batch lenient pipeline **byte-for-byte on every rendered surface**
//! — tables, Fig. 2, findings, markdown, and the quarantine ledger down
//! to its reservoir-sampled exemplars.
//!
//! The full campaign is streamed at batch sizes {1, 7, 1024, whole}
//! against clean and 5%-corrupted logs; the golden-snapshot campaign is
//! streamed and compared against the committed fixtures; and targeted
//! regressions pin the two stateful hazards: a coalescing window spanning
//! a checkpoint cut (Δt = 20 s boundary), and reservoir determinism
//! across restore.

use delta_gpu_resilience::prelude::*;
use hpclog::chaos::{ChaosConfig, ChaosInjector};
use hpclog::PciAddr;
use resilience::checkpoint::Checkpoint;
use resilience::incremental::StreamingPipeline;
use resilience::{csvio, markdown};
use std::path::PathBuf;
use xid::XidCode;

/// The campaign under test (small enough for CI, rich enough that every
/// table, the figure and the ledger have non-trivial content).
const SCALE: f64 = 0.02;
const SEED: u64 = 0xD1FF;
/// The scaled calendar stays inside 2022 (see E13).
const LOG_YEAR: i32 = 2022;
/// The golden snapshot campaign (keep in sync with tests/golden_report.rs).
const GOLDEN_SCALE: f64 = 0.02;
const GOLDEN_SEED: u64 = 0x601D;

/// Everything a run renders, concatenated: if any surface moves by one
/// byte, the diff names the campaign leg that moved it.
fn render_all(r: &StudyReport) -> String {
    format!(
        "{}\n{}\n{}\n{}\n{}\n{}\n{:?}",
        report::full(r),
        markdown::table1_md(r),
        markdown::table2_md(r),
        markdown::table3_md(r),
        markdown::findings_md(r),
        report::figure2(r),
        r.availability_estimate()
    )
}

/// Ledger equality down to the reservoir: counts, caveats, io errors and
/// the exact surviving exemplars.
fn assert_quarantine_eq(a: &QuarantineReport, b: &QuarantineReport, what: &str) {
    assert_eq!(
        a.ledger.counts(),
        b.ledger.counts(),
        "{what}: ledger counts"
    );
    assert_eq!(
        a.ledger.io_errors(),
        b.ledger.io_errors(),
        "{what}: io errors"
    );
    assert_eq!(
        a.ledger.exemplars(),
        b.ledger.exemplars(),
        "{what}: reservoir exemplars"
    );
    assert_eq!(a.caveats, b.caveats, "{what}: caveats");
}

struct Dataset {
    pipeline: Pipeline,
    log: Vec<u8>,
    gpu_csv: String,
    cpu_csv: String,
    out_csv: String,
}

fn dataset(scale: f64, seed: u64, chaos_rate: f64) -> Dataset {
    let mut config = FaultConfig::delta_scaled(scale);
    config.seed = seed;
    config.emit_logs = true;
    let campaign = Campaign::new(config).run();
    let cluster = Cluster::new(campaign.config.spec);
    let workload = WorkloadConfig::delta_scaled(scale);
    let outcome =
        Simulation::new(&cluster, workload, seed).run(&campaign.ground_truth, &campaign.holds);
    let log = if chaos_rate > 0.0 {
        let mut chaos =
            ChaosInjector::new(ChaosConfig::uniform_with_duplicates(chaos_rate, 0.02, seed));
        chaos.corrupt_archive(&campaign.archive)
    } else {
        let mut out = Vec::new();
        for line in campaign.archive.iter() {
            out.extend_from_slice(line.to_string().as_bytes());
            out.push(b'\n');
        }
        out
    };
    let mut pipeline = Pipeline::delta();
    pipeline.periods = campaign.config.periods;
    Dataset {
        pipeline,
        log,
        gpu_csv: csvio::render_jobs(&bridge::jobs(&outcome.jobs)),
        cpu_csv: csvio::render_jobs(&bridge::jobs(&outcome.cpu_jobs)),
        out_csv: csvio::render_outages(&bridge::outages(campaign.ledger.outages())),
    }
}

fn batch(d: &Dataset) -> (StudyReport, QuarantineReport) {
    d.pipeline.run_lenient(
        d.log.as_slice(),
        LOG_YEAR,
        &d.gpu_csv,
        &d.cpu_csv,
        &d.out_csv,
    )
}

/// Streams the dataset at `chunk` granularity (CSVs too), in the batch
/// path's canonical feed order.
fn stream(d: &Dataset, chunk: usize) -> StreamingPipeline {
    let mut engine = StreamingPipeline::new(d.pipeline, LOG_YEAR);
    for piece in d.log.chunks(chunk) {
        engine.push_log(piece);
    }
    engine.finish_log();
    for piece in d.gpu_csv.as_bytes().chunks(chunk.max(1)) {
        engine.push_gpu_jobs_csv(std::str::from_utf8(piece).expect("ASCII CSV"));
    }
    for piece in d.cpu_csv.as_bytes().chunks(chunk.max(1)) {
        engine.push_cpu_jobs_csv(std::str::from_utf8(piece).expect("ASCII CSV"));
    }
    for piece in d.out_csv.as_bytes().chunks(chunk.max(1)) {
        engine.push_outages_csv(std::str::from_utf8(piece).expect("ASCII CSV"));
    }
    engine
}

fn campaign_equivalence_at(chaos_rate: f64) {
    let d = dataset(SCALE, SEED, chaos_rate);
    let (oracle, oracle_q) = batch(&d);
    let oracle_render = render_all(&oracle);
    if chaos_rate > 0.0 {
        assert!(oracle_q.ledger.total() > 0, "chaos must actually corrupt");
    }
    for chunk in [1usize, 7, 1024, usize::MAX] {
        let what = format!("chaos={chaos_rate} chunk={chunk}");
        let engine = stream(&d, chunk.min(d.log.len().max(1)));
        let (r, q) = engine.finalize();
        assert_eq!(render_all(&r), oracle_render, "{what}: render");
        assert_quarantine_eq(&q, &oracle_q, &what);
    }
}

#[test]
fn clean_campaign_streams_identically_at_every_batch_size() {
    campaign_equivalence_at(0.0);
}

#[test]
fn corrupted_campaign_streams_identically_at_every_batch_size() {
    campaign_equivalence_at(0.05);
}

#[test]
fn checkpoint_cuts_through_the_corrupted_campaign_are_invisible() {
    let d = dataset(SCALE, SEED, 0.05);
    let (oracle, oracle_q) = batch(&d);
    let oracle_render = render_all(&oracle);
    // Cut at awkward byte offsets: mid-line, mid-burst, wherever they
    // land — the snapshot must not care. One leg also cuts mid-CSV.
    for frac in [3, 5, 7] {
        let cut = d.log.len() / frac;
        let what = format!("cut at 1/{frac}");
        let mut first = StreamingPipeline::new(d.pipeline, LOG_YEAR);
        first.push_log(&d.log[..cut]);
        let bytes = first.checkpoint().into_bytes();
        let loaded = Checkpoint::from_bytes(bytes).expect("snapshot reads back");
        let mut resumed = StreamingPipeline::restore(&loaded).expect("snapshot restores");
        assert_eq!(resumed.log_bytes_fed(), cut as u64, "{what}: resume offset");
        resumed.push_log(&d.log[cut..]);
        resumed.finish_log();
        resumed.push_gpu_jobs_csv(&d.gpu_csv);
        resumed.push_cpu_jobs_csv(&d.cpu_csv);
        resumed.push_outages_csv(&d.out_csv);
        let (r, q) = resumed.finalize();
        assert_eq!(render_all(&r), oracle_render, "{what}: render");
        assert_quarantine_eq(&q, &oracle_q, &what);
    }

    // Mid-CSV cut: the carry of a half-fed job row must survive the
    // snapshot.
    let mut first = StreamingPipeline::new(d.pipeline, LOG_YEAR);
    first.push_log(&d.log);
    first.finish_log();
    let half = d.gpu_csv.len() / 2;
    first.push_gpu_jobs_csv(&d.gpu_csv[..half]);
    let loaded = Checkpoint::from_bytes(first.checkpoint().into_bytes()).expect("snapshot");
    let mut resumed = StreamingPipeline::restore(&loaded).expect("restore mid-CSV");
    resumed.push_gpu_jobs_csv(&d.gpu_csv[half..]);
    resumed.push_cpu_jobs_csv(&d.cpu_csv);
    resumed.push_outages_csv(&d.out_csv);
    let (r, q) = resumed.finalize();
    assert_eq!(render_all(&r), oracle_render, "mid-CSV cut: render");
    assert_quarantine_eq(&q, &oracle_q, "mid-CSV cut");
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("golden")
}

/// The streaming engine reproduces the committed golden snapshots of the
/// fixed-seed campaign — the same fixtures `tests/golden_report.rs` pins
/// for the batch path, reached here through log *bytes* fed in 1 KiB
/// chunks instead of the in-memory archive.
#[test]
fn golden_snapshots_via_streaming() {
    let d = dataset(GOLDEN_SCALE, GOLDEN_SEED, 0.0);
    let engine = stream(&d, 1024);
    let (r, q) = engine.finalize();
    assert!(q.is_clean(), "golden campaign is clean: {:?}", q.caveats);
    for (name, rendered) in [
        ("table1.txt", report::table1(&r)),
        ("table2.txt", report::table2(&r)),
        ("table3.txt", report::table3(&r)),
        ("figure2.txt", report::figure2(&r)),
        ("table1.md", markdown::table1_md(&r)),
        ("table2.md", markdown::table2_md(&r)),
        ("table3.md", markdown::table3_md(&r)),
    ] {
        let path = golden_dir().join(name);
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
        assert_eq!(rendered, golden, "streamed render drifted from {name}");
    }
}

// ---- targeted regressions -------------------------------------------

fn op_start() -> Timestamp {
    StudyPeriods::delta().op.start
}

fn xid_line(secs: u64, host: &str, code: u16) -> String {
    let mut line = hpclog::XidEvent::new(
        op_start() + Duration::from_secs(secs),
        host,
        PciAddr::for_gpu_index(0),
        XidCode::new(code),
        "detail",
    )
    .to_log_line()
    .to_string();
    line.push('\n');
    line
}

/// A coalescing window spanning the checkpoint cut: events 20 s apart
/// (exactly Δt, which still merges) on either side of the snapshot must
/// coalesce into one error after restore, exactly as in the uncut run.
#[test]
fn coalescing_window_survives_a_checkpoint_on_the_boundary() {
    let before = xid_line(0, "gpub001", 79);
    let on_boundary = xid_line(20, "gpub001", 79); // Δt = 20 s: merges
    let past_boundary = xid_line(41, "gpub001", 79); // 21 s later: new error
    let full: Vec<u8> = [&before, &on_boundary, &past_boundary]
        .iter()
        .flat_map(|s| s.bytes())
        .collect();

    let (uncut, _) = Pipeline::delta().run_lenient(full.as_slice(), 2024, "", "", "");
    assert_eq!(uncut.errors.len(), 2, "the boundary event must merge");
    assert_eq!(uncut.errors[0].merged_lines, 2);

    let mut first = StreamingPipeline::new(Pipeline::delta(), 2024);
    first.push_log(before.as_bytes());
    let loaded = Checkpoint::from_bytes(first.checkpoint().into_bytes()).expect("snapshot");
    let mut resumed = StreamingPipeline::restore(&loaded).expect("restore");
    resumed.push_log(on_boundary.as_bytes());
    resumed.push_log(past_boundary.as_bytes());
    let (r, _) = resumed.finalize();
    assert_eq!(
        r.errors, uncut.errors,
        "cut on the Δt boundary changed coalescing"
    );
    assert_eq!(render_all(&r), render_all(&uncut));
}

/// A checkpoint cut *inside* a duplicate burst: the half-ingested burst's
/// tie-buffer and anchor state must carry so the merged-line count is
/// unchanged.
#[test]
fn duplicate_burst_survives_a_mid_burst_checkpoint() {
    let burst: Vec<String> = (0..6).map(|i| xid_line(i / 2, "gpub001", 79)).collect();
    let full: Vec<u8> = burst.iter().flat_map(|s| s.bytes()).collect();
    let (uncut, _) = Pipeline::delta().run_lenient(full.as_slice(), 2024, "", "", "");
    assert_eq!(uncut.errors.len(), 1);
    assert_eq!(uncut.errors[0].merged_lines, 6);

    for cut_lines in 1..burst.len() {
        let mut first = StreamingPipeline::new(Pipeline::delta(), 2024);
        for line in &burst[..cut_lines] {
            first.push_log(line.as_bytes());
        }
        let loaded = Checkpoint::from_bytes(first.checkpoint().into_bytes()).expect("snapshot");
        let mut resumed = StreamingPipeline::restore(&loaded).expect("restore");
        for line in &burst[cut_lines..] {
            resumed.push_log(line.as_bytes());
        }
        let (r, _) = resumed.finalize();
        assert_eq!(r.errors, uncut.errors, "cut after {cut_lines} burst lines");
    }
}

/// Reservoir determinism across restore: with more rejects than exemplar
/// slots, survival is decided by the ledger's RNG — whose state must ride
/// the checkpoint so the post-restore decisions replay exactly.
#[test]
fn quarantine_reservoir_is_deterministic_across_restore() {
    let mut log = Vec::new();
    for i in 0..100u64 {
        log.extend_from_slice(xid_line(i, "gpub001", 79).as_bytes());
        log.extend_from_slice(format!("garbage line number {i}\n").as_bytes());
    }
    let (_, uncut_q) = Pipeline::delta().run_lenient(log.as_slice(), 2024, "", "", "");
    assert!(
        uncut_q.ledger.total() > uncut_q.ledger.exemplars().len() as u64,
        "rejects must overflow the reservoir for this test to bite"
    );

    for frac in [4, 2] {
        let cut = log.len() / frac;
        let mut first = StreamingPipeline::new(Pipeline::delta(), 2024);
        first.push_log(&log[..cut]);
        let loaded = Checkpoint::from_bytes(first.checkpoint().into_bytes()).expect("snapshot");
        let mut resumed = StreamingPipeline::restore(&loaded).expect("restore");
        resumed.push_log(&log[cut..]);
        let (_, q) = resumed.finalize();
        assert_eq!(
            q.ledger.exemplars(),
            uncut_q.ledger.exemplars(),
            "cut at 1/{frac}: reservoir decisions diverged"
        );
        assert_eq!(q.ledger.counts(), uncut_q.ledger.counts());
    }
}
