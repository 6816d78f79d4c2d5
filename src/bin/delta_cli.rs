//! `delta-cli` — the command-line face of the reproduction.
//!
//! ```text
//! delta-cli analyze  <LOG>... [--jobs FILE] [--cpu-jobs FILE] [--outages FILE]
//!                    [--window SECS] [--deep] [--rollup BUCKET[@TZ]]
//!                    [--metrics-out FILE]
//! delta-cli simulate [--scale F] [--seed N] --out DIR [--metrics-out FILE]
//! delta-cli taxonomy
//! ```
//!
//! * `analyze` runs the paper's pipeline over real (or simulator-written)
//!   per-day log files, optionally joined against CSV job/outage exports
//!   (schemas in `resilience::csvio`), and prints every table plus — with
//!   `--deep` — the survival/concentration/burstiness extensions.
//! * `simulate` runs a seeded campaign and writes the raw artifacts
//!   (per-day logs, job CSV, outage CSV) to a directory, producing a
//!   self-contained synthetic dataset for the `analyze` path or external
//!   tools.
//! * `taxonomy` prints the XID reference table.
//!
//! Both workloads accept `--metrics-out FILE` (with optional
//! `--metrics-format prom|json`, defaulting by extension): the run then
//! records stage metrics and spans into the `obs` registry and writes the
//! exposition on exit. Shared plumbing and the error taxonomy live in
//! [`delta_gpu_resilience::cli`].

use delta_gpu_resilience::cli::{self, parse_flags, CliError, MetricsSink};
use delta_gpu_resilience::prelude::*;
use resilience::csvio;
use resilience::error::CsvInput;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("taxonomy") => cmd_taxonomy(),
        Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(CliError::Usage(format!("unknown command {other:?}"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {err}");
            if matches!(err, CliError::Usage(_)) {
                eprint!("{USAGE}");
            }
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
delta-cli — A100 GPU resilience analysis (DSN'25 reproduction)

USAGE:
  delta-cli analyze <LOG>... [--jobs FILE] [--cpu-jobs FILE] [--outages FILE]
                    [--window SECS] [--deep] [--rollup BUCKET[@TZ]]
                    [--metrics-out FILE]
  delta-cli simulate [--scale F] [--seed N] --out DIR [--metrics-out FILE]
  delta-cli taxonomy

ANALYZE
  <LOG>...        per-day syslog files (or directories of them)
  --jobs FILE     GPU job export (CSV: id,name,submit,start,end,gpus,gpu_slots,state)
  --cpu-jobs FILE CPU job export (same schema, gpus=0)
  --outages FILE  outage export (CSV: host,start,duration_secs)
  --window SECS   coalescing window Δt (default 20)
  --periods MODE  'delta' (the paper's calendar, default) or 'auto'
                  (infer the window from the data span, keeping Delta's
                  23%/77% pre-op/op split — use for scaled datasets)
  --deep          also run survival / concentration / burstiness analyses
  --rollup SPEC   also print a calendar-aware error rollup; SPEC is
                  BUCKET[@TZ] with BUCKET one of hour|day|week|month and
                  TZ one of UTC|America/Chicago|Europe/Berlin (DST-aware,
                  default UTC) — e.g. 'day', 'week@America/Chicago'

SIMULATE
  --scale F       calendar scale in (0,1], default 0.05
  --seed N        campaign seed, default 0xDE17A
  --out DIR       output directory (created if missing)

METRICS (both analyze and simulate)
  --metrics-out FILE    record stage metrics + spans, write exposition here
  --metrics-format FMT  'prom' (Prometheus text) or 'json'
                        (default: by FILE extension, .json means json)
";

fn cmd_analyze(args: &[String]) -> Result<(), CliError> {
    let flags = parse_flags(
        args,
        &[
            "jobs",
            "cpu-jobs",
            "outages",
            "window",
            "periods",
            "rollup",
            "metrics-out",
            "metrics-format",
        ],
    )?;
    if flags.positionals.is_empty() {
        return Err(CliError::Usage(
            "analyze needs at least one log file".to_owned(),
        ));
    }
    let metrics = MetricsSink::from_flags(&flags)?;

    // Ingest logs. Syslog lines carry no year, so resolve it per file:
    // prefer a `...YYYYMMDD...` date in the filename (what `simulate`
    // writes); otherwise probe candidate years on a small line sample and
    // keep the year that parses best. Either way each file is fully
    // parsed exactly once.
    let mut archive = hpclog::archive::Archive::new();
    let mut skipped_total = 0;
    {
        let mut span = obs::span("stage_ingest");
        for file in cli::collect_log_files(&flags.positionals)? {
            let text = cli::read_to_string(&file)?;
            let year = cli::year_from_filename(&file).unwrap_or_else(|| cli::probe_year(&text));
            let (_, skipped) = archive.ingest_day(&text, year);
            skipped_total += skipped;
        }
        span.add_items(archive.line_count() as u64);
    }
    println!(
        "ingested {} lines over {} days ({} unparseable lines skipped)",
        archive.line_count(),
        archive.day_count(),
        skipped_total
    );

    let gpu_jobs = match flags.value("jobs") {
        Some(path) => cli::parse_jobs_csv(&cli::read_to_string(path)?, CsvInput::GpuJobs)?,
        None => Vec::new(),
    };
    let cpu_jobs = match flags.value("cpu-jobs") {
        Some(path) => cli::parse_jobs_csv(&cli::read_to_string(path)?, CsvInput::CpuJobs)?,
        None => Vec::new(),
    };
    let outages = match flags.value("outages") {
        Some(path) => cli::parse_outages_csv(&cli::read_to_string(path)?)?,
        None => Vec::new(),
    };

    let mut pipeline = Pipeline::delta();
    if let Some(w) = flags.value("window") {
        let secs: u64 = w
            .parse()
            .map_err(|_| CliError::Usage(format!("bad --window {w:?}")))?;
        pipeline.coalesce_window = Duration::from_secs(secs);
    }
    match flags.value("periods").unwrap_or("delta") {
        "delta" => {}
        "auto" => {
            pipeline.periods = infer_periods(&archive, &gpu_jobs).ok_or_else(|| {
                CliError::Invalid("cannot infer periods from empty data".to_owned())
            })?;
            println!(
                "inferred calendar: pre-op {} .. op {} .. {}",
                pipeline.periods.pre_op.start, pipeline.periods.op.start, pipeline.periods.op.end
            );
        }
        other => {
            return Err(CliError::Usage(format!(
                "bad --periods {other:?} (expected delta|auto)"
            )))
        }
    }
    let report_out = pipeline.run(&archive, &gpu_jobs, &cpu_jobs, &outages);

    println!("\n=== Table I ===\n{}", report::table1(&report_out));
    if !gpu_jobs.is_empty() {
        println!("=== Table II ===\n{}", report::table2(&report_out));
        println!("=== Table III ===\n{}", report::table3(&report_out));
    }
    if !outages.is_empty() {
        println!("=== Figure 2 ===\n{}", report::figure2(&report_out));
    }
    println!("=== Findings ===\n{}", Findings::evaluate(&report_out));

    if let Some(spec) = flags.value("rollup") {
        let (bucket, tz) = cli::parse_rollup_spec(spec)?;
        let cube = resilience::rollup::RollupCube::build(
            &tz,
            bucket,
            report_out.errors.iter().map(|e| (e.time, e.kind)),
        );
        println!(
            "\n=== Error rollup ({} buckets, {}) ===",
            bucket.as_str(),
            tz.name()
        );
        println!("bucket,start,end,count");
        for cell in cube.cells() {
            println!(
                "{},{},{},{}",
                tz.bucket_label(bucket, cell.start),
                cell.start,
                cell.end,
                cell.total
            );
        }
    }

    if flags.has("deep") {
        println!("\n=== Deep analyses ===\n{}", report::deep(&report_out));
    }
    if let Some(sink) = &metrics {
        sink.write()?;
        println!("metrics written to {}", sink.path.display());
    }
    Ok(())
}

/// Infers a study calendar from the observed data span, keeping Delta's
/// 273:896-day pre-op/op proportions.
fn infer_periods(
    archive: &hpclog::archive::Archive,
    jobs: &[resilience::AccountedJob],
) -> Option<StudyPeriods> {
    let (mut first, mut last) = archive.time_span()?;
    for j in jobs {
        first = first.min(j.submit);
        last = last.max(j.end);
    }
    if last <= first {
        return None;
    }
    let span = (last - first).as_secs() + 1;
    let boundary = first + Duration::from_secs(span * 273 / 1169);
    Some(StudyPeriods {
        pre_op: Period::new(first, boundary),
        op: Period::new(boundary, last + Duration::from_secs(1)),
    })
}

fn cmd_simulate(args: &[String]) -> Result<(), CliError> {
    let flags = parse_flags(
        args,
        &["scale", "seed", "out", "metrics-out", "metrics-format"],
    )?;
    let metrics = MetricsSink::from_flags(&flags)?;
    let scale: f64 = flags
        .value("scale")
        .unwrap_or("0.05")
        .parse()
        .map_err(|_| CliError::Usage("bad --scale".to_owned()))?;
    if !(0.0..=1.0).contains(&scale) || scale == 0.0 {
        return Err(CliError::Usage("--scale must be in (0, 1]".to_owned()));
    }
    let seed: u64 = flags
        .value("seed")
        .unwrap_or("911706")
        .parse()
        .map_err(|_| CliError::Usage("bad --seed".to_owned()))?;
    let out_dir = PathBuf::from(
        flags
            .value("out")
            .ok_or_else(|| CliError::Usage("simulate needs --out DIR".to_owned()))?,
    );
    let logs_dir = out_dir.join("logs");
    std::fs::create_dir_all(&logs_dir).map_err(|source| CliError::Io {
        action: "creating",
        path: logs_dir.clone(),
        source,
    })?;

    let mut config = if scale >= 1.0 {
        FaultConfig::delta()
    } else {
        FaultConfig::delta_scaled(scale)
    };
    config.seed = seed;
    let campaign = Campaign::new(config).run();
    let cluster = Cluster::new(campaign.config.spec);
    let workload = if scale >= 1.0 {
        WorkloadConfig::delta()
    } else {
        WorkloadConfig::delta_scaled(scale)
    };
    let outcome =
        Simulation::new(&cluster, workload, seed).run(&campaign.ground_truth, &campaign.holds);

    // Per-day log files. `days()` yields exactly the keys `render_day`
    // accepts, so a miss is a bug in `Archive` — report it, don't panic.
    let mut days = 0;
    {
        let mut span = obs::span("stage_write_artifacts");
        for (day, _) in campaign.archive.days() {
            let text = campaign.archive.render_day(day).ok_or_else(|| {
                CliError::Invalid(format!("archive listed day {day} but cannot render it"))
            })?;
            let date = Timestamp::from_unix(day * 86_400);
            let (y, m, d) = date.ymd();
            let path = logs_dir.join(format!("syslog-{y:04}{m:02}{d:02}.log"));
            cli::write_file(&path, text, "writing")?;
            days += 1;
        }
        // Job + outage CSVs.
        let jobs_csv = csvio::render_jobs(&bridge::jobs(&outcome.jobs));
        cli::write_file(out_dir.join("gpu_jobs.csv"), jobs_csv, "writing")?;
        let cpu_csv = csvio::render_jobs(&bridge::jobs(&outcome.cpu_jobs));
        cli::write_file(out_dir.join("cpu_jobs.csv"), cpu_csv, "writing")?;
        let outage_csv = csvio::render_outages(&bridge::outages(campaign.ledger.outages()));
        cli::write_file(out_dir.join("outages.csv"), outage_csv, "writing")?;
        span.add_items(days + 3);
    }

    println!(
        "wrote {days} log days, {} GPU jobs, {} CPU jobs, {} outages to {}",
        outcome.jobs.len(),
        outcome.cpu_jobs.len(),
        campaign.ledger.outage_count(),
        out_dir.display()
    );
    println!(
        "analyze it back with:\n  delta-cli analyze {}/logs --jobs {}/gpu_jobs.csv --cpu-jobs {}/cpu_jobs.csv --outages {}/outages.csv",
        out_dir.display(),
        out_dir.display(),
        out_dir.display(),
        out_dir.display()
    );
    if let Some(sink) = &metrics {
        sink.write()?;
        println!("metrics written to {}", sink.path.display());
    }
    Ok(())
}

fn cmd_taxonomy() -> Result<(), CliError> {
    println!(
        "{:<10} {:<26} {:<13} {:<17} Description",
        "XID", "Event", "Category", "Recovery"
    );
    for kind in ErrorKind::STUDIED {
        let codes: Vec<String> = kind.codes().iter().map(u16::to_string).collect();
        println!(
            "{:<10} {:<26} {:<13} {:<17} {}",
            codes.join("/"),
            kind.abbreviation(),
            kind.category().label(),
            kind.recovery().label(),
            kind.description()
        );
    }
    for kind in [ErrorKind::GpuSoftware, ErrorKind::ResetChannel] {
        let codes: Vec<String> = kind.codes().iter().map(u16::to_string).collect();
        println!(
            "{:<10} {:<26} {:<13} {:<17} {} (excluded from the study)",
            codes.join("/"),
            kind.abbreviation(),
            kind.category().label(),
            kind.recovery().label(),
            kind.description()
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infer_periods_keeps_delta_ratio() {
        let mut archive = hpclog::archive::Archive::new();
        let start = Timestamp::from_ymd_hms(2022, 1, 1, 0, 0, 0).unwrap();
        let end = start + Duration::from_days(1169);
        archive.push(hpclog::LogLine::new(start, "gpub001", "kernel", "first"));
        archive.push(hpclog::LogLine::new(end, "gpub001", "kernel", "last"));
        let periods = infer_periods(&archive, &[]).unwrap();
        assert_eq!(periods.pre_op.start, start);
        let pre_days = periods.pre_op.days();
        assert!((pre_days - 273.0).abs() < 1.5, "{pre_days}");
        assert!(periods.op.end > end);
    }

    #[test]
    fn probe_year_prefers_parseable_year() {
        // Feb 29 only parses in 2024 among the candidates.
        let text = "Feb 29 12:00:00 gpub001 kernel: leap day\n";
        assert_eq!(cli::probe_year(text), 2024);
    }

    #[test]
    fn infer_periods_empty_is_none() {
        let archive = hpclog::archive::Archive::new();
        assert!(infer_periods(&archive, &[]).is_none());
    }

    #[test]
    fn unknown_flags_still_parse_as_boolean() {
        let args: Vec<String> = vec!["--deep".to_owned()];
        let flags = parse_flags(&args, &["jobs"]).unwrap();
        assert!(flags.has("deep"));
    }
}
