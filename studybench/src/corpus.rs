//! The study-scale input corpus: generated once per checkout through the
//! program's own `delta-cli simulate` path, pinned by digest, and loaded
//! through the same library calls `delta-cli analyze` makes.

use crate::tracer::Tracer;
use crate::util::Digest;
use delta_gpu_resilience::cli;
use hpclog::archive::Archive;
use resilience::{csvio, AccountedJob, OutageRecord, Pipeline, StudyReport};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

/// The `simulate` seed of the study corpus (the program's default).
pub const CORPUS_SEED: u64 = 911_706;

/// Digest of the scale-1 corpus `delta-cli simulate --scale 1 --seed
/// 911706` writes. Every run checks the bytes it feeds the program
/// against it, so two commits are only ever compared on the same input;
/// a program whose simulator writes different bytes is refused.
pub const CORPUS_DIGEST: u64 = 0xccc8_bce3_0e9b_1229;

#[derive(Debug, Clone)]
pub struct Corpus {
    pub dir: PathBuf,
    pub logs: Vec<PathBuf>,
    pub gpu_jobs: PathBuf,
    pub cpu_jobs: PathBuf,
    pub outages: PathBuf,
    pub bytes: u64,
}

impl Corpus {
    pub fn open(dir: &Path) -> Result<Corpus, String> {
        let logs = cli::collect_log_files(&[dir.join("logs").display().to_string()])
            .map_err(|e| e.to_string())?;
        Ok(Corpus {
            dir: dir.to_path_buf(),
            logs,
            gpu_jobs: dir.join("gpu_jobs.csv"),
            cpu_jobs: dir.join("cpu_jobs.csv"),
            outages: dir.join("outages.csv"),
            bytes: 0,
        })
    }

    fn files(&self) -> Vec<&PathBuf> {
        let mut files: Vec<&PathBuf> = self.logs.iter().collect();
        files.extend([&self.gpu_jobs, &self.cpu_jobs, &self.outages]);
        files
    }

    /// Digest over every file's name and bytes, in a fixed order; also
    /// pulls the corpus into the page cache before anything is timed.
    fn digest(&mut self) -> Result<u64, String> {
        let mut d = Digest::default();
        let mut total = 0u64;
        for f in self.files() {
            let name = f.file_name().map(|n| n.to_string_lossy().into_owned());
            d.update(name.unwrap_or_default().as_bytes());
            let bytes = std::fs::read(f).map_err(|e| format!("reading {}: {e}", f.display()))?;
            total += bytes.len() as u64;
            d.update(&bytes);
        }
        self.bytes = total;
        Ok(d.value())
    }

    /// The `delta-cli analyze` argument list for this corpus.
    pub fn analyze_args(&self) -> Vec<String> {
        vec![
            "analyze".to_owned(),
            self.dir.join("logs").display().to_string(),
            "--jobs".to_owned(),
            self.gpu_jobs.display().to_string(),
            "--cpu-jobs".to_owned(),
            self.cpu_jobs.display().to_string(),
            "--outages".to_owned(),
            self.outages.display().to_string(),
        ]
    }
}

/// Returns the verified corpus under `data`, generating it with
/// `delta_cli` first when it is missing or damaged.
pub fn ensure(data: &Path, delta_cli: &Path) -> Result<Corpus, String> {
    let dir = data.join(format!("corpus-{CORPUS_SEED}"));
    let marker = dir.join("COMPLETE");
    if marker.exists() {
        let mut corpus = Corpus::open(&dir)?;
        if corpus.digest()? == CORPUS_DIGEST {
            return Ok(corpus);
        }
        eprintln!("studybench: corpus digest mismatch, regenerating");
    }
    let _ = std::fs::remove_dir_all(&dir);
    eprintln!("studybench: generating the scale-1 corpus (seed {CORPUS_SEED})");
    let status = Command::new(delta_cli)
        .args([
            "simulate",
            "--scale",
            "1",
            "--seed",
            &CORPUS_SEED.to_string(),
            "--out",
        ])
        .arg(&dir)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("running delta_cli simulate: {e}"))?;
    if !status.success() {
        return Err(format!("delta_cli simulate failed: {status}"));
    }
    let mut corpus = Corpus::open(&dir)?;
    let got = corpus.digest()?;
    if got != CORPUS_DIGEST {
        return Err(format!(
            "the program's simulator wrote a corpus with digest {got:#018x}, not the pinned \
             {CORPUS_DIGEST:#018x}: parent and change would not see the same input"
        ));
    }
    std::fs::write(&marker, b"").map_err(|e| format!("writing {}: {e}", marker.display()))?;
    Ok(corpus)
}

/// The batch inputs held in memory.
pub struct Loaded {
    pub archive: Archive,
    pub gpu_jobs: Vec<AccountedJob>,
    pub cpu_jobs: Vec<AccountedJob>,
    pub outages: Vec<OutageRecord>,
}

fn read(path: &Path) -> Result<String, String> {
    cli::read_to_string(path).map_err(|e| e.to_string())
}

/// Loads the corpus the way `delta-cli analyze` does: every day file
/// through `Archive::ingest_day` with the year from its file name, then
/// the three CSV exports through `csvio`.
pub fn load(corpus: &Corpus, t: &mut Tracer) -> Result<Loaded, String> {
    let mut archive = Archive::new();
    for file in &corpus.logs {
        let text = t.span("bench.read", |_| read(file))?;
        let year = cli::year_from_filename(file)
            .ok_or_else(|| format!("{}: no date in the file name", file.display()))?;
        t.span("hpclog.parse", |_| archive.ingest_day(&text, year));
    }
    let texts = t.span("bench.read", |_| -> Result<_, String> {
        Ok((
            read(&corpus.gpu_jobs)?,
            read(&corpus.cpu_jobs)?,
            read(&corpus.outages)?,
        ))
    })?;
    let parsed = t.span("core.csvio.parse", |_| -> Result<_, String> {
        let jobs = |text: &str| csvio::parse_jobs(text).map_err(|e| e.to_string());
        let outages = csvio::parse_outages(&texts.2).map_err(|e| e.to_string())?;
        Ok((jobs(&texts.0)?, jobs(&texts.1)?, outages))
    })?;
    Ok(Loaded {
        archive,
        gpu_jobs: parsed.0,
        cpu_jobs: parsed.1,
        outages: parsed.2,
    })
}

/// Counts a traced load adds to the per-layer metrics.
#[derive(Debug, Default, Clone, Copy)]
pub struct StudyCounts {
    pub lines: u64,
    pub events: u64,
    pub csv_rows: u64,
    pub errors: u64,
}

/// `Pipeline::run` split at its layer boundaries: extraction over the
/// archive, then `run_events`, with the canonical sort plus coalesce
/// also timed on their own (so assemble = run_events − coalesce).
pub fn analyze(loaded: &Loaded, t: &mut Tracer) -> (StudyReport, StudyCounts) {
    let pipeline = Pipeline::delta();
    let mut extractor = hpclog::extract::XidExtractor::studied_only(2024);
    let events: Vec<_> = t.span("hpclog.extract", |_| {
        loaded
            .archive
            .iter()
            .filter_map(|line| extractor.extract(line))
            .collect()
    });
    let mut counts = StudyCounts {
        lines: loaded.archive.line_count() as u64,
        events: events.len() as u64,
        csv_rows: (loaded.gpu_jobs.len() + loaded.cpu_jobs.len() + loaded.outages.len()) as u64,
        errors: 0,
    };
    if t.enabled() {
        let copy = events.clone();
        let errors = t.span("core.pipeline.coalesce", |_| {
            let mut copy = copy;
            hpclog::shard::canonical_sort(&mut copy);
            resilience::coalesce(copy, pipeline.coalesce_window).len()
        });
        counts.errors = errors as u64;
    }
    let report = t.span("core.pipeline.run_events", |_| {
        pipeline.run_events(
            events,
            Some(extractor.stats()),
            &loaded.gpu_jobs,
            &loaded.cpu_jobs,
            &loaded.outages,
        )
    });
    (report, counts)
}

/// The paper surfaces every workload's output is checked against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Renders {
    pub table1: String,
    pub table2: String,
    pub table3: String,
    pub fig2: String,
}

impl Renders {
    pub fn of(report: &StudyReport, t: &mut Tracer) -> Renders {
        t.span("core.report.render", |_| Renders {
            table1: resilience::report::table1(report),
            table2: resilience::report::table2(report),
            table3: resilience::report::table3(report),
            fig2: resilience::report::figure2(report),
        })
    }

    fn encode(&self) -> String {
        [&self.table1, &self.table2, &self.table3, &self.fig2]
            .iter()
            .map(|s| format!("{}\n{s}", s.len()))
            .collect()
    }

    fn decode(mut text: &str) -> Option<Renders> {
        let mut parts = Vec::new();
        for _ in 0..4 {
            let (len, rest) = text.split_once('\n')?;
            let len: usize = len.parse().ok()?;
            parts.push(rest.get(..len)?.to_owned());
            text = &rest[len..];
        }
        let mut it = parts.into_iter();
        Some(Renders {
            table1: it.next()?,
            table2: it.next()?,
            table3: it.next()?,
            fig2: it.next()?,
        })
    }

    /// The in-process render of `Pipeline::run` over the corpus, cached
    /// under the data directory by corpus digest and benchmark build.
    pub fn reference(data: &Path, corpus: &Corpus) -> Result<Renders, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let exe_digest = crate::util::digest(&std::fs::read(&exe).map_err(|e| e.to_string())?);
        let path = data.join(format!(
            "reference-{CORPUS_DIGEST:016x}-{exe_digest:016x}.txt"
        ));
        if let Some(r) = std::fs::read_to_string(&path)
            .ok()
            .as_deref()
            .and_then(Renders::decode)
        {
            return Ok(r);
        }
        let mut off = Tracer::new(false);
        let l = load(corpus, &mut off)?;
        let report = Pipeline::delta().run(&l.archive, &l.gpu_jobs, &l.cpu_jobs, &l.outages);
        drop(l);
        let renders = Renders::of(&report, &mut off);
        std::fs::write(&path, renders.encode()).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(renders)
    }
}

/// Time limit for any single child step.
pub const CHILD_LIMIT: Duration = Duration::from_secs(120);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_round_trip_through_the_cache_encoding() {
        let r = Renders {
            table1: "a\nb".into(),
            table2: String::new(),
            table3: "x".into(),
            fig2: "12\n34\n".into(),
        };
        assert_eq!(Renders::decode(&r.encode()), Some(r));
    }
}
