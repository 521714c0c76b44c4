//! End-to-end and per-layer benchmark for the two mhd front ends.
//!
//! ```text
//! perfbench --workload cli-daily|daemon-mixed --seed N --seconds S
//!           --trace 0|1 --mhd PATH [--work-dir DIR] [--size full|tiny]
//!           [--corrupt-expected]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: after one warm-up round,
//! whole rounds (fresh store, backup phase, restore phase, checks) repeat
//! while another one fits in `--seconds`, and each metric is the median
//! over rounds. `--trace 1` runs a warm-up, an untraced and a traced
//! round, replays the chunker, SHA-1 and Bloom filter over the same input,
//! and reports per-layer metrics. The last stdout line is the JSON result;
//! `perfbench/run.py` builds both binaries and calls this one. The flush
//! policy is the default `--durability rename` throughout.

#![warn(missing_docs)]

mod cli_front;
mod daemon_front;
mod layers;
mod spans;
mod spawner;
mod sys;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use mhd_chunking::ChunkerKind;
use mhd_workload::{Corpus, CorpusSpec};

use crate::spans::Spans;
use crate::spawner::Spawner;

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

/// Chunker, expected chunk size and slices per DiskChunk: the paper's
/// defaults, on both front ends.
pub(crate) const CHUNKER: ChunkerKind = ChunkerKind::Rabin;
pub(crate) const ECS: usize = 4096;
pub(crate) const SD: usize = 16;
/// Store reopenings timed per round for `setup_s`.
const SETUP_REPEATS: usize = 3;

/// How a workload reaches the program.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Front {
    /// One `mhd backup` process per stream, then `mhd restore` processes.
    Cli,
    /// An in-process daemon; two connections, one tenant each, each
    /// restoring earlier files after every commit.
    Daemon,
}

pub(crate) struct Workload {
    pub(crate) name: &'static str,
    pub(crate) corpus: CorpusSpec,
    pub(crate) front: Front,
}

/// A paper-shaped corpus of `machines` × `days` streams of `image` bytes.
fn paper_corpus(seed: u64, machines: usize, days: usize, image: u64) -> CorpusSpec {
    CorpusSpec {
        seed,
        machines,
        snapshots: days,
        file_bytes: 64 << 10,
        ..CorpusSpec::paper_like(image * 196)
    }
}

/// The corpus layout (stream sizes, mutation sites, shared regions) comes
/// from a fixed generator seed per workload; `--seed` then recodes the
/// bytes (see [`recode`]).
fn workload(name: &str, tiny: bool) -> Option<Workload> {
    let (machines, days, image) = if tiny { (3, 3, 64 << 10) } else { (16, 14, 320 << 10) };
    Some(match name {
        "cli-daily" => Workload {
            name: "cli-daily",
            corpus: paper_corpus(1, machines, days, image),
            front: Front::Cli,
        },
        "daemon-mixed" => Workload {
            name: "daemon-mixed",
            corpus: paper_corpus(2, machines, days, image),
            front: Front::Daemon,
        },
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    mhd: PathBuf,
    work_dir: PathBuf,
    tiny: bool,
    corrupt: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let value = |flag: &str| -> Option<String> {
            argv.iter().position(|a| a == flag).and_then(|i| argv.get(i + 1).cloned())
        };
        let need = |flag: &str| value(flag).ok_or_else(|| format!("{flag} is required"));
        let seconds: f64 = need("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
        if seconds.is_nan() || seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(Args {
            workload: need("--workload")?,
            seed: need("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            seconds,
            trace: match value("--trace").as_deref() {
                None | Some("0") => false,
                Some("1") => true,
                Some(other) => return Err(format!("--trace must be 0 or 1, not {other:?}")),
            },
            mhd: PathBuf::from(need("--mhd")?),
            work_dir: PathBuf::from(value("--work-dir").unwrap_or_else(|| ".bench_work".into())),
            tiny: match value("--size").as_deref() {
                None | Some("full") => false,
                Some("tiny") => true,
                Some(other) => return Err(format!("--size must be full or tiny, not {other:?}")),
            },
            corrupt: argv.iter().any(|a| a == "--corrupt-expected"),
        })
    }
}

/// splitmix64: the benchmark's own seeded choices (byte recoding, files
/// to restore).
pub(crate) struct Rng(pub(crate) u64);

impl Rng {
    /// Uniform in `0..n` (0 when `n` is 0).
    pub(crate) fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n.max(1) as u64) as usize
    }
}

/// Maps every byte of the corpus through one seeded permutation of the 256
/// byte values. Equal byte strings stay equal and distinct ones distinct,
/// so the corpus keeps its duplication structure exactly, while chunk
/// boundaries and hashes differ from seed to seed.
fn recode(mut corpus: Corpus, seed: u64) -> Corpus {
    let mut rng = Rng(seed);
    let mut table: [u8; 256] = std::array::from_fn(|i| i as u8);
    for i in (1..256).rev() {
        table.swap(i, rng.below(i + 1));
    }
    for file in corpus.snapshots.iter_mut().flat_map(|s| s.files.iter_mut()) {
        file.data = file.data.iter().map(|&b| table[b as usize]).collect::<Vec<u8>>().into();
    }
    corpus
}

/// Everything a round needs.
pub(crate) struct Ctx {
    pub(crate) wl: Workload,
    pub(crate) corpus: Corpus,
    pub(crate) mhd: PathBuf,
    pub(crate) work: PathBuf,
    pub(crate) seed: u64,
    /// Flip one expected byte in the first restore check (self-test of
    /// the correctness gate); cleared once used.
    pub(crate) corrupt: AtomicBool,
    spawner: Mutex<Spawner>,
    /// Largest peak RSS of any `mhd` process so far, in bytes.
    mhd_peak_rss: AtomicU64,
}

impl Ctx {
    pub(crate) fn store(&self) -> PathBuf {
        self.work.join("store")
    }

    /// Runs `mhd <args>` to completion; returns its spawn-to-exit seconds
    /// and its stdout, or an error naming the command.
    pub(crate) fn mhd_timed(&self, args: &[&str]) -> (f64, Result<String, String>) {
        let ran = self.spawner.lock().expect("spawner lock poisoned").run(&self.mhd, args);
        match ran {
            Ok(ran) => {
                self.mhd_peak_rss.store(ran.peak_rss, Ordering::Relaxed);
                let result = if ran.code == Some(0) {
                    Ok(ran.stdout)
                } else {
                    Err(format!(
                        "mhd {}: exit {:?}: {}",
                        args.join(" "),
                        ran.code,
                        ran.stderr.trim()
                    ))
                };
                (ran.secs, result)
            }
            Err(e) => (0.0, Err(e)),
        }
    }

    /// [`mhd_timed`](Ctx::mhd_timed) as (stdout, seconds).
    pub(crate) fn mhd(&self, args: &[&str]) -> Result<(String, f64), String> {
        let (secs, result) = self.mhd_timed(args);
        result.map(|out| (out, secs))
    }

    /// Largest peak RSS of any `mhd` process this run has waited for.
    pub(crate) fn mhd_peak_rss(&self) -> u64 {
        self.mhd_peak_rss.load(Ordering::Relaxed)
    }

    pub(crate) fn store_arg(&self) -> String {
        self.store().to_string_lossy().into_owned()
    }
}

/// One round's samples and outcome counts.
#[derive(Default)]
pub(crate) struct Round {
    pub(crate) input_bytes: u64,
    pub(crate) backup_secs: f64,
    pub(crate) commit_ms: Vec<f64>,
    pub(crate) restore_ms: Vec<f64>,
    pub(crate) restored_bytes: u64,
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    pub(crate) der: f64,
    pub(crate) metadata_ratio: f64,
    pub(crate) store_bytes_per_input: f64,
    pub(crate) dup_fraction: f64,
    pub(crate) setup_s: Vec<f64>,
    /// CLI: largest peak RSS of an `mhd` process so far. Daemon, when the
    /// round counts heap bytes: peak live heap bytes during the backup
    /// phase above those at its start.
    pub(crate) peak_mem_bytes: u64,
}

impl Round {
    /// Counts one failed operation; it stays in the sample.
    pub(crate) fn fail(&mut self, what: impl std::fmt::Display) {
        eprintln!("FAIL: {what}");
        self.failed += 1;
    }

    /// Byte-compares a restore with the generated file.
    pub(crate) fn check_restore(&mut self, ctx: &Ctx, name: &str, got: &[u8], want: &[u8]) {
        let mismatch = if !want.is_empty() && ctx.corrupt.swap(false, Ordering::Relaxed) {
            let mut bad = want.to_vec();
            bad[want.len() / 2] ^= 0x01;
            got != bad.as_slice()
        } else {
            got != want
        };
        if mismatch {
            self.fail(format!("restore of {name}: {} bytes differ from the input", got.len()));
        } else {
            self.restored_bytes += got.len() as u64;
        }
    }

    /// Reads DER, metadata ratio, dup fraction and the input-volume gate
    /// from `mhd stats` and the store walk (outside the timer).
    pub(crate) fn read_store(&mut self, ctx: &Ctx) {
        self.attempted += 1;
        let expected = ctx.corpus.total_bytes();
        match cli_front::store_stats(ctx) {
            Ok(s) => {
                if s.input_bytes != expected {
                    self.fail(format!(
                        "store input_bytes {} != generated volume {expected}",
                        s.input_bytes
                    ));
                }
                let input = s.input_bytes.max(1) as f64;
                self.der = s.input_bytes as f64 / (s.stored_data + s.metadata).max(1) as f64;
                self.metadata_ratio = s.metadata as f64 / input;
                self.dup_fraction = s.dup_bytes as f64 / input;
            }
            Err(e) => self.fail(e),
        }
        let (_, bytes) = sys::tree_size(&ctx.store());
        self.store_bytes_per_input = bytes as f64 / expected.max(1) as f64;
    }
}

/// Program-side counters gathered over the backup phase of a traced
/// round: summed obs counters and histogram (count, sum) pairs.
#[derive(Default)]
pub(crate) struct Counts {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, (u64, u64)>,
    /// CLI: summed `backup` stage time from `mhd backup --trace`.
    pub(crate) cli_pipeline_secs: f64,
    /// Daemon: Δ`/proc/self/io` write_bytes over the backup phase.
    pub(crate) write_bytes: Option<u64>,
    /// Read-ahead (hits, fills) on the restore path. `mhd restore`
    /// persists no counters, so for the CLI they come from a replay.
    pub(crate) restore_readahead: (u64, u64),
}

impl Counts {
    pub(crate) fn add(&mut self, snap: &mhd_obs::Snapshot) {
        for c in &snap.counters {
            *self.counters.entry(c.name.clone()).or_default() += c.value;
        }
        for h in &snap.histograms {
            let e = self.hists.entry(h.name.clone()).or_default();
            e.0 += h.count;
            e.1 += h.sum;
        }
    }

    pub(crate) fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub(crate) fn hist_count(&self, name: &str) -> u64 {
        self.hists.get(name).map_or(0, |h| h.0)
    }

    pub(crate) fn hist_sum(&self, name: &str) -> u64 {
        self.hists.get(name).map_or(0, |h| h.1)
    }
}

/// Runs one round through the workload's front end. `count_heap` turns
/// on the heap counting behind the daemon's `peak_mem_bytes`; it costs
/// every allocation two atomic updates, so only an untimed round asks
/// for it.
fn round(ctx: &Ctx, spans: &Spans, counts: Option<&mut Counts>, count_heap: bool) -> Round {
    match ctx.wl.front {
        Front::Cli => cli_front::round(ctx, spans, counts),
        Front::Daemon => daemon_front::round(ctx, spans, counts, count_heap),
    }
}

pub(crate) fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile (`q` in 0..=1); 0 for an empty sample.
pub(crate) fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Times `repeats` store reopenings with `open` (median goes to `setup_s`).
pub(crate) fn time_setup(round: &mut Round, mut open: impl FnMut() -> Result<f64, String>) {
    for _ in 0..SETUP_REPEATS {
        round.attempted += 1;
        match open() {
            Ok(secs) => round.setup_s.push(secs),
            Err(e) => round.fail(format!("store reopen: {e}")),
        }
    }
}

/// Runs the final integrity check: `mhd fsck` must pass on the last
/// round's store.
fn final_fsck(ctx: &Ctx, round: &mut Round) {
    round.attempted += 1;
    if let Err(e) = ctx.mhd(&["fsck", "--store", &ctx.store_arg()]) {
        round.fail(e);
    }
}

/// A metric as printed: value (`None` = not applicable to this workload)
/// and unit.
pub(crate) type Metric = (&'static str, Option<f64>, &'static str);

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    for (name, value, unit) in metrics {
        match value {
            Some(v) => println!("metric {name} = {v} {unit}"),
            None => println!("metric {name} = n/a {unit}"),
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no n/a; a metric that does not apply reads 0.
            let v = value.filter(|v| v.is_finite()).unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn end_to_end(ctx: &Ctx, seconds: f64) -> (u64, u64, Vec<Metric>) {
    let spans = Spans::new(false);
    // One warm-up round first: it fills caches and brings the store's
    // filesystem to its loaded state. Its checks count; its timings do
    // not. It alone measures memory, so no timed round pays for that.
    let warmup = round(ctx, &spans, None, true);
    println!("warm-up round: backup {:.3} s", warmup.backup_secs);
    let mut rounds: Vec<Round> = Vec::new();
    let mut timed = 0.0;
    // Whole rounds while another one of the last one's length still fits
    // in `seconds`.
    loop {
        let r = round(ctx, &spans, None, false);
        let secs = r.backup_secs + r.restore_ms.iter().sum::<f64>() / 1e3;
        timed += secs;
        println!(
            "round {}: backup {:.3} s, restores {:.3} s, commit p50 {:.2} p95 {:.2} ms, restore p50 {:.3} p95 {:.3} ms",
            rounds.len(),
            r.backup_secs,
            r.restore_ms.iter().sum::<f64>() / 1e3,
            percentile(&r.commit_ms, 0.5),
            percentile(&r.commit_ms, 0.95),
            percentile(&r.restore_ms, 0.5),
            percentile(&r.restore_ms, 0.95),
        );
        rounds.push(r);
        if timed + secs > seconds {
            break;
        }
    }
    let last = rounds.last_mut().expect("at least one round ran");
    final_fsck(ctx, last);

    // Each metric is the median over rounds; a round's percentiles come
    // from its own ≥ 200 samples, so one disturbed round cannot move them.
    let per_round = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let count = |f: &dyn Fn(&Round) -> usize| rounds.iter().map(f).sum::<usize>();
    let setups: Vec<f64> = rounds.iter().flat_map(|r| r.setup_s.iter().copied()).collect();
    let attempted: u64 = warmup.attempted + rounds.iter().map(|r| r.attempted).sum::<u64>();
    let failed: u64 = warmup.failed + rounds.iter().map(|r| r.failed).sum::<u64>();
    const MIB: f64 = (1u64 << 20) as f64;
    println!(
        "rounds {} commits {} restores {} setups {} (durability rename)",
        rounds.len(),
        count(&|r| r.commit_ms.len()),
        count(&|r| r.restore_ms.len()),
        setups.len()
    );
    println!("metric error_rate = {} share", failed as f64 / attempted.max(1) as f64);
    let metrics = vec![
        (
            "backup_mib_s",
            Some(per_round(&|r| r.input_bytes as f64 / MIB / r.backup_secs.max(1e-9))),
            "MiB/s",
        ),
        (
            "restore_mib_s",
            Some(per_round(&|r| {
                r.restored_bytes as f64 / MIB / (r.restore_ms.iter().sum::<f64>() / 1e3).max(1e-9)
            })),
            "MiB/s",
        ),
        ("commit_ms_p50", Some(per_round(&|r| percentile(&r.commit_ms, 0.50))), "ms"),
        ("commit_ms_p95", Some(per_round(&|r| percentile(&r.commit_ms, 0.95))), "ms"),
        ("restore_ms_p50", Some(per_round(&|r| percentile(&r.restore_ms, 0.50))), "ms"),
        ("restore_ms_p95", Some(per_round(&|r| percentile(&r.restore_ms, 0.95))), "ms"),
        ("der", Some(per_round(&|r| r.der)), "ratio"),
        ("metadata_ratio", Some(per_round(&|r| r.metadata_ratio)), "ratio"),
        ("store_bytes_per_input", Some(per_round(&|r| r.store_bytes_per_input)), "ratio"),
        ("setup_s", Some(median(&setups)), "s"),
        ("peak_mem_mib", Some(warmup.peak_mem_bytes as f64 / MIB), "MiB"),
    ];
    (attempted, failed, metrics)
}

fn run() -> Result<bool, String> {
    let args = Args::parse()?;
    let wl = workload(&args.workload, args.tiny)
        .ok_or_else(|| format!("unknown workload {:?} (cli-daily|daemon-mixed)", args.workload))?;
    if !args.mhd.is_file() {
        return Err(format!("mhd binary {} not found", args.mhd.display()));
    }
    // Started while this process is still small; see `spawner`.
    let spawner = Mutex::new(Spawner::start()?);
    // Run hygiene, outside any timer: the previous run's store and corpus
    // go, and their dirty pages are flushed.
    let work = args.work_dir.join(wl.name);
    sys::clean_and_sync(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let setup = Instant::now();
    let corpus = recode(Corpus::generate(wl.corpus), args.seed);
    let ctx = Ctx {
        wl,
        corpus,
        mhd: args.mhd,
        work,
        seed: args.seed,
        corrupt: AtomicBool::new(args.corrupt),
        spawner,
        mhd_peak_rss: AtomicU64::new(0),
    };
    if ctx.wl.front == Front::Cli {
        cli_front::export_corpus(&ctx)?;
        sys::sync();
    }
    println!(
        "workload {} seed {} corpus {} streams {} B (ideal data-only DER {:.3}), generated in {:.2} s",
        ctx.wl.name,
        ctx.seed,
        ctx.corpus.snapshots.len(),
        ctx.corpus.total_bytes(),
        ctx.corpus.stats.ideal_der(),
        setup.elapsed().as_secs_f64()
    );

    let (attempted, failed, metrics) =
        if args.trace { layers::traced(&ctx) } else { end_to_end(&ctx, args.seconds) };
    let correct = failed == 0;
    print_result(correct, attempted.max(1), failed, &metrics);
    Ok(correct)
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--spawner") {
        return spawner::serve();
    }
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: correctness checks failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
