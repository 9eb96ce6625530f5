//! `perfbench`: the repository benchmark.
//!
//! One binary runs three workloads, each chosen to put a different set
//! of layers on the critical path:
//!
//! - `profile-cold` — cold profiles of the twelve registered
//!   benchmarks (workloads, isa, cachesim, intervals, prefetch);
//! - `sweep-job` — sweep jobs through a real `leakage-server` and its
//!   job workers (core, codec, checkpoints, job fabric, page reads);
//! - `trace-upload` — chunked LKTR uploads to the same server
//!   (chunked deframing, LKTR decoding, streaming extraction).
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` makes a
//! separate run of the same operations that times each layer's public
//! entry points on replayed inputs. Every operation's output is checked.
//! The last line of stdout is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; the lines above it are the same
//! numbers for people. See `perfbench/README.md`.

mod http;
mod profile_cold;
mod sweep_job;
mod sys;
mod trace_upload;

use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::PathBuf;
use std::process::ExitCode;

/// The seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;

/// How many times each run sets its workload up; `setup_s` is the
/// median.
const SETUPS: usize = 3;

/// Command-line arguments.
pub struct Args {
    /// `profile-cold`, `sweep-job` or `trace-upload`.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Target length of the measured phase; sets the fixed op count.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Directory holding `leakage-server` and `leakage-job-worker`.
    pub bin_dir: PathBuf,
    /// Scratch directory for profile files, job dirs and checkpoints.
    pub run_dir: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload profile-cold|sweep-job|trace-upload \
    [--seed N] [--seconds S] [--trace 0|1] [--bin-dir DIR] [--run-dir DIR]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 15.0,
        trace: false,
        bin_dir: PathBuf::from(".bench_build/release"),
        run_dir: PathBuf::from(".bench_run"),
    };
    let mut raw = std::env::args().skip(1);
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                }
            }
            "--bin-dir" => args.bin_dir = value.into(),
            "--run-dir" => args.run_dir = value.into(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["profile-cold", "sweep-job", "trace-upload"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_string());
    }
    Ok(args)
}

/// Counts operations and checks: how many were attempted, how many
/// failed, and how many of those returned a wrong answer.
#[derive(Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
    wrong: u64,
}

impl Checks {
    /// Records one operation whose output was checked: `Err` holds why
    /// the output was wrong.
    pub fn output(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            self.wrong += 1;
            if self.wrong <= 5 {
                eprintln!("perfbench: wrong output: {why}");
            }
        }
    }

    /// Records one operation that got no answer at all.
    pub fn no_answer(&mut self, why: impl Display) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("perfbench: failed: {why}");
    }
}

/// What a `--trace 0` run measured.
pub struct Timed {
    /// Wall time of each set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// Latency of every timed op, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// CPU seconds spent during the timed ops, by every process.
    pub cpu_s: f64,
    /// Peak resident set of the largest process, in MB.
    pub peak_rss_mb: f64,
    /// Work done by the timed ops, in `work_unit`s.
    pub work: f64,
    /// Name and unit of the workload's own throughput figure, and the
    /// factor from one work unit to that unit.
    pub work_unit: (&'static str, &'static str, f64),
}

/// Per-layer metrics of a `--trace 1` run, by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Every per-layer metric with its unit, in the order printed. A layer
/// that a workload does not run reports 0: no work, no time.
const PER_LAYER: [(&str, &str); 25] = [
    ("workloads.generate_ns_per_access", "ns"),
    ("isa.execute_ns_per_access", "ns"),
    ("cachesim.access_ns", "ns"),
    ("cachesim.l1i_miss_ratio", "ratio"),
    ("cachesim.l1d_miss_ratio", "ratio"),
    ("intervals.extract_ns_per_event", "ns"),
    ("intervals.classes", "count"),
    ("prefetch.observe_ns_per_access", "ns"),
    ("prefetch.triggers_per_access", "ratio"),
    ("experiments.glue_ns_per_access", "ns"),
    ("experiments.profile_decode_ms", "ms"),
    ("core.eval_us_per_point", "us"),
    ("core.eval_ns_per_class", "ns"),
    ("jobs.checkpoint_write_ms", "ms"),
    ("jobs.checkpoint_read_ms", "ms"),
    ("jobs.render_row_ns", "ns"),
    ("jobs.fabric_share", "ratio"),
    ("server.page_read_ms", "ms"),
    ("server.chunked_decode_mb_per_s", "MB/s"),
    ("trace.stream_decode_mb_per_s", "MB/s"),
    ("intervals.streaming_ns_per_event", "ns"),
    ("intervals.peak_resident_lines", "count"),
    ("server.upload_residual_share", "ratio"),
    ("op.residual_share", "ratio"),
    ("op.tracing_overhead_share", "ratio"),
];

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The highest percentile with at least ten samples above it: returns
/// `(percentile, value)`, or `None` with eleven samples or fewer.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    (n > 11).then(|| (100.0 * (n - 10) as f64 / n as f64, sorted[n - 11]))
}

/// Seeded input generator (SplitMix64).
pub struct Rng(u64);

impl Rng {
    /// A generator for one seed and one input stream.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound` > 0).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// Nanoseconds to stream `items` from memory doing nothing with them:
/// the cost a replay pays on top of the layer it times, which the real
/// op never pays because its input arrives in cache.
pub fn stream_ns<T>(items: &[T]) -> f64 {
    let start = std::time::Instant::now();
    for item in items {
        std::hint::black_box(item);
    }
    start.elapsed().as_nanos() as f64
}

/// Counts accesses and drops them.
pub struct CountSink(pub u64);

impl leakage_trace::TraceSink for CountSink {
    fn accept(&mut self, access: leakage_trace::MemoryAccess) {
        std::hint::black_box(access);
        self.0 += 1;
    }
}

/// FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// One reported metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn run(args: &Args) -> Result<(Checks, Vec<Metric>), String> {
    let mut checks = Checks::default();
    let io = |err: std::io::Error| err.to_string();
    if args.trace {
        let layers = match args.workload.as_str() {
            "profile-cold" => profile_cold::traced(args, &mut checks)?,
            "sweep-job" => sweep_job::traced(args, &mut checks).map_err(io)?,
            _ => trace_upload::traced(args, &mut checks).map_err(io)?,
        };
        println!("per-layer metrics (0 = layer not on this workload's path):");
        let metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = layers.get(name).copied().unwrap_or(0.0);
                println!("  {name:<36} {value:>14.4} {unit}");
                (name, value, unit)
            })
            .collect();
        return Ok((checks, metrics));
    }
    let timed = match args.workload.as_str() {
        "profile-cold" => profile_cold::timed(args, &mut checks)?,
        "sweep-job" => sweep_job::timed(args, &mut checks).map_err(io)?,
        _ => trace_upload::timed(args, &mut checks).map_err(io)?,
    };
    let wall_s: f64 = timed.latencies_ms.iter().sum::<f64>() / 1e3;
    let (tail_pct, tail_ms) =
        tail(&timed.latencies_ms).ok_or("too few ops for a tail percentile")?;
    let (rate_name, rate_unit, rate_scale) = timed.work_unit;
    let work_per_s = timed.work / wall_s;
    let metrics = vec![
        ("setup_s", median(&timed.setup_s), "s"),
        ("wall_s", wall_s, "s"),
        ("cpu_s", timed.cpu_s, "s"),
        ("peak_rss_mb", timed.peak_rss_mb, "MB"),
        ("latency_p50_ms", median(&timed.latencies_ms), "ms"),
        ("latency_tail_ms", tail_ms, "ms"),
        ("work_per_s", work_per_s, "1/s"),
    ];
    let ops = timed.latencies_ms.len();
    for (name, value, unit) in &metrics {
        let note = match *name {
            "setup_s" => format!("  median of {:?}", timed.setup_s),
            "latency_tail_ms" => format!("  p{tail_pct:.1}: 10 of {ops} samples beyond"),
            _ => String::new(),
        };
        println!("  {name:<20} {value:>14.4} {unit}{note}");
    }
    println!(
        "  {rate_name:<20} {:>14.4} {rate_unit}",
        work_per_s * rate_scale
    );
    println!(
        "  {:<20} {:>14.4}  {} of {} ops",
        "failed_share",
        checks.failed as f64 / checks.attempted.max(1) as f64,
        checks.failed,
        checks.attempted
    );
    Ok((checks, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("machine: {}", sys::machine_line());
    let ticks = sys::cpu_ticks();
    let (checks, metrics) = match run(&args) {
        Ok(result) => result,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::FAILURE;
        }
    };
    let (all, stolen) = sys::cpu_ticks();
    println!(
        "  steal: {:.1}% of CPU ticks during the run went to other guests",
        100.0 * (stolen - ticks.1) as f64 / (all - ticks.0).max(1) as f64
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.wrong == 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
