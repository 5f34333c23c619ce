//! The repository benchmark: three workloads, end-to-end metrics with
//! tracing off, per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <search-w1|sweep-gen96|serve-durable> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- --regen-pins
//! ```
//!
//! Run from the repository root.  The last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`; the line
//! before it stamps the host.  Every rep's outcome is checked against the
//! digests pinned in `perfbench/pins.json` (regenerate them with
//! `--regen-pins`).  The metric catalogue is `perfbench/METRICS.md`.

mod layers;
mod pins;
mod workloads;

use nasaic_core::scenario::value::{to_json_compact, ConfigValue};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Workload inputs cycle through this many pinned seeds: `--seed n` runs
/// input seed `n % PINNED_SEEDS`, so every run has a pinned outcome.
pub const PINNED_SEEDS: u64 = 32;

/// Scratch directory (relative to the checkout root) for the durable
/// daemon's state and the layer pass's checkpoint files; removed on exit.
pub const STATE_ROOT: &str = ".bench_state";

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["search-w1", "sweep-gen96", "serve-durable"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    regen_pins: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        regen_pins: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--regen-pins" => args.regen_pins = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !args.regen_pins && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// One metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a workload run hands back to `main`.
pub struct RunResult {
    /// Operations attempted: searches for the search workloads, jobs for
    /// `serve-durable`.
    pub attempted: u64,
    /// Failed, rejected or wrong-outcome operations.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Engine worker threads of the measured runs (for the host stamp).
    pub engine_threads: usize,
    /// Timed reps behind the metrics.
    pub reps: usize,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    if args.regen_pins {
        return match pins::regenerate() {
            Ok(path) => {
                println!("wrote {path}");
                ExitCode::SUCCESS
            }
            Err(message) => {
                eprintln!("perfbench: {message}");
                ExitCode::FAILURE
            }
        };
    }
    let pins = match pins::Pins::load() {
        Ok(pins) => pins,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::FAILURE;
        }
    };
    let input_seed = args.seed % PINNED_SEEDS;
    let budget = Duration::from_secs_f64(args.seconds);
    let outcome = workloads::run(&args.workload, input_seed, budget, args.trace, &pins);
    let _ = std::fs::remove_dir_all(STATE_ROOT);
    let result = match outcome {
        Ok(result) => result,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{}",
        to_json_compact(&host_stamp(&args, input_seed, &result))
    );
    let mut metrics = ConfigValue::table();
    for m in &result.metrics {
        let mut entry = ConfigValue::table();
        entry.insert("value", ConfigValue::Float(m.value));
        entry.insert("unit", ConfigValue::Str(m.unit.to_string()));
        metrics.insert(m.name, entry);
    }
    let mut line = ConfigValue::table();
    line.insert("correct", ConfigValue::Bool(result.failed == 0));
    line.insert("attempted", ConfigValue::Integer(result.attempted as i64));
    line.insert("failed", ConfigValue::Integer(result.failed as i64));
    line.insert("metrics", metrics);
    println!("{}", to_json_compact(&line));
    ExitCode::SUCCESS
}

/// The host fields stamped into every result: a number is only comparable
/// with one taken on the same cores, toolchain, revision and build.
fn host_stamp(args: &Args, input_seed: u64, result: &RunResult) -> ConfigValue {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let mut host = ConfigValue::table();
    host.insert("nproc", ConfigValue::Integer(nproc as i64));
    host.insert(
        "rustc",
        ConfigValue::Str(command_line("rustc", &["--version"])),
    );
    host.insert(
        "git_rev",
        ConfigValue::Str(command_line("git", &["rev-parse", "--short", "HEAD"])),
    );
    host.insert(
        "profile",
        ConfigValue::Str(
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
    );
    host.insert(
        "engine_threads",
        ConfigValue::Integer(result.engine_threads as i64),
    );
    host.insert("date", ConfigValue::Str(today_utc()));
    let mut stamp = ConfigValue::table();
    stamp.insert("host", host);
    stamp.insert("workload", ConfigValue::Str(args.workload.clone()));
    stamp.insert("seed", ConfigValue::Integer(args.seed as i64));
    stamp.insert("input_seed", ConfigValue::Integer(input_seed as i64));
    stamp.insert("trace", ConfigValue::Bool(args.trace));
    stamp.insert("reps", ConfigValue::Integer(result.reps as i64));
    stamp
}

/// First line of a command's standard output, or `unknown` when the
/// command is missing or fails (the benchmark checkout need not be a git
/// repository).
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Today's UTC date as `YYYY-MM-DD` (civil-from-days over the Unix epoch).
fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The `q`-quantile of `values`, interpolated linearly between the two
/// nearest ranks (`q = 0.5` is the mean of the middle pair for even
/// counts).  A few dozen samples make a nearest-rank quantile jump from
/// one sample to the next; the interpolated one moves smoothly.  Empty
/// input gives 0.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Time `f` `times` times and return the median wall in seconds.
pub fn median_setup_s(
    times: usize,
    mut f: impl FnMut() -> Result<(), String>,
) -> Result<f64, String> {
    let mut walls = Vec::with_capacity(times);
    for _ in 0..times {
        let start = Instant::now();
        f()?;
        walls.push(start.elapsed().as_secs_f64());
    }
    Ok(median(&walls))
}

/// Keep running reps until the next one would overrun `budget` (at least
/// `min_reps`); returns each rep's result.
pub fn timed_reps<R: HasWall>(
    budget: Duration,
    min_reps: usize,
    mut rep: impl FnMut() -> Result<R, String>,
) -> Result<Vec<R>, String> {
    let start = Instant::now();
    let mut results: Vec<R> = Vec::new();
    loop {
        results.push(rep()?);
        let walls: Vec<f64> = results.iter().map(HasWall::wall_s).collect();
        let next = Duration::from_secs_f64(median(&walls));
        if results.len() >= min_reps && start.elapsed() + next > budget {
            return Ok(results);
        }
    }
}

/// A rep result with a measured wall time.
pub trait HasWall {
    fn wall_s(&self) -> f64;
}
