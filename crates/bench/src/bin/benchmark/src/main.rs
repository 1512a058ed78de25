//! The repo benchmark: four wall-clock workloads through the durable,
//! query, transactional and replicated paths, with a per-layer ladder.
//! README.md beside this package's manifest says what each workload and
//! metric means; `BENCHMARK.json` at the repo root declares them.
//!
//! ```text
//! benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--smoke] [--out <file>]
//! benchmark compare --base <file> --change <file> [--benchmark-json <file>]
//! ```
//!
//! One invocation runs one workload in its own process, prints every
//! metric by name with its unit, checks the outputs, and prints the result
//! object as the last line of standard output. It exits 1 if a check
//! failed and 2 on a usage error.

#![forbid(unsafe_code)]

mod compare;
mod cospace;
mod flash;
mod json;
mod ladder;
mod metrics;
mod replicated;
mod trace;

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "deluge_ingest",
    "aoi_query",
    "flash_sale_txn",
    "replicated_region",
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Set up [`SETUP_REPEATS`] times, dropping each instance before the next
/// is built; returns the last instance and the median wall of a set-up.
/// The thrown-away instances' warm-ups warm the code paths.
pub fn set_up_repeatedly<T>(mut set_up: impl FnMut() -> T) -> (T, f64) {
    let mut walls = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let start = std::time::Instant::now();
        last = Some(set_up());
        walls.push(start.elapsed().as_secs_f64());
    }
    (
        last.expect("SETUP_REPEATS is at least 1"),
        metrics::median(&mut walls),
    )
}

/// The arguments of one workload run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// Target length of the measured phase; sizes scale with it.
    pub seconds: u64,
    /// Also run the traced pass and report the per-layer metrics.
    pub trace: bool,
    /// Shrink every size about 20× (tests).
    pub smoke: bool,
    /// Where the traced pass writes its spans; `None` writes nothing.
    pub spans_dir: Option<PathBuf>,
}

/// Write the traced pass's spans as JSONL, if the run asked for a file.
pub fn write_spans(args: &RunArgs, tracer: &trace::Tracer) {
    let Some(dir) = &args.spans_dir else { return };
    let path = dir.join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => println!(
            "# {} spans written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("benchmark: cannot write {}: {e}", path.display()),
    }
}

/// Print the layers of the traced pass ranked by self time.
pub fn print_self_times(tracer: &trace::Tracer) {
    let mut totals = tracer.totals();
    totals.sort_by(|a, b| b.self_s.total_cmp(&a.self_s));
    let all: f64 = totals.iter().map(|t| t.self_s).sum();
    println!("# self time by span name (traced pass):");
    for t in &totals {
        println!(
            "#   {:<34} {:>9.4} s self {:>5.1}%  {:>9.4} s total  {:>9} calls",
            t.name,
            t.self_s,
            100.0 * metrics::ratio(t.self_s, all),
            t.total_s,
            t.calls
        );
    }
}

fn run_workload(args: &RunArgs) -> Option<metrics::Report> {
    match args.workload.as_str() {
        "deluge_ingest" => Some(cospace::run(cospace::DELUGE_INGEST, args)),
        "aoi_query" => Some(cospace::run(cospace::AOI_QUERY, args)),
        "flash_sale_txn" => Some(flash::run(args)),
        "replicated_region" => Some(replicated::run(args)),
        _ => None,
    }
}

const USAGE: &str = "usage:
  benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--smoke] [--out <file>]
  benchmark compare --base <file> --change <file> [--benchmark-json <file>]
workloads: deluge_ingest aoi_query flash_sale_txn replicated_region";

/// `--flag value` pairs and bare flags of a command line.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, flag: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

fn run_command(flags: &Flags) -> Result<ExitCode, String> {
    let number = |flag: &str| -> Result<u64, String> {
        flags
            .value(flag)
            .and_then(|v| v.parse().ok())
            .ok_or(format!("{flag} needs a whole number\n{USAGE}"))
    };
    let args = RunArgs {
        workload: flags
            .value("--workload")
            .ok_or(format!("--workload is missing\n{USAGE}"))?
            .to_string(),
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace: match flags.value("--trace") {
            Some("0") | None => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace takes 0 or 1, not {other}\n{USAGE}")),
        },
        smoke: flags.has("--smoke"),
        spans_dir: Some(PathBuf::from("target/benchmark")),
    };
    let report =
        run_workload(&args).ok_or(format!("unknown workload {}\n{USAGE}", args.workload))?;
    let defs = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    print!("{}", report.listing(defs));
    for note in &report.failures {
        println!("# FAILED CHECK: {note}");
    }
    let result = report.result_json(defs);
    if let Some(path) = flags.value("--out") {
        let line = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"result\": {result}}}\n",
            args.workload,
            args.seed,
            u8::from(args.trace)
        );
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(line.as_bytes()))
            .map_err(|e| format!("cannot append to {path}: {e}"))?;
    }
    println!("{result}");
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn compare_command(flags: &Flags) -> Result<ExitCode, String> {
    let read = |flag: &str, default: Option<&str>| -> Result<String, String> {
        let path = flags
            .value(flag)
            .or(default)
            .ok_or(format!("{flag} is missing\n{USAGE}"))?;
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
    };
    let (table, regressed) = compare::compare(
        &read("--benchmark-json", Some("BENCHMARK.json"))?,
        &read("--base", None)?,
        &read("--change", None)?,
    )?;
    print!("{table}");
    Ok(if regressed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if argv.first().map(String::as_str) == Some("compare") {
        argv.remove(0);
        compare_command(&Flags(argv))
    } else {
        run_command(&Flags(argv))
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("benchmark: {message}");
        ExitCode::from(2)
    })
}
