//! The repository's benchmark: two seeded workloads, timed end to end
//! and, in a traced run, layer by layer around the public calls of
//! congest-graph, congest-sim, congest-mis, congest-approx and
//! congest-service.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload luby-1m|svc-mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Every answer is checked outside the timed intervals. Human-readable
//! lines come first; the last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`.

// Measuring wall time and reading the command line are this program's
// job; the workspace's clippy.toml bans both for protocol code.
#![allow(clippy::disallowed_methods)]

mod engine;
mod host;
mod report;
mod stats;
mod svc;
mod trace;

use std::path::PathBuf;
use std::time::Duration;

use host::Host;
use trace::Tracer;

const USAGE: &str =
    "usage: perfbench --workload luby-1m|svc-mixed --seed N --seconds S --trace 0|1";

/// Each run sets its workload up this many times and reports the median
/// set-up time; the last set-up is the one the timed window uses.
pub const SETUP_REPS: usize = 3;

/// Parsed command line.
pub struct Args {
    /// Which workload to run.
    pub workload: String,
    /// Seeds every input of the run.
    pub seed: u64,
    /// Length of the timed window.
    pub window: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 30, false);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or(format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: not a number: {value}"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = number()?,
                "--seconds" => seconds = number()?,
                "--trace" => trace = number()? != 0,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            window: Duration::from_secs(seconds.max(1)),
            trace,
        })
    }
}

/// The `stream`-th independent seed derived from the run's seed
/// (SplitMix64 finaliser), so inputs, op seeds and draws never share a
/// stream.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let host = Host::probe();
    let mut tr = Tracer::new(args.trace);
    let mut report = match args.workload.as_str() {
        "luby-1m" => engine::luby_1m(&args, &mut tr),
        "svc-mixed" => svc::svc_mixed(&args, &mut tr),
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    report.layer("host.load_1m", host.load_1m);
    println!(
        "# perfbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.window.as_secs(),
        u8::from(args.trace)
    );
    println!("{}", host.describe());
    if args.trace {
        let self_time = tr.self_time_by_layer();
        for (layer, metric) in report::SELF_TIME {
            let s = self_time.get(layer).copied().unwrap_or_default();
            report.layer(metric, s.as_secs_f64());
        }
        report.layer("trace.spans", tr.len() as f64);
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match tr.write_jsonl(&path) {
            Ok(()) => println!("trace: {} spans in {}", tr.len(), path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    for line in report.lines(args.trace) {
        println!("{line}");
    }
    println!("{}", report.json(args.trace));
}
