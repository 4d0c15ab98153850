//! `diffbench-probe`: the compiled half of the DiffCode benchmark.
//! `diffbench/run.py` runs the workloads and calls this binary for the
//! parts that need the repository's crates in-process:
//!
//! ```text
//! diffbench-probe cold  --seed S --projects N --seconds T [--funnel-only]
//! diffbench-probe warm  --seed S --projects N --seconds T --dir D
//! diffbench-probe serve-load   --seed S --projects N --seconds T --addr A
//!                              --connections C --samples FILE
//! diffbench-probe serve-replay --seed S --projects N --count K
//!                              --untraced-dir A --traced-dir B
//! diffbench-probe calibrate --threads T
//! ```
//!
//! Each command prints `METRICS {..}` and/or `COUNTS {..}` lines of
//! flat JSON; `serve-load` also writes one `kind status latency_ns`
//! line per request to FILE; `calibrate` prints `CALIBRATE <seconds>`,
//! the wall-clock of the host-speed reference kernel. Output-check
//! failures go to stderr and make the command exit 1.

mod calibrate;
mod layers;
mod load;
mod stats;

use stats::{median_of_passes, to_json, Metrics};
use std::collections::HashMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

struct Args(HashMap<String, String>);

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut map = HashMap::new();
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
            let value = if key == "funnel-only" {
                String::new()
            } else {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("--{key} needs a value"))?
            };
            map.insert(key.to_owned(), value);
        }
        Ok(Args(map))
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.0
            .get(key)
            .ok_or_else(|| format!("missing --{key}"))?
            .parse()
            .map_err(|_| format!("bad value for --{key}"))
    }

    fn flag(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }
}

/// Repeats `pass` until `seconds` have passed (at least once) and
/// folds the passes into medians.
fn repeat(seconds: f64, mut pass: impl FnMut(usize) -> (Metrics, Metrics)) -> (Metrics, Metrics) {
    let start = Instant::now();
    let mut passes = Vec::new();
    let mut counts = Metrics::new();
    while passes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let (m, c) = pass(passes.len());
        if !counts.is_empty() && counts != c {
            eprintln!("counts differ between passes: {counts:?} vs {c:?}");
            std::process::exit(1);
        }
        counts = c;
        passes.push(m);
    }
    let mut metrics = median_of_passes(&passes);
    metrics.insert("traced.passes".into(), passes.len() as f64);
    (metrics, counts)
}

fn run(command: &str, args: &Args) -> Result<bool, String> {
    if command == "calibrate" {
        println!("CALIBRATE {}", calibrate::run(args.get("threads")?));
        return Ok(true);
    }
    let seed: u64 = args.get("seed")?;
    let projects: usize = args.get("projects")?;
    match command {
        "cold" => {
            if args.flag("funnel-only") {
                let (_, counts) = layers::cold_pass(seed, projects, false);
                println!("COUNTS {}", to_json(&counts));
            } else {
                let (metrics, counts) = repeat(args.get("seconds")?, |_| {
                    layers::cold_pass(seed, projects, true)
                });
                println!("METRICS {}", to_json(&metrics));
                println!("COUNTS {}", to_json(&counts));
            }
            Ok(true)
        }
        "warm" => {
            let dir: PathBuf = args.get("dir")?;
            let (metrics, counts) = repeat(args.get("seconds")?, |k| {
                let pass_dir = dir.join(format!("pass-{k}"));
                let out = layers::warm_pass(seed, projects, &pass_dir);
                let _ = std::fs::remove_dir_all(&pass_dir);
                out
            });
            println!("METRICS {}", to_json(&metrics));
            println!("COUNTS {}", to_json(&counts));
            Ok(true)
        }
        "serve-load" => serve_load(seed, projects, args),
        "serve-replay" => {
            let metrics = layers::serve_pass(
                seed,
                projects,
                args.get("count")?,
                &args.get::<PathBuf>("untraced-dir")?,
                &args.get::<PathBuf>("traced-dir")?,
            );
            println!("METRICS {}", to_json(&metrics));
            Ok(true)
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

fn serve_load(seed: u64, projects: usize, args: &Args) -> Result<bool, String> {
    let addr: std::net::SocketAddr = args.get("addr")?;
    let samples_path: PathBuf = args.get("samples")?;
    let primed = corpus::generate(&corpus::GeneratorConfig::small(projects, seed));
    let plan = load::Plan::new(seed, projects, primed);
    let mut ok = true;
    if let Err(e) = load::check_figure2(addr) {
        eprintln!("check failed: {e}");
        ok = false;
    }
    let (samples, load_s) =
        load::closed_loop(addr, &plan, args.get("connections")?, args.get("seconds")?);
    let mut out = String::new();
    for s in &samples {
        out.push_str(&format!(
            "{} {} {}\n",
            s.req.kind(),
            s.status,
            s.latency.as_nanos()
        ));
    }
    std::fs::write(&samples_path, out).map_err(|e| format!("{}: {e}", samples_path.display()))?;
    let mut expected = HashMap::new();
    let mut check_failures = 0usize;
    for s in &samples {
        if let Err(e) = load::check_sample(&plan, s, &mut expected) {
            if check_failures < 5 {
                eprintln!("check failed: {e}");
            }
            check_failures += 1;
        }
    }
    let counts = Metrics::from([
        ("sent".to_owned(), samples.len() as f64),
        ("check_failures".to_owned(), check_failures as f64),
        ("load_s".to_owned(), load_s),
    ]);
    println!("COUNTS {}", to_json(&counts));
    Ok(ok && check_failures == 0)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = raw.split_first() else {
        eprintln!(
            "usage: diffbench-probe <cold|warm|serve-load|serve-replay|calibrate> --flag value ..."
        );
        return ExitCode::from(2);
    };
    let result = Args::parse(rest).and_then(|args| run(command, &args));
    let _ = std::io::stdout().flush();
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("diffbench-probe: {e}");
            ExitCode::from(2)
        }
    }
}
