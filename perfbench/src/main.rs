//! The repository benchmark: four workloads through `OnlinePmw`,
//! `pmw-serve` and `Mwem`, with per-layer attribution.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <online-write|serve-read|mwem-release|online-dense> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` repeats untraced passes for `--seconds` and reports the
//! end-to-end metrics; `--trace 1` alternates untraced and traced passes
//! and reports the per-layer metrics. Either way the last line of standard
//! output is one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`; the line before it is a fuller report with the run's
//! context, every applicable metric and its sample count. See `README.md`.

mod heap;
mod layers;
mod stats;
mod timed;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;
use trace::{TraceData, Tracer};
use workloads::{FreshInputs, Pass, Workload};

/// The end-to-end metrics every workload reports on its last line: the
/// ones `BENCHMARK.json` bounds. The report line carries the rest.
const END_TO_END: &[&str] = &["setup_s", "answers_per_s", "peak_rss_mb", "program_rss_mb"];

const WORKLOADS: &[&str] = &["online-write", "serve-read", "mwem-release", "online-dense"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => match value.as_str() {
                "0" => args.trace = false,
                "1" => args.trace = true,
                _ => return Err(bad()),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn make(workload: &str, seed: u64) -> Box<dyn Workload> {
    match workload {
        "online-write" => Box::new(FreshInputs::new(seed, workloads::online::OnlineWrite::new)),
        "serve-read" => Box::new(FreshInputs::new(seed, workloads::serve::ServeRead::new)),
        "mwem-release" => Box::new(FreshInputs::new(seed, workloads::mwem::MwemRelease::new)),
        "online-dense" => Box::new(FreshInputs::new(seed, workloads::dense::OnlineDense::new)),
        _ => unreachable!("validated in parse_args"),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    heap::configure();
    let inputs_start = Instant::now();
    let mut workload = make(&args.workload, args.seed);
    let inputs_s = inputs_start.elapsed().as_secs_f64();
    let run = if args.trace {
        traced_run(
            workload.as_mut(),
            args.seconds,
            &format!("{}-seed{}", args.workload, args.seed),
        )
    } else {
        timed_run(workload.as_mut(), args.seconds)
    };

    let mut report = String::new();
    let _ = write!(
        report,
        "{{\"report\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"inputs_s\":{inputs_s},\"context\":{},\"passes\":{},\"traced_passes\":{},\
         \"setup_sample_s\":{:?},\"pass_s\":{:?},\"attempted\":{},\"failed\":{},\"answered\":{},\"updates\":{},\
         \"metrics\":{},\
         \"check_failures\":{}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        context_json(args.seed),
        run.passes,
        run.traced_passes,
        run.setup_sample_s,
        run.pass_s,
        run.attempted,
        run.failed,
        run.answered,
        run.updates,
        metrics_json(&run.report, true),
        json_strings(&run.check_failures),
    );
    println!("{report}");
    let declared: Vec<Metric> = if args.trace {
        layers::PER_LAYER
            .iter()
            .map(|&(name, _)| run.metric(name))
            .collect()
    } else {
        END_TO_END.iter().map(|&name| run.metric(name)).collect()
    };
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        run.check_failures.is_empty(),
        run.attempted,
        run.failed,
        metrics_json(&declared, false)
    );
}

/// One named metric with its unit and the sample count behind it.
#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: usize,
}

#[derive(Default)]
struct Run {
    passes: usize,
    traced_passes: usize,
    attempted: u64,
    failed: u64,
    answered: u64,
    updates: u64,
    /// Mean per-build time of each set-up sample.
    setup_sample_s: Vec<f64>,
    /// Answer-phase wall time of every pass, in run order.
    pass_s: Vec<f64>,
    report: Vec<Metric>,
    check_failures: Vec<String>,
}

impl Run {
    fn metric(&self, name: &str) -> Metric {
        self.report
            .iter()
            .find(|m| m.name == name)
            .cloned()
            .unwrap_or_else(|| panic!("metric {name} was not measured"))
    }

    fn push(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        self.report.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    fn absorb(&mut self, pass: &Pass) {
        self.attempted += pass.attempted;
        self.failed += pass.failed;
        self.answered += pass.answered;
        self.updates += pass.updates;
        self.pass_s.push(pass.wall_s);
        self.check_failures
            .extend(pass.check_failures.iter().cloned());
    }
}

/// Passes until `seconds` of wall time have gone, at least `min` of them.
fn passes_for(seconds: f64, min: u64, mut body: impl FnMut(u64)) -> u64 {
    let start = Instant::now();
    let mut pass = 0;
    while pass < min || start.elapsed().as_secs_f64() < seconds {
        body(pass);
        pass += 1;
    }
    pass
}

/// Set-up is sampled in the gaps between passes: after the warm-up pass
/// and after every measured pass, `PER_GAP` batches of builds, each
/// batch lasting at least `BATCH_S` so that no timing is a single
/// sub-millisecond build. Sample `j` pools batch `j` of every gap, so each
/// sample spans the whole run. The host's speed shifts between two levels
/// (up to 1.7× apart) that each persist for a second or more; a sample
/// taken inside one gap would sit at one level, and the median of such
/// samples would jump between levels from run to run. No batch runs
/// before the warm-up pass: in a process that has run no pass yet, the
/// first builds ran up to 2.7× slower.
struct SetupSampler {
    batch: u64,
    rep: u64,
    /// Per sample: total build time and builds so far.
    samples: Vec<(f64, u64)>,
}

impl SetupSampler {
    const PER_GAP: usize = 6;
    const BATCH_S: f64 = 0.025;

    /// Double the batch from one build until a batch lasts `BATCH_S`.
    /// These calibration builds are not reported.
    fn new(workload: &mut dyn Workload) -> Self {
        let mut sampler = Self {
            batch: 1,
            rep: 0,
            samples: vec![(0.0, 0); Self::PER_GAP],
        };
        while sampler.time_batch(workload) < Self::BATCH_S {
            sampler.batch *= 2;
        }
        sampler
    }

    fn time_batch(&mut self, workload: &mut dyn Workload) -> f64 {
        let start = self.rep;
        self.rep += self.batch;
        (start..self.rep).map(|rep| workload.setup(rep)).sum()
    }

    /// One gap: one batch into every sample.
    fn gap(&mut self, workload: &mut dyn Workload) {
        for j in 0..Self::PER_GAP {
            let elapsed = self.time_batch(workload);
            self.samples[j].0 += elapsed;
            self.samples[j].1 += self.batch;
        }
    }

    /// Mean build time of every sample, in seconds.
    fn per_build(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|&(total, builds)| total / builds as f64)
            .collect()
    }
}

/// `--trace 0`: one warm-up pass, then untraced passes until `seconds`
/// are spent, with set-up samples after each; every end-to-end metric.
fn timed_run(workload: &mut dyn Workload, seconds: f64) -> Run {
    let start = Instant::now();
    // The warm-up pass brings the allocator and caches to a steady state.
    // Its output checks count; nothing else from it does.
    let warm_up = workload.pass(0, None);
    let mut setup = SetupSampler::new(workload);
    setup.gap(workload);
    let mut run = Run::default();
    run.check_failures.extend(
        warm_up
            .check_failures
            .iter()
            .map(|f| format!("warm-up: {f}")),
    );
    if warm_up.failed > 0 {
        run.check_failures
            .push(format!("warm-up: {} requests failed", warm_up.failed));
    }
    drop(warm_up);
    let mut passes = Vec::new();
    let remaining = seconds - start.elapsed().as_secs_f64();
    passes_for(remaining, 3, |i| {
        let mut pass = workload.pass(i + 1, None);
        workload.score(i + 1, &mut pass);
        passes.push(pass);
        setup.gap(workload);
    });
    for p in &passes {
        run.absorb(p);
    }
    let setups = setup.per_build();
    run.passes = passes.len();
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let answers: usize = passes.iter().map(|p| p.latencies_ms.len()).sum();
    let errors: Vec<f64> = passes.iter().flat_map(|p| p.errors.clone()).collect();
    let nan = f64::NAN;
    run.push(
        "setup_s",
        "s",
        stats::median(&setups).unwrap_or(nan),
        setup
            .samples
            .iter()
            .map(|&(_, builds)| builds as usize)
            .sum(),
    );
    run.setup_sample_s = setups;
    // Throughput is taken per pass and medianed, so a pass slowed by a
    // host episode moves it little.
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| p.answered as f64 / p.wall_s)
        .collect();
    run.push(
        "answers_per_s",
        "1/s",
        stats::median(&rates).unwrap_or(nan),
        rates.len(),
    );
    // Latency percentiles are taken within each pass and then medianed
    // across passes, so a minority of passes slowed by the host moves
    // them little.
    let per_pass = |q: f64, tail: bool| -> Option<f64> {
        let values: Option<Vec<f64>> = passes
            .iter()
            .map(|p| {
                if tail {
                    stats::tail_percentile(&p.latencies_ms, q)
                } else {
                    stats::percentile(&p.latencies_ms, q)
                }
            })
            .collect();
        stats::median(&values?)
    };
    run.push(
        "answer_p50_ms",
        "ms",
        per_pass(0.5, false).unwrap_or(nan),
        answers,
    );
    run.push(
        "answer_p90_ms",
        "ms",
        per_pass(0.9, false).unwrap_or(nan),
        answers,
    );
    if let Some(p99) = per_pass(0.99, true) {
        run.push("answer_p99_ms", "ms", p99, answers);
    }
    run.push(
        "release_s",
        "s",
        stats::median(&walls).unwrap_or(nan),
        walls.len(),
    );
    run.push(
        "err_max",
        "loss",
        errors.iter().copied().fold(0.0, f64::max),
        errors.len(),
    );
    run.push(
        "err_mean",
        "loss",
        stats::mean(&errors).unwrap_or(nan),
        errors.len(),
    );
    run.push(
        "update_share",
        "ratio",
        run.updates as f64 / run.answered.max(1) as f64,
        run.answered as usize,
    );
    run.push(
        "failed_frac",
        "ratio",
        run.failed as f64 / run.attempted.max(1) as f64,
        run.attempted as usize,
    );
    // Memory is a per-pass peak, medianed over passes like the timings.
    let median_of = |f: fn(&Pass) -> f64| {
        let values: Vec<f64> = passes.iter().map(f).collect();
        stats::median(&values).unwrap_or(nan)
    };
    run.push(
        "peak_rss_mb",
        "MB",
        median_of(|p| p.peak_rss_mb),
        passes.len(),
    );
    run.push(
        "program_rss_mb",
        "MB",
        median_of(|p| p.peak_rss_mb - p.base_rss_mb),
        passes.len(),
    );
    let repeats: Vec<f64> = passes.iter().filter_map(|p| p.repeat_share).collect();
    if let Some(share) = stats::mean(&repeats) {
        run.push("repeat_share", "ratio", share, repeats.len());
    }
    run
}

/// `--trace 1`: untraced and traced passes alternate with the same pass
/// index (so the same program randomness); every per-layer metric.
fn traced_run(workload: &mut dyn Workload, seconds: f64, trace_name: &str) -> Run {
    let mut run = Run::default();
    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut layer_sums: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut ess_min = f64::INFINITY;
    let mut last_trace = TraceData::default();
    let sequential = workload.sequential();
    let pairs = passes_for(seconds, 1, |i| {
        // Alternate which side runs first, so warm-up favours neither.
        let tracer = Arc::new(Tracer::new());
        let (plain, mut traced) = if i % 2 == 0 {
            let plain = workload.pass(i, None);
            (plain, workload.pass(i, Some(&tracer)))
        } else {
            let traced = workload.pass(i, Some(&tracer));
            (workload.pass(i, None), traced)
        };
        let data = tracer.finish();
        if sequential {
            traced.check(bits(&plain.answers) == bits(&traced.answers), || {
                format!("pass {i}: traced answers differ from untraced answers")
            });
        }
        untraced_walls.push(plain.wall_s);
        traced_walls.push(traced.wall_s);
        let mut layer = layers::from_trace(&data);
        layer.extend(traced.layer_extra.iter().map(|(k, v)| (*k, *v)));
        for (name, value) in layer {
            if name == "sketch.ess_min" {
                if value > 0.0 {
                    ess_min = ess_min.min(value);
                }
            } else {
                *layer_sums.entry(name).or_insert(0.0) += value;
            }
        }
        run.absorb(&plain);
        run.absorb(&traced);
        last_trace = data;
    });
    run.passes = 2 * pairs as usize;
    run.traced_passes = pairs as usize;
    let per_pass = pairs as f64;
    for &(name, unit) in layers::PER_LAYER {
        let value = match name {
            "sketch.ess_min" => {
                if ess_min.is_finite() {
                    ess_min
                } else {
                    0.0
                }
            }
            "trace.overhead_frac" => {
                let plain = stats::median(&untraced_walls).unwrap_or(f64::NAN);
                let traced = stats::median(&traced_walls).unwrap_or(f64::NAN);
                traced / plain - 1.0
            }
            _ => layer_sums.get(name).copied().unwrap_or(0.0) / per_pass,
        };
        run.push(name, unit, value, pairs as usize);
    }
    if let Err(e) = write_trace(&last_trace, trace_name) {
        eprintln!("perfbench: could not write the span trace: {e}");
    }
    run
}

fn bits(answers: &[Vec<f64>]) -> Vec<Vec<u64>> {
    answers
        .iter()
        .map(|a| a.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// Spans of the last traced pass, one JSON object a line, to
/// `perfbench/traces/<name>.jsonl`.
fn write_trace(data: &TraceData, name: &str) -> std::io::Result<()> {
    let dir = std::path::Path::new("perfbench").join("traces");
    std::fs::create_dir_all(&dir)?;
    let file = std::fs::File::create(dir.join(format!("{name}.jsonl")))?;
    let mut out = std::io::BufWriter::new(file);
    data.write_jsonl(&mut out)?;
    std::io::Write::flush(&mut out)
}

/// Where and how the run happened: core counts, the worker count the
/// program's parallel sweeps use, and the source revision.
fn context_json(seed: u64) -> String {
    let available = std::thread::available_parallelism().map_or(1, usize::from);
    let nproc = command_stdout("nproc", &[]).unwrap_or_else(|| "null".to_string());
    let pmw_threads = std::env::var("PMW_THREADS")
        .map(|v| format!("\"{}\"", v.replace('"', "")))
        .unwrap_or_else(|_| "null".to_string());
    // Only a checkout that is itself a git work tree names its revision;
    // `git` would otherwise report an enclosing repository's.
    let rev = if std::path::Path::new(".git").exists() {
        command_stdout("git", &["rev-parse", "HEAD"])
    } else {
        None
    }
    .map_or("null".to_string(), |r| format!("\"{r}\""));
    format!(
        "{{\"nproc\":{nproc},\"available_parallelism\":{available},\"pmw_threads\":{pmw_threads},\
         \"workers\":{},\"git_rev\":{rev},\"seed\":{seed}}}",
        pmw_data::par::threads()
    )
}

fn command_stdout(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn metrics_json(metrics: &[Metric], with_samples: bool) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_string()
            };
            if with_samples {
                format!(
                    "\"{}\":{{\"value\":{value},\"unit\":\"{}\",\"samples\":{}}}",
                    m.name, m.unit, m.samples
                )
            } else {
                format!(
                    "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                    m.name, m.unit
                )
            }
        })
        .collect();
    format!("{{{}}}", items.join(","))
}

fn json_strings(items: &[String]) -> String {
    let quoted: Vec<String> = items
        .iter()
        .map(|s| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    format!("[{}]", quoted.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::Pass;

    /// Set-up costs `cost[gap]` per build in the gap's batches; one batch
    /// reaches `BATCH_S` only once the batch holds 4 builds.
    struct Steps {
        costs: Vec<f64>,
        gap: usize,
    }

    impl Workload for Steps {
        fn pass(&mut self, _: u64, _: Option<&Arc<Tracer>>) -> Pass {
            Pass::default()
        }
        fn score(&mut self, _: u64, _: &mut Pass) {}
        fn setup(&mut self, _: u64) -> f64 {
            self.costs[self.gap]
        }
        fn sequential(&self) -> bool {
            true
        }
    }

    #[test]
    fn setup_samples_pool_one_batch_of_every_gap() {
        let per_build = SetupSampler::BATCH_S / 4.0;
        let mut w = Steps {
            costs: vec![per_build, 3.0 * per_build, 2.0 * per_build],
            gap: 0,
        };
        let mut sampler = SetupSampler::new(&mut w);
        assert_eq!(sampler.batch, 4);
        for gap in 0..3 {
            w.gap = gap;
            sampler.gap(&mut w);
        }
        let samples = sampler.per_build();
        assert_eq!(samples.len(), SetupSampler::PER_GAP);
        for s in samples {
            // Every sample is the mean over the three gaps, not one gap's level.
            assert!((s - 2.0 * per_build).abs() < 1e-12, "{s}");
        }
        let builds: u64 = sampler.samples.iter().map(|&(_, b)| b).sum();
        assert_eq!(builds, 3 * 4 * SetupSampler::PER_GAP as u64);
    }
}
