//! `skybench`: the repository's benchmark. Run it from the root of a
//! checkout:
//!
//! ```text
//! cargo run --release --manifest-path skybench/Cargo.toml -- \
//!     --workload build|read|mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! It builds the `skycube` binary from source, generates the workload's
//! data from the seed, and drives the binary from outside: `skycube build`
//! child processes and a `skycube serve` daemon over TCP. With `--trace 0`
//! it prints the end-to-end metrics; with `--trace 1` it calls each layer's
//! public function in process on the same inputs and prints per-layer
//! metrics. Every answer is checked; the last stdout line is one JSON
//! object. See `NOTES.md` for the workloads and metric definitions.

mod check;
mod loadgen;
mod process;
mod stats;
mod trace;
mod workload;

use loadgen::{Gen, Phase};
use process::Server;
use stats::{median, percentile, Metrics};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;
use workload::{Kind, Model, Rng, Spec};

/// At least this many daemon spawns per run; `setup_s` is their median.
const MIN_SETUPS: usize = 3;

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    Ok(Args {
        spec: Spec::by_name(&name)
            .ok_or_else(|| format!("unknown workload {name:?} (build, read, mixed)"))?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// A scratch directory inside the checkout, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(args: &Args) -> Result<WorkDir, String> {
        let dir = PathBuf::from(".bench_work").join(format!(
            "{}-{}-{}",
            args.spec.name,
            args.seed,
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// What one run reports: its outcome counts and metrics.
struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("skybench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            println!(
                "{}",
                stats::result_line(true, outcome.attempted, outcome.failed, &outcome.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(Failure::Wrong(e)) => {
            eprintln!("skybench: WRONG ANSWER: {e}");
            println!("{}", stats::result_line(false, 1, 1, &Metrics::default()));
            ExitCode::FAILURE
        }
        Err(Failure::Error(e)) => {
            eprintln!("skybench: {e}");
            ExitCode::FAILURE
        }
    }
}

enum Failure {
    /// The program answered wrongly.
    Wrong(String),
    /// The run could not be completed or measured.
    Error(String),
}

impl From<String> for Failure {
    fn from(e: String) -> Failure {
        Failure::Error(e)
    }
}

fn run(args: &Args) -> Result<Outcome, Failure> {
    let bin = process::build_program()?;
    let work = WorkDir::new(args)?;
    let spec = &args.spec;
    let ds = spec.dataset();
    let csv = work.path("data.csv");
    skycube_datagen::save_csv(&ds, &csv).map_err(|e| format!("writing {}: {e}", csv.display()))?;
    println!(
        "# workload {} seed {} seconds {} trace {}: {} n={} d={} on {} cores",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        spec.dist.name(),
        spec.count,
        spec.dims,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let outcome = if args.trace {
        trace::run(args, &bin, &work, &ds, &csv)?
    } else {
        end_to_end(args, &bin, &work, &ds, &csv)?
    };
    for (name, value, _) in &outcome.metrics.0 {
        if !value.is_finite() {
            return Err(Failure::Error(format!(
                "metric {name} is not a finite number"
            )));
        }
    }
    print!("{}", outcome.metrics.table());
    Ok(outcome)
}

/// One batch of `skycube build` runs on the workload's data, half of the
/// run's build budget: `(wall seconds, peak RSS MiB)` each, and the
/// written cube. A run takes two batches, one before the serving phases
/// and one after, so that `build_s` does not rest on one stretch of time.
fn builds(
    args: &Args,
    bin: &Path,
    work: &WorkDir,
    csv: &Path,
) -> Result<(Vec<(f64, f64)>, PathBuf), String> {
    let out = work.path("cube.bin");
    let budget = args.spec.build_share * args.seconds / 2.0;
    let started = std::time::Instant::now();
    let mut runs = Vec::new();
    while runs.len() < args.spec.min_builds.div_ceil(2) || started.elapsed().as_secs_f64() < budget
    {
        let mut cmd = Command::new(bin);
        cmd.arg("build")
            .arg("--data")
            .arg(csv)
            .arg("--out")
            .arg(&out)
            .args(["--format", "binary"])
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        runs.push(process::run_measured(&mut cmd)?);
    }
    Ok((runs, out))
}

/// The serving phases against one daemon: closed loop, open loop, and the
/// write probe when the traffic carries no writes of its own.
struct Traffic {
    pub closed: Phase,
    pub open: Phase,
    pub probe: Option<Phase>,
}

impl Traffic {
    pub fn phases(&self) -> Vec<&Phase> {
        let mut v = vec![&self.closed, &self.open];
        v.extend(self.probe.as_ref());
        v
    }

    /// The phases holding the write acknowledgements.
    pub fn write_phase(&self) -> &Phase {
        self.probe.as_ref().unwrap_or(&self.open)
    }
}

/// `count` readers that never name an id at or past `floor`.
fn readers(args: &Args, floor: u64, count: u64, salt: u64) -> Vec<Gen<'_>> {
    (0..count)
        .map(|c| Gen::Reads {
            spec: &args.spec,
            rng: Rng::new(args.seed ^ (salt << 8 | c)),
            floor,
        })
        .collect()
}

fn traffic(args: &Args, server: &Server, ds: &skycube_types::Dataset) -> Result<Traffic, String> {
    let spec = &args.spec;
    let secs = |share: f64| Duration::from_secs_f64(share * args.seconds);
    let mut rng = Rng::new(args.seed ^ 0x0077_7269_7465);
    let mut model = Model::new(ds);
    // Writes are planned against a model of the daemon's rows. On `mixed`
    // they carry the natural share of seed-changing writes; the probe of
    // the other workloads stays on the incremental path.
    let writes =
        (secs(spec.open_share.max(spec.probe_share)).as_secs_f64() * spec.write_rate) as usize;
    let changing = if spec.stream_writes() {
        (writes as f64 * model.seed_share()).round() as usize
    } else {
        0
    };
    let plan = model.plan(spec, &mut rng, writes, changing);
    println!(
        "  plan    {} writes at {}/s, {changing} of them change the seeds \
         (seed share {:.4})",
        plan.len(),
        spec.write_rate,
        model.seed_share()
    );
    // Reads name only ids every planned state of the daemon still holds.
    let floor = (ds.len() - writes) as u64;

    let closed = loadgen::closed_loop(
        server.addr,
        readers(args, floor, 2, 1),
        secs(spec.closed_share),
    );
    println!("  {}", closed.summary());
    let writer = Gen::Writes(plan.into_iter());
    let (open_clients, probe_writer) = if spec.stream_writes() {
        let mut c: Vec<_> = readers(args, floor, 1, 2)
            .into_iter()
            .map(|g| (g, spec.rate - spec.write_rate))
            .collect();
        c.push((writer, spec.write_rate));
        (c, None)
    } else {
        let c = readers(args, floor, 2, 2)
            .into_iter()
            .map(|g| (g, spec.rate / 2.0))
            .collect();
        (c, Some(writer))
    };
    let open = loadgen::open_loop("open", server.addr, open_clients, secs(spec.open_share));
    println!("  {}", open.summary());
    let probe = probe_writer.map(|writer| {
        let p = loadgen::open_loop(
            "probe",
            server.addr,
            vec![(writer, spec.write_rate)],
            secs(spec.probe_share),
        );
        println!("  {}", p.summary());
        p
    });
    let t = Traffic {
        closed,
        open,
        probe,
    };
    for p in t.phases() {
        if p.saturated {
            return Err(format!(
                "{} phase saturated: the backlog took {:.0} ms to drain after the last due \
                 send, so its latency is not a number",
                p.name,
                p.drain.as_secs_f64() * 1e3
            ));
        }
    }
    Ok(t)
}

/// The `mixed` end state: every subspace answer of the daemon equals the
/// direct skyline over the benchmark's own copy of the rows.
fn check_final_state(
    server: &Server,
    ds: &skycube_types::Dataset,
    t: &Traffic,
) -> Result<(), Failure> {
    let (expect_ds, writes) = check::apply_acked_writes(ds, &t.phases()).map_err(Failure::Wrong)?;
    let mut conn = loadgen::Conn::connect(server.addr).map_err(|e| e.to_string())?;
    for space in check::check_spaces(ds.dims()) {
        let reply = conn
            .request(&format!("skyline {space}"))
            .map_err(|e| format!("final check: {e}"))?;
        let got = check::reply_ids(&String::from_utf8_lossy(&reply)).map_err(Failure::Wrong)?;
        if got != check::direct(&expect_ds, space) {
            return Err(Failure::Wrong(format!(
                "after {writes} acknowledged writes the daemon's skyline of {space} differs \
                 from the direct skyline over the same rows"
            )));
        }
    }
    println!("  checked: final state after {writes} acknowledged writes equals the direct skyline");
    Ok(())
}

fn end_to_end(
    args: &Args,
    bin: &Path,
    work: &WorkDir,
    ds: &skycube_types::Dataset,
    csv: &Path,
) -> Result<Outcome, Failure> {
    let spec = &args.spec;
    let (mut build_runs, cube_path) = builds(args, bin, work, csv)?;
    let cube_bytes = std::fs::metadata(&cube_path)
        .map_err(|e| format!("{}: {e}", cube_path.display()))?
        .len();
    let bytes = std::fs::read(&cube_path).map_err(|e| format!("{}: {e}", cube_path.display()))?;
    let cube =
        skycube_stellar::read_cube_binary(&bytes).map_err(|e| Failure::Wrong(e.to_string()))?;
    let checked = check::check_cube(&cube, ds).map_err(Failure::Wrong)?;
    println!("  build   cube {cube_bytes} bytes; loaded cube equals the direct skyline on {checked} subspaces");

    let mut setups = Vec::new();
    let started = std::time::Instant::now();
    let server = loop {
        let flags = spec.serve_flags(&work.path(&format!("wal{}.wal", setups.len())));
        let s = Server::spawn(bin, csv, &flags)?;
        setups.push(s.setup_s);
        if setups.len() >= MIN_SETUPS
            && started.elapsed().as_secs_f64() >= spec.setup_share * args.seconds
        {
            break s;
        }
        s.shutdown()?;
    };
    println!(
        "  setup   {} spawns, median {:.4} s",
        setups.len(),
        median(&setups)
    );

    let t = traffic(args, &server, ds)?;
    let daemon_rss = server.peak_rss_mb()?;
    let scraped = server.stats()?;
    if spec.kind == Kind::Mixed {
        check_final_state(&server, ds, &t)?;
    }
    server.shutdown()?;
    if spec.kind != Kind::Mixed {
        let n = check::check_read_replies(&cube, &[&t.closed, &t.open]).map_err(Failure::Wrong)?;
        println!("  checked: {n} read replies equal the scan-path cube's answers");
        check::apply_acked_writes(ds, &t.phases()).map_err(Failure::Wrong)?;
    }
    build_runs.extend(builds(args, bin, work, csv)?.0);
    let build_times: Vec<f64> = build_runs.iter().map(|r| r.0).collect();
    println!(
        "  build   {} runs: median {:.4} s, min {:.4} s, max {:.4} s",
        build_times.len(),
        median(&build_times),
        percentile(&build_times, 0.0).unwrap_or(0.0),
        percentile(&build_times, 1.0).unwrap_or(0.0)
    );

    let mut m = Metrics::default();
    m.put("setup_s", median(&setups), "s");
    m.put(
        "build_s",
        median(&build_runs.iter().map(|r| r.0).collect::<Vec<_>>()),
        "s",
    );
    m.put("cube_bytes", cube_bytes as f64, "bytes");
    let rss = match spec.kind {
        Kind::Build => median(&build_runs.iter().map(|r| r.1).collect::<Vec<_>>()),
        Kind::Read | Kind::Mixed => daemon_rss,
    };
    m.put("rss_mb", rss, "MiB");
    let closed_reads = t.closed.count(|r| !r.op.is_write() && !r.failed());
    m.put(
        "read_qps",
        closed_reads as f64 / t.closed.duration.as_secs_f64(),
        "req/s",
    );
    let reads = t.open.latencies_us(false);
    let writes = t.write_phase().latencies_us(true);
    for (name, values) in [("read_p50_us", &reads), ("write_p50_us", &writes)] {
        let v = percentile(values, 0.5).ok_or_else(|| format!("{name}: no samples"))?;
        if !v.is_finite() {
            return Err(Failure::Error(format!(
                "{name} is unbounded: more than half of its requests failed"
            )));
        }
        m.put(name, v, "us");
    }
    let ms = |v: &[f64], q| percentile(v, q).unwrap_or(f64::NAN) / 1e3;
    println!(
        "  tails   reads p90 {:.3} p99 {:.3} p99.9 {:.3} ms; writes p99 {:.3} ms \
         (not bounded: they follow host scheduling stalls and Nagle timing, see NOTES.md)",
        ms(&reads, 0.9),
        ms(&reads, 0.99),
        ms(&reads, 0.999),
        ms(&writes, 0.99)
    );
    let attempted: u64 = t.phases().iter().map(|p| p.attempted()).sum::<u64>()
        + build_runs.len() as u64
        + setups.len() as u64;
    let failed: u64 = t.phases().iter().map(|p| p.failed()).sum();
    println!(
        "  samples: {} open-loop reads, {} writes; daemon shed_total {}; failed_share {:.6} \
         ({failed} of {attempted})",
        reads.len(),
        writes.len(),
        scraped.get("shed_total").copied().unwrap_or(0),
        stats::ratio(failed as f64, attempted as f64)
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics: m,
    })
}
