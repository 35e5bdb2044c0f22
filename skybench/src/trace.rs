//! The traced run (`--trace 1`): the same inputs as the end-to-end run, but
//! each layer's public function is called in process inside a span, and
//! the daemon's own counters are scraped over the protocol. Spans are
//! recorded only here, in the benchmark; the program carries no tracing.
//!
//! A span has a name, start, end, parent and request id. Spans stay in
//! memory and are written to `.bench_out/` when the run ends. A span's
//! self time is its duration minus its children's (spans are recorded on
//! one thread, so children never overlap).

use crate::check;
use crate::loadgen::Phase;
use crate::process::Server;
use crate::stats::{mean, median, percentile, ratio, Metrics};
use crate::workload::{Kind, Op, CHECKPOINT_EVERY};
use crate::{Args, Failure, Outcome, Traffic, WorkDir};
use skycube_serve::{
    format_answer, parse_query_line, Answer, Daemon, DaemonConfig, Query, SubspaceCache, Wal,
};
use skycube_skyline::skyline_parallel_with;
use skycube_stellar::{
    extend_to_full_par, maximal_cgroups_par, seed_skyline_groups_par, write_cube_binary,
    CompressedSkylineCube, CubeIndex, IndexScratch, MemoOutcome, MergeRoute, SeedView, Stellar,
    StellarEngine,
};
use skycube_types::{normalize_groups, Dataset, ObjId, SkylineGroup, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    req: u64,
}

/// In-memory span recorder.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`, nested under the innermost open
    /// span.
    fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start = self.t0.elapsed();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.t0.elapsed();
        out
    }

    fn duration(&self, id: usize) -> Duration {
        self.spans[id].end - self.spans[id].start
    }

    /// Self time of every span.
    fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = (0..self.spans.len()).map(|i| self.duration(i)).collect();
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(self.duration(i));
            }
        }
        own
    }

    /// Durations (µs) of every span named `name`.
    fn durations_us(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.duration(i).as_secs_f64() * 1e6)
            .collect()
    }

    fn total_s(&self, name: &str) -> f64 {
        self.durations_us(name).iter().sum::<f64>() / 1e6
    }

    /// Per-name `(count, self time, wall time)` table.
    fn table(&self) -> String {
        let own = self.self_times();
        let mut rows: BTreeMap<&str, (u64, Duration, Duration)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let row = rows.entry(s.name).or_default();
            row.0 += 1;
            row.1 += own[i];
            row.2 += self.duration(i);
        }
        let mut out = format!(
            "  {:<22} {:>7} {:>12} {:>12} {:>12}\n",
            "span", "count", "self_ms", "mean_self_us", "wall_ms"
        );
        for (name, (count, own, wall)) in rows {
            let _ = writeln!(
                out,
                "  {name:<22} {count:>7} {:>12.3} {:>12.2} {:>12.3}",
                own.as_secs_f64() * 1e3,
                own.as_secs_f64() * 1e6 / count as f64,
                wall.as_secs_f64() * 1e3
            );
        }
        out
    }

    /// One JSON object per span.
    fn write(&self, path: &Path) -> Result<(), String> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"req\": {}}}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.req
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Counts from the traced build.
struct BuildCounts {
    seeds: usize,
    cgroups: usize,
    seed_groups: usize,
    groups: usize,
    persist_bytes: u64,
    /// Wall time of the whole traced build.
    wall_s: f64,
}

/// The composition `Stellar::compute` makes, one span per public call,
/// then the serving index and the binary cube file. `maximal_cgroups_par`
/// is called once more on its own: `seed_skyline_groups_par` enumerates
/// the c-groups internally, so min-DNF time is the seed-group span minus
/// the c-group span.
fn traced_build(
    tr: &mut Tracer,
    csv: &Path,
    out: &Path,
) -> Result<(Dataset, CompressedSkylineCube, BuildCounts), String> {
    let started = Instant::now();
    let stellar = Stellar::new();
    let par = stellar.parallelism();
    let kernel = stellar.kernel();
    tr.span("build", 0, |tr| {
        let ds = tr
            .span("datagen.csv_load", 0, |_| skycube_datagen::load_csv(csv))
            .map_err(|e| e.to_string())?;
        let (bound, reps) = tr.span("types.bind", 0, |_| ds.bind_duplicates());
        let seeds = tr.span("skyline.full_space", 0, |_| {
            if par.is_sequential() {
                stellar
                    .algorithm()
                    .run_with(&bound, bound.full_space(), kernel)
            } else {
                skyline_parallel_with(&bound, bound.full_space(), par, kernel)
            }
        });
        let view = tr.span("stellar.matrices", 0, |_| {
            SeedView::with_kernel(&bound, seeds, kernel)
        });
        let cgroups = tr.span("stellar.cgroups", 0, |_| maximal_cgroups_par(&view, par));
        let seed_groups = tr.span("stellar.seed_groups", 0, |_| {
            seed_skyline_groups_par(&view, par)
        });
        let groups_bound = tr.span("stellar.extend", 0, |_| {
            extend_to_full_par(&view, &seed_groups, stellar.strategy(), par)
        });
        // Re-expand bound duplicates, exactly as `Stellar::compute` does.
        let expand = |ids: &[ObjId]| -> Vec<ObjId> {
            let mut v: Vec<ObjId> = ids
                .iter()
                .flat_map(|&b| reps[b as usize].iter().copied())
                .collect();
            v.sort_unstable();
            v
        };
        let counts_groups = groups_bound.len();
        let groups: Vec<SkylineGroup> = groups_bound
            .into_iter()
            .map(|g| SkylineGroup::new(expand(&g.members), g.subspace, g.decisive))
            .collect();
        let cube = CompressedSkylineCube::new(ds.dims(), ds.len(), expand(view.seeds()), groups);
        tr.span("stellar.index", 0, |_| {
            cube.index();
        });
        tr.span("stellar.persist", 0, |_| -> Result<(), String> {
            let file = std::fs::File::create(out).map_err(|e| e.to_string())?;
            let mut w = std::io::BufWriter::new(file);
            write_cube_binary(&cube, &mut w).map_err(|e| e.to_string())?;
            w.flush().map_err(|e| e.to_string())
        })?;
        let counts = BuildCounts {
            seeds: view.len(),
            cgroups: cgroups.len(),
            seed_groups: seed_groups.len(),
            groups: counts_groups,
            persist_bytes: std::fs::metadata(out).map_err(|e| e.to_string())?.len(),
            wall_s: started.elapsed().as_secs_f64(),
        };
        drop(view);
        Ok((ds, cube, counts))
    })
}

/// What the in-process replay measured besides its spans.
#[derive(Default)]
struct ReplayCounts {
    reply_bytes: Vec<f64>,
    candidates: u64,
    answers: u64,
    memo: [u64; 3],
    wal_bytes: Vec<f64>,
    delta_dropped: u64,
    checkpoints: u64,
    fast_share: f64,
}

/// A write line parsed the way the daemon parses it.
enum Write {
    Insert(Vec<Value>),
    Delete(ObjId),
}

fn parse_write(line: &str) -> Result<Write, String> {
    let mut tokens = line.split_whitespace();
    match tokens.next() {
        Some("insert") => tokens
            .map(|t| {
                t.parse::<Value>()
                    .map_err(|_| format!("bad insert {line:?}"))
            })
            .collect::<Result<Vec<_>, _>>()
            .map(Write::Insert),
        Some("delete") => tokens
            .next()
            .and_then(|t| t.parse().ok())
            .map(Write::Delete)
            .ok_or_else(|| format!("bad delete {line:?}")),
        _ => Err(format!("not a write: {line:?}")),
    }
}

/// Replays `lines` (in the order the generator sent them) in process: reads
/// through a WAL-less [`Daemon`], writes through that daemon plus a
/// separate [`Wal`], [`StellarEngine`] and [`SubspaceCache`], with the
/// daemon's checkpoint policy. Request ids are positions in `lines` + 1.
fn replay(
    tr: &mut Tracer,
    ds: &Dataset,
    cube: &CompressedSkylineCube,
    lines: &[(Op, &str)],
    wal_path: &Path,
) -> Result<ReplayCounts, String> {
    let stellar = Stellar::new();
    let daemon = Daemon::new(
        StellarEngine::with_runner(ds, stellar),
        DaemonConfig::default(),
    );
    let mut engine = StellarEngine::with_runner(ds, stellar);
    let cache = SubspaceCache::new(DaemonConfig::default().cache_capacity);
    let mut wal = Wal::create(wal_path, ds.dims(), 0).map_err(|e| e.to_string())?;
    let mut c = ReplayCounts::default();
    let mut writes = 0u64;
    for (i, &(op, line)) in lines.iter().enumerate() {
        let req = i as u64 + 1;
        tr.span("request", req, |tr| -> Result<(), String> {
            if op.is_write() {
                let write = tr.span("serve.parse", req, |_| parse_write(line))?;
                let before = std::fs::metadata(wal_path).map_or(0, |m| m.len());
                tr.span("wal.append", req, |_| match &write {
                    Write::Insert(row) => wal.append_insert(row),
                    Write::Delete(id) => wal.append_delete(*id),
                })
                .map_err(|e| e.to_string())?;
                let after = std::fs::metadata(wal_path).map_or(0, |m| m.len());
                c.wal_bytes.push(after.saturating_sub(before) as f64);
                match &write {
                    Write::Insert(row) => {
                        tr.span("stellar.maint_insert", req, |_| engine.insert(row.clone()))
                            .map_err(|e| e.to_string())?;
                        tr.span("serve.write", req, |_| daemon.insert(row.clone()))
                            .map_err(|e| e.to_string())?;
                    }
                    Write::Delete(id) => {
                        tr.span("stellar.maint_delete", req, |_| engine.delete(*id))
                            .map_err(|e| e.to_string())?;
                        tr.span("serve.write", req, |_| daemon.delete(*id))
                            .map_err(|e| e.to_string())?;
                    }
                }
                if let Some(delta) = engine.last_delta() {
                    c.delta_dropped += tr.span("cache.apply_delta", req, |_| {
                        cache.apply_delta(delta) as u64
                    });
                }
                writes += 1;
                if writes.is_multiple_of(CHECKPOINT_EVERY) {
                    tr.span("wal.checkpoint", req, |_| -> Result<(), String> {
                        let durable = wal.next_generation() - 1;
                        let rows = engine.dataset();
                        skycube_serve::wal::write_checkpoint(
                            wal_path,
                            &rows,
                            engine.cube(),
                            durable,
                        )
                        .map_err(|e| e.to_string())?;
                        wal.reset(durable).map_err(|e| e.to_string())
                    })?;
                    c.checkpoints += 1;
                }
                return Ok(());
            }
            let query = tr
                .span("serve.parse", req, |_| parse_query_line(line))?
                .ok_or_else(|| format!("not a query: {line:?}"))?;
            let outcome = tr.span("serve.wave", req, |_| daemon.serve_wave(&[query]));
            let answer = &outcome.answers[0];
            let text = tr.span("serve.format", req, |_| format_answer(&query, answer));
            c.reply_bytes.push(text.len() as f64 + 1.0);
            if let (Query::Skyline(space), Ok(Answer::Skyline(ids))) = (query, answer) {
                if cache.get(space).is_none() {
                    cache.put(space, ids.clone());
                }
            }
            Ok(())
        })?;
    }
    let m = engine.maintenance_stats();
    c.fast_share = ratio(m.fast() as f64, m.total() as f64);

    // The index on its own: every skyline query of the stream through a
    // fresh CubeIndex, with the probe's work counters.
    let index = CubeIndex::build(cube);
    let mut scratch = IndexScratch::default();
    let mut out = Vec::new();
    for (i, &(op, line)) in lines.iter().enumerate() {
        if op != Op::Read {
            continue;
        }
        let Ok(Some(Query::Skyline(space))) = parse_query_line(line) else {
            continue;
        };
        let probe = tr
            .span("index.query", i as u64 + 1, |_| {
                index.try_subspace_skyline_into(space, &mut scratch, &mut out)
            })
            .map_err(|e| e.to_string())?;
        c.candidates += probe.candidates as u64;
        c.answers += 1;
        match probe.memo {
            MemoOutcome::Exact => c.memo[0] += 1,
            MemoOutcome::Ancestor => c.memo[1] += 1,
            MemoOutcome::Miss | MemoOutcome::Bypass => c.memo[2] += 1,
        }
    }
    Ok(c)
}

/// The lines of `phase` in the order they were sent.
fn sent_order(phase: &Phase) -> Vec<(Op, &str, Option<f64>)> {
    let mut recs: Vec<_> = phase.records.iter().collect();
    recs.sort_by_key(|r| r.sent);
    recs.iter()
        .map(|r| {
            let rtt = r
                .done
                .filter(|_| !r.failed())
                .map(|d| (d - r.sent).as_secs_f64() * 1e6);
            (r.op, r.line.as_str(), rtt)
        })
        .collect()
}

pub fn run(
    args: &Args,
    bin: &Path,
    work: &WorkDir,
    ds: &Dataset,
    csv: &Path,
) -> Result<Outcome, Failure> {
    let spec = &args.spec;
    let mut tr = Tracer::new();

    // The plain build (load, Stellar::compute, index, serialize) runs once
    // before the traced one, to warm the allocator and page cache, and once
    // after it, as the untraced time the overhead is taken against. The
    // traced composition must produce the identical cube.
    let plain_build = || -> Result<(CompressedSkylineCube, f64), String> {
        let started = Instant::now();
        let plain = skycube_datagen::load_csv(csv).map_err(|e| e.to_string())?;
        let cube = Stellar::new().compute(&plain);
        cube.index();
        let mut sink = Vec::new();
        write_cube_binary(&cube, &mut sink).map_err(|e| e.to_string())?;
        Ok((cube, started.elapsed().as_secs_f64()))
    };
    let (reference, _) = plain_build()?;
    let (traced_ds, cube, counts) = traced_build(&mut tr, csv, &work.path("traced.bin"))?;
    let (_, untraced_s) = plain_build()?;
    if traced_ds.len() != ds.len() {
        return Err(Failure::Wrong(
            "the CSV round trip changed the row count".into(),
        ));
    }
    if reference.seeds() != cube.seeds()
        || normalize_groups(reference.groups().to_vec()) != normalize_groups(cube.groups().to_vec())
    {
        return Err(Failure::Wrong(
            "the traced build composition differs from Stellar::compute".into(),
        ));
    }
    drop(reference);
    let extra_cgroups_s = tr.total_s("stellar.cgroups");
    let build_root = tr.total_s("build");
    let layers_s: f64 = [
        "datagen.csv_load",
        "types.bind",
        "skyline.full_space",
        "stellar.matrices",
        "stellar.cgroups",
        "stellar.seed_groups",
        "stellar.extend",
        "stellar.index",
        "stellar.persist",
    ]
    .iter()
    .map(|n| tr.total_s(n))
    .sum();
    println!(
        "  traced build {:.4} s (layer spans cover {:.1}%); untraced {untraced_s:.4} s; \
         cube identical to Stellar::compute",
        build_root,
        100.0 * layers_s / build_root
    );

    // The daemon under the same traffic as the end-to-end run, for the
    // counters only it keeps and for the closed-loop round trips.
    let server = Server::spawn(bin, csv, &spec.serve_flags(&work.path("trace-daemon.wal")))?;
    let t: Traffic = crate::traffic(args, &server, ds)?;
    let scraped = server.stats()?;
    if spec.kind == Kind::Mixed {
        crate::check_final_state(&server, ds, &t)?;
    }
    server.shutdown()?;
    if spec.kind != Kind::Mixed {
        let n = check::check_read_replies(&cube, &[&t.closed, &t.open]).map_err(Failure::Wrong)?;
        println!("  checked: {n} read replies equal the scan-path cube's answers");
    }

    // The same request stream in process, in send order; the closed loop
    // comes first.
    let closed = sent_order(&t.closed);
    let mut lines: Vec<(Op, &str)> = closed.iter().map(|&(op, line, _)| (op, line)).collect();
    for phase in t.phases().into_iter().skip(1) {
        lines.extend(
            sent_order(phase)
                .into_iter()
                .map(|(op, line, _)| (op, line)),
        );
    }
    let replay_start = tr.spans.len();
    let c = replay(&mut tr, ds, &cube, &lines, &work.path("trace.wal"))?;

    // Transport: closed-loop round trip minus the traced parse + wave +
    // format of the same requests.
    let own = tr.self_times();
    let mut in_process = vec![0f64; lines.len()];
    for (i, s) in tr.spans.iter().enumerate().skip(replay_start) {
        if matches!(s.name, "serve.parse" | "serve.wave" | "serve.format") {
            in_process[(s.req - 1) as usize] += own[i].as_secs_f64() * 1e6;
        }
    }
    let rtts: Vec<(usize, f64)> = closed
        .iter()
        .enumerate()
        .filter_map(|(i, &(_, _, rtt))| Some((i, rtt?)))
        .collect();
    let transport: Vec<f64> = rtts.iter().map(|&(i, rtt)| rtt - in_process[i]).collect();
    let rtt_mean = mean(&rtts.iter().map(|&(_, rtt)| rtt).collect::<Vec<_>>());
    let transport_us = mean(&transport);
    println!(
        "  closed-loop round trip {rtt_mean:.1} us = in-process parse+wave+format {:.1} us \
         + transport {transport_us:.1} us ({:.1}%)",
        rtt_mean - transport_us,
        100.0 * ratio(transport_us, rtt_mean)
    );

    let spans_path =
        Path::new(".bench_out").join(format!("spans-{}-seed{}.jsonl", spec.name, args.seed));
    tr.write(&spans_path)?;
    println!(
        "  spans: {} written to {}",
        tr.spans.len(),
        spans_path.display()
    );
    print!("{}", tr.table());

    let mut m = Metrics::default();
    let stat = |name: &str| scraped.get(name).copied().unwrap_or(0) as f64;
    m.put("datagen.csv_load_s", tr.total_s("datagen.csv_load"), "s");
    m.put("types.bind_s", tr.total_s("types.bind"), "s");
    m.put(
        "skyline.full_space_s",
        tr.total_s("skyline.full_space"),
        "s",
    );
    m.put("skyline.seeds", counts.seeds as f64, "count");
    m.put("stellar.matrices_s", tr.total_s("stellar.matrices"), "s");
    m.put("stellar.cgroups_s", tr.total_s("stellar.cgroups"), "s");
    m.put("stellar.cgroups", counts.cgroups as f64, "count");
    m.put(
        "stellar.min_dnf_s",
        (tr.total_s("stellar.seed_groups") - tr.total_s("stellar.cgroups")).max(0.0),
        "s",
    );
    m.put(
        "stellar.seed_group_yield",
        ratio(counts.seed_groups as f64, counts.cgroups as f64),
        "ratio",
    );
    m.put("stellar.extend_s", tr.total_s("stellar.extend"), "s");
    m.put("stellar.groups", counts.groups as f64, "count");
    m.put("stellar.index_s", tr.total_s("stellar.index"), "s");
    m.put("stellar.persist_s", tr.total_s("stellar.persist"), "s");
    m.put(
        "stellar.persist_bytes",
        counts.persist_bytes as f64,
        "bytes",
    );
    m.put(
        "serve.parse_us",
        mean(&tr.durations_us("serve.parse")),
        "us",
    );
    let waves = tr.durations_us("serve.wave");
    m.put(
        "serve.wave_p50_us",
        percentile(&waves, 0.5).unwrap_or(0.0),
        "us",
    );
    m.put(
        "serve.wave_p99_us",
        percentile(&waves, 0.99).unwrap_or(0.0),
        "us",
    );
    let probes = tr.durations_us("index.query");
    m.put(
        "index.query_p50_us",
        percentile(&probes, 0.5).unwrap_or(0.0),
        "us",
    );
    m.put(
        "index.query_p99_us",
        percentile(&probes, 0.99).unwrap_or(0.0),
        "us",
    );
    m.put(
        "index.candidates_per_answer",
        ratio(c.candidates as f64, c.answers as f64),
        "ratio",
    );
    for (name, n) in [
        ("index.memo_exact_share", c.memo[0]),
        ("index.memo_ancestor_share", c.memo[1]),
        ("index.memo_miss_share", c.memo[2]),
    ] {
        m.put(name, ratio(n as f64, c.answers as f64), "ratio");
    }
    // Per-route mean time goes to the text report only: a route that never
    // fires on a workload has no time to report.
    let mut routed = (0.0, 0.0);
    for route in MergeRoute::ALL {
        let queries = stat(&format!("route_{}_queries", route.name()));
        let nanos = stat(&format!("route_{}_nanos", route.name()));
        routed = (routed.0 + queries, routed.1 + nanos);
        m.put(
            format!("index.route.{}.queries", route.name()),
            queries,
            "count",
        );
        println!(
            "  route {:<6} queries {queries:>6} mean {:>10.0} ns",
            route.name(),
            ratio(nanos, queries)
        );
    }
    m.put("index.route.mean_ns", ratio(routed.1, routed.0), "ns");
    m.put(
        "serve.tuner_explorations",
        stat("tuner_explorations"),
        "count",
    );
    m.put("serve.tuner_promotions", stat("tuner_promotions"), "count");
    m.put(
        "cache.hit_ratio",
        ratio(
            stat("cache_hits"),
            stat("cache_hits") + stat("cache_misses"),
        ),
        "ratio",
    );
    m.put(
        "serve.format_us",
        mean(&tr.durations_us("serve.format")),
        "us",
    );
    m.put("serve.reply_bytes", mean(&c.reply_bytes), "bytes");
    m.put(
        "serve.queries_per_wave",
        ratio(stat("queries_total"), stat("waves_total")),
        "ratio",
    );
    m.put("transport.self_us", transport_us, "us");
    let appends = tr.durations_us("wal.append");
    m.put(
        "wal.append_p50_us",
        percentile(&appends, 0.5).unwrap_or(0.0),
        "us",
    );
    m.put(
        "wal.append_p99_us",
        percentile(&appends, 0.99).unwrap_or(0.0),
        "us",
    );
    m.put("wal.bytes_per_record", mean(&c.wal_bytes), "bytes");
    m.put(
        "stellar.maint_insert_us",
        mean(&tr.durations_us("stellar.maint_insert")),
        "us",
    );
    m.put(
        "stellar.maint_delete_us",
        mean(&tr.durations_us("stellar.maint_delete")),
        "us",
    );
    m.put("stellar.maint_fast_share", c.fast_share, "ratio");
    m.put("cache.delta_dropped", c.delta_dropped as f64, "count");
    m.put(
        "wal.checkpoint_ms",
        mean(&tr.durations_us("wal.checkpoint")) / 1e3,
        "ms",
    );
    m.put("wal.checkpoints", c.checkpoints as f64, "count");
    m.put(
        "loadgen.lag_ms",
        percentile(&t.open.lags_ms(), 0.99).unwrap_or(0.0),
        "ms",
    );
    m.put(
        "loadgen.read_p99_us",
        percentile(&t.open.latencies_us(false), 0.99).unwrap_or(f64::INFINITY),
        "us",
    );
    m.put(
        "loadgen.write_p99_us",
        percentile(&t.write_phase().latencies_us(true), 0.99).unwrap_or(f64::INFINITY),
        "us",
    );
    m.put(
        "trace.overhead",
        (counts.wall_s - extra_cgroups_s - untraced_s) / untraced_s,
        "ratio",
    );
    println!(
        "  daemon: checkpoints {} shed_total {} | replay: {} requests, {} checkpoints, \
         median wave {:.1} us",
        stat("checkpoints"),
        stat("shed_total"),
        lines.len(),
        c.checkpoints,
        median(&waves)
    );

    let attempted: u64 = t.phases().iter().map(|p| p.attempted()).sum::<u64>() + 1;
    let failed: u64 = t.phases().iter().map(|p| p.failed()).sum();
    Ok(Outcome {
        attempted,
        failed,
        metrics: m,
    })
}
