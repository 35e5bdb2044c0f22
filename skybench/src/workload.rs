//! The three workloads: their data sets, daemon flags and request mixes.
//!
//! Why each exists, and how big it is against the daemon's 256-entry
//! subspace cache, is in `NOTES.md`.

use skycube_datagen::Distribution;
use skycube_types::{Dataset, DimMask, ObjId, Value};

/// The verb split of every read stream: ~70% `skyline`, ~20% `member`,
/// ~5% `count`, ~5% `top`. `skyband k>=2` is left out on purpose: it
/// clones the dataset per wave and costs ~100x a `skyline`, so it would
/// set every p99 (see `NOTES.md`).
const SKYLINE_PCT: u64 = 70;
const MEMBER_PCT: u64 = 20;
const COUNT_PCT: u64 = 5;

/// `top K` uses this K.
const TOP_K: usize = 10;

/// Every workload's data set is generated from this seed: the data set is
/// part of the workload's definition, so its cube size, build cost and
/// memory are properties of the workload, and `--seed` varies only what
/// the clients send (see `NOTES.md`).
const DATA_SEED: u64 = 2007;

/// `mixed` runs its daemon with `--checkpoint-every` this many mutations.
pub const CHECKPOINT_EVERY: u64 = 50;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Builds dominate; its daemon serves reads over the 31 subspaces.
    Build,
    /// Reads over 1023 subspaces, 4x the subspace cache.
    Read,
    /// Reads over 31 subspaces plus ~4% durable writes.
    Mixed,
}

pub struct Spec {
    pub kind: Kind,
    pub name: &'static str,
    pub dist: Distribution,
    pub count: usize,
    pub dims: usize,
    /// Open-loop request rate (requests per second, over both connections).
    pub rate: f64,
    /// Writes per second, on a connection of their own so that the daemon
    /// applies them in the order the benchmark planned them: part of
    /// `rate` on `mixed`, the write probe's rate elsewhere.
    pub write_rate: f64,
    /// Share of `--seconds` spent on repeated `skycube build` runs, and
    /// the minimum number of runs (both split over two batches).
    pub build_share: f64,
    pub min_builds: usize,
    /// Share of `--seconds` spent on repeated daemon set-ups (at least
    /// three of them).
    pub setup_share: f64,
    /// Shares of `--seconds` for the closed loop, the open loop and the
    /// write probe (0 when the open loop carries its own writes).
    pub closed_share: f64,
    pub open_share: f64,
    pub probe_share: f64,
}

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        let spec = match name {
            "build" => Spec {
                kind: Kind::Build,
                name: "build",
                dist: Distribution::AntiCorrelated,
                count: 200_000,
                dims: 5,
                rate: 1000.0,
                write_rate: 20.0,
                build_share: 0.35,
                min_builds: 4,
                setup_share: 0.0,
                closed_share: 0.1,
                open_share: 0.3,
                probe_share: 0.25,
            },
            "read" => Spec {
                kind: Kind::Read,
                name: "read",
                dist: Distribution::Correlated,
                count: 200_000,
                dims: 10,
                rate: 1000.0,
                write_rate: 20.0,
                build_share: 0.25,
                min_builds: 4,
                setup_share: 0.25,
                closed_share: 0.15,
                open_share: 0.6,
                probe_share: 0.25,
            },
            "mixed" => Spec {
                kind: Kind::Mixed,
                name: "mixed",
                dist: Distribution::Independent,
                count: 100_000,
                dims: 5,
                // One reader connection at 490/s, so its requests are ~2 ms
                // apart as on the other workloads (at 980/s the 1 ms gap is
                // close enough to the daemon's service time under host
                // stalls that the median read flips to two gaps), and 20
                // writes/s: at 10/s the writer's ACK timing, and with it
                // the median write, varies from run to run.
                rate: 510.0,
                write_rate: 20.0,
                build_share: 0.2,
                min_builds: 4,
                setup_share: 0.15,
                closed_share: 0.2,
                open_share: 0.8,
                probe_share: 0.0,
            },
            _ => return None,
        };
        Some(spec)
    }

    pub fn dataset(&self) -> Dataset {
        skycube_datagen::generate(self.dist, self.count, self.dims, DATA_SEED)
    }

    /// Extra `skycube serve` flags (besides `--data` and `--listen`).
    pub fn serve_flags(&self, wal: &std::path::Path) -> Vec<String> {
        match self.kind {
            Kind::Mixed => vec![
                "--wal".into(),
                wal.display().to_string(),
                "--checkpoint-every".into(),
                CHECKPOINT_EVERY.to_string(),
            ],
            Kind::Build | Kind::Read => Vec::new(),
        }
    }

    /// Whether the traffic stream itself carries writes.
    pub fn stream_writes(&self) -> bool {
        self.kind == Kind::Mixed
    }
}

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5ded_5eed_0f5c_ab1e)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// A uniformly drawn non-empty subspace of a `dims`-dimensional space.
pub fn random_space(rng: &mut Rng, dims: usize) -> DimMask {
    DimMask(1 + rng.below((1u64 << dims) - 1) as u32)
}

/// What a request line does, for latency accounting and answer checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Read,
    Insert,
    Delete,
}

impl Op {
    pub fn is_write(self) -> bool {
        self != Op::Read
    }
}

/// One read line over ids `0..live` and the full space of `dims`.
pub fn read_line(rng: &mut Rng, dims: usize, live: u64) -> String {
    let roll = rng.below(100);
    if roll < SKYLINE_PCT {
        format!("skyline {}", random_space(rng, dims))
    } else if roll < SKYLINE_PCT + MEMBER_PCT {
        let id = rng.below(live);
        format!("member {id} {}", random_space(rng, dims))
    } else if roll < SKYLINE_PCT + MEMBER_PCT + COUNT_PCT {
        format!("count {}", rng.below(live))
    } else {
        format!("top {TOP_K}")
    }
}

/// An `insert` line for `row`.
pub fn insert_line(row: &[Value]) -> String {
    let mut line = String::from("insert");
    for v in row {
        line.push(' ');
        line.push_str(&v.to_string());
    }
    line
}

/// A fresh row from the workload's distribution (for `mixed` inserts).
pub fn fresh_row(spec: &Spec, rng: &mut Rng) -> Vec<Value> {
    let ds = skycube_datagen::generate(spec.dist, 1, spec.dims, rng.next_u64());
    ds.row(0).to_vec()
}

/// The benchmark's model of the daemon's rows and full-space skyline (its
/// seeds), to know before sending which writes change the seeds. Those
/// writes take the engine's full-recomputation path; the rest are patched
/// incrementally.
#[derive(Clone)]
pub struct Model {
    dims: usize,
    rows: Vec<Vec<Value>>,
    seeds: Vec<ObjId>,
}

impl Model {
    pub fn new(ds: &Dataset) -> Model {
        let mut m = Model {
            dims: ds.dims(),
            rows: ds.ids().map(|o| ds.row(o).to_vec()).collect(),
            seeds: Vec::new(),
        };
        m.recompute_seeds();
        m
    }

    fn recompute_seeds(&mut self) {
        let ds = Dataset::from_rows(self.dims, self.rows.clone()).expect("rows share one arity");
        self.seeds = crate::check::direct(&ds, ds.full_space());
    }

    /// Share of objects that are seeds: the chance that a uniform delete,
    /// and about the chance that a fresh row, changes the seeds.
    pub fn seed_share(&self) -> f64 {
        self.seeds.len() as f64 / self.rows.len() as f64
    }

    /// Whether inserting `row` changes the seeds (no seed strictly
    /// dominates it), as the engine decides it.
    fn insert_changes_seeds(&self, row: &[Value]) -> bool {
        !self.seeds.iter().any(|&s| {
            let seed = &self.rows[s as usize];
            seed.iter().zip(row).all(|(a, b)| a <= b) && seed.as_slice() != row
        })
    }

    pub fn apply(&mut self, op: Op, line: &str) {
        let mut tokens = line.split_whitespace().skip(1);
        match op {
            Op::Insert => {
                let row: Vec<Value> = tokens.map(|t| t.parse().expect("planned row")).collect();
                let changes = self.insert_changes_seeds(&row);
                self.rows.push(row);
                if changes {
                    self.recompute_seeds();
                }
            }
            Op::Delete => {
                let id: ObjId = tokens
                    .next()
                    .and_then(|t| t.parse().ok())
                    .expect("planned id");
                let was_seed = self.seeds.binary_search(&id).is_ok();
                self.rows.remove(id as usize);
                if was_seed {
                    self.recompute_seeds();
                } else {
                    for s in &mut self.seeds {
                        if *s > id {
                            *s -= 1;
                        }
                    }
                }
            }
            Op::Read => {}
        }
    }

    /// `writes` writes, applied to the model as planned: every third an
    /// insert of a fresh row of the workload's distribution, the others
    /// deletes uniform over live ids. Exactly `changing` of them change the
    /// seeds, spread evenly over the plan: the natural share of such
    /// writes, without the run-to-run swing of leaving their count to
    /// chance (each one stalls the daemon for a full recomputation).
    pub fn plan(
        &mut self,
        spec: &Spec,
        rng: &mut Rng,
        writes: usize,
        changing: usize,
    ) -> Vec<(Op, String)> {
        let marked: Vec<usize> = (0..changing)
            .map(|j| {
                ((j as f64 + 0.25 + 0.5 * (rng.below(1000) as f64 / 1000.0)) * writes as f64
                    / changing as f64) as usize
            })
            .collect();
        let mut out = Vec::with_capacity(writes);
        for i in 0..writes {
            let change = marked.contains(&i);
            let (op, line) = if i % 3 == 0 {
                loop {
                    let row = fresh_row(spec, rng);
                    if self.insert_changes_seeds(&row) == change {
                        break (Op::Insert, insert_line(&row));
                    }
                }
            } else {
                loop {
                    let id = rng.below(self.rows.len() as u64) as ObjId;
                    if self.seeds.binary_search(&id).is_ok() == change {
                        break (Op::Delete, format!("delete {id}"));
                    }
                }
            };
            self.apply(op, &line);
            out.push((op, line));
        }
        out
    }
}
