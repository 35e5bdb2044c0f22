//! Answer checks, all outside the timed regions. Any mismatch fails the run.

use crate::loadgen::{fnv1a, Phase};
use crate::workload::Op;
use skycube_parallel::Parallelism;
use skycube_serve::{format_answer, parse_query_line, run_batch, ScanCubeSource};
use skycube_stellar::CompressedSkylineCube;
use skycube_types::{Dataset, DimMask, ObjId, Value};
use std::collections::HashMap;

/// The exact reply line the daemon owes for `line`, from the scan-path
/// cube (the reference implementation the serving index is tested against).
pub fn expected_reply(source: &ScanCubeSource<'_>, line: &str) -> Result<String, String> {
    let query = parse_query_line(line)?.ok_or_else(|| format!("not a query: {line:?}"))?;
    let outcome = run_batch(source, &[query], Parallelism::sequential());
    Ok(format_answer(&query, &outcome.answers[0]))
}

/// Every read reply of `phases` against [`expected_reply`]; returns how
/// many replies were compared. Replies are compared by hash and length.
pub fn check_read_replies(cube: &CompressedSkylineCube, phases: &[&Phase]) -> Result<u64, String> {
    let source = ScanCubeSource::new(cube);
    let mut expected: HashMap<&str, (u64, usize)> = HashMap::new();
    let mut checked = 0;
    for phase in phases {
        for r in &phase.records {
            let (Op::Read, Some(reply)) = (r.op, &r.reply) else {
                continue;
            };
            let want = match expected.get(r.line.as_str()) {
                Some(&w) => w,
                None => {
                    let text = expected_reply(&source, &r.line)?;
                    let w = (fnv1a(text.as_bytes()), text.len());
                    expected.insert(&r.line, w);
                    w
                }
            };
            if (reply.hash, reply.len) != want {
                return Err(format!(
                    "wrong answer in {} phase for {:?}: got {} bytes{}",
                    phase.name,
                    r.line,
                    reply.len,
                    reply
                        .text
                        .as_ref()
                        .map_or(String::new(), |t| format!(" {t:?}"))
                ));
            }
            checked += 1;
        }
    }
    Ok(checked)
}

/// The subspaces to compare against the direct skyline: all of them up to
/// 5 dimensions, else the full space plus a fixed sample of 31.
pub fn check_spaces(dims: usize) -> Vec<DimMask> {
    let full = DimMask::full(dims);
    if dims <= 5 {
        return full.subsets().filter(|s| !s.is_empty()).collect();
    }
    let mut rng = crate::workload::Rng::new(0x5a3e_7e11);
    let mut spaces = vec![full];
    while spaces.len() < 32 {
        let s = crate::workload::random_space(&mut rng, dims);
        if !spaces.contains(&s) {
            spaces.push(s);
        }
    }
    spaces
}

/// Sorted direct skyline of `space` (the `skyline` crate, no cube).
pub fn direct(ds: &Dataset, space: DimMask) -> Vec<ObjId> {
    let mut ids = skycube_skyline::skyline_parallel(ds, space, Parallelism::available());
    ids.sort_unstable();
    ids
}

/// `cube` answers every space of [`check_spaces`] as the direct skyline does.
pub fn check_cube(cube: &CompressedSkylineCube, ds: &Dataset) -> Result<usize, String> {
    let spaces = check_spaces(ds.dims());
    for &space in &spaces {
        let mut got = cube.subspace_skyline(space);
        got.sort_unstable();
        if got != direct(ds, space) {
            return Err(format!(
                "cube skyline of {space} differs from the direct skyline"
            ));
        }
    }
    Ok(spaces.len())
}

/// The ids a `skyline` reply line lists.
pub fn reply_ids(reply: &str) -> Result<Vec<ObjId>, String> {
    let (_, ids) = reply
        .split_once(" -> ")
        .ok_or_else(|| format!("malformed reply {reply:?}"))?;
    let mut ids = ids
        .split_whitespace()
        .map(|t| {
            t.parse::<ObjId>()
                .map_err(|_| format!("malformed reply {reply:?}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    ids.sort_unstable();
    Ok(ids)
}

/// Replays every acknowledged write of `phases`, in generation order, onto
/// a copy of `base`, checking each insert got the id the copy predicts.
pub fn apply_acked_writes(base: &Dataset, phases: &[&Phase]) -> Result<(Dataset, u64), String> {
    let mut writes: Vec<(u64, Op, &str, &str)> = Vec::new();
    for phase in phases {
        for r in &phase.records {
            let (true, Some(reply)) = (r.op.is_write(), &r.reply) else {
                continue;
            };
            if reply.error {
                continue;
            }
            let text = reply
                .text
                .as_deref()
                .ok_or_else(|| format!("oversized write ack for {:?}", r.line))?;
            let generation = text
                .rsplit_once("generation ")
                .and_then(|(_, g)| g.trim().parse::<u64>().ok())
                .ok_or_else(|| format!("write ack without generation: {text:?}"))?;
            writes.push((generation, r.op, r.line.as_str(), text));
        }
    }
    writes.sort_by_key(|w| w.0);
    let mut rows: Vec<Vec<Value>> = base.ids().map(|o| base.row(o).to_vec()).collect();
    for (_, op, line, ack) in &writes {
        let acked_id = ack
            .split_whitespace()
            .nth(3)
            .and_then(|t| t.parse::<usize>().ok())
            .ok_or_else(|| format!("malformed write ack {ack:?}"))?;
        match op {
            Op::Insert => {
                if acked_id != rows.len() {
                    return Err(format!(
                        "insert acked id {acked_id}, expected {} ({line:?})",
                        rows.len()
                    ));
                }
                let row = line
                    .split_whitespace()
                    .skip(1)
                    .map(|t| {
                        t.parse::<Value>()
                            .map_err(|_| format!("bad insert {line:?}"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                rows.push(row);
            }
            Op::Delete => {
                if acked_id >= rows.len() {
                    return Err(format!("delete of unknown id acked: {ack:?}"));
                }
                rows.remove(acked_id);
            }
            Op::Read => unreachable!("filtered to writes"),
        }
    }
    let ds = Dataset::from_rows(base.dims(), rows).map_err(|e| e.to_string())?;
    Ok((ds, writes.len() as u64))
}
