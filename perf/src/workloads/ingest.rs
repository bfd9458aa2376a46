//! `ingest`: the shard store's two sides next to each other — `Shard::encode`
//! of every shard in memory against `DirStore::open` + `read_shard` +
//! `collate` of the same graphs from disk (page cache warm). No model code
//! runs. The durable write (`DirStore::write`, one fsync per shard) is
//! disk-bound, so it happens in set-up and is a layer probe, not part of
//! the timed section.

use std::path::PathBuf;
use std::time::Instant;

use matgnn::data::{collate, Dataset, DirStore, GeneratorConfig, Normalizer, Sample, Shard};

use super::step::collate_traced;
use super::train::atoms_of;
use super::{push_common, repeat_for, setup_repeated, three_way, Ctx, Path};
use crate::report::Outcome;
use crate::stats::median;
use crate::trace::{Attribution, Recorder};
use crate::traceout;

/// Graphs in the aggregate: `(full, smoke)`.
pub const N_GRAPHS: (usize, usize) = (2048, 48);
pub const SHARD_SIZE: (usize, usize) = (64, 16);
/// Graphs per collated batch on the read side.
pub const READ_BATCH: usize = 16;

pub struct IngestState {
    pub data: Dataset,
    pub norm: Normalizer,
    pub dir: PathBuf,
    pub shard_size: usize,
    pub atoms: usize,
    pub write_s: f64,
}

impl IngestState {
    pub fn new(ctx: &Ctx) -> Result<Self, String> {
        let n = ctx.size(N_GRAPHS.0, N_GRAPHS.1);
        let shard_size = ctx.size(SHARD_SIZE.0, SHARD_SIZE.1);
        let data = Dataset::generate_aggregate(n, ctx.seed, &GeneratorConfig::default());
        let norm = Normalizer::fit(&data);
        let dir = ctx
            .out_dir
            .join(format!("ingest-store-{}-{}", std::process::id(), ctx.seed));
        let _ = std::fs::remove_dir_all(&dir);
        let t = Instant::now();
        DirStore::write(&data, &dir, shard_size)
            .map_err(|e| format!("writing {}: {e}", dir.display()))?;
        let write_s = t.elapsed().as_secs_f64();
        let atoms = atoms_of(&data);
        Ok(IngestState {
            data,
            norm,
            dir,
            shard_size,
            atoms,
            write_s,
        })
    }

    pub fn n_shards(&self) -> usize {
        self.data.len().div_ceil(self.shard_size)
    }
}

impl Drop for IngestState {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// What one repetition measured.
#[derive(Default)]
pub struct Rep {
    pub encode_s: f64,
    pub read_s: f64,
    /// Read + decode + collate time of each shard, ms.
    pub shard_ms: Vec<f64>,
    pub encoded_bytes: usize,
    pub failed: u64,
    /// Read-back disagreed with what was written (first difference).
    pub mismatch: Option<String>,
}

/// Encodes every shard in memory, then opens the store and reads every
/// shard back, collating it in batches. With `recomposed` the collate is
/// the span-by-span re-composition; otherwise it is the library's.
pub fn rep(state: &IngestState, rec: &mut Recorder, recomposed: bool) -> Rep {
    let mut out = Rep::default();
    let t = Instant::now();
    for chunk in state.data.samples().chunks(state.shard_size) {
        rec.next_op();
        let root = rec.open("op.encode_shard");
        let refs: Vec<&Sample> = chunk.iter().collect();
        let shard = rec.span("data.shard.encode", || Shard::encode(&refs));
        out.encoded_bytes += shard.len_bytes();
        rec.close(root);
    }
    out.encode_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    rec.next_op();
    let root = rec.open("op.open_store");
    let store = rec.span("data.dirstore.open", || DirStore::open(&state.dir));
    rec.close(root);
    // The read side is the open plus every shard's read; checking what
    // came back runs between shards and is not part of it.
    let open_s = t.elapsed().as_secs_f64();
    let store = match store {
        Ok(s) => s,
        Err(e) => {
            out.failed = state.n_shards() as u64;
            out.mismatch = Some(format!("open: {e}"));
            return out;
        }
    };
    let mut seen = 0;
    for i in 0..store.n_shards() {
        let t_shard = Instant::now();
        rec.next_op();
        let root = rec.open("op.read_shard");
        let samples = rec.span("data.dirstore.read_shard", || store.read_shard(i));
        let samples = match samples {
            Ok(s) => s,
            Err(e) => {
                rec.close(root);
                out.failed += 1;
                out.mismatch.get_or_insert(format!("shard {i}: {e}"));
                continue;
            }
        };
        for batch in samples.chunks(READ_BATCH) {
            let refs: Vec<&Sample> = batch.iter().collect();
            if recomposed {
                let collated = collate_traced(rec, &refs, &state.norm);
                rec.span("data.batch.release", || drop(collated));
            } else {
                drop(std::hint::black_box(collate(&refs, &state.norm)));
            }
        }
        rec.close(root);
        out.shard_ms.push(t_shard.elapsed().as_secs_f64() * 1e3);
        // Outside the shard's timing: what came back is what went in.
        for (k, s) in samples.iter().enumerate() {
            let want = state.data.sample(seen + k);
            if out.mismatch.is_none()
                && (s.graph.species() != want.graph.species()
                    || s.energy.to_bits() != want.energy.to_bits())
            {
                out.mismatch = Some(format!("sample {} differs after the round trip", seen + k));
            }
        }
        seen += samples.len();
    }
    out.read_s = open_s + out.shard_ms.iter().sum::<f64>() / 1e3;
    if out.mismatch.is_none() && seen != state.data.len() {
        out.mismatch = Some(format!(
            "read back {seen} graphs, wrote {}",
            state.data.len()
        ));
    }
    out
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_error = None;
    let (state, setup_times) = setup_repeated(ctx, || match IngestState::new(ctx) {
        Ok(state) => {
            // Warm-up: page cache, recycler.
            rep(&state, &mut Recorder::new(false, Instant::now(), 0), false);
            Some(state)
        }
        Err(e) => {
            setup_error = Some(e);
            None
        }
    });
    let Some(state) = state else {
        out.check("store_written", false, setup_error.unwrap_or_default());
        return out;
    };
    if ctx.trace {
        return traced(ctx, &state);
    }

    let mut off = Recorder::new(false, Instant::now(), 0);
    let (mut throughput, mut enc_aps, mut read_aps, mut shard_p50) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut mismatch = None;
    repeat_for(ctx.seconds, |_| {
        let r = rep(&state, &mut off, false);
        out.attempted += 2 * state.n_shards() as u64;
        out.failed += r.failed;
        throughput.push(state.atoms as f64 / (r.encode_s + r.read_s));
        enc_aps.push(state.atoms as f64 / r.encode_s);
        read_aps.push(state.atoms as f64 / r.read_s);
        shard_p50.push(median(&r.shard_ms).unwrap_or(f64::NAN));
        if mismatch.is_none() {
            mismatch = r.mismatch;
        }
    });
    out.check(
        "round_trip_exact",
        mismatch.is_none(),
        mismatch.unwrap_or_else(|| {
            format!(
                "{} graphs: count, species and energies equal what was written",
                state.data.len()
            )
        }),
    );

    out.push_samples("atoms_per_s", "atoms/s", throughput);
    out.push_samples("op_ms_p50", "ms", shard_p50);
    push_common(&mut out, setup_times);
    out.extra.push(crate::report::Measured::new(
        "encode_atoms_per_s",
        "atoms/s",
        enc_aps,
    ));
    out.extra.push(crate::report::Measured::new(
        "read_atoms_per_s",
        "atoms/s",
        read_aps,
    ));
    out.note("graphs", "count", state.data.len() as f64);
    out.note("atoms", "count", state.atoms as f64);
    out.note("shards", "count", state.n_shards() as f64);
    out.note("durable_write_s", "s", state.write_s);
    out
}

fn traced(ctx: &Ctx, state: &IngestState) -> Outcome {
    let origin = Instant::now();
    let mut out = Outcome::default();
    let mut off = Recorder::new(false, origin, 0);
    let mut rec = Recorder::new(true, origin, 0);
    let mut mismatch = None;
    let mut failed = 0;
    let walls = three_way(ctx.seconds, |path| {
        let r = match path {
            Path::Library => rep(state, &mut off, false),
            Path::Untraced => rep(state, &mut off, true),
            Path::Traced => rep(state, &mut rec, true),
        };
        failed += r.failed;
        if mismatch.is_none() {
            mismatch = r.mismatch;
        }
        r.encode_s + r.read_s
    });

    let mut attr = Attribution::default();
    attr.absorb(rec.spans());
    out.attempted = attr.calls_of("op.encode_shard") + attr.calls_of("op.read_shard");
    out.failed = failed;
    out.check(
        "round_trip_exact",
        mismatch.is_none(),
        mismatch.unwrap_or_default(),
    );
    walls.push(&mut out, &attr, "op.read_shard");
    traceout::write(ctx, "ingest", &[&rec], &mut out);
    out
}
