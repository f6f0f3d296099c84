//! Layer measurements of a traced run that replay the run's own data
//! through single public entry points: the wire codec, checkpoint
//! packing and writing, the shard reduction and the fused sweep.

use std::io::{Read, Write};
use std::path::Path;
use std::time::Instant;

use bytes::Bytes;
use melissa::protocol::Message;
use melissa::server::checkpoint::{pack_state, write_checkpoint};
use melissa::server::state::WorkerState;
use melissa::shard::reduce_worker_states;
use melissa::{GroupRouter, StudyResults};
use melissa_mesh::SlabPartition;
use melissa_transport::{compress_payload, decompress_payload};

const MIB: f64 = 1024.0 * 1024.0;

/// Codec throughput on a set of frames.
#[derive(Debug, Clone, Copy, Default)]
pub struct Codec {
    /// Frame bytes compressed per second of `compress_payload`.
    pub compress_mib_per_s: f64,
    /// Frame bytes restored per second of `decompress_payload`.
    pub decompress_mib_per_s: f64,
    /// Frame bytes over compressed bytes (raw fallbacks count raw).
    pub ratio: f64,
}

impl Codec {
    /// The link rate below which compressing pays: sending `S` raw bytes
    /// at rate `B` takes `S/B`; compressing, sending `S/r` and restoring
    /// takes `S/c + S/(rB) + S/d`.  Equal at `B = (1 − 1/r)/(1/c + 1/d)`.
    pub fn breakeven_mib_per_s(&self) -> f64 {
        if self.ratio <= 1.0 || self.compress_mib_per_s <= 0.0 {
            return 0.0;
        }
        (1.0 - 1.0 / self.ratio) / (1.0 / self.compress_mib_per_s + 1.0 / self.decompress_mib_per_s)
    }
}

/// Runs the lossless wire codec over `frames`, repeating until at least
/// `min_s` seconds of compression have been timed.
pub fn codec(frames: &[Bytes], min_s: f64) -> Codec {
    let raw: usize = frames.iter().map(|f| f.len()).sum();
    if raw == 0 {
        return Codec::default();
    }
    let (mut comp_s, mut decomp_s, mut rounds) = (0.0, 0.0, 0u32);
    let mut wire = 0usize;
    while rounds == 0 || comp_s < min_s {
        wire = 0;
        let t = Instant::now();
        let images: Vec<Option<Vec<u8>>> = frames
            .iter()
            .map(|f| compress_payload(std::hint::black_box(f)))
            .collect();
        comp_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        for (image, frame) in images.iter().zip(frames) {
            match image {
                Some(image) => {
                    wire += image.len();
                    let restored = decompress_payload(image).expect("codec round trip");
                    assert!(
                        restored[..] == frame[..],
                        "codec round trip changed a frame"
                    );
                }
                None => wire += frame.len(),
            }
        }
        decomp_s += t.elapsed().as_secs_f64();
        rounds += 1;
    }
    let total = raw as f64 * f64::from(rounds) / MIB;
    Codec {
        compress_mib_per_s: total / comp_s,
        decompress_mib_per_s: total / decomp_s.max(1e-9),
        ratio: raw as f64 / wire as f64,
    }
}

/// Checkpoint cost of a set of final worker states.
#[derive(Debug, Clone, Copy, Default)]
pub struct Checkpoint {
    /// Seconds in `pack_state`, all workers.
    pub pack_s: f64,
    /// Seconds in `write_checkpoint`, all workers.
    pub write_s: f64,
    /// Packed size, all workers.
    pub mib: f64,
}

/// Packs and writes every worker state of `results` into `dir`.
pub fn checkpoint(results: &StudyResults, dir: &Path) -> Result<Checkpoint, String> {
    let mut out = Checkpoint::default();
    for state in results.workers() {
        let t = Instant::now();
        let packed = pack_state(state);
        out.pack_s += t.elapsed().as_secs_f64();
        out.mib += packed.len() as f64 / MIB;
        drop(packed);
        let t = Instant::now();
        write_checkpoint(dir, state).map_err(|e| format!("checkpoint write: {e}"))?;
        out.write_s += t.elapsed().as_secs_f64();
    }
    Ok(out)
}

/// The shape worker states are built with.
#[derive(Debug, Clone)]
pub struct StateShape {
    /// Mesh cells.
    pub cells: usize,
    /// Server workers per shard.
    pub workers: usize,
    /// Varied parameters.
    pub p: usize,
    /// Timesteps.
    pub timesteps: usize,
    /// Threshold levels.
    pub thresholds: Vec<f64>,
    /// Quantile probabilities.
    pub quantiles: Vec<f64>,
}

impl StateShape {
    /// Fresh (empty) worker states of this shape.
    pub fn fresh(&self) -> Vec<WorkerState> {
        let partition = SlabPartition::new(self.cells, self.workers);
        (0..self.workers)
            .map(|w| {
                WorkerState::with_stats(
                    w,
                    partition.worker_range(w),
                    self.p,
                    self.timesteps,
                    &self.thresholds,
                    &self.quantiles,
                )
            })
            .collect()
    }
}

/// One decoded `Data` frame.
#[derive(Debug, Clone)]
pub struct Chunk {
    group: u64,
    role: u16,
    timestep: u32,
    start: u64,
    values: Vec<f64>,
}

/// Decodes the `Data` frames among `frames`.
pub fn decode(frames: &[Bytes]) -> Vec<Chunk> {
    frames
        .iter()
        .filter_map(|f| match Message::decode(f) {
            Ok(Message::Data {
                group_id,
                role,
                timestep,
                start,
                values,
                ..
            }) => Some(Chunk {
                group: group_id,
                role,
                timestep,
                start,
                values,
            }),
            _ => None,
        })
        .collect()
}

/// Feeds `chunks` into `states` through `WorkerState::on_data`, the
/// group id shifted by `group_offset`; returns the values ingested.
pub fn ingest(states: &mut [WorkerState], chunks: &[Chunk], group_offset: u64) -> u64 {
    let mut values = 0u64;
    for c in chunks {
        let at = c.start as usize;
        let w = states
            .iter()
            .position(|s| at >= s.slab().start && at < s.slab().end())
            .expect("chunk inside the mesh");
        states[w].on_data(
            c.group + group_offset,
            c.role,
            c.timestep,
            c.start,
            &c.values,
        );
        values += c.values.len() as u64;
    }
    values
}

/// The study-end reduction timed on per-shard states of the run's own
/// shape, each shard holding the captured groups the router gives it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Reduce {
    /// Seconds in `reduce_worker_states`.
    pub reduce_s: f64,
    /// Packed size of the states reduced.
    pub mib: f64,
}

/// Builds one state set per shard from `frames` and times the reduction.
pub fn reduce(frames: &[Bytes], shape: &StateShape, router: GroupRouter) -> Reduce {
    let mut shards: Vec<Vec<WorkerState>> = (0..router.n_shards()).map(|_| shape.fresh()).collect();
    for chunk in decode(frames) {
        let k = router.shard_of(chunk.group);
        ingest(&mut shards[k], std::slice::from_ref(&chunk), 0);
    }
    let mib = shards
        .iter()
        .flatten()
        .map(|s| pack_state(s).len() as f64 / MIB)
        .sum();
    let t = Instant::now();
    let reduced = reduce_worker_states(&shards);
    let reduce_s = t.elapsed().as_secs_f64();
    drop(std::hint::black_box(reduced));
    Reduce { reduce_s, mib }
}

/// Writes frames as `u32` length-prefixed records.
pub fn write_frames(path: &Path, frames: &[Bytes]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for f in frames {
        out.write_all(&(f.len() as u32).to_le_bytes())?;
        out.write_all(f)?;
    }
    out.flush()
}

/// Reads frames written by [`write_frames`].
pub fn read_frames(path: &Path) -> std::io::Result<Vec<Bytes>> {
    let mut data = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut data)?;
    let mut frames = Vec::new();
    let mut at = 0;
    while at + 4 <= data.len() {
        let len = u32::from_le_bytes(data[at..at + 4].try_into().expect("4 bytes")) as usize;
        let end = (at + 4 + len).min(data.len());
        frames.push(Bytes::copy_from_slice(&data[at + 4..end]));
        at = end;
    }
    Ok(frames)
}

/// Times the fused sweep: replays decoded `frames` into fresh states of
/// `shape` (a new group id per pass, so nothing is discarded as a replay)
/// until at least `min_s` seconds have been timed.  Returns nanoseconds
/// per cell value ingested.  Runs on however many threads the process's
/// parallel runtime was started with.
pub fn sweep(frames: &[Bytes], shape: &StateShape, min_s: f64) -> f64 {
    let chunks = decode(frames);
    let mut states = shape.fresh();
    let (mut spent, mut values, mut pass) = (0.0, 0u64, 0u64);
    while pass == 0 || spent < min_s {
        let t = Instant::now();
        values += ingest(&mut states, &chunks, pass << 32);
        spent += t.elapsed().as_secs_f64();
        pass += 1;
    }
    spent * 1e9 / values.max(1) as f64
}
