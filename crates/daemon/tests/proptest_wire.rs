//! One generic property test over every `Wire` type of the workspace.
//!
//! For random values of each type it checks the codec laws:
//!
//! 1. `decode(encode(x)) == x`, consuming every byte (and re-encoding the
//!    result reproduces the bytes exactly);
//! 2. every strict prefix of an encoding decodes to `Err` — a truncated
//!    frame is never mistaken for a shorter valid one;
//! 3. arbitrary bytes, and valid encodings with random bytes overwritten,
//!    decode to `Ok` or `Err` but never panic or over-allocate.
//!
//! This crate sees every other one, so the test lives here.

use std::fmt::Debug;
use std::path::PathBuf;
use std::time::Duration;

use melissa::protocol::Message;
use melissa::StudyConfig;
use melissa_daemon::protocol::{DaemonOp, DaemonReply, DaemonRequest, StudyState};
use melissa_telemetry::{
    EventKind, HistogramSnapshot, LinkScrape, MetricsSnapshot, ScrapeFormat, ScrapeReply,
    ScrapeRequest, ScrapeSnapshot, StudyEvent, N_BUCKETS,
};
use melissa_transport::codec::Wire;
use melissa_transport::directory::{DirAck, DirListing, DirRequest, DirResolved};
use melissa_transport::{FaultPolicy, TransportKind, WireCompression};
use proptest::prelude::*;
use proptest::TestCaseError;

/// Deterministic value source (SplitMix64) seeded by the property case.
struct Gen(u64);

impl Gen {
    fn u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.u64() % n
    }

    fn u32(&mut self) -> u32 {
        self.u64() as u32
    }

    fn i64(&mut self) -> i64 {
        self.u64() as i64
    }

    fn usize(&mut self) -> usize {
        self.below(1 << 20) as usize
    }

    fn bool(&mut self) -> bool {
        self.below(2) == 1
    }

    /// Any non-NaN double, specials and subnormals included.
    fn f64(&mut self) -> f64 {
        match self.below(8) {
            0 => f64::INFINITY,
            1 => -0.0,
            2 => f64::from_bits(self.below(1 << 52)),
            _ => {
                let v = f64::from_bits(self.u64());
                if v.is_nan() {
                    1.5
                } else {
                    v
                }
            }
        }
    }

    fn string(&mut self) -> String {
        const ALPHABET: [&str; 6] = ["a", "/", "7", "é", "\"", "ü"];
        (0..self.below(12))
            .map(|_| ALPHABET[self.below(6) as usize])
            .collect()
    }

    fn opt<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> Option<T> {
        self.bool().then(|| f(self))
    }

    fn vec<T>(&mut self, max: u64, mut f: impl FnMut(&mut Self) -> T) -> Vec<T> {
        (0..self.below(max + 1)).map(|_| f(self)).collect()
    }

    fn duration(&mut self) -> Duration {
        Duration::from_nanos(self.u64())
    }

    fn message(&mut self) -> Message {
        match self.below(11) {
            0 => Message::ConnectRequest {
                group_id: self.u64(),
                instance: self.u32(),
            },
            1 => Message::ConnectReply {
                n_workers: self.u32(),
                n_cells: self.u64(),
                p: self.u32(),
                n_timesteps: self.u32(),
            },
            2 => Message::Data {
                group_id: self.u64(),
                instance: self.u32(),
                role: self.u64() as u16,
                timestep: self.u32(),
                start: self.u64(),
                values: self.vec(40, Self::f64),
            },
            3 => Message::Heartbeat { sender: self.u32() },
            4 => Message::ServerReady,
            5 => Message::ServerReport {
                finished_groups: self.vec(6, Self::u64),
                running_groups: self.vec(6, Self::u64),
                max_ci_width: self.f64(),
                max_quantile_step: self.f64(),
                quantile_steps: self.vec(7, Self::f64),
                blocked_sends: self.u64(),
                blocked_nanos: self.u64(),
            },
            6 => Message::GroupTimeout {
                group_id: self.u64(),
            },
            7 => Message::Checkpoint { dir: self.string() },
            8 => Message::Stop,
            9 => Message::MigrateOut {
                group_id: self.u64(),
            },
            _ => Message::AdoptFloor {
                group_id: self.u64(),
                floor: self.i64(),
            },
        }
    }

    fn transport_kind(&mut self) -> TransportKind {
        match self.below(3) {
            0 => TransportKind::InProcess,
            1 => TransportKind::Tcp,
            _ => TransportKind::TcpNode {
                host: self.string(),
                port: self.u64() as u16,
                advertise: self.opt(Self::string),
                directory: self.opt(Self::string),
            },
        }
    }

    fn wire_compression(&mut self) -> WireCompression {
        match self.below(3) {
            0 => WireCompression::Off,
            1 => WireCompression::Transpose,
            _ => WireCompression::Truncate {
                mantissa_bits: 1 + self.below(52) as u8,
            },
        }
    }

    fn fault_policy(&mut self) -> FaultPolicy {
        FaultPolicy {
            drop_probability: self.f64(),
            delay: self.duration(),
        }
    }

    fn study_config(&mut self) -> StudyConfig {
        let mut c = StudyConfig::tiny();
        c.n_groups = self.usize();
        c.transport = self.transport_kind();
        c.n_shards = self.usize();
        c.shard_seed = self.u64();
        c.solver.nx = self.usize();
        c.solver.ny = self.usize();
        c.solver.nz = self.usize();
        c.solver.lx = self.f64();
        c.solver.ly = self.f64();
        c.solver.lz = self.f64();
        c.solver.u_inlet = self.f64();
        c.solver.diffusivity = self.f64();
        c.solver.n_timesteps = self.usize();
        c.solver.total_time = self.f64();
        c.solver.prerun_tol = self.f64();
        c.ranks_per_simulation = self.usize();
        c.server_workers = self.usize();
        c.hwm = self.usize();
        c.max_concurrent_groups = self.usize();
        c.seed = self.u64();
        c.group_timeout = self.duration();
        c.server_timeout = self.duration();
        c.checkpoint_interval = self.duration();
        c.checkpoint_dir = PathBuf::from(self.string());
        c.max_group_retries = self.u32();
        c.target_ci_width = self.opt(Self::f64);
        c.ci_variance_floor = self.f64();
        c.target_quantile_step = self.opt(Self::f64);
        c.wall_limit = self.duration();
        c.migration_timeout = self.duration();
        c.wire_compression = self.wire_compression();
        c.link_fault = self.fault_policy();
        c.thresholds = self.vec(4, Self::f64);
        c.quantile_probs = self.vec(7, Self::f64);
        c.telemetry = self.bool();
        c
    }

    fn study_state(&mut self) -> StudyState {
        [
            StudyState::Queued,
            StudyState::Running,
            StudyState::Done,
            StudyState::Failed,
            StudyState::Cancelled,
        ][self.below(5) as usize]
    }

    fn daemon_request(&mut self) -> DaemonRequest {
        let op = match self.below(5) {
            0 => DaemonOp::Submit {
                tenant: self.string(),
                priority: self.u64() as u8,
                config: Box::new(self.study_config()),
            },
            1 => DaemonOp::Status { study: self.u64() },
            2 => DaemonOp::Cancel { study: self.u64() },
            3 => DaemonOp::Results { study: self.u64() },
            _ => DaemonOp::Shutdown,
        };
        DaemonRequest {
            reply_to: self.string(),
            op,
        }
    }

    fn daemon_reply(&mut self) -> DaemonReply {
        match self.below(7) {
            0 => DaemonReply::Submitted { study: self.u64() },
            1 => DaemonReply::Rejected {
                tenant: self.string(),
                resource: self.string(),
            },
            2 => DaemonReply::Status {
                study: self.u64(),
                state: self.study_state(),
                tenant: self.string(),
                groups_finished: self.u64(),
                n_groups: self.u64(),
            },
            3 => DaemonReply::Cancelled { study: self.u64() },
            4 => DaemonReply::Results {
                p: self.u64(),
                n_timesteps: self.u64(),
                n_cells: self.u64(),
                groups_finished: self.u64(),
                workers: self.vec(3, |g| g.vec(16, |g| g.u64() as u8)),
            },
            5 => DaemonReply::Error {
                detail: self.string(),
            },
            _ => DaemonReply::ShuttingDown,
        }
    }

    fn event_kind(&mut self) -> EventKind {
        match self.below(16) {
            0 => EventKind::GroupTimeout { group: self.u64() },
            1 => EventKind::GroupRestarted {
                group: self.u64(),
                instance: self.u32(),
            },
            2 => EventKind::GroupDied {
                group: self.u64(),
                instance: self.u32(),
                detail: self.string(),
            },
            3 => EventKind::GroupZombie {
                group: self.u64(),
                instance: self.u32(),
            },
            4 => EventKind::GroupAbandoned {
                group: self.u64(),
                retries: self.u32(),
            },
            5 => EventKind::GroupResubmitted {
                group: self.u64(),
                instance: self.u32(),
            },
            6 => EventKind::ServerRestarted,
            7 => EventKind::ServerKillInjected {
                finished: self.u64(),
            },
            8 => EventKind::ShardDeathInjected {
                finished: self.u64(),
                rehome_to: self.u32(),
            },
            9 => EventKind::MigrationFence {
                epoch: self.u64(),
                n_groups: self.u64(),
                from: self.u32(),
                to: self.u32(),
            },
            10 => EventKind::GroupsAdopted {
                epoch: self.u64(),
                n_groups: self.u64(),
                from: self.u32(),
            },
            11 => EventKind::FinishedDuringFence {
                group: self.u64(),
                shard: self.u32(),
            },
            12 => EventKind::ShardRehomed {
                epoch: self.u64(),
                n_groups: self.u64(),
                from: self.u32(),
                to: self.u32(),
            },
            13 => EventKind::CheckpointUnreadable {
                worker: self.u32(),
                detail: self.string(),
            },
            14 => EventKind::EarlyStop {
                max_ci: self.f64(),
                max_qstep: self.f64(),
                cancelled: self.u64(),
            },
            _ => EventKind::Info {
                text: self.string(),
            },
        }
    }

    fn study_event(&mut self) -> StudyEvent {
        StudyEvent {
            seq: self.u64(),
            at_nanos: self.u64(),
            shard: self.u32(),
            kind: self.event_kind(),
        }
    }

    fn metrics(&mut self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.vec(3, |g| (g.string(), g.u64())),
            gauges: self.vec(3, |g| (g.string(), g.u64())),
            histograms: self.vec(2, |g| {
                let buckets = (0..N_BUCKETS).map(|_| g.below(4)).collect();
                (
                    g.string(),
                    HistogramSnapshot {
                        buckets,
                        sum: g.u64(),
                    },
                )
            }),
        }
    }

    fn scrape_format(&mut self) -> ScrapeFormat {
        [
            ScrapeFormat::Binary,
            ScrapeFormat::Json,
            ScrapeFormat::Prometheus,
        ][self.below(3) as usize]
    }

    fn scrape_snapshot(&mut self) -> ScrapeSnapshot {
        ScrapeSnapshot {
            shard: self.u32(),
            backend: self.string(),
            uptime_nanos: self.u64(),
            groups_finished: self.u64(),
            groups_running: self.u64(),
            max_ci_width: self.f64(),
            max_quantile_step: self.f64(),
            routing_epoch: self.u64(),
            reconnects: self.u64(),
            links: self.vec(3, |g| LinkScrape {
                endpoint: g.string(),
                messages: g.u64(),
                bytes: g.u64(),
                wire_bytes: g.u64(),
                blocked_sends: g.u64(),
                blocked_nanos: g.u64(),
            }),
            metrics: self.metrics(),
            events: self.vec(3, Self::study_event),
        }
    }

    fn dir_request(&mut self) -> DirRequest {
        match self.below(5) {
            0 => DirRequest::Publish {
                name: self.string(),
                addr: self.string(),
            },
            1 => DirRequest::Resolve {
                name: self.string(),
            },
            2 => DirRequest::Unpublish {
                name: self.string(),
            },
            3 => DirRequest::Renew {
                entries: self.vec(4, |g| (g.string(), g.string())),
            },
            _ => DirRequest::List,
        }
    }

    fn dir_resolved(&mut self) -> DirResolved {
        match self.opt(Self::string) {
            Some(addr) => DirResolved::Found { addr },
            None => DirResolved::NotFound,
        }
    }
}

/// Law 1 and, when `prefixes_fail`, law 2 for one value.
fn check_laws<T: Wire + PartialEq + Debug>(
    x: &T,
    prefixes_fail: bool,
) -> Result<(), TestCaseError> {
    let bytes = x.to_bytes();
    let mut rest = &bytes[..];
    let back = T::decode_from(&mut rest)
        .map_err(|e| TestCaseError(format!("{x:?} failed to decode: {e}")))?;
    prop_assert!(rest.is_empty(), "{} bytes left after {x:?}", rest.len());
    prop_assert_eq!(&back, x);
    prop_assert_eq!(back.to_bytes(), bytes.clone());
    if prefixes_fail {
        for cut in 0..bytes.len() {
            prop_assert!(
                T::decode_from(&mut &bytes[..cut]).is_err(),
                "{cut}-byte prefix of {x:?} decoded"
            );
        }
    }
    Ok(())
}

/// Law 3: decoding `bytes`, and `valid` with bytes overwritten from
/// `noise`, must return (either way) without panicking.
fn check_hostile<T: Wire + Debug>(valid: &T, noise: &[u8]) {
    let _ = T::decode_from(&mut &noise[..]);
    let mut mutated = valid.to_bytes().to_vec();
    if !mutated.is_empty() {
        for pair in noise.chunks(2) {
            let at = pair[0] as usize % mutated.len();
            mutated[at] = *pair.last().expect("non-empty chunk");
        }
    }
    let _ = T::decode_from(&mut &mutated[..]);
}

/// Every law for one value.
fn laws<T: Wire + PartialEq + Debug>(x: T, noise: &[u8]) -> Result<(), TestCaseError> {
    check_laws(&x, true)?;
    check_hostile(&x, noise);
    Ok(())
}

fn any_byte() -> impl Strategy<Value = u8> {
    (0u16..256).prop_map(|b| b as u8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_wire_type_obeys_the_codec_laws(
        seed in 0u64..u64::MAX,
        noise in prop::collection::vec(any_byte(), 0..64),
    ) {
        let g = &mut Gen(seed);
        let noise = &noise[..];
        laws(g.message(), noise)?;
        laws(g.study_config(), noise)?;
        laws(g.transport_kind(), noise)?;
        laws(g.wire_compression(), noise)?;
        laws(g.fault_policy(), noise)?;
        laws(g.study_state(), noise)?;
        laws(g.daemon_request(), noise)?;
        laws(g.daemon_reply(), noise)?;
        laws(g.event_kind(), noise)?;
        laws(g.study_event(), noise)?;
        laws(g.vec(4, Gen::study_event), noise)?;
        laws(g.metrics(), noise)?;
        laws(g.scrape_format(), noise)?;
        laws(ScrapeRequest { reply_to: g.string(), format: g.scrape_format() }, noise)?;
        laws(g.scrape_snapshot(), noise)?;
        laws(ScrapeReply::Snapshot(Box::new(g.scrape_snapshot())), noise)?;
        laws(g.dir_request(), noise)?;
        laws(DirAck::Ok, noise)?;
        laws(g.dir_resolved(), noise)?;
        laws(DirListing::Entries { entries: g.vec(4, |g| (g.string(), g.string())) }, noise)?;
        // Scalars and containers.
        laws(g.u64() as u8, noise)?;
        laws(g.u64() as u16, noise)?;
        laws(g.u32(), noise)?;
        laws(g.i64(), noise)?;
        laws(g.usize(), noise)?;
        laws(g.bool(), noise)?;
        laws(g.string(), noise)?;
        laws(PathBuf::from(g.string()), noise)?;
        laws(g.duration(), noise)?;
        laws(g.opt(Gen::f64), noise)?;
        laws(g.vec(9, |g| g.u64() as u8), noise)?;
        laws(g.vec(9, Gen::f64), noise)?;
        laws(g.vec(4, |g| (g.u64(), g.i64())), noise)?;
    }

    /// Text replies run to the end of their frame, so a prefix is a
    /// shorter valid text: only laws 1 and 3 apply.
    #[test]
    fn text_scrape_replies_round_trip(seed in 0u64..u64::MAX, noise in prop::collection::vec(any_byte(), 0..64)) {
        let g = &mut Gen(seed);
        let reply = ScrapeReply::Text(g.string());
        check_laws(&reply, false)?;
        check_hostile(&reply, &noise);
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any_byte(), 0..256)) {
        fn decode<T: Wire>(bytes: &[u8]) {
            let _ = T::decode_from(&mut &bytes[..]);
        }
        decode::<Message>(&bytes);
        decode::<StudyConfig>(&bytes);
        decode::<DaemonRequest>(&bytes);
        decode::<DaemonReply>(&bytes);
        decode::<Vec<StudyEvent>>(&bytes);
        decode::<MetricsSnapshot>(&bytes);
        decode::<ScrapeRequest>(&bytes);
        decode::<ScrapeReply>(&bytes);
        decode::<DirRequest>(&bytes);
        decode::<DirResolved>(&bytes);
        decode::<DirListing>(&bytes);
        // Skipping the tag byte reaches the variant bodies directly.
        if let Some(body) = bytes.get(1..) {
            decode::<ScrapeSnapshot>(body);
            decode::<Vec<Vec<u8>>>(body);
            decode::<Vec<(String, u64)>>(body);
        }
    }
}
