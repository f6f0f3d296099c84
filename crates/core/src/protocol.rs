//! Melissa wire protocol: the messages exchanged between simulation
//! groups, the parallel server and the launcher.
//!
//! Encoded with the fixed little-endian layout of
//! [`melissa_transport::codec`]; one tag byte selects the variant (the
//! [`wire_enum!`](melissa_transport::wire_enum) list below).  Every
//! message carries enough identity (`group_id`, `instance`, `timestep`) for
//! the server's discard-on-replay policy (paper Section 4.2.1).

use bytes::{Bytes, BytesMut};
use melissa_transport::codec::{Wire, WireResult};

/// One Melissa protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Group → server main: request partition info at connection time.
    /// The server replies on the group's reply endpoint
    /// (`group/<id>/<instance>/reply`).
    ConnectRequest {
        /// Simulation-group id (design row).
        group_id: u64,
        /// Restart instance (0 for the first launch).
        instance: u32,
    },
    /// Server main → group: everything the client needs to open direct
    /// connections to the workers (paper Section 4.1.3).
    ConnectReply {
        /// Number of server worker processes.
        n_workers: u32,
        /// Global cell count (defines the slab partition).
        n_cells: u64,
        /// Number of variable parameters `p`.
        p: u32,
        /// Expected number of timesteps per simulation.
        n_timesteps: u32,
    },
    /// Group rank → server worker: one role's field chunk for one timestep.
    Data {
        /// Simulation-group id.
        group_id: u64,
        /// Restart instance.
        instance: u32,
        /// Simulation role index (`A`=0, `B`=1, `C^k`=2+k).
        role: u16,
        /// Timestep id.
        timestep: u32,
        /// First global cell id of the chunk.
        start: u64,
        /// Chunk values.
        values: Vec<f64>,
    },
    /// Server main → launcher: liveness heartbeat.
    Heartbeat {
        /// Reporting process id (0 = server main).
        sender: u32,
    },
    /// Server main → launcher: bound and ready to accept connections.
    ServerReady,
    /// Server main → launcher: periodic study-progress report
    /// (paper Fig. 3: "Melissa Server regularly sends reports to the
    /// launcher for detecting failures or adapting the study").
    ServerReport {
        /// Groups every worker has fully integrated.
        finished_groups: Vec<u64>,
        /// Groups with at least one received message, not yet finished.
        running_groups: Vec<u64>,
        /// Widest 95 % confidence interval across all tracked indices
        /// (convergence-control signal, Section 4.1.5).
        max_ci_width: f64,
        /// Widest possible next Robbins–Monro quantile step across all
        /// workers (the order-statistics convergence signal; 0 when
        /// quantiles are disabled).
        max_quantile_step: f64,
        /// Per-probability quantile steps (same order as the configured
        /// probabilities), so studies tracking extreme percentiles can
        /// stop on the slowest estimate.  Empty when quantiles are
        /// disabled or not every worker has reported yet.
        quantile_steps: Vec<f64>,
        /// Study-level rollup: sends toward the server's data endpoints
        /// that hit the high-water mark (the Fig. 6 backpressure signal,
        /// live).
        blocked_sends: u64,
        /// Study-level rollup: nanoseconds those sends spent blocked.
        blocked_nanos: u64,
    },
    /// Server main → launcher: a group exceeded the message timeout
    /// (unfinished-group fault, Section 4.2.2).
    GroupTimeout {
        /// The silent group.
        group_id: u64,
    },
    /// Launcher → server: checkpoint now (also triggered periodically by
    /// the server itself).
    Checkpoint {
        /// Directory for the per-process checkpoint files.
        dir: String,
    },
    /// Launcher → server: finish cleanly (final checkpoint + stop).
    Stop,
    /// Launcher → server workers: fence a group away under a new routing
    /// epoch.  The message is FIFO-ordered behind every in-flight `Data`
    /// frame on the launcher connection, so by the time a worker handles
    /// it the worker's discard floor for the group is final — the flush
    /// barrier of the migration protocol.  The worker bans the group
    /// (subsequent straggler frames are discarded) and publishes its
    /// floor through shared memory for the supervisor to hand off.
    MigrateOut {
        /// The group leaving this shard.
        group_id: u64,
    },
    /// Launcher → server workers: adopt a migrated group.  Lifts any ban
    /// and raises the discard-on-replay floor to the source worker's last
    /// integrated timestep, so the migrated instance's replay from
    /// timestep 0 resumes integration exactly where the source stopped.
    AdoptFloor {
        /// The group arriving on this shard.
        group_id: u64,
        /// The source worker's last integrated timestep (`-1` if none).
        floor: i64,
    },
}

melissa_transport::wire_enum!(Message {
    1 => ConnectRequest { group_id, instance },
    2 => ConnectReply { n_workers, n_cells, p, n_timesteps },
    3 => Data { group_id, instance, role, timestep, start, values },
    4 => Heartbeat { sender },
    5 => ServerReady,
    6 => ServerReport {
        finished_groups,
        running_groups,
        max_ci_width,
        max_quantile_step,
        quantile_steps,
        blocked_sends,
        blocked_nanos,
    },
    7 => GroupTimeout { group_id },
    8 => Checkpoint { dir },
    9 => Stop,
    10 => MigrateOut { group_id },
    11 => AdoptFloor { group_id, floor },
});

impl Message {
    /// Encodes the message to a frame, in a buffer pre-sized to the
    /// payload.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_size_hint());
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Rough encoded size (for buffer pre-allocation).
    fn encoded_size_hint(&self) -> usize {
        match self {
            Message::Data { values, .. } => 40 + values.len() * 8,
            Message::ServerReport {
                finished_groups,
                running_groups,
                ..
            } => 32 + (finished_groups.len() + running_groups.len()) * 8,
            _ => 64,
        }
    }

    /// Decodes a frame; `Data.values` takes the bulk path of `f64`'s
    /// [`Wire::decode_seq`] (one contiguous copy, not a cursor round-trip
    /// per value).
    pub fn decode(frame: &Bytes) -> WireResult<Message> {
        Message::decode_from(&mut frame.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Message) {
        let frame = msg.encode();
        assert_eq!(Message::decode(&frame).unwrap(), msg);
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(Message::ConnectRequest {
            group_id: 42,
            instance: 3,
        });
        roundtrip(Message::ConnectReply {
            n_workers: 8,
            n_cells: 1 << 33,
            p: 6,
            n_timesteps: 100,
        });
        roundtrip(Message::Data {
            group_id: 7,
            instance: 1,
            role: 5,
            timestep: 99,
            start: 12345,
            values: vec![1.0, -2.5, 1e300, f64::MIN_POSITIVE],
        });
        roundtrip(Message::Heartbeat { sender: 0 });
        roundtrip(Message::ServerReady);
        roundtrip(Message::ServerReport {
            finished_groups: vec![1, 2, 3],
            running_groups: vec![],
            max_ci_width: 0.25,
            max_quantile_step: 0.125,
            quantile_steps: vec![0.124, 0.0625, 0.124],
            blocked_sends: 42,
            blocked_nanos: 1_000_000,
        });
        roundtrip(Message::GroupTimeout { group_id: 9 });
        roundtrip(Message::Checkpoint {
            dir: "/tmp/ckpt".into(),
        });
        roundtrip(Message::Stop);
        roundtrip(Message::MigrateOut { group_id: 17 });
        roundtrip(Message::AdoptFloor {
            group_id: 17,
            floor: 41,
        });
        roundtrip(Message::AdoptFloor {
            group_id: 18,
            floor: -1,
        });
    }

    #[test]
    fn garbage_is_rejected() {
        let frame = Bytes::from_static(&[200, 1, 2, 3]);
        assert!(Message::decode(&frame).is_err());
        let empty = Bytes::new();
        assert!(Message::decode(&empty).is_err());
    }

    #[test]
    fn truncated_data_message_is_rejected() {
        let msg = Message::Data {
            group_id: 1,
            instance: 0,
            role: 0,
            timestep: 0,
            start: 0,
            values: vec![1.0; 10],
        };
        let frame = msg.encode();
        let cut = frame.slice(0..frame.len() - 4);
        assert!(Message::decode(&cut).is_err());
    }

    #[test]
    fn data_message_size_is_dominated_by_payload() {
        let msg = Message::Data {
            group_id: 1,
            instance: 0,
            role: 0,
            timestep: 0,
            start: 0,
            values: vec![0.0; 1000],
        };
        let frame = msg.encode();
        assert!(
            frame.len() >= 8000 && frame.len() < 8100,
            "frame {} bytes",
            frame.len()
        );
    }
}
