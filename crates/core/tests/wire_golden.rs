//! Golden byte fixtures for the core wire and checkpoint layouts.
//!
//! Each fixture pins the exact bytes one value encodes to, as hex.  They
//! guard the on-the-wire and on-disk formats against accidental change:
//! a codec refactor must leave every fixture passing untouched.  To
//! change a format on purpose, bump its version and add new fixtures
//! rather than editing these.

use bytes::Bytes;
use melissa::protocol::Message;
use melissa::server::checkpoint::{pack_state, unpack_state};
use melissa::server::state::WorkerState;
use melissa_mesh::CellRange;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex fixture"))
        .collect()
}

/// Every `Message` variant (two `AdoptFloor`s: a real and a `-1` floor)
/// paired with its golden encoding.
fn message_fixtures() -> Vec<(Message, &'static str)> {
    vec![
        (
            Message::ConnectRequest {
                group_id: 42,
                instance: 3,
            },
            "012a0000000000000003000000",
        ),
        (
            Message::ConnectReply {
                n_workers: 8,
                n_cells: 1 << 33,
                p: 6,
                n_timesteps: 100,
            },
            "020800000000000000020000000600000064000000",
        ),
        (
            Message::Data {
                group_id: 7,
                instance: 1,
                role: 5,
                timestep: 99,
                start: 12345,
                values: vec![1.0, -2.5, 1e300, f64::MIN_POSITIVE],
            },
            "0307000000000000000100000005006300000039300000000000000400000000000000000000000000f03f00000000000004c09c7500883ce4377e0000000000001000",
        ),
        (Message::Heartbeat { sender: 3 }, "0403000000"),
        (Message::ServerReady, "05"),
        (
            Message::ServerReport {
                finished_groups: vec![1, 2, 3],
                running_groups: vec![],
                max_ci_width: 0.25,
                max_quantile_step: 0.125,
                quantile_steps: vec![0.124, 0.0625],
                blocked_sends: 42,
                blocked_nanos: 1_000_000,
            },
            "0603000000000000000100000000000000020000000000000003000000000000000000000000000000000000000000d03f000000000000c03f02000000000000005839b4c876bebf3f000000000000b03f2a0000000000000040420f0000000000",
        ),
        (Message::GroupTimeout { group_id: 9 }, "070900000000000000"),
        (
            Message::Checkpoint {
                dir: "ckpt/run1".into(),
            },
            "0809000000636b70742f72756e31",
        ),
        (Message::Stop, "09"),
        (Message::MigrateOut { group_id: 17 }, "0a1100000000000000"),
        (
            Message::AdoptFloor {
                group_id: 17,
                floor: 41,
            },
            "0b11000000000000002900000000000000",
        ),
        (
            Message::AdoptFloor {
                group_id: 18,
                floor: -1,
            },
            "0b1200000000000000ffffffffffffffff",
        ),
    ]
}

/// A small populated v4 worker state: 2 cells, `p = 1`, 2 timesteps, one
/// threshold, two quantile probabilities, and an interval ledger with a
/// migrated (gapped) group.
fn populated_v4_state() -> WorkerState {
    let mut st = WorkerState::with_stats(
        1,
        CellRange { start: 4, len: 2 },
        1,
        2,
        &[0.5],
        &[0.25, 0.75],
    );
    for ts in 0..2u32 {
        for role in 0..3u16 {
            let vals = [role as f64 * 0.5 + ts as f64, 1.0 - role as f64 * 0.25];
            st.on_data(3, role, ts, 4, &vals);
        }
    }
    for role in 0..3u16 {
        st.on_data(5, role, 0, 4, &[0.75 * role as f64, 2.0]);
    }
    // Group 8 arrives by migration with timestep 0 already integrated
    // elsewhere: its ledger holds the single segment (0, 1].
    st.adopt_floor(8, 0);
    for role in 0..3u16 {
        st.on_data(8, role, 1, 4, &[-1.0, role as f64]);
    }
    st
}

const PACKED_V4_STATE: &str = "41534c4d040000000100000000000000040000000000000002000000000000000100000002000000020000000000000010000000000000000000000000000000000000000000f83f000000000000e43f000000000000f63f000000000000f43f000000000000f43f0000000000000000000000000000e03f000000000000a03f000000000000e93f000000000000c03f000000000000f23f000000000000b03f000000000000ee3f0000000000000000000000000000e83f020000000000000010000000000000000000000000000000000000000000e03f000000000000d03f000000000000ec3f000000000000e03f000000000000f43f0000000000000040000000000000e03f0000000000000940000000000000a03f0000000000001240000000000000f23f0000000000000e40000000000000c83f0000000000000840000000000000e8bf04000000000000000200000000000000000000000000d43f000000000000f73ffeffffffffffda3f0000000000c0f43ff8ffffffffff9d3f000000000000abbffdffffffff27ad3f000000000075dd3f04000000000000000200000000000000000000000000c03f000000000000e63f0000000000c01440010000000080e53f000000000000db3f0200000000e0d0bf0000000000751d4003000000000acf3f040000000000000002000000000000000000000000000000000000000000e83f000000000000e83f000000000000004004000000000000000200000000000000000000000000f0bf0000000000000000000000000000f83f000000000000f03f0100000000000000000000000000e03f0400000000000000020000000000000001000000000000000400000000000000000000000000e03f04000000000000000200000000000000020000000000000003000000000000000200000000000000000000000000e83f000000000000d03f000000000000e83f0400000000000000040000000000000074fb1aa2497798bf62ddaa06277dd73ffd85b2ef6a2df23fbcffa351004afb3f04000000000000000400000000000000dcfd1f8d0250dabf0ee83541544ae73f739c005b72bbe43fb64e9575ade4f13f0300000000000000030000000000000001000000000000000500000000000000000000000000000008000000000000000100000000000000020000000000000003000000000000000800000000000000030000000000000003000000000000000100000000000000ffffffffffffffff010000000000000005000000000000000100000000000000ffffffffffffffff00000000000000000800000000000000010000000000000000000000000000000100000000000000";

#[test]
fn every_message_variant_matches_its_golden_bytes() {
    let mut mismatches = Vec::new();
    for (msg, golden) in message_fixtures() {
        let bytes = msg.encode();
        if hex(&bytes) != golden {
            mismatches.push(format!("{msg:?}: {}", hex(&bytes)));
            continue;
        }
        let back = Message::decode(&Bytes::from(unhex(golden))).expect("golden decodes");
        assert_eq!(back, msg);
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn packed_v4_state_matches_its_golden_bytes() {
    let st = populated_v4_state();
    assert_eq!(st.integrated_intervals(8), &[(0, 1)]);
    let bytes = pack_state(&st);
    assert_eq!(hex(&bytes), PACKED_V4_STATE);
    let golden = unhex(PACKED_V4_STATE);
    let back = unpack_state(&golden, 1).expect("golden unpacks");
    assert_eq!(pack_state(&back), golden);
    assert_eq!(back.finished_groups(), st.finished_groups());
    for g in [3, 5, 8] {
        assert_eq!(back.integrated_intervals(g), st.integrated_intervals(g));
    }
    for ts in 0..2 {
        assert_eq!(back.sobol(ts), st.sobol(ts));
        assert_eq!(back.quantiles(ts), st.quantiles(ts));
        assert_eq!(back.thresholds(ts), st.thresholds(ts));
    }
}
