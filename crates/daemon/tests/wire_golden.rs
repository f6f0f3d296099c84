//! Golden byte fixtures for the daemon control plane and the study
//! configuration it carries.
//!
//! Each fixture pins the exact bytes one value encodes to, as hex.  A
//! codec refactor must leave every fixture passing untouched; a
//! deliberate format change adds new fixtures instead of editing these.

use std::path::PathBuf;
use std::time::Duration;

use bytes::BytesMut;
use melissa::StudyConfig;
use melissa_daemon::protocol::{DaemonOp, DaemonReply, DaemonRequest, StudyState};
use melissa_transport::codec::Wire;
use melissa_transport::{TransportKind, WireCompression};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex fixture"))
        .collect()
}

/// Collects every mismatch so one run reports all of them.
fn check(mismatches: &mut Vec<String>, label: String, bytes: &[u8], golden: &str) -> bool {
    if hex(bytes) == golden {
        return true;
    }
    mismatches.push(format!("{label}: {}", hex(bytes)));
    false
}

/// Every knob off its default: a multi-node transport, a truncating
/// wire codec, a lossy link and both convergence targets.
fn exotic_config() -> StudyConfig {
    let mut c = StudyConfig::tiny();
    c.n_groups = 37;
    c.transport = TransportKind::TcpNode {
        host: "0.0.0.0".into(),
        port: 7171,
        advertise: Some("10.0.0.3".into()),
        directory: None,
    };
    c.n_shards = 3;
    c.seed = 0xdead_beef;
    c.target_ci_width = Some(0.05);
    c.target_quantile_step = None;
    c.link_fault.drop_probability = 0.125;
    c.link_fault.delay = Duration::from_micros(250);
    c.thresholds = vec![0.25, 0.75];
    c.checkpoint_dir = PathBuf::from("melissa-daemon-test");
    c.telemetry = false;
    c.wire_compression = WireCompression::Truncate { mantissa_bits: 24 };
    c
}

/// Single-node TCP with the lossless codec and a quantile target.
fn tcp_config() -> StudyConfig {
    let mut c = StudyConfig::tiny();
    c.transport = TransportKind::Tcp;
    c.wire_compression = WireCompression::Transpose;
    c.target_quantile_step = Some(0.01);
    c.quantile_probs = vec![0.5];
    c.thresholds = vec![];
    c.checkpoint_dir = PathBuf::from("ckpt");
    c
}

/// In-process, uncompressed, no statistics beyond the defaults.
fn in_process_config() -> StudyConfig {
    let mut c = StudyConfig::tiny();
    c.transport = TransportKind::InProcess;
    c.wire_compression = WireCompression::Off;
    c.quantile_probs = vec![];
    c.checkpoint_dir = PathBuf::from("c");
    c
}

fn config_fixtures() -> Vec<(StudyConfig, &'static str)> {
    vec![(exotic_config(), "25000000000000000207000000302e302e302e30031c010800000031302e302e302e3300030000000000000021617373696c656d18000000000000000c0000000000000002000000000000000000000000000040000000000000f03f000000000000d03f000000000000f03ffca9f1d24d62503f1400000000000000000000000000044095d626e80b2e113e0200000000000000030000000000000020000000000000000200000000000000efbeadde00000000002f68590000000000f2052a0100000000a0b83046030000130000006d656c697373612d6461656d6f6e2d7465737403000000019a9999999999a93f11ea2d819997713d0000b08ef01b00000000ac23fc060000000218000000000000c03f90d00300000000000200000000000000000000000000d03f000000000000e83f07000000000000007b14ae47e17a843f9a9999999999a93f000000000000d03f000000000000e03f000000000000e83f666666666666ee3fae47e17a14aeef3f00"), (tcp_config(), "080000000000000001010000000000000021617373696c656d18000000000000000c0000000000000002000000000000000000000000000040000000000000f03f000000000000d03f000000000000f03ffca9f1d24d62503f1400000000000000000000000000044095d626e80b2e113e0200000000000000030000000000000020000000000000000200000000000000e107000000000000002f68590000000000f2052a0100000000a0b8304603000004000000636b7074030000000011ea2d819997713d017b14ae47e17a843f00b08ef01b00000000ac23fc0600000001000000000000000000000000000000000000000000000000000100000000000000000000000000e03f01"), (in_process_config(), "080000000000000000010000000000000021617373696c656d18000000000000000c0000000000000002000000000000000000000000000040000000000000f03f000000000000d03f000000000000f03ffca9f1d24d62503f1400000000000000000000000000044095d626e80b2e113e0200000000000000030000000000000020000000000000000200000000000000e107000000000000002f68590000000000f2052a0100000000a0b830460300000100000063030000000011ea2d819997713d0000b08ef01b00000000ac23fc060000000000000000000000000000000000000000000100000000000000000000000000e03f000000000000000001")]
}

fn request_fixtures() -> Vec<(DaemonRequest, &'static str)> {
    let ops = [
        (
            DaemonOp::Submit {
                tenant: "acme".into(),
                priority: 2,
                config: Box::new(exotic_config()),
            },
            "0d00000063746c2f7265706c792f312f32010400000061636d650225000000000000000207000000302e302e302e30031c010800000031302e302e302e3300030000000000000021617373696c656d18000000000000000c0000000000000002000000000000000000000000000040000000000000f03f000000000000d03f000000000000f03ffca9f1d24d62503f1400000000000000000000000000044095d626e80b2e113e0200000000000000030000000000000020000000000000000200000000000000efbeadde00000000002f68590000000000f2052a0100000000a0b83046030000130000006d656c697373612d6461656d6f6e2d7465737403000000019a9999999999a93f11ea2d819997713d0000b08ef01b00000000ac23fc060000000218000000000000c03f90d00300000000000200000000000000000000000000d03f000000000000e83f07000000000000007b14ae47e17a843f9a9999999999a93f000000000000d03f000000000000e03f000000000000e83f666666666666ee3fae47e17a14aeef3f00",
        ),
        (DaemonOp::Status { study: 7 }, "0d00000063746c2f7265706c792f312f32020700000000000000"),
        (DaemonOp::Cancel { study: 9 }, "0d00000063746c2f7265706c792f312f32030900000000000000"),
        (DaemonOp::Results { study: 11 }, "0d00000063746c2f7265706c792f312f32040b00000000000000"),
        (DaemonOp::Shutdown, "0d00000063746c2f7265706c792f312f3205"),
    ];
    ops.into_iter()
        .map(|(op, golden)| {
            (
                DaemonRequest {
                    reply_to: "ctl/reply/1/2".into(),
                    op,
                },
                golden,
            )
        })
        .collect()
}

fn reply_fixtures() -> Vec<(DaemonReply, &'static str)> {
    let status = |state| DaemonReply::Status {
        study: 3,
        state,
        tenant: "acme".into(),
        groups_finished: 4,
        n_groups: 8,
    };
    vec![
        (DaemonReply::Submitted { study: 1 }, "010100000000000000"),
        (
            DaemonReply::Rejected {
                tenant: "acme".into(),
                resource: "studies".into(),
            },
            "020400000061636d650700000073747564696573",
        ),
        (status(StudyState::Queued), "030300000000000000000400000061636d6504000000000000000800000000000000"),
        (status(StudyState::Running), "030300000000000000010400000061636d6504000000000000000800000000000000"),
        (status(StudyState::Done), "030300000000000000020400000061636d6504000000000000000800000000000000"),
        (status(StudyState::Failed), "030300000000000000030400000061636d6504000000000000000800000000000000"),
        (status(StudyState::Cancelled), "030300000000000000040400000061636d6504000000000000000800000000000000"),
        (DaemonReply::Cancelled { study: 5 }, "040500000000000000"),
        (
            DaemonReply::Results {
                p: 2,
                n_timesteps: 4,
                n_cells: 64,
                groups_finished: 8,
                workers: vec![vec![1, 2, 3], vec![], vec![0xff; 5]],
            },
            "05020000000000000004000000000000004000000000000000080000000000000003000000030000000000000001020300000000000000000500000000000000ffffffffff",
        ),
        (
            DaemonReply::Error {
                detail: "study 42 not found".into(),
            },
            "06120000007374756479203432206e6f7420666f756e64",
        ),
        (DaemonReply::ShuttingDown, "07"),
    ]
}

#[test]
fn study_configs_match_their_golden_bytes() {
    let mut mismatches = Vec::new();
    for (i, (config, golden)) in config_fixtures().into_iter().enumerate() {
        let mut buf = BytesMut::new();
        config.encode_into(&mut buf);
        if !check(&mut mismatches, format!("config {i}"), &buf, golden) {
            continue;
        }
        let bytes = unhex(golden);
        let mut slice: &[u8] = &bytes;
        assert_eq!(
            StudyConfig::decode_from(&mut slice).expect("golden decodes"),
            config
        );
        assert!(slice.is_empty());
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn daemon_requests_match_their_golden_bytes() {
    let mut mismatches = Vec::new();
    for (req, golden) in request_fixtures() {
        let mut buf = BytesMut::new();
        req.encode_into(&mut buf);
        if !check(&mut mismatches, format!("{:?}", req.op), &buf, golden) {
            continue;
        }
        let bytes = unhex(golden);
        let mut slice: &[u8] = &bytes;
        assert_eq!(
            DaemonRequest::decode_from(&mut slice).expect("golden decodes"),
            req
        );
        assert!(slice.is_empty());
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn daemon_replies_match_their_golden_bytes() {
    let mut mismatches = Vec::new();
    for (reply, golden) in reply_fixtures() {
        let mut buf = BytesMut::new();
        reply.encode_into(&mut buf);
        if !check(&mut mismatches, format!("{reply:?}"), &buf, golden) {
            continue;
        }
        let bytes = unhex(golden);
        let mut slice: &[u8] = &bytes;
        assert_eq!(
            DaemonReply::decode_from(&mut slice).expect("golden decodes"),
            reply
        );
        assert!(slice.is_empty());
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
