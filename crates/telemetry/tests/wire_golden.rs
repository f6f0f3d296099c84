//! Golden byte fixtures for the telemetry wire layouts: the event
//! journal, metrics snapshots and the scrape protocol.
//!
//! Each fixture pins the exact bytes one value encodes to, as hex.  A
//! codec refactor must leave every fixture passing untouched; a
//! deliberate format change adds new fixtures instead of editing these.

use bytes::BytesMut;
use melissa_telemetry::{
    EventKind, HistogramSnapshot, LinkScrape, MetricsSnapshot, ScrapeFormat, ScrapeReply,
    ScrapeRequest, ScrapeSnapshot, StudyEvent, N_BUCKETS,
};
use melissa_transport::codec::Wire;

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

/// Every `EventKind` variant paired with the golden encoding of one
/// `StudyEvent` carrying it.
fn event_fixtures() -> Vec<(StudyEvent, &'static str)> {
    let kinds = [
        (EventKind::GroupTimeout { group: 3 }, "0000000000000000e80300000000000000000000010300000000000000"),
        (
            EventKind::GroupRestarted {
                group: 7,
                instance: 1,
            },
            "0100000000000000e9030000000000000100000002070000000000000001000000",
        ),
        (
            EventKind::GroupDied {
                group: 2,
                instance: 4,
                detail: "Died { code: 1 }".into(),
            },
            "0200000000000000ea0300000000000002000000030200000000000000040000001000000044696564207b20636f64653a2031207d",
        ),
        (
            EventKind::GroupZombie {
                group: 9,
                instance: 0,
            },
            "0300000000000000eb030000000000000000000004090000000000000000000000",
        ),
        (
            EventKind::GroupAbandoned {
                group: 5,
                retries: 3,
            },
            "0400000000000000ec030000000000000100000005050000000000000003000000",
        ),
        (
            EventKind::GroupResubmitted {
                group: 1,
                instance: 2,
            },
            "0500000000000000ed030000000000000200000006010000000000000002000000",
        ),
        (EventKind::ServerRestarted, "0600000000000000ee030000000000000000000007"),
        (EventKind::ServerKillInjected { finished: 4 }, "0700000000000000ef0300000000000001000000080400000000000000"),
        (
            EventKind::ShardDeathInjected {
                finished: 2,
                rehome_to: 1,
            },
            "0800000000000000f0030000000000000200000009020000000000000001000000",
        ),
        (
            EventKind::MigrationFence {
                epoch: 1,
                n_groups: 3,
                from: 0,
                to: 2,
            },
            "0900000000000000f103000000000000000000000a010000000000000003000000000000000000000002000000",
        ),
        (
            EventKind::GroupsAdopted {
                epoch: 1,
                n_groups: 3,
                from: 0,
            },
            "0a00000000000000f203000000000000010000000b0100000000000000030000000000000000000000",
        ),
        (EventKind::FinishedDuringFence { group: 6, shard: 1 }, "0b00000000000000f303000000000000020000000c060000000000000001000000"),
        (
            EventKind::ShardRehomed {
                epoch: 2,
                n_groups: 4,
                from: 1,
                to: 0,
            },
            "0c00000000000000f403000000000000000000000d020000000000000004000000000000000100000000000000",
        ),
        (
            EventKind::CheckpointUnreadable {
                worker: 2,
                detail: "io".into(),
            },
            "0d00000000000000f503000000000000010000000e0200000002000000696f",
        ),
        (
            EventKind::EarlyStop {
                max_ci: 0.02,
                max_qstep: 0.004,
                cancelled: 5,
            },
            "0e00000000000000f603000000000000020000000f7b14ae47e17a943ffca9f1d24d62703f0500000000000000",
        ),
        (
            EventKind::Info {
                text: "free text".into(),
            },
            "0f00000000000000f703000000000000000000001009000000667265652074657874",
        ),
    ];
    kinds
        .into_iter()
        .enumerate()
        .map(|(i, (kind, golden))| {
            (
                StudyEvent {
                    seq: i as u64,
                    at_nanos: 1000 + i as u64,
                    shard: (i % 3) as u32,
                    kind,
                },
                golden,
            )
        })
        .collect()
}

/// Two events as one journal (`u32` count, then the events).
const JOURNAL: &str = "020000000000000000000000e803000000000000000000000103000000000000000100000000000000e9030000000000000100000002070000000000000001000000";

fn metrics() -> MetricsSnapshot {
    let mut buckets = vec![0u64; N_BUCKETS];
    buckets[0] = 1;
    buckets[2] = 1;
    buckets[11] = 1;
    buckets[N_BUCKETS - 1] = 2;
    MetricsSnapshot {
        counters: vec![("frames".into(), 12), ("reconnects".into(), 2)],
        gauges: vec![("epoch".into(), 3)],
        histograms: vec![("lat".into(), HistogramSnapshot { buckets, sum: 1027 })],
    }
}

const METRICS: &str = "02000000060000006672616d65730c000000000000000a0000007265636f6e6e656374730200000000000000010000000500000065706f6368030000000000000001000000030000006c6174030400000000000001000000000000000000000000000000010000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000010000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000200000000000000";

fn snapshot() -> ScrapeSnapshot {
    ScrapeSnapshot {
        shard: 1,
        backend: "tcp".into(),
        uptime_nanos: 123_456_789,
        groups_finished: 4,
        groups_running: 2,
        max_ci_width: 0.25,
        max_quantile_step: 0.5,
        routing_epoch: 3,
        reconnects: 2,
        links: vec![LinkScrape {
            endpoint: "shard1/server/0".into(),
            messages: 10,
            bytes: 4096,
            wire_bytes: 2048,
            blocked_sends: 1,
            blocked_nanos: 999,
        }],
        metrics: metrics(),
        events: vec![StudyEvent {
            seq: 0,
            at_nanos: 42,
            shard: 1,
            kind: EventKind::GroupTimeout { group: 6 },
        }],
    }
}

const SNAPSHOT: &str = "010000000300000074637015cd5b070000000004000000000000000200000000000000000000000000d03f000000000000e03f03000000000000000200000000000000010000000f0000007368617264312f7365727665722f300a00000000000000001000000000000000080000000000000100000000000000e70300000000000002000000060000006672616d65730c000000000000000a0000007265636f6e6e656374730200000000000000010000000500000065706f6368030000000000000001000000030000006c61740304000000000000010000000000000000000000000000000100000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000100000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000002000000000000000100000000000000000000002a0000000000000001000000010600000000000000";

fn request_fixtures() -> Vec<(ScrapeRequest, &'static str)> {
    [
        (
            ScrapeFormat::Binary,
            "011300000074656c656d657472792f7265706c792f372f3000",
        ),
        (
            ScrapeFormat::Json,
            "011300000074656c656d657472792f7265706c792f372f3001",
        ),
        (
            ScrapeFormat::Prometheus,
            "011300000074656c656d657472792f7265706c792f372f3002",
        ),
    ]
    .into_iter()
    .map(|(format, golden)| {
        (
            ScrapeRequest {
                reply_to: "telemetry/reply/7/0".into(),
                format,
            },
            golden,
        )
    })
    .collect()
}

/// Text replies: one format byte, then the UTF-8 body to the end of the
/// frame.
const JSON_REPLY: &str = "017b2261223a317d";
const PROMETHEUS_REPLY: &str = "0278203120";

#[test]
fn every_event_kind_matches_its_golden_bytes() {
    let mut mismatches = Vec::new();
    for (event, golden) in event_fixtures() {
        let mut buf = BytesMut::new();
        event.encode_into(&mut buf);
        if !check(&mut mismatches, format!("{:?}", event.kind), &buf, golden) {
            continue;
        }
        let bytes = unhex(golden);
        let mut slice: &[u8] = &bytes;
        assert_eq!(
            StudyEvent::decode_from(&mut slice).expect("golden decodes"),
            event
        );
        assert!(slice.is_empty());
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn journal_matches_its_golden_bytes() {
    let events: Vec<StudyEvent> = event_fixtures()
        .into_iter()
        .take(2)
        .map(|(e, _)| e)
        .collect();
    let mut buf = BytesMut::new();
    events.encode_into(&mut buf);
    assert_eq!(hex(&buf), JOURNAL);
    let bytes = unhex(JOURNAL);
    let mut slice: &[u8] = &bytes;
    assert_eq!(
        Vec::<StudyEvent>::decode_from(&mut slice).expect("golden decodes"),
        events
    );
    assert!(slice.is_empty());
}

#[test]
fn metrics_snapshot_matches_its_golden_bytes() {
    let mut buf = BytesMut::new();
    metrics().encode_into(&mut buf);
    assert_eq!(hex(&buf), METRICS);
    let bytes = unhex(METRICS);
    let mut slice: &[u8] = &bytes;
    assert_eq!(
        MetricsSnapshot::decode_from(&mut slice).expect("golden decodes"),
        metrics()
    );
    assert!(slice.is_empty());
}

#[test]
fn scrape_snapshot_and_binary_reply_match_their_golden_bytes() {
    let mut buf = BytesMut::new();
    snapshot().encode_into(&mut buf);
    assert_eq!(hex(&buf), SNAPSHOT);
    let bytes = unhex(SNAPSHOT);
    let mut slice: &[u8] = &bytes;
    assert_eq!(
        ScrapeSnapshot::decode_from(&mut slice).expect("golden decodes"),
        snapshot()
    );
    assert!(slice.is_empty());
    // The binary reply frame is the format byte 0, then the snapshot.
    let reply = snapshot().encode_reply(ScrapeFormat::Binary);
    assert_eq!(hex(&reply), format!("00{SNAPSHOT}"));
    let mut slice: &[u8] = &reply;
    assert_eq!(
        ScrapeReply::decode_from(&mut slice).expect("golden decodes"),
        ScrapeReply::Snapshot(Box::new(snapshot()))
    );
}

#[test]
fn text_replies_match_their_golden_bytes() {
    for (golden, text) in [(JSON_REPLY, "{\"a\":1}"), (PROMETHEUS_REPLY, "x 1 ")] {
        let bytes = unhex(golden);
        let mut slice: &[u8] = &bytes;
        assert_eq!(
            ScrapeReply::decode_from(&mut slice).expect("golden decodes"),
            ScrapeReply::Text(text.into())
        );
    }
    for (format, byte) in [(ScrapeFormat::Json, 1u8), (ScrapeFormat::Prometheus, 2u8)] {
        let reply = snapshot().encode_reply(format);
        assert_eq!(reply[0], byte, "{format:?} reply format byte");
        let body = match format {
            ScrapeFormat::Json => snapshot().to_json(),
            _ => snapshot().to_prometheus(),
        };
        assert_eq!(&reply[1..], body.as_bytes());
    }
}

#[test]
fn scrape_requests_match_their_golden_bytes() {
    let mut mismatches = Vec::new();
    for (req, golden) in request_fixtures() {
        let mut buf = BytesMut::new();
        req.encode_into(&mut buf);
        if !check(&mut mismatches, format!("{:?}", req.format), &buf, golden) {
            continue;
        }
        let bytes = unhex(golden);
        let mut slice: &[u8] = &bytes;
        assert_eq!(
            ScrapeRequest::decode_from(&mut slice).expect("golden decodes"),
            req
        );
        assert!(slice.is_empty());
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
