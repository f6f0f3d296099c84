//! Golden byte fixtures for the directory-service protocol.
//!
//! Each fixture pins the exact bytes of one request frame and of the
//! reply a live `DirectoryServer` sends back, as hex.  A codec refactor
//! must leave every fixture passing untouched; a deliberate format change
//! adds new fixtures instead of editing these.

use std::net::TcpStream;
use std::time::Duration;

use melissa_transport::codec::{read_frame, write_frame};
use melissa_transport::directory::DirectoryServer;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex fixture"))
        .collect()
}

/// `(op, request, reply)`, in session order: every op, both resolve
/// outcomes, and a listing.
const DIRECTORY_SESSION: [(&str, &str, &str); 7] = [
    // PUBLISH "a" → "h:1"; OK.
    ("publish", "01010000006103000000683a31", "00"),
    // RESOLVE "a"; OK, "h:1".
    ("resolve found", "020100000061", "0003000000683a31"),
    // RESOLVE "zz"; NOT_FOUND.
    ("resolve missing", "02020000007a7a", "01"),
    // LIST; OK, one entry ("a", "h:1").
    ("list", "05", "0001000000010000006103000000683a31"),
    // RENEW [("b", "h:2")]; OK.
    ("renew", "0401000000010000006203000000683a32", "00"),
    // UNPUBLISH "a"; OK.
    ("unpublish", "030100000061", "00"),
    // RESOLVE "b" (published by the renewal); OK, "h:2".
    ("resolve renewed", "020100000062", "0003000000683a32"),
];

#[test]
fn directory_ops_match_their_golden_bytes() {
    let server = DirectoryServer::bind("127.0.0.1:0", Duration::from_secs(30)).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    for (op, request, reply) in DIRECTORY_SESSION {
        write_frame(&mut stream, &unhex(request)).unwrap();
        let got = read_frame(&mut stream, 1 << 20).unwrap().expect("reply");
        assert_eq!(hex(&got), reply, "{op}");
    }
}
