//! Hostile clients against the wire front end: arbitrary bytes in both
//! modes, truncated frames, 64 MiB length prefixes, over-long lines, a
//! client slower than the request deadline and one connection over the
//! cap.
//!
//! Throughout, a panic hook counts the panics in the process, which must
//! stay at 0, and a second, well-behaved connection per mode keeps
//! getting correct `HEALTH` and `CORENESS` answers. The generated inputs
//! are re-randomized by `DKCORE_TEST_SEED` (the CI determinism matrix).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Mutex, Once, PoisonError};
use std::time::{Duration, Instant};

use dkcore::seq::batagelj_zaversnik;
use dkcore_graph::generators::gnp;
use dkcore_serve::{
    serve, BinRequest, BinaryWireClient, CoreService, RetryPolicy, WireClient, WireServer,
};
use proptest::prelude::*;
use rand::prelude::*;

/// The documented server limits this suite probes.
const MAX_CONNECTIONS: usize = 256;
const MAX_REQUEST: usize = 25;
const MAX_LINE: usize = 1024;
const REQUEST_DEADLINE: Duration = Duration::from_secs(5);

/// Generated cases per fuzz property.
const CASES: u32 = 64;

/// Offset mixed into every input seed, from `DKCORE_TEST_SEED`.
fn seed_offset() -> u64 {
    std::env::var("DKCORE_TEST_SEED")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map_or(0, |s| s.wrapping_mul(0x9E37_79B9))
}

/// Every panic message seen in the process, from a hook installed once.
static PANICS: Mutex<Vec<String>> = Mutex::new(Vec::new());

fn count_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            PANICS
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(info.to_string());
            default(info);
        }));
    });
}

fn assert_no_panics() {
    // Cloned so the lock is released before the assertion: a failing
    // assertion runs the hook, which takes the lock.
    let panics = PANICS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    assert!(panics.is_empty(), "panics in the process: {panics:?}");
}

/// A served graph plus one well-behaved connection per mode.
struct Fixture {
    _svc: CoreService,
    server: WireServer,
    coreness: Vec<u32>,
    degree: Vec<u32>,
    text: WireClient,
    bin: BinaryWireClient,
    /// Which node the next probe asks about.
    next: usize,
}

impl Fixture {
    fn new() -> Self {
        count_panics();
        let g = gnp(60, 0.1, 0xB0B + seed_offset());
        let coreness = batagelj_zaversnik(&g);
        let degree = g.nodes().map(|u| g.degree(u) as u32).collect();
        let svc = CoreService::new(&g);
        let server = serve(svc.handle(), "127.0.0.1:0").unwrap();
        let policy = RetryPolicy {
            io_timeout: Duration::from_secs(10),
            ..RetryPolicy::default()
        };
        let text = WireClient::connect_with(server.local_addr(), &policy).unwrap();
        let bin = WireClient::connect_with(server.local_addr(), &policy)
            .unwrap()
            .into_binary()
            .unwrap();
        Fixture {
            _svc: svc,
            server,
            coreness,
            degree,
            text,
            bin,
            next: 0,
        }
    }

    fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Both probe connections still get correct answers.
    fn check_probes(&mut self) {
        let v = self.next % self.coreness.len();
        self.next += 7;
        let (c, d) = (self.coreness[v], self.degree[v]);
        assert_eq!(
            self.text.request("HEALTH").unwrap(),
            "OK epoch=0 status=healthy"
        );
        assert_eq!(
            self.text.request(&format!("CORENESS {v}")).unwrap(),
            format!("OK epoch=0 coreness={c} degree={d}")
        );
        let h = self.bin.roundtrip(&BinRequest::Health).unwrap();
        assert_eq!((h.ok, h.text()), (true, Some("status=healthy")));
        let r = self.bin.roundtrip(&BinRequest::Coreness(v as u32)).unwrap();
        assert_eq!(r.coreness(), Some((c, d)));
    }

    fn finish(mut self) {
        self.check_probes();
        assert!(!self.server.is_shutdown());
        assert_no_panics();
    }
}

/// Opens a raw connection that fails reads after `timeout`.
fn raw(addr: SocketAddr, timeout: Duration) -> TcpStream {
    let s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(timeout)).unwrap();
    s.set_write_timeout(Some(timeout)).unwrap();
    s
}

/// A raw connection already switched to binary framing.
fn raw_binary(addr: SocketAddr, timeout: Duration) -> TcpStream {
    let s = raw(addr, timeout);
    (&s).write_all(b"HELLO BINARY\n").unwrap();
    let mut ack = [0u8; 23];
    (&s).read_exact(&mut ack).unwrap();
    assert_eq!(&ack, b"OK proto=2 mode=binary\n");
    s
}

/// Reads until the server closes `s`, returning everything it sent.
/// Panics if the server keeps the connection open past the read timeout.
fn drain(mut s: &TcpStream) -> Vec<u8> {
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match s.read(&mut buf) {
            Ok(0) => return out,
            Ok(n) => out.extend_from_slice(&buf[..n]),
            // The server may close with our input unread: a reset.
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => return out,
            Err(e) => panic!("server kept the connection open: {e}"),
        }
    }
}

/// Sends `input` on `s` from a second thread, half-closes it, and drains
/// the replies until the server closes the connection.
fn exchange(s: TcpStream, input: &[u8]) -> Vec<u8> {
    std::thread::scope(|scope| {
        scope.spawn(|| {
            // The server may close early (QUIT, a bad prefix): then the
            // write fails, which is fine.
            let _ = (&s).write_all(input);
            let _ = s.shutdown(Shutdown::Write);
        });
        drain(&s)
    })
}

/// Whether the server has closed `s` (reads EOF or a reset within the
/// read timeout), as opposed to still waiting for more of a request.
fn closed(mut s: &TcpStream) -> bool {
    match s.read(&mut [0u8; 64]) {
        Ok(0) => true,
        Ok(n) => panic!("unexpected {n} reply bytes"),
        Err(e) => matches!(
            e.kind(),
            std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::ConnectionAborted
        ),
    }
}

fn frame(req_id: u32, opcode: u8, args: &[u8]) -> Vec<u8> {
    let mut f = Vec::new();
    f.extend_from_slice(&(5 + args.len() as u32).to_le_bytes());
    f.extend_from_slice(&req_id.to_le_bytes());
    f.push(opcode);
    f.extend_from_slice(args);
    f
}

/// Splits a reply stream into `(req_id, status, epoch)` headers; panics
/// on a malformed or torn frame.
fn reply_headers(mut bytes: &[u8]) -> Vec<(u32, u8, u64)> {
    let mut out = Vec::new();
    while let Some((len, rest)) = bytes.split_first_chunk::<4>() {
        let len = u32::from_le_bytes(*len) as usize;
        assert!(len >= 13, "reply frame of {len} bytes");
        let (body, rest) = rest.split_at_checked(len).expect("torn reply frame");
        let (id, body) = body.split_first_chunk::<4>().unwrap();
        let (&status, body) = body.split_first().unwrap();
        let (epoch, _) = body.split_first_chunk::<8>().unwrap();
        out.push((u32::from_le_bytes(*id), status, u64::from_le_bytes(*epoch)));
        bytes = rest;
    }
    assert!(bytes.is_empty(), "{} stray reply bytes", bytes.len());
    out
}

/// Runs `case` over [`CASES`] generated inputs, each from its own rng.
fn fuzz(mut case: impl FnMut(&mut StdRng)) {
    proptest::test_runner::run(&ProptestConfig::with_cases(CASES), |case_rng| {
        let seed = any::<u64>().generate(case_rng);
        case(&mut StdRng::seed_from_u64(seed ^ seed_offset()));
    });
}

fn random_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.random_range(0..=u8::MAX)).collect()
}

/// A text-mode input: raw bytes, or lines of protocol-shaped tokens
/// with odd numbers, stray bytes and over-long words mixed in.
/// `SHUTDOWN` is left out: it would stop the server under test.
fn text_input(rng: &mut StdRng) -> Vec<u8> {
    if rng.random_bool(0.3) {
        let len = rng.random_range(0..1500);
        return random_bytes(rng, len);
    }
    const WORDS: [&str; 17] = [
        "EPOCH", "coreness", "CORENESS", "MEMBERS", "SUBGRAPH", "HIST", "TOPK", "HEALTH",
        "METRICS", "EVENTS", "HELLO", "TEXT", "BINARY", "OFFSET", "LIMIT", "SINCE", "QUIT",
    ];
    let mut out = Vec::new();
    for _ in 0..rng.random_range(1..16) {
        for t in 0..rng.random_range(0..6) {
            if t > 0 || rng.random_bool(0.1) {
                out.extend_from_slice([" ", "  ", "\t"][rng.random_range(0..3usize)].as_bytes());
            }
            let token = match rng.random_range(0..10) {
                0..4 => WORDS[rng.random_range(0..WORDS.len())].to_string(),
                4..6 => rng.random_range(0..80u32).to_string(),
                6 => rng.next_u64().to_string(),
                7 => ["-1", "1e9", "18446744073709551616", "0x10", ""][rng.random_range(0..5usize)]
                    .to_string(),
                8 => "x".repeat(rng.random_range(0..1200)),
                _ => {
                    let len = rng.random_range(1..8);
                    String::from_utf8_lossy(&random_bytes(rng, len)).into_owned()
                }
            };
            out.extend_from_slice(token.as_bytes());
        }
        out.extend_from_slice(["\n", "\r\n", ""][rng.random_range(0..3usize)].as_bytes());
    }
    out
}

#[test]
fn arbitrary_bytes_in_text_mode() {
    let mut f = Fixture::new();
    fuzz(|rng| {
        let input = text_input(rng);
        let replies = exchange(raw(f.addr(), Duration::from_secs(10)), &input);
        let replies = String::from_utf8_lossy(&replies);
        assert!(
            replies.is_empty() || replies.starts_with("OK") || replies.starts_with("ERR"),
            "first reply: {:?}",
            replies.lines().next()
        );
        f.check_probes();
    });
    f.finish();
}

/// One piece of a binary-mode input.
enum Piece {
    /// A frame of legal length: `(req_id, opcode, args)`.
    Frame(u32, u8, Vec<u8>),
    /// Bytes that need not parse as frames at all.
    Garbage(Vec<u8>),
}

/// The well-formed arguments of `opcode`, with values that keep the
/// answers small.
fn legal_args(rng: &mut StdRng, opcode: u8) -> Vec<u8> {
    let mut args = Vec::new();
    let small = |rng: &mut StdRng| rng.random_range(0..100u64);
    match opcode {
        2 | 4 => args.extend_from_slice(&rng.random_range(0..80u32).to_le_bytes()),
        3 => {
            args.extend_from_slice(&rng.random_range(0..10u32).to_le_bytes());
            args.extend_from_slice(&small(rng).to_le_bytes());
            args.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        6 | 10 => {
            args.extend_from_slice(&rng.next_u64().to_le_bytes());
            args.extend_from_slice(&small(rng).to_le_bytes());
        }
        _ => {}
    }
    args
}

fn binary_input(rng: &mut StdRng) -> Vec<Piece> {
    let mut pieces = Vec::new();
    for _ in 0..rng.random_range(1..24) {
        if rng.random_bool(0.05) {
            let len = rng.random_range(1..64);
            pieces.push(Piece::Garbage(random_bytes(rng, len)));
            continue;
        }
        // Opcodes past 10 are unknown; QUIT (8) is kept rare.
        let opcode = match rng.random_range(0..40) {
            0 => 8,
            n => [0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 255][n % 12],
        };
        let args = if rng.random_bool(0.7) {
            legal_args(rng, opcode)
        } else {
            let len = rng.random_range(0..=MAX_REQUEST - 5);
            random_bytes(rng, len)
        };
        pieces.push(Piece::Frame(rng.next_u32(), opcode, args));
    }
    if rng.random_bool(0.2) {
        // A prefix past the request cap, up to the 64 MiB reply cap.
        let len = rng.random_range(MAX_REQUEST as u32 + 1..=64 << 20);
        pieces.push(Piece::Garbage(len.to_le_bytes().to_vec()));
    }
    pieces
}

#[test]
fn arbitrary_bytes_in_binary_mode() {
    let mut f = Fixture::new();
    fuzz(|rng| {
        let pieces = binary_input(rng);
        // The server answers every whole frame in order up to the first
        // QUIT (then closes) or garbage (after which it may close or
        // find more frames): `(end offset, req_id, opcode)` of those
        // frames, and where the garbage starts.
        let mut owed = Vec::new();
        let mut garbage_at = None;
        let mut input = Vec::new();
        for p in &pieces {
            let start = input.len();
            match p {
                Piece::Frame(id, opcode, args) => {
                    input.extend_from_slice(&frame(*id, *opcode, args));
                    if garbage_at.is_none() && owed.last().is_none_or(|&(_, _, op)| op != 8) {
                        owed.push((input.len(), *id, *opcode));
                    }
                }
                Piece::Garbage(bytes) => {
                    input.extend_from_slice(bytes);
                    if owed.last().is_none_or(|&(_, _, op)| op != 8) {
                        garbage_at.get_or_insert(start);
                    }
                }
            }
        }
        if rng.random_bool(0.3) {
            // EOF inside a frame: it is never answered.
            let cut = rng.random_range(0..=input.len());
            input.truncate(cut);
        }
        let expected: Vec<u32> = owed
            .iter()
            .filter(|&&(end, _, _)| end <= input.len())
            .map(|&(_, id, _)| id)
            .collect();
        let replies = exchange(raw_binary(f.addr(), Duration::from_secs(10)), &input);
        let headers = reply_headers(&replies);
        let ids: Vec<u32> = headers.iter().map(|h| h.0).collect();
        if garbage_at.is_some_and(|at| at < input.len()) {
            assert!(ids.starts_with(&expected), "{ids:?} vs {expected:?}");
        } else {
            assert_eq!(ids, expected, "every whole frame answered, in order");
        }
        assert!(headers
            .iter()
            .all(|&(_, status, epoch)| status <= 1 && epoch == 0));
        f.check_probes();
    });
    f.finish();
}

#[test]
fn truncated_frames_end_only_their_connection() {
    let mut f = Fixture::new();
    let mut args = Vec::new();
    args.extend_from_slice(&2u32.to_le_bytes());
    args.extend_from_slice(&0u64.to_le_bytes());
    args.extend_from_slice(&5u64.to_le_bytes());
    let members = frame(9, 3, &args);
    assert_eq!(
        members.len(),
        4 + MAX_REQUEST,
        "MEMBERS is the largest request"
    );
    for cut in 1..members.len() {
        // A whole frame, then a frame cut short by EOF: the first is
        // answered, the second ends the connection.
        let mut input = frame(1, 1, &[]);
        input.extend_from_slice(&members[..cut]);
        let replies = exchange(raw_binary(f.addr(), Duration::from_secs(10)), &input);
        let ids: Vec<u32> = reply_headers(&replies).iter().map(|h| h.0).collect();
        assert_eq!(ids, [1u32], "cut at {cut}");
        f.check_probes();
    }
    // Arguments cut short inside a whole frame are an ERR reply, and the
    // connection stays open.
    let replies = exchange(
        raw_binary(f.addr(), Duration::from_secs(10)),
        &[frame(4, 3, &args[..7]), frame(5, 1, &[])].concat(),
    );
    assert_eq!(reply_headers(&replies), [(4, 1, 0), (5, 0, 0)]);
    f.finish();
}

#[test]
fn oversized_length_prefixes_close_the_connection_at_once() {
    let mut f = Fixture::new();
    for len in [
        MAX_REQUEST as u32 + 1,
        4096,
        64 << 20,
        (64 << 20) + 1,
        u32::MAX,
    ] {
        // The prefix plus a few payload bytes, and the connection left
        // open: a server that sized a buffer from the prefix would sit
        // waiting for the rest instead of closing.
        let s = raw_binary(f.addr(), Duration::from_secs(2));
        let mut input = len.to_le_bytes().to_vec();
        input.extend_from_slice(&[1, 0, 0, 0, 1]);
        (&s).write_all(&input).unwrap();
        let t0 = Instant::now();
        assert!(closed(&s), "prefix {len}: connection still open");
        assert!(t0.elapsed() < Duration::from_secs(1), "prefix {len}");
        f.check_probes();
    }
    f.finish();
}

#[test]
fn over_long_lines_earn_one_err_then_close() {
    let mut f = Fixture::new();
    // The cap is on the line before its `\n`: padding a legal request to
    // exactly MAX_LINE bytes is still answered.
    let mut line = b"CORENESS 0".to_vec();
    line.resize(MAX_LINE, b' ');
    line.push(b'\n');
    let s = raw(f.addr(), Duration::from_secs(10));
    let mut r = BufReader::new(&s);
    (&s).write_all(&line).unwrap();
    let mut reply = String::new();
    r.read_line(&mut reply).unwrap();
    assert!(reply.starts_with("OK epoch=0 coreness="), "{reply}");

    // One byte more, with or without the newline, ends the connection.
    for tail in [&b"\n"[..], b""] {
        let mut long = vec![b'A'; MAX_LINE + 1];
        long.extend_from_slice(tail);
        let s = raw(f.addr(), Duration::from_secs(10));
        (&s).write_all(&long).unwrap();
        let mut reply = String::new();
        let mut r = BufReader::new(&s);
        r.read_line(&mut reply).unwrap();
        assert_eq!(reply, "ERR line too long\n");
        assert!(closed(&s));
        f.check_probes();
    }
    // A line far past the cap, sent whole.
    let replies = exchange(raw(f.addr(), Duration::from_secs(10)), &vec![b'x'; 1 << 20]);
    assert_eq!(replies, b"ERR line too long\n");
    f.finish();
}

/// Trickles `bytes` onto `s` one at a time every `gap` until the server
/// closes the connection; returns how long that took.
fn trickle(mut s: &TcpStream, bytes: &[u8], gap: Duration) -> Duration {
    let t0 = Instant::now();
    for &b in bytes.iter().cycle() {
        if s.write_all(&[b]).is_err() || closed(s) {
            break;
        }
        assert!(
            t0.elapsed() < REQUEST_DEADLINE * 2,
            "slow client never dropped"
        );
        std::thread::sleep(gap.saturating_sub(Duration::from_millis(50)));
    }
    t0.elapsed()
}

#[test]
fn a_client_slower_than_the_deadline_is_dropped() {
    let mut f = Fixture::new();
    // An idle connection is not a slow request: it outlives the deadline.
    let idle = raw(f.addr(), Duration::from_secs(10));
    let addr = f.addr();
    let gap = Duration::from_millis(300);
    let (text, binary) = std::thread::scope(|scope| {
        // Neither request ever completes: no `\n`, and a 25-byte frame
        // that would need 7.5 s at this pace.
        let text = scope.spawn(move || {
            let s = raw(addr, Duration::from_millis(50));
            trickle(&s, b"CORENESS 1    ", gap)
        });
        let binary = scope.spawn(move || {
            let s = raw_binary(addr, Duration::from_millis(50));
            (&s).write_all(&(MAX_REQUEST as u32).to_le_bytes()).unwrap();
            trickle(&s, &[0], gap)
        });
        while !text.is_finished() || !binary.is_finished() {
            f.check_probes();
            std::thread::sleep(Duration::from_millis(100));
        }
        (text.join().unwrap(), binary.join().unwrap())
    });
    for (mode, took) in [("text", text), ("binary", binary)] {
        assert!(
            took >= REQUEST_DEADLINE - gap && took < REQUEST_DEADLINE + Duration::from_secs(2),
            "{mode} slow client dropped after {took:?}"
        );
    }
    let mut r = BufReader::new(&idle);
    (&idle).write_all(b"HEALTH\n").unwrap();
    let mut reply = String::new();
    r.read_line(&mut reply).unwrap();
    assert_eq!(reply, "OK epoch=0 status=healthy\n");
    f.finish();
}

#[test]
fn one_connection_over_the_cap_is_turned_away() {
    let mut f = Fixture::new();
    // The fixture's two probe connections hold slots too.
    let fill = |addr| {
        let s = raw(addr, Duration::from_secs(10));
        (&s).write_all(b"HEALTH\n").unwrap();
        let mut reply = String::new();
        BufReader::new(&s).read_line(&mut reply).unwrap();
        assert_eq!(reply, "OK epoch=0 status=healthy\n");
        s
    };
    let mut held: Vec<TcpStream> = (2..MAX_CONNECTIONS).map(|_| fill(f.addr())).collect();

    let over = raw(f.addr(), Duration::from_secs(10));
    let mut reply = String::new();
    BufReader::new(&over).read_line(&mut reply).unwrap();
    assert_eq!(reply, "ERR server busy\n");
    assert!(closed(&over));
    f.check_probes();

    // Ending one connection frees its slot for the next client.
    let quit = held.pop().unwrap();
    (&quit).write_all(b"QUIT\n").unwrap();
    assert!(drain(&quit).starts_with(b"OK bye"));
    let t0 = Instant::now();
    let admitted = loop {
        let s = raw(f.addr(), Duration::from_millis(200));
        match (&s).read(&mut [0u8; 64]) {
            // No busy line: the connection was admitted.
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break s,
            Err(e) if e.kind() == std::io::ErrorKind::TimedOut => break s,
            _ => assert!(t0.elapsed() < Duration::from_secs(5), "slot never freed"),
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    admitted
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    (&admitted).write_all(b"HEALTH\n").unwrap();
    let mut reply = String::new();
    BufReader::new(&admitted).read_line(&mut reply).unwrap();
    assert_eq!(reply, "OK epoch=0 status=healthy\n");
    drop(held);
    f.finish();
}
