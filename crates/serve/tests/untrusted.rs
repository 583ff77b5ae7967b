//! The serve socket is untrusted input: `LineReader` must split any byte
//! stream into lines with bounded buffering, and `parse_request` must
//! turn any line into a typed request or a malformed-detail error —
//! never a panic, whatever the bytes, their chunking, or their nesting.

use bhive_harness::ObsConfig;
use bhive_serve::{
    parse_request, BindAddr, Client, LineEvent, LineReader, Request, ServeConfig, Server,
    MAX_LINE_BYTES,
};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::time::Duration;

/// One step of a scripted peer.
#[derive(Debug, Clone)]
enum Step {
    Bytes(Vec<u8>),
    Timeout,
}

/// A peer that plays its steps back (a read returns at most the rest of
/// the current chunk), then EOF.
struct Script {
    steps: VecDeque<Step>,
    delivered: usize,
}

impl Script {
    fn new(steps: Vec<Step>) -> Script {
        Script {
            steps: steps.into(),
            delivered: 0,
        }
    }
}

impl Read for Script {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        match self.steps.pop_front() {
            None => Ok(0),
            Some(Step::Timeout) => Err(io::ErrorKind::WouldBlock.into()),
            Some(Step::Bytes(mut bytes)) => {
                let n = bytes.len().min(out.len());
                out[..n].copy_from_slice(&bytes[..n]);
                if n < bytes.len() {
                    self.steps.push_front(Step::Bytes(bytes.split_off(n)));
                }
                self.delivered += n;
                Ok(n)
            }
        }
    }
}

/// A peer that streams `fill` forever without a newline.
struct Firehose {
    fill: u8,
    delivered: usize,
}

impl Read for Firehose {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        out.fill(self.fill);
        self.delivered += out.len();
        Ok(out.len())
    }
}

/// Drives `reader` to the end of the stream.
fn drain(reader: &mut LineReader, peer: &mut impl Read) -> Vec<LineEvent> {
    let mut events = Vec::new();
    loop {
        let event = reader.next(peer);
        let last = !matches!(
            event,
            LineEvent::Line(_) | LineEvent::Idle | LineEvent::Stalled
        );
        events.push(event);
        if last {
            return events;
        }
    }
}

/// What the reader must report for a short script: a line per newline,
/// `Idle` or `Stalled` per timeout by whether a partial line is pending,
/// and EOF by the same test.
fn expected(steps: &[Step]) -> Vec<LineEvent> {
    let mut events = Vec::new();
    let mut pending = Vec::new();
    for step in steps {
        match step {
            Step::Timeout if pending.is_empty() => events.push(LineEvent::Idle),
            Step::Timeout => events.push(LineEvent::Stalled),
            Step::Bytes(bytes) => {
                for &b in bytes {
                    if b == b'\n' {
                        events.push(LineEvent::Line(
                            String::from_utf8_lossy(&pending).into_owned(),
                        ));
                        pending.clear();
                    } else {
                        pending.push(b);
                    }
                }
            }
        }
    }
    events.push(if pending.is_empty() {
        LineEvent::CleanEof
    } else {
        LineEvent::DroppedMidLine
    });
    events
}

/// Chunks of bytes: short ones biased toward newlines and invalid
/// UTF-8, so a script holds several lines, and long ones that carry a
/// line across the reader's 4 KiB reads.
fn chunk() -> impl Strategy<Value = Vec<u8>> {
    let byte = prop_oneof![any::<u8>(), Just(b'\n'), Just(b'{'), Just(0xFF)];
    prop_oneof![
        vec(byte, 0..64),
        vec(any::<u8>(), 0..6000),
        vec(Just(b'a'), 0..6000),
    ]
}

/// Interleaves read timeouts before the chunks at `timeouts` (an index
/// past the last chunk times out before EOF). Empty chunks are dropped:
/// a zero-byte read is EOF.
fn script(chunks: Vec<Vec<u8>>, timeouts: &[usize]) -> Vec<Step> {
    let mut steps = Vec::new();
    let chunks = chunks.into_iter().filter(|c| !c.is_empty());
    for (i, chunk) in chunks.enumerate() {
        steps.extend(timeouts.iter().filter(|&&t| t == i).map(|_| Step::Timeout));
        steps.push(Step::Bytes(chunk));
    }
    let last = steps.iter().filter(|s| matches!(s, Step::Bytes(_))).count();
    steps.extend(
        timeouts
            .iter()
            .filter(|&&t| t >= last)
            .map(|_| Step::Timeout),
    );
    steps
}

/// The request contract: a typed request, or a non-empty detail.
fn check_request(line: &str) -> Result<(), TestCaseError> {
    match parse_request(line) {
        Ok(Request::Health) => {}
        Ok(Request::Predict(p)) => {
            let _ = p.block.decode();
        }
        Err(detail) => prop_assert!(!detail.is_empty()),
    }
    Ok(())
}

#[test]
fn a_line_at_the_cap_is_read_and_one_past_it_is_too_long() {
    let mut line = vec![b'a'; MAX_LINE_BYTES - 1];
    line.push(b'\n');
    let mut peer = Script::new(vec![Step::Bytes(line)]);
    let events = drain(&mut LineReader::new(), &mut peer);
    assert!(
        matches!(&events[..], [LineEvent::Line(l), LineEvent::CleanEof] if l.len() == MAX_LINE_BYTES - 1)
    );

    // The reader stops at the cap and drops what it buffered: the rest
    // of the stream reads as fresh lines.
    let mut line = vec![b'a'; MAX_LINE_BYTES];
    line.extend_from_slice(b"\nok\n");
    let mut peer = Script::new(vec![Step::Bytes(line)]);
    let mut reader = LineReader::new();
    assert_eq!(reader.next(&mut peer), LineEvent::TooLong);
    assert_eq!(peer.delivered, MAX_LINE_BYTES);
    assert_eq!(
        drain(&mut reader, &mut peer),
        [
            LineEvent::Line(String::new()),
            LineEvent::Line("ok".into()),
            LineEvent::CleanEof
        ]
    );
}

/// A peer streaming bytes with no newline, faster than any read timeout,
/// is cut off at the cap: the reader never takes, so never buffers, a
/// byte past it.
#[test]
fn an_unterminated_stream_stops_at_the_cap() {
    for fill in [b'a', 0xFF, 0] {
        let mut peer = Firehose { fill, delivered: 0 };
        assert_eq!(LineReader::new().next(&mut peer), LineEvent::TooLong);
        assert_eq!(peer.delivered, MAX_LINE_BYTES);
    }
}

/// End to end: the server answers an over-long line as malformed, counts
/// it, and closes the connection.
#[test]
fn the_server_answers_an_over_long_line_and_closes() {
    let cfg = ServeConfig {
        read_timeout: Duration::from_secs(5),
        drain_timeout: Duration::from_secs(2),
        obs: ObsConfig::on(),
        ..ServeConfig::default()
    };
    let server = Server::bind(cfg, &BindAddr::parse("tcp:127.0.0.1:0").unwrap()).unwrap();
    let addr = server.local_addr().clone();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());

    let mut client = Client::connect(&addr).unwrap();
    // Exactly the cap: the server consumes every byte sent before it
    // answers, so closing cannot reset the connection under the answer.
    client
        .conn_mut()
        .write_all(&vec![b'x'; MAX_LINE_BYTES])
        .unwrap();
    let events = drain(&mut LineReader::new(), client.conn_mut());
    match &events[..] {
        [LineEvent::Line(answer), LineEvent::CleanEof] => {
            assert!(answer.contains(r#""reason":"malformed""#), "{answer}");
            assert!(answer.contains("request line too long"), "{answer}");
        }
        other => panic!("unexpected events {other:?}"),
    }

    handle.shutdown();
    let summary = thread.join().unwrap().unwrap();
    assert_eq!(summary.malformed, 1);
    assert_eq!(summary.obs.metrics.counter("serve.malformed"), 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any chunking of any bytes, with read timeouts anywhere, yields
    /// exactly the lines, stalls and EOF the bytes spell out.
    #[test]
    fn reader_splits_any_stream(chunks in vec(chunk(), 0..12), timeouts in vec(0usize..13, 0..4)) {
        let steps = script(chunks, &timeouts);
        let want = expected(&steps);
        let mut peer = Script::new(steps);
        prop_assert_eq!(drain(&mut LineReader::new(), &mut peer), want);
    }

    #[test]
    fn arbitrary_bytes(bytes in vec(any::<u8>(), 0..512)) {
        check_request(&String::from_utf8_lossy(&bytes))?;
    }

    /// Random bytes spliced into a valid request, and deep nesting at any
    /// point: the JSON parser's recursion depth is not the input's choice.
    #[test]
    fn spliced_requests(at in 0usize..4096, junk in vec(any::<u8>(), 0..16), depth in 0usize..5000) {
        let doc = r#"{"op":"predict","id":7,"client":"c","att":"add rax, rbx","deadline_ms":5}"#;
        let at = at % (doc.len() + 1);
        let junk = String::from_utf8_lossy(&junk);
        check_request(&format!("{}{junk}{}", &doc[..at], &doc[at..]))?;
        check_request(&format!("{}{}{}", &doc[..at], "[".repeat(depth), &doc[at..]))?;
        check_request(&format!(r#"{{"op":"predict","hex":{}"#, "{\"a\":".repeat(depth)))?;
    }
}
