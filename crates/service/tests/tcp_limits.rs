//! `proto::serve_tcp` bounds its thread-per-connection count: a
//! connection over the cap is answered one `ok: false` line and closed,
//! and its slot frees up when an open connection ends.

use coolopt_scenario::presets;
use coolopt_service::{proto, ServiceCore};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PLAN: &str = "{\"tenant\":\"testbed_rack20/rack\",\"load\":5.0}\n";

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr, timeout: Duration) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(timeout)).expect("timeout");
        Client {
            writer: stream.try_clone().expect("clone"),
            reader: BufReader::new(stream),
        }
    }

    fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        Ok(line)
    }

    fn plan(&mut self) -> String {
        self.writer.write_all(PLAN.as_bytes()).expect("send");
        self.read_line().expect("reply")
    }
}

#[test]
fn connections_over_the_cap_are_refused_with_one_line_and_closed() {
    let core = Arc::new(ServiceCore::default());
    core.register_scenario(&presets::testbed_rack20(0))
        .expect("preset registers");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = Arc::clone(&core);
    std::thread::spawn(move || proto::serve_tcp(&server, listener, 2));

    let timeout = Duration::from_secs(10);
    let mut first = Client::connect(addr, timeout);
    let mut second = Client::connect(addr, timeout);
    assert!(first.plan().contains("\"ok\":true"));
    assert!(second.plan().contains("\"ok\":true"));

    // The third connection is over the cap: one refusal line, then EOF,
    // without sending anything.
    let mut third = Client::connect(addr, timeout);
    let refusal = third.read_line().expect("refusal line");
    assert!(refusal.contains("\"ok\":false"), "{refusal}");
    assert!(
        refusal.contains("connection refused: 2 connections already open"),
        "{refusal}"
    );
    assert_eq!(
        third.read_line().expect("clean close"),
        "",
        "closed after refusal"
    );

    // Closing one open connection frees its slot.
    drop(first);
    let deadline = Instant::now() + timeout;
    let mut next = loop {
        let mut client = Client::connect(addr, Duration::from_millis(200));
        match client.read_line() {
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                // Accepted: the server waits for a request.
                client
                    .writer
                    .set_read_timeout(Some(timeout))
                    .expect("timeout");
                break client;
            }
            _ => {
                assert!(Instant::now() < deadline, "the freed slot never reopened");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    };
    assert!(next.plan().contains("\"ok\":true"));
    assert!(second.plan().contains("\"ok\":true"));
}
