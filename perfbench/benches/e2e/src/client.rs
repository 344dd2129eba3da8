//! A minimal keep-alive HTTP/1.1 client: the benchmark's own closed-loop
//! load, independent of `hpcarbon loadgen`.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// A response: status and body bytes.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(8192),
        })
    }

    /// Writes one raw request and reads its whole response.
    pub fn roundtrip(&mut self, raw: &[u8]) -> io::Result<Response> {
        self.stream.write_all(raw)?;
        let head_len = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p + 4;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_len]).map_err(|_| bad("non-UTF-8 head"))?;
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("no status code"))?;
        let body_len: usize = head
            .lines()
            .filter_map(|l| l.split_once(':'))
            .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.trim().parse().ok())
            .ok_or_else(|| bad("no content-length"))?;
        while self.buf.len() < head_len + body_len {
            self.fill()?;
        }
        let body = self.buf[head_len..head_len + body_len].to_vec();
        self.buf.drain(..head_len + body_len);
        Ok(Response { status, body })
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// The raw `POST /v1/estimate` request carrying `body`.
pub fn post_estimate(body: &str) -> Vec<u8> {
    format!(
        "POST /v1/estimate HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One `GET` on a fresh connection.
pub fn get(addr: &str, path: &str) -> io::Result<Response> {
    let raw = format!("GET {path} HTTP/1.1\r\nhost: perfbench\r\nconnection: close\r\n\r\n");
    Conn::connect(addr)?.roundtrip(raw.as_bytes())
}
