//! A minimal HTTP/1.1 client for the loopback server: one `GET` per
//! connection (the server closes after every response).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One answered request.
#[derive(Debug, Default, Clone, Copy)]
pub struct Reply {
    pub status: u16,
    /// Result rows in a SPARQL-JSON body; `None` when it did not parse.
    pub rows: Option<u64>,
    /// Bytes received, headers included.
    pub bytes: usize,
    /// Client-side phase ends, nanoseconds after the request started:
    /// request written, first response byte, last response byte, body
    /// counted.
    pub sent_ns: u64,
    pub first_byte_ns: u64,
    pub received_ns: u64,
    pub parsed_ns: u64,
}

/// Percent-encodes a query-string value.
pub fn urlencode(s: &str) -> String {
    let mut out = String::with_capacity(s.len() * 3);
    for b in s.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<Reply> {
    let t0 = Instant::now();
    let ns = |t0: Instant| t0.elapsed().as_nanos() as u64;
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_nodelay(true)?;
    stream.write_all(
        format!(
            "GET {path} HTTP/1.1\r\nHost: bench\r\nAccept: application/sparql-results+json\r\n\r\n"
        )
        .as_bytes(),
    )?;
    let sent_ns = ns(t0);
    let mut raw = Vec::with_capacity(16 * 1024);
    let mut chunk = [0u8; 16 * 1024];
    let mut first_byte_ns = 0;
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        if raw.is_empty() {
            first_byte_ns = ns(t0);
        }
        raw.extend_from_slice(&chunk[..n]);
    }
    let received_ns = ns(t0);
    let status = std::str::from_utf8(&raw[..raw.len().min(16)])
        .ok()
        .and_then(|head| head.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|i| &raw[i + 4..]);
    let rows = body.and_then(count_bindings);
    Ok(Reply {
        status,
        rows,
        bytes: raw.len(),
        sent_ns,
        first_byte_ns,
        received_ns,
        parsed_ns: ns(t0),
    })
}

/// Counts the solution objects in a SPARQL-JSON `results.bindings`
/// array by scanning its top level (strings and escapes respected).
pub fn count_bindings(body: &[u8]) -> Option<u64> {
    const KEY: &[u8] = b"\"bindings\":[";
    let start = body.windows(KEY.len()).position(|w| w == KEY)? + KEY.len();
    let (mut depth, mut in_str, mut escaped, mut rows) = (0usize, false, false, 0u64);
    for &b in &body[start..] {
        if in_str {
            match (escaped, b) {
                (true, _) => escaped = false,
                (false, b'\\') => escaped = true,
                (false, b'"') => in_str = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_str = true,
            b'{' | b'[' => {
                if depth == 0 && b == b'{' {
                    rows += 1;
                }
                depth += 1;
            }
            b']' if depth == 0 => return Some(rows),
            b'}' | b']' => depth = depth.checked_sub(1)?,
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_top_level_bindings() {
        let body = br#"{"head":{"vars":["x"]},"results":{"bindings":[{"x":{"type":"literal","value":"a}\"{"}},{"x":{"type":"uri","value":"b"}}]}}"#;
        assert_eq!(count_bindings(body), Some(2));
        assert_eq!(count_bindings(br#"{"results":{"bindings":[]}}"#), Some(0));
        assert_eq!(count_bindings(br#"{"results":{"bindings":[{"#), None);
    }
}
