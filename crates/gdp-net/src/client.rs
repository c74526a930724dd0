//! A minimal blocking HTTP client — enough for the load generator, the
//! CLI's smoke checks, and the conformance/fault tests to drive a real
//! server through a real socket.

use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::http::{self, ClientResponse, HttpError, HttpResult};

/// One keep-alive client connection.
pub struct ClientConn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl ClientConn {
    /// Connects with `timeout` applied to connect, reads and writes.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] when the server refuses or times out.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> std::io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    /// Sends one request and reads the response. `body`, when present,
    /// is sent as `application/json`.
    ///
    /// # Errors
    ///
    /// [`HttpError`] on transport or framing failures, including
    /// [`HttpError::Closed`] when the server hung up (e.g. after a
    /// `connection: close` response or mid-drain).
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> HttpResult<ClientResponse> {
        let body = body.unwrap_or(&[]);
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: gdp\r\ncontent-length: {}\r\n{}\r\n",
            body.len(),
            if body.is_empty() {
                ""
            } else {
                "content-type: application/json\r\n"
            }
        );
        self.writer.write_all(head.as_bytes())?;
        self.writer.write_all(body)?;
        self.writer.flush()?;
        match http::read_response(&mut self.reader)? {
            Some(response) => Ok(response),
            None => Err(HttpError::Closed),
        }
    }
}

/// One-shot request on a fresh connection (closed afterwards).
///
/// # Errors
///
/// [`HttpError`]; connect failures surface as [`HttpError::Io`] (or
/// [`HttpError::TimedOut`] on connect timeout).
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
    timeout: Duration,
) -> HttpResult<ClientResponse> {
    let mut conn = ClientConn::connect(addr, timeout).map_err(HttpError::from)?;
    conn.send(method, path, body)
}

/// `GET path` on a fresh connection.
///
/// # Errors
///
/// Same as [`request`].
pub fn get(addr: SocketAddr, path: &str, timeout: Duration) -> HttpResult<ClientResponse> {
    request(addr, "GET", path, None, timeout)
}

/// `POST path` with a JSON body on a fresh connection.
///
/// # Errors
///
/// Same as [`request`].
pub fn post_json(
    addr: SocketAddr,
    path: &str,
    json: &str,
    timeout: Duration,
) -> HttpResult<ClientResponse> {
    request(addr, "POST", path, Some(json.as_bytes()), timeout)
}

/// The deterministic jittered backoff for retry number `retry` (0 =
/// first retry): somewhere in `[window/2, window]` where `window =
/// base << retry` (exponent capped at 10 so the window stays bounded).
///
/// The jitter is a pure function of `(seed, retry)` — a splitmix64
/// hash, no RNG state — so a caller replaying the same seed observes
/// the identical schedule, while callers with distinct seeds
/// desynchronize instead of retrying in lockstep (the thundering-herd
/// failure plain exponential backoff invites).
pub fn backoff_delay(base: Duration, retry: u32, seed: u64) -> Duration {
    let window = base.saturating_mul(1u32 << retry.min(10));
    let half = window / 2;
    let mut z = seed ^ u64::from(retry).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    // Top 53 bits → a uniform fraction in [0, 1); exact in an f64.
    let fraction = (z >> 11) as f64 / (1u64 << 53) as f64;
    half + window.saturating_sub(half).mul_f64(fraction)
}

/// Retries `send` with bounded exponential backoff while it returns a
/// `503` (the server's explicit backpressure signal). Returns the first
/// non-503 response, or the last 503 once `max_tries` is exhausted;
/// the second element counts the retries performed.
///
/// Sleeps follow [`backoff_delay`] under the caller's `seed`, so the
/// schedule is deterministic per caller and decorrelated across
/// callers; the server's `Retry-After` hint is honored when it is
/// shorter than the computed delay.
///
/// # Errors
///
/// Propagates the underlying [`HttpError`] unchanged.
pub fn with_backoff<F>(
    mut send: F,
    max_tries: u32,
    base_backoff: Duration,
    seed: u64,
) -> HttpResult<(ClientResponse, u32)>
where
    F: FnMut() -> HttpResult<ClientResponse>,
{
    let mut retries = 0;
    loop {
        let response = send()?;
        if response.status != 503 || retries + 1 >= max_tries.max(1) {
            return Ok((response, retries));
        }
        let backoff = backoff_delay(base_backoff, retries, seed);
        // Honor the server's Retry-After hint when it is shorter than
        // the current backoff (the hint is in whole seconds, so the
        // jittered exponential schedule usually undercuts it).
        let hint = response
            .header("retry-after")
            .and_then(|v| v.parse::<u64>().ok())
            .map(Duration::from_secs);
        std::thread::sleep(hint.map_or(backoff, |h| h.min(backoff)));
        retries += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_delay_stays_within_the_jitter_window() {
        let base = Duration::from_millis(20);
        for seed in [0u64, 1, 42, u64::MAX] {
            for retry in 0..12u32 {
                let window = base.saturating_mul(1u32 << retry.min(10));
                let delay = backoff_delay(base, retry, seed);
                assert!(
                    delay >= window / 2 && delay <= window,
                    "retry {retry} seed {seed}: {delay:?} outside [{:?}, {window:?}]",
                    window / 2
                );
            }
        }
    }

    #[test]
    fn backoff_delay_is_deterministic_per_seed_and_varies_across_seeds() {
        let base = Duration::from_millis(50);
        assert_eq!(backoff_delay(base, 3, 7), backoff_delay(base, 3, 7));
        // Distinct seeds must not share one schedule (the whole point
        // of the jitter). One collision would be astronomically
        // unlucky across four retries.
        let schedule = |seed| {
            (0..4)
                .map(|r| backoff_delay(base, r, seed))
                .collect::<Vec<_>>()
        };
        assert_ne!(schedule(1), schedule(2));
        // The exponent cap keeps the window bounded at 1024 × base.
        assert!(backoff_delay(base, u32::MAX, 9) <= base * 1024);
    }
}
