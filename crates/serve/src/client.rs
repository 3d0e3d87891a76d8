//! Blocking `o4a-client`: request framing, timeouts, and transparent
//! reconnect over the [`crate::wire`] protocol.
//!
//! One client owns one connection and keeps at most one request in
//! flight (the protocol has no request ids — responses pair with
//! requests by order). On a transport failure the client redials once
//! per call before giving up, so a server restart costs one failed call
//! at most.

use crate::wire::{
    self, HealthInfo, Request, Response, StatsSnapshot, TimingNs, TransportError, WireError,
};
use o4a_grid::mask::Mask;
use std::io::Write;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client-side tuning knobs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Dial timeout per connection attempt.
    pub connect_timeout: Duration,
    /// Read/write timeout per call.
    pub io_timeout: Duration,
    /// Reconnect-and-retry attempts after a transport failure (0 fails
    /// immediately).
    pub reconnects: u32,
    /// Cap on response payload bytes accepted.
    pub max_payload: usize,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(2),
            io_timeout: Duration::from_secs(10),
            reconnects: 1,
            max_payload: wire::DEFAULT_MAX_PAYLOAD,
        }
    }
}

/// Errors surfaced by client calls.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (after exhausting reconnects).
    Io(std::io::Error),
    /// The server's bytes did not decode.
    Wire(WireError),
    /// The server shed the request (admission queue full).
    Busy,
    /// The server answered with an error message.
    Remote(String),
    /// The server answered with the wrong response kind.
    Unexpected(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport failure: {e}"),
            ClientError::Wire(e) => write!(f, "undecodable response: {e}"),
            ClientError::Busy => write!(f, "server busy (request shed)"),
            ClientError::Remote(msg) => write!(f, "server error: {msg}"),
            ClientError::Unexpected(what) => write!(f, "unexpected response kind: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A blocking connection to an `o4a-serve` server.
pub struct Client {
    addr: SocketAddr,
    cfg: ClientConfig,
    stream: Option<TcpStream>,
}

impl Client {
    /// Resolves `addr` and dials the server.
    pub fn connect(addr: impl ToSocketAddrs, cfg: ClientConfig) -> Result<Client, ClientError> {
        let addr = addr
            .to_socket_addrs()
            .map_err(ClientError::Io)?
            .next()
            .ok_or_else(|| {
                ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "address resolved to nothing",
                ))
            })?;
        let mut client = Client {
            addr,
            cfg,
            stream: None,
        };
        client.redial()?;
        Ok(client)
    }

    fn redial(&mut self) -> Result<(), ClientError> {
        let stream = TcpStream::connect_timeout(&self.addr, self.cfg.connect_timeout)
            .map_err(ClientError::Io)?;
        stream
            .set_read_timeout(Some(self.cfg.io_timeout))
            .map_err(ClientError::Io)?;
        stream
            .set_write_timeout(Some(self.cfg.io_timeout))
            .map_err(ClientError::Io)?;
        let _ = stream.set_nodelay(true);
        self.stream = Some(stream);
        Ok(())
    }

    /// One request/response exchange on the current connection.
    fn exchange(&mut self, frame: &[u8]) -> Result<Response, TransportError> {
        let stream = self.stream.as_mut().expect("dialed in connect");
        stream.write_all(frame)?;
        stream.flush()?;
        let (verb, payload) = wire::read_frame(stream, self.cfg.max_payload)?;
        Ok(wire::decode_response(verb, &payload)?)
    }

    /// Sends a request, redialing once per configured reconnect when the
    /// transport fails.
    fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.call_frame(&wire::encode_request(req))
    }

    /// Sends an encoded request frame, with [`Client::call`]'s redials.
    fn call_frame(&mut self, frame: &[u8]) -> Result<Response, ClientError> {
        let mut attempts_left = self.cfg.reconnects + 1;
        loop {
            attempts_left -= 1;
            match self.exchange(frame) {
                Ok(resp) => return Ok(resp),
                Err(TransportError::Wire(e)) => return Err(ClientError::Wire(e)),
                Err(TransportError::Closed) | Err(TransportError::Io(_)) if attempts_left > 0 => {
                    self.redial()?;
                }
                Err(TransportError::Closed) => {
                    return Err(ClientError::Io(std::io::Error::new(
                        std::io::ErrorKind::ConnectionAborted,
                        "server closed the connection",
                    )))
                }
                Err(TransportError::Io(e)) => return Err(ClientError::Io(e)),
            }
        }
    }

    /// Predicts one region mask; returns the value and the timing
    /// breakdown of the execution batch the request rode in.
    pub fn query(&mut self, mask: &Mask) -> Result<(f32, TimingNs), ClientError> {
        match self.call_frame(&wire::encode_query(mask))? {
            Response::Prediction { value, timing } => Ok((value, timing)),
            other => Err(unexpected(other)),
        }
    }

    /// Predicts a batch of masks in one round trip.
    pub fn query_batch(&mut self, masks: &[Mask]) -> Result<(Vec<f32>, TimingNs), ClientError> {
        match self.call_frame(&wire::encode_batch(masks))? {
            Response::BatchResult { values, timing } => Ok((values, timing)),
            other => Err(unexpected(other)),
        }
    }

    /// Probes liveness, readiness and the served raster geometry.
    pub fn health(&mut self) -> Result<HealthInfo, ClientError> {
        match self.call(&Request::Health)? {
            Response::Health(info) => Ok(info),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches the server's counters.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats(snapshot) => Ok(snapshot),
            other => Err(unexpected(other)),
        }
    }

    /// Scrapes the server's full metrics registry as Prometheus text
    /// exposition.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        match self.call(&Request::Metrics)? {
            Response::Metrics(text) => Ok(text),
            other => Err(unexpected(other)),
        }
    }

    /// Drains the server's trace flight recorder as Chrome trace-event
    /// JSON (load into `chrome://tracing` or Perfetto). Draining resets
    /// the rings, so back-to-back calls return disjoint events.
    pub fn trace(&mut self) -> Result<String, ClientError> {
        match self.call(&Request::Trace)? {
            Response::Trace(json) => Ok(json),
            other => Err(unexpected(other)),
        }
    }
}

fn unexpected(resp: Response) -> ClientError {
    match resp {
        Response::Busy => ClientError::Busy,
        Response::Error(msg) => ClientError::Remote(msg),
        Response::Prediction { .. } => ClientError::Unexpected("prediction"),
        Response::BatchResult { .. } => ClientError::Unexpected("batch result"),
        Response::Health(_) => ClientError::Unexpected("health"),
        Response::Stats(_) => ClientError::Unexpected("stats"),
        Response::Metrics(_) => ClientError::Unexpected("metrics"),
        Response::Trace(_) => ClientError::Unexpected("trace"),
    }
}
