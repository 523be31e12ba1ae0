//! The client: one connection to the front-end, a writer (the calling
//! thread, which keeps the schedule) and a reader thread that stamps
//! every response the moment its frame is complete.

use crate::trace::{Span, SpanLog};
use borndist_net::Wire;
use borndist_service::{write_frame, ClientRequest, ClientResponse, MAX_CLIENT_FRAME};
use std::io::Read;
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long one blocked write to the front-end may take before the
/// deployment is taken for dead.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// What the reader thread hands over.
#[derive(Debug)]
pub enum Event {
    /// A decoded response and the instant its last byte arrived.
    Frame(Instant, Box<ClientResponse>),
    /// The connection ended (front-end exit, decode error, or our own
    /// shutdown).
    Closed(String),
}

/// A client connection to the front-end.
pub struct Conn {
    stream: TcpStream,
    events: Receiver<Event>,
    reader: Option<JoinHandle<Vec<Span>>>,
}

/// Reads one length-prefixed frame's payload (the framing of
/// `borndist_service::read_frame`, split from decoding so the decode
/// can be timed on its own).
fn read_payload(r: &mut impl Read) -> std::io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_CLIENT_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {} bytes exceeds {}", len, MAX_CLIENT_FRAME),
        ));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

impl Conn {
    /// Starts the reader thread on `stream`; it records a
    /// `service.decode_response` span per frame when `trace` is on.
    pub fn open(stream: TcpStream, trace: bool, epoch: Instant) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
        let mut input = stream.try_clone()?;
        let (tx, events) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut log = SpanLog::new(trace, epoch, 2);
            loop {
                let payload = match read_payload(&mut input) {
                    Ok(p) => p,
                    Err(e) => {
                        let _ = tx.send(Event::Closed(e.to_string()));
                        break;
                    }
                };
                let at = Instant::now();
                let decoded = log.span("service.decode_response", |_| {
                    ClientResponse::decode_exact(&payload)
                });
                let event = match decoded {
                    Ok(resp) => Event::Frame(at, Box::new(resp)),
                    Err(e) => Event::Closed(format!("undecodable response: {}", e)),
                };
                let closed = matches!(event, Event::Closed(_));
                if tx.send(event).is_err() || closed {
                    break;
                }
            }
            log.take()
        });
        Ok(Conn {
            stream,
            events,
            reader: Some(reader),
        })
    }

    /// Sends one request, inside a `service.write_frame` span.
    pub fn send(&mut self, req: &ClientRequest, log: &mut SpanLog) -> std::io::Result<()> {
        let id = match req {
            ClientRequest::Sign { id, .. } | ClientRequest::Verify { id, .. } => Some(*id),
            ClientRequest::Shutdown => None,
        };
        let stream = &mut self.stream;
        log.span_for("service.write_frame", id, |_| write_frame(stream, req))
    }

    /// The next event, waiting at most until `until`.
    pub fn next(&self, until: Instant) -> Option<Event> {
        match self
            .events
            .recv_timeout(until.saturating_duration_since(Instant::now()))
        {
            Ok(ev) => Some(ev),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => Some(Event::Closed("reader ended".into())),
        }
    }

    /// Closes the connection and joins the reader, returning its spans.
    pub fn close(mut self) -> Result<Vec<Span>, String> {
        match self.finish() {
            Some(Err(_)) => Err("client reader thread panicked".into()),
            Some(Ok(spans)) => Ok(spans),
            None => Ok(Vec::new()),
        }
    }

    fn finish(&mut self) -> Option<std::thread::Result<Vec<Span>>> {
        let _ = self.stream.shutdown(Shutdown::Both);
        self.reader.take().map(JoinHandle::join)
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        // Errors surface through `close`; a drop on an error path only
        // needs the thread gone.
        let _ = self.finish();
    }
}
