//! A minimal blocking client for the serving protocol: one request,
//! one response, over a persistent connection. The CLI, load
//! generator, and test suites all speak through this — nothing outside
//! `crates/server` touches a socket directly (`cargo run -p xtask --
//! lint` enforces it).

use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::protocol::{
    begin_frame, configure_stream, read_frame, write_frame, FrameRead, Request, Response,
    HEADER_BYTES, MAX_FRAME_BYTES,
};

/// A blocking protocol client. Not `Sync`; give each thread its own.
pub struct Client {
    /// `None` once an I/O error left the stream at an unknown offset
    /// inside a frame.
    stream: Option<TcpStream>,
    /// The connection's frame buffers, reused by every request.
    inbox: Vec<u8>,
    outbox: Vec<u8>,
}

impl Client {
    /// Connect with symmetric I/O timeouts: a server that stalls past
    /// `timeout` surfaces as an `Err`, never a hang — the client-side
    /// half of the protocol's no-hang contract.
    pub fn connect(addr: impl ToSocketAddrs, timeout: Duration) -> std::io::Result<Client> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::other("address resolved to nothing"))?;
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        configure_stream(&stream, timeout, timeout)?;
        Ok(Client {
            stream: Some(stream),
            inbox: Vec::new(),
            outbox: Vec::new(),
        })
    }

    /// Send one request and read its response. A payload over
    /// [`MAX_FRAME_BYTES`] is `InvalidInput` before a byte is written, and
    /// the connection is kept. Otherwise fails closed: after any `Err` the
    /// stream may sit mid-frame, where the next read would parse payload
    /// bytes as a length prefix, so the connection is dropped and every
    /// later call returns `NotConnected` until the caller reconnects.
    pub fn request(&mut self, request: &Request) -> std::io::Result<Response> {
        begin_frame(&mut self.outbox);
        request.encode_into(&mut self.outbox);
        let bytes = self.outbox.len() - HEADER_BYTES;
        if bytes > MAX_FRAME_BYTES {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("request of {bytes} bytes exceeds the {MAX_FRAME_BYTES}-byte frame cap"),
            ));
        }
        let result = self.exchange();
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    /// Write the frame in `outbox` and read the response to it.
    fn exchange(&mut self) -> std::io::Result<Response> {
        let stream = self.stream.as_mut().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::NotConnected,
                "connection dropped after an I/O error; reconnect",
            )
        })?;
        write_frame(stream, &mut self.outbox)?;
        // An `Idle` here means the read timeout elapsed with no reply
        // started: for a client that just asked a question, that is a
        // timeout, not an idle peer.
        match read_frame(stream, &mut self.inbox)? {
            FrameRead::Frame => Response::decode(&self.inbox)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())),
            FrameRead::Eof => Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection before answering",
            )),
            FrameRead::Idle => Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "no response within the read timeout",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    #[test]
    fn client_socket_runs_with_nodelay() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = Client::connect(listener.local_addr().expect("addr"), Duration::from_secs(5))
            .expect("connect");
        let stream = client.stream.as_ref().expect("connected");
        assert!(stream.nodelay().expect("nodelay"));
    }

    #[test]
    fn an_over_cap_request_is_refused_before_a_byte_and_keeps_the_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        // A peer that reads one ping frame and answers it with a pong.
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut request = [0u8; 5];
            stream.read_exact(&mut request).expect("first frame");
            stream.write_all(&[1, 0, 0, 0, 0x81]).expect("pong");
            request
        });
        let mut client = Client::connect(addr, Duration::from_secs(2)).expect("connect");
        // Eight bytes a row, one row more than a frame holds.
        let rows = MAX_FRAME_BYTES / 8 + 1;
        let over = Request::Ingest {
            tenant: "t".into(),
            table: "t".into(),
            columns: vec![("k".into(), laqy_engine::Column::Int64(vec![0; rows]))],
        };
        let err = client.request(&over).expect_err("over the cap");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("-byte frame cap"), "{err}");
        assert_eq!(
            client.request(&Request::Ping).expect("pong"),
            Response::Pong
        );
        assert_eq!(peer.join().expect("peer"), [1, 0, 0, 0, 0x01]);
    }

    #[test]
    fn an_io_error_mid_frame_closes_the_client_for_good() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        // A peer that answers the first request with a frame announcing
        // 100 bytes, sends 10 of them, stalls past the client's timeout,
        // then delivers the rest: bytes a desynchronised client would
        // read as its next length prefix.
        let (stalled_tx, stalled_rx) = std::sync::mpsc::channel::<()>();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut request = [0u8; 5];
            stream.read_exact(&mut request).expect("ping frame");
            stream.write_all(&100u32.to_le_bytes()).expect("header");
            stream.write_all(&[0x81; 10]).expect("torn body");
            stalled_rx.recv().expect("client timed out");
            // The client may already have hung up; that is the point.
            let _ = stream.write_all(&[0x81; 90]);
        });

        let mut client = Client::connect(addr, Duration::from_millis(100)).expect("connect");
        let torn = client
            .request(&Request::Ping)
            .expect_err("stalled mid-frame");
        assert_eq!(torn.kind(), std::io::ErrorKind::TimedOut);
        stalled_tx.send(()).expect("peer alive");
        peer.join().expect("peer");

        // Not a frame parsed from the leftover bytes, not a hang.
        for _ in 0..2 {
            let dead = client.request(&Request::Ping).expect_err("fails closed");
            assert_eq!(dead.kind(), std::io::ErrorKind::NotConnected);
        }
    }
}
