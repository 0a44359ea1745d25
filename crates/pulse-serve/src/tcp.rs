//! Thin length-prefixed TCP framing for out-of-process ingress (behind the
//! `tcp` feature; std-only).
//!
//! The wire format is deliberately minimal — this is a framing shim, not a
//! protocol: each frame is a 4-byte little-endian payload length followed
//! by the payload, and the only payload today is an arrival
//! (`func: u32 LE, at_ms: u64 LE`, so length 12). The codec is pure
//! (`encode_arrival` / `decode_arrival` / [`FrameReader`]) and tested
//! without sockets; [`spawn_ingress`] bridges accepted connections onto the
//! same bounded channel the in-process load generator uses, so transport
//! backpressure semantics are identical: a full channel drops the arrival
//! at the front door and counts it.

use crate::loadgen::Arrival;
use std::io::{self, Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{SyncSender, TrySendError};
use std::sync::Arc;

/// Payload length of an arrival frame.
pub const ARRIVAL_PAYLOAD_LEN: usize = 12;
/// Hard cap on accepted payload lengths — anything larger is a corrupt or
/// hostile frame and kills the connection.
pub const MAX_PAYLOAD_LEN: u32 = 64;

/// Encode one arrival as a full frame (length prefix + payload).
// ARRIVAL_PAYLOAD_LEN is 12.
#[allow(clippy::cast_possible_truncation)]
pub fn encode_arrival(a: &Arrival) -> [u8; 4 + ARRIVAL_PAYLOAD_LEN] {
    let mut buf = [0u8; 4 + ARRIVAL_PAYLOAD_LEN];
    buf[..4].copy_from_slice(&(ARRIVAL_PAYLOAD_LEN as u32).to_le_bytes());
    buf[4..8].copy_from_slice(&u32::try_from(a.func).unwrap_or(u32::MAX).to_le_bytes());
    buf[8..].copy_from_slice(&a.at_ms.to_le_bytes());
    buf
}

/// Decode one arrival payload (the 12 bytes after the length prefix).
pub fn decode_arrival(payload: &[u8]) -> io::Result<Arrival> {
    if payload.len() != ARRIVAL_PAYLOAD_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "arrival payload must be {ARRIVAL_PAYLOAD_LEN} bytes, got {}",
                payload.len()
            ),
        ));
    }
    let mut func = [0u8; 4];
    func.copy_from_slice(&payload[..4]);
    let mut at_ms = [0u8; 8];
    at_ms.copy_from_slice(&payload[4..]);
    Ok(Arrival {
        at_ms: u64::from_le_bytes(at_ms),
        func: u32::from_le_bytes(func) as usize,
    })
}

/// Incremental frame reader over any byte stream.
pub struct FrameReader<R: Read> {
    inner: R,
    payload: Vec<u8>,
}

impl<R: Read> FrameReader<R> {
    /// Wrap a byte stream.
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            payload: Vec::with_capacity(ARRIVAL_PAYLOAD_LEN),
        }
    }

    /// Read the next frame's payload; `Ok(None)` on clean EOF at a frame
    /// boundary. A stream that ends partway through a length prefix or a
    /// payload is an `UnexpectedEof` error.
    pub fn next_frame(&mut self) -> io::Result<Option<&[u8]>> {
        // `read_exact` reports a clean EOF and one 1–3 bytes into the
        // prefix alike, so the prefix is read by hand.
        let mut len_buf = [0u8; 4];
        let mut got = 0;
        while got < len_buf.len() {
            match self.inner.read(&mut len_buf[got..]) {
                Ok(0) if got == 0 => return Ok(None),
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        format!("stream ended {got} bytes into a 4-byte length prefix"),
                    ))
                }
                Ok(n) => got += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let len = u32::from_le_bytes(len_buf);
        if len > MAX_PAYLOAD_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {len} exceeds the {MAX_PAYLOAD_LEN}-byte cap"),
            ));
        }
        self.payload.resize(len as usize, 0);
        self.inner.read_exact(&mut self.payload)?;
        Ok(Some(&self.payload))
    }

    /// Read and decode the next arrival; `Ok(None)` on clean EOF.
    pub fn next_arrival(&mut self) -> io::Result<Option<Arrival>> {
        match self.next_frame()? {
            Some(payload) => decode_arrival(payload).map(Some),
            None => Ok(None),
        }
    }
}

/// Write one arrival frame to a byte stream.
pub fn write_arrival<W: Write>(w: &mut W, a: &Arrival) -> io::Result<()> {
    w.write_all(&encode_arrival(a))
}

/// Accept connections on `listener` and feed decoded arrivals into the
/// serving channel. Each connection gets its own thread; a full channel
/// drops the arrival and counts it in `dropped` — exactly the front-door
/// backpressure the in-process producer applies. The accept loop ends when
/// the listener errors (e.g. the socket is closed) or the channel
/// disconnects.
pub fn spawn_ingress(
    listener: TcpListener,
    tx: SyncSender<Arrival>,
    dropped: Arc<AtomicU64>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(sock) = conn else { break };
            let tx = tx.clone();
            let dropped = Arc::clone(&dropped);
            std::thread::spawn(move || {
                let mut reader = FrameReader::new(sock);
                while let Ok(Some(a)) = reader.next_arrival() {
                    match tx.try_send(a) {
                        Ok(()) => {}
                        Err(TrySendError::Full(_)) => {
                            dropped.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(TrySendError::Disconnected(_)) => break,
                    }
                }
            });
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::Cursor;

    #[test]
    fn codec_round_trips() {
        let a = Arrival {
            at_ms: 1_234_567,
            func: 11,
        };
        let frame = encode_arrival(&a);
        assert_eq!(frame.len(), 16);
        assert_eq!(decode_arrival(&frame[4..]).unwrap(), a);
    }

    #[test]
    fn reader_consumes_a_stream_of_frames() {
        let arrivals = [
            Arrival { at_ms: 1, func: 0 },
            Arrival {
                at_ms: 60_001,
                func: 3,
            },
            Arrival {
                at_ms: u64::MAX,
                func: usize::try_from(u32::MAX).unwrap(),
            },
        ];
        let mut bytes = Vec::new();
        for a in &arrivals {
            write_arrival(&mut bytes, a).unwrap();
        }
        let mut reader = FrameReader::new(Cursor::new(bytes));
        for a in &arrivals {
            assert_eq!(reader.next_arrival().unwrap().unwrap(), *a);
        }
        assert_eq!(reader.next_arrival().unwrap(), None);
    }

    #[test]
    fn truncated_frame_is_an_error_not_a_hang() {
        let a = Arrival { at_ms: 5, func: 1 };
        let mut bytes = encode_arrival(&a).to_vec();
        bytes.truncate(9); // length prefix + partial payload
        let mut reader = FrameReader::new(Cursor::new(bytes));
        assert!(reader.next_arrival().is_err());
    }

    #[test]
    fn partial_length_prefix_is_an_error_not_a_clean_eof() {
        let frame = encode_arrival(&Arrival { at_ms: 5, func: 1 });
        for cut in 1..4 {
            let mut reader = FrameReader::new(Cursor::new(frame[..cut].to_vec()));
            let err = reader.next_frame().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
        // One whole frame, then 1–3 stray bytes: the frame, then an error.
        for cut in 1..4 {
            let mut bytes = frame.to_vec();
            bytes.extend_from_slice(&frame[..cut]);
            let mut reader = FrameReader::new(Cursor::new(bytes));
            assert!(reader.next_arrival().unwrap().is_some());
            assert!(reader.next_arrival().is_err(), "cut at {cut}");
        }
        assert_eq!(
            FrameReader::new(Cursor::new(Vec::new()))
                .next_frame()
                .unwrap(),
            None
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Arbitrary bytes, and arbitrary frames, never panic the codec:
        /// each read yields an arrival, a clean EOF or a typed error, and
        /// since every arrival consumes at least a 4-byte prefix the loop
        /// ends within `len / 4 + 1` reads.
        #[test]
        fn arbitrary_bytes_give_frames_or_typed_errors(
            bytes in proptest::collection::vec(any::<u8>(), 0..96),
            lens in proptest::collection::vec(0u8..20, 0..6),
        ) {
            prop_assert_eq!(decode_arrival(&bytes).is_ok(), bytes.len() == ARRIVAL_PAYLOAD_LEN);
            // Plausible framing around the arbitrary bytes reaches the
            // payload paths too, not only the length cap.
            let mut framed = Vec::new();
            let mut rest = &bytes[..];
            for len in lens {
                let take = usize::from(len).min(rest.len());
                framed.extend_from_slice(&u32::from(len).to_le_bytes());
                framed.extend_from_slice(&rest[..take]);
                rest = &rest[take..];
            }
            for input in [bytes.clone(), framed] {
                let mut reader = FrameReader::new(Cursor::new(input.clone()));
                let mut calls = 0;
                loop {
                    calls += 1;
                    prop_assert!(calls <= input.len() / 4 + 1, "{} reads of {} bytes", calls, input.len());
                    match reader.next_arrival() {
                        Ok(Some(_)) => {}
                        Ok(None) => break,
                        Err(e) => {
                            prop_assert!(
                                matches!(e.kind(), io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof),
                                "untyped error {:?}",
                                e
                            );
                            break;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn oversized_length_is_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(MAX_PAYLOAD_LEN + 1).to_le_bytes());
        bytes.extend_from_slice(&[0u8; 128]);
        let mut reader = FrameReader::new(Cursor::new(bytes));
        assert!(reader.next_frame().is_err());
    }

    #[test]
    fn wrong_payload_size_is_rejected() {
        assert!(decode_arrival(&[0u8; 5]).is_err());
    }
}
