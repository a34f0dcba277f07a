//! The fleet service's wire API, carried over the hub's framed link
//! encoding.
//!
//! Clients talk to the fleet service the way the phone talks to the
//! hub: every message is chunked into 64-byte CRC-16/CCITT-FALSE frames
//! by [`sidewinder_hub::link::encode_frame_stream`]. Inside the frames
//! is an 8-byte header — magic `"SF"`, a protocol version, a message
//! type, and a big-endian payload length — followed by the payload.
//!
//! Decoding is *total*: truncated streams, corrupted frames, bad magic,
//! length mismatches, and malformed IR all come back as typed
//! [`WireError`]s, never panics. The conformance suite feeds this
//! module garbage to hold it to that.

use sidewinder_hub::link::{decode_frame_stream, encode_frame_stream, FrameStreamError};
use sidewinder_ir::Program;

/// Message magic: the first two payload bytes of every message.
pub const WIRE_MAGIC: [u8; 2] = *b"SF";

/// Current protocol version.
pub const WIRE_VERSION: u8 = 1;

/// Bytes of header before the payload.
pub const HEADER_BYTES: usize = 8;

/// Message types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum MessageType {
    /// Client → service: an IR wake-condition program (UTF-8 text).
    SubmitProgram = 0x01,
    /// Client → service: request the current fleet rollup.
    QueryRollup = 0x02,
    /// Service → client: submission accepted (see [`SubmitAck`]).
    SubmitAck = 0x81,
    /// Service → client: rollup JSON (UTF-8 text).
    RollupReply = 0x82,
    /// Service → client: request failed; payload is the error text.
    ErrorReply = 0xEE,
}

impl MessageType {
    fn from_byte(b: u8) -> Option<MessageType> {
        match b {
            0x01 => Some(MessageType::SubmitProgram),
            0x02 => Some(MessageType::QueryRollup),
            0x81 => Some(MessageType::SubmitAck),
            0x82 => Some(MessageType::RollupReply),
            0xEE => Some(MessageType::ErrorReply),
            _ => None,
        }
    }
}

/// Everything that can go wrong decoding a wire message.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The frame stream itself was truncated or failed CRC.
    Frame(FrameStreamError),
    /// Fewer than [`HEADER_BYTES`] bytes of de-framed payload.
    TruncatedHeader {
        /// Bytes actually present.
        got: usize,
    },
    /// The first two bytes were not [`WIRE_MAGIC`].
    BadMagic {
        /// What arrived instead.
        got: [u8; 2],
    },
    /// A version this implementation does not speak.
    UnsupportedVersion(u8),
    /// An unknown message-type byte.
    UnknownMessageType(u8),
    /// Header length disagrees with the bytes present.
    LengthMismatch {
        /// Length the header declared.
        declared: usize,
        /// Payload bytes actually present.
        got: usize,
    },
    /// The expected message type did not arrive.
    UnexpectedType {
        /// What the caller wanted.
        expected: MessageType,
        /// What arrived.
        got: MessageType,
    },
    /// A text payload was not UTF-8.
    BadUtf8,
    /// The submitted program failed to parse.
    Parse(String),
    /// The submitted program parsed but failed validation.
    Invalid(String),
    /// A fixed-size payload had the wrong size.
    BadPayloadSize {
        /// Expected byte count.
        expected: usize,
        /// Actual byte count.
        got: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Frame(e) => write!(f, "frame stream: {e}"),
            WireError::TruncatedHeader { got } => {
                write!(f, "message header truncated: {got} of {HEADER_BYTES} bytes")
            }
            WireError::BadMagic { got } => {
                write!(f, "bad magic {:02x}{:02x} (want \"SF\")", got[0], got[1])
            }
            WireError::UnsupportedVersion(v) => {
                write!(f, "unsupported protocol version {v} (speak {WIRE_VERSION})")
            }
            WireError::UnknownMessageType(t) => write!(f, "unknown message type {t:#04x}"),
            WireError::LengthMismatch { declared, got } => {
                write!(
                    f,
                    "payload length mismatch: header says {declared}, got {got}"
                )
            }
            WireError::UnexpectedType { expected, got } => {
                write!(f, "expected {expected:?}, got {got:?}")
            }
            WireError::BadUtf8 => write!(f, "text payload is not valid UTF-8"),
            WireError::Parse(e) => write!(f, "program parse error: {e}"),
            WireError::Invalid(e) => write!(f, "program validation error: {e}"),
            WireError::BadPayloadSize { expected, got } => {
                write!(f, "bad payload size: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<FrameStreamError> for WireError {
    fn from(e: FrameStreamError) -> Self {
        WireError::Frame(e)
    }
}

/// Encodes a message of `kind` with `payload` into a CRC frame stream.
pub fn encode_message(kind: MessageType, payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(HEADER_BYTES + payload.len());
    bytes.extend_from_slice(&WIRE_MAGIC);
    bytes.push(WIRE_VERSION);
    bytes.push(kind as u8);
    bytes.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    bytes.extend_from_slice(payload);
    encode_frame_stream(&bytes)
}

/// Decodes a frame stream into `(message type, payload)`.
///
/// # Errors
///
/// Total on arbitrary input: every malformed stream maps to a typed
/// [`WireError`].
pub fn decode_message(stream: &[u8]) -> Result<(MessageType, Vec<u8>), WireError> {
    let bytes = decode_frame_stream(stream)?;
    if bytes.len() < HEADER_BYTES {
        return Err(WireError::TruncatedHeader { got: bytes.len() });
    }
    let magic = [bytes[0], bytes[1]];
    if magic != WIRE_MAGIC {
        return Err(WireError::BadMagic { got: magic });
    }
    if bytes[2] != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion(bytes[2]));
    }
    let kind = MessageType::from_byte(bytes[3]).ok_or(WireError::UnknownMessageType(bytes[3]))?;
    let declared = u32::from_be_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]) as usize;
    let payload = &bytes[HEADER_BYTES..];
    if payload.len() != declared {
        return Err(WireError::LengthMismatch {
            declared,
            got: payload.len(),
        });
    }
    Ok((kind, payload.to_vec()))
}

/// Encodes a program submission: the canonical IR text, framed.
pub fn encode_submit(program: &Program) -> Vec<u8> {
    encode_message(MessageType::SubmitProgram, program.to_string().as_bytes())
}

/// Decodes and *admits* a submitted program: UTF-8, parse, validate.
///
/// # Errors
///
/// [`WireError::BadUtf8`], [`WireError::Parse`], or
/// [`WireError::Invalid`]; the service rejects the submission and the
/// fleet keeps serving what it already has.
pub fn decode_submit(payload: &[u8]) -> Result<Program, WireError> {
    let text = std::str::from_utf8(payload).map_err(|_| WireError::BadUtf8)?;
    let program: Program = text.parse().map_err(|e| WireError::Parse(format!("{e}")))?;
    program
        .validate_located()
        .map_err(|e| WireError::Invalid(format!("{e}")))?;
    Ok(program)
}

/// The service's answer to a program submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitAck {
    /// The submission's id (its index in arrival order).
    pub condition_id: u32,
    /// Which unique (post-dedup) program the submission executes.
    pub unique_index: u32,
    /// Whether the optimized submission was structurally identical to
    /// an already-ingested condition (and shares its instance).
    pub deduplicated: bool,
    /// Unique programs now being served.
    pub active_unique: u32,
    /// Stable digest of the optimized program this submission runs.
    pub program_digest: u64,
    /// Digest of the fused suite's resource certificate against the
    /// fleet's configured core. Never 0: a suite that does not certify
    /// is rejected at ingest.
    pub cert_digest: u64,
}

const ACK_BYTES: usize = 29;

/// Encodes a [`SubmitAck`] reply.
pub fn encode_submit_ack(ack: &SubmitAck) -> Vec<u8> {
    let mut payload = Vec::with_capacity(ACK_BYTES);
    payload.extend_from_slice(&ack.condition_id.to_be_bytes());
    payload.extend_from_slice(&ack.unique_index.to_be_bytes());
    payload.push(u8::from(ack.deduplicated));
    payload.extend_from_slice(&ack.active_unique.to_be_bytes());
    payload.extend_from_slice(&ack.program_digest.to_be_bytes());
    payload.extend_from_slice(&ack.cert_digest.to_be_bytes());
    encode_message(MessageType::SubmitAck, &payload)
}

/// Decodes a [`SubmitAck`] payload.
///
/// # Errors
///
/// [`WireError::BadPayloadSize`] when the payload is not exactly
/// [`SubmitAck`]-shaped.
pub fn decode_submit_ack(payload: &[u8]) -> Result<SubmitAck, WireError> {
    if payload.len() != ACK_BYTES {
        return Err(WireError::BadPayloadSize {
            expected: ACK_BYTES,
            got: payload.len(),
        });
    }
    Ok(SubmitAck {
        condition_id: u32::from_be_bytes(payload[0..4].try_into().unwrap()),
        unique_index: u32::from_be_bytes(payload[4..8].try_into().unwrap()),
        deduplicated: payload[8] != 0,
        active_unique: u32::from_be_bytes(payload[9..13].try_into().unwrap()),
        program_digest: u64::from_be_bytes(payload[13..21].try_into().unwrap()),
        cert_digest: u64::from_be_bytes(payload[21..29].try_into().unwrap()),
    })
}

/// Encodes a rollup query.
pub fn encode_query_rollup() -> Vec<u8> {
    encode_message(MessageType::QueryRollup, &[])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steps() -> Program {
        "ACC_X -> movingAvg(id=1, params={10});
         1 -> minThreshold(id=2, params={15});
         2 -> OUT;"
            .parse()
            .unwrap()
    }

    #[test]
    fn submit_round_trips_through_frames() {
        let p = steps();
        let stream = encode_submit(&p);
        let (kind, payload) = decode_message(&stream).unwrap();
        assert_eq!(kind, MessageType::SubmitProgram);
        let decoded = decode_submit(&payload).unwrap();
        assert_eq!(decoded, p);
    }

    #[test]
    fn ack_round_trips() {
        let ack = SubmitAck {
            condition_id: 3,
            unique_index: 1,
            deduplicated: true,
            active_unique: 2,
            program_digest: 0xDEAD_BEEF_0BAD_F00D,
            cert_digest: 0x0123_4567_89AB_CDEF,
        };
        let stream = encode_submit_ack(&ack);
        let (kind, payload) = decode_message(&stream).unwrap();
        assert_eq!(kind, MessageType::SubmitAck);
        assert_eq!(decode_submit_ack(&payload).unwrap(), ack);
        assert!(matches!(
            decode_submit_ack(&payload[..10]),
            Err(WireError::BadPayloadSize { expected: 29, .. })
        ));
    }

    #[test]
    fn truncation_and_garbage_are_typed_errors() {
        let stream = encode_submit(&steps());
        // Truncated at every prefix length: typed error, never panic.
        for cut in 0..stream.len() {
            assert!(decode_message(&stream[..cut]).is_err());
        }
        // Flipped byte: CRC failure.
        let mut corrupt = stream.clone();
        corrupt[6] ^= 0xFF;
        assert!(matches!(decode_message(&corrupt), Err(WireError::Frame(_))));
        // Pure garbage.
        let garbage: Vec<u8> = (0..200u32).map(|i| (i * 37 % 251) as u8).collect();
        assert!(decode_message(&garbage).is_err());
    }

    #[test]
    fn header_violations_are_specific() {
        // Valid frames around a payload with bad magic.
        let mut inner = vec![b'X', b'Y', WIRE_VERSION, 0x01, 0, 0, 0, 0];
        let stream = sidewinder_hub::link::encode_frame_stream(&inner);
        assert!(matches!(
            decode_message(&stream),
            Err(WireError::BadMagic { got: [b'X', b'Y'] })
        ));
        // Bad version.
        inner[0] = b'S';
        inner[1] = b'F';
        inner[2] = 99;
        let stream = sidewinder_hub::link::encode_frame_stream(&inner);
        assert!(matches!(
            decode_message(&stream),
            Err(WireError::UnsupportedVersion(99))
        ));
        // Unknown type.
        inner[2] = WIRE_VERSION;
        inner[3] = 0x7F;
        let stream = sidewinder_hub::link::encode_frame_stream(&inner);
        assert!(matches!(
            decode_message(&stream),
            Err(WireError::UnknownMessageType(0x7F))
        ));
        // Length mismatch.
        inner[3] = 0x01;
        inner[7] = 5;
        let stream = sidewinder_hub::link::encode_frame_stream(&inner);
        assert!(matches!(
            decode_message(&stream),
            Err(WireError::LengthMismatch {
                declared: 5,
                got: 0
            })
        ));
        // Too short for a header at all.
        let stream = sidewinder_hub::link::encode_frame_stream(&[1, 2, 3]);
        assert!(matches!(
            decode_message(&stream),
            Err(WireError::TruncatedHeader { got: 3 })
        ));
    }

    #[test]
    fn malformed_programs_are_rejected_as_submissions() {
        assert!(matches!(
            decode_submit(&[0xFF, 0xFE, 0x80]),
            Err(WireError::BadUtf8)
        ));
        assert!(matches!(
            decode_submit(b"this is not IR"),
            Err(WireError::Parse(_))
        ));
        // Parses but references an undefined node: validation rejects.
        assert!(matches!(
            decode_submit(b"ACC_X -> movingAvg(id=1, params={10});\n7 -> OUT;"),
            Err(WireError::Invalid(_))
        ));
    }
}
