//! The control plane of the inference service: JSON lines.
//!
//! Every control message is one compact JSON object per line. Requests
//! carry an `"op"` discriminator, successful responses an `"ok"`
//! discriminator, and error responses an `"err"` code plus a human-readable
//! `"message"`. Frames never travel as JSON: each one crosses the wire as a
//! checksummed binary frame (see [`crate::wire`]), answered by a JSON
//! `verdicts` line:
//!
//! ```text
//! -> {"op":"open","model":"default","camera":"cam-0"}
//! <- {"ok":"opened","session":1,"series_length":3}
//! -> <36-byte binary header for session 1><softmax payload>
//! <- {"ok":"verdicts","session":1,"frame":0,"verdicts":[...]}
//! -> {"op":"close","session":1}
//! <- {"ok":"closed","session":1,"stats":{...}}
//! ```
//!
//! Payload types ([`SegmentVerdict`], [`SessionStats`]) use their derived
//! serde encodings, so a served verdict is *bit-identical* to the
//! in-process one after the round-trip (floats travel in shortest
//! round-trip form).
//!
//! Decoding is total: any malformed line — including a `frame` op, which is
//! not part of the protocol — becomes a [`ProtocolError`], which the server
//! answers with [`ErrorCode::BadRequest`] instead of dropping the
//! connection — one garbled camera payload must not kill a session.

use metaseg::stream::{SegmentVerdict, SessionStats};
use metaseg::DispersionPrecision;
use metaseg_data::ProbEncoding;
use serde::{Deserialize, DeserializeError, Serialize, Value};
use std::fmt;

/// The payload encoding a client submits its binary frames in.
///
/// Every connection accepts binary frames (see [`crate::wire`]) from its
/// first byte, and each frame's header names its own encoding, so the
/// server needs no per-connection format state: [`Request::Negotiate`]
/// names a format only to have it echoed back, and [`crate::ServeClient`]
/// uses it to choose the encoding it sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFormat {
    /// Binary frame submissions with the given payload encoding.
    Binary(ProbEncoding),
}

impl FrameFormat {
    /// The wire spelling of the format.
    pub fn as_str(self) -> &'static str {
        match self {
            FrameFormat::Binary(ProbEncoding::F64) => "binary-f64",
            FrameFormat::Binary(ProbEncoding::F32) => "binary-f32",
            FrameFormat::Binary(ProbEncoding::U16) => "binary-u16",
        }
    }

    /// Parses the wire spelling.
    pub fn from_str_opt(text: &str) -> Option<Self> {
        Some(match text {
            "binary-f64" => FrameFormat::Binary(ProbEncoding::F64),
            "binary-f32" => FrameFormat::Binary(ProbEncoding::F32),
            "binary-u16" => FrameFormat::Binary(ProbEncoding::U16),
            _ => return None,
        })
    }
}

impl fmt::Display for FrameFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Opens a camera session served by the named model.
    Open {
        /// Registry name of the model that should serve the session.
        model: String,
        /// Free-form camera label, echoed in server-side statistics.
        camera: String,
    },
    /// Requests the session's lifetime statistics.
    Stats {
        /// Session to report on.
        session: u64,
    },
    /// Closes a session, returning its final statistics.
    Close {
        /// Session to close.
        session: u64,
    },
    /// Re-attaches this connection to a session opened (and possibly
    /// orphaned) by an earlier connection. Answered with
    /// [`Response::Resumed`] carrying the number of frames the server has
    /// applied, so a reconnecting client knows exactly where to pick up
    /// without double-applying an in-flight frame.
    Resume {
        /// Session to re-attach to.
        session: u64,
    },
    /// Liveness probe; answered with [`Response::Pong`] without touching any
    /// session.
    Ping,
    /// Sets the dispersion-scan precision of this connection's frames.
    /// Answered with [`Response::Negotiated`], which echoes both fields.
    /// Binary frames need no negotiation: their encoding is named in each
    /// frame header.
    Negotiate {
        /// The encoding the client submits its frames in (echoed only).
        format: FrameFormat,
        /// The dispersion-scan precision the client asks the server to run.
        /// Encoded on the wire only when it deviates from the
        /// [`DispersionPrecision::F64`] default.
        dispersion: DispersionPrecision,
    },
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A session was opened.
    Opened {
        /// Server-assigned session id (unique per server lifetime).
        session: u64,
        /// Time-series depth of the serving engine.
        series_length: usize,
    },
    /// Per-segment verdicts of one submitted frame.
    Verdicts {
        /// Session the verdicts belong to.
        session: u64,
        /// Index of the frame within the session.
        frame: usize,
        /// One verdict per tracked segment, in record order.
        verdicts: Vec<SegmentVerdict>,
    },
    /// Session statistics snapshot.
    Stats {
        /// Session reported on.
        session: u64,
        /// The statistics snapshot.
        stats: SessionStats,
    },
    /// A session was closed.
    Closed {
        /// The closed session.
        session: u64,
        /// Final statistics of the session.
        stats: SessionStats,
    },
    /// A session was re-attached to this connection.
    Resumed {
        /// The resumed session.
        session: u64,
        /// Frames the server has applied to the session so far; the next
        /// submitted frame is frame `frames`.
        frames: usize,
    },
    /// Answer to [`Request::Ping`].
    Pong,
    /// The connection's dispersion precision was set.
    Negotiated {
        /// The format the request named.
        format: FrameFormat,
        /// The dispersion precision now in effect for this connection
        /// (omitted on the wire when it is the [`DispersionPrecision::F64`]
        /// default).
        dispersion: DispersionPrecision,
    },
    /// A typed error. The connection stays usable afterwards.
    Error {
        /// Machine-readable error class.
        code: ErrorCode,
        /// Human-readable description.
        message: String,
    },
}

/// Machine-readable error classes of [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The worker queue is full; retry after draining. The request had no
    /// effect.
    Backpressure,
    /// The requested model is not in the registry.
    UnknownModel,
    /// The session id is not open on this connection.
    UnknownSession,
    /// The request line could not be decoded or carried an inconsistent
    /// payload.
    BadRequest,
    /// The server is shutting down and accepts no new work.
    ShuttingDown,
    /// The server is at its connection limit and shed this connection at
    /// accept time. Back off and retry; nothing was processed.
    Overloaded,
    /// The server hit an internal failure serving this session (e.g. a
    /// panic mid-inference left the engine in an unknown state). The
    /// session is dead; open a new one. The connection stays usable.
    Internal,
}

impl ErrorCode {
    /// The wire spelling of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Backpressure => "backpressure",
            ErrorCode::UnknownModel => "unknown-model",
            ErrorCode::UnknownSession => "unknown-session",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parses the wire spelling.
    pub fn from_str_opt(text: &str) -> Option<Self> {
        Some(match text {
            "backpressure" => ErrorCode::Backpressure,
            "unknown-model" => ErrorCode::UnknownModel,
            "unknown-session" => ErrorCode::UnknownSession,
            "bad-request" => ErrorCode::BadRequest,
            "shutting-down" => ErrorCode::ShuttingDown,
            "overloaded" => ErrorCode::Overloaded,
            "internal" => ErrorCode::Internal,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A wire message that could not be decoded.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolError(String);

impl ProtocolError {
    fn new(message: impl Into<String>) -> Self {
        Self(message.into())
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtocolError {}

impl From<DeserializeError> for ProtocolError {
    fn from(value: DeserializeError) -> Self {
        Self::new(value.to_string())
    }
}

fn object(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn required<'a>(value: &'a Value, key: &str) -> Result<&'a Value, ProtocolError> {
    value
        .get(key)
        .ok_or_else(|| ProtocolError::new(format!("missing field `{key}`")))
}

/// Integer fields decode only below 2^53: the document model holds every
/// number as an `f64`, so a larger id could arrive rounded to another
/// session's id. Server-assigned session ids count up from 1.
const EXACT_INTEGER_LIMIT: u64 = 1 << 53;

fn u64_field(value: &Value, key: &str) -> Result<u64, ProtocolError> {
    required(value, key)?
        .as_u64()
        .filter(|&n| n < EXACT_INTEGER_LIMIT)
        .ok_or_else(|| ProtocolError::new(format!("field `{key}` must be an integer in 0..2^53")))
}

/// Optional `"dispersion"` field of negotiation messages: an absent key is
/// the f64 default.
fn dispersion_field(value: &Value) -> Result<DispersionPrecision, ProtocolError> {
    match value.get("dispersion") {
        None => Ok(DispersionPrecision::F64),
        Some(field) => {
            let text = field
                .as_str()
                .ok_or_else(|| ProtocolError::new("field `dispersion` must be a string"))?;
            DispersionPrecision::from_name(text)
                .ok_or_else(|| ProtocolError::new(format!("unknown dispersion precision `{text}`")))
        }
    }
}

fn string_field(value: &Value, key: &str) -> Result<String, ProtocolError> {
    Ok(required(value, key)?
        .as_str()
        .ok_or_else(|| ProtocolError::new(format!("field `{key}` must be a string")))?
        .to_string())
}

impl Request {
    /// Renders the request as one compact JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let value = match self {
            Request::Open { model, camera } => object(vec![
                ("op", Value::String("open".into())),
                ("model", model.serialize()),
                ("camera", camera.serialize()),
            ]),
            Request::Stats { session } => object(vec![
                ("op", Value::String("stats".into())),
                ("session", session.serialize()),
            ]),
            Request::Close { session } => object(vec![
                ("op", Value::String("close".into())),
                ("session", session.serialize()),
            ]),
            Request::Resume { session } => object(vec![
                ("op", Value::String("resume".into())),
                ("session", session.serialize()),
            ]),
            Request::Ping => object(vec![("op", Value::String("ping".into()))]),
            Request::Negotiate { format, dispersion } => {
                let mut entries = vec![
                    ("op", Value::String("negotiate".into())),
                    ("frames", Value::String(format.as_str().into())),
                ];
                if *dispersion != DispersionPrecision::F64 {
                    entries.push(("dispersion", Value::String(dispersion.as_str().into())));
                }
                object(entries)
            }
        };
        serde_json::to_string(&value).expect("document model serialization is infallible")
    }

    /// Decodes one request line.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtocolError`] on malformed JSON, an unknown `op`, or a
    /// missing/mistyped field; the server answers these with
    /// [`ErrorCode::BadRequest`] rather than closing the connection.
    pub fn decode(line: &str) -> Result<Self, ProtocolError> {
        let value: Value =
            serde_json::from_str(line).map_err(|e| ProtocolError::new(e.to_string()))?;
        let op = string_field(&value, "op")?;
        match op.as_str() {
            "open" => Ok(Request::Open {
                model: string_field(&value, "model")?,
                camera: string_field(&value, "camera")?,
            }),
            "stats" => Ok(Request::Stats {
                session: u64_field(&value, "session")?,
            }),
            "close" => Ok(Request::Close {
                session: u64_field(&value, "session")?,
            }),
            "resume" => Ok(Request::Resume {
                session: u64_field(&value, "session")?,
            }),
            "ping" => Ok(Request::Ping),
            "negotiate" => {
                let text = string_field(&value, "frames")?;
                let format = FrameFormat::from_str_opt(&text)
                    .ok_or_else(|| ProtocolError::new(format!("unknown frame format `{text}`")))?;
                Ok(Request::Negotiate {
                    format,
                    dispersion: dispersion_field(&value)?,
                })
            }
            other => Err(ProtocolError::new(format!("unknown op `{other}`"))),
        }
    }
}

impl Response {
    /// Renders the response as one compact JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let value = match self {
            Response::Opened {
                session,
                series_length,
            } => object(vec![
                ("ok", Value::String("opened".into())),
                ("session", session.serialize()),
                ("series_length", series_length.serialize()),
            ]),
            Response::Verdicts {
                session,
                frame,
                verdicts,
            } => object(vec![
                ("ok", Value::String("verdicts".into())),
                ("session", session.serialize()),
                ("frame", frame.serialize()),
                ("verdicts", verdicts.serialize()),
            ]),
            Response::Stats { session, stats } => object(vec![
                ("ok", Value::String("stats".into())),
                ("session", session.serialize()),
                ("stats", stats.serialize()),
            ]),
            Response::Closed { session, stats } => object(vec![
                ("ok", Value::String("closed".into())),
                ("session", session.serialize()),
                ("stats", stats.serialize()),
            ]),
            Response::Resumed { session, frames } => object(vec![
                ("ok", Value::String("resumed".into())),
                ("session", session.serialize()),
                ("frames", frames.serialize()),
            ]),
            Response::Pong => object(vec![("ok", Value::String("pong".into()))]),
            Response::Negotiated { format, dispersion } => {
                let mut entries = vec![
                    ("ok", Value::String("negotiated".into())),
                    ("frames", Value::String(format.as_str().into())),
                ];
                if *dispersion != DispersionPrecision::F64 {
                    entries.push(("dispersion", Value::String(dispersion.as_str().into())));
                }
                object(entries)
            }
            Response::Error { code, message } => object(vec![
                ("err", Value::String(code.as_str().into())),
                ("message", message.serialize()),
            ]),
        };
        serde_json::to_string(&value).expect("document model serialization is infallible")
    }

    /// Decodes one response line.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtocolError`] on malformed JSON, an unknown `ok`/`err`
    /// discriminator, or a missing/mistyped field.
    pub fn decode(line: &str) -> Result<Self, ProtocolError> {
        let value: Value =
            serde_json::from_str(line).map_err(|e| ProtocolError::new(e.to_string()))?;
        if let Some(err) = value.get("err") {
            let code_text = err
                .as_str()
                .ok_or_else(|| ProtocolError::new("field `err` must be a string"))?;
            let code = ErrorCode::from_str_opt(code_text)
                .ok_or_else(|| ProtocolError::new(format!("unknown error code `{code_text}`")))?;
            return Ok(Response::Error {
                code,
                message: string_field(&value, "message")?,
            });
        }
        let ok = string_field(&value, "ok")?;
        match ok.as_str() {
            "opened" => Ok(Response::Opened {
                session: u64_field(&value, "session")?,
                series_length: usize::deserialize(required(&value, "series_length")?)?,
            }),
            "verdicts" => Ok(Response::Verdicts {
                session: u64_field(&value, "session")?,
                frame: usize::deserialize(required(&value, "frame")?)?,
                verdicts: Vec::<SegmentVerdict>::deserialize(required(&value, "verdicts")?)?,
            }),
            "stats" => Ok(Response::Stats {
                session: u64_field(&value, "session")?,
                stats: SessionStats::deserialize(required(&value, "stats")?)?,
            }),
            "closed" => Ok(Response::Closed {
                session: u64_field(&value, "session")?,
                stats: SessionStats::deserialize(required(&value, "stats")?)?,
            }),
            "resumed" => Ok(Response::Resumed {
                session: u64_field(&value, "session")?,
                frames: usize::deserialize(required(&value, "frames")?)?,
            }),
            "pong" => Ok(Response::Pong),
            "negotiated" => {
                let text = string_field(&value, "frames")?;
                let format = FrameFormat::from_str_opt(&text)
                    .ok_or_else(|| ProtocolError::new(format!("unknown frame format `{text}`")))?;
                Ok(Response::Negotiated {
                    format,
                    dispersion: dispersion_field(&value)?,
                })
            }
            other => Err(ProtocolError::new(format!("unknown response `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaseg_data::SemanticClass;
    use proptest::prelude::*;

    #[test]
    fn requests_roundtrip() {
        let requests = vec![
            Request::Open {
                model: "default".into(),
                camera: "cam-0".into(),
            },
            Request::Stats { session: 7 },
            Request::Close { session: 7 },
            Request::Resume { session: 7 },
            Request::Ping,
            Request::Negotiate {
                format: FrameFormat::Binary(ProbEncoding::F64),
                dispersion: DispersionPrecision::F64,
            },
            Request::Negotiate {
                format: FrameFormat::Binary(ProbEncoding::U16),
                dispersion: DispersionPrecision::F32,
            },
        ];
        for request in requests {
            let line = request.encode();
            assert!(!line.contains('\n'), "one message per line: {line}");
            assert_eq!(Request::decode(&line).unwrap(), request);
        }
    }

    /// The f64 default travels as an *absent* key.
    #[test]
    fn default_dispersion_is_absent_from_the_wire() {
        let format = FrameFormat::Binary(ProbEncoding::F64);
        let request = Request::Negotiate {
            format,
            dispersion: DispersionPrecision::F64,
        };
        assert!(!request.encode().contains("dispersion"));
        let response = Response::Negotiated {
            format,
            dispersion: DispersionPrecision::F64,
        };
        assert!(!response.encode().contains("dispersion"));
        let fast = Request::Negotiate {
            format,
            dispersion: DispersionPrecision::F32,
        };
        assert!(fast.encode().contains("\"dispersion\":\"f32\""));
    }

    #[test]
    fn responses_roundtrip() {
        let verdict = SegmentVerdict {
            frame: 3,
            track_id: 9,
            region_id: 1,
            class: SemanticClass::Car,
            area: 42,
            tp_probability: 0.875,
            predicted_iou: 1.0 / 3.0,
        };
        let responses = vec![
            Response::Opened {
                session: 1,
                series_length: 3,
            },
            Response::Verdicts {
                session: 1,
                frame: 3,
                verdicts: vec![verdict],
            },
            Response::Stats {
                session: 1,
                stats: SessionStats::default(),
            },
            Response::Closed {
                session: 1,
                stats: SessionStats::default(),
            },
            Response::Resumed {
                session: 1,
                frames: 17,
            },
            Response::Pong,
            Response::Negotiated {
                format: FrameFormat::Binary(metaseg_data::ProbEncoding::U16),
                dispersion: DispersionPrecision::F64,
            },
            Response::Negotiated {
                format: FrameFormat::Binary(metaseg_data::ProbEncoding::U16),
                dispersion: DispersionPrecision::F32,
            },
            Response::Error {
                code: ErrorCode::Backpressure,
                message: "queue full".into(),
            },
        ];
        for response in responses {
            let line = response.encode();
            assert!(!line.contains('\n'), "one message per line: {line}");
            assert_eq!(Response::decode(&line).unwrap(), response);
        }
    }

    #[test]
    fn verdict_floats_roundtrip_bit_identically() {
        let verdict = SegmentVerdict {
            frame: 0,
            track_id: 0,
            region_id: 0,
            class: SemanticClass::Human,
            area: 1,
            tp_probability: std::f64::consts::FRAC_1_SQRT_2,
            predicted_iou: 2.0 / 7.0,
        };
        let line = Response::Verdicts {
            session: 0,
            frame: 0,
            verdicts: vec![verdict.clone()],
        }
        .encode();
        match Response::decode(&line).unwrap() {
            Response::Verdicts { verdicts, .. } => {
                assert!(verdicts[0].tp_probability == verdict.tp_probability);
                assert!(verdicts[0].predicted_iou == verdict.predicted_iou);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn malformed_lines_produce_typed_errors_not_panics() {
        for bad in [
            "",
            "not json",
            "{}",
            "{\"op\":\"warp\"}",
            "{\"op\":\"open\"}",
            "{\"op\":\"negotiate\"}",
            "{\"op\":\"negotiate\",\"frames\":\"binary-f16\"}",
            "{\"op\":\"negotiate\",\"frames\":\"binary-u16\",\"dispersion\":\"f16\"}",
            "{\"op\":\"negotiate\",\"frames\":\"binary-u16\",\"dispersion\":7}",
        ] {
            assert!(Request::decode(bad).is_err(), "accepted {bad:?}");
        }
        for bad in [
            "{}",
            "{\"ok\":\"nope\"}",
            "{\"err\":\"nope\",\"message\":\"x\"}",
        ] {
            assert!(Response::decode(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn truncated_verdicts_error_instead_of_decoding_to_nan() {
        // A verdict object missing a field (truncated document, mismatched
        // peer) must be a decode error — never a silently-NaN probability.
        let bad = "{\"ok\":\"verdicts\",\"session\":1,\"frame\":0,\"verdicts\":\
                   [{\"frame\":0,\"track_id\":0,\"region_id\":0,\"class\":\"Car\",\"area\":1}]}";
        let err = Response::decode(bad).unwrap_err();
        assert!(
            err.to_string().contains("missing field"),
            "unexpected error: {err}"
        );
        // Explicit null is still the valid encoding of a non-finite float.
        let null_prob = "{\"ok\":\"verdicts\",\"session\":1,\"frame\":0,\"verdicts\":\
                         [{\"frame\":0,\"track_id\":0,\"region_id\":0,\"class\":\"Car\",\
                         \"area\":1,\"tp_probability\":null,\"predicted_iou\":0.5}]}";
        match Response::decode(null_prob).unwrap() {
            Response::Verdicts { verdicts, .. } => assert!(verdicts[0].tp_probability.is_nan()),
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn error_codes_roundtrip() {
        for code in [
            ErrorCode::Backpressure,
            ErrorCode::UnknownModel,
            ErrorCode::UnknownSession,
            ErrorCode::BadRequest,
            ErrorCode::ShuttingDown,
            ErrorCode::Overloaded,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::from_str_opt(code.as_str()), Some(code));
            assert_eq!(code.to_string(), code.as_str());
        }
        assert_eq!(ErrorCode::from_str_opt("nope"), None);
    }

    #[test]
    fn frame_formats_roundtrip() {
        for format in [
            FrameFormat::Binary(ProbEncoding::F64),
            FrameFormat::Binary(ProbEncoding::F32),
            FrameFormat::Binary(ProbEncoding::U16),
        ] {
            assert_eq!(FrameFormat::from_str_opt(format.as_str()), Some(format));
            assert_eq!(format.to_string(), format.as_str());
        }
        assert_eq!(FrameFormat::from_str_opt("binary"), None);
        assert_eq!(FrameFormat::from_str_opt("json"), None);
    }

    /// Frames only travel as binary frames: the retired JSON `frame` op and
    /// a negotiation naming the retired `json` format are typed errors,
    /// however well-formed the rest of the line is.
    #[test]
    fn retired_json_frame_lines_decode_to_typed_errors() {
        let legacy_frame = "{\"op\":\"frame\",\"session\":1,\"probs\":{\"width\":1,\
                            \"height\":1,\"channels\":2,\"data\":[0.5,0.5]}}";
        let err = Request::decode(legacy_frame).unwrap_err();
        assert!(err.to_string().contains("unknown op `frame`"), "{err}");
        for line in [
            "{\"op\":\"negotiate\",\"frames\":\"json\"}",
            "{\"op\":\"negotiate\",\"frames\":\"json\",\"dispersion\":\"f32\"}",
        ] {
            let err = Request::decode(line).unwrap_err();
            assert!(
                err.to_string().contains("unknown frame format `json`"),
                "{err}"
            );
        }
        let echoed = Response::decode("{\"ok\":\"negotiated\",\"frames\":\"json\"}");
        assert!(echoed.is_err());
    }

    /// An id the `f64` document model cannot carry exactly is refused, never
    /// rounded onto a neighbouring session.
    #[test]
    fn session_ids_beyond_exact_json_integers_are_typed_errors() {
        let last = EXACT_INTEGER_LIMIT - 1;
        assert_eq!(
            Request::decode(&Request::Stats { session: last }.encode()),
            Ok(Request::Stats { session: last })
        );
        for session in [EXACT_INTEGER_LIMIT, EXACT_INTEGER_LIMIT + 1, u64::MAX] {
            let line = Request::Close { session }.encode();
            let err = Request::decode(&line).unwrap_err();
            assert!(err.to_string().contains("0..2^53"), "{line}: {err}");
        }
        assert!(Request::decode("{\"op\":\"stats\",\"session\":1e300}").is_err());
    }

    /// Characters a generated string field draws from: ASCII (control
    /// characters, quotes and backslashes included), Latin-1, and
    /// multi-byte code points up to the supplementary planes.
    fn field_text(codes: &[u32]) -> String {
        codes
            .iter()
            .map(|&code| match code % 4 {
                0 | 1 => char::from_u32(code % 0x80),
                2 => char::from_u32(0x80 + code % 0x780),
                _ => char::from_u32(0x1F300 + code % 0x300),
            })
            .map(|c| c.expect("every generated code point is a scalar value"))
            .collect()
    }

    /// One request of every variant, built from the given fields.
    fn every_request(session: u64, model: String, camera: String, tag: u8) -> Vec<Request> {
        let format = FrameFormat::Binary(ProbEncoding::from_tag(tag % 3).expect("tag in range"));
        let dispersion = if tag >= 3 {
            DispersionPrecision::F32
        } else {
            DispersionPrecision::F64
        };
        vec![
            Request::Open { model, camera },
            Request::Stats { session },
            Request::Close { session },
            Request::Resume { session },
            Request::Ping,
            Request::Negotiate { format, dispersion },
        ]
    }

    /// Fragments of request syntax for grammar-aware fuzzing: random byte
    /// soup rarely gets past the JSON parser, token soup reaches the field
    /// checks behind it.
    const TOKENS: [&str; 36] = [
        "{",
        "}",
        "[",
        "]",
        ":",
        ",",
        "\"",
        "\"op\"",
        "\"open\"",
        "\"stats\"",
        "\"close\"",
        "\"resume\"",
        "\"ping\"",
        "\"negotiate\"",
        "\"frame\"",
        "\"session\"",
        "\"model\"",
        "\"camera\"",
        "\"frames\"",
        "\"dispersion\"",
        "\"binary-f64\"",
        "\"binary-u16\"",
        "\"json\"",
        "\"f32\"",
        "\"f64\"",
        "0",
        "7",
        "-1",
        "1.5",
        "1e999",
        "18446744073709551616",
        "null",
        "true",
        "\"\\u00ff\"",
        "\"\\ud800\"",
        " ",
    ];

    proptest! {
        #[test]
        fn prop_requests_roundtrip(
            session in 0..EXACT_INTEGER_LIMIT,
            model in proptest::collection::vec(any::<u32>(), 0..12),
            camera in proptest::collection::vec(any::<u32>(), 0..12),
            tag in 0u8..6
        ) {
            for request in every_request(session, field_text(&model), field_text(&camera), tag) {
                let line = request.encode();
                prop_assert!(!line.contains('\n'), "one message per line: {}", line);
                prop_assert_eq!(Request::decode(&line), Ok(request));
            }
        }

        #[test]
        fn prop_single_byte_mutations_decode_totally(
            session in any::<u64>(),
            model in proptest::collection::vec(any::<u32>(), 0..6),
            tag in 0u8..6,
            position in any::<u64>(),
            byte in 0u8..=255
        ) {
            for request in every_request(session, field_text(&model), "cam".into(), tag) {
                let mut bytes = request.encode().into_bytes();
                let position = (position % bytes.len() as u64) as usize;
                bytes[position] = byte;
                // Total: a request or a typed error, never a panic — and
                // whatever is accepted re-encodes to a line that decodes
                // to the same request.
                if let Ok(decoded) = Request::decode(&String::from_utf8_lossy(&bytes)) {
                    prop_assert_eq!(Request::decode(&decoded.encode()), Ok(decoded));
                }
            }
        }

        #[test]
        fn prop_arbitrary_lines_decode_totally(
            bytes in proptest::collection::vec(0u8..=255, 0..96),
            tokens in proptest::collection::vec(0usize..TOKENS.len(), 0..24)
        ) {
            let _ = Request::decode(&String::from_utf8_lossy(&bytes));
            let soup: String = tokens.iter().map(|&i| TOKENS[i]).collect();
            if let Ok(decoded) = Request::decode(&soup) {
                prop_assert_eq!(Request::decode(&decoded.encode()), Ok(decoded));
            }
        }
    }
}
