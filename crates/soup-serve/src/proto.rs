//! Serve protocol: request and response frames over TCP.
//!
//! Every message is one [`soup_error::wire`] frame (`len:u32-LE op:u8
//! payload`), the codec shared with the shard control channel and halo
//! exchange. A request's frame op is its [`Opcode`], a response's is its
//! [`Status`]; the payload after it is opcode-specific and fixed-layout
//! (no self-describing encoding on the hot path). Frames above
//! [`MAX_FRAME`] are rejected before allocation, so a hostile or corrupt
//! length prefix cannot OOM the server.
//!
//! | opcode | body | OK body |
//! |---|---|---|
//! | `PING` | — | `u64` model version |
//! | `PREDICT` | `u32` count, count × `u32` node id | `u64` version, `u32` count, count × `u32` class |
//! | `STATS` | — | UTF-8 JSON |
//! | `SWAP` | UTF-8 checkpoint path | `u64` new version |
//! | `RESOUP` | `u64` seed, `u8` strategy len, strategy, UTF-8 dir | `u64` new version |
//! | `SHUTDOWN` | — | — |
//!
//! A PREDICT carries at most [`MAX_PREDICT_IDS`] ids, the most whose OK
//! reply still fits in a frame. Response status [`Status::Overloaded`]
//! (empty body) is the explicit backpressure signal: the admission queue
//! was full and the request was *not* processed; the client may retry.
//! Malformed input of any kind decodes to a clean [`SoupError`] — never a
//! panic — and the server answers [`Status::Error`] with a message body.

use soup_error::{wire, SoupError};

/// Cap on a frame's length field (opcode or status byte plus payload) in
/// both directions.
pub const MAX_FRAME: usize = 1 << 20;

/// Most node ids one PREDICT may carry: its OK reply (status, `u64`
/// version, `u32` count, one `u32` class per id) must fit in [`MAX_FRAME`].
pub const MAX_PREDICT_IDS: usize = (MAX_FRAME - 1 - 12) / 4;

/// Request opcodes (first payload byte of a request frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Liveness probe; returns the live model version.
    Ping = 0,
    /// Classify a batch of node ids.
    Predict = 1,
    /// Serving metrics snapshot as JSON.
    Stats = 2,
    /// Promote the checkpoint at a path to the live model.
    Swap = 3,
    /// Re-soup a checkpoint directory and promote the result.
    Resoup = 4,
    /// Stop accepting connections and exit the serve loop.
    Shutdown = 5,
}

/// Response status (first payload byte of a response frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Request processed; body is opcode-specific.
    Ok = 0,
    /// Request failed; body is a UTF-8 error message.
    Error = 1,
    /// Admission queue full — request was rejected, retry later.
    Overloaded = 2,
}

/// A decoded request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    Ping,
    Predict(Vec<u32>),
    Stats,
    Swap(String),
    Resoup {
        strategy: String,
        dir: String,
        seed: u64,
    },
    Shutdown,
}

/// A decoded response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    Ok(Vec<u8>),
    Error(String),
    Overloaded,
}

fn frame(op: u8, payload: &[u8]) -> soup_error::Result<Vec<u8>> {
    wire::encode(op, payload, MAX_FRAME)
}

/// Encode a request as one complete frame.
pub fn encode_request(req: &Request) -> soup_error::Result<Vec<u8>> {
    match req {
        Request::Ping => frame(Opcode::Ping as u8, &[]),
        Request::Predict(nodes) => wire::encode_with(
            Opcode::Predict as u8,
            MAX_FRAME,
            4 + 4 * nodes.len(),
            |buf| {
                buf.extend_from_slice(&(nodes.len() as u32).to_le_bytes());
                for &n in nodes {
                    buf.extend_from_slice(&n.to_le_bytes());
                }
            },
        ),
        Request::Stats => frame(Opcode::Stats as u8, &[]),
        Request::Swap(path) => frame(Opcode::Swap as u8, path.as_bytes()),
        Request::Resoup {
            strategy,
            dir,
            seed,
        } => wire::encode_with(
            Opcode::Resoup as u8,
            MAX_FRAME,
            9 + strategy.len() + dir.len(),
            |buf| {
                buf.extend_from_slice(&seed.to_le_bytes());
                buf.push(strategy.len() as u8);
                buf.extend_from_slice(strategy.as_bytes());
                buf.extend_from_slice(dir.as_bytes());
            },
        ),
        Request::Shutdown => frame(Opcode::Shutdown as u8, &[]),
    }
}

/// Decode a request frame's opcode and body. Any malformed input —
/// unknown opcode, short body, too many ids, non-UTF-8 text — is a typed
/// error.
pub fn decode_request(op: u8, body: &[u8]) -> soup_error::Result<Request> {
    match op {
        x if x == Opcode::Ping as u8 => Ok(Request::Ping),
        x if x == Opcode::Predict as u8 => {
            if body.len() < 4 {
                return Err(SoupError::parse("predict body shorter than its count"));
            }
            let count = u32::from_le_bytes(body[..4].try_into().unwrap()) as usize;
            if count > MAX_PREDICT_IDS {
                return Err(SoupError::parse(format!(
                    "predict of {count} ids exceeds the limit of {MAX_PREDICT_IDS}"
                )));
            }
            let ids = &body[4..];
            if ids.len() != 4 * count {
                return Err(SoupError::parse(format!(
                    "predict declares {count} ids but carries {} bytes",
                    ids.len()
                )));
            }
            Ok(Request::Predict(
                ids.chunks_exact(4)
                    .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                    .collect(),
            ))
        }
        x if x == Opcode::Stats as u8 => Ok(Request::Stats),
        x if x == Opcode::Swap as u8 => Ok(Request::Swap(utf8(body, "swap path")?)),
        x if x == Opcode::Resoup as u8 => {
            if body.len() < 9 {
                return Err(SoupError::parse("resoup body shorter than its header"));
            }
            let seed = u64::from_le_bytes(body[..8].try_into().unwrap());
            let strat_len = body[8] as usize;
            let rest = &body[9..];
            if rest.len() < strat_len {
                return Err(SoupError::parse("resoup strategy name truncated"));
            }
            Ok(Request::Resoup {
                strategy: utf8(&rest[..strat_len], "resoup strategy")?,
                dir: utf8(&rest[strat_len..], "resoup dir")?,
                seed,
            })
        }
        x if x == Opcode::Shutdown as u8 => Ok(Request::Shutdown),
        other => Err(SoupError::parse(format!("unknown opcode {other}"))),
    }
}

/// Encode a response as one complete frame.
pub fn encode_response(resp: &Response) -> soup_error::Result<Vec<u8>> {
    match resp {
        Response::Ok(body) => frame(Status::Ok as u8, body),
        Response::Error(msg) => frame(Status::Error as u8, msg.as_bytes()),
        Response::Overloaded => frame(Status::Overloaded as u8, &[]),
    }
}

/// Decode a response frame's status and body.
pub fn decode_response(status: u8, body: Vec<u8>) -> soup_error::Result<Response> {
    match status {
        x if x == Status::Ok as u8 => Ok(Response::Ok(body)),
        x if x == Status::Error as u8 => Ok(Response::Error(utf8(&body, "error message")?)),
        x if x == Status::Overloaded as u8 => Ok(Response::Overloaded),
        other => Err(SoupError::parse(format!("unknown status {other}"))),
    }
}

/// Encode the PREDICT success body.
pub fn encode_predictions(version: u64, classes: &[u32]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(12 + 4 * classes.len());
    buf.extend_from_slice(&version.to_le_bytes());
    buf.extend_from_slice(&(classes.len() as u32).to_le_bytes());
    for &c in classes {
        buf.extend_from_slice(&c.to_le_bytes());
    }
    buf
}

/// Decode the PREDICT success body back into `(version, classes)`.
pub fn decode_predictions(body: &[u8]) -> soup_error::Result<(u64, Vec<u32>)> {
    if body.len() < 12 {
        return Err(SoupError::parse("predict reply shorter than its header"));
    }
    let version = u64::from_le_bytes(body[..8].try_into().unwrap());
    let count = u32::from_le_bytes(body[8..12].try_into().unwrap()) as usize;
    let rest = &body[12..];
    if rest.len() != 4 * count {
        return Err(SoupError::parse(format!(
            "predict reply declares {count} classes but carries {} bytes",
            rest.len()
        )));
    }
    Ok((
        version,
        rest.chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect(),
    ))
}

fn utf8(bytes: &[u8], what: &str) -> soup_error::Result<String> {
    String::from_utf8(bytes.to_vec()).map_err(|_| SoupError::parse(format!("{what} is not UTF-8")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unframe(frame: &[u8]) -> (u8, Vec<u8>) {
        wire::read_frame(&mut &frame[..], MAX_FRAME)
            .unwrap()
            .unwrap()
    }

    #[test]
    fn requests_round_trip() {
        let cases = vec![
            Request::Ping,
            Request::Predict(vec![0, 7, 42, u32::MAX]),
            Request::Predict(vec![]),
            Request::Stats,
            Request::Swap("/tmp/ck.bin".into()),
            Request::Resoup {
                strategy: "ls".into(),
                dir: "/tmp/pool".into(),
                seed: 42,
            },
            Request::Shutdown,
        ];
        for req in cases {
            let (op, body) = unframe(&encode_request(&req).unwrap());
            assert_eq!(decode_request(op, &body).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let cases = vec![
            Response::Ok(encode_predictions(3, &[1, 2, 9])),
            Response::Error("boom".into()),
            Response::Overloaded,
        ];
        for resp in cases {
            let (status, body) = unframe(&encode_response(&resp).unwrap());
            assert_eq!(decode_response(status, body).unwrap(), resp);
        }
    }

    #[test]
    fn wire_bytes_are_pinned() {
        // Captured from the encoders before serve moved onto the shared codec.
        let predict = Request::Predict(vec![1, 2, 0xdead_beef]);
        assert_eq!(
            hex(&encode_request(&predict).unwrap()),
            "1100000001030000000100000002000000efbeadde"
        );
        assert_eq!(hex(&encode_request(&Request::Ping).unwrap()), "0100000000");
        let ok = Response::Ok(encode_predictions(7, &[3, 1]));
        assert_eq!(
            hex(&encode_response(&ok).unwrap()),
            "15000000000700000000000000020000000300000001000000"
        );
        let error = Response::Error("boom".into());
        assert_eq!(hex(&encode_response(&error).unwrap()), "0500000001626f6f6d");
        assert_eq!(
            hex(&encode_response(&Response::Overloaded).unwrap()),
            "0100000002"
        );
    }

    #[test]
    fn predict_limit_keeps_every_reply_inside_the_cap() {
        let max = vec![0u32; MAX_PREDICT_IDS];
        let reply = encode_response(&Response::Ok(encode_predictions(u64::MAX, &max))).unwrap();
        assert!(reply.len() - 4 <= MAX_FRAME);
        let (op, body) = unframe(&encode_request(&Request::Predict(max)).unwrap());
        assert!(decode_request(op, &body).is_ok());
        // One more id still fits a request frame but is refused by decode.
        let over = Request::Predict(vec![0; MAX_PREDICT_IDS + 1]);
        let (op, body) = unframe(&encode_request(&over).unwrap());
        let err = decode_request(op, &body).unwrap_err();
        assert!(err.to_string().contains("exceeds the limit"), "{err}");
        let too_long = vec![0u32; MAX_PREDICT_IDS + 1];
        assert!(encode_response(&Response::Ok(encode_predictions(0, &too_long))).is_err());
    }

    #[test]
    fn frame_cap_boundaries() {
        let at_cap = frame(Status::Ok as u8, &vec![0; MAX_FRAME - 1]).unwrap();
        assert_eq!(unframe(&at_cap).1.len(), MAX_FRAME - 1);
        assert_eq!(
            frame(Status::Ok as u8, &vec![0; MAX_FRAME])
                .unwrap_err()
                .kind(),
            "usage"
        );
        let over = (MAX_FRAME as u32 + 1).to_le_bytes();
        let err = wire::read_frame(&mut &over[..], MAX_FRAME).unwrap_err();
        assert_eq!(err.kind(), "corrupt");
        let empty = 0u32.to_le_bytes();
        let err = wire::read_frame(&mut &empty[..], MAX_FRAME).unwrap_err();
        assert_eq!(err.kind(), "parse");
    }

    #[test]
    fn predictions_round_trip() {
        let body = encode_predictions(17, &[0, 5, 5, 2]);
        assert_eq!(decode_predictions(&body).unwrap(), (17, vec![0, 5, 5, 2]));
    }

    #[test]
    fn garbage_never_panics() {
        // Every short prefix and a few mutations of a valid request must
        // decode to Err, not panic.
        let (op, valid) = unframe(&encode_request(&Request::Predict(vec![1, 2, 3])).unwrap());
        for cut in 0..valid.len() {
            let _ = decode_request(op, &valid[..cut]);
        }
        for i in 0..valid.len() {
            let mut mutated = valid.clone();
            mutated[i] ^= 0xFF;
            let _ = decode_request(op, &mutated);
            let _ = decode_request(op ^ 0xFF, &mutated);
        }
        assert!(decode_request(99, &[]).is_err());
        assert!(decode_response(99, vec![]).is_err());
    }

    #[test]
    fn predict_count_mismatch_is_an_error() {
        let mut bad = 10u32.to_le_bytes().to_vec(); // claims 10 ids
        bad.extend_from_slice(&7u32.to_le_bytes()); // carries 1
        assert!(decode_request(Opcode::Predict as u8, &bad).is_err());
    }
}
