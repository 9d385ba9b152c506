//! Halo feature transport between shard-worker processes.
//!
//! Sharded Phase-1 gives every worker process exclusive ownership of one
//! contiguous node range of the shard-ordered mmap dataset. Training a
//! GNN on a shard still needs the *features* of the 1-hop out-of-shard
//! neighbors ("halo" nodes); this module moves them, and the worker
//! control channel, as [`soup_error::wire`] frames (`len:u32-LE op:u8
//! payload`, the codec `soup-serve` speaks too) with fixed little-endian
//! payloads and total decoding. Every frame here is held to [`FRAME_CAP`]:
//!
//! ```text
//! FETCH     := op=1  epoch:u8  count:u32  ids:u32×count   (global node ids)
//! ROWS      := op=2  epoch:u8  count:u32  dim:u32  rows:f32×count×dim
//! BYE       := op=3
//! READY     := op=10 shard:u32 epoch:u32   worker → coordinator (halo server up)
//! GO        := op=11                       coordinator → worker (all servers up)
//! FETCHED   := op=12 shard:u32 epoch:u32   worker → coordinator (halo resident)
//! PROCEED   := op=13                       coordinator → worker (training may start)
//! RESULT    := op=14 shard:u32 epoch:u32 json:u8×rest   worker → coordinator
//! ACK       := op=15                       coordinator → worker (exit)
//! HEARTBEAT := op=16 shard:u32 epoch:u32   worker → coordinator (liveness)
//! ```
//!
//! The **session epoch** is the worker's incarnation counter: 0 on first
//! spawn, bumped by the supervisor on every respawn. Worker→coordinator
//! frames carry it so the supervisor can reject stale frames left in a
//! socket buffer by a pre-crash incarnation; halo FETCH/ROWS carry a
//! truncated epoch byte that the server echoes, so a fetcher never
//! accounts rows against a reply it did not request this incarnation.
//!
//! Two transports deliver identical bytes:
//!
//! - **shared-memory fast path** (default): the dataset file is mapped
//!   `MAP_SHARED` by every process, so the owner's feature pages *are*
//!   shared memory — the fetcher dereferences them directly. Costs: the
//!   halo pages join the fetcher's RSS.
//! - **Unix-domain sockets** (`SOUP_SHARD_NO_SHM=1` or `no_shm` in the
//!   plan): the fetcher asks each owning shard over its `halo-<i>.sock`
//!   and only ever touches its own pages.
//!
//! The determinism test in `tests/shard_pipeline.rs` holds the two paths
//! bit-identical.

use std::io::BufReader;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};

use soup_error::{wire, SoupError};
use soup_graph::mmap::MmapDataset;

type Result<T> = std::result::Result<T, SoupError>;

/// Ids per FETCH frame; with [`FRAME_CAP`] this bounds the ROWS reply at
/// any feature_dim ≤ [`MAX_FEATURE_DIM`].
pub const FETCH_CHUNK: usize = 4096;

/// Widest feature row a full [`FETCH_CHUNK`] ROWS reply is sized for.
pub const MAX_FEATURE_DIM: usize = 1024;

/// ROWS payload header: `epoch:u8 count:u32 dim:u32`.
const ROWS_HEADER: usize = 9;

/// Cap on the length field of every halo and control frame. The largest
/// legal frame is a ROWS reply for one full [`FETCH_CHUNK`] at
/// [`MAX_FEATURE_DIM`], opcode and ROWS header included.
pub const FRAME_CAP: usize = 1 + ROWS_HEADER + FETCH_CHUNK * MAX_FEATURE_DIM * 4;

pub const OP_FETCH: u8 = 1;
pub const OP_ROWS: u8 = 2;
pub const OP_BYE: u8 = 3;
pub const OP_READY: u8 = 10;
pub const OP_GO: u8 = 11;
pub const OP_FETCHED: u8 = 12;
pub const OP_PROCEED: u8 = 13;
pub const OP_RESULT: u8 = 14;
pub const OP_ACK: u8 = 15;
pub const OP_HEARTBEAT: u8 = 16;

fn le_u32s(bytes: &[u8]) -> impl ExactSizeIterator<Item = u32> + '_ {
    bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
}

/// Encode a FETCH for `ids`, tagged with the low byte of the fetcher's
/// session epoch.
fn encode_fetch(epoch: u32, ids: &[u32]) -> Result<Vec<u8>> {
    wire::encode_with(OP_FETCH, FRAME_CAP, 5 + 4 * ids.len(), |buf| {
        buf.push(epoch as u8);
        buf.extend_from_slice(&(ids.len() as u32).to_le_bytes());
        for &id in ids {
            buf.extend_from_slice(&id.to_le_bytes());
        }
    })
}

/// Split a FETCH payload into its epoch byte and the requested ids.
fn decode_fetch(payload: &[u8]) -> Result<(u8, &[u8])> {
    if payload.len() < 5 {
        return Err(SoupError::corrupt("halo FETCH shorter than its header"));
    }
    let count = u32::from_le_bytes(payload[1..5].try_into().unwrap()) as usize;
    if payload.len() != 5 + count * 4 {
        return Err(SoupError::corrupt(format!(
            "halo FETCH declares {count} ids but carries {} bytes",
            payload.len() - 5
        )));
    }
    Ok((payload[0], &payload[5..]))
}

/// Encode a ROWS reply echoing `epoch`, one `dim`-wide row per request id.
fn encode_rows<'a>(
    epoch: u8,
    dim: usize,
    rows: impl ExactSizeIterator<Item = &'a [f32]>,
) -> Result<Vec<u8>> {
    let count = rows.len();
    wire::encode_with(OP_ROWS, FRAME_CAP, ROWS_HEADER + count * dim * 4, |buf| {
        buf.push(epoch);
        buf.extend_from_slice(&(count as u32).to_le_bytes());
        buf.extend_from_slice(&(dim as u32).to_le_bytes());
        for row in rows {
            for &x in row {
                buf.extend_from_slice(&x.to_le_bytes());
            }
        }
    })
}

/// Check a ROWS payload against the FETCH it answers and hand each row to
/// `store_row`. Nothing is stored unless the whole reply validates.
fn decode_rows(
    payload: &[u8],
    chunk: &[u32],
    dim: usize,
    epoch: u32,
    store_row: &mut impl FnMut(usize, &[f32]),
) -> Result<()> {
    if payload.len() < ROWS_HEADER {
        return Err(SoupError::corrupt("halo ROWS shorter than its header"));
    }
    if payload[0] != epoch as u8 {
        return Err(SoupError::corrupt(format!(
            "halo ROWS from stale session epoch {} (want {})",
            payload[0], epoch as u8
        )));
    }
    let count = u32::from_le_bytes(payload[1..5].try_into().unwrap()) as usize;
    let got_dim = u32::from_le_bytes(payload[5..9].try_into().unwrap()) as usize;
    if count != chunk.len() || got_dim != dim {
        return Err(SoupError::corrupt(format!(
            "halo ROWS shape {count}×{got_dim}, expected {}×{dim}",
            chunk.len()
        )));
    }
    if payload.len() != ROWS_HEADER + count * dim * 4 {
        return Err(SoupError::corrupt("halo ROWS payload size mismatch"));
    }
    let mut row = vec![0f32; dim];
    for (i, &id) in chunk.iter().enumerate() {
        let base = ROWS_HEADER + i * dim * 4;
        for (x, bits) in row.iter_mut().zip(le_u32s(&payload[base..base + dim * 4])) {
            *x = f32::from_bits(bits);
        }
        store_row(id as usize, &row);
    }
    Ok(())
}

/// Encode the `shard:u32 epoch:u32` prefix carried by every
/// worker→coordinator control frame (READY/FETCHED/RESULT/HEARTBEAT).
pub fn shard_epoch_payload(shard: u32, epoch: u32) -> [u8; 8] {
    let mut p = [0u8; 8];
    p[0..4].copy_from_slice(&shard.to_le_bytes());
    p[4..8].copy_from_slice(&epoch.to_le_bytes());
    p
}

/// Decode a `shard:u32 epoch:u32` prefix, returning the rest of the
/// payload (RESULT carries its JSON there; the others carry nothing).
pub fn parse_shard_epoch(payload: &[u8]) -> Result<(u32, u32, &[u8])> {
    if payload.len() < 8 {
        return Err(SoupError::corrupt(format!(
            "halo protocol: shard+epoch prefix needs 8 bytes, got {}",
            payload.len()
        )));
    }
    let shard = u32::from_le_bytes(payload[0..4].try_into().unwrap());
    let epoch = u32::from_le_bytes(payload[4..8].try_into().unwrap());
    Ok((shard, epoch, &payload[8..]))
}

/// Socket path of shard `i`'s halo server inside the run directory.
pub fn halo_socket_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("halo-{shard}.sock"))
}

/// Socket path of the coordinator's control plane.
pub fn control_socket_path(dir: &Path) -> PathBuf {
    dir.join("control.sock")
}

/// Serve this shard's owned feature rows on `listener` until the process
/// exits. Each FETCH is answered with one ROWS frame; ids outside
/// `owned` are a protocol violation and close the connection.
///
/// Runs on a detached thread: the listener accepts for the worker's whole
/// lifetime, so a slow peer can fetch at any point before the coordinator's
/// PROCEED barrier releases training.
pub fn serve_halo(
    listener: UnixListener,
    dataset: std::sync::Arc<MmapDataset>,
    owned: std::ops::Range<usize>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            let dataset = std::sync::Arc::clone(&dataset);
            let owned = owned.clone();
            std::thread::spawn(move || {
                let _ = serve_halo_conn(stream, &dataset, owned);
            });
        }
    })
}

fn serve_halo_conn(
    stream: UnixStream,
    dataset: &MmapDataset,
    owned: std::ops::Range<usize>,
) -> Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let dim = dataset.feature_dim();
    while let Some((op, payload)) = wire::read_frame(&mut reader, FRAME_CAP)? {
        match op {
            OP_FETCH => {
                let (epoch, ids) = decode_fetch(&payload)?;
                if let Some(id) = le_u32s(ids).find(|&id| !owned.contains(&(id as usize))) {
                    return Err(SoupError::usage(format!(
                        "halo FETCH for node {id} outside owned range {owned:?}"
                    )));
                }
                let rows = le_u32s(ids).map(|id| dataset.feature_row(id as usize));
                wire::send(&mut writer, &encode_rows(epoch, dim, rows)?)?;
            }
            OP_BYE => return Ok(()),
            other => {
                return Err(SoupError::corrupt(format!(
                    "halo server: unexpected opcode {other}"
                )))
            }
        }
    }
    Ok(())
}

/// Retry/timeout policy for halo fetches. Fetches are pure idempotent
/// reads, so a failed chunk is simply re-requested over a fresh
/// connection with exponential backoff between attempts.
#[derive(Debug, Clone, Copy)]
pub struct FetchOpts {
    /// Session epoch of the fetching incarnation; the server echoes its
    /// low byte so stale replies are detected.
    pub epoch: u32,
    /// Per-read/write socket timeout. A peer that stops mid-frame fails
    /// the chunk within this bound instead of pinning the fetcher.
    pub io_timeout: std::time::Duration,
    /// Total attempts per chunk (first try included).
    pub attempts: u32,
    /// Backoff before retry `n` is `base_backoff × 2^(n-1)`.
    pub base_backoff: std::time::Duration,
}

impl Default for FetchOpts {
    fn default() -> Self {
        Self {
            epoch: 0,
            io_timeout: std::time::Duration::from_secs(30),
            attempts: 3,
            base_backoff: std::time::Duration::from_millis(50),
        }
    }
}

struct FetchConn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

fn connect_fetch(sock: &Path, opts: &FetchOpts) -> Result<FetchConn> {
    let stream = UnixStream::connect(sock).map_err(|e| SoupError::io_at(sock, e))?;
    stream.set_read_timeout(Some(opts.io_timeout))?;
    stream.set_write_timeout(Some(opts.io_timeout))?;
    Ok(FetchConn {
        reader: BufReader::new(stream.try_clone()?),
        writer: stream,
    })
}

/// One FETCH→ROWS exchange. Rows are stored only after the whole reply
/// validates, so a failed attempt never leaves partial state behind.
fn fetch_chunk(
    conn: &mut FetchConn,
    chunk: &[u32],
    dim: usize,
    epoch: u32,
    store_row: &mut impl FnMut(usize, &[f32]),
) -> Result<()> {
    wire::send(&mut conn.writer, &encode_fetch(epoch, chunk)?)?;
    let payload = wire::expect_frame(&mut conn.reader, OP_ROWS, FRAME_CAP)?;
    decode_rows(&payload, chunk, dim, epoch, store_row)
}

/// Fetch feature rows for `ids` (global, sorted or not) over the socket of
/// their owning shard, in [`FETCH_CHUNK`]-sized frames with the default
/// [`FetchOpts`]. Rows are handed to `store_row(id, row)` — the caller
/// picks the destination layout.
pub fn fetch_rows_from(
    sock: &Path,
    ids: &[u32],
    dim: usize,
    store_row: impl FnMut(usize, &[f32]),
) -> Result<()> {
    fetch_rows_with(sock, ids, dim, &FetchOpts::default(), store_row)
}

/// [`fetch_rows_from`] with explicit timeout/retry policy. Each chunk is
/// retried up to `opts.attempts` times over a fresh connection with
/// exponential backoff; only `Usage` errors (a fetch outside the owned
/// range — a deterministic bug) fail fast.
pub fn fetch_rows_with(
    sock: &Path,
    ids: &[u32],
    dim: usize,
    opts: &FetchOpts,
    mut store_row: impl FnMut(usize, &[f32]),
) -> Result<()> {
    let mut conn: Option<FetchConn> = None;
    for chunk in ids.chunks(FETCH_CHUNK) {
        let mut attempt = 0u32;
        loop {
            let result = match &mut conn {
                Some(c) => fetch_chunk(c, chunk, dim, opts.epoch, &mut store_row),
                None => match connect_fetch(sock, opts) {
                    Ok(c) => {
                        let c = conn.insert(c);
                        fetch_chunk(c, chunk, dim, opts.epoch, &mut store_row)
                    }
                    Err(e) => Err(e),
                },
            };
            match result {
                Ok(()) => break,
                // Out-of-range fetches are deterministic bugs, not flakes.
                Err(e) if e.kind() == "usage" => return Err(e),
                Err(e) => {
                    attempt += 1;
                    if attempt >= opts.attempts {
                        return Err(e);
                    }
                    soup_obs::counter!("halo.fetch_retries").inc();
                    conn = None; // reconnect on the next attempt
                    std::thread::sleep(opts.base_backoff * (1 << (attempt - 1).min(8)));
                }
            }
        }
    }
    if let Some(mut c) = conn {
        // Best-effort goodbye; the data already landed.
        let _ = wire::write_frame(&mut c.writer, OP_BYE, &[], FRAME_CAP);
    }
    Ok(())
}

/// Connect to a unix socket, retrying while the peer is still binding.
pub fn connect_retry(path: &Path, timeout: std::time::Duration) -> Result<UnixStream> {
    let start = std::time::Instant::now();
    loop {
        match UnixStream::connect(path) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if start.elapsed() > timeout {
                    return Err(SoupError::io_at(path, e));
                }
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soup_graph::mmap::save_mmap_dataset;
    use soup_graph::DatasetKind;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("soup-halo-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn wire_bytes_are_pinned() {
        // Captured from the hand-rolled halo encoders before they moved
        // onto the shared codec.
        assert_eq!(
            hex(&encode_fetch(257, &[5, 258]).unwrap()),
            "0e0000000101020000000500000002010000"
        );
        let rows: [&[f32]; 2] = [&[1.0, -2.5, 0.0], &[3.25, -0.0, 1e-3]];
        assert_eq!(
            hex(&encode_rows(1, 3, rows.into_iter()).unwrap()),
            "22000000020102000000030000000000803f000020c00000000000005040000000806f12833a"
        );
        let control = |op, payload: &[u8]| hex(&wire::encode(op, payload, FRAME_CAP).unwrap());
        assert_eq!(control(OP_BYE, &[]), "0100000003");
        assert_eq!(control(OP_GO, &[]), "010000000b");
        assert_eq!(
            control(OP_READY, &shard_epoch_payload(3, 2)),
            "090000000a0300000002000000"
        );
        assert_eq!(
            control(OP_HEARTBEAT, &shard_epoch_payload(3, 2)),
            "09000000100300000002000000"
        );
    }

    #[test]
    fn frame_cap_boundaries() {
        let at_cap = wire::encode(OP_ROWS, &vec![0; FRAME_CAP - 1], FRAME_CAP).unwrap();
        let (op, payload) = wire::read_frame(&mut &at_cap[..], FRAME_CAP)
            .unwrap()
            .unwrap();
        assert_eq!((op, payload.len()), (OP_ROWS, FRAME_CAP - 1));
        let over = wire::encode(OP_ROWS, &vec![0; FRAME_CAP], FRAME_CAP);
        assert_eq!(over.unwrap_err().kind(), "usage");
        let over = (FRAME_CAP as u32 + 1).to_le_bytes();
        let err = wire::read_frame(&mut &over[..], FRAME_CAP).unwrap_err();
        assert_eq!(err.kind(), "corrupt");
        let empty = 0u32.to_le_bytes();
        let err = wire::read_frame(&mut &empty[..], FRAME_CAP).unwrap_err();
        assert_eq!(err.kind(), "parse");
    }

    #[test]
    fn full_chunk_rows_at_max_dim_round_trip_under_the_cap() {
        let dim = MAX_FEATURE_DIM;
        let ids: Vec<u32> = (0..FETCH_CHUNK as u32).collect();
        let rows: Vec<f32> = (0..FETCH_CHUNK * dim).map(|i| i as f32 * 0.5).collect();
        let (tx, rx) = UnixStream::pair().unwrap();
        rx.set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .unwrap();
        let sent = rows.clone();
        // The reply outgrows the socket buffer, so it is written from a
        // second thread while this one reads.
        let writer = std::thread::spawn(move || {
            let frame = encode_rows(9, dim, sent.chunks_exact(dim))?;
            wire::send(&mut &tx, &frame)
        });
        let payload = wire::expect_frame(&mut BufReader::new(rx), OP_ROWS, FRAME_CAP).unwrap();
        writer.join().unwrap().unwrap();
        let mut seen = 0;
        decode_rows(&payload, &ids, dim, 9, &mut |id, row| {
            assert_eq!(row, &rows[id * dim..(id + 1) * dim]);
            seen += 1;
        })
        .unwrap();
        assert_eq!(seen, FETCH_CHUNK);
    }

    #[test]
    fn fetch_roundtrips_rows_over_uds() {
        let dir = tmpdir("fetch");
        let ds_path = dir.join("ds.gmm");
        let d = DatasetKind::Flickr.generate_scaled(5, 0.02);
        save_mmap_dataset(&d, &ds_path).unwrap();
        let m = std::sync::Arc::new(MmapDataset::open(&ds_path).unwrap());
        let n = m.num_nodes();
        let dim = m.feature_dim();
        let sock = halo_socket_path(&dir, 0);
        let listener = UnixListener::bind(&sock).unwrap();
        let _server = serve_halo(listener, std::sync::Arc::clone(&m), 0..n);

        let ids: Vec<u32> = (0..n as u32).step_by(7).collect();
        let mut got: std::collections::HashMap<usize, Vec<f32>> = Default::default();
        fetch_rows_from(&sock, &ids, dim, |id, row| {
            got.insert(id, row.to_vec());
        })
        .unwrap();
        assert_eq!(got.len(), ids.len());
        for &id in &ids {
            // Transport is bit-exact with the shared-memory path.
            assert_eq!(got[&(id as usize)], m.feature_row(id as usize));
        }
    }

    #[test]
    fn shard_epoch_prefix_roundtrips_with_tail() {
        let mut p = shard_epoch_payload(7, 42).to_vec();
        p.extend_from_slice(b"{\"x\":1}");
        let (shard, epoch, rest) = parse_shard_epoch(&p).unwrap();
        assert_eq!((shard, epoch), (7, 42));
        assert_eq!(rest, b"{\"x\":1}");
        assert_eq!(parse_shard_epoch(&[0; 7]).unwrap_err().kind(), "corrupt");
    }

    #[test]
    fn fetch_retries_over_a_flaky_connection() {
        let dir = tmpdir("retry");
        let ds_path = dir.join("ds.gmm");
        let d = DatasetKind::Flickr.generate_scaled(5, 0.02);
        save_mmap_dataset(&d, &ds_path).unwrap();
        let m = std::sync::Arc::new(MmapDataset::open(&ds_path).unwrap());
        let n = m.num_nodes();
        let dim = m.feature_dim();
        let sock = halo_socket_path(&dir, 0);
        let listener = UnixListener::bind(&sock).unwrap();
        // First connection is dropped on the floor; later ones are served.
        let srv = std::sync::Arc::clone(&m);
        std::thread::spawn(move || {
            let mut first = true;
            for stream in listener.incoming() {
                let Ok(stream) = stream else { break };
                if std::mem::take(&mut first) {
                    drop(stream); // simulated mid-handshake crash
                    continue;
                }
                let dataset = std::sync::Arc::clone(&srv);
                std::thread::spawn(move || {
                    let _ = serve_halo_conn(stream, &dataset, 0..dataset.num_nodes());
                });
            }
        });
        let ids: Vec<u32> = (0..n as u32).step_by(5).collect();
        let opts = FetchOpts {
            epoch: 1,
            io_timeout: std::time::Duration::from_secs(5),
            attempts: 3,
            base_backoff: std::time::Duration::from_millis(5),
        };
        let mut got = 0usize;
        fetch_rows_with(&sock, &ids, dim, &opts, |id, row| {
            assert_eq!(row, m.feature_row(id));
            got += 1;
        })
        .unwrap();
        assert_eq!(got, ids.len());
    }

    #[test]
    fn fetch_outside_owned_range_closes_connection() {
        let dir = tmpdir("range");
        let ds_path = dir.join("ds.gmm");
        let d = DatasetKind::Flickr.generate_scaled(6, 0.02);
        save_mmap_dataset(&d, &ds_path).unwrap();
        let m = std::sync::Arc::new(MmapDataset::open(&ds_path).unwrap());
        let dim = m.feature_dim();
        let sock = halo_socket_path(&dir, 1);
        let listener = UnixListener::bind(&sock).unwrap();
        // Server owns only the first half.
        let _server = serve_halo(listener, std::sync::Arc::clone(&m), 0..m.num_nodes() / 2);
        let bad = vec![(m.num_nodes() - 1) as u32];
        let err = fetch_rows_from(&sock, &bad, dim, |_, _| {}).unwrap_err();
        // The server drops the connection; the client sees a protocol error.
        assert!(matches!(err.kind(), "corrupt" | "io"), "{err}");
    }
}
