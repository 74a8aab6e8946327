//! The v2 wire format for update transport (DESIGN.md §17): a framed,
//! versioned, CRC-checked little-endian encoding, so a deployment detects
//! truncation and corruption instead of silently aggregating garbage.
//!
//! Besides the full-precision f32 scheme (identity or bitwise delta), the
//! frame carries the compressed schemes the transport layer bills by:
//! per-tensor affine **int8** (via [`crate::quant::quantize_per_tensor`]),
//! a **f16** wire format (the hand-written [`fedcav_tensor::F16`] scalar —
//! the workspace is offline, so no `half` crate), **top-k magnitude
//! sparsification** with a deterministic `total_cmp`-then-index tie-break,
//! and **delta-vs-global** encoding composable under all of them.
//!
//! ```
//! use fedcav_nn::wire::{self, CodecSpec};
//!
//! let codec = CodecSpec::Identity.build(&[]);
//! let frame = codec.encode(&[0.5, -1.0], Some(2.3), &[]).unwrap();
//! let decoded = wire::decode(&frame, &[]).unwrap();
//! assert_eq!(decoded.params, vec![0.5, -1.0]);
//! assert_eq!(decoded.inference_loss, Some(2.3));
//! ```
//!
//! Frame layout (little-endian):
//!
//! ```text
//! magic    u32   0x46444341 ("FDCA")
//! version  u16   2
//! flags    u16   bit0: has inference loss · bit1: delta-vs-global
//! scheme   u8    0 f32 · 1 int8 · 2 f16 · 3 topk
//! reserved u8    writers MUST zero; readers ignore
//! count    u32   number of *decoded* f32 parameters
//! loss     f32   inference loss (present iff flags bit0)
//! payload  scheme-specific, see below
//! crc      u32   CRC-32 (IEEE) over everything above
//! ```
//!
//! Scheme payloads:
//!
//! * **f32** — `count × u32` parameter bit patterns. Under delta the
//!   pattern is `p.to_bits().wrapping_sub(g.to_bits())`, which is exactly
//!   invertible: delta composed with the identity scheme is **bit-exact**
//!   for every input, NaN payloads included.
//! * **int8** — `u32` tensor count, then per tensor
//!   `{u32 len, f32 min, f32 scale, u8 × len}`. The layout travels
//!   in-band, so frames are self-describing. Round-trip error is bounded
//!   by `scale / 2` per segment ([`crate::quant::max_error_bound`]).
//!   Non-finite inputs are rejected with [`WireError::NonFinite`].
//! * **f16** — `count × u16` binary16 bit patterns via [`F16::from_f32`]
//!   (round-to-nearest-even): relative error ≤ 2⁻¹¹ for in-range normal
//!   values, NaN canonicalised to `0x7e00` (sign preserved) — still NaN,
//!   so poisoned updates stay visible to downstream validation.
//! * **topk** — `u32 k`, `k × u32` strictly-ascending coordinate indices,
//!   `k × f32` values. Selection keeps the `k` largest `|x|` under the
//!   IEEE 754 `total_cmp` total order, ties broken by the **lower index**
//!   — a total order on (magnitude, index), so the kept set is unique and
//!   independent of iteration or shard order. Kept coordinates round-trip
//!   exactly; dropped ones decode to `0.0` (or to the global value under
//!   delta, where decode computes `g + v` on kept coordinates only).
//!
//! Billing semantics: [`WireCodec::encoded_len`] is a deterministic
//! function of the parameter count, so the delivery stage can bill a
//! timed-out or codec-rejected upload its full nominal frame size without
//! having (or trusting) the bytes.

use crate::quant;
use fedcav_tensor::F16;
use std::fmt;

/// Frame magic, `"FDCA"` little-endian. Version 1 frames (raw f32 only)
/// shared it; [`decode`] rejects them by version.
pub(crate) const MAGIC: u32 = 0x4644_4341;
/// Wire version written by this module.
pub const WIRE_VERSION: u16 = 2;
/// Fixed v2 header length in bytes (before the optional loss field).
pub const WIRE_HEADER_LEN: usize = 14;
const FLAG_HAS_LOSS: u16 = 1;
const FLAG_DELTA: u16 = 2;

/// Result alias for wire-codec operations.
pub type WireResult<T> = std::result::Result<T, WireError>;

/// Compression scheme tag carried in byte 8 of the v2 header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Full-precision f32 bit patterns (identity, or bitwise delta).
    F32,
    /// Per-tensor affine uint8 quantization.
    Int8,
    /// Binary16 (IEEE half) bit patterns.
    F16,
    /// Top-k magnitude sparsification.
    TopK,
}

impl Scheme {
    fn tag(self) -> u8 {
        match self {
            Scheme::F32 => 0,
            Scheme::Int8 => 1,
            Scheme::F16 => 2,
            Scheme::TopK => 3,
        }
    }

    fn from_tag(tag: u8) -> Option<Scheme> {
        match tag {
            0 => Some(Scheme::F32),
            1 => Some(Scheme::Int8),
            2 => Some(Scheme::F16),
            3 => Some(Scheme::TopK),
            _ => None,
        }
    }

    /// Human-readable scheme name.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::F32 => "f32",
            Scheme::Int8 => "int8",
            Scheme::F16 => "f16",
            Scheme::TopK => "topk",
        }
    }
}

/// Framing failures, shared by every scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Frame shorter than its header or declared payload.
    Truncated {
        /// Bytes needed.
        needed: usize,
        /// Bytes available.
        got: usize,
    },
    /// Magic number mismatch — not a FedCav frame.
    BadMagic(u32),
    /// Unsupported wire version.
    BadVersion(u16),
    /// CRC mismatch — corrupted in flight.
    BadChecksum {
        /// CRC computed over the received bytes.
        computed: u32,
        /// CRC carried by the frame.
        stored: u32,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, got } => {
                write!(f, "truncated frame: need {needed} bytes, got {got}")
            }
            CodecError::BadMagic(m) => write!(f, "bad magic {m:#010x}"),
            CodecError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            CodecError::BadChecksum { computed, stored } => {
                write!(f, "checksum mismatch: computed {computed:#010x}, stored {stored:#010x}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Wire-codec failures.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// Framing failure (truncation, magic, version, checksum).
    Frame(CodecError),
    /// Unknown scheme tag in the header.
    BadScheme(u8),
    /// Empty parameter vector — nothing to encode.
    Empty,
    /// Non-finite input rejected by a scheme that cannot represent it.
    NonFinite {
        /// Scheme that rejected the input.
        scheme: &'static str,
    },
    /// Per-tensor layout does not cover the parameter vector.
    LayoutMismatch {
        /// Sum of the layout segments.
        layout_total: usize,
        /// Parameter count it had to match.
        params: usize,
    },
    /// Delta coding needs the global vector to match the update dimension.
    GlobalMismatch {
        /// Global model dimension.
        global: usize,
        /// Update dimension.
        params: usize,
    },
    /// Top-k coordinate indices out of range or not strictly ascending.
    BadIndices {
        /// What the index validation rejected.
        detail: &'static str,
    },
    /// Frame parsed completely but bytes remain before the CRC.
    TrailingBytes {
        /// Number of unconsumed payload bytes.
        extra: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Frame(e) => write!(f, "{e}"),
            WireError::BadScheme(tag) => write!(f, "unknown scheme tag {tag}"),
            WireError::Empty => write!(f, "empty parameter vector"),
            WireError::NonFinite { scheme } => {
                write!(f, "non-finite input rejected by {scheme} scheme")
            }
            WireError::LayoutMismatch { layout_total, params } => {
                write!(f, "layout sums to {layout_total}, expected {params}")
            }
            WireError::GlobalMismatch { global, params } => {
                write!(f, "delta coding: global dim {global} != update dim {params}")
            }
            WireError::BadIndices { detail } => write!(f, "bad top-k indices: {detail}"),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} unconsumed payload bytes before CRC")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> WireError {
        WireError::Frame(e)
    }
}

/// A decoded v2 frame.
#[derive(Debug, Clone, PartialEq)]
pub struct WireFrame {
    /// Reconstructed flat model parameters (delta already re-applied).
    pub params: Vec<f32>,
    /// Inference loss, when the frame carried one.
    pub inference_loss: Option<f32>,
    /// Scheme the frame was encoded with.
    pub scheme: Scheme,
    /// Whether the frame was delta-vs-global encoded.
    pub delta: bool,
}

/// A compression scheme that can frame a flat update for the uplink.
///
/// Encoding takes the current `global` model so delta-vs-global schemes
/// can subtract it; non-delta schemes ignore it. Decoding is a free
/// function ([`decode`]) because v2 frames are self-describing.
pub trait WireCodec: Send + Sync {
    /// Scheme tag this codec writes.
    fn scheme(&self) -> Scheme;

    /// Whether frames are delta-vs-global encoded.
    fn is_delta(&self) -> bool;

    /// Deterministic encoded frame size in bytes for a `dim`-parameter
    /// update — what the delivery stage bills a timed-out upload.
    fn encoded_len(&self, dim: usize, with_loss: bool) -> usize;

    /// Encode `params` (and optional loss) into a self-describing frame.
    fn encode(&self, params: &[f32], loss: Option<f32>, global: &[f32]) -> WireResult<Vec<u8>>;
}

/// Parsed codec configuration: which [`WireCodec`] to build, from a CLI
/// string or an experiment spec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CodecSpec {
    /// f32 scheme, no delta: byte-for-byte the update, framed.
    Identity,
    /// f32 scheme with bitwise delta-vs-global (lossless).
    Delta,
    /// Per-tensor affine int8.
    Int8 {
        /// Encode `params - global` instead of `params`.
        delta: bool,
    },
    /// Binary16 wire format.
    F16 {
        /// Encode `params - global` instead of `params`.
        delta: bool,
    },
    /// Top-k magnitude sparsification.
    TopK {
        /// Fraction of coordinates kept, in (0, 1]; `k = ceil(ratio·dim)`,
        /// clamped to `[1, dim]`.
        ratio: f32,
        /// Encode `params - global` instead of `params`.
        delta: bool,
    },
}

impl CodecSpec {
    /// Parse a spec string: `identity`, `delta`, `int8`, `f16`,
    /// `topk:<ratio>`, each (except the first two) optionally suffixed
    /// with `+delta` — e.g. `int8+delta`, `topk:0.1+delta`.
    pub fn parse(s: &str) -> Option<CodecSpec> {
        let (base, delta) = match s.strip_suffix("+delta") {
            Some(b) => (b, true),
            None => (s, false),
        };
        match base {
            "identity" if !delta => Some(CodecSpec::Identity),
            "delta" if !delta => Some(CodecSpec::Delta),
            "int8" => Some(CodecSpec::Int8 { delta }),
            "f16" => Some(CodecSpec::F16 { delta }),
            _ => base
                .strip_prefix("topk:")?
                .parse::<f32>()
                .ok()
                .filter(|r| r.is_finite() && *r > 0.0 && *r <= 1.0)
                .map(|ratio| CodecSpec::TopK { ratio, delta }),
        }
    }

    /// Canonical spec string ([`parse`](Self::parse)'s inverse).
    pub fn name(self) -> String {
        fn tag(base: &str, delta: bool) -> String {
            if delta {
                format!("{base}+delta")
            } else {
                base.to_string()
            }
        }
        match self {
            CodecSpec::Identity => "identity".to_string(),
            CodecSpec::Delta => "delta".to_string(),
            CodecSpec::Int8 { delta } => tag("int8", delta),
            CodecSpec::F16 { delta } => tag("f16", delta),
            CodecSpec::TopK { ratio, delta } => tag(&format!("topk:{ratio}"), delta),
        }
    }

    /// Build the codec. `layout` is the model's per-tensor partition
    /// ([`crate::Sequential::param_layout`]); only int8 uses it, and an
    /// empty layout degrades to one global segment.
    pub fn build(self, layout: &[usize]) -> Box<dyn WireCodec> {
        match self {
            CodecSpec::Identity => Box::new(F32Wire { delta: false }),
            CodecSpec::Delta => Box::new(F32Wire { delta: true }),
            CodecSpec::Int8 { delta } => Box::new(Int8Wire::new(layout, delta)),
            CodecSpec::F16 { delta } => Box::new(F16Wire { delta }),
            CodecSpec::TopK { ratio, delta } => Box::new(TopKWire { ratio, delta }),
        }
    }
}

// ------------------------------------------------------------ encode side

fn write_header(buf: &mut Vec<u8>, scheme: Scheme, delta: bool, loss: Option<f32>, count: usize) {
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    let mut flags = 0u16;
    if loss.is_some() {
        flags |= FLAG_HAS_LOSS;
    }
    if delta {
        flags |= FLAG_DELTA;
    }
    buf.extend_from_slice(&flags.to_le_bytes());
    buf.push(scheme.tag());
    buf.push(0);
    buf.extend_from_slice(&(count as u32).to_le_bytes());
    if let Some(l) = loss {
        buf.extend_from_slice(&l.to_le_bytes());
    }
}

fn finish_frame(mut buf: Vec<u8>) -> Vec<u8> {
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

fn frame_len(payload: usize, with_loss: bool) -> usize {
    WIRE_HEADER_LEN + if with_loss { 4 } else { 0 } + payload + 4
}

fn check_nonempty(params: &[f32]) -> WireResult<()> {
    if params.is_empty() {
        return Err(WireError::Empty);
    }
    Ok(())
}

fn check_global(params: &[f32], global: &[f32]) -> WireResult<()> {
    if params.len() != global.len() {
        return Err(WireError::GlobalMismatch { global: global.len(), params: params.len() });
    }
    Ok(())
}

/// `params - global` elementwise; the arithmetic delta the lossy schemes
/// compress (the f32 scheme uses the exactly-invertible bitwise delta
/// instead).
fn arithmetic_delta(params: &[f32], global: &[f32]) -> Vec<f32> {
    params.iter().zip(global).map(|(p, g)| p - g).collect()
}

/// Full-precision f32 scheme: identity framing, or lossless bitwise delta.
#[derive(Debug, Clone, Copy)]
pub struct F32Wire {
    /// Encode `wrapping_sub` bit deltas against the global model.
    pub delta: bool,
}

impl WireCodec for F32Wire {
    fn scheme(&self) -> Scheme {
        Scheme::F32
    }

    fn is_delta(&self) -> bool {
        self.delta
    }

    fn encoded_len(&self, dim: usize, with_loss: bool) -> usize {
        frame_len(4 * dim, with_loss)
    }

    fn encode(&self, params: &[f32], loss: Option<f32>, global: &[f32]) -> WireResult<Vec<u8>> {
        check_nonempty(params)?;
        let mut buf = Vec::with_capacity(self.encoded_len(params.len(), loss.is_some()));
        write_header(&mut buf, Scheme::F32, self.delta, loss, params.len());
        if self.delta {
            check_global(params, global)?;
            for (p, g) in params.iter().zip(global) {
                buf.extend_from_slice(&p.to_bits().wrapping_sub(g.to_bits()).to_le_bytes());
            }
        } else {
            for p in params {
                buf.extend_from_slice(&p.to_bits().to_le_bytes());
            }
        }
        Ok(finish_frame(buf))
    }
}

/// Per-tensor affine int8 scheme.
#[derive(Debug, Clone)]
pub struct Int8Wire {
    layout: Vec<usize>,
    delta: bool,
}

impl Int8Wire {
    /// Build from a model's per-tensor partition (zero-length segments are
    /// dropped; an empty layout means one global segment).
    pub fn new(layout: &[usize], delta: bool) -> Int8Wire {
        Int8Wire { layout: layout.iter().copied().filter(|&n| n > 0).collect(), delta }
    }

    /// The partition actually used for a `dim`-parameter vector.
    fn effective_layout(&self, dim: usize) -> Vec<usize> {
        if self.layout.is_empty() || self.layout.iter().sum::<usize>() != dim {
            vec![dim]
        } else {
            self.layout.clone()
        }
    }
}

impl WireCodec for Int8Wire {
    fn scheme(&self) -> Scheme {
        Scheme::Int8
    }

    fn is_delta(&self) -> bool {
        self.delta
    }

    fn encoded_len(&self, dim: usize, with_loss: bool) -> usize {
        let layout = self.effective_layout(dim);
        frame_len(4 + layout.iter().map(|len| 12 + len).sum::<usize>(), with_loss)
    }

    fn encode(&self, params: &[f32], loss: Option<f32>, global: &[f32]) -> WireResult<Vec<u8>> {
        check_nonempty(params)?;
        let delta_buf;
        let src: &[f32] = if self.delta {
            check_global(params, global)?;
            delta_buf = arithmetic_delta(params, global);
            &delta_buf
        } else {
            params
        };
        if src.iter().any(|v| !v.is_finite()) {
            return Err(WireError::NonFinite { scheme: "int8" });
        }
        if !self.layout.is_empty() && self.layout.iter().sum::<usize>() != src.len() {
            return Err(WireError::LayoutMismatch {
                layout_total: self.layout.iter().sum(),
                params: src.len(),
            });
        }
        let layout = self.effective_layout(src.len());
        let q = quant::quantize_per_tensor(src, &layout)
            .map_err(|_| WireError::NonFinite { scheme: "int8" })?;
        let mut buf = Vec::with_capacity(self.encoded_len(params.len(), loss.is_some()));
        write_header(&mut buf, Scheme::Int8, self.delta, loss, params.len());
        buf.extend_from_slice(&(q.tensors.len() as u32).to_le_bytes());
        for t in &q.tensors {
            buf.extend_from_slice(&(t.data.len() as u32).to_le_bytes());
            buf.extend_from_slice(&t.min.to_le_bytes());
            buf.extend_from_slice(&t.scale.to_le_bytes());
            buf.extend_from_slice(&t.data);
        }
        Ok(finish_frame(buf))
    }
}

/// Binary16 wire scheme.
#[derive(Debug, Clone, Copy)]
pub struct F16Wire {
    /// Encode the arithmetic delta against the global model.
    pub delta: bool,
}

impl WireCodec for F16Wire {
    fn scheme(&self) -> Scheme {
        Scheme::F16
    }

    fn is_delta(&self) -> bool {
        self.delta
    }

    fn encoded_len(&self, dim: usize, with_loss: bool) -> usize {
        frame_len(2 * dim, with_loss)
    }

    fn encode(&self, params: &[f32], loss: Option<f32>, global: &[f32]) -> WireResult<Vec<u8>> {
        check_nonempty(params)?;
        let delta_buf;
        let src: &[f32] = if self.delta {
            check_global(params, global)?;
            delta_buf = arithmetic_delta(params, global);
            &delta_buf
        } else {
            params
        };
        let mut buf = Vec::with_capacity(self.encoded_len(params.len(), loss.is_some()));
        write_header(&mut buf, Scheme::F16, self.delta, loss, params.len());
        for v in src {
            buf.extend_from_slice(&F16::from_f32(*v).0.to_le_bytes());
        }
        Ok(finish_frame(buf))
    }
}

/// Top-k magnitude sparsification scheme.
#[derive(Debug, Clone, Copy)]
pub struct TopKWire {
    /// Fraction of coordinates kept, in (0, 1].
    pub ratio: f32,
    /// Sparsify the arithmetic delta instead of the raw parameters.
    pub delta: bool,
}

impl TopKWire {
    /// Number of coordinates kept for a `dim`-parameter vector:
    /// `ceil(ratio·dim)` clamped to `[1, dim]` (0 for an empty vector).
    /// The product is shaved by one part in a million before the ceil so
    /// the f32 ratio's representation error (e.g. `0.3f32` widening to
    /// `0.30000001`) cannot overshoot an exact multiple.
    pub fn keep(&self, dim: usize) -> usize {
        if dim == 0 {
            return 0;
        }
        let k = (f64::from(self.ratio) * dim as f64 * (1.0 - 1e-6)).ceil() as usize;
        k.clamp(1, dim)
    }
}

impl WireCodec for TopKWire {
    fn scheme(&self) -> Scheme {
        Scheme::TopK
    }

    fn is_delta(&self) -> bool {
        self.delta
    }

    fn encoded_len(&self, dim: usize, with_loss: bool) -> usize {
        frame_len(4 + 8 * self.keep(dim), with_loss)
    }

    fn encode(&self, params: &[f32], loss: Option<f32>, global: &[f32]) -> WireResult<Vec<u8>> {
        check_nonempty(params)?;
        let delta_buf;
        let src: &[f32] = if self.delta {
            check_global(params, global)?;
            delta_buf = arithmetic_delta(params, global);
            &delta_buf
        } else {
            params
        };
        let k = self.keep(src.len());
        // The documented deterministic selection order: |x| descending
        // under `total_cmp`, ties broken by the lower index. NaN sorts
        // above +Inf in the IEEE total order, so poisoned coordinates are
        // always kept (and stay visible downstream) rather than dropped.
        let mut keyed: Vec<(f32, u32)> = src.iter().copied().zip(0u32..).collect();
        keyed.sort_unstable_by(|a, b| b.0.abs().total_cmp(&a.0.abs()).then(a.1.cmp(&b.1)));
        keyed.truncate(k);
        keyed.sort_unstable_by_key(|&(_, i)| i);
        let mut buf = Vec::with_capacity(self.encoded_len(params.len(), loss.is_some()));
        write_header(&mut buf, Scheme::TopK, self.delta, loss, params.len());
        buf.extend_from_slice(&(k as u32).to_le_bytes());
        for &(_, i) in &keyed {
            buf.extend_from_slice(&i.to_le_bytes());
        }
        for &(v, _) in &keyed {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        Ok(finish_frame(buf))
    }
}

/// The reflected CRC-32 (IEEE 802.3) polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables: `CRC_TABLES[0][b]` is the CRC register after
/// shifting byte `b` through eight polynomial steps, and
/// `CRC_TABLES[s][b]` advances that result by `s` further zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut s = 1;
    while s < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[s - 1][b];
            t[s][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        s += 1;
    }
    t
}

/// Entry `byte` of a 256-entry table; a `u8` index is always in range.
#[inline(always)]
fn lut(table: &[u32; 256], byte: u8) -> u32 {
    table.get(usize::from(byte)).copied().unwrap_or(0)
}

/// CRC-32 (IEEE 802.3, reflected), table-driven slicing-by-8: eight bytes
/// per step through `CRC_TABLES`, the tail a byte at a time. The value is
/// the bitwise definition's, so frames are unchanged.
pub fn crc32(data: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC_TABLES;
    let mut crc: u32 = 0xFFFF_FFFF;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        if let &[b0, b1, b2, b3, b4, b5, b6, b7] = word {
            let [x0, x1, x2, x3] = (crc ^ u32::from_le_bytes([b0, b1, b2, b3])).to_le_bytes();
            crc = lut(t7, x0)
                ^ lut(t6, x1)
                ^ lut(t5, x2)
                ^ lut(t4, x3)
                ^ lut(t3, b4)
                ^ lut(t2, b5)
                ^ lut(t1, b6)
                ^ lut(t0, b7);
        }
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ lut(t0, crc as u8 ^ byte);
    }
    !crc
}

// ------------------------------------------------------------ decode side

/// Bounds-checked little-endian reader over a frame body; every read
/// returns [`CodecError::Truncated`] instead of panicking, keeping the
/// decode path free of the round-loop panic lint.
struct Reader<'a> {
    data: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> WireResult<&'a [u8]> {
        match (self.data.get(..n), self.data.get(n..)) {
            (Some(head), Some(tail)) => {
                self.data = tail;
                Ok(head)
            }
            _ => Err(WireError::Frame(CodecError::Truncated { needed: n, got: self.data.len() })),
        }
    }

    fn u8(&mut self) -> WireResult<u8> {
        Ok(self.take(1)?.first().copied().unwrap_or(0))
    }

    fn u16(&mut self) -> WireResult<u16> {
        let mut a = [0u8; 2];
        a.iter_mut().zip(self.take(2)?).for_each(|(d, s)| *d = *s);
        Ok(u16::from_le_bytes(a))
    }

    fn u32(&mut self) -> WireResult<u32> {
        let mut a = [0u8; 4];
        a.iter_mut().zip(self.take(4)?).for_each(|(d, s)| *d = *s);
        Ok(u32::from_le_bytes(a))
    }

    fn f32(&mut self) -> WireResult<f32> {
        Ok(f32::from_bits(self.u32()?))
    }
}

/// Decode a self-describing v2 frame. `global` is the model the frame was
/// (possibly) delta-encoded against; non-delta frames ignore it.
pub fn decode(frame: &[u8], global: &[f32]) -> WireResult<WireFrame> {
    // CRC first: reject corruption before parsing.
    let Some(body_len) = frame.len().checked_sub(4) else {
        return Err(WireError::Frame(CodecError::Truncated {
            needed: WIRE_HEADER_LEN + 4,
            got: frame.len(),
        }));
    };
    let (Some(body), Some(crc_bytes)) = (frame.get(..body_len), frame.get(body_len..)) else {
        return Err(WireError::Frame(CodecError::Truncated {
            needed: WIRE_HEADER_LEN + 4,
            got: frame.len(),
        }));
    };
    let stored = {
        let mut a = [0u8; 4];
        a.iter_mut().zip(crc_bytes).for_each(|(d, s)| *d = *s);
        u32::from_le_bytes(a)
    };
    let computed = crc32(body);
    if computed != stored {
        return Err(WireError::Frame(CodecError::BadChecksum { computed, stored }));
    }

    let mut r = Reader { data: body };
    let magic = r.u32()?;
    if magic != MAGIC {
        return Err(WireError::Frame(CodecError::BadMagic(magic)));
    }
    let version = r.u16()?;
    if version != WIRE_VERSION {
        return Err(WireError::Frame(CodecError::BadVersion(version)));
    }
    let flags = r.u16()?;
    let scheme_tag = r.u8()?;
    let scheme = Scheme::from_tag(scheme_tag).ok_or(WireError::BadScheme(scheme_tag))?;
    let _reserved = r.u8()?;
    let count = r.u32()? as usize;
    let has_loss = flags & FLAG_HAS_LOSS != 0;
    let delta = flags & FLAG_DELTA != 0;
    let inference_loss = if has_loss { Some(r.f32()?) } else { None };
    if delta && global.len() != count {
        return Err(WireError::GlobalMismatch { global: global.len(), params: count });
    }

    let params = match scheme {
        Scheme::F32 => decode_f32(&mut r, count, delta, global)?,
        Scheme::Int8 => decode_int8(&mut r, count, delta, global)?,
        Scheme::F16 => decode_f16(&mut r, count, delta, global)?,
        Scheme::TopK => decode_topk(&mut r, count, delta, global)?,
    };
    if !r.data.is_empty() {
        return Err(WireError::TrailingBytes { extra: r.data.len() });
    }
    Ok(WireFrame { params, inference_loss, scheme, delta })
}

fn decode_f32(
    r: &mut Reader<'_>,
    count: usize,
    delta: bool,
    global: &[f32],
) -> WireResult<Vec<f32>> {
    let mut out = Vec::with_capacity(count);
    if delta {
        for g in global.iter().take(count) {
            out.push(f32::from_bits(g.to_bits().wrapping_add(r.u32()?)));
        }
    } else {
        for _ in 0..count {
            out.push(f32::from_bits(r.u32()?));
        }
    }
    Ok(out)
}

fn decode_int8(
    r: &mut Reader<'_>,
    count: usize,
    delta: bool,
    global: &[f32],
) -> WireResult<Vec<f32>> {
    let n_tensors = r.u32()? as usize;
    let mut src = Vec::with_capacity(count);
    for _ in 0..n_tensors {
        let len = r.u32()? as usize;
        if src.len() + len > count {
            return Err(WireError::LayoutMismatch { layout_total: src.len() + len, params: count });
        }
        let min = r.f32()?;
        let scale = r.f32()?;
        let data = r.take(len)?;
        src.extend(data.iter().map(|&b| min + b as f32 * scale));
    }
    if src.len() != count {
        return Err(WireError::LayoutMismatch { layout_total: src.len(), params: count });
    }
    if delta {
        Ok(src.iter().zip(global).map(|(d, g)| g + d).collect())
    } else {
        Ok(src)
    }
}

fn decode_f16(
    r: &mut Reader<'_>,
    count: usize,
    delta: bool,
    global: &[f32],
) -> WireResult<Vec<f32>> {
    let mut src = Vec::with_capacity(count);
    for _ in 0..count {
        src.push(F16(r.u16()?).to_f32());
    }
    if delta {
        Ok(src.iter().zip(global).map(|(d, g)| g + d).collect())
    } else {
        Ok(src)
    }
}

fn decode_topk(
    r: &mut Reader<'_>,
    count: usize,
    delta: bool,
    global: &[f32],
) -> WireResult<Vec<f32>> {
    let k = r.u32()? as usize;
    if k > count {
        return Err(WireError::BadIndices { detail: "k exceeds parameter count" });
    }
    let mut indices = Vec::with_capacity(k);
    let mut prev: Option<u32> = None;
    for _ in 0..k {
        let i = r.u32()?;
        if i as usize >= count {
            return Err(WireError::BadIndices { detail: "index out of range" });
        }
        if prev.is_some_and(|p| p >= i) {
            return Err(WireError::BadIndices { detail: "indices not strictly ascending" });
        }
        prev = Some(i);
        indices.push(i);
    }
    let mut out = if delta { global.to_vec() } else { vec![0.0f32; count] };
    for &i in &indices {
        let v = r.f32()?;
        if let Some(slot) = out.get_mut(i as usize) {
            if delta {
                *slot += v;
            } else {
                *slot = v;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(n: usize, seed: u64) -> Vec<f32> {
        // SplitMix64-ish fill, ±2 range.
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                ((z ^ (z >> 31)) % 4_000_001) as f32 / 1_000_000.0 - 2.0
            })
            .collect()
    }

    #[test]
    fn single_bit_flips_of_a_lenet_int8_delta_frame_are_rejected() {
        use rand::{rngs::StdRng, SeedableRng};
        let global = crate::models::lenet5(&mut StdRng::seed_from_u64(1), 10);
        let local = crate::models::lenet5(&mut StdRng::seed_from_u64(2), 10);
        let g = global.flat_params();
        let codec = CodecSpec::Int8 { delta: true }.build(&global.param_layout());
        let frame = codec.encode(&local.flat_params(), Some(0.5), &g).unwrap().to_vec();
        assert!(decode(&frame, &g).is_ok());
        // Every bit of the header and the CRC trailer, and of every fifth
        // payload byte; a sweep of all ~44 KB takes five times as long.
        let n = frame.len();
        let mut bad = frame.clone();
        let bytes = (0..n).filter(|&i| i < 64 || i + 8 >= n || i % 5 == 0);
        for byte in bytes {
            for bit in 0..8 {
                bad[byte] ^= 1 << bit;
                assert!(decode(&bad, &g).is_err(), "flip of byte {byte} bit {bit} accepted");
                bad[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn header_layout_golden_bytes() {
        let codec = F32Wire { delta: false };
        let frame = codec.encode(&[1.0f32], Some(0.5), &[]).unwrap();
        // magic "ACDF" little-endian of 0x46444341
        assert_eq!(&frame[0..4], &[0x41, 0x43, 0x44, 0x46]);
        assert_eq!(&frame[4..6], &[2, 0]); // version 2
        assert_eq!(&frame[6..8], &[1, 0]); // flags: has_loss
        assert_eq!(frame[8], 0); // scheme f32
        assert_eq!(frame[9], 0); // reserved
        assert_eq!(&frame[10..14], &[1, 0, 0, 0]); // count 1
        assert_eq!(frame.len(), codec.encoded_len(1, true));
    }

    #[test]
    fn delta_flag_and_scheme_tags_on_wire() {
        let g = vec![0.0f32; 3];
        let p = vec![1.0f32, -2.0, 3.0];
        for (codec, tag) in [
            (CodecSpec::Delta, 0u8),
            (CodecSpec::Int8 { delta: true }, 1),
            (CodecSpec::F16 { delta: true }, 2),
            (CodecSpec::TopK { ratio: 0.5, delta: true }, 3),
        ] {
            let frame = codec.build(&[]).encode(&p, None, &g).unwrap();
            assert_eq!(frame[6] & 2, 2, "delta flag for {:?}", codec);
            assert_eq!(frame[8], tag, "scheme tag for {:?}", codec);
        }
    }

    #[test]
    fn f32_round_trip_is_bit_exact_with_and_without_delta() {
        let p = fill(257, 1);
        let g = fill(257, 2);
        for delta in [false, true] {
            let codec = F32Wire { delta };
            let frame = codec.encode(&p, Some(1.25), &g).unwrap();
            assert_eq!(frame.len(), codec.encoded_len(p.len(), true));
            let out = decode(&frame, &g).unwrap();
            assert_eq!(out.inference_loss, Some(1.25));
            assert_eq!(out.delta, delta);
            for (x, y) in p.iter().zip(&out.params) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn f32_delta_is_bit_exact_even_on_nan_payloads() {
        let mut p = fill(16, 3);
        p[5] = f32::NAN;
        p[9] = f32::INFINITY;
        let g = fill(16, 4);
        let frame = F32Wire { delta: true }.encode(&p, None, &g).unwrap();
        let out = decode(&frame, &g).unwrap();
        for (x, y) in p.iter().zip(&out.params) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn int8_round_trip_within_per_tensor_bound() {
        let p = fill(300, 5);
        let codec = Int8Wire::new(&[100, 200], false);
        let frame = codec.encode(&p, None, &[]).unwrap();
        assert_eq!(frame.len(), codec.encoded_len(p.len(), false));
        let out = decode(&frame, &[]).unwrap();
        let q = quant::quantize_per_tensor(&p, &[100, 200]).unwrap();
        let bounds = quant::max_error_bound_per_tensor(&q);
        for (seg, (chunk_p, chunk_o)) in [(0usize, 100usize), (1, 200)]
            .iter()
            .zip([(0, 100), (100, 300)])
            .map(|(s, r)| (s.0, (&p[r.0..r.1], &out.params[r.0..r.1])))
        {
            let bound = bounds[seg] + 1e-6;
            for (x, y) in chunk_p.iter().zip(chunk_o) {
                assert!((x - y).abs() <= bound, "seg {seg}: {x} vs {y} (bound {bound})");
            }
        }
    }

    #[test]
    fn int8_rejects_nonfinite() {
        let codec = Int8Wire::new(&[], false);
        assert_eq!(
            codec.encode(&[1.0, f32::NAN], None, &[]),
            Err(WireError::NonFinite { scheme: "int8" })
        );
        // ...including a NaN introduced by delta subtraction.
        let codec = Int8Wire::new(&[], true);
        assert_eq!(
            codec.encode(&[f32::INFINITY, 1.0], None, &[f32::INFINITY, 0.0]),
            Err(WireError::NonFinite { scheme: "int8" })
        );
    }

    #[test]
    fn int8_layout_mismatch_rejected() {
        let codec = Int8Wire::new(&[4, 4], false);
        assert_eq!(
            codec.encode(&[0.0; 7], None, &[]),
            Err(WireError::LayoutMismatch { layout_total: 8, params: 7 })
        );
    }

    #[test]
    fn f16_round_trip_within_half_ulp() {
        let p = fill(500, 6);
        let codec = F16Wire { delta: false };
        let frame = codec.encode(&p, None, &[]).unwrap();
        assert_eq!(frame.len(), codec.encoded_len(p.len(), false));
        let out = decode(&frame, &[]).unwrap();
        for (x, y) in p.iter().zip(&out.params) {
            // RTE narrowing: relative error ≤ 2^-11 for in-range normals.
            assert!((x - y).abs() <= x.abs() * 4.8828125e-4 + 1e-7, "{x} vs {y}");
        }
    }

    #[test]
    fn f16_canonicalises_nan_but_keeps_it_nan() {
        let p = vec![f32::NAN, -f32::NAN, 1.0];
        let frame = F16Wire { delta: false }.encode(&p, None, &[]).unwrap();
        let out = decode(&frame, &[]).unwrap();
        assert!(out.params[0].is_nan());
        assert!(out.params[1].is_nan());
        assert_eq!(out.params[2], 1.0);
    }

    #[test]
    fn topk_keeps_exact_values_and_zero_fills() {
        let p = vec![0.1f32, -5.0, 0.2, 4.0, 0.05, -0.3];
        let codec = TopKWire { ratio: 0.5, delta: false };
        assert_eq!(codec.keep(6), 3);
        let frame = codec.encode(&p, None, &[]).unwrap();
        assert_eq!(frame.len(), codec.encoded_len(p.len(), false));
        let out = decode(&frame, &[]).unwrap();
        assert_eq!(out.params, vec![0.0, -5.0, 0.0, 4.0, 0.0, -0.3]);
    }

    #[test]
    fn topk_tie_break_is_total_cmp_then_lower_index() {
        // All-equal plateau: the kept set must be exactly the k lowest
        // indices, per the documented (|x| desc, index asc) total order.
        let p = vec![2.0f32; 10];
        let codec = TopKWire { ratio: 0.3, delta: false };
        let frame = codec.encode(&p, None, &[]).unwrap();
        let out = decode(&frame, &[]).unwrap();
        let kept: Vec<usize> =
            out.params.iter().enumerate().filter(|(_, v)| **v != 0.0).map(|(i, _)| i).collect();
        assert_eq!(kept, vec![0, 1, 2]);
        // ±x pairs: magnitude ties across signs resolve by index too.
        let p = vec![-3.0f32, 3.0, -3.0, 3.0];
        let frame = TopKWire { ratio: 0.5, delta: false }.encode(&p, None, &[]).unwrap();
        let out = decode(&frame, &[]).unwrap();
        assert_eq!(out.params, vec![-3.0, 3.0, 0.0, 0.0]);
    }

    #[test]
    fn topk_delta_untouched_coords_are_bit_exact_global() {
        let p = fill(40, 7);
        let g = fill(40, 8);
        let codec = TopKWire { ratio: 0.1, delta: true };
        let frame = codec.encode(&p, None, &g).unwrap();
        let out = decode(&frame, &g).unwrap();
        let changed =
            out.params.iter().zip(&g).filter(|(y, gv)| y.to_bits() != gv.to_bits()).count();
        assert!(changed <= codec.keep(40));
        assert!(changed > 0, "vacuous: no coordinate moved");
    }

    #[test]
    fn decode_rejects_corruption_and_v1_frames() {
        let codec = F16Wire { delta: false };
        let frame = codec.encode(&fill(20, 9), Some(0.1), &[]).unwrap();
        // Flip a payload byte: CRC must catch it.
        let mut bad = frame.to_vec();
        bad[WIRE_HEADER_LEN + 5] ^= 0xFF;
        assert!(matches!(decode(&bad, &[]), Err(WireError::Frame(CodecError::BadChecksum { .. }))));
        // Truncation.
        assert!(matches!(decode(&frame[..frame.len() - 6], &[]), Err(WireError::Frame(_))));
        // A version-1 frame (magic, version, flags, count, raw f32
        // params, CRC) is rejected with BadVersion, not misparsed.
        let mut v1 = MAGIC.to_le_bytes().to_vec();
        v1.extend_from_slice(&1u16.to_le_bytes());
        v1.extend_from_slice(&0u16.to_le_bytes());
        v1.extend_from_slice(&2u32.to_le_bytes());
        for p in [1.0f32, 2.0] {
            v1.extend_from_slice(&p.to_le_bytes());
        }
        let crc = crc32(&v1);
        v1.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(decode(&v1, &[]), Err(WireError::Frame(CodecError::BadVersion(1))));
        // A foreign magic is rejected as such once the CRC is repaired.
        let mut foreign = frame[..frame.len() - 4].to_vec();
        foreign[0] ^= 0x01;
        let crc = crc32(&foreign);
        foreign.extend_from_slice(&crc.to_le_bytes());
        assert!(matches!(decode(&foreign, &[]), Err(WireError::Frame(CodecError::BadMagic(_)))));
        // Unknown scheme tag.
        let mut evil = frame[..frame.len() - 4].to_vec();
        evil[8] = 9;
        let crc = crc32(&evil);
        evil.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(decode(&evil, &[]), Err(WireError::BadScheme(9)));
    }

    #[test]
    fn decode_rejects_bad_topk_indices() {
        let p = vec![1.0f32, 2.0, 3.0, 4.0];
        let frame = TopKWire { ratio: 0.5, delta: false }.encode(&p, None, &[]).unwrap();
        // Duplicate the first index: strictly-ascending check must fire.
        let mut evil = frame[..frame.len() - 4].to_vec();
        let (a, b) = (WIRE_HEADER_LEN + 4, WIRE_HEADER_LEN + 8);
        let first: Vec<u8> = evil[a..b].to_vec();
        evil[b..b + 4].copy_from_slice(&first);
        let crc = crc32(&evil);
        evil.extend_from_slice(&crc.to_le_bytes());
        assert!(matches!(decode(&evil, &[]), Err(WireError::BadIndices { .. })));
    }

    #[test]
    fn delta_requires_matching_global() {
        let p = vec![1.0f32; 4];
        let g = vec![0.0f32; 3];
        for spec in [
            CodecSpec::Delta,
            CodecSpec::Int8 { delta: true },
            CodecSpec::F16 { delta: true },
            CodecSpec::TopK { ratio: 0.5, delta: true },
        ] {
            assert_eq!(
                spec.build(&[]).encode(&p, None, &g),
                Err(WireError::GlobalMismatch { global: 3, params: 4 }),
                "{spec:?}"
            );
        }
    }

    #[test]
    fn empty_params_rejected_by_all_schemes() {
        for spec in [
            CodecSpec::Identity,
            CodecSpec::Int8 { delta: false },
            CodecSpec::F16 { delta: false },
            CodecSpec::TopK { ratio: 0.5, delta: false },
        ] {
            assert_eq!(spec.build(&[]).encode(&[], None, &[]), Err(WireError::Empty), "{spec:?}");
        }
    }

    #[test]
    fn spec_parse_round_trips() {
        for s in [
            "identity",
            "delta",
            "int8",
            "int8+delta",
            "f16",
            "f16+delta",
            "topk:0.1",
            "topk:0.25+delta",
        ] {
            let spec = CodecSpec::parse(s).unwrap();
            assert_eq!(spec.name(), s, "parse/name round trip");
        }
        assert_eq!(CodecSpec::parse("identity+delta"), None);
        assert_eq!(CodecSpec::parse("topk:0"), None);
        assert_eq!(CodecSpec::parse("topk:1.5"), None);
        assert_eq!(CodecSpec::parse("gzip"), None);
    }

    #[test]
    fn encoded_len_matches_actual_frames() {
        let p = fill(123, 10);
        let g = fill(123, 11);
        let layout = [23usize, 100];
        for spec in [
            CodecSpec::Identity,
            CodecSpec::Delta,
            CodecSpec::Int8 { delta: false },
            CodecSpec::Int8 { delta: true },
            CodecSpec::F16 { delta: false },
            CodecSpec::TopK { ratio: 0.2, delta: true },
        ] {
            let codec = spec.build(&layout);
            for with_loss in [false, true] {
                let loss = with_loss.then_some(0.7);
                let frame = codec.encode(&p, loss, &g).unwrap();
                assert_eq!(frame.len(), codec.encoded_len(p.len(), with_loss), "{spec:?}");
            }
        }
    }

    #[test]
    fn crc32_known_vector() {
        // "123456789" -> 0xCBF43926 (IEEE check value).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bitwise definition the tables are built from, kept as their
    /// oracle.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &byte in data {
            crc ^= byte as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC_POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_the_bitwise_oracle() {
        let bytes: Vec<u8> =
            (0..70_000u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        for len in 0..=64 {
            assert_eq!(crc32(&bytes[..len]), crc32_bitwise(&bytes[..len]), "len {len}");
        }
        // Large slices at every alignment, with ragged tails.
        for start in 0..8 {
            for end in [bytes.len() - 5, bytes.len() - 2, bytes.len()] {
                let s = &bytes[start..end];
                assert_eq!(crc32(s), crc32_bitwise(s), "{start}..{end}");
            }
        }
    }

    #[test]
    fn error_messages_readable() {
        let e = CodecError::Truncated { needed: 16, got: 3 };
        assert!(e.to_string().contains("truncated"));
        let e = CodecError::BadChecksum { computed: 1, stored: 2 };
        assert!(e.to_string().contains("checksum"));
    }
}
