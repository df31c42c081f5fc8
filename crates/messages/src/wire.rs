//! Length-prefixed compact binary wire codec.
//!
//! This is the one encoding of protocol messages: it is what crosses node
//! sockets, and no message type has another. Every frame shares one outer
//! layout:
//!
//! ```text
//! [len: u32 LE]  count of bytes after the length field (= 2 + body len)
//! [version: u8]  WIRE_VERSION, bumped on any incompatible change
//! [kind: u8]     frame discriminator (KIND_*)
//! [body]         kind-specific fixed-width little-endian fields
//! ```
//!
//! All integers are little-endian and fixed-width; there is no padding and
//! no alignment, so encode→decode→encode is byte-identical by
//! construction. Decoding never panics: every malformed input maps to a
//! [`WireError`]. Block bodies do not carry the content-address — the
//! decoder recomputes it via [`Block::build`], so a frame cannot lie about
//! a block id (genesis is flagged explicitly because its reserved id 0 is
//! outside the hash image).
//!
//! The only protocol kind is [`KIND_ENVELOPE`]: a signed vote or
//! proposal. Any other kind byte is [`WireError::BadKind`] here; the node
//! runtime's control frames reuse the outer layout with kinds of their
//! own.
//!
//! ```
//! use st_crypto::Keypair;
//! use st_messages::{wire, Envelope, Payload, Vote};
//! use st_types::{BlockId, ProcessId, Round};
//! let vote = Vote::new(ProcessId::new(3), Round::new(9), BlockId::new(77));
//! let env = Envelope::sign(&Keypair::derive(ProcessId::new(3), 7), Payload::Vote(vote));
//! let bytes = wire::encode_envelope(&env);
//! assert_eq!(wire::decode_envelope(&bytes).map(|e| e.payload().clone()), Ok(Payload::Vote(vote)));
//! assert_eq!(wire::encode_envelope(&env), bytes);
//! ```

use crate::envelope::{Envelope, Payload};
use crate::types::{Propose, Vote};
use st_blocktree::Block;
use st_crypto::{Signature, VrfProof};
use st_types::{BlockId, ProcessId, Round, TxId, View};
use std::fmt;

/// Current frame format version; the first header byte after the length.
pub const WIRE_VERSION: u8 = 1;

/// Frame kind: a signed [`Envelope`], the one protocol frame.
pub const KIND_ENVELOPE: u8 = 0x04;

/// Why a frame failed to decode. Decoding is total: every input maps to
/// `Ok` or one of these — never a panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the declared structure did.
    Truncated,
    /// The declared length disagrees with the bytes actually present.
    BadLength {
        /// Byte count the length prefix promised (after the prefix).
        declared: u64,
        /// Byte count actually present after the prefix.
        actual: u64,
    },
    /// Unknown format version.
    BadVersion(u8),
    /// The frame kind is not the one the decoder expected (or is unknown).
    BadKind(u8),
    /// Well-formed header, but bytes were left over after the body.
    Trailing(u64),
    /// A field held a value outside its domain.
    Malformed(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::BadLength { declared, actual } => {
                write!(f, "length prefix declares {declared} bytes, found {actual}")
            }
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadKind(k) => write!(f, "unexpected frame kind {k:#04x}"),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes after body"),
            WireError::Malformed(what) => write!(f, "malformed field: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Bounds-checked little-endian reader over a byte slice. Public so the
/// node runtime can parse its own control-frame bodies with the same
/// primitives (and the same total, panic-free error surface).
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Asserts the body was consumed exactly.
    pub fn done(&self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(WireError::Trailing(n as u64)),
        }
    }
}

/// Wraps `body` in the versioned outer frame for `kind`. Public for the
/// node runtime's control frames, which reuse the outer layout with their
/// own kind bytes.
pub fn frame(kind: u8, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 2 + body.len());
    let len = (2 + body.len()) as u32;
    out.extend_from_slice(&len.to_le_bytes());
    out.push(WIRE_VERSION);
    out.push(kind);
    out.extend_from_slice(body);
    out
}

/// Validates the outer frame of `bytes` (length prefix, version) and
/// returns `(kind, body)`. The caller dispatches on `kind`.
pub fn split_frame(bytes: &[u8]) -> Result<(u8, &[u8]), WireError> {
    let mut r = ByteReader::new(bytes);
    let declared = r.u32()? as u64;
    let actual = r.remaining() as u64;
    if declared != actual {
        return Err(WireError::BadLength { declared, actual });
    }
    if declared < 2 {
        return Err(WireError::Truncated);
    }
    let version = r.u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let kind = r.u8()?;
    Ok((kind, &bytes[6..]))
}

// ---------------------------------------------------------------- bodies

fn put_vote(out: &mut Vec<u8>, v: &Vote) {
    out.extend_from_slice(&v.sender().as_u32().to_le_bytes());
    out.extend_from_slice(&v.round().as_u64().to_le_bytes());
    out.extend_from_slice(&v.tip().as_u64().to_le_bytes());
}

fn get_vote(r: &mut ByteReader<'_>) -> Result<Vote, WireError> {
    let sender = ProcessId::new(r.u32()?);
    let round = Round::new(r.u64()?);
    let tip = BlockId::new(r.u64()?);
    Ok(Vote::new(sender, round, tip))
}

fn put_block(out: &mut Vec<u8>, b: &Block) {
    if b.id().is_genesis() {
        out.push(1);
        return;
    }
    out.push(0);
    out.extend_from_slice(&b.parent().as_u64().to_le_bytes());
    out.extend_from_slice(&b.view().as_u64().to_le_bytes());
    out.extend_from_slice(&b.producer().as_u32().to_le_bytes());
    out.extend_from_slice(&(b.payload().len() as u32).to_le_bytes());
    for tx in b.payload() {
        out.extend_from_slice(&tx.as_u64().to_le_bytes());
    }
}

fn get_block(r: &mut ByteReader<'_>) -> Result<Block, WireError> {
    match r.u8()? {
        1 => Ok(Block::genesis()),
        0 => {
            let parent = BlockId::new(r.u64()?);
            let view = View::new(r.u64()?);
            let producer = ProcessId::new(r.u32()?);
            let count = r.u32()? as usize;
            if count > r.remaining() / 8 {
                return Err(WireError::Truncated);
            }
            let mut payload = Vec::with_capacity(count);
            for _ in 0..count {
                payload.push(TxId::new(r.u64()?));
            }
            Ok(Block::build(parent, view, producer, payload))
        }
        _ => Err(WireError::Malformed("block genesis flag")),
    }
}

fn put_propose(out: &mut Vec<u8>, p: &Propose) {
    out.extend_from_slice(&p.sender().as_u32().to_le_bytes());
    out.extend_from_slice(&p.round().as_u64().to_le_bytes());
    out.extend_from_slice(&p.view().as_u64().to_le_bytes());
    out.extend_from_slice(&p.vrf_value().to_le_bytes());
    out.extend_from_slice(&p.vrf_proof().as_wire_tag().to_le_bytes());
    put_block(out, p.block());
}

fn get_propose(r: &mut ByteReader<'_>) -> Result<Propose, WireError> {
    let sender = ProcessId::new(r.u32()?);
    let round = Round::new(r.u64()?);
    let view = View::new(r.u64()?);
    let vrf_value = r.u64()?;
    let vrf_proof = VrfProof::from_wire_tag(r.u64()?);
    let block = get_block(r)?;
    Ok(Propose::new(
        sender, round, view, block, vrf_value, vrf_proof,
    ))
}

// ---------------------------------------------------------------- frame

/// Encodes a signed [`Envelope`] frame.
pub fn encode_envelope(e: &Envelope) -> Vec<u8> {
    let mut body = Vec::new();
    match e.payload() {
        Payload::Vote(v) => {
            body.push(0);
            put_vote(&mut body, v);
        }
        Payload::Propose(p) => {
            body.push(1);
            put_propose(&mut body, p);
        }
    }
    body.extend_from_slice(&e.signature().as_wire_tag().to_le_bytes());
    frame(KIND_ENVELOPE, &body)
}

/// Decodes an [`Envelope`] frame. This reconstructs the claimed payload
/// and signature verbatim; authenticity is established separately by
/// [`Envelope::verify`].
pub fn decode_envelope(bytes: &[u8]) -> Result<Envelope, WireError> {
    let (kind, body) = split_frame(bytes)?;
    if kind != KIND_ENVELOPE {
        return Err(WireError::BadKind(kind));
    }
    let mut r = ByteReader::new(body);
    let payload = match r.u8()? {
        0 => Payload::Vote(get_vote(&mut r)?),
        1 => Payload::Propose(get_propose(&mut r)?),
        _ => return Err(WireError::Malformed("payload tag")),
    };
    let signature = Signature::from_wire_tag(r.u64()?);
    r.done()?;
    Ok(Envelope::from_wire_parts(payload, signature))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KeyDirectory;
    use st_crypto::Keypair;

    fn sample_propose(with_genesis: bool) -> Propose {
        let kp = Keypair::derive(ProcessId::new(1), 7);
        let block = if with_genesis {
            Block::genesis()
        } else {
            Block::build(
                BlockId::GENESIS,
                View::new(2),
                ProcessId::new(1),
                vec![TxId::new(4), TxId::new(9)],
            )
        };
        let (rho, proof) = kp.vrf_eval(2);
        Propose::new(
            ProcessId::new(1),
            Round::new(4),
            View::new(2),
            block,
            rho,
            proof,
        )
    }

    #[test]
    fn propose_envelope_recomputes_block_id() {
        let kp = Keypair::derive(ProcessId::new(1), 7);
        for genesis in [false, true] {
            let p = sample_propose(genesis);
            let env = Envelope::sign(&kp, Payload::Propose(p.clone()));
            let back = decode_envelope(&encode_envelope(&env)).expect("decode");
            let Payload::Propose(q) = back.payload() else {
                panic!("a propose envelope decodes to a propose");
            };
            assert_eq!(q.block().id(), p.block().id());
            assert_eq!(q.to_bytes(), p.to_bytes());
            assert_eq!(encode_envelope(&back), encode_envelope(&env));
        }
    }

    #[test]
    fn envelope_frame_still_verifies() {
        let dir = KeyDirectory::derive(3, 7);
        let kp = Keypair::derive(ProcessId::new(1), 7);
        let env = Envelope::sign(
            &kp,
            Payload::Vote(Vote::new(ProcessId::new(1), Round::new(3), BlockId::new(8))),
        );
        let back = decode_envelope(&encode_envelope(&env)).expect("decode");
        assert!(back.verify(&dir));
        assert_eq!(encode_envelope(&back), encode_envelope(&env));
    }

    #[test]
    fn tampered_envelope_fails_after_decode() {
        let dir = KeyDirectory::derive(3, 7);
        let kp = Keypair::derive(ProcessId::new(1), 7);
        let env = Envelope::sign(
            &kp,
            Payload::Vote(Vote::new(ProcessId::new(1), Round::new(3), BlockId::new(8))),
        );
        let mut bytes = encode_envelope(&env);
        // The signature is the last 8 bytes; the byte before it is the top
        // (little-endian) byte of the vote's tip. Length and version are
        // unchanged, so the frame still decodes.
        let tip_top = bytes.len() - 9;
        bytes[tip_top] ^= 1;
        let back = decode_envelope(&bytes).expect("a body-bit flip still decodes");
        assert_ne!(back.payload(), env.payload());
        assert!(!back.verify(&dir), "tampered envelope must not verify");
    }

    #[test]
    fn malformed_frames_report_errors_not_panics() {
        assert_eq!(decode_envelope(&[]), Err(WireError::Truncated));
        let kp = Keypair::derive(ProcessId::new(0), 7);
        let vote = Vote::new(ProcessId::new(0), Round::new(1), BlockId::new(2));
        let good = encode_envelope(&Envelope::sign(&kp, Payload::Vote(vote)));
        // Length prefix lies.
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            decode_envelope(&bad),
            Err(WireError::BadLength { .. })
        ));
        // Future version.
        let mut bad = good.clone();
        bad[4] = WIRE_VERSION + 1;
        assert_eq!(
            decode_envelope(&bad),
            Err(WireError::BadVersion(WIRE_VERSION + 1))
        );
        // Every kind but the envelope's is foreign: 0x01–0x03 were the
        // bare vote/propose/block frames, 0x05 the aggregate frame.
        for kind in [0x01, 0x02, 0x03, 0x05] {
            let mut bad = good.clone();
            bad[5] = kind;
            assert_eq!(decode_envelope(&bad), Err(WireError::BadKind(kind)));
        }
        // Trailing garbage inside a consistent outer frame.
        let mut bad = good.clone();
        bad.push(0);
        let len = (bad.len() - 4) as u32;
        bad[0..4].copy_from_slice(&len.to_le_bytes());
        assert_eq!(decode_envelope(&bad), Err(WireError::Trailing(1)));
    }
}
