//! Node-to-node control frames, sharing the outer wire layout of
//! [`st_messages::wire`] (`[len u32 LE][version u8][kind u8][body]`) with
//! a disjoint kind namespace:
//!
//! | kind   | name  | body                                   |
//! |--------|-------|----------------------------------------|
//! | `0x10` | Hello | `from: u32` — sent once per connection |
//! | `0x11` | Env   | a nested envelope frame (`0x04`)       |
//! | `0x12` | Mark  | `round: u64` — ends a round's batch    |
//!
//! A peer's stream is `Hello (Env* Mark)*`: every awake round produces
//! its envelopes followed by a trailing `Mark`, which is what the
//! receiver's round barrier waits on (see [`crate::runtime`]).

use st_messages::wire::{self, ByteReader, WireError};
use st_messages::Envelope;
use st_types::ProcessId;

/// Frame kind: connection preamble identifying the sender.
pub const KIND_HELLO: u8 = 0x10;
/// Frame kind: one protocol envelope, nested as a full envelope frame.
pub const KIND_ENV: u8 = 0x11;
/// Frame kind: end-of-round marker.
pub const KIND_MARK: u8 = 0x12;

/// A decoded control frame.
#[derive(Clone, Debug, PartialEq)]
pub enum NodeFrame {
    /// Connection preamble: the peer's process id.
    Hello {
        /// The connecting node.
        from: ProcessId,
    },
    /// One protocol envelope of the current round's batch.
    Env(Envelope),
    /// End of the sender's round `round`.
    Mark {
        /// The completed round.
        round: u64,
    },
}

/// Encodes a control frame.
pub fn encode_frame(f: &NodeFrame) -> Vec<u8> {
    match f {
        NodeFrame::Hello { from } => wire::frame(KIND_HELLO, &from.as_u32().to_le_bytes()),
        NodeFrame::Env(env) => wire::frame(KIND_ENV, &wire::encode_envelope(env)),
        NodeFrame::Mark { round } => wire::frame(KIND_MARK, &round.to_le_bytes()),
    }
}

/// Decodes a control frame from one full frame's bytes (length prefix
/// included).
pub fn decode_frame(bytes: &[u8]) -> Result<NodeFrame, WireError> {
    let (kind, body) = wire::split_frame(bytes)?;
    match kind {
        KIND_HELLO => {
            let mut r = ByteReader::new(body);
            let from = ProcessId::new(r.u32()?);
            r.done()?;
            Ok(NodeFrame::Hello { from })
        }
        KIND_ENV => Ok(NodeFrame::Env(wire::decode_envelope(body)?)),
        KIND_MARK => {
            let mut r = ByteReader::new(body);
            let round = r.u64()?;
            r.done()?;
            Ok(NodeFrame::Mark { round })
        }
        other => Err(WireError::BadKind(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_crypto::Keypair;
    use st_messages::{Payload, Vote};
    use st_types::{BlockId, Round};

    #[test]
    fn control_frames_round_trip() {
        let kp = Keypair::derive(ProcessId::new(2), 7);
        let env = Envelope::sign(
            &kp,
            Payload::Vote(Vote::new(ProcessId::new(2), Round::new(5), BlockId::new(9))),
        );
        for f in [
            NodeFrame::Hello {
                from: ProcessId::new(3),
            },
            NodeFrame::Env(env),
            NodeFrame::Mark { round: 41 },
        ] {
            let bytes = encode_frame(&f);
            assert_eq!(decode_frame(&bytes), Ok(f));
            // Re-encode is byte-identical, like every other frame type.
            assert_eq!(encode_frame(&decode_frame(&bytes).unwrap()), bytes);
        }
    }

    #[test]
    fn protocol_kinds_are_rejected_at_the_control_layer() {
        // The envelope is the only protocol kind; 0x01–0x03 were the bare
        // vote/propose/block frames and 0x05 the aggregate frame. None is a
        // protocol frame, and none is a control frame either.
        let kp = Keypair::derive(ProcessId::new(0), 7);
        let vote = Vote::new(ProcessId::new(0), Round::new(1), BlockId::new(2));
        let body = wire::encode_envelope(&Envelope::sign(&kp, Payload::Vote(vote)));
        let body = &body[6..];
        for kind in [0x01, 0x02, 0x03, 0x05] {
            let bytes = wire::frame(kind, body);
            assert_eq!(wire::decode_envelope(&bytes), Err(WireError::BadKind(kind)));
            assert_eq!(decode_frame(&bytes), Err(WireError::BadKind(kind)));
        }
        // The envelope frame itself is protocol, not control.
        let env = wire::frame(wire::KIND_ENVELOPE, body);
        assert!(wire::decode_envelope(&env).is_ok());
        assert_eq!(
            decode_frame(&env),
            Err(WireError::BadKind(wire::KIND_ENVELOPE))
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Totality: arbitrary bytes give a value or a `WireError` from
        /// every decoder a socket's bytes reach, never a panic.
        #[test]
        fn random_garbage_never_panics_the_decoders(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..64),
        ) {
            let _ = wire::split_frame(&bytes);
            let _ = wire::decode_envelope(&bytes);
            let _ = decode_frame(&bytes);
        }
    }
}
