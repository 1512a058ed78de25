//! Payload encoding: delta compression and multimedia degradation.
//!
//! Two §IV-C bandwidth levers: numeric state vectors are shipped as
//! sparse deltas against the receiver's last acknowledged state, and
//! multimedia objects degrade to lower resolutions for
//! bandwidth-constrained clients.

use mv_common::hash::FastMap;
use serde::{Deserialize, Serialize};

/// A numeric state vector (e.g. an avatar pose, a scoreboard page).
pub(crate) type StateVector = Vec<f64>;

/// Wire cost model: 8 bytes per f64 + 4 bytes per delta index + header.
const HEADER_BYTES: u64 = 16;
const VALUE_BYTES: u64 = 8;
const INDEX_BYTES: u64 = 4;

/// An encoded transmission.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
// lint:allow(dead-pub): exposed by `DeltaCodec::encode`, which other crates use
pub enum Encoded {
    /// Full snapshot of the vector.
    Full(StateVector),
    /// Sparse delta: (index, new value) pairs against the receiver state.
    Delta(Vec<(u32, f64)>),
}

impl Encoded {
    /// Bytes on the wire under the cost model.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            Encoded::Full(v) => HEADER_BYTES + VALUE_BYTES * v.len() as u64,
            Encoded::Delta(d) => HEADER_BYTES + (VALUE_BYTES + INDEX_BYTES) * d.len() as u64,
        }
    }
}

/// Per-receiver delta codec: tracks the receiver's acknowledged state and
/// chooses full vs delta per transmission (delta only when cheaper).
#[derive(Debug, Default)]
pub struct DeltaCodec {
    acked: FastMap<u64, StateVector>,
    /// Accumulated bytes if everything had been sent full.
    pub full_bytes: u64,
    /// Accumulated bytes actually sent.
    pub sent_bytes: u64,
}

impl DeltaCodec {
    /// A fresh codec.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encode the new state of `stream` for its receiver.
    pub fn encode(&mut self, stream: u64, state: &StateVector) -> Encoded {
        let full_cost = HEADER_BYTES + VALUE_BYTES * state.len() as u64;
        self.full_bytes += full_cost;
        let enc = match self.acked.get(&stream) {
            Some(prev) if prev.len() == state.len() => {
                let delta: Vec<(u32, f64)> = state
                    .iter()
                    .zip(prev.iter())
                    .enumerate()
                    .filter(|(_, (v, p))| p != v)
                    .map(|(i, (v, _))| (i as u32, *v))
                    .collect();
                let delta_enc = Encoded::Delta(delta);
                if delta_enc.wire_bytes() < full_cost {
                    delta_enc
                } else {
                    Encoded::Full(state.clone())
                }
            }
            _ => Encoded::Full(state.clone()),
        };
        self.sent_bytes += enc.wire_bytes();
        self.acked.insert(stream, state.clone());
        enc
    }

    /// Apply an encoded message to a receiver-side state copy.
    pub fn apply(state: &mut StateVector, enc: &Encoded) {
        match enc {
            Encoded::Full(v) => *state = v.clone(),
            Encoded::Delta(d) => {
                for &(i, v) in d {
                    if let Some(slot) = state.get_mut(i as usize) {
                        *slot = v;
                    }
                }
            }
        }
    }

    /// Fraction of bytes saved vs always-full (0 when nothing sent).
    pub fn savings(&self) -> f64 {
        if self.full_bytes == 0 {
            0.0
        } else {
            1.0 - self.sent_bytes as f64 / self.full_bytes as f64
        }
    }
}

/// Multimedia resolution ladder (the "low resolution image/video …
/// animation" degradation §IV-C and §IV-G describe).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum MediaResolution {
    /// Sprite/animation stand-in.
    Animation,
    /// Reduced-resolution stream.
    Low,
    /// Full-fidelity stream.
    High,
}

impl MediaResolution {
    /// Bytes per simulated second of streaming at this resolution, for a
    /// media object whose full-rate cost is `high_bps`.
    pub fn bytes_per_sec(self, high_bps: u64) -> u64 {
        match self {
            MediaResolution::High => high_bps,
            MediaResolution::Low => (high_bps / 10).max(1),
            MediaResolution::Animation => (high_bps / 100).max(1),
        }
    }

    /// Pick the best resolution whose rate fits within `budget_bps`.
    pub fn fit(high_bps: u64, budget_bps: u64) -> MediaResolution {
        for r in [MediaResolution::High, MediaResolution::Low, MediaResolution::Animation] {
            if r.bytes_per_sec(high_bps) <= budget_bps {
                return r;
            }
        }
        MediaResolution::Animation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn first_send_is_full_then_delta() {
        let mut codec = DeltaCodec::new();
        let s1 = vec![1.0, 2.0, 3.0, 4.0];
        assert!(matches!(codec.encode(1, &s1), Encoded::Full(_)));
        let mut s2 = s1.clone();
        s2[2] = 9.0;
        let enc = codec.encode(1, &s2);
        assert_eq!(enc, Encoded::Delta(vec![(2, 9.0)]));
        assert!(codec.savings() > 0.0);
    }

    #[test]
    fn full_chosen_when_delta_larger() {
        let mut codec = DeltaCodec::new();
        let s1 = vec![0.0; 4];
        codec.encode(1, &s1);
        // All four entries change: delta = 4×12 + 16 = 64 > full = 48.
        let s2 = vec![1.0, 2.0, 3.0, 4.0];
        assert!(matches!(codec.encode(1, &s2), Encoded::Full(_)));
    }

    #[test]
    fn length_change_forces_full() {
        let mut codec = DeltaCodec::new();
        codec.encode(1, &vec![1.0, 2.0]);
        assert!(matches!(codec.encode(1, &vec![1.0, 2.0, 3.0]), Encoded::Full(_)));
    }

    #[test]
    fn streams_are_independent() {
        let mut codec = DeltaCodec::new();
        codec.encode(1, &vec![1.0]);
        // A different stream's first send must be full even though stream
        // 1 already synced.
        assert!(matches!(codec.encode(2, &vec![1.0]), Encoded::Full(_)));
    }

    #[test]
    fn resolution_ladder_and_fit() {
        let high = 1_000_000u64;
        assert_eq!(MediaResolution::fit(high, 2_000_000), MediaResolution::High);
        assert_eq!(MediaResolution::fit(high, 200_000), MediaResolution::Low);
        assert_eq!(MediaResolution::fit(high, 20_000), MediaResolution::Animation);
        // Even an impossible budget yields the animation fallback.
        assert_eq!(MediaResolution::fit(high, 1), MediaResolution::Animation);
    }

    proptest! {
        #[test]
        fn prop_receiver_reconstructs_exactly(
            states in proptest::collection::vec(
                proptest::collection::vec(-100.0f64..100.0, 8), 1..20),
        ) {
            let mut codec = DeltaCodec::new();
            let mut receiver: StateVector = Vec::new();
            for s in &states {
                let enc = codec.encode(7, s);
                DeltaCodec::apply(&mut receiver, &enc);
                prop_assert_eq!(&receiver, s);
            }
            // Savings never negative: codec only picks delta when cheaper.
            prop_assert!(codec.sent_bytes <= codec.full_bytes);
        }
    }
}
