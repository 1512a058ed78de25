//! cast-truncation fixture: narrowing `as` casts on codec/recovery
//! paths, where the workspace idiom is checked `try_from`. The fake
//! path places this at `crates/common/src/codec.rs`, inside scope.

pub fn encode(buf: &[u8], out: &mut Vec<u8>) {
    let len = buf.len() as u32; //~DENY(cast-truncation)
    out.extend_from_slice(&len.to_le_bytes());
    let short = buf.len() as u16; //~DENY(cast-truncation)
    out.extend_from_slice(&short.to_le_bytes());
}

pub fn fold_seq(seq: u64) -> u8 {
    (seq % 251) as u8 // bounded by the literal modulus: exempt
}

pub fn clamp_small(n: usize) -> u16 {
    n.min(512) as u16 // bounded by the single-token cap: exempt
}

pub fn flag_byte(slot: Option<u32>) -> u8 {
    slot.is_some() as u8 // bool cast: exempt
}

pub fn literal_tag() -> u8 {
    251 as u8 // compile-time visible: exempt
}

pub fn widen(n: u32) -> u64 {
    n as u64 // widening, not narrowing: exempt
}

pub fn float_to_index(r: u32, scale: f32) -> usize {
    (r as f32 * scale) as usize //~DENY(cast-truncation)
}

pub fn plain_index(n: u64) -> usize {
    n as usize // 64-bit to usize: not narrowing on this target, exempt
}

pub fn decode_len(hdr: &[u8; 8]) -> u32 {
    // lint:allow(cast-truncation): value is masked to 24 bits on the same line; try_from cannot see the mask
    let masked = (u64::from_le_bytes(*hdr) & 0x00ff_ffff) as u32; //~ALLOWED(cast-truncation)
    masked
}
