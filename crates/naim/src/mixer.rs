//! The word-wide hash behind every persisted key: the code tier's
//! `CodeKey` streams fields into it, and [`crate::ContentHash`] streams
//! payload bytes into it eight at a time.

/// A fixed two-lane multiply–xorshift mixer over 64-bit words. Keys
/// are persisted, so the function must never change with the process
/// (no `RandomState`); it takes words, not bytes, because the stream
/// is a hundred thousand small fields per build and is hashed on every
/// edit. Each lane's step is a bijection of its state for a fixed
/// word and of the word for a fixed state, so streams that differ in
/// one word never collide; the lanes use different multipliers and
/// see the word at different alignments.
#[derive(Debug)]
pub struct Mixer {
    a: u64,
    b: u64,
    words: u64,
}

impl Default for Mixer {
    fn default() -> Self {
        Self::new()
    }
}

impl Mixer {
    /// A mixer that has seen no word.
    #[must_use]
    pub fn new() -> Self {
        Mixer {
            a: 0x243F_6A88_85A3_08D3,
            b: 0x1319_8A2E_0370_7344,
            words: 0,
        }
    }

    /// Mixes in one 64-bit word.
    #[inline]
    pub fn word(&mut self, w: u64) {
        self.a = (self.a ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.a ^= self.a >> 29;
        self.b = (self.b ^ w.rotate_left(32)).wrapping_mul(0xD6E8_FEB8_6659_FD93);
        self.b ^= self.b >> 32;
        self.words += 1;
    }

    /// `tag`, an 8-bit qualifier and one 32-bit field in one word.
    #[inline]
    pub fn head(&mut self, tag: u8, sub: u8, x: u32) {
        self.word(u64::from(tag) | u64::from(sub) << 8 | u64::from(x) << 32);
    }

    /// Two 32-bit fields in one word.
    #[inline]
    pub fn pair(&mut self, x: u32, y: u32) {
        self.word(u64::from(x) | u64::from(y) << 32);
    }

    /// The 128-bit digest of every word mixed in so far.
    #[must_use]
    pub fn finish(self) -> u128 {
        // The 64-bit finalizer of MurmurHash3, applied crosswise so
        // both halves depend on both lanes.
        fn fmix(mut x: u64) -> u64 {
            x ^= x >> 33;
            x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            x ^= x >> 33;
            x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
            x ^ (x >> 33)
        }
        let lo = fmix(self.a ^ self.words);
        let hi = fmix(self.b ^ lo);
        u128::from(hi) << 64 | u128::from(lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Code-tier keys are persisted: a change to the mixer must fail
    /// here, and bump `LLO_REVISION`, before it strands every entry.
    #[test]
    fn mixer_known_answers() {
        assert_eq!(
            Mixer::new().finish(),
            0xa880_bb60_3e6b_4361_7acd_bb98_b134_4213
        );
        let mut m = Mixer::new();
        m.word(1);
        m.head(2, 3, 4);
        m.pair(5, 6);
        assert_eq!(m.finish(), 0x8e2a_fb3a_9467_db8c_2b35_8e14_f540_6c25);
    }
}
