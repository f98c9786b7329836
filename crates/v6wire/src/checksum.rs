//! The internet checksum (RFC 1071) and the IPv4/IPv6 pseudo-headers used by
//! UDP, TCP, ICMPv4 and ICMPv6, plus the incremental-update rule (RFC 1624)
//! that the in-place NAT and SIIT rewrites rely on.
//!
//! Bulk spans are summed four bytes at a time: each big-endian `u32` word
//! is added into a `u64`, and [`Checksum::finish`] folds the carries. This
//! equals the RFC 1071 sum of 16-bit words because `2^16 ≡ 1 (mod 2^16 - 1)`,
//! and a `u64` cannot overflow before 2^32 words (16 GiB). The two-bytes-
//! per-step loop survives only as [`checksum_reference`], the differential
//! reference `tests/conformance.rs` compares against on every prefix and
//! suffix of the committed corpus and on random slices.

use std::net::{Ipv4Addr, Ipv6Addr};

/// Sum `data` (even length) as big-endian 32-bit words plus a trailing
/// 16-bit word, returning the plain (unfolded) integer sum.
#[inline(always)]
fn sum_words(data: &[u8]) -> u64 {
    debug_assert_eq!(data.len() % 2, 0);
    let mut total: u64 = 0;
    let mut words = data.chunks_exact(4);
    for w in &mut words {
        total += u64::from(u32::from_be_bytes([w[0], w[1], w[2], w[3]]));
    }
    if let [a, b] = *words.remainder() {
        total += u64::from(u16::from_be_bytes([a, b]));
    }
    total
}

/// Streaming ones'-complement checksum accumulator.
///
/// Feed arbitrary byte slices (odd lengths allowed; a trailing odd byte is
/// padded with zero exactly as RFC 1071 specifies), then call
/// [`Checksum::finish`].
#[derive(Debug, Clone, Default)]
pub struct Checksum {
    sum: u64,
    /// Pending odd byte from a previous `push` whose slice had odd length.
    pending: Option<u8>,
}

impl Checksum {
    /// A fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `data` to the running sum.
    #[inline]
    pub fn push(&mut self, data: &[u8]) {
        let mut chunks = data;
        if let Some(hi) = self.pending.take() {
            if chunks.is_empty() {
                self.pending = Some(hi);
                return;
            }
            self.sum += u64::from(u16::from_be_bytes([hi, chunks[0]]));
            chunks = &chunks[1..];
        }
        let even = chunks.len() & !1;
        let (body, tail) = chunks.split_at(even);
        self.sum += sum_words(body);
        if let [last] = tail {
            self.pending = Some(*last);
        }
    }

    /// Add a big-endian `u16` to the running sum.
    #[inline]
    pub fn push_u16(&mut self, v: u16) {
        // Word-aligned fast path; with a pending odd byte the value's
        // bytes pair across the boundary, so fall back to the slice path.
        if self.pending.is_none() {
            self.sum += u64::from(v);
        } else {
            self.push(&v.to_be_bytes());
        }
    }

    /// Add a big-endian `u32` to the running sum.
    #[inline]
    pub fn push_u32(&mut self, v: u32) {
        if self.pending.is_none() {
            self.sum += u64::from(v >> 16) + u64::from(v & 0xffff);
        } else {
            self.push(&v.to_be_bytes());
        }
    }

    /// Fold carries and return the ones'-complement of the sum.
    pub fn finish(mut self) -> u16 {
        if let Some(hi) = self.pending.take() {
            self.sum += u64::from(u16::from_be_bytes([hi, 0]));
        }
        let mut s = self.sum;
        while s >> 16 != 0 {
            s = (s & 0xffff) + (s >> 16);
        }
        !(s as u16)
    }
}

/// One-shot checksum of a byte slice.
pub fn checksum(data: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.push(data);
    c.finish()
}

/// One-shot checksum with the two-bytes-per-step RFC 1071 loop — the
/// reference the word kernel is differentially tested against, never used
/// on a hot path.
pub fn checksum_reference(data: &[u8]) -> u16 {
    let mut sum: u64 = 0;
    let mut words = data.chunks_exact(2);
    for w in &mut words {
        sum += u64::from(u16::from_be_bytes([w[0], w[1]]));
    }
    if let [last] = *words.remainder() {
        sum += u64::from(u16::from_be_bytes([last, 0]));
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// Start an accumulator pre-loaded with the IPv4 pseudo-header
/// (RFC 768 / RFC 793): src, dst, zero+protocol, upper-layer length.
pub fn pseudo_v4(src: Ipv4Addr, dst: Ipv4Addr, proto: u8, len: u16) -> Checksum {
    let mut c = Checksum::new();
    c.push(&src.octets());
    c.push(&dst.octets());
    c.push(&[0, proto]);
    c.push_u16(len);
    c
}

/// Start an accumulator pre-loaded with the IPv6 pseudo-header (RFC 8200 §8.1).
pub fn pseudo_v6(src: Ipv6Addr, dst: Ipv6Addr, next_header: u8, len: u32) -> Checksum {
    let mut c = Checksum::new();
    c.push(&src.octets());
    c.push(&dst.octets());
    c.push_u32(len);
    c.push(&[0, 0, 0, next_header]);
    c
}

/// RFC 1624 incremental checksum update: given an existing checksum `old_sum`
/// over data in which 16-bit word `old` is replaced by `new`, return the
/// updated checksum. Used by the stateless translator to adjust transport
/// checksums without touching the payload.
pub fn incremental_update(old_sum: u16, old: u16, new: u16) -> u16 {
    // HC' = ~(~HC + ~m + m')  (RFC 1624 eqn. 3)
    let mut s = u32::from(!old_sum) + u32::from(!old) + u32::from(new);
    while s >> 16 != 0 {
        s = (s & 0xffff) + (s >> 16);
    }
    !(s as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_example() {
        // RFC 1071 §3 example words: 0x0001, 0xf203, 0xf4f5, 0xf6f7 -> sum 0xddf2,
        // checksum = ~0xddf2 = 0x220d.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(checksum(&data), 0x220d);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        assert_eq!(checksum(&[0xab]), !0xab00);
        // Split across pushes in awkward places: same result.
        let mut c = Checksum::new();
        c.push(&[0x12]);
        c.push(&[0x34, 0x56]);
        c.push(&[0x78]);
        assert_eq!(c.finish(), checksum(&[0x12, 0x34, 0x56, 0x78]));
    }

    #[test]
    fn word_pushes_match_slice_pushes() {
        // Word-aligned: the u16/u32 fast paths must equal slice pushes.
        let mut a = Checksum::new();
        a.push_u16(0x1234);
        a.push_u32(0xdead_beef);
        let mut b = Checksum::new();
        b.push(&[0x12, 0x34, 0xde, 0xad, 0xbe, 0xef]);
        assert_eq!(a.finish(), b.finish());

        // Straddling a pending odd byte: bytes re-pair across the
        // boundary, exercising the fallback.
        let mut a = Checksum::new();
        a.push(&[0xab]);
        a.push_u16(0x1234);
        a.push_u32(0xdead_beef);
        a.push(&[0x99]);
        let mut b = Checksum::new();
        b.push(&[0xab, 0x12, 0x34, 0xde, 0xad, 0xbe, 0xef, 0x99]);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn split_invariance() {
        let data: Vec<u8> = (0u8..=255).collect();
        let whole = checksum(&data);
        for split in [1usize, 3, 7, 128, 255] {
            let mut c = Checksum::new();
            c.push(&data[..split]);
            c.push(&data[split..]);
            assert_eq!(c.finish(), whole, "split at {split}");
        }
    }

    #[test]
    fn word_kernel_matches_reference_on_all_lengths() {
        // Every length 0..200 with varied content, covering every
        // remainder of the 4-byte stride and odd tails.
        let data: Vec<u8> = (0..200u32)
            .map(|i| (i.wrapping_mul(37) ^ 0x5a) as u8)
            .collect();
        for len in 0..=data.len() {
            assert_eq!(
                checksum(&data[..len]),
                checksum_reference(&data[..len]),
                "len {len}"
            );
        }
    }

    #[test]
    fn word_kernel_matches_reference_on_saturating_content() {
        // All-0xff content maximizes carries out of every word.
        for len in [4096usize, 65_536 + 6, 1 << 20] {
            let data = vec![0xffu8; len];
            assert_eq!(checksum(&data), checksum_reference(&data), "len {len}");
        }
    }

    #[test]
    fn verification_of_valid_data_yields_zero_complement() {
        // A buffer containing its own correct checksum sums to 0xffff,
        // i.e. finish() == 0.
        let mut data = vec![0x45, 0x00, 0x00, 0x28, 0x1c, 0x46, 0x40, 0x00, 0x40, 0x06];
        let ck = checksum(&data);
        data.extend_from_slice(&ck.to_be_bytes());
        assert_eq!(checksum(&data), 0);
    }

    #[test]
    fn incremental_matches_full_recompute() {
        let mut data = vec![0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc];
        let before = checksum(&data);
        // Replace word at offset 2 (0x5678) with 0xcafe.
        let updated = incremental_update(before, 0x5678, 0xcafe);
        data[2] = 0xca;
        data[3] = 0xfe;
        assert_eq!(updated, checksum(&data));
    }

    #[test]
    fn pseudo_headers_differ_by_family() {
        let v4 = pseudo_v4(
            "192.0.2.1".parse().unwrap(),
            "198.51.100.2".parse().unwrap(),
            17,
            8,
        )
        .finish();
        let v6 = pseudo_v6(
            "2001:db8::1".parse().unwrap(),
            "2001:db8::2".parse().unwrap(),
            17,
            8,
        )
        .finish();
        assert_ne!(v4, v6);
    }
}
