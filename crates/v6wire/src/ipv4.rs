//! IPv4 (RFC 791) header encode/decode with header checksum.

use crate::checksum::checksum;
use crate::{be16, need, WireError, WireResult};
use std::net::Ipv4Addr;

/// IP protocol numbers shared by IPv4's `protocol` and IPv6's `next header`.
pub mod proto {
    /// ICMPv4.
    pub const ICMP: u8 = 1;
    /// TCP.
    pub const TCP: u8 = 6;
    /// UDP.
    pub const UDP: u8 = 17;
    /// ICMPv6.
    pub const ICMPV6: u8 = 58;
    /// No next header (IPv6).
    pub const NO_NEXT: u8 = 59;
}

/// A decoded IPv4 packet. Options are not modelled (the testbed never emits
/// them); a packet carrying options is still accepted and the options bytes
/// are skipped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv4Packet {
    /// Differentiated services code point + ECN byte.
    pub dscp_ecn: u8,
    /// Identification field (used by fragmentation; we carry it verbatim).
    pub identification: u16,
    /// Don't-fragment flag.
    pub dont_fragment: bool,
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol (see [`proto`]).
    pub protocol: u8,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Transport payload.
    pub payload: Vec<u8>,
}

impl Ipv4Packet {
    /// Minimum (option-less) header length.
    pub const HEADER_LEN: usize = 20;

    /// Build a packet with common defaults (TTL 64, DF set).
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, protocol: u8, payload: Vec<u8>) -> Self {
        Ipv4Packet {
            dscp_ecn: 0,
            identification: 0,
            dont_fragment: true,
            ttl: 64,
            protocol,
            src,
            dst,
            payload,
        }
    }

    /// Serialize to bytes, computing the header checksum.
    pub fn encode(&self) -> Vec<u8> {
        let total_len = (Self::HEADER_LEN + self.payload.len()) as u16;
        let mut out = Vec::with_capacity(total_len as usize);
        out.push(0x45); // version 4, IHL 5
        out.push(self.dscp_ecn);
        out.extend_from_slice(&total_len.to_be_bytes());
        out.extend_from_slice(&self.identification.to_be_bytes());
        let flags_frag: u16 = if self.dont_fragment { 0x4000 } else { 0 };
        out.extend_from_slice(&flags_frag.to_be_bytes());
        out.push(self.ttl);
        out.push(self.protocol);
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(&self.src.octets());
        out.extend_from_slice(&self.dst.octets());
        let ck = checksum(&out[..Self::HEADER_LEN]);
        out[10..12].copy_from_slice(&ck.to_be_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parse from bytes, verifying version, lengths and the header checksum.
    pub fn decode(buf: &[u8]) -> WireResult<Self> {
        need(buf, Self::HEADER_LEN, "ipv4")?;
        let version = buf[0] >> 4;
        if version != 4 {
            return Err(WireError::BadField {
                what: "ipv4-version",
                value: u64::from(version),
            });
        }
        let ihl = usize::from(buf[0] & 0x0f) * 4;
        if ihl < Self::HEADER_LEN {
            return Err(WireError::BadLength {
                what: "ipv4-ihl",
                claimed: ihl,
                actual: Self::HEADER_LEN,
            });
        }
        need(buf, ihl, "ipv4-options")?;
        let total_len = usize::from(be16(buf, 2, "ipv4")?);
        if total_len < ihl || total_len > buf.len() {
            return Err(WireError::BadLength {
                what: "ipv4-total-length",
                claimed: total_len,
                actual: buf.len(),
            });
        }
        let wire_ck = be16(buf, 10, "ipv4")?;
        let computed = {
            let mut hdr = buf[..ihl].to_vec();
            hdr[10] = 0;
            hdr[11] = 0;
            checksum(&hdr)
        };
        if wire_ck != computed {
            return Err(WireError::BadChecksum {
                what: "ipv4-header",
                found: wire_ck,
                expected: computed,
            });
        }
        let flags_frag = be16(buf, 6, "ipv4")?;
        Ok(Ipv4Packet {
            dscp_ecn: buf[1],
            identification: be16(buf, 4, "ipv4")?,
            dont_fragment: flags_frag & 0x4000 != 0,
            ttl: buf[8],
            protocol: buf[9],
            src: Ipv4Addr::new(buf[12], buf[13], buf[14], buf[15]),
            dst: Ipv4Addr::new(buf[16], buf[17], buf[18], buf[19]),
            payload: buf[ihl..total_len].to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv4Packet {
        Ipv4Packet::new(
            "192.168.12.50".parse().unwrap(),
            "23.153.8.71".parse().unwrap(),
            proto::UDP,
            vec![0xde, 0xad, 0xbe, 0xef],
        )
    }

    #[test]
    fn roundtrip() {
        let p = sample();
        assert_eq!(Ipv4Packet::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn checksum_is_verified() {
        let mut bytes = sample().encode();
        bytes[8] = bytes[8].wrapping_add(1); // corrupt TTL without fixing checksum
        assert!(matches!(
            Ipv4Packet::decode(&bytes),
            Err(WireError::BadChecksum { .. })
        ));
    }

    #[test]
    fn rejects_wrong_version() {
        let mut bytes = sample().encode();
        bytes[0] = 0x65;
        assert!(matches!(
            Ipv4Packet::decode(&bytes),
            Err(WireError::BadField { .. })
        ));
    }

    #[test]
    fn total_length_bounds_payload() {
        // Trailing Ethernet padding must be ignored.
        let p = sample();
        let mut bytes = p.encode();
        bytes.extend_from_slice(&[0u8; 10]); // pad
        let q = Ipv4Packet::decode(&bytes).unwrap();
        assert_eq!(q.payload, p.payload);
    }
}
