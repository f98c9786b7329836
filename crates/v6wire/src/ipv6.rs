//! IPv6 (RFC 8200) header encode/decode.

use crate::{be16, need, WireError, WireResult};
use std::net::Ipv6Addr;

/// A decoded IPv6 packet. Extension headers other than the payload protocol
/// are not emitted by the testbed; a packet carrying one is surfaced with its
/// `next_header` so callers can decide to drop it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv6Packet {
    /// Traffic class byte.
    pub traffic_class: u8,
    /// 20-bit flow label.
    pub flow_label: u32,
    /// Next header / payload protocol (see [`crate::ipv4::proto`]).
    pub next_header: u8,
    /// Hop limit.
    pub hop_limit: u8,
    /// Source address.
    pub src: Ipv6Addr,
    /// Destination address.
    pub dst: Ipv6Addr,
    /// Transport payload.
    pub payload: Vec<u8>,
}

impl Ipv6Packet {
    /// Fixed header length.
    pub const HEADER_LEN: usize = 40;

    /// Build a packet with common defaults (hop limit 64).
    pub fn new(src: Ipv6Addr, dst: Ipv6Addr, next_header: u8, payload: Vec<u8>) -> Self {
        Ipv6Packet {
            traffic_class: 0,
            flow_label: 0,
            next_header,
            hop_limit: 64,
            src,
            dst,
            payload,
        }
    }

    /// Serialize to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::HEADER_LEN + self.payload.len());
        let vtcfl: u32 =
            (6u32 << 28) | (u32::from(self.traffic_class) << 20) | (self.flow_label & 0xfffff);
        out.extend_from_slice(&vtcfl.to_be_bytes());
        out.extend_from_slice(&(self.payload.len() as u16).to_be_bytes());
        out.push(self.next_header);
        out.push(self.hop_limit);
        out.extend_from_slice(&self.src.octets());
        out.extend_from_slice(&self.dst.octets());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parse from bytes.
    pub fn decode(buf: &[u8]) -> WireResult<Self> {
        need(buf, Self::HEADER_LEN, "ipv6")?;
        let version = buf[0] >> 4;
        if version != 6 {
            return Err(WireError::BadField {
                what: "ipv6-version",
                value: u64::from(version),
            });
        }
        let payload_len = usize::from(be16(buf, 4, "ipv6")?);
        if Self::HEADER_LEN + payload_len > buf.len() {
            return Err(WireError::BadLength {
                what: "ipv6-payload-length",
                claimed: payload_len,
                actual: buf.len() - Self::HEADER_LEN,
            });
        }
        let mut src = [0u8; 16];
        src.copy_from_slice(&buf[8..24]);
        let mut dst = [0u8; 16];
        dst.copy_from_slice(&buf[24..40]);
        Ok(Ipv6Packet {
            traffic_class: ((buf[0] & 0x0f) << 4) | (buf[1] >> 4),
            flow_label: (u32::from(buf[1] & 0x0f) << 16)
                | (u32::from(buf[2]) << 8)
                | u32::from(buf[3]),
            next_header: buf[6],
            hop_limit: buf[7],
            src: Ipv6Addr::from(src),
            dst: Ipv6Addr::from(dst),
            payload: buf[Self::HEADER_LEN..Self::HEADER_LEN + payload_len].to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv4::proto;

    fn sample() -> Ipv6Packet {
        let mut p = Ipv6Packet::new(
            "fd00:976a::9".parse().unwrap(),
            "64:ff9b::be5c:9e04".parse().unwrap(),
            proto::UDP,
            vec![1, 2, 3],
        );
        p.traffic_class = 0xb8;
        p.flow_label = 0xabcde;
        p
    }

    #[test]
    fn roundtrip() {
        let p = sample();
        assert_eq!(Ipv6Packet::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn rejects_wrong_version() {
        let mut bytes = sample().encode();
        bytes[0] = 0x45;
        assert!(matches!(
            Ipv6Packet::decode(&bytes),
            Err(WireError::BadField { .. })
        ));
    }

    #[test]
    fn payload_length_bounds_payload() {
        let p = sample();
        let mut bytes = p.encode();
        bytes.extend_from_slice(&[0u8; 6]); // link padding
        assert_eq!(Ipv6Packet::decode(&bytes).unwrap().payload, p.payload);
    }

    #[test]
    fn overlong_claim_rejected() {
        let p = sample();
        let mut bytes = p.encode();
        bytes[4] = 0xff; // claim a huge payload
        assert!(matches!(
            Ipv6Packet::decode(&bytes),
            Err(WireError::BadLength { .. })
        ));
    }
}
