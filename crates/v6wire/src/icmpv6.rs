//! ICMPv6 (RFC 4443) envelope: echo, destination-unreachable, and the four
//! NDP messages from [`crate::ndp`]. The ICMPv6 checksum covers the IPv6
//! pseudo-header, so encode/decode take the source and destination addresses.

use crate::checksum::pseudo_v6;
use crate::ndp::{
    NdpOption, NeighborAdvertisement, NeighborSolicitation, RouterAdvertisement, RouterSolicitation,
};
use crate::{be16, be32, need, WireError, WireResult};
use std::net::Ipv6Addr;

/// A decoded ICMPv6 message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Icmpv6Message {
    /// Type 1: destination unreachable.
    DestinationUnreachable {
        /// Code (0 no-route, 3 address-unreachable, 4 port-unreachable...).
        code: u8,
        /// As much of the invoking packet as fits.
        invoking: Vec<u8>,
    },
    /// Type 128: echo request.
    EchoRequest {
        /// Identifier.
        ident: u16,
        /// Sequence.
        seq: u16,
        /// Payload.
        payload: Vec<u8>,
    },
    /// Type 129: echo reply.
    EchoReply {
        /// Identifier.
        ident: u16,
        /// Sequence.
        seq: u16,
        /// Payload.
        payload: Vec<u8>,
    },
    /// Type 133: router solicitation.
    RouterSolicitation(RouterSolicitation),
    /// Type 134: router advertisement.
    RouterAdvertisement(RouterAdvertisement),
    /// Type 135: neighbor solicitation.
    NeighborSolicitation(NeighborSolicitation),
    /// Type 136: neighbor advertisement.
    NeighborAdvertisement(NeighborAdvertisement),
}

impl Icmpv6Message {
    /// Serialize with the pseudo-header checksum for `src`→`dst`.
    pub fn encode(&self, src: Ipv6Addr, dst: Ipv6Addr) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out, src, dst);
        out
    }

    /// Append the wire form, checksummed for `src`→`dst`, to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>, src: Ipv6Addr, dst: Ipv6Addr) {
        let start = out.len();
        match self {
            Icmpv6Message::DestinationUnreachable { code, invoking } => {
                out.extend_from_slice(&[1, *code, 0, 0, 0, 0, 0, 0]);
                out.extend_from_slice(invoking);
            }
            Icmpv6Message::EchoRequest {
                ident,
                seq,
                payload,
            } => {
                out.extend_from_slice(&[128, 0, 0, 0]);
                out.extend_from_slice(&ident.to_be_bytes());
                out.extend_from_slice(&seq.to_be_bytes());
                out.extend_from_slice(payload);
            }
            Icmpv6Message::EchoReply {
                ident,
                seq,
                payload,
            } => {
                out.extend_from_slice(&[129, 0, 0, 0]);
                out.extend_from_slice(&ident.to_be_bytes());
                out.extend_from_slice(&seq.to_be_bytes());
                out.extend_from_slice(payload);
            }
            Icmpv6Message::RouterSolicitation(rs) => {
                out.extend_from_slice(&[133, 0, 0, 0, 0, 0, 0, 0]);
                for opt in &rs.options {
                    opt.encode(out);
                }
            }
            Icmpv6Message::RouterAdvertisement(ra) => {
                out.extend_from_slice(&[134, 0, 0, 0]);
                ra.encode_body(out);
            }
            Icmpv6Message::NeighborSolicitation(ns) => {
                out.extend_from_slice(&[135, 0, 0, 0, 0, 0, 0, 0]);
                out.extend_from_slice(&ns.target.octets());
                for opt in &ns.options {
                    opt.encode(out);
                }
            }
            Icmpv6Message::NeighborAdvertisement(na) => {
                out.extend_from_slice(&[136, 0, 0, 0]);
                let mut flags = 0u8;
                if na.router {
                    flags |= 0x80;
                }
                if na.solicited {
                    flags |= 0x40;
                }
                if na.override_flag {
                    flags |= 0x20;
                }
                out.push(flags);
                out.extend_from_slice(&[0, 0, 0]);
                out.extend_from_slice(&na.target.octets());
                for opt in &na.options {
                    opt.encode(out);
                }
            }
        }
        let len = out.len() - start;
        let mut ck = pseudo_v6(src, dst, crate::ipv4::proto::ICMPV6, len as u32);
        ck.push(&out[start..]);
        let sum = ck.finish();
        out[start + 2..start + 4].copy_from_slice(&sum.to_be_bytes());
    }

    /// True for the four NDP messages, which RFC 4861 §7.1 requires to
    /// travel with hop limit 255.
    pub fn is_ndp(&self) -> bool {
        matches!(
            self,
            Icmpv6Message::RouterSolicitation(_)
                | Icmpv6Message::RouterAdvertisement(_)
                | Icmpv6Message::NeighborSolicitation(_)
                | Icmpv6Message::NeighborAdvertisement(_)
        )
    }

    /// Parse and verify against the pseudo-header for `src`→`dst`.
    pub fn decode(buf: &[u8], src: Ipv6Addr, dst: Ipv6Addr) -> WireResult<Self> {
        need(buf, 4, "icmpv6")?;
        let mut ck = pseudo_v6(src, dst, crate::ipv4::proto::ICMPV6, buf.len() as u32);
        ck.push(buf);
        if ck.finish() != 0 {
            let mut zeroed = buf.to_vec();
            zeroed[2] = 0;
            zeroed[3] = 0;
            let mut again = pseudo_v6(src, dst, crate::ipv4::proto::ICMPV6, buf.len() as u32);
            again.push(&zeroed);
            return Err(WireError::BadChecksum {
                what: "icmpv6",
                found: be16(buf, 2, "icmpv6")?,
                expected: again.finish(),
            });
        }
        let read_target = |off: usize| -> WireResult<Ipv6Addr> {
            need(buf, off + 16, "icmpv6-target")?;
            let mut a = [0u8; 16];
            a.copy_from_slice(&buf[off..off + 16]);
            Ok(Ipv6Addr::from(a))
        };
        match buf[0] {
            1 => {
                need(buf, 8, "icmpv6-unreach")?;
                Ok(Icmpv6Message::DestinationUnreachable {
                    code: buf[1],
                    invoking: buf[8..].to_vec(),
                })
            }
            128 | 129 => {
                need(buf, 8, "icmpv6-echo")?;
                let ident = be16(buf, 4, "icmpv6-echo")?;
                let seq = be16(buf, 6, "icmpv6-echo")?;
                let payload = buf[8..].to_vec();
                if buf[0] == 128 {
                    Ok(Icmpv6Message::EchoRequest {
                        ident,
                        seq,
                        payload,
                    })
                } else {
                    Ok(Icmpv6Message::EchoReply {
                        ident,
                        seq,
                        payload,
                    })
                }
            }
            133 => {
                need(buf, 8, "icmpv6-rs")?;
                Ok(Icmpv6Message::RouterSolicitation(RouterSolicitation {
                    options: NdpOption::decode_all(&buf[8..])?,
                }))
            }
            134 => Ok(Icmpv6Message::RouterAdvertisement(
                RouterAdvertisement::decode_body(&buf[4..])?,
            )),
            135 => {
                need(buf, 24, "icmpv6-ns")?;
                Ok(Icmpv6Message::NeighborSolicitation(NeighborSolicitation {
                    target: read_target(8)?,
                    options: NdpOption::decode_all(&buf[24..])?,
                }))
            }
            136 => {
                need(buf, 24, "icmpv6-na")?;
                // Re-read the reserved word to keep decode strictness honest.
                let _reserved = be32(buf, 4, "icmpv6-na")? & 0x1fff_ffff;
                Ok(Icmpv6Message::NeighborAdvertisement(
                    NeighborAdvertisement {
                        router: buf[4] & 0x80 != 0,
                        solicited: buf[4] & 0x40 != 0,
                        override_flag: buf[4] & 0x20 != 0,
                        target: read_target(8)?,
                        options: NdpOption::decode_all(&buf[24..])?,
                    },
                ))
            }
            t => Err(WireError::BadField {
                what: "icmpv6-type",
                value: u64::from(t),
            }),
        }
    }
}

/// The all-nodes link-local multicast group `ff02::1`.
pub fn all_nodes() -> Ipv6Addr {
    Ipv6Addr::new(0xff02, 0, 0, 0, 0, 0, 0, 1)
}

/// The all-routers link-local multicast group `ff02::2`.
pub fn all_routers() -> Ipv6Addr {
    Ipv6Addr::new(0xff02, 0, 0, 0, 0, 0, 0, 2)
}

/// The solicited-node multicast group for `addr` (RFC 4291 §2.7.1).
pub fn solicited_node(addr: Ipv6Addr) -> Ipv6Addr {
    let o = addr.octets();
    Ipv6Addr::new(
        0xff02,
        0,
        0,
        0,
        0,
        1,
        0xff00 | u16::from(o[13]),
        (u16::from(o[14]) << 8) | u16::from(o[15]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::MacAddr;
    use crate::ndp::RouterPreference;

    fn ll(last: u16) -> Ipv6Addr {
        format!("fe80::{last:x}").parse().unwrap()
    }

    #[test]
    fn echo_roundtrip() {
        let m = Icmpv6Message::EchoRequest {
            ident: 77,
            seq: 1,
            payload: b"ping sc24.supercomputing.org".to_vec(),
        };
        let bytes = m.encode(ll(1), "64:ff9b::be5c:9e04".parse().unwrap());
        let got =
            Icmpv6Message::decode(&bytes, ll(1), "64:ff9b::be5c:9e04".parse().unwrap()).unwrap();
        assert_eq!(got, m);
    }

    #[test]
    fn ra_full_roundtrip() {
        let mut ra = RouterAdvertisement::new(1800);
        ra.preference = RouterPreference::Low;
        ra.options.push(NdpOption::Rdnss {
            lifetime: 300,
            servers: vec!["fd00:976a::9".parse().unwrap()],
        });
        let m = Icmpv6Message::RouterAdvertisement(ra);
        let bytes = m.encode(ll(1), all_nodes());
        assert_eq!(
            Icmpv6Message::decode(&bytes, ll(1), all_nodes()).unwrap(),
            m
        );
    }

    #[test]
    fn ns_na_roundtrip() {
        let target: Ipv6Addr = "fd00:976a::9".parse().unwrap();
        let ns = Icmpv6Message::NeighborSolicitation(NeighborSolicitation {
            target,
            options: vec![NdpOption::SourceLinkLayer(MacAddr::new([2, 0, 0, 0, 0, 5]))],
        });
        let bytes = ns.encode(ll(5), solicited_node(target));
        assert_eq!(
            Icmpv6Message::decode(&bytes, ll(5), solicited_node(target)).unwrap(),
            ns
        );
        let na = Icmpv6Message::NeighborAdvertisement(NeighborAdvertisement {
            router: false,
            solicited: true,
            override_flag: true,
            target,
            options: vec![NdpOption::TargetLinkLayer(MacAddr::new([2, 0, 0, 0, 0, 9]))],
        });
        let bytes = na.encode(target, ll(5));
        assert_eq!(Icmpv6Message::decode(&bytes, target, ll(5)).unwrap(), na);
    }

    #[test]
    fn checksum_binds_addresses() {
        let m = Icmpv6Message::EchoRequest {
            ident: 1,
            seq: 1,
            payload: vec![],
        };
        let bytes = m.encode(ll(1), ll(2));
        assert!(Icmpv6Message::decode(&bytes, ll(1), ll(3)).is_err());
    }

    #[test]
    fn solicited_node_group() {
        let a: Ipv6Addr = "fd00:976a::eccc:47e6:51a9:6090".parse().unwrap();
        assert_eq!(
            solicited_node(a),
            "ff02::1:ffa9:6090".parse::<Ipv6Addr>().unwrap()
        );
    }
}
