//! SIIT — Stateless IP/ICMP Translation (RFC 7915).
//!
//! Translates one IP packet between families given the already-decided new
//! source and destination addresses (address *selection* is the caller's
//! job: NAT64 consults its BIB, CLAT applies its static prefixes).
//!
//! [`v6_to_v4`] and [`v4_to_v6`] work on owned packets: transport
//! checksums are rebuilt against the new pseudo-header by re-encoding the
//! parsed transport payload. They are the reference for the frame-level
//! [`v6_to_v4_frame`] and [`v4_to_v6_frame`] the simulated translators run,
//! which read a received frame through its views and emit the translated
//! frame in one pass (`tests/prop_xlat.rs` proves the bytes equal). ICMP
//! types are mapped per RFC 7915 §4.2/§5.2.

use std::net::{Ipv4Addr, Ipv6Addr};
use v6wire::emit::{self, Ip};
use v6wire::icmpv4::Icmpv4Message;
use v6wire::icmpv6::Icmpv6Message;
use v6wire::ipv4::{proto, Ipv4Packet};
use v6wire::ipv6::Ipv6Packet;
use v6wire::mac::MacAddr;
use v6wire::tcp::TcpSegment;
use v6wire::udp::UdpDatagram;
use v6wire::view::{Ipv4View, Ipv6View, L3View, L4View};
use v6wire::WireError;

/// Translation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XlatError {
    /// Transport protocol the translator does not carry.
    UnsupportedProtocol(u8),
    /// TTL / hop limit would reach zero.
    HopLimitExceeded,
    /// The destination is not covered by the translation prefix.
    NotInPrefix(Ipv6Addr),
    /// No NAT64 binding exists for an inbound packet.
    NoBinding,
    /// The NAT64 pool has no free ports.
    PoolExhausted,
    /// The NAT64 session table is at its configured capacity.
    TableFull,
    /// The inner transport payload failed to parse.
    Wire(WireError),
    /// An ICMP message with no defined mapping (dropped per RFC 7915).
    UntranslatableIcmp,
}

impl core::fmt::Display for XlatError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            XlatError::UnsupportedProtocol(p) => write!(f, "xlat: unsupported protocol {p}"),
            XlatError::HopLimitExceeded => write!(f, "xlat: hop limit exceeded"),
            XlatError::NotInPrefix(a) => write!(f, "xlat: {a} not in translation prefix"),
            XlatError::NoBinding => write!(f, "xlat: no NAT64 binding"),
            XlatError::PoolExhausted => write!(f, "xlat: NAT64 pool exhausted"),
            XlatError::TableFull => write!(f, "xlat: NAT64 session table full"),
            XlatError::Wire(e) => write!(f, "xlat: {e}"),
            XlatError::UntranslatableIcmp => write!(f, "xlat: untranslatable ICMP"),
        }
    }
}

impl std::error::Error for XlatError {}

impl From<WireError> for XlatError {
    fn from(e: WireError) -> Self {
        XlatError::Wire(e)
    }
}

/// Optional transport rewrite applied during translation (NAT64's port
/// mapping). `None` keeps ports/identifiers unchanged (CLAT).
pub type PortRewrite = emit::Ports;

/// Translate an IPv6 packet to IPv4 with the given new addresses.
/// Decrements the hop limit (the translator is a router).
pub fn v6_to_v4(
    pkt: &Ipv6Packet,
    new_src: Ipv4Addr,
    new_dst: Ipv4Addr,
    rewrite: PortRewrite,
) -> Result<Ipv4Packet, XlatError> {
    if pkt.hop_limit <= 1 {
        return Err(XlatError::HopLimitExceeded);
    }
    let (protocol, payload) = match pkt.next_header {
        proto::UDP => {
            let mut d = UdpDatagram::decode_v6(&pkt.payload, pkt.src, pkt.dst)?;
            apply_ports(&mut d.src_port, &mut d.dst_port, rewrite);
            (proto::UDP, d.encode_v4(new_src, new_dst))
        }
        proto::TCP => {
            let mut s = TcpSegment::decode_v6(&pkt.payload, pkt.src, pkt.dst)?;
            apply_ports(&mut s.src_port, &mut s.dst_port, rewrite);
            (proto::TCP, s.encode_v4(new_src, new_dst))
        }
        proto::ICMPV6 => {
            let m = Icmpv6Message::decode(&pkt.payload, pkt.src, pkt.dst)?;
            let v4 = icmp6_to_icmp4(&m, rewrite)?;
            (proto::ICMP, v4.encode())
        }
        other => return Err(XlatError::UnsupportedProtocol(other)),
    };
    let mut out = Ipv4Packet::new(new_src, new_dst, protocol, payload);
    out.ttl = pkt.hop_limit - 1;
    out.dscp_ecn = pkt.traffic_class;
    out.dont_fragment = true; // RFC 7915 §5.1: DF=1 when no fragmentation
    Ok(out)
}

/// Translate an IPv4 packet to IPv6 with the given new addresses.
pub fn v4_to_v6(
    pkt: &Ipv4Packet,
    new_src: Ipv6Addr,
    new_dst: Ipv6Addr,
    rewrite: PortRewrite,
) -> Result<Ipv6Packet, XlatError> {
    if pkt.ttl <= 1 {
        return Err(XlatError::HopLimitExceeded);
    }
    let (next_header, payload) = match pkt.protocol {
        proto::UDP => {
            let mut d = UdpDatagram::decode_v4(&pkt.payload, pkt.src, pkt.dst)?;
            apply_ports(&mut d.src_port, &mut d.dst_port, rewrite);
            (proto::UDP, d.encode_v6(new_src, new_dst))
        }
        proto::TCP => {
            let mut s = TcpSegment::decode_v4(&pkt.payload, pkt.src, pkt.dst)?;
            apply_ports(&mut s.src_port, &mut s.dst_port, rewrite);
            (proto::TCP, s.encode_v6(new_src, new_dst))
        }
        proto::ICMP => {
            let m = Icmpv4Message::decode(&pkt.payload)?;
            let v6 = icmp4_to_icmp6(&m, rewrite)?;
            (proto::ICMPV6, v6.encode(new_src, new_dst))
        }
        other => return Err(XlatError::UnsupportedProtocol(other)),
    };
    let mut out = Ipv6Packet::new(new_src, new_dst, next_header, payload);
    out.hop_limit = pkt.ttl - 1;
    out.traffic_class = pkt.dscp_ecn;
    Ok(out)
}

/// [`v6_to_v4`] from a received frame's views straight to the translated
/// Ethernet frame: the transport is copied once under the new header.
pub fn v6_to_v4_frame(
    dst_mac: MacAddr,
    src_mac: MacAddr,
    ip: &Ipv6View<'_>,
    l4: &L4View<'_>,
    new_src: Ipv4Addr,
    new_dst: Ipv4Addr,
    rewrite: PortRewrite,
) -> Result<Vec<u8>, XlatError> {
    if ip.hop_limit <= 1 {
        return Err(XlatError::HopLimitExceeded);
    }
    let out = Ip::V4 {
        src: new_src,
        dst: new_dst,
        ttl: ip.hop_limit - 1,
        tos: ip.traffic_class,
    };
    match l4 {
        L4View::Icmp6(m) => {
            let v4 = icmp6_to_icmp4(&m.to_message(), rewrite)?;
            Ok(emit::icmpv4(dst_mac, src_mac, out, &v4))
        }
        _ => emit::transport(dst_mac, src_mac, out, &L3View::V6(*ip), l4, rewrite)
            .ok_or(XlatError::UnsupportedProtocol(ip.next_header)),
    }
}

/// [`v4_to_v6`] from a received frame's views straight to the translated
/// Ethernet frame.
pub fn v4_to_v6_frame(
    dst_mac: MacAddr,
    src_mac: MacAddr,
    ip: &Ipv4View<'_>,
    l4: &L4View<'_>,
    new_src: Ipv6Addr,
    new_dst: Ipv6Addr,
    rewrite: PortRewrite,
) -> Result<Vec<u8>, XlatError> {
    if ip.ttl <= 1 {
        return Err(XlatError::HopLimitExceeded);
    }
    let out = Ip::V6 {
        src: new_src,
        dst: new_dst,
        hop_limit: ip.ttl - 1,
        traffic_class: ip.dscp_ecn,
    };
    match l4 {
        L4View::Icmp4(m) => {
            let v6 = icmp4_to_icmp6(&m.to_message(), rewrite)?;
            Ok(emit::icmpv6(dst_mac, src_mac, out, &v6))
        }
        _ => emit::transport(dst_mac, src_mac, out, &L3View::V4(*ip), l4, rewrite)
            .ok_or(XlatError::UnsupportedProtocol(ip.protocol)),
    }
}

fn apply_ports(src: &mut u16, dst: &mut u16, rewrite: PortRewrite) {
    if let Some(s) = rewrite.src {
        *src = s;
    }
    if let Some(d) = rewrite.dst {
        *dst = d;
    }
}

/// ICMPv6 → ICMPv4 type/code mapping (RFC 7915 §5.2).
fn icmp6_to_icmp4(m: &Icmpv6Message, rewrite: PortRewrite) -> Result<Icmpv4Message, XlatError> {
    Ok(match m {
        Icmpv6Message::EchoRequest {
            ident,
            seq,
            payload,
        } => Icmpv4Message::EchoRequest {
            ident: rewrite.src.unwrap_or(*ident),
            seq: *seq,
            payload: payload.clone(),
        },
        Icmpv6Message::EchoReply {
            ident,
            seq,
            payload,
        } => Icmpv4Message::EchoReply {
            ident: rewrite.dst.unwrap_or(*ident),
            seq: *seq,
            payload: payload.clone(),
        },
        Icmpv6Message::DestinationUnreachable { code, invoking } => {
            // RFC 7915 §5.2: v6 codes 0/2/3 → v4 host unreachable (1);
            // code 1 (admin) → 10; code 4 (port) → 3.
            let v4code = match code {
                0 | 2 | 3 => 1,
                1 => 10,
                4 => 3,
                _ => return Err(XlatError::UntranslatableIcmp),
            };
            Icmpv4Message::DestinationUnreachable {
                code: v4code,
                // The invoking-packet excerpt would itself need translation;
                // the simulator's consumers only inspect type/code.
                invoking: invoking.clone(),
            }
        }
        // NDP messages are link-local by definition and never translate.
        _ => return Err(XlatError::UntranslatableIcmp),
    })
}

/// ICMPv4 → ICMPv6 type/code mapping (RFC 7915 §4.2).
fn icmp4_to_icmp6(m: &Icmpv4Message, rewrite: PortRewrite) -> Result<Icmpv6Message, XlatError> {
    Ok(match m {
        Icmpv4Message::EchoRequest {
            ident,
            seq,
            payload,
        } => Icmpv6Message::EchoRequest {
            ident: rewrite.src.unwrap_or(*ident),
            seq: *seq,
            payload: payload.clone(),
        },
        Icmpv4Message::EchoReply {
            ident,
            seq,
            payload,
        } => Icmpv6Message::EchoReply {
            ident: rewrite.dst.unwrap_or(*ident),
            seq: *seq,
            payload: payload.clone(),
        },
        Icmpv4Message::DestinationUnreachable { code, invoking } => {
            let v6code = match code {
                0 | 1 | 5 | 6 | 7 | 8 | 11 | 12 => 0, // no route
                3 => 4,                               // port unreachable
                9 | 10 | 13 | 15 => 1,                // admin prohibited
                _ => return Err(XlatError::UntranslatableIcmp),
            };
            Icmpv6Message::DestinationUnreachable {
                code: v6code,
                invoking: invoking.clone(),
            }
        }
        Icmpv4Message::TimeExceeded { .. } => {
            // Type 11 → ICMPv6 type 3; our ICMPv6 enum models unreachable +
            // echo + NDP, so time-exceeded maps to the closest surfaced
            // diagnostic: no-route unreachable.
            Icmpv6Message::DestinationUnreachable {
                code: 0,
                invoking: Vec::new(),
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6wire::tcp::TcpFlags;

    const V6SRC: &str = "2607:fb90:9bda:a425::50";
    const V6DST: &str = "64:ff9b::be5c:9e04";
    const V4SRC: &str = "192.168.12.50";
    const V4DST: &str = "190.92.158.4";

    fn a4(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn a6(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    #[test]
    fn udp_v6_to_v4_checksum_valid() {
        let d = UdpDatagram::new(40000, 53, b"dns query".to_vec());
        let pkt = Ipv6Packet::new(
            a6(V6SRC),
            a6(V6DST),
            proto::UDP,
            d.encode_v6(a6(V6SRC), a6(V6DST)),
        );
        let out = v6_to_v4(&pkt, a4(V4SRC), a4(V4DST), PortRewrite::default()).unwrap();
        assert_eq!(out.ttl, 63, "hop limit decremented");
        let got = UdpDatagram::decode_v4(&out.payload, out.src, out.dst).unwrap();
        assert_eq!(got, d);
    }

    #[test]
    fn tcp_roundtrip_both_ways() {
        let mut seg = TcpSegment::new(50000, 80, 100, 0, TcpFlags::SYN);
        seg.mss = Some(1460);
        let pkt = Ipv4Packet::new(
            a4(V4SRC),
            a4(V4DST),
            proto::TCP,
            seg.encode_v4(a4(V4SRC), a4(V4DST)),
        );
        let v6 = v4_to_v6(&pkt, a6(V6SRC), a6(V6DST), PortRewrite::default()).unwrap();
        let back = v6_to_v4(&v6, a4(V4SRC), a4(V4DST), PortRewrite::default()).unwrap();
        let got = TcpSegment::decode_v4(&back.payload, back.src, back.dst).unwrap();
        assert_eq!(got, seg);
        assert_eq!(back.ttl, 62, "two translator hops");
    }

    #[test]
    fn port_rewrite_applied() {
        let d = UdpDatagram::new(40000, 53, vec![1]);
        let pkt = Ipv6Packet::new(
            a6(V6SRC),
            a6(V6DST),
            proto::UDP,
            d.encode_v6(a6(V6SRC), a6(V6DST)),
        );
        let out = v6_to_v4(
            &pkt,
            a4("203.0.113.1"),
            a4(V4DST),
            PortRewrite {
                src: Some(61000),
                dst: None,
            },
        )
        .unwrap();
        let got = UdpDatagram::decode_v4(&out.payload, out.src, out.dst).unwrap();
        assert_eq!(got.src_port, 61000);
        assert_eq!(got.dst_port, 53);
    }

    #[test]
    fn echo_translation_fig7_ping() {
        // Fig. 7: Windows XP pings sc24.supercomputing.org via NAT64.
        let m = Icmpv6Message::EchoRequest {
            ident: 0x1c5a,
            seq: 1,
            payload: vec![0x61; 32],
        };
        let pkt = Ipv6Packet::new(
            a6(V6SRC),
            a6(V6DST),
            proto::ICMPV6,
            m.encode(a6(V6SRC), a6(V6DST)),
        );
        let out = v6_to_v4(&pkt, a4(V4SRC), a4(V4DST), PortRewrite::default()).unwrap();
        let got = Icmpv4Message::decode(&out.payload).unwrap();
        assert!(matches!(
            got,
            Icmpv4Message::EchoRequest {
                ident: 0x1c5a,
                seq: 1,
                ..
            }
        ));
        // And the reply comes back.
        let reply = Icmpv4Message::EchoReply {
            ident: 0x1c5a,
            seq: 1,
            payload: vec![0x61; 32],
        };
        let rpkt = Ipv4Packet::new(a4(V4DST), a4(V4SRC), proto::ICMP, reply.encode());
        let back = v4_to_v6(&rpkt, a6(V6DST), a6(V6SRC), PortRewrite::default()).unwrap();
        let gotr = Icmpv6Message::decode(&back.payload, back.src, back.dst).unwrap();
        assert!(matches!(
            gotr,
            Icmpv6Message::EchoReply { ident: 0x1c5a, .. }
        ));
    }

    #[test]
    fn unreachable_code_mapping() {
        // v4 port-unreachable (3,3) → v6 (1,4).
        let m = Icmpv4Message::DestinationUnreachable {
            code: 3,
            invoking: vec![0; 28],
        };
        let pkt = Ipv4Packet::new(a4(V4DST), a4(V4SRC), proto::ICMP, m.encode());
        let out = v4_to_v6(&pkt, a6(V6DST), a6(V6SRC), PortRewrite::default()).unwrap();
        let got = Icmpv6Message::decode(&out.payload, out.src, out.dst).unwrap();
        assert!(matches!(
            got,
            Icmpv6Message::DestinationUnreachable { code: 4, .. }
        ));
        // v6 admin-prohibited (1,1) → v4 (3,10).
        let m6 = Icmpv6Message::DestinationUnreachable {
            code: 1,
            invoking: vec![],
        };
        let pkt6 = Ipv6Packet::new(
            a6(V6SRC),
            a6(V6DST),
            proto::ICMPV6,
            m6.encode(a6(V6SRC), a6(V6DST)),
        );
        let out4 = v6_to_v4(&pkt6, a4(V4SRC), a4(V4DST), PortRewrite::default()).unwrap();
        let got4 = Icmpv4Message::decode(&out4.payload).unwrap();
        assert!(matches!(
            got4,
            Icmpv4Message::DestinationUnreachable { code: 10, .. }
        ));
    }

    #[test]
    fn hop_limit_guard() {
        let d = UdpDatagram::new(1, 2, vec![]);
        let mut pkt = Ipv6Packet::new(
            a6(V6SRC),
            a6(V6DST),
            proto::UDP,
            d.encode_v6(a6(V6SRC), a6(V6DST)),
        );
        pkt.hop_limit = 1;
        assert_eq!(
            v6_to_v4(&pkt, a4(V4SRC), a4(V4DST), PortRewrite::default()),
            Err(XlatError::HopLimitExceeded)
        );
    }

    #[test]
    fn ndp_never_translates() {
        let m = Icmpv6Message::RouterSolicitation(Default::default());
        let pkt = Ipv6Packet::new(
            a6(V6SRC),
            a6(V6DST),
            proto::ICMPV6,
            m.encode(a6(V6SRC), a6(V6DST)),
        );
        assert_eq!(
            v6_to_v4(&pkt, a4(V4SRC), a4(V4DST), PortRewrite::default()),
            Err(XlatError::UntranslatableIcmp)
        );
    }

    #[test]
    fn unsupported_protocol_rejected() {
        let pkt = Ipv6Packet::new(a6(V6SRC), a6(V6DST), 132 /* SCTP */, vec![0; 12]);
        assert_eq!(
            v6_to_v4(&pkt, a4(V4SRC), a4(V4DST), PortRewrite::default()),
            Err(XlatError::UnsupportedProtocol(132))
        );
    }

    #[test]
    fn dscp_copied() {
        let d = UdpDatagram::new(1, 2, vec![]);
        let mut pkt = Ipv6Packet::new(
            a6(V6SRC),
            a6(V6DST),
            proto::UDP,
            d.encode_v6(a6(V6SRC), a6(V6DST)),
        );
        pkt.traffic_class = 0xb8; // EF
        let out = v6_to_v4(&pkt, a4(V4SRC), a4(V4DST), PortRewrite::default()).unwrap();
        assert_eq!(out.dscp_ecn, 0xb8);
    }
}
