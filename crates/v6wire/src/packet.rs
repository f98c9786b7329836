//! Layered frame parsing and building conveniences.
//!
//! [`ParsedFrame::parse`] is the owned parse down to L4, kept as the
//! reference the borrowed [`FrameView`] is differentially tested against;
//! the `build_*` helpers wrap owned transports through [`crate::emit`].

use crate::arp::ArpPacket;
use crate::emit::{self, Ip};
use crate::ethernet::{EtherType, EthernetFrame};
use crate::icmpv4::Icmpv4Message;
use crate::icmpv6::Icmpv6Message;
use crate::ipv4::{proto, Ipv4Packet};
use crate::ipv6::Ipv6Packet;
use crate::mac::MacAddr;
use crate::tcp::TcpSegment;
use crate::udp::UdpDatagram;
use crate::view::{FrameView, Icmp4View, Icmp6View, L3View, L4View, TcpView};
use crate::{WireError, WireResult};
use std::net::{Ipv4Addr, Ipv6Addr};

/// Network-layer content of a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum L3 {
    /// ARP packet.
    Arp(ArpPacket),
    /// IPv4 packet (payload retained for L4 parsing).
    V4(Ipv4Packet),
    /// IPv6 packet.
    V6(Ipv6Packet),
    /// Unrecognized ethertype, raw payload.
    Other(u16, Vec<u8>),
}

/// Transport-layer content of a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum L4 {
    /// UDP datagram.
    Udp(UdpDatagram),
    /// TCP segment.
    Tcp(TcpSegment),
    /// ICMPv4 message.
    Icmp4(Icmpv4Message),
    /// ICMPv6 message.
    Icmp6(Icmpv6Message),
    /// No transport content parsed (ARP, unknown protocol, ...).
    None,
}

/// A frame parsed through Ethernet → IP → transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedFrame {
    /// The Ethernet envelope (payload retained verbatim).
    pub eth: EthernetFrame,
    /// Network layer.
    pub l3: L3,
    /// Transport layer.
    pub l4: L4,
}

impl ParsedFrame {
    /// Parse a raw frame through all layers, verifying every checksum on the
    /// way. Unknown ethertypes and IP protocols parse to `Other`/`None`
    /// rather than erroring; genuine corruption does error.
    pub fn parse(raw: &[u8]) -> WireResult<ParsedFrame> {
        let eth = EthernetFrame::decode(raw)?;
        let (l3, l4) = match eth.ethertype {
            EtherType::Arp => (L3::Arp(ArpPacket::decode(&eth.payload)?), L4::None),
            EtherType::Ipv4 => {
                let ip = Ipv4Packet::decode(&eth.payload)?;
                let l4 = match ip.protocol {
                    proto::UDP => L4::Udp(UdpDatagram::decode_v4(&ip.payload, ip.src, ip.dst)?),
                    proto::TCP => L4::Tcp(TcpSegment::decode_v4(&ip.payload, ip.src, ip.dst)?),
                    proto::ICMP => L4::Icmp4(Icmpv4Message::decode(&ip.payload)?),
                    _ => L4::None,
                };
                (L3::V4(ip), l4)
            }
            EtherType::Ipv6 => {
                let ip = Ipv6Packet::decode(&eth.payload)?;
                let l4 = match ip.next_header {
                    proto::UDP => L4::Udp(UdpDatagram::decode_v6(&ip.payload, ip.src, ip.dst)?),
                    proto::TCP => L4::Tcp(TcpSegment::decode_v6(&ip.payload, ip.src, ip.dst)?),
                    proto::ICMPV6 => L4::Icmp6(Icmpv6Message::decode(&ip.payload, ip.src, ip.dst)?),
                    _ => L4::None,
                };
                (L3::V6(ip), l4)
            }
            EtherType::Other(v) => (L3::Other(v, eth.payload.clone()), L4::None),
        };
        Ok(ParsedFrame { eth, l3, l4 })
    }

    /// The IPv6 source, if this is an IPv6 frame.
    pub fn v6_src(&self) -> Option<Ipv6Addr> {
        match &self.l3 {
            L3::V6(p) => Some(p.src),
            _ => None,
        }
    }

    /// The IPv4 source, if this is an IPv4 frame.
    pub fn v4_src(&self) -> Option<Ipv4Addr> {
        match &self.l3 {
            L3::V4(p) => Some(p.src),
            _ => None,
        }
    }
}

// The `build_*` helpers take the owned transport types; they are thin
// adapters over the one-pass [`crate::emit`] writers for tests and tools
// that already hold an owned value.

/// Build a complete Ethernet/IPv4/UDP frame.
pub fn build_udp_v4(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    dgram: &UdpDatagram,
) -> Vec<u8> {
    emit::udp(
        dst_mac,
        src_mac,
        Ip::v4(src, dst),
        dgram.src_port,
        dgram.dst_port,
        &dgram.payload,
    )
}

/// Build a complete Ethernet/IPv6/UDP frame.
pub fn build_udp_v6(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src: Ipv6Addr,
    dst: Ipv6Addr,
    dgram: &UdpDatagram,
) -> Vec<u8> {
    emit::udp(
        dst_mac,
        src_mac,
        Ip::v6(src, dst),
        dgram.src_port,
        dgram.dst_port,
        &dgram.payload,
    )
}

/// Build a complete Ethernet/IPv4/TCP frame.
pub fn build_tcp_v4(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    seg: &TcpSegment,
) -> Vec<u8> {
    emit::tcp(dst_mac, src_mac, Ip::v4(src, dst), seg)
}

/// Build a complete Ethernet/IPv6/TCP frame.
pub fn build_tcp_v6(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src: Ipv6Addr,
    dst: Ipv6Addr,
    seg: &TcpSegment,
) -> Vec<u8> {
    emit::tcp(dst_mac, src_mac, Ip::v6(src, dst), seg)
}

/// Build a complete Ethernet/IPv6/ICMPv6 frame (hop limit 255 for NDP, as
/// RFC 4861 §7.1 requires receivers to verify).
pub fn build_icmpv6(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src: Ipv6Addr,
    dst: Ipv6Addr,
    msg: &Icmpv6Message,
) -> Vec<u8> {
    emit::icmpv6(dst_mac, src_mac, Ip::v6(src, dst), msg)
}

/// Build a complete Ethernet/IPv4/ICMPv4 frame.
pub fn build_icmpv4(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    msg: &Icmpv4Message,
) -> Vec<u8> {
    emit::icmpv4(dst_mac, src_mac, Ip::v4(src, dst), msg)
}

/// Build an Ethernet/ARP frame (broadcast for requests, unicast for replies).
pub fn build_arp(src_mac: MacAddr, dst_mac: MacAddr, arp: &ArpPacket) -> Vec<u8> {
    emit::arp(dst_mac, src_mac, arp)
}

/// One-line human-readable summary of a frame for trace tooling:
/// protocol, addresses, ports/types.
///
/// Parses through the borrowed [`FrameView`] layer, so the only allocation
/// per call is the returned `String` — this is the engine's Full-trace hot
/// path. Text is byte-identical to the historic owned-parse implementation
/// (golden traces and the conformance suite both pin it).
pub fn summarize(raw: &[u8]) -> String {
    let parsed = match FrameView::parse(raw) {
        Ok(p) => p,
        Err(_) => return format!("corrupt: {}", classify(raw)),
    };
    match (&parsed.l3, &parsed.l4) {
        (L3View::Arp(a), _) => match a.op {
            crate::arp::ArpOp::Request => format!("ARP who-has {}", a.target_ip),
            crate::arp::ArpOp::Reply => format!("ARP {} is-at {}", a.sender_ip, a.sender_mac),
        },
        (L3View::V4(ip), L4View::Udp(u)) => format!(
            "IPv4 {}:{} > {}:{} UDP{}",
            ip.src,
            u.src_port,
            ip.dst,
            u.dst_port,
            udp_hint(u.src_port, u.dst_port)
        ),
        (L3View::V6(ip), L4View::Udp(u)) => format!(
            "IPv6 [{}]:{} > [{}]:{} UDP{}",
            ip.src,
            u.src_port,
            ip.dst,
            u.dst_port,
            udp_hint(u.src_port, u.dst_port)
        ),
        (L3View::V4(ip), L4View::Tcp(t)) => format!(
            "IPv4 {}:{} > {}:{} TCP {}",
            ip.src,
            t.src_port,
            ip.dst,
            t.dst_port,
            tcp_flags(t)
        ),
        (L3View::V6(ip), L4View::Tcp(t)) => format!(
            "IPv6 [{}]:{} > [{}]:{} TCP {}",
            ip.src,
            t.src_port,
            ip.dst,
            t.dst_port,
            tcp_flags(t)
        ),
        (L3View::V4(ip), L4View::Icmp4(m)) => {
            format!("IPv4 {} > {} {}", ip.src, ip.dst, icmp4_name(m))
        }
        (L3View::V6(ip), L4View::Icmp6(m)) => {
            format!("IPv6 [{}] > [{}] {}", ip.src, ip.dst, icmp6_name(m))
        }
        (L3View::V4(ip), L4View::None) => {
            format!("IPv4 {} > {} proto {}", ip.src, ip.dst, ip.protocol)
        }
        (L3View::V6(ip), L4View::None) => {
            format!("IPv6 [{}] > [{}] nh {}", ip.src, ip.dst, ip.next_header)
        }
        (L3View::Other(et, _), _) => format!("ethertype {et:#06x}"),
        _ => "frame".to_string(),
    }
}

fn udp_hint(src_port: u16, dst_port: u16) -> &'static str {
    match (src_port, dst_port) {
        (_, 53) | (53, _) => " (DNS)",
        (68, 67) | (67, 68) => " (DHCP)",
        _ => "",
    }
}

fn tcp_flags(t: &TcpView<'_>) -> String {
    let mut f = String::new();
    if t.flags.syn {
        f.push('S');
    }
    if t.flags.fin {
        f.push('F');
    }
    if t.flags.rst {
        f.push('R');
    }
    if t.flags.psh {
        f.push('P');
    }
    if t.flags.ack {
        f.push('.');
    }
    format!("[{f}] len={}", t.payload.len())
}

fn icmp4_name(m: &Icmp4View<'_>) -> &'static str {
    match m {
        Icmp4View::EchoRequest { .. } => "ICMP echo request",
        Icmp4View::EchoReply { .. } => "ICMP echo reply",
        Icmp4View::DestinationUnreachable { .. } => "ICMP unreachable",
        Icmp4View::TimeExceeded { .. } => "ICMP time exceeded",
    }
}

fn icmp6_name(m: &Icmp6View<'_>) -> &'static str {
    match m {
        Icmp6View::EchoRequest { .. } => "ICMPv6 echo request",
        Icmp6View::EchoReply { .. } => "ICMPv6 echo reply",
        Icmp6View::DestinationUnreachable { .. } => "ICMPv6 unreachable",
        Icmp6View::RouterSolicitation { .. } => "NDP router solicitation",
        Icmp6View::RouterAdvertisement(_) => "NDP router advertisement",
        Icmp6View::NeighborSolicitation { .. } => "NDP neighbor solicitation",
        Icmp6View::NeighborAdvertisement { .. } => "NDP neighbor advertisement",
    }
}

/// Corrupt-frame classification used by trace tooling: returns a short label
/// for why `parse` failed, or "ok". Allocation-free: classifies through the
/// borrowed view layer (whose errors are proven identical to the owned
/// decoders' by the conformance suite).
pub fn classify(raw: &[u8]) -> &'static str {
    match FrameView::parse(raw) {
        Ok(_) => "ok",
        Err(WireError::Truncated { what, .. }) => what,
        Err(WireError::BadField { what, .. }) => what,
        Err(WireError::BadChecksum { what, .. }) => what,
        Err(WireError::BadLength { what, .. }) => what,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::TcpFlags;

    fn mac(n: u8) -> MacAddr {
        MacAddr::new([2, 0, 0, 0, 0, n])
    }

    #[test]
    fn full_stack_udp_v6() {
        let d = UdpDatagram::new(5353, 53, b"hello".to_vec());
        let raw = build_udp_v6(
            mac(1),
            mac(2),
            "fd00:976a::50".parse().unwrap(),
            "fd00:976a::9".parse().unwrap(),
            &d,
        );
        let p = ParsedFrame::parse(&raw).unwrap();
        assert!(matches!(p.l3, L3::V6(_)));
        match p.l4 {
            L4::Udp(got) => assert_eq!(got, d),
            other => panic!("unexpected l4: {other:?}"),
        }
    }

    #[test]
    fn full_stack_tcp_v4() {
        let seg = TcpSegment::new(40000, 80, 1, 0, TcpFlags::SYN);
        let raw = build_tcp_v4(
            mac(1),
            mac(2),
            "192.168.12.50".parse().unwrap(),
            "23.153.8.71".parse().unwrap(),
            &seg,
        );
        let p = ParsedFrame::parse(&raw).unwrap();
        assert!(matches!(p.l4, L4::Tcp(_)));
        assert_eq!(p.v4_src(), Some("192.168.12.50".parse().unwrap()));
    }

    #[test]
    fn ndp_frames_get_hop_limit_255() {
        let msg = Icmpv6Message::RouterSolicitation(Default::default());
        let raw = build_icmpv6(
            mac(1),
            MacAddr::for_ipv6_multicast(crate::icmpv6::all_routers()),
            "fe80::1".parse().unwrap(),
            crate::icmpv6::all_routers(),
            &msg,
        );
        let p = ParsedFrame::parse(&raw).unwrap();
        match p.l3 {
            L3::V6(ip) => assert_eq!(ip.hop_limit, 255),
            other => panic!("unexpected l3: {other:?}"),
        }
    }

    #[test]
    fn echo_v6_keeps_default_hop_limit() {
        let msg = Icmpv6Message::EchoRequest {
            ident: 1,
            seq: 1,
            payload: vec![],
        };
        let raw = build_icmpv6(
            mac(1),
            mac(2),
            "fd00::1".parse().unwrap(),
            "fd00::2".parse().unwrap(),
            &msg,
        );
        match ParsedFrame::parse(&raw).unwrap().l3 {
            L3::V6(ip) => assert_eq!(ip.hop_limit, 64),
            other => panic!("unexpected l3: {other:?}"),
        }
    }

    #[test]
    fn classify_reports_layer() {
        assert_eq!(classify(&[0u8; 4]), "ethernet");
        let d = UdpDatagram::new(1, 2, vec![]);
        let mut raw = build_udp_v4(
            mac(1),
            mac(2),
            "10.0.0.1".parse().unwrap(),
            "10.0.0.2".parse().unwrap(),
            &d,
        );
        let n = raw.len();
        raw[n - 1] ^= 0xff; // corrupt UDP checksum region
        assert_eq!(classify(&raw), "udp-v4");
    }

    #[test]
    fn unknown_ethertype_is_other() {
        let f = EthernetFrame::new(mac(1), mac(2), EtherType::Other(0x88cc), vec![9, 9]);
        let p = ParsedFrame::parse(&f.encode()).unwrap();
        assert!(matches!(p.l3, L3::Other(0x88cc, _)));
        assert!(matches!(p.l4, L4::None));
    }
}
