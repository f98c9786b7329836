//! One-pass frame emission.
//!
//! Every frame a simulated device originates or forwards is written here:
//! the Ethernet header, the IPv4 or IPv6 header and the UDP/TCP/ICMP
//! transport go into a single `Vec` sized for the whole frame, and the
//! lengths and checksums are filled in place once the payload is written.
//! This replaces the owned chain `segment.encode_v4()` →
//! `Ipv4Packet::new(..).encode()` → `EthernetFrame::new(..).encode()`,
//! which allocated and copied the payload once per layer. The owned
//! encoders stay as the reference: `tests/conformance.rs` proves the bytes
//! equal over random packets.
//!
//! Forwarders and translators use [`transport`]: it writes a parsed
//! UDP/TCP payload under a new IP header with rewritten ports, which is
//! what decode → rewrite → encode → wrap produced. When the received
//! transport header is already in the canonical layout the owned encoder
//! would write, the checksum is carried over with the RFC 1624 update
//! instead of being recomputed over the payload.

use crate::arp::ArpPacket;
use crate::checksum::{incremental_update, pseudo_v4, pseudo_v6, Checksum};
use crate::ethernet::{EtherType, EthernetFrame};
use crate::icmpv4::Icmpv4Message;
use crate::icmpv6::Icmpv6Message;
use crate::ipv4::{proto, Ipv4Packet};
use crate::ipv6::Ipv6Packet;
use crate::mac::MacAddr;
use crate::tcp::{TcpFlags, TcpSegment};
use crate::udp::UdpDatagram;
use crate::view::{Ipv6View, L3View, L4View, TcpView, UdpView};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// The network-layer header of an emitted frame. IPv4 headers carry no
/// options, identification 0 and DF set; IPv6 headers carry flow label 0
/// — the defaults of [`Ipv4Packet::new`] and [`Ipv6Packet::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ip {
    /// IPv4.
    V4 {
        /// Source address.
        src: Ipv4Addr,
        /// Destination address.
        dst: Ipv4Addr,
        /// Time to live.
        ttl: u8,
        /// DSCP + ECN byte.
        tos: u8,
    },
    /// IPv6.
    V6 {
        /// Source address.
        src: Ipv6Addr,
        /// Destination address.
        dst: Ipv6Addr,
        /// Hop limit.
        hop_limit: u8,
        /// Traffic class.
        traffic_class: u8,
    },
}

impl Ip {
    /// An IPv4 header with TTL 64.
    pub fn v4(src: Ipv4Addr, dst: Ipv4Addr) -> Ip {
        Ip::V4 {
            src,
            dst,
            ttl: 64,
            tos: 0,
        }
    }

    /// An IPv6 header with hop limit 64.
    pub fn v6(src: Ipv6Addr, dst: Ipv6Addr) -> Ip {
        Ip::V6 {
            src,
            dst,
            hop_limit: 64,
            traffic_class: 0,
        }
    }

    /// The default header for a flow between `local` and `remote`, or
    /// `None` when their families differ.
    pub fn between(local: IpAddr, remote: IpAddr) -> Option<Ip> {
        match (local, remote) {
            (IpAddr::V4(l), IpAddr::V4(r)) => Some(Ip::v4(l, r)),
            (IpAddr::V6(l), IpAddr::V6(r)) => Some(Ip::v6(l, r)),
            _ => None,
        }
    }

    fn header_len(self) -> usize {
        match self {
            Ip::V4 { .. } => Ipv4Packet::HEADER_LEN,
            Ip::V6 { .. } => Ipv6Packet::HEADER_LEN,
        }
    }

    fn pseudo(self, protocol: u8, len: usize) -> Checksum {
        match self {
            Ip::V4 { src, dst, .. } => pseudo_v4(src, dst, protocol, len as u16),
            Ip::V6 { src, dst, .. } => pseudo_v6(src, dst, protocol, len as u32),
        }
    }

    /// Ones'-complement sum of the two addresses: the only part of the
    /// pseudo-header that differs between a packet and its translation.
    fn address_sum(self) -> u16 {
        let mut c = Checksum::new();
        match self {
            Ip::V4 { src, dst, .. } => {
                c.push(&src.octets());
                c.push(&dst.octets());
            }
            Ip::V6 { src, dst, .. } => {
                c.push(&src.octets());
                c.push(&dst.octets());
            }
        }
        !c.finish()
    }
}

/// Offset of the transport header in a frame emitted with `ip`.
fn l4_offset(ip: Ip) -> usize {
    EthernetFrame::HEADER_LEN + ip.header_len()
}

/// Write the Ethernet and IP headers with zero length and checksum
/// fields; [`seal`] fills them once the transport is in place.
fn open(dst_mac: MacAddr, src_mac: MacAddr, ip: Ip, protocol: u8, l4_capacity: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(l4_offset(ip) + l4_capacity);
    out.extend_from_slice(&dst_mac.0);
    out.extend_from_slice(&src_mac.0);
    match ip {
        Ip::V4 { src, dst, ttl, tos } => {
            out.extend_from_slice(&EtherType::Ipv4.to_u16().to_be_bytes());
            out.extend_from_slice(&[0x45, tos, 0, 0, 0, 0, 0x40, 0, ttl, protocol, 0, 0]);
            out.extend_from_slice(&src.octets());
            out.extend_from_slice(&dst.octets());
        }
        Ip::V6 {
            src,
            dst,
            hop_limit,
            traffic_class,
        } => {
            out.extend_from_slice(&EtherType::Ipv6.to_u16().to_be_bytes());
            out.extend_from_slice(&[
                0x60 | (traffic_class >> 4),
                traffic_class << 4,
                0,
                0,
                0,
                0,
                protocol,
                hop_limit,
            ]);
            out.extend_from_slice(&src.octets());
            out.extend_from_slice(&dst.octets());
        }
    }
    out
}

/// Fill the IP length fields and, for IPv4, the header checksum.
fn seal(out: &mut [u8], ip: Ip) {
    const L3: usize = EthernetFrame::HEADER_LEN;
    let l4_len = out.len() - l4_offset(ip);
    match ip {
        Ip::V4 { .. } => {
            let total = (Ipv4Packet::HEADER_LEN + l4_len) as u16;
            out[L3 + 2..L3 + 4].copy_from_slice(&total.to_be_bytes());
            let mut c = Checksum::new();
            c.push(&out[L3..L3 + Ipv4Packet::HEADER_LEN]);
            out[L3 + 10..L3 + 12].copy_from_slice(&c.finish().to_be_bytes());
        }
        Ip::V6 { .. } => {
            out[L3 + 4..L3 + 6].copy_from_slice(&(l4_len as u16).to_be_bytes());
        }
    }
}

/// Checksum the transport (pseudo-header included) and store it at
/// `ck_off` within the transport header. `udp` applies RFC 768's rule
/// that a computed zero is sent as all-ones.
fn seal_transport(out: &mut [u8], ip: Ip, protocol: u8, ck_off: usize, udp: bool) {
    let l4 = l4_offset(ip);
    let mut ck = ip.pseudo(protocol, out.len() - l4);
    ck.push(&out[l4..]);
    let mut sum = ck.finish();
    if udp && sum == 0 {
        sum = 0xffff;
    }
    out[l4 + ck_off..l4 + ck_off + 2].copy_from_slice(&sum.to_be_bytes());
}

/// An Ethernet/IP/UDP frame around `payload`.
pub fn udp(
    dst_mac: MacAddr,
    src_mac: MacAddr,
    ip: Ip,
    src_port: u16,
    dst_port: u16,
    payload: &[u8],
) -> Vec<u8> {
    udp_with(
        dst_mac,
        src_mac,
        ip,
        src_port,
        dst_port,
        payload.len(),
        |out| out.extend_from_slice(payload),
    )
}

/// An Ethernet/IP/UDP frame whose payload `write` appends straight into
/// the frame buffer — DNS and DHCP messages are encoded once, in place.
/// `capacity` is the expected payload size.
pub fn udp_with(
    dst_mac: MacAddr,
    src_mac: MacAddr,
    ip: Ip,
    src_port: u16,
    dst_port: u16,
    capacity: usize,
    write: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    let mut out = open(
        dst_mac,
        src_mac,
        ip,
        proto::UDP,
        UdpDatagram::HEADER_LEN + capacity,
    );
    let l4 = out.len();
    out.extend_from_slice(&src_port.to_be_bytes());
    out.extend_from_slice(&dst_port.to_be_bytes());
    out.extend_from_slice(&[0, 0, 0, 0]);
    write(&mut out);
    let len = (out.len() - l4) as u16;
    out[l4 + 4..l4 + 6].copy_from_slice(&len.to_be_bytes());
    seal(&mut out, ip);
    seal_transport(&mut out, ip, proto::UDP, 6, true);
    out
}

/// The fixed TCP header plus the MSS option when present, checksum zero —
/// the layout [`TcpSegment`]'s encoder writes.
pub(crate) fn write_tcp_header(
    out: &mut Vec<u8>,
    ports: (u16, u16),
    seq: u32,
    ack: u32,
    flags: TcpFlags,
    window: u16,
    mss: Option<u16>,
) {
    let data_off = if mss.is_some() { 6u8 } else { 5 };
    out.extend_from_slice(&ports.0.to_be_bytes());
    out.extend_from_slice(&ports.1.to_be_bytes());
    out.extend_from_slice(&seq.to_be_bytes());
    out.extend_from_slice(&ack.to_be_bytes());
    out.push(data_off << 4);
    out.push(flags.to_byte());
    out.extend_from_slice(&window.to_be_bytes());
    out.extend_from_slice(&[0, 0, 0, 0]); // checksum, urgent pointer
    if let Some(mss) = mss {
        out.extend_from_slice(&[2, 4]);
        out.extend_from_slice(&mss.to_be_bytes());
    }
}

/// An Ethernet/IP/TCP frame carrying `seg`.
pub fn tcp(dst_mac: MacAddr, src_mac: MacAddr, ip: Ip, seg: &TcpSegment) -> Vec<u8> {
    let mut out = open(
        dst_mac,
        src_mac,
        ip,
        proto::TCP,
        TcpSegment::HEADER_LEN + 4 + seg.payload.len(),
    );
    write_tcp_header(
        &mut out,
        (seg.src_port, seg.dst_port),
        seg.seq,
        seg.ack,
        seg.flags,
        seg.window,
        seg.mss,
    );
    out.extend_from_slice(&seg.payload);
    seal(&mut out, ip);
    seal_transport(&mut out, ip, proto::TCP, 16, false);
    out
}

/// An Ethernet/IPv6/ICMPv6 frame under `ip` (which must be IPv6); NDP
/// messages get hop limit 255 as RFC 4861 §7.1 requires receivers to
/// verify.
pub fn icmpv6(dst_mac: MacAddr, src_mac: MacAddr, ip: Ip, msg: &Icmpv6Message) -> Vec<u8> {
    let Ip::V6 {
        src,
        dst,
        traffic_class,
        ..
    } = ip
    else {
        panic!("an ICMPv6 frame needs an IPv6 header");
    };
    let ip = if msg.is_ndp() {
        Ip::V6 {
            src,
            dst,
            hop_limit: 255,
            traffic_class,
        }
    } else {
        ip
    };
    let mut out = open(dst_mac, src_mac, ip, proto::ICMPV6, 64);
    msg.encode_into(&mut out, src, dst);
    seal(&mut out, ip);
    out
}

/// An Ethernet/IPv4/ICMPv4 frame under `ip` (which must be IPv4).
pub fn icmpv4(dst_mac: MacAddr, src_mac: MacAddr, ip: Ip, msg: &Icmpv4Message) -> Vec<u8> {
    assert!(
        matches!(ip, Ip::V4 { .. }),
        "an ICMPv4 frame needs an IPv4 header"
    );
    let mut out = open(dst_mac, src_mac, ip, proto::ICMP, 64);
    msg.encode_into(&mut out);
    seal(&mut out, ip);
    out
}

/// An Ethernet/ARP frame.
pub fn arp(dst_mac: MacAddr, src_mac: MacAddr, arp: &ArpPacket) -> Vec<u8> {
    let mut out = Vec::with_capacity(EthernetFrame::HEADER_LEN + ArpPacket::LEN);
    out.extend_from_slice(&dst_mac.0);
    out.extend_from_slice(&src_mac.0);
    out.extend_from_slice(&EtherType::Arp.to_u16().to_be_bytes());
    arp.encode_into(&mut out);
    out
}

/// Re-address a frame already in the buffer: the destination MAC. Hosts
/// and routers emit before they know the next hop's MAC and fill it in
/// once neighbour resolution answers.
pub fn set_dst_mac(frame: &mut [u8], mac: MacAddr) {
    frame[..6].copy_from_slice(&mac.0);
}

/// Forward the IPv6 packet `ip` (parsed from a received frame) with its
/// hop limit decremented: the frame is copied once, re-addressed at L2,
/// and bytes beyond the payload length are dropped, exactly like
/// decode → `hop_limit -= 1` → encode. The caller checks the hop limit.
pub fn forward_v6(dst_mac: MacAddr, src_mac: MacAddr, raw: &[u8], ip: &Ipv6View<'_>) -> Vec<u8> {
    const L3: usize = EthernetFrame::HEADER_LEN;
    let end = L3 + Ipv6Packet::HEADER_LEN + ip.payload.len();
    let mut out = Vec::with_capacity(end);
    out.extend_from_slice(&dst_mac.0);
    out.extend_from_slice(&src_mac.0);
    out.extend_from_slice(&raw[12..end]);
    // The owned decode → encode round trip reproduces every other header
    // byte, payload length included.
    out[L3 + 7] = ip.hop_limit - 1;
    out
}

/// Port (or ICMP echo identifier) rewrite applied by [`transport`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ports {
    /// New source port, if any.
    pub src: Option<u16>,
    /// New destination port, if any.
    pub dst: Option<u16>,
}

/// Emit the UDP or TCP transport of a parsed frame under a new IP header
/// `ip`, with `ports` rewritten — the one-pass equivalent of decoding the
/// transport, setting its ports, re-encoding it for the new pseudo-header
/// and wrapping it in a new packet and frame. `from` is the received
/// network layer (its addresses seed the incremental checksum update).
/// Returns `None` for any other transport.
pub fn transport(
    dst_mac: MacAddr,
    src_mac: MacAddr,
    ip: Ip,
    from: &L3View<'_>,
    l4: &L4View<'_>,
    ports: Ports,
) -> Option<Vec<u8>> {
    let (old_ip, raw_l4) = match from {
        L3View::V4(p) => (Ip::v4(p.src, p.dst), p.payload),
        L3View::V6(p) => (Ip::v6(p.src, p.dst), p.payload),
        _ => return None,
    };
    Some(match l4 {
        L4View::Udp(u) => reemit_udp(dst_mac, src_mac, ip, old_ip, raw_l4, u, ports),
        L4View::Tcp(t) => reemit_tcp(dst_mac, src_mac, ip, old_ip, raw_l4, t, ports),
        _ => return None,
    })
}

fn reemit_udp(
    dst_mac: MacAddr,
    src_mac: MacAddr,
    ip: Ip,
    old_ip: Ip,
    raw: &[u8],
    u: &UdpView<'_>,
    ports: Ports,
) -> Vec<u8> {
    let sport = ports.src.unwrap_or(u.src_port);
    let dport = ports.dst.unwrap_or(u.dst_port);
    let len = UdpDatagram::HEADER_LEN + u.payload.len();
    let mut out = open(dst_mac, src_mac, ip, proto::UDP, len);
    let l4 = out.len();
    out.extend_from_slice(&raw[..len]);
    out[l4..l4 + 2].copy_from_slice(&sport.to_be_bytes());
    out[l4 + 2..l4 + 4].copy_from_slice(&dport.to_be_bytes());
    seal(&mut out, ip);
    let old_ck = u16::from_be_bytes([raw[6], raw[7]]);
    if old_ck == 0 {
        // IPv4 "no checksum": the owned encoder computes a real one.
        seal_transport(&mut out, ip, proto::UDP, 6, true);
    } else {
        let old = fold(&[old_ip.address_sum(), u.src_port, u.dst_port]);
        let new = fold(&[ip.address_sum(), sport, dport]);
        let mut ck = incremental_update(old_ck, old, new);
        if ck == 0 {
            ck = 0xffff;
        }
        out[l4 + 6..l4 + 8].copy_from_slice(&ck.to_be_bytes());
    }
    out
}

fn reemit_tcp(
    dst_mac: MacAddr,
    src_mac: MacAddr,
    ip: Ip,
    old_ip: Ip,
    raw: &[u8],
    t: &TcpView<'_>,
    ports: Ports,
) -> Vec<u8> {
    let sport = ports.src.unwrap_or(t.src_port);
    let dport = ports.dst.unwrap_or(t.dst_port);
    let header = TcpSegment::HEADER_LEN + if t.mss.is_some() { 4 } else { 0 };
    let mut out = open(dst_mac, src_mac, ip, proto::TCP, header + t.payload.len());
    let l4 = out.len();
    write_tcp_header(
        &mut out,
        (sport, dport),
        t.seq,
        t.ack,
        t.flags,
        t.window,
        t.mss,
    );
    out.extend_from_slice(t.payload);
    seal(&mut out, ip);
    // The received header is canonical when it matches what was just
    // written everywhere but the ports and the checksum; then the old
    // checksum carries over by the RFC 1624 update.
    let canonical = raw.len() == out.len() - l4
        && raw[4..16] == out[l4 + 4..l4 + 16]
        && raw[18..header] == out[l4 + 18..l4 + header];
    if canonical {
        let old_ck = u16::from_be_bytes([raw[16], raw[17]]);
        let old = fold(&[old_ip.address_sum(), t.src_port, t.dst_port]);
        let new = fold(&[ip.address_sum(), sport, dport]);
        let ck = incremental_update(old_ck, old, new);
        out[l4 + 16..l4 + 18].copy_from_slice(&ck.to_be_bytes());
    } else {
        seal_transport(&mut out, ip, proto::TCP, 16, false);
    }
    out
}

/// Ones'-complement sum of 16-bit words.
fn fold(words: &[u16]) -> u16 {
    let mut c = Checksum::new();
    for &w in words {
        c.push_u16(w);
    }
    !c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{build_icmpv6, build_tcp_v4, build_udp_v6};
    use crate::view::FrameView;

    fn mac(n: u8) -> MacAddr {
        MacAddr::new([2, 0, 0, 0, 0, n])
    }

    #[test]
    fn udp_v6_matches_owned_chain() {
        let (s, d): (Ipv6Addr, Ipv6Addr) = ("fd00::1".parse().unwrap(), "fd00::2".parse().unwrap());
        let dg = UdpDatagram::new(5353, 53, b"hello".to_vec());
        let owned = EthernetFrame::new(
            mac(2),
            mac(1),
            EtherType::Ipv6,
            Ipv6Packet::new(s, d, proto::UDP, dg.encode_v6(s, d)).encode(),
        )
        .encode();
        assert_eq!(udp(mac(2), mac(1), Ip::v6(s, d), 5353, 53, b"hello"), owned);
        assert_eq!(build_udp_v6(mac(1), mac(2), s, d, &dg), owned);
    }

    #[test]
    fn nat_style_reemit_matches_full_recompute() {
        let (s, d): (Ipv4Addr, Ipv4Addr) = (
            "192.168.12.50".parse().unwrap(),
            "23.153.8.71".parse().unwrap(),
        );
        let mut seg = TcpSegment::new(40000, 80, 7, 9, TcpFlags::PSH_ACK);
        seg.payload = b"GET / HTTP/1.1\r\n\r\n".to_vec();
        let raw = build_tcp_v4(mac(1), mac(2), s, d, &seg);
        let view = FrameView::parse(&raw).unwrap();
        let wan: Ipv4Addr = "100.66.7.8".parse().unwrap();
        let out = transport(
            mac(9),
            mac(8),
            Ip::V4 {
                src: wan,
                dst: d,
                ttl: 63,
                tos: 0,
            },
            &view.l3,
            &view.l4,
            Ports {
                src: Some(1024),
                dst: None,
            },
        )
        .unwrap();
        let mut expect = seg.clone();
        expect.src_port = 1024;
        let mut pkt = Ipv4Packet::new(wan, d, proto::TCP, expect.encode_v4(wan, d));
        pkt.ttl = 63;
        let owned = EthernetFrame::new(mac(9), mac(8), EtherType::Ipv4, pkt.encode()).encode();
        assert_eq!(out, owned);
    }

    #[test]
    fn ndp_gets_hop_limit_255() {
        let msg = Icmpv6Message::RouterSolicitation(Default::default());
        let s: Ipv6Addr = "fe80::1".parse().unwrap();
        let d = crate::icmpv6::all_routers();
        let f = icmpv6(mac(2), mac(1), Ip::v6(s, d), &msg);
        assert_eq!(f[14 + 7], 255);
        assert_eq!(f, build_icmpv6(mac(1), mac(2), s, d, &msg));
    }
}
