//! NAT44 over frame views against the owned translator: the one-pass
//! `outbound_frame`/`inbound_frame` must produce the bytes the owned
//! `outbound`/`inbound` plus re-encode produce, with the same bindings,
//! counters and errors — including UDP with the IPv4 "no checksum" zero
//! and TTL 1.

use proptest::prelude::*;
use std::net::Ipv4Addr;
use v6sim::nat44::Napt44;
use v6wire::icmpv4::Icmpv4Message;
use v6wire::ipv4::{proto, Ipv4Packet};
use v6wire::mac::MacAddr;
use v6wire::tcp::{TcpFlags, TcpSegment};
use v6wire::udp::UdpDatagram;
use v6wire::view::{FrameView, L3View};
use v6wire::{EtherType, EthernetFrame, ParsedFrame, L3, L4};

const MACS: (MacAddr, MacAddr) = (MacAddr([2, 0, 0, 0, 0, 0xd]), MacAddr([2, 0, 0, 0, 0, 5]));

/// A raw IPv4 frame: UDP (checksum possibly zero), TCP (MSS or not) or
/// an ICMP echo request/reply, with the given TTL and DSCP.
#[allow(clippy::too_many_arguments)]
fn frame(
    addrs: (Ipv4Addr, Ipv4Addr),
    kind: u8,
    ports: (u16, u16),
    mss: Option<u16>,
    payload: &[u8],
    ttl: u8,
    tos: u8,
    zero_udp_ck: bool,
) -> Vec<u8> {
    let (s, d) = addrs;
    let (protocol, l4) = match kind {
        0 => {
            let mut b = UdpDatagram::new(ports.0, ports.1, payload.to_vec()).encode_v4(s, d);
            if zero_udp_ck {
                b[6..8].copy_from_slice(&[0, 0]);
            }
            (proto::UDP, b)
        }
        1 => {
            let mut seg = TcpSegment::new(ports.0, ports.1, 1, 2, TcpFlags::PSH_ACK);
            seg.mss = mss;
            seg.payload = payload.to_vec();
            (proto::TCP, seg.encode_v4(s, d))
        }
        k => {
            let (ident, seq, payload) = (ports.0, ports.1, payload.to_vec());
            let m = if k == 2 {
                Icmpv4Message::EchoRequest {
                    ident,
                    seq,
                    payload,
                }
            } else {
                Icmpv4Message::EchoReply {
                    ident,
                    seq,
                    payload,
                }
            };
            (proto::ICMP, m.encode())
        }
    };
    let mut pkt = Ipv4Packet::new(s, d, protocol, l4);
    pkt.ttl = ttl;
    pkt.dscp_ecn = tos;
    wrap(pkt)
}

fn wrap(p: Ipv4Packet) -> Vec<u8> {
    EthernetFrame::new(MACS.0, MACS.1, EtherType::Ipv4, p.encode()).encode()
}

fn owned(raw: &[u8]) -> Ipv4Packet {
    match ParsedFrame::parse(raw).expect("valid frame").l3 {
        L3::V4(p) => p,
        other => panic!("not IPv4: {other:?}"),
    }
}

proptest! {
    #[test]
    fn nat44_frames_equal_owned_translation(
        addrs in (any::<u32>(), any::<u32>()),
        kind in 0u8..4,
        ports in (any::<u16>(), any::<u16>()),
        mss in proptest::option::of(any::<u16>()),
        payload in proptest::collection::vec(any::<u8>(), 0..96),
        ttl_tos in (1u8..=255, any::<u8>()),
        zero_udp_ck in any::<bool>(),
        now in 0u64..1000,
    ) {
        let public = Ipv4Addr::new(100, 66, 7, 8);
        let (inside, remote) = (Ipv4Addr::from(addrs.0), Ipv4Addr::from(addrs.1));
        let mut owned_nat = Napt44::new(public);
        let mut frame_nat = Napt44::new(public);
        let raw = frame((inside, remote), kind, ports, mss, &payload, ttl_tos.0, ttl_tos.1, zero_udp_ck);
        let view = FrameView::parse(&raw).unwrap();
        let L3View::V4(ip) = &view.l3 else { unreachable!() };
        let out = owned_nat.outbound(&owned(&raw), now);
        let framed = frame_nat.outbound_frame(ip, &view.l4, now, MACS);
        prop_assert_eq!(&framed, &out.clone().map(wrap));
        prop_assert_eq!(frame_nat.metrics(), owned_nat.metrics());

        // The reply to the external tuple maps back inside.
        let Ok(out) = out else { return };
        let ext = match ParsedFrame::parse(&wrap(out.clone())).unwrap().l4 {
            L4::Udp(d) => d.src_port,
            L4::Tcp(s) => s.src_port,
            L4::Icmp4(Icmpv4Message::EchoRequest { ident, .. }) => ident,
            _ => ports.0,
        };
        let (rkind, rports) = match kind {
            2 => (3, (ext, 1)),
            3 => (3, (ports.0, ports.1)),
            k => (k, (ports.1, ext)),
        };
        let raw = frame((remote, public), rkind, rports, mss, &payload, ttl_tos.0, ttl_tos.1, zero_udp_ck);
        let view = FrameView::parse(&raw).unwrap();
        let L3View::V4(ip) = &view.l3 else { unreachable!() };
        let back = owned_nat.inbound(&owned(&raw), now + 1);
        let framed = frame_nat.inbound_frame(ip, &view.l4, now + 1, MACS);
        prop_assert_eq!(
            framed.map(|(f, _)| f),
            back.map(wrap)
        );
        prop_assert_eq!(frame_nat.metrics(), owned_nat.metrics());
    }
}
