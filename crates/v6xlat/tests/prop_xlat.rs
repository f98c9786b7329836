//! Property-based tests for the translators: SIIT double-translation
//! identity, NAT64 flow-tuple restoration, CLAT round-trips.

use proptest::prelude::*;
use std::net::{Ipv4Addr, Ipv6Addr};
use v6addr::rfc6052::Nat64Prefix;
use v6wire::ipv4::{proto, Ipv4Packet};
use v6wire::ipv6::Ipv6Packet;
use v6wire::tcp::{TcpFlags, TcpSegment};
use v6wire::udp::UdpDatagram;
use v6xlat::clat::Clat;
use v6xlat::nat64::Nat64;
use v6xlat::siit::{self, PortRewrite};

fn arb_v4() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

fn arb_v6() -> impl Strategy<Value = Ipv6Addr> {
    any::<u128>().prop_map(Ipv6Addr::from)
}

proptest! {
    /// SIIT v4→v6→v4 restores the original transport payload and ports
    /// (TTL is spent at each hop, DSCP preserved).
    #[test]
    fn siit_double_translation_identity_udp(
        s4 in arb_v4(), d4 in arb_v4(), s6 in arb_v6(), d6 in arb_v6(),
        sp in any::<u16>(), dp in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        dscp in any::<u8>(),
    ) {
        let d = UdpDatagram::new(sp, dp, payload);
        let mut pkt = Ipv4Packet::new(s4, d4, proto::UDP, d.encode_v4(s4, d4));
        pkt.dscp_ecn = dscp;
        let v6 = siit::v4_to_v6(&pkt, s6, d6, PortRewrite::default()).unwrap();
        prop_assert_eq!(v6.traffic_class, dscp);
        let back = siit::v6_to_v4(&v6, s4, d4, PortRewrite::default()).unwrap();
        let got = UdpDatagram::decode_v4(&back.payload, back.src, back.dst).unwrap();
        prop_assert_eq!(got, d);
        prop_assert_eq!(back.ttl, 62);
        prop_assert_eq!(back.dscp_ecn, dscp);
    }

    /// Same identity for TCP, with flags and MSS surviving.
    #[test]
    fn siit_double_translation_identity_tcp(
        s4 in arb_v4(), d4 in arb_v4(), s6 in arb_v6(), d6 in arb_v6(),
        sp in any::<u16>(), dp in any::<u16>(), seq in any::<u32>(),
        mss in proptest::option::of(any::<u16>()),
        payload in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let mut seg = TcpSegment::new(sp, dp, seq, 0, TcpFlags::PSH_ACK);
        seg.mss = mss;
        seg.payload = payload;
        let pkt = Ipv4Packet::new(s4, d4, proto::TCP, seg.encode_v4(s4, d4));
        let v6 = siit::v4_to_v6(&pkt, s6, d6, PortRewrite::default()).unwrap();
        let back = siit::v6_to_v4(&v6, s4, d4, PortRewrite::default()).unwrap();
        let got = TcpSegment::decode_v4(&back.payload, back.src, back.dst).unwrap();
        prop_assert_eq!(got, seg);
    }

    /// Any outbound NAT64 flow's reply is delivered back to the exact
    /// internal (address, port) that originated it.
    #[test]
    fn nat64_restores_flow_tuple(
        iid in any::<u64>(),
        sp in 1024u16..,
        dst4 in arb_v4(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let client = Ipv6Addr::from((0x2607_fb90u128) << 96 | u128::from(iid));
        let mut nat = Nat64::well_known_on(vec![Ipv4Addr::new(203, 0, 113, 64)]);
        let dst = Nat64Prefix::well_known().embed_unchecked(dst4);
        let d = UdpDatagram::new(sp, 53, payload.clone());
        let pkt = Ipv6Packet::new(client, dst, proto::UDP, d.encode_v6(client, dst));
        let out = nat.v6_to_v4(&pkt, 10).unwrap();
        prop_assert_eq!(out.dst, dst4);
        let od = UdpDatagram::decode_v4(&out.payload, out.src, out.dst).unwrap();
        prop_assert_eq!(&od.payload, &payload);
        // Reply retraces.
        let reply = UdpDatagram::new(53, od.src_port, payload.clone());
        let rpkt = Ipv4Packet::new(dst4, out.src, proto::UDP, reply.encode_v4(dst4, out.src));
        let back = nat.v4_to_v6(&rpkt, 11).unwrap();
        prop_assert_eq!(back.dst, client);
        let bd = UdpDatagram::decode_v6(&back.payload, back.src, back.dst).unwrap();
        prop_assert_eq!(bd.dst_port, sp);
    }

    /// Distinct internal flows never share an external (addr, port) tuple.
    #[test]
    fn nat64_external_tuples_unique(ports in proptest::collection::hash_set(1024u16.., 2..10)) {
        let client: Ipv6Addr = "2607:fb90::50".parse().unwrap();
        let dst4 = Ipv4Addr::new(190, 92, 158, 4);
        let mut nat = Nat64::well_known_on(vec![Ipv4Addr::new(203, 0, 113, 64)]);
        let dst = Nat64Prefix::well_known().embed_unchecked(dst4);
        let mut seen = std::collections::HashSet::new();
        for sp in ports {
            let d = UdpDatagram::new(sp, 53, vec![]);
            let pkt = Ipv6Packet::new(client, dst, proto::UDP, d.encode_v6(client, dst));
            let out = nat.v6_to_v4(&pkt, 0).unwrap();
            let od = UdpDatagram::decode_v4(&out.payload, out.src, out.dst).unwrap();
            prop_assert!(seen.insert((out.src, od.src_port)), "tuple reuse");
        }
    }

    /// CLAT out-and-back is the identity on the application's view.
    #[test]
    fn clat_roundtrip_identity(
        dst4 in arb_v4(),
        sp in any::<u16>(), dp in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let clat = Clat::new("2607:fb90::c1a7".parse().unwrap(), Nat64Prefix::well_known());
        let d = UdpDatagram::new(sp, dp, payload);
        let pkt = Ipv4Packet::new(clat.host_v4, dst4, proto::UDP, d.encode_v4(clat.host_v4, dst4));
        let v6 = clat.v4_out(&pkt).unwrap();
        // The far end replies by swapping the tuple.
        let rd = UdpDatagram::decode_v6(&v6.payload, v6.src, v6.dst).unwrap();
        let reply = UdpDatagram::new(rd.dst_port, rd.src_port, rd.payload.clone());
        let rpkt = Ipv6Packet::new(v6.dst, v6.src, proto::UDP, reply.encode_v6(v6.dst, v6.src));
        let back = clat.v6_in(&rpkt).unwrap();
        prop_assert_eq!(back.src, dst4);
        prop_assert_eq!(back.dst, clat.host_v4);
        let bd = UdpDatagram::decode_v4(&back.payload, back.src, back.dst).unwrap();
        prop_assert_eq!(bd.dst_port, sp);
        prop_assert_eq!(bd.payload, rd.payload);
    }

    /// Translators never panic on arbitrary bytes in the payload position.
    #[test]
    fn translators_reject_garbage_gracefully(
        s6 in arb_v6(), d6 in arb_v6(), nh in any::<u8>(),
        garbage in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let pkt = Ipv6Packet::new(s6, d6, nh, garbage);
        let _ = siit::v6_to_v4(
            &pkt,
            Ipv4Addr::new(192, 0, 2, 1),
            Ipv4Addr::new(192, 0, 2, 2),
            PortRewrite::default(),
        );
        let mut nat = Nat64::well_known_on(vec![Ipv4Addr::new(203, 0, 113, 64)]);
        let _ = nat.v6_to_v4(&pkt, 0);
    }
}

// ---------------------------------------------------------------------
// Frame-level translation: the one-pass `*_frame` paths against the owned
// translate-then-re-encode reference, byte for byte.
// ---------------------------------------------------------------------

use v6wire::emit::{self, Ip};
use v6wire::icmpv4::Icmpv4Message;
use v6wire::icmpv6::Icmpv6Message;
use v6wire::mac::MacAddr;
use v6wire::view::{FrameView, L3View};
use v6wire::{EtherType, EthernetFrame, ParsedFrame, L3};

const DST_MAC: MacAddr = MacAddr([2, 0, 0, 0, 0, 0xd]);
const SRC_MAC: MacAddr = MacAddr([2, 0, 0, 0, 0, 0x5]);

/// One packet a translator may meet: UDP (over IPv4 sometimes with the
/// "no checksum" zero), TCP with or without an MSS option, or an ICMP
/// echo, with any TTL/hop limit (1 included) and any DSCP.
#[derive(Debug, Clone)]
struct Pkt {
    v4: (Ipv4Addr, Ipv4Addr),
    v6: (Ipv6Addr, Ipv6Addr),
    kind: u8,
    ports: (u16, u16),
    mss: Option<u16>,
    payload: Vec<u8>,
    hop: u8,
    tos: u8,
    zero_udp_ck: bool,
}

fn arb_pkt() -> impl Strategy<Value = Pkt> {
    (
        (arb_v4(), arb_v4()),
        (arb_v6(), arb_v6()),
        0u8..4,
        (any::<u16>(), any::<u16>()),
        proptest::option::of(any::<u16>()),
        proptest::collection::vec(any::<u8>(), 0..96),
        (1u8..=255, any::<u8>()),
        any::<bool>(),
    )
        .prop_map(
            |(v4, v6, kind, ports, mss, payload, (hop, tos), zero_udp_ck)| Pkt {
                v4,
                v6,
                kind,
                ports,
                mss,
                payload,
                hop,
                tos,
                zero_udp_ck,
            },
        )
}

impl Pkt {
    fn segment(&self) -> TcpSegment {
        let mut seg = TcpSegment::new(self.ports.0, self.ports.1, 7, 9, TcpFlags::PSH_ACK);
        seg.mss = self.mss;
        seg.payload = self.payload.clone();
        seg
    }

    /// The packet over IPv4, as a raw frame.
    fn frame_v4(&self) -> Vec<u8> {
        let (s, d) = self.v4;
        let (protocol, l4) = match self.kind {
            0 => {
                let mut b = UdpDatagram::new(self.ports.0, self.ports.1, self.payload.clone())
                    .encode_v4(s, d);
                if self.zero_udp_ck {
                    b[6..8].copy_from_slice(&[0, 0]);
                }
                (proto::UDP, b)
            }
            1 => (proto::TCP, self.segment().encode_v4(s, d)),
            k => {
                let (ident, seq, payload) = (self.ports.0, self.ports.1, self.payload.clone());
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
        pkt.ttl = self.hop;
        pkt.dscp_ecn = self.tos;
        EthernetFrame::new(DST_MAC, SRC_MAC, EtherType::Ipv4, pkt.encode()).encode()
    }

    /// The packet over IPv6, as a raw frame.
    fn frame_v6(&self) -> Vec<u8> {
        let (s, d) = self.v6;
        let (next_header, l4) = match self.kind {
            0 => (
                proto::UDP,
                UdpDatagram::new(self.ports.0, self.ports.1, self.payload.clone()).encode_v6(s, d),
            ),
            1 => (proto::TCP, self.segment().encode_v6(s, d)),
            k => {
                let (ident, seq, payload) = (self.ports.0, self.ports.1, self.payload.clone());
                let m = if k == 2 {
                    Icmpv6Message::EchoRequest {
                        ident,
                        seq,
                        payload,
                    }
                } else {
                    Icmpv6Message::EchoReply {
                        ident,
                        seq,
                        payload,
                    }
                };
                (proto::ICMPV6, m.encode(s, d))
            }
        };
        let mut pkt = Ipv6Packet::new(s, d, next_header, l4);
        pkt.hop_limit = self.hop;
        pkt.traffic_class = self.tos;
        EthernetFrame::new(DST_MAC, SRC_MAC, EtherType::Ipv6, pkt.encode()).encode()
    }
}

fn owned_v4(raw: &[u8]) -> Ipv4Packet {
    match ParsedFrame::parse(raw).expect("valid frame").l3 {
        L3::V4(p) => p,
        other => panic!("not IPv4: {other:?}"),
    }
}

fn owned_v6(raw: &[u8]) -> Ipv6Packet {
    match ParsedFrame::parse(raw).expect("valid frame").l3 {
        L3::V6(p) => p,
        other => panic!("not IPv6: {other:?}"),
    }
}

fn wrap_v4(p: Ipv4Packet) -> Vec<u8> {
    EthernetFrame::new(DST_MAC, SRC_MAC, EtherType::Ipv4, p.encode()).encode()
}

fn wrap_v6(p: Ipv6Packet) -> Vec<u8> {
    EthernetFrame::new(DST_MAC, SRC_MAC, EtherType::Ipv6, p.encode()).encode()
}

proptest! {
    /// SIIT over views equals SIIT over owned packets plus re-encode, in
    /// both directions, errors included.
    #[test]
    fn siit_frames_equal_owned_translation(
        p in arb_pkt(),
        new4 in (arb_v4(), arb_v4()),
        new6 in (arb_v6(), arb_v6()),
        rewrite in (proptest::option::of(any::<u16>()), proptest::option::of(any::<u16>())),
    ) {
        let rewrite = PortRewrite { src: rewrite.0, dst: rewrite.1 };
        let raw = p.frame_v6();
        let view = FrameView::parse(&raw).unwrap();
        let L3View::V6(ip) = &view.l3 else { unreachable!() };
        let owned = siit::v6_to_v4(&owned_v6(&raw), new4.0, new4.1, rewrite).map(wrap_v4);
        let framed = siit::v6_to_v4_frame(DST_MAC, SRC_MAC, ip, &view.l4, new4.0, new4.1, rewrite);
        prop_assert_eq!(framed, owned);

        let raw = p.frame_v4();
        let view = FrameView::parse(&raw).unwrap();
        let L3View::V4(ip) = &view.l3 else { unreachable!() };
        let owned = siit::v4_to_v6(&owned_v4(&raw), new6.0, new6.1, rewrite).map(wrap_v6);
        let framed = siit::v4_to_v6_frame(DST_MAC, SRC_MAC, ip, &view.l4, new6.0, new6.1, rewrite);
        prop_assert_eq!(framed, owned);
    }

    /// NAT64 over views keeps the owned translator's bindings, counters
    /// and bytes, outbound and for the reply that retraces the flow.
    #[test]
    fn nat64_frames_equal_owned_translation(p in arb_pkt(), now in 0u64..1000) {
        let pool = vec![Ipv4Addr::new(203, 0, 113, 64), Ipv4Addr::new(203, 0, 113, 65)];
        let mut owned_nat = Nat64::well_known_on(pool.clone());
        let mut frame_nat = Nat64::well_known_on(pool);
        let mut p = p;
        p.v6.1 = Nat64Prefix::well_known().embed_unchecked(p.v4.1);
        let raw = p.frame_v6();
        let view = FrameView::parse(&raw).unwrap();
        let L3View::V6(ip) = &view.l3 else { unreachable!() };
        let owned = owned_nat.v6_to_v4(&owned_v6(&raw), now);
        let framed = frame_nat.v6_to_v4_frame(ip, &view.l4, now, DST_MAC, SRC_MAC);
        prop_assert_eq!(&framed, &owned.clone().map(wrap_v4));
        prop_assert_eq!(frame_nat.metrics(), owned_nat.metrics());

        // The far end answers the external tuple.
        let Ok(out) = owned else { return };
        let ext_port = match ParsedFrame::parse(&wrap_v4(out.clone())).unwrap().l4 {
            v6wire::L4::Udp(d) => d.src_port,
            v6wire::L4::Tcp(s) => s.src_port,
            v6wire::L4::Icmp4(Icmpv4Message::EchoRequest { ident, .. }) => ident,
            _ => return,
        };
        let mut reply = p.clone();
        reply.v4 = (out.dst, out.src);
        reply.ports = (p.ports.1, ext_port);
        if reply.kind == 2 {
            reply.kind = 3;
            reply.ports = (ext_port, 1);
        }
        let raw = reply.frame_v4();
        let view = FrameView::parse(&raw).unwrap();
        let L3View::V4(ip) = &view.l3 else { unreachable!() };
        let owned = owned_nat.v4_to_v6(&owned_v4(&raw), now + 1);
        let framed = frame_nat.v4_to_v6_frame(ip, &view.l4, now + 1, DST_MAC, SRC_MAC);
        prop_assert_eq!(
            framed,
            owned.map(|v6| {
                let dst = v6.dst;
                (wrap_v6(v6), dst)
            })
        );
        prop_assert_eq!(frame_nat.metrics(), owned_nat.metrics());
    }

    /// The CLAT's outbound header equals translating the host's own IPv4
    /// packet (TTL 64), and its inbound check agrees with `v6_in` on
    /// every header-level outcome.
    #[test]
    fn clat_frames_equal_owned_translation(p in arb_pkt(), in_prefix in any::<bool>(), to_clat in any::<bool>()) {
        let clat = Clat::new("2607:fb90::c1a7".parse().unwrap(), Nat64Prefix::well_known());
        let dst4 = p.v4.1;
        let out = clat.out_header(dst4);
        let (protocol, l4, framed) = if p.kind == 1 {
            let seg = p.segment();
            let framed = emit::tcp(DST_MAC, SRC_MAC, out, &seg);
            (proto::TCP, seg.encode_v4(clat.host_v4, dst4), framed)
        } else {
            let d = UdpDatagram::new(p.ports.0, p.ports.1, p.payload.clone());
            let framed = emit::udp(DST_MAC, SRC_MAC, out, p.ports.0, p.ports.1, &p.payload);
            (proto::UDP, d.encode_v4(clat.host_v4, dst4), framed)
        };
        let pkt = Ipv4Packet::new(clat.host_v4, dst4, protocol, l4);
        prop_assert_eq!(framed, wrap_v6(clat.v4_out(&pkt).unwrap()));
        prop_assert!(matches!(out, Ip::V6 { hop_limit: 63, .. }));

        let mut inbound = p.clone();
        if in_prefix {
            inbound.v6.0 = Nat64Prefix::well_known().embed_unchecked(p.v4.0);
        }
        if to_clat {
            inbound.v6.1 = clat.clat_v6;
        }
        let raw = inbound.frame_v6();
        let view = FrameView::parse(&raw).unwrap();
        let L3View::V6(ip) = &view.l3 else { unreachable!() };
        match (clat.v6_in(&owned_v6(&raw)), clat.in_source(ip)) {
            (Ok(v4), got) => prop_assert_eq!(got, Ok(v4.src)),
            (Err(e @ (siit::XlatError::NotInPrefix(_) | siit::XlatError::HopLimitExceeded)), got) => {
                prop_assert_eq!(got, Err(e))
            }
            // Transport-level refusals: the header checks pass and the
            // host ignores the transport.
            (Err(_), got) => prop_assert!(got.is_ok()),
        }
    }
}
