//! Differential codec-conformance suite: the borrowed [`FrameView`] layer
//! against the owned [`ParsedFrame`] decoders, over the committed corpus in
//! `tests/corpus/` plus proptest-generated frames.
//!
//! Invariants proven here (the tentpole's acceptance criteria):
//!
//! 1. **Parse equality** — on every input, both paths accept or reject
//!    together; on accept, `view.to_parsed()` equals the owned parse.
//! 2. **Error identity** — on reject, both return the *same* `WireError`
//!    value, for every truncation point and every single-byte corruption.
//! 3. **Byte-identical re-emission** — rebuilding each corpus/proptest frame
//!    from either parse through the one-pass emitter reproduces the original
//!    bytes exactly, and so does the owned layer-by-layer encode chain the
//!    emitter replaced.
//! 4. **Checksum kernel equality** — the word kernel agrees with the
//!    two-byte reference on every corpus frame, every prefix and suffix of
//!    one, and random data.
//! 5. **Trace text stability** — `summarize`/`classify` (now view-backed)
//!    match a reference implementation over the owned decoders.

use proptest::prelude::*;
use v6wire::checksum::{checksum, checksum_reference};
use v6wire::icmpv6::all_nodes;
use v6wire::ipv4::proto;
use v6wire::mac::MacAddr;
use v6wire::ndp::{NdpOption, RouterAdvertisement, RouterPreference};
use v6wire::packet::{
    build_arp, build_icmpv4, build_icmpv6, build_tcp_v4, build_tcp_v6, build_udp_v4, build_udp_v6,
    classify, summarize,
};
use v6wire::view::FrameView;
use v6wire::{
    ArpPacket, EtherType, EthernetFrame, Icmpv4Message, Icmpv6Message, Ipv4Packet, Ipv6Packet,
    ParsedFrame, TcpFlags, TcpSegment, UdpDatagram, L3, L4,
};

/// The committed good frames: every one must parse on both paths.
const GOOD_FRAMES: &[(&str, &[u8])] = &[
    (
        "dhcp_discover_opt108",
        include_bytes!("../../../tests/corpus/frame_dhcp_discover_opt108.bin"),
    ),
    (
        "dhcp_offer_opt108",
        include_bytes!("../../../tests/corpus/frame_dhcp_offer_opt108.bin"),
    ),
    (
        "ra_full",
        include_bytes!("../../../tests/corpus/frame_ra_full.bin"),
    ),
    (
        "dns64_aaaa",
        include_bytes!("../../../tests/corpus/frame_dns64_aaaa.bin"),
    ),
    (
        "poisoned_a",
        include_bytes!("../../../tests/corpus/frame_poisoned_a.bin"),
    ),
    (
        "arp_request",
        include_bytes!("../../../tests/corpus/frame_arp_request.bin"),
    ),
    (
        "tcp_syn_v6",
        include_bytes!("../../../tests/corpus/frame_tcp_syn_v6.bin"),
    ),
    (
        "icmpv6_echo",
        include_bytes!("../../../tests/corpus/frame_icmpv6_echo.bin"),
    ),
    (
        "icmpv4_unreach",
        include_bytes!("../../../tests/corpus/frame_icmpv4_unreach.bin"),
    ),
    (
        "ndp_ns",
        include_bytes!("../../../tests/corpus/frame_ndp_ns.bin"),
    ),
];

/// The committed adversarial frames: every one must fail identically.
const BAD_FRAMES: &[(&str, &[u8])] = &[
    (
        "bad_truncated",
        include_bytes!("../../../tests/corpus/frame_bad_truncated.bin"),
    ),
    (
        "bad_checksum",
        include_bytes!("../../../tests/corpus/frame_bad_checksum.bin"),
    ),
];

/// Both parse paths applied to the same bytes, results compared. Returns the
/// owned parse when both accept.
fn differential(raw: &[u8]) -> Option<ParsedFrame> {
    let owned = ParsedFrame::parse(raw);
    let view = FrameView::parse(raw);
    match (&owned, &view) {
        (Ok(o), Ok(v)) => assert_eq!(*o, v.to_parsed(), "parse divergence"),
        (Err(oe), Err(ve)) => assert_eq!(oe, ve, "error divergence"),
        _ => panic!(
            "accept/reject divergence: owned {:?} vs view {:?}",
            owned.as_ref().map(|_| "ok"),
            view.as_ref().map(|_| "ok")
        ),
    }
    owned.ok()
}

/// Rebuild a parsed frame through the owned builders — the re-emission half
/// of the differential loop. Covers every layer combination in the corpus.
fn reemit(p: &ParsedFrame) -> Vec<u8> {
    let (smac, dmac) = (p.eth.src, p.eth.dst);
    match (&p.l3, &p.l4) {
        (L3::Arp(a), L4::None) => build_arp(smac, dmac, a),
        (L3::V4(ip), L4::Udp(u)) => build_udp_v4(smac, dmac, ip.src, ip.dst, u),
        (L3::V4(ip), L4::Tcp(t)) => build_tcp_v4(smac, dmac, ip.src, ip.dst, t),
        (L3::V4(ip), L4::Icmp4(m)) => build_icmpv4(smac, dmac, ip.src, ip.dst, m),
        (L3::V6(ip), L4::Udp(u)) => build_udp_v6(smac, dmac, ip.src, ip.dst, u),
        (L3::V6(ip), L4::Tcp(t)) => build_tcp_v6(smac, dmac, ip.src, ip.dst, t),
        (L3::V6(ip), L4::Icmp6(m)) => build_icmpv6(smac, dmac, ip.src, ip.dst, m),
        other => panic!("frame shape not re-emittable: {other:?}"),
    }
}

/// The owned layer-by-layer encode chain (transport → packet → frame) the
/// emitter replaced: the reference the emitter's bytes must equal.
fn owned_chain(p: &ParsedFrame) -> Vec<u8> {
    let (smac, dmac) = (p.eth.src, p.eth.dst);
    let frame = |et, payload| EthernetFrame::new(dmac, smac, et, payload).encode();
    let v4 = |ip: &Ipv4Packet, protocol, l4| Ipv4Packet::new(ip.src, ip.dst, protocol, l4).encode();
    let v6 = |ip: &Ipv6Packet, protocol, l4| Ipv6Packet::new(ip.src, ip.dst, protocol, l4).encode();
    match (&p.l3, &p.l4) {
        (L3::Arp(a), L4::None) => frame(EtherType::Arp, a.encode()),
        (L3::V4(ip), L4::Udp(u)) => frame(
            EtherType::Ipv4,
            v4(ip, proto::UDP, u.encode_v4(ip.src, ip.dst)),
        ),
        (L3::V4(ip), L4::Tcp(t)) => frame(
            EtherType::Ipv4,
            v4(ip, proto::TCP, t.encode_v4(ip.src, ip.dst)),
        ),
        (L3::V4(ip), L4::Icmp4(m)) => frame(EtherType::Ipv4, v4(ip, proto::ICMP, m.encode())),
        (L3::V6(ip), L4::Udp(u)) => frame(
            EtherType::Ipv6,
            v6(ip, proto::UDP, u.encode_v6(ip.src, ip.dst)),
        ),
        (L3::V6(ip), L4::Tcp(t)) => frame(
            EtherType::Ipv6,
            v6(ip, proto::TCP, t.encode_v6(ip.src, ip.dst)),
        ),
        (L3::V6(ip), L4::Icmp6(m)) => {
            let mut pkt = Ipv6Packet::new(ip.src, ip.dst, proto::ICMPV6, m.encode(ip.src, ip.dst));
            if m.is_ndp() {
                pkt.hop_limit = 255;
            }
            frame(EtherType::Ipv6, pkt.encode())
        }
        other => panic!("frame shape not re-emittable: {other:?}"),
    }
}

/// Reference `summarize` over the owned decoders — the pre-view
/// implementation, kept here so the view-backed production path is pinned
/// to its exact output.
fn summarize_owned(raw: &[u8]) -> String {
    let parsed = match ParsedFrame::parse(raw) {
        Ok(p) => p,
        Err(e) => {
            let what = match e {
                v6wire::WireError::Truncated { what, .. } => what,
                v6wire::WireError::BadField { what, .. } => what,
                v6wire::WireError::BadChecksum { what, .. } => what,
                v6wire::WireError::BadLength { what, .. } => what,
            };
            return format!("corrupt: {what}");
        }
    };
    let udp_hint = |s: u16, d: u16| match (s, d) {
        (_, 53) | (53, _) => " (DNS)",
        (68, 67) | (67, 68) => " (DHCP)",
        _ => "",
    };
    let tcp_flags = |t: &TcpSegment| {
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
    };
    match (&parsed.l3, &parsed.l4) {
        (L3::Arp(a), _) => match a.op {
            v6wire::ArpOp::Request => format!("ARP who-has {}", a.target_ip),
            v6wire::ArpOp::Reply => format!("ARP {} is-at {}", a.sender_ip, a.sender_mac),
        },
        (L3::V4(ip), L4::Udp(u)) => format!(
            "IPv4 {}:{} > {}:{} UDP{}",
            ip.src,
            u.src_port,
            ip.dst,
            u.dst_port,
            udp_hint(u.src_port, u.dst_port)
        ),
        (L3::V6(ip), L4::Udp(u)) => format!(
            "IPv6 [{}]:{} > [{}]:{} UDP{}",
            ip.src,
            u.src_port,
            ip.dst,
            u.dst_port,
            udp_hint(u.src_port, u.dst_port)
        ),
        (L3::V4(ip), L4::Tcp(t)) => format!(
            "IPv4 {}:{} > {}:{} TCP {}",
            ip.src,
            t.src_port,
            ip.dst,
            t.dst_port,
            tcp_flags(t)
        ),
        (L3::V6(ip), L4::Tcp(t)) => format!(
            "IPv6 [{}]:{} > [{}]:{} TCP {}",
            ip.src,
            t.src_port,
            ip.dst,
            t.dst_port,
            tcp_flags(t)
        ),
        (L3::V4(ip), L4::Icmp4(m)) => {
            let name = match m {
                Icmpv4Message::EchoRequest { .. } => "ICMP echo request",
                Icmpv4Message::EchoReply { .. } => "ICMP echo reply",
                Icmpv4Message::DestinationUnreachable { .. } => "ICMP unreachable",
                Icmpv4Message::TimeExceeded { .. } => "ICMP time exceeded",
            };
            format!("IPv4 {} > {} {}", ip.src, ip.dst, name)
        }
        (L3::V6(ip), L4::Icmp6(m)) => {
            let name = match m {
                Icmpv6Message::EchoRequest { .. } => "ICMPv6 echo request",
                Icmpv6Message::EchoReply { .. } => "ICMPv6 echo reply",
                Icmpv6Message::DestinationUnreachable { .. } => "ICMPv6 unreachable",
                Icmpv6Message::RouterSolicitation(_) => "NDP router solicitation",
                Icmpv6Message::RouterAdvertisement(_) => "NDP router advertisement",
                Icmpv6Message::NeighborSolicitation(_) => "NDP neighbor solicitation",
                Icmpv6Message::NeighborAdvertisement(_) => "NDP neighbor advertisement",
            };
            format!("IPv6 [{}] > [{}] {}", ip.src, ip.dst, name)
        }
        (L3::V4(ip), L4::None) => format!("IPv4 {} > {} proto {}", ip.src, ip.dst, ip.protocol),
        (L3::V6(ip), L4::None) => {
            format!("IPv6 [{}] > [{}] nh {}", ip.src, ip.dst, ip.next_header)
        }
        (L3::Other(et, _), _) => format!("ethertype {et:#06x}"),
        _ => "frame".to_string(),
    }
}

#[test]
fn corpus_good_frames_parse_identically() {
    for (name, raw) in GOOD_FRAMES {
        let parsed = differential(raw);
        assert!(parsed.is_some(), "{name}: corpus frame failed to parse");
    }
}

#[test]
fn corpus_bad_frames_fail_identically() {
    for (name, raw) in BAD_FRAMES {
        assert!(
            differential(raw).is_none(),
            "{name}: adversarial corpus frame unexpectedly parsed"
        );
    }
}

#[test]
fn corpus_adversarial_frames_derive_from_their_sources() {
    // Pin the provenance documented in tests/corpus/README.md.
    let (_, discover) = GOOD_FRAMES[0];
    assert_eq!(BAD_FRAMES[0].1, &discover[..31]);
    let (_, dns64) = GOOD_FRAMES[3];
    let mut flipped = dns64.to_vec();
    let n = flipped.len();
    flipped[n - 1] ^= 0xff;
    assert_eq!(BAD_FRAMES[1].1, &flipped[..]);
}

#[test]
fn corpus_reemission_is_byte_identical() {
    for (name, raw) in GOOD_FRAMES {
        let owned = ParsedFrame::parse(raw).unwrap();
        let view = FrameView::parse(raw).unwrap();
        assert_eq!(&reemit(&owned), raw, "{name}: owned re-emission drifted");
        assert_eq!(
            &owned_chain(&owned),
            raw,
            "{name}: owned encode chain drifted"
        );
        assert_eq!(
            &reemit(&view.to_parsed()),
            raw,
            "{name}: view re-emission drifted"
        );
    }
}

#[test]
fn corpus_truncation_sweep_errors_identically() {
    for (name, raw) in GOOD_FRAMES.iter().chain(BAD_FRAMES) {
        for cut in 0..raw.len() {
            let _ = differential(&raw[..cut]);
            let _ = name;
        }
    }
}

#[test]
fn corpus_corruption_sweep_errors_identically() {
    for (name, raw) in GOOD_FRAMES {
        let mut work = raw.to_vec();
        for i in 0..work.len() {
            work[i] ^= 0xff;
            let _ = differential(&work);
            work[i] ^= 0xff;
            let _ = name;
        }
    }
}

#[test]
fn corpus_checksum_kernels_agree() {
    for (name, raw) in GOOD_FRAMES.iter().chain(BAD_FRAMES) {
        // Whole frame, every prefix, every suffix: exercises every
        // alignment and every tail of the 4-byte word loop.
        for cut in 0..=raw.len() {
            assert_eq!(
                checksum_reference(&raw[..cut]),
                checksum(&raw[..cut]),
                "{name}: prefix {cut}"
            );
            assert_eq!(
                checksum_reference(&raw[cut..]),
                checksum(&raw[cut..]),
                "{name}: suffix {cut}"
            );
        }
    }
}

#[test]
fn corpus_summaries_match_owned_reference() {
    for (name, raw) in GOOD_FRAMES.iter().chain(BAD_FRAMES) {
        assert_eq!(
            summarize(raw),
            summarize_owned(raw),
            "{name}: summarize drifted from the owned reference"
        );
        // classify agrees with the owned decoders' verdict.
        let owned = ParsedFrame::parse(raw);
        match owned {
            Ok(_) => assert_eq!(classify(raw), "ok", "{name}"),
            Err(e) => {
                let what = match e {
                    v6wire::WireError::Truncated { what, .. } => what,
                    v6wire::WireError::BadField { what, .. } => what,
                    v6wire::WireError::BadChecksum { what, .. } => what,
                    v6wire::WireError::BadLength { what, .. } => what,
                };
                assert_eq!(classify(raw), what, "{name}");
            }
        }
    }
}

fn arb_mac() -> impl Strategy<Value = MacAddr> {
    any::<[u8; 6]>().prop_map(MacAddr::new)
}

fn arb_v4() -> impl Strategy<Value = std::net::Ipv4Addr> {
    any::<u32>().prop_map(std::net::Ipv4Addr::from)
}

fn arb_v6() -> impl Strategy<Value = std::net::Ipv6Addr> {
    any::<u128>().prop_map(std::net::Ipv6Addr::from)
}

fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..128)
}

fn arb_ra_options() -> impl Strategy<Value = Vec<NdpOption>> {
    (
        arb_mac(),
        any::<u128>(),
        any::<u32>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(mac, prefix, lifetime, with_pio, with_rdnss, with_dnssl)| {
                let mut opts = vec![NdpOption::SourceLinkLayer(mac)];
                if with_pio {
                    opts.push(NdpOption::PrefixInformation {
                        prefix_len: 64,
                        on_link: true,
                        autonomous: true,
                        valid_lifetime: lifetime,
                        preferred_lifetime: lifetime / 2,
                        prefix: std::net::Ipv6Addr::from(prefix),
                    });
                }
                if with_rdnss {
                    opts.push(NdpOption::Rdnss {
                        lifetime,
                        servers: vec![std::net::Ipv6Addr::from(prefix ^ 1)],
                    });
                }
                if with_dnssl {
                    opts.push(NdpOption::Dnssl {
                        lifetime,
                        domains: vec!["rfc8925.com".into()],
                    });
                }
                opts
            },
        )
}

/// A valid frame of a random shape, built through the owned builders.
fn arb_frame() -> impl Strategy<Value = Vec<u8>> {
    let udp4 = (
        arb_mac(),
        arb_mac(),
        arb_v4(),
        arb_v4(),
        any::<u16>(),
        any::<u16>(),
        arb_payload(),
    )
        .prop_map(|(sm, dm, s, d, sp, dp, pl)| {
            build_udp_v4(sm, dm, s, d, &UdpDatagram::new(sp, dp, pl))
        });
    let udp6 = (
        arb_mac(),
        arb_mac(),
        arb_v6(),
        arb_v6(),
        any::<u16>(),
        any::<u16>(),
        arb_payload(),
    )
        .prop_map(|(sm, dm, s, d, sp, dp, pl)| {
            build_udp_v6(sm, dm, s, d, &UdpDatagram::new(sp, dp, pl))
        });
    let tcp4 = (
        arb_mac(),
        arb_mac(),
        arb_v4(),
        arb_v4(),
        any::<u16>(),
        any::<u32>(),
        any::<bool>(),
        arb_payload(),
    )
        .prop_map(|(sm, dm, s, d, sp, seq, syn, pl)| {
            let mut seg = TcpSegment::new(
                sp,
                80,
                seq,
                0,
                if syn {
                    TcpFlags::SYN
                } else {
                    TcpFlags::PSH_ACK
                },
            );
            if syn {
                seg.mss = Some(1440);
            }
            seg.payload = pl;
            build_tcp_v4(sm, dm, s, d, &seg)
        });
    let icmp4 = (
        arb_mac(),
        arb_mac(),
        arb_v4(),
        arb_v4(),
        any::<u16>(),
        arb_payload(),
    )
        .prop_map(|(sm, dm, s, d, ident, pl)| {
            build_icmpv4(
                sm,
                dm,
                s,
                d,
                &Icmpv4Message::EchoRequest {
                    ident,
                    seq: 1,
                    payload: pl,
                },
            )
        });
    let icmp6 = (
        arb_mac(),
        arb_mac(),
        arb_v6(),
        arb_v6(),
        any::<u16>(),
        arb_payload(),
    )
        .prop_map(|(sm, dm, s, d, ident, pl)| {
            build_icmpv6(
                sm,
                dm,
                s,
                d,
                &Icmpv6Message::EchoRequest {
                    ident,
                    seq: 1,
                    payload: pl,
                },
            )
        });
    let ra = (
        arb_mac(),
        arb_v6(),
        any::<u16>(),
        any::<bool>(),
        arb_ra_options(),
    )
        .prop_map(|(sm, src, lifetime, low, opts)| {
            let mut ra = RouterAdvertisement::new(lifetime);
            if low {
                ra.preference = RouterPreference::Low;
            }
            ra.options = opts;
            build_icmpv6(
                sm,
                MacAddr::for_ipv6_multicast(all_nodes()),
                src,
                all_nodes(),
                &Icmpv6Message::RouterAdvertisement(ra),
            )
        });
    let arp = (arb_mac(), arb_v4(), arb_v4()).prop_map(|(sm, sip, tip)| {
        build_arp(sm, MacAddr::BROADCAST, &ArpPacket::request(sm, sip, tip))
    });
    prop_oneof![udp4, udp6, tcp4, icmp4, icmp6, ra, arp]
}

proptest! {
    #[test]
    fn generated_frames_parse_identically_and_reemit(raw in arb_frame()) {
        let parsed = differential(&raw).expect("generated frame must parse");
        prop_assert_eq!(&reemit(&parsed), &raw);
        prop_assert_eq!(summarize(&raw), summarize_owned(&raw));
    }

    #[test]
    fn generated_frames_truncate_identically(raw in arb_frame(), cut in any::<prop::sample::Index>()) {
        let at = cut.index(raw.len());
        let _ = differential(&raw[..at]);
        prop_assert_eq!(summarize(&raw[..at]), summarize_owned(&raw[..at]));
    }

    #[test]
    fn generated_frames_corrupt_identically(raw in arb_frame(), at in any::<prop::sample::Index>(), flip in 1u8..) {
        let mut work = raw;
        let i = at.index(work.len());
        work[i] ^= flip;
        let _ = differential(&work);
        prop_assert_eq!(summarize(&work), summarize_owned(&work));
    }

    #[test]
    fn random_bytes_never_panic_and_agree(raw in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = differential(&raw);
        prop_assert_eq!(summarize(&raw), summarize_owned(&raw));
    }

    #[test]
    fn checksum_kernels_agree_on_random_slices(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        prop_assert_eq!(checksum_reference(&data), checksum(&data));
    }

    #[test]
    fn emitter_equals_owned_encode_chain(raw in arb_frame()) {
        // `arb_frame` builds through the emitter; the owned chain over the
        // parse must reproduce the same bytes.
        let parsed = ParsedFrame::parse(&raw).expect("generated frames are valid");
        prop_assert_eq!(owned_chain(&parsed), raw);
    }
}
