//! NAPT44 — the plain IPv4 NAT the 5G gateway applies to legacy traffic.
//!
//! The paper's motivation sections lean on NAT44's operational pain (shared
//! source IPs triggering rate limits and bans, M-21-31 logging burden); the
//! testbed still needs a working one, because an IPv4-only client that
//! overrides its DNS resolver "would be granted access to the IPv4 internet"
//! (paper §V, Nintendo Switch escape hatch).

use std::net::Ipv4Addr;
use v6wire::emit::{self, Ip, Ports};
use v6wire::fasthash::FastMap;
use v6wire::icmpv4::Icmpv4Message;
use v6wire::ipv4::{proto, Ipv4Packet};
use v6wire::mac::MacAddr;
use v6wire::tcp::TcpSegment;
use v6wire::udp::UdpDatagram;
use v6wire::view::{Icmp4View, Ipv4View, L3View, L4View};

use v6xlat::siit::XlatError;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Proto {
    Udp,
    Tcp,
    Icmp,
}

#[derive(Debug, Clone, Copy)]
struct Binding {
    internal: (Ipv4Addr, u16),
    expires: u64,
}

/// A NAPT44 translator with a single public address.
#[derive(Debug)]
pub struct Napt44 {
    /// The public (WAN) address all flows share.
    pub public_ip: Ipv4Addr,
    forward: FastMap<(Proto, Ipv4Addr, u16), (u16, u64)>,
    reverse: FastMap<(Proto, u16), Binding>,
    next_port: u16,
    /// Session lifetime in seconds.
    pub lifetime: u64,
    /// Translated outbound packets.
    pub outbound: u64,
    /// Translated inbound packets.
    pub inbound: u64,
    /// Inbound drops (no binding).
    pub dropped: u64,
}

impl Napt44 {
    /// NAPT with the given public address.
    pub fn new(public_ip: Ipv4Addr) -> Napt44 {
        Napt44 {
            public_ip,
            forward: FastMap::default(),
            reverse: FastMap::default(),
            next_port: 1024,
            lifetime: 300,
            outbound: 0,
            inbound: 0,
            dropped: 0,
        }
    }

    /// Restore the post-construction state: bindings flushed, the port
    /// allocator rewound, counters zeroed. The warm-cell arena calls
    /// this between cells so a reused NAT is indistinguishable from a
    /// freshly built one.
    pub fn reset(&mut self) {
        self.forward.clear();
        self.reverse.clear();
        self.next_port = 1024;
        self.lifetime = 300;
        self.outbound = 0;
        self.inbound = 0;
        self.dropped = 0;
    }

    /// Counter snapshot (`outbound`, `inbound`, `dropped`) in the shared
    /// [`v6wire::metrics::Metrics`] form.
    pub fn metrics(&self) -> v6wire::metrics::Metrics {
        [
            ("outbound", self.outbound),
            ("inbound", self.inbound),
            ("dropped", self.dropped),
        ]
        .into_iter()
        .collect()
    }

    fn classify(pkt: &Ipv4Packet) -> Result<(Proto, u16, u16), XlatError> {
        match pkt.protocol {
            proto::UDP => {
                let d = UdpDatagram::decode_v4(&pkt.payload, pkt.src, pkt.dst)?;
                Ok((Proto::Udp, d.src_port, d.dst_port))
            }
            proto::TCP => {
                let s = TcpSegment::decode_v4(&pkt.payload, pkt.src, pkt.dst)?;
                Ok((Proto::Tcp, s.src_port, s.dst_port))
            }
            proto::ICMP => match Icmpv4Message::decode(&pkt.payload)? {
                Icmpv4Message::EchoRequest { ident, .. }
                | Icmpv4Message::EchoReply { ident, .. } => Ok((Proto::Icmp, ident, ident)),
                _ => Err(XlatError::UntranslatableIcmp),
            },
            other => Err(XlatError::UnsupportedProtocol(other)),
        }
    }

    fn rewrite(
        pkt: &Ipv4Packet,
        new_src: Ipv4Addr,
        new_dst: Ipv4Addr,
        new_sport: Option<u16>,
        new_dport: Option<u16>,
    ) -> Result<Ipv4Packet, XlatError> {
        let payload = match pkt.protocol {
            proto::UDP => {
                let mut d = UdpDatagram::decode_v4(&pkt.payload, pkt.src, pkt.dst)?;
                if let Some(p) = new_sport {
                    d.src_port = p;
                }
                if let Some(p) = new_dport {
                    d.dst_port = p;
                }
                d.encode_v4(new_src, new_dst)
            }
            proto::TCP => {
                let mut s = TcpSegment::decode_v4(&pkt.payload, pkt.src, pkt.dst)?;
                if let Some(p) = new_sport {
                    s.src_port = p;
                }
                if let Some(p) = new_dport {
                    s.dst_port = p;
                }
                s.encode_v4(new_src, new_dst)
            }
            proto::ICMP => {
                let m = Icmpv4Message::decode(&pkt.payload)?;
                let m2 = match m {
                    Icmpv4Message::EchoRequest {
                        ident,
                        seq,
                        payload,
                    } => Icmpv4Message::EchoRequest {
                        ident: new_sport.unwrap_or(ident),
                        seq,
                        payload,
                    },
                    Icmpv4Message::EchoReply {
                        ident,
                        seq,
                        payload,
                    } => Icmpv4Message::EchoReply {
                        ident: new_dport.unwrap_or(ident),
                        seq,
                        payload,
                    },
                    other => other,
                };
                m2.encode()
            }
            _ => return Err(XlatError::UnsupportedProtocol(pkt.protocol)),
        };
        let mut out = Ipv4Packet::new(new_src, new_dst, pkt.protocol, payload);
        out.ttl = pkt.ttl.saturating_sub(1);
        out.dscp_ecn = pkt.dscp_ecn;
        Ok(out)
    }

    /// [`Napt44::classify`] over a received frame's views.
    fn classify_view(ip: &Ipv4View<'_>, l4: &L4View<'_>) -> Result<(Proto, u16, u16), XlatError> {
        match l4 {
            L4View::Udp(d) => Ok((Proto::Udp, d.src_port, d.dst_port)),
            L4View::Tcp(s) => Ok((Proto::Tcp, s.src_port, s.dst_port)),
            L4View::Icmp4(
                Icmp4View::EchoRequest { ident, .. } | Icmp4View::EchoReply { ident, .. },
            ) => Ok((Proto::Icmp, *ident, *ident)),
            L4View::Icmp4(_) => Err(XlatError::UntranslatableIcmp),
            _ => Err(XlatError::UnsupportedProtocol(ip.protocol)),
        }
    }

    /// [`Napt44::rewrite`] from a received frame's views straight to the
    /// rewritten Ethernet frame: the transport is copied once and its
    /// ports and checksum patched under the new header.
    fn rewrite_frame(
        ip: &Ipv4View<'_>,
        l4: &L4View<'_>,
        out: Ip,
        ports: Ports,
        macs: (MacAddr, MacAddr),
    ) -> Result<Vec<u8>, XlatError> {
        let (dst_mac, src_mac) = macs;
        if let L4View::Icmp4(m) = l4 {
            let msg = match m.to_message() {
                Icmpv4Message::EchoRequest {
                    ident,
                    seq,
                    payload,
                } => Icmpv4Message::EchoRequest {
                    ident: ports.src.unwrap_or(ident),
                    seq,
                    payload,
                },
                Icmpv4Message::EchoReply {
                    ident,
                    seq,
                    payload,
                } => Icmpv4Message::EchoReply {
                    ident: ports.dst.unwrap_or(ident),
                    seq,
                    payload,
                },
                other => other,
            };
            return Ok(emit::icmpv4(dst_mac, src_mac, out, &msg));
        }
        emit::transport(dst_mac, src_mac, out, &L3View::V4(*ip), l4, ports)
            .ok_or(XlatError::UnsupportedProtocol(ip.protocol))
    }

    /// [`Napt44::outbound`] on a received frame's views: same bindings,
    /// counters and errors, and the translated frame emitted in one pass
    /// with the given MACs.
    pub fn outbound_frame(
        &mut self,
        ip: &Ipv4View<'_>,
        l4: &L4View<'_>,
        now: u64,
        macs: (MacAddr, MacAddr),
    ) -> Result<Vec<u8>, XlatError> {
        if ip.ttl <= 1 {
            return Err(XlatError::HopLimitExceeded);
        }
        let (p, sport, _dport) = Self::classify_view(ip, l4)?;
        let ext_port = self.bind(p, ip.src, sport, now)?;
        let out = Ip::V4 {
            src: self.public_ip,
            dst: ip.dst,
            ttl: ip.ttl - 1,
            tos: ip.dscp_ecn,
        };
        let ports = Ports {
            src: Some(ext_port),
            dst: None,
        };
        Self::rewrite_frame(ip, l4, out, ports, macs)
    }

    /// [`Napt44::inbound`] on a received frame's views. Also returns the
    /// internal destination, which picks the next hop on the LAN.
    pub fn inbound_frame(
        &mut self,
        ip: &Ipv4View<'_>,
        l4: &L4View<'_>,
        now: u64,
        macs: (MacAddr, MacAddr),
    ) -> Result<(Vec<u8>, (Ipv4Addr, u16)), XlatError> {
        let (p, _sport, dport) = Self::classify_view(ip, l4)?;
        let internal = self.lookup(p, dport, now)?;
        let out = Ip::V4 {
            src: ip.src,
            dst: internal.0,
            ttl: ip.ttl.saturating_sub(1),
            tos: ip.dscp_ecn,
        };
        let ports = Ports {
            src: None,
            dst: Some(internal.1),
        };
        Ok((Self::rewrite_frame(ip, l4, out, ports, macs)?, internal))
    }

    /// Translate an outbound (LAN → WAN) packet.
    pub fn outbound(&mut self, pkt: &Ipv4Packet, now: u64) -> Result<Ipv4Packet, XlatError> {
        if pkt.ttl <= 1 {
            return Err(XlatError::HopLimitExceeded);
        }
        let (p, sport, _dport) = Self::classify(pkt)?;
        let ext_port = self.bind(p, pkt.src, sport, now)?;
        Self::rewrite(pkt, self.public_ip, pkt.dst, Some(ext_port), None)
    }

    /// Find or allocate the external UDP port for `(src, sport)` — the
    /// state half of [`Napt44::outbound`] for a datagram the caller
    /// writes itself (the gateway's DNS proxy).
    pub fn bind_udp(&mut self, src: Ipv4Addr, sport: u16, now: u64) -> Result<u16, XlatError> {
        self.bind(Proto::Udp, src, sport, now)
    }

    /// Find or allocate the external port for `(p, src, sport)` and
    /// refresh its lifetime.
    fn bind(&mut self, p: Proto, src: Ipv4Addr, sport: u16, now: u64) -> Result<u16, XlatError> {
        let key = (p, src, sport);
        let ext_port = match self.forward.get_mut(&key) {
            Some((port, expires)) => {
                *expires = now + self.lifetime;
                *port
            }
            None => {
                // Allocate the next free external port.
                let mut chosen = None;
                for _ in 0..u16::MAX {
                    let cand = self.next_port;
                    self.next_port = if self.next_port == u16::MAX {
                        1024
                    } else {
                        self.next_port + 1
                    };
                    let free = self
                        .reverse
                        .get(&(p, cand))
                        .map(|b| b.expires <= now)
                        .unwrap_or(true);
                    if free {
                        chosen = Some(cand);
                        break;
                    }
                }
                let port = chosen.ok_or(XlatError::PoolExhausted)?;
                self.forward.insert(key, (port, now + self.lifetime));
                self.reverse.insert(
                    (p, port),
                    Binding {
                        internal: (src, sport),
                        expires: now + self.lifetime,
                    },
                );
                port
            }
        };
        // Keep the reverse entry fresh too.
        if let Some(b) = self.reverse.get_mut(&(p, ext_port)) {
            b.expires = now + self.lifetime;
        }
        self.outbound += 1;
        Ok(ext_port)
    }

    /// Translate an inbound (WAN → LAN) packet.
    pub fn inbound(&mut self, pkt: &Ipv4Packet, now: u64) -> Result<Ipv4Packet, XlatError> {
        let (p, _sport, dport) = Self::classify(pkt)?;
        let internal = self.lookup(p, dport, now)?;
        Self::rewrite(pkt, pkt.src, internal.0, None, Some(internal.1))
    }

    /// The live binding behind external port `dport`, counting the
    /// inbound packet (or its drop).
    fn lookup(&mut self, p: Proto, dport: u16, now: u64) -> Result<(Ipv4Addr, u16), XlatError> {
        let Some(b) = self.reverse.get(&(p, dport)).copied() else {
            self.dropped += 1;
            return Err(XlatError::NoBinding);
        };
        if b.expires <= now {
            self.dropped += 1;
            return Err(XlatError::NoBinding);
        }
        self.inbound += 1;
        Ok(b.internal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn nat() -> Napt44 {
        Napt44::new(a("100.66.7.8"))
    }

    fn udp_out(src: &str, sport: u16, dst: &str) -> Ipv4Packet {
        let d = UdpDatagram::new(sport, 53, b"q".to_vec());
        Ipv4Packet::new(a(src), a(dst), proto::UDP, d.encode_v4(a(src), a(dst)))
    }

    #[test]
    fn round_trip() {
        let mut n = nat();
        let out = n
            .outbound(&udp_out("192.168.12.60", 40000, "9.9.9.9"), 0)
            .unwrap();
        assert_eq!(out.src, a("100.66.7.8"));
        let od = UdpDatagram::decode_v4(&out.payload, out.src, out.dst).unwrap();
        let reply = UdpDatagram::new(53, od.src_port, b"r".to_vec());
        let rp = Ipv4Packet::new(
            a("9.9.9.9"),
            out.src,
            proto::UDP,
            reply.encode_v4(a("9.9.9.9"), out.src),
        );
        let back = n.inbound(&rp, 1).unwrap();
        assert_eq!(back.dst, a("192.168.12.60"));
        let bd = UdpDatagram::decode_v4(&back.payload, back.src, back.dst).unwrap();
        assert_eq!(bd.dst_port, 40000);
    }

    #[test]
    fn all_clients_share_one_source_ip() {
        // The Docker-Hub-rate-limit motivation from §II.B: every LAN host
        // appears as the same public address.
        let mut n = nat();
        let o1 = n
            .outbound(&udp_out("192.168.12.60", 1111, "9.9.9.9"), 0)
            .unwrap();
        let o2 = n
            .outbound(&udp_out("192.168.12.61", 1111, "9.9.9.9"), 0)
            .unwrap();
        assert_eq!(o1.src, o2.src);
        let p1 = UdpDatagram::decode_v4(&o1.payload, o1.src, o1.dst)
            .unwrap()
            .src_port;
        let p2 = UdpDatagram::decode_v4(&o2.payload, o2.src, o2.dst)
            .unwrap()
            .src_port;
        assert_ne!(p1, p2, "disambiguated only by port");
    }

    #[test]
    fn unsolicited_inbound_dropped() {
        let mut n = nat();
        let stray = udp_out("9.9.9.9", 53, "100.66.7.8");
        assert!(n.inbound(&stray, 0).is_err());
        assert_eq!(n.dropped, 1);
    }

    #[test]
    fn binding_expiry() {
        let mut n = nat();
        let out = n
            .outbound(&udp_out("192.168.12.60", 40000, "9.9.9.9"), 0)
            .unwrap();
        let od = UdpDatagram::decode_v4(&out.payload, out.src, out.dst).unwrap();
        let reply = UdpDatagram::new(53, od.src_port, b"r".to_vec());
        let rp = Ipv4Packet::new(
            a("9.9.9.9"),
            out.src,
            proto::UDP,
            reply.encode_v4(a("9.9.9.9"), out.src),
        );
        assert!(n.inbound(&rp, 299).is_ok());
        assert!(n.inbound(&rp, 301).is_err());
    }

    #[test]
    fn icmp_echo_natted_by_ident() {
        let mut n = nat();
        let m = Icmpv4Message::EchoRequest {
            ident: 7,
            seq: 1,
            payload: vec![1],
        };
        let pkt = Ipv4Packet::new(a("192.168.12.60"), a("9.9.9.9"), proto::ICMP, m.encode());
        let out = n.outbound(&pkt, 0).unwrap();
        let om = Icmpv4Message::decode(&out.payload).unwrap();
        let ext = match om {
            Icmpv4Message::EchoRequest { ident, .. } => ident,
            other => panic!("unexpected {other:?}"),
        };
        let reply = Icmpv4Message::EchoReply {
            ident: ext,
            seq: 1,
            payload: vec![1],
        };
        let rp = Ipv4Packet::new(a("9.9.9.9"), out.src, proto::ICMP, reply.encode());
        let back = n.inbound(&rp, 1).unwrap();
        let bm = Icmpv4Message::decode(&back.payload).unwrap();
        assert!(matches!(bm, Icmpv4Message::EchoReply { ident: 7, .. }));
    }
}
