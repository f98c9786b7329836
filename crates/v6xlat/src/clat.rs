//! CLAT — the customer-side translator of 464XLAT (RFC 6877).
//!
//! When an RFC 8925 client disables IPv4, applications that use IPv4
//! literals (the paper's Echolink example, Fig. 2) still open IPv4 sockets.
//! The OS gives them a private IPv4 address (RFC 7335 reserves
//! `192.0.0.0/29`; hosts use `192.0.0.1`) and the CLAT statelessly
//! translates every such packet to IPv6:
//!
//! * source: the client's dedicated CLAT IPv6 address (derived from its
//!   /64 in real deployments),
//! * destination: `PLAT prefix ⊕ v4 destination` (RFC 6052) so the
//!   provider-side NAT64 (the PLAT) completes the path.

use crate::siit::{self, PortRewrite, XlatError};
use std::net::{Ipv4Addr, Ipv6Addr};
use v6addr::rfc6052::Nat64Prefix;
use v6wire::emit::Ip;
use v6wire::ipv4::Ipv4Packet;
use v6wire::ipv6::Ipv6Packet;
use v6wire::view::Ipv6View;

/// A per-host CLAT instance.
#[derive(Debug, Clone)]
pub struct Clat {
    /// The host's internal IPv4 address handed to v4-only applications
    /// (RFC 7335: 192.0.0.1).
    pub host_v4: Ipv4Addr,
    /// The host's CLAT-dedicated IPv6 source address.
    pub clat_v6: Ipv6Addr,
    /// The PLAT-side translation prefix (discovered via DNS64 heuristics or
    /// RA PREF64 in real deployments; configured directly here).
    pub plat_prefix: Nat64Prefix,
}

impl Clat {
    /// Standard CLAT: 192.0.0.1 internal, given v6 source and PLAT prefix.
    pub fn new(clat_v6: Ipv6Addr, plat_prefix: Nat64Prefix) -> Clat {
        Clat {
            host_v4: Ipv4Addr::new(192, 0, 0, 1),
            clat_v6,
            plat_prefix,
        }
    }

    /// Translate an application's outbound IPv4 packet to IPv6 (stateless;
    /// ports untouched).
    pub fn v4_out(&self, pkt: &Ipv4Packet) -> Result<Ipv6Packet, XlatError> {
        let dst6 = self.plat_prefix.embed_unchecked(pkt.dst);
        siit::v4_to_v6(pkt, self.clat_v6, dst6, PortRewrite::default())
    }

    /// The IPv6 header [`Clat::v4_out`] gives a packet the local stack
    /// originates with the default TTL 64 towards `dst`: the stack emits
    /// its translated frames straight under it (ports untouched, hop limit
    /// 63 because the translator is a hop).
    pub fn out_header(&self, dst: Ipv4Addr) -> Ip {
        Ip::V6 {
            src: self.clat_v6,
            dst: self.plat_prefix.embed_unchecked(dst),
            hop_limit: 63,
            traffic_class: 0,
        }
    }

    /// The header checks of [`Clat::v6_in`] on a received packet's view,
    /// returning the IPv4 source the translation gives it. Ports and
    /// identifiers are untouched, so the transport view is read as is.
    pub fn in_source(&self, ip: &Ipv6View<'_>) -> Result<Ipv4Addr, XlatError> {
        if ip.dst != self.clat_v6 {
            return Err(XlatError::NotInPrefix(ip.dst));
        }
        let src4 = self
            .plat_prefix
            .extract(ip.src)
            .map_err(|_| XlatError::NotInPrefix(ip.src))?;
        if ip.hop_limit <= 1 {
            return Err(XlatError::HopLimitExceeded);
        }
        Ok(src4)
    }

    /// Translate an inbound IPv6 packet (from the PLAT) back to IPv4 for the
    /// local application.
    pub fn v6_in(&self, pkt: &Ipv6Packet) -> Result<Ipv4Packet, XlatError> {
        if pkt.dst != self.clat_v6 {
            return Err(XlatError::NotInPrefix(pkt.dst));
        }
        let src4 = self
            .plat_prefix
            .extract(pkt.src)
            .map_err(|_| XlatError::NotInPrefix(pkt.src))?;
        siit::v6_to_v4(pkt, src4, self.host_v4, PortRewrite::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nat64::Nat64;
    use v6wire::ipv4::proto;
    use v6wire::udp::UdpDatagram;

    fn clat() -> Clat {
        Clat::new(
            "2607:fb90:9bda:a425::c1a7".parse().unwrap(),
            Nat64Prefix::well_known(),
        )
    }

    /// Echolink-style traffic: an app sends UDP to an IPv4 literal.
    #[test]
    fn v4_literal_app_traffic_translates_out() {
        let c = clat();
        let d = UdpDatagram::new(5198, 5198, b"RTP audio".to_vec());
        let pkt = Ipv4Packet::new(
            c.host_v4,
            "44.12.7.9".parse().unwrap(), // IPv4 literal from the app
            proto::UDP,
            d.encode_v4(c.host_v4, "44.12.7.9".parse().unwrap()),
        );
        let out = c.v4_out(&pkt).unwrap();
        assert_eq!(out.src, c.clat_v6);
        assert_eq!(out.dst, "64:ff9b::2c0c:709".parse::<Ipv6Addr>().unwrap());
        let od = UdpDatagram::decode_v6(&out.payload, out.src, out.dst).unwrap();
        assert_eq!(od, d);
    }

    #[test]
    fn inbound_restores_v4_view() {
        let c = clat();
        let d = UdpDatagram::new(5198, 5198, b"reply".to_vec());
        let src6 = Nat64Prefix::well_known().embed_unchecked("44.12.7.9".parse().unwrap());
        let pkt = Ipv6Packet::new(src6, c.clat_v6, proto::UDP, d.encode_v6(src6, c.clat_v6));
        let back = c.v6_in(&pkt).unwrap();
        assert_eq!(back.src, "44.12.7.9".parse::<Ipv4Addr>().unwrap());
        assert_eq!(back.dst, c.host_v4);
    }

    #[test]
    fn inbound_to_wrong_address_rejected() {
        let c = clat();
        let d = UdpDatagram::new(1, 2, vec![]);
        let src6: Ipv6Addr = "64:ff9b::1.2.3.4".parse().unwrap();
        let other: Ipv6Addr = "2607:fb90:9bda:a425::beef".parse().unwrap();
        let pkt = Ipv6Packet::new(src6, other, proto::UDP, d.encode_v6(src6, other));
        assert!(c.v6_in(&pkt).is_err());
    }

    /// The full 464XLAT path: app v4 → CLAT → (v6 network) → PLAT/NAT64 →
    /// v4 internet and back. This is the complete plumbing that makes
    /// RFC 8925 clients transparent to v4-literal applications.
    #[test]
    fn full_464xlat_path() {
        let c = clat();
        let mut plat = Nat64::well_known_on(vec!["203.0.113.64".parse().unwrap()]);
        let server: Ipv4Addr = "44.12.7.9".parse().unwrap();

        // Outbound app packet.
        let d = UdpDatagram::new(5198, 5198, b"hello repeater".to_vec());
        let app = Ipv4Packet::new(
            c.host_v4,
            server,
            proto::UDP,
            d.encode_v4(c.host_v4, server),
        );
        let on_wire_v6 = c.v4_out(&app).unwrap();
        let at_server = plat.v6_to_v4(&on_wire_v6, 100).unwrap();
        assert_eq!(at_server.dst, server);
        let sd = UdpDatagram::decode_v4(&at_server.payload, at_server.src, at_server.dst).unwrap();
        assert_eq!(sd.payload, b"hello repeater");

        // Server reply retraces the path.
        let reply = UdpDatagram::new(5198, sd.src_port, b"audio".to_vec());
        let rpkt = Ipv4Packet::new(
            server,
            at_server.src,
            proto::UDP,
            reply.encode_v4(server, at_server.src),
        );
        let back_v6 = plat.v4_to_v6(&rpkt, 101).unwrap();
        let back_v4 = c.v6_in(&back_v6).unwrap();
        assert_eq!(back_v4.src, server);
        assert_eq!(back_v4.dst, c.host_v4);
        let rd = UdpDatagram::decode_v4(&back_v4.payload, back_v4.src, back_v4.dst).unwrap();
        assert_eq!(rd.dst_port, 5198);
        assert_eq!(rd.payload, b"audio");
    }

    #[test]
    fn custom_plat_prefix() {
        let c = Clat::new(
            "2001:db8:aaaa::c1a7".parse().unwrap(),
            Nat64Prefix::new("2001:db8:64::/96".parse().unwrap()).unwrap(),
        );
        let d = UdpDatagram::new(1000, 2000, vec![7]);
        let dst: Ipv4Addr = "198.51.100.1".parse().unwrap();
        let pkt = Ipv4Packet::new(c.host_v4, dst, proto::UDP, d.encode_v4(c.host_v4, dst));
        let out = c.v4_out(&pkt).unwrap();
        assert_eq!(
            out.dst,
            "2001:db8:64::c633:6401".parse::<Ipv6Addr>().unwrap()
        );
    }
}
