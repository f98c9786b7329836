//! Property-based tests for DHCPv4: codec round-trips with arbitrary option
//! mixtures, and server-pool invariants (no double allocation, option 108
//! only on request).

use proptest::prelude::*;
use std::net::Ipv4Addr;
use v6dhcp::client::{ClientEvent, DhcpClient};
use v6dhcp::codec::{DhcpMessage, DhcpMessageType, DhcpOption};
use v6dhcp::server::{DhcpServer, ServerConfig};
use v6wire::mac::MacAddr;

fn arb_mac() -> impl Strategy<Value = MacAddr> {
    any::<[u8; 6]>().prop_map(MacAddr::new)
}

fn arb_v4() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

fn arb_option() -> impl Strategy<Value = DhcpOption> {
    prop_oneof![
        arb_v4().prop_map(DhcpOption::SubnetMask),
        proptest::collection::vec(arb_v4(), 1..4).prop_map(DhcpOption::Router),
        proptest::collection::vec(arb_v4(), 1..4).prop_map(DhcpOption::DnsServers),
        "[a-z0-9.-]{1,40}".prop_map(DhcpOption::HostName),
        "[a-z0-9.-]{1,40}".prop_map(DhcpOption::DomainName),
        arb_v4().prop_map(DhcpOption::RequestedIp),
        any::<u32>().prop_map(DhcpOption::LeaseTime),
        arb_v4().prop_map(DhcpOption::ServerId),
        proptest::collection::vec(any::<u8>(), 1..16).prop_map(DhcpOption::ParameterRequestList),
        any::<u32>().prop_map(DhcpOption::V6OnlyPreferred),
        "[ -~]{1,60}".prop_map(DhcpOption::CaptivePortal),
        (160u8..250, proptest::collection::vec(any::<u8>(), 0..32))
            .prop_map(|(c, d)| DhcpOption::Other(c, d)),
    ]
}

proptest! {
    #[test]
    fn message_roundtrip(
        xid in any::<u32>(),
        mac in arb_mac(),
        is_reply in any::<bool>(),
        secs in any::<u16>(),
        broadcast in any::<bool>(),
        yiaddr in arb_v4(),
        options in proptest::collection::vec(arb_option(), 0..8),
        mt in 1u8..=8,
    ) {
        let mut m = DhcpMessage::client(
            DhcpMessageType::Discover, // replaced below
            xid,
            mac,
        );
        m.options.clear();
        m.options.push(DhcpOption::MessageType(match mt {
            1 => DhcpMessageType::Discover,
            2 => DhcpMessageType::Offer,
            3 => DhcpMessageType::Request,
            4 => DhcpMessageType::Decline,
            5 => DhcpMessageType::Ack,
            6 => DhcpMessageType::Nak,
            7 => DhcpMessageType::Release,
            _ => DhcpMessageType::Inform,
        }));
        m.options.extend(options);
        m.is_reply = is_reply;
        m.secs = secs;
        m.broadcast = broadcast;
        m.yiaddr = yiaddr;
        prop_assert_eq!(DhcpMessage::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = DhcpMessage::decode(&bytes);
        let _ = DhcpMessage::peek_kind(&bytes);
    }

    /// The snooping peek accepts exactly what the owned decoder accepts,
    /// with the same error, and reads the same reply flag and message type
    /// — over valid messages and their single-byte corruptions and
    /// truncations in the option area.
    #[test]
    fn peek_kind_agrees_with_decode(
        opts in proptest::collection::vec(arb_option(), 0..6),
        reply in any::<bool>(),
        at in 0usize..120,
        byte in any::<u8>(),
        cut in 0usize..120,
    ) {
        let mut m = DhcpMessage::client(DhcpMessageType::Discover, 7, MacAddr::new([2, 0, 0, 0, 0, 1]));
        m.is_reply = reply;
        m.options.extend(opts);
        let clean = m.encode();
        let mut corrupt = clean.clone();
        let i = 236 + at % (corrupt.len() - 236);
        corrupt[i] = byte;
        let short = &clean[..clean.len() - cut.min(clean.len() - 230)];
        for bytes in [&clean[..], &corrupt[..], short] {
            let owned = DhcpMessage::decode(bytes).map(|d| (d.is_reply, d.message_type()));
            prop_assert_eq!(DhcpMessage::peek_kind(bytes), owned);
        }
    }

    /// No two concurrent clients ever receive the same address, regardless
    /// of arrival order, and option 108 appears exactly for requesters.
    #[test]
    fn server_pool_no_double_allocation(
        macs in proptest::collection::hash_set(any::<[u8; 6]>(), 2..12),
        with_108 in any::<bool>(),
    ) {
        let mut server = DhcpServer::new(ServerConfig::testbed(
            "192.168.12.250".parse().unwrap(),
        ));
        let mut assigned = std::collections::HashSet::new();
        for m in macs {
            let mac = MacAddr::new(m);
            let mut client = DhcpClient::new(mac, with_108);
            let mut ev = client.start(0);
            let mut got: Option<Ipv4Addr> = None;
            for _ in 0..6 {
                match ev {
                    ClientEvent::Send(msg) => match server.handle(&msg, 0) {
                        Some(reply) => {
                            if reply.message_type() == Some(DhcpMessageType::Offer)
                                || reply.message_type() == Some(DhcpMessageType::Ack)
                            {
                                // Option 108 only for capable clients.
                                prop_assert_eq!(
                                    reply.v6only_wait().is_some(),
                                    with_108,
                                    "108 presence must track the PRL"
                                );
                            }
                            ev = client.receive(&reply, 0);
                        }
                        None => break,
                    },
                    ClientEvent::Configured { ip, .. } => {
                        got = Some(ip);
                        break;
                    }
                    ClientEvent::V6OnlyMode { .. } => break,
                    ClientEvent::Idle => break,
                }
            }
            if let Some(ip) = got {
                prop_assert!(!with_108, "capable clients must not bind");
                prop_assert!(assigned.insert(ip), "address {ip} double-allocated");
            }
        }
    }

    /// A lease, once expired, is reusable; before expiry it is not.
    #[test]
    fn lease_expiry_boundary(lease_time in 60u32..7200) {
        let mut cfg = ServerConfig::testbed("192.168.12.250".parse().unwrap());
        cfg.lease_time = lease_time;
        cfg.range = (20, 20); // single address
        let mut server = DhcpServer::new(cfg);
        let m1 = MacAddr::new([2, 0, 0, 0, 0, 1]);
        let m2 = MacAddr::new([2, 0, 0, 0, 0, 2]);
        // m1 takes the only address.
        let mut d = DhcpMessage::client(DhcpMessageType::Discover, 1, m1);
        d.options.push(DhcpOption::ParameterRequestList(vec![1, 3, 6]));
        let offer = server.handle(&d, 0).unwrap();
        let mut r = DhcpMessage::client(DhcpMessageType::Request, 1, m1);
        r.options.push(DhcpOption::RequestedIp(offer.yiaddr));
        server.handle(&r, 0).unwrap();
        // m2 cannot get an address until the lease expires.
        let d2 = DhcpMessage::client(DhcpMessageType::Discover, 2, m2);
        prop_assert!(server.handle(&d2, u64::from(lease_time) - 1).is_none());
        prop_assert!(server.handle(&d2, u64::from(lease_time) + 1).is_some());
    }
}
