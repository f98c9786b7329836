//! DHCPv4 snooping — the managed-switch feature the paper used to silence
//! the 5G gateway's unkillable built-in DHCP pool: "DHCPv4 snooping was
//! configured on the managed switch to block the 5G mobile Internet
//! gateway's DHCPv4 pool, and a Raspberry Pi DHCP server was utilized to
//! support DHCPv4 option 108" (§IV.A).

use crate::codec::{DhcpMessage, DhcpMessageType};
use std::collections::HashSet;

/// A switch port identifier.
pub type PortId = u32;

/// Why a message was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnoopVerdict {
    /// Forwarded.
    Permit,
    /// Server message arrived on an untrusted port.
    DropUntrustedServer,
}

/// Per-switch DHCP snooping state.
#[derive(Debug, Default)]
pub struct DhcpSnoop {
    trusted: HashSet<PortId>,
    /// Messages dropped, per the switch's counters.
    pub dropped: u64,
    /// Messages permitted.
    pub permitted: u64,
}

impl DhcpSnoop {
    /// Snooping with no trusted ports (drops *all* server traffic).
    pub fn new() -> DhcpSnoop {
        DhcpSnoop::default()
    }

    /// Mark `port` as trusted (where the legitimate server lives).
    pub fn trust(&mut self, port: PortId) -> &mut Self {
        self.trusted.insert(port);
        self
    }

    /// Un-trust a port.
    pub fn untrust(&mut self, port: PortId) -> &mut Self {
        self.trusted.remove(&port);
        self
    }

    /// Is `port` trusted?
    pub fn is_trusted(&self, port: PortId) -> bool {
        self.trusted.contains(&port)
    }

    /// Zero the drop/permit counters; the trusted-port set is
    /// configuration and survives (warm-cell arena reuse).
    pub fn reset(&mut self) {
        self.dropped = 0;
        self.permitted = 0;
    }

    /// Judge one DHCP message arriving on `ingress`.
    pub fn inspect(&mut self, ingress: PortId, msg: &DhcpMessage) -> SnoopVerdict {
        self.inspect_kind(ingress, msg.is_reply, msg.message_type())
    }

    /// [`DhcpSnoop::inspect`] on the fields [`DhcpMessage::peek_kind`]
    /// reads straight from the wire.
    pub fn inspect_kind(
        &mut self,
        ingress: PortId,
        is_reply: bool,
        message_type: Option<DhcpMessageType>,
    ) -> SnoopVerdict {
        let is_server_msg =
            is_reply || message_type.is_some_and(DhcpMessageType::is_server_message);
        if is_server_msg && !self.trusted.contains(&ingress) {
            self.dropped += 1;
            SnoopVerdict::DropUntrustedServer
        } else {
            self.permitted += 1;
            SnoopVerdict::Permit
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6wire::mac::MacAddr;

    fn mac() -> MacAddr {
        MacAddr::new([2, 0, 0, 0, 2, 1])
    }

    const GATEWAY_PORT: PortId = 1;
    const PI_PORT: PortId = 2;
    const CLIENT_PORT: PortId = 3;

    fn testbed_snoop() -> DhcpSnoop {
        // Fig. 4 topology: trust only the Raspberry Pi's port.
        let mut s = DhcpSnoop::new();
        s.trust(PI_PORT);
        s
    }

    #[test]
    fn gateway_offer_blocked_pi_offer_allowed() {
        let mut s = testbed_snoop();
        let req = DhcpMessage::client(DhcpMessageType::Discover, 1, mac());
        let offer = DhcpMessage::reply(DhcpMessageType::Offer, &req);
        assert_eq!(
            s.inspect(GATEWAY_PORT, &offer),
            SnoopVerdict::DropUntrustedServer,
            "the 5G gateway's pool must be silenced"
        );
        assert_eq!(s.inspect(PI_PORT, &offer), SnoopVerdict::Permit);
        assert_eq!((s.dropped, s.permitted), (1, 1));
    }

    #[test]
    fn client_messages_flow_from_any_port() {
        let mut s = testbed_snoop();
        for mt in [
            DhcpMessageType::Discover,
            DhcpMessageType::Request,
            DhcpMessageType::Release,
            DhcpMessageType::Inform,
        ] {
            let msg = DhcpMessage::client(mt, 2, mac());
            assert_eq!(s.inspect(CLIENT_PORT, &msg), SnoopVerdict::Permit, "{mt:?}");
        }
    }

    #[test]
    fn rogue_ack_and_nak_blocked() {
        let mut s = testbed_snoop();
        let req = DhcpMessage::client(DhcpMessageType::Request, 3, mac());
        for mt in [DhcpMessageType::Ack, DhcpMessageType::Nak] {
            let reply = DhcpMessage::reply(mt, &req);
            assert_eq!(
                s.inspect(CLIENT_PORT, &reply),
                SnoopVerdict::DropUntrustedServer
            );
        }
    }

    #[test]
    fn trust_is_revocable() {
        let mut s = testbed_snoop();
        s.untrust(PI_PORT);
        let req = DhcpMessage::client(DhcpMessageType::Discover, 4, mac());
        let offer = DhcpMessage::reply(DhcpMessageType::Offer, &req);
        assert_eq!(
            s.inspect(PI_PORT, &offer),
            SnoopVerdict::DropUntrustedServer
        );
        assert!(!s.is_trusted(PI_PORT));
    }
}
