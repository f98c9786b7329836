//! DHCPv4 (RFC 2131) message wire format with the options the testbed uses.

use std::fmt;
use std::net::Ipv4Addr;
use v6wire::mac::MacAddr;

/// Decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DhcpError {
    /// Input too short for `what`.
    Truncated(&'static str),
    /// Missing or wrong magic cookie.
    BadCookie(u32),
    /// Missing message-type option (53).
    NoMessageType,
    /// A field had an unusable value.
    BadField(&'static str, u64),
}

impl fmt::Display for DhcpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DhcpError::Truncated(w) => write!(f, "dhcp: truncated {w}"),
            DhcpError::BadCookie(c) => write!(f, "dhcp: bad magic cookie {c:#010x}"),
            DhcpError::NoMessageType => write!(f, "dhcp: missing option 53"),
            DhcpError::BadField(w, v) => write!(f, "dhcp: bad {w} value {v}"),
        }
    }
}

impl std::error::Error for DhcpError {}

/// DHCP message types (option 53).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DhcpMessageType {
    /// 1.
    Discover,
    /// 2.
    Offer,
    /// 3.
    Request,
    /// 4.
    Decline,
    /// 5.
    Ack,
    /// 6.
    Nak,
    /// 7.
    Release,
    /// 8.
    Inform,
}

impl DhcpMessageType {
    fn to_u8(self) -> u8 {
        match self {
            DhcpMessageType::Discover => 1,
            DhcpMessageType::Offer => 2,
            DhcpMessageType::Request => 3,
            DhcpMessageType::Decline => 4,
            DhcpMessageType::Ack => 5,
            DhcpMessageType::Nak => 6,
            DhcpMessageType::Release => 7,
            DhcpMessageType::Inform => 8,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            1 => DhcpMessageType::Discover,
            2 => DhcpMessageType::Offer,
            3 => DhcpMessageType::Request,
            4 => DhcpMessageType::Decline,
            5 => DhcpMessageType::Ack,
            6 => DhcpMessageType::Nak,
            7 => DhcpMessageType::Release,
            8 => DhcpMessageType::Inform,
            _ => return None,
        })
    }

    /// Is this a message only servers send? (What DHCP snooping filters on.)
    pub fn is_server_message(self) -> bool {
        matches!(
            self,
            DhcpMessageType::Offer | DhcpMessageType::Ack | DhcpMessageType::Nak
        )
    }
}

/// DHCP options (the subset the testbed exchanges, others carried raw).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DhcpOption {
    /// 1: subnet mask.
    SubnetMask(Ipv4Addr),
    /// 3: default routers.
    Router(Vec<Ipv4Addr>),
    /// 6: DNS servers — where the poisoned resolver address is delivered.
    DnsServers(Vec<Ipv4Addr>),
    /// 12: host name.
    HostName(String),
    /// 15: domain name — the `rfc8925.com` suffix from the paper's Fig. 7/9.
    DomainName(String),
    /// 50: requested IP address.
    RequestedIp(Ipv4Addr),
    /// 51: lease time (seconds).
    LeaseTime(u32),
    /// 53: message type.
    MessageType(DhcpMessageType),
    /// 54: server identifier.
    ServerId(Ipv4Addr),
    /// 55: parameter request list — clients advertise RFC 8925 support by
    /// listing 108 here.
    ParameterRequestList(Vec<u8>),
    /// 108: IPv6-Only Preferred (RFC 8925) — value is `V6ONLY_WAIT` seconds.
    V6OnlyPreferred(u32),
    /// 114: captive-portal URI (RFC 8910) — the in-flight-WiFi-style
    /// notification channel §IV aspires to.
    CaptivePortal(String),
    /// Anything else (code, raw payload).
    Other(u8, Vec<u8>),
}

impl DhcpOption {
    /// The option code.
    pub fn code(&self) -> u8 {
        match self {
            DhcpOption::SubnetMask(_) => 1,
            DhcpOption::Router(_) => 3,
            DhcpOption::DnsServers(_) => 6,
            DhcpOption::HostName(_) => 12,
            DhcpOption::DomainName(_) => 15,
            DhcpOption::RequestedIp(_) => 50,
            DhcpOption::LeaseTime(_) => 51,
            DhcpOption::MessageType(_) => 53,
            DhcpOption::ServerId(_) => 54,
            DhcpOption::ParameterRequestList(_) => 55,
            DhcpOption::V6OnlyPreferred(_) => 108,
            DhcpOption::CaptivePortal(_) => 114,
            DhcpOption::Other(c, _) => *c,
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        let code = self.code();
        match self {
            DhcpOption::SubnetMask(a) | DhcpOption::RequestedIp(a) | DhcpOption::ServerId(a) => {
                out.push(code);
                out.push(4);
                out.extend_from_slice(&a.octets());
            }
            DhcpOption::Router(addrs) | DhcpOption::DnsServers(addrs) => {
                out.push(code);
                out.push((addrs.len() * 4) as u8);
                for a in addrs {
                    out.extend_from_slice(&a.octets());
                }
            }
            DhcpOption::HostName(s) | DhcpOption::DomainName(s) | DhcpOption::CaptivePortal(s) => {
                let b = s.as_bytes();
                out.push(code);
                out.push(b.len().min(255) as u8);
                out.extend_from_slice(&b[..b.len().min(255)]);
            }
            DhcpOption::LeaseTime(v) | DhcpOption::V6OnlyPreferred(v) => {
                out.push(code);
                out.push(4);
                out.extend_from_slice(&v.to_be_bytes());
            }
            DhcpOption::MessageType(t) => {
                out.push(code);
                out.push(1);
                out.push(t.to_u8());
            }
            DhcpOption::ParameterRequestList(codes) => {
                out.push(code);
                out.push(codes.len() as u8);
                out.extend_from_slice(codes);
            }
            DhcpOption::Other(_, data) => {
                out.push(code);
                out.push(data.len().min(255) as u8);
                out.extend_from_slice(&data[..data.len().min(255)]);
            }
        }
    }

    /// Validate one option exactly as [`DhcpOption::decode`] would,
    /// returning the message type when this is option 53.
    fn check(code: u8, data: &[u8]) -> Result<Option<DhcpMessageType>, DhcpError> {
        match code {
            1 | 50 | 54 if data.len() < 4 => Err(DhcpError::Truncated("option-ip")),
            3 | 6 if !data.len().is_multiple_of(4) => {
                Err(DhcpError::BadField("option-ip-list", data.len() as u64))
            }
            51 | 108 if data.len() < 4 => Err(DhcpError::Truncated("option-u32")),
            53 => data
                .first()
                .copied()
                .and_then(DhcpMessageType::from_u8)
                .map(Some)
                .ok_or(DhcpError::NoMessageType),
            _ => Ok(None),
        }
    }

    fn decode(code: u8, data: &[u8]) -> Result<DhcpOption, DhcpError> {
        let ip = |d: &[u8]| -> Result<Ipv4Addr, DhcpError> {
            if d.len() < 4 {
                return Err(DhcpError::Truncated("option-ip"));
            }
            Ok(Ipv4Addr::new(d[0], d[1], d[2], d[3]))
        };
        let ips = |d: &[u8]| -> Result<Vec<Ipv4Addr>, DhcpError> {
            if !d.len().is_multiple_of(4) {
                return Err(DhcpError::BadField("option-ip-list", d.len() as u64));
            }
            Ok(d.chunks_exact(4)
                .map(|c| Ipv4Addr::new(c[0], c[1], c[2], c[3]))
                .collect())
        };
        let u32be = |d: &[u8]| -> Result<u32, DhcpError> {
            if d.len() < 4 {
                return Err(DhcpError::Truncated("option-u32"));
            }
            Ok(u32::from_be_bytes([d[0], d[1], d[2], d[3]]))
        };
        Ok(match code {
            1 => DhcpOption::SubnetMask(ip(data)?),
            3 => DhcpOption::Router(ips(data)?),
            6 => DhcpOption::DnsServers(ips(data)?),
            12 => DhcpOption::HostName(String::from_utf8_lossy(data).into_owned()),
            15 => DhcpOption::DomainName(String::from_utf8_lossy(data).into_owned()),
            50 => DhcpOption::RequestedIp(ip(data)?),
            51 => DhcpOption::LeaseTime(u32be(data)?),
            53 => DhcpOption::MessageType(
                data.first()
                    .copied()
                    .and_then(DhcpMessageType::from_u8)
                    .ok_or(DhcpError::NoMessageType)?,
            ),
            54 => DhcpOption::ServerId(ip(data)?),
            55 => DhcpOption::ParameterRequestList(data.to_vec()),
            108 => DhcpOption::V6OnlyPreferred(u32be(data)?),
            114 => DhcpOption::CaptivePortal(String::from_utf8_lossy(data).into_owned()),
            other => DhcpOption::Other(other, data.to_vec()),
        })
    }
}

/// A DHCPv4 message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DhcpMessage {
    /// BOOTREQUEST (1) vs BOOTREPLY (2).
    pub is_reply: bool,
    /// Transaction id.
    pub xid: u32,
    /// Seconds elapsed.
    pub secs: u16,
    /// Broadcast flag.
    pub broadcast: bool,
    /// Client's current address (renewals).
    pub ciaddr: Ipv4Addr,
    /// "Your" address being offered/assigned.
    pub yiaddr: Ipv4Addr,
    /// Next-server address.
    pub siaddr: Ipv4Addr,
    /// Relay agent address.
    pub giaddr: Ipv4Addr,
    /// Client hardware address.
    pub chaddr: MacAddr,
    /// Options (message type included).
    pub options: Vec<DhcpOption>,
}

/// The DHCP magic cookie (RFC 2131 §3).
const MAGIC: u32 = 0x6382_5363;

impl DhcpMessage {
    /// A minimal client message of the given type.
    pub fn client(mt: DhcpMessageType, xid: u32, chaddr: MacAddr) -> DhcpMessage {
        DhcpMessage {
            is_reply: false,
            xid,
            secs: 0,
            broadcast: true,
            ciaddr: Ipv4Addr::UNSPECIFIED,
            yiaddr: Ipv4Addr::UNSPECIFIED,
            siaddr: Ipv4Addr::UNSPECIFIED,
            giaddr: Ipv4Addr::UNSPECIFIED,
            chaddr,
            options: vec![DhcpOption::MessageType(mt)],
        }
    }

    /// A server reply skeleton answering `req`.
    pub fn reply(mt: DhcpMessageType, req: &DhcpMessage) -> DhcpMessage {
        DhcpMessage {
            is_reply: true,
            xid: req.xid,
            secs: 0,
            broadcast: req.broadcast,
            ciaddr: Ipv4Addr::UNSPECIFIED,
            yiaddr: Ipv4Addr::UNSPECIFIED,
            siaddr: Ipv4Addr::UNSPECIFIED,
            giaddr: req.giaddr,
            chaddr: req.chaddr,
            options: vec![DhcpOption::MessageType(mt)],
        }
    }

    /// The message type (first option 53).
    pub fn message_type(&self) -> Option<DhcpMessageType> {
        self.options.iter().find_map(|o| match o {
            DhcpOption::MessageType(t) => Some(*t),
            _ => None,
        })
    }

    /// Look up an option by code.
    pub fn option(&self, code: u8) -> Option<&DhcpOption> {
        self.options.iter().find(|o| o.code() == code)
    }

    /// Did the client list option 108 in its parameter request list,
    /// i.e. does it support RFC 8925?
    pub fn requests_v6only(&self) -> bool {
        self.options.iter().any(|o| match o {
            DhcpOption::ParameterRequestList(codes) => codes.contains(&108),
            _ => false,
        })
    }

    /// The `V6ONLY_WAIT` value, if option 108 is present.
    pub fn v6only_wait(&self) -> Option<u32> {
        self.options.iter().find_map(|o| match o {
            DhcpOption::V6OnlyPreferred(w) => Some(*w),
            _ => None,
        })
    }

    /// The offered DNS servers, if option 6 is present.
    pub fn dns_servers(&self) -> Vec<Ipv4Addr> {
        self.options
            .iter()
            .find_map(|o| match o {
                DhcpOption::DnsServers(v) => Some(v.clone()),
                _ => None,
            })
            .unwrap_or_default()
    }

    /// Serialize to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(300);
        self.encode_into(&mut out);
        out
    }

    /// Append the wire form to `out` (a frame buffer on the hot path).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(if self.is_reply { 2 } else { 1 });
        out.push(1); // htype: Ethernet
        out.push(6); // hlen
        out.push(0); // hops
        out.extend_from_slice(&self.xid.to_be_bytes());
        out.extend_from_slice(&self.secs.to_be_bytes());
        out.extend_from_slice(&(if self.broadcast { 0x8000u16 } else { 0 }).to_be_bytes());
        out.extend_from_slice(&self.ciaddr.octets());
        out.extend_from_slice(&self.yiaddr.octets());
        out.extend_from_slice(&self.siaddr.octets());
        out.extend_from_slice(&self.giaddr.octets());
        out.extend_from_slice(&self.chaddr.0);
        out.extend_from_slice(&[0u8; 10]); // chaddr padding
        out.extend_from_slice(&[0u8; 64]); // sname
        out.extend_from_slice(&[0u8; 128]); // file
        out.extend_from_slice(&MAGIC.to_be_bytes());
        for opt in &self.options {
            opt.encode(out);
        }
        out.push(255); // end
    }

    /// What DHCP snooping reads — the BOOTREPLY flag and the message type
    /// (first option 53) — with exactly [`DhcpMessage::decode`]'s
    /// accept/reject behaviour but without building the option list.
    pub fn peek_kind(buf: &[u8]) -> Result<(bool, Option<DhcpMessageType>), DhcpError> {
        if buf.len() < 240 {
            return Err(DhcpError::Truncated("fixed-header"));
        }
        let op = buf[0];
        if op != 1 && op != 2 {
            return Err(DhcpError::BadField("op", u64::from(op)));
        }
        let cookie = u32::from_be_bytes([buf[236], buf[237], buf[238], buf[239]]);
        if cookie != MAGIC {
            return Err(DhcpError::BadCookie(cookie));
        }
        let mut kind = None;
        let mut pos = 240;
        while pos < buf.len() {
            let code = buf[pos];
            pos += 1;
            match code {
                0 => continue,
                255 => break,
                _ => {
                    if pos >= buf.len() {
                        return Err(DhcpError::Truncated("option-len"));
                    }
                    let len = buf[pos] as usize;
                    pos += 1;
                    if pos + len > buf.len() {
                        return Err(DhcpError::Truncated("option-data"));
                    }
                    let mt = DhcpOption::check(code, &buf[pos..pos + len])?;
                    kind = kind.or(mt);
                    pos += len;
                }
            }
        }
        Ok((op == 2, kind))
    }

    /// Parse from wire bytes.
    pub fn decode(buf: &[u8]) -> Result<DhcpMessage, DhcpError> {
        if buf.len() < 240 {
            return Err(DhcpError::Truncated("fixed-header"));
        }
        let op = buf[0];
        if op != 1 && op != 2 {
            return Err(DhcpError::BadField("op", u64::from(op)));
        }
        let cookie = u32::from_be_bytes([buf[236], buf[237], buf[238], buf[239]]);
        if cookie != MAGIC {
            return Err(DhcpError::BadCookie(cookie));
        }
        let mut options = Vec::new();
        let mut pos = 240;
        while pos < buf.len() {
            let code = buf[pos];
            pos += 1;
            match code {
                0 => continue, // pad
                255 => break,  // end
                _ => {
                    if pos >= buf.len() {
                        return Err(DhcpError::Truncated("option-len"));
                    }
                    let len = buf[pos] as usize;
                    pos += 1;
                    if pos + len > buf.len() {
                        return Err(DhcpError::Truncated("option-data"));
                    }
                    options.push(DhcpOption::decode(code, &buf[pos..pos + len])?);
                    pos += len;
                }
            }
        }
        Ok(DhcpMessage {
            is_reply: op == 2,
            xid: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
            secs: u16::from_be_bytes([buf[8], buf[9]]),
            broadcast: u16::from_be_bytes([buf[10], buf[11]]) & 0x8000 != 0,
            ciaddr: Ipv4Addr::new(buf[12], buf[13], buf[14], buf[15]),
            yiaddr: Ipv4Addr::new(buf[16], buf[17], buf[18], buf[19]),
            siaddr: Ipv4Addr::new(buf[20], buf[21], buf[22], buf[23]),
            giaddr: Ipv4Addr::new(buf[24], buf[25], buf[26], buf[27]),
            chaddr: MacAddr::decode(&buf[28..34]).map_err(|_| DhcpError::Truncated("chaddr"))?,
            options,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac() -> MacAddr {
        MacAddr::new([0x00, 0x00, 0x59, 0xaa, 0xc6, 0xa3])
    }

    fn discover_with_108() -> DhcpMessage {
        let mut m = DhcpMessage::client(DhcpMessageType::Discover, 0xdead_beef, mac());
        m.options.push(DhcpOption::ParameterRequestList(vec![
            1, 3, 6, 15, 108, 114,
        ]));
        m.options.push(DhcpOption::HostName("macbook".into()));
        m
    }

    #[test]
    fn discover_roundtrip() {
        let m = discover_with_108();
        let decoded = DhcpMessage::decode(&m.encode()).unwrap();
        assert_eq!(decoded, m);
        assert!(decoded.requests_v6only());
        assert_eq!(decoded.message_type(), Some(DhcpMessageType::Discover));
    }

    #[test]
    fn offer_with_108_roundtrip() {
        let req = discover_with_108();
        let mut offer = DhcpMessage::reply(DhcpMessageType::Offer, &req);
        offer.yiaddr = "192.168.12.60".parse().unwrap();
        offer
            .options
            .push(DhcpOption::ServerId("192.168.12.251".parse().unwrap()));
        offer
            .options
            .push(DhcpOption::SubnetMask("255.255.255.0".parse().unwrap()));
        offer
            .options
            .push(DhcpOption::Router(vec!["192.168.12.1".parse().unwrap()]));
        offer
            .options
            .push(DhcpOption::DnsServers(vec!["192.168.12.250"
                .parse()
                .unwrap()]));
        offer.options.push(DhcpOption::LeaseTime(3600));
        offer.options.push(DhcpOption::V6OnlyPreferred(1800));
        offer
            .options
            .push(DhcpOption::DomainName("rfc8925.com".into()));
        offer.options.push(DhcpOption::CaptivePortal(
            "https://portal.rfc8925.com/why-no-internet".into(),
        ));
        let decoded = DhcpMessage::decode(&offer.encode()).unwrap();
        assert_eq!(decoded, offer);
        assert_eq!(decoded.v6only_wait(), Some(1800));
        assert_eq!(
            decoded.dns_servers(),
            vec!["192.168.12.250".parse::<Ipv4Addr>().unwrap()]
        );
    }

    #[test]
    fn no_108_in_prl_means_unsupported() {
        let mut m = DhcpMessage::client(DhcpMessageType::Discover, 1, mac());
        m.options
            .push(DhcpOption::ParameterRequestList(vec![1, 3, 6, 15]));
        assert!(!m.requests_v6only());
        assert_eq!(m.v6only_wait(), None);
    }

    #[test]
    fn bad_cookie_rejected() {
        let mut bytes = discover_with_108().encode();
        bytes[236] = 0;
        assert!(matches!(
            DhcpMessage::decode(&bytes),
            Err(DhcpError::BadCookie(_))
        ));
    }

    #[test]
    fn truncated_rejected() {
        let bytes = discover_with_108().encode();
        assert!(DhcpMessage::decode(&bytes[..239]).is_err());
    }

    #[test]
    fn pad_options_skipped() {
        let mut bytes = DhcpMessage::client(DhcpMessageType::Discover, 2, mac()).encode();
        // Insert pads before END: remove END, add pads, re-add END.
        assert_eq!(bytes.pop(), Some(255));
        bytes.extend_from_slice(&[0, 0, 0, 255]);
        let decoded = DhcpMessage::decode(&bytes).unwrap();
        assert_eq!(decoded.message_type(), Some(DhcpMessageType::Discover));
    }

    #[test]
    fn server_message_classification() {
        assert!(DhcpMessageType::Offer.is_server_message());
        assert!(DhcpMessageType::Ack.is_server_message());
        assert!(DhcpMessageType::Nak.is_server_message());
        assert!(!DhcpMessageType::Discover.is_server_message());
        assert!(!DhcpMessageType::Request.is_server_message());
    }

    #[test]
    fn unknown_option_preserved() {
        let mut m = DhcpMessage::client(DhcpMessageType::Inform, 3, mac());
        m.options.push(DhcpOption::Other(43, vec![9, 9, 9]));
        let decoded = DhcpMessage::decode(&m.encode()).unwrap();
        assert_eq!(
            decoded.option(43),
            Some(&DhcpOption::Other(43, vec![9, 9, 9]))
        );
    }
}
