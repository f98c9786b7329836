//! Borrowed, zero-copy frame views over pooled buffers.
//!
//! [`FrameView::parse`] walks the same Ethernet → IP → transport layering as
//! [`crate::packet::ParsedFrame::parse`] but never copies a payload: every
//! view borrows from the input slice, scalar fields are decoded on the spot,
//! and variable-length content (NDP options, invoking packets, payloads) is
//! kept as a validated sub-slice that can be re-walked or converted on
//! demand.
//!
//! The contract with the owned codecs is *strict observational equality*,
//! machine-checked by `tests/conformance.rs`:
//!
//! * `FrameView::parse(raw)` succeeds exactly when `ParsedFrame::parse(raw)`
//!   does, and `view.to_owned()` equals the owned parse;
//! * on malformed input both return the **same** [`WireError`] value —
//!   including the `need`/`have` counts of truncations and the
//!   `found`/`expected` pair of checksum failures.
//!
//! To keep that guarantee auditable, each view decoder replicates the owned
//! decoder's validation order line for line; the only intentional difference
//! is that cold error paths compute "expected" checksums over three slices
//! (`before-ck`, `[0, 0]`, `after-ck`) instead of zeroing a copied buffer.

use crate::arp::ArpPacket;
use crate::checksum::{checksum, pseudo_v4, pseudo_v6, Checksum};
use crate::ethernet::{EtherType, EthernetFrame};
use crate::icmpv4::Icmpv4Message;
use crate::icmpv6::Icmpv6Message;
use crate::ipv4::{proto, Ipv4Packet};
use crate::ipv6::Ipv6Packet;
use crate::mac::MacAddr;
use crate::ndp::{
    NdpOption, NeighborAdvertisement, NeighborSolicitation, RouterAdvertisement, RouterPreference,
    RouterSolicitation,
};
use crate::packet::{ParsedFrame, L3, L4};
use crate::tcp::{TcpFlags, TcpSegment};
use crate::udp::UdpDatagram;
use crate::{be16, be32, need, WireError, WireResult};
use std::net::{Ipv4Addr, Ipv6Addr};

/// Borrowed Ethernet envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EthView<'a> {
    /// Destination MAC.
    pub dst: MacAddr,
    /// Source MAC.
    pub src: MacAddr,
    /// Payload protocol.
    pub ethertype: EtherType,
    /// L3 payload bytes (borrowed).
    pub payload: &'a [u8],
}

impl<'a> EthView<'a> {
    /// Parse the 14-byte Ethernet II header; the payload is borrowed.
    pub fn parse(buf: &'a [u8]) -> WireResult<Self> {
        if buf.len() < EthernetFrame::HEADER_LEN {
            return Err(WireError::Truncated {
                what: "ethernet",
                need: EthernetFrame::HEADER_LEN,
                have: buf.len(),
            });
        }
        Ok(EthView {
            dst: MacAddr::decode(&buf[0..6])?,
            src: MacAddr::decode(&buf[6..12])?,
            ethertype: EtherType::from_u16(be16(buf, 12, "ethernet")?),
            payload: &buf[14..],
        })
    }
}

/// Borrowed IPv4 header + payload slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4View<'a> {
    /// Differentiated services code point + ECN byte.
    pub dscp_ecn: u8,
    /// Identification field.
    pub identification: u16,
    /// Don't-fragment flag.
    pub dont_fragment: bool,
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol.
    pub protocol: u8,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Transport payload (borrowed, bounded by total-length).
    pub payload: &'a [u8],
}

impl<'a> Ipv4View<'a> {
    /// Parse, verifying version, lengths and the header checksum without
    /// copying the header.
    pub fn parse(buf: &'a [u8]) -> WireResult<Self> {
        need(buf, Ipv4Packet::HEADER_LEN, "ipv4")?;
        let version = buf[0] >> 4;
        if version != 4 {
            return Err(WireError::BadField {
                what: "ipv4-version",
                value: u64::from(version),
            });
        }
        let ihl = usize::from(buf[0] & 0x0f) * 4;
        if ihl < Ipv4Packet::HEADER_LEN {
            return Err(WireError::BadLength {
                what: "ipv4-ihl",
                claimed: ihl,
                actual: Ipv4Packet::HEADER_LEN,
            });
        }
        need(buf, ihl, "ipv4-options")?;
        let total_len = usize::from(be16(buf, 2, "ipv4")?);
        if total_len < ihl || total_len > buf.len() {
            return Err(WireError::BadLength {
                what: "ipv4-total-length",
                claimed: total_len,
                actual: buf.len(),
            });
        }
        let wire_ck = be16(buf, 10, "ipv4")?;
        let computed = checksum_excluding(&buf[..ihl], 10);
        if wire_ck != computed {
            return Err(WireError::BadChecksum {
                what: "ipv4-header",
                found: wire_ck,
                expected: computed,
            });
        }
        let flags_frag = be16(buf, 6, "ipv4")?;
        Ok(Ipv4View {
            dscp_ecn: buf[1],
            identification: be16(buf, 4, "ipv4")?,
            dont_fragment: flags_frag & 0x4000 != 0,
            ttl: buf[8],
            protocol: buf[9],
            src: Ipv4Addr::new(buf[12], buf[13], buf[14], buf[15]),
            dst: Ipv4Addr::new(buf[16], buf[17], buf[18], buf[19]),
            payload: &buf[ihl..total_len],
        })
    }
}

/// Borrowed IPv6 header + payload slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv6View<'a> {
    /// Traffic class byte.
    pub traffic_class: u8,
    /// 20-bit flow label.
    pub flow_label: u32,
    /// Next header / payload protocol.
    pub next_header: u8,
    /// Hop limit.
    pub hop_limit: u8,
    /// Source address.
    pub src: Ipv6Addr,
    /// Destination address.
    pub dst: Ipv6Addr,
    /// Transport payload (borrowed, bounded by payload-length).
    pub payload: &'a [u8],
}

impl<'a> Ipv6View<'a> {
    /// Parse the fixed 40-byte header; the payload is borrowed.
    pub fn parse(buf: &'a [u8]) -> WireResult<Self> {
        need(buf, Ipv6Packet::HEADER_LEN, "ipv6")?;
        let version = buf[0] >> 4;
        if version != 6 {
            return Err(WireError::BadField {
                what: "ipv6-version",
                value: u64::from(version),
            });
        }
        let payload_len = usize::from(be16(buf, 4, "ipv6")?);
        if Ipv6Packet::HEADER_LEN + payload_len > buf.len() {
            return Err(WireError::BadLength {
                what: "ipv6-payload-length",
                claimed: payload_len,
                actual: buf.len() - Ipv6Packet::HEADER_LEN,
            });
        }
        let mut src = [0u8; 16];
        src.copy_from_slice(&buf[8..24]);
        let mut dst = [0u8; 16];
        dst.copy_from_slice(&buf[24..40]);
        Ok(Ipv6View {
            traffic_class: ((buf[0] & 0x0f) << 4) | (buf[1] >> 4),
            flow_label: (u32::from(buf[1] & 0x0f) << 16)
                | (u32::from(buf[2]) << 8)
                | u32::from(buf[3]),
            next_header: buf[6],
            hop_limit: buf[7],
            src: Ipv6Addr::from(src),
            dst: Ipv6Addr::from(dst),
            payload: &buf[Ipv6Packet::HEADER_LEN..Ipv6Packet::HEADER_LEN + payload_len],
        })
    }
}

/// Borrowed UDP header + payload slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpView<'a> {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Application payload (borrowed, bounded by the UDP length field).
    pub payload: &'a [u8],
}

impl<'a> UdpView<'a> {
    fn parse_common(buf: &'a [u8]) -> WireResult<(Self, u16, usize)> {
        need(buf, UdpDatagram::HEADER_LEN, "udp")?;
        let len = usize::from(be16(buf, 4, "udp")?);
        if len < UdpDatagram::HEADER_LEN || len > buf.len() {
            return Err(WireError::BadLength {
                what: "udp-length",
                claimed: len,
                actual: buf.len(),
            });
        }
        let wire_ck = be16(buf, 6, "udp")?;
        Ok((
            UdpView {
                src_port: be16(buf, 0, "udp")?,
                dst_port: be16(buf, 2, "udp")?,
                payload: &buf[UdpDatagram::HEADER_LEN..len],
            },
            wire_ck,
            len,
        ))
    }

    /// Parse and verify against an IPv4 pseudo-header (zero checksum
    /// accepted, RFC 768).
    pub fn parse_v4(buf: &'a [u8], src: Ipv4Addr, dst: Ipv4Addr) -> WireResult<Self> {
        let (view, wire_ck, len) = Self::parse_common(buf)?;
        if wire_ck != 0 {
            let mut ck = pseudo_v4(src, dst, proto::UDP, len as u16);
            ck.push(&buf[..len]);
            let sum = ck.finish();
            if sum != 0 {
                return Err(WireError::BadChecksum {
                    what: "udp-v4",
                    found: wire_ck,
                    expected: sum,
                });
            }
        }
        Ok(view)
    }

    /// Parse and verify against an IPv6 pseudo-header (zero checksum
    /// rejected, RFC 8200 §8.1).
    pub fn parse_v6(buf: &'a [u8], src: Ipv6Addr, dst: Ipv6Addr) -> WireResult<Self> {
        let (view, wire_ck, len) = Self::parse_common(buf)?;
        if wire_ck == 0 {
            return Err(WireError::BadChecksum {
                what: "udp-v6-zero",
                found: 0,
                expected: 0xffff,
            });
        }
        let mut ck = pseudo_v6(src, dst, proto::UDP, len as u32);
        ck.push(&buf[..len]);
        let sum = ck.finish();
        if sum != 0 {
            return Err(WireError::BadChecksum {
                what: "udp-v6",
                found: wire_ck,
                expected: sum,
            });
        }
        Ok(view)
    }
}

/// Borrowed TCP header + payload slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpView<'a> {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number.
    pub ack: u32,
    /// Control flags.
    pub flags: TcpFlags,
    /// Receive window.
    pub window: u16,
    /// MSS option, if present.
    pub mss: Option<u16>,
    /// Payload bytes (borrowed, after the data offset).
    pub payload: &'a [u8],
}

impl<'a> TcpView<'a> {
    fn parse_raw(buf: &'a [u8]) -> WireResult<Self> {
        need(buf, TcpSegment::HEADER_LEN, "tcp")?;
        let data_off = usize::from(buf[12] >> 4) * 4;
        if data_off < TcpSegment::HEADER_LEN || data_off > buf.len() {
            return Err(WireError::BadLength {
                what: "tcp-data-offset",
                claimed: data_off,
                actual: buf.len(),
            });
        }
        let mut mss = None;
        let mut opts = &buf[TcpSegment::HEADER_LEN..data_off];
        while let Some(&kind) = opts.first() {
            match kind {
                0 => break,
                1 => opts = &opts[1..],
                2 => {
                    need(opts, 4, "tcp-mss")?;
                    mss = Some(u16::from_be_bytes([opts[2], opts[3]]));
                    opts = &opts[4..];
                }
                _ => {
                    need(opts, 2, "tcp-opt")?;
                    let l = usize::from(opts[1]).max(2);
                    need(opts, l, "tcp-opt")?;
                    opts = &opts[l..];
                }
            }
        }
        Ok(TcpView {
            src_port: be16(buf, 0, "tcp")?,
            dst_port: be16(buf, 2, "tcp")?,
            seq: be32(buf, 4, "tcp")?,
            ack: be32(buf, 8, "tcp")?,
            flags: TcpFlags::from_byte(buf[13]),
            window: be16(buf, 14, "tcp")?,
            mss,
            payload: &buf[data_off..],
        })
    }

    /// Parse and verify against an IPv4 pseudo-header.
    pub fn parse_v4(buf: &'a [u8], src: Ipv4Addr, dst: Ipv4Addr) -> WireResult<Self> {
        let mut ck = pseudo_v4(src, dst, proto::TCP, buf.len() as u16);
        ck.push(buf);
        let sum = ck.finish();
        if sum != 0 {
            return Err(WireError::BadChecksum {
                what: "tcp-v4",
                found: be16(buf, 16, "tcp")?,
                expected: sum,
            });
        }
        Self::parse_raw(buf)
    }

    /// Parse and verify against an IPv6 pseudo-header.
    pub fn parse_v6(buf: &'a [u8], src: Ipv6Addr, dst: Ipv6Addr) -> WireResult<Self> {
        let mut ck = pseudo_v6(src, dst, proto::TCP, buf.len() as u32);
        ck.push(buf);
        let sum = ck.finish();
        if sum != 0 {
            return Err(WireError::BadChecksum {
                what: "tcp-v6",
                found: be16(buf, 16, "tcp")?,
                expected: sum,
            });
        }
        Self::parse_raw(buf)
    }

    /// The amount of sequence space this segment consumes (SYN and FIN
    /// each count as one octet).
    pub fn seq_len(&self) -> u32 {
        self.payload.len() as u32 + u32::from(self.flags.syn) + u32::from(self.flags.fin)
    }
}

/// Borrowed ICMPv4 message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Icmp4View<'a> {
    /// Echo request (type 8).
    EchoRequest {
        /// Identifier.
        ident: u16,
        /// Sequence number.
        seq: u16,
        /// Payload (borrowed).
        payload: &'a [u8],
    },
    /// Echo reply (type 0).
    EchoReply {
        /// Identifier.
        ident: u16,
        /// Sequence number.
        seq: u16,
        /// Payload (borrowed).
        payload: &'a [u8],
    },
    /// Destination unreachable (type 3).
    DestinationUnreachable {
        /// Code.
        code: u8,
        /// Invoking packet excerpt (borrowed).
        invoking: &'a [u8],
    },
    /// Time exceeded (type 11).
    TimeExceeded {
        /// Code.
        code: u8,
        /// Invoking packet excerpt (borrowed).
        invoking: &'a [u8],
    },
}

impl<'a> Icmp4View<'a> {
    /// Parse and verify the message checksum without copying.
    pub fn parse(buf: &'a [u8]) -> WireResult<Self> {
        need(buf, 8, "icmpv4")?;
        if checksum(buf) != 0 {
            return Err(WireError::BadChecksum {
                what: "icmpv4",
                found: be16(buf, 2, "icmpv4")?,
                expected: checksum_excluding(buf, 2),
            });
        }
        match (buf[0], buf[1]) {
            (8, 0) => Ok(Icmp4View::EchoRequest {
                ident: be16(buf, 4, "icmpv4")?,
                seq: be16(buf, 6, "icmpv4")?,
                payload: &buf[8..],
            }),
            (0, 0) => Ok(Icmp4View::EchoReply {
                ident: be16(buf, 4, "icmpv4")?,
                seq: be16(buf, 6, "icmpv4")?,
                payload: &buf[8..],
            }),
            (3, code) => Ok(Icmp4View::DestinationUnreachable {
                code,
                invoking: &buf[8..],
            }),
            (11, code) => Ok(Icmp4View::TimeExceeded {
                code,
                invoking: &buf[8..],
            }),
            (t, _) => Err(WireError::BadField {
                what: "icmpv4-type",
                value: u64::from(t),
            }),
        }
    }

    /// Convert to the owned message (copies payloads).
    pub fn to_message(&self) -> Icmpv4Message {
        match *self {
            Icmp4View::EchoRequest {
                ident,
                seq,
                payload,
            } => Icmpv4Message::EchoRequest {
                ident,
                seq,
                payload: payload.to_vec(),
            },
            Icmp4View::EchoReply {
                ident,
                seq,
                payload,
            } => Icmpv4Message::EchoReply {
                ident,
                seq,
                payload: payload.to_vec(),
            },
            Icmp4View::DestinationUnreachable { code, invoking } => {
                Icmpv4Message::DestinationUnreachable {
                    code,
                    invoking: invoking.to_vec(),
                }
            }
            Icmp4View::TimeExceeded { code, invoking } => Icmpv4Message::TimeExceeded {
                code,
                invoking: invoking.to_vec(),
            },
        }
    }
}

/// A validated, non-allocating run of NDP options.
///
/// Construction walks the whole slice once, replicating every error of
/// [`NdpOption::decode_all`]; afterwards [`NdpOptionsView::iter`] and
/// [`NdpOptionsView::to_options`] re-walk infallibly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NdpOptionsView<'a> {
    raw: &'a [u8],
}

/// One borrowed NDP option: its type byte and the full 8-octet-aligned body
/// (including the type/length bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NdpOptionView<'a> {
    /// Option type.
    pub ty: u8,
    /// The whole option (type, length, body, padding).
    pub body: &'a [u8],
}

impl<'a> NdpOptionsView<'a> {
    /// Validate the option run; the slice is stored for later re-walks.
    pub fn parse(buf: &'a [u8]) -> WireResult<Self> {
        let mut rest = buf;
        while !rest.is_empty() {
            need(rest, 2, "ndp-option")?;
            let ty = rest[0];
            let len = usize::from(rest[1]) * 8;
            if len == 0 {
                return Err(WireError::BadLength {
                    what: "ndp-option-zero-len",
                    claimed: 0,
                    actual: rest.len(),
                });
            }
            need(rest, len, "ndp-option")?;
            let body = &rest[..len];
            validate_option_body(ty, body)?;
            rest = &rest[len..];
        }
        Ok(NdpOptionsView { raw: buf })
    }

    /// Iterate over the validated options.
    pub fn iter(&self) -> impl Iterator<Item = NdpOptionView<'a>> + '_ {
        let mut rest = self.raw;
        std::iter::from_fn(move || {
            if rest.is_empty() {
                return None;
            }
            let len = usize::from(rest[1]) * 8;
            let opt = NdpOptionView {
                ty: rest[0],
                body: &rest[..len],
            };
            rest = &rest[len..];
            Some(opt)
        })
    }

    /// Build the owned option list. This re-walks the raw bytes with its own
    /// per-type constructors (it does not call [`NdpOption::decode_all`]), so
    /// the owned and borrowed paths stay independently implemented.
    pub fn to_options(&self) -> Vec<NdpOption> {
        self.iter().map(|o| o.to_option()).collect()
    }
}

impl<'a> NdpOptionView<'a> {
    /// The servers of an RDNSS option (type 25), read in place; empty for
    /// any other type.
    pub fn rdnss_servers(&self) -> impl Iterator<Item = Ipv6Addr> + 'a {
        let servers = if self.ty == 25 { &self.body[8..] } else { &[] };
        servers.chunks_exact(16).map(|a| {
            let mut o = [0u8; 16];
            o.copy_from_slice(a);
            Ipv6Addr::from(o)
        })
    }

    /// The domains of a DNSSL option (type 31) as their wire label runs
    /// (length-prefixed labels, no terminating zero), read in place;
    /// empty for any other type.
    pub fn dnssl_names(&self) -> impl Iterator<Item = &'a [u8]> + 'a {
        let body = if self.ty == 31 { self.body } else { &[] };
        let mut pos = 8.min(body.len());
        std::iter::from_fn(move || {
            if pos >= body.len() || body[pos] == 0 {
                return None;
            }
            let start = pos;
            while body[pos] != 0 {
                pos += 1 + usize::from(body[pos]);
            }
            let name = &body[start..pos];
            pos += 1;
            Some(name)
        })
    }

    /// Build the owned option from the validated body.
    pub fn to_option(&self) -> NdpOption {
        let body = self.body;
        match self.ty {
            1 => NdpOption::SourceLinkLayer(MacAddr::decode(&body[2..8]).expect("validated")),
            2 => NdpOption::TargetLinkLayer(MacAddr::decode(&body[2..8]).expect("validated")),
            3 => {
                let mut prefix = [0u8; 16];
                prefix.copy_from_slice(&body[16..32]);
                NdpOption::PrefixInformation {
                    prefix_len: body[2],
                    on_link: body[3] & 0x80 != 0,
                    autonomous: body[3] & 0x40 != 0,
                    valid_lifetime: u32::from_be_bytes([body[4], body[5], body[6], body[7]]),
                    preferred_lifetime: u32::from_be_bytes([body[8], body[9], body[10], body[11]]),
                    prefix: Ipv6Addr::from(prefix),
                }
            }
            5 => NdpOption::Mtu(u32::from_be_bytes([body[4], body[5], body[6], body[7]])),
            25 => {
                let lifetime = u32::from_be_bytes([body[4], body[5], body[6], body[7]]);
                let mut servers = Vec::new();
                let mut pos = 8;
                while pos + 16 <= body.len() {
                    let mut a = [0u8; 16];
                    a.copy_from_slice(&body[pos..pos + 16]);
                    servers.push(Ipv6Addr::from(a));
                    pos += 16;
                }
                NdpOption::Rdnss { lifetime, servers }
            }
            31 => {
                let lifetime = u32::from_be_bytes([body[4], body[5], body[6], body[7]]);
                let mut domains = Vec::new();
                let mut pos = 8;
                while pos < body.len() && body[pos] != 0 {
                    let mut name = String::new();
                    loop {
                        let len = usize::from(body[pos]);
                        pos += 1;
                        if len == 0 {
                            break;
                        }
                        if !name.is_empty() {
                            name.push('.');
                        }
                        name.push_str(&String::from_utf8_lossy(&body[pos..pos + len]));
                        pos += len;
                    }
                    domains.push(name);
                }
                NdpOption::Dnssl { lifetime, domains }
            }
            38 => {
                let scaled = u16::from_be_bytes([body[2], body[3]]);
                let prefix_len = match scaled & 0b111 {
                    0 => 96,
                    1 => 64,
                    2 => 56,
                    3 => 48,
                    4 => 40,
                    _ => 32,
                };
                let mut o = [0u8; 16];
                o[..12].copy_from_slice(&body[4..16]);
                NdpOption::Pref64 {
                    lifetime: (scaled >> 3) * 8,
                    prefix: Ipv6Addr::from(o),
                    prefix_len,
                }
            }
            other => NdpOption::Unknown(other, body[2..].to_vec()),
        }
    }
}

/// Replicate the per-type validation (and the DNSSL label walk) of
/// [`NdpOption::decode_all`] without building any owned value.
fn validate_option_body(ty: u8, body: &[u8]) -> WireResult<()> {
    match ty {
        1 | 2 => {
            // `body` is at least 8 bytes here (length unit ≥ 1), so the MAC
            // slice always decodes; kept for shape parity with decode_all.
            MacAddr::decode(&body[2..8])?;
        }
        3 => need(body, 32, "ndp-pio")?,
        5 => need(body, 8, "ndp-mtu")?,
        25 => need(body, 8, "ndp-rdnss")?,
        31 => {
            need(body, 8, "ndp-dnssl")?;
            let mut pos = 8;
            while pos < body.len() && body[pos] != 0 {
                loop {
                    need(body, pos + 1, "ndp-dnssl")?;
                    let len = usize::from(body[pos]);
                    pos += 1;
                    if len == 0 {
                        break;
                    }
                    need(body, pos + len, "ndp-dnssl")?;
                    pos += len;
                }
            }
        }
        38 => need(body, 16, "ndp-pref64")?,
        _ => {}
    }
    Ok(())
}

/// Borrowed Router Advertisement body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaView<'a> {
    /// Suggested hop limit.
    pub cur_hop_limit: u8,
    /// M flag.
    pub managed: bool,
    /// O flag.
    pub other_config: bool,
    /// Default-router lifetime in seconds.
    pub router_lifetime: u16,
    /// RFC 4191 preference.
    pub preference: RouterPreference,
    /// Reachable time (ms).
    pub reachable_time: u32,
    /// Retransmission timer (ms).
    pub retrans_timer: u32,
    /// Validated options.
    pub options: NdpOptionsView<'a>,
}

impl<'a> RaView<'a> {
    fn parse(buf: &'a [u8]) -> WireResult<Self> {
        need(buf, 12, "ndp-ra")?;
        Ok(RaView {
            cur_hop_limit: buf[0],
            managed: buf[1] & 0x80 != 0,
            other_config: buf[1] & 0x40 != 0,
            preference: RouterPreference::from_bits(buf[1] >> 3),
            router_lifetime: be16(buf, 2, "ndp-ra")?,
            reachable_time: be32(buf, 4, "ndp-ra")?,
            retrans_timer: be32(buf, 8, "ndp-ra")?,
            options: NdpOptionsView::parse(&buf[12..])?,
        })
    }
}

/// Borrowed ICMPv6 message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Icmp6View<'a> {
    /// Type 1: destination unreachable.
    DestinationUnreachable {
        /// Code.
        code: u8,
        /// Invoking packet excerpt (borrowed).
        invoking: &'a [u8],
    },
    /// Type 128: echo request.
    EchoRequest {
        /// Identifier.
        ident: u16,
        /// Sequence.
        seq: u16,
        /// Payload (borrowed).
        payload: &'a [u8],
    },
    /// Type 129: echo reply.
    EchoReply {
        /// Identifier.
        ident: u16,
        /// Sequence.
        seq: u16,
        /// Payload (borrowed).
        payload: &'a [u8],
    },
    /// Type 133: router solicitation.
    RouterSolicitation {
        /// Validated options.
        options: NdpOptionsView<'a>,
    },
    /// Type 134: router advertisement.
    RouterAdvertisement(RaView<'a>),
    /// Type 135: neighbor solicitation.
    NeighborSolicitation {
        /// Target address.
        target: Ipv6Addr,
        /// Validated options.
        options: NdpOptionsView<'a>,
    },
    /// Type 136: neighbor advertisement.
    NeighborAdvertisement {
        /// R flag.
        router: bool,
        /// S flag.
        solicited: bool,
        /// O flag.
        override_flag: bool,
        /// Target address.
        target: Ipv6Addr,
        /// Validated options.
        options: NdpOptionsView<'a>,
    },
}

impl<'a> Icmp6View<'a> {
    /// Parse and verify the pseudo-header checksum without copying.
    pub fn parse(buf: &'a [u8], src: Ipv6Addr, dst: Ipv6Addr) -> WireResult<Self> {
        need(buf, 4, "icmpv6")?;
        let mut ck = pseudo_v6(src, dst, proto::ICMPV6, buf.len() as u32);
        ck.push(buf);
        if ck.finish() != 0 {
            let mut again = pseudo_v6(src, dst, proto::ICMPV6, buf.len() as u32);
            again.push(&buf[..2]);
            again.push(&[0, 0]);
            again.push(&buf[4..]);
            return Err(WireError::BadChecksum {
                what: "icmpv6",
                found: be16(buf, 2, "icmpv6")?,
                expected: again.finish(),
            });
        }
        let read_target = |off: usize| -> WireResult<Ipv6Addr> {
            need(buf, off + 16, "icmpv6-target")?;
            let mut a = [0u8; 16];
            a.copy_from_slice(&buf[off..off + 16]);
            Ok(Ipv6Addr::from(a))
        };
        match buf[0] {
            1 => {
                need(buf, 8, "icmpv6-unreach")?;
                Ok(Icmp6View::DestinationUnreachable {
                    code: buf[1],
                    invoking: &buf[8..],
                })
            }
            128 | 129 => {
                need(buf, 8, "icmpv6-echo")?;
                let ident = be16(buf, 4, "icmpv6-echo")?;
                let seq = be16(buf, 6, "icmpv6-echo")?;
                let payload = &buf[8..];
                if buf[0] == 128 {
                    Ok(Icmp6View::EchoRequest {
                        ident,
                        seq,
                        payload,
                    })
                } else {
                    Ok(Icmp6View::EchoReply {
                        ident,
                        seq,
                        payload,
                    })
                }
            }
            133 => {
                need(buf, 8, "icmpv6-rs")?;
                Ok(Icmp6View::RouterSolicitation {
                    options: NdpOptionsView::parse(&buf[8..])?,
                })
            }
            134 => Ok(Icmp6View::RouterAdvertisement(RaView::parse(&buf[4..])?)),
            135 => {
                need(buf, 24, "icmpv6-ns")?;
                Ok(Icmp6View::NeighborSolicitation {
                    target: read_target(8)?,
                    options: NdpOptionsView::parse(&buf[24..])?,
                })
            }
            136 => {
                need(buf, 24, "icmpv6-na")?;
                let _reserved = be32(buf, 4, "icmpv6-na")? & 0x1fff_ffff;
                Ok(Icmp6View::NeighborAdvertisement {
                    router: buf[4] & 0x80 != 0,
                    solicited: buf[4] & 0x40 != 0,
                    override_flag: buf[4] & 0x20 != 0,
                    target: read_target(8)?,
                    options: NdpOptionsView::parse(&buf[24..])?,
                })
            }
            t => Err(WireError::BadField {
                what: "icmpv6-type",
                value: u64::from(t),
            }),
        }
    }

    /// Convert to the owned message (copies payloads and option lists).
    pub fn to_message(&self) -> Icmpv6Message {
        match *self {
            Icmp6View::DestinationUnreachable { code, invoking } => {
                Icmpv6Message::DestinationUnreachable {
                    code,
                    invoking: invoking.to_vec(),
                }
            }
            Icmp6View::EchoRequest {
                ident,
                seq,
                payload,
            } => Icmpv6Message::EchoRequest {
                ident,
                seq,
                payload: payload.to_vec(),
            },
            Icmp6View::EchoReply {
                ident,
                seq,
                payload,
            } => Icmpv6Message::EchoReply {
                ident,
                seq,
                payload: payload.to_vec(),
            },
            Icmp6View::RouterSolicitation { options } => {
                Icmpv6Message::RouterSolicitation(RouterSolicitation {
                    options: options.to_options(),
                })
            }
            Icmp6View::RouterAdvertisement(ra) => {
                Icmpv6Message::RouterAdvertisement(RouterAdvertisement {
                    cur_hop_limit: ra.cur_hop_limit,
                    managed: ra.managed,
                    other_config: ra.other_config,
                    router_lifetime: ra.router_lifetime,
                    preference: ra.preference,
                    reachable_time: ra.reachable_time,
                    retrans_timer: ra.retrans_timer,
                    options: ra.options.to_options(),
                })
            }
            Icmp6View::NeighborSolicitation { target, options } => {
                Icmpv6Message::NeighborSolicitation(NeighborSolicitation {
                    target,
                    options: options.to_options(),
                })
            }
            Icmp6View::NeighborAdvertisement {
                router,
                solicited,
                override_flag,
                target,
                options,
            } => Icmpv6Message::NeighborAdvertisement(NeighborAdvertisement {
                router,
                solicited,
                override_flag,
                target,
                options: options.to_options(),
            }),
        }
    }
}

/// Borrowed network layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum L3View<'a> {
    /// ARP packet ([`ArpPacket::decode`] is already allocation-free).
    Arp(ArpPacket),
    /// IPv4 view.
    V4(Ipv4View<'a>),
    /// IPv6 view.
    V6(Ipv6View<'a>),
    /// Unrecognized ethertype (payload borrowed).
    Other(u16, &'a [u8]),
}

/// Borrowed transport layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum L4View<'a> {
    /// UDP view.
    Udp(UdpView<'a>),
    /// TCP view.
    Tcp(TcpView<'a>),
    /// ICMPv4 view.
    Icmp4(Icmp4View<'a>),
    /// ICMPv6 view.
    Icmp6(Icmp6View<'a>),
    /// No transport content parsed.
    None,
}

/// A frame parsed through Ethernet → IP → transport without copying a byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameView<'a> {
    /// The Ethernet envelope.
    pub eth: EthView<'a>,
    /// Network layer.
    pub l3: L3View<'a>,
    /// Transport layer.
    pub l4: L4View<'a>,
}

impl<'a> FrameView<'a> {
    /// Parse a raw frame through all layers, verifying every checksum,
    /// with the exact accept/reject behaviour of [`ParsedFrame::parse`].
    pub fn parse(raw: &'a [u8]) -> WireResult<FrameView<'a>> {
        let eth = EthView::parse(raw)?;
        let (l3, l4) = match eth.ethertype {
            EtherType::Arp => (L3View::Arp(ArpPacket::decode(eth.payload)?), L4View::None),
            EtherType::Ipv4 => {
                let ip = Ipv4View::parse(eth.payload)?;
                let l4 = match ip.protocol {
                    proto::UDP => L4View::Udp(UdpView::parse_v4(ip.payload, ip.src, ip.dst)?),
                    proto::TCP => L4View::Tcp(TcpView::parse_v4(ip.payload, ip.src, ip.dst)?),
                    proto::ICMP => L4View::Icmp4(Icmp4View::parse(ip.payload)?),
                    _ => L4View::None,
                };
                (L3View::V4(ip), l4)
            }
            EtherType::Ipv6 => {
                let ip = Ipv6View::parse(eth.payload)?;
                let l4 = match ip.next_header {
                    proto::UDP => L4View::Udp(UdpView::parse_v6(ip.payload, ip.src, ip.dst)?),
                    proto::TCP => L4View::Tcp(TcpView::parse_v6(ip.payload, ip.src, ip.dst)?),
                    proto::ICMPV6 => L4View::Icmp6(Icmp6View::parse(ip.payload, ip.src, ip.dst)?),
                    _ => L4View::None,
                };
                (L3View::V6(ip), l4)
            }
            EtherType::Other(v) => (L3View::Other(v, eth.payload), L4View::None),
        };
        Ok(FrameView { eth, l3, l4 })
    }

    /// Convert to the owned [`ParsedFrame`] (copies every payload) — the
    /// lowering the conformance suite compares against the owned parse.
    pub fn to_parsed(&self) -> ParsedFrame {
        let l3 = match &self.l3 {
            L3View::Arp(a) => L3::Arp(a.clone()),
            L3View::V4(v) => L3::V4(Ipv4Packet {
                dscp_ecn: v.dscp_ecn,
                identification: v.identification,
                dont_fragment: v.dont_fragment,
                ttl: v.ttl,
                protocol: v.protocol,
                src: v.src,
                dst: v.dst,
                payload: v.payload.to_vec(),
            }),
            L3View::V6(v) => L3::V6(Ipv6Packet {
                traffic_class: v.traffic_class,
                flow_label: v.flow_label,
                next_header: v.next_header,
                hop_limit: v.hop_limit,
                src: v.src,
                dst: v.dst,
                payload: v.payload.to_vec(),
            }),
            L3View::Other(et, p) => L3::Other(*et, p.to_vec()),
        };
        let l4 = match &self.l4 {
            L4View::Udp(u) => L4::Udp(UdpDatagram {
                src_port: u.src_port,
                dst_port: u.dst_port,
                payload: u.payload.to_vec(),
            }),
            L4View::Tcp(t) => L4::Tcp(TcpSegment {
                src_port: t.src_port,
                dst_port: t.dst_port,
                seq: t.seq,
                ack: t.ack,
                flags: t.flags,
                window: t.window,
                mss: t.mss,
                payload: t.payload.to_vec(),
            }),
            L4View::Icmp4(m) => L4::Icmp4(m.to_message()),
            L4View::Icmp6(m) => L4::Icmp6(m.to_message()),
            L4View::None => L4::None,
        };
        ParsedFrame {
            eth: EthernetFrame {
                dst: self.eth.dst,
                src: self.eth.src,
                ethertype: self.eth.ethertype,
                payload: self.eth.payload.to_vec(),
            },
            l3,
            l4,
        }
    }

    /// The IPv6 source, if this is an IPv6 frame.
    pub fn v6_src(&self) -> Option<Ipv6Addr> {
        match &self.l3 {
            L3View::V6(p) => Some(p.src),
            _ => None,
        }
    }

    /// The IPv4 source, if this is an IPv4 frame.
    pub fn v4_src(&self) -> Option<Ipv4Addr> {
        match &self.l3 {
            L3View::V4(p) => Some(p.src),
            _ => None,
        }
    }
}

/// Checksum of `data` with the 16-bit word at byte offset `ck_off` treated as
/// zero — the allocation-free equivalent of "copy, zero the checksum field,
/// recompute" used by the owned decoders' error paths.
fn checksum_excluding(data: &[u8], ck_off: usize) -> u16 {
    let mut c = Checksum::new();
    c.push(&data[..ck_off]);
    c.push(&[0, 0]);
    c.push(&data[ck_off + 2..]);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{build_icmpv6, build_udp_v4};

    fn mac(n: u8) -> MacAddr {
        MacAddr::new([2, 0, 0, 0, 0, n])
    }

    #[test]
    fn view_matches_owned_on_udp_v4() {
        let raw = build_udp_v4(
            mac(1),
            mac(2),
            "192.168.12.50".parse().unwrap(),
            "192.168.12.251".parse().unwrap(),
            &UdpDatagram::new(68, 67, b"discover".to_vec()),
        );
        let owned = ParsedFrame::parse(&raw).unwrap();
        let view = FrameView::parse(&raw).unwrap();
        assert_eq!(view.to_parsed(), owned);
        match view.l4 {
            L4View::Udp(u) => assert_eq!(u.payload, b"discover"),
            other => panic!("unexpected l4: {other:?}"),
        }
    }

    #[test]
    fn view_matches_owned_on_ndp_ra() {
        let mut ra = RouterAdvertisement::new(1800);
        ra.preference = RouterPreference::Low;
        ra.options.push(NdpOption::Rdnss {
            lifetime: 300,
            servers: vec!["fd00:976a::9".parse().unwrap()],
        });
        let msg = Icmpv6Message::RouterAdvertisement(ra);
        let raw = build_icmpv6(
            mac(1),
            MacAddr::for_ipv6_multicast(crate::icmpv6::all_nodes()),
            "fe80::1".parse().unwrap(),
            crate::icmpv6::all_nodes(),
            &msg,
        );
        let owned = ParsedFrame::parse(&raw).unwrap();
        let view = FrameView::parse(&raw).unwrap();
        assert_eq!(view.to_parsed(), owned);
    }

    #[test]
    fn truncations_agree_with_owned() {
        let raw = build_udp_v4(
            mac(1),
            mac(2),
            "10.0.0.1".parse().unwrap(),
            "10.0.0.2".parse().unwrap(),
            &UdpDatagram::new(1, 2, vec![7; 32]),
        );
        for cut in 0..raw.len() {
            let owned = ParsedFrame::parse(&raw[..cut]);
            let view = FrameView::parse(&raw[..cut]).map(|v| v.to_parsed());
            assert_eq!(owned, view, "cut at {cut}");
        }
    }
}
