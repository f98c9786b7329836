//! EDNS0 (RFC 6891) OPT interpretation and RFC 8914 Extended DNS Errors.
//!
//! The codec keeps OPT rdata as verbatim bytes so arbitrary wire input
//! re-emits byte-identically; this module is the semantic layer on top:
//! building OPT pseudo-records, walking the {code, length, data} option
//! list, and mapping the testbed's resolution-failure taxonomy onto EDE
//! info-codes so a resolver can tell its stub *why* resolution failed
//! instead of leaving only a timeout to observe.

use crate::codec::{RData, Record};
use crate::name::DnsName;
use crate::server::ResolutionFailure;
use crate::view::{MessageView, RDataRef};

/// Payload size a modern stub advertises (the DNS-flag-day-2020 value).
pub const DEFAULT_PAYLOAD_SIZE: u16 = 1232;

/// The pre-EDNS0 UDP message ceiling (RFC 1035 §4.2.1): responses to
/// queries without an OPT record truncate past this.
pub const CLASSIC_UDP_LIMIT: usize = 512;

/// RFC 8914 Extended DNS Error option code.
pub const OPTION_EDE: u16 = 15;

/// Private-use EDE info-code base (RFC 8914 §5.2 reserves 49152–65535).
/// The testbed's failure taxonomy lives here so it can never collide with
/// an IANA-assigned code.
pub const EDE_PRIVATE_BASE: u16 = 49152;

impl ResolutionFailure {
    /// The EDE info-code carrying this failure reason on the wire.
    pub fn ede_code(self) -> u16 {
        EDE_PRIVATE_BASE + self.index() as u16
    }

    /// Inverse of [`ResolutionFailure::ede_code`].
    pub fn from_ede_code(code: u16) -> Option<ResolutionFailure> {
        let idx = code.checked_sub(EDE_PRIVATE_BASE)? as usize;
        ResolutionFailure::ALL.get(idx).copied()
    }
}

/// Serialize an option list into OPT rdata bytes.
pub fn encode_options(options: &[(u16, Vec<u8>)]) -> Vec<u8> {
    let mut out = Vec::new();
    for (code, data) in options {
        out.extend_from_slice(&code.to_be_bytes());
        out.extend_from_slice(&(data.len() as u16).to_be_bytes());
        out.extend_from_slice(data);
    }
    out
}

/// Walk OPT rdata as {code, length, data} options. Malformed tails (a
/// length running past the rdata) end the walk; everything parsed up to
/// that point is returned, mirroring how resolvers skim unknown options.
pub fn decode_options(data: &[u8]) -> Vec<(u16, &[u8])> {
    options(data).collect()
}

/// [`decode_options`] as a lazy walk.
fn options(data: &[u8]) -> impl Iterator<Item = (u16, &[u8])> {
    let mut pos = 0usize;
    std::iter::from_fn(move || {
        if pos + 4 > data.len() {
            return None;
        }
        let code = u16::from_be_bytes([data[pos], data[pos + 1]]);
        let len = u16::from_be_bytes([data[pos + 2], data[pos + 3]]) as usize;
        pos += 4;
        if pos + len > data.len() {
            return None;
        }
        let body = &data[pos..pos + len];
        pos += len;
        Some((code, body))
    })
}

/// The info-code of the first Extended DNS Error in OPT rdata.
fn ede_code(opt_data: &[u8]) -> Option<u16> {
    options(opt_data).find_map(|(code, body)| {
        (code == OPTION_EDE && body.len() >= 2).then(|| u16::from_be_bytes([body[0], body[1]]))
    })
}

/// An OPT pseudo-record (owner = root, TTL = extended-flags = 0) carrying
/// `options`.
pub fn opt_record(payload_size: u16, options: &[(u16, Vec<u8>)]) -> Record {
    Record::new(
        DnsName::root(),
        0,
        RData::Opt {
            payload_size,
            data: encode_options(options),
        },
    )
}

/// An RFC 8914 Extended DNS Error option: 2-octet info-code plus UTF-8
/// extra text.
pub fn ede_option(info_code: u16, extra_text: &str) -> (u16, Vec<u8>) {
    let mut data = info_code.to_be_bytes().to_vec();
    data.extend_from_slice(extra_text.as_bytes());
    (OPTION_EDE, data)
}

/// The OPT record in a message's additional section, if any.
pub fn find_opt<'a>(msg: &MessageView<'a>) -> Option<(u16, &'a [u8])> {
    msg.additionals().find_map(|r| match r.data {
        RDataRef::Opt { payload_size, data } => Some((payload_size, data)),
        _ => None,
    })
}

/// The UDP payload size a query advertises: its OPT class field, floored
/// at the classic 512-octet limit (RFC 6891 §6.2.3), or `None` when the
/// query carries no OPT at all.
pub fn advertised_payload_size(msg: &MessageView<'_>) -> Option<usize> {
    find_opt(msg).map(|(size, _)| usize::from(size).max(CLASSIC_UDP_LIMIT))
}

/// The first Extended DNS Error in a message: `(info_code, extra_text)`.
pub fn ede_of(msg: &MessageView<'_>) -> Option<(u16, String)> {
    let (_, data) = find_opt(msg)?;
    options(data).find_map(|(code, body)| {
        (code == OPTION_EDE && body.len() >= 2).then(|| {
            let info = u16::from_be_bytes([body[0], body[1]]);
            (info, String::from_utf8_lossy(&body[2..]).into_owned())
        })
    })
}

/// The classified resolution failure a response advertises via EDE, if
/// any — read without building the extra text.
pub fn failure_of(msg: &MessageView<'_>) -> Option<ResolutionFailure> {
    let (_, data) = find_opt(msg)?;
    ResolutionFailure::from_ede_code(ede_code(data)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Message, Question, RType, Rcode};

    #[test]
    fn options_roundtrip() {
        let opts = vec![ede_option(1, "dnssec bogus"), (10, vec![1, 2, 3])];
        let bytes = encode_options(&opts);
        let walked = decode_options(&bytes);
        assert_eq!(walked.len(), 2);
        assert_eq!(walked[0].0, OPTION_EDE);
        assert_eq!(walked[1], (10, [1u8, 2, 3].as_slice()));
    }

    #[test]
    fn malformed_tail_ends_walk() {
        let mut bytes = encode_options(&[(10, vec![9])]);
        bytes.extend_from_slice(&[0, 15, 0, 99]); // claims 99 bytes, has 0
        let walked = decode_options(&bytes);
        assert_eq!(walked.len(), 1);
    }

    #[test]
    fn failure_reason_travels_in_ede() {
        let q = Message::query(1, Question::new("x.test".parse().unwrap(), RType::Aaaa));
        let mut resp = Message::response_to(&q, Rcode::ServFail);
        resp.additionals.push(opt_record(
            DEFAULT_PAYLOAD_SIZE,
            &[ede_option(
                ResolutionFailure::NoAaaaGlue.ede_code(),
                "ns1.v4only.test has no AAAA glue",
            )],
        ));
        let bytes = resp.encode();
        let view = MessageView::parse(&bytes).unwrap();
        assert_eq!(failure_of(&view), Some(ResolutionFailure::NoAaaaGlue));
        let (code, text) = ede_of(&view).unwrap();
        assert_eq!(code, EDE_PRIVATE_BASE);
        assert!(text.contains("no AAAA glue"));
    }

    #[test]
    fn every_failure_code_roundtrips() {
        for f in ResolutionFailure::ALL {
            assert_eq!(ResolutionFailure::from_ede_code(f.ede_code()), Some(f));
        }
        assert_eq!(ResolutionFailure::from_ede_code(0), None);
        assert_eq!(ResolutionFailure::from_ede_code(u16::MAX), None);
    }

    #[test]
    fn advertised_size_floors_at_classic_limit() {
        let mut q = Message::query(2, Question::new("x.test".parse().unwrap(), RType::A));
        let size = |q: &Message| advertised_payload_size(&MessageView::parse(&q.encode()).unwrap());
        assert_eq!(size(&q), None);
        q.additionals.push(opt_record(100, &[]));
        assert_eq!(size(&q), Some(CLASSIC_UDP_LIMIT));
    }
}
