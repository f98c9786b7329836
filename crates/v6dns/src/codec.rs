//! RFC 1035 message wire format with name compression.

use crate::name::DnsName;
use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

/// Decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DnsError {
    /// Ran out of bytes decoding `what`.
    Truncated(&'static str),
    /// A compression pointer loops or points forward.
    BadPointer(usize),
    /// A field had an unusable value.
    BadField(&'static str, u64),
}

impl fmt::Display for DnsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DnsError::Truncated(w) => write!(f, "dns: truncated {w}"),
            DnsError::BadPointer(p) => write!(f, "dns: bad compression pointer {p}"),
            DnsError::BadField(w, v) => write!(f, "dns: bad {w} value {v}"),
        }
    }
}

impl std::error::Error for DnsError {}

/// Record/query types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RType {
    /// IPv4 address.
    A,
    /// Name server.
    Ns,
    /// Canonical name.
    Cname,
    /// Start of authority.
    Soa,
    /// Pointer (reverse DNS).
    Ptr,
    /// Mail exchanger.
    Mx,
    /// Text.
    Txt,
    /// IPv6 address.
    Aaaa,
    /// EDNS0 pseudo-record.
    Opt,
    /// Any (query only).
    Any,
    /// Unrecognized type, kept verbatim.
    Other(u16),
}

impl RType {
    /// Wire value.
    pub fn to_u16(self) -> u16 {
        match self {
            RType::A => 1,
            RType::Ns => 2,
            RType::Cname => 5,
            RType::Soa => 6,
            RType::Ptr => 12,
            RType::Mx => 15,
            RType::Txt => 16,
            RType::Aaaa => 28,
            RType::Opt => 41,
            RType::Any => 255,
            RType::Other(v) => v,
        }
    }

    /// From wire value.
    pub fn from_u16(v: u16) -> Self {
        match v {
            1 => RType::A,
            2 => RType::Ns,
            5 => RType::Cname,
            6 => RType::Soa,
            12 => RType::Ptr,
            15 => RType::Mx,
            16 => RType::Txt,
            28 => RType::Aaaa,
            41 => RType::Opt,
            255 => RType::Any,
            other => RType::Other(other),
        }
    }
}

/// Response codes (RFC 1035 §4.1.1 + common extensions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rcode {
    /// No error.
    NoError,
    /// Format error.
    FormErr,
    /// Server failure.
    ServFail,
    /// Name does not exist.
    NxDomain,
    /// Not implemented.
    NotImp,
    /// Refused.
    Refused,
    /// Anything else.
    Other(u8),
}

impl Rcode {
    fn to_u8(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
            Rcode::Other(v) => v,
        }
    }

    pub(crate) fn from_u8(v: u8) -> Self {
        match v {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            other => Rcode::Other(other),
        }
    }
}

/// Record data for the types the testbed serves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RData {
    /// A record.
    A(Ipv4Addr),
    /// AAAA record.
    Aaaa(Ipv6Addr),
    /// CNAME.
    Cname(DnsName),
    /// NS.
    Ns(DnsName),
    /// PTR.
    Ptr(DnsName),
    /// MX.
    Mx {
        /// Preference.
        preference: u16,
        /// Exchange host.
        exchange: DnsName,
    },
    /// TXT (one or more character-strings).
    Txt(Vec<String>),
    /// SOA.
    Soa {
        /// Primary name server.
        mname: DnsName,
        /// Responsible mailbox.
        rname: DnsName,
        /// Serial.
        serial: u32,
        /// Refresh interval.
        refresh: u32,
        /// Retry interval.
        retry: u32,
        /// Expire limit.
        expire: u32,
        /// Negative-caching TTL (RFC 2308 uses min(this, SOA TTL)).
        minimum: u32,
    },
    /// EDNS0 OPT pseudo-record (RFC 6891). The CLASS field carries the
    /// requestor's UDP payload size instead of IN, so it is kept
    /// structurally; the option list stays verbatim bytes and is
    /// interpreted by [`crate::edns`].
    Opt {
        /// Requestor's maximum UDP payload size (the wire CLASS field).
        payload_size: u16,
        /// The raw {code, length, data} option list.
        data: Vec<u8>,
    },
    /// Opaque data for unknown types.
    Raw(u16, Vec<u8>),
}

impl RData {
    /// The record type of this data.
    pub fn rtype(&self) -> RType {
        match self {
            RData::A(_) => RType::A,
            RData::Aaaa(_) => RType::Aaaa,
            RData::Cname(_) => RType::Cname,
            RData::Ns(_) => RType::Ns,
            RData::Ptr(_) => RType::Ptr,
            RData::Mx { .. } => RType::Mx,
            RData::Txt(_) => RType::Txt,
            RData::Soa { .. } => RType::Soa,
            RData::Opt { .. } => RType::Opt,
            RData::Raw(t, _) => RType::Other(*t),
        }
    }
}

/// A resource record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Owner name.
    pub name: DnsName,
    /// Time to live.
    pub ttl: u32,
    /// Data (type implied).
    pub data: RData,
}

impl Record {
    /// Convenience constructor.
    pub fn new(name: DnsName, ttl: u32, data: RData) -> Self {
        Record { name, ttl, data }
    }
}

/// A question.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Question {
    /// Queried name.
    pub name: DnsName,
    /// Queried type.
    pub rtype: RType,
}

impl Question {
    /// Convenience constructor.
    pub fn new(name: DnsName, rtype: RType) -> Self {
        Question { name, rtype }
    }
}

/// A complete DNS message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Transaction id.
    pub id: u16,
    /// Response flag.
    pub is_response: bool,
    /// Opcode (0 = standard query).
    pub opcode: u8,
    /// Authoritative answer.
    pub authoritative: bool,
    /// Truncation.
    pub truncated: bool,
    /// Recursion desired.
    pub recursion_desired: bool,
    /// Recursion available.
    pub recursion_available: bool,
    /// Response code.
    pub rcode: Rcode,
    /// Questions.
    pub questions: Vec<Question>,
    /// Answer records.
    pub answers: Vec<Record>,
    /// Authority records.
    pub authorities: Vec<Record>,
    /// Additional records.
    pub additionals: Vec<Record>,
}

impl Message {
    /// A recursion-desired query for one question.
    pub fn query(id: u16, question: Question) -> Message {
        Message {
            id,
            is_response: false,
            opcode: 0,
            authoritative: false,
            truncated: false,
            recursion_desired: true,
            recursion_available: false,
            rcode: Rcode::NoError,
            questions: vec![question],
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// A response skeleton mirroring `query`'s id and question.
    pub fn response_to(query: &Message, rcode: Rcode) -> Message {
        Message {
            id: query.id,
            is_response: true,
            opcode: query.opcode,
            authoritative: false,
            truncated: false,
            recursion_desired: query.recursion_desired,
            recursion_available: true,
            rcode,
            questions: query.questions.clone(),
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// All A answers.
    pub fn a_answers(&self) -> Vec<Ipv4Addr> {
        self.answers
            .iter()
            .filter_map(|r| match r.data {
                RData::A(a) => Some(a),
                _ => None,
            })
            .collect()
    }

    /// All AAAA answers.
    pub fn aaaa_answers(&self) -> Vec<Ipv6Addr> {
        self.answers
            .iter()
            .filter_map(|r| match r.data {
                RData::Aaaa(a) => Some(a),
                _ => None,
            })
            .collect()
    }

    /// Serialize to wire bytes with name compression.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128);
        self.encode_into(&mut out);
        out
    }

    /// Append the wire form to `out` — straight into a frame buffer on the
    /// simulator's hot path. Compression offsets are relative to where the
    /// message starts, so the bytes equal [`Message::encode`]'s.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        let mut offsets = Offsets::default();
        out.extend_from_slice(&self.id.to_be_bytes());
        let mut b2 = 0u8;
        if self.is_response {
            b2 |= 0x80;
        }
        b2 |= (self.opcode & 0x0f) << 3;
        if self.authoritative {
            b2 |= 0x04;
        }
        if self.truncated {
            b2 |= 0x02;
        }
        if self.recursion_desired {
            b2 |= 0x01;
        }
        out.push(b2);
        let mut b3 = 0u8;
        if self.recursion_available {
            b3 |= 0x80;
        }
        b3 |= self.rcode.to_u8() & 0x0f;
        out.push(b3);
        out.extend_from_slice(&(self.questions.len() as u16).to_be_bytes());
        out.extend_from_slice(&(self.answers.len() as u16).to_be_bytes());
        out.extend_from_slice(&(self.authorities.len() as u16).to_be_bytes());
        out.extend_from_slice(&(self.additionals.len() as u16).to_be_bytes());
        for q in &self.questions {
            encode_name(out, start, &q.name, &mut offsets);
            out.extend_from_slice(&q.rtype.to_u16().to_be_bytes());
            out.extend_from_slice(&1u16.to_be_bytes()); // class IN
        }
        for r in self
            .answers
            .iter()
            .chain(self.authorities.iter())
            .chain(self.additionals.iter())
        {
            encode_record(out, start, r, &mut offsets);
        }
    }

    /// Append the wire form of `Message::query(id, question)` without
    /// building the message: the stub's per-query fast path.
    pub fn encode_query_into(out: &mut Vec<u8>, id: u16, question: &Question) {
        let start = out.len();
        out.extend_from_slice(&id.to_be_bytes());
        out.extend_from_slice(&[0x01, 0, 0, 1, 0, 0, 0, 0, 0, 0]); // RD; one question
        encode_name(out, start, &question.name, &mut Offsets::default());
        out.extend_from_slice(&question.rtype.to_u16().to_be_bytes());
        out.extend_from_slice(&1u16.to_be_bytes()); // class IN
    }

    /// Parse from wire bytes.
    pub fn decode(buf: &[u8]) -> Result<Message, DnsError> {
        let mut pos = 0usize;
        let id = read_u16(buf, &mut pos)?;
        let b2 = read_u8(buf, &mut pos)?;
        let b3 = read_u8(buf, &mut pos)?;
        let qd = read_u16(buf, &mut pos)? as usize;
        let an = read_u16(buf, &mut pos)? as usize;
        let ns = read_u16(buf, &mut pos)? as usize;
        let ar = read_u16(buf, &mut pos)? as usize;
        let mut questions = Vec::with_capacity(qd);
        for _ in 0..qd {
            let name = decode_name(buf, &mut pos)?;
            let rtype = RType::from_u16(read_u16(buf, &mut pos)?);
            let _class = read_u16(buf, &mut pos)?;
            questions.push(Question { name, rtype });
        }
        let read_records = |n: usize, pos: &mut usize| -> Result<Vec<Record>, DnsError> {
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                out.push(decode_record(buf, pos)?);
            }
            Ok(out)
        };
        let answers = read_records(an, &mut pos)?;
        let authorities = read_records(ns, &mut pos)?;
        let additionals = read_records(ar, &mut pos)?;
        Ok(Message {
            id,
            is_response: b2 & 0x80 != 0,
            opcode: (b2 >> 3) & 0x0f,
            authoritative: b2 & 0x04 != 0,
            truncated: b2 & 0x02 != 0,
            recursion_desired: b2 & 0x01 != 0,
            recursion_available: b3 & 0x80 != 0,
            rcode: Rcode::from_u8(b3 & 0x0f),
            questions,
            answers,
            authorities,
            additionals,
        })
    }
}

pub(crate) fn read_u8(buf: &[u8], pos: &mut usize) -> Result<u8, DnsError> {
    let v = *buf.get(*pos).ok_or(DnsError::Truncated("u8"))?;
    *pos += 1;
    Ok(v)
}

pub(crate) fn read_u16(buf: &[u8], pos: &mut usize) -> Result<u16, DnsError> {
    if *pos + 2 > buf.len() {
        return Err(DnsError::Truncated("u16"));
    }
    let v = u16::from_be_bytes([buf[*pos], buf[*pos + 1]]);
    *pos += 2;
    Ok(v)
}

pub(crate) fn read_u32(buf: &[u8], pos: &mut usize) -> Result<u32, DnsError> {
    if *pos + 4 > buf.len() {
        return Err(DnsError::Truncated("u32"));
    }
    let v = u32::from_be_bytes([buf[*pos], buf[*pos + 1], buf[*pos + 2], buf[*pos + 3]]);
    *pos += 4;
    Ok(v)
}

/// Name-suffix → message-offset table for compression. A message writes
/// a few dozen suffixes at most, so a linear scan over an inline array
/// beats hashing and allocates nothing; longer messages spill to a `Vec`.
/// Entries are unique (a suffix is inserted only when absent), so lookup
/// order cannot change which offset is found.
#[derive(Default)]
struct Offsets<'n> {
    inline: [(&'n [String], u16); 24],
    len: usize,
    spill: Vec<(&'n [String], u16)>,
}

impl<'n> Offsets<'n> {
    fn get(&self, suffix: &[String]) -> Option<u16> {
        self.inline[..self.len]
            .iter()
            .chain(&self.spill)
            .find(|(s, _)| *s == suffix)
            .map(|&(_, off)| off)
    }

    fn insert(&mut self, suffix: &'n [String], off: u16) {
        if self.len < self.inline.len() {
            self.inline[self.len] = (suffix, off);
            self.len += 1;
        } else {
            self.spill.push((suffix, off));
        }
    }
}

/// Encode `name`, emitting a compression pointer when any suffix of it has
/// already been written (RFC 1035 §4.1.4). `start` is where the message
/// begins in `out`; pointers are relative to it.
///
/// The compression table is keyed by borrowed label slices: a suffix is
/// just `&labels[i..]` of a name the message already owns, so tracking it
/// allocates nothing. Because `DnsName` canonicalizes to lower case at
/// construction, slice equality is exactly DNS name equality, and the
/// first-occurrence pointer targets (hence the emitted bytes) are identical
/// to the historic owned-key implementation.
fn encode_name<'n>(out: &mut Vec<u8>, start: usize, name: &'n DnsName, offsets: &mut Offsets<'n>) {
    let labels = name.labels();
    for i in 0..labels.len() {
        let suffix = &labels[i..];
        if let Some(off) = offsets.get(suffix) {
            out.extend_from_slice(&(0xc000 | off).to_be_bytes());
            return;
        }
        let here = out.len() - start;
        if here < 0x3fff {
            offsets.insert(suffix, here as u16);
        }
        let l = labels[i].as_bytes();
        out.push(l.len() as u8);
        out.extend_from_slice(l);
    }
    out.push(0);
}

/// Decode a possibly-compressed name starting at `*pos`; leaves `*pos` just
/// past the name in the original stream.
fn decode_name(buf: &[u8], pos: &mut usize) -> Result<DnsName, DnsError> {
    let mut labels: Vec<String> = Vec::new();
    let mut cursor = *pos;
    let mut jumped = false;
    let mut end_pos = *pos;
    let mut hops = 0usize;
    loop {
        let len = *buf.get(cursor).ok_or(DnsError::Truncated("name"))? as usize;
        if len & 0xc0 == 0xc0 {
            let b2 = *buf.get(cursor + 1).ok_or(DnsError::Truncated("pointer"))? as usize;
            let target = ((len & 0x3f) << 8) | b2;
            if !jumped {
                end_pos = cursor + 2;
                jumped = true;
            }
            if target >= cursor {
                return Err(DnsError::BadPointer(target));
            }
            hops += 1;
            if hops > 64 {
                return Err(DnsError::BadPointer(target));
            }
            cursor = target;
            continue;
        }
        if len & 0xc0 != 0 {
            return Err(DnsError::BadField("label-length", len as u64));
        }
        cursor += 1;
        if len == 0 {
            if !jumped {
                end_pos = cursor;
            }
            break;
        }
        if cursor + len > buf.len() {
            return Err(DnsError::Truncated("label"));
        }
        // Labels must be ASCII: `DnsName` stores `String` labels, and a
        // non-ASCII byte would inflate under lossy UTF-8 conversion,
        // desynchronising string lengths from wire lengths (the borrowed
        // `NameRef` path checks wire lengths only). Reject at the wire
        // level so both decode paths apply the identical rule, then
        // lower-case in a single allocation per label.
        let bytes = &buf[cursor..cursor + len];
        if let Some(&bad) = bytes.iter().find(|b| !b.is_ascii()) {
            return Err(DnsError::BadField("label-byte", bad as u64));
        }
        let mut label = bytes.to_vec();
        label.make_ascii_lowercase();
        labels.push(String::from_utf8(label).expect("ascii bytes are valid utf-8"));
        cursor += len;
    }
    *pos = end_pos;
    // Label lengths were validated during the walk (1..=63 per the 0xc0
    // check); only the 255-octet total can still fail.
    DnsName::from_lowercased_labels(labels).map_err(|_| DnsError::BadField("name", 0))
}

fn encode_record<'n>(out: &mut Vec<u8>, start: usize, r: &'n Record, offsets: &mut Offsets<'n>) {
    encode_name(out, start, &r.name, offsets);
    out.extend_from_slice(&r.data.rtype().to_u16().to_be_bytes());
    // The class field is IN, except for OPT where RFC 6891 repurposes it
    // as the requestor's UDP payload size.
    let class = match &r.data {
        RData::Opt { payload_size, .. } => *payload_size,
        _ => 1,
    };
    out.extend_from_slice(&class.to_be_bytes());
    out.extend_from_slice(&r.ttl.to_be_bytes());
    let len_pos = out.len();
    out.extend_from_slice(&[0, 0]);
    let data_start = out.len();
    match &r.data {
        RData::A(a) => out.extend_from_slice(&a.octets()),
        RData::Aaaa(a) => out.extend_from_slice(&a.octets()),
        RData::Cname(n) | RData::Ns(n) | RData::Ptr(n) => encode_name(out, start, n, offsets),
        RData::Mx {
            preference,
            exchange,
        } => {
            out.extend_from_slice(&preference.to_be_bytes());
            encode_name(out, start, exchange, offsets);
        }
        RData::Txt(strings) => {
            for s in strings {
                let b = s.as_bytes();
                out.push(b.len().min(255) as u8);
                out.extend_from_slice(&b[..b.len().min(255)]);
            }
        }
        RData::Soa {
            mname,
            rname,
            serial,
            refresh,
            retry,
            expire,
            minimum,
        } => {
            encode_name(out, start, mname, offsets);
            encode_name(out, start, rname, offsets);
            out.extend_from_slice(&serial.to_be_bytes());
            out.extend_from_slice(&refresh.to_be_bytes());
            out.extend_from_slice(&retry.to_be_bytes());
            out.extend_from_slice(&expire.to_be_bytes());
            out.extend_from_slice(&minimum.to_be_bytes());
        }
        RData::Opt { data, .. } => out.extend_from_slice(data),
        RData::Raw(_, data) => out.extend_from_slice(data),
    }
    let rdlen = (out.len() - data_start) as u16;
    out[len_pos..len_pos + 2].copy_from_slice(&rdlen.to_be_bytes());
}

fn decode_record(buf: &[u8], pos: &mut usize) -> Result<Record, DnsError> {
    let name = decode_name(buf, pos)?;
    let rtype = RType::from_u16(read_u16(buf, pos)?);
    let class = read_u16(buf, pos)?;
    let ttl = read_u32(buf, pos)?;
    let rdlen = read_u16(buf, pos)? as usize;
    if *pos + rdlen > buf.len() {
        return Err(DnsError::Truncated("rdata"));
    }
    let rdata_end = *pos + rdlen;
    let data = match rtype {
        RType::A => {
            if rdlen != 4 {
                return Err(DnsError::BadField("a-rdlen", rdlen as u64));
            }
            let d = RData::A(Ipv4Addr::new(
                buf[*pos],
                buf[*pos + 1],
                buf[*pos + 2],
                buf[*pos + 3],
            ));
            *pos = rdata_end;
            d
        }
        RType::Aaaa => {
            if rdlen != 16 {
                return Err(DnsError::BadField("aaaa-rdlen", rdlen as u64));
            }
            let mut o = [0u8; 16];
            o.copy_from_slice(&buf[*pos..rdata_end]);
            *pos = rdata_end;
            RData::Aaaa(Ipv6Addr::from(o))
        }
        RType::Cname => {
            let n = decode_name(buf, pos)?;
            *pos = rdata_end;
            RData::Cname(n)
        }
        RType::Ns => {
            let n = decode_name(buf, pos)?;
            *pos = rdata_end;
            RData::Ns(n)
        }
        RType::Ptr => {
            let n = decode_name(buf, pos)?;
            *pos = rdata_end;
            RData::Ptr(n)
        }
        RType::Mx => {
            let preference = read_u16(buf, pos)?;
            let exchange = decode_name(buf, pos)?;
            *pos = rdata_end;
            RData::Mx {
                preference,
                exchange,
            }
        }
        RType::Txt => {
            let mut strings = Vec::new();
            while *pos < rdata_end {
                let l = read_u8(buf, pos)? as usize;
                if *pos + l > rdata_end {
                    return Err(DnsError::Truncated("txt"));
                }
                strings.push(String::from_utf8_lossy(&buf[*pos..*pos + l]).into_owned());
                *pos += l;
            }
            RData::Txt(strings)
        }
        RType::Soa => {
            let mname = decode_name(buf, pos)?;
            let rname = decode_name(buf, pos)?;
            let serial = read_u32(buf, pos)?;
            let refresh = read_u32(buf, pos)?;
            let retry = read_u32(buf, pos)?;
            let expire = read_u32(buf, pos)?;
            let minimum = read_u32(buf, pos)?;
            *pos = rdata_end;
            RData::Soa {
                mname,
                rname,
                serial,
                refresh,
                retry,
                expire,
                minimum,
            }
        }
        RType::Opt => {
            let d = RData::Opt {
                payload_size: class,
                data: buf[*pos..rdata_end].to_vec(),
            };
            *pos = rdata_end;
            d
        }
        other => {
            let d = RData::Raw(other.to_u16(), buf[*pos..rdata_end].to_vec());
            *pos = rdata_end;
            d
        }
    };
    Ok(Record { name, ttl, data })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> DnsName {
        s.parse().unwrap()
    }

    fn soa() -> RData {
        RData::Soa {
            mname: n("ns1.rfc8925.com"),
            rname: n("hostmaster.rfc8925.com"),
            serial: 20_240_801,
            refresh: 7200,
            retry: 900,
            expire: 1209600,
            minimum: 300,
        }
    }

    #[test]
    fn query_roundtrip() {
        let q = Message::query(0x1234, Question::new(n("ip6.me"), RType::A));
        let decoded = Message::decode(&q.encode()).unwrap();
        assert_eq!(decoded, q);
    }

    #[test]
    fn response_with_all_rtypes_roundtrips() {
        let q = Message::query(7, Question::new(n("sc24.supercomputing.org"), RType::Any));
        let mut resp = Message::response_to(&q, Rcode::NoError);
        resp.authoritative = true;
        resp.answers = vec![
            Record::new(
                n("sc24.supercomputing.org"),
                300,
                RData::A("190.92.158.4".parse().unwrap()),
            ),
            Record::new(
                n("sc24.supercomputing.org"),
                300,
                RData::Aaaa("64:ff9b::be5c:9e04".parse().unwrap()),
            ),
            Record::new(
                n("www.sc24.supercomputing.org"),
                60,
                RData::Cname(n("sc24.supercomputing.org")),
            ),
            Record::new(
                n("sc24.supercomputing.org"),
                600,
                RData::Mx {
                    preference: 10,
                    exchange: n("mail.sc24.supercomputing.org"),
                },
            ),
            Record::new(
                n("sc24.supercomputing.org"),
                600,
                RData::Txt(vec!["v=spf1 -all".into()]),
            ),
        ];
        resp.authorities = vec![
            Record::new(
                n("supercomputing.org"),
                3600,
                RData::Ns(n("ns1.supercomputing.org")),
            ),
            Record::new(n("supercomputing.org"), 300, soa()),
        ];
        resp.additionals = vec![Record::new(
            n("ns1.supercomputing.org"),
            3600,
            RData::A("198.51.100.53".parse().unwrap()),
        )];
        let decoded = Message::decode(&resp.encode()).unwrap();
        assert_eq!(decoded, resp);
    }

    #[test]
    fn compression_shrinks_and_roundtrips() {
        let mut resp = Message::query(
            1,
            Question::new(n("a.very.long.domain.example.com"), RType::A),
        );
        resp.is_response = true;
        for i in 0..5 {
            resp.answers.push(Record::new(
                n("a.very.long.domain.example.com"),
                60,
                RData::A(Ipv4Addr::new(192, 0, 2, i)),
            ));
        }
        let bytes = resp.encode();
        // Five answers of the same 32-byte name must compress to pointers.
        assert!(
            bytes.len() < 12 + 36 + 5 * (2 + 10 + 4) + 20,
            "compression not effective: {} bytes",
            bytes.len()
        );
        assert_eq!(Message::decode(&bytes).unwrap(), resp);
    }

    #[test]
    fn forward_pointer_rejected() {
        // Pointer to self → must error, not loop.
        let mut bytes = Message::query(1, Question::new(n("x"), RType::A)).encode();
        // Overwrite the question name (starts at offset 12) with a pointer to
        // itself.
        bytes[12] = 0xc0;
        bytes[13] = 12;
        assert!(matches!(
            Message::decode(&bytes),
            Err(DnsError::BadPointer(_))
        ));
    }

    #[test]
    fn flags_roundtrip() {
        let mut m = Message::query(9, Question::new(n("ip6.me"), RType::Aaaa));
        m.is_response = true;
        m.authoritative = true;
        m.truncated = true;
        m.recursion_available = true;
        m.rcode = Rcode::NxDomain;
        let d = Message::decode(&m.encode()).unwrap();
        assert_eq!(d, m);
    }

    #[test]
    fn helper_accessors() {
        let q = Message::query(2, Question::new(n("ip6.me"), RType::A));
        let mut r = Message::response_to(&q, Rcode::NoError);
        r.answers.push(Record::new(
            n("ip6.me"),
            60,
            RData::A("23.153.8.71".parse().unwrap()),
        ));
        r.answers.push(Record::new(
            n("ip6.me"),
            60,
            RData::Aaaa("2001:4810:0:3::71".parse().unwrap()),
        ));
        assert_eq!(
            r.a_answers(),
            vec!["23.153.8.71".parse::<Ipv4Addr>().unwrap()]
        );
        assert_eq!(
            r.aaaa_answers(),
            vec!["2001:4810:0:3::71".parse::<Ipv6Addr>().unwrap()]
        );
    }

    #[test]
    fn truncated_input_errors() {
        let bytes = Message::query(3, Question::new(n("ip6.me"), RType::A)).encode();
        for cut in [0, 5, 11, bytes.len() - 1] {
            assert!(Message::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn opt_pseudo_record_roundtrips_payload_size() {
        // RFC 6891: CLASS carries the payload size, not IN; it must
        // survive a decode/encode cycle byte-identically.
        let mut m = Message::query(5, Question::new(n("ip6.me"), RType::A));
        m.additionals.push(Record::new(
            DnsName::root(),
            0,
            RData::Opt {
                payload_size: 1232,
                data: vec![0, 15, 0, 2, 0, 1], // EDE option, info-code 1
            },
        ));
        let bytes = m.encode();
        let decoded = Message::decode(&bytes).unwrap();
        assert_eq!(decoded, m);
        assert_eq!(decoded.encode(), bytes);
        match &decoded.additionals[0].data {
            RData::Opt { payload_size, data } => {
                assert_eq!(*payload_size, 1232);
                assert_eq!(data, &[0, 15, 0, 2, 0, 1]);
            }
            other => panic!("expected OPT, got {other:?}"),
        }
    }

    #[test]
    fn unknown_rtype_carried_raw() {
        let mut m = Message::query(4, Question::new(n("x.example"), RType::Other(99)));
        m.is_response = true;
        m.answers.push(Record::new(
            n("x.example"),
            5,
            RData::Raw(99, vec![1, 2, 3, 4, 5]),
        ));
        assert_eq!(Message::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn encode_into_is_position_independent_and_query_writer_matches() {
        let mut resp = Message::query(9, Question::new(n("www.rfc8925.com"), RType::Aaaa));
        resp.answers.push(Record::new(
            n("www.rfc8925.com"),
            60,
            RData::Cname(n("rfc8925.com")),
        ));
        let mut out = vec![0xaa; 42];
        resp.encode_into(&mut out);
        assert_eq!(
            &out[42..],
            &resp.encode()[..],
            "compression offsets are message-relative"
        );

        for (id, name, rtype) in [
            (1, "ip6.me", RType::A),
            (0xbeef, "sc24.supercomputing.org", RType::Aaaa),
        ] {
            let q = Question::new(n(name), rtype);
            let mut out = vec![7, 7];
            Message::encode_query_into(&mut out, id, &q);
            assert_eq!(&out[2..], &Message::query(id, q).encode()[..]);
        }
    }
}
