//! A miniature TCP endpoint.
//!
//! The simulator's links are reliable and in-order, so this endpoint keeps
//! the full connection lifecycle (three-way handshake, sequence/ack
//! arithmetic, FIN teardown, RST on refused connections) while omitting
//! retransmission, reordering and flow control. Hosts and the portal's web
//! servers drive it with [`TcpEndpoint::on_segment`]; the address family is
//! the caller's concern (segments are wrapped in IPv4 or IPv6 outside).

use v6wire::tcp::{TcpFlags, TcpSegment};
use v6wire::view::TcpView;

/// Maximum payload carried per segment (conservative IPv6 MSS).
pub const SEGMENT_SIZE: usize = 1200;

/// Connection state (RFC 9293 subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// No connection.
    Closed,
    /// Passive open.
    Listen,
    /// SYN sent, awaiting SYN-ACK.
    SynSent,
    /// SYN received, SYN-ACK sent.
    SynRcvd,
    /// Data may flow.
    Established,
    /// We closed first, awaiting peer FIN.
    FinWait,
    /// Peer closed first; we may still send.
    CloseWait,
    /// Our FIN sent after CloseWait.
    LastAck,
}

/// One endpoint of a TCP connection.
///
/// ```
/// use v6sim::tcp::{pump, TcpEndpoint};
///
/// let mut server = TcpEndpoint::listen(80);
/// let (mut client, syn) = TcpEndpoint::connect(50000, 80, 1000);
/// pump(&mut client, &mut server, vec![(true, syn)]);
/// assert!(client.is_established() && server.is_established());
///
/// let segs = client.send(b"GET / HTTP/1.1\r\n\r\n");
/// pump(&mut client, &mut server, segs.into_iter().map(|s| (true, s)).collect());
/// assert!(server.received.starts_with(b"GET /"));
/// ```
#[derive(Debug)]
pub struct TcpEndpoint {
    /// Current state.
    pub state: TcpState,
    /// Local port.
    pub local_port: u16,
    /// Remote port (0 while listening).
    pub remote_port: u16,
    snd_nxt: u32,
    rcv_nxt: u32,
    /// Application data received, in order.
    pub received: Vec<u8>,
    /// Peer closed its direction.
    pub peer_closed: bool,
}

impl TcpEndpoint {
    /// A passive (listening) endpoint on `port`.
    pub fn listen(port: u16) -> TcpEndpoint {
        TcpEndpoint {
            state: TcpState::Listen,
            local_port: port,
            remote_port: 0,
            snd_nxt: 0,
            rcv_nxt: 0,
            received: Vec::new(),
            peer_closed: false,
        }
    }

    /// An active open: returns the endpoint and the SYN to transmit.
    /// `iss` is the initial sequence number (callers pass something
    /// deterministic per flow).
    pub fn connect(local_port: u16, remote_port: u16, iss: u32) -> (TcpEndpoint, TcpSegment) {
        let mut syn = TcpSegment::new(local_port, remote_port, iss, 0, TcpFlags::SYN);
        syn.mss = Some(SEGMENT_SIZE as u16);
        (
            TcpEndpoint {
                state: TcpState::SynSent,
                local_port,
                remote_port,
                snd_nxt: iss.wrapping_add(1),
                rcv_nxt: 0,
                received: Vec::new(),
                peer_closed: false,
            },
            syn,
        )
    }

    /// Is the connection fully usable for data?
    pub fn is_established(&self) -> bool {
        self.state == TcpState::Established
    }

    /// Is the connection finished (both sides closed or reset)?
    pub fn is_closed(&self) -> bool {
        self.state == TcpState::Closed
    }

    fn seg(&self, flags: TcpFlags) -> TcpSegment {
        TcpSegment::new(
            self.local_port,
            self.remote_port,
            self.snd_nxt,
            self.rcv_nxt,
            flags,
        )
    }

    /// Feed an incoming segment (a received view, or `&TcpSegment`);
    /// returns the one segment to transmit in response, if any.
    pub fn on_segment<'s>(&mut self, seg: impl Into<TcpView<'s>>) -> Option<TcpSegment> {
        let seg = &seg.into();
        match self.state {
            TcpState::Listen => {
                if seg.flags.syn && !seg.flags.ack {
                    self.remote_port = seg.src_port;
                    self.rcv_nxt = seg.seq.wrapping_add(1);
                    // Deterministic ISS derived from the peer's.
                    let iss = seg.seq.wrapping_add(0x1000_0000);
                    self.snd_nxt = iss.wrapping_add(1);
                    self.state = TcpState::SynRcvd;
                    let mut synack = TcpSegment::new(
                        self.local_port,
                        self.remote_port,
                        iss,
                        self.rcv_nxt,
                        TcpFlags::SYN_ACK,
                    );
                    synack.mss = Some(SEGMENT_SIZE as u16);
                    Some(synack)
                } else if seg.flags.rst {
                    None
                } else {
                    // Anything else to a listener: RST.
                    Some(TcpSegment::new(
                        self.local_port,
                        seg.src_port,
                        seg.ack,
                        seg.seq.wrapping_add(seg.seq_len()),
                        TcpFlags::RST,
                    ))
                }
            }
            TcpState::SynSent => {
                if seg.flags.rst {
                    self.state = TcpState::Closed;
                    return None;
                }
                if seg.flags.syn && seg.flags.ack && seg.ack == self.snd_nxt {
                    self.rcv_nxt = seg.seq.wrapping_add(1);
                    self.state = TcpState::Established;
                    Some(self.seg(TcpFlags::ACK))
                } else {
                    None
                }
            }
            TcpState::SynRcvd => {
                if seg.flags.rst {
                    self.state = TcpState::Closed;
                    return None;
                }
                if seg.flags.ack && seg.ack == self.snd_nxt {
                    self.state = TcpState::Established;
                    // The ACK may carry data already.
                    return self.absorb(seg);
                }
                None
            }
            TcpState::Established | TcpState::FinWait | TcpState::CloseWait => self.absorb(seg),
            TcpState::LastAck => {
                if seg.flags.ack && seg.ack == self.snd_nxt {
                    self.state = TcpState::Closed;
                }
                None
            }
            TcpState::Closed => {
                if seg.flags.rst {
                    None
                } else {
                    Some(TcpSegment::new(
                        self.local_port,
                        seg.src_port,
                        seg.ack,
                        seg.seq.wrapping_add(seg.seq_len()),
                        TcpFlags::RST,
                    ))
                }
            }
        }
    }

    /// Common data/FIN absorption for synchronized states.
    fn absorb(&mut self, seg: &TcpView<'_>) -> Option<TcpSegment> {
        if seg.flags.rst {
            self.state = TcpState::Closed;
            return None;
        }
        let mut advanced = false;
        if seg.seq == self.rcv_nxt {
            if !seg.payload.is_empty() {
                self.received.extend_from_slice(seg.payload);
                self.rcv_nxt = self.rcv_nxt.wrapping_add(seg.payload.len() as u32);
                advanced = true;
            }
            if seg.flags.fin {
                self.rcv_nxt = self.rcv_nxt.wrapping_add(1);
                self.peer_closed = true;
                advanced = true;
                match self.state {
                    TcpState::Established => self.state = TcpState::CloseWait,
                    TcpState::FinWait => self.state = TcpState::Closed,
                    _ => {}
                }
            }
        }
        // Pure ACK completing our FIN?
        if seg.flags.ack {
            match self.state {
                TcpState::FinWait if seg.ack == self.snd_nxt && self.peer_closed => {
                    self.state = TcpState::Closed;
                }
                _ => {}
            }
        }
        advanced.then(|| self.seg(TcpFlags::ACK))
    }

    /// Send application data; returns the segments to transmit.
    pub fn send(&mut self, data: &[u8]) -> Vec<TcpSegment> {
        assert!(
            matches!(self.state, TcpState::Established | TcpState::CloseWait),
            "send in state {:?}",
            self.state
        );
        let mut out = Vec::new();
        for chunk in data.chunks(SEGMENT_SIZE) {
            let mut s = self.seg(TcpFlags::PSH_ACK);
            s.payload = chunk.to_vec();
            self.snd_nxt = self.snd_nxt.wrapping_add(chunk.len() as u32);
            out.push(s);
        }
        out
    }

    /// Close our direction; returns the FIN to transmit, if any.
    pub fn close(&mut self) -> Option<TcpSegment> {
        let next = match self.state {
            TcpState::Established => TcpState::FinWait,
            TcpState::CloseWait => TcpState::LastAck,
            _ => return None,
        };
        let fin = self.seg(TcpFlags::FIN_ACK);
        self.snd_nxt = self.snd_nxt.wrapping_add(1);
        self.state = next;
        Some(fin)
    }
}

/// Drive two endpoints to completion over a perfect wire (test/bench
/// helper): delivers segments back and forth until both sides go quiet.
pub fn pump(a: &mut TcpEndpoint, b: &mut TcpEndpoint, in_flight: Vec<(bool, TcpSegment)>) {
    // (to_b, segment): true = deliver to b, false = deliver to a. FIFO so
    // multi-segment sends keep their order, as the simulator's links do.
    let mut queue: std::collections::VecDeque<(bool, TcpSegment)> = in_flight.into();
    let mut budget = 200;
    while let Some((to_b, seg)) = queue.pop_front() {
        budget -= 1;
        if budget == 0 {
            panic!("tcp pump did not converge");
        }
        let reply = if to_b {
            b.on_segment(&seg)
        } else {
            a.on_segment(&seg)
        };
        if let Some(r) = reply {
            queue.push_back((!to_b, r));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn establish() -> (TcpEndpoint, TcpEndpoint) {
        let mut server = TcpEndpoint::listen(80);
        let (mut client, syn) = TcpEndpoint::connect(50000, 80, 1000);
        pump(&mut client, &mut server, vec![(true, syn)]);
        assert!(client.is_established());
        assert!(server.is_established());
        (client, server)
    }

    #[test]
    fn three_way_handshake() {
        let (c, s) = establish();
        assert_eq!(c.remote_port, 80);
        assert_eq!(s.remote_port, 50000);
    }

    #[test]
    fn request_response() {
        let (mut c, mut s) = establish();
        let req = c.send(b"GET / HTTP/1.1\r\nHost: ip6.me\r\n\r\n");
        pump(&mut c, &mut s, req.into_iter().map(|x| (true, x)).collect());
        assert_eq!(s.received, b"GET / HTTP/1.1\r\nHost: ip6.me\r\n\r\n");
        let resp = s.send(b"HTTP/1.1 200 OK\r\n\r\nyour address is ...");
        pump(
            &mut c,
            &mut s,
            resp.into_iter().map(|x| (false, x)).collect(),
        );
        assert!(c.received.starts_with(b"HTTP/1.1 200 OK"));
    }

    #[test]
    fn large_transfer_fragments() {
        let (mut c, mut s) = establish();
        let body = vec![0x42u8; 5000];
        let segs = c.send(&body);
        assert_eq!(segs.len(), 5); // ceil(5000/1200)
        pump(
            &mut c,
            &mut s,
            segs.into_iter().map(|x| (true, x)).collect(),
        );
        assert_eq!(s.received, body);
    }

    #[test]
    fn orderly_close_both_sides() {
        let (mut c, mut s) = establish();
        let fin = c.close();
        pump(&mut c, &mut s, fin.into_iter().map(|x| (true, x)).collect());
        assert_eq!(s.state, TcpState::CloseWait);
        let fin2 = s.close();
        pump(
            &mut c,
            &mut s,
            fin2.into_iter().map(|x| (false, x)).collect(),
        );
        assert!(c.is_closed(), "client state {:?}", c.state);
        assert!(s.is_closed(), "server state {:?}", s.state);
    }

    #[test]
    fn rst_on_closed_port() {
        // What the portal's IPv4 leg answers when further restricted (Fig. 8
        // scenario): connection refused.
        let mut closed = TcpEndpoint {
            state: TcpState::Closed,
            local_port: 80,
            remote_port: 0,
            snd_nxt: 0,
            rcv_nxt: 0,
            received: Vec::new(),
            peer_closed: false,
        };
        let (mut client, syn) = TcpEndpoint::connect(50000, 80, 1);
        let rst = closed.on_segment(&syn).expect("one reply");
        assert!(rst.flags.rst);
        let more = client.on_segment(&rst);
        assert!(more.is_none());
        assert!(client.is_closed(), "RST kills the connect attempt");
    }

    #[test]
    fn data_with_handshake_ack() {
        // Client sends data immediately with the handshake-completing ACK.
        let mut server = TcpEndpoint::listen(80);
        let (mut client, syn) = TcpEndpoint::connect(50000, 80, 7);
        let synack = server.on_segment(&syn).expect("syn-ack");
        let _ack = client.on_segment(&synack);
        let mut data_segs = client.send(b"hi");
        // Deliver only the data segment (drop the pure ACK) — server must
        // still establish and absorb.
        let data = data_segs.remove(0);
        server.on_segment(&data);
        assert!(server.is_established());
        assert_eq!(server.received, b"hi");
    }

    #[test]
    fn stray_segment_to_listener_rst() {
        let mut server = TcpEndpoint::listen(80);
        let stray = TcpSegment::new(1234, 80, 55, 0, TcpFlags::PSH_ACK);
        let reply = server.on_segment(&stray).expect("rst");
        assert!(reply.flags.rst);
        assert_eq!(server.state, TcpState::Listen);
    }
}
