//! Outside input to the zone master-file parser: any text gives a zone
//! or a classified [`MasterError`] — never a panic — and every accepted
//! zone emits and re-parses to itself.

use proptest::prelude::*;
use v6dns::master::{emit, parse, MasterError};

const FIXTURE: &str = "$ORIGIN example.test.\n$TTL 300\n\
@\tIN\tSOA\tns1 hostmaster 1 7200 900 1209600 60\n\
@\tIN\tNS\tns1\n\
ns1\t300\tIN\tA\t192.0.2.53\n\
www\tIN\tAAAA\t2001:db8::80\n\
mail\tIN\tMX\t10 mx.example.test.\n\
txt\tIN\tTXT\t\"hello world\" more\n\
( alias\tIN\tCNAME\twww ) ; comment\n";

/// The contract on one input.
fn check(text: &str) {
    match parse(text) {
        Ok(zone) => {
            // Accepted zones have a canonical form that parses back equal.
            if let Ok(canon) = emit(&zone) {
                let again = parse(&canon).expect("canonical form re-parses");
                assert_eq!(emit(&again).expect("re-emits"), canon);
            }
        }
        Err(MasterError::Syntax { line, msg }) => {
            assert!(line >= 1 && !msg.is_empty(), "unclassified error");
        }
        Err(MasterError::Unrepresentable { .. }) => {
            panic!("parse never builds unrepresentable data")
        }
    }
}

proptest! {
    #[test]
    fn arbitrary_text_parses_or_classifies(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        check(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn mutated_fixture_parses_or_classifies(
        at in any::<prop::sample::Index>(),
        byte in 0x20u8..0x7f,
        cut in any::<prop::sample::Index>(),
    ) {
        let mut text = FIXTURE.as_bytes().to_vec();
        let i = at.index(text.len());
        text[i] = byte;
        check(&String::from_utf8_lossy(&text));
        check(&FIXTURE[..cut.index(FIXTURE.len() + 1)]);
    }

    #[test]
    fn token_soup_parses_or_classifies(
        words in proptest::collection::vec(
            prop_oneof![
                Just("$ORIGIN"), Just("$TTL"), Just("@"), Just("."), Just("IN"),
                Just("SOA"), Just("NS"), Just("A"), Just("AAAA"), Just("MX"),
                Just("TXT"), Just("CNAME"), Just("PTR"), Just("("), Just(")"),
                Just("\n"), Just("\""), Just(";"), Just("x.test."), Just("300"),
                Just("4294967296"), Just("192.0.2.1"), Just("::1"), Just("a"),
            ],
            0..40,
        ),
    ) {
        check(&words.join(" "));
    }
}
