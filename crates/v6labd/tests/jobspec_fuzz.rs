//! Outside input to the daemon's job API: any `POST /jobs` body gives a
//! valid job spec or a classified error message — never a panic, and
//! never a spec the runner cannot execute within its limits.

use proptest::prelude::*;
use v6labd::jobs::MAX_POPULATION_SHARDS;
use v6labd::JobSpec;

/// The contract on one body: a parse error is a non-empty message; an
/// accepted population job has a size and a shard count in range.
fn check(body: &str) {
    match JobSpec::parse(body) {
        Ok(JobSpec::Population { size, shards, .. }) => {
            assert!(size > 0, "accepted an empty population: {body:?}");
            assert!(
                (1..=MAX_POPULATION_SHARDS).contains(&shards) && shards as u64 <= size,
                "accepted {shards} shards for {size} cells: {body:?}"
            );
        }
        Ok(JobSpec::Matrix { .. }) => {}
        Err(msg) => assert!(!msg.is_empty(), "unclassified rejection of {body:?}"),
    }
}

const TEMPLATES: &[&str] = &[
    r#"{"kind":"matrix","fault":"lossy-uplink","base_seed":42}"#,
    r#"{"kind":"population","size":1000,"seed":7,"shards":8,"pace_ms":0}"#,
    r#"{"kind":"population","size":1,"shards":1}"#,
    r#"{"kind":"matrix"}"#,
];

proptest! {
    #[test]
    fn arbitrary_bytes_parse_or_classify(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        check(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn mutated_bodies_parse_or_classify(
        which in 0usize..TEMPLATES.len(),
        at in any::<prop::sample::Index>(),
        byte in any::<u8>(),
        cut in any::<prop::sample::Index>(),
    ) {
        let template = TEMPLATES[which].as_bytes();
        let mut body = template.to_vec();
        let i = at.index(body.len());
        body[i] = byte;
        check(&String::from_utf8_lossy(&body));
        check(&String::from_utf8_lossy(&template[..cut.index(template.len() + 1)]));
    }

    #[test]
    fn numeric_fields_parse_or_classify(
        size in any::<u64>(),
        shards in any::<u64>(),
        negative in any::<bool>(),
    ) {
        let sign = if negative { "-" } else { "" };
        check(&format!(r#"{{"kind":"population","size":{size},"shards":{sign}{shards}}}"#));
    }
}

#[test]
fn deep_nesting_is_a_classified_error() {
    // The body limit is 1 MiB; a body of nothing but brackets must be
    // refused, not recurse the parser off the end of its stack.
    for open in ["[", "{\"a\":"] {
        let body = open.repeat(200_000);
        let err = JobSpec::parse(&body).expect_err("not a job");
        assert!(err.contains("nesting"), "{err}");
    }
}
