//! Hostile input for the serving layer's byte parsers: the request
//! reader a worker runs on every connection, the response reader a
//! coordinator runs on every answer, and the `XPS_NET_FAULTS` spec.
//! On any input each returns a value or a typed error — never a panic,
//! and never a body past the limit it enforces.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::select;
use std::io::Cursor;
use xps_serve::client::read_response;
use xps_serve::http::{Request, MAX_BODY};
use xps_serve::{NetFaultPlan, ServeError};

/// Bytes HTTP framing is built from, so random draws reach the
/// parsers' deeper branches (line ends, header separators, lengths,
/// a stray non-UTF-8 byte).
const ALPHABET: &[u8] = b"GET POST HTTP/1.1 200 \r\n:Content-Length 0123456789-/xA\xff\xc3";

/// Arbitrary bytes: each drawn from the whole byte range or the
/// framing alphabet.
fn arb_bytes() -> impl Strategy<Value = Vec<u8>> {
    (0usize..300).prop_flat_map(|n| {
        vec(
            (any::<u8>(), select(ALPHABET.to_vec()), any::<bool>()).prop_map(|(b, a, wide)| {
                if wide {
                    b
                } else {
                    a
                }
            }),
            n,
        )
    })
}

/// A spec string of net-fault keys, values and separators, with an
/// occasional arbitrary token.
fn arb_net_spec() -> impl Strategy<Value = String> {
    let token = select(vec![
        "drop",
        "delay",
        "truncate",
        "duplicate",
        "garbage",
        "seed",
        "delay_ms",
        "=",
        ",",
        " ",
        "0",
        "5",
        "100",
        "101",
        "255",
        "256",
        "-1",
        "99999999999999999999",
        "",
        "x",
        "\n",
        "\r",
    ]);
    (0usize..16).prop_flat_map(move |n| {
        vec((token.clone(), any::<u8>()), n).prop_map(|parts| {
            parts
                .into_iter()
                .map(|(t, b)| {
                    if b % 16 == 0 {
                        String::from_utf8_lossy(&[b, b.wrapping_mul(7)]).into_owned()
                    } else {
                        t.to_string()
                    }
                })
                .collect()
        })
    })
}

/// A well-formed request and response to mutate.
const REQUEST: &[u8] = b"POST /tasks HTTP/1.1\r\nHost: w\r\nContent-Length: 4\r\n\r\n{\"a\"";
const RESPONSE: &[u8] =
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}";

fn mutate(base: &[u8], at: usize, byte: u8, cut: usize) -> Vec<u8> {
    let mut bytes = base.to_vec();
    let at = at % bytes.len();
    bytes[at] = byte;
    bytes.truncate(bytes.len() - cut % bytes.len());
    bytes
}

fn typed(e: &ServeError) -> bool {
    matches!(
        e,
        ServeError::BadRequest(_) | ServeError::TooLarge { .. } | ServeError::Io(_)
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn request_parse_never_panics_on_arbitrary_bytes(bytes in arb_bytes()) {
        match Request::parse(&mut Cursor::new(&bytes)) {
            Ok(r) => prop_assert!(r.body.len() <= MAX_BODY),
            Err(e) => prop_assert!(matches!(e.status(), 400 | 413), "{}", e),
        }
    }

    #[test]
    fn request_parse_never_panics_on_a_mutated_request(
        at in 0usize..1_000,
        byte in any::<u8>(),
        cut in 0usize..1_000,
    ) {
        let bytes = mutate(REQUEST, at, byte, cut);
        if let Err(e) = Request::parse(&mut Cursor::new(&bytes)) {
            prop_assert!(matches!(e.status(), 400 | 413), "{}", e);
        }
    }

    #[test]
    fn read_response_never_panics_on_arbitrary_bytes(bytes in arb_bytes()) {
        match read_response(&mut Cursor::new(&bytes)) {
            Ok(r) => prop_assert!(r.body.len() <= MAX_BODY),
            Err(e) => prop_assert!(typed(&e), "{}", e),
        }
    }

    #[test]
    fn read_response_never_panics_on_a_mutated_response(
        at in 0usize..1_000,
        byte in any::<u8>(),
        cut in 0usize..1_000,
    ) {
        let bytes = mutate(RESPONSE, at, byte, cut);
        if let Err(e) = read_response(&mut Cursor::new(&bytes)) {
            prop_assert!(typed(&e), "{}", e);
        }
    }

    #[test]
    fn net_fault_spec_parse_never_panics(spec in arb_net_spec(), bytes in arb_bytes()) {
        for spec in [spec, String::from_utf8_lossy(&bytes).into_owned()] {
            match NetFaultPlan::parse(&spec) {
                // An accepted plan is usable: any key draws a fault or none.
                Ok(plan) => {
                    let _ = plan.injects("task#0/0@0");
                }
                // A refusal is one line, whatever the spec held.
                Err(e) => prop_assert!(!e.contains(['\n', '\r']), "{e:?}"),
            }
        }
    }
}
