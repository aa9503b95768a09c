//! Hostile input for the `XPS_FAULTS` spec parser: on any string
//! `FaultPlan::parse` returns a plan or a one-line error naming what
//! it refused, never a panic, and an accepted plan answers every task
//! key.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::select;
use xps_explore::FaultPlan;

/// A spec string of fault keys, values and separators, with an
/// occasional arbitrary token.
fn arb_spec() -> impl Strategy<Value = String> {
    let token = select(vec![
        "rate",
        "seed",
        "attempts",
        "kind",
        "target",
        "panic",
        "error",
        "forever",
        "=",
        ",",
        " ",
        "0",
        "7",
        "100",
        "101",
        "256",
        "-1",
        "4294967296",
        "99999999999999999999",
        "",
        "anneal#",
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fault_spec_parse_never_panics(spec in arb_spec(), bytes in vec(any::<u8>(), 40)) {
        for spec in [spec, String::from_utf8_lossy(&bytes).into_owned()] {
            match FaultPlan::parse(&spec) {
                Ok(plan) => {
                    for attempt in [0, 1, u32::MAX] {
                        let _ = plan.injects("anneal#0/1", attempt);
                    }
                }
                Err(e) => {
                    prop_assert!(!e.is_empty());
                    // A refusal is one line, whatever the spec held.
                    prop_assert!(!e.contains(['\n', '\r']), "{e:?}");
                }
            }
        }
    }
}
