//! Property tests for the lossless lexer: any source assembled from a
//! hostile fragment vocabulary (comments, strings, raw strings at
//! several hash depths, unterminated literals, multibyte text) must
//! round-trip byte-identically through the token stream with
//! consistent positions — and text inside comments or string literals
//! must never fabricate a lint finding, while the same text outside
//! them must.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::select;
use std::path::Path;

use xps_analyze::analyze_file;
use xps_analyze::lexer::{lex, TokenKind};

/// Fragments chosen to stress every lexer mode and the transitions
/// between them. Concatenations are allowed to merge (`0` + `.5`
/// becomes one number; an unterminated `"` swallows the rest) — the
/// losslessness property must hold regardless.
fn arb_fragment() -> impl Strategy<Value = &'static str> {
    select(vec![
        "fn main() { }",
        "let x = 1;",
        " ",
        "\n",
        "\t",
        "// line comment\n",
        "/// doc comment\n",
        "/* block */",
        "/* nested /* deep /* deeper */ */ */",
        "/* unterminated",
        "\"string with // no comment\"",
        "\"esc \\\" quote\"",
        "\"unterminated",
        "r\"raw\"",
        "r#\"raw /* with */ hash\"#",
        "r##\"deeper \"# still raw\"##",
        "r###\"deepest\"###",
        "r#\"unterminated raw",
        "b\"bytes\"",
        "b\"unterminated bytes",
        "br##\"raw bytes \"# inside\"##",
        "b'q'",
        "'c'",
        "'\\n'",
        "'\\''",
        "'static",
        "<'a>",
        "0",
        ".5",
        "1.5e-3",
        "0x_ff",
        "émigré",
        "ident_1",
        "::",
        ".unwrap()",
        "#[test]",
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lexing_is_lossless_with_consistent_positions(
        fragments in vec(arb_fragment(), 8),
        keep in 0usize..9,
    ) {
        let src: String = fragments[..keep].concat();
        let tokens = lex(&src);

        // Losslessness: the token texts concatenate back to the input.
        let rebuilt: String = tokens.iter().map(|t| t.text).collect();
        prop_assert_eq!(&rebuilt, &src, "token stream must cover every byte");
        prop_assert!(tokens.iter().all(|t| !t.text.is_empty()), "no empty tokens");

        // Positions: each token starts exactly where the previous
        // one's text ends, counting lines and byte columns.
        let (mut line, mut col) = (1u32, 1u32);
        for t in &tokens {
            prop_assert_eq!((t.line, t.col), (line, col), "token {:?}", t.text);
            for b in t.text.bytes() {
                if b == b'\n' {
                    line += 1;
                    col = 1;
                } else {
                    col += 1;
                }
            }
        }
    }

    #[test]
    fn comments_and_strings_never_hide_or_fabricate_findings(
        shield in select(vec!["// {}\n", "/* {} */", "\"{}\"", "r#\"{}\"#"]),
        noise in vec(arb_fragment(), 3),
    ) {
        // The violation text buried inside a comment or string must
        // not be reported — the fn is a real sink (`println!`), so a
        // leak of the shielded `Instant::now()` into the token stream
        // would connect source to sink and fire.
        let buried = format!(
            "fn quiet() {{ println!(\"ok\"); let _ = {}; }}\n",
            shield.replace("{}", "Instant::now()")
        );
        let f = analyze_file(Path::new("crates/x/src/lib.rs"), &buried);
        prop_assert!(
            !f.iter().any(|f| f.rule == "determinism-provenance"),
            "shielded text fabricated a finding: {:?}",
            f
        );

        // ...while the same text as code must be, no matter what
        // comment/string noise surrounds it.
        // Noise that would *legitimately* change rule applicability is
        // neutralized: an unterminated string/comment swallows the
        // code, and #[test] marks the next item as exempt test code.
        let noise = noise
            .concat()
            .replace('"', " ")
            .replace("#[test]", "#[cold]")
            .replace("/* unterminated", "/* terminated */")
            .replace("r# unterminated raw", "r# terminated raw")
            .replace("b unterminated bytes", "b terminated bytes");
        let live = format!("{noise}\nfn loud() {{ println!(\"{{:?}}\", Instant::now()); }}\n");
        let f = analyze_file(Path::new("crates/x/src/lib.rs"), &live);
        prop_assert!(
            f.iter().any(|f| f.rule == "determinism-provenance"),
            "live violation was hidden by surrounding noise `{}`: {:?}",
            live,
            f
        );
    }

    #[test]
    fn token_kinds_partition_code_from_non_code(fragments in vec(arb_fragment(), 6)) {
        let src: String = fragments.concat();
        for t in lex(&src) {
            match t.kind {
                TokenKind::LineComment => prop_assert!(t.text.starts_with("//")),
                TokenKind::BlockComment => prop_assert!(t.text.starts_with("/*")),
                TokenKind::Whitespace => {
                    prop_assert!(t.text.chars().all(char::is_whitespace));
                }
                // Code tokens never contain a newline except string
                // and comment literals, so line-based suppression
                // lookup is sound.
                TokenKind::Ident | TokenKind::Number | TokenKind::Punct | TokenKind::Lifetime => {
                    prop_assert!(!t.text.contains('\n'), "code token spans lines: {:?}", t.text);
                }
                TokenKind::Str | TokenKind::RawStr | TokenKind::Char => {}
            }
        }
    }
}
