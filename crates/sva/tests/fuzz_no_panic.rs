//! No-panic fuzzing of the text-facing surfaces. `parse_assertions`
//! consumes raw LLM completions — arbitrary bytes of prose, code, and
//! damage — so the entire path must be total: any input, no panics.
//! That path goes on past the parser: an assertion that parses is
//! compiled against the design, and RTL that parses is elaborated, so
//! both run here too, on generated text that reaches for the widths a
//! value cannot have (0, `BitVecValue::MAX_WIDTH + 1`, `u32::MAX`) and
//! the edges it can (1, `MAX_WIDTH`).

use genfv_ir::{BitVecValue, Context, TransitionSystem};
use genfv_sva::{parse_assertion, parse_assertions, PropertyCompiler};
use proptest::prelude::*;

/// The fixed design generated assertions are compiled against.
const DESIGN: &str = r#"
module fixed (input clk, input rst, input logic [7:0] d, output logic [7:0] count1, count2);
  always_ff @(posedge clk) begin
    if (rst) begin
      count1 <= '0;
      count2 <= '0;
    end else begin
      count1 <= count1 + 8'd1;
      count2 <= count2 + d;
    end
  end
endmodule
"#;

fn fixed_design() -> (Context, TransitionSystem) {
    let module = genfv_hdl::parse_source(DESIGN).unwrap().remove(0);
    let mut ctx = Context::new();
    let ts = genfv_hdl::elaborate(&mut ctx, &module).unwrap();
    (ctx, ts)
}

/// Widths at and past both ends of `1..=BitVecValue::MAX_WIDTH`, plus
/// ordinary ones.
fn edge_width() -> impl Strategy<Value = u64> {
    let max = u64::from(BitVecValue::MAX_WIDTH);
    prop_oneof![Just(0), Just(1), Just(max), Just(max + 1), Just(u64::from(u32::MAX)), 1u64..=16]
}

/// A sized literal `<width>'<base><digits>` at an edge width (digits
/// valid in every base).
fn sized_literal() -> impl Strategy<Value = String> {
    let base = prop_oneof![Just('b'), Just('o'), Just('d'), Just('h')];
    (edge_width(), base, 0u64..2).prop_map(|(w, base, v)| format!("{w}'{base}{v}"))
}

fn operator() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("=="),
        Just("!="),
        Just("<"),
        Just("<="),
        Just("+"),
        Just("-"),
        Just("&"),
        Just("|"),
        Just("^"),
        Just("*"),
    ]
}

fn operand() -> impl Strategy<Value = String> {
    prop_oneof![Just("count1".to_string()), Just("d".to_string()), sized_literal()]
}

/// An assertion body over the fixed design's signals and sized literals.
fn assertion_body() -> impl Strategy<Value = String> {
    (operand(), operator(), operand(), sized_literal(), 0u8..4).prop_map(
        |(a, op, b, literal, shape)| match shape {
            0 => format!("{a} {op} {b}"),
            1 => format!("$onehot({literal})"),
            2 => format!("$past({a}) {op} {b}"),
            _ => format!("count1 == count2 |-> ##1 ({a} {op} {b})"),
        },
    )
}

/// A declared range of a generated width: `[W-1:0]` or `[W:0]` under
/// `parameter W`, or the literal bound.
fn range(width: u64, form: u8) -> String {
    match form {
        0 => "[W-1:0]".to_string(),
        1 => "[W:0]".to_string(),
        _ => format!("[{}:0]", width.saturating_sub(1)),
    }
}

/// A one-register module whose declared range and sized literals sit at
/// the edge widths.
fn module_source() -> impl Strategy<Value = String> {
    (edge_width(), 0u8..3, sized_literal(), operator(), 0u8..3).prop_map(
        |(w, form, lit, op, shape)| {
            let body = match shape {
                0 => format!("c <= c {op} {lit};"),
                1 => format!("c <= {lit};"),
                _ => format!("case (a) {lit}: c <= '0; default: c <= c; endcase"),
            };
            format!(
                "module m #(parameter W = {w}) (input clk, input rst, input logic [3:0] a, \
                 output logic {} c);\n  always_ff @(posedge clk) begin\n    if (rst) c <= '0;\n    \
                 else begin {body} end\n  end\nendmodule\n",
                range(w, form)
            )
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_assertion_never_panics(input in ".{0,200}") {
        let _ = parse_assertion(&input);
    }

    #[test]
    fn parse_assertions_never_panics_on_prose(input in "[ -~\\n]{0,400}") {
        let _ = parse_assertions(&input);
    }

    #[test]
    fn parse_assertions_never_panics_with_keywords(
        pieces in proptest::collection::vec(
            prop_oneof![
                Just("property "),
                Just("endproperty"),
                Just("assert property ("),
                Just(")"),
                Just(";"),
                Just("|->"),
                Just("##1"),
                Just("count1"),
                Just("=="),
                Just("((("),
                Just("8'd42"),
                Just("$past("),
                Just("\n"),
            ],
            0..40,
        )
    ) {
        let text: String = pieces.concat();
        let _ = parse_assertions(&text);
    }

    #[test]
    fn hdl_lexer_never_panics(input in ".{0,200}") {
        let _ = genfv_hdl::lex(&input);
    }

    #[test]
    fn hdl_parser_never_panics(input in "[ -~\\n]{0,300}") {
        let _ = genfv_hdl::parse_source(&input);
        let _ = genfv_hdl::parse_expression(&input);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn generated_assertions_compile_or_fail_cleanly(body in assertion_body()) {
        if let Ok(assertion) = parse_assertion(&format!("assert property ({body});")) {
            let (mut ctx, mut ts) = fixed_design();
            let _ = PropertyCompiler::new(&mut ctx, &mut ts).compile(&assertion);
        }
    }

    #[test]
    fn generated_modules_elaborate_or_fail_cleanly(src in module_source()) {
        if let Ok(modules) = genfv_hdl::parse_source(&src) {
            for module in &modules {
                let _ = genfv_hdl::elaborate(&mut Context::new(), module);
            }
        }
    }
}

#[test]
fn found_assertions_always_reparse() {
    // Anything the scanner extracts must itself round-trip: scan → render
    // → parse. Uses a grab bag of realistic completion fragments.
    let samples = [
        "property a; x == y; endproperty garbage property b; endproperty",
        "assert property (a |-> b); and then assert property ((c));",
        "prose ## property p; q ##1 r |=> s; endproperty more prose",
    ];
    for text in samples {
        for assertion in parse_assertions(text) {
            let rendered = genfv_sva::render_assertion(&assertion);
            let reparsed = parse_assertion(&rendered)
                .unwrap_or_else(|e| panic!("`{rendered}` must reparse: {e}"));
            assert_eq!(assertion.body, reparsed.body);
        }
    }
}
