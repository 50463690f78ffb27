//! ISCAS-85 `.bench` format parser.
//!
//! The `.bench` dialect accepted here:
//!
//! ```text
//! # comment
//! INPUT(G1)
//! OUTPUT(G17)
//! G17 = NAND(G1, G5)
//! G5  = NOT(G2)
//! ```
//!
//! Gate names: `AND, NAND, OR, NOR, XOR, XNOR, NOT, BUF/BUFF, CONST0, CONST1`
//! (case-insensitive). Definitions may appear in any order; forward
//! references are resolved in a second pass. Sequential elements (`DFF`) are
//! rejected — PROTEST analyzes combinational circuits.

use std::collections::HashMap;

use crate::error::NetlistError;
use crate::gate::GateKind;
use crate::netlist::{Circuit, CircuitParts, NodeId};

/// Parses ISCAS-85 `.bench` text into a [`Circuit`].
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] for malformed lines, unknown gate types or
/// sequential elements, [`NetlistError::Undefined`] for signals that are read
/// but never defined, and any [`Circuit::validate`] error (cycles, arity…).
pub fn parse_bench(name: &str, text: &str) -> Result<Circuit, NetlistError> {
    enum Def {
        Input,
        /// A gate and the range of its arguments in `args`.
        Gate(GateKind, std::ops::Range<usize>),
    }
    // Names and arguments are borrowed from `text`; only the circuit's
    // own name table owns copies.
    let mut defs: Vec<(&str, Def)> = Vec::new();
    let mut args: Vec<&str> = Vec::new();
    let mut output_names: Vec<&str> = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let lineno = lineno + 1;
        let perr = |message: String| NetlistError::Parse {
            line: lineno,
            message,
        };
        if let Some(rest) = strip_call(line, "INPUT") {
            defs.push((rest, Def::Input));
        } else if let Some(rest) = strip_call(line, "OUTPUT") {
            output_names.push(rest);
        } else if let Some(eq) = line.find('=') {
            let target = line[..eq].trim();
            let rhs = line[eq + 1..].trim();
            let open = rhs
                .find('(')
                .ok_or_else(|| perr(format!("expected `gate(...)` after `=`: `{rhs}`")))?;
            if !rhs.ends_with(')') {
                return Err(perr(format!("missing `)` in `{rhs}`")));
            }
            let gate_name = rhs[..open].trim();
            let kind = match gate_kind(gate_name) {
                Some(kind) => kind,
                None => {
                    let upper = gate_name.to_ascii_uppercase();
                    return Err(perr(if SEQUENTIAL.contains(&upper.as_str()) {
                        format!(
                            "sequential element `{upper}` not supported (combinational circuits only)"
                        )
                    } else {
                        format!("unknown gate type `{upper}`")
                    }));
                }
            };
            let first = args.len();
            args.extend(
                rhs[open + 1..rhs.len() - 1]
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty()),
            );
            defs.push((target, Def::Gate(kind, first..args.len())));
        } else {
            return Err(perr(format!("unrecognized statement `{line}`")));
        }
    }

    // Pass 2: allocate ids in definition order, then resolve references.
    let mut ids: HashMap<&str, NodeId> = HashMap::with_capacity(defs.len());
    for (i, &(name, _)) in defs.iter().enumerate() {
        if ids.insert(name, NodeId(i as u32)).is_some() {
            return Err(NetlistError::DuplicateName {
                name: name.to_string(),
            });
        }
    }
    let resolve = |name: &str| {
        ids.get(name)
            .copied()
            .ok_or_else(|| NetlistError::Undefined {
                name: name.to_string(),
            })
    };
    let mut parts = CircuitParts::new(name);
    let mut fanins: Vec<NodeId> = Vec::new();
    for (i, (sig, def)) in defs.iter().enumerate() {
        match def {
            Def::Input => {
                parts.inputs.push(NodeId(i as u32));
                parts.push_node(GateKind::Input, &[], Some(sig.to_string()));
            }
            Def::Gate(kind, range) => {
                fanins.clear();
                for &a in &args[range.clone()] {
                    fanins.push(resolve(a)?);
                }
                parts.push_node(*kind, &fanins, Some(sig.to_string()));
            }
        }
    }
    for &out in &output_names {
        parts.outputs.push(resolve(out)?);
        parts.output_names.push(None); // the node itself carries the name
    }
    let circuit = parts.assemble();
    circuit.validate()?;
    Ok(circuit)
}

/// Sequential element names, rejected with their own message.
const SEQUENTIAL: [&str; 3] = ["DFF", "DFFSR", "LATCH"];

/// The combinational gate a `.bench` gate name denotes (any letter case).
fn gate_kind(name: &str) -> Option<GateKind> {
    const KINDS: [(&str, GateKind); 12] = [
        ("AND", GateKind::And),
        ("NAND", GateKind::Nand),
        ("OR", GateKind::Or),
        ("NOR", GateKind::Nor),
        ("XOR", GateKind::Xor),
        ("XNOR", GateKind::Xnor),
        ("NOT", GateKind::Not),
        ("INV", GateKind::Not),
        ("BUF", GateKind::Buf),
        ("BUFF", GateKind::Buf),
        ("CONST0", GateKind::Const(false)),
        ("CONST1", GateKind::Const(true)),
    ];
    KINDS
        .iter()
        .find(|(keyword, _)| keyword.eq_ignore_ascii_case(name))
        .map(|&(_, kind)| kind)
}

/// The argument of `KEYWORD(arg)` (keyword in any letter case), trimmed.
fn strip_call<'a>(line: &'a str, keyword: &str) -> Option<&'a str> {
    let head = line.as_bytes().get(..keyword.len())?;
    if !head.eq_ignore_ascii_case(keyword.as_bytes()) {
        return None;
    }
    let rest = line[keyword.len()..].trim();
    let rest = rest.strip_prefix('(')?;
    let rest = rest.strip_suffix(')')?;
    Some(rest.trim())
}

#[cfg(test)]
mod tests {
    use super::*;

    const C17: &str = "\
# c17 — smallest ISCAS-85 benchmark
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
";

    #[test]
    fn parses_c17() {
        let ckt = parse_bench("c17", C17).unwrap();
        assert_eq!(ckt.num_inputs(), 5);
        assert_eq!(ckt.num_outputs(), 2);
        assert_eq!(ckt.num_gates(), 6);
        assert_eq!(ckt.output_name(0), Some("22"));
    }

    #[test]
    fn forward_references_resolve() {
        let text = "\
INPUT(a)
OUTPUT(z)
z = NOT(y)
y = BUF(a)
";
        let ckt = parse_bench("fwd", text).unwrap();
        assert_eq!(ckt.num_gates(), 2);
    }

    #[test]
    fn rejects_undefined_signal() {
        let text = "INPUT(a)\nOUTPUT(z)\nz = NOT(missing)\n";
        assert!(matches!(
            parse_bench("bad", text),
            Err(NetlistError::Undefined { .. })
        ));
    }

    #[test]
    fn rejects_sequential() {
        let text = "INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n";
        assert!(matches!(
            parse_bench("seq", text),
            Err(NetlistError::Parse { .. })
        ));
    }

    #[test]
    fn rejects_unknown_gate() {
        let text = "INPUT(a)\nOUTPUT(z)\nz = FROB(a)\n";
        assert!(matches!(
            parse_bench("bad", text),
            Err(NetlistError::Parse { .. })
        ));
    }

    #[test]
    fn rejects_duplicate_definition() {
        let text = "INPUT(a)\nOUTPUT(z)\nz = NOT(a)\nz = BUF(a)\n";
        assert!(matches!(
            parse_bench("dup", text),
            Err(NetlistError::DuplicateName { .. })
        ));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\n# header\nINPUT(a)  # trailing\n\nOUTPUT(z)\nz = BUF(a)\n";
        assert!(parse_bench("ok", text).is_ok());
    }

    /// Pins every error the text pass can report: the variant, the
    /// 1-based line and the exact message, keyword case included.
    #[test]
    fn error_variants_lines_and_messages_are_pinned() {
        let parse = |line: usize, message: &str| NetlistError::Parse {
            line,
            message: message.to_string(),
        };
        let cases: [(&str, NetlistError, &str); 11] = [
            (
                "INPUT(a)\nOUTPUT(z)\n\nz = NOT a\n",
                parse(4, "expected `gate(...)` after `=`: `NOT a`"),
                "parse error at line 4: expected `gate(...)` after `=`: `NOT a`",
            ),
            (
                "INPUT(a)\nOUTPUT(z)\nz = NOT(a\n",
                parse(3, "missing `)` in `NOT(a`"),
                "parse error at line 3: missing `)` in `NOT(a`",
            ),
            (
                "# header\nINPUT(a\nOUTPUT(z)\n",
                parse(2, "unrecognized statement `INPUT(a`"),
                "parse error at line 2: unrecognized statement `INPUT(a`",
            ),
            (
                "INPUT(a)\nOUTPUT(z)\nz = frob(a)\n",
                parse(3, "unknown gate type `FROB`"),
                "parse error at line 3: unknown gate type `FROB`",
            ),
            (
                "INPUT(a)\nOUTPUT(q)\nq = dff(a)\n",
                parse(
                    3,
                    "sequential element `DFF` not supported (combinational circuits only)",
                ),
                "parse error at line 3: sequential element `DFF` not supported \
                 (combinational circuits only)",
            ),
            (
                "INPUT(a)\nOUTPUT(q)\nq = Latch(a)  # comment\n",
                parse(
                    3,
                    "sequential element `LATCH` not supported (combinational circuits only)",
                ),
                "parse error at line 3: sequential element `LATCH` not supported \
                 (combinational circuits only)",
            ),
            (
                "INPUT(a)\nOUTPUT(z)\nz = NOT(missing)\n",
                NetlistError::Undefined {
                    name: "missing".to_string(),
                },
                "signal `missing` referenced but never defined",
            ),
            (
                "INPUT(a)\nOUTPUT(nope)\nz = NOT(a)\n",
                NetlistError::Undefined {
                    name: "nope".to_string(),
                },
                "signal `nope` referenced but never defined",
            ),
            (
                "INPUT(a)\nINPUT( a )\nOUTPUT(z)\nz = NOT(a)\n",
                NetlistError::DuplicateName {
                    name: "a".to_string(),
                },
                "duplicate signal name `a`",
            ),
            (
                "INPUT(a)\nOUTPUT(z)\nz = NOT(a)\nz = BUF(a)\n",
                NetlistError::DuplicateName {
                    name: "z".to_string(),
                },
                "duplicate signal name `z`",
            ),
            (
                "INPUT(a)\nOUTPUTS(z)\n",
                parse(2, "unrecognized statement `OUTPUTS(z)`"),
                "parse error at line 2: unrecognized statement `OUTPUTS(z)`",
            ),
        ];
        for (text, want, message) in cases {
            let got = parse_bench("pinned", text).unwrap_err();
            assert_eq!(got, want, "{text:?}");
            assert_eq!(got.to_string(), message, "{text:?}");
        }
    }

    #[test]
    fn keywords_and_gate_names_are_case_insensitive() {
        let text = "input(a)\nInput(b)\noutput(z)\nINPUT_x = and(a, b)\nz = Nand(INPUT_x, , a)\n";
        let ckt = parse_bench("case", text).unwrap();
        assert_eq!(ckt.num_inputs(), 2);
        assert_eq!(ckt.num_gates(), 2);
        let z = ckt.find("z").unwrap();
        assert_eq!(ckt.node(z).kind(), GateKind::Nand);
        assert_eq!(ckt.node(z).fanins().len(), 2);
        assert_eq!(ckt.node_label(ckt.node(z).fanins()[0]), "INPUT_x");
    }

    #[test]
    fn rejects_cycle() {
        let text = "INPUT(a)\nOUTPUT(x)\nx = AND(a, y)\ny = BUF(x)\n";
        assert!(matches!(
            parse_bench("cyc", text),
            Err(NetlistError::Cycle { .. })
        ));
    }
}
