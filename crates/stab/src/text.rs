//! Stim-compatible text serialization of circuits.
//!
//! Circuits export to (a subset of) Stim's circuit language and parse back,
//! so experiments built here can be cross-checked against Stim itself, and
//! circuits generated elsewhere can be imported. Supported instructions:
//! `R`, `RX`, `M(p)`, `MX(p)`, the Clifford gates `X Y Z H S S_DAG CX CZ
//! SWAP`, the noise channels `X_ERROR Y_ERROR Z_ERROR DEPOLARIZE1
//! DEPOLARIZE2`, and the annotations `DETECTOR` / `OBSERVABLE_INCLUDE(k)`
//! with `rec[-n]` lookback targets.

use crate::circuit::{Basis, Circuit, Gate1, Gate2, MeasIdx, Noise1, Noise2, Op};
use crate::error::{check_probability, CircuitError};
use std::fmt::Write as _;

/// Error produced when parsing circuit text.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseCircuitError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseCircuitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseCircuitError {}

/// Serializes a circuit to Stim-compatible text.
///
/// # Examples
///
/// ```
/// use caliqec_stab::{Basis, Circuit, to_stim_text};
///
/// let mut c = Circuit::new(2);
/// c.reset(Basis::Z, &[0, 1]);
/// c.cx(0, 1);
/// let m = c.measure(1, Basis::Z, 0.0);
/// c.detector(&[m]);
/// let text = to_stim_text(&c);
/// assert!(text.contains("CX 0 1"));
/// assert!(text.contains("DETECTOR rec[-1]"));
/// ```
pub fn to_stim_text(circuit: &Circuit) -> String {
    let mut out = String::new();
    let mut meas_count: i64 = 0;
    for op in circuit.ops() {
        match op {
            Op::G1(g, qs) => {
                let name = match g {
                    Gate1::X => "X",
                    Gate1::Y => "Y",
                    Gate1::Z => "Z",
                    Gate1::H => "H",
                    Gate1::S => "S",
                    Gate1::SDag => "S_DAG",
                };
                let _ = write!(out, "{name}");
                for q in qs {
                    let _ = write!(out, " {q}");
                }
                out.push('\n');
            }
            Op::G2(g, pairs) => {
                let name = match g {
                    Gate2::Cx => "CX",
                    Gate2::Cz => "CZ",
                    Gate2::Swap => "SWAP",
                };
                let _ = write!(out, "{name}");
                for (a, b) in pairs {
                    let _ = write!(out, " {a} {b}");
                }
                out.push('\n');
            }
            Op::Measure { basis, qubit, flip } => {
                let name = match basis {
                    Basis::Z => "M",
                    Basis::X => "MX",
                };
                if *flip > 0.0 {
                    let _ = writeln!(out, "{name}({flip}) {qubit}");
                } else {
                    let _ = writeln!(out, "{name} {qubit}");
                }
                meas_count += 1;
            }
            Op::Reset(basis, qs) => {
                let name = match basis {
                    Basis::Z => "R",
                    Basis::X => "RX",
                };
                let _ = write!(out, "{name}");
                for q in qs {
                    let _ = write!(out, " {q}");
                }
                out.push('\n');
            }
            Op::Noise1(kind, p, qs) => {
                let name = match kind {
                    Noise1::Depolarize1 => "DEPOLARIZE1",
                    Noise1::XError => "X_ERROR",
                    Noise1::YError => "Y_ERROR",
                    Noise1::ZError => "Z_ERROR",
                };
                let _ = write!(out, "{name}({p})");
                for q in qs {
                    let _ = write!(out, " {q}");
                }
                out.push('\n');
            }
            Op::Noise2(kind, p, pairs) => {
                let name = match kind {
                    Noise2::Depolarize2 => "DEPOLARIZE2",
                };
                let _ = write!(out, "{name}({p})");
                for (a, b) in pairs {
                    let _ = write!(out, " {a} {b}");
                }
                out.push('\n');
            }
            Op::Detector(meas) => {
                let _ = write!(out, "DETECTOR");
                for m in meas {
                    let _ = write!(out, " rec[{}]", m.0 as i64 - meas_count);
                }
                out.push('\n');
            }
            Op::Observable(i, meas) => {
                let _ = write!(out, "OBSERVABLE_INCLUDE({i})");
                for m in meas {
                    let _ = write!(out, " rec[{}]", m.0 as i64 - meas_count);
                }
                out.push('\n');
            }
        }
    }
    out
}

/// Parses Stim-compatible circuit text.
///
/// The number of qubits is inferred from the largest target index.
///
/// # Errors
///
/// Returns a [`ParseCircuitError`] with the offending line for unsupported
/// instructions, malformed arguments, probabilities that are not finite or
/// not in `[0, 1]`, two-qubit targets that repeat a qubit, observable
/// indices that are not integers in `0..64`, or out-of-range `rec[...]`
/// lookbacks.
pub fn from_stim_text(text: &str) -> Result<Circuit, ParseCircuitError> {
    // First pass: find the qubit count.
    let mut max_qubit: u32 = 0;
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        for token in line.split_whitespace().skip(1) {
            if let Ok(q) = token.parse::<u32>() {
                max_qubit = max_qubit.max(q);
            }
        }
    }
    let mut circuit = Circuit::new(max_qubit as usize + 1);
    let mut meas: Vec<MeasIdx> = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let head = tokens.next().expect("nonempty line");
        let (name, arg) = match head.split_once('(') {
            Some((n, rest)) => {
                let arg =
                    rest.trim_end_matches(')')
                        .parse::<f64>()
                        .map_err(|_| ParseCircuitError {
                            line: lineno,
                            message: format!("bad argument in {head:?}"),
                        })?;
                (n, Some(arg))
            }
            None => (head, None),
        };
        let qubits: Result<Vec<u32>, _> = tokens
            .clone()
            .filter(|t| !t.starts_with("rec["))
            .map(|t| {
                t.parse::<u32>().map_err(|_| ParseCircuitError {
                    line: lineno,
                    message: format!("bad qubit target {t:?}"),
                })
            })
            .collect();
        let recs: Result<Vec<MeasIdx>, _> = tokens
            .filter(|t| t.starts_with("rec["))
            .map(|t| {
                let inner = t
                    .trim_start_matches("rec[")
                    .trim_end_matches(']')
                    .parse::<i64>()
                    .map_err(|_| ParseCircuitError {
                        line: lineno,
                        message: format!("bad record target {t:?}"),
                    })?;
                let idx = meas.len() as i64 + inner;
                if inner >= 0 || idx < 0 {
                    return Err(ParseCircuitError {
                        line: lineno,
                        message: format!("record lookback {inner} out of range"),
                    });
                }
                Ok(MeasIdx(idx as u32))
            })
            .collect();
        let qubits = qubits?;
        let recs = recs?;
        let fail = |message: String| ParseCircuitError {
            line: lineno,
            message,
        };
        // A noise rate or readout-flip probability; absent means 0.
        let probability = || -> Result<f64, ParseCircuitError> {
            let p = arg.unwrap_or(0.0);
            check_probability(p).map_err(|e| fail(e.to_string()))?;
            Ok(p)
        };
        // Two-qubit targets: an even count, each pair on distinct qubits.
        let pairs = || -> Result<Vec<(u32, u32)>, ParseCircuitError> {
            if qubits.len() % 2 != 0 {
                return Err(fail(format!("{name} needs an even number of targets")));
            }
            qubits
                .chunks(2)
                .map(|p| {
                    if p[0] == p[1] {
                        Err(fail(
                            CircuitError::DuplicatePairTarget { qubit: p[0] }.to_string(),
                        ))
                    } else {
                        Ok((p[0], p[1]))
                    }
                })
                .collect()
        };

        let g1 = |g: Gate1, c: &mut Circuit| {
            c.g1_all(g, &qubits);
        };
        match name {
            "X" => g1(Gate1::X, &mut circuit),
            "Y" => g1(Gate1::Y, &mut circuit),
            "Z" => g1(Gate1::Z, &mut circuit),
            "H" => g1(Gate1::H, &mut circuit),
            "S" => g1(Gate1::S, &mut circuit),
            "S_DAG" => g1(Gate1::SDag, &mut circuit),
            "CX" | "CNOT" | "CZ" | "SWAP" => {
                let gate = match name {
                    "CX" | "CNOT" => Gate2::Cx,
                    "CZ" => Gate2::Cz,
                    _ => Gate2::Swap,
                };
                for (a, b) in pairs()? {
                    circuit.g2(gate, a, b);
                }
            }
            "R" => {
                circuit.reset(Basis::Z, &qubits);
            }
            "RX" => {
                circuit.reset(Basis::X, &qubits);
            }
            "M" | "MX" => {
                let basis = if name == "M" { Basis::Z } else { Basis::X };
                let flip = probability()?;
                for &q in &qubits {
                    meas.push(circuit.measure(q, basis, flip));
                }
            }
            "X_ERROR" | "Y_ERROR" | "Z_ERROR" | "DEPOLARIZE1" => {
                let kind = match name {
                    "X_ERROR" => Noise1::XError,
                    "Y_ERROR" => Noise1::YError,
                    "Z_ERROR" => Noise1::ZError,
                    _ => Noise1::Depolarize1,
                };
                circuit.noise1(kind, probability()?, &qubits);
            }
            "DEPOLARIZE2" => {
                circuit.noise2(Noise2::Depolarize2, probability()?, &pairs()?);
            }
            "DETECTOR" => {
                circuit.detector(&recs);
            }
            "OBSERVABLE_INCLUDE" => {
                let index =
                    arg.ok_or_else(|| fail("OBSERVABLE_INCLUDE needs an index".to_string()))?;
                if index.fract() != 0.0 || !(0.0..64.0).contains(&index) {
                    return Err(fail(format!(
                        "observable index {index} is not an integer in 0..64"
                    )));
                }
                circuit.observable(index as usize, &recs);
            }
            other => {
                return Err(ParseCircuitError {
                    line: lineno,
                    message: format!("unsupported instruction {other:?}"),
                })
            }
        }
    }
    Ok(circuit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{Basis, Circuit, Noise1, Noise2};

    fn sample_circuit() -> Circuit {
        let mut c = Circuit::new(4);
        c.reset(Basis::Z, &[0, 1, 2, 3]);
        c.noise1(Noise1::Depolarize1, 0.001, &[0, 1]);
        c.h(0);
        c.cx(0, 2);
        c.cz(1, 3);
        c.noise2(Noise2::Depolarize2, 0.002, &[(0, 2)]);
        let m0 = c.measure(2, Basis::Z, 0.01);
        let m1 = c.measure(3, Basis::X, 0.0);
        c.detector(&[m0]);
        c.detector(&[m0, m1]);
        c.observable(0, &[m1]);
        c
    }

    #[test]
    fn roundtrip_preserves_ops() {
        let c = sample_circuit();
        let text = to_stim_text(&c);
        let parsed = from_stim_text(&text).expect("parses");
        assert_eq!(parsed.ops(), c.ops());
        assert_eq!(parsed.num_measurements(), c.num_measurements());
        assert_eq!(parsed.num_detectors(), c.num_detectors());
        assert_eq!(parsed.num_observables(), c.num_observables());
    }

    #[test]
    fn exports_stim_syntax() {
        let text = to_stim_text(&sample_circuit());
        assert!(text.contains("R 0 1 2 3"));
        assert!(text.contains("DEPOLARIZE1(0.001) 0 1"));
        assert!(text.contains("M(0.01) 2"));
        assert!(text.contains("MX 3"));
        assert!(text.contains("DETECTOR rec[-2] rec[-1]"));
        assert!(text.contains("OBSERVABLE_INCLUDE(0) rec[-1]"));
    }

    #[test]
    fn parses_comments_and_blank_lines() {
        let c = from_stim_text("# header\n\nR 0\nM 0  # readout\nDETECTOR rec[-1]\n").unwrap();
        assert_eq!(c.num_detectors(), 1);
    }

    #[test]
    fn rejects_unknown_instruction() {
        let err = from_stim_text("FROB 1 2").unwrap_err();
        assert!(err.message.contains("unsupported"));
        assert_eq!(err.line, 1);
    }

    #[test]
    fn rejects_future_lookback() {
        let err = from_stim_text("R 0\nDETECTOR rec[0]").unwrap_err();
        assert!(err.message.contains("out of range"));
    }

    #[test]
    fn rejects_malformed_targets_and_arguments() {
        // (input, offending line, message fragment)
        let cases = [
            ("CX 0 0", 1, "targets qubit 0 twice"),
            ("R 0 1\nCZ 0 1 1 1", 2, "targets qubit 1 twice"),
            ("DEPOLARIZE2(0.1) 1 1", 1, "targets qubit 1 twice"),
            ("DEPOLARIZE2(0.1) 0 1 2", 1, "even number of targets"),
            ("M(1.5) 0", 1, "probability 1.5"),
            ("MX(inf) 0", 1, "probability inf"),
            ("X_ERROR(2) 0", 1, "probability 2"),
            ("DEPOLARIZE1(-0.1) 0", 1, "probability -0.1"),
            ("Z_ERROR(nan) 0", 1, "probability NaN"),
            ("OBSERVABLE_INCLUDE(-1)", 1, "observable index -1"),
            (
                "M 0\nOBSERVABLE_INCLUDE(64) rec[-1]",
                2,
                "observable index 64",
            ),
            (
                "M 0\nOBSERVABLE_INCLUDE(1.5) rec[-1]",
                2,
                "observable index 1.5",
            ),
        ];
        for (input, line, fragment) in cases {
            let err = from_stim_text(input).expect_err(input);
            assert_eq!(err.line, line, "{input:?}: {err}");
            assert!(err.message.contains(fragment), "{input:?}: {err}");
        }
        // The bounds themselves are accepted.
        let c = from_stim_text("M(1) 0\nX_ERROR(0) 0\nOBSERVABLE_INCLUDE(63) rec[-1]").unwrap();
        assert_eq!(c.num_observables(), 64);
    }

    #[test]
    fn cnot_alias_accepted() {
        let c = from_stim_text("R 0 1\nCNOT 0 1\nM 1").unwrap();
        assert_eq!(c.num_measurements(), 1);
    }

    #[test]
    fn multi_target_two_qubit_lines() {
        let c = from_stim_text("R 0 1 2 3\nCX 0 1 2 3\n").unwrap();
        let cx_ops = c
            .ops()
            .iter()
            .filter(|op| matches!(op, crate::circuit::Op::G2(..)))
            .count();
        assert_eq!(cx_ops, 2);
    }
}
