//! Frozen reference outputs. `expected/mcad1.json` holds the output
//! checksum and return value of the program on its reference input,
//! produced once from the `+O1` build (no HLO) and cross-checked
//! against `+O2` and `+O4 +P`. No build under test ever produces the
//! reference it is checked against; link order does not change what
//! the program computes, so one record covers every seed.

use crate::inputs::{self, Inputs};
use cmo::{BuildOptions, Compiler, OptLevel};
use std::error::Error;

const FROZEN: &str = include_str!("../expected/mcad1.json");

/// What the program must compute on its reference input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// Source lines of the generated program (guards against a changed
    /// generator: a different program has a different reference).
    pub lines: u64,
    /// Output checksum.
    pub checksum: u64,
    /// `main`'s return value.
    pub returned: i64,
}

/// The value of `"key": value` in a flat JSON object, without quotes.
#[must_use]
pub fn flat_field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let tail = &text[text.find(&format!("\"{key}\":"))? + key.len() + 3..];
    let end = tail.find([',', '\n', '}'])?;
    Some(tail[..end].trim().trim_matches('"'))
}

fn parse(text: &str, prefix: &str) -> Option<Expected> {
    let field = |name: &str| flat_field(text, &format!("{prefix}_{name}"));
    Some(Expected {
        lines: field("lines")?.parse().ok()?,
        checksum: u64::from_str_radix(field("checksum")?, 16).ok()?,
        returned: field("returned")?.parse().ok()?,
    })
}

fn prefix(smoke: bool) -> &'static str {
    if smoke {
        "smoke"
    } else {
        "full"
    }
}

/// The frozen reference for the measured program, or for the `--smoke`
/// one.
///
/// # Panics
///
/// Panics if the committed file is malformed.
#[must_use]
pub fn frozen(smoke: bool) -> Expected {
    parse(FROZEN, prefix(smoke)).expect("expected/mcad1.json is well-formed")
}

/// Builds `inputs` at `+O1`, `+O2` and `+O4 +P` and returns what they
/// compute, refusing unless all three agree.
fn derive(inputs: &Inputs) -> Result<Expected, Box<dyn Error>> {
    let mut cc = Compiler::new();
    cc.add_sources(&inputs.modules, 1)?;
    let db = cc
        .build(&BuildOptions::instrumented())?
        .run_for_profile(&inputs.train_input)?;
    let configs = [
        ("+O1", BuildOptions::new(OptLevel::O1)),
        ("+O2", BuildOptions::o2()),
        (
            "+O4 +P",
            BuildOptions::new(OptLevel::O4)
                .with_profile_db(db)
                .with_selectivity(crate::workloads::SELECTIVITY),
        ),
    ];
    let mut agreed: Option<Expected> = None;
    for (label, options) in configs {
        let run = cc.build(&options)?.run(&inputs.ref_input)?;
        let got = Expected {
            lines: inputs.total_lines,
            checksum: run.checksum,
            returned: run.returned,
        };
        match agreed {
            None => agreed = Some(got),
            Some(first) if first != got => {
                return Err(format!("{label} computes {got:?} but +O1 computes {first:?}").into())
            }
            Some(_) => {}
        }
    }
    Ok(agreed.expect("three configurations ran"))
}

/// The text of a fresh `expected/mcad1.json`.
///
/// # Errors
///
/// Fails if a build fails or the three optimization levels disagree,
/// or if a second link order computes something else.
pub fn regenerate() -> Result<String, Box<dyn Error>> {
    let mut out = String::from(
        "{\n  \"preset\": \"mcad1\",\n  \"produced_by\": \"+O1 build, cross-checked against +O2 and +O4 +P (run.sh --regen-expected)\"",
    );
    for (smoke, scale) in [(false, inputs::FULL_SCALE), (true, inputs::SMOKE_SCALE)] {
        let expected = derive(&inputs::make(0, 0, scale))?;
        if derive(&inputs::make(1, 0, scale))? != expected {
            return Err("link order changed what the program computes".into());
        }
        let p = prefix(smoke);
        out.push_str(&format!(
            ",\n  \"{p}_lines\": {},\n  \"{p}_checksum\": \"{:016x}\",\n  \"{p}_returned\": {}",
            expected.lines, expected.checksum, expected.returned
        ));
    }
    out.push_str("\n}\n");
    Ok(out)
}
