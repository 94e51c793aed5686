//! `cmo-benchmark --workload W --seed N --seconds S --trace 0|1`
//! measures one workload and prints one JSON object as the last line of
//! standard output; `--regen-expected` rewrites the frozen reference.

use cmo_benchmark::run::{run, Config};
use cmo_benchmark::workloads::Workload;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: cmo-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                     [--smoke] [--out-dir <dir>] | --regen-expected";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut config = Config {
        workload: Workload::ColdFullJ1,
        seed: 0,
        seconds: 0.0,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut given = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            config.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => config.workload = Workload::parse(value).ok_or_else(bad)?,
            "--seed" => config.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => config.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                config.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out-dir" => config.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
        given.push(flag.as_str());
    }
    for required in ["--workload", "--seed", "--trace"] {
        if !given.contains(&required) {
            return Err(format!("{required} is required"));
        }
    }
    if !config.smoke && !(1.0..=60.0).contains(&config.seconds) {
        return Err("--seconds must be between 1 and 60".to_owned());
    }
    Ok(config)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--regen-expected"] {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/expected/mcad1.json");
        return match cmo_benchmark::expected::regenerate()
            .and_then(|text| Ok(std::fs::write(path, text)?))
        {
            Ok(()) => {
                eprintln!("wrote {path}; rebuild before the next run");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("refusing to write {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let config = match parse(&args) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&config) {
        Ok(outcome) => {
            println!("{}", outcome.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}
