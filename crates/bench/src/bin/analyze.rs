//! CLI: analyze a workflow instance described in the plain-text format of
//! `repwf_core::textfmt`.
//!
//! ```text
//! analyze <instance.txt>        # full report
//! analyze --example a|b|c       # analyze a paper fixture
//! analyze <instance.txt> --dot overlap|strict   # emit the TPN as DOT
//! ```

use repwf_core::fixtures::{example_a, example_b, example_c};
use repwf_core::model::{CommModel, Instance};
use repwf_core::report::render;
use repwf_core::textfmt::from_text;
use repwf_core::tpn_build::{build_tpn, BuildOptions};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() < 2 {
        eprintln!("usage: analyze <instance.txt> | --example a|b|c [--dot overlap|strict]");
        std::process::exit(2);
    }
    let (inst, rest): (Instance, &[String]) = if args[1] == "--example" {
        let which = args.get(2).map(String::as_str).unwrap_or("a");
        let inst = match which {
            "a" => example_a(),
            "b" => example_b(),
            "c" => example_c(),
            other => {
                eprintln!("unknown example {other}");
                std::process::exit(2);
            }
        };
        (inst, &args[3..])
    } else {
        let text = std::fs::read_to_string(&args[1]).unwrap_or_else(|e| {
            eprintln!("cannot read {}: {e}", args[1]);
            std::process::exit(2);
        });
        let inst = from_text(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse {}: {e}", args[1]);
            std::process::exit(2);
        });
        (inst, &args[2..])
    };

    if let Some(k) = rest.iter().position(|a| a == "--dot") {
        let model = match rest.get(k + 1).map(String::as_str) {
            Some("strict") => CommModel::Strict,
            _ => CommModel::Overlap,
        };
        match build_tpn(&inst, model, &BuildOptions::default()) {
            Ok(built) => {
                print!(
                    "{}",
                    tpn::dot::to_dot(
                        &built.net,
                        &tpn::dot::DotOptions {
                            highlight: Vec::new(),
                            title: format!("{model} TPN"),
                            left_to_right: true,
                        }
                    )
                );
                return;
            }
            Err(e) => {
                eprintln!("cannot build TPN: {e}");
                std::process::exit(1);
            }
        }
    }

    match render(&inst) {
        Ok(text) => print!("{text}"),
        Err(e) => {
            eprintln!("analysis failed: {e}");
            std::process::exit(1);
        }
    }
}
