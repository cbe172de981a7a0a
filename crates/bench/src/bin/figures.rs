//! Regenerates the tables and figures of the paper. See EXPERIMENTS.md.
//!
//! ```sh
//! cargo run --release -p matopt-bench --bin figures          # all thirteen
//! cargo run --release -p matopt-bench --bin figures -- 5 13  # Figures 5 and 13
//! ```
//!
//! Set `MATOPT_BRUTE_BUDGET_SECS` (default 10) to lengthen the Figure 13
//! brute-force budget, e.g. to the paper's 30-minute threshold.

use matopt_bench::{figures, Env, FigTable};
use std::time::Duration;

const FIGURES: [fn(&Env) -> FigTable; 12] = [
    figures::fig01,
    figures::fig02,
    figures::fig03,
    figures::fig04,
    figures::fig05,
    figures::fig06,
    figures::fig07,
    figures::fig08,
    figures::fig09,
    figures::fig10,
    figures::fig11,
    figures::fig12,
];

fn main() {
    let mut wanted = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.parse::<usize>() {
            Ok(n) if (1..=13).contains(&n) => wanted.push(n),
            _ => {
                eprintln!("figures: {arg:?} is not a figure number; usage: figures [1..13]...");
                std::process::exit(2);
            }
        }
    }
    if wanted.is_empty() {
        wanted.extend(1..=13);
    }
    let env = Env::new();
    for n in wanted {
        let table = if n == 13 {
            let budget = std::env::var("MATOPT_BRUTE_BUDGET_SECS")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(10u64);
            figures::fig13(&env, Duration::from_secs(budget))
        } else {
            FIGURES[n - 1](&env)
        };
        println!("{table}");
    }
}
