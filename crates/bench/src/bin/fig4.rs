//! Regenerates paper Fig. 4 (throughput under repeated bug triggers:
//! First-Aid vs Rx vs restart, Apache and Squid). Also writes the raw
//! series to `results/fig4.json`.

use fa_apps::spec_by_key;
use fa_bench::{fig4, gate};
use serde::Serialize;

#[derive(Serialize)]
struct Results {
    figures: Vec<fig4::Fig4>,
}

fn main() {
    let mut results = Results {
        figures: Vec::new(),
    };
    for key in ["apache", "squid"] {
        let spec = spec_by_key(key).unwrap();
        let fig = fig4::run_app(&spec, 14_000, 2_500);
        println!("{}", fig4::render(&fig));
        for s in &fig.series {
            println!("# {} raw series (s, MB/s):", s.system);
            for (t, v) in &s.points {
                println!("{t:.2}\t{v:.3}");
            }
            println!();
        }
        results.figures.push(fig);
    }
    gate::write_results("fig4", &results);
}
