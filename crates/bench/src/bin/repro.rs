//! `repro [--check] [NAME...]`: writes every deterministic result file
//! under `results/`, or checks them (see `fa_bench::repro`).

fn main() -> std::process::ExitCode {
    fa_bench::repro::main(std::env::args().skip(1))
}
