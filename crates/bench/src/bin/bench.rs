//! `flac-bench` — run one gated benchmark suite, or check its committed
//! report. See [`bench::suite`] for the flags.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(bench::suite::main(&args));
}
