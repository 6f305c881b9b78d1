//! `flac-bench` — re-record one benchmark suite's committed report, or
//! check that the tree still produces it. See [`bench::suite`].

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(bench::suite::main(&args));
}
