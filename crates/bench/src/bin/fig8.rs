//! Prints the Figure 8 reproduction (per-iteration PageRank runtime, Wikipedia).
fn main() {
    println!("{}", bench::fig8(bench::scale_factor(), 20).table());
}
