//! Prints the Figure 7 reproduction (total PageRank runtime per system).
fn main() {
    println!("{}", bench::fig7(bench::scale_factor(), 20).table());
}
