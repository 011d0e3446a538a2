//! Prints the Figure 2 reproduction (effective work of incremental CC on FOAF).
fn main() {
    println!("{}", bench::fig2(bench::scale_factor()).table());
}
