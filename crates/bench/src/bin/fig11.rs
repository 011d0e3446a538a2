//! Prints the Figure 11 reproduction (per-iteration CC runtime, all variants).
fn main() {
    println!("{}", bench::fig11(bench::scale_factor()).table());
}
