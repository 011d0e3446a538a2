//! Prints the Figure 10 reproduction (incremental CC long tail on Webbase).
fn main() {
    println!("{}", bench::fig10(bench::scale_factor()).table());
}
