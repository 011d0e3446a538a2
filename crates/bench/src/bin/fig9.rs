//! Prints the Figure 9 reproduction (total Connected Components runtime per system).
fn main() {
    println!("{}", bench::fig9(bench::scale_factor()).table());
}
