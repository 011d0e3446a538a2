//! Prints the Figure 12 reproduction (runtime vs. messages per iteration).
fn main() {
    println!("{}", bench::fig12(bench::scale_factor()).table());
}
