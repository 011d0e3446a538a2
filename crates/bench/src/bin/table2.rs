//! Prints the Table 2 reproduction (data set properties).
fn main() {
    println!("{}", bench::table2(bench::scale_factor()).table());
}
