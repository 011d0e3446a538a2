//! Prints the Figure 4 reproduction (optimizer plan choice for PageRank).
fn main() {
    println!("{}", bench::fig4().table());
}
