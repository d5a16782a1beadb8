fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(watz_benchmark::cli::main_with(&args));
}
