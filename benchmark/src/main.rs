fn main() {
    std::process::exit(smc_workloads::cli::main());
}
