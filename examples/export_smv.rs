//! Exports an arbiter netlist as an SMV program (to stdout), so it can
//! be checked with the CLI:
//!
//! ```sh
//! cargo run --example export_smv > arbiter.smv
//! cargo run --bin smc -- check --trace arbiter.smv
//! ```
//!
//! An optional argument scales the circuit to `n` users (default 2, the
//! paper's Seitz arbiter); `scripts/stress.sh` uses this for its
//! deadline-bounded large-model run:
//!
//! ```sh
//! cargo run --example export_smv -- 6 > arbiter6.smv
//! ```

use smc::circuits::arbiter::arbiter;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("user count must be a number >= 2"))
        .unwrap_or(2);
    let arb = arbiter(n);
    let mut source = arb.netlist.to_smv();
    source.push_str("SPEC AG !(meo1 & meo2)\n");
    source.push_str("SPEC AG (tr1 -> AF ta1)\n");
    source.push_str("SPEC AG (ur2 -> AF ua2)\n");
    print!("{source}");
}
