//! `reproduce` — regenerate every table and figure of the paper's evaluation.
//! Run it with no argument to list the sections; [`xaas_bench::main`] documents them.

fn main() {
    xaas_bench::main();
}
