//! Closed-loop comparison of the engine's persistent worker pool vs a
//! pool made per query, on selective queries. See EXPERIMENTS.md.
fn main() {
    let args = parj_bench::Args::parse(parj_bench::default_scale("pool"));
    let (tables, json) = parj_bench::serve::pool(&args);
    parj_bench::write_outputs(&args.out, "pool", &tables, json);
}
