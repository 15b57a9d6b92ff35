//! Quickstart: build a tiny weighted covering problem, solve it with the
//! default configuration (local search seeding bsolo with LP-relaxation
//! lower bounding) and inspect the result.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use pbo::{solve, InstanceBuilder};

fn main() -> Result<(), pbo::BuildError> {
    // minimize 2 x1 + 3 x2 + 2 x3 + 4 x4
    // subject to: every "element" covered by at least one chosen "set".
    let mut builder = InstanceBuilder::new();
    let sets = builder.new_vars(4);
    builder.name("quickstart-cover");
    builder.add_clause([sets[0].positive(), sets[1].positive()]); // element a
    builder.add_clause([sets[1].positive(), sets[2].positive()]); // element b
    builder.add_clause([sets[2].positive(), sets[3].positive()]); // element c
    builder.minimize([
        (2, sets[0].positive()),
        (3, sets[1].positive()),
        (2, sets[2].positive()),
        (4, sets[3].positive()),
    ]);
    let instance = builder.build()?;
    println!("{instance:?}");

    let result = solve(&instance);
    println!("status      : {}", result.status);
    println!("optimum     : {:?}", result.best_cost);
    if let Some(model) = &result.best_assignment {
        let chosen: Vec<String> = model
            .iter()
            .enumerate()
            .filter(|(_, &v)| v)
            .map(|(i, _)| format!("set{}", i + 1))
            .collect();
        println!("chosen sets : {}", chosen.join(", "));
    }
    println!(
        "effort      : {} decisions, {} conflicts ({} bound conflicts), {} LB calls",
        result.stats.decisions,
        result.stats.conflicts,
        result.stats.bound_conflicts,
        result.stats.lb_calls
    );
    assert_eq!(result.best_cost, Some(4), "x1 + x3 covers everything for 4");
    Ok(())
}
